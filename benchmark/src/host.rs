//! The recording host and how noisy it was: core count, thread pins,
//! toolchain, CPU steal and pressure over a run, and the process's peak
//! resident size.  Everything is read from `/proc`; a file that is missing
//! (another OS, a locked-down container) reads as "unknown", never as an
//! error.

use crate::json::Json;

/// Above this share of stolen CPU time a run is marked noisy.
const STEAL_NOISY: f64 = 0.02;
/// Above this window-time p50 ÷ p25 a run is marked noisy.
const WINDOW_SKEW_NOISY: f64 = 1.15;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host block stamped into every result file.  `run.sh` exports the
/// toolchain and commit (the driver's checkout is not a git repository,
/// so the commit is often unknown there).
pub fn host_block() -> Json {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    Json::obj()
        .with("nproc", nproc())
        .with("rayon_num_threads", env("RAYON_NUM_THREADS"))
        .with("rustc", env("BENCH_RUSTC"))
        .with("commit", env("BENCH_COMMIT"))
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(stolen, total)` jiffies from the aggregate `cpu` line of `/proc/stat`.
fn cpu_jiffies() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Microseconds some task waited for a CPU (`/proc/pressure/cpu`).
fn cpu_pressure_us() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/pressure/cpu").ok()?;
    let some = text.lines().find(|l| l.starts_with("some"))?;
    some.split_whitespace()
        .find_map(|f| f.strip_prefix("total="))?
        .parse()
        .ok()
}

/// Noise counters taken when a run starts; [`Noise::finish`] turns them
/// into the run's noise record.
pub struct Noise {
    jiffies: Option<(f64, f64)>,
    pressure_us: Option<f64>,
}

impl Noise {
    pub fn start() -> Noise {
        Noise {
            jiffies: cpu_jiffies(),
            pressure_us: cpu_pressure_us(),
        }
    }

    /// The noise record: steal fraction and CPU-pressure delta over the
    /// run, the window-time skew when the workload has windows, and the
    /// verdict.
    pub fn finish(self, window_p50_over_p25: Option<f64>) -> Json {
        let steal = match (self.jiffies, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) / (t1 - t0)),
            _ => None,
        };
        let pressure = match (self.pressure_us, cpu_pressure_us()) {
            (Some(p0), Some(p1)) => Some((p1 - p0) / 1e6),
            _ => None,
        };
        let noisy = steal.is_some_and(|s| s > STEAL_NOISY)
            || window_p50_over_p25.is_some_and(|k| k > WINDOW_SKEW_NOISY);
        let num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        Json::obj()
            .with("steal_frac", num(steal))
            .with("cpu_pressure_s", num(pressure))
            .with("window_p50_over_p25", num(window_p50_over_p25))
            .with("noisy", noisy)
    }
}
