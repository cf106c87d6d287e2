//! One run of one workload, as the driver invokes it:
//! `--workload W --seed N --seconds S --trace 0|1` → one JSON line.
//!
//! With tracing off the run measures the end-to-end metrics; with tracing
//! on it records spans around each call into a layer, folds them into the
//! per-layer metrics and writes `trace-<workload>.jsonl`.  Either way it
//! checks the program's outputs and leaves a sidecar
//! `run-<workload>-t<trace>.json` (host, noise, hashes, window statistics,
//! failed checks) that the suite and `benchmark compare` read.

use crate::adapter::Sim;
use crate::host::{self, Noise};
use crate::json::Json;
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::{campaign, scenario, wedge};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where sidecars, traces and scratch directories go.
    pub out: PathBuf,
}

impl RunArgs {
    /// A scratch directory of this run's own, emptied first and removed
    /// when the run ends.
    fn work_dir(&self) -> Result<PathBuf, String> {
        let dir = self.out.join("work").join(format!(
            "{}-t{}-{}",
            self.workload.name(),
            self.trace as u8,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Operations attempted and failed: every `try_step`, every golden,
/// every hash comparison, every snapshot round trip, every campaign run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    /// Count `n` checks that passed.
    pub fn passed(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Count one engine step; `false` means the engine must be dropped.
    pub fn step(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("try_step: {e}"));
                false
            }
        }
    }
}

/// `steps` engine steps as one timed window, in seconds.
pub fn window(sim: &mut Sim, steps: usize, checks: &mut Checks) -> f64 {
    let t = Instant::now();
    for _ in 0..steps {
        if !checks.step(sim.step()) {
            break;
        }
    }
    t.elapsed().as_secs_f64()
}

/// What a workload hands back: metric values by name, the check tally,
/// and whatever else is worth keeping in the sidecar.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Checks,
    pub detail: Json,
    /// Window-time p50 ÷ p25, for workloads that have windows.
    pub window_skew: Option<f64>,
}

/// The sidecar's `spread` block: how far each end-to-end estimate moved
/// between the halves of its samples.  The three timing metrics are one
/// measurement in three units.
pub fn spread_json(setup: f64, timing: f64) -> Json {
    Json::obj()
        .with("setup_s", setup)
        .with("steps_per_s", timing)
        .with("ns_per_particle_step", timing)
        .with("time_to_solution_s", timing)
}

/// Run the workload, write the sidecar, and return the driver's result
/// object: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn run(args: &RunArgs) -> Json {
    std::fs::create_dir_all(&args.out).expect("create the benchmark's output directory");
    let noise = Noise::start();
    let started = Instant::now();
    let body = match (args.workload, args.trace) {
        (Workload::ScenarioRarefiedQuick, false) => scenario::untraced,
        (Workload::ScenarioRarefiedQuick, true) => scenario::traced,
        (Workload::CampaignMachSweep, false) => campaign::untraced,
        (Workload::CampaignMachSweep, true) => campaign::traced,
        (_, false) => wedge::untraced,
        (_, true) => wedge::traced,
    };
    let mut outcome = Outcome::default();
    let done = args.work_dir().and_then(|work| {
        let done = body(args, &work, &mut outcome);
        let _ = std::fs::remove_dir_all(&work);
        done
    });
    if let Err(e) = done {
        outcome.checks.check(&format!("workload ran: {e}"), false);
    }
    if !args.trace {
        match host::peak_rss_mb() {
            Some(mb) => {
                outcome.metrics.insert("peak_rss_mb", mb);
            }
            None => outcome
                .checks
                .check("VmHWM readable in /proc/self/status", false),
        }
    }

    // The metric set is fixed by `spec`: every end-to-end metric must have
    // been measured; a per-layer metric this workload's layers never touch
    // reads 0.
    let mut metrics = Json::obj();
    let mut known: Vec<&str> = Vec::new();
    if args.trace {
        for m in &PER_LAYER {
            known.push(m.name);
            let mut value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                outcome
                    .checks
                    .check(&format!("{} is a finite number", m.name), false);
                value = 0.0;
            }
            metrics.set(
                m.name,
                Json::obj().with("value", value).with("unit", m.unit),
            );
        }
    } else {
        for m in &END_TO_END {
            known.push(m.name);
            let value = outcome.metrics.get(m.name).copied().unwrap_or(f64::NAN);
            let measured = value.is_finite() && value > 0.0;
            outcome
                .checks
                .check(&format!("{} was measured", m.name), measured);
            let value = if measured { value } else { 0.0 };
            metrics.set(
                m.name,
                Json::obj().with("value", value).with("unit", m.unit),
            );
        }
    }
    for name in outcome.metrics.keys().filter(|n| !known.contains(n)) {
        outcome
            .checks
            .check(&format!("{name} is a metric of this pass"), false);
    }

    let checks = &outcome.checks;
    let result = Json::obj()
        .with("correct", checks.failed == 0)
        .with("attempted", checks.attempted.max(1))
        .with("failed", checks.failed)
        .with("metrics", metrics);

    let sidecar = Json::obj()
        .with("workload", args.workload.name())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("wall_s", started.elapsed().as_secs_f64())
        .with("host", host::host_block())
        .with("noise", noise.finish(outcome.window_skew))
        .with(
            "failures",
            checks
                .failures
                .iter()
                .map(|f| Json::from(f.as_str()))
                .collect::<Vec<_>>(),
        )
        .with("detail", outcome.detail)
        .with("result", result.clone());
    let path = args.out.join(format!(
        "run-{}-t{}.json",
        args.workload.name(),
        args.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, sidecar.pretty()) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
    for f in &checks.failures {
        eprintln!("benchmark: FAILED {f}");
    }
    result
}
