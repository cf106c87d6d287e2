//! The whole benchmark in one command: every workload with tracing off,
//! then every workload traced, each run in a child process of its own (so
//! `peak_rss_mb` is the workload's alone) — the same runs the driver makes
//! one at a time.  Prints every metric by name with its unit, checks the
//! outputs, and writes `results.json`; `--twice` does it all again and
//! compares the two result sets under the benchmark's own bounds.

use crate::compare;
use crate::host;
use crate::json::Json;
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// The recorded reference results: a result set of the reference seed whose
/// hashes tell a changed trajectory from a failure.
const RECORDED: &str = "benchmark/recorded/results-a.json";

/// One child run: the driver's result object plus the run's sidecar.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let trace_flag = if trace { "1" } else { "0" };
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", trace_flag])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let result = Json::parse(line)?;
    let sidecar_path = out.join(format!("run-{}-t{trace_flag}.json", workload.name()));
    let sidecar = std::fs::read_to_string(&sidecar_path)
        .map_err(|e| format!("{}: {e}", sidecar_path.display()))
        .and_then(|text| Json::parse(&text))?;
    Ok((result, sidecar))
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One pass over the five workloads, twice (untraced, traced), reduced to
/// the result set `results.json` holds.
fn one_suite(seed: u64, seconds: f64, out: &Path) -> Result<Json, String> {
    let mut workloads = Json::obj();
    let mut noisy = false;
    let mut check_hashes: Vec<(&str, String)> = Vec::new();
    for workload in Workload::ALL {
        eprintln!("== {} (tracing off)", workload.name());
        let (plain, plain_side) = child_run(workload, seed, seconds, false, out)?;
        eprintln!("== {} (traced)", workload.name());
        let (traced, traced_side) = child_run(workload, seed, seconds, true, out)?;

        let attempted = num(&plain, "attempted") + num(&traced, "attempted");
        let failed = num(&plain, "failed") + num(&traced, "failed");
        let detail = plain_side.get("detail").cloned().unwrap_or_default();
        let spread = detail.get("spread").cloned().unwrap_or_default();
        let mut end_to_end = Json::obj();
        for m in &END_TO_END {
            let measured = plain
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .ok_or_else(|| format!("{} did not emit {}", workload.name(), m.name))?;
            end_to_end.set(
                m.name,
                measured.clone().with(
                    "spread",
                    spread.get(m.name).cloned().unwrap_or(Json::Num(0.0)),
                ),
            );
        }
        let per_layer = traced.get("metrics").cloned().unwrap_or_default();
        let noise = plain_side.get("noise").cloned().unwrap_or_default();
        noisy |= noise.get("noisy").and_then(Json::as_bool).unwrap_or(false);
        if let Some(hash) = detail.get("check_hash").and_then(Json::as_str) {
            check_hashes.push((workload.name(), hash.to_string()));
        }
        let failures: Vec<Json> = [&plain_side, &traced_side]
            .iter()
            .flat_map(|s| s.get("failures").map_or(&[][..], Json::as_arr))
            .cloned()
            .collect();
        workloads.set(
            workload.name(),
            Json::obj()
                .with("end_to_end", end_to_end)
                .with("per_layer", per_layer)
                .with("attempted", attempted)
                .with("failed", failed)
                .with("failed_share", failed / attempted.max(1.0))
                .with("failures", failures)
                .with("noise", noise)
                .with("detail", detail)
                .with(
                    "traced_detail",
                    traced_side.get("detail").cloned().unwrap_or_default(),
                ),
        );
    }

    // The three wedge workloads stepped the same particles the same number
    // of steps: one hash.
    let hashes_equal = check_hashes.windows(2).all(|w| w[0].1 == w[1].1);
    let mut results = Json::obj()
        .with("schema", 1u64)
        .with("seed", seed)
        .with("seconds", seconds)
        .with("host", host::host_block())
        .with("noisy", noisy)
        .with("wedge_hashes_equal", hashes_equal);
    if let Some((_, hash)) = check_hashes.first() {
        results.set("wedge_check_hash", hash.as_str());
        // A trajectory that differs from the recorded one is reported, not
        // failed: a legitimate physics change re-records it.
        let recorded = std::fs::read_to_string(RECORDED)
            .ok()
            .and_then(|t| Json::parse(&t).ok())
            .filter(|r| r.get("seed").and_then(Json::as_f64) == Some(seed as f64))
            .and_then(|r| {
                r.get("wedge_check_hash")
                    .and_then(Json::as_str)
                    .map(String::from)
            });
        if let Some(recorded) = recorded {
            results.set("trajectory_changed", recorded != *hash);
        }
    }
    results.set("workloads", workloads);
    Ok(results)
}

/// Every metric by name, with its unit, one workload per column.
fn print_table(results: &Json) {
    let cell = |workload: Workload, group: &str, name: &str| {
        compare::metric(results, workload, group, name).map_or(0.0, |m| num(m, "value"))
    };
    let row = |group: &str, name: &str, unit: &str| {
        print!("{name:<42} {unit:<9}");
        for w in Workload::ALL {
            print!(" {:>14.6}", cell(w, group, name));
        }
        println!();
    };
    print!("{:<42} {:<9}", "metric", "unit");
    for w in Workload::ALL {
        let short = w.name().trim_start_matches("wedge-");
        print!(" {:>14}", &short[..short.len().min(14)]);
    }
    println!();
    for m in &END_TO_END {
        row("end_to_end", m.name, m.unit);
    }
    print!("{:<42} {:<9}", "failed_share", "fraction");
    for w in Workload::ALL {
        let share = results
            .get("workloads")
            .and_then(|ws| ws.get(w.name()))
            .map_or(0.0, |ws| num(ws, "failed_share"));
        print!(" {share:>14.6}");
    }
    println!();
    for m in &PER_LAYER {
        row("per_layer", m.name, m.unit);
    }
    for key in ["noisy", "wedge_hashes_equal", "trajectory_changed"] {
        if let Some(v) = results.get(key).and_then(Json::as_bool) {
            println!("{key}: {v}");
        }
    }
}

/// A result set is correct when nothing failed and the wedge hashes agree.
fn is_correct(results: &Json) -> bool {
    let no_failures = results
        .get("workloads")
        .map_or(&[][..], Json::fields)
        .iter()
        .all(|(_, w)| num(w, "failed") == 0.0);
    no_failures
        && results
            .get("wedge_hashes_equal")
            .and_then(Json::as_bool)
            .unwrap_or(false)
}

pub fn main(seed: u64, seconds: f64, twice: bool, out: &Path) -> ExitCode {
    let write = |name: &str, results: &Json| {
        let path = out.join(name);
        match std::fs::write(&path, results.pretty()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
        }
    };
    let mut sets = Vec::new();
    for pass in 0..if twice { 2 } else { 1 } {
        let results = match one_suite(seed, seconds, out) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_table(&results);
        write(
            if pass == 0 {
                "results.json"
            } else {
                "results-b.json"
            },
            &results,
        );
        sets.push(results);
    }
    let mut ok = sets.iter().all(is_correct);
    if let [a, b] = &sets[..] {
        ok &= compare::report(a, b);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: FAILED (see the failures above and in results.json)");
        ExitCode::FAILURE
    }
}
