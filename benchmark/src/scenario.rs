//! `scenario-rarefied-quick`: what a user actually runs — the registry's
//! `wedge-rarefied` at QUICK scale from a cold start, under supervision
//! (500 settle + 500 sampled steps, a checkpoint every 100, a sentinel
//! check every 25, golden check at the end), each repeat in a fresh
//! checkpoint directory.
//!
//! It uses the engine differently from the `wedge-*` workloads: a cold
//! transient, ~7e4 particles (about L2-resident), λ = 0.5 so collide does
//! little, the sampling window open for half the run — and it is the only
//! place `core.snapshot`, `state`, `core.sentinel`, `core.sample` and
//! `flowfield` do real work.

use crate::adapter::{self, ScenarioRun, Sim, SimConfig, Store};
use crate::json::Json;
use crate::run::{spread_json, Checks, Outcome, RunArgs};
use crate::stats::{lower_quartile, median, split_half_spread};
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;

/// Cold constructions behind `setup_s`.
const COLD_STARTS: usize = 9;
/// The supervisor's default retention.
const KEEP: usize = 3;
/// Step of the settle → average boundary: the warm-start checkpoint.
const SETTLED_STEP: u64 = 500;

/// Goldens pass, conservation holds, and the supervisor never had to
/// recover: the run is a correct solution.
fn check_run(run: &ScenarioRun, checks: &mut Checks) {
    checks.passed(run.goldens_checked - run.golden_failures.len());
    for g in &run.golden_failures {
        checks.check(&format!("golden {g}"), false);
    }
    checks.check("particle count drift is 0", run.count_drift == 0.0);
    checks.check(
        "momentum drift is inside its budget",
        run.momentum_budget_frac < 1.0,
    );
    checks.check("no supervisor recovery was needed", run.recoveries == 0);
}

/// The run's final checkpoint resumes to the state the run reported.
fn check_final_state(
    cfg: &SimConfig,
    dir: &Path,
    run: &ScenarioRun,
    checks: &mut Checks,
) -> Result<usize, String> {
    let (steps, n_flow, hash) = adapter::final_state(cfg, dir)?;
    checks.check(
        "the final checkpoint resumes to the reported state_hash",
        Some(hash) == run.state_hash && steps == run.steps,
    );
    Ok(n_flow)
}

pub fn untraced(args: &RunArgs, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let cfg = adapter::scenario_config(args.seed);
    let mut cold_s = Vec::with_capacity(COLD_STARTS);
    for _ in 0..COLD_STARTS {
        let t = Instant::now();
        let sim = Sim::cold(&cfg, 1);
        cold_s.push(t.elapsed().as_secs_f64());
        drop(sim);
    }

    let started = Instant::now();
    let mut runs_s = Vec::new();
    let mut first: Option<ScenarioRun> = None;
    let mut n_flow = 0;
    while started.elapsed().as_secs_f64() < args.seconds || runs_s.len() < 2 {
        let dir = work.join(format!("run{}", runs_s.len()));
        let t = Instant::now();
        let run = adapter::run_scenario_supervised(&cfg, &dir, KEEP)?;
        runs_s.push(t.elapsed().as_secs_f64());
        check_run(&run, &mut out.checks);
        match &first {
            None => {
                n_flow = check_final_state(&cfg, &dir, &run, &mut out.checks)?;
                first = Some(run);
            }
            Some(first) => out.checks.check(
                "a repeat of the same seed ends on the same state_hash",
                run.state_hash == first.state_hash,
            ),
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let first = first.expect("the loop above runs at least twice");

    let solution_s = median(&runs_s);
    let steps = first.steps as f64;
    out.metrics.insert("setup_s", lower_quartile(&cold_s));
    out.metrics.insert("time_to_solution_s", solution_s);
    out.metrics.insert("steps_per_s", steps / solution_s);
    out.metrics.insert(
        "ns_per_particle_step",
        solution_s * 1e9 / (steps * n_flow as f64),
    );
    out.detail = Json::obj()
        .with("repeats", runs_s.len())
        .with("steps", first.steps)
        .with("flow_particles_final", n_flow)
        .with("golden_margin", first.golden_margin)
        .with(
            "final_hash",
            first
                .state_hash
                .map_or(Json::Null, |h| format!("{h:#018x}").into()),
        )
        .with(
            "run_s",
            runs_s.iter().map(|&s| Json::Num(s)).collect::<Vec<_>>(),
        )
        .with(
            "spread",
            spread_json(
                split_half_spread(&cold_s, lower_quartile),
                split_half_spread(&runs_s, median),
            ),
        );
    Ok(())
}

pub fn traced(args: &RunArgs, work: &Path, out: &mut Outcome) -> Result<(), String> {
    const REPEATS: usize = 5;
    let cfg = adapter::scenario_config(args.seed);
    let mut tr = Tracer::new(args.workload.name());
    let root = tr.begin("workload", "harness");

    // The supervised cold run, keeping every checkpoint so the settled one
    // is still there to warm-start from.
    let cold_dir = work.join("cold");
    let span = tr.begin("scenarios.run_supervised", "scenarios");
    let cold = adapter::run_scenario_supervised(&cfg, &cold_dir, usize::MAX)?;
    tr.count(span, "checkpoints_written", cold.checkpoints_written as f64);
    tr.count(span, "sentinel_checks", cold.sentinel_checks as f64);
    tr.end(span);
    check_run(&cold, &mut out.checks);
    let supervised_s = tr.span_ms(span) / 1e3;

    // The same case unsupervised, as the registry runs it.
    let span = tr.begin("scenarios.run_with", "scenarios");
    let plain = adapter::run_scenario_plain()?;
    tr.end(span);
    check_run(&plain, &mut out.checks);
    if args.seed == adapter::reference_seed() {
        out.checks.check(
            "the supervised run ends on the unsupervised run's state_hash",
            plain.state_hash == cold.state_hash,
        );
    }
    let plain_s = tr.span_ms(span) / 1e3;

    // Warm start: a directory holding only the settled checkpoint.
    let store = Store::open(&cold_dir, usize::MAX)?;
    let warm_dir = work.join("warm");
    let warm_store = Store::open(&warm_dir, usize::MAX)?;
    std::fs::copy(
        store.path_for(SETTLED_STEP),
        warm_store.path_for(SETTLED_STEP),
    )
    .map_err(|e| format!("the settled checkpoint: {e}"))?;
    let span = tr.begin("scenarios.warm_start", "scenarios");
    let warm = adapter::run_scenario_supervised(&cfg, &warm_dir, KEEP)?;
    tr.end(span);
    check_run(&warm, &mut out.checks);
    out.checks.check(
        "the warm start adopted the settled checkpoint",
        warm.resumed_at == Some(SETTLED_STEP),
    );
    out.checks.check(
        "the warm start ends on the cold run's state_hash",
        warm.state_hash == cold.state_hash,
    );
    let warm_s = tr.span_ms(span) / 1e3;

    // The layers a supervised run leans on, each called directly on the
    // run's final state (window still open, ~7e4 particles).
    let (_, checkpoint) = store
        .latest_valid()?
        .ok_or("the cold run left no valid checkpoint")?;
    let bytes = adapter::engine_snapshot(&checkpoint)?;
    let mut sim = tr.time("core.snapshot.resume", "core.snapshot", || {
        Sim::resume(&cfg, &bytes, 1)
    })?;
    let probe_dir = work.join("probe");
    let probe_store = Store::open(&probe_dir, KEEP)?;
    let mut saved = Vec::new();
    for i in 0..REPEATS {
        saved = tr.time("core.snapshot.save", "core.snapshot", || sim.save());
        drop(tr.time("core.snapshot.resume", "core.snapshot", || {
            Sim::resume(&cfg, &saved, 1)
        })?);
        drop(tr.time("core.snapshot.resume_shard4", "core.snapshot", || {
            Sim::resume(&cfg, &saved, 4)
        })?);
        tr.time("state.atomic_write", "state", || {
            // A new name each time, as step-stamped checkpoints are.
            adapter::atomic_write(&probe_dir.join(format!("payload{i}.bin")), &saved)
        })?;
        tr.time("state.store_save_prune", "state", || {
            probe_store.save(i as u64, &saved)
        })?;
        let found = tr.time("state.find_latest_valid", "state", || {
            probe_store.latest_valid()
        })?;
        out.checks.check(
            "the store finds the checkpoint it just saved",
            found.is_some_and(|(step, b)| step == i as u64 && b == saved),
        );
        let valid = tr.time("state.checksum", "state", || {
            adapter::container_is_valid(&saved)
        });
        out.checks.check("the saved container validates", valid);
        let armed = tr.time("core.sentinel.arm", "core.sentinel", || sim.sentinel_arm());
        let ok = tr.time("core.sentinel.check", "core.sentinel", || {
            sim.sentinel_check(&armed)
        });
        out.checks.check("the sentinel passes a healthy state", ok);
    }
    out.checks
        .check("save(resume(x)) writes x's bytes", saved == bytes);
    let field = sim
        .close_windows()
        .ok_or("the final checkpoint has no open sampling window")?;
    out.checks.check(
        "the final checkpoint resumes to the reported state_hash",
        Some(sim.state_hash()) == cold.state_hash,
    );
    for _ in 0..REPEATS {
        let angle = tr.time("flowfield.wedge_metrics", "flowfield", || {
            adapter::wedge_shock_angle(&field, &cfg)
        });
        out.checks.check("the shock fit succeeds", angle.is_some());
    }

    let m = &mut out.metrics;
    let med = |name: &str| median(&tr.ms_of(name));
    m.insert("core.snapshot.save_ms", med("core.snapshot.save"));
    m.insert("core.snapshot.resume_ms", med("core.snapshot.resume"));
    m.insert(
        "core.snapshot.resume_shard4_ms",
        med("core.snapshot.resume_shard4"),
    );
    m.insert("core.snapshot.bytes", saved.len() as f64);
    m.insert(
        "core.snapshot.bytes_per_particle",
        saved.len() as f64 / sim.n_particles() as f64,
    );
    m.insert("state.atomic_write_ms", med("state.atomic_write"));
    m.insert("state.store_save_prune_ms", med("state.store_save_prune"));
    m.insert("state.find_latest_valid_ms", med("state.find_latest_valid"));
    m.insert(
        "state.checksum_mb_per_s",
        saved.len() as f64 / 1e6 / (med("state.checksum") / 1e3),
    );
    m.insert("core.sentinel.arm_ms", med("core.sentinel.arm"));
    m.insert("core.sentinel.check_ms", med("core.sentinel.check"));
    m.insert("flowfield.wedge_metrics_ms", med("flowfield.wedge_metrics"));
    m.insert(
        "scenarios.supervision_overhead_frac",
        supervised_s / plain_s - 1.0,
    );
    m.insert("scenarios.warm_start_s", warm_s);
    m.insert(
        "scenarios.checkpoints_written",
        cold.checkpoints_written as f64,
    );
    m.insert("scenarios.sentinel_checks", cold.sentinel_checks as f64);
    m.insert("harness.self_time_frac", tr.finish(root, &args.out)?);
    out.detail = Json::obj()
        .with("supervised_s", supervised_s)
        .with("unsupervised_s", plain_s)
        .with("steps", cold.steps);
    Ok(())
}
