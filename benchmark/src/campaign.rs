//! `campaign-mach-sweep`: the fleet level — the registry's four-point Mach
//! sweep as a campaign of process-isolated workers (this executable is its
//! own worker), `nproc` at a time, in a fresh directory per repeat:
//! journal fsyncs, spawn cost, sweep goldens.
//!
//! Each worker is engine-dominated, so the workload also catches a step
//! regression that only appears when two processes contend for the cores.

use crate::adapter::{self, CampaignRun};
use crate::host;
use crate::json::Json;
use crate::run::{spread_json, Checks, Outcome, RunArgs};
use crate::stats::{lower_quartile, median, split_half_spread};
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;

/// One-run campaigns behind `setup_s`.
const COLD_STARTS: usize = 9;

/// Exit code 0, every run `Completed`, sweep goldens inside tolerance.
fn check_campaign(run: &CampaignRun, checks: &mut Checks) {
    checks.check("the campaign exits 0", run.exit_code == 0);
    for i in 0..run.runs {
        checks.check("campaign run completed", i < run.runs_completed);
    }
    for g in &run.golden_failures {
        checks.check(&format!("sweep golden {g}"), false);
    }
}

/// What a run costs before its first step: a one-run campaign cut to
/// 0 + 1 steps (spawn, construct, journal, result), in seconds.
fn tiny_campaign(seed: u64, dir: &Path, checks: &mut Checks) -> Result<f64, String> {
    let t = Instant::now();
    let run = adapter::run_campaign_in(&adapter::tiny_spec(seed), dir, 1)?;
    let s = t.elapsed().as_secs_f64();
    checks.check(
        "the one-run campaign completed",
        run.exit_code == 0 && run.runs_completed == 1,
    );
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(s)
}

pub fn untraced(args: &RunArgs, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let workers = host::nproc();
    let mut cold_s = Vec::with_capacity(COLD_STARTS);
    for _ in 0..COLD_STARTS {
        cold_s.push(tiny_campaign(
            args.seed,
            &work.join("tiny"),
            &mut out.checks,
        )?);
    }

    let spec = adapter::sweep_spec(args.seed)?;
    let started = Instant::now();
    let mut makespans = Vec::new();
    let mut particle_steps = 0.0;
    let mut steps = 0.0;
    let mut first_hashes = None;
    let mut golden_margin = 1.0f64;
    while started.elapsed().as_secs_f64() < args.seconds || makespans.is_empty() {
        let dir = work.join(format!("sweep{}", makespans.len()));
        let t = Instant::now();
        let run = adapter::run_campaign_in(&spec, &dir, workers)?;
        makespans.push(t.elapsed().as_secs_f64());
        check_campaign(&run, &mut out.checks);
        golden_margin = golden_margin.min(run.golden_margin);
        match &first_hashes {
            None => {
                // Every run's final checkpoint resumes to the state its
                // worker reported; the same read gives the particle-steps.
                let finals = adapter::campaign_final_states(&spec, &dir)?;
                for ((run_steps, n_flow, hash), reported) in finals.iter().zip(&run.state_hashes) {
                    out.checks.check(
                        "a run's final checkpoint resumes to the reported state_hash",
                        Some(*hash) == *reported,
                    );
                    steps += *run_steps as f64;
                    particle_steps += *run_steps as f64 * *n_flow as f64;
                }
                first_hashes = Some(run.state_hashes);
            }
            Some(first) => out.checks.check(
                "a repeat of the same seed ends on the same state hashes",
                run.state_hashes == *first,
            ),
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }

    let makespan_s = median(&makespans);
    out.metrics.insert("setup_s", lower_quartile(&cold_s));
    out.metrics.insert("time_to_solution_s", makespan_s);
    out.metrics.insert("steps_per_s", steps / makespan_s);
    out.metrics
        .insert("ns_per_particle_step", makespan_s * 1e9 / particle_steps);
    out.detail = Json::obj()
        .with("repeats", makespans.len())
        .with("workers", workers)
        .with("runs", spec.runs.len())
        .with("steps", steps)
        .with("golden_margin", golden_margin)
        .with(
            "makespan_s",
            makespans.iter().map(|&s| Json::Num(s)).collect::<Vec<_>>(),
        )
        .with(
            "spread",
            spread_json(
                split_half_spread(&cold_s, lower_quartile),
                split_half_spread(&makespans, median),
            ),
        );
    Ok(())
}

pub fn traced(args: &RunArgs, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let workers = host::nproc();
    let mut tr = Tracer::new(args.workload.name());
    let root = tr.begin("workload", "harness");

    for _ in 0..3 {
        let span = tr.begin("scenarios.campaign.one_run", "scenarios");
        tiny_campaign(args.seed, &work.join("tiny"), &mut out.checks)?;
        tr.end(span);
    }

    let spec = adapter::sweep_spec(args.seed)?;
    let dir = work.join("sweep");
    let span = tr.begin("scenarios.run_campaign", "scenarios");
    let cold = adapter::run_campaign_in(&spec, &dir, workers)?;
    tr.count(span, "runs", cold.runs as f64);
    tr.count(span, "workers", workers as f64);
    tr.end(span);
    check_campaign(&cold, &mut out.checks);
    let makespan_s = tr.span_ms(span) / 1e3;

    // Journal gone, cache kept: every run warm-starts from its own final
    // checkpoint.
    std::fs::remove_file(dir.join("campaign.journal")).map_err(|e| format!("journal: {e}"))?;
    let span = tr.begin("scenarios.run_campaign.warm", "scenarios");
    let warm = adapter::run_campaign_in(&spec, &dir, workers)?;
    tr.count(span, "cache_saved_steps", warm.cache_saved_steps as f64);
    tr.end(span);
    check_campaign(&warm, &mut out.checks);
    out.checks.check(
        "the warm campaign ends on the cold campaign's state hashes",
        warm.state_hashes == cold.state_hashes,
    );
    let warm_s = tr.span_ms(span) / 1e3;

    // Re-invoked on a finished journal: nothing left to do.
    let span = tr.begin("scenarios.run_campaign.noop", "scenarios");
    let noop = adapter::run_campaign_in(&spec, &dir, workers)?;
    tr.end(span);
    check_campaign(&noop, &mut out.checks);
    let noop_s = tr.span_ms(span) / 1e3;

    let m = &mut out.metrics;
    m.insert(
        "scenarios.campaign.per_run_overhead_s",
        median(&tr.ms_of("scenarios.campaign.one_run")) / 1e3,
    );
    m.insert(
        "scenarios.campaign.worker_wall_sum_s",
        cold.worker_wall_sum_s,
    );
    m.insert(
        "scenarios.campaign.parallel_efficiency",
        cold.worker_wall_sum_s / (workers.min(cold.runs).max(1) as f64 * makespan_s),
    );
    m.insert("scenarios.campaign.warm_makespan_s", warm_s);
    m.insert(
        "scenarios.campaign.cache_saved_steps",
        warm.cache_saved_steps as f64,
    );
    m.insert("scenarios.campaign.noop_resume_s", noop_s);
    m.insert("harness.self_time_frac", tr.finish(root, &args.out)?);
    out.detail = Json::obj()
        .with("workers", workers)
        .with("makespan_s", makespan_s);
    Ok(())
}
