//! Run registry scenarios and check their golden metrics.
//!
//! ```text
//! scenarios --list                 # enumerate every named case
//! scenarios <name> [--quick|--full] [--shards <n>]
//! scenarios --all [--quick|--full] [--shards <n>]
//! scenarios <name> --checkpoint-every <steps>   # save rolling + settled checkpoints
//! scenarios <name> --resume <file>              # warm-start from a checkpoint
//! scenarios <name> --supervise [--ckpt-dir <dir>] [--keep <k>] [--max-recoveries <n>]
//!     [--sentinel-every <steps>] [--die-at-step <s>] [--truncate-ckpt-at-step <s>]
//!     [--flip-ckpt-at-step <s>] [--chaos-seed <seed>]
//! ```
//!
//! `--shards n` runs the case under the sharded domain-decomposition
//! engine with `n` column-block shards (1 = the single-domain reference
//! engine).  Every scenario is shard-count invariant — the goldens and
//! the printed `state_hash` must be bit-identical for any `n`, and the
//! `sharding` suite diffs exactly that (see `SHARDING.md`).  The flag
//! composes with `--supervise` and the checkpoint flags; a checkpoint
//! saved at one shard count resumes at any other.
//!
//! A QUICK run (the default) compares each golden metric against its
//! checked-in reference and exits non-zero when any drifts outside its
//! tolerance — the CI scenario matrix uses that exit code as the pass/fail
//! signal.  Every run writes a `BENCH_scenario_<name>.json` artifact.
//!
//! `--checkpoint-every k` saves `artifacts/checkpoint_<name>_<scale>.bin`
//! every `k` steps plus `..._settled.bin` once at the settle → average
//! boundary.  `--resume <file>` warm-starts the protocol from a snapshot:
//! steps the checkpoint already covers are skipped, and resuming the
//! settled checkpoint reproduces the golden metrics bit-exactly (runs are
//! deterministic, so the warm arm retraces the cold one).  Both flags
//! apply to steady tunnel cases only; the snapshot's config fingerprint
//! must match the scenario at the chosen scale.
//!
//! `--supervise` runs the case (steady tunnel or startup transient) under
//! the fault-tolerant supervisor: physics sentinels every
//! `--sentinel-every` steps, crash-safe rolling checkpoints every
//! `--checkpoint-every` steps in `--ckpt-dir`, and automatic
//! restore-and-replay on any fault.  If valid checkpoints from a previous
//! interrupted invocation exist in `--ckpt-dir`, the run resumes from the
//! newest one — so `kill -9` + rerun completes the run, bit-exactly.  The
//! chaos flags schedule deterministic fault injection (`--die-at-step`
//! simulates a crash, the checkpoint flags damage the newest on-disk
//! checkpoint, `--chaos-seed` derives a mixed schedule); a supervised run
//! must finish with the same goldens and `state_hash` as an uninterrupted
//! one.  The recovery log is written to `BENCH_supervisor_<name>.log`.
//!
//! `campaign run|resume|status` drives a *fleet* of runs through the
//! crash-safe campaign executor (process-isolated workers, timeout +
//! retry + quarantine, resumable journal — see `campaign.rs` and the
//! README "Campaigns" section).  `run` and `resume` are the same
//! operation: an existing journal in `--dir` is picked up where it died.
//!
//! Exit codes (uniform across every mode):
//!
//! * `0` — everything ran and passed;
//! * `1` — usage or configuration error (nothing was run);
//! * `2` — runs finished but a golden metric drifted out of tolerance;
//! * `3` — a supervised run was abandoned (recovery budget exhausted);
//! * `4` — a campaign degraded: at least one run timed out or was
//!   quarantined (partial results and the journal were still written).

use dsmc_flowfield::surface::{ascii_profile, surface_to_csv};
use dsmc_scenarios::artifacts;
use dsmc_scenarios::campaign::{campaign_json, check_sweep_goldens, load_journal, sweep_campaign};
use dsmc_scenarios::fault::{CampaignFault, CampaignFaultPlan, Fault, FaultPlan};
use dsmc_scenarios::{
    outcome_json, registry, run_campaign, run_supervised, run_with, supervisor_json,
    CampaignOptions, CampaignReport, CaseKind, ProtocolOverride, RunOptions, RunOutcome, Scale,
    Scenario, SuperviseError, SuperviseOptions, SupervisorReport,
};
use std::time::Duration;

fn print_list() {
    println!("{} registered scenarios:\n", registry().len());
    for s in registry() {
        println!("  {:<16} {}", s.name, s.about);
        let goldens: Vec<String> = s
            .golden
            .iter()
            .map(|g| format!("{} = {} ±{}", g.metric, g.value, g.tol))
            .collect();
        println!("  {:<16}   golden: {}", "", goldens.join(", "));
    }
    println!("\nrun one with: scenarios <name> [--quick|--full]");
}

fn print_outcome(o: &RunOutcome) {
    println!(
        "\n== {} [{}] — {} particles, {} steps, {:.1} s ==",
        o.scenario,
        o.scale.label(),
        o.n_particles,
        o.steps,
        o.wall_seconds
    );
    for m in &o.metrics {
        match o.checks.iter().find(|c| c.metric == m.name) {
            Some(c) => println!(
                "  {:<28} {:>12.4}   golden {:>9.4} ±{:<8.4} {}",
                c.metric,
                c.measured,
                c.golden,
                c.tol,
                if c.ok { "ok" } else { "DRIFT" }
            ),
            None => println!("  {:<28} {:>12.4}", m.name, m.value),
        }
    }
    if let Some(h) = o.state_hash {
        println!("  {:<28} {h:#018x}", "state_hash");
    }
    if o.scale == Scale::Quick {
        println!(
            "  -> {}",
            if o.passed {
                "all golden metrics within tolerance"
            } else {
                "GOLDEN METRIC DRIFT"
            }
        );
    }
}

fn record_outcome(s: &Scenario, outcome: &RunOutcome, supervisor: Option<&SupervisorReport>) {
    print_outcome(outcome);
    let mut j = outcome_json(outcome);
    if let Some(report) = supervisor {
        j.obj("supervisor", supervisor_json(report));
    }
    artifacts::record(
        &format!("BENCH_scenario_{}.json", s.name),
        j.pretty().as_bytes(),
    );
    // Body-bearing cases: the Cp/Cf/Ch distributions along the surface,
    // as a CSV artifact (one row per arc-length facet) plus a terminal
    // profile of Cp.
    if let Some(surf) = &outcome.surface {
        artifacts::record(
            &format!("BENCH_surface_{}.csv", s.name),
            surface_to_csv(surf).as_bytes(),
        );
        print!("{}", ascii_profile(surf, &surf.cp, "Cp"));
    }
    // Transient cases: the windowed time series, one row per window.
    if let Some(points) = &outcome.transient {
        artifacts::record(
            &format!("BENCH_transient_{}.csv", s.name),
            dsmc_scenarios::transient_to_csv(points).as_bytes(),
        );
    }
}

fn run_and_record(s: &Scenario, scale: Scale, opts: &RunOptions) -> bool {
    println!("running {} at {} scale…", s.name, scale.label());
    let outcome = match run_with(s, scale, opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cannot run {}: {e}", s.name);
            std::process::exit(1);
        }
    };
    record_outcome(s, &outcome, None);
    outcome.passed
}

/// The supervisor's lines in a supervised run's printed result: a run that
/// auto-resumed says from which step.
fn supervisor_summary(report: &SupervisorReport) -> String {
    let mut out = String::new();
    if let Some(step) = report.resumed_at_start {
        out.push_str(&format!("  resumed from checkpoint at step {step}\n"));
    }
    out.push_str(&format!(
        "  supervisor: {} ({} recoveries, {} checkpoints)\n",
        report.outcome.label(),
        report.recoveries.len(),
        report.checkpoints_written
    ));
    out
}

fn supervise_and_record(s: &Scenario, scale: Scale, opts: &SuperviseOptions) -> bool {
    println!(
        "running {} at {} scale under supervision (checkpoints in {})…",
        s.name,
        scale.label(),
        opts.ckpt_dir.display()
    );
    match run_supervised(s, scale, opts) {
        Ok((outcome, report)) => {
            record_outcome(s, &outcome, Some(&report));
            print!("{}", supervisor_summary(&report));
            artifacts::record(
                &format!("BENCH_supervisor_{}.log", s.name),
                report.render_log().as_bytes(),
            );
            outcome.passed
        }
        Err(SuperviseError::Abandoned(report)) => {
            eprintln!("run abandoned: recovery budget exhausted");
            eprint!("{}", report.render_log());
            artifacts::record(
                &format!("BENCH_supervisor_{}.log", s.name),
                report.render_log().as_bytes(),
            );
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("cannot supervise {}: {e}", s.name);
            std::process::exit(1);
        }
    }
}

fn parse_step(it: &mut std::slice::Iter<'_, String>, flag: &str, usage: &str) -> u64 {
    match it.next().and_then(|v| v.parse::<u64>().ok()) {
        Some(v) => v,
        None => {
            eprintln!("{flag} needs a non-negative step count\n{usage}");
            std::process::exit(1);
        }
    }
}

const EXIT_CODES_HELP: &str = "exit codes:\n\
    \x20 0  everything ran and passed\n\
    \x20 1  usage or configuration error (nothing was run)\n\
    \x20 2  runs finished but a golden metric drifted out of tolerance\n\
    \x20 3  a supervised run was abandoned (recovery budget exhausted)\n\
    \x20 4  campaign degraded: a run timed out or was quarantined";

fn main() {
    // Child processes spawned by the campaign executor re-enter this very
    // executable with their task's path in the environment; nothing else
    // in the process sets that variable, so this is a no-op for human
    // callers.
    if let Some(code) = dsmc_scenarios::campaign::maybe_worker_from_env() {
        std::process::exit(code);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("campaign") {
        campaign_main(&args[1..]);
    }
    let mut scale = Scale::Quick;
    let mut names: Vec<String> = Vec::new();
    let mut list = false;
    let mut all = false;
    let mut opts = RunOptions::default();
    let mut supervise = false;
    let mut ckpt_dir: Option<String> = None;
    let mut keep: Option<usize> = None;
    let mut max_recoveries: Option<u32> = None;
    let mut checkpoint_every_flag: Option<u64> = None;
    let mut sentinel_every: Option<u64> = None;
    let mut die_at: Option<u64> = None;
    let mut truncate_at: Option<u64> = None;
    let mut flip_at: Option<u64> = None;
    let mut chaos_seed: Option<u64> = None;
    let usage = "usage: scenarios --list | scenarios <name>|--all [--quick|--full] [--shards <n>] \
                 [--exec-threads <n|auto|serial>] [--checkpoint-every <steps>] [--resume <file>] | \
                 scenarios <name> --supervise \
                 [--ckpt-dir <dir>] [--keep <k>] [--max-recoveries <n>] [--sentinel-every <steps>] \
                 [--die-at-step <s>] [--truncate-ckpt-at-step <s>] [--flip-ckpt-at-step <s>] \
                 [--chaos-seed <seed>] | scenarios campaign run|resume|status … (--help for more)";

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{usage}\n\n{}\n\n{EXIT_CODES_HELP}", campaign_usage());
                return;
            }
            "--list" => list = true,
            "--all" => all = true,
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--supervise" => supervise = true,
            "--ckpt-dir" => match it.next() {
                Some(d) => ckpt_dir = Some(d.clone()),
                None => {
                    eprintln!("--ckpt-dir needs a directory\n{usage}");
                    std::process::exit(1);
                }
            },
            "--keep" => keep = Some(parse_step(&mut it, "--keep", usage) as usize),
            "--max-recoveries" => {
                max_recoveries = Some(parse_step(&mut it, "--max-recoveries", usage) as u32)
            }
            "--sentinel-every" => {
                sentinel_every = Some(parse_step(&mut it, "--sentinel-every", usage))
            }
            "--die-at-step" => die_at = Some(parse_step(&mut it, "--die-at-step", usage)),
            "--truncate-ckpt-at-step" => {
                truncate_at = Some(parse_step(&mut it, "--truncate-ckpt-at-step", usage))
            }
            "--flip-ckpt-at-step" => {
                flip_at = Some(parse_step(&mut it, "--flip-ckpt-at-step", usage))
            }
            "--chaos-seed" => chaos_seed = Some(parse_step(&mut it, "--chaos-seed", usage)),
            "--shards" => {
                let v = it.next().and_then(|v| v.parse::<usize>().ok());
                match v {
                    Some(n) if n > 0 => opts.shards = n,
                    _ => {
                        eprintln!("--shards needs a positive shard count\n{usage}");
                        std::process::exit(1);
                    }
                }
            }
            "--checkpoint-every" => {
                let v = it.next().and_then(|v| v.parse::<u64>().ok());
                match v {
                    Some(k) if k > 0 => checkpoint_every_flag = Some(k),
                    _ => {
                        eprintln!("--checkpoint-every needs a positive step count\n{usage}");
                        std::process::exit(1);
                    }
                }
            }
            "--exec-threads" => {
                match it
                    .next()
                    .ok_or_else(|| "--exec-threads needs a value".to_string())
                    .and_then(|v| v.parse().map_err(|e| format!("--exec-threads {e}")))
                {
                    Ok(mode) => opts.exec = mode,
                    Err(e) => {
                        eprintln!("{e}\n{usage}");
                        std::process::exit(1);
                    }
                }
            }
            "--resume" => match it.next().map(std::fs::read) {
                Some(Ok(bytes)) => opts.resume_from = Some(bytes),
                Some(Err(e)) => {
                    eprintln!("cannot read --resume file: {e}");
                    std::process::exit(1);
                }
                None => {
                    eprintln!("--resume needs a snapshot path\n{usage}");
                    std::process::exit(1);
                }
            },
            // A misspelled flag must not silently run (and pass) with the
            // wrong behaviour.
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag '{flag}'\n{usage}");
                std::process::exit(1);
            }
            name => names.push(name.to_string()),
        }
    }
    opts.checkpoint_every = checkpoint_every_flag;
    // The supervisor's flags mean nothing to a plain run, which would
    // otherwise run fault-free and pass.
    let supervisor_flags = [
        ("--ckpt-dir", ckpt_dir.is_some()),
        ("--keep", keep.is_some()),
        ("--max-recoveries", max_recoveries.is_some()),
        ("--sentinel-every", sentinel_every.is_some()),
        ("--die-at-step", die_at.is_some()),
        ("--truncate-ckpt-at-step", truncate_at.is_some()),
        ("--flip-ckpt-at-step", flip_at.is_some()),
        ("--chaos-seed", chaos_seed.is_some()),
    ];
    if let Some((flag, _)) = supervisor_flags.iter().find(|(_, set)| *set && !supervise) {
        eprintln!("{flag} applies only with --supervise\n{usage}");
        std::process::exit(1);
    }

    if list {
        print_list();
        return;
    }
    if names.is_empty() && !all {
        eprintln!("{usage}");
        std::process::exit(1);
    }
    let checkpointing = opts.checkpoint_every.is_some() || opts.resume_from.is_some();
    if (checkpointing || supervise) && (all || names.len() != 1) {
        eprintln!("--checkpoint-every/--resume/--supervise apply to exactly one named scenario");
        std::process::exit(1);
    }
    if supervise && opts.resume_from.is_some() {
        eprintln!("--supervise auto-resumes from --ckpt-dir; --resume does not combine with it");
        std::process::exit(1);
    }

    let mut ok = true;
    if all {
        for s in registry() {
            // Sweep entries expand into whole campaigns; `--all` runs the
            // single-process cases and points at the executor for the rest.
            if matches!(s.kind, CaseKind::Sweep(_)) {
                println!(
                    "skipping {} (sweep; run it with: scenarios campaign run --sweep {})",
                    s.name, s.name
                );
                continue;
            }
            ok &= run_and_record(s, scale, &opts);
        }
    } else {
        for name in &names {
            match dsmc_scenarios::find(name) {
                Some(s) if supervise => {
                    let dir = match &ckpt_dir {
                        Some(d) => std::path::PathBuf::from(d),
                        None => match artifacts::dir() {
                            Ok(d) => d.join(format!("supervisor_{}_{}", s.name, scale.label())),
                            Err(e) => {
                                eprintln!("cannot create checkpoint dir: {e}");
                                std::process::exit(1);
                            }
                        },
                    };
                    let mut sopts =
                        SuperviseOptions::new(dir, format!("{}_{}", s.name, scale.label()));
                    sopts.shards = opts.shards.max(1);
                    sopts.exec = opts.exec;
                    if let Some(k) = checkpoint_every_flag {
                        sopts.checkpoint_every = k;
                    }
                    if let Some(k) = sentinel_every {
                        sopts.sentinel_every = k;
                    }
                    if let Some(k) = keep {
                        sopts.keep = k;
                    }
                    if let Some(n) = max_recoveries {
                        sopts.max_recoveries = n;
                    }
                    let mut plan = match chaos_seed {
                        Some(seed) => FaultPlan::seeded(
                            seed,
                            dsmc_scenarios::protocol_for(s, scale, ProtocolOverride::default())
                                .map_or(1000, |p| p.total_steps()),
                            sopts.sentinel_every,
                        ),
                        None => FaultPlan::none(),
                    };
                    if let Some(step) = truncate_at {
                        plan = plan.and(step, Fault::TruncateCheckpoint);
                    }
                    if let Some(step) = flip_at {
                        plan = plan.and(step, Fault::FlipCheckpointByte);
                    }
                    if let Some(step) = die_at {
                        plan = plan.and(step, Fault::Crash);
                    }
                    sopts.faults = plan;
                    ok &= supervise_and_record(s, scale, &sopts);
                }
                Some(s) => {
                    if checkpointing && !s.supports_checkpoints() {
                        eprintln!(
                            "scenario '{name}' owns its run shape; \
                             --checkpoint-every/--resume apply to steady tunnel cases"
                        );
                        std::process::exit(1);
                    }
                    ok &= run_and_record(s, scale, &opts);
                }
                None => {
                    eprintln!(
                        "unknown scenario '{name}'; known: {}",
                        registry()
                            .iter()
                            .map(|s| s.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    std::process::exit(1);
                }
            }
        }
    }
    if !ok {
        // Golden drift: the runs finished but a metric left its band.
        std::process::exit(2);
    }
}

fn campaign_usage() -> &'static str {
    "usage: scenarios campaign run|resume (--spec <file> | --sweep <scenario>) [--dir <dir>]\n\
     \x20        [--quick|--full] [--max-workers <n>] [--timeout-secs <s>] [--max-attempts <n>]\n\
     \x20        [--checkpoint-every <steps>] [--shards <n>] [--seed <u64>] (these two: --sweep only)\n\
     \x20        [--exec-threads <n|auto|serial>]\n\
     \x20        [--campaign-kill <run:attempt:step>] [--campaign-stall <run:attempt:step>]\n\
     \x20        [--campaign-corrupt <run:attempt>]\n\
     \x20      scenarios campaign status --dir <dir>\n\
     `run` and `resume` are the same operation: an existing journal in --dir resumes."
}

/// Die with a campaign usage message (exit 1: nothing was run).
fn campaign_bail(msg: &str) -> ! {
    eprintln!("{msg}\n{}", campaign_usage());
    std::process::exit(1);
}

/// Parse `run:attempt[:step]` for the campaign fault flags.
fn parse_fault_key(v: &str, want_step: bool) -> Option<(usize, u32, u64)> {
    let parts: Vec<&str> = v.split(':').collect();
    if parts.len() != if want_step { 3 } else { 2 } {
        return None;
    }
    let run = parts[0].parse::<usize>().ok()?;
    let attempt = parts[1].parse::<u32>().ok()?;
    let step = if want_step {
        parts[2].parse::<u64>().ok()?
    } else {
        0
    };
    Some((run, attempt, step))
}

fn campaign_main(args: &[String]) -> ! {
    let Some(sub) = args.first().map(String::as_str) else {
        campaign_bail("campaign needs a subcommand");
    };
    let mut spec_file: Option<String> = None;
    let mut sweep_name: Option<String> = None;
    let mut dir: Option<std::path::PathBuf> = None;
    let mut scale: Option<Scale> = None;
    let mut max_workers: Option<usize> = None;
    let mut timeout_secs: Option<u64> = None;
    let mut max_attempts: Option<u32> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut shards: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut exec: Option<dsmc_engine::ExecMode> = None;
    let mut faults = CampaignFaultPlan::none();

    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| match it.next() {
            Some(v) => v.clone(),
            None => campaign_bail(&format!("{flag} needs a value")),
        };
        match a.as_str() {
            "--help" | "-h" => {
                println!("{}\n\n{EXIT_CODES_HELP}", campaign_usage());
                std::process::exit(0);
            }
            "--spec" => spec_file = Some(next("--spec")),
            "--sweep" => sweep_name = Some(next("--sweep")),
            "--dir" => dir = Some(next("--dir").into()),
            "--quick" => scale = Some(Scale::Quick),
            "--full" => scale = Some(Scale::Full),
            "--max-workers" => match next("--max-workers").parse::<usize>() {
                Ok(n) if n > 0 => max_workers = Some(n),
                _ => campaign_bail("--max-workers needs a positive count"),
            },
            "--timeout-secs" => match next("--timeout-secs").parse::<u64>() {
                Ok(s) if s > 0 => timeout_secs = Some(s),
                _ => campaign_bail("--timeout-secs needs a positive second count"),
            },
            "--max-attempts" => match next("--max-attempts").parse::<u32>() {
                Ok(n) if n > 0 => max_attempts = Some(n),
                _ => campaign_bail("--max-attempts needs a positive count"),
            },
            "--checkpoint-every" => match next("--checkpoint-every").parse::<u64>() {
                Ok(k) if k > 0 => checkpoint_every = Some(k),
                _ => campaign_bail("--checkpoint-every needs a positive step count"),
            },
            "--shards" => match next("--shards").parse::<usize>() {
                Ok(n) if n > 0 => shards = Some(n),
                _ => campaign_bail("--shards needs a positive shard count"),
            },
            "--seed" => match next("--seed").parse::<u64>() {
                Ok(s) => seed = Some(s),
                _ => campaign_bail("--seed needs a u64"),
            },
            "--exec-threads" => match next("--exec-threads").parse() {
                Ok(mode) => exec = Some(mode),
                Err(e) => campaign_bail(&format!("--exec-threads {e}")),
            },
            "--campaign-kill" => match parse_fault_key(&next("--campaign-kill"), true) {
                Some((r, at, step)) => {
                    faults = faults.and((r, at), CampaignFault::Kill { at_step: step })
                }
                None => campaign_bail("--campaign-kill needs run:attempt:step"),
            },
            "--campaign-stall" => match parse_fault_key(&next("--campaign-stall"), true) {
                Some((r, at, step)) => {
                    faults = faults.and((r, at), CampaignFault::Stall { at_step: step })
                }
                None => campaign_bail("--campaign-stall needs run:attempt:step"),
            },
            "--campaign-corrupt" => match parse_fault_key(&next("--campaign-corrupt"), false) {
                Some((r, at, _)) => faults = faults.and((r, at), CampaignFault::CorruptCheckpoint),
                None => campaign_bail("--campaign-corrupt needs run:attempt"),
            },
            flag => campaign_bail(&format!("unknown campaign flag '{flag}'")),
        }
    }

    if sub == "status" {
        let Some(dir) = dir else {
            campaign_bail("campaign status needs --dir");
        };
        let journal = dir.join("campaign.journal");
        match load_journal(&journal) {
            Ok((fp, name, _scale, runs)) => {
                let report = CampaignReport {
                    name,
                    spec_fingerprint: fp,
                    runs,
                    wall_seconds: 0.0,
                };
                println!("journal {} ({:#018x})", journal.display(), fp);
                print!("{}", report.render_table());
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("cannot read campaign journal {}: {e}", journal.display());
                std::process::exit(1);
            }
        }
    }
    if sub != "run" && sub != "resume" {
        campaign_bail(&format!("unknown campaign subcommand '{sub}'"));
    }

    // Build the spec: either a flat spec file or a registry sweep entry.
    let (spec, sweep_scenario): (_, Option<&Scenario>) = match (&spec_file, &sweep_name) {
        (Some(path), None) => {
            if shards.is_some() || seed.is_some() {
                campaign_bail(
                    "--shards and --seed apply to --sweep; a --spec file sets them per run",
                );
            }
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => campaign_bail(&format!("cannot read spec file {path}: {e}")),
            };
            let mut spec = match dsmc_scenarios::CampaignSpec::parse(&text) {
                Ok(s) => s,
                Err(e) => campaign_bail(&format!("bad spec file {path}: {e}")),
            };
            if let Some(sc) = scale {
                spec.scale = sc;
            }
            (spec, None)
        }
        (None, Some(name)) => {
            let Some(s) = dsmc_scenarios::find(name) else {
                campaign_bail(&format!("unknown sweep scenario '{name}'"));
            };
            let mut spec = match sweep_campaign(s, scale.unwrap_or(Scale::Quick)) {
                Ok(spec) => spec,
                Err(e) => campaign_bail(&format!("cannot expand sweep '{name}': {e}")),
            };
            for r in &mut spec.runs {
                if let Some(n) = shards {
                    r.shards = n;
                }
                if seed.is_some() {
                    r.seed = seed;
                }
            }
            (spec, Some(s))
        }
        _ => campaign_bail("campaign run needs exactly one of --spec or --sweep"),
    };

    let dir = match dir {
        Some(d) => d,
        None => match artifacts::dir() {
            Ok(d) => d.join(format!("campaign_{}", spec.name)),
            Err(e) => campaign_bail(&format!("cannot create campaign dir: {e}")),
        },
    };
    let mut copts = CampaignOptions::new(dir);
    if let Some(n) = max_workers {
        copts.max_workers = n;
    }
    if let Some(s) = timeout_secs {
        copts.timeout = Duration::from_secs(s);
    }
    if let Some(n) = max_attempts {
        copts.max_attempts = n;
    }
    if let Some(k) = checkpoint_every {
        copts.checkpoint_every = k;
    }
    if let Some(mode) = exec {
        copts.exec = mode;
    }
    copts.faults = faults;

    println!(
        "campaign {} — {} runs, {} workers, journal in {}",
        spec.name,
        spec.runs.len(),
        copts.max_workers,
        copts.dir.display()
    );
    let report = match run_campaign(&spec, &copts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign failed to run: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.render_table());

    let mut code = report.exit_code();
    let mut j = campaign_json(&report);
    if let Some(s) = sweep_scenario {
        let checks = check_sweep_goldens(s, spec.scale, &report.runs);
        let mut all_ok = true;
        for c in &checks {
            println!(
                "  {:<28} {:>12.4}   golden {:>9.4} ±{:<8.4} {}",
                c.metric,
                c.measured,
                c.golden,
                c.tol,
                if c.ok { "ok" } else { "DRIFT" }
            );
            all_ok &= c.ok;
        }
        j.bool("sweep_goldens_ok", all_ok);
        if spec.scale == Scale::Quick && !all_ok && code == 0 {
            code = 2;
        }
    }
    artifacts::record(
        &format!("BENCH_campaign_{}.json", spec.name),
        j.pretty().as_bytes(),
    );
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmc_scenarios::SuperviseOutcome;

    #[test]
    fn supervisor_summary_says_when_a_run_resumed() {
        let mut report = SupervisorReport {
            outcome: SuperviseOutcome::Completed,
            recoveries: Vec::new(),
            checkpoints_written: 1,
            save_errors: 0,
            sentinel_checks: 0,
            resumed_at_start: None,
            final_step: 1000,
            log: Vec::new(),
        };
        assert_eq!(
            supervisor_summary(&report),
            "  supervisor: completed (0 recoveries, 1 checkpoints)\n"
        );
        report.resumed_at_start = Some(1000);
        assert_eq!(
            supervisor_summary(&report),
            "  resumed from checkpoint at step 1000\n  \
             supervisor: completed (0 recoveries, 1 checkpoints)\n"
        );
    }
}
