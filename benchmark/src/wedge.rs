//! The three `wedge-*` workloads: the settled Mach-4 wedge stepped by the
//! single-domain engine, by four shards on one thread, and by four shards
//! on worker threads.
//!
//! Each run settles once on the single-domain engine (harness warm-up,
//! reported as `harness.settle_s`, not set-up), snapshots, and resumes that
//! one snapshot at the workload's shard count — so all three workloads
//! step the same particles and must agree on `state_hash`.

use crate::adapter::{self, ExecMode, Ledger, Primitives, Serial, Sim, SimConfig};
use crate::host;
use crate::json::Json;
use crate::run::{spread_json, window, Checks, Outcome, RunArgs};
use crate::spec::Workload;
use crate::stats::{lower_quartile, median, quantile, split_half_spread};
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;

/// Steps from the impulsive cold start to a settled shock.
const SETTLE_STEPS: usize = 1200;
/// Steps per timed window: short enough that a noisy neighbour spoils
/// single windows rather than the run, long enough to swallow a plunger
/// withdrawal's full-rank step.
const WINDOW: usize = 20;
/// Steps the workload engine and the single-domain reference both take
/// from the snapshot before their hashes are compared; also the warm-up
/// (the first step after a resume always takes the full rank).
const VERIFY_STEPS: usize = 20;
/// Cold constructions behind `setup_s`.
const COLD_STARTS: usize = 9;
/// Steps per window of a comparison engine in the traced run.
const SIDE_WINDOW: usize = 10;
/// Steps a time-to-solution is quoted for: the QUICK protocol's 500 + 500.
const SOLUTION_STEPS: f64 = 1000.0;

struct Plan {
    shards: usize,
    exec: ExecMode,
}

fn plan(workload: Workload) -> Plan {
    match workload {
        Workload::WedgeShard4Serial => Plan {
            shards: 4,
            exec: ExecMode::Serial,
        },
        Workload::WedgeShard4Threaded => Plan {
            shards: 4,
            exec: ExecMode::Threaded {
                workers: host::nproc().min(4),
            },
        },
        // One shard is the single-domain engine; it has no phases to fan out.
        _ => Plan {
            shards: 1,
            exec: ExecMode::Serial,
        },
    }
}

/// The workload engine, `VERIFY_STEPS` past the shared snapshot, with the
/// identity checks already made.
struct Prepared {
    cfg: SimConfig,
    sim: Sim,
    snapshot: Vec<u8>,
    at_snapshot: Ledger,
    cold_s: Vec<f64>,
    settle_s: f64,
    /// `state_hash` `VERIFY_STEPS` past the snapshot: equal across the
    /// three workloads for one seed.
    check_hash: u64,
}

fn prepare(
    plan: &Plan,
    seed: u64,
    cold_starts: usize,
    checks: &mut Checks,
) -> Result<Prepared, String> {
    let cfg = adapter::wedge_config(seed, plan.exec);
    let mut cold_s = Vec::with_capacity(cold_starts);
    let mut last = None;
    for _ in 0..cold_starts {
        // One engine alive at a time, so set-up does not inflate peak RSS.
        drop(last.take());
        let t = Instant::now();
        last = Some(Sim::cold(&cfg, plan.shards));
        cold_s.push(t.elapsed().as_secs_f64());
    }
    let mut reference = match last {
        Some(sim) if plan.shards == 1 => sim,
        other => {
            drop(other);
            Sim::cold(&cfg, 1)
        }
    };
    let t = Instant::now();
    reference.run(SETTLE_STEPS);
    let settle_s = t.elapsed().as_secs_f64();

    let snapshot = reference.save();
    let at_snapshot = reference.ledger();
    let hash_at_snapshot = reference.state_hash();
    let mut sim = Sim::resume(&cfg, &snapshot, plan.shards)?;
    checks.check(
        "resume(save(x)) hashes like x",
        sim.state_hash() == hash_at_snapshot,
    );
    reference.run(VERIFY_STEPS);
    window(&mut sim, VERIFY_STEPS, checks);
    let check_hash = sim.state_hash();
    checks.check(
        "state_hash equals the uninterrupted single-domain run's after the same steps",
        check_hash == reference.state_hash(),
    );
    Ok(Prepared {
        cfg,
        sim,
        snapshot,
        at_snapshot,
        cold_s,
        settle_s,
        check_hash,
    })
}

/// Particle count drifts by exactly 0 and the out-of-plane momentum stays
/// inside its random-walk budget.
fn check_conservation(sim: &mut Sim, since: &Ledger, checks: &mut Checks) {
    let now = sim.ledger();
    checks.check("particle count drift is 0", now.n_total == since.n_total);
    checks.check(
        "momentum drift is inside its budget",
        sim.momentum_budget_frac(since) < 1.0,
    );
}

fn hex(hash: u64) -> String {
    format!("{hash:#018x}")
}

pub fn untraced(args: &RunArgs, _work: &Path, out: &mut Outcome) -> Result<(), String> {
    let plan = plan(args.workload);
    let mut p = prepare(&plan, args.seed, COLD_STARTS, &mut out.checks)?;

    let before = p.sim.ledger();
    let started = Instant::now();
    let mut windows = Vec::new();
    while started.elapsed().as_secs_f64() < args.seconds || windows.len() < 4 {
        let failed = out.checks.failed;
        windows.push(window(&mut p.sim, WINDOW, &mut out.checks));
        if out.checks.failed > failed {
            return Err("a step failed; the engine was dropped".into());
        }
    }
    let after = p.sim.ledger();
    check_conservation(&mut p.sim, &p.at_snapshot, &mut out.checks);

    let n_flow = (before.n_flow + after.n_flow) as f64 / 2.0;
    let p25 = lower_quartile(&windows);
    let steps_per_s = WINDOW as f64 / p25;
    out.metrics.insert("setup_s", lower_quartile(&p.cold_s));
    out.metrics.insert("steps_per_s", steps_per_s);
    out.metrics
        .insert("ns_per_particle_step", p25 * 1e9 / WINDOW as f64 / n_flow);
    out.metrics
        .insert("time_to_solution_s", SOLUTION_STEPS / steps_per_s);
    out.window_skew = Some(median(&windows) / p25);
    out.detail = Json::obj()
        .with("shards", plan.shards)
        .with("workers", p.sim.workers())
        .with("flow_particles", n_flow)
        .with("particles", p.sim.n_particles())
        .with("settle_s", p.settle_s)
        .with("steps_measured", after.steps - before.steps)
        .with("check_hash", hex(p.check_hash))
        .with("final_hash", hex(p.sim.state_hash()))
        .with(
            "window_s",
            Json::obj()
                .with("n", windows.len())
                .with("p25", p25)
                .with("p50", median(&windows))
                .with("p75", quantile(&windows, 0.75))
                .with(
                    "all",
                    windows.iter().map(|&s| Json::Num(s)).collect::<Vec<_>>(),
                ),
        )
        .with(
            "spread",
            spread_json(
                split_half_spread(&p.cold_s, lower_quartile),
                split_half_spread(&windows, lower_quartile),
            ),
        );
    Ok(())
}

/// An engine stepped alongside the workload's, window for window, so the
/// ratio of the two is taken under the same interference.
struct Side {
    name: &'static str,
    sim: Sim,
    windows: Vec<f64>,
}

impl Side {
    fn per_step_s(&self) -> f64 {
        lower_quartile(&self.windows) / SIDE_WINDOW as f64
    }
}

pub fn traced(args: &RunArgs, _work: &Path, out: &mut Outcome) -> Result<(), String> {
    let plan = plan(args.workload);
    let mut tr = Tracer::new(args.workload.name());
    let root = tr.begin("workload", "harness");

    let span = tr.begin("harness.prepare", "harness");
    let prepared = prepare(&plan, args.seed, 1, &mut out.checks);
    tr.end(span);
    let mut p = prepared?;
    out.metrics.insert("harness.settle_s", p.settle_s);

    // Comparison engines, all resumed from the same snapshot on one
    // thread: `(name, span, shards, through the shard machinery even at
    // one shard)`.
    let side_plan: &[(&'static str, &'static str, usize, bool)] = match args.workload {
        Workload::WedgeSteady => &[("sampling-open", "core.snapshot.resume", 1, false)],
        Workload::WedgeShard4Serial => &[
            ("single", "core.snapshot.resume", 1, false),
            ("sharded-1", "core.shard.resume_1", 1, true),
            ("sharded-2", "core.shard.resume_2", 2, true),
        ],
        _ => &[("serial-4", "core.snapshot.resume_shard4", 4, false)],
    };
    let serial_cfg = adapter::wedge_config(args.seed, ExecMode::Serial);
    let mut sides: Vec<Side> = Vec::new();
    for &(name, span, shards, machinery) in side_plan {
        let sim = tr.time(span, "core.snapshot", || {
            if machinery {
                Sim::resume_sharded(&serial_cfg, &p.snapshot, shards)
            } else {
                Sim::resume(&serial_cfg, &p.snapshot, shards)
            }
        })?;
        sides.push(Side {
            name,
            sim,
            windows: Vec::new(),
        });
    }
    for side in &mut sides {
        window(&mut side.sim, VERIFY_STEPS, &mut out.checks);
        out.checks.check(
            &format!("{} hashes like the workload engine", side.name),
            side.sim.state_hash() == p.check_hash,
        );
        if side.name == "sampling-open" {
            side.sim.begin_sampling();
        }
    }
    if plan.shards > 1 {
        // The workload's own resume, once more under a span.
        let again = tr.time("core.snapshot.resume_shard4", "core.snapshot", || {
            Sim::resume(&p.cfg, &p.snapshot, plan.shards)
        })?;
        drop(again);
    }

    // The traced stepping: a fixed number of steps (so every count
    // repeats exactly for a seed), alternating an untraced window, a
    // window with a span per step, and one window per comparison engine.
    let rounds = (args.seconds as usize).max(4);
    let before = p.sim.ledger();
    let (paths0, movers0, dispatch0) = (
        p.sim.sort_paths(),
        p.sim.mover_stats(),
        p.sim.move_dispatch(),
    );
    let mut plain = Vec::new();
    let mut spanned = Vec::new();
    let mut bucket_s = [0.0f64; 5];
    for _ in 0..rounds {
        p.sim.reset_buckets();
        plain.push(window(&mut p.sim, WINDOW, &mut out.checks));
        let b = p.sim.buckets();
        for (acc, s) in
            bucket_s
                .iter_mut()
                .zip([b.move_s, b.sort_s, b.select_s, b.collide_s, b.sample_s])
        {
            *acc += s;
        }

        let span = tr.begin("harness.traced_window", "harness");
        let t = Instant::now();
        for _ in 0..WINDOW {
            let step = tr.begin("core.step", "core");
            let ok = out.checks.step(p.sim.step());
            tr.end(step);
            if !ok {
                return Err("a step failed; the engine was dropped".into());
            }
        }
        spanned.push(t.elapsed().as_secs_f64());
        tr.end(span);

        for side in &mut sides {
            let span = tr.begin("harness.side_window", "harness");
            side.windows
                .push(window(&mut side.sim, SIDE_WINDOW, &mut out.checks));
            tr.end(span);
        }
    }
    let after = p.sim.ledger();
    check_conservation(&mut p.sim, &p.at_snapshot, &mut out.checks);

    let m = &mut out.metrics;
    let steps = (after.steps - before.steps) as f64;
    let n_flow = (before.n_flow + after.n_flow) as f64 / 2.0;
    let per_step_s = lower_quartile(&plain) / WINDOW as f64;
    let step_ms = tr.ms_of("core.step");
    m.insert("core.step_ms_p50", median(&step_ms));
    m.insert("core.step_ms_p90", quantile(&step_ms, 0.9));
    m.insert("core.step_ms_max", quantile(&step_ms, 1.0));
    m.insert("core.steps_traced", steps);
    m.insert("core.flow_particles", n_flow);
    // The engine's own buckets over the untraced windows, and what its
    // clocks do not see of the wall time: the two-clocks gap as a number.
    let particle_steps = (rounds * WINDOW) as f64 * n_flow;
    let per_particle_ns = |s: f64| s * 1e9 / particle_steps;
    for (name, s) in [
        "core.substep.move_ns",
        "core.substep.sort_ns",
        "core.substep.select_ns",
        "core.substep.collide_ns",
        "core.substep.sample_ns",
    ]
    .into_iter()
    .zip(bucket_s)
    {
        m.insert(name, per_particle_ns(s));
    }
    m.insert(
        "core.unattributed_ns",
        per_particle_ns(plain.iter().sum::<f64>() - bucket_s.iter().sum::<f64>()),
    );
    let (paths1, movers1, dispatch1) = (
        p.sim.sort_paths(),
        p.sim.mover_stats(),
        p.sim.move_dispatch(),
    );
    let ranks = ((paths1.0 - paths0.0) + (paths1.1 - paths0.1)).max(1) as f64;
    m.insert(
        "core.sort.incremental_share",
        (paths1.0 - paths0.0) as f64 / ranks,
    );
    m.insert(
        "core.sort.mover_fraction",
        (movers1.0 - movers0.0) as f64 / (movers1.1 - movers0.1).max(1) as f64,
    );
    let dispatched: u64 = dispatch1.iter().zip(dispatch0).map(|(a, b)| a - b).sum();
    m.insert(
        "core.move.free_dispatch_share",
        (dispatch1[0] - dispatch0[0]) as f64 / dispatched.max(1) as f64,
    );
    m.insert(
        "core.candidates_per_step",
        (after.candidates - before.candidates) as f64 / steps,
    );
    m.insert(
        "core.collisions_per_step",
        (after.collisions - before.collisions) as f64 / steps,
    );
    m.insert(
        "harness.trace_overhead_frac",
        1.0 - lower_quartile(&plain) / lower_quartile(&spanned),
    );

    for _ in 0..3 {
        tr.time("core.state_hash", "core", || p.sim.state_hash());
        tr.time("core.diagnostics", "core", || p.sim.ledger());
    }
    m.insert("core.state_hash_ms", median(&tr.ms_of("core.state_hash")));
    m.insert("core.diagnostics_ms", median(&tr.ms_of("core.diagnostics")));

    let side_s = |name: &str| {
        sides
            .iter()
            .find(|s| s.name == name)
            .map(Side::per_step_s)
            .expect("the comparison engine was resumed above")
    };
    if plan.shards > 1 {
        let pops = p.sim.shard_populations();
        let max = pops.iter().copied().max().unwrap_or(0) as f64;
        let mean = pops.iter().sum::<usize>() as f64 / pops.len().max(1) as f64;
        m.insert("core.shard.workers", p.sim.workers() as f64);
        m.insert("core.shard.imbalance_max_over_mean", max / mean);
        m.insert("core.shard.particles_per_shard_max", max);
        m.insert("core.shard.repartitions", p.sim.repartitions() as f64);
        m.insert(
            "core.snapshot.resume_shard4_ms",
            median(&tr.ms_of("core.snapshot.resume_shard4")),
        );
        // The merge back into the canonical view, taken right after a
        // step so the shards have moved past it.
        for _ in 0..3 {
            if !out.checks.step(p.sim.step()) {
                return Err("a step failed; the engine was dropped".into());
            }
            tr.time("core.shard.canonical_merge", "core.shard", || {
                p.sim.merge_canonical()
            });
        }
        m.insert(
            "core.shard.canonical_merge_ms",
            median(&tr.ms_of("core.shard.canonical_merge")),
        );
    }
    match args.workload {
        Workload::WedgeShard4Serial => {
            let single = side_s("single");
            m.insert("core.shard.tax_frac", 1.0 - single / per_step_s);
            m.insert("core.shard.tax_frac_1", 1.0 - single / side_s("sharded-1"));
            m.insert("core.shard.tax_frac_2", 1.0 - single / side_s("sharded-2"));
            let resume_ms = median(&tr.ms_of("core.snapshot.resume"));
            m.insert("core.snapshot.resume_ms", resume_ms);
            m.insert(
                "core.shard.partition_setup_ms",
                median(&tr.ms_of("core.snapshot.resume_shard4")) - resume_ms,
            );
        }
        Workload::WedgeShard4Threaded => {
            let speedup = side_s("serial-4") / per_step_s;
            let workers = p.sim.workers() as f64;
            m.insert("core.shard.threaded_over_serial", speedup);
            // Amdahl: S = 1 / (f + (1 - f) / w), solved for the serial
            // share f.  One worker says nothing about f.
            if workers > 1.0 {
                m.insert(
                    "core.shard.serial_fraction_est",
                    ((workers / speedup - 1.0) / (workers - 1.0)).clamp(0.0, 1.0),
                );
            }
        }
        _ => {
            m.insert(
                "core.sample.overhead_frac",
                side_s("sampling-open") / per_step_s - 1.0,
            );
            m.insert(
                "core.snapshot.resume_ms",
                median(&tr.ms_of("core.snapshot.resume")),
            );
            // Sampling runs only on the comparison engine; its bucket is
            // the engine's own clock for the pass.
            let open = sides.iter().find(|s| s.name == "sampling-open");
            let sample_s = open.map_or(0.0, |s| s.sim.buckets().sample_s);
            m.insert(
                "core.substep.sample_ns",
                sample_s * 1e9 / ((rounds * SIDE_WINDOW) as f64 * n_flow),
            );
            let engine_ns = per_step_s * 1e9 / n_flow;
            kernel_probes(&mut tr, &mut p, args.seed, engine_ns, out)?;
        }
    }
    drop(sides);

    out.detail = Json::obj()
        .with("shards", plan.shards)
        .with("workers", p.sim.workers())
        .with("check_hash", hex(p.check_hash))
        .with("rounds", rounds);
    let self_time_frac = tr.finish(root, &args.out)?;
    out.metrics.insert("harness.self_time_frac", self_time_frac);
    Ok(())
}

/// The layers under the step, each called directly at the settled
/// snapshot's size: the `datapar` primitives on its `cell` column, the
/// rng / collision / classifier kernels, snapshot save, and the plain
/// single-threaded comparator of the same problem.
fn kernel_probes(
    tr: &mut Tracer,
    p: &mut Prepared,
    seed: u64,
    engine_ns: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    const REPEATS: usize = 5;
    let mut prims = Primitives::new(p.sim.cell_column(), seed);
    let n = prims.n() as f64;
    let mut digests = Vec::new();
    for _ in 0..REPEATS {
        prims.pack_pairs();
        let ok = tr.time("datapar.rank_full", "datapar", || prims.rank_full());
        out.checks.check("the full rank accepts the key layout", ok);
        digests.push(prims.last_rank_digest());
        prims.pack_pairs();
        let ok = tr.time("datapar.rank_incremental", "datapar", || {
            prims.rank_incremental()
        });
        out.checks
            .check("the incremental rank repairs without falling back", ok);
        digests.push(prims.last_rank_digest());
        tr.time("datapar.scan_add", "datapar", || prims.scan_add());
        tr.time("datapar.apply_perm", "datapar", || prims.apply_perm());
        tr.time("datapar.segment_bounds", "datapar", || {
            prims.segment_bounds()
        });
        tr.time("datapar.pack_indices", "datapar", || prims.pack_indices());
    }
    out.checks.check(
        "both ranks emit the same order",
        digests.windows(2).all(|d| d[0] == d[1]),
    );
    let m = &mut out.metrics;
    for (metric, span) in [
        ("datapar.rank_full_ns_per_key", "datapar.rank_full"),
        (
            "datapar.rank_incremental_ns_per_key",
            "datapar.rank_incremental",
        ),
        ("datapar.scan_add_ns_per_elem", "datapar.scan_add"),
        ("datapar.apply_perm_ns_per_elem", "datapar.apply_perm"),
        (
            "datapar.segment_bounds_ns_per_elem",
            "datapar.segment_bounds",
        ),
        ("datapar.pack_indices_ns_per_elem", "datapar.pack_indices"),
    ] {
        m.insert(metric, lower_quartile(&tr.ms_of(span)) * 1e6 / n);
    }
    drop(prims);

    const DRAWS: u32 = 4_000_000;
    const PAIRS: u32 = 1_000_000;
    for _ in 0..REPEATS {
        tr.time("rng.next_bits", "rng", || adapter::rng_next_bits(DRAWS));
        tr.time("kinetics.collide_pair", "kinetics", || {
            adapter::collide_pairs(PAIRS)
        });
        tr.time("geom.classifier_build", "geom", || p.sim.classifier_build());
    }
    m.insert(
        "rng.next_bits_ns",
        lower_quartile(&tr.ms_of("rng.next_bits")) * 1e6 / DRAWS as f64,
    );
    m.insert(
        "kinetics.collide_pair_ns",
        lower_quartile(&tr.ms_of("kinetics.collide_pair")) * 1e6 / PAIRS as f64,
    );
    m.insert(
        "geom.classifier_build_ms",
        lower_quartile(&tr.ms_of("geom.classifier_build")),
    );

    let mut bytes = 0;
    for _ in 0..3 {
        bytes = tr
            .time("core.snapshot.save", "core.snapshot", || p.sim.save())
            .len();
    }
    m.insert(
        "core.snapshot.save_ms",
        median(&tr.ms_of("core.snapshot.save")),
    );
    m.insert("core.snapshot.bytes", bytes as f64);
    m.insert(
        "core.snapshot.bytes_per_particle",
        bytes as f64 / p.sim.n_particles() as f64,
    );

    // The paper compared the CM-2 against a Cray-2 run of the same
    // problem; here the comparator is the plain serial code on one thread,
    // from its own cold start (it has no snapshot format).
    const SERIAL_WARM: usize = 10;
    const SERIAL_WINDOWS: usize = 4;
    let mut serial = Serial::new(&p.cfg);
    serial.run(SERIAL_WARM);
    for _ in 0..SERIAL_WINDOWS {
        tr.time("baselines.serial_window", "baselines", || {
            serial.run(SIDE_WINDOW)
        });
    }
    let serial_ns = lower_quartile(&tr.ms_of("baselines.serial_window")) * 1e6
        / SIDE_WINDOW as f64
        / serial.n_flow() as f64;
    m.insert("baselines.serial_ns_per_particle_step", serial_ns);
    m.insert("baselines.parallel_over_serial", serial_ns / engine_ns);
    Ok(())
}
