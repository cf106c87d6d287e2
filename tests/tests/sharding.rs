//! The shard-count-independence contract, system level: the sharded
//! domain-decomposition engine must produce the *identical* `state_hash`
//! (and therefore identical metrics) as the single-domain reference
//! engine for any shard count — over random configs, for every registry
//! scenario, and across a save-at-S / resume-at-S′ checkpoint handoff
//! driven through the fault-tolerant supervisor.  `SHARDING.md` names
//! these tests as the pinning suite for that contract.

use dsmc_engine::config::WallModel;
use dsmc_engine::{BodySpec, Engine, ExecMode, RngMode, ShardedSimulation, SimConfig, Simulation};
use dsmc_scenarios::{
    registry, run_with, supervise, CaseKind, Fault, FaultPlan, RunOptions, Scale, Sleeper,
    SuperviseError, SuperviseOptions, TunnelCase, TunnelProtocol,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// A small wind-tunnel config exercising the gnarliest state: a body (so
/// surface windows exist), diffuse walls, dirty-bit randomness.
fn wedge_dirty_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::small_test();
    cfg.body = BodySpec::Wedge {
        x0: 6.0,
        base: 6.0,
        angle_deg: 30.0,
    };
    cfg.walls = WallModel::Diffuse { t_wall: 1.5 };
    cfg.rng_mode = RngMode::DirtyBits;
    cfg.n_per_cell = 6.0;
    cfg.reservoir_fill = 12.0;
    cfg.seed = seed;
    cfg
}

proptest! {
    /// Shard counts {1, 2, 3, 4, 8, 16} agree bitwise with the
    /// single-domain reference over random seeds, bodies, and rng modes —
    /// the determinism invariant of `SHARDING.md`, property-tested.  16 is
    /// the tunnel width: one-column shards, where every particle that
    /// changes column crosses a cut and the shards behind the bodies start
    /// with few residents or none and fill by arrivals alone.
    #[test]
    fn shard_counts_agree_bitwise(
        seed in 1u64..=40,
        body_kind in 0u8..3,
        dirty in any::<bool>(),
        steps in 8usize..=20,
    ) {
        let mut cfg = wedge_dirty_cfg(seed);
        cfg.body = match body_kind {
            0 => BodySpec::None,
            1 => cfg.body,
            _ => BodySpec::Cylinder {
                cx: 7.0,
                cy: 6.0,
                r: 2.0,
            },
        };
        cfg.rng_mode = if dirty { RngMode::DirtyBits } else { RngMode::Explicit };
        let mut reference = Simulation::new(cfg.clone());
        reference.run(steps);
        let want = reference.state_hash();
        for shards in [1usize, 2, 3, 4, 8, 16] {
            let mut sharded = Engine::new(cfg.clone(), shards);
            sharded.run(steps);
            prop_assert_eq!(
                sharded.state_hash(),
                want,
                "{} shards diverged from the canonical engine",
                shards
            );
            prop_assert_eq!(
                sharded.shard_populations().iter().sum::<usize>(),
                reference.n_particles(),
                "{} shards lost or duplicated particles",
                shards
            );
        }
    }
}

/// The exchange through everything that reshapes it at once: plunger
/// withdrawals (key-less sweep, refill, pairs built and crossers packed
/// afterwards), a `set_cuts` move to a maximally skewed layout mid-run and
/// the weighted repartition that follows it (most of a shard crosses in
/// one step), under both jitter sources and both executors.  Hash,
/// population and the per-particle mover sums must equal the
/// single-domain run's.
#[test]
fn exchange_survives_withdrawals_and_a_forced_repartition() {
    const BEFORE: usize = 25;
    const AFTER: usize = 35;
    for rng_mode in [RngMode::Explicit, RngMode::DirtyBits] {
        let mut cfg = wedge_dirty_cfg(11);
        cfg.rng_mode = rng_mode;
        let mut reference = Simulation::new(cfg.clone());
        reference.run(BEFORE + AFTER);
        assert!(
            reference.diagnostics().plunger_cycles >= 2,
            "the run must cross at least two withdrawals"
        );
        for exec in [ExecMode::Serial, ExecMode::Threaded { workers: 2 }] {
            cfg.exec = exec;
            let mut sharded = ShardedSimulation::new(cfg.clone(), 4);
            sharded.run(BEFORE);
            assert!(sharded.set_cuts(&[0, 1, 2, 3, cfg.tunnel_w]));
            let mut sharded = Engine::Sharded(sharded);
            sharded.run(AFTER);
            let tag = format!("{rng_mode:?} / {exec:?}");
            assert!(
                sharded.repartitions() > 0,
                "{tag}: the skewed layout never triggered a repartition"
            );
            assert_eq!(sharded.state_hash(), reference.state_hash(), "{tag}");
            assert_eq!(
                sharded.shard_populations().iter().sum::<usize>(),
                reference.n_particles(),
                "{tag}: particles lost or duplicated"
            );
            assert_eq!(sharded.mover_stats(), reference.mover_stats(), "{tag}");
        }
    }
}

/// The chunked radix and the parallel gather under the exchange: the
/// benchmark's own wedge configuration, where each of four shards holds
/// several times `PAR_THRESHOLD` particles, so the rank runs its chunked
/// passes and the send its parallel gathers on pair arrays whose index
/// fields are not their positions (arrivals sit at the tail).  Thirty
/// steps cross a withdrawal.  Both executors: `Serial` forks those
/// primitives into the rayon pool, two `Threaded` workers run them inline
/// whenever the pool has at most two threads (`RAYON_NUM_THREADS` 1 or 2)
/// and fork otherwise.  Release-only: a debug step at this size takes
/// seconds.
#[test]
fn exchange_is_bit_identical_where_the_chunked_paths_run() {
    if cfg!(debug_assertions) {
        return;
    }
    let mut cfg = SimConfig::paper(0.0);
    cfg.n_per_cell *= 0.4;
    cfg.reservoir_fill = cfg.n_per_cell * 1.4;
    let mut reference = Simulation::new(cfg.clone());
    reference.run(30);
    assert!(reference.diagnostics().plunger_cycles >= 1);
    for exec in [ExecMode::Serial, ExecMode::Threaded { workers: 2 }] {
        cfg.exec = exec;
        let mut sharded = Engine::new(cfg.clone(), 4);
        sharded.run(30);
        let populations = sharded.shard_populations();
        assert!(
            populations
                .iter()
                .all(|&n| n >= dsmc_datapar::PAR_THRESHOLD),
            "{exec:?}: every shard must be on the chunked paths: {populations:?}"
        );
        assert_eq!(sharded.state_hash(), reference.state_hash(), "{exec:?}");
        assert_eq!(
            populations.iter().sum::<usize>(),
            reference.n_particles(),
            "{exec:?}"
        );
        assert_eq!(sharded.mover_stats(), reference.mover_stats(), "{exec:?}");
    }
}

/// The two one-shard engines are one step: a snapshot resumed as a
/// `Simulation` and as a one-shard `ShardedSimulation`, stepped across a
/// plunger withdrawal, agrees on the state and on every ledger — which
/// rank path each step took included, from the first resumed step on.
#[test]
fn one_shard_engines_agree_on_every_ledger() {
    let cfg = wedge_dirty_cfg(5);
    let mut cold = Simulation::new(cfg.clone());
    cold.run(10);
    let snapshot = cold.save_state();
    let mut single = Engine::resume(cfg.clone(), &snapshot, 1).expect("resume");
    let mut sharded = Engine::resume_sharded(cfg, &snapshot, 1).expect("resume at one shard");
    assert!(matches!(single, Engine::Single(_)));
    assert!(matches!(sharded, Engine::Sharded(_)));
    let cycles = single.diagnostics().plunger_cycles;
    for step in 0..40 {
        single.step();
        sharded.step();
        let paths = (single.sort_path_counts(), sharded.sort_path_counts());
        assert_eq!(paths.0, paths.1, "rank paths after resumed step {step}");
    }
    assert!(
        single.diagnostics().plunger_cycles > cycles,
        "the run must cross a withdrawal"
    );
    assert_eq!(single.state_hash(), sharded.state_hash());
    assert_eq!(single.diagnostics(), sharded.diagnostics());
    assert_eq!(single.mover_stats(), sharded.mover_stats());
}

/// The wide grid (`pipeline.rs` pins it to the oracle): 15 cell bits, and
/// shards small enough that each ranks on the comparison-sort path while
/// the single-domain reference runs the chunked one.
#[test]
fn wide_grid_is_shard_count_invariant() {
    let cfg = integration_tests::wide_grid_config();
    let mut reference = Simulation::new(cfg.clone());
    let mut sharded = ShardedSimulation::new(cfg, 4);
    reference.run(integration_tests::WIDE_GRID_STEPS);
    sharded.run(integration_tests::WIDE_GRID_STEPS);
    assert!(reference.diagnostics().plunger_cycles >= 1);
    assert_eq!(sharded.state_hash(), reference.state_hash());
    assert_eq!(
        sharded.shard_populations().iter().sum::<usize>(),
        reference.n_particles()
    );
}

/// Every registry scenario at QUICK scale is shard-count invariant:
/// shard counts {1, 2, 4} reproduce the goldens and the exact
/// `state_hash` of the default single-domain run.  Release-only — the
/// same gating as the scenario golden sweep (a debug tunnel run costs
/// ~a minute).
#[test]
fn registry_scenarios_are_shard_count_invariant() {
    if cfg!(debug_assertions) {
        return;
    }
    for s in registry() {
        // Sweep entries expand into campaigns; each point is itself a
        // registry case this loop already covers.
        if matches!(s.kind, CaseKind::Sweep(_)) {
            continue;
        }
        let reference = run_with(s, Scale::Quick, &RunOptions::default()).expect("cold run");
        for shards in [1usize, 2, 4] {
            let opts = RunOptions {
                shards,
                ..RunOptions::default()
            };
            let o = run_with(s, Scale::Quick, &opts).expect("sharded run");
            assert!(
                o.passed,
                "{} at {shards} shards drifted off its goldens: {:?}",
                s.name, o.checks
            );
            assert_eq!(
                o.state_hash, reference.state_hash,
                "{} at {shards} shards has a different state_hash",
                s.name
            );
            assert_eq!(o.metrics.len(), reference.metrics.len(), "{}", s.name);
            for (m, r) in o.metrics.iter().zip(&reference.metrics) {
                assert_eq!(m.name, r.name, "{}", s.name);
                // Physics is bit-identical at any shard count; the one
                // non-physics metric is the snapshot's byte size, which
                // legitimately grows by the advisory sharded manifest
                // section (outside `state_hash` by design — SHARDING.md).
                if m.name == "snapshot_bytes_per_particle" {
                    continue;
                }
                assert_eq!(
                    m.value.to_bits(),
                    r.value.to_bits(),
                    "{} metric {} is not bit-identical at {shards} shards",
                    s.name,
                    m.name
                );
            }
        }
    }
}

const SETTLE: usize = 20;
const TOTAL: usize = 50;

fn small_case() -> TunnelCase {
    TunnelCase {
        config: SimConfig::small_test,
        quick_density: 1.0,
        quick_steps: (SETTLE, TOTAL - SETTLE),
        full_steps: (SETTLE, TOTAL - SETTLE),
        extract: |_, _, _| Vec::new(),
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dsmc_sharding_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A checkpoint saved by a supervised run at S shards resumes — through
/// the supervisor's own startup-adoption path — at S′ ≠ S shards, and
/// finishes with the hash of a run that was never interrupted.  The
/// first arm runs at 3 shards and is killed by an injected crash with a
/// zero recovery budget (leaving its rolling checkpoints on disk); the
/// second arm adopts the newest checkpoint at 2 shards and completes.
#[test]
fn sharded_checkpoint_resumes_at_any_shard_count() {
    let cfg = wedge_dirty_cfg(7);

    // Uninterrupted single-domain reference.
    let mut reference = Simulation::new(cfg.clone());
    for s in 0..=TOTAL as u64 {
        if s == SETTLE as u64 {
            reference.begin_sampling();
        }
        if s < TOTAL as u64 {
            reference.step();
        }
    }
    let want = reference.state_hash();

    let dir = tmp_dir("s_to_sprime");
    let mut opts = SuperviseOptions::new(dir, "s_to_sprime");
    opts.checkpoint_every = 10;
    opts.sentinel_every = 5;
    opts.sleeper = Sleeper::recording().0;

    // Arm 1: 3 shards, crash at step 30 with no recovery budget — the
    // run is abandoned but its checkpoints (10, 20, 30) survive.
    opts.shards = 3;
    opts.max_recoveries = 0;
    opts.faults = FaultPlan::at(30, Fault::Crash);
    let mut protocol = TunnelProtocol::new(small_case(), Scale::Quick);
    match supervise(&cfg, &mut protocol, &opts) {
        Err(SuperviseError::Abandoned(_)) => {}
        Ok(_) => panic!("expected the first arm to be abandoned"),
        Err(e) => panic!("unexpected supervise error: {e}"),
    }

    // Arm 2: adopt the 3-shard checkpoint at 2 shards and finish.
    opts.shards = 2;
    opts.max_recoveries = 5;
    opts.faults = FaultPlan::none();
    let mut protocol = TunnelProtocol::new(small_case(), Scale::Quick);
    let (mut sim, report) = supervise(&cfg, &mut protocol, &opts).expect("second arm");
    assert_eq!(
        report.resumed_at_start,
        Some(30),
        "second arm did not adopt the abandoned arm's newest checkpoint\n{}",
        report.render_log()
    );
    assert_eq!(sim.n_shards(), 2);
    assert_eq!(
        sim.state_hash(),
        want,
        "save at 3 shards / resume at 2 shards diverged from the uninterrupted run"
    );

    // The one-shard *sharded* engine (which `Engine::resume` never builds)
    // adopts the same state; of the 2-shard manifest only the cuts are
    // dropped at another shard count, the repartition count rides along.
    let snapshot = sim.save_state();
    let mut one = Engine::resume_sharded(cfg, &snapshot, 1).expect("resume at one shard");
    assert!(matches!(one, Engine::Sharded(_)));
    assert_eq!(one.state_hash(), want);
    assert_eq!(one.repartitions(), sim.repartitions());
}
