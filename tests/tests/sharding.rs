//! The shard-count-independence contract, system level: the sharded
//! domain-decomposition engine must produce the *identical* `state_hash`
//! (and therefore identical metrics) as the single-domain reference
//! engine for any shard count — over random configs, for every registry
//! scenario, and across a save-at-S / resume-at-S′ checkpoint handoff
//! driven through the fault-tolerant supervisor.  `SHARDING.md` names
//! these tests as the pinning suite for that contract.

use dsmc_engine::{Engine, ExecMode, RngMode, SimConfig, Simulation};
use dsmc_scenarios::RunOptions;
use integration_tests::{
    assert_same_run, assert_stores_equal, at_shards, check_registry_invariance,
    check_skewed_repartition, check_supervised_handoff, drawn_cfg, wedge_dirty_cfg,
};
use proptest::prelude::*;

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
        let cfg = drawn_cfg(seed, body_kind, dirty);
        let mut reference = Simulation::new(cfg.clone());
        reference.run(steps);
        for shards in [1usize, 2, 3, 4, 8, 16] {
            let mut sharded = at_shards(cfg.clone(), shards);
            sharded.run(steps);
            assert_same_run(&format!("{shards} shards"), &sharded, &reference);
        }
    }
}

/// The exchange through everything that reshapes it at once: plunger
/// withdrawals (the sweep leaves the reservoir rows unkeyed, the refill
/// keys them, and the crossers are packed afterwards), a `set_cuts` move to a maximally skewed layout mid-run and
/// the weighted repartition that follows it (most of a shard crosses in
/// one step), under both jitter sources and both executors.  The whole
/// run — hash, ledgers, mover sums, population — must equal the
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
            check_skewed_repartition(&cfg, &reference, 4, (BEFORE, AFTER));
        }
    }
}

/// The parallel gather under the exchange: the benchmark's own wedge
/// configuration, where each of four shards holds several times
/// `PAR_THRESHOLD` particles, so the send runs its parallel gathers on
/// pair arrays whose index fields are not their positions (arrivals sit
/// at the tail).  Thirty
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
        let mut sharded = at_shards(cfg.clone(), 4);
        sharded.run(30);
        let populations = sharded.shard_populations();
        assert!(
            populations
                .iter()
                .all(|&n| n >= dsmc_datapar::PAR_THRESHOLD),
            "{exec:?}: every shard must be on the chunked paths: {populations:?}"
        );
        assert_same_run(&format!("{exec:?}"), &sharded, &reference);
    }
}

/// The benchmark adapter's two one-shard spellings are one engine: a
/// snapshot resumed as `Engine::Single` and as `Engine::Sharded` at one
/// shard, stepped across a plunger withdrawal, agrees on the state and on
/// every ledger.  The variant pins are the adapter's contract.
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
    single.run(40);
    sharded.run(40);
    assert!(
        single.diagnostics().plunger_cycles > cycles,
        "the run must cross a withdrawal"
    );
    assert_same_run("one shard", &sharded, &single);
}

/// The wide grid (`pipeline.rs` pins it to the oracle): 15 cell bits, and
/// shards small enough that each sends on the sequential arm of the
/// primitives while the single-domain reference forks.
#[test]
fn wide_grid_is_shard_count_invariant() {
    let cfg = integration_tests::wide_grid_config();
    let mut reference = Simulation::new(cfg.clone());
    let mut sharded = Simulation::new(cfg);
    sharded.reshard(4);
    reference.run(integration_tests::WIDE_GRID_STEPS);
    sharded.run(integration_tests::WIDE_GRID_STEPS);
    assert!(reference.diagnostics().plunger_cycles >= 1);
    assert_same_run("wide grid", &sharded, &reference);
}

/// The ledgers are exact integer sums over the shards, so a 4-shard
/// engine's `diagnostics()` equals the single-domain run's after every
/// step, across a plunger withdrawal.
#[test]
fn unsynced_diagnostics_match_the_single_domain_run_every_step() {
    let cfg = wedge_dirty_cfg(3);
    let mut reference = Simulation::new(cfg.clone());
    let mut sharded = at_shards(cfg, 4);
    for step in 0..30 {
        reference.step();
        sharded.step();
        assert_eq!(
            sharded.diagnostics(),
            reference.diagnostics(),
            "step {step}"
        );
        assert_eq!(sharded.n_particles(), reference.n_particles());
    }
    assert!(reference.diagnostics().plunger_cycles >= 1, "no withdrawal");
    // The order-bearing outputs stream from the shards and agree too.
    assert_eq!(sharded.state_hash(), reference.state_hash());
    assert_eq!(sharded.particles().x, reference.particles().x);
}

/// The shards are the state: at every shard count the column readers of
/// a stepped engine read its current state — several shards rebuild the
/// merged view after every step — and equal the single-domain run's,
/// across a withdrawal.
#[test]
fn column_readers_read_the_current_state_at_any_shard_count() {
    let cfg = wedge_dirty_cfg(3);
    for shards in [1usize, 3, 4] {
        let mut reference = Simulation::new(cfg.clone());
        let mut sharded = at_shards(cfg.clone(), shards);
        for step in 0..30 {
            reference.step();
            sharded.step();
            if step % 3 == 0 {
                assert_stores_equal(sharded.particles(), reference.particles());
                let bounds = sharded.segment_bounds();
                let tag = format!("{shards} shards, step {step}");
                assert_eq!(bounds, reference.segment_bounds(), "{tag}");
            }
        }
        assert!(reference.diagnostics().plunger_cycles >= 1, "no withdrawal");
    }
}

/// Several shards' sort orders name their own slots: there is no
/// canonical permutation to return, so the reader refuses.
#[test]
#[should_panic(expected = "last_sort_order needs one shard")]
fn last_sort_order_refuses_several_shards() {
    let mut sharded = at_shards(wedge_dirty_cfg(3), 2);
    sharded.step();
    let _ = sharded.last_sort_order();
}

/// Every registry scenario at QUICK scale is shard-count invariant:
/// shard counts {1, 2, 4} reproduce the goldens and the exact
/// `state_hash` of the default single-domain run.  Release-only — the
/// same gating as the scenario golden sweep (a debug tunnel run costs
/// ~a minute).
#[test]
fn registry_scenarios_are_shard_count_invariant() {
    let arms = [1usize, 2, 4].map(|shards| RunOptions {
        shards,
        ..RunOptions::default()
    });
    check_registry_invariance(&RunOptions::default(), &arms);
}

/// A checkpoint saved by a supervised run at S shards resumes — through
/// the supervisor's own startup-adoption path — at S′ ≠ S shards, and
/// finishes with the hash of a run that was never interrupted.  The
/// first arm runs at 3 shards and is killed by an injected crash with a
/// zero recovery budget (leaving its rolling checkpoints on disk); the
/// second arm adopts the newest checkpoint at 2 shards and completes.
#[test]
fn sharded_checkpoint_resumes_at_any_shard_count() {
    check_supervised_handoff("s_to_sprime", ExecMode::default());
}
