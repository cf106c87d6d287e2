//! The rank's order-identity contract, system level: the engine's one
//! rank — a stable counting sort of the keys the move sweep packs — and the
//! separate-phase oracle's reference sort (`dsmc_baselines::TwoStepSim`,
//! ranking with `dsmc_datapar::sort_perm_by_key`) must produce the
//! *identical* trajectory — same sorted columns, same segment bounds, same
//! order — for any seed, body, RNG mode and shard count, through plunger
//! withdrawals.  ARCHITECTURE.md names these tests as the pinning suite
//! for that invariant; it is why no golden is ever re-recorded for a
//! change to the rank.
//!
//! The fixed-seed tests run the fixtures' wedge (`drawn_cfg` body 1)
//! under explicit randomness.

use dsmc_baselines::TwoStepSim;
use dsmc_engine::Simulation;
use integration_tests::{assert_stores_equal, at_shards, drawn_cfg, subprocess_hash};
use proptest::prelude::*;

/// `sim` (at any shard count) against the oracle: every particle column,
/// the segment bounds, and the physical ledgers.
fn assert_matches_oracle(tag: &str, sim: &Simulation, oracle: &TwoStepSim) {
    assert_stores_equal(&sim.particles(), oracle.particles());
    assert_eq!(
        sim.segment_bounds(),
        oracle.segment_bounds(),
        "{tag}: bounds"
    );
    assert_eq!(sim.diagnostics(), oracle.diagnostics(), "{tag}: ledgers");
}

proptest! {
    /// The rank == the reference sort bitwise over random seeds, bodies
    /// and RNG modes, at shard counts {1, 2, 4}: columns, bounds and
    /// ledgers against the oracle, the order at one shard (several
    /// shards' orders name their own slots), and one `state_hash` across
    /// the shard counts.
    #[test]
    fn rank_equals_reference_sort_bitwise(
        seed in 1u64..=40,
        body_kind in 0u8..3,
        dirty in any::<bool>(),
        steps in 8usize..=20,
    ) {
        let cfg = drawn_cfg(seed, body_kind, dirty);
        let mut oracle = TwoStepSim::new(cfg.clone());
        oracle.run(steps);
        let mut hash = None;
        for shards in [1usize, 2, 4] {
            let mut sim = at_shards(cfg.clone(), shards);
            sim.run(steps);
            let tag = format!("rank against the reference sort at {shards} shards");
            assert_matches_oracle(&tag, &sim, &oracle);
            if shards == 1 {
                prop_assert_eq!(sim.last_sort_order(), oracle.last_sort_order());
            }
            let h = *hash.get_or_insert(sim.state_hash());
            prop_assert_eq!(sim.state_hash(), h, "{}: state_hash", tag);
        }
    }
}

/// A 50-step single-domain run across plunger withdrawals: the final
/// order itself — permutation, segment bounds, every particle column —
/// must be bitwise the oracle's, not merely hash-identical.
#[test]
fn fifty_step_order_identity_with_withdrawals() {
    let cfg = drawn_cfg(11, 1, false);
    let mut sim = Simulation::new(cfg.clone());
    let mut oracle = TwoStepSim::new(cfg);
    sim.run(50);
    oracle.run(50);
    assert_matches_oracle("fifty steps", &sim, &oracle);
    assert_eq!(sim.last_sort_order(), oracle.last_sort_order());
    assert!(
        sim.diagnostics().plunger_cycles > 0,
        "the run must cross plunger withdrawals"
    );
}

const DETERMINISM_STEPS: usize = 30;

/// Helper target for the subprocess determinism test: a run
/// (single-domain and 2-shard) under whatever rayon pool the parent
/// pinned via `RAYON_NUM_THREADS`.
#[test]
#[ignore = "helper: spawned by rank_determinism_across_thread_counts"]
fn helper_print_rank_state_hash() {
    let mut single = Simulation::new(drawn_cfg(29, 1, false));
    single.run(DETERMINISM_STEPS);
    let mut sharded = at_shards(drawn_cfg(29, 1, false), 2);
    sharded.run(DETERMINISM_STEPS);
    println!(
        "STATE_HASH={:#018x}",
        single.state_hash() ^ sharded.state_hash().rotate_left(1)
    );
}

/// Runs must be bitwise identical across rayon thread counts (the rank
/// is serial; the send's chunking must not leak into the trajectory).
/// Thread count is fixed at pool spin-up, so each count gets its own
/// subprocess.
#[test]
fn rank_determinism_across_thread_counts() {
    let hash = |threads| {
        subprocess_hash(
            "helper_print_rank_state_hash",
            "STATE_HASH",
            &[("RAYON_NUM_THREADS", threads)],
        )
    };
    assert_eq!(hash("1"), hash("4"), "1-thread and 4-thread runs diverged");
}
