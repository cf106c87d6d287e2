//! The order-identity contract of the temporal-coherence sort, system
//! level: the incremental rank (repair last step's sorted order) and the
//! full rank (re-derive it by stable radix sort) must produce the
//! *identical* trajectory — same sorted order, same segment bounds, same
//! `state_hash` — for any seed, body, RNG mode, shard count, and any
//! mid-run path transition (mover-budget crossings in both directions,
//! plunger-withdrawal steps, post-repartition steps).  ARCHITECTURE.md
//! names these tests as the pinning suite for that invariant; it is why
//! no golden is ever re-recorded for a sort-path change.
//!
//! The full arm is an engine with `set_mover_threshold(0.0)`: no step
//! with a mover fits a zero budget, so every step ranks from scratch.

use dsmc_engine::config::WallModel;
use dsmc_engine::{BodySpec, RngMode, SimConfig, Simulation};
use integration_tests::at_shards;
use proptest::prelude::*;

/// Small wind-tunnel config with the gnarliest state: a body (surface
/// windows exist), diffuse walls, selectable randomness.
fn base_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::small_test();
    cfg.body = BodySpec::Wedge {
        x0: 6.0,
        base: 6.0,
        angle_deg: 30.0,
    };
    cfg.walls = WallModel::Diffuse { t_wall: 1.5 };
    cfg.n_per_cell = 6.0;
    cfg.reservoir_fill = 12.0;
    cfg.seed = seed;
    cfg
}

/// The reference arm: an engine that takes the full rank on every step.
fn full_rank_engine(cfg: SimConfig, shards: usize) -> Simulation {
    let mut e = at_shards(cfg, shards);
    e.set_mover_threshold(0.0);
    e
}

proptest! {
    /// Incremental == Full bitwise over random seeds, bodies and RNG
    /// modes, at shard counts {1, 2, 4} — the order-identity invariant,
    /// property-tested.
    #[test]
    fn incremental_equals_full_bitwise(
        seed in 1u64..=40,
        body_kind in 0u8..3,
        dirty in any::<bool>(),
        steps in 8usize..=20,
    ) {
        let mut cfg = base_cfg(seed);
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
        for shards in [1usize, 2, 4] {
            let mut a = at_shards(cfg.clone(), shards);
            let mut b = full_rank_engine(cfg.clone(), shards);
            a.run(steps);
            b.run(steps);
            prop_assert_eq!(
                a.state_hash(),
                b.state_hash(),
                "incremental rank diverged from the full rank at {} shards",
                shards
            );
            let (inc, _) = b.sort_path_counts();
            prop_assert_eq!(inc, 0, "the zero-budget arm took the repair path");
        }
    }
}

/// A 50-step single-domain run: the repair path must carry the bulk of
/// the steps, the withdrawal steps must pin the full path, and the final
/// order itself — permutation, segment bounds, every particle column —
/// must be bitwise identical to the full-rank arm, not merely
/// hash-identical.
#[test]
fn fifty_step_order_identity_with_withdrawals() {
    let cfg = base_cfg(11);
    let mut a = Simulation::new(cfg.clone());
    let mut b = Simulation::new(cfg);
    b.set_mover_threshold(0.0);
    a.run(50);
    b.run(50);
    let (pa, pb) = (a.particles(), b.particles());
    assert_eq!(pa.x, pb.x);
    assert_eq!(pa.y, pb.y);
    assert_eq!(pa.u, pb.u);
    assert_eq!(pa.v, pb.v);
    assert_eq!(pa.w, pb.w);
    assert_eq!(pa.cell, pb.cell);
    assert_eq!(a.segment_bounds(), b.segment_bounds());
    assert_eq!(a.last_sort_order(), b.last_sort_order());
    assert_eq!(a.state_hash(), b.state_hash());
    let (inc, full) = a.sort_path_counts();
    assert!(inc >= 40, "repair path barely engaged over 50 steps: {inc}");
    let cycles = a.diagnostics().plunger_cycles;
    assert!(cycles > 0, "the run must cross plunger withdrawals");
    assert!(
        full >= cycles,
        "every withdrawal step must pin the full path ({full} < {cycles})"
    );
}

/// Mover-budget crossings in both directions, back to back: incremental
/// → forced-full (threshold 0) → incremental again, hash-checked against
/// an untouched full-rank twin at every phase boundary.  The threshold
/// is a pure performance knob; the trajectory must never notice.
#[test]
fn threshold_crossings_are_hash_identical_through_both_transitions() {
    for shards in [1usize, 2, 4] {
        let cfg = base_cfg(23);
        let mut inc = at_shards(cfg.clone(), shards);
        let mut full = full_rank_engine(cfg, shards);

        // Phase 1: repair path engaged.
        inc.run(12);
        full.run(12);
        assert_eq!(
            inc.state_hash(),
            full.state_hash(),
            "{shards} shards, phase 1"
        );
        let (i1, _) = inc.sort_path_counts();
        assert!(
            i1 > 0,
            "{shards} shards: repair never engaged before the crossing"
        );

        // Phase 2: budget 0 rejects every step with movers — full path.
        inc.set_mover_threshold(0.0);
        inc.run(12);
        full.run(12);
        assert_eq!(
            inc.state_hash(),
            full.state_hash(),
            "{shards} shards, phase 2"
        );
        let (i2, _) = inc.sort_path_counts();
        assert_eq!(
            i2, i1,
            "{shards} shards: repair path ran past a zero budget"
        );

        // Phase 3: restore the budget — repair resumes immediately.
        inc.set_mover_threshold(1.0);
        inc.run(12);
        full.run(12);
        assert_eq!(
            inc.state_hash(),
            full.state_hash(),
            "{shards} shards, phase 3"
        );
        let (i3, _) = inc.sort_path_counts();
        assert!(
            i3 > i2,
            "{shards} shards: repair did not resume after the crossing"
        );
    }
}

const DETERMINISM_STEPS: usize = 30;

/// Helper target for the subprocess determinism test: a default
/// (incremental-rank) run (single-domain and 2-shard) under whatever rayon pool the parent
/// pinned via `RAYON_NUM_THREADS`.
#[test]
#[ignore = "helper: spawned by incremental_determinism_across_thread_counts"]
fn helper_print_incremental_state_hash() {
    let mut single = Simulation::new(base_cfg(29));
    single.run(DETERMINISM_STEPS);
    let (inc, _) = single.sort_path_counts();
    assert!(inc > 0, "repair path must engage in the helper run");
    let mut sharded = at_shards(base_cfg(29), 2);
    sharded.run(DETERMINISM_STEPS);
    println!(
        "STATE_HASH={:#018x}",
        single.state_hash() ^ sharded.state_hash().rotate_left(1)
    );
}

/// Incremental-rank runs must be bitwise identical across rayon thread
/// counts (the repair's parallel per-segment sorts write disjoint
/// slices; chunking must not leak into the trajectory).  Thread count is
/// fixed at pool spin-up, so each count gets its own subprocess.
#[test]
fn incremental_determinism_across_thread_counts() {
    fn hash_with_threads(n: &str) -> String {
        let exe = std::env::current_exe().expect("current_exe");
        let out = std::process::Command::new(exe)
            .args([
                "--exact",
                "helper_print_incremental_state_hash",
                "--ignored",
                "--nocapture",
            ])
            .env("RAYON_NUM_THREADS", n)
            .output()
            .expect("spawn helper");
        assert!(
            out.status.success(),
            "helper failed under {n} threads: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        stdout
            .lines()
            .find_map(|l| {
                l.find("STATE_HASH=")
                    .map(|at| l[at..].split_whitespace().next().unwrap().to_string())
            })
            .unwrap_or_else(|| panic!("no STATE_HASH in helper output:\n{stdout}"))
    }
    let h1 = hash_with_threads("1");
    let h4 = hash_with_threads("4");
    assert_eq!(h1, h4, "1-thread and 4-thread incremental runs diverged");
}
