//! The step-path contract: the rank equals the reference permutation and
//! bounds bit for bit, the engine's whole step equals the
//! separate-phase oracle (`dsmc_baselines::TwoStepSim`) bit for bit,
//! steady-state steps allocate nothing in the hot path, and fixed-seed
//! runs are identical for any thread count.

use dsmc_baselines::TwoStepSim;
use dsmc_datapar::{
    pack_pair, segment_bounds_from_sorted, sort_order_and_bounds_from_pairs_cells,
    sort_perm_by_key, SortScratch,
};
use dsmc_engine::config::WallModel;
use dsmc_engine::particles::ParticleStore;
use dsmc_engine::{BodySpec, RngMode, SimConfig, Simulation};
use dsmc_fixed::Fx;
use dsmc_rng::XorShift32;
use integration_tests::{assert_stores_equal, subprocess_hash, WIDE_GRID_STEPS};
use proptest::prelude::*;

/// A store with `n` particles whose every column is distinct pseudo-random
/// data, so any mis-gathered column shows up in a comparison.
fn random_store(n: usize, seed: u32) -> ParticleStore {
    let mut rng = XorShift32::new(seed | 1);
    let mut s = ParticleStore::default();
    for i in 0..n {
        let vel = core::array::from_fn(|_| Fx::from_raw((rng.next_u32() as i32) >> 10));
        s.push(
            Fx::from_raw((rng.next_u32() as i32) >> 8),
            Fx::from_raw((rng.next_u32() as i32) >> 8),
            vel,
            dsmc_rng::perm::knuth_shuffle(&mut rng),
            XorShift32::new(i as u32 + 1),
            rng.next_u32() % 64,
        );
    }
    s
}

/// The engine's rank must emit exactly what the separate-phase oracle
/// computes in three steps: the reference permutation — the router
/// addresses the one send consumes — the segment bounds of the sorted cell
/// column, and the cell id of every segment.  Keys are laid out as the
/// engine packs them, `(cell << jitter_bits) | jitter`.
fn check_fused_matches_two_step(n: usize, seed: u32, cell_bits: u32, jitter_bits: u32) {
    let store = random_store(n, seed);
    let keys: Vec<u32> = (0..n)
        .map(|i| {
            let cell = store.x[i].raw() as u32 & ((1 << cell_bits) - 1);
            let jitter = store.y[i].raw() as u32 & ((1 << jitter_bits) - 1);
            (cell << jitter_bits) | jitter
        })
        .collect();
    let perm = sort_perm_by_key(&keys, cell_bits + jitter_bits);
    let sorted_cells: Vec<u32> = perm
        .iter()
        .map(|&i| keys[i as usize] >> jitter_bits)
        .collect();
    let want_bounds = segment_bounds_from_sorted(&sorted_cells);

    let mut scratch = SortScratch::new();
    for (i, (pair, &k)) in scratch.input_pairs(n).iter_mut().zip(&keys).enumerate() {
        *pair = pack_pair(k, i);
    }
    let (mut order, mut bounds, mut seg_cells) = (Vec::new(), Vec::new(), Vec::new());
    assert!(sort_order_and_bounds_from_pairs_cells(
        cell_bits,
        jitter_bits,
        &mut scratch,
        &mut order,
        &mut bounds,
        &mut seg_cells,
        false,
    ));
    assert_eq!(order, perm, "rank differs from reference permutation");
    assert_eq!(bounds, want_bounds, "rank's bounds differ from the sweep's");
    let want_cells: Vec<u32> = want_bounds[..want_bounds.len() - 1]
        .iter()
        .map(|&b| sorted_cells[b as usize])
        .collect();
    assert_eq!(seg_cells, want_cells, "segment cell ids differ");
}

#[test]
fn fused_send_matches_reference_large() {
    // Above PAR_THRESHOLD: at the paper grid's layout, at the widest cell
    // field and without jitter.
    check_fused_matches_two_step(40_000, 7, 13, 8);
    check_fused_matches_two_step(100_000, 8, 16, 12);
    check_fused_matches_two_step(20_000, 9, 6, 0);
}

proptest! {
    // Below PAR_THRESHOLD, every cell and jitter width validation admits.
    #[test]
    fn prop_fused_send_matches_reference(
        n in 0usize..500,
        seed in any::<u32>(),
        cell_bits in 1u32..=16,
        jitter_bits in 0u32..=12,
    ) {
        check_fused_matches_two_step(n, seed, cell_bits, jitter_bits);
    }
}

/// Run the same config through the engine and the separate-phase oracle
/// and demand bit-identical trajectories, bounds, orders and ledgers.
/// `steps` spans several plunger cycles, so withdrawal steps — the sweep
/// leaving the reservoir rows to the refill census, which keys them after
/// the refill — are exercised along with the ordinary fused steps.
fn check_pipelines_agree(cfg: SimConfig, steps: usize) -> Simulation {
    let mut fused = Simulation::new(cfg.clone());
    let mut two_step = TwoStepSim::new(cfg);
    fused.run(steps);
    two_step.run(steps);
    assert_stores_equal(&fused.particles(), two_step.particles());
    assert_eq!(fused.segment_bounds(), two_step.segment_bounds());
    assert_eq!(fused.last_sort_order(), two_step.last_sort_order());
    let (df, dt) = (fused.diagnostics(), two_step.diagnostics());
    assert_eq!(df.collisions, dt.collisions);
    assert_eq!(df.candidates, dt.candidates);
    assert_eq!(df.n_flow, dt.n_flow);
    assert_eq!(df.exited, dt.exited);
    assert_eq!(df.introduced, dt.introduced);
    assert_eq!(df.plunger_cycles, dt.plunger_cycles);
    fused
}

/// Whole-simulation equivalence: the engine and the separate-phase oracle
/// must produce bit-identical trajectories from the same seed.
#[test]
fn pipelines_produce_identical_trajectories() {
    check_pipelines_agree(SimConfig::small_test(), 40);
}

/// The wide grid (15 cell bits, a population past PAR_THRESHOLD) on every
/// way pairs reach the rank: the construction's shuffled keys, the sweep's
/// on ordinary steps, and the sweep's plus the refill's on the withdrawal
/// step; all must land on the oracle's state.  `sharding.rs` runs the same
/// config at 4 shards.
#[test]
fn wide_grid_matches_two_step_on_every_rank_path() {
    let cfg = integration_tests::wide_grid_config();
    let fused = check_pipelines_agree(cfg, WIDE_GRID_STEPS);
    assert!(fused.n_particles() >= dsmc_datapar::PAR_THRESHOLD);
    assert!(fused.diagnostics().plunger_cycles >= 1, "no withdrawal");
}

/// The largest grid `try_validated` admits — 249 × 127 with a 255-row
/// reservoir strip, 47 943 cells, the full 16-bit cell field — steps, with
/// debug builds' overflow checks watching the Q8.23 limits, and agrees with
/// the oracle across a withdrawal.
#[test]
fn largest_admissible_grid_steps_and_matches_two_step() {
    let mut cfg = integration_tests::wide_grid_config();
    cfg.tunnel_w = 249;
    cfg.tunnel_h = 127;
    cfg.reservoir_cells = 16_320;
    cfg.reservoir_fill = 0.25;
    let fused = check_pipelines_agree(cfg, WIDE_GRID_STEPS);
    assert_eq!(fused.total_cells(), 47_943);
    assert!(fused.diagnostics().plunger_cycles >= 1, "no withdrawal");
}

/// A small tunnel with every knob available to the grid below.
fn grid_config(body: BodySpec, walls: WallModel, rng_mode: RngMode, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::small_test();
    cfg.tunnel_w = 24;
    cfg.tunnel_h = 16;
    cfg.n_per_cell = 8.0;
    cfg.reservoir_cells = 64;
    cfg.reservoir_fill = 10.0;
    cfg.body = body;
    cfg.walls = walls;
    cfg.rng_mode = rng_mode;
    cfg.seed = seed;
    cfg
}

/// The move-phase contract at whole-simulation level: the fused
/// single-sweep step is bit-identical to the separate-phase oracle for
/// **every** body shape × wall model × RNG mode — the geometry-aware
/// dispatch may skip work, never change it.
#[test]
fn fused_move_matches_two_step_across_geometries() {
    let steps = if cfg!(debug_assertions) { 16 } else { 40 };
    let bodies = [
        BodySpec::None,
        BodySpec::Wedge {
            x0: 8.0,
            base: 8.0,
            angle_deg: 30.0,
        },
        BodySpec::Step {
            x0: 9.0,
            x1: 12.0,
            h: 4.0,
        },
        BodySpec::Plate { x0: 10.0, h: 5.0 },
        BodySpec::Cylinder {
            cx: 11.0,
            cy: 8.0,
            r: 3.0,
        },
    ];
    for body in &bodies {
        for walls in [WallModel::Specular, WallModel::Diffuse { t_wall: 2.0 }] {
            for rng_mode in [RngMode::Explicit, RngMode::DirtyBits] {
                let sim =
                    check_pipelines_agree(grid_config(body.clone(), walls, rng_mode, 11), steps);
                // The withdrawal step keys the reservoir rows after the
                // refill, under either jitter source: it must be in the run.
                assert!(
                    sim.diagnostics().plunger_cycles >= 1,
                    "{body:?} / {walls:?} / {rng_mode:?}: no withdrawal in {steps} steps"
                );
            }
        }
    }
}

proptest! {
    /// Seed sweep on the gnarliest corner of the grid (body + diffuse
    /// walls + dirty-bit jitter) at tiny scale: agreement must not
    /// depend on where the trajectories happen to go.
    #[test]
    fn prop_fused_move_matches_two_step(seed in 1u64..=400) {
        let mut cfg = grid_config(
            BodySpec::Wedge { x0: 6.0, base: 6.0, angle_deg: 30.0 },
            WallModel::Diffuse { t_wall: 1.5 },
            RngMode::DirtyBits,
            seed,
        );
        cfg.tunnel_w = 16;
        cfg.tunnel_h = 12;
        cfg.n_per_cell = 5.0;
        cfg.reservoir_cells = 32;
        cfg.reservoir_fill = 6.0;
        check_pipelines_agree(cfg, 8);
    }
}

/// The classifier's fast path must actually be the common case on a
/// body-bearing workload — otherwise the dispatch is dead weight — and
/// the halo bound must have held for the test flow (the per-particle
/// guard makes violations safe, but they should be rare).
#[test]
fn free_cells_dominate_the_move_dispatch() {
    let mut sim = Simulation::new(SimConfig::small_wedge(0.5));
    sim.run(30);
    let [free, walls, full, reservoir] = sim.move_dispatch_counts();
    assert!(full > 0, "wedge cells must take the full path");
    assert!(
        free > walls + full,
        "free must dominate: free={free} walls={walls} full={full} res={reservoir}"
    );
    let halo_raw = (sim.cell_classifier().halo() * (1u64 << Fx::FRAC_BITS) as f64) as u32;
    assert!(
        sim.max_observed_speed_raw() <= halo_raw,
        "test flow should stay within the halo bound"
    );
}

/// Steady-state steps must not allocate in the sort/send path: every
/// hot-path buffer's capacity is stable across 100 further steps.
#[test]
fn hot_path_capacities_are_stable_across_steps() {
    let mut sim = Simulation::new(SimConfig::small_test());
    sim.run(50); // warm-up: scratch buffers reach workload size
    let caps = sim.hot_path_capacities();
    for step in 0..100 {
        sim.step();
        assert_eq!(
            sim.hot_path_capacities(),
            caps,
            "hot-path buffer re-allocated at step {step}"
        );
    }
}

/// The O(log) segment-bounds n_flow must agree with a full scan.
#[test]
fn n_flow_matches_full_scan() {
    let mut sim = Simulation::new(SimConfig::small_test());
    for _ in 0..10 {
        sim.run(5);
        let scan = sim
            .particles()
            .cell
            .iter()
            .filter(|&&c| c < sim.reservoir_base())
            .count();
        assert_eq!(sim.diagnostics().n_flow, scan);
    }
}

const DETERMINISM_STEPS: usize = 30;

/// Helper target for the subprocess determinism test; runs under a pinned
/// `RAYON_NUM_THREADS` and prints one combined state hash covering both
/// an empty tunnel and a body-bearing diffuse-wall workload — the latter
/// drives the fused move phase through all four dispatch kinds (free,
/// walls-only, full-resolve, reservoir) plus its withdrawal steps.
#[test]
#[ignore = "helper: spawned by determinism_across_thread_counts"]
fn helper_print_state_hash() {
    let mut sim = Simulation::new(SimConfig::small_test());
    sim.run(DETERMINISM_STEPS);
    let mut geom_cfg = grid_config(
        BodySpec::Wedge {
            x0: 8.0,
            base: 8.0,
            angle_deg: 30.0,
        },
        WallModel::Diffuse { t_wall: 2.0 },
        RngMode::DirtyBits,
        23,
    );
    geom_cfg.n_per_cell = 24.0;
    geom_cfg.reservoir_fill = 24.0;
    let mut geom = Simulation::new(geom_cfg);
    geom.run(DETERMINISM_STEPS);
    let [free, _, full, _] = geom.move_dispatch_counts();
    assert!(free > 0 && full > 0, "move dispatch must be exercised");
    println!(
        "STATE_HASH={:#018x}",
        sim.state_hash() ^ geom.state_hash().rotate_left(1)
    );
}

/// Fixed-seed runs must be bitwise identical across rayon thread counts.
/// The thread count is fixed at pool spin-up, so each count gets its own
/// subprocess (this same test binary, filtered to the helper above).
#[test]
fn determinism_across_thread_counts() {
    let hash = |threads| {
        subprocess_hash(
            "helper_print_state_hash",
            "STATE_HASH",
            &[("RAYON_NUM_THREADS", threads)],
        )
    };
    let h1 = hash("1");
    assert_eq!(h1, hash("4"), "1-thread and 4-thread runs diverged");
    assert_eq!(h1, hash("8"), "1-thread and 8-thread runs diverged");
}
