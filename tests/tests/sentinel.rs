//! The physics-sentinel contract, system level: on a *healthy* run the
//! watchdogs never fire (no false positives over random seeds, step
//! counts, rng modes, and every registry case's real QUICK protocol),
//! and each corruption class is caught within one sampling window of the
//! injection — the latency bound the supervisor's recovery relies on.

use dsmc_engine::sentinel::{Sentinel, SentinelError};
use dsmc_engine::{FaultTarget, RngMode, SimConfig, Simulation};
use dsmc_scenarios::{registry, Scale};
use integration_tests::{at_shards, wedge_dirty_cfg};
use proptest::prelude::*;

proptest! {
    /// No false positives: arm at cold start, step a random healthy run,
    /// re-check at every window boundary.  Any seed, any length, both
    /// rng modes, body or empty tunnel, at one shard and at four — the
    /// sentinel must stay silent.  The 4-shard run is forced onto
    /// maximally skewed cuts half-way, so the per-shard ownership check
    /// must hold through a `set_cuts` and the weighted repartition that
    /// follows it.
    #[test]
    fn prop_sentinels_never_trip_on_healthy_runs(
        seed in 1u64..=40,
        steps in 1usize..=40,
        dirty in any::<bool>(),
        with_body in any::<bool>(),
    ) {
        let mut cfg = if with_body {
            wedge_dirty_cfg(seed)
        } else {
            let mut c = SimConfig::small_test();
            c.seed = seed;
            c
        };
        cfg.rng_mode = if dirty { RngMode::DirtyBits } else { RngMode::Explicit };
        for shards in [1usize, 4] {
            let mut sim = at_shards(cfg.clone(), shards);
            let sentinel = Sentinel::arm(&sim);
            for s in 1..=steps {
                sim.step();
                if shards > 1 && s == steps.div_ceil(2) {
                    let w = sim.tunnel().width;
                    prop_assert!(sim.set_cuts(&[0, 1, 2, 3, w]));
                }
                if s % 5 == 0 || s == steps {
                    if let Err(e) = sentinel.check(&sim) {
                        prop_assert!(false, "false positive at step {s}, {shards} shards: {e}");
                    }
                }
            }
        }
    }
}

/// No false positives on the real workloads: every wind-tunnel-backed
/// registry case at QUICK scale, with the sentinel re-armed at the same
/// cadence the supervisor uses.  Release-only — a debug tunnel run costs
/// ~a minute each, and the proptest above covers debug builds.
#[test]
fn sentinels_stay_silent_across_the_registry_at_quick_scale() {
    if cfg!(debug_assertions) {
        return; // release-only, same gating as the scenario golden sweep
    }
    for s in registry() {
        let Some(cfg) = s.tunnel_config(Scale::Quick) else {
            continue; // relaxation boxes have no engine run to watch
        };
        let total = dsmc_scenarios::protocol_for(s, Scale::Quick, Default::default())
            .map_or(400, |p| p.total_steps());
        let mut sim = Simulation::new(cfg);
        let sentinel = Sentinel::arm(&sim);
        for step in 1..=total {
            sim.step();
            if step % 25 == 0 || step == total {
                if let Err(e) = sentinel.check(&sim) {
                    panic!("{}: false positive at step {step}: {e}", s.name);
                }
            }
        }
    }
}

/// Detection latency harness: run healthy to `inject_at`, corrupt one
/// column, keep stepping — the trip must land at the *first* window
/// boundary after the injection (within one sampling window), with the
/// error class matching the corruption, at one shard and at four.
fn assert_caught_within_one_window(
    target: FaultTarget,
    steps_after_injection: u64,
    classify: fn(&SentinelError) -> bool,
) {
    for shards in [1usize, 4] {
        let mut sim = at_shards(wedge_dirty_cfg(23), shards);
        let sentinel = Sentinel::arm(&sim);
        for _ in 0..15 {
            sim.step();
        }
        sentinel
            .check(&sim)
            .expect("healthy at the injection point");
        let what = sim.inject_fault(target, 0x5EED);
        for _ in 0..steps_after_injection {
            sim.step();
        }
        // `steps_after_injection` keeps us inside the window ending at 20.
        assert!(15 + steps_after_injection <= 20);
        match sentinel.check(&sim) {
            Err(e) => assert!(
                classify(&e),
                "corruption ({what}) at {shards} shards caught by the wrong check: {e}"
            ),
            Ok(()) => panic!("corruption ({what}) at {shards} shards not caught within one window"),
        }
    }
}

/// Out-of-plane velocity block corruption: pure ledger damage (no single
/// particle is fast enough to trip the halo), caught by the momentum
/// random-walk budget or the energy pin.
#[test]
fn w_block_corruption_is_caught_by_the_ledgers_within_one_window() {
    assert_caught_within_one_window(FaultTarget::OutOfPlaneVelocity, 5, |e| {
        matches!(
            e,
            SentinelError::MomentumBudgetBlown { .. } | SentinelError::EnergyPinBroken { .. }
        )
    });
}

/// A single streamwise outlier: caught by the halo bound — via the fresh
/// column scan, or the engine's monotone observed-max once the particle
/// has moved (which survives even if the outlier exits the domain).
#[test]
fn u_spike_is_caught_by_the_halo_bound_within_one_window() {
    assert_caught_within_one_window(FaultTarget::StreamwiseVelocity, 2, |e| {
        matches!(e, SentinelError::VelocityHaloExceeded { .. })
    });
}

/// Cell-index corruption self-heals at the next move phase (the sweep
/// recomputes the column), so it must be caught *at* the boundary it is
/// injected on — zero steps of grace — by the segment-consistency scan.
#[test]
fn cell_rotation_is_caught_immediately_by_the_segment_scan() {
    assert_caught_within_one_window(FaultTarget::CellIndex, 0, |e| {
        matches!(e, SentinelError::SegmentsBroken { .. })
    });
}

/// The exact-count invariant: physically removing a particle from every
/// column is not something `inject_fault` models (no fault class may
/// change the population), so drive the count check directly through a
/// second simulation with a different population.
#[test]
fn population_change_is_caught_by_the_count_check() {
    let mut cfg = wedge_dirty_cfg(5);
    let sim = Simulation::new(cfg.clone());
    let sentinel = Sentinel::arm(&sim);
    cfg.n_per_cell = 7.0; // different population, same geometry
    let other = Simulation::new(cfg);
    assert_ne!(sim.n_particles(), other.n_particles());
    match sentinel.check(&other) {
        Err(SentinelError::ParticleCountChanged { expected, found }) => {
            assert_eq!(expected, sim.n_particles());
            assert_eq!(found, other.n_particles());
        }
        Err(e) => panic!("wrong check fired first: {e}"),
        Ok(()) => panic!("population change not caught"),
    }
}

/// Sentinel checks are pure observers: checking must not consume RNG
/// draws or perturb any state the hash covers — otherwise supervision
/// itself would change trajectories.
#[test]
fn a_checked_run_hashes_identically_to_an_unchecked_one() {
    let cfg = wedge_dirty_cfg(13);
    let mut unchecked = Simulation::new(cfg.clone());
    unchecked.run(30);

    let mut checked = Simulation::new(cfg);
    let sentinel = Sentinel::arm(&checked);
    for s in 1..=30 {
        checked.step();
        if s % 3 == 0 {
            sentinel.check(&checked).expect("healthy");
        }
    }
    assert_eq!(
        checked.state_hash(),
        unchecked.state_hash(),
        "sentinel checks perturbed the trajectory"
    );
}
