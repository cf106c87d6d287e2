//! The checkpoint/restart contract, system level: snapshots round-trip
//! bit-exactly over arbitrary simulation states, damaged or mismatched
//! snapshots are rejected with typed errors, and save-at-N/resume-to-M
//! equals straight-to-M by full state hash — including across rayon
//! thread counts, which a subprocess test pins the same way the pipeline
//! determinism test does.

use dsmc_engine::config::WallModel;
use dsmc_engine::{BodySpec, RngMode, SimConfig, Simulation, StateError};
use proptest::prelude::*;

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

/// Save at `n`, resume, run both arms to `m`, demand hash equality with a
/// third simulation that never stopped.
fn check_resume_equals_straight(cfg: SimConfig, n: usize, m: usize) {
    assert!(n <= m);
    let mut straight = Simulation::new(cfg.clone());
    straight.run(m);
    let mut a = Simulation::new(cfg.clone());
    a.run(n);
    let bytes = a.save_state();
    let mut b = Simulation::resume(cfg, &bytes, 1).expect("own snapshot resumes");
    a.run(m - n);
    b.run(m - n);
    assert_eq!(
        a.state_hash(),
        straight.state_hash(),
        "interrupted-but-not-resumed arm diverged (save_state perturbed the run?)"
    );
    assert_eq!(
        b.state_hash(),
        straight.state_hash(),
        "resumed arm diverged from the uninterrupted run"
    );
    // Hash equality is the contract; spot-check it is not vacuous.
    assert_eq!(b.particles().x, straight.particles().x);
    assert_eq!(b.particles().rng, straight.particles().rng);
    assert_eq!(b.segment_bounds(), straight.segment_bounds());
    assert_eq!(b.diagnostics(), straight.diagnostics());
}

#[test]
fn resume_equals_straight_on_the_empty_tunnel() {
    check_resume_equals_straight(SimConfig::small_test(), 17, 45);
}

#[test]
fn resume_equals_straight_on_the_dirty_wedge() {
    check_resume_equals_straight(wedge_dirty_cfg(7), 25, 60);
}

#[test]
fn resume_equals_straight_across_a_plunger_withdrawal() {
    // small_test withdraws every ~9-10 steps; straddle several cycles so
    // the refill path (the sweep's key-less fallback) is crossed by the
    // resumed arm too.
    check_resume_equals_straight(SimConfig::small_test(), 5, 40);
}

#[test]
fn resume_mid_sampling_window_reduces_to_the_same_fields() {
    let cfg = wedge_dirty_cfg(3);
    let mut straight = Simulation::new(cfg.clone());
    straight.run(20);
    straight.begin_sampling();
    straight.run(30);

    let mut a = Simulation::new(cfg.clone());
    a.run(20);
    a.begin_sampling();
    a.run(12); // checkpoint lands mid-window
    let mut b = Simulation::resume(cfg, &a.save_state(), 1).expect("resume");
    b.run(18);
    assert_eq!(b.state_hash(), straight.state_hash());

    let fs = straight.finish_sampling();
    let fb = b.finish_sampling();
    assert_eq!(fs.steps, fb.steps);
    assert_eq!(fs.density, fb.density);
    assert_eq!(fs.t_trans, fb.t_trans);
    let ss = straight.finish_surface_sampling().expect("wedge facets");
    let sb = b.finish_surface_sampling().expect("wedge facets");
    assert_eq!(ss.cp, sb.cp);
    assert_eq!(ss.ch, sb.ch);
    assert_eq!(ss.force_x, sb.force_x);
}

proptest! {
    /// Encode → decode equality over random simulation states: any seed,
    /// any stopping step (including 0 — a freshly initialised, sorted
    /// state), both rng modes.
    #[test]
    fn prop_snapshot_round_trips(seed in 1u64..=60, steps in 0usize..=25, dirty in any::<bool>()) {
        let mut cfg = wedge_dirty_cfg(seed);
        cfg.rng_mode = if dirty { RngMode::DirtyBits } else { RngMode::Explicit };
        let mut sim = Simulation::new(cfg.clone());
        sim.run(steps);
        let bytes = sim.save_state();
        let mut back = Simulation::resume(cfg, &bytes, 1).expect("round trip");
        prop_assert_eq!(back.state_hash(), sim.state_hash());
        prop_assert_eq!(&back.particles().x, &sim.particles().x);
        prop_assert_eq!(&back.particles().u, &sim.particles().u);
        prop_assert_eq!(&back.particles().perm, &sim.particles().perm);
        prop_assert_eq!(&back.particles().rng, &sim.particles().rng);
        prop_assert_eq!(&back.particles().cell, &sim.particles().cell);
        prop_assert_eq!(back.segment_bounds(), sim.segment_bounds());
    }

    /// Corruption anywhere in the container must be rejected with an
    /// error, never a panic or a silently-wrong simulation.
    #[test]
    fn prop_corruption_is_rejected(at_permille in 0u64..1000, bit in 0u8..8) {
        let mut sim = Simulation::new(SimConfig::small_test());
        sim.run(5);
        let mut bytes = sim.save_state();
        let at = (bytes.len() - 1) * at_permille as usize / 1000;
        bytes[at] ^= 1 << bit;
        prop_assert!(Simulation::resume(SimConfig::small_test(), &bytes, 1).is_err());
    }

    /// Truncation at any length must be rejected.
    #[test]
    fn prop_truncation_is_rejected(keep_permille in 0u64..1000) {
        let mut sim = Simulation::new(SimConfig::small_test());
        sim.run(5);
        let bytes = sim.save_state();
        let keep = bytes.len() * keep_permille as usize / 1000;
        prop_assert!(keep < bytes.len());
        prop_assert!(Simulation::resume(SimConfig::small_test(), &bytes[..keep], 1).is_err());
    }
}

#[test]
fn config_fingerprint_mismatches_are_typed() {
    let mut sim = Simulation::new(SimConfig::small_test());
    sim.run(5);
    let bytes = sim.save_state();
    // Every physics-bearing field must flip the fingerprint.
    let mutations: Vec<(&str, SimConfig)> = vec![
        ("seed", {
            let mut c = SimConfig::small_test();
            c.seed ^= 1;
            c
        }),
        ("mach", {
            let mut c = SimConfig::small_test();
            c.mach = 3.9;
            c
        }),
        ("body", {
            let mut c = SimConfig::small_test();
            c.body = BodySpec::Plate { x0: 6.0, h: 2.0 };
            c
        }),
        ("walls", {
            let mut c = SimConfig::small_test();
            c.walls = WallModel::Diffuse { t_wall: 1.0 };
            c
        }),
        ("rng_mode", {
            let mut c = SimConfig::small_test();
            c.rng_mode = RngMode::DirtyBits;
            c
        }),
        ("n_per_cell", {
            let mut c = SimConfig::small_test();
            c.n_per_cell = 11.0;
            c
        }),
        ("jitter_bits", {
            let mut c = SimConfig::small_test();
            c.jitter_bits = 5;
            c
        }),
    ];
    for (what, cfg) in mutations {
        assert!(
            matches!(
                Simulation::resume(cfg, &bytes, 1),
                Err(StateError::FingerprintMismatch { .. })
            ),
            "changing {what} must be a fingerprint mismatch"
        );
    }
}

#[test]
fn snapshot_is_not_an_empty_blob() {
    // Guard against a refactor that silently stops serialising a column:
    // the snapshot must be at least the ten 2-or-4-byte columns wide.
    let mut sim = Simulation::new(SimConfig::small_test());
    sim.run(3);
    let bytes = sim.save_state();
    let floor = sim.n_particles() * (7 * 4 + 2 + 4 + 4);
    assert!(
        bytes.len() > floor,
        "snapshot {} bytes < column floor {floor}",
        bytes.len()
    );
}

const SUBPROCESS_SAVE_AT: usize = 20;
const SUBPROCESS_RUN_TO: usize = 50;

/// Helper for the cross-thread-count test below: under the parent's
/// pinned `RAYON_NUM_THREADS`, prove save-at-N/resume-to-M equals
/// straight-to-M in-process, then print the straight run's hash so the
/// parent can also demand it is thread-count invariant.
#[test]
#[ignore = "helper: spawned by resume_bit_identity_across_thread_counts"]
fn helper_resume_then_print_hash() {
    let cfg = wedge_dirty_cfg(13);
    let mut straight = Simulation::new(cfg.clone());
    straight.run(SUBPROCESS_RUN_TO);
    let mut a = Simulation::new(cfg.clone());
    a.run(SUBPROCESS_SAVE_AT);
    let mut b = Simulation::resume(cfg, &a.save_state(), 1).expect("resume");
    b.run(SUBPROCESS_RUN_TO - SUBPROCESS_SAVE_AT);
    assert_eq!(
        b.state_hash(),
        straight.state_hash(),
        "resume diverged in-process"
    );
    println!("RESUME_HASH={:#018x}", b.state_hash());
}

/// Save-at-N/resume-to-M must equal straight-to-M under every thread
/// count, and produce the same bits across thread counts.  Thread count
/// is fixed at rayon pool spin-up, so each count gets its own subprocess
/// (this same test binary, filtered to the helper above).
#[test]
fn resume_bit_identity_across_thread_counts() {
    fn hash_with_threads(n: &str) -> String {
        let exe = std::env::current_exe().expect("current_exe");
        let out = std::process::Command::new(exe)
            .args([
                "--exact",
                "helper_resume_then_print_hash",
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
                l.find("RESUME_HASH=")
                    .map(|at| l[at..].split_whitespace().next().unwrap().to_string())
            })
            .unwrap_or_else(|| panic!("no RESUME_HASH in helper output:\n{stdout}"))
    }
    let h1 = hash_with_threads("1");
    let h4 = hash_with_threads("4");
    assert_eq!(h1, h4, "resumed trajectory depends on the thread count");
}
