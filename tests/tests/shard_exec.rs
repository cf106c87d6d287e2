//! The threaded-execution contract, system level: `ExecMode::Threaded`
//! must produce the *identical* `state_hash` as `ExecMode::Serial` — the
//! executable spec — for every shard count and worker count, over random
//! configs, for every registry scenario, across OS processes under any
//! rayon pool size, and through the fault-tolerant supervisor's
//! crash/recover cycle.  `SHARDING.md` ("Threaded execution") names these
//! tests as the pinning suite for that contract.

use dsmc_engine::{ExecMode, Simulation};
use dsmc_scenarios::RunOptions;
use integration_tests::{
    assert_same_run, at_shards, check_registry_invariance, check_skewed_repartition,
    check_supervised_handoff, drawn_cfg, subprocess_hash, wedge_dirty_cfg,
};
use proptest::prelude::*;

proptest! {
    /// Threaded execution at worker counts {1, 2, 4} agrees bitwise with
    /// the serial spec — and with the single-domain canonical engine —
    /// over random seeds, bodies, rng modes and shard counts.
    #[test]
    fn threaded_matches_serial_bitwise(
        seed in 1u64..=40,
        body_kind in 0u8..3,
        dirty in any::<bool>(),
        shards in 1usize..=4,
        steps in 8usize..=20,
    ) {
        let mut cfg = drawn_cfg(seed, body_kind, dirty);
        cfg.exec = ExecMode::Serial;
        let mut reference = Simulation::new(cfg.clone());
        reference.run(steps);
        let mut serial = at_shards(cfg.clone(), shards);
        serial.run(steps);
        assert_same_run(&format!("serial spec at {shards} shards"), &mut serial, &mut reference);
        for workers in [1usize, 2, 4] {
            cfg.exec = ExecMode::Threaded { workers };
            let mut threaded = at_shards(cfg.clone(), shards);
            threaded.run(steps);
            let tag = format!("{workers} workers at {shards} shards");
            assert_same_run(&tag, &mut threaded, &mut reference);
        }
    }

    /// A forced weighted repartition mid-trajectory is trajectory-neutral
    /// at every worker count: `set_cuts` to a maximally skewed layout at
    /// mid-run, let the weighted repartition re-draw the cuts, and the
    /// final hash still equals the never-resharded single-domain serial
    /// reference.
    #[test]
    fn forced_repartition_is_trajectory_neutral_at_every_worker_count(
        seed in 1u64..=30,
        dirty in any::<bool>(),
    ) {
        const HALF: usize = 15;
        let mut cfg = drawn_cfg(seed, 1, dirty);
        cfg.exec = ExecMode::Serial;
        let mut reference = Simulation::new(cfg.clone());
        reference.run(2 * HALF);
        for workers in [1usize, 2, 4] {
            cfg.exec = ExecMode::Threaded { workers };
            check_skewed_repartition(&cfg, &mut reference, 4, (HALF, HALF));
        }
    }
}

const MATRIX_STEPS: usize = 50;

/// The full tentpole matrix on one gnarly 50-step trajectory: shard
/// counts {1, 2, 4} × worker counts {1, 2, 4}, driven through plunger
/// withdrawals and a forced mid-run repartition, every cell bit-equal to
/// the single-domain reference.  Also pins the worker-resolution clamp
/// (`workers.min(shards)` threads actually run).
#[test]
fn fifty_step_matrix_is_bit_identical_through_withdrawals_and_repartitions() {
    let mut cfg = wedge_dirty_cfg(11);
    cfg.exec = ExecMode::Serial;
    let mut reference = Simulation::new(cfg.clone());
    reference.run(MATRIX_STEPS);
    assert!(
        reference.diagnostics().plunger_cycles > 0,
        "the matrix trajectory must cross at least one plunger withdrawal"
    );
    let half = MATRIX_STEPS / 2;
    for shards in [1usize, 2, 4] {
        for workers in [1usize, 2, 4] {
            cfg.exec = ExecMode::Threaded { workers };
            check_skewed_repartition(&cfg, &mut reference, shards, (half, MATRIX_STEPS - half));
        }
    }
}

/// Every registry scenario at QUICK scale is exec-mode invariant: the
/// threaded engine at 2 and at 4 shards reproduces the goldens and the
/// exact `state_hash` of the serial 2-shard run (`state_hash` is
/// shard-count invariant, so one serial reference serves both).
/// Release-only — the same gating as the scenario golden sweep (a debug
/// tunnel run costs ~a minute).
#[test]
fn registry_scenarios_are_exec_mode_invariant() {
    let serial = RunOptions {
        shards: 2,
        exec: ExecMode::Serial,
        ..RunOptions::default()
    };
    let arms = [2usize, 4].map(|shards| RunOptions {
        shards,
        exec: ExecMode::Threaded { workers: shards },
        ..RunOptions::default()
    });
    check_registry_invariance(&serial, &arms);
}

const SUBPROCESS_STEPS: usize = 30;

/// Helper target for [`exec_mode_is_process_invariant`]: a 3-shard engine
/// under every `ExecMode` spelling in turn — `serial`, `auto` and worker
/// counts 1, 2 and 4, each read through the one grammar — in whatever
/// rayon pool `RAYON_NUM_THREADS` gave this process.  All must agree;
/// the shared hash is printed for the parent.
#[test]
#[ignore = "helper: spawned by exec_mode_is_process_invariant"]
fn helper_print_exec_state_hash() {
    let mut hashes = Vec::new();
    for text in ["serial", "auto", "1", "2", "4"] {
        let mut cfg = wedge_dirty_cfg(23);
        cfg.exec = text.parse().expect("the exec grammar");
        assert_eq!(cfg.exec.to_string(), text);
        let mut sharded = at_shards(cfg, 3);
        sharded.run(SUBPROCESS_STEPS);
        hashes.push((text, sharded.state_hash()));
    }
    for &(text, hash) in &hashes {
        assert_eq!(hash, hashes[0].1, "exec={text} diverged from serial");
    }
    println!("STATE_HASH={:#018x}", hashes[0].1);
}

/// Every exec mode is process-invariant: the helper's exec axis {serial,
/// auto, 1, 2, 4} agrees in-process, and the agreed hash is the same from
/// a fresh OS process at `RAYON_NUM_THREADS` 1 and 4 (the pool is sized
/// once per process, so the rayon axis is the process axis).
#[test]
fn exec_mode_is_process_invariant() {
    let hash = |threads| {
        subprocess_hash(
            "helper_print_exec_state_hash",
            "STATE_HASH",
            &[("RAYON_NUM_THREADS", threads)],
        )
    };
    assert_eq!(
        hash("1"),
        hash("4"),
        "the exec axis depends on the rayon pool"
    );
}

/// The fault/chaos machinery holds under threaded execution: a supervised
/// 3-shard run under two workers is crashed mid-flight with a zero
/// recovery budget, then a second threaded arm adopts the newest
/// checkpoint at 2 shards and finishes with the hash of an uninterrupted
/// serial run — crash, checkpoint adoption, and recovery are all exec-mode
/// neutral.
#[test]
fn threaded_supervised_recovery_is_hash_identical() {
    check_supervised_handoff("chaos", ExecMode::Threaded { workers: 2 });
}
