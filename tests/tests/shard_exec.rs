//! The threaded-execution contract, system level: `ExecMode::Threaded`
//! must produce the *identical* `state_hash` as `ExecMode::Serial` — the
//! executable spec — for every shard count and worker count, over random
//! configs, for every registry scenario, across OS processes under any
//! rayon pool size, and through the fault-tolerant supervisor's
//! crash/recover cycle.  `SHARDING.md` ("Threaded execution") names these
//! tests as the pinning suite for that contract.

use dsmc_engine::config::WallModel;
use dsmc_engine::{BodySpec, Engine, ExecMode, RngMode, ShardedSimulation, SimConfig, Simulation};
use dsmc_scenarios::{
    registry, run_with, supervise, CaseKind, Fault, FaultPlan, RunOptions, Scale, Sleeper,
    SuperviseError, SuperviseOptions, TunnelCase, TunnelProtocol,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// A small wind-tunnel config exercising the gnarliest state: a body (so
/// surface windows exist), diffuse walls, dirty-bit randomness.  Exec
/// mode is pinned to Serial here so the environment (`DSMC_EXEC_THREADS`)
/// cannot leak into tests that set the mode explicitly; the subprocess
/// matrix overrides it back to the env default on purpose.
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
    cfg.exec = ExecMode::Serial;
    cfg
}

/// Maximally skewed cuts for `n` shards on a `w`-column tunnel: shards
/// 0..n-1 get one column each, the last shard gets the rest.  Feeding
/// this to `set_cuts` both exercises the scatter path and guarantees the
/// weighted repartition fires within a few steps.
fn skewed_cuts(n_shards: usize, w: u32) -> Vec<u32> {
    let mut cuts: Vec<u32> = (0..n_shards as u32).collect();
    cuts.push(w);
    cuts
}

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
        let mut serial = Engine::new(cfg.clone(), shards);
        serial.run(steps);
        prop_assert_eq!(
            serial.state_hash(),
            want,
            "serial spec at {} shards diverged from the canonical engine",
            shards
        );
        for workers in [1usize, 2, 4] {
            let mut threaded_cfg = cfg.clone();
            threaded_cfg.exec = ExecMode::Threaded { workers };
            let mut threaded = Engine::new(threaded_cfg, shards);
            threaded.run(steps);
            prop_assert_eq!(
                threaded.state_hash(),
                want,
                "{} workers at {} shards diverged from the serial spec",
                workers,
                shards
            );
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
        let mut cfg = wedge_dirty_cfg(seed);
        cfg.rng_mode = if dirty { RngMode::DirtyBits } else { RngMode::Explicit };
        let mut reference = Simulation::new(cfg.clone());
        reference.run(2 * HALF);
        let want = reference.state_hash();
        for workers in [1usize, 2, 4] {
            let mut threaded_cfg = cfg.clone();
            threaded_cfg.exec = ExecMode::Threaded { workers };
            let mut sharded =
                ShardedSimulation::from_simulation(Simulation::new(threaded_cfg.clone()), 4);
            sharded.run(HALF);
            prop_assert!(
                sharded.set_cuts(&skewed_cuts(4, threaded_cfg.tunnel_w)),
                "skewed cuts must be a valid layout"
            );
            sharded.run(HALF);
            prop_assert!(
                sharded.repartitions() > 0,
                "the skewed layout never triggered the weighted repartition \
                 ({} workers)",
                workers
            );
            prop_assert_eq!(
                sharded.state_hash(),
                want,
                "forced repartition at {} workers diverged from the \
                 no-repartition serial reference",
                workers
            );
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
    let cfg = wedge_dirty_cfg(11);
    let mut reference = Simulation::new(cfg.clone());
    reference.run(MATRIX_STEPS);
    assert!(
        reference.diagnostics().plunger_cycles > 0,
        "the matrix trajectory must cross at least one plunger withdrawal"
    );
    let want = reference.state_hash();
    for shards in [1usize, 2, 4] {
        for workers in [1usize, 2, 4] {
            let mut threaded_cfg = cfg.clone();
            threaded_cfg.exec = ExecMode::Threaded { workers };
            let mut sharded =
                ShardedSimulation::from_simulation(Simulation::new(threaded_cfg.clone()), shards);
            assert_eq!(sharded.exec_workers(), workers.min(shards));
            sharded.run(MATRIX_STEPS / 2);
            assert!(sharded.set_cuts(&skewed_cuts(shards, threaded_cfg.tunnel_w)));
            sharded.run(MATRIX_STEPS - MATRIX_STEPS / 2);
            if shards > 1 {
                assert!(
                    sharded.repartitions() > 0,
                    "{shards}x{workers}: skew never repartitioned"
                );
            }
            assert_eq!(
                sharded.state_hash(),
                want,
                "{shards} shards x {workers} workers diverged from the reference"
            );
            assert_eq!(sharded.diagnostics(), reference.diagnostics());
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
    if cfg!(debug_assertions) {
        return;
    }
    for s in registry() {
        // Sweep entries expand into campaigns; each point is itself a
        // registry case this loop already covers.
        if matches!(s.kind, CaseKind::Sweep(_)) {
            continue;
        }
        let serial_opts = RunOptions {
            shards: 2,
            exec: ExecMode::Serial,
            ..RunOptions::default()
        };
        let reference = run_with(s, Scale::Quick, &serial_opts).expect("serial run");
        for shards in [2usize, 4] {
            let threaded_opts = RunOptions {
                shards,
                exec: ExecMode::Threaded { workers: shards },
                ..RunOptions::default()
            };
            let o = run_with(s, Scale::Quick, &threaded_opts).expect("threaded run");
            assert!(
                o.passed,
                "{} under threaded execution at {shards} shards drifted off its goldens: {:?}",
                s.name, o.checks
            );
            assert_eq!(
                o.state_hash, reference.state_hash,
                "{} has a different state_hash under threaded execution at {shards} shards",
                s.name
            );
            assert_eq!(o.metrics.len(), reference.metrics.len(), "{}", s.name);
            for (m, r) in o.metrics.iter().zip(&reference.metrics) {
                assert_eq!(m.name, r.name, "{}", s.name);
                // The one non-physics metric: the snapshot's byte size
                // grows with the advisory sharded manifest, so it only
                // compares at the reference's own shard count.
                if m.name == "snapshot_bytes_per_particle" && shards != serial_opts.shards {
                    continue;
                }
                assert_eq!(
                    m.value.to_bits(),
                    r.value.to_bits(),
                    "{} metric {} is not bit-identical under threaded execution at {shards} shards",
                    s.name,
                    m.name
                );
            }
        }
    }
}

const SUBPROCESS_STEPS: usize = 30;

/// Helper target for the subprocess matrix: a 3-shard engine whose exec
/// mode comes from `DSMC_EXEC_THREADS` (the env default the parent
/// pins), under whatever rayon pool `RAYON_NUM_THREADS` gave us.
#[test]
#[ignore = "helper: spawned by exec_mode_is_process_invariant"]
fn helper_print_exec_state_hash() {
    // Re-resolve from the environment: `wedge_dirty_cfg` pins Serial for
    // the in-process tests, which is exactly what this helper must undo.
    let mut cfg = wedge_dirty_cfg(23);
    cfg.exec = ExecMode::from_env_or_auto();
    // The variable and the mode are one grammar: what the parent set is
    // what was resolved (`auto` is `Threaded { workers: 0 }`, not Serial).
    if let Ok(v) = std::env::var("DSMC_EXEC_THREADS") {
        assert_eq!(cfg.exec.to_string(), v);
    }
    let mut sharded = Engine::new(cfg, 3);
    sharded.run(SUBPROCESS_STEPS);
    println!("STATE_HASH={:#018x}", sharded.state_hash());
}

/// The env-driven exec mode is process-invariant: `DSMC_EXEC_THREADS` ∈
/// {serial, auto, 1, 2, 4} × `RAYON_NUM_THREADS` ∈ {1, 4} all print the same
/// state hash from a fresh OS process.  Rayon pool size is fixed at
/// spin-up and the exec default is read once per config, so each cell of
/// the matrix gets its own subprocess.
#[test]
fn exec_mode_is_process_invariant() {
    fn hash_with(exec: &str, rayon_threads: &str) -> String {
        let exe = std::env::current_exe().expect("current_exe");
        let out = std::process::Command::new(exe)
            .args([
                "--exact",
                "helper_print_exec_state_hash",
                "--ignored",
                "--nocapture",
            ])
            .env("DSMC_EXEC_THREADS", exec)
            .env("RAYON_NUM_THREADS", rayon_threads)
            .output()
            .expect("spawn helper");
        assert!(
            out.status.success(),
            "helper failed under exec={exec} rayon={rayon_threads}: {}",
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
    let want = hash_with("serial", "1");
    for exec in ["auto", "1", "2", "4"] {
        for rayon_threads in ["1", "4"] {
            assert_eq!(
                hash_with(exec, rayon_threads),
                want,
                "exec={exec} rayon={rayon_threads} diverged from the serial 1-thread run"
            );
        }
    }
    assert_eq!(
        hash_with("serial", "4"),
        want,
        "serial under a 4-thread rayon pool diverged"
    );
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
    let d = std::env::temp_dir().join(format!("dsmc_shard_exec_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The existing fault/chaos machinery holds under threaded execution: a
/// supervised 3-shard threaded run is crashed mid-flight with a zero
/// recovery budget, then a second threaded arm adopts the newest
/// checkpoint at 2 shards and finishes with the hash of an uninterrupted
/// serial run — crash, checkpoint adoption, and recovery are all
/// exec-mode neutral.
#[test]
fn threaded_supervised_recovery_is_hash_identical() {
    let cfg = wedge_dirty_cfg(7);

    // Uninterrupted single-domain serial reference.
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

    let dir = tmp_dir("chaos");
    let mut opts = SuperviseOptions::new(dir, "chaos");
    opts.checkpoint_every = 10;
    opts.sentinel_every = 5;
    opts.sleeper = Sleeper::recording().0;
    opts.exec = ExecMode::Threaded { workers: 2 };

    // Arm 1: 3 shards threaded, crash at step 30 with no recovery budget
    // — the run is abandoned but its checkpoints (10, 20, 30) survive.
    opts.shards = 3;
    opts.max_recoveries = 0;
    opts.faults = FaultPlan::at(30, Fault::Crash);
    let mut protocol = TunnelProtocol::new(small_case(), Scale::Quick);
    match supervise(&cfg, &mut protocol, &opts) {
        Err(SuperviseError::Abandoned(_)) => {}
        Ok(_) => panic!("expected the first arm to be abandoned"),
        Err(e) => panic!("unexpected supervise error: {e}"),
    }

    // Arm 2: adopt the 3-shard checkpoint at 2 shards, still threaded.
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
        "threaded crash/adopt recovery diverged from the uninterrupted serial run"
    );
}
