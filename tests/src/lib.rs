//! Shared fixtures and the identity lattice of the cross-crate integration
//! tests.
//!
//! The tests run reduced-scale versions of the paper's experiments; these
//! helpers centralise the configurations so every test scales the same
//! way.  The bit-identity contract — `state_hash` equal at every
//! `ExecMode`, shard count, rayon width and resume point — is checked
//! through one comparison ([`assert_same_run`]), one subprocess spawner
//! ([`subprocess_hash`]) and one body per contract that several suites
//! share ([`check_supervised_handoff`], [`check_registry_invariance`],
//! [`check_skewed_repartition`]): a knob is an argument, not a copy.

use dsmc_engine::config::WallModel;
use dsmc_engine::{BodySpec, Engine, ExecMode, RngMode, SampledField, SimConfig, Simulation};
use dsmc_flowfield::shock::{wedge_metrics, ShockMetrics};
use dsmc_scenarios::{
    registry, run_with, supervise, CaseKind, Fault, FaultPlan, RunOptions, Scale, Sleeper,
    SuperviseError, SuperviseOptions, TunnelCase, TunnelProtocol,
};
use std::path::PathBuf;
use std::process::Command;

/// A reduced paper-wedge run: `density` scales the 75/cell baseline,
/// `settle`/`average` are step counts.
pub fn wedge_run(
    lambda: f64,
    density: f64,
    settle: usize,
    average: usize,
) -> (Simulation, SampledField) {
    let mut cfg = SimConfig::paper(lambda);
    cfg.n_per_cell = (75.0 * density).max(4.0);
    cfg.reservoir_fill = cfg.n_per_cell * 1.4;
    let mut sim = Simulation::new(cfg);
    sim.run(settle);
    sim.begin_sampling();
    sim.run(average);
    let field = sim.finish_sampling();
    (sim, field)
}

/// A simulation of `cfg` built at `n_shards` shards.
pub fn at_shards(cfg: SimConfig, n_shards: usize) -> Simulation {
    let mut sim = Simulation::new(cfg);
    sim.reshard(n_shards);
    sim
}

/// Extract the standard wedge metrics from a paper-geometry field.
pub fn paper_metrics(field: &SampledField) -> Option<ShockMetrics> {
    wedge_metrics(field, 20.0, 25.0, 30.0, 4.0, 1.4)
}

/// The widest grid the identity suites run: a 200 × 100 tunnel is 20 600
/// cells with its reservoir — a 15-bit cell field, past the paper grid's 13
/// — and one particle per cell puts the population on the chunked side of
/// `dsmc_datapar::PAR_THRESHOLD`.  The unit plunger trigger makes six steps
/// cross a withdrawal.
pub fn wide_grid_config() -> SimConfig {
    let mut cfg = SimConfig::small_test();
    cfg.tunnel_w = 200;
    cfg.tunnel_h = 100;
    cfg.n_per_cell = 1.0;
    cfg.reservoir_cells = 600;
    cfg.reservoir_fill = 2.0;
    cfg.plunger_trigger = 1.0;
    cfg
}

/// Steps [`wide_grid_config`] needs to cross one plunger withdrawal.
pub const WIDE_GRID_STEPS: usize = 6;

/// A small wind-tunnel config exercising the gnarliest state: a body (so
/// surface windows exist), diffuse walls, dirty-bit randomness.
pub fn wedge_dirty_cfg(seed: u64) -> SimConfig {
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

/// The identity proptests' draw over [`wedge_dirty_cfg`]: `body_kind` 0
/// is the empty tunnel, 1 the wedge, anything else a cylinder; `dirty`
/// picks dirty-bit over explicit randomness.
pub fn drawn_cfg(seed: u64, body_kind: u8, dirty: bool) -> SimConfig {
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
    cfg.rng_mode = if dirty {
        RngMode::DirtyBits
    } else {
        RngMode::Explicit
    };
    cfg
}

/// A [`TunnelCase`] shell around the small config: the supervisor's
/// protocol only reads the step counts (the config is passed separately).
pub fn small_case(settle: usize, total: usize) -> TunnelCase {
    TunnelCase {
        config: SimConfig::small_test,
        quick_density: 1.0,
        quick_steps: (settle, total - settle),
        full_steps: (settle, total - settle),
        extract: |_, _, _| Vec::new(),
    }
}

/// The uninterrupted reference arm: same boundary semantics as
/// [`TunnelProtocol`] (sampling opens at the settle boundary), no
/// supervisor anywhere near it.
pub fn plain_tunnel(cfg: &SimConfig, settle: u64, total: u64) -> Simulation {
    let mut sim = Simulation::new(cfg.clone());
    for s in 0..=total {
        if s == settle {
            sim.begin_sampling();
        }
        if s < total {
            sim.step();
        }
    }
    sim
}

/// Re-seal a `dsmc_state` container's trailing checksum after an edit, so
/// the decoders behind the checksum see the damage.
pub fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let seal = dsmc_state::fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&seal.to_le_bytes());
}

/// An empty-on-arrival temporary directory, unique to this process.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dsmc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Maximally skewed cuts for `n` shards on a `w`-column tunnel: shards
/// 0..n-1 get one column each, the last shard gets the rest.  Feeding
/// this to `set_cuts` both exercises the scatter path and guarantees the
/// weighted repartition fires within a few steps.
pub fn skewed_cuts(n_shards: usize, w: u32) -> Vec<u32> {
    let mut cuts: Vec<u32> = (0..n_shards as u32).collect();
    cuts.push(w);
    cuts
}

/// The one comparison of two runs of one config: `state_hash`, every
/// ledger in `diagnostics()`, the per-particle mover sums, and the
/// population summed over `a`'s shards.
pub fn assert_same_run(tag: &str, a: &mut Simulation, b: &mut Simulation) {
    assert_eq!(a.state_hash(), b.state_hash(), "{tag}: state_hash");
    assert_eq!(a.diagnostics(), b.diagnostics(), "{tag}: diagnostics");
    assert_eq!(a.mover_stats(), b.mover_stats(), "{tag}: mover sums");
    assert_eq!(
        a.shard_populations().iter().sum::<usize>(),
        b.n_particles(),
        "{tag}: particles lost or duplicated"
    );
}

/// The libtest arguments that run exactly one `#[ignore]`d helper test.
pub fn helper_args(helper: &str) -> [&str; 4] {
    ["--exact", helper, "--ignored", "--nocapture"]
}

/// The current test binary, filtered to one helper test.  A rayon pool is
/// sized once per process, so a thread-count axis is a process axis.
pub fn helper_command(helper: &str) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("current_exe"));
    cmd.args(helper_args(helper));
    cmd
}

/// The first `KEY=value` token in `text`.  libtest may glue a helper's
/// first line onto its own `test … ` prefix, so search within lines.
pub fn find_value(text: &str, key: &str) -> Option<String> {
    let key = format!("{key}=");
    text.lines().find_map(|l| {
        l.find(&key).map(|at| {
            l[at + key.len()..]
                .split_whitespace()
                .next()
                .unwrap_or("")
                .to_string()
        })
    })
}

/// Run `helper` in a fresh process under `env` and return the value it
/// printed as `KEY=value`.
pub fn subprocess_hash(helper: &str, key: &str, env: &[(&str, &str)]) -> String {
    let out = helper_command(helper)
        .envs(env.iter().copied())
        .output()
        .expect("spawn helper");
    assert!(
        out.status.success(),
        "{helper} failed under {env:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    find_value(&stdout, key).unwrap_or_else(|| panic!("no {key} in {helper} output:\n{stdout}"))
}

/// A checkpoint saved by a supervised run at 3 shards resumes — through
/// the supervisor's own startup-adoption path — at 2 shards under `exec`,
/// and finishes with the hash of a serial single-domain run that was never
/// interrupted.  The first arm is killed by an injected crash with a zero
/// recovery budget (its rolling checkpoints stay on disk); the second
/// adopts the newest.  The finished state then resumes once more as the
/// benchmark adapter's one-shard `Engine::Sharded`: of the 2-shard
/// manifest only the cuts are dropped, the repartition count rides along.
pub fn check_supervised_handoff(tag: &str, exec: ExecMode) {
    const SETTLE: usize = 20;
    const TOTAL: usize = 50;
    let mut cfg = wedge_dirty_cfg(7);
    cfg.exec = ExecMode::Serial;
    let want = plain_tunnel(&cfg, SETTLE as u64, TOTAL as u64).state_hash();

    let mut opts = SuperviseOptions::new(tmp_dir(tag), tag);
    opts.checkpoint_every = 10;
    opts.sentinel_every = 5;
    opts.sleeper = Sleeper::recording().0;
    opts.exec = exec;

    // Arm 1: 3 shards, crash at step 30 with no recovery budget — the
    // run is abandoned but its checkpoints (10, 20, 30) survive.
    opts.shards = 3;
    opts.max_recoveries = 0;
    opts.faults = FaultPlan::at(30, Fault::Crash);
    let mut protocol = TunnelProtocol::new(small_case(SETTLE, TOTAL), Scale::Quick);
    match supervise(&cfg, &mut protocol, &opts) {
        Err(SuperviseError::Abandoned(_)) => {}
        Ok(_) => panic!("{tag}: expected the first arm to be abandoned"),
        Err(e) => panic!("{tag}: unexpected supervise error: {e}"),
    }

    // Arm 2: adopt the 3-shard checkpoint at 2 shards and finish.
    opts.shards = 2;
    opts.max_recoveries = 5;
    opts.faults = FaultPlan::none();
    let mut protocol = TunnelProtocol::new(small_case(SETTLE, TOTAL), Scale::Quick);
    let (sim, report) = supervise(&cfg, &mut protocol, &opts).expect("second arm");
    assert_eq!(
        report.resumed_at_start,
        Some(30),
        "{tag}: second arm did not adopt the abandoned arm's newest checkpoint\n{}",
        report.render_log()
    );
    assert_eq!(sim.n_shards(), 2);
    assert_eq!(
        sim.state_hash(),
        want,
        "{tag}: save at 3 shards / resume at 2 diverged from the uninterrupted run"
    );

    let snapshot = sim.save_state();
    let one = Engine::resume_sharded(cfg, &snapshot, 1).expect("resume at one shard");
    assert!(matches!(one, Engine::Sharded(_)));
    assert_eq!(one.state_hash(), want);
    assert_eq!(one.repartitions(), sim.repartitions());
}

/// The final `state_hash` of every registry scenario that reports one, at
/// QUICK scale — the trajectories' fixed point, the values
/// `scenarios --all --quick` prints.  A change that means to move a
/// trajectory re-records this table and says so; any other change must
/// leave it as it is.
pub const QUICK_STATE_HASHES: &[(&str, u64)] = &[
    ("wedge-paper", 0x1c099ad774e2e828),
    ("wedge-rarefied", 0x55c2358ab32684b3),
    ("flat-plate", 0x936e3c92369cdbe0),
    ("forward-step", 0x4d1029731f424f8f),
    ("cylinder", 0x5437292285a95a07),
    ("cylinder-startup", 0xcb561cdbec71200a),
    ("wedge-restart", 0x6801f297abcac078),
];

/// Every registry scenario at QUICK scale runs identically under each of
/// `arms` as under `reference`: the reference lands on its
/// [`QUICK_STATE_HASHES`] entry, and each arm passes its goldens and
/// reproduces the reference's `state_hash` and every metric to the bit.
/// The one non-physics metric, the snapshot's byte size, grows with the
/// advisory sharded manifest, so it compares only at the reference's own
/// shard count.  Release-only — a debug tunnel run costs about a minute.
pub fn check_registry_invariance(reference: &RunOptions, arms: &[RunOptions]) {
    if cfg!(debug_assertions) {
        return;
    }
    for s in registry() {
        // Sweep entries expand into campaigns; each point is itself a
        // registry case this loop already covers.
        if matches!(s.kind, CaseKind::Sweep(_)) {
            continue;
        }
        let want = run_with(s, Scale::Quick, reference).expect("reference run");
        let pinned = QUICK_STATE_HASHES
            .iter()
            .find(|(name, _)| *name == s.name)
            .map(|&(_, hash)| hash);
        assert_eq!(
            want.state_hash, pinned,
            "{}: the reference run left its pinned state_hash",
            s.name
        );
        for arm in arms {
            let tag = format!("{} at {} shards, {}", s.name, arm.shards, arm.exec);
            let o = run_with(s, Scale::Quick, arm).expect("arm run");
            assert!(o.passed, "{tag}: drifted off its goldens: {:?}", o.checks);
            assert_eq!(o.state_hash, want.state_hash, "{tag}: state_hash");
            assert_eq!(o.metrics.len(), want.metrics.len(), "{tag}");
            for (m, r) in o.metrics.iter().zip(&want.metrics) {
                assert_eq!(m.name, r.name, "{tag}");
                if m.name == "snapshot_bytes_per_particle"
                    && arm.shards.max(1) != reference.shards.max(1)
                {
                    continue;
                }
                assert_eq!(
                    m.value.to_bits(),
                    r.value.to_bits(),
                    "{tag}: metric {} is not bit-identical",
                    m.name
                );
            }
        }
    }
}

/// The exchange through a forced repartition: `cfg` at `shards` shards
/// under `exec` runs `before` steps, moves to the maximally skewed
/// [`skewed_cuts`], runs `after` more — the weighted repartition that
/// follows moves most of a shard in one step — and must be the same run
/// as `reference` (already stepped `before + after`).  Also pins the
/// worker-resolution clamp: `workers.min(shards)` threads actually run.
pub fn check_skewed_repartition(
    cfg: &SimConfig,
    reference: &mut Simulation,
    shards: usize,
    (before, after): (usize, usize),
) {
    let tag = format!("{:?} at {shards} shards under {}", cfg.rng_mode, cfg.exec);
    let mut sharded = at_shards(cfg.clone(), shards);
    let workers = match cfg.exec {
        ExecMode::Serial => 1,
        ExecMode::Threaded { workers } => workers.min(shards),
    };
    if workers > 0 {
        assert_eq!(sharded.exec_workers(), workers, "{tag}: worker clamp");
    }
    sharded.run(before);
    assert!(
        sharded.set_cuts(&skewed_cuts(shards, cfg.tunnel_w)),
        "{tag}: skewed cuts must be a valid layout"
    );
    sharded.run(after);
    if shards > 1 {
        assert!(
            sharded.repartitions() > 0,
            "{tag}: the skewed layout never triggered a repartition"
        );
    }
    assert_same_run(&tag, &mut sharded, reference);
}
