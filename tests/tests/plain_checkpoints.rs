//! The plain runner's checkpoint path (`RunOptions::{checkpoint_every,
//! resume_from}`, the bin's `--checkpoint-every` / `--resume`): a cold run
//! leaves the rolling and `_settled` artifacts behind, and warm-starting
//! from either retraces the cold run to the bit.
//!
//! Its own binary: it points `DSMC_ARTIFACTS` at a temp dir, and the
//! environment is process-global — the tests here share that one dir and
//! each touches only its own files in it.

use dsmc_engine::{BodySpec, SampledField, SimConfig, Simulation, SurfaceField};
use dsmc_scenarios::{
    artifacts, run_with, CaseKind, Golden, Metric, RunOptions, RunOutcome, Scale, Scenario,
    TunnelCase,
};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const SETTLE: usize = 20;
const AVERAGE: usize = 30;

fn small_wedge() -> SimConfig {
    let mut cfg = SimConfig::small_test();
    cfg.body = BodySpec::Wedge {
        x0: 6.0,
        base: 6.0,
        angle_deg: 30.0,
    };
    cfg.n_per_cell = 6.0;
    cfg.seed = 23;
    cfg
}

fn extract(sim: &Simulation, field: &SampledField, _s: Option<&SurfaceField>) -> Vec<Metric> {
    vec![
        Metric {
            name: "n_flow",
            value: sim.diagnostics().n_flow as f64,
        },
        Metric {
            name: "density_sum",
            value: field.density.iter().sum(),
        },
    ]
}

/// A debug-affordable steady case: the registry's run shape at 20 + 30
/// steps, graded on the one golden every tunnel case shares.
static CASE: Scenario = Scenario {
    name: "small-wedge",
    about: "steady stand-in for the plain checkpoint path",
    kind: CaseKind::Tunnel(TunnelCase {
        config: small_wedge,
        quick_density: 1.0,
        quick_steps: (SETTLE, AVERAGE),
        full_steps: (SETTLE, AVERAGE),
        extract,
    }),
    golden: &[Golden {
        metric: "particle_count_drift",
        value: 0.0,
        tol: 0.0,
    }],
};

fn metric(o: &RunOutcome, name: &str) -> u64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
        .to_bits()
}

/// Point `DSMC_ARTIFACTS` at a fresh temp dir, once per process.
fn artifact_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("dsmc_plain_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("DSMC_ARTIFACTS", &dir);
        dir
    })
}

/// `artifacts::write` lands under `DSMC_ARTIFACTS` by temp file + rename:
/// the named file holds the complete new bytes and no temp file is left.
#[test]
fn artifact_roundtrip() {
    let dir = artifact_dir();
    for bytes in [&b"hello"[..], b"replaced"] {
        let p = artifacts::write("probe.txt", bytes).expect("write artifact");
        assert_eq!(p, dir.join("probe.txt"));
        assert_eq!(std::fs::read(&p).unwrap(), bytes);
    }
    assert!(!dir.join(".probe.txt.tmp").exists());
    std::fs::remove_file(dir.join("probe.txt")).unwrap();
}

#[test]
fn cold_run_writes_artifacts_that_warm_start_to_the_identical_end_state() {
    let dir = artifact_dir();

    // Cadence 8 over 50 steps: the rolling artifact is last written at
    // step 48 — mid-average, its sampling window open.
    let cold = run_with(
        &CASE,
        Scale::Quick,
        &RunOptions {
            checkpoint_every: Some(8),
            ..RunOptions::default()
        },
    )
    .expect("cold run");
    assert!(cold.passed, "cold run drifted: {:?}", cold.checks);
    assert_eq!(cold.steps, (SETTLE + AVERAGE) as u64);

    let settled = std::fs::read(dir.join("checkpoint_small-wedge_quick_settled.bin"))
        .expect("the settle → average boundary writes the _settled artifact");
    let rolling = std::fs::read(dir.join("checkpoint_small-wedge_quick.bin"))
        .expect("the cadence writes the rolling artifact");
    assert_ne!(settled, rolling);

    for (tag, bytes) in [("settled", settled), ("rolling mid-average", rolling)] {
        let warm = run_with(
            &CASE,
            Scale::Quick,
            &RunOptions {
                resume_from: Some(bytes),
                ..RunOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{tag}: resume rejected: {e}"));
        assert_eq!(warm.state_hash, cold.state_hash, "{tag}: end state");
        assert_eq!(warm.steps, cold.steps, "{tag}: steps");
        assert!(warm.passed, "{tag}: golden drift: {:?}", warm.checks);
        assert!(!warm.checks.is_empty(), "{tag}: nothing was graded");
        // The averaged window is the cold run's, replayed or continued.
        for name in ["n_flow", "density_sum"] {
            assert_eq!(metric(&warm, name), metric(&cold, name), "{tag}: {name}");
        }
    }
    for name in ["_settled.bin", ".bin"] {
        let _ = std::fs::remove_file(dir.join(format!("checkpoint_small-wedge_quick{name}")));
    }
}
