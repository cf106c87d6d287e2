//! The fault-tolerance contract, system level: a supervised run must
//! converge to the *identical* `state_hash` (and therefore identical
//! metrics) as an uninterrupted run, under every fault class the
//! injection harness can throw at it — in-memory column corruption,
//! simulated crashes, save-time I/O errors, torn and bit-flipped
//! checkpoints on disk, and a real `kill -9` mid-run exercised
//! out-of-process across rayon thread counts.

use dsmc_engine::{FaultTarget, SimConfig, Simulation};
use dsmc_scenarios::{
    find, protocol_for, run, run_supervised, run_with, supervise, CaseKind, Fault, FaultPlan,
    Golden, Metric, Protocol, ProtocolOverride, RunOptions, RunOutcome, Scale, Scenario, Sleeper,
    SuperviseError, SuperviseOptions, SuperviseOutcome, SupervisorReport, TransientCase,
    TransientPoint, TransientProtocol, TunnelCase, TunnelProtocol,
};
use dsmc_state::store::CheckpointStore;
use integration_tests::{
    find_value, helper_command, plain_tunnel, reseal, small_case, tmp_dir, wedge_dirty_cfg,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The step protocol every in-process test here drives: settle, open the
/// sampling window, average to the end.
const SETTLE: usize = 20;
const TOTAL: usize = 50;

fn wedge_dirty_7() -> SimConfig {
    wedge_dirty_cfg(7)
}

/// A steady extractor that reads both the state and the averaged window.
fn extract_small(
    sim: &Simulation,
    field: &dsmc_engine::SampledField,
    _s: Option<&dsmc_engine::SurfaceField>,
) -> Vec<Metric> {
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

fn probe_n_flow(
    sim: &Simulation,
    _f: &dsmc_engine::SampledField,
    _s: Option<&dsmc_engine::SurfaceField>,
) -> Vec<Metric> {
    vec![Metric {
        name: "n_flow",
        value: sim.diagnostics().n_flow as f64,
    }]
}

/// The 4 × 10-step transient the in-process transient tests drive.
fn small_transient() -> TransientCase {
    TransientCase {
        config: wedge_dirty_7,
        quick_density: 1.0,
        window_steps: 10,
        quick_windows: 4,
        full_windows: 4,
        probe: probe_n_flow,
        probe_names: &["n_flow"],
        extract: |points| {
            vec![Metric {
                name: "n_flow_final",
                value: points.last().expect("a window").values[0].value,
            }]
        },
    }
}

/// Debug-affordable stand-ins for a steady and a transient registry
/// entry: the same runners, protocols and golden grading, ~50 steps.
fn small_scenarios() -> [Scenario; 2] {
    const GOLDEN: &[Golden] = &[Golden {
        metric: "particle_count_drift",
        value: 0.0,
        tol: 0.0,
    }];
    [
        Scenario {
            name: "small-tunnel",
            about: "steady stand-in",
            kind: CaseKind::Tunnel(TunnelCase {
                config: wedge_dirty_7,
                extract: extract_small,
                ..small_case(SETTLE, TOTAL)
            }),
            golden: GOLDEN,
        },
        Scenario {
            name: "small-transient",
            about: "transient stand-in",
            kind: CaseKind::Transient(small_transient()),
            golden: GOLDEN,
        },
    ]
}

/// Everything but the wall-clock must agree to the bit.
fn assert_outcomes_bit_equal(tag: &str, a: &RunOutcome, b: &RunOutcome) {
    type Bits = Vec<(&'static str, u64)>;
    let bits = |ms: &[Metric]| -> Bits { ms.iter().map(|m| (m.name, m.value.to_bits())).collect() };
    assert_eq!(bits(&a.metrics), bits(&b.metrics), "{tag}: metrics");
    let checks = |o: &RunOutcome| -> Vec<(&'static str, u64, bool)> {
        o.checks
            .iter()
            .map(|c| (c.metric, c.measured.to_bits(), c.ok))
            .collect()
    };
    assert_eq!(checks(a), checks(b), "{tag}: golden checks");
    assert!(!a.checks.is_empty(), "{tag}: nothing was graded");
    assert_eq!(a.passed, b.passed, "{tag}: verdict");
    assert_eq!(a.state_hash, b.state_hash, "{tag}: state_hash");
    assert_eq!((a.steps, a.n_particles), (b.steps, b.n_particles), "{tag}");
    let series = |o: &RunOutcome| -> Option<Vec<(u64, Bits)>> {
        o.transient
            .as_ref()
            .map(|ps| ps.iter().map(|p| (p.step_end, bits(&p.values))).collect())
    };
    assert_eq!(series(a), series(b), "{tag}: transient series");
}

/// Options on a debug-affordable cadence, with a recording sleeper so
/// recovery backoffs cost no wall-clock.
fn opts_in(tag: &str) -> SuperviseOptions {
    let mut opts = SuperviseOptions::new(tmp_dir(tag), tag);
    opts.checkpoint_every = 10;
    opts.sentinel_every = 5;
    opts.keep = 3;
    opts.sleeper = Sleeper::recording().0;
    opts
}

/// Supervise the small wedge under `opts` and return the final hash plus
/// the report.  Panics on any supervise error (the abandon test calls
/// [`supervise`] directly).
fn supervised_hash(opts: &SuperviseOptions) -> (u64, SupervisorReport) {
    let cfg = wedge_dirty_cfg(7);
    let mut protocol = TunnelProtocol::new(small_case(SETTLE, TOTAL), Scale::Quick);
    let (sim, report) =
        supervise(&cfg, &mut protocol, opts).unwrap_or_else(|e| panic!("supervise failed: {e}\n"));
    (sim.state_hash(), report)
}

fn plain_hash() -> u64 {
    plain_tunnel(&wedge_dirty_cfg(7), SETTLE as u64, TOTAL as u64).state_hash()
}

fn ckpt_files(dir: &std::path::Path) -> Vec<String> {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = rd
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".ckpt"))
        .collect();
    names.sort();
    names
}

/// A clean supervised run is bit-identical to a plain run, checkpoints on
/// cadence, and prunes retention down to `keep`.
#[test]
fn clean_supervised_run_is_bit_identical_to_plain() {
    let opts = opts_in("clean");
    let (hash, report) = supervised_hash(&opts);
    assert_eq!(hash, plain_hash(), "supervision perturbed the trajectory");
    assert_eq!(report.outcome, SuperviseOutcome::Completed);
    assert!(report.recoveries.is_empty());
    assert_eq!(report.resumed_at_start, None);
    // Boundaries 10..=50 on a cadence of 10 → five checkpoints...
    assert_eq!(report.checkpoints_written, 5);
    assert_eq!(report.save_errors, 0);
    // ...pruned on disk to the `keep` newest.
    assert_eq!(ckpt_files(&opts.ckpt_dir).len(), opts.keep);

    // One level up: the plain runner and the supervisor walk the same
    // `Protocol` and share `finish`/outcome assembly, so whole outcomes
    // agree to the bit — a steady and a transient case, stand-ins always
    // and the registry's own in release (a debug tunnel run costs ~a
    // minute).
    let stand_ins = small_scenarios();
    let mut cases: Vec<&Scenario> = stand_ins.iter().collect();
    if !cfg!(debug_assertions) {
        cases.extend(["wedge-rarefied", "cylinder-startup"].map(|n| find(n).expect("registered")));
    }
    for s in cases {
        let plain = run_with(s, Scale::Quick, &RunOptions::default()).expect("plain run");
        let mut opts = opts_in(&format!("clean_{}", s.name));
        if !cfg!(debug_assertions) {
            (opts.checkpoint_every, opts.sentinel_every) = (100, 25);
        }
        let (supervised, report) =
            run_supervised(s, Scale::Quick, &opts).unwrap_or_else(|e| panic!("{}: {e}", s.name));
        assert_eq!(report.outcome, SuperviseOutcome::Completed);
        assert!(plain.passed, "{}: {:?}", s.name, plain.checks);
        assert_outcomes_bit_equal(s.name, &plain, &supervised);
    }
}

/// Every in-memory fault class recovers to the identical trajectory.
/// Velocity corruptions land mid-window (the sentinel cadence must catch
/// them); the self-healing cell-index corruption lands on a sentinel
/// boundary (see [`FaultTarget`] docs).
#[test]
fn every_corruption_class_recovers_to_the_identical_hash() {
    let reference = plain_hash();
    let cases: &[(&str, u64, FaultTarget)] = &[
        ("w_kick", 12, FaultTarget::OutOfPlaneVelocity),
        ("u_spike", 13, FaultTarget::StreamwiseVelocity),
        ("cell_rot", 15, FaultTarget::CellIndex),
    ];
    for &(tag, step, target) in cases {
        let mut opts = opts_in(tag);
        opts.faults = FaultPlan::at(step, Fault::CorruptColumn { target, salt: 99 });
        let (hash, report) = supervised_hash(&opts);
        assert_eq!(hash, reference, "{tag}: recovered run diverged");
        assert_eq!(
            report.outcome,
            SuperviseOutcome::Recovered(1),
            "{tag}: outcome {:?}\n{}",
            report.outcome,
            report.render_log()
        );
        let ev = &report.recoveries[0];
        assert!(
            ev.cause.contains("sentinel trip"),
            "{tag}: cause was {:?}",
            ev.cause
        );
        // Caught within one sampling window of the injection step.
        assert!(
            ev.at_step >= step && ev.at_step < step + opts.sentinel_every,
            "{tag}: injected at {step}, detected at {}",
            ev.at_step
        );
        assert_eq!(ev.restored_step, Some(10), "{tag}: wrong checkpoint");
    }
}

/// An injected crash recovers from the newest checkpoint and replays to
/// the identical end state.
#[test]
fn crash_recovers_from_the_newest_checkpoint() {
    let mut opts = opts_in("crash");
    opts.faults = FaultPlan::at(23, Fault::Crash);
    let (hash, report) = supervised_hash(&opts);
    assert_eq!(hash, plain_hash());
    assert_eq!(report.outcome, SuperviseOutcome::Recovered(1));
    assert_eq!(report.recoveries[0].restored_step, Some(20));
}

/// A save-time I/O error is logged and survived — the run completes on
/// retained checkpoints with no recovery and no divergence.
#[test]
fn save_io_error_is_survived_without_recovery() {
    let mut opts = opts_in("saveio");
    opts.faults = FaultPlan::at(9, Fault::SaveIoError);
    let (hash, report) = supervised_hash(&opts);
    assert_eq!(hash, plain_hash());
    assert_eq!(report.outcome, SuperviseOutcome::Completed);
    assert_eq!(report.save_errors, 1);
    assert_eq!(
        report.checkpoints_written, 4,
        "the failed save at 10 is skipped"
    );
}

/// On-disk checkpoint damage: the recovery scan must step over the torn
/// (or bit-flipped) newest candidate to an older valid one, and the
/// replayed run must still converge to the reference hash.
#[test]
fn recovery_scans_past_damaged_newest_checkpoints() {
    let reference = plain_hash();
    for (tag, fault) in [
        ("torn", Fault::TruncateCheckpoint),
        ("flipped", Fault::FlipCheckpointByte),
    ] {
        let mut opts = opts_in(tag);
        // Damage the checkpoint written at 30, then crash: recovery must
        // skip the damaged 30 and restore 20.
        opts.faults = FaultPlan::at(31, fault).and(33, Fault::Crash);
        let (hash, report) = supervised_hash(&opts);
        assert_eq!(hash, reference, "{tag}: recovered run diverged");
        assert_eq!(report.outcome, SuperviseOutcome::Recovered(1));
        assert_eq!(
            report.recoveries[0].restored_step,
            Some(20),
            "{tag}: did not skip the damaged newest\n{}",
            report.render_log()
        );
        assert!(
            report.log.iter().any(|l| l.contains("skipping")),
            "{tag}: no skip note in log\n{}",
            report.render_log()
        );
    }
}

/// When nothing on disk survives (fault before the first checkpoint) the
/// supervisor cold-restarts — and still converges, because the replay is
/// bit-deterministic from step 0.
#[test]
fn cold_restart_when_no_checkpoint_survives() {
    let mut opts = opts_in("cold");
    opts.faults = FaultPlan::at(7, Fault::Crash);
    let (hash, report) = supervised_hash(&opts);
    assert_eq!(hash, plain_hash());
    assert_eq!(report.outcome, SuperviseOutcome::Recovered(1));
    assert_eq!(
        report.recoveries[0].restored_step, None,
        "expected cold restart"
    );
}

/// Recovery budget: more distinct faults than `max_recoveries` abandons
/// the run with the full report attached.
#[test]
fn budget_exhaustion_abandons_with_a_full_report() {
    let mut opts = opts_in("abandon");
    opts.max_recoveries = 2;
    opts.faults = FaultPlan::at(21, Fault::Crash)
        .and(22, Fault::Crash)
        .and(23, Fault::Crash);
    let cfg = wedge_dirty_cfg(7);
    let mut protocol = TunnelProtocol::new(small_case(SETTLE, TOTAL), Scale::Quick);
    match supervise(&cfg, &mut protocol, &opts) {
        Err(SuperviseError::Abandoned(report)) => {
            assert_eq!(report.outcome, SuperviseOutcome::Abandoned);
            assert_eq!(report.recoveries.len(), 2, "budget was 2");
        }
        Ok(_) => panic!("expected Abandoned, got a finished run"),
        Err(e) => panic!("expected Abandoned, got {e}"),
    }
}

/// Starting the supervisor next to a finished run's checkpoint directory
/// auto-resumes from the newest checkpoint instead of recomputing — and
/// lands on the same final hash.
#[test]
fn startup_auto_resumes_from_an_existing_checkpoint() {
    let opts = opts_in("adopt");
    let (first_hash, _) = supervised_hash(&opts);
    // Same directory, fresh protocol: the final checkpoint is adopted.
    let (second_hash, report) = supervised_hash(&opts);
    assert_eq!(second_hash, first_hash);
    assert_eq!(report.resumed_at_start, Some(TOTAL as u64));
    assert_eq!(report.outcome, SuperviseOutcome::Completed);
}

/// The transient protocol under supervision: a mid-series crash must not
/// lose or re-measure completed windows (they live in the checkpoint
/// journal), and the series must match the unsupervised arm exactly.
#[test]
fn transient_windows_survive_recovery_bit_exactly() {
    let case = small_transient();
    let cfg = wedge_dirty_cfg(11);

    // Unsupervised reference arm.
    let mut reference: Vec<TransientPoint> = Vec::new();
    let mut sim = Simulation::new(cfg.clone());
    let mut ref_protocol = TransientProtocol::new(case, Scale::Quick);
    for s in 0..=40u64 {
        ref_protocol.at_step(&mut sim, s);
        if s < 40 {
            sim.step();
        }
    }
    reference.append(&mut ref_protocol.points);
    let ref_hash = sim.state_hash();

    // Supervised arm with a crash between windows 2 and 3.
    let mut opts = opts_in("transient");
    opts.faults = FaultPlan::at(27, Fault::Crash);
    let mut protocol = TransientProtocol::new(case, Scale::Quick);
    let (sim, report) = supervise(&cfg, &mut protocol, &opts).expect("supervise");
    assert_eq!(report.outcome, SuperviseOutcome::Recovered(1));
    assert_eq!(sim.state_hash(), ref_hash, "transient trajectory diverged");
    assert_eq!(
        protocol.points.len(),
        reference.len(),
        "windows lost or duplicated"
    );
    for (a, b) in protocol.points.iter().zip(&reference) {
        assert_eq!(a.step_end, b.step_end);
        for (ma, mb) in a.values.iter().zip(&b.values) {
            assert_eq!(ma.name, mb.name);
            assert_eq!(
                ma.value.to_bits(),
                mb.value.to_bits(),
                "window {} metric {} drifted",
                a.step_end,
                ma.name
            );
        }
    }
}

/// The checkpoint journal is an input surface: a candidate whose windows
/// name a metric this case's probe does not emit is not this case's
/// journal.  It is skipped with a typed error (nothing leaked, nothing
/// half-restored) and the scan falls through to the next candidate.
#[test]
fn journal_naming_an_unknown_metric_is_skipped_and_the_scan_falls_through() {
    let cfg = wedge_dirty_cfg(11);
    let ours = small_transient();
    let theirs = TransientCase {
        probe: |sim, _, _| {
            vec![Metric {
                name: "n_reservoir",
                value: sim.diagnostics().n_reservoir as f64,
            }]
        },
        probe_names: &["n_reservoir"],
        ..ours
    };
    let skipped_as_foreign = |report: &SupervisorReport, step: u64| {
        report.log.iter().any(|l| {
            l.starts_with(&format!("step {step:>8}:"))
                && l.contains("malformed")
                && l.contains("does not emit")
        })
    };

    // The uninterrupted 5-window reference.
    let mut reference = TransientProtocol::with_windows(ours, 5);
    let mut ref_sim = Simulation::new(cfg.clone());
    for s in 0..=50u64 {
        reference.at_step(&mut ref_sim, s);
        if s < 50 {
            ref_sim.step();
        }
    }

    // Our case, 4 windows: checkpoints 10..=40 journal `n_flow` windows.
    let mut opts = opts_in("foreign_journal");
    opts.keep = 16;
    let mut protocol = TransientProtocol::with_windows(ours, 4);
    supervise(&cfg, &mut protocol, &opts).expect("first arm");

    // The other case in the same directory (same config fingerprint):
    // every candidate names a metric *its* probe does not emit, so it
    // starts cold — and leaves the newest checkpoint, 50, in its names.
    opts.checkpoint_every = 50;
    let mut protocol = TransientProtocol::with_windows(theirs, 5);
    let (_, report) = supervise(&cfg, &mut protocol, &opts).expect("foreign arm");
    assert_eq!(report.resumed_at_start, None, "{}", report.render_log());
    for step in [10, 20, 30, 40] {
        assert!(skipped_as_foreign(&report, step), "{}", report.render_log());
    }

    // Our case again, now 5 windows: 50 is skipped, 40 is adopted, and the
    // finished series is the uninterrupted one.
    let mut protocol = TransientProtocol::with_windows(ours, 5);
    let (sim, report) = supervise(&cfg, &mut protocol, &opts).expect("second arm");
    assert!(skipped_as_foreign(&report, 50), "{}", report.render_log());
    assert_eq!(report.resumed_at_start, Some(40), "{}", report.render_log());
    assert_eq!(sim.state_hash(), ref_sim.state_hash());
    let series = |ps: &[TransientPoint]| -> Vec<(u64, &'static str, u64)> {
        ps.iter()
            .map(|p| (p.step_end, p.values[0].name, p.values[0].value.to_bits()))
            .collect()
    };
    assert_eq!(series(&protocol.points), series(&reference.points));
}

/// The small tunnel as a 4 × 5-step transient: its journal carries the
/// baseline diagnostics and every closed window's named metrics.
fn small_test_transient() -> TransientCase {
    TransientCase {
        config: SimConfig::small_test,
        window_steps: 5,
        ..small_transient()
    }
}

/// A real supervisor checkpoint of [`small_test_transient`] at step 10
/// (two windows journalled), and the byte range of its `JRNL` section —
/// tag, length and payload.
fn journal_checkpoint() -> &'static (Vec<u8>, std::ops::Range<usize>) {
    static CKPT: OnceLock<(Vec<u8>, std::ops::Range<usize>)> = OnceLock::new();
    CKPT.get_or_init(|| {
        let opts = opts_in("journal_source");
        let mut protocol = TransientProtocol::new(small_test_transient(), Scale::Quick);
        supervise(&SimConfig::small_test(), &mut protocol, &opts).expect("source run");
        let store = CheckpointStore::new(&opts.ckpt_dir, &*opts.stem, opts.keep).expect("store");
        let bytes = std::fs::read(store.path_for(10)).expect("the step-10 checkpoint");
        let _ = std::fs::remove_dir_all(&opts.ckpt_dir);
        let body = bytes.len() - 8;
        let mut at = 24;
        while at < body {
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            if bytes[at..at + 4] == *b"JRNL" {
                return (bytes.clone(), at..at + 12 + len);
            }
            at += 12 + len;
        }
        panic!("a supervisor checkpoint carries a JRNL section")
    })
}

/// Supervise [`small_test_transient`] from a store holding only `ckpt`,
/// as its step-10 checkpoint.
fn supervise_from_planted(
    tag: &str,
    ckpt: &[u8],
) -> (Simulation, SupervisorReport, TransientProtocol) {
    let opts = opts_in(tag);
    let store = CheckpointStore::new(&opts.ckpt_dir, &*opts.stem, opts.keep).expect("store");
    store.save(10, ckpt).expect("plant the candidate");
    let mut protocol = TransientProtocol::new(small_test_transient(), Scale::Quick);
    let (sim, report) = supervise(&SimConfig::small_test(), &mut protocol, &opts)
        .expect("a planted candidate never stops the run");
    let _ = std::fs::remove_dir_all(&opts.ckpt_dir);
    (sim, report, protocol)
}

proptest! {
    /// The journal is the supervisor checkpoint's last decoder: one to
    /// three bytes of a real checkpoint's `JRNL` section flipped and the
    /// trailer re-sealed, offered to a fresh run as the only candidate
    /// in its store.  The run either adopts it or skips it with a typed
    /// "candidate invalid" note and cold-starts — and finishes either way.
    #[test]
    fn prop_damaged_journals_are_adopted_or_skipped(
        n_edits in 1usize..=3,
        at in proptest::array::uniform5(any::<u64>()),
        flip in proptest::array::uniform5(1u8..=255),
    ) {
        let (ckpt, jrnl) = journal_checkpoint();
        let mut bytes = ckpt.clone();
        for k in 0..n_edits {
            bytes[jrnl.start + (at[k] % jrnl.len() as u64) as usize] ^= flip[k];
        }
        reseal(&mut bytes);
        let (_, report, _) = supervise_from_planted("journal_fuzz", &bytes);
        match report.resumed_at_start {
            Some(step) => prop_assert_eq!(step, 10),
            None => prop_assert!(
                report.log.iter().any(|l| l.contains("candidate invalid")),
                "{}",
                report.render_log()
            ),
        }
        prop_assert_eq!(report.final_step, 20);
    }
}

/// A journal the adopt path accepts can still carry a baseline no run
/// produced: the top bit of both population counts and of one momentum
/// component set, resealed.  The run adopts it and its metrics read the
/// damage as drift — they do not overflow.
#[test]
fn an_adopted_extreme_baseline_reads_as_drift() {
    let (ckpt, jrnl) = journal_checkpoint();
    let mut bytes = ckpt.clone();
    // JRNL payload: steps, n_flow, n_reservoir, … (u64 each), then the
    // energy halves and the 5-component momentum vector.
    let payload = jrnl.start + 12;
    for field in [1, 2] {
        bytes[payload + 8 * field + 7] ^= 0x80;
    }
    let momentum_w = payload + 8 * 10 + 8 + 8 * 2;
    bytes[momentum_w + 7] ^= 0x80;
    reseal(&mut bytes);
    let (mut sim, report, mut protocol) = supervise_from_planted("extreme_baseline", &bytes);
    assert_eq!(report.resumed_at_start, Some(10), "{}", report.render_log());
    let finished = protocol.finish(&mut sim);
    let metric = |name| {
        let m = finished.metrics.iter().find(|m| m.name == name);
        m.expect("a conservation metric").value
    };
    assert!(metric("particle_count_drift") < -1e19);
    assert!(metric("momentum_drift_budget_frac") > 1e9);
}

/// Registry-level acceptance (release-only: a debug tunnel run costs ~a
/// minute): the headline steady and transient cases, supervised under a
/// seeded mixed-class chaos plan, must reproduce their goldens and the
/// exact `state_hash` of the unsupervised registry run.
#[test]
fn registry_cases_survive_seeded_chaos_with_identical_goldens_and_hash() {
    if cfg!(debug_assertions) {
        return; // release-only, same gating as the scenario golden sweep
    }
    for name in ["flat-plate", "cylinder-startup"] {
        let s = find(name).expect("registered");
        let plain = run(s, Scale::Quick);
        let total = protocol_for(s, Scale::Quick, ProtocolOverride::default())
            .expect("supervisable kind")
            .total_steps();
        let mut opts = opts_in(&format!("chaos_{name}"));
        opts.checkpoint_every = 100;
        opts.sentinel_every = 25;
        opts.faults = FaultPlan::seeded(0xC0FFEE, total, opts.sentinel_every);
        let (outcome, report) = dsmc_scenarios::run_supervised(s, Scale::Quick, &opts)
            .unwrap_or_else(|e| panic!("{name}: supervise failed: {e}"));
        assert!(
            matches!(report.outcome, SuperviseOutcome::Recovered(_)),
            "{name}: chaos plan injected nothing?\n{}",
            report.render_log()
        );
        assert!(
            outcome.passed,
            "{name}: golden drift under chaos: {:?}",
            outcome.checks
        );
        assert_eq!(
            outcome.state_hash,
            plain.state_hash,
            "{name}: supervised hash diverged from the plain run\n{}",
            report.render_log()
        );
    }
    // The kinds that own their run shape refuse supervision loudly.
    let restart = find("wedge-restart").unwrap();
    assert!(matches!(restart.kind, CaseKind::Restart(_)));
    assert!(matches!(
        dsmc_scenarios::run_supervised(restart, Scale::Quick, &opts_in("restart_refuse")),
        Err(SuperviseError::Unsupported(_))
    ));
}

// ---------------------------------------------------------------------
// kill -9: the real thing, out of process.
// ---------------------------------------------------------------------

/// Steps for the kill -9 victim: long enough that the parent reliably
/// catches it mid-run after the first checkpoint lands.
const KILL9_SETTLE: usize = 60;
const KILL9_TOTAL: usize = 200;

fn kill9_cfg() -> SimConfig {
    wedge_dirty_cfg(19)
}

/// Subprocess helper: supervised (or, with `SUPERVISOR_PLAIN`, plain)
/// run of the kill -9 workload, printing the final hash for the parent.
#[test]
#[ignore = "helper: spawned by kill_minus_nine_resumes_identically with env set"]
fn helper_supervised_kill9_run() {
    let dir = std::env::var("SUPERVISOR_CKPT_DIR").expect("SUPERVISOR_CKPT_DIR not set");
    if std::env::var("SUPERVISOR_PLAIN").is_ok() {
        let sim = plain_tunnel(&kill9_cfg(), KILL9_SETTLE as u64, KILL9_TOTAL as u64);
        println!("SUPER_HASH={:#018x}", sim.state_hash());
        return;
    }
    let mut opts = SuperviseOptions::new(dir, "kill9");
    opts.checkpoint_every = 10;
    opts.sentinel_every = 10;
    let mut protocol = TunnelProtocol::new(small_case(KILL9_SETTLE, KILL9_TOTAL), Scale::Quick);
    let (sim, report) = supervise(&kill9_cfg(), &mut protocol, &opts).expect("supervise");
    if let Some(step) = report.resumed_at_start {
        println!("SUPER_RESUMED={step}");
    }
    println!("SUPER_HASH={:#018x}", sim.state_hash());
}

/// Kill the supervised run with SIGKILL mid-flight, restart it under a
/// *different* rayon thread count, and demand it auto-resumes from the
/// surviving checkpoint and finishes with the hash of a run that was
/// never touched.  (Thread count is fixed at rayon pool spin-up, so each
/// count gets its own subprocess — same harness as the pipeline
/// determinism test.)
#[test]
#[cfg(unix)]
fn kill_minus_nine_resumes_identically_across_thread_counts() {
    use std::process::Stdio;

    let dir = tmp_dir("kill9");
    let helper = || {
        let mut cmd = helper_command("helper_supervised_kill9_run");
        cmd.env("SUPERVISOR_CKPT_DIR", &dir);
        cmd
    };

    // Victim under 1 thread; SIGKILL after the first checkpoint lands.
    let mut victim = helper()
        .env("RAYON_NUM_THREADS", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let mut saw_checkpoint = false;
    loop {
        if !ckpt_files(&dir).is_empty() {
            saw_checkpoint = true;
            break;
        }
        if victim.try_wait().expect("try_wait").is_some() {
            break; // finished before we could kill it — resume still covered
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no checkpoint appeared within the deadline"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let _ = victim.kill(); // SIGKILL on unix
    let _ = victim.wait();

    // Survivor under 4 threads: must adopt the checkpoint and finish.
    let out = helper()
        .env("RAYON_NUM_THREADS", "4")
        .output()
        .expect("spawn survivor");
    assert!(
        out.status.success(),
        "survivor failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    if saw_checkpoint {
        assert!(
            stdout.contains("SUPER_RESUMED="),
            "survivor did not resume from the surviving checkpoint:\n{stdout}"
        );
    }
    let grab = |text: &str| {
        find_value(text, "SUPER_HASH").unwrap_or_else(|| panic!("no SUPER_HASH:\n{text}"))
    };
    let survivor_hash = grab(&stdout);

    // Plain reference arm in its own subprocess (default thread pool).
    let plain = helper()
        .env("SUPERVISOR_PLAIN", "1")
        .output()
        .expect("spawn plain arm");
    assert!(plain.status.success());
    let plain_hash = grab(&String::from_utf8_lossy(&plain.stdout));
    assert_eq!(
        survivor_hash, plain_hash,
        "kill -9 + resume diverged from the uninterrupted run"
    );
}
