//! The campaign executor's contract, system level: process-isolated
//! workers killed mid-run retry to the *identical* `state_hash` as an
//! unsupervised reference, stalled workers are reaped at the timeout and
//! retried, deterministic failures quarantine with the campaign still
//! delivering partial results, and a `kill -9` of the executor itself
//! resumes from the journal to a bit-identical outcome table.
//!
//! Workers re-enter this very test binary: the `campaign_worker_entry`
//! helper test (run with `--exact … --ignored`) hands control to
//! [`dsmc_scenarios::campaign::maybe_worker_from_env`], exactly as the
//! `scenarios` bin does in production.

use dsmc_scenarios::campaign::{load_journal, maybe_worker_from_env, resolved_config};
use dsmc_scenarios::{
    backoff_with_jitter, run_campaign, CampaignFault, CampaignFaultPlan, CampaignOptions,
    CampaignSpec, RunSpec, RunStatus, Scale, Sleeper, SuperviseOptions, BACKOFF_BASE_MS,
    BACKOFF_CAP_MS,
};
use integration_tests::{helper_args, helper_command, tmp_dir};
use std::time::Duration;

/// Worker re-entry point.  Spawned by the executor with [`WORKER_ENV`]
/// set; a bare `cargo test -- --ignored` run (no env) is a no-op.
#[test]
#[ignore = "helper: campaign worker entry, spawned with DSMC_CAMPAIGN_WORKER set"]
fn campaign_worker_entry() {
    if let Some(code) = maybe_worker_from_env() {
        std::process::exit(code);
    }
}

fn worker_args() -> Vec<String> {
    helper_args("campaign_worker_entry")
        .map(String::from)
        .to_vec()
}

/// Campaign options that spawn workers back into this test binary, with
/// a recording sleeper so retry backoffs cost no wall-clock.
fn opts_in(tag: &str) -> CampaignOptions {
    let mut opts = CampaignOptions::new(tmp_dir(tag));
    opts.worker_exe = Some(std::env::current_exe().expect("current_exe"));
    opts.worker_args = worker_args();
    opts.checkpoint_every = 10;
    opts.timeout = Duration::from_secs(300);
    let (sleeper, _log) = Sleeper::recording();
    opts.sleeper = sleeper;
    opts
}

/// A debug-affordable run: the paper wedge at quick density with the
/// protocol cut to 20 + 20 steps.  The overrides make the run
/// non-pristine, so goldens are (correctly) not checked against it.
fn fast_run(label: &str, seed: u64) -> RunSpec {
    RunSpec::new("wedge-paper", label)
        .seeded(seed)
        .set("settle", 20.0)
        .set("average", 20.0)
}

fn fast_spec(name: &str, runs: Vec<RunSpec>) -> CampaignSpec {
    CampaignSpec {
        name: name.into(),
        scale: Scale::Quick,
        runs,
    }
}

/// The unsupervised-reference arm: the same resolved config driven
/// through the supervisor in-process with no faults and a private
/// checkpoint dir, returning the final `state_hash`.
fn reference_hash(run: &RunSpec, tag: &str) -> u64 {
    let (s, cfg, po, pristine) = resolved_config(run, Scale::Quick).expect("resolve");
    let mut sopts = SuperviseOptions::new(tmp_dir(tag), "run");
    sopts.checkpoint_every = 10;
    let (outcome, report) =
        dsmc_scenarios::run_supervised_config(s, Scale::Quick, &cfg, po, pristine, &sopts)
            .expect("reference run");
    assert!(report.recoveries.is_empty(), "reference arm had faults");
    outcome.state_hash.expect("reference state_hash")
}

fn hash_of(report: &dsmc_scenarios::CampaignReport, label: &str) -> u64 {
    report
        .runs
        .iter()
        .find(|r| r.spec.label == label)
        .unwrap_or_else(|| panic!("run {label} missing"))
        .state_hash
        .unwrap_or_else(|| panic!("run {label} has no state_hash"))
}

/// A clean fleet: distinct runs complete on the first attempt, an exact
/// duplicate is skipped and adopts its primary's results, and the
/// journal lands terminal with the spec's fingerprint.
#[test]
fn clean_campaign_completes_dedups_and_journals() {
    let spec = fast_spec(
        "clean",
        vec![
            fast_run("a", 11),
            fast_run("b", 12),
            // Bit-identical work to `a`: same seed, same overrides.
            fast_run("a-again", 11),
        ],
    );
    let opts = opts_in("clean");
    let report = run_campaign(&spec, &opts).expect("campaign");

    assert_eq!(report.count(RunStatus::Completed), 2);
    assert_eq!(report.count(RunStatus::Skipped), 1);
    assert!(report.all_passed() && !report.degraded());
    assert_eq!(report.exit_code(), 0);
    assert_eq!(hash_of(&report, "a"), hash_of(&report, "a-again"));
    assert_ne!(hash_of(&report, "a"), hash_of(&report, "b"));

    let dup = report
        .runs
        .iter()
        .find(|r| r.spec.label == "a-again")
        .unwrap();
    assert!(dup.cache_hit, "duplicate should count as a cache hit");
    assert_eq!(dup.attempts, 0, "duplicate must not burn a worker");

    let (fp, name, _scale, runs) =
        load_journal(&opts.dir.join("campaign.journal")).expect("journal");
    assert_eq!(fp, spec.fingerprint());
    assert_eq!(name, "clean");
    assert!(runs.iter().all(|r| r.status.is_terminal()));

    // Re-invoking the finished campaign is a no-op resume: same table,
    // no new attempts.
    let again = run_campaign(&spec, &opts).expect("resume");
    assert_eq!(again.count(RunStatus::Completed), 2);
    assert_eq!(
        again.runs.iter().map(|r| r.attempts).collect::<Vec<_>>(),
        report.runs.iter().map(|r| r.attempts).collect::<Vec<_>>(),
    );
}

/// The headline chaos contract: one worker is SIGKILLed mid-run and one
/// stalls past nothing (both at attempt 1).  The campaign completes,
/// each victim's retry warm-starts from the fingerprint-keyed cache and
/// lands bit-identical to its unsupervised reference, and the journal
/// records exactly one recovery per victim.
#[test]
fn killed_and_stalled_workers_retry_bit_identically() {
    let spec = fast_spec(
        "chaos",
        vec![fast_run("victim", 21), fast_run("staller", 22)],
    );
    let mut opts = opts_in("chaos");
    // The stalled worker burns its whole attempt timeout; keep it short
    // (but comfortably above a clean debug attempt under load).
    opts.timeout = Duration::from_secs(20);
    opts.faults = CampaignFaultPlan::at((0, 1), CampaignFault::Kill { at_step: 15 })
        .and((1, 1), CampaignFault::Stall { at_step: 15 });
    let report = run_campaign(&spec, &opts).expect("campaign");

    for label in ["victim", "staller"] {
        let r = report.runs.iter().find(|r| r.spec.label == label).unwrap();
        assert_eq!(r.status, RunStatus::Recovered, "{label}: {:?}", r.status);
        assert_eq!(r.attempts, 2, "{label} should retry exactly once");
        assert_eq!(
            r.recoveries(),
            1,
            "{label} must record exactly one recovery"
        );
        assert!(
            r.cache_hit,
            "{label} retry should warm-start from the cache"
        );
        assert!(r.cache_saved_steps >= 10, "{label} resumed too early");
        assert!(r.last_error.is_empty(), "{label}: {}", r.last_error);
    }
    assert_eq!(report.exit_code(), 0, "recovered runs are not degradation");
    assert_eq!(
        hash_of(&report, "victim"),
        reference_hash(&spec.runs[0], "chaos_ref_kill"),
        "kill -9 + retry diverged from the unsupervised reference"
    );
    assert_eq!(
        hash_of(&report, "staller"),
        reference_hash(&spec.runs[1], "chaos_ref_stall"),
        "stall + timeout + retry diverged from the unsupervised reference"
    );
}

/// A checkpoint corrupted between attempts must not poison the retry:
/// the worker's restore path rejects the damaged newest snapshot, falls
/// back to an older valid one, and still converges bit-identically.
#[test]
fn corrupted_cache_checkpoint_falls_back_bit_identically() {
    let spec = fast_spec("corrupt", vec![fast_run("victim", 31)]);
    let mut opts = opts_in("corrupt");
    opts.checkpoint_every = 5;
    opts.faults = CampaignFaultPlan::at((0, 1), CampaignFault::Kill { at_step: 15 })
        .and((0, 2), CampaignFault::CorruptCheckpoint);
    let report = run_campaign(&spec, &opts).expect("campaign");

    let r = &report.runs[0];
    assert_eq!(r.status, RunStatus::Recovered);
    assert_eq!(r.attempts, 2);
    assert_eq!(
        hash_of(&report, "victim"),
        reference_hash(&spec.runs[0], "corrupt_ref"),
        "corrupt-checkpoint retry diverged from the unsupervised reference"
    );
}

/// Graceful degradation: a run that fails deterministically (unknown
/// override key) burns its attempt budget into `Quarantined` — with a
/// recorded error and exactly one jittered backoff between attempts —
/// while the healthy run completes and the campaign exits 4 with the
/// partial results intact.
#[test]
fn deterministic_failure_quarantines_with_partial_results() {
    let spec = fast_spec(
        "poison",
        vec![
            RunSpec::new("wedge-paper", "poisoned").set("machh", 4.0),
            fast_run("healthy", 41),
        ],
    );
    let mut opts = opts_in("poison");
    opts.max_attempts = 2;
    let (sleeper, slept) = Sleeper::recording();
    opts.sleeper = sleeper;
    let report = run_campaign(&spec, &opts).expect("campaign");

    let bad = report
        .runs
        .iter()
        .find(|r| r.spec.label == "poisoned")
        .unwrap();
    assert_eq!(bad.status, RunStatus::Quarantined);
    assert_eq!(bad.attempts, 2, "quarantine only after the budget is spent");
    assert!(
        bad.last_error.contains("machh") || bad.last_error.contains("stderr"),
        "quarantine should record the worker's last error, got: {}",
        bad.last_error
    );
    let good = report
        .runs
        .iter()
        .find(|r| r.spec.label == "healthy")
        .unwrap();
    assert_eq!(good.status, RunStatus::Completed);
    assert!(good.state_hash.is_some(), "partial results must survive");
    assert!(report.degraded());
    assert_eq!(report.exit_code(), 4, "degraded outranks every other code");

    // Exactly one retry happened, so exactly one backoff was slept, and
    // it respected the jitter window [full/2, full] for attempt 1.
    let slept = slept.lock().unwrap();
    assert_eq!(slept.len(), 1, "one backoff per retried attempt: {slept:?}");
    assert!(
        slept[0] >= BACKOFF_BASE_MS / 2 && slept[0] <= BACKOFF_BASE_MS,
        "backoff {}ms outside the jitter window",
        slept[0]
    );
}

/// An attempt that hangs past the wall-clock budget on its *only*
/// allowed attempt lands `TimedOut` (not `Quarantined`): the run never
/// finished, the campaign degrades, and the journal says why.
#[test]
fn hung_run_times_out_and_degrades() {
    // A 4-step run that stalls immediately: the whole test costs one
    // timeout window.
    let run = RunSpec::new("wedge-paper", "hung")
        .seeded(51)
        .set("settle", 2.0)
        .set("average", 2.0);
    let spec = fast_spec("hung", vec![run]);
    let mut opts = opts_in("hung");
    opts.timeout = Duration::from_secs(5);
    opts.max_attempts = 1;
    opts.faults = CampaignFaultPlan::at((0, 1), CampaignFault::Stall { at_step: 1 });
    let report = run_campaign(&spec, &opts).expect("campaign");

    let r = &report.runs[0];
    assert_eq!(r.status, RunStatus::TimedOut);
    assert!(
        r.last_error.contains("timeout"),
        "timeout not recorded: {}",
        r.last_error
    );
    assert_eq!(report.exit_code(), 4);
}

// ---------------------------------------------------------------------
// kill -9 of the executor itself, out of process.
// ---------------------------------------------------------------------

/// The fixed two-run workload both executor arms run.
fn executor_spec() -> CampaignSpec {
    fast_spec("exec9", vec![fast_run("one", 61), fast_run("two", 62)])
}

/// Subprocess helper: run the executor workload in `CAMPAIGN_DIR` with a
/// single worker slot (so the campaign stays killable mid-flight).
#[test]
#[ignore = "helper: spawned by executor_kill_minus_nine_resumes_from_journal with env set"]
fn helper_campaign_executor_run() {
    let Ok(dir) = std::env::var("CAMPAIGN_DIR") else {
        return;
    };
    let mut opts = CampaignOptions::new(dir);
    opts.worker_exe = Some(std::env::current_exe().expect("current_exe"));
    opts.worker_args = worker_args();
    opts.checkpoint_every = 10;
    opts.max_workers = 1;
    let report = run_campaign(&executor_spec(), &opts).expect("campaign");
    for r in &report.runs {
        if let Some(h) = r.state_hash {
            println!("CAMP_HASH={}:{h:#018x}", r.spec.label);
        }
    }
}

/// Kill the campaign *executor* with SIGKILL mid-flight, then re-invoke
/// the campaign on the same directory: it must resume from the journal
/// and finish with per-run state_hashes bit-identical to an
/// uninterrupted campaign of the same spec.
#[test]
fn executor_kill_minus_nine_resumes_from_journal() {
    use std::process::Stdio;

    // Uninterrupted reference arm, in-process, private directory.
    let mut ref_opts = opts_in("exec9_ref");
    ref_opts.max_workers = 1;
    let reference = run_campaign(&executor_spec(), &ref_opts).expect("reference campaign");
    assert!(reference.all_passed());

    // Victim arm: the executor runs as a subprocess and dies by SIGKILL.
    let dir = tmp_dir("exec9_victim");
    let mut child = helper_command("helper_campaign_executor_run")
        .env("CAMPAIGN_DIR", &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn executor");
    // Let it journal and get at least one worker in flight, then murder it.
    std::thread::sleep(Duration::from_secs(4));
    child.kill().expect("SIGKILL executor");
    let _ = child.wait();

    // The journal must already exist and carry the spec's fingerprint.
    let (fp, _name, _scale, _runs) =
        load_journal(&dir.join("campaign.journal")).expect("journal survives the kill");
    assert_eq!(fp, executor_spec().fingerprint());

    // Resume on the same directory, in-process this time.
    let mut opts = opts_in("exec9_resume");
    opts.dir = dir;
    opts.max_workers = 1;
    let resumed = run_campaign(&executor_spec(), &opts).expect("resumed campaign");
    assert!(resumed.runs.iter().all(|r| r.status.is_terminal()));
    for label in ["one", "two"] {
        assert_eq!(
            hash_of(&resumed, label),
            hash_of(&reference, label),
            "run {label} diverged after the executor was killed and resumed"
        );
    }
}

/// The jittered backoff is pure: same inputs → same delay, delays stay
/// in [full/2, full] under the cap, and distinct salts decorrelate the
/// fleet (at least one attempt differs across salts).
#[test]
fn campaign_backoff_jitter_is_deterministic_and_bounded() {
    let mut differs = false;
    for attempt in 1..=8u32 {
        let full = BACKOFF_BASE_MS
            .saturating_mul(1 << (attempt - 1))
            .min(BACKOFF_CAP_MS);
        let jitter = |salt| backoff_with_jitter(BACKOFF_BASE_MS, BACKOFF_CAP_MS, attempt, salt);
        let (a, b) = (jitter(0xfeed), jitter(0xbeef));
        assert_eq!(a, jitter(0xfeed));
        assert!(
            a >= full / 2 && a <= full,
            "attempt {attempt}: {a} vs {full}"
        );
        assert!(b >= full / 2 && b <= full);
        differs |= a != b;
    }
    assert!(differs, "two salts produced identical backoff schedules");
}
