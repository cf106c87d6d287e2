//! Fault-tolerant run supervisor: step, watch, checkpoint, recover.
//!
//! The supervisor walks a scenario's [`Protocol`] — the run shape it
//! shares with the plain runner (ARCHITECTURE.md, "Run shapes") — and
//! adds, at each step boundary, the machinery an unattended batch run
//! needs:
//!
//! * every `sentinel_every` steps (and always immediately before a
//!   checkpoint is saved) the armed [`Sentinel`] re-verifies the physics
//!   invariants, so a sick simulation is detected — and **never
//!   checkpointed**;
//! * every `checkpoint_every` steps the full run state (simulation
//!   snapshot *plus* the protocol journal — baseline diagnostics,
//!   completed transient windows) is persisted through the crash-safe
//!   [`CheckpointStore`] (atomic rename, rolling retention);
//! * on any fault — a sentinel trip, an injected crash, or starting up
//!   next to a half-finished previous run — it restores the newest
//!   checkpoint that passes *every* check (container checksum, config
//!   fingerprint, semantic resume, journal decode, sentinel re-check)
//!   and replays, falling back to a cold restart when nothing on disk
//!   survives, under a bounded retry budget with exponential backoff.
//!
//! Because stepping is bit-deterministic and sentinels/checkpoints are
//! read-only (no RNG draws), a recovered run replays the *identical*
//! trajectory: it must finish with the same golden metrics and
//! `state_hash` as a run that never faulted.  The integration suite
//! asserts exactly that for every fault class in [`crate::fault`].

use crate::fault::{damage_newest, CheckpointDamage, Fault, FaultPlan};
use crate::json;
use crate::{
    conservation_metrics, outcome, surface_metrics, CaseKind, Finished, Metric, RunOutcome, Scale,
    Scenario, TransientCase, TransientPoint, TunnelCase,
};
use dsmc_engine::sentinel::Sentinel;
use dsmc_engine::{ConfigError, Diagnostics, SimConfig, Simulation, StateError};
use dsmc_state::store::CheckpointStore;
use dsmc_state::{Cursor, Section, Writer};
use std::path::PathBuf;

/// Section tag: the embedded simulation snapshot.
const SEC_SIM: [u8; 4] = *b"SIMS";
/// Section tag: the protocol journal (baselines + completed windows).
const SEC_JOURNAL: [u8; 4] = *b"JRNL";

/// How the supervisor (and the campaign executor) sleeps between
/// recovery attempts.  Injectable so retry tests assert the computed
/// backoff schedule without paying real `thread::sleep` waits.
#[derive(Clone)]
pub struct Sleeper(std::sync::Arc<dyn Fn(u64) + Send + Sync>);

impl Sleeper {
    /// Production sleeper: really sleeps for the given milliseconds.
    pub fn real() -> Self {
        Self(std::sync::Arc::new(|ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms))
        }))
    }

    /// Test clock: never sleeps, appends each requested duration to the
    /// shared log so a test can assert the backoff schedule.
    pub fn recording() -> (Self, std::sync::Arc<std::sync::Mutex<Vec<u64>>>) {
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let writer = log.clone();
        let sleeper = Self(std::sync::Arc::new(move |ms| {
            writer.lock().expect("sleeper log poisoned").push(ms)
        }));
        (sleeper, log)
    }

    /// Sleep (or record) `ms` milliseconds.
    pub fn sleep(&self, ms: u64) {
        (self.0)(ms)
    }
}

impl Default for Sleeper {
    fn default() -> Self {
        Self::real()
    }
}

impl std::fmt::Debug for Sleeper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sleeper(..)")
    }
}

/// First-retry backoff in milliseconds (doubles per attempt) — the one
/// schedule the supervisor's recoveries and the campaign's retries share.
pub const BACKOFF_BASE_MS: u64 = 10;
/// Backoff ceiling in milliseconds.
pub const BACKOFF_CAP_MS: u64 = 500;
/// Campaign executor reap/poll cadence in milliseconds.
pub(crate) const POLL_MS: u64 = 5;

/// Exponential backoff with deterministic half-jitter: attempt `n`
/// (1-based) doubles the base up to `cap_ms`, then the lower half of the
/// window is kept and the upper half is replaced by a splitmix64 draw
/// keyed on `(salt, n)` — decorrelated enough that a fleet of retrying
/// workers does not stampede in lockstep, deterministic enough that the
/// schedule is testable and reproducible.
pub fn backoff_with_jitter(base_ms: u64, cap_ms: u64, attempt: u32, salt: u64) -> u64 {
    let full = base_ms
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
        .min(cap_ms);
    let half = full / 2;
    // splitmix64 over (salt, attempt): not a stream the engine shares,
    // so jitter cannot perturb trajectories.
    let mut z = salt
        .wrapping_add(attempt as u64)
        .wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    half + if half > 0 { z % (half + 1) } else { full }
}

/// How a supervised run is driven and protected.
#[derive(Clone, Debug)]
pub struct SuperviseOptions {
    /// Directory the checkpoint store writes into.
    pub ckpt_dir: PathBuf,
    /// Checkpoint file stem (`<stem>.step<N>.ckpt`).
    pub stem: String,
    /// Checkpoint cadence in steps (a final checkpoint at the last step
    /// is always written); clamped to ≥ 1.
    pub checkpoint_every: u64,
    /// Sentinel cadence in steps (checks also run before every
    /// checkpoint save); clamped to ≥ 1.
    pub sentinel_every: u64,
    /// Rolling retention: how many checkpoints survive pruning.
    pub keep: usize,
    /// Recovery budget: the run is abandoned after this many recoveries.
    pub max_recoveries: u32,
    /// Deterministic fault schedule (empty in production).
    pub faults: FaultPlan,
    /// Number of column-block domain shards the supervised run steps
    /// under (`0`/`1` = the single-domain reference engine).  Recovery
    /// restores checkpoints back into the same shard count; the final
    /// metrics and `state_hash` are shard-count invariant either way.
    pub shards: usize,
    /// How the sharded engine executes its per-shard phases (serial
    /// coordinator vs scoped worker threads).  Applied onto the validated
    /// config before every engine construction — startup, restore and
    /// cold restart — and bit-identical either way, so recovery at a
    /// different worker count reproduces the same trajectory.
    pub exec: dsmc_engine::ExecMode,
    /// How backoff waits are slept ([`Sleeper::real`] in production; a
    /// recording test clock in the retry tests).
    pub sleeper: Sleeper,
}

impl SuperviseOptions {
    /// Production-shaped defaults for a store at `dir`/`stem`.
    pub fn new(dir: impl Into<PathBuf>, stem: impl Into<String>) -> Self {
        Self {
            ckpt_dir: dir.into(),
            stem: stem.into(),
            checkpoint_every: 100,
            sentinel_every: 25,
            keep: 3,
            max_recoveries: 5,
            faults: FaultPlan::none(),
            shards: 1,
            exec: dsmc_engine::ExecMode::default(),
            sleeper: Sleeper::real(),
        }
    }
}

/// How a supervised run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuperviseOutcome {
    /// Ran to the end with no recoveries.
    Completed,
    /// Ran to the end after this many recoveries.
    Recovered(u32),
    /// Recovery budget exhausted; the run did not finish.
    Abandoned,
}

impl SuperviseOutcome {
    /// Stable lower-case label for reports and artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Completed => "completed",
            Self::Recovered(_) => "recovered",
            Self::Abandoned => "abandoned",
        }
    }
}

/// One recovery the supervisor performed.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// Step the fault was detected at.
    pub at_step: u64,
    /// Human-readable cause (sentinel trip text, "injected crash", …).
    pub cause: String,
    /// Step of the checkpoint restored from; `None` = cold restart.
    pub restored_step: Option<u64>,
    /// Backoff slept before this recovery, in milliseconds.
    pub backoff_ms: u64,
}

/// Everything the supervisor observed: the recovery log artifact.
#[derive(Clone, Debug)]
pub struct SupervisorReport {
    /// Final outcome.
    pub outcome: SuperviseOutcome,
    /// Every recovery, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Checkpoints successfully persisted.
    pub checkpoints_written: u64,
    /// Checkpoint saves that failed (injected or real I/O errors) — the
    /// run continues on retained checkpoints.
    pub save_errors: u64,
    /// Sentinel check invocations.
    pub sentinel_checks: u64,
    /// Step of the checkpoint the run auto-resumed from at startup.
    pub resumed_at_start: Option<u64>,
    /// Step count when supervision ended.
    pub final_step: u64,
    /// Chronological human-readable log lines.
    pub log: Vec<String>,
}

impl SupervisorReport {
    fn new() -> Self {
        Self {
            outcome: SuperviseOutcome::Completed,
            recoveries: Vec::new(),
            checkpoints_written: 0,
            save_errors: 0,
            sentinel_checks: 0,
            resumed_at_start: None,
            final_step: 0,
            log: Vec::new(),
        }
    }

    fn note(&mut self, step: u64, line: impl Into<String>) {
        self.log.push(format!("step {step:>8}: {}", line.into()));
    }

    /// Render the chronological log (the CI artifact).
    pub fn render_log(&self) -> String {
        let mut out = String::new();
        for line in &self.log {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!(
            "outcome: {} ({} recoveries, {} checkpoints, {} save errors, {} sentinel checks)\n",
            self.outcome.label(),
            self.recoveries.len(),
            self.checkpoints_written,
            self.save_errors,
            self.sentinel_checks,
        ));
        out
    }
}

/// Why supervision could not produce a finished run.
#[derive(Debug)]
pub enum SuperviseError {
    /// This case kind owns its run shape and cannot be supervised.
    Unsupported(&'static str),
    /// The configuration failed validation before the run started.
    Config(ConfigError),
    /// The checkpoint store itself failed (directory not creatable, …).
    Store(StateError),
    /// Recovery budget exhausted; the report carries the full log.
    Abandoned(Box<SupervisorReport>),
}

impl std::fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unsupported(what) => write!(f, "cannot supervise: {what}"),
            Self::Config(e) => write!(f, "invalid configuration: {e}"),
            Self::Store(e) => write!(f, "checkpoint store failed: {e}"),
            Self::Abandoned(r) => write!(
                f,
                "run abandoned after {} recoveries (budget exhausted)",
                r.recoveries.len()
            ),
        }
    }
}

impl std::error::Error for SuperviseError {}

/// A run shape — the single encoding both runners drive (ARCHITECTURE.md,
/// "Run shapes"): how many steps, what happens at each step boundary
/// (baseline capture, window transitions), how the protocol's own state is
/// persisted alongside the simulation, and how the finished run reduces
/// to metrics.
///
/// `at_step(sim, s)` is called at every step boundary `s` — including
/// again at a restored step after recovery — so implementations must be
/// idempotent: guard window opens on the sampler being absent and window
/// closes on the journal not already holding that window.  The baseline
/// diagnostics are captured at the first boundary visited while no journal
/// has supplied them (step 0 of a cold run; the snapshot's own step for a
/// plain `--resume`, which carries no journal).
/// `restore_journal` must be transactional: parse everything into locals
/// first, commit only on success (a damaged candidate is skipped, and a
/// partial restore would corrupt the next attempt).
pub trait Protocol {
    /// Total steps of the run (the loop visits boundaries `0..=total`).
    fn total_steps(&self) -> u64;
    /// Perform boundary-`step` transitions (idempotent).  The engine may
    /// be sharded; protocols read physics through
    /// [`Simulation::canonical`].
    fn at_step(&mut self, sim: &mut Simulation, step: u64);
    /// Serialise journal state into the checkpoint container.
    fn export_journal(&self, sec: &mut Section<'_>);
    /// Replace journal state from a checkpoint container (transactional).
    fn restore_journal(&mut self, c: &mut Cursor<'_>) -> Result<(), StateError>;
    /// Forget all journal state (cold restart).
    fn reset(&mut self);
    /// Close whatever windows the run left open and reduce it to metrics.
    /// Called once, after the final boundary.
    fn finish(&mut self, sim: &mut Simulation) -> Finished;
}

fn write_diag(sec: &mut Section<'_>, d: &Diagnostics) {
    sec.u64(d.steps);
    sec.u64(d.n_flow as u64);
    sec.u64(d.n_reservoir as u64);
    sec.u64(d.candidates);
    sec.u64(d.collisions);
    sec.u64(d.exited);
    sec.u64(d.introduced);
    sec.u64(d.plunger_cycles);
    // i128 as (low, high) halves — the container has no native i128.
    sec.u64(d.energy_raw as u64);
    sec.i64((d.energy_raw >> 64) as i64);
    sec.vec_i64(&d.momentum_raw);
}

fn read_diag(c: &mut Cursor<'_>) -> Result<Diagnostics, StateError> {
    let steps = c.u64()?;
    let n_flow = c.u64()? as usize;
    let n_reservoir = c.u64()? as usize;
    let candidates = c.u64()?;
    let collisions = c.u64()?;
    let exited = c.u64()?;
    let introduced = c.u64()?;
    let plunger_cycles = c.u64()?;
    let lo = c.u64()?;
    let hi = c.i64()?;
    let energy_raw = ((hi as i128) << 64) | (lo as i128);
    let momentum = c.vec_i64()?;
    let momentum_raw: [i64; 5] = momentum
        .try_into()
        .map_err(|_| StateError::Malformed("journal momentum must have 5 components"))?;
    Ok(Diagnostics {
        steps,
        n_flow,
        n_reservoir,
        candidates,
        collisions,
        exited,
        introduced,
        plunger_cycles,
        energy_raw,
        momentum_raw,
    })
}

/// Steady tunnel protocol: settle, open the sampling window, average to
/// the end.  Journal: the baseline diagnostics (conservation metrics are
/// drifts against it).
pub struct TunnelProtocol {
    case: TunnelCase,
    settle: u64,
    total: u64,
    d0: Option<Diagnostics>,
}

impl TunnelProtocol {
    /// Protocol for `case` at `scale`.
    pub fn new(case: TunnelCase, scale: Scale) -> Self {
        let (settle, average) = case.steps(scale);
        Self::with_steps(case, settle, average)
    }

    /// Protocol with explicit step counts (campaign workers overriding
    /// the registry protocol lengths).
    pub fn with_steps(case: TunnelCase, settle: u64, average: u64) -> Self {
        Self {
            case,
            settle,
            total: settle + average,
            d0: None,
        }
    }
}

impl Protocol for TunnelProtocol {
    fn total_steps(&self) -> u64 {
        self.total
    }

    fn at_step(&mut self, sim: &mut Simulation, step: u64) {
        if self.d0.is_none() {
            self.d0 = Some(sim.diagnostics());
        }
        // `>=`, not `==`: a plain `--resume` of a foreign snapshot taken
        // past the settle boundary with no window open averages what is
        // left of the run instead of reaching `finish` without a window.
        if step >= self.settle && sim.field_sampler().is_none() {
            sim.begin_sampling();
        }
    }

    fn export_journal(&self, sec: &mut Section<'_>) {
        let d0 = self.d0.expect("journal exported after the first boundary");
        write_diag(sec, &d0);
    }

    fn restore_journal(&mut self, c: &mut Cursor<'_>) -> Result<(), StateError> {
        let d0 = read_diag(c)?;
        self.d0 = Some(d0);
        Ok(())
    }

    fn reset(&mut self) {
        self.d0 = None;
    }

    fn finish(&mut self, sim: &mut Simulation) -> Finished {
        let d0 = self.d0.expect("baseline captured at the first boundary");
        let field = sim.finish_sampling();
        let surface = sim.finish_surface_sampling();
        // Metric extraction reads the canonical single-domain view:
        // identical whether the run was sharded or not.
        let mut metrics = conservation_metrics(sim.canonical(), &d0);
        if let Some(surf) = &surface {
            metrics.extend(surface_metrics(sim.canonical(), surf));
        }
        metrics.extend((self.case.extract)(
            sim.canonical(),
            &field,
            surface.as_ref(),
        ));
        Finished {
            surface,
            ..Finished::of(sim, metrics)
        }
    }
}

/// Startup-transient protocol: one sampling window every `window_steps`,
/// each closed into a [`TransientPoint`].  Journal: the baseline
/// diagnostics plus every completed window (recovery must not re-measure
/// or lose windows).
pub struct TransientProtocol {
    case: TransientCase,
    windows: u64,
    d0: Option<Diagnostics>,
    /// Completed windows so far.
    pub points: Vec<TransientPoint>,
}

impl TransientProtocol {
    /// Protocol for `case` at `scale`.
    pub fn new(case: TransientCase, scale: Scale) -> Self {
        Self::with_windows(case, case.windows(scale))
    }

    /// Protocol with an explicit window count (campaign workers
    /// overriding the registry protocol length).
    pub fn with_windows(case: TransientCase, windows: u64) -> Self {
        Self {
            case,
            windows,
            d0: None,
            points: Vec::new(),
        }
    }
}

impl Protocol for TransientProtocol {
    fn total_steps(&self) -> u64 {
        self.windows * self.case.window_steps as u64
    }

    fn at_step(&mut self, sim: &mut Simulation, step: u64) {
        let window = self.case.window_steps as u64;
        if self.d0.is_none() {
            self.d0 = Some(sim.diagnostics());
        }
        if step > 0 && step.is_multiple_of(window) {
            // Close the window ending here — unless the journal already
            // holds it (we are revisiting this boundary after recovery).
            let idx = (step / window) as usize;
            if self.points.len() < idx {
                let field = sim.finish_sampling();
                let surf = sim.finish_surface_sampling();
                self.points.push(TransientPoint {
                    step_end: step,
                    values: (self.case.probe)(sim.canonical(), &field, surf.as_ref()),
                });
            }
        }
        if step < self.total_steps() && step.is_multiple_of(window) && sim.field_sampler().is_none()
        {
            sim.begin_sampling();
        }
    }

    fn export_journal(&self, sec: &mut Section<'_>) {
        let d0 = self.d0.expect("journal exported after the first boundary");
        write_diag(sec, &d0);
        sec.u64(self.points.len() as u64);
        for p in &self.points {
            sec.u64(p.step_end);
            sec.u64(p.values.len() as u64);
            for m in &p.values {
                sec.vec_u8(m.name.as_bytes());
                sec.u64(m.value.to_bits());
            }
        }
    }

    fn restore_journal(&mut self, c: &mut Cursor<'_>) -> Result<(), StateError> {
        let d0 = read_diag(c)?;
        let n_points = c.u64()? as usize;
        let mut points = Vec::with_capacity(n_points.min(4096));
        for _ in 0..n_points {
            let step_end = c.u64()?;
            let n_values = c.u64()? as usize;
            let mut values = Vec::with_capacity(n_values.min(64));
            for _ in 0..n_values {
                let name_bytes = c.vec_u8()?;
                // Metric names are `&'static`: a journalled name resolves
                // to the one the case's probe emits, or the candidate is
                // not this case's journal.
                let name = self
                    .case
                    .probe_names
                    .iter()
                    .copied()
                    .find(|n| n.as_bytes() == name_bytes)
                    .ok_or(StateError::Malformed(
                        "journal names a metric this case's probe does not emit",
                    ))?;
                let value = f64::from_bits(c.u64()?);
                values.push(Metric { name, value });
            }
            points.push(TransientPoint { step_end, values });
        }
        // Commit only after the whole journal parsed.
        self.d0 = Some(d0);
        self.points = points;
        Ok(())
    }

    fn reset(&mut self) {
        self.d0 = None;
        self.points.clear();
    }

    fn finish(&mut self, sim: &mut Simulation) -> Finished {
        let d0 = self.d0.expect("baseline captured at the first boundary");
        let mut metrics = conservation_metrics(sim.canonical(), &d0);
        metrics.extend((self.case.extract)(&self.points));
        Finished {
            transient: Some(std::mem::take(&mut self.points)),
            ..Finished::of(sim, metrics)
        }
    }
}

/// The protocol `s` runs at `scale` — the one place a [`CaseKind`] maps to
/// its run shape, for the plain runner and the supervisor alike.  `Err`
/// carries why the kind has no protocol (it owns its run shape).
pub fn protocol_for(
    s: &Scenario,
    scale: Scale,
    po: ProtocolOverride,
) -> Result<Box<dyn Protocol>, &'static str> {
    match &s.kind {
        CaseKind::Tunnel(t) => {
            let (settle, average) = t.steps(scale);
            Ok(Box::new(TunnelProtocol::with_steps(
                *t,
                po.settle.unwrap_or(settle),
                po.average.unwrap_or(average),
            )))
        }
        CaseKind::Transient(t) => Ok(Box::new(TransientProtocol::with_windows(
            *t,
            po.windows.unwrap_or(t.windows(scale)),
        ))),
        CaseKind::Restart(_) => Err("restart cases drive save/resume themselves"),
        CaseKind::Relax(_) => Err("relaxation boxes have no step loop to supervise"),
        CaseKind::Sweep(_) => Err("sweep scenarios expand into campaign runs; supervise those"),
    }
}

/// Die like `kill -9`: raise SIGKILL against our own pid (no unwinding,
/// no atexit, no flushed buffers), falling back to `abort` where no
/// `kill` binary exists.  Used only by [`Fault::KillHard`] chaos.
fn die_hard() -> ! {
    #[cfg(unix)]
    {
        let _ = std::process::Command::new("kill")
            .arg("-9")
            .arg(std::process::id().to_string())
            .status();
    }
    std::process::abort();
}

fn save_checkpoint(
    store: &CheckpointStore,
    cfg: &SimConfig,
    sim: &Simulation,
    protocol: &dyn Protocol,
    step: u64,
) -> Result<(), StateError> {
    let mut w = Writer::new(cfg.fingerprint());
    {
        let mut sec = w.section(SEC_SIM);
        sec.vec_u8(&sim.save_state());
    }
    {
        let mut sec = w.section(SEC_JOURNAL);
        protocol.export_journal(&mut sec);
    }
    store.save(step, &w.finish()).map(|_| ())
}

/// Walk the store newest-to-oldest and return the first checkpoint that
/// survives *every* gate: container checksum, config fingerprint,
/// semantic simulation resume, journal decode, and (when armed) a
/// sentinel re-check of the restored state.  Damaged candidates are
/// logged and skipped.  With no survivor, reset the protocol and
/// cold-start — what both startup and every recovery fall back to.
/// Returns the adopted checkpoint's step (`None` for the cold start) with
/// the engine.
fn restore_or_cold_start(
    store: &CheckpointStore,
    cfg: &SimConfig,
    protocol: &mut dyn Protocol,
    sentinel: Option<&Sentinel>,
    shards: usize,
    max_step: u64,
    report: &mut SupervisorReport,
) -> Result<(Option<u64>, Simulation), SuperviseError> {
    for (step, path) in store.candidates().unwrap_or_default() {
        // The store may be a fingerprint-keyed cache shared with runs of
        // a *longer* protocol (the campaign's warm-start cache): a
        // checkpoint past this run's final step can never be stepped to
        // completion, so skip it rather than adopt an over-run state.
        if step > max_step {
            report.note(step, "recovery: candidate is past this run's end, skipping");
            continue;
        }
        let Ok(bytes) = std::fs::read(&path) else {
            report.note(step, "recovery: candidate unreadable, skipping");
            continue;
        };
        let restored = (|| -> Result<Simulation, StateError> {
            let r = dsmc_state::Reader::new(&bytes)?;
            if r.fingerprint() != cfg.fingerprint() {
                return Err(StateError::FingerprintMismatch {
                    stored: r.fingerprint(),
                    expected: cfg.fingerprint(),
                });
            }
            let mut c = r.section(SEC_SIM)?;
            let sim_bytes = c.vec_u8()?;
            c.done()?;
            let sim = Simulation::resume(cfg.clone(), &sim_bytes, shards)?;
            let mut jc = r.section(SEC_JOURNAL)?;
            protocol.restore_journal(&mut jc)?;
            jc.done()?;
            Ok(sim)
        })();
        match restored {
            Ok(mut sim) => {
                if let Some(sen) = sentinel {
                    if let Err(e) = sen.check(sim.canonical()) {
                        report.note(
                            step,
                            format!("recovery: candidate fails sentinel ({e}), skipping"),
                        );
                        continue;
                    }
                }
                let at = sim.diagnostics().steps;
                return Ok((Some(at), sim));
            }
            Err(e) => {
                report.note(step, format!("recovery: candidate invalid ({e}), skipping"));
            }
        }
    }
    protocol.reset();
    let mut sim = Simulation::try_new(cfg.clone()).map_err(SuperviseError::Config)?;
    sim.reshard(shards);
    Ok((None, sim))
}

/// Drive `protocol` over a fresh or auto-resumed simulation of `cfg`
/// under full supervision.  On success the simulation has completed
/// every step of the protocol (windows still open where the protocol
/// leaves them open — the caller extracts metrics exactly as an
/// unsupervised run would).
pub fn supervise(
    cfg: &SimConfig,
    protocol: &mut dyn Protocol,
    opts: &SuperviseOptions,
) -> Result<(Simulation, SupervisorReport), SuperviseError> {
    let mut cfg = cfg
        .clone()
        .try_validated()
        .map_err(SuperviseError::Config)?;
    // Execution layout, not physics: outside the fingerprint, so restored
    // checkpoints accept it and the trajectory is unchanged.
    cfg.exec = opts.exec;
    let store = CheckpointStore::new(&opts.ckpt_dir, &*opts.stem, opts.keep)
        .map_err(SuperviseError::Store)?;
    let ckpt_every = opts.checkpoint_every.max(1);
    let sentinel_every = opts.sentinel_every.max(1);
    let total = protocol.total_steps();
    let mut report = SupervisorReport::new();
    let mut faults = opts.faults.clone();

    // Startup: adopt a half-finished previous run if a valid checkpoint
    // survives (the crash-recovery path after kill -9), else cold-start.
    let (resumed, mut sim) = restore_or_cold_start(
        &store,
        &cfg,
        protocol,
        None,
        opts.shards,
        total,
        &mut report,
    )?;
    if let Some(step) = resumed {
        report.resumed_at_start = Some(step);
        report.note(step, "startup: resumed from checkpoint");
    }
    let sentinel = Sentinel::arm(sim.canonical());
    let mut s = sim.diagnostics().steps;
    let mut fail_next_save = false;

    loop {
        protocol.at_step(&mut sim, s);

        // Fire any faults planned for this boundary (each fires once).
        let mut crash = false;
        for f in faults.take(s) {
            match f {
                Fault::CorruptColumn { target, salt } => {
                    let what = sim.inject_fault(target, salt);
                    report.note(s, format!("injected column corruption: {what}"));
                }
                Fault::Crash => {
                    crash = true;
                    report.note(s, "injected crash");
                }
                Fault::SaveIoError => {
                    fail_next_save = true;
                    report.note(s, "injected I/O error armed for next checkpoint save");
                }
                Fault::TruncateCheckpoint => {
                    let what = damage_newest(&store, CheckpointDamage::Truncate);
                    report.note(s, format!("injected: {what}"));
                }
                Fault::FlipCheckpointByte => {
                    let what = damage_newest(&store, CheckpointDamage::FlipByte);
                    report.note(s, format!("injected: {what}"));
                }
                Fault::KillHard => {
                    // The real kill -9 shape: no unwinding, no cleanup.
                    // Only the campaign executor's process isolation
                    // survives this — in-process recovery never sees it.
                    eprintln!("injected hard kill at step {s}: terminating process");
                    die_hard();
                }
                Fault::Stall => {
                    // Simulated hang: park forever; the campaign
                    // executor's wall-clock timeout must reap us.
                    eprintln!("injected stall at step {s}: parking the step loop");
                    loop {
                        std::thread::sleep(std::time::Duration::from_secs(3600));
                    }
                }
            }
        }

        let due_ckpt = (s > 0 && s.is_multiple_of(ckpt_every)) || s == total;
        // A corrupt state must never be checkpointed: every save is
        // preceded by a sentinel check, whatever the sentinel cadence.
        let due_sentinel = s.is_multiple_of(sentinel_every) || due_ckpt;

        let mut fault_cause: Option<String> = None;
        if due_sentinel {
            report.sentinel_checks += 1;
            if let Err(e) = sentinel.check(sim.canonical()) {
                fault_cause = Some(format!("sentinel trip: {e}"));
            }
        }

        if fault_cause.is_none() && due_ckpt {
            if fail_next_save {
                fail_next_save = false;
                report.save_errors += 1;
                report.note(
                    s,
                    "checkpoint save failed (injected I/O error); continuing on retained checkpoints",
                );
            } else {
                match save_checkpoint(&store, &cfg, &sim, protocol, s) {
                    Ok(()) => {
                        report.checkpoints_written += 1;
                    }
                    Err(e) => {
                        // A failed save is not fatal: older retained
                        // checkpoints still cover recovery.
                        report.save_errors += 1;
                        report.note(s, format!("checkpoint save failed ({e}); continuing"));
                    }
                }
            }
        }

        if fault_cause.is_none() && crash {
            fault_cause = Some("injected crash".into());
        }

        if let Some(cause) = fault_cause {
            let n = report.recoveries.len() as u32 + 1;
            if n > opts.max_recoveries {
                report.note(s, format!("{cause}; recovery budget exhausted, abandoning"));
                report.outcome = SuperviseOutcome::Abandoned;
                report.final_step = s;
                return Err(SuperviseError::Abandoned(Box::new(report)));
            }
            let backoff_ms =
                backoff_with_jitter(BACKOFF_BASE_MS, BACKOFF_CAP_MS, n, cfg.fingerprint());
            opts.sleeper.sleep(backoff_ms);
            let (restored_step, restored_sim) = restore_or_cold_start(
                &store,
                &cfg,
                protocol,
                Some(&sentinel),
                opts.shards,
                total,
                &mut report,
            )?;
            sim = restored_sim;
            report.note(
                s,
                match restored_step {
                    Some(step) => format!("{cause}; recovered to checkpoint at step {step}"),
                    None => format!("{cause}; no valid checkpoint, cold restart"),
                },
            );
            report.recoveries.push(RecoveryEvent {
                at_step: s,
                cause,
                restored_step,
                backoff_ms,
            });
            s = restored_step.unwrap_or(0);
            continue;
        }

        if s == total {
            break;
        }
        sim.step();
        s += 1;
    }

    report.final_step = s;
    report.outcome = match report.recoveries.len() as u32 {
        0 => SuperviseOutcome::Completed,
        n => SuperviseOutcome::Recovered(n),
    };
    Ok((sim, report))
}

/// Protocol-length overrides a campaign run may apply on top of the
/// registry defaults (shorter settle/average phases for debug-budget
/// chaos tests, longer averaging for production sweeps).  `None` fields
/// keep the registry value for the chosen [`Scale`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolOverride {
    /// Tunnel settle steps before sampling begins.
    pub settle: Option<u64>,
    /// Tunnel averaging steps after sampling begins.
    pub average: Option<u64>,
    /// Transient window count (each window is `window_steps` long).
    pub windows: Option<u64>,
}

/// Run a scenario under supervision and produce the same [`RunOutcome`]
/// an unsupervised [`crate::run_with`] would — identical metrics, golden
/// checks, and `state_hash` — plus the supervisor's report.
///
/// Supported kinds: steady tunnel and startup-transient cases (the
/// restart and relaxation kinds own their run shapes).
pub fn run_supervised(
    s: &Scenario,
    scale: Scale,
    opts: &SuperviseOptions,
) -> Result<(RunOutcome, SupervisorReport), SuperviseError> {
    let cfg = s.tunnel_config(scale).ok_or(SuperviseError::Unsupported(
        "relaxation boxes have no step loop to supervise",
    ))?;
    run_supervised_config(s, scale, &cfg, ProtocolOverride::default(), true, opts)
}

/// [`run_supervised`] with an explicit configuration, protocol-length
/// overrides, and an opt-out for golden checks — the campaign worker's
/// entry point, where the config may carry parameter overrides that make
/// the registry goldens meaningless.
///
/// With `check` false, `checks` is empty and `passed` is `true`.
pub fn run_supervised_config(
    s: &Scenario,
    scale: Scale,
    cfg: &dsmc_engine::SimConfig,
    po: ProtocolOverride,
    check: bool,
    opts: &SuperviseOptions,
) -> Result<(RunOutcome, SupervisorReport), SuperviseError> {
    let t0 = std::time::Instant::now();
    let cfg = cfg.clone().validated();
    let mut protocol = protocol_for(s, scale, po).map_err(SuperviseError::Unsupported)?;
    let (mut sim, report) = supervise(&cfg, protocol.as_mut(), opts)?;
    let fin = protocol.finish(&mut sim);
    Ok((outcome(s, scale, check, t0, fin), report))
}

/// Serialise a report for the scenario JSON artifact.
pub fn supervisor_json(r: &SupervisorReport) -> json::Object {
    let mut j = json::Object::new();
    j.str("outcome", r.outcome.label());
    j.int("recoveries", r.recoveries.len() as i64);
    j.int("checkpoints_written", r.checkpoints_written as i64);
    j.int("save_errors", r.save_errors as i64);
    j.int("sentinel_checks", r.sentinel_checks as i64);
    j.int("final_step", r.final_step as i64);
    match r.resumed_at_start {
        Some(step) => {
            j.int("resumed_at_start", step as i64);
        }
        None => {
            j.bool("resumed_at_start", false);
        }
    }
    let events = r
        .recoveries
        .iter()
        .map(|e| {
            let mut je = json::Object::new();
            je.int("at_step", e.at_step as i64);
            je.str("cause", &e.cause);
            match e.restored_step {
                Some(step) => {
                    je.int("restored_step", step as i64);
                }
                None => {
                    je.str("restored_step", "cold-restart");
                }
            }
            je.int("backoff_ms", e.backoff_ms as i64);
            je
        })
        .collect();
    j.obj_array("recovery_events", events);
    j
}
