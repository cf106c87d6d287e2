//! Crash-safe campaign executor: process-isolated workers with
//! timeout/retry/backoff, quarantine, and graceful degradation.
//!
//! The paper's results are *campaigns* — families of wind-tunnel runs
//! across Mach/Knudsen/seed — and PR 6's supervisor only makes a single
//! run survive faults.  This module drives a whole fleet:
//!
//! * a declarative [`CampaignSpec`] lists runs as (scenario, seed,
//!   parameter overrides, shards); [`Sweep`] expands a parameter range
//!   into runs (the registry's [`crate::SweepCase`] kind compiles to one);
//! * [`run_campaign`] executes the spec across a bounded pool of
//!   **process-isolated workers** — each run is a child process driving
//!   the existing supervised path, so a segfault/OOM/`kill -9` in one run
//!   cannot take down the campaign;
//! * the executor owns the robustness policy: per-run wall-clock
//!   **timeout** (kill + classify hung), **retry** with exponential
//!   backoff and deterministic jitter under a per-run attempt budget,
//!   **quarantine** for runs that fail deterministically until the budget
//!   is spent (last stderr recorded, never retried forever), and
//!   **graceful degradation** — the campaign always terminates with a
//!   typed per-run outcome table and exits non-zero only per the
//!   documented severity policy ([`CampaignReport::exit_code`]);
//! * progress lives in a crash-safe journal written through
//!   [`dsmc_state::store::atomic_write`]: re-invoking the same campaign
//!   resumes where it died, and a journal whose spec fingerprint differs
//!   is refused with a typed error ([`CampaignError::JournalMismatch`]);
//! * runs that resolve to the *same* `SimConfig::fingerprint()` share a
//!   warm-start checkpoint cache (and exact duplicates are `Skipped`,
//!   adopting the first run's results) — retries and resumed campaigns
//!   restart from the victim's own checkpoints instead of from cold;
//! * one codec carries a run: the journal holds one [`RunRecord`] (spec,
//!   then outcome) per run; the executor hands a worker its spec, scale,
//!   checkpoint directory and cadence, result path, execution mode and
//!   injected faults as a [`WorkerTask`] container named by
//!   [`WORKER_ENV`], and the worker answers with a journal of its one run.
//!
//! Every policy branch is pinned by a deterministic
//! [`crate::CampaignFaultPlan`] (kill worker k at attempt a, stall to
//! force a timeout, corrupt its cached checkpoint), not by prose.

use crate::fault::{damage_newest, CampaignFault, CampaignFaultPlan, CheckpointDamage, Fault};
use crate::json;
use crate::supervisor::{
    backoff_with_jitter, ProtocolOverride, Sleeper, BACKOFF_BASE_MS, BACKOFF_CAP_MS, POLL_MS,
};
use crate::{
    at_density, check_goldens, find, run_supervised_config, CaseKind, CheckResult, Metric, Scale,
    Scenario, SuperviseError, SuperviseOptions, SuperviseOutcome, SweepCase,
};
use dsmc_engine::{SimConfig, StateError};
use dsmc_state::store::{atomic_write, CheckpointStore};
use dsmc_state::{Cursor, Fnv64, Reader, Section, Writer};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Section tag of the campaign journal container.
const SEC_CAMPAIGN: [u8; 4] = *b"CAMP";
/// Journal layout version (bump on incompatible change).
const JOURNAL_VERSION: u32 = 1;
/// Section tag of a worker's task container.
const SEC_TASK: [u8; 4] = *b"TASK";
/// Environment variable carrying the path of a worker's task container;
/// when set, the `scenarios` binary becomes a campaign worker.
pub const WORKER_ENV: &str = "DSMC_CAMPAIGN_WORKER";

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

/// One run of a campaign: a registry scenario plus the knobs that make
/// this run distinct (seed, parameter overrides, shard count).
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Registry scenario the run executes.
    pub scenario: String,
    /// Seed override (`None` = the scenario's checked-in seed).
    pub seed: Option<u64>,
    /// Config/protocol overrides applied in order.  Config keys: `mach`,
    /// `lambda`, `c_m`, `n_per_cell`, `density` (multiplier through
    /// [`at_density`]).  Protocol keys: `settle`, `average`, `windows`.
    pub overrides: Vec<(String, f64)>,
    /// Domain shards the worker runs under (results are shard-count
    /// invariant; this only changes how the work is executed).
    pub shards: usize,
    /// Journal/artifact label, unique within the campaign.
    pub label: String,
}

impl RunSpec {
    /// A plain run of `scenario` labelled `label`.
    pub fn new(scenario: &str, label: &str) -> Self {
        Self {
            scenario: scenario.into(),
            seed: None,
            overrides: Vec::new(),
            shards: 1,
            label: label.into(),
        }
    }

    /// Builder: set the seed override.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Builder: append a parameter override.
    pub fn set(mut self, key: &str, value: f64) -> Self {
        self.overrides.push((key.into(), value));
        self
    }

    /// Builder: set the shard count.
    pub fn sharded(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

/// A declarative campaign: named list of runs at one scale.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (artifact suffix; *not* part of the fingerprint).
    pub name: String,
    /// Scale every run executes at.
    pub scale: Scale,
    /// The runs, in scheduling order.
    pub runs: Vec<RunSpec>,
}

impl CampaignSpec {
    /// FNV-64 identity of the spec's *work* — scale and every run's
    /// scenario/seed/overrides/shards/label, order-sensitive.  The
    /// campaign name is display-only and excluded.  The journal stores
    /// this fingerprint and resume refuses a mismatch.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(b"dsmc-campaign-spec-v1");
        h.u32(scale_code(self.scale));
        h.u64(self.runs.len() as u64);
        for r in &self.runs {
            h.write(r.scenario.as_bytes());
            h.u32(0xfe);
            h.write(r.label.as_bytes());
            h.u32(0xfe);
            match r.seed {
                Some(s) => {
                    h.u32(1);
                    h.u64(s);
                }
                None => h.u32(0),
            }
            h.u64(r.overrides.len() as u64);
            for (k, v) in &r.overrides {
                h.write(k.as_bytes());
                h.u32(0xfe);
                h.f64(*v);
            }
            h.u64(r.shards as u64);
        }
        h.finish()
    }

    /// Parse the flat text spec format:
    ///
    /// ```text
    /// name = demo
    /// scale = quick
    /// [run]
    /// scenario = wedge-paper
    /// label = warm
    /// seed = 7
    /// shards = 2
    /// set mach = 3.5
    /// ```
    ///
    /// Lines are `key = value`; `#` starts a comment; each `[run]`
    /// begins a new run; `set <key> = <value>` appends an override.
    /// Labels default to `run<N>` and must be unique.
    pub fn parse(text: &str) -> Result<Self, CampaignError> {
        let mut name = String::from("campaign");
        let mut scale = Scale::Quick;
        let mut runs: Vec<RunSpec> = Vec::new();
        let bad = |line: usize, what: String| CampaignError::Spec(format!("line {line}: {what}"));
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let t = raw.split('#').next().unwrap_or("").trim();
            if t.is_empty() {
                continue;
            }
            if t == "[run]" {
                let label = format!("run{}", runs.len());
                runs.push(RunSpec::new("", &label));
                continue;
            }
            let (key, value) = t
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| bad(line, format!("expected `key = value`, got `{t}`")))?;
            let parse_f64 = |v: &str| {
                v.parse::<f64>()
                    .map_err(|_| bad(line, format!("`{v}` is not a number")))
            };
            match runs.last_mut() {
                None => match key {
                    "name" => name = value.into(),
                    "scale" => {
                        scale = match value {
                            "quick" => Scale::Quick,
                            "full" => Scale::Full,
                            other => return Err(bad(line, format!("unknown scale `{other}`"))),
                        }
                    }
                    other => return Err(bad(line, format!("unknown campaign key `{other}`"))),
                },
                Some(run) => match key {
                    "scenario" => run.scenario = value.into(),
                    "label" => run.label = value.into(),
                    "seed" => {
                        run.seed = Some(
                            value
                                .parse::<u64>()
                                .map_err(|_| bad(line, format!("`{value}` is not a valid seed")))?,
                        )
                    }
                    "shards" => {
                        run.shards = value
                            .parse::<usize>()
                            .ok()
                            .filter(|n| *n > 0)
                            .ok_or_else(|| bad(line, "shards must be a positive count".into()))?
                    }
                    set if set.starts_with("set ") => {
                        let okey = set["set ".len()..].trim();
                        run.overrides.push((okey.into(), parse_f64(value)?));
                    }
                    other => return Err(bad(line, format!("unknown run key `{other}`"))),
                },
            }
        }
        if runs.is_empty() {
            return Err(CampaignError::Spec(
                "spec declares no [run] sections".into(),
            ));
        }
        for (i, r) in runs.iter().enumerate() {
            if r.scenario.is_empty() {
                return Err(CampaignError::Spec(format!(
                    "run {i} ({}) has no scenario",
                    r.label
                )));
            }
        }
        let mut labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        if labels.len() != runs.len() {
            return Err(CampaignError::Spec("duplicate run labels".into()));
        }
        Ok(Self { name, scale, runs })
    }
}

/// A linear parameter sweep: `n` runs of `scenario` with `param` spaced
/// evenly over `[lo, hi]` — the expansion helper behind the registry's
/// [`SweepCase`] kind.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Registry scenario each point runs.
    pub scenario: String,
    /// Config override key varied across the sweep.
    pub param: String,
    /// First value.
    pub lo: f64,
    /// Last value (inclusive).
    pub hi: f64,
    /// Point count (`1` collapses to `lo`).
    pub n: usize,
    /// Seed override shared by every point.
    pub seed: Option<u64>,
    /// Shard count shared by every point.
    pub shards: usize,
}

impl Sweep {
    /// Unroll into runs, labelled `r<i>-<scenario>-<param><value>`.
    pub fn expand(&self) -> Vec<RunSpec> {
        (0..self.n.max(1))
            .map(|i| {
                let v = if self.n <= 1 {
                    self.lo
                } else {
                    self.lo + (self.hi - self.lo) * i as f64 / (self.n - 1) as f64
                };
                let mut r = RunSpec::new(
                    &self.scenario,
                    &format!("r{i:02}-{}-{}{v:.4}", self.scenario, self.param),
                )
                .set(&self.param, v);
                r.seed = self.seed;
                r.shards = self.shards;
                r
            })
            .collect()
    }
}

/// Compile a registry sweep scenario into a runnable campaign spec.
pub fn sweep_campaign(s: &Scenario, scale: Scale) -> Result<CampaignSpec, CampaignError> {
    let CaseKind::Sweep(sw) = &s.kind else {
        return Err(CampaignError::Spec(format!(
            "scenario `{}` is not a sweep",
            s.name
        )));
    };
    Ok(CampaignSpec {
        name: s.name.into(),
        scale,
        runs: Sweep {
            scenario: sw.base.into(),
            param: sw.param.into(),
            lo: sw.lo,
            hi: sw.hi,
            n: sw.n,
            seed: None,
            shards: 1,
        }
        .expand(),
    })
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a campaign could not run (per-run failures never surface here —
/// they degrade gracefully into the outcome table).
#[derive(Debug)]
pub enum CampaignError {
    /// The spec text or structure is invalid.
    Spec(String),
    /// A run names a scenario the registry does not hold.
    UnknownScenario(String),
    /// A run's scenario kind has no supervisable step loop.
    NotRunnable(String),
    /// A run uses an override key the resolver does not know.
    UnknownOverride {
        /// Label of the offending run.
        run: String,
        /// The unknown key.
        key: String,
    },
    /// A run's resolved configuration failed validation.
    Config(String),
    /// The campaign directory or journal could not be accessed.
    Io(std::io::Error),
    /// The journal container is damaged.
    State(StateError),
    /// An existing journal belongs to a different spec; refuse to adopt
    /// it rather than silently mix campaigns.
    JournalMismatch {
        /// Fingerprint the journal was written under.
        stored: u64,
        /// Fingerprint of the spec being run.
        expected: u64,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Spec(m) => write!(f, "invalid campaign spec: {m}"),
            Self::UnknownScenario(n) => write!(f, "unknown scenario `{n}`"),
            Self::NotRunnable(n) => write!(f, "scenario `{n}` has no supervisable step loop"),
            Self::UnknownOverride { run, key } => {
                write!(f, "run `{run}` uses unknown override key `{key}`")
            }
            Self::Config(m) => write!(f, "invalid run configuration: {m}"),
            Self::Io(e) => write!(f, "campaign I/O failed: {e}"),
            Self::State(e) => write!(f, "campaign journal damaged: {e}"),
            Self::JournalMismatch { stored, expected } => write!(
                f,
                "journal belongs to a different campaign spec \
                 (stored {stored:#018x}, expected {expected:#018x}); \
                 use a fresh --dir or delete the old journal"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<StateError> for CampaignError {
    fn from(e: StateError) -> Self {
        Self::State(e)
    }
}

// ---------------------------------------------------------------------------
// Config resolution
// ---------------------------------------------------------------------------

/// Resolve one run to its scenario, validated config, protocol override,
/// and whether golden checks apply (only an unmodified quick run matches
/// the checked-in goldens).  Pure — the executor uses it for cache
/// keying and dedup, the worker for the actual run, and the chaos tests
/// for their unsupervised reference arms.
pub fn resolved_config(
    run: &RunSpec,
    scale: Scale,
) -> Result<(&'static Scenario, SimConfig, ProtocolOverride, bool), CampaignError> {
    let s =
        find(&run.scenario).ok_or_else(|| CampaignError::UnknownScenario(run.scenario.clone()))?;
    let mut cfg = s
        .tunnel_config(scale)
        .ok_or_else(|| CampaignError::NotRunnable(run.scenario.clone()))?;
    let mut po = ProtocolOverride::default();
    for (key, v) in &run.overrides {
        let step = |v: f64| v.max(0.0) as u64;
        match key.as_str() {
            "mach" => cfg.mach = *v,
            "lambda" => cfg.lambda = *v,
            "c_m" => cfg.c_m = *v,
            "n_per_cell" => {
                cfg.n_per_cell = *v;
                cfg.reservoir_fill = *v * 1.4;
            }
            "density" => cfg = at_density(cfg, *v),
            "settle" => po.settle = Some(step(*v)),
            "average" => po.average = Some(step(*v)),
            "windows" => po.windows = Some(step(*v)),
            _ => {
                return Err(CampaignError::UnknownOverride {
                    run: run.label.clone(),
                    key: key.clone(),
                })
            }
        }
    }
    if let Some(seed) = run.seed {
        cfg.seed = seed;
    }
    let cfg = cfg
        .try_validated()
        .map_err(|e| CampaignError::Config(format!("run `{}`: {e}", run.label)))?;
    let pristine = run.overrides.is_empty() && run.seed.is_none() && scale == Scale::Quick;
    Ok((s, cfg, po, pristine))
}

// ---------------------------------------------------------------------------
// Outcome table + journal records
// ---------------------------------------------------------------------------

/// Where one run stands.  `Pending`/`Running` are journal states; the
/// final outcome table holds only the five terminal states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Not yet attempted (or awaiting a retry).
    Pending,
    /// A worker attempt is (or was, if the executor died) in flight.
    Running,
    /// Finished on the first attempt with no worker recoveries.
    Completed,
    /// Finished after worker recoveries and/or executor retries.
    Recovered,
    /// Every attempt hit the wall-clock timeout; the run never finished.
    TimedOut,
    /// Failed deterministically until the attempt budget was spent; the
    /// last error is recorded and the run is never retried again.
    Quarantined,
    /// Exact duplicate of an earlier run; adopted its results.
    Skipped,
}

impl RunStatus {
    /// Stable lower-case label for tables, artifacts, and CI asserts.
    pub fn label(self) -> &'static str {
        match self {
            Self::Pending => "pending",
            Self::Running => "running",
            Self::Completed => "completed",
            Self::Recovered => "recovered",
            Self::TimedOut => "timed-out",
            Self::Quarantined => "quarantined",
            Self::Skipped => "skipped",
        }
    }

    /// Whether the run needs no further scheduling.
    pub fn is_terminal(self) -> bool {
        !matches!(self, Self::Pending | Self::Running)
    }

    fn code(self) -> u32 {
        match self {
            Self::Pending => 0,
            Self::Running => 1,
            Self::Completed => 2,
            Self::Recovered => 3,
            Self::TimedOut => 4,
            Self::Quarantined => 5,
            Self::Skipped => 6,
        }
    }

    fn from_code(c: u32) -> Result<Self, StateError> {
        Ok(match c {
            0 => Self::Pending,
            1 => Self::Running,
            2 => Self::Completed,
            3 => Self::Recovered,
            4 => Self::TimedOut,
            5 => Self::Quarantined,
            6 => Self::Skipped,
            _ => return Err(StateError::Malformed("unknown run status code")),
        })
    }
}

/// Everything the journal remembers about one run.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The run's spec (identity within the campaign).
    pub spec: RunSpec,
    /// Where the run stands.
    pub status: RunStatus,
    /// Worker attempts launched so far (counted *at spawn*, so an
    /// executor crash mid-attempt still burns budget on resume).
    pub attempts: u32,
    /// In-process recoveries the successful worker performed.
    pub worker_recoveries: u32,
    /// Golden verdict of the successful run (`true` when checks did not
    /// apply — parameterised runs have no goldens).
    pub passed: bool,
    /// Whether the successful attempt warm-started from a cached
    /// checkpoint instead of a cold start.
    pub cache_hit: bool,
    /// Steps the warm start skipped (0 for a cold run).
    pub cache_saved_steps: u64,
    /// Final `state_hash` (successful runs only).
    pub state_hash: Option<u64>,
    /// Wall-clock seconds of the successful attempt.
    pub wall_seconds: f64,
    /// Last failure description (stderr tail, timeout note, …).
    pub last_error: String,
    /// Path of the worker result file (or the adopted primary's).
    pub artifact: String,
    /// Metrics the successful run extracted.
    pub metrics: Vec<(String, f64)>,
}

impl RunRecord {
    fn fresh(spec: &RunSpec) -> Self {
        Self {
            spec: spec.clone(),
            status: RunStatus::Pending,
            attempts: 0,
            worker_recoveries: 0,
            passed: false,
            cache_hit: false,
            cache_saved_steps: 0,
            state_hash: None,
            wall_seconds: 0.0,
            last_error: String::new(),
            artifact: String::new(),
            metrics: Vec::new(),
        }
    }

    /// Total recoveries the campaign performed for this run: executor
    /// retries plus in-worker supervisor recoveries, counted only once the
    /// run has finished — a run that never came back recovered nothing.
    pub fn recoveries(&self) -> u32 {
        match self.status {
            RunStatus::Completed | RunStatus::Recovered => {
                self.attempts.saturating_sub(1) + self.worker_recoveries
            }
            _ => 0,
        }
    }
}

fn scale_code(s: Scale) -> u32 {
    match s {
        Scale::Quick => 0,
        Scale::Full => 1,
    }
}

fn scale_from_code(c: u32) -> Result<Scale, StateError> {
    match c {
        0 => Ok(Scale::Quick),
        1 => Ok(Scale::Full),
        _ => Err(StateError::Malformed("unknown scale code")),
    }
}

/// Write `Some(v)` as flag 1 and `v`, `None` as flag 0 and a zero word.
fn write_opt(sec: &mut Section<'_>, v: Option<u64>) {
    sec.u32(v.is_some() as u32);
    sec.u64(v.unwrap_or(0));
}

fn read_opt(c: &mut Cursor<'_>) -> Result<Option<u64>, StateError> {
    let present = c.u32()? == 1;
    let v = c.u64()?;
    Ok(present.then_some(v))
}

/// A count, then each `(name, value)` as a string and the value's bits.
fn write_pairs(sec: &mut Section<'_>, pairs: &[(String, f64)]) {
    sec.u64(pairs.len() as u64);
    for (k, v) in pairs {
        sec.str(k);
        sec.u64(v.to_bits());
    }
}

fn read_pairs(c: &mut Cursor<'_>) -> Result<Vec<(String, f64)>, StateError> {
    let n = c.u64()?;
    (0..n)
        .map(|_| Ok((c.str()?, f64::from_bits(c.u64()?))))
        .collect()
}

/// One run's spec, as the journal and a worker's task both store it.
fn write_spec(sec: &mut Section<'_>, s: &RunSpec) {
    sec.str(&s.label);
    sec.str(&s.scenario);
    sec.u64(s.shards as u64);
    write_opt(sec, s.seed);
    write_pairs(sec, &s.overrides);
}

fn read_spec(c: &mut Cursor<'_>) -> Result<RunSpec, StateError> {
    Ok(RunSpec {
        label: c.str()?,
        scenario: c.str()?,
        shards: (c.u64()? as usize).max(1),
        seed: read_opt(c)?,
        overrides: read_pairs(c)?,
    })
}

/// One run record: its spec, then its outcome.  The journal holds one
/// per run, a worker's result file exactly one.
fn write_record(sec: &mut Section<'_>, r: &RunRecord) {
    write_spec(sec, &r.spec);
    sec.u32(r.status.code());
    sec.u32(r.attempts);
    sec.u32(r.worker_recoveries);
    sec.u32((r.passed as u32) | ((r.cache_hit as u32) << 1));
    sec.u64(r.cache_saved_steps);
    write_opt(sec, r.state_hash);
    sec.u64(r.wall_seconds.to_bits());
    sec.str(&r.last_error);
    sec.str(&r.artifact);
    write_pairs(sec, &r.metrics);
}

fn read_record(c: &mut Cursor<'_>) -> Result<RunRecord, StateError> {
    let spec = read_spec(c)?;
    let status = RunStatus::from_code(c.u32()?)?;
    let attempts = c.u32()?;
    let worker_recoveries = c.u32()?;
    let flags = c.u32()?;
    Ok(RunRecord {
        spec,
        status,
        attempts,
        worker_recoveries,
        passed: flags & 1 != 0,
        cache_hit: flags & 2 != 0,
        cache_saved_steps: c.u64()?,
        state_hash: read_opt(c)?,
        wall_seconds: f64::from_bits(c.u64()?),
        last_error: c.str()?,
        artifact: c.str()?,
        metrics: read_pairs(c)?,
    })
}

/// Atomically persist the journal (called on every state change, so a
/// `kill -9` of the executor itself loses at most the in-flight attempt).
/// A worker writes its result as a journal of its one run.
fn save_journal(
    path: &Path,
    fingerprint: u64,
    name: &str,
    scale: Scale,
    runs: &[RunRecord],
) -> Result<(), StateError> {
    let mut w = Writer::new(fingerprint);
    {
        let mut sec = w.section(SEC_CAMPAIGN);
        sec.u32(JOURNAL_VERSION);
        sec.str(name);
        sec.u32(scale_code(scale));
        sec.u64(runs.len() as u64);
        for r in runs {
            write_record(&mut sec, r);
        }
    }
    atomic_write(path, &w.finish())
}

/// Load a journal with no fingerprint expectation (the `status`
/// subcommand renders from the journal alone).  Returns the stored spec
/// fingerprint alongside the decoded state.
pub fn load_journal(path: &Path) -> Result<(u64, String, Scale, Vec<RunRecord>), CampaignError> {
    let bytes = std::fs::read(path)?;
    let r = Reader::new(&bytes)?;
    let mut c = r.section(SEC_CAMPAIGN)?;
    if c.u32()? != JOURNAL_VERSION {
        return Err(CampaignError::State(StateError::Malformed(
            "unknown campaign journal version",
        )));
    }
    let name = c.str()?;
    let scale = scale_from_code(c.u32()?)?;
    let n = c.u64()?;
    let runs = (0..n)
        .map(|_| read_record(&mut c))
        .collect::<Result<Vec<_>, _>>()?;
    c.done()?;
    Ok((r.fingerprint(), name, scale, runs))
}

/// What one worker attempt runs: the container the executor writes to
/// `logs/<tag>.attempt<k>.task` before the spawn and names in
/// [`WORKER_ENV`].
#[derive(Debug, PartialEq)]
pub struct WorkerTask {
    run: RunSpec,
    scale: Scale,
    ckpt_dir: PathBuf,
    checkpoint_every: u64,
    out: PathBuf,
    exec: dsmc_engine::ExecMode,
    kill_at: Vec<u64>,
    stall_at: Vec<u64>,
}

impl WorkerTask {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(0);
        {
            let mut sec = w.section(SEC_TASK);
            write_spec(&mut sec, &self.run);
            sec.u32(scale_code(self.scale));
            sec.str(&self.ckpt_dir.display().to_string());
            sec.u64(self.checkpoint_every);
            sec.str(&self.out.display().to_string());
            sec.str(&self.exec.to_string());
            sec.vec_u64(&self.kill_at);
            sec.vec_u64(&self.stall_at);
        }
        w.finish()
    }

    /// Decode a task container; any damage is a typed error.
    pub fn decode(bytes: &[u8]) -> Result<Self, StateError> {
        let r = Reader::new(bytes)?;
        let mut c = r.section(SEC_TASK)?;
        let task = Self {
            run: read_spec(&mut c)?,
            scale: scale_from_code(c.u32()?)?,
            ckpt_dir: c.str()?.into(),
            checkpoint_every: c.u64()?,
            out: c.str()?.into(),
            exec: (c.str()?.parse()).map_err(|_| StateError::Malformed("unknown exec mode"))?,
            kill_at: c.vec_u64()?,
            stall_at: c.vec_u64()?,
        };
        c.done()?;
        Ok(task)
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// How a campaign is driven and protected.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Campaign directory: journal, per-fingerprint checkpoint caches,
    /// worker logs, and result files all live under it.
    pub dir: PathBuf,
    /// Worker pool size (clamped to ≥ 1).
    pub max_workers: usize,
    /// Per-attempt wall-clock budget; a worker past it is killed and the
    /// attempt classified as hung.
    pub timeout: Duration,
    /// Per-run attempt budget; a run failing this many times lands in
    /// `TimedOut` (all-hung) or `Quarantined`.
    pub max_attempts: u32,
    /// Checkpoint cadence workers run with (the warm-start cache grain).
    pub checkpoint_every: u64,
    /// Per-shard phase execution every worker runs under (carried in its
    /// task).  Execution layout, not work identity: outside
    /// both the spec fingerprint and the journal, and bit-identical at
    /// any setting, so resuming a campaign under a different mode is safe.
    pub exec: dsmc_engine::ExecMode,
    /// Deterministic campaign-level fault schedule (empty in production).
    pub faults: CampaignFaultPlan,
    /// How retry backoffs are slept (injectable test clock).
    pub sleeper: Sleeper,
    /// Worker executable; `None` = this very executable (the `scenarios`
    /// bin re-enters itself through [`WORKER_ENV`]; a test harness names
    /// its own test binary here).
    pub worker_exe: Option<PathBuf>,
    /// Arguments the worker executable is started with; its task travels
    /// in [`WORKER_ENV`] (a test harness selects its worker helper test
    /// with these).
    pub worker_args: Vec<String>,
}

impl CampaignOptions {
    /// Production-shaped defaults for a campaign rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            max_workers: 2,
            timeout: Duration::from_secs(1800),
            max_attempts: 3,
            checkpoint_every: 100,
            exec: dsmc_engine::ExecMode::default(),
            faults: CampaignFaultPlan::none(),
            sleeper: Sleeper::real(),
            worker_exe: None,
            worker_args: Vec::new(),
        }
    }
}

/// The campaign's final word: the outcome table plus fleet-level stats.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Spec fingerprint the journal is keyed by.
    pub spec_fingerprint: u64,
    /// Per-run outcome records, in spec order (all terminal).
    pub runs: Vec<RunRecord>,
    /// Executor wall-clock seconds for this invocation.
    pub wall_seconds: f64,
}

impl CampaignReport {
    /// How many runs ended in `status`.
    pub fn count(&self, status: RunStatus) -> usize {
        self.runs.iter().filter(|r| r.status == status).count()
    }

    /// Whether any run never finished (timed out or quarantined).
    pub fn degraded(&self) -> bool {
        self.runs
            .iter()
            .any(|r| matches!(r.status, RunStatus::TimedOut | RunStatus::Quarantined))
    }

    /// Whether every finished run passed its golden checks.
    pub fn all_passed(&self) -> bool {
        self.runs
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    RunStatus::Completed | RunStatus::Recovered | RunStatus::Skipped
                )
            })
            .all(|r| r.passed)
    }

    /// Successful runs that warm-started from the checkpoint cache.
    pub fn cache_hits(&self) -> usize {
        self.runs.iter().filter(|r| r.cache_hit).count()
    }

    /// Total steps the checkpoint cache saved re-running.
    pub fn cache_saved_steps(&self) -> u64 {
        self.runs.iter().map(|r| r.cache_saved_steps).sum()
    }

    /// The documented severity policy: `0` all runs finished and passed,
    /// `2` every run finished but a golden drifted, `4` degraded (at
    /// least one run timed out or was quarantined — partial results
    /// were still written).
    pub fn exit_code(&self) -> i32 {
        if self.degraded() {
            4
        } else if !self.all_passed() {
            2
        } else {
            0
        }
    }

    /// Render the outcome table.
    pub fn render_table(&self) -> String {
        let width = self
            .runs
            .iter()
            .map(|r| r.spec.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let mut out = format!(
            "{:<width$}  {:<11} {:>8} {:>9} {:>6}  state_hash\n",
            "run", "status", "attempts", "recovered", "cache"
        );
        for r in &self.runs {
            let hash = r
                .state_hash
                .map(|h| format!("{h:#018x}"))
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{:<width$}  {:<11} {:>8} {:>9} {:>6}  {}{}\n",
                r.spec.label,
                r.status.label(),
                r.attempts,
                r.recoveries(),
                if r.cache_hit { "warm" } else { "cold" },
                hash,
                if r.last_error.is_empty() {
                    String::new()
                } else {
                    format!("  [{}]", first_line(&r.last_error))
                },
            ));
        }
        out.push_str(&format!(
            "{} completed, {} recovered, {} skipped, {} timed-out, {} quarantined; \
             {} cache hits saved {} steps; exit {}\n",
            self.count(RunStatus::Completed),
            self.count(RunStatus::Recovered),
            self.count(RunStatus::Skipped),
            self.count(RunStatus::TimedOut),
            self.count(RunStatus::Quarantined),
            self.cache_hits(),
            self.cache_saved_steps(),
            self.exit_code(),
        ));
        out
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or("")
}

fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// One in-flight worker.
struct Active {
    run: usize,
    child: std::process::Child,
    deadline: Instant,
    result_path: PathBuf,
    stderr_path: PathBuf,
}

/// Execute (or resume) `spec` under the campaign policy.  Always returns
/// a full outcome table on `Ok` — per-run failures degrade into
/// `TimedOut`/`Quarantined` records, never into an `Err`.  `Err` means
/// the campaign itself could not run (bad spec, foreign journal, dead
/// directory).
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> Result<CampaignReport, CampaignError> {
    let t0 = Instant::now();
    let fp = spec.fingerprint();
    std::fs::create_dir_all(opts.dir.join("cache"))?;
    std::fs::create_dir_all(opts.dir.join("logs"))?;
    std::fs::create_dir_all(opts.dir.join("results"))?;
    let journal_path = opts.dir.join("campaign.journal");
    let max_attempts = opts.max_attempts.max(1);

    let mut runs: Vec<RunRecord> = if journal_path.exists() {
        let (stored, _name, _scale, runs) = load_journal(&journal_path)?;
        if stored != fp {
            return Err(CampaignError::JournalMismatch {
                stored,
                expected: fp,
            });
        }
        if runs.len() != spec.runs.len() {
            return Err(CampaignError::State(StateError::Malformed(
                "journal run count does not match spec",
            )));
        }
        runs
    } else {
        spec.runs.iter().map(RunRecord::fresh).collect()
    };

    // Attempts the previous executor died holding: the worker is gone
    // (or orphaned — its result will simply be overwritten); the attempt
    // burns budget and the run becomes schedulable again.
    for r in &mut runs {
        if r.status == RunStatus::Running {
            r.last_error = "attempt died with the executor".into();
            r.status = RunStatus::Pending;
        }
    }

    // Resolve every run once: cache keys, dedup groups, and early
    // detection of configs that cannot even resolve (they still burn
    // worker attempts so the quarantine record carries real stderr).
    let mut cache_dirs: Vec<PathBuf> = Vec::with_capacity(runs.len());
    let mut dup_of: Vec<Option<usize>> = vec![None; runs.len()];
    {
        let mut seen: Vec<(u64, ProtocolOverride, bool, usize)> = Vec::new();
        for (i, r) in spec.runs.iter().enumerate() {
            match resolved_config(r, spec.scale) {
                Ok((_s, cfg, po, pristine)) => {
                    let cfp = cfg.fingerprint();
                    cache_dirs.push(opts.dir.join("cache").join(format!("fp{cfp:016x}")));
                    if let Some((.., first)) = seen
                        .iter()
                        .find(|(f, p, g, _)| *f == cfp && *p == po && *g == pristine)
                    {
                        dup_of[i] = Some(*first);
                    } else {
                        seen.push((cfp, po, pristine, i));
                    }
                }
                Err(_) => {
                    // Unresolvable config: label-keyed scratch dir; the
                    // worker will fail deterministically and quarantine.
                    cache_dirs.push(opts.dir.join("cache").join(sanitize(&r.label)));
                }
            }
        }
    }

    let mut plan = opts.faults.clone();
    let mut active: Vec<Active> = Vec::new();
    save_journal(&journal_path, fp, &spec.name, spec.scale, &runs)?;

    loop {
        // Settle duplicates whose primary reached a terminal state.
        let mut changed = false;
        for i in 0..runs.len() {
            let Some(p) = dup_of[i] else { continue };
            if runs[i].status.is_terminal() || !runs[p].status.is_terminal() {
                continue;
            }
            let primary = runs[p].clone();
            let r = &mut runs[i];
            r.status = RunStatus::Skipped;
            match primary.status {
                RunStatus::Completed | RunStatus::Recovered | RunStatus::Skipped => {
                    r.passed = primary.passed;
                    r.state_hash = primary.state_hash;
                    r.metrics = primary.metrics.clone();
                    r.artifact = primary.artifact.clone();
                    r.cache_hit = true;
                    r.last_error = format!("duplicate of `{}`", primary.spec.label);
                }
                _ => {
                    r.passed = false;
                    r.last_error = format!(
                        "duplicate of `{}`, which ended {}",
                        primary.spec.label,
                        primary.status.label()
                    );
                }
            }
            changed = true;
        }

        // Quarantine runs whose budget is already spent (e.g. a resumed
        // journal whose final attempt died with the executor).
        for r in &mut runs {
            if r.status == RunStatus::Pending && r.attempts >= max_attempts {
                r.status = RunStatus::Quarantined;
                changed = true;
            }
        }
        if changed {
            save_journal(&journal_path, fp, &spec.name, spec.scale, &runs)?;
        }

        // Launch workers into free pool slots.
        while active.len() < opts.max_workers.max(1) {
            let Some(i) = (0..runs.len()).find(|&i| {
                runs[i].status == RunStatus::Pending
                    && dup_of[i].is_none()
                    && runs[i].attempts < max_attempts
                    && !active.iter().any(|a| a.run == i)
            }) else {
                break;
            };
            let attempt = runs[i].attempts + 1;
            runs[i].attempts = attempt;
            runs[i].status = RunStatus::Running;
            // Journal the attempt *before* the spawn: if we die right
            // here, resume still counts it against the budget.
            save_journal(&journal_path, fp, &spec.name, spec.scale, &runs)?;
            match spawn_attempt(spec, opts, i, attempt, &cache_dirs[i], &mut plan) {
                Ok(a) => active.push(a),
                Err(msg) => {
                    settle_failure(&mut runs[i], max_attempts, false, msg, opts, fp);
                    save_journal(&journal_path, fp, &spec.name, spec.scale, &runs)?;
                }
            }
        }

        if active.is_empty() {
            let unfinished = runs.iter().any(|r| !r.status.is_terminal());
            if !unfinished {
                break;
            }
            // Only duplicates of in-flight primaries can be unfinished
            // with an empty pool and nothing spawnable; with no pool
            // there is no in-flight primary, so this is a stall guard.
            continue;
        }

        // Reap: completed children and blown deadlines.
        std::thread::sleep(Duration::from_millis(POLL_MS));
        let mut k = 0;
        while k < active.len() {
            let timed_out = Instant::now() >= active[k].deadline;
            let exited = match active[k].child.try_wait() {
                Ok(st) => st,
                Err(e) => {
                    eprintln!("campaign: cannot poll worker: {e}");
                    None
                }
            };
            if exited.is_none() && !timed_out {
                k += 1;
                continue;
            }
            let mut a = active.swap_remove(k);
            let r = &mut runs[a.run];
            let hung = exited.is_none();
            let end = if hung {
                let _ = a.child.kill();
                let _ = a.child.wait();
                Err(format!(
                    "attempt {} exceeded the {:.0}s timeout and was killed",
                    r.attempts,
                    opts.timeout.as_secs_f64()
                ))
            } else {
                attempt_result(&a.result_path, &a.stderr_path)
            };
            match end {
                Ok(res) => {
                    let status = if r.attempts == 1 && res.worker_recoveries == 0 {
                        RunStatus::Completed
                    } else {
                        RunStatus::Recovered
                    };
                    *r = RunRecord {
                        spec: r.spec.clone(),
                        status,
                        attempts: r.attempts,
                        artifact: a.result_path.display().to_string(),
                        ..res
                    };
                }
                Err(note) => settle_failure(r, max_attempts, hung, note, opts, fp),
            }
            save_journal(&journal_path, fp, &spec.name, spec.scale, &runs)?;
        }
    }

    Ok(CampaignReport {
        name: spec.name.clone(),
        spec_fingerprint: fp,
        runs,
        wall_seconds: t0.elapsed().as_secs_f64(),
    })
}

/// Record a failed attempt: quarantine/timeout when the budget is spent,
/// otherwise back off (jittered, via the injectable sleeper) and requeue.
fn settle_failure(
    r: &mut RunRecord,
    max_attempts: u32,
    hung: bool,
    note: String,
    opts: &CampaignOptions,
    fp: u64,
) {
    r.last_error = note;
    if r.attempts >= max_attempts {
        r.status = if hung {
            RunStatus::TimedOut
        } else {
            RunStatus::Quarantined
        };
    } else {
        let salt = fp ^ fnv_label(&r.spec.label);
        let ms = backoff_with_jitter(BACKOFF_BASE_MS, BACKOFF_CAP_MS, r.attempts, salt);
        opts.sleeper.sleep(ms);
        r.status = RunStatus::Pending;
    }
}

fn fnv_label(label: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(label.as_bytes());
    h.finish()
}

fn spawn_attempt(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
    i: usize,
    attempt: u32,
    cache_dir: &Path,
    plan: &mut CampaignFaultPlan,
) -> Result<Active, String> {
    let run = &spec.runs[i];
    let tag = sanitize(&run.label);
    let result_path = opts.dir.join("results").join(format!("{tag}.run"));
    let log = |ext: &str| (opts.dir.join("logs")).join(format!("{tag}.attempt{attempt}.{ext}"));
    let (task_path, stdout_path, stderr_path) = (log("task"), log("stdout"), log("stderr"));
    // A stale result from an earlier attempt must never be read as this
    // attempt's verdict.
    let _ = std::fs::remove_file(&result_path);

    let mut task = WorkerTask {
        run: run.clone(),
        scale: spec.scale,
        ckpt_dir: cache_dir.to_path_buf(),
        checkpoint_every: opts.checkpoint_every,
        out: result_path.clone(),
        exec: opts.exec,
        kill_at: Vec::new(),
        stall_at: Vec::new(),
    };
    for fault in plan.take((i, attempt)) {
        match fault {
            CampaignFault::Kill { at_step } => task.kill_at.push(at_step),
            CampaignFault::Stall { at_step } => task.stall_at.push(at_step),
            CampaignFault::CorruptCheckpoint => {
                if let Ok(store) = CheckpointStore::new(cache_dir, "run", usize::MAX) {
                    damage_newest(&store, CheckpointDamage::FlipByte);
                }
            }
        }
    }
    // Read once by the child spawned next; a resumed executor writes a
    // fresh task per attempt, so no fsync.
    std::fs::write(&task_path, task.encode())
        .map_err(|e| format!("cannot write worker task: {e}"))?;

    let exe = match &opts.worker_exe {
        Some(p) => p.clone(),
        None => std::env::current_exe().map_err(|e| format!("cannot locate worker exe: {e}"))?,
    };
    let stdout =
        std::fs::File::create(&stdout_path).map_err(|e| format!("cannot open worker log: {e}"))?;
    let stderr =
        std::fs::File::create(&stderr_path).map_err(|e| format!("cannot open worker log: {e}"))?;
    let child = std::process::Command::new(&exe)
        .args(&opts.worker_args)
        .env(WORKER_ENV, &task_path)
        .stdin(std::process::Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("cannot spawn worker `{}`: {e}", exe.display()))?;
    Ok(Active {
        run: i,
        child,
        deadline: Instant::now() + opts.timeout,
        result_path,
        stderr_path,
    })
}

/// A finished worker's verdict: its result record when it completed or
/// recovered, else why the attempt failed.
fn attempt_result(result_path: &Path, stderr_path: &Path) -> Result<RunRecord, String> {
    match load_journal(result_path).map(|(.., runs)| <[RunRecord; 1]>::try_from(runs)) {
        Ok(Ok([res])) if matches!(res.status, RunStatus::Completed | RunStatus::Recovered) => {
            Ok(res)
        }
        Ok(Ok([res])) => Err(res.last_error),
        Ok(Err(runs)) => Err(format!(
            "unreadable worker result: {} run records, expected one",
            runs.len()
        )),
        Err(CampaignError::Io(_)) => Err(format!(
            "worker died without a result; stderr tail: {}",
            stderr_tail(stderr_path)
        )),
        Err(e) => Err(format!("unreadable worker result: {e}")),
    }
}

fn stderr_tail(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let t = text.trim();
    if t.is_empty() {
        return "(empty)".into();
    }
    let tail: Vec<&str> = t.lines().rev().take(4).collect();
    tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// If [`WORKER_ENV`] is set, run as a campaign worker and return its
/// exit code; otherwise `None`.  The `scenarios` bin (and the test
/// harness's worker helper) calls this before normal argument parsing.
///
/// The worker runs the task's scenario supervised, writes its result
/// through [`atomic_write`] as a journal of its one run (status
/// `Completed`/`Recovered`, or `Pending` with `last_error` set when the
/// supervisor abandoned the run), and exits `0` ok, `2` golden drift,
/// `3` abandoned, `1` config/usage error.
pub fn maybe_worker_from_env() -> Option<i32> {
    let task = std::env::var_os(WORKER_ENV)?;
    Some(run_worker(Path::new(&task)).unwrap_or_else(|msg| {
        eprintln!("campaign worker: {msg}");
        1
    }))
}

fn run_worker(task_path: &Path) -> Result<i32, String> {
    let bytes = std::fs::read(task_path).map_err(|e| format!("cannot read task: {e}"))?;
    let task = WorkerTask::decode(&bytes).map_err(|e| format!("bad task: {e}"))?;
    let (s, cfg, po, pristine) =
        resolved_config(&task.run, task.scale).map_err(|e| e.to_string())?;
    let mut sopts = SuperviseOptions::new(task.ckpt_dir, "run");
    sopts.checkpoint_every = task.checkpoint_every.max(1);
    sopts.shards = task.run.shards.max(1);
    sopts.exec = task.exec;
    for &step in &task.kill_at {
        sopts.faults = sopts.faults.and(step, Fault::KillHard);
    }
    for &step in &task.stall_at {
        sopts.faults = sopts.faults.and(step, Fault::Stall);
    }
    let mut res = RunRecord::fresh(&task.run);
    let code = match run_supervised_config(s, task.scale, &cfg, po, pristine, &sopts) {
        Ok((outcome, report)) => {
            res.status = match report.outcome {
                SuperviseOutcome::Completed => RunStatus::Completed,
                _ => RunStatus::Recovered,
            };
            res.worker_recoveries = report.recoveries.len() as u32;
            res.passed = outcome.passed;
            res.state_hash = outcome.state_hash;
            res.cache_hit = report.resumed_at_start.is_some();
            res.cache_saved_steps = report.resumed_at_start.unwrap_or(0);
            res.wall_seconds = outcome.wall_seconds;
            res.metrics = (outcome.metrics.iter())
                .map(|m| (m.name.to_string(), m.value))
                .collect();
            if outcome.passed {
                0
            } else {
                2
            }
        }
        Err(SuperviseError::Abandoned(report)) => {
            res.worker_recoveries = report.recoveries.len() as u32;
            res.last_error = format!(
                "worker abandoned the run after {} recoveries",
                report.recoveries.len()
            );
            eprint!("{}", report.render_log());
            3
        }
        Err(e) => return Err(e.to_string()),
    };
    save_journal(&task.out, 0, &task.run.label, task.scale, &[res])
        .map_err(|e| format!("cannot write result: {e}"))?;
    Ok(code)
}

// ---------------------------------------------------------------------------
// Sweep reduction + artifact
// ---------------------------------------------------------------------------

/// Reduce a sweep campaign's outcome table into the sweep scenario's
/// golden-checked metrics: how many points finished, and the worst
/// |curve metric| anywhere on the curve.
pub fn sweep_metrics(sw: &SweepCase, runs: &[RunRecord]) -> Vec<Metric> {
    let ok = runs
        .iter()
        .filter(|r| {
            matches!(
                r.status,
                RunStatus::Completed | RunStatus::Recovered | RunStatus::Skipped
            )
        })
        .count();
    let worst = runs
        .iter()
        .flat_map(|r| r.metrics.iter())
        .filter(|(name, _)| name == sw.curve_metric)
        .map(|(_, v)| v.abs())
        .fold(0.0f64, f64::max);
    vec![
        Metric {
            name: "sweep_runs_ok",
            value: ok as f64,
        },
        Metric {
            name: "curve_worst_abs",
            value: worst,
        },
    ]
}

/// Golden-check a finished sweep campaign against its registry scenario.
pub fn check_sweep_goldens(s: &Scenario, scale: Scale, runs: &[RunRecord]) -> Vec<CheckResult> {
    let CaseKind::Sweep(sw) = &s.kind else {
        return Vec::new();
    };
    check_goldens(s, scale, &sweep_metrics(sw, runs))
}

/// Serialise a campaign report for the `BENCH_campaign_<name>.json`
/// artifact: the outcome table, the severity verdict, and the honest
/// cache accounting the ROADMAP item asks for.
pub fn campaign_json(report: &CampaignReport) -> json::Object {
    let mut j = json::Object::new();
    j.str("campaign", &report.name);
    j.str(
        "spec_fingerprint",
        &format!("{:#018x}", report.spec_fingerprint),
    );
    j.num("wall_seconds", report.wall_seconds);
    j.int("exit_code", report.exit_code() as i64);
    j.bool("degraded", report.degraded());
    let mut counts = json::Object::new();
    for st in [
        RunStatus::Completed,
        RunStatus::Recovered,
        RunStatus::Skipped,
        RunStatus::TimedOut,
        RunStatus::Quarantined,
    ] {
        counts.int(st.label(), report.count(st) as i64);
    }
    j.obj("outcomes", counts);
    j.int("cache_hits", report.cache_hits() as i64);
    j.int("cache_saved_steps", report.cache_saved_steps() as i64);
    let quarantined: Vec<&str> = report
        .runs
        .iter()
        .filter(|r| matches!(r.status, RunStatus::TimedOut | RunStatus::Quarantined))
        .map(|r| r.spec.label.as_str())
        .collect();
    j.str_array("unfinished_runs", &quarantined);
    let rows = report
        .runs
        .iter()
        .map(|r| {
            let mut row = json::Object::new();
            row.str("run", &r.spec.label);
            row.str("scenario", &r.spec.scenario);
            row.str("status", r.status.label());
            row.int("attempts", r.attempts as i64);
            row.int("recoveries", r.recoveries() as i64);
            row.bool("passed", r.passed);
            row.bool("cache_hit", r.cache_hit);
            row.int("cache_saved_steps", r.cache_saved_steps as i64);
            row.num("wall_seconds", r.wall_seconds);
            if let Some(h) = r.state_hash {
                row.str("state_hash", &format!("{h:#018x}"));
            }
            if !r.last_error.is_empty() {
                row.str("last_error", first_line(&r.last_error));
            }
            let mut jm = json::Object::new();
            for (k, v) in &r.metrics {
                jm.num(k, *v);
            }
            row.obj("metrics", jm);
            row
        })
        .collect();
    j.obj_array("runs", rows);
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> CampaignSpec {
        CampaignSpec {
            name: "demo".into(),
            scale: Scale::Quick,
            runs: vec![
                RunSpec::new("wedge-paper", "a").set("mach", 3.5),
                RunSpec::new("wedge-paper", "b").seeded(7),
            ],
        }
    }

    #[test]
    fn spec_fingerprint_is_stable_and_order_sensitive() {
        let a = demo_spec();
        let b = demo_spec();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut renamed = demo_spec();
        renamed.name = "other".into();
        assert_eq!(
            a.fingerprint(),
            renamed.fingerprint(),
            "campaign name is display-only"
        );
        let mut swapped = demo_spec();
        swapped.runs.swap(0, 1);
        assert_ne!(a.fingerprint(), swapped.fingerprint());
        let mut tweaked = demo_spec();
        tweaked.runs[0].overrides[0].1 = 3.6;
        assert_ne!(a.fingerprint(), tweaked.fingerprint());
    }

    #[test]
    fn sweep_expands_linearly_with_unique_labels() {
        let sweep = Sweep {
            scenario: "wedge-paper".into(),
            param: "mach".into(),
            lo: 3.0,
            hi: 6.0,
            n: 4,
            seed: Some(9),
            shards: 2,
        };
        let runs = sweep.expand();
        assert_eq!(runs.len(), 4);
        let values: Vec<f64> = runs.iter().map(|r| r.overrides[0].1).collect();
        assert_eq!(values, vec![3.0, 4.0, 5.0, 6.0]);
        for r in &runs {
            assert_eq!(r.seed, Some(9));
            assert_eq!(r.shards, 2);
            assert_eq!(r.overrides[0].0, "mach");
        }
        let mut labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4, "labels must be unique");
    }

    #[test]
    fn spec_parser_round_trips_the_documented_format() {
        let text = "
            # demo campaign
            name = demo
            scale = quick
            [run]
            scenario = wedge-paper
            label = a
            set mach = 3.5
            [run]
            scenario = wedge-paper
            label = b
            seed = 7
        ";
        let spec = CampaignSpec::parse(text).expect("spec parses");
        assert_eq!(spec, demo_spec());
        assert!(CampaignSpec::parse("name = x").is_err(), "no runs");
        assert!(
            CampaignSpec::parse("[run]\nscenario = a\n[run]\nscenario = b\nlabel = run0").is_err(),
            "duplicate labels"
        );
        assert!(CampaignSpec::parse("[run]\nscenario = a\nbogus = 1").is_err());
    }

    #[test]
    fn resolved_config_applies_overrides_and_rejects_unknown_keys() {
        let run = RunSpec::new("wedge-paper", "m35")
            .set("mach", 3.5)
            .seeded(99);
        let (_s, cfg, po, pristine) = resolved_config(&run, Scale::Quick).expect("resolves");
        assert_eq!(cfg.mach, 3.5);
        assert_eq!(cfg.seed, 99);
        assert!(!pristine, "overridden runs have no goldens");
        assert_eq!(po, ProtocolOverride::default());

        let (_, _, po, _) = resolved_config(
            &RunSpec::new("wedge-paper", "short")
                .set("settle", 20.0)
                .set("average", 20.0),
            Scale::Quick,
        )
        .expect("protocol overrides resolve");
        assert_eq!(po.settle, Some(20));
        assert_eq!(po.average, Some(20));

        let (_s, _cfg, _po, pristine) =
            resolved_config(&RunSpec::new("wedge-paper", "plain"), Scale::Quick).expect("plain");
        assert!(pristine, "unmodified quick runs keep their goldens");

        match resolved_config(
            &RunSpec::new("wedge-paper", "x").set("machh", 3.0),
            Scale::Quick,
        ) {
            Err(CampaignError::UnknownOverride { run, key }) => {
                assert_eq!(run, "x");
                assert_eq!(key, "machh");
            }
            other => panic!("expected UnknownOverride, got {other:?}"),
        }
        assert!(matches!(
            resolved_config(&RunSpec::new("nope", "x"), Scale::Quick),
            Err(CampaignError::UnknownScenario(_))
        ));
        // A config `try_validated` refuses comes back typed, naming the run
        // and carrying the `ConfigError` text.  (A spec cannot reach the
        // grid fields; their limits apply to registry configs through the
        // same call.)
        match resolved_config(
            &RunSpec::new("wedge-paper", "x").set("mach", -4.0),
            Scale::Quick,
        ) {
            Err(CampaignError::Config(why)) => {
                assert!(why.contains("run `x`") && why.contains("mach"), "{why}");
            }
            other => panic!("expected Config, got {other:?}"),
        }
    }

    #[test]
    fn journal_round_trips_and_refuses_foreign_fingerprints() {
        let dir =
            std::env::temp_dir().join(format!("dsmc_campaign_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.journal");
        let spec = demo_spec();
        let mut runs: Vec<RunRecord> = spec.runs.iter().map(RunRecord::fresh).collect();
        runs[0].status = RunStatus::Recovered;
        runs[0].attempts = 2;
        runs[0].worker_recoveries = 1;
        runs[0].passed = true;
        runs[0].cache_hit = true;
        runs[0].cache_saved_steps = 400;
        runs[0].state_hash = Some(0xDEADBEEF);
        runs[0].wall_seconds = 1.25;
        runs[0].last_error = "stall at step 10".into();
        runs[0].metrics = vec![("shock_angle_err_deg".into(), 0.37)];
        save_journal(&path, spec.fingerprint(), &spec.name, spec.scale, &runs).unwrap();

        let (fp, name, scale, loaded) = load_journal(&path).expect("journal loads");
        assert_eq!(fp, spec.fingerprint());
        assert_eq!(name, "demo");
        assert_eq!(scale, Scale::Quick);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].spec, spec.runs[0]);
        assert_eq!(loaded[0].status, RunStatus::Recovered);
        assert_eq!(loaded[0].attempts, 2);
        assert_eq!(loaded[0].worker_recoveries, 1);
        assert!(loaded[0].passed && loaded[0].cache_hit);
        assert_eq!(loaded[0].cache_saved_steps, 400);
        assert_eq!(loaded[0].state_hash, Some(0xDEADBEEF));
        assert_eq!(loaded[0].wall_seconds, 1.25);
        assert_eq!(loaded[0].last_error, "stall at step 10");
        assert_eq!(
            loaded[0].metrics,
            vec![("shock_angle_err_deg".to_string(), 0.37)]
        );
        assert_eq!(loaded[1].status, RunStatus::Pending);

        // The refusal path run_campaign takes on a foreign journal.
        let mut other = demo_spec();
        other.runs[0].overrides[0].1 = 9.9;
        assert_ne!(other.fingerprint(), spec.fingerprint());
        let opts = CampaignOptions::new(&dir);
        match run_campaign(&other, &opts) {
            Err(CampaignError::JournalMismatch { stored, expected }) => {
                assert_eq!(stored, spec.fingerprint());
                assert_eq!(expected, other.fingerprint());
            }
            other => panic!("expected JournalMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_a_finished_run_counts_its_retries_as_recoveries() {
        let spec = demo_spec();
        let mut r = RunRecord::fresh(&spec.runs[0]);
        r.attempts = 2;
        r.worker_recoveries = 1;
        r.status = RunStatus::Quarantined;
        r.last_error = "unknown override key `machh`".into();
        assert_eq!(r.recoveries(), 0, "both attempts died");
        r.status = RunStatus::Recovered;
        assert_eq!(r.recoveries(), 2);
    }

    #[test]
    fn task_and_result_round_trip_through_the_run_codec() {
        use dsmc_engine::ExecMode;
        // demo_spec's first run has an override and no seed, its second a
        // seed and no override.
        let spec = demo_spec();
        for (run, exec, kill_at) in [
            (&spec.runs[0], ExecMode::Threaded { workers: 2 }, vec![800]),
            (&spec.runs[1], ExecMode::Serial, vec![]),
        ] {
            let task = WorkerTask {
                run: run.clone().sharded(3),
                scale: Scale::Full,
                ckpt_dir: "campaign/cache/fp00000000deadbeef".into(),
                checkpoint_every: 100,
                out: "campaign/results/a.run".into(),
                exec,
                kill_at,
                stall_at: vec![500],
            };
            assert_eq!(WorkerTask::decode(&task.encode()).expect("decodes"), task);
        }
        assert!(WorkerTask::decode(&[0; 40]).is_err());

        let dir = std::env::temp_dir().join(format!("dsmc_campaign_result_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.run");
        let mut res = RunRecord::fresh(&spec.runs[1]);
        res.status = RunStatus::Recovered;
        res.worker_recoveries = 2;
        res.passed = true;
        res.cache_hit = true;
        res.cache_saved_steps = 400;
        res.state_hash = Some(0xDEADBEEF);
        res.wall_seconds = 1.5;
        res.metrics = vec![("shock_angle_err_deg".into(), 0.37), ("cd".into(), -1e-9)];
        save_journal(&path, 0, "b", Scale::Quick, std::slice::from_ref(&res)).unwrap();
        match attempt_result(&path, &dir.join("none.stderr")) {
            Ok(back) => {
                assert_eq!(back.spec, res.spec);
                assert_eq!(back.status, RunStatus::Recovered);
                assert_eq!(back.worker_recoveries, 2);
                assert!(back.passed && back.cache_hit);
                assert_eq!(back.cache_saved_steps, 400);
                assert_eq!(back.state_hash, Some(0xDEADBEEF));
                assert_eq!(back.wall_seconds, 1.5);
                assert_eq!(back.metrics, res.metrics);
            }
            Err(why) => panic!("a recovered record is a successful attempt: {why}"),
        }
        res.status = RunStatus::Pending;
        res.last_error = "worker abandoned the run after 2 recoveries".into();
        save_journal(&path, 0, "b", Scale::Quick, std::slice::from_ref(&res)).unwrap();
        assert_eq!(
            attempt_result(&path, &dir.join("none.stderr")).map(|_| ()),
            Err(res.last_error.clone()),
            "a pending record is a failed attempt"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn severity_policy_orders_degraded_over_drift() {
        let spec = demo_spec();
        let mut runs: Vec<RunRecord> = spec.runs.iter().map(RunRecord::fresh).collect();
        runs[0].status = RunStatus::Completed;
        runs[0].passed = true;
        runs[1].status = RunStatus::Completed;
        runs[1].passed = true;
        let mut report = CampaignReport {
            name: "demo".into(),
            spec_fingerprint: spec.fingerprint(),
            runs,
            wall_seconds: 0.0,
        };
        assert_eq!(report.exit_code(), 0);
        report.runs[1].passed = false;
        assert_eq!(report.exit_code(), 2, "drift alone is exit 2");
        report.runs[0].status = RunStatus::Quarantined;
        assert_eq!(report.exit_code(), 4, "degradation dominates");
        assert!(report.degraded());
        let table = report.render_table();
        assert!(table.contains("quarantined"), "table renders: {table}");
    }
}
