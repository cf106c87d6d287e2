//! Scenario registry and golden-metric regression harness.
//!
//! The paper validates one workload — the Mach-4 wedge in a rarefied wind
//! tunnel — but a DSMC code earns trust through a *suite* of named,
//! reproducible cases with reference metrics.  This crate is that suite:
//!
//! * [`registry`](mod@registry) — the declarative table of named cases.  Each
//!   [`Scenario`] carries a [`SimConfig`] builder, a run protocol at
//!   [`Scale::Quick`] and [`Scale::Full`], a metric-extraction function,
//!   and a set of scalar **golden** values with tolerances.
//! * [`run`] — executes one case, computes its metrics (scenario-specific
//!   flow quantities plus the standard conservation residuals), and
//!   compares against the goldens at QUICK scale.  Steady and transient
//!   cases are a [`Protocol`] walked by a bare loop here and by the
//!   recovering loop in [`supervisor`](mod@supervisor) (ARCHITECTURE.md,
//!   "Run shapes").
//! * the `scenarios` binary — runs any case by name, prints the
//!   comparison table, emits a `BENCH_scenario_<name>.json` artifact, and
//!   exits non-zero when a golden metric drifts outside its tolerance.
//!
//! Every run is bit-deterministic for a fixed seed and independent of the
//! rayon thread count, so the goldens recorded here reproduce *exactly* in
//! CI; the tolerances exist to give legitimate physics-preserving
//! refactors slack, not to absorb noise.

#![warn(missing_docs)]

use dsmc_baselines::nanbu::pairwise_step;
use dsmc_baselines::UniformBox;
use dsmc_engine::{
    Diagnostics, ExecMode, SampledField, SimConfig, Simulation, StateError, SurfaceField,
};

pub mod artifacts;
pub mod campaign;
pub mod fault;
pub mod json;
pub mod registry;
pub mod supervisor;

pub use campaign::{
    run_campaign, CampaignError, CampaignOptions, CampaignReport, CampaignSpec, RunRecord, RunSpec,
    RunStatus, Sweep,
};
pub use fault::{CampaignFault, CampaignFaultPlan, Fault, FaultPlan};
pub use registry::registry;
pub use supervisor::{
    backoff_with_jitter, protocol_for, run_supervised, run_supervised_config, supervise,
    supervisor_json, Protocol, ProtocolOverride, RecoveryEvent, Sleeper, SuperviseError,
    SuperviseOptions, SuperviseOutcome, SupervisorReport, TransientProtocol, TunnelProtocol,
    BACKOFF_BASE_MS, BACKOFF_CAP_MS,
};

/// Run scale of a scenario execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced density and step counts: finishes in CI minutes and is the
    /// scale the golden metrics are recorded at.
    Quick,
    /// The paper-faithful protocol (full density, full step counts).
    Full,
}

impl Scale {
    /// Lower-case label used in reports and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// The `quick` or `full` member of a per-scale pair — the one lookup
    /// every case's protocol lengths go through.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// One scalar measurement extracted from a run.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Stable metric name (goldens reference it).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
}

/// A checked-in reference value for one metric at QUICK scale.
#[derive(Clone, Copy, Debug)]
pub struct Golden {
    /// Name of the metric this value pins.
    pub metric: &'static str,
    /// Reference value.
    pub value: f64,
    /// Absolute tolerance: the check passes iff `|measured − value| ≤ tol`.
    pub tol: f64,
}

/// Parameters of the free-relaxation box (shared with the `relaxation`
/// and `baseline_compare` examples, which pull them from the registry).
#[derive(Clone, Copy, Debug)]
pub struct BoxSpec {
    /// Number of unit cells.
    pub n_cells: u32,
    /// Particles per cell.
    pub per_cell: u32,
    /// Most probable thermal speed (cells/step).
    pub sigma: f64,
    /// Collision probability parameter passed to the pairwise rule.
    pub p_inf: f64,
    /// Deterministic seed.
    pub seed: u64,
}

impl BoxSpec {
    /// Build the uniform box this spec describes.
    pub fn build(&self) -> UniformBox {
        UniformBox::rectangular(self.n_cells, self.per_cell, self.sigma, self.seed)
    }
}

/// A wind-tunnel case: config builder plus run protocol.
#[derive(Clone, Copy, Debug)]
pub struct TunnelCase {
    /// Base configuration at the paper's full density.
    pub config: fn() -> SimConfig,
    /// Density multiplier applied at [`Scale::Quick`].
    pub quick_density: f64,
    /// (settle, average) step counts at QUICK scale.
    pub quick_steps: (usize, usize),
    /// (settle, average) step counts at FULL scale.
    pub full_steps: (usize, usize),
    /// Scenario-specific metric extraction from the averaged volume field
    /// and (for body-bearing cases) the surface-flux distributions.
    pub extract: fn(&Simulation, &SampledField, Option<&SurfaceField>) -> Vec<Metric>,
}

impl TunnelCase {
    /// (settle, average) step counts at `scale`.
    pub fn steps(&self, scale: Scale) -> (u64, u64) {
        let (settle, average) = scale.pick(self.quick_steps, self.full_steps);
        (settle as u64, average as u64)
    }
}

/// A free-relaxation case driven through the baselines harness.
#[derive(Clone, Copy, Debug)]
pub struct RelaxCase {
    /// Box geometry and population.
    pub spec: BoxSpec,
    /// Relaxation steps at QUICK scale.
    pub quick_steps: usize,
    /// Relaxation steps at FULL scale.
    pub full_steps: usize,
}

/// One closed transient window: the step count at which it closed plus
/// the probe's named measurements over that window.
#[derive(Clone, Debug)]
pub struct TransientPoint {
    /// Step count when the window closed.
    pub step_end: u64,
    /// The probe's measurements for this window.
    pub values: Vec<Metric>,
}

/// A startup-transient case: run from the impulsive cold start and close
/// a short sampling window every `window_steps`, building the time series
/// the paper's time-normalised scheme makes cheap to capture (bow-shock
/// formation, plunger impulsive start).  Goldens pin reductions of the
/// series, not single-window noise.
#[derive(Clone, Copy, Debug)]
pub struct TransientCase {
    /// Base configuration at the paper's full density.
    pub config: fn() -> SimConfig,
    /// Density multiplier applied at [`Scale::Quick`].
    pub quick_density: f64,
    /// Steps per sampling window.
    pub window_steps: usize,
    /// Number of windows at QUICK scale.
    pub quick_windows: usize,
    /// Number of windows at FULL scale.
    pub full_windows: usize,
    /// Measure one closed window (fields + surface) into named values.
    pub probe: fn(&Simulation, &SampledField, Option<&SurfaceField>) -> Vec<Metric>,
    /// Every metric name `probe` emits.  A checkpoint journal stores
    /// window values by name; restoring one resolves each stored name
    /// against this list and rejects a journal that carries any other.
    pub probe_names: &'static [&'static str],
    /// Reduce the whole series into the golden-checked metrics.
    pub extract: fn(&[TransientPoint]) -> Vec<Metric>,
}

impl TransientCase {
    /// Number of windows at `scale`.
    pub fn windows(&self, scale: Scale) -> u64 {
        scale.pick(self.quick_windows, self.full_windows) as u64
    }
}

/// A checkpoint/restart equivalence case: run to `settle`, open the
/// sampling window, snapshot `open` steps later (window open — the
/// snapshot must carry it), resume the snapshot into a second simulation,
/// run both arms `tail` more steps and compare full state hashes.  The
/// goldens pin both comparisons at exactly 1 — the resume-bit-identity
/// invariant as a CI-checked scenario.
#[derive(Clone, Copy, Debug)]
pub struct RestartCase {
    /// Base configuration at the paper's full density.
    pub config: fn() -> SimConfig,
    /// Density multiplier applied at [`Scale::Quick`].
    pub quick_density: f64,
    /// (settle, window-open, tail) step counts at QUICK scale.
    pub quick_steps: (usize, usize, usize),
    /// (settle, window-open, tail) step counts at FULL scale.
    pub full_steps: (usize, usize, usize),
}

impl RestartCase {
    /// (settle, window-open, tail) step counts at `scale`.
    pub fn steps(&self, scale: Scale) -> (usize, usize, usize) {
        scale.pick(self.quick_steps, self.full_steps)
    }
}

/// A parameter sweep over a base tunnel scenario — the registry's
/// declarative form of a campaign.  Not directly runnable by [`run`]:
/// the campaign executor expands it into `n` runs with `param` varied
/// linearly over `[lo, hi]`, shares the fingerprint-keyed checkpoint
/// cache across them, and reduces the family into the sweep's goldens
/// (run-completion count plus the worst `curve_metric` across the
/// curve).
#[derive(Clone, Copy, Debug)]
pub struct SweepCase {
    /// Registry name of the tunnel scenario each point runs.
    pub base: &'static str,
    /// Config field varied across the sweep (a campaign override key,
    /// e.g. `"mach"`).
    pub param: &'static str,
    /// First parameter value.
    pub lo: f64,
    /// Last parameter value (inclusive).
    pub hi: f64,
    /// Number of points, spaced linearly from `lo` to `hi`.
    pub n: usize,
    /// Per-run metric whose worst |value| across the sweep is golden-
    /// checked (the curve-level regression pin).
    pub curve_metric: &'static str,
}

/// What kind of run a scenario performs.
#[derive(Clone, Copy, Debug)]
pub enum CaseKind {
    /// Full wind-tunnel simulation with field sampling.
    Tunnel(TunnelCase),
    /// Spatially uniform relaxation box.
    Relax(RelaxCase),
    /// Wind-tunnel startup transient: windowed time series from cold.
    Transient(TransientCase),
    /// Checkpoint/restart bit-identity check.
    Restart(RestartCase),
    /// Parameter sweep expanded and driven by the campaign executor.
    Sweep(SweepCase),
}

/// One named, reproducible case.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Registry key (also the CI matrix entry and artifact suffix).
    pub name: &'static str,
    /// One-line description for `scenarios --list`.
    pub about: &'static str,
    /// How to run it.
    pub kind: CaseKind,
    /// Golden values recorded at QUICK scale.
    pub golden: &'static [Golden],
}

impl Scenario {
    /// The simulation config this scenario runs at the given scale
    /// (every wind-tunnel-backed kind; `None` for relaxation boxes).
    pub fn tunnel_config(&self, scale: Scale) -> Option<SimConfig> {
        let (config, quick_density) = match &self.kind {
            CaseKind::Tunnel(t) => (t.config, t.quick_density),
            CaseKind::Transient(t) => (t.config, t.quick_density),
            CaseKind::Restart(t) => (t.config, t.quick_density),
            CaseKind::Relax(_) | CaseKind::Sweep(_) => return None,
        };
        let cfg = config();
        Some(match scale {
            Scale::Quick => at_density(cfg, quick_density),
            Scale::Full => cfg,
        })
    }

    /// The relaxation-box spec (relax cases only).
    pub fn relax_spec(&self) -> Option<BoxSpec> {
        match &self.kind {
            CaseKind::Relax(r) => Some(r.spec),
            _ => None,
        }
    }

    /// Whether `--checkpoint-every` / `--resume` apply to this case (the
    /// steady-protocol tunnel runs; the other kinds own their run shape).
    pub fn supports_checkpoints(&self) -> bool {
        matches!(self.kind, CaseKind::Tunnel(_))
    }
}

/// Scale a config's particle load: multiply `n_per_cell` (floored at the
/// 4/cell statistical minimum) and re-derive the reservoir fill with the
/// standard 1.4× plunger-demand buffer.
pub fn at_density(mut cfg: SimConfig, density: f64) -> SimConfig {
    cfg.n_per_cell = (cfg.n_per_cell * density).max(4.0);
    cfg.reservoir_fill = cfg.n_per_cell * 1.4;
    cfg
}

/// Result of checking one metric against its golden value.
#[derive(Clone, Copy, Debug)]
pub struct CheckResult {
    /// Metric name.
    pub metric: &'static str,
    /// Measured value.
    pub measured: f64,
    /// Golden reference.
    pub golden: f64,
    /// Tolerance.
    pub tol: f64,
    /// Whether the measurement is within tolerance.
    pub ok: bool,
}

/// Everything one scenario execution produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Scenario name.
    pub scenario: &'static str,
    /// Scale it ran at.
    pub scale: Scale,
    /// All extracted metrics.
    pub metrics: Vec<Metric>,
    /// Golden comparisons (empty at FULL scale — goldens are QUICK-scale).
    pub checks: Vec<CheckResult>,
    /// True iff every golden check passed (vacuously true at FULL).
    pub passed: bool,
    /// Wall-clock seconds of the whole run.
    pub wall_seconds: f64,
    /// Total particles simulated (tunnel: flow + reservoir).
    pub n_particles: usize,
    /// Steps taken.
    pub steps: u64,
    /// Full resume-bit-identity hash of the final simulation state
    /// (wind-tunnel-backed kinds; `None` for relaxation boxes).  A
    /// supervised/recovered run must reproduce the uninterrupted run's
    /// value exactly — the chaos CI job diffs this field.
    pub state_hash: Option<u64>,
    /// Surface-flux distributions of the averaging window (body-bearing
    /// tunnel cases only); the `scenarios` bin renders these to the
    /// `BENCH_surface_<name>.csv` artifact.
    pub surface: Option<SurfaceField>,
    /// Windowed time series (transient cases only); the `scenarios` bin
    /// renders it to the `BENCH_transient_<name>.csv` artifact.
    pub transient: Option<Vec<TransientPoint>>,
}

/// A finished run before grading: what [`Protocol::finish`] (and the kinds
/// that own their run shape) hand to the one `RunOutcome` assembly.
pub struct Finished {
    /// Conservation residuals followed by the case's own metrics.
    pub metrics: Vec<Metric>,
    /// See [`RunOutcome::surface`].
    pub surface: Option<SurfaceField>,
    /// See [`RunOutcome::transient`].
    pub transient: Option<Vec<TransientPoint>>,
    /// See [`RunOutcome::n_particles`].
    pub n_particles: usize,
    /// See [`RunOutcome::steps`].
    pub steps: u64,
    /// See [`RunOutcome::state_hash`].
    pub state_hash: Option<u64>,
}

impl Finished {
    /// The finished run of `sim` with the metrics extracted from it (no
    /// surface, no series: the protocols that have them fill them in).
    pub fn of(sim: &Simulation, metrics: Vec<Metric>) -> Self {
        Self {
            metrics,
            surface: None,
            transient: None,
            n_particles: sim.n_particles(),
            steps: sim.diagnostics().steps,
            state_hash: Some(sim.state_hash()),
        }
    }
}

/// How one plain scenario execution is run: checkpoint artifacts and warm
/// start (steady-protocol tunnel cases only) plus the execution layout.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Save a rolling `checkpoint_<name>_<scale>.bin` artifact every this
    /// many steps, plus `checkpoint_<name>_<scale>_settled.bin` once at
    /// the settle → average boundary (the warm-start product: resuming it
    /// reproduces the golden metrics bit-exactly).
    pub checkpoint_every: Option<u64>,
    /// Resume from this snapshot instead of a cold start.  Steps the
    /// checkpoint already covers are *not* re-run: the settle phase is
    /// shortened by the checkpoint's step count, and a checkpoint taken
    /// mid-average continues its open sampling window.  The snapshot's
    /// config fingerprint must match the scenario at this scale.
    pub resume_from: Option<Vec<u8>>,
    /// Number of column-block domain shards to run under (`0` and `1`
    /// both mean the single-domain reference engine).  Every scenario is
    /// shard-count invariant: the goldens, the metrics, and `state_hash`
    /// are bit-identical for any value here — the `sharding` suite holds
    /// the registry to that contract (see `SHARDING.md`).
    pub shards: usize,
    /// How the sharded engine executes its per-shard phases (serial
    /// coordinator vs scoped worker threads).  Bit-identical either way —
    /// the `shard_exec` suite pins Serial ≡ Threaded at every worker
    /// count — so this is a pure execution knob, applied on top of the
    /// scenario's config like `shards`.  Defaults to
    /// [`ExecMode::default`] (threaded on a multi-core host).
    pub exec: ExecMode,
}

/// Standard conservation residuals of a tunnel run.
///
/// Particle count is exactly invariant (particles only move between flow
/// and reservoir).  The out-of-plane/rotational momentum components see
/// only the ≤1-LSB-per-collision walk and the zero-mean reservoir re-draw,
/// so their drift is normalised by that random-walk budget (see the
/// system-level conservation tests); a value ≥ 1 means the budget is
/// blown.  Energy per particle is a plain regression metric: the
/// steady-state value is pinned by the goldens rather than by theory.
pub(crate) fn conservation_metrics(sim: &Simulation, d0: &Diagnostics) -> Vec<Metric> {
    let d = sim.diagnostics();
    // `d0` may come from an adopted checkpoint journal: sums and
    // differences against it are taken wide, so a damaged baseline reads
    // as a blown metric instead of an overflow.
    let population = |d: &Diagnostics| d.n_flow as u128 + d.n_reservoir as u128;
    let count_drift = population(&d) as f64 - population(d0) as f64;
    let one = dsmc_fixed::Fx::ONE_RAW as f64;
    let energy_per_particle = d.energy_raw as f64 / population(&d) as f64 / (one * one);
    let sigma_raw = sim.freestream().sigma() * one;
    let collision_walk = 4.0 * (d.collisions as f64).sqrt();
    let exit_walk = 6.0 * sigma_raw * (d.exited.max(1) as f64).sqrt();
    let budget = collision_walk + exit_walk + 1000.0;
    let worst = (2..5)
        .map(|k| (d.momentum_raw[k] as i128 - d0.momentum_raw[k] as i128).abs() as f64)
        .fold(0.0, f64::max);
    vec![
        Metric {
            name: "particle_count_drift",
            value: count_drift,
        },
        Metric {
            name: "energy_per_particle",
            value: energy_per_particle,
        },
        Metric {
            name: "momentum_drift_budget_frac",
            value: worst / budget,
        },
    ]
}

/// Freestream dynamic pressure `q∞ = ½ n∞ U∞²` of a run — the one
/// normalisation every drag metric (steady and transient) must share.
pub(crate) fn q_inf(sim: &Simulation) -> f64 {
    let fs = sim.freestream();
    0.5 * sim.config().n_per_cell * fs.u_inf() * fs.u_inf()
}

/// Standard surface metrics shared by every body-bearing case: the total
/// drag normalised by `q∞` (an effective drag area in cells — divide by a
/// frontal height for a conventional `C_D`) and the peak Cp anywhere on
/// the surface.
pub(crate) fn surface_metrics(sim: &Simulation, surf: &SurfaceField) -> Vec<Metric> {
    let q_inf = q_inf(sim);
    let cp_peak = surf.cp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    vec![
        Metric {
            name: "surface_drag_per_q",
            value: surf.force_x / q_inf,
        },
        Metric {
            name: "surface_cp_peak",
            value: cp_peak,
        },
    ]
}

/// Execute one scenario at the given scale (cold start, no checkpoints).
pub fn run(s: &Scenario, scale: Scale) -> RunOutcome {
    run_with(s, scale, &RunOptions::default()).expect("cold runs cannot fail to start")
}

/// Execute one scenario at the given scale with checkpoint/restart
/// options.  Fails only when `resume_from` is rejected (wrong config
/// fingerprint, corrupt snapshot, or a case kind that owns its own run
/// shape).
pub fn run_with(s: &Scenario, scale: Scale, opts: &RunOptions) -> Result<RunOutcome, StateError> {
    let t0 = std::time::Instant::now();
    let fin = match &s.kind {
        CaseKind::Tunnel(_) | CaseKind::Transient(_) => run_protocol(s, scale, opts)?,
        CaseKind::Restart(rc) => {
            if opts.resume_from.is_some() {
                return Err(StateError::Malformed(
                    "restart cases drive save/resume themselves",
                ));
            }
            let mut cfg = s.tunnel_config(scale).expect("restart case");
            cfg.exec = opts.exec;
            let (settle, open, tail) = rc.steps(scale);
            let mut a = Simulation::new(cfg.clone());
            a.reshard(opts.shards);
            let d0 = a.diagnostics();
            a.run(settle);
            a.begin_sampling();
            a.run(open);
            let bytes = a.save_state();
            let hash_at_save = a.state_hash();
            // The resume arm deliberately runs at a *different* shard
            // count than the save arm: the bit-identity goldens below then
            // pin the save-at-S / resume-at-S′ contract of `SHARDING.md`
            // on every CI run, not just in the dedicated sharding tests.
            let alt_shards = if opts.shards <= 1 { 2 } else { 1 };
            let mut b = Simulation::resume(cfg, &bytes, alt_shards)
                .expect("own snapshot must resume cleanly");
            let restore_exact = b.state_hash() == hash_at_save;
            a.run(tail);
            b.run(tail);
            let resume_exact = a.state_hash() == b.state_hash();
            let mut metrics = conservation_metrics(&a, &d0);
            metrics.extend([
                // Both pinned at exactly 1.0: restore fidelity at the
                // checkpoint, and bit-identity after running on.
                Metric {
                    name: "restore_hash_equal",
                    value: restore_exact as u32 as f64,
                },
                Metric {
                    name: "resume_hash_equal",
                    value: resume_exact as u32 as f64,
                },
                Metric {
                    name: "snapshot_bytes_per_particle",
                    value: bytes.len() as f64 / a.n_particles() as f64,
                },
            ]);
            Finished::of(&a, metrics)
        }
        CaseKind::Sweep(_) => {
            return Err(StateError::Malformed(
                "sweep scenarios expand into campaign runs; use `scenarios campaign run --sweep`",
            ));
        }
        CaseKind::Relax(r) => {
            let steps = scale.pick(r.quick_steps, r.full_steps);
            let mut b = r.spec.build();
            let e0 = b.total_energy_raw();
            for _ in 0..steps {
                pairwise_step(
                    &mut b,
                    r.spec.p_inf,
                    r.spec.per_cell as f64,
                    dsmc_fixed::Rounding::Stochastic,
                );
            }
            let energy_drift = (b.total_energy_raw() - e0) as f64 / e0 as f64;
            let shares = b.mode_shares();
            let share_dev = shares
                .iter()
                .map(|s| (s - 0.2).abs())
                .fold(0.0f64, f64::max);
            let metrics = vec![
                Metric {
                    name: "kurtosis_final",
                    value: b.kurtosis(0),
                },
                Metric {
                    name: "mode_share_max_dev",
                    value: share_dev,
                },
                Metric {
                    name: "energy_drift_rel",
                    value: energy_drift,
                },
            ];
            Finished {
                metrics,
                surface: None,
                transient: None,
                n_particles: b.len(),
                steps: steps as u64,
                state_hash: None,
            }
        }
    };
    Ok(outcome(s, scale, true, t0, fin))
}

/// The plain runner for the protocol-driven kinds: build or resume the
/// engine and walk the case's [`Protocol`] with a bare boundary loop — no
/// store, no sentinel, no recovery (ARCHITECTURE.md, "Run shapes").  The
/// only thing that may happen *at* a boundary besides the protocol's own
/// transition is the steady cases' checkpoint artifacts.
fn run_protocol(s: &Scenario, scale: Scale, opts: &RunOptions) -> Result<Finished, StateError> {
    let mut protocol =
        protocol_for(s, scale, ProtocolOverride::default()).map_err(StateError::Malformed)?;
    let mut cfg = s
        .tunnel_config(scale)
        .expect("protocol kinds are tunnel-backed");
    cfg.exec = opts.exec;
    // Checkpoints and warm starts belong to the steady cases: they have a
    // settle boundary, and nothing but the engine state to carry across.
    let settle = match &s.kind {
        CaseKind::Tunnel(t) => Some(t.steps(scale).0),
        _ => None,
    };
    let mut sim = match &opts.resume_from {
        Some(_) if settle.is_none() => {
            // A plain snapshot carries no journal: the windows already
            // measured would be lost.
            return Err(StateError::Malformed(
                "transient cases always run from the cold start they measure",
            ));
        }
        Some(bytes) => Simulation::resume(cfg, bytes, opts.shards)?,
        None => {
            let mut sim = Simulation::new(cfg);
            sim.reshard(opts.shards);
            sim
        }
    };
    let artifacts = opts.checkpoint_every.zip(settle);
    let stem = format!("checkpoint_{}_{}", s.name, scale.label());
    let total = protocol.total_steps();
    // Track the counter locally: `diagnostics()` sums energy and momentum
    // over the whole population, far too heavy per step.
    let start = sim.diagnostics().steps;
    let mut step = start;
    loop {
        if let Some((every, settle)) = artifacts {
            if step > start && step.is_multiple_of(every) {
                artifacts::record(&format!("{stem}.bin"), &sim.save_state());
            }
            // Saved *before* the protocol opens the averaging window, so
            // resuming it replays the whole window: the warm-start product.
            if step == settle && sim.field_sampler().is_none() {
                artifacts::record(&format!("{stem}_settled.bin"), &sim.save_state());
            }
        }
        protocol.at_step(&mut sim, step);
        if step >= total {
            break;
        }
        sim.step();
        step += 1;
    }
    Ok(protocol.finish(&mut sim))
}

/// Grade a finished run against the goldens (when `check`; parameterised
/// campaign runs have none) and assemble its [`RunOutcome`] — the tail the
/// plain runner and the supervisor share, so both return the same outcome
/// for the same trajectory by construction.
pub(crate) fn outcome(
    s: &Scenario,
    scale: Scale,
    check: bool,
    t0: std::time::Instant,
    fin: Finished,
) -> RunOutcome {
    let checks = if check {
        check_goldens(s, scale, &fin.metrics)
    } else {
        Vec::new()
    };
    RunOutcome {
        scenario: s.name,
        scale,
        passed: checks.iter().all(|c| c.ok),
        metrics: fin.metrics,
        checks,
        wall_seconds: t0.elapsed().as_secs_f64(),
        n_particles: fin.n_particles,
        steps: fin.steps,
        state_hash: fin.state_hash,
        surface: fin.surface,
        transient: fin.transient,
    }
}

/// Golden comparison — the goldens are recorded at QUICK scale, so only
/// a QUICK run is pass/fail (FULL runs yield no checks).
pub(crate) fn check_goldens(s: &Scenario, scale: Scale, metrics: &[Metric]) -> Vec<CheckResult> {
    if scale != Scale::Quick {
        return Vec::new();
    }
    s.golden
        .iter()
        .map(|g| {
            let measured = metrics
                .iter()
                .find(|m| m.name == g.metric)
                .unwrap_or_else(|| panic!("golden references unknown metric {}", g.metric))
                .value;
            CheckResult {
                metric: g.metric,
                measured,
                golden: g.value,
                tol: g.tol,
                ok: (measured - g.value).abs() <= g.tol,
            }
        })
        .collect()
}

/// Render a transient time series for the `BENCH_transient_<name>.csv`
/// artifact: one row per window, columns from the probe's metric names.
pub fn transient_to_csv(points: &[TransientPoint]) -> String {
    let mut out = String::from("step_end");
    if let Some(first) = points.first() {
        for m in &first.values {
            out.push(',');
            out.push_str(m.name);
        }
    }
    out.push('\n');
    for p in points {
        out.push_str(&p.step_end.to_string());
        for m in &p.values {
            out.push_str(&format!(",{:.6}", m.value));
        }
        out.push('\n');
    }
    out
}

/// Serialise an outcome for the `BENCH_scenario_<name>.json` artifact.
pub fn outcome_json(o: &RunOutcome) -> json::Object {
    let mut j = json::Object::new();
    j.str("scenario", o.scenario);
    j.str("scale", o.scale.label());
    j.bool("passed", o.passed);
    j.int("n_particles", o.n_particles as i64);
    j.int("steps", o.steps as i64);
    j.num("wall_seconds", o.wall_seconds);
    if let Some(h) = o.state_hash {
        // Hex string: JSON integers are i64 and a u64 hash must survive
        // a round-trip through any consumer exactly.
        j.str("state_hash", &format!("{h:#018x}"));
    }
    let mut jm = json::Object::new();
    for m in &o.metrics {
        jm.num(m.name, m.value);
    }
    j.obj("metrics", jm);
    let checks = o
        .checks
        .iter()
        .map(|c| {
            let mut jc = json::Object::new();
            jc.str("metric", c.metric);
            jc.num("measured", c.measured);
            jc.num("golden", c.golden);
            jc.num("tol", c.tol);
            jc.bool("ok", c.ok);
            jc
        })
        .collect();
    j.obj_array("golden_checks", checks);
    if let Some(points) = &o.transient {
        let rows = points
            .iter()
            .map(|p| {
                let mut jp = json::Object::new();
                jp.int("step_end", p.step_end as i64);
                for m in &p.values {
                    jp.num(m.name, m.value);
                }
                jp
            })
            .collect();
        j.obj_array("transient", rows);
    }
    j
}

/// Look a scenario up by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    registry().iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_plentiful() {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        assert!(names.len() >= 5, "registry must hold at least 5 cases");
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scenario names");
    }

    #[test]
    fn every_golden_references_a_conservation_or_extracted_metric() {
        // Golden names must be resolvable; the cheap structural half of
        // that contract (full resolution happens in `run`) is that each
        // tunnel scenario's goldens use the standard conservation names or
        // names its extractor is known to emit (checked by the integration
        // tests at run time).  Here: no empty golden sets, finite values.
        for s in registry() {
            assert!(!s.golden.is_empty(), "{} has no goldens", s.name);
            for g in s.golden {
                assert!(g.value.is_finite() && g.tol >= 0.0, "{} golden", s.name);
            }
        }
    }

    #[test]
    fn tunnel_configs_validate() {
        for s in registry() {
            if let Some(cfg) = s.tunnel_config(Scale::Quick) {
                let v = cfg.validated();
                assert!(v.n_per_cell >= 4.0, "{} too sparse", s.name);
            }
            if let Some(cfg) = s.tunnel_config(Scale::Full) {
                let _ = cfg.validated();
            }
        }
    }

    #[test]
    fn relax_box_runs_and_thermalises() {
        let s = find("relax-box").expect("relax-box registered");
        let o = run(s, Scale::Quick);
        assert!(o.passed, "relax-box golden drift: {:?}", o.checks);
    }

    #[test]
    fn find_is_by_exact_name() {
        assert!(find("wedge-paper").is_some());
        assert!(find("wedge").is_none());
    }
}
