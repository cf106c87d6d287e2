//! The one file that calls into the repository.
//!
//! Every other module of the benchmark sees the engine, the scenario
//! registry, the campaign executor and the primitives only through the
//! types and functions below, so the list of public items the benchmark
//! depends on is this file's `use` lines (restated in `README.md`, "API
//! surface").  A later PR that reshapes the engine must keep those names
//! callable; it may not edit the benchmark.
//!
//! Nothing here takes a time.  The callers wrap these calls in spans or
//! windows, so the clock is always the benchmark's own.

use dsmc_baselines::SerialSim;
use dsmc_datapar::{
    apply_perm, incremental_rank, pack_indices, pack_pair, scan_add_exclusive_u32,
    segment_bounds_from_sorted, sort_order_and_bounds_from_pairs_cells, IncrementalScratch,
    SortScratch,
};
use dsmc_engine::{Engine, Sentinel, ShardedSimulation, Simulation};
use dsmc_fixed::{Fx, Rounding};
use dsmc_flowfield::shock::wedge_metrics;
use dsmc_geom::CellClassifier;
use dsmc_kinetics::collide_pair;
use dsmc_rng::perm::knuth_shuffle;
use dsmc_rng::XorShift32;
use dsmc_scenarios::campaign::{
    check_sweep_goldens, maybe_worker_from_env, resolved_config, sweep_campaign,
};
use dsmc_scenarios::{
    find, run_campaign, run_supervised_config, run_with, CampaignOptions, CampaignSpec,
    CheckResult, ProtocolOverride, RunOptions, RunOutcome, RunSpec, RunStatus, Scale,
    SuperviseOptions,
};
use dsmc_state::store::CheckpointStore;
use std::path::{Path, PathBuf};

pub use dsmc_engine::{ExecMode, SampledField, SimConfig};

/// Registry case behind `scenario-rarefied-quick`.
const SCENARIO: &str = "wedge-rarefied";
/// Registry sweep behind `campaign-mach-sweep`.
const SWEEP: &str = "wedge-mach-sweep";
/// Checkpoint stem the supervisor and the campaign workers both write.
const STEM: &str = "run";

/// If the campaign executor started this process as one of its workers,
/// run the worker and return its exit code.
pub fn campaign_worker_exit_code() -> Option<i32> {
    maybe_worker_from_env()
}

/// The checked-in reference seed (`SimConfig::paper`'s).
pub fn reference_seed() -> u64 {
    SimConfig::paper(0.0).seed
}

/// The `wedge-*` workloads' configuration: the paper's Mach-4 wedge,
/// near-continuum (λ = 0), at 0.4 of the paper's density — the
/// `BENCH_step.json` size, so history stays comparable.
pub fn wedge_config(seed: u64, exec: ExecMode) -> SimConfig {
    let mut cfg = SimConfig::paper(0.0);
    cfg.n_per_cell *= 0.4;
    cfg.reservoir_fill = cfg.n_per_cell * 1.4;
    cfg.exec = exec;
    cfg.seed = seed;
    cfg
}

/// `scenario-rarefied-quick`'s configuration: the registry's QUICK config
/// with the run's seed.
pub fn scenario_config(seed: u64) -> SimConfig {
    let mut cfg = find(SCENARIO)
        .and_then(|s| s.tunnel_config(Scale::Quick))
        .expect("the registry holds the wedge-rarefied tunnel case");
    cfg.seed = seed;
    cfg
}

/// The physical ledgers the correctness checks read.
#[derive(Clone, Copy, Debug)]
pub struct Ledger {
    pub steps: u64,
    pub n_flow: usize,
    pub n_total: usize,
    pub candidates: u64,
    pub collisions: u64,
    exited: u64,
    momentum_raw: [i64; 5],
}

/// The engine's own per-substep clocks, in seconds since the last reset.
#[derive(Clone, Copy, Debug)]
pub struct Buckets {
    pub move_s: f64,
    pub sort_s: f64,
    pub select_s: f64,
    pub collide_s: f64,
    pub sample_s: f64,
}

/// An armed sentinel.
pub struct Armed(Sentinel);

/// A snapshot of the sorted `cell` column.
pub struct CellColumn {
    pub cells: Vec<u32>,
    pub total_cells: u32,
    pub reservoir_base: u32,
    pub jitter_bits: u32,
}

/// An engine at some shard count.
pub struct Sim(Engine);

impl Sim {
    /// Cold construction: populate and sort.
    pub fn cold(cfg: &SimConfig, shards: usize) -> Sim {
        Sim(Engine::new(cfg.clone(), shards))
    }

    /// Resume a snapshot; one shard is the single-domain engine.
    pub fn resume(cfg: &SimConfig, bytes: &[u8], shards: usize) -> Result<Sim, String> {
        Engine::resume(cfg.clone(), bytes, shards)
            .map(Sim)
            .map_err(|e| e.to_string())
    }

    /// Resume into the sharded engine even at one shard, where
    /// [`Sim::resume`] would hand back the single-domain one: what the
    /// shard machinery costs before any cut exists.
    pub fn resume_sharded(cfg: &SimConfig, bytes: &[u8], shards: usize) -> Result<Sim, String> {
        ShardedSimulation::resume(cfg.clone(), bytes, shards)
            .map(|s| Sim(Engine::Sharded(s)))
            .map_err(|e| e.to_string())
    }

    /// One time step; `Err` is a shard-worker failure.
    pub fn step(&mut self) -> Result<(), String> {
        self.0.try_step().map_err(|e| e.to_string())
    }

    /// `n` steps with no per-step bookkeeping (warm-up and settling).
    pub fn run(&mut self, n: usize) {
        self.0.run(n);
    }

    pub fn state_hash(&mut self) -> u64 {
        self.0.state_hash()
    }

    pub fn save(&mut self) -> Vec<u8> {
        self.0.save_state()
    }

    pub fn n_particles(&self) -> usize {
        self.0.n_particles()
    }

    pub fn ledger(&mut self) -> Ledger {
        let d = self.0.diagnostics();
        Ledger {
            steps: d.steps,
            n_flow: d.n_flow,
            n_total: d.n_flow + d.n_reservoir,
            candidates: d.candidates,
            collisions: d.collisions,
            exited: d.exited,
            momentum_raw: d.momentum_raw,
        }
    }

    /// Worst out-of-plane momentum drift since `since`, as a fraction of
    /// the random-walk budget the scenario goldens and the sentinel use
    /// (≥ 1 means the budget is blown).
    pub fn momentum_budget_frac(&mut self, since: &Ledger) -> f64 {
        let now = self.ledger();
        let one = Fx::ONE_RAW as f64;
        let sigma_raw = self.0.canonical().freestream().sigma() * one;
        let budget = 4.0 * (now.collisions as f64).sqrt()
            + 6.0 * sigma_raw * (now.exited.max(1) as f64).sqrt()
            + 1000.0;
        (2..5)
            .map(|k| (now.momentum_raw[k] - since.momentum_raw[k]).abs() as f64)
            .fold(0.0, f64::max)
            / budget
    }

    pub fn buckets(&self) -> Buckets {
        let t = self.0.timings();
        Buckets {
            move_s: (t.move_phase + t.motion + t.boundary).as_secs_f64(),
            sort_s: t.sort.as_secs_f64(),
            select_s: t.select.as_secs_f64(),
            collide_s: t.collide.as_secs_f64(),
            sample_s: t.sample.as_secs_f64(),
        }
    }

    pub fn reset_buckets(&mut self) {
        self.0.reset_timings();
    }

    /// Rank paths taken: `(incremental, full)`.
    pub fn sort_paths(&self) -> (u64, u64) {
        self.0.sort_path_counts()
    }

    /// `(movers, particle-steps)` over ordinary steps.
    pub fn mover_stats(&self) -> (u64, u64) {
        self.0.mover_stats()
    }

    /// Particles the move sweep dispatched per run kind `[Free, Walls,
    /// Full, Reservoir]`.
    pub fn move_dispatch(&mut self) -> [u64; 4] {
        self.0.canonical().move_dispatch_counts()
    }

    /// Resolved shard-worker threads (1 on the single-domain and serial
    /// paths).
    pub fn workers(&self) -> usize {
        self.0.exec_workers()
    }

    /// Merge the shards back into the canonical single-domain view (free
    /// on the single-domain engine).
    pub fn merge_canonical(&mut self) -> usize {
        self.0.canonical().particles().len()
    }

    /// Per-shard populations (one entry on the single-domain engine).
    pub fn shard_populations(&self) -> Vec<usize> {
        match &self.0 {
            Engine::Single(s) => vec![s.n_particles()],
            Engine::Sharded(s) => s.shard_populations(),
        }
    }

    pub fn repartitions(&self) -> u64 {
        match &self.0 {
            Engine::Single(_) => 0,
            Engine::Sharded(s) => s.repartitions(),
        }
    }

    pub fn begin_sampling(&mut self) {
        self.0.begin_sampling();
    }

    /// Close the open sampling windows the way a finished run does (a
    /// run reports its `state_hash` after this); `None` if none is open.
    pub fn close_windows(&mut self) -> Option<SampledField> {
        self.0.field_sampler()?;
        let field = self.0.finish_sampling();
        self.0.finish_surface_sampling();
        Some(field)
    }

    /// The sorted `cell` column and the key layout a rank of it uses.
    pub fn cell_column(&mut self) -> CellColumn {
        let sim = self.0.canonical();
        CellColumn {
            cells: sim.particles().cell.clone(),
            total_cells: sim.total_cells(),
            reservoir_base: sim.reservoir_base(),
            jitter_bits: sim.config().jitter_bits,
        }
    }

    pub fn sentinel_arm(&mut self) -> Armed {
        Armed(Sentinel::arm(self.0.canonical()))
    }

    pub fn sentinel_check(&mut self, armed: &Armed) -> bool {
        armed.0.check(self.0.canonical()).is_ok()
    }

    /// Rebuild the geometry classification the engine built at set-up;
    /// returns the cells per class.
    pub fn classifier_build(&mut self) -> [u32; 4] {
        let sim: &Simulation = self.0.canonical();
        CellClassifier::build(
            sim.tunnel(),
            sim.body(),
            sim.config().plunger_trigger,
            sim.cell_classifier().halo(),
        )
        .counts()
    }
}

/// Fitted shock angle of a sampled wedge field (`None` when the fit
/// fails).
pub fn wedge_shock_angle(field: &SampledField, cfg: &SimConfig) -> Option<f64> {
    let dsmc_engine::BodySpec::Wedge {
        x0,
        base,
        angle_deg,
    } = cfg.body
    else {
        return None;
    };
    wedge_metrics(field, x0, base, angle_deg, cfg.mach, 1.4).map(|m| m.shock_angle_deg)
}

/// The plain single-threaded comparator of the same problem.
pub struct Serial(SerialSim);

impl Serial {
    pub fn new(cfg: &SimConfig) -> Serial {
        Serial(SerialSim::new(cfg.clone()))
    }

    pub fn run(&mut self, n: usize) {
        self.0.run(n);
    }

    pub fn n_flow(&self) -> usize {
        self.0.n_flow()
    }
}

// ---------------------------------------------------------------------------
// datapar / rng / kinetics kernels
// ---------------------------------------------------------------------------

/// The `datapar` primitives at the engine's own size and key
/// distribution: `n` and the cells come from a settled snapshot's sorted
/// `cell` column.
pub struct Primitives {
    cells: Vec<u32>,
    total_cells: u32,
    jitter_bits: u32,
    cell_bits: u32,
    jitter: Vec<u32>,
    /// The column after a step's worth of motion: 30 % of the particles
    /// (the measured mover fraction) one cell over.
    moved: Vec<u32>,
    prev_bounds: Vec<u32>,
    prev_cells: Vec<u32>,
    reservoir_mask: Vec<bool>,
    scratch: SortScratch,
    inc: IncrementalScratch,
    order: Vec<u32>,
    bounds: Vec<u32>,
    seg_cells: Vec<u32>,
    permuted: Vec<u32>,
}

impl Primitives {
    pub fn new(column: CellColumn, seed: u64) -> Primitives {
        let CellColumn {
            cells,
            total_cells,
            reservoir_base,
            jitter_bits,
        } = column;
        let mut rng = XorShift32::new(seed as u32 ^ 0x5EED_CE11);
        let jitter: Vec<u32> = cells.iter().map(|_| rng.next_bits(jitter_bits)).collect();
        let moved = cells
            .iter()
            .map(|&c| {
                if rng.next_below(10) >= 3 {
                    c
                } else if c + 1 < total_cells {
                    c + 1
                } else {
                    c - 1
                }
            })
            .collect();
        let prev_bounds = segment_bounds_from_sorted(&cells);
        let prev_cells = prev_bounds[..prev_bounds.len().saturating_sub(1)]
            .iter()
            .map(|&b| cells[b as usize])
            .collect();
        Primitives {
            cell_bits: 32 - (total_cells.max(2) - 1).leading_zeros(),
            reservoir_mask: cells.iter().map(|&c| c >= reservoir_base).collect(),
            order: (0..cells.len() as u32).rev().collect(),
            cells,
            total_cells,
            jitter_bits,
            jitter,
            moved,
            prev_bounds,
            prev_cells,
            scratch: SortScratch::new(),
            inc: IncrementalScratch::new(),
            bounds: Vec::new(),
            seg_cells: Vec::new(),
            permuted: Vec::new(),
        }
    }

    pub fn n(&self) -> usize {
        self.cells.len()
    }

    /// Pack the moved column's `(cell, jitter, index)` pairs, as the move
    /// sweep does before either rank.  The ranks consume the pairs, so
    /// this runs before every rank call — outside its span.
    pub fn pack_pairs(&mut self) {
        let pairs = self.scratch.input_pairs(self.moved.len());
        for (i, slot) in pairs.iter_mut().enumerate() {
            *slot = pack_pair((self.moved[i] << self.jitter_bits) | self.jitter[i], i);
        }
    }

    /// The full radix rank; `false` if the key layout is unsupported.
    pub fn rank_full(&mut self) -> bool {
        sort_order_and_bounds_from_pairs_cells(
            self.cell_bits,
            self.jitter_bits,
            &mut self.scratch,
            &mut self.order,
            &mut self.bounds,
            &mut self.seg_cells,
            false,
        )
    }

    /// The temporal-coherence repair; `false` if it fell back.
    pub fn rank_incremental(&mut self) -> bool {
        incremental_rank(
            self.jitter_bits,
            self.total_cells,
            &self.prev_bounds,
            &self.prev_cells,
            false,
            &mut self.scratch,
            &mut self.inc,
            &mut self.order,
            &mut self.bounds,
            &mut self.seg_cells,
        )
    }

    /// Segments the last rank emitted (for the both-ranks-agree check).
    pub fn last_rank_digest(&self) -> (usize, u64) {
        let sum = self.order.iter().enumerate().fold(0u64, |acc, (i, &o)| {
            acc.wrapping_add((i as u64 + 1) * o as u64)
        });
        (self.bounds.len(), sum)
    }

    pub fn scan_add(&self) -> u32 {
        scan_add_exclusive_u32(&self.cells).1
    }

    pub fn apply_perm(&mut self) -> usize {
        apply_perm(&self.cells, &self.order, &mut self.permuted);
        self.permuted.len()
    }

    pub fn segment_bounds(&self) -> usize {
        segment_bounds_from_sorted(&self.cells).len()
    }

    pub fn pack_indices(&self) -> usize {
        pack_indices(&self.reservoir_mask).len()
    }
}

/// `n` draws of 24 bits from one xorshift stream.
pub fn rng_next_bits(n: u32) -> u32 {
    let mut rng = XorShift32::new(7);
    let mut acc = 0u32;
    for _ in 0..n {
        acc ^= std::hint::black_box(rng.next_bits(24));
    }
    acc
}

/// `n` collisions of one pair with stochastic rounding.
pub fn collide_pairs(n: u32) -> i32 {
    let mut rng = XorShift32::new(7);
    let perm = knuth_shuffle(&mut rng);
    let mut a = [Fx::from_f64(0.1); 5];
    let mut b = [Fx::from_f64(-0.07); 5];
    for _ in 0..n {
        collide_pair(
            std::hint::black_box(&mut a),
            std::hint::black_box(&mut b),
            perm,
            Rounding::Stochastic,
            &mut rng,
        );
    }
    a[0].raw() ^ b[0].raw()
}

// ---------------------------------------------------------------------------
// state
// ---------------------------------------------------------------------------

pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    dsmc_state::store::atomic_write(path, bytes).map_err(|e| e.to_string())
}

/// Validate a snapshot container end to end (header, sections, trailing
/// checksum).
pub fn container_is_valid(bytes: &[u8]) -> bool {
    dsmc_state::Reader::new(bytes).is_ok()
}

/// A rolling checkpoint store.
pub struct Store(CheckpointStore);

impl Store {
    pub fn open(dir: &Path, keep: usize) -> Result<Store, String> {
        CheckpointStore::new(dir, STEM, keep)
            .map(Store)
            .map_err(|e| e.to_string())
    }

    /// Persist a checkpoint for `step`, then prune retention.
    pub fn save(&self, step: u64, bytes: &[u8]) -> Result<(), String> {
        self.0
            .save(step, bytes)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// Newest checkpoint whose container validates: `(step, bytes)`.
    pub fn latest_valid(&self) -> Result<Option<(u64, Vec<u8>)>, String> {
        self.0
            .find_latest_valid()
            .map(|found| found.map(|(step, _path, bytes)| (step, bytes)))
            .map_err(|e| e.to_string())
    }

    pub fn path_for(&self, step: u64) -> PathBuf {
        self.0.path_for(step)
    }
}

// ---------------------------------------------------------------------------
// scenarios
// ---------------------------------------------------------------------------

/// What one scenario execution produced, reduced to what the benchmark
/// checks and counts.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// Goldens outside their tolerance, as `name measured vs golden±tol`.
    pub golden_failures: Vec<String>,
    pub goldens_checked: usize,
    /// How close the closest golden came to its tolerance: 1 is dead
    /// centre, 0 on the edge, negative outside.
    pub golden_margin: f64,
    pub state_hash: Option<u64>,
    pub steps: u64,
    pub count_drift: f64,
    pub momentum_budget_frac: f64,
    pub checkpoints_written: u64,
    pub sentinel_checks: u64,
    pub recoveries: usize,
    /// Step the supervisor adopted from a surviving checkpoint, if any.
    pub resumed_at: Option<u64>,
}

fn golden_margin(checks: &[CheckResult]) -> f64 {
    checks
        .iter()
        .map(|c| {
            if c.tol > 0.0 {
                1.0 - (c.measured - c.golden).abs() / c.tol
            } else if c.ok {
                1.0
            } else {
                -1.0
            }
        })
        .fold(1.0, f64::min)
}

fn golden_failures(checks: &[CheckResult]) -> Vec<String> {
    checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("{} {} vs {}±{}", c.metric, c.measured, c.golden, c.tol))
        .collect()
}

fn reduce_outcome(o: &RunOutcome) -> ScenarioRun {
    let metric = |name: &str| {
        o.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    ScenarioRun {
        golden_failures: golden_failures(&o.checks),
        goldens_checked: o.checks.len(),
        golden_margin: golden_margin(&o.checks),
        state_hash: o.state_hash,
        steps: o.steps,
        count_drift: metric("particle_count_drift"),
        momentum_budget_frac: metric("momentum_drift_budget_frac"),
        checkpoints_written: 0,
        sentinel_checks: 0,
        recoveries: 0,
        resumed_at: None,
    }
}

/// The registry's `wedge-rarefied` at QUICK scale under full supervision
/// (checkpoint every 100 steps, sentinel every 25, golden check), with
/// its checkpoints in `ckpt_dir`.  A directory that already holds a valid
/// checkpoint warm-starts from it.
pub fn run_scenario_supervised(
    cfg: &SimConfig,
    ckpt_dir: &Path,
    keep: usize,
) -> Result<ScenarioRun, String> {
    let s = find(SCENARIO).ok_or("wedge-rarefied is not in the registry")?;
    let mut opts = SuperviseOptions::new(ckpt_dir, STEM);
    opts.keep = keep;
    opts.exec = cfg.exec;
    let (outcome, report) = run_supervised_config(
        s,
        Scale::Quick,
        cfg,
        ProtocolOverride::default(),
        true,
        &opts,
    )
    .map_err(|e| e.to_string())?;
    Ok(ScenarioRun {
        checkpoints_written: report.checkpoints_written,
        sentinel_checks: report.sentinel_checks,
        recoveries: report.recoveries.len(),
        resumed_at: report.resumed_at_start,
        ..reduce_outcome(&outcome)
    })
}

/// The same case unsupervised, as `scenarios wedge-rarefied --quick` runs
/// it: the registry's own configuration (reference seed), no checkpoints,
/// no sentinel.
pub fn run_scenario_plain() -> Result<ScenarioRun, String> {
    let s = find(SCENARIO).ok_or("wedge-rarefied is not in the registry")?;
    run_with(s, Scale::Quick, &RunOptions::default())
        .map(|o| reduce_outcome(&o))
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// campaign
// ---------------------------------------------------------------------------

/// The registry's Mach sweep as a campaign, every run at `seed`.
pub fn sweep_spec(seed: u64) -> Result<CampaignSpec, String> {
    let s = find(SWEEP).ok_or("wedge-mach-sweep is not in the registry")?;
    let mut spec = sweep_campaign(s, Scale::Quick).map_err(|e| e.to_string())?;
    for run in &mut spec.runs {
        run.seed = Some(seed);
    }
    Ok(spec)
}

/// A one-run campaign cut to 0 + 1 steps: what a run costs before its
/// first step (spawn, construct, journal, result).
pub fn tiny_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        name: "setup-probe".into(),
        scale: Scale::Quick,
        runs: vec![RunSpec::new("wedge-paper", "r00-setup")
            .seeded(seed)
            .set("settle", 0.0)
            .set("average", 1.0)],
    }
}

/// A finished (or resumed, or no-op) campaign invocation.
#[derive(Clone, Debug)]
pub struct CampaignRun {
    pub exit_code: i32,
    pub runs: usize,
    pub runs_completed: usize,
    /// Sweep goldens outside tolerance (empty for a non-sweep spec).
    pub golden_failures: Vec<String>,
    /// As [`ScenarioRun::golden_margin`], over the sweep goldens.
    pub golden_margin: f64,
    pub worker_wall_sum_s: f64,
    pub cache_saved_steps: u64,
    pub state_hashes: Vec<Option<u64>>,
}

/// Execute (or resume) `spec` in `dir` with `workers` process-isolated
/// workers; this executable is its own worker.
pub fn run_campaign_in(
    spec: &CampaignSpec,
    dir: &Path,
    workers: usize,
) -> Result<CampaignRun, String> {
    let mut opts = CampaignOptions::new(dir);
    opts.max_workers = workers;
    let report = run_campaign(spec, &opts).map_err(|e| e.to_string())?;
    let goldens = find(&spec.name)
        .map(|s| check_sweep_goldens(s, spec.scale, &report.runs))
        .unwrap_or_default();
    Ok(CampaignRun {
        exit_code: report.exit_code(),
        runs: report.runs.len(),
        runs_completed: report.count(RunStatus::Completed),
        golden_failures: golden_failures(&goldens),
        golden_margin: golden_margin(&goldens),
        worker_wall_sum_s: report.runs.iter().map(|r| r.wall_seconds).sum(),
        cache_saved_steps: report.cache_saved_steps(),
        state_hashes: report.runs.iter().map(|r| r.state_hash).collect(),
    })
}

/// The engine snapshot inside a supervisor checkpoint: the outer
/// container's `SIMS` section (`STATE.md`, "Supervisor checkpoints").
pub fn engine_snapshot(checkpoint: &[u8]) -> Result<Vec<u8>, String> {
    let read = || -> Result<Vec<u8>, dsmc_state::StateError> {
        let mut section = dsmc_state::Reader::new(checkpoint)?.section(*b"SIMS")?;
        let bytes = section.vec_u8()?;
        section.done()?;
        Ok(bytes)
    };
    read().map_err(|e| e.to_string())
}

/// The final state of one finished run, read back from its last
/// checkpoint: `(steps, flow particles, state hash)`.
pub fn final_state(cfg: &SimConfig, ckpt_dir: &Path) -> Result<(u64, usize, u64), String> {
    let (_, checkpoint) = Store::open(ckpt_dir, usize::MAX)?
        .latest_valid()?
        .ok_or_else(|| format!("no valid checkpoint in {}", ckpt_dir.display()))?;
    let mut sim = Sim::resume(cfg, &engine_snapshot(&checkpoint)?, 1)?;
    let ledger = sim.ledger();
    // The checkpoint was taken with the sampling windows still open.
    sim.close_windows();
    Ok((ledger.steps, ledger.n_flow, sim.state_hash()))
}

/// [`final_state`] of every run of a finished campaign in `dir`, in spec
/// order.
pub fn campaign_final_states(
    spec: &CampaignSpec,
    dir: &Path,
) -> Result<Vec<(u64, usize, u64)>, String> {
    spec.runs
        .iter()
        .map(|run| {
            let (_, cfg, _, _) = resolved_config(run, spec.scale).map_err(|e| e.to_string())?;
            let cache = dir
                .join("cache")
                .join(format!("fp{:016x}", cfg.fingerprint()));
            final_state(&cfg, &cache)
        })
        .collect()
}
