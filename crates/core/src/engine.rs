//! The simulation driver: four data-parallel sub-steps per time step.

use crate::boundary::BoundaryParams;
use crate::collide::FusedPhase;
use crate::config::{ResLayout, RngMode, SimConfig, WallModel};
use crate::diag::{Diagnostics, StepTimings, Substep};
use crate::init;
use crate::movephase::{self, KeyPack, MoveOutcome, MoveScratch};
use crate::particles::ParticleStore;
use crate::sample::{FieldAccumulator, SampledField};
use crate::sortstep::{self, key_bits_for};
use crate::surface::{SurfaceAccumulator, SurfaceField};
use dsmc_datapar::Par;
use dsmc_fixed::{Fx, Rounding};
use dsmc_geom::{
    Body, CellClassifier, Cylinder, FlatPlate, ForwardStep, NoBody, Plunger, PlungerEvent, Tunnel,
    Wedge,
};
use dsmc_kinetics::{FreeStream, SelectionTable};
use shard::{exec::ShardExec, Outbox, Shard, ShardLayout};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Concrete body shape for the monomorphised boundary pass: resolving a
/// particle against the body inlines into the per-particle loop instead
/// of dispatching through the `dyn Body` vtable 10⁵ times a step.
#[derive(Clone, Debug)]
enum MonoBody {
    None(NoBody),
    Wedge(Wedge),
    Step(ForwardStep),
    Plate(FlatPlate),
    Cylinder(Cylinder),
}

impl MonoBody {
    fn build(spec: &crate::config::BodySpec) -> Self {
        use crate::config::BodySpec;
        match *spec {
            BodySpec::None => MonoBody::None(NoBody),
            BodySpec::Wedge {
                x0,
                base,
                angle_deg,
            } => MonoBody::Wedge(Wedge::new(x0, base, angle_deg)),
            BodySpec::Step { x0, x1, h } => MonoBody::Step(ForwardStep::new(x0, x1, h)),
            BodySpec::Plate { x0, h } => MonoBody::Plate(FlatPlate::new(x0, h)),
            BodySpec::Cylinder { cx, cy, r } => MonoBody::Cylinder(Cylinder::new(cx, cy, r)),
        }
    }
}

/// A running particle simulation (the paper's full wind-tunnel system),
/// stepped over one or more column-block shards — bit-identically at every
/// shard count, as the paper's program ran at every virtual-processor
/// ratio (see [`shard`]).  One shard by default; [`Simulation::reshard`]
/// and [`Simulation::resume`] set the count.
pub struct Simulation {
    cfg: SimConfig,
    tunnel: Tunnel,
    body: Arc<dyn Body>,
    body_mono: MonoBody,
    fs: FreeStream,
    sel: SelectionTable,
    volumes: Vec<f64>,
    /// The particle columns and their sort machinery, one per column
    /// block: at one shard the canonical sorted state itself, at several
    /// the canonical array restricted to each shard's cells.
    shards: Vec<Shard>,
    /// At several shards, a cache of the canonical (one-domain) array for
    /// the column readers: merged on their first read, dropped by every
    /// step and scatter.  Unused at one shard.
    view: OnceLock<Shard>,
    layout: ShardLayout,
    /// `outbox[src][dst]`: this step's crossers from `src` to `dst`.  A
    /// source fills its row in the move phase (after the refill on
    /// withdrawal steps); every destination reads its column in the sort
    /// phase.
    outbox: Vec<Vec<Outbox>>,
    /// Per-column flow loads from the last sort's segment bounds.
    col_load: Vec<u64>,
    repartitions: u64,
    /// The per-shard phase executor, resolved from `cfg.exec` and the
    /// shard count.
    exec: ShardExec,
    plunger: Plunger,
    res_base: u32,
    res: ResLayout,
    res_w_fx: Fx,
    res_h_fx: Fx,
    key_bits: u32,
    rounding: Rounding,
    rng_mode: RngMode,
    /// Plunger-refill census: `(shard, slot)` of every reservoir-parked
    /// particle, in canonical order.
    census: Vec<(u32, u32)>,
    /// Per-shard cursors for the k-way segment merges.
    merge_pos: Vec<usize>,
    classifier: CellClassifier,
    move_by_kind: [u64; 4],
    max_speed_raw: u32,
    timings: StepTimings,
    sampler: Option<FieldAccumulator>,
    surf_sampler: Option<SurfaceAccumulator>,
    steps: u64,
    candidates: u64,
    collisions: u64,
    exited: u64,
    introduced: u64,
    plunger_cycles: u64,
    // The move sweep's mover counts over ordinary steps.
    mover_sum: u64,
    mover_particle_sum: u64,
}

/// Which particle column [`Simulation::inject_fault`] corrupts.
///
/// Test/fault-injection surface: each class is crafted so a specific
/// [`crate::sentinel`] check catches it (see `inject_fault` for the
/// physics of why).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// Kick the out-of-plane velocity `w` of a block of particles —
    /// trips the momentum-budget sentinel (and the energy pin in small
    /// populations) while leaving 2-D advection untouched.
    OutOfPlaneVelocity,
    /// Spike one particle's streamwise velocity `u` far past the
    /// classifier halo — trips the velocity-halo sentinel.
    StreamwiseVelocity,
    /// Rotate one particle's cached cell index to a different (still
    /// in-range) cell — trips the segment-consistency sentinel.
    CellIndex,
}

impl Simulation {
    /// Build and initialise a simulation from a configuration.
    ///
    /// Panics on an invalid configuration; services that must survive bad
    /// input use [`Simulation::try_new`].
    pub fn new(cfg: SimConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid SimConfig: {e}"))
    }

    /// Build and initialise a simulation, reporting configuration
    /// problems as a typed [`crate::config::ConfigError`] instead of panicking.
    pub fn try_new(cfg: SimConfig) -> Result<Self, crate::config::ConfigError> {
        let cfg = cfg.try_validated()?;
        let mut sim = Self::shell(cfg);
        let mut domain = std::mem::take(&mut sim.shards[0]);
        domain.parts = init::populate(
            &sim.cfg,
            &sim.tunnel,
            sim.body.as_ref(),
            &sim.fs,
            &sim.volumes,
        );
        let n = domain.parts.len();
        domain.decisions.reserve(n);
        // Establish sorted order once so `bounds` is valid before step 1:
        // key every row, then rank.
        sortstep::key_rows(
            &mut domain.parts,
            &sim.tunnel,
            sim.res_base,
            sim.res,
            sim.cfg.jitter_bits,
            sim.rng_mode,
            domain.sort_ws.input_pairs(n),
            0..n as u32,
        );
        domain.rank(&sim, Par::Pool);
        sim.shards[0] = domain;
        Ok(sim)
    }

    /// Everything [`Simulation::new`] derives from the configuration alone
    /// — geometry, kinetics tables, classifier, scratch, one empty shard —
    /// with *no* particles and no initial sort.  `new` populates and sorts
    /// on top of this; [`Simulation::resume`] instead installs a snapshot's
    /// particle state verbatim (re-sorting would consume per-particle
    /// jitter draws an uninterrupted run never made, breaking resume
    /// bit-identity).
    /// `cfg` must already be validated/normalised: `try_new` and
    /// [`Simulation::resume`] both run `try_validated` first and surface
    /// failures as typed errors.
    fn shell(cfg: SimConfig) -> Self {
        let tunnel = Tunnel::new(cfg.tunnel_w, cfg.tunnel_h);
        let body = cfg.body.build();
        let body_mono = MonoBody::build(&cfg.body);
        let fs = cfg.freestream();
        let res = ResLayout::for_cells(cfg.reservoir_cells);
        let volumes = init::cell_volumes(&tunnel, body.as_ref(), res);
        let sel = SelectionTable::build(
            &volumes,
            fs.p_inf(),
            cfg.n_per_cell,
            cfg.model,
            fs.mean_relative_speed(),
        );
        let res_base = tunnel.n_cells();
        let total_cells = res_base + res.total();
        let key_bits = key_bits_for(total_cells, cfg.jitter_bits);
        let plunger = Plunger::new(Fx::from_f64(fs.u_inf()), Fx::from_f64(cfg.plunger_trigger));
        // The halo invariant's speed bound (cells/step): drift plus a
        // six-sigma thermal margin (widened to the wall temperature under
        // diffuse walls).  The move phase guards every particle against
        // this bound individually — a rare faster outlier just takes the
        // full resolve path, and `track_halo` rebuilds the classifier if
        // the flow ever outgrows the bound for good.
        let t_scale = match cfg.walls {
            WallModel::Specular => 1.0,
            WallModel::Diffuse { t_wall } => t_wall.sqrt().max(1.0),
        };
        let halo = (fs.u_inf().abs() + 6.0 * fs.sigma() * t_scale).max(1.0);
        let classifier = CellClassifier::build(&tunnel, body.as_ref(), cfg.plunger_trigger, halo);
        Self {
            res,
            res_w_fx: Fx::from_int(res.w as i32),
            res_h_fx: Fx::from_int(res.h as i32),
            rounding: cfg.rounding,
            rng_mode: cfg.rng_mode,
            exec: ShardExec::new(cfg.exec, 1),
            cfg,
            tunnel,
            body,
            body_mono,
            fs,
            sel,
            volumes,
            shards: vec![Shard::new(total_cells as usize)],
            view: OnceLock::new(),
            layout: ShardLayout::new(vec![0, tunnel.width], tunnel.width, res_base, total_cells),
            outbox: Vec::new(),
            col_load: Vec::new(),
            repartitions: 0,
            plunger,
            res_base,
            key_bits,
            census: Vec::new(),
            merge_pos: Vec::new(),
            classifier,
            move_by_kind: [0; 4],
            max_speed_raw: 0,
            timings: StepTimings::default(),
            sampler: None,
            surf_sampler: None,
            steps: 0,
            candidates: 0,
            collisions: 0,
            exited: 0,
            introduced: 0,
            plunger_cycles: 0,
            mover_sum: 0,
            mover_particle_sum: 0,
        }
    }

    /// One single-sweep move phase (see [`crate::movephase`]) over `parts`
    /// — one shard's columns, which on one shard are all of them —
    /// monomorphised over the body: advance, resolve boundaries, refresh
    /// cells and pack the jittered sort pairs `keys` asks for, in one
    /// traversal dispatched by the per-cell geometry classification.
    /// `bounds` is the previous step's segment table.
    fn move_sweep(
        &self,
        parts: &mut ParticleStore,
        bounds: &[u32],
        keys: KeyPack<'_>,
        scratch: &mut MoveScratch,
        par: Par,
    ) -> MoveOutcome {
        match &self.body_mono {
            MonoBody::None(b) => self.move_sweep_mono(b, parts, bounds, keys, scratch, par),
            MonoBody::Wedge(b) => self.move_sweep_mono(b, parts, bounds, keys, scratch, par),
            MonoBody::Step(b) => self.move_sweep_mono(b, parts, bounds, keys, scratch, par),
            MonoBody::Plate(b) => self.move_sweep_mono(b, parts, bounds, keys, scratch, par),
            MonoBody::Cylinder(b) => self.move_sweep_mono(b, parts, bounds, keys, scratch, par),
        }
    }

    /// [`Simulation::move_sweep`] for a concrete body type, so `resolve`
    /// inlines into the per-particle loop.
    fn move_sweep_mono<B: Body>(
        &self,
        body: &B,
        parts: &mut ParticleStore,
        bounds: &[u32],
        keys: KeyPack<'_>,
        scratch: &mut MoveScratch,
        par: Par,
    ) -> MoveOutcome {
        let params = BoundaryParams {
            tunnel: &self.tunnel,
            body,
            res_base: self.res_base,
            res: self.res,
            u_drift: Fx::from_f64(self.fs.u_inf()),
            rect_half_raw: Fx::from_f64(self.fs.sigma() * 3f64.sqrt()).raw(),
            n_inf: self.cfg.n_per_cell,
            walls: self.cfg.walls,
            sigma_wall_raw: match self.cfg.walls {
                WallModel::Specular => 0,
                WallModel::Diffuse { t_wall } => {
                    Fx::from_f64(self.fs.sigma() * t_wall.sqrt()).raw()
                }
            },
            surface: self.surf_sampler.as_ref(),
        };
        movephase::move_phase(
            parts,
            &params,
            &self.classifier,
            &self.plunger,
            bounds,
            self.res_w_fx,
            self.res_h_fx,
            keys,
            scratch,
            par,
        )
    }

    /// Fold one step's move outcome — summed over the shards — into the
    /// ledgers and advance the plunger.  Returns the swept void when the
    /// plunger withdrew; the caller refills it from the canonical reservoir
    /// census and reports back through `introduced`.
    fn fold_move(&mut self, out: &MoveOutcome) -> Option<Fx> {
        self.exited += out.exited as u64;
        for (acc, n) in self.move_by_kind.iter_mut().zip(out.by_kind) {
            *acc += n;
        }
        self.track_halo(out.max_speed_raw);
        if let Some(acc) = &self.surf_sampler {
            acc.bump_step();
        }
        match self.plunger.advance() {
            PlungerEvent::Withdrawn { void_end } => {
                self.plunger_cycles += 1;
                Some(void_end)
            }
            _ => {
                // Movers over ordinary steps, against the population the
                // dispatch counts cover once each.
                self.mover_sum += out.movers as u64;
                self.mover_particle_sum += out.by_kind.iter().sum::<u64>();
                None
            }
        }
    }

    /// Fold one select + collide phase — one outcome per shard — into the
    /// ledgers and timings.  Each outcome's `select` and `collide` are
    /// per-run durations summed across worker threads — CPU time, not wall
    /// time.  Keep the buckets wall-clock-comparable with every other
    /// substep by splitting the phase's wall time in their proportion
    /// (exact on one thread, an attribution estimate on many).
    fn fold_collide(&mut self, phases: &[FusedPhase], wall: Duration) {
        let (mut select, mut collide) = (Duration::ZERO, Duration::ZERO);
        for phase in phases {
            self.candidates += phase.stats.candidates;
            self.collisions += phase.stats.collisions;
            select += phase.select;
            collide += phase.collide;
        }
        let cpu_total = select + collide;
        let select_wall = if cpu_total.is_zero() {
            wall / 2
        } else {
            wall.mul_f64(select.as_secs_f64() / cpu_total.as_secs_f64())
        };
        self.timings.add(Substep::Select, select_wall);
        self.timings
            .add(Substep::Collide, wall.saturating_sub(select_wall));
    }

    /// Record the step's observed speed bound; if the flow outgrew the
    /// classifier's halo, rebuild the classification with twice the
    /// observed bound so rebuilds stay rare.  (Correctness never depends
    /// on this: the sweep re-routes every faster-than-halo particle
    /// through the full resolve path individually.)
    fn track_halo(&mut self, max_speed_raw: u32) {
        self.max_speed_raw = self.max_speed_raw.max(max_speed_raw);
        let halo_raw = Fx::from_f64(self.classifier.halo()).raw() as u32;
        if max_speed_raw > halo_raw {
            let observed = max_speed_raw as f64 / (1u64 << Fx::FRAC_BITS) as f64;
            self.classifier = CellClassifier::build(
                &self.tunnel,
                self.body.as_ref(),
                self.cfg.plunger_trigger,
                2.0 * observed,
            );
        }
    }

    /// Advance one time step (the paper's four sub-steps, plus sampling if
    /// a window is open), panicking on a shard-worker failure (the
    /// non-`Result` form of [`Simulation::try_step`]).
    pub fn step(&mut self) {
        self.try_step().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Open a sampling window (subsequent steps accumulate fields, and —
    /// for bodies with a surface parameterisation — surface fluxes).
    pub fn begin_sampling(&mut self) {
        self.sampler = Some(FieldAccumulator::new(self.tunnel.width, self.tunnel.height));
        let n_facets = self.body.n_facets();
        if n_facets > 0 {
            self.surf_sampler = Some(SurfaceAccumulator::new(n_facets));
        }
    }

    /// Close the sampling window and return the averaged fields.
    ///
    /// Panics if no window is open.
    pub fn finish_sampling(&mut self) -> SampledField {
        let sampler = self
            .sampler
            .take()
            .expect("finish_sampling without begin_sampling");
        sampler.finish(
            self.cfg.n_per_cell,
            &self.volumes[..self.res_base as usize],
            self.fs.sigma(),
        )
    }

    /// Close the surface window (if one is open) and return the reduced
    /// Cp/Cf/Ch distributions.  `None` when the body has no surface
    /// parameterisation or no window was opened.
    pub fn finish_surface_sampling(&mut self) -> Option<SurfaceField> {
        self.surf_sampler
            .take()
            .map(|acc| acc.finish(self.body.as_ref(), &self.fs, self.cfg.n_per_cell))
    }

    /// The open surface-flux window, if any (read access for the
    /// conservation-closure tests).
    pub fn surface_sampler(&self) -> Option<&SurfaceAccumulator> {
        self.surf_sampler.as_ref()
    }

    /// The open volume-field window, if any — lets a resumed run tell how
    /// far through a protocol's averaging phase its checkpoint was taken
    /// and continue the window instead of restarting it.
    pub fn field_sampler(&self) -> Option<&FieldAccumulator> {
        self.sampler.as_ref()
    }

    /// Current physical ledgers: exact integer sums over the shards, so
    /// the same at every shard count and never stale.
    ///
    /// Population counts come from a binary search over each shard's sorted
    /// segment bounds (flow cells sort before reservoir cells), so `n_flow`
    /// costs O(log segments) instead of an O(N) scan of the cell column;
    /// the energy/momentum totals remain O(N) exact sums.
    pub fn diagnostics(&self) -> Diagnostics {
        let n_flow = self.n_flow();
        let (mut energy_raw, mut momentum_raw) = (0, [0; 5]);
        for parts in self.shards.iter().map(|s| &s.parts) {
            energy_raw += parts.total_energy_raw();
            let m = parts.total_momentum_raw();
            momentum_raw = std::array::from_fn(|k| momentum_raw[k] + m[k]);
        }
        Diagnostics {
            steps: self.steps,
            n_flow,
            n_reservoir: self.n_particles() - n_flow,
            candidates: self.candidates,
            collisions: self.collisions,
            exited: self.exited,
            introduced: self.introduced,
            plunger_cycles: self.plunger_cycles,
            energy_raw,
            momentum_raw,
        }
    }

    /// Particles currently in the flow: per shard, the start of its first
    /// reservoir segment in the sorted bounds (O(log segments)).
    pub fn n_flow(&self) -> usize {
        let flow = |d: &Shard| {
            let first_res = d.bounds[..d.n_segments()]
                .partition_point(|&start| d.parts.cell[start as usize] < self.res_base);
            d.bounds
                .get(first_res)
                .map_or(d.parts.len(), |&b| b as usize)
        };
        self.shards.iter().map(flow).sum()
    }

    /// Accumulated per-substep wall-clock timings.
    pub fn timings(&self) -> &StepTimings {
        &self.timings
    }

    /// Capacities of every buffer the sort/send hot path owns, in a fixed
    /// order: the refill census, then every shard's buffers in shard
    /// order.  The zero-allocation test asserts these are stable across
    /// steps once the simulation has warmed up.
    pub fn hot_path_capacities(&self) -> Vec<usize> {
        let mut caps = vec![self.census.capacity()];
        for d in &self.shards {
            caps.extend([
                d.decisions.capacity(),
                d.bounds.capacity(),
                d.order.capacity(),
                d.seg_cell.capacity(),
            ]);
            caps.extend(d.sort_ws.capacities());
            caps.extend(d.parts.back_buffer_capacities());
            caps.extend(d.move_scratch.capacities());
        }
        caps
    }

    /// `(steps, 0)`: every rank is the one counting sort.  Kept for the
    /// benchmark's adapter, which reads it as `(incremental, full)`.
    pub fn sort_path_counts(&self) -> (u64, u64) {
        (self.steps, 0)
    }

    /// Mover statistics from the move sweep: `(movers,
    /// particle-steps)` summed over ordinary (non-withdrawal) steps —
    /// divide for the mean mover fraction.
    pub fn mover_stats(&self) -> (u64, u64) {
        (self.mover_sum, self.mover_particle_sum)
    }

    /// The geometry-aware cell classification driving the move phase's
    /// dispatch (rebuilt only if the flow outgrows its halo bound).
    pub fn cell_classifier(&self) -> &CellClassifier {
        &self.classifier
    }

    /// Particles dispatched per move-phase run kind `[Free, Walls, Full,
    /// Reservoir]`, accumulated since construction.
    pub fn move_dispatch_counts(&self) -> [u64; 4] {
        self.move_by_kind
    }

    /// Largest per-component speed (raw fixed-point units) any particle
    /// has carried into a move sweep — the quantity the halo
    /// invariant bounds.
    pub fn max_observed_speed_raw(&self) -> u32 {
        self.max_speed_raw
    }

    /// Deterministically corrupt particle state — the fault-injection
    /// surface for the supervisor test harness.
    ///
    /// Each class models a distinct real failure (bit rot in a column,
    /// a stray write, a stale cache) and is designed so that a specific
    /// [`crate::sentinel`] check catches it.  The corruption is a pure
    /// function of `(target, salt, current state)`: no RNG stream is
    /// consumed, so an uninterrupted reference run and a
    /// corrupt-then-recover run share trajectories exactly.  Returns a
    /// human-readable description of what was damaged (for recovery
    /// logs).  Applied on the canonical state (several shards merge first
    /// and re-scatter after), so the sentinel-visible damage is the same
    /// at every shard count.
    pub fn inject_fault(&mut self, target: FaultTarget, salt: u64) -> String {
        let total = self.total_cells();
        let mut merged = (self.shards.len() > 1).then(|| self.take_merged());
        let parts = match &mut merged {
            Some(canon) => &mut canon.parts,
            None => &mut self.shards[0].parts,
        };
        let n = parts.len();
        assert!(n > 0, "cannot inject a fault into an empty simulation");
        let start = (salt as usize) % n;
        let what = match target {
            FaultTarget::OutOfPlaneVelocity => {
                // +4 cells/step of w over a block: a deterministic
                // momentum-ledger jolt (and an energy jolt in small
                // populations).  w does not advect 2-D motion, so the
                // damage persists until a sentinel looks at the ledgers.
                const KICK: i32 = 1 << 25;
                let block = (n / 64).clamp(32.min(n), n);
                for k in 0..block {
                    let i = (start + k) % n;
                    parts.w[i] = Fx::from_raw(parts.w[i].raw().saturating_add(KICK));
                }
                format!("w += 4.0 c/s over {block} particles from slot {start}")
            }
            FaultTarget::StreamwiseVelocity => {
                // One particle at 4 c/s streamwise: far past the 3x halo
                // bound for every registry config, yet slow enough that a
                // few move phases neither overflow positions nor matter.
                const SPIKE: i32 = 1 << 25;
                parts.u[start] = Fx::from_raw(SPIKE);
                format!("u := 4.0 c/s on particle {start}")
            }
            FaultTarget::CellIndex => {
                // Rotate one cached cell index to a different in-range
                // cell.  The move phase recomputes `cell` from position,
                // so this class self-heals after one step — inject it at
                // a sentinel boundary to model a stale cache caught in
                // the act.
                let old = parts.cell[start];
                parts.cell[start] = (old + 1) % total;
                format!("cell {old} -> {} on particle {start}", (old + 1) % total)
            }
        };
        if let Some(canon) = merged {
            self.scatter(&canon);
        }
        what
    }

    /// Reset the timing accumulators (e.g. after warm-up).
    pub fn reset_timings(&mut self) {
        self.timings.reset();
    }

    /// The particle store in canonical sorted order (read access for
    /// analysis tools).  Several shards merge into a cached view on the
    /// first read after a step (see [`shard`]).
    pub fn particles(&self) -> &ParticleStore {
        &self.canon().parts
    }

    /// Segment bounds of the current sorted order (merged like
    /// [`Simulation::particles`]).
    pub fn segment_bounds(&self) -> &[u32] {
        &self.canon().bounds
    }

    /// The permutation applied by the most recent sort (`new[i] =
    /// old[order[i]]`) — consumed by the CM-2 communication analysis.
    /// Panics at several shards: each shard's order names its own slots,
    /// so no canonical permutation exists there.
    pub fn last_sort_order(&self) -> &[u32] {
        assert_eq!(
            self.shards.len(),
            1,
            "last_sort_order needs one shard: several shards' orders name their own slots"
        );
        &self.shards[0].order
    }

    /// Each shard's particle columns and segment bounds, in shard order:
    /// what the sentinel scans in place of a merged view.
    pub(crate) fn shard_states(&self) -> impl Iterator<Item = (&ParticleStore, &[u32])> {
        self.shards.iter().map(|s| (&s.parts, &s.bounds[..]))
    }

    /// Total number of particles (flow + reservoir), summed over shards.
    pub fn n_particles(&self) -> usize {
        self.shards.iter().map(|s| s.parts.len()).sum()
    }

    /// First reservoir cell index.
    pub fn reservoir_base(&self) -> u32 {
        self.res_base
    }

    /// Total cell count, tunnel plus reservoir box — the exclusive upper
    /// bound of the `cell` column (what the segment-consistency sentinel
    /// checks against).
    pub fn total_cells(&self) -> u32 {
        self.res_base + self.res.total()
    }

    /// The tunnel geometry.
    pub fn tunnel(&self) -> &Tunnel {
        &self.tunnel
    }

    /// The freestream state.
    pub fn freestream(&self) -> &FreeStream {
        &self.fs
    }

    /// Per-cell free-volume fractions (flow cells then reservoir cells).
    pub fn volumes(&self) -> &[f64] {
        &self.volumes
    }

    /// The configuration the simulation was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The body in the test section.
    pub fn body(&self) -> &dyn Body {
        self.body.as_ref()
    }
}

// Checkpoint/restart lives in a child module so it can reach the private
// fields above without widening their visibility; the file stays flat in
// `src/` beside the other engine modules.
#[path = "snapshot.rs"]
pub mod snapshot;

// The step itself and the column-block decomposition it runs over are
// likewise a child module: they reach the same private state.
#[path = "shard.rs"]
pub mod shard;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BodySpec;

    #[test]
    fn steps_run_and_populations_stay_positive() {
        let mut sim = Simulation::new(SimConfig::small_test());
        sim.run(30);
        let d = sim.diagnostics();
        assert_eq!(d.steps, 30);
        assert!(d.n_flow > 0);
        assert!(d.n_reservoir > 0);
        assert!(d.candidates > 0);
        assert!(d.collisions > 0);
        assert_eq!(d.n_flow + d.n_reservoir, sim.n_particles());
    }

    #[test]
    fn particle_count_is_conserved() {
        let mut sim = Simulation::new(SimConfig::small_test());
        let n0 = sim.n_particles();
        sim.run(100);
        assert_eq!(
            sim.n_particles(),
            n0,
            "particles are never created/destroyed"
        );
    }

    #[test]
    fn deterministic_by_seed() {
        let mut a = Simulation::new(SimConfig::small_test());
        let mut b = Simulation::new(SimConfig::small_test());
        a.run(25);
        b.run(25);
        assert_eq!(a.particles().x, b.particles().x);
        assert_eq!(a.particles().u, b.particles().u);
        assert_eq!(a.diagnostics().collisions, b.diagnostics().collisions);
        let mut cfg = SimConfig::small_test();
        cfg.seed += 1;
        let mut c = Simulation::new(cfg);
        c.run(25);
        assert_ne!(a.particles().x, c.particles().x);
    }

    #[test]
    fn mover_stats_count_ordinary_steps_only() {
        // Over enough steps to cross several plunger withdrawals, the
        // mover sums grow on ordinary steps only — by the sweep's movers,
        // against the population it swept — and every step is one rank.
        let mut sim = Simulation::new(SimConfig::small_test());
        let mut want_psum = 0u64;
        for _ in 0..60 {
            let n = sim.n_particles() as u64;
            let (movers, _) = sim.mover_stats();
            let cycles = sim.diagnostics().plunger_cycles;
            sim.step();
            let (movers_after, psum_after) = sim.mover_stats();
            if sim.diagnostics().plunger_cycles == cycles {
                want_psum += n;
                assert!(movers_after > movers, "an ordinary step with no mover");
            } else {
                assert_eq!(movers_after, movers, "a withdrawal step counted movers");
            }
            assert_eq!(psum_after, want_psum);
        }
        assert!(
            sim.diagnostics().plunger_cycles > 0,
            "no withdrawal crossed"
        );
        let (movers, psum) = sim.mover_stats();
        assert!(movers < psum);
        assert_eq!(sim.sort_path_counts(), (60, 0));
    }

    #[test]
    fn no_particle_ends_inside_body_or_outside_tunnel() {
        let mut cfg = SimConfig::small_wedge(0.5);
        cfg.n_per_cell = 8.0;
        cfg.reservoir_fill = 16.0;
        let mut sim = Simulation::new(cfg);
        sim.run(60);
        let p = sim.particles();
        let res_base = sim.reservoir_base();
        let (w, h) = (sim.tunnel().width_fx(), sim.tunnel().height_fx());
        for i in 0..p.len() {
            if p.cell[i] < res_base {
                assert!(p.x[i] >= Fx::ZERO && p.x[i] < w, "x out of tunnel");
                assert!(p.y[i] >= Fx::ZERO && p.y[i] < h, "y out of tunnel");
                assert!(
                    !sim.body().contains(p.x[i], p.y[i]),
                    "particle {i} inside the body"
                );
            } else {
                assert!(p.x[i] >= Fx::ZERO && p.x[i] < sim.res_w_fx);
                assert!(p.y[i] >= Fx::ZERO && p.y[i] < sim.res_h_fx);
            }
        }
    }

    #[test]
    fn flow_keeps_flowing_through_the_tunnel() {
        let mut sim = Simulation::new(SimConfig::small_test());
        sim.run(200);
        let d = sim.diagnostics();
        assert!(d.exited > 0, "supersonic outflow must remove particles");
        assert!(d.plunger_cycles > 0, "plunger must cycle");
        assert!(d.introduced > 0, "inlet must introduce particles");
        // Inflow and outflow balance to within a plunger batch.
        let batch = (sim.cfg.n_per_cell * sim.cfg.plunger_trigger * sim.cfg.tunnel_h as f64) as i64;
        assert!(
            (d.introduced as i64 - d.exited as i64).abs() <= 2 * batch,
            "imbalance: in {} out {}",
            d.introduced,
            d.exited
        );
    }

    #[test]
    fn energy_is_stable_in_a_quiescent_tunnel() {
        // Mach 0: no bulk flow. The only energy sinks are physical — the
        // downstream boundary preferentially removes fast particles whose
        // velocities are then re-drawn at equilibrium (an open system) —
        // so the total should stay within a few percent.  Bit-level
        // conservation of the collision kernel itself is asserted in the
        // `collide` module tests.
        let mut cfg = SimConfig::small_test();
        cfg.mach = 0.0;
        cfg.lambda = 0.5;
        let mut sim = Simulation::new(cfg);
        let e0 = sim.diagnostics().energy_raw;
        sim.run(100);
        let d = sim.diagnostics();
        let rel = (d.energy_raw - e0) as f64 / e0 as f64;
        assert!(
            rel.abs() < 5e-2,
            "energy drift {rel} with stochastic rounding"
        );
    }

    #[test]
    fn sampling_window_produces_freestream_density() {
        let mut sim = Simulation::new(SimConfig::small_test());
        sim.run(50); // settle
        sim.begin_sampling();
        sim.run(100);
        let f = sim.finish_sampling();
        assert_eq!(f.steps, 100);
        // Interior density should hover near freestream (±20% with only
        // 10/cell and 100 steps).
        let mid = f.density_at(8, 6);
        assert!((0.7..1.3).contains(&mid), "ρ/ρ∞ = {mid}");
    }

    #[test]
    fn surface_window_reports_wedge_loads() {
        let mut cfg = SimConfig::small_wedge(0.5);
        cfg.n_per_cell = 8.0;
        cfg.reservoir_fill = 16.0;
        let mut sim = Simulation::new(cfg);
        sim.run(60);
        sim.begin_sampling();
        sim.run(80);
        let _field = sim.finish_sampling();
        let surf = sim.finish_surface_sampling().expect("wedge has facets");
        assert_eq!(surf.steps, 80);
        assert_eq!(surf.n_facets() as u32, sim.body().n_facets());
        // The ramp faces the Mach-4 stream: its Cp must be strongly
        // positive, and the body must feel downstream drag.
        let front: Vec<usize> = (0..surf.n_facets())
            .filter(|&k| surf.nx[k] < 0.0 && surf.ny[k] > 0.0)
            .collect();
        assert!(!front.is_empty());
        let cp_front = front.iter().map(|&k| surf.cp[k]).sum::<f64>() / front.len() as f64;
        assert!(cp_front > 0.3, "front-face mean Cp = {cp_front}");
        assert!(surf.force_x > 0.0, "drag = {}", surf.force_x);
        // Specular bodies are adiabatic: |Ch| stays at rounding-noise
        // level wherever the surface is actually being hit.
        for k in 0..surf.n_facets() {
            if surf.impacts_per_step[k] > 0.5 {
                assert!(
                    surf.ch[k].abs() < 0.05 * surf.e_inc_coeff[k].max(1e-12),
                    "facet {k}: ch {} vs incident {}",
                    surf.ch[k],
                    surf.e_inc_coeff[k]
                );
            }
        }
        // Closing again without a window is None.
        assert!(sim.finish_surface_sampling().is_none());
    }

    #[test]
    fn bodyless_window_has_no_surface_field() {
        let mut sim = Simulation::new(SimConfig::small_test());
        sim.begin_sampling();
        sim.run(5);
        let _ = sim.finish_sampling();
        assert!(sim.finish_surface_sampling().is_none());
    }

    #[test]
    fn collision_rate_matches_p_inf_in_uniform_gas() {
        // The calibration experiment: collisions per candidate ≈ P∞ when
        // the density sits at freestream.  Two small systematic excesses
        // are expected and bounded here: pair-weighted sampling of Poisson
        // cell occupancies inflates the mean by ≈ (1 + 1/n̄), and thermal
        // outflow slowly over-fills the reservoir cells.
        let mut cfg = SimConfig::small_test();
        cfg.mach = 0.0; // no drift: uniform box
        cfg.lambda = 0.5;
        cfg.n_per_cell = 40.0; // tame the fluctuation bias
        cfg.reservoir_fill = 40.0;
        let mut sim = Simulation::new(cfg);
        sim.run(50);
        let d = sim.diagnostics();
        let rate = d.collisions as f64 / d.candidates as f64;
        let p_inf = sim.freestream().p_inf();
        let ratio = rate / p_inf;
        assert!(
            (0.9..1.2).contains(&ratio),
            "acceptance {rate} vs P∞ {p_inf} (ratio {ratio})"
        );
    }

    #[test]
    fn step_body_is_supported_end_to_end() {
        let mut cfg = SimConfig::small_test();
        cfg.body = BodySpec::Step {
            x0: 8.0,
            x1: 10.0,
            h: 4.0,
        };
        let mut sim = Simulation::new(cfg);
        sim.run(40);
        let p = sim.particles();
        for i in 0..p.len() {
            if p.cell[i] < sim.reservoir_base() {
                assert!(!sim.body().contains(p.x[i], p.y[i]));
            }
        }
    }
}
