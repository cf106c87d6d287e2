//! The separate-phase reference step: the test oracle for the engine.
//!
//! The engine's step fuses motion, boundaries, cell refresh and key
//! packing into one sweep, ranks incrementally, and selects and collides
//! in one traversal.  [`TwoStepSim`] runs the same time step the way the
//! paper lists it — one whole-population phase after another — by calling
//! the per-phase reference kernels `dsmc-core` keeps public and pins its
//! own unit tests against: [`motion::advect`], [`boundary::enforce`]
//! (vtable body dispatch), [`sortstep::sort_particles`] (key column,
//! allocating rank, ten column gathers) and [`collide::select_pairs`] then
//! [`collide::collide_selected`].  Same seed, same configuration: the
//! trajectory must equal [`dsmc_engine::Simulation`]'s bit for bit
//! (`tests/tests/pipeline.rs`).
//!
//! It is an oracle, not an engine: no timings, no sampling, no snapshot.

use dsmc_engine::boundary::{self, BoundaryParams, BoundaryScratch};
use dsmc_engine::config::{ResLayout, WallModel};
use dsmc_engine::particles::ParticleStore;
use dsmc_engine::{collide, init, motion, sortstep, Diagnostics, SimConfig};
use dsmc_fixed::Fx;
use dsmc_geom::{Body, Plunger, Tunnel};
use dsmc_kinetics::{FreeStream, SelectionTable};
use std::sync::Arc;

/// The wind-tunnel time step as four separate whole-population phases.
pub struct TwoStepSim {
    cfg: SimConfig,
    tunnel: Tunnel,
    body: Arc<dyn Body>,
    fs: FreeStream,
    sel: SelectionTable,
    parts: ParticleStore,
    plunger: Plunger,
    res_base: u32,
    res: ResLayout,
    key_bits: u32,
    decisions: Vec<u8>,
    bounds: Vec<u32>,
    order: Vec<u32>,
    steps: u64,
    candidates: u64,
    collisions: u64,
    exited: u64,
    introduced: u64,
    plunger_cycles: u64,
}

impl TwoStepSim {
    /// Build, populate and sort once, from the same configuration and
    /// seed as [`dsmc_engine::Simulation::new`].  Panics on an invalid
    /// configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let cfg = cfg.validated();
        let tunnel = Tunnel::new(cfg.tunnel_w, cfg.tunnel_h);
        let body = cfg.body.build();
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
        let mut sim = Self {
            parts: init::populate(&cfg, &tunnel, body.as_ref(), &fs, &volumes),
            plunger: Plunger::new(Fx::from_f64(fs.u_inf()), Fx::from_f64(cfg.plunger_trigger)),
            key_bits: sortstep::key_bits_for(res_base + res.total(), cfg.jitter_bits),
            cfg,
            tunnel,
            body,
            fs,
            sel,
            res_base,
            res,
            decisions: Vec::new(),
            bounds: Vec::new(),
            order: Vec::new(),
            steps: 0,
            candidates: 0,
            collisions: 0,
            exited: 0,
            introduced: 0,
            plunger_cycles: 0,
        };
        sim.sort();
        sim
    }

    fn sort(&mut self) {
        let out = sortstep::sort_particles(
            &mut self.parts,
            &self.tunnel,
            self.res_base,
            self.res,
            self.cfg.jitter_bits,
            self.key_bits,
            self.cfg.rng_mode,
        );
        self.bounds = out.bounds;
        self.order = out.order;
    }

    /// Advance one time step: motion, boundaries, sort, select, collide.
    pub fn step(&mut self) {
        motion::advect(
            &mut self.parts,
            self.res_base,
            Fx::from_int(self.res.w as i32),
            Fx::from_int(self.res.h as i32),
        );

        let params = BoundaryParams {
            tunnel: &self.tunnel,
            body: self.body.as_ref(),
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
            surface: None,
        };
        let out = boundary::enforce(
            &mut self.parts,
            &params,
            &mut self.plunger,
            &mut BoundaryScratch::new(),
        );
        self.exited += out.exited as u64;
        self.introduced += out.introduced as u64;
        self.plunger_cycles += out.withdrew as u64;

        self.sort();

        self.candidates += collide::select_pairs(
            &mut self.parts,
            &self.bounds,
            &self.sel,
            self.cfg.rng_mode,
            &mut self.decisions,
        );
        self.collisions += collide::collide_selected(
            &mut self.parts,
            &self.bounds,
            &self.decisions,
            self.cfg.rounding,
            self.cfg.rng_mode,
        );
        self.steps += 1;
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// The particle store, in the last sort's order.
    pub fn particles(&self) -> &ParticleStore {
        &self.parts
    }

    /// Segment bounds of the current sorted order.
    pub fn segment_bounds(&self) -> &[u32] {
        &self.bounds
    }

    /// The permutation applied by the most recent sort.
    pub fn last_sort_order(&self) -> &[u32] {
        &self.order
    }

    /// The same physical ledgers [`dsmc_engine::Simulation::diagnostics`]
    /// reports (populations by a full scan of the cell column).
    pub fn diagnostics(&self) -> Diagnostics {
        let res_base = self.res_base;
        let n_flow = self.parts.cell.iter().filter(|&&c| c < res_base).count();
        Diagnostics {
            steps: self.steps,
            n_flow,
            n_reservoir: self.parts.len() - n_flow,
            candidates: self.candidates,
            collisions: self.collisions,
            exited: self.exited,
            introduced: self.introduced,
            plunger_cycles: self.plunger_cycles,
            energy_raw: self.parts.total_energy_raw(),
            momentum_raw: self.parts.total_momentum_raw(),
        }
    }
}
