//! The serial comparator: one fast conventional processor.
//!
//! The paper benchmarks the CM-2 implementation against "the corresponding
//! fully vectorized implementation of this algorithm on the Cray-2"
//! (0.5 µs/particle/step, hand-vectorized with 30% assembler).  This module
//! is our stand-in: the *same physics* — motion, walls/body/plunger/
//! reservoir, pairwise selection, 5-vector collisions — implemented the way
//! one tunes for a single fast core: array-of-structs particles, a counting
//! sort by cell (no jittered radix rank), in-cell Fisher–Yates for partner
//! decorrelation, no parallel machinery at all.
//!
//! The benchmark's `baselines.parallel_over_serial` compares it with the
//! data-parallel engine on the same workload, our analogue of the paper's
//! CM-2 : Cray-2 = 7.2 : 0.5 ratio.

use dsmc_engine::config::ResLayout;
use dsmc_engine::SimConfig;
use dsmc_fixed::Fx;
use dsmc_geom::{Body, Plunger, PlungerEvent, Tunnel, WallOutcome};
use dsmc_kinetics::collision::collide_pair;
use dsmc_kinetics::sampling::maxwellian_5;
use dsmc_kinetics::{FreeStream, SelectionTable};
use dsmc_rng::{Perm5, PermTable, SplitMix64, XorShift32};
use std::sync::Arc;

/// One particle, array-of-structs layout (cache-line friendly for the
/// serial sweep: every pass touches all fields).
#[derive(Clone, Copy, Debug)]
struct P {
    x: Fx,
    y: Fx,
    vel: [Fx; 5],
    perm: Perm5,
    rng: XorShift32,
    cell: u32,
}

/// Serial wind-tunnel simulation (same configuration type as the engine).
pub struct SerialSim {
    cfg: SimConfig,
    tunnel: Tunnel,
    body: Arc<dyn Body>,
    fs: FreeStream,
    sel: SelectionTable,
    plunger: Plunger,
    res_base: u32,
    res: ResLayout,
    parts: Vec<P>,
    scratch: Vec<P>,
    order: Vec<u32>,
    counts: Vec<u32>,
    offsets: Vec<u32>,
    steps: u64,
    collisions: u64,
    host: XorShift32,
}

impl SerialSim {
    /// Build from the shared configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let cfg = cfg.validated();
        let tunnel = Tunnel::new(cfg.tunnel_w, cfg.tunnel_h);
        let body = cfg.body.build();
        let fs = cfg.freestream();
        let res = ResLayout::for_cells(cfg.reservoir_cells);
        let mut volumes = Vec::new();
        for iy in 0..cfg.tunnel_h {
            for ix in 0..cfg.tunnel_w {
                volumes.push(body.free_volume_fraction(ix, iy));
            }
        }
        volumes.extend(std::iter::repeat_n(1.0, res.total() as usize));
        let sel = SelectionTable::build(
            &volumes,
            fs.p_inf(),
            cfg.n_per_cell,
            cfg.model,
            fs.mean_relative_speed(),
        );
        let res_base = tunnel.n_cells();
        let mut seeder = SplitMix64::new(cfg.seed);
        let mut host = XorShift32::new(seeder.next_seed32());
        let table = PermTable::generate_default(seeder.next_seed32());
        let free: f64 = volumes[..res_base as usize].iter().sum();
        let n_flow = (cfg.n_per_cell * free).round() as usize;
        let n_res = (cfg.reservoir_fill * res.total() as f64).round() as usize;
        let mut parts = Vec::with_capacity(n_flow + n_res);
        let (wf, hf) = (cfg.tunnel_w as f64, cfg.tunnel_h as f64);
        while parts.len() < n_flow {
            let x = (host.next_f64() * wf).min(wf - 1e-9);
            let y = (host.next_f64() * hf).min(hf - 1e-9);
            if body.contains_f64(x, y) {
                continue;
            }
            let (xf, yf) = (Fx::from_f64(x), Fx::from_f64(y));
            if body.contains(xf, yf) {
                continue;
            }
            parts.push(P {
                x: xf,
                y: yf,
                vel: maxwellian_5(&fs, &mut host),
                perm: table.deal(parts.len()),
                rng: XorShift32::new(seeder.next_seed32()),
                cell: tunnel.cell_index(xf, yf),
            });
        }
        let (rw, rh) = (res.w as f64, res.h as f64);
        for _ in 0..n_res {
            let xf = Fx::from_f64((host.next_f64() * rw).min(rw - 1e-9));
            let yf = Fx::from_f64((host.next_f64() * rh).min(rh - 1e-9));
            parts.push(P {
                x: xf,
                y: yf,
                vel: maxwellian_5(&fs, &mut host),
                perm: table.deal(parts.len()),
                rng: XorShift32::new(seeder.next_seed32()),
                cell: res_base + res.cell(xf, yf),
            });
        }
        let total_cells = (res_base + res.total()) as usize;
        let n = parts.len();
        let plunger = Plunger::new(Fx::from_f64(fs.u_inf()), Fx::from_f64(cfg.plunger_trigger));
        Self {
            cfg,
            tunnel,
            body,
            fs,
            sel,
            plunger,
            res_base,
            res,
            parts,
            scratch: Vec::with_capacity(n),
            order: vec![0; n],
            counts: vec![0; total_cells],
            offsets: vec![0; total_cells + 1],
            steps: 0,
            collisions: 0,
            host,
        }
    }

    /// Number of particles.
    pub fn n_particles(&self) -> usize {
        self.parts.len()
    }

    /// Particles currently in the flow.
    pub fn n_flow(&self) -> usize {
        self.parts.iter().filter(|p| p.cell < self.res_base).count()
    }

    /// Collisions so far.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Steps so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Exact total energy (raw² units).
    pub fn total_energy_raw(&self) -> i128 {
        self.parts
            .iter()
            .map(|p| p.vel.iter().map(|c| c.sq_raw_wide()).sum::<i64>() as i128)
            .sum()
    }

    /// Advance one step.
    pub fn step(&mut self) {
        let res_w_fx = Fx::from_int(self.res.w as i32);
        let res_h_fx = Fx::from_int(self.res.h as i32);
        let u_drift = Fx::from_f64(self.fs.u_inf());
        let rect_half = Fx::from_f64(self.fs.sigma() * 3f64.sqrt()).raw();
        let w_fx = self.tunnel.width_fx();

        // 1+2) Motion and boundaries in one serial sweep.
        for p in &mut self.parts {
            if p.cell < self.res_base {
                p.x += p.vel[0];
                p.y += p.vel[1];
                self.plunger.reflect(&mut p.x, &mut p.vel[0]);
                let wall = self.tunnel.enforce_walls(&mut p.y, &mut p.vel[1], p.x);
                let (vu, vv) = p.vel.split_at_mut(1);
                self.body
                    .resolve(&mut p.x, &mut p.y, &mut vu[0], &mut vv[0]);
                if wall == WallOutcome::ExitedDownstream || p.x >= w_fx {
                    // To the reservoir with rectangular velocities.
                    p.x = Fx::from_raw(
                        ((p.rng.next_u32() as u64 * res_w_fx.raw() as u64) >> 32) as i32,
                    );
                    p.y = Fx::from_raw(
                        ((p.rng.next_u32() as u64 * res_h_fx.raw() as u64) >> 32) as i32,
                    );
                    let span = (2 * rect_half + 1) as u32;
                    for (k, v) in p.vel.iter_mut().enumerate() {
                        *v = Fx::from_raw(p.rng.next_below(span) as i32 - rect_half);
                        if k == 0 {
                            *v += u_drift;
                        }
                    }
                    p.cell = self.res_base + self.res.cell(p.x, p.y);
                } else {
                    p.cell = self.tunnel.cell_index(p.x, p.y);
                }
            } else {
                p.x = wrap(p.x + p.vel[0], res_w_fx);
                p.y = wrap(p.y + p.vel[1], res_h_fx);
                p.cell = self.res_base + self.res.cell(p.x, p.y);
            }
        }

        // Plunger refill (strided take, as the parallel engine does, so
        // the reservoir drains uniformly across its cells).
        if let PlungerEvent::Withdrawn { void_end } = self.plunger.advance() {
            let need = (self.cfg.n_per_cell * void_end.to_f64() * self.cfg.tunnel_h as f64).round()
                as usize;
            let h = self.cfg.tunnel_h as f64;
            let void_f = void_end.to_f64();
            let res_idx: Vec<usize> = (0..self.parts.len())
                .filter(|&i| self.parts[i].cell >= self.res_base)
                .collect();
            let avail = res_idx.len();
            let take = need.min(avail);
            if take > 0 {
                let stride = (avail as f64 / take as f64).max(1.0);
                for k in 0..take {
                    let i = res_idx[(k as f64 * stride) as usize % avail];
                    let p = &mut self.parts[i];
                    let x = Fx::from_f64(void_f * p.rng.next_f64());
                    let y = Fx::from_f64((h * p.rng.next_f64()).min(h - 1e-6));
                    p.x = x;
                    p.y = y;
                    p.cell = self.tunnel.cell_index(x, y);
                }
            }
        }

        // 3a) Counting sort by cell.
        self.counts.iter_mut().for_each(|c| *c = 0);
        for p in &self.parts {
            self.counts[p.cell as usize] += 1;
        }
        let mut acc = 0u32;
        for (c, &k) in self.counts.iter().enumerate() {
            self.offsets[c] = acc;
            acc += k;
        }
        self.offsets[self.counts.len()] = acc;
        let mut cursor = self.offsets[..self.counts.len()].to_vec();
        for (i, p) in self.parts.iter().enumerate() {
            let dst = cursor[p.cell as usize];
            cursor[p.cell as usize] += 1;
            self.order[dst as usize] = i as u32;
        }
        self.scratch.clear();
        self.scratch
            .extend(self.order.iter().map(|&i| self.parts[i as usize]));
        core::mem::swap(&mut self.parts, &mut self.scratch);

        // 3a') In-cell decorrelation shuffle (the jitter's role).
        for c in 0..self.counts.len() {
            let lo = self.offsets[c] as usize;
            let hi = self.offsets[c + 1] as usize;
            for i in ((lo + 1)..hi).rev() {
                let j = lo + self.host.next_below((i - lo + 1) as u32) as usize;
                self.parts.swap(i, j);
            }
        }

        // 3b+4) Selection and collision, cell by cell.
        for c in 0..self.counts.len() {
            let lo = self.offsets[c] as usize;
            let hi = self.offsets[c + 1] as usize;
            let n = hi - lo;
            if n < 2 {
                continue;
            }
            let mut i = lo;
            while i + 1 < hi {
                let rand24 = self.parts[i].rng.next_bits(24);
                if self.sel.decide(c as u32, n as u32, rand24) {
                    let (a, b) = self.parts.split_at_mut(i + 1);
                    let pa = &mut a[i];
                    let pb = &mut b[0];
                    let perm = pa.perm;
                    let mut stream = pa.rng;
                    collide_pair(
                        &mut pa.vel,
                        &mut pb.vel,
                        perm,
                        self.cfg.rounding,
                        &mut stream,
                    );
                    pa.rng = stream;
                    let ja = pa.rng.next_below(5);
                    pa.perm = pa.perm.top_transpose(ja);
                    let jb = pb.rng.next_below(5);
                    pb.perm = pb.perm.top_transpose(jb);
                    self.collisions += 1;
                }
                i += 2;
            }
        }
        self.steps += 1;
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Mean flow-cell density relative to freestream over a box (crude
    /// sampling for validation tests).
    pub fn density_rel(&self, x0: u32, x1: u32, y0: u32, y1: u32) -> f64 {
        let mut count = 0usize;
        for p in &self.parts {
            if p.cell < self.res_base {
                let ix = p.x.floor_int() as u32;
                let iy = p.y.floor_int() as u32;
                if ix >= x0 && ix < x1 && iy >= y0 && iy < y1 {
                    count += 1;
                }
            }
        }
        let cells = ((x1 - x0) * (y1 - y0)) as f64;
        count as f64 / (cells * self.cfg.n_per_cell)
    }
}

#[inline]
fn wrap(mut x: Fx, span: Fx) -> Fx {
    while x < Fx::ZERO {
        x += span;
    }
    while x >= span {
        x -= span;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_conserves_particle_count() {
        let mut sim = SerialSim::new(SimConfig::small_test());
        let n0 = sim.n_particles();
        sim.run(50);
        assert_eq!(sim.n_particles(), n0);
        assert!(sim.collisions() > 0);
        assert!(sim.n_flow() > 0);
    }

    #[test]
    fn collision_statistics_match_parallel_engine() {
        // Same configuration, same seed family: the two implementations
        // should produce statistically matching collision rates.
        let cfg = SimConfig::small_test();
        let mut serial = SerialSim::new(cfg.clone());
        let mut parallel = dsmc_engine::Simulation::new(cfg);
        serial.run(60);
        parallel.run(60);
        let rs = serial.collisions() as f64 / 60.0;
        let rp = parallel.diagnostics().collisions as f64 / 60.0;
        assert!(
            (rs / rp - 1.0).abs() < 0.1,
            "collisions/step serial {rs} vs parallel {rp}"
        );
    }

    #[test]
    fn density_behind_a_step_rises() {
        let mut cfg = SimConfig::small_test();
        cfg.body = dsmc_engine::BodySpec::Step {
            x0: 9.0,
            x1: 11.0,
            h: 5.0,
        };
        let mut sim = SerialSim::new(cfg);
        sim.run(250);
        let upstream_face = sim.density_rel(6, 9, 0, 5);
        let far_field = sim.density_rel(1, 4, 8, 11);
        assert!(
            upstream_face > 1.3 * far_field,
            "compression {upstream_face} vs far field {far_field}"
        );
    }

    #[test]
    fn energy_stays_bounded() {
        let mut sim = SerialSim::new(SimConfig::small_test());
        let e0 = sim.total_energy_raw();
        sim.run(100);
        let e1 = sim.total_energy_raw();
        let rel = (e1 - e0) as f64 / e0 as f64;
        assert!(rel.abs() < 0.1, "energy drift {rel}");
    }
}
