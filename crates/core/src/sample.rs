//! Sampling of macroscopic quantities.
//!
//! "The primary purpose of the sort is to put all particles occupying a
//! given cell into neighbouring addresses thus making it easy both to
//! identify collision candidates *and to sample macroscopic quantities from
//! cells*."  During a sampling window the engine accumulates, per flow
//! cell: occupancy, the three translational momentum sums, and the
//! translational and rotational energy sums.  Averaged over the window and
//! corrected for fractional cell volume, these give the density, bulk
//! velocity and temperature fields of figures 1–6.

use crate::particles::ParticleStore;
use dsmc_datapar::segments::RoCol;
use dsmc_datapar::{par_segments_mut, Par};
use dsmc_fixed::Fx;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Energy sums are stored as `Σ raw² >> ESHIFT` so that thousands of steps
/// of a dense cell still fit an `i64`.
const ESHIFT: u32 = 23;

/// Per-cell accumulators over a sampling window.
pub struct FieldAccumulator {
    w: u32,
    h: u32,
    steps: u64,
    count: Vec<AtomicU64>,
    mom_u: Vec<AtomicI64>,
    mom_v: Vec<AtomicI64>,
    mom_w: Vec<AtomicI64>,
    e_trans: Vec<AtomicI64>,
    e_rot: Vec<AtomicI64>,
}

impl FieldAccumulator {
    /// New zeroed accumulator for a `w × h` flow grid.
    pub fn new(w: u32, h: u32) -> Self {
        let n = (w * h) as usize;
        let azi = || (0..n).map(|_| AtomicI64::new(0)).collect::<Vec<_>>();
        Self {
            w,
            h,
            steps: 0,
            count: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mom_u: azi(),
            mom_v: azi(),
            mom_w: azi(),
            e_trans: azi(),
            e_rot: azi(),
        }
    }

    /// Advance the window's step counter by one: the step calls this once
    /// after feeding every shard's partial sums through
    /// [`FieldAccumulator::accumulate_partial`].
    pub fn bump_step(&mut self) {
        self.steps += 1;
    }

    /// Fold one sorted particle block into the per-cell sums *without*
    /// advancing the step counter.  Takes `&self`: the per-cell slots are
    /// relaxed atomics (order-independent integer adds), so disjoint
    /// shards of one step may feed the same window — each flow cell lives
    /// in exactly one shard, so the merged sums are bit-identical to one
    /// whole-population pass.  The cells fork into the rayon pool or run
    /// in turn as `par` says.
    #[allow(clippy::type_complexity)]
    pub fn accumulate_partial(
        &self,
        parts: &ParticleStore,
        bounds: &[u32],
        res_base: u32,
        par: Par,
    ) {
        // One task per cell; each writes its own accumulator slot, so the
        // relaxed atomics never contend.
        let this = self;
        par_segments_mut(
            (
                RoCol(parts.cell.as_slice()),
                RoCol(parts.u.as_slice()),
                RoCol(parts.v.as_slice()),
                RoCol(parts.w.as_slice()),
                RoCol(parts.r1.as_slice()),
                RoCol(parts.r2.as_slice()),
            ),
            bounds,
            &|_s,
              (cell, u, v, w, r1, r2): (
                RoCol<u32>,
                RoCol<Fx>,
                RoCol<Fx>,
                RoCol<Fx>,
                RoCol<Fx>,
                RoCol<Fx>,
            )| {
                let n = cell.0.len();
                if n == 0 {
                    return;
                }
                let c = cell.0[0];
                if c >= res_base {
                    return;
                }
                let (mut su, mut sv, mut sw) = (0i64, 0i64, 0i64);
                let (mut et, mut er) = (0i64, 0i64);
                for i in 0..n {
                    su += u.0[i].raw() as i64;
                    sv += v.0[i].raw() as i64;
                    sw += w.0[i].raw() as i64;
                    et += (u.0[i].sq_raw_wide() + v.0[i].sq_raw_wide() + w.0[i].sq_raw_wide())
                        >> ESHIFT;
                    er += (r1.0[i].sq_raw_wide() + r2.0[i].sq_raw_wide()) >> ESHIFT;
                }
                let c = c as usize;
                this.count[c].fetch_add(n as u64, Ordering::Relaxed);
                this.mom_u[c].fetch_add(su, Ordering::Relaxed);
                this.mom_v[c].fetch_add(sv, Ordering::Relaxed);
                this.mom_w[c].fetch_add(sw, Ordering::Relaxed);
                this.e_trans[c].fetch_add(et, Ordering::Relaxed);
                this.e_rot[c].fetch_add(er, Ordering::Relaxed);
            },
            par,
        );
    }

    /// Steps accumulated so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Grid dimensions `(w, h)` this accumulator was opened over.
    pub fn dims(&self) -> (u32, u32) {
        (self.w, self.h)
    }

    /// Export the window's raw sums as plain data (for checkpoints).
    pub fn export(&self) -> FieldAccumState {
        let load_i = |v: &[AtomicI64]| v.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        FieldAccumState {
            w: self.w,
            h: self.h,
            steps: self.steps,
            count: self
                .count
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            mom_u: load_i(&self.mom_u),
            mom_v: load_i(&self.mom_v),
            mom_w: load_i(&self.mom_w),
            e_trans: load_i(&self.e_trans),
            e_rot: load_i(&self.e_rot),
        }
    }

    /// Rebuild an open window from exported sums.
    ///
    /// Panics if the vector lengths disagree with the grid — checkpoint
    /// decode validates them (with a typed error) before calling.
    pub fn restore(st: &FieldAccumState) -> Self {
        let n = (st.w * st.h) as usize;
        assert!(
            [
                st.count.len(),
                st.mom_u.len(),
                st.mom_v.len(),
                st.mom_w.len(),
                st.e_trans.len(),
                st.e_rot.len(),
            ]
            .iter()
            .all(|&l| l == n),
            "field accumulator state does not match its grid"
        );
        let from_i = |v: &[i64]| v.iter().map(|&x| AtomicI64::new(x)).collect::<Vec<_>>();
        Self {
            w: st.w,
            h: st.h,
            steps: st.steps,
            count: st.count.iter().map(|&x| AtomicU64::new(x)).collect(),
            mom_u: from_i(&st.mom_u),
            mom_v: from_i(&st.mom_v),
            mom_w: from_i(&st.mom_w),
            e_trans: from_i(&st.e_trans),
            e_rot: from_i(&st.e_rot),
        }
    }

    /// Finish the window: turn sums into per-cell averaged fields.
    ///
    /// `n_inf` is the freestream density (particles per full cell) and
    /// `volumes` the fractional free volume per cell — "special allowance
    /// must be made for the fractional cell volume … in computing the time
    /// average cell density" (the correction the paper's plotting package
    /// lacked).
    pub fn finish(&self, n_inf: f64, volumes: &[f64], sigma_inf: f64) -> SampledField {
        let n = (self.w * self.h) as usize;
        assert_eq!(volumes.len(), n, "need one volume fraction per cell");
        let steps = self.steps.max(1) as f64;
        let one = Fx::ONE_RAW as f64;
        let mut density = vec![0.0; n];
        let mut ux = vec![0.0; n];
        let mut uy = vec![0.0; n];
        let mut t_trans = vec![0.0; n];
        let mut t_rot = vec![0.0; n];
        let mut occupancy = vec![0.0; n];
        for c in 0..n {
            let cnt = self.count[c].load(Ordering::Relaxed) as f64;
            occupancy[c] = cnt / steps;
            if volumes[c] > 1e-9 {
                density[c] = occupancy[c] / (n_inf * volumes[c]);
            }
            if cnt > 0.0 {
                let mu = self.mom_u[c].load(Ordering::Relaxed) as f64 / cnt / one;
                let mv = self.mom_v[c].load(Ordering::Relaxed) as f64 / cnt / one;
                let mw = self.mom_w[c].load(Ordering::Relaxed) as f64 / cnt / one;
                ux[c] = mu;
                uy[c] = mv;
                // ⟨c²⟩ in physical units: e_trans·2^ESHIFT / cnt / 2^46.
                let c2t = self.e_trans[c].load(Ordering::Relaxed) as f64 * (1u64 << ESHIFT) as f64
                    / cnt
                    / (one * one);
                let c2r = self.e_rot[c].load(Ordering::Relaxed) as f64 * (1u64 << ESHIFT) as f64
                    / cnt
                    / (one * one);
                let s2 = sigma_inf * sigma_inf;
                // Per-DOF variance about the bulk, normalised by σ∞².
                t_trans[c] = ((c2t - mu * mu - mv * mv - mw * mw) / 3.0 / s2).max(0.0);
                t_rot[c] = (c2r / 2.0 / s2).max(0.0);
            }
        }
        SampledField {
            w: self.w,
            h: self.h,
            steps: self.steps,
            density,
            ux,
            uy,
            t_trans,
            t_rot,
            occupancy,
        }
    }
}

/// Plain-data image of an open [`FieldAccumulator`] window — everything a
/// checkpoint must carry to continue the window bit-exactly (the sums are
/// exact integers, so export → restore loses nothing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldAccumState {
    /// Grid width.
    pub w: u32,
    /// Grid height.
    pub h: u32,
    /// Steps accumulated so far.
    pub steps: u64,
    /// Per-cell occupancy sums.
    pub count: Vec<u64>,
    /// Per-cell streamwise momentum sums (raw).
    pub mom_u: Vec<i64>,
    /// Per-cell wall-normal momentum sums (raw).
    pub mom_v: Vec<i64>,
    /// Per-cell out-of-plane momentum sums (raw).
    pub mom_w: Vec<i64>,
    /// Per-cell translational energy sums (`raw² >> ESHIFT`).
    pub e_trans: Vec<i64>,
    /// Per-cell rotational energy sums (`raw² >> ESHIFT`).
    pub e_rot: Vec<i64>,
}

/// Time-averaged macroscopic fields on the flow grid (row-major, `w × h`).
#[derive(Clone, Debug)]
pub struct SampledField {
    /// Grid width.
    pub w: u32,
    /// Grid height.
    pub h: u32,
    /// Number of steps averaged.
    pub steps: u64,
    /// Density relative to the freestream (`ρ/ρ∞`), volume-corrected.
    pub density: Vec<f64>,
    /// Bulk streamwise velocity (cells/step).
    pub ux: Vec<f64>,
    /// Bulk wall-normal velocity (cells/step).
    pub uy: Vec<f64>,
    /// Translational temperature relative to freestream.
    pub t_trans: Vec<f64>,
    /// Rotational temperature relative to freestream.
    pub t_rot: Vec<f64>,
    /// Raw mean occupancy (particles per cell per step, no volume
    /// correction) — what the paper's plotting package used, jagged edge
    /// and all.
    pub occupancy: Vec<f64>,
}

impl SampledField {
    /// Value of a field at `(ix, iy)`.
    #[inline]
    pub fn at(&self, field: &[f64], ix: u32, iy: u32) -> f64 {
        field[(iy * self.w + ix) as usize]
    }

    /// Density at `(ix, iy)`.
    #[inline]
    pub fn density_at(&self, ix: u32, iy: u32) -> f64 {
        self.at(&self.density, ix, iy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmc_rng::{Perm5, XorShift32};

    fn fx(v: f64) -> Fx {
        Fx::from_f64(v)
    }

    /// One step of a window over one sorted store.
    fn accumulate(acc: &mut FieldAccumulator, s: &ParticleStore, bounds: &[u32], res_base: u32) {
        acc.bump_step();
        acc.accumulate_partial(s, bounds, res_base, Par::Pool);
    }

    /// Build a sorted store with k particles in each of the w*h cells, all
    /// with velocity (u0, 0, 0) and rotational speed r0.
    fn uniform_store(w: u32, h: u32, k: u32, u0: f64, r0: f64) -> (ParticleStore, Vec<u32>) {
        let mut s = ParticleStore::default();
        let mut bounds = vec![0u32];
        for c in 0..w * h {
            for _ in 0..k {
                s.push(
                    fx((c % w) as f64 + 0.5),
                    fx((c / w) as f64 + 0.5),
                    [fx(u0), Fx::ZERO, Fx::ZERO, fx(r0), Fx::ZERO],
                    Perm5::IDENTITY,
                    XorShift32::new(c + 1),
                    c,
                );
            }
            bounds.push(s.len() as u32);
        }
        (s, bounds)
    }

    #[test]
    fn density_normalises_to_freestream() {
        let (s, bounds) = uniform_store(4, 3, 10, 0.25, 0.0);
        let mut acc = FieldAccumulator::new(4, 3);
        let volumes = vec![1.0; 12];
        for _ in 0..5 {
            accumulate(&mut acc, &s, &bounds, u32::MAX);
        }
        assert_eq!(acc.steps(), 5);
        let f = acc.finish(10.0, &volumes, 0.0566);
        for c in 0..12 {
            assert!((f.density[c] - 1.0).abs() < 1e-12);
            assert!((f.occupancy[c] - 10.0).abs() < 1e-12);
            assert!((f.ux[c] - 0.25).abs() < 1e-6);
            assert_eq!(f.uy[c], 0.0);
        }
    }

    #[test]
    fn volume_correction_applied() {
        let (s, bounds) = uniform_store(2, 1, 10, 0.0, 0.0);
        let mut acc = FieldAccumulator::new(2, 1);
        accumulate(&mut acc, &s, &bounds, u32::MAX);
        // Cell 1 has half volume: same occupancy = double density.
        let f = acc.finish(10.0, &[1.0, 0.5], 0.0566);
        assert!((f.density[0] - 1.0).abs() < 1e-12);
        assert!((f.density[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cold_drifting_gas_has_zero_temperature() {
        let (s, bounds) = uniform_store(2, 2, 8, 0.25, 0.0);
        let mut acc = FieldAccumulator::new(2, 2);
        accumulate(&mut acc, &s, &bounds, u32::MAX);
        let f = acc.finish(8.0, &[1.0; 4], 0.0566);
        for c in 0..4 {
            assert!(f.t_trans[c].abs() < 1e-6, "t_trans = {}", f.t_trans[c]);
        }
    }

    #[test]
    fn rotational_energy_shows_in_t_rot() {
        let sigma = 0.1;
        let (s, bounds) = uniform_store(1, 1, 100, 0.0, sigma);
        let mut acc = FieldAccumulator::new(1, 1);
        accumulate(&mut acc, &s, &bounds, u32::MAX);
        let f = acc.finish(100.0, &[1.0], sigma);
        // All particles have r1 = σ: ⟨r²⟩/2 = σ²/2 ⇒ t_rot = 0.5.
        assert!((f.t_rot[0] - 0.5).abs() < 0.01, "t_rot = {}", f.t_rot[0]);
    }

    #[test]
    fn reservoir_segments_skipped() {
        let (mut s, bounds) = uniform_store(2, 1, 4, 0.1, 0.0);
        // Mark the second cell's particles as reservoir.
        let res_base = 1u32;
        for i in 4..8 {
            s.cell[i] = res_base;
        }
        let mut acc = FieldAccumulator::new(2, 1);
        accumulate(&mut acc, &s, &bounds, res_base);
        let f = acc.finish(4.0, &[1.0, 1.0], 0.0566);
        assert!(f.occupancy[0] > 0.0);
        assert_eq!(f.occupancy[1], 0.0, "reservoir must not be sampled");
    }

    #[test]
    fn thermal_ensemble_measures_unit_temperature() {
        // Maxwellian at σ: t_trans should read ≈ 1.
        let sigma = 0.05;
        let fs = dsmc_kinetics::FreeStream::new(0.0, sigma * core::f64::consts::SQRT_2, 1.0);
        let mut rng = XorShift32::new(11);
        let mut s = ParticleStore::default();
        let n = 20_000;
        for _ in 0..n {
            let vel = dsmc_kinetics::sampling::maxwellian_5(&fs, &mut rng);
            s.push(
                fx(0.5),
                fx(0.5),
                vel,
                Perm5::IDENTITY,
                XorShift32::new(1),
                0,
            );
        }
        let bounds = vec![0, n as u32];
        let mut acc = FieldAccumulator::new(1, 1);
        accumulate(&mut acc, &s, &bounds, u32::MAX);
        let f = acc.finish(n as f64, &[1.0], sigma);
        assert!(
            (f.t_trans[0] - 1.0).abs() < 0.03,
            "t_trans = {}",
            f.t_trans[0]
        );
        assert!((f.t_rot[0] - 1.0).abs() < 0.03, "t_rot = {}", f.t_rot[0]);
    }
}
