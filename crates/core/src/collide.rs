//! Sub-steps 3b and 4: partner selection and collisions.
//!
//! After the sort, each occupied cell is one contiguous segment.  Collision
//! *candidates* are even/odd neighbours ("all even numbered partners
//! within a cell are eligible for collision with their odd numbered
//! neighbour") — *even in the global sorted address*, so that with block
//! virtual-processor layout a pair always shares a physical processor for
//! VP ratios ≥ 2, the locality property behind the knee of figure 7.  Each
//! candidate pair becomes an actual collision with probability
//! `P_c = P∞·(n/n∞)` (Maxwell molecules) — a per-pair decision, which is
//! exactly what makes the phase parallel at the particle level rather than
//! the cell level.
//!
//! Collisions run one task per cell over disjoint segments
//! ([`dsmc_datapar::par_segments_mut`]); within a physical processor on the
//! CM-2 this communication was free for virtual-processor ratios ≥ 2, which
//! is the knee in the paper's figure 7.

use crate::config::RngMode;
use crate::particles::ParticleStore;
use dsmc_datapar::segments::RoCol;
use dsmc_datapar::{par_segment_runs_mut, par_segments_mut, Par};
use dsmc_fixed::{Fx, Rounding};
use dsmc_kinetics::collision::{collide_pair, WordBits};
use dsmc_kinetics::SelectionTable;
use dsmc_rng::{Perm5, XorShift32};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tallies from one selection + collision phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairStats {
    /// Candidate pairs examined.
    pub candidates: u64,
    /// Collisions performed.
    pub collisions: u64,
}

/// Local offset of a segment's first pair head: the canonical start
/// parity from the override table when one is given, the segment's own
/// start parity otherwise.
#[inline(always)]
fn parity_at(seg_parity: Option<&[u32]>, seg: usize, start: u32) -> usize {
    match seg_parity {
        Some(p) => p[seg] as usize,
        None => (start & 1) as usize,
    }
}

/// Dirty-bits word for the pair `(i, i+1)`: a mix of low-order state bits,
/// the paper's "quick but dirty random number".
#[inline(always)]
fn dirty_word(u: &[Fx], v: &[Fx], w: &[Fx], i: usize) -> u32 {
    (u[i].raw() as u32)
        ^ (v[i + 1].raw() as u32).rotate_left(9)
        ^ (w[i].raw() as u32).rotate_left(18)
        ^ (v[i].raw() as u32).rotate_left(27)
}

/// Phase 3b: mark colliding pairs.
///
/// `decisions[i] = 1` marks `i` as the head of a pair `(i, i+1)` that will
/// collide.  Returns the number of candidates examined.
#[allow(clippy::type_complexity)]
pub fn select_pairs(
    parts: &mut ParticleStore,
    bounds: &[u32],
    sel: &SelectionTable,
    rng_mode: RngMode,
    decisions: &mut Vec<u8>,
) -> u64 {
    let n = parts.len();
    decisions.clear();
    decisions.resize(n, 0);
    let candidates = AtomicU64::new(0);
    let needs_g = sel.model().needs_relative_speed();

    par_segments_mut(
        (
            parts.rng.as_mut_slice(),
            decisions.as_mut_slice(),
            RoCol(parts.cell.as_slice()),
            RoCol(parts.u.as_slice()),
            RoCol(parts.v.as_slice()),
            RoCol(parts.w.as_slice()),
        ),
        bounds,
        &|s,
          (rng, dec, cell, u, v, w): (
            &mut [XorShift32],
            &mut [u8],
            RoCol<u32>,
            RoCol<Fx>,
            RoCol<Fx>,
            RoCol<Fx>,
        )| {
            let count = dec.len();
            if count < 2 {
                return;
            }
            let c = cell.0[0];
            let mut local_candidates = 0u64;
            // Pair heads sit at even *global* sorted addresses so that
            // even/odd partners share a physical processor (block VP
            // layout) whenever the VP ratio is at least 2.
            let mut i = (bounds[s] & 1) as usize;
            while i + 1 < count {
                local_candidates += 1;
                let rand24 = match rng_mode {
                    RngMode::Explicit => rng[i].next_bits(24),
                    RngMode::DirtyBits => dirty_word(u.0, v.0, w.0, i) & 0xFF_FFFF,
                };
                let hit = if needs_g {
                    let du = u.0[i].to_f64() - u.0[i + 1].to_f64();
                    let dv = v.0[i].to_f64() - v.0[i + 1].to_f64();
                    let dw = w.0[i].to_f64() - w.0[i + 1].to_f64();
                    let g = (du * du + dv * dv + dw * dw).sqrt();
                    sel.decide_power_law(c, count as u32, g, rand24)
                } else {
                    sel.decide(c, count as u32, rand24)
                };
                if hit {
                    dec[i] = 1;
                }
                i += 2;
            }
            candidates.fetch_add(local_candidates, Ordering::Relaxed);
        },
        Par::Pool,
    );
    candidates.into_inner()
}

/// Output of the fused selection + collision phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct FusedPhase {
    /// Candidate and collision tallies.
    pub stats: PairStats,
    /// Wall-clock spent in the selection sub-loops.
    pub select: std::time::Duration,
    /// Wall-clock spent in the collision sub-loops.
    pub collide: std::time::Duration,
}

/// Sub-steps 3b and 4 in one traversal (the hot-loop form): per run of
/// cells, select all partners, then collide the selected pairs while the
/// run's columns are still cache-hot.
///
/// Bit-identical to [`select_pairs`] followed by [`collide_selected`]
/// (asserted by tests): each even/odd pair touches only its own two
/// particles' state and RNG streams, so interleaving selection and
/// collision across *different* pairs cannot change any outcome.  The two
/// sub-loops are timed per run (a handful of clock reads per ~4k
/// particles), preserving the paper's select/collide timing split.
///
/// Pair heads must sit at even *canonical* sorted addresses (see
/// [`select_pairs`]).  When `parts` holds the whole population those
/// addresses are the segment bounds themselves and `seg_parity` is
/// `None`.  A shard of the population holds a canonical *subsequence*:
/// its local segment starts say nothing about the canonical address, so
/// the sharded engine passes the canonical start parity of each local
/// segment (`seg_parity[s] ∈ {0, 1}`, one entry per segment of `bounds`)
/// — with it, every pair drawn here is exactly the pair the
/// whole-population phase would draw.  The runs fork into the rayon pool
/// or run in turn as `par` says; the runs themselves are the same.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
pub fn select_and_collide(
    parts: &mut ParticleStore,
    bounds: &[u32],
    sel: &SelectionTable,
    rounding: Rounding,
    rng_mode: RngMode,
    decisions: &mut Vec<u8>,
    seg_parity: Option<&[u32]>,
    par: Par,
) -> FusedPhase {
    let n = parts.len();
    debug_assert!(
        seg_parity.is_none_or(|p| p.len() + 1 == bounds.len()),
        "need one parity per segment"
    );
    decisions.clear();
    decisions.resize(n, 0);
    let candidates = AtomicU64::new(0);
    let collisions = AtomicU64::new(0);
    let select_ns = AtomicU64::new(0);
    let collide_ns = AtomicU64::new(0);
    let needs_g = sel.model().needs_relative_speed();

    par_segment_runs_mut(
        (
            parts.u.as_mut_slice(),
            parts.v.as_mut_slice(),
            parts.w.as_mut_slice(),
            parts.r1.as_mut_slice(),
            parts.r2.as_mut_slice(),
            parts.perm.as_mut_slice(),
            parts.rng.as_mut_slice(),
            decisions.as_mut_slice(),
            RoCol(parts.cell.as_slice()),
        ),
        bounds,
        &|first,
          brun,
          (u, v, w, r1, r2, perm, rng, dec, cell): (
            &mut [Fx],
            &mut [Fx],
            &mut [Fx],
            &mut [Fx],
            &mut [Fx],
            &mut [Perm5],
            &mut [XorShift32],
            &mut [u8],
            RoCol<u32>,
        )| {
            let base = brun[0] as usize;
            let t0 = std::time::Instant::now();

            // Selection sub-loop over every cell of the run.
            let mut local_candidates = 0u64;
            for s in 0..brun.len() - 1 {
                let lo = brun[s] as usize - base;
                let hi = brun[s + 1] as usize - base;
                if hi - lo < 2 {
                    continue;
                }
                let c = cell.0[lo];
                let count = (hi - lo) as u32;
                // Pair heads sit at even *canonical* sorted addresses (see
                // `select_pairs`); brun holds this store's offsets, which
                // are canonical only when no parity table overrides them.
                let mut i = lo + parity_at(seg_parity, first + s, brun[s]);
                while i + 1 < hi {
                    local_candidates += 1;
                    let rand24 = match rng_mode {
                        RngMode::Explicit => rng[i].next_bits(24),
                        RngMode::DirtyBits => dirty_word(u, v, w, i) & 0xFF_FFFF,
                    };
                    let hit = if needs_g {
                        let du = u[i].to_f64() - u[i + 1].to_f64();
                        let dv = v[i].to_f64() - v[i + 1].to_f64();
                        let dw = w[i].to_f64() - w[i + 1].to_f64();
                        let g = (du * du + dv * dv + dw * dw).sqrt();
                        sel.decide_power_law(c, count, g, rand24)
                    } else {
                        sel.decide(c, count, rand24)
                    };
                    if hit {
                        dec[i] = 1;
                    }
                    i += 2;
                }
            }
            let t1 = std::time::Instant::now();

            // Collision sub-loop over the same, still-hot run.
            let mut local_collisions = 0u64;
            for s in 0..brun.len() - 1 {
                let lo = brun[s] as usize - base;
                let hi = brun[s + 1] as usize - base;
                let mut i = lo + parity_at(seg_parity, first + s, brun[s]);
                while i + 1 < hi {
                    if dec[i] == 1 {
                        local_collisions += 1;
                        collide_pair_at(u, v, w, r1, r2, perm, rng, i, rounding, rng_mode);
                    }
                    i += 2;
                }
            }
            let t2 = std::time::Instant::now();

            candidates.fetch_add(local_candidates, Ordering::Relaxed);
            collisions.fetch_add(local_collisions, Ordering::Relaxed);
            select_ns.fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
            collide_ns.fetch_add((t2 - t1).as_nanos() as u64, Ordering::Relaxed);
        },
        par,
    );
    FusedPhase {
        stats: PairStats {
            candidates: candidates.into_inner(),
            collisions: collisions.into_inner(),
        },
        select: std::time::Duration::from_nanos(select_ns.into_inner()),
        collide: std::time::Duration::from_nanos(collide_ns.into_inner()),
    }
}

/// Collide the pair `(i, i+1)` in place (velocities, permutation vectors,
/// explicit rng streams), shared by both traversal forms.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn collide_pair_at(
    u: &mut [Fx],
    v: &mut [Fx],
    w: &mut [Fx],
    r1: &mut [Fx],
    r2: &mut [Fx],
    perm: &mut [Perm5],
    rng: &mut [XorShift32],
    i: usize,
    rounding: Rounding,
    rng_mode: RngMode,
) {
    let mut a = [u[i], v[i], w[i], r1[i], r2[i]];
    let mut b = [u[i + 1], v[i + 1], w[i + 1], r1[i + 1], r2[i + 1]];
    // "Of the two available permutation vectors, which one
    // gets used is inconsequential" — use the even partner's.
    let p = perm[i];
    let (ja, jb) = match rng_mode {
        RngMode::Explicit => {
            collide_pair(&mut a, &mut b, p, rounding, &mut rng[i]);
            (rng[i].next_below(5), rng[i + 1].next_below(5))
        }
        RngMode::DirtyBits => {
            let mut bits = WordBits(dirty_word(u, v, w, i).rotate_left(13));
            collide_pair(&mut a, &mut b, p, rounding, &mut bits);
            // Three dirty bits each, mapped into 0..5.
            let wa = (a[0].raw() as u32) & 7;
            let wb = (b[1].raw() as u32) & 7;
            ((wa * 5) >> 3, (wb * 5) >> 3)
        }
    };
    u[i] = a[0];
    v[i] = a[1];
    w[i] = a[2];
    r1[i] = a[3];
    r2[i] = a[4];
    u[i + 1] = b[0];
    v[i + 1] = b[1];
    w[i + 1] = b[2];
    r1[i + 1] = b[3];
    r2[i + 1] = b[4];
    // One random transposition per collision refreshes each
    // partner's permutation vector (Knuth / Aldous–Diaconis).
    perm[i] = perm[i].top_transpose(ja);
    perm[i + 1] = perm[i + 1].top_transpose(jb);
}

/// Phase 4: collide the selected pairs and refresh permutation vectors.
///
/// Returns the number of collisions performed.
#[allow(clippy::type_complexity)]
pub fn collide_selected(
    parts: &mut ParticleStore,
    bounds: &[u32],
    decisions: &[u8],
    rounding: Rounding,
    rng_mode: RngMode,
) -> u64 {
    let collisions = AtomicU64::new(0);
    par_segments_mut(
        (
            parts.u.as_mut_slice(),
            parts.v.as_mut_slice(),
            parts.w.as_mut_slice(),
            parts.r1.as_mut_slice(),
            parts.r2.as_mut_slice(),
            parts.perm.as_mut_slice(),
            parts.rng.as_mut_slice(),
            RoCol(decisions),
        ),
        bounds,
        &|s,
          (u, v, w, r1, r2, perm, rng, dec): (
            &mut [Fx],
            &mut [Fx],
            &mut [Fx],
            &mut [Fx],
            &mut [Fx],
            &mut [Perm5],
            &mut [XorShift32],
            RoCol<u8>,
        )| {
            let count = dec.0.len();
            let mut local = 0u64;
            let mut i = (bounds[s] & 1) as usize;
            while i + 1 < count {
                if dec.0[i] == 1 {
                    local += 1;
                    collide_pair_at(u, v, w, r1, r2, perm, rng, i, rounding, rng_mode);
                }
                i += 2;
            }
            collisions.fetch_add(local, Ordering::Relaxed);
        },
        Par::Pool,
    );
    collisions.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmc_kinetics::MolecularModel;

    fn fx(v: f64) -> Fx {
        Fx::from_f64(v)
    }

    /// A store with `per_cell` particles in each of `cells` cells, already
    /// "sorted" (cell-contiguous), thermal velocities.
    fn sorted_store(cells: u32, per_cell: u32, seed: u32) -> (ParticleStore, Vec<u32>) {
        let mut s = ParticleStore::default();
        let mut rng = XorShift32::new(seed);
        let mut bounds = vec![0u32];
        for c in 0..cells {
            for _ in 0..per_cell {
                let vel = core::array::from_fn(|_| Fx::from_raw((rng.next_u32() as i32) >> 12));
                s.push(
                    fx(c as f64 + 0.5),
                    fx(0.5),
                    vel,
                    dsmc_rng::perm::knuth_shuffle(&mut rng),
                    XorShift32::new(rng.next_u32() | 1),
                    c,
                );
            }
            bounds.push(s.len() as u32);
        }
        (s, bounds)
    }

    #[test]
    fn near_continuum_collides_every_candidate() {
        let (mut s, bounds) = sorted_store(8, 10, 1);
        // P∞ = 1: the near-continuum limit.
        let sel = SelectionTable::uniform(8, 1.0, 1.0, MolecularModel::Maxwell, 1.0);
        let mut dec = Vec::new();
        let cand = select_pairs(&mut s, &bounds, &sel, RngMode::Explicit, &mut dec);
        assert_eq!(cand, 8 * 5, "10 particles per cell = 5 candidate pairs");
        assert_eq!(dec.iter().map(|&d| d as u64).sum::<u64>(), cand);
        let cols = collide_selected(
            &mut s,
            &bounds,
            &dec,
            Rounding::Stochastic,
            RngMode::Explicit,
        );
        assert_eq!(cols, cand, "number of collisions = half the cell count");
    }

    #[test]
    fn acceptance_tracks_probability() {
        let (mut s, bounds) = sorted_store(64, 40, 2);
        // P at n = 40 with n∞ = 40 is P∞ = 0.25.
        let sel = SelectionTable::uniform(64, 0.25, 40.0, MolecularModel::Maxwell, 1.0);
        let mut dec = Vec::new();
        let mut total_cand = 0u64;
        let mut total_col = 0u64;
        for _ in 0..50 {
            total_cand += select_pairs(&mut s, &bounds, &sel, RngMode::Explicit, &mut dec);
            total_col += collide_selected(
                &mut s,
                &bounds,
                &dec,
                Rounding::Stochastic,
                RngMode::Explicit,
            );
        }
        let rate = total_col as f64 / total_cand as f64;
        assert!((rate - 0.25).abs() < 0.01, "acceptance rate = {rate}");
    }

    #[test]
    fn odd_cell_population_leaves_last_particle_unpaired() {
        let (mut s, bounds) = sorted_store(4, 7, 3);
        let sel = SelectionTable::uniform(4, 1.0, 1.0, MolecularModel::Maxwell, 1.0);
        let mut dec = Vec::new();
        let cand = select_pairs(&mut s, &bounds, &sel, RngMode::Explicit, &mut dec);
        assert_eq!(cand, 4 * 3, "7 particles = 3 pairs, one singleton");
        // The head markers sit only on even local ranks.
        for (seg, w) in bounds.windows(2).enumerate() {
            let d = &dec[w[0] as usize..w[1] as usize];
            assert_eq!(d[6], 0, "segment {seg}: singleton must not collide");
        }
    }

    #[test]
    fn collisions_conserve_ensemble_energy_and_momentum() {
        let (mut s, bounds) = sorted_store(16, 32, 4);
        let e0 = s.total_energy_raw();
        let m0 = s.total_momentum_raw();
        let sel = SelectionTable::uniform(16, 1.0, 1.0, MolecularModel::Maxwell, 1.0);
        let mut dec = Vec::new();
        let mut collisions = 0;
        for _ in 0..20 {
            select_pairs(&mut s, &bounds, &sel, RngMode::Explicit, &mut dec);
            collisions += collide_selected(
                &mut s,
                &bounds,
                &dec,
                Rounding::Stochastic,
                RngMode::Explicit,
            );
        }
        assert!(collisions > 4000);
        let e1 = s.total_energy_raw();
        let m1 = s.total_momentum_raw();
        let rel_e = (e1 - e0) as f64 / e0 as f64;
        assert!(
            rel_e.abs() < 1e-3,
            "energy drift {rel_e} over {collisions} collisions"
        );
        for i in 0..5 {
            // ≤ 1 LSB noise per collision, unbiased: the sum stays tiny.
            assert!(
                (m1[i] - m0[i]).abs() <= collisions as i64,
                "momentum component {i} drifted by {}",
                (m1[i] - m0[i]).abs()
            );
        }
    }

    #[test]
    fn collision_refreshes_permutations() {
        let (mut s, bounds) = sorted_store(2, 16, 5);
        let perms0: Vec<Perm5> = s.perm.clone();
        let sel = SelectionTable::uniform(2, 1.0, 1.0, MolecularModel::Maxwell, 1.0);
        let mut dec = Vec::new();
        select_pairs(&mut s, &bounds, &sel, RngMode::Explicit, &mut dec);
        collide_selected(
            &mut s,
            &bounds,
            &dec,
            Rounding::Stochastic,
            RngMode::Explicit,
        );
        let changed = s.perm.iter().zip(&perms0).filter(|(a, b)| a != b).count();
        // A top-transposition with j=0 is a no-op (p = 1/5), so expect
        // ~80% of the 32 particles to change.
        assert!(changed > 16, "only {changed} permutations changed");
        assert!(s.perm.iter().all(|p| p.is_valid()));
    }

    #[test]
    fn dirty_bits_mode_collides_with_similar_statistics() {
        // Dirty-bit decisions are deterministic in the pair state, so the
        // pairing must be refreshed between rounds exactly as the engine's
        // jittered sort does; here a host-side shuffle plays that role.
        let mut host = XorShift32::new(99);
        let sel = SelectionTable::uniform(64, 0.25, 40.0, MolecularModel::Maxwell, 1.0);
        let mut dec = Vec::new();
        let mut total_cand = 0u64;
        let mut total_col = 0u64;
        let (mut s, bounds) = sorted_store(64, 40, 6);
        for _ in 0..30 {
            // Shuffle particles within each cell (order of SoA slots).
            let mut order: Vec<u32> = (0..s.len() as u32).collect();
            for w in bounds.windows(2) {
                let seg = &mut order[w[0] as usize..w[1] as usize];
                for i in (1..seg.len()).rev() {
                    let j = host.next_below((i + 1) as u32) as usize;
                    seg.swap(i, j);
                }
            }
            s.apply_order(&order);
            total_cand += select_pairs(&mut s, &bounds, &sel, RngMode::DirtyBits, &mut dec);
            total_col += collide_selected(
                &mut s,
                &bounds,
                &dec,
                Rounding::Stochastic,
                RngMode::DirtyBits,
            );
        }
        let rate = total_col as f64 / total_cand as f64;
        // Dirty bits are lower quality; accept a wider band.
        assert!(
            (rate - 0.25).abs() < 0.06,
            "dirty-bit acceptance rate = {rate}"
        );
    }

    #[test]
    fn empty_and_singleton_cells_are_safe() {
        let mut s = ParticleStore::default();
        s.push(
            fx(0.5),
            fx(0.5),
            [Fx::ZERO; 5],
            Perm5::IDENTITY,
            XorShift32::new(1),
            0,
        );
        let bounds = vec![0u32, 1];
        let sel = SelectionTable::uniform(1, 1.0, 1.0, MolecularModel::Maxwell, 1.0);
        let mut dec = Vec::new();
        let cand = select_pairs(&mut s, &bounds, &sel, RngMode::Explicit, &mut dec);
        assert_eq!(cand, 0);
        let cols = collide_selected(
            &mut s,
            &bounds,
            &dec,
            Rounding::Stochastic,
            RngMode::Explicit,
        );
        assert_eq!(cols, 0);
    }

    #[test]
    fn fused_phase_matches_reference_bit_for_bit() {
        // Same store, same seeds: the fused single-traversal phase must
        // reproduce the two-phase reference exactly — decisions, tallies,
        // velocities, permutations and rng streams.
        let sel = SelectionTable::uniform(64, 0.25, 40.0, MolecularModel::Maxwell, 1.0);
        for rng_mode in [RngMode::Explicit, RngMode::DirtyBits] {
            let (mut a, bounds) = sorted_store(64, 40, 11);
            let mut b = a.clone();
            let mut dec_a = Vec::new();
            let mut dec_b = Vec::new();
            for _ in 0..5 {
                let ca = select_pairs(&mut a, &bounds, &sel, rng_mode, &mut dec_a);
                let ka = collide_selected(&mut a, &bounds, &dec_a, Rounding::Stochastic, rng_mode);
                let out = select_and_collide(
                    &mut b,
                    &bounds,
                    &sel,
                    Rounding::Stochastic,
                    rng_mode,
                    &mut dec_b,
                    None,
                    Par::Pool,
                );
                assert_eq!(ca, out.stats.candidates, "candidate counts differ");
                assert_eq!(ka, out.stats.collisions, "collision counts differ");
                assert_eq!(dec_a, dec_b, "decisions differ");
                assert_eq!(a.u, b.u);
                assert_eq!(a.v, b.v);
                assert_eq!(a.w, b.w);
                assert_eq!(a.r1, b.r1);
                assert_eq!(a.r2, b.r2);
                assert_eq!(a.perm, b.perm);
                assert_eq!(a.rng, b.rng);
            }
        }
    }

    #[test]
    fn power_law_selection_path_works() {
        let (mut s, bounds) = sorted_store(32, 40, 7);
        let g_inf = 0.128; // √2·c̄ for c_m = 0.08
        let sel = SelectionTable::uniform(32, 0.25, 40.0, MolecularModel::HardSphere, g_inf);
        let mut dec = Vec::new();
        let cand = select_pairs(&mut s, &bounds, &sel, RngMode::Explicit, &mut dec);
        let hits = dec.iter().map(|&d| d as u64).sum::<u64>();
        assert!(cand > 0 && hits > 0 && hits < cand);
    }
}
