//! Sub-step 3a: the randomised cell-key sort.
//!
//! "The sort is a crucial step … it puts all particles occupying a given
//! cell into neighbouring addresses" — giving the collision routine its
//! perfect dynamic load balance — and, by scaling the cell index and adding
//! a random number below the scale factor, it *re-orders particles within a
//! cell* between steps so the same partners do not collide repeatedly
//! ("…otherwise the situation arises where the same partners collide
//! repeatedly leading to correlated velocity distributions").
//!
//! The key is packed once per particle per step.  The move sweep
//! (`crate::movephase`) packs it where the particle stands; on a
//! plunger-withdrawal step it leaves the reservoir-parked rows, which the
//! refill may reposition, and the refill census keys exactly those after
//! the refill (`key_rows`, which also keys the whole population at
//! construction).  One rank and one send ([`rank_and_send`]) follow
//! either way.

use crate::config::{ResLayout, RngMode};
use crate::diag::SortSplit;
use crate::particles::ParticleStore;
use dsmc_datapar::{
    fill_cells_from_bounds, incremental_rank, pack_pair,
    sort_order_and_bounds_from_pairs_cells_with, sort_perm_by_key, IncrementalScratch, Par,
    SortScratch,
};
use dsmc_geom::Tunnel;
use rayon::prelude::*;
use std::time::Instant;

/// Result of the (allocating, reference) sort phase, [`sort_particles`].
#[derive(Clone, Debug, Default)]
pub struct SortOutput {
    /// Segment bounds over the sorted `cell` column (one segment per
    /// occupied cell, plus the final sentinel).
    pub bounds: Vec<u32>,
    /// The applied permutation (`new[i] = old[order[i]]`), kept for the
    /// CM-2 communication-volume analysis.
    pub order: Vec<u32>,
}

/// Caller-owned working state of the sort phase: the radix rank's pair and
/// histogram buffers, the repair's two small tables, and the occupied cell
/// id of every segment the last rank emitted.  Owned by each shard (a
/// `Simulation`'s one domain included) so repeated steps reuse every byte.
#[derive(Debug, Default)]
pub struct SortWorkspace {
    radix: SortScratch,
    seg_cells: Vec<u32>,
    inc: IncrementalScratch,
}

impl SortWorkspace {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacities of the owned buffers `[pairs, pong, hists, offsets,
    /// seg-cells, inc-counts, inc-jitter]` — asserted stable by the
    /// zero-allocation tests.
    pub fn capacities(&self) -> [usize; 7] {
        let [pairs, pong, hists, offsets] = self.radix.capacities();
        let [inc_counts, inc_jitter] = self.inc.capacities();
        [
            pairs,
            pong,
            hists,
            offsets,
            self.seg_cells.capacity(),
            inc_counts,
            inc_jitter,
        ]
    }

    /// The `(key, index)` pair buffer the rank reads, sized for `n` pairs:
    /// what the move sweep (with `key_rows` after a refill) or the
    /// exchange's merge packs.
    pub fn input_pairs(&mut self, n: usize) -> &mut [u64] {
        self.radix.input_pairs(n)
    }

    /// Lend out the rank's second pair buffer (see
    /// [`SortScratch::take_pong`]): an exchanging shard stages its
    /// slot-order pairs there between the move and the merge.
    pub fn take_pong(&mut self) -> Vec<u64> {
        self.radix.take_pong()
    }

    /// Return the buffer [`SortWorkspace::take_pong`] lent out, before the
    /// next rank.
    pub fn put_pong(&mut self, pong: Vec<u64>) {
        self.radix.put_pong(pong);
    }

    /// The occupied cell id of every segment the last rank emitted, one
    /// per segment of the bounds it wrote.
    pub(crate) fn seg_cells(&self) -> &[u32] {
        &self.seg_cells
    }
}

/// Refresh a particle's cell index from its position (reservoir particles
/// index into the reservoir box; flow particles into the tunnel grid) and
/// return its jittered sort key: scaled cell index plus random low bits
/// ("a random number less than the scale factor is added").
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn jittered_key(
    cell: &mut u32,
    x: dsmc_fixed::Fx,
    y: dsmc_fixed::Fx,
    u: dsmc_fixed::Fx,
    rng: &mut dsmc_rng::XorShift32,
    tunnel: &Tunnel,
    res_base: u32,
    res: ResLayout,
    jitter_bits: u32,
    rng_mode: RngMode,
) -> u32 {
    let c = if *cell >= res_base {
        res_base + res.cell(x, y)
    } else {
        tunnel.cell_index(x, y)
    };
    *cell = c;
    let jitter = if jitter_bits == 0 {
        0
    } else {
        match rng_mode {
            RngMode::Explicit => rng.next_bits(jitter_bits),
            // "it is used during the sort to enhance mixing":
            // low-order position/velocity bits as the jitter.
            RngMode::DirtyBits => {
                (x.raw() as u32 ^ (u.raw() as u32).rotate_left(5)) & ((1 << jitter_bits) - 1)
            }
        }
    };
    (c << jitter_bits) | jitter
}

/// Refresh the cells of `rows` from their positions and pack their
/// jittered `(key, row)` pairs into `pairs` (the slots `rows` names; the
/// rest are left as they are), through the reference [`jittered_key`].
/// The move sweep packs every other row: this keys the whole population
/// once at construction, and on a withdrawal step the reservoir-parked
/// rows the sweep left for after the refill.  Each row draws from its own
/// stream only, so the order of `rows` does not matter.
#[allow(clippy::too_many_arguments)]
pub(crate) fn key_rows(
    parts: &mut ParticleStore,
    tunnel: &Tunnel,
    res_base: u32,
    res: ResLayout,
    jitter_bits: u32,
    rng_mode: RngMode,
    pairs: &mut [u64],
    rows: impl IntoIterator<Item = u32>,
) {
    for i in rows {
        let i = i as usize;
        let key = jittered_key(
            &mut parts.cell[i],
            parts.x[i],
            parts.y[i],
            parts.u[i],
            &mut parts.rng[i],
            tunnel,
            res_base,
            res,
            jitter_bits,
            rng_mode,
        );
        pairs[i] = pack_pair(key, i);
    }
}

/// The send: nine column gathers through the freshly-emitted addresses, then the `cell` column re-materialised from
/// `(bounds, seg_cells)` with sequential stores instead of gathered.  The
/// rotating back buffer makes each gather's destination the pages just
/// read as the previous column's source — L2-hot writes, measured faster
/// here than a one-launch (column × chunk) task grid (see dsmc-datapar's
/// sort docs).
///
/// The gather reads `parts.len()` rows and writes `order.len()`: equal
/// when nothing is exchanged, while an exchanging shard's order names its
/// surviving residents plus the arrivals behind them and skips the
/// departed — the one copy that both sorts the shard and completes the
/// exchange.
fn send(parts: &mut ParticleStore, order: &[u32], bounds: &[u32], seg_cells: &[u32], par: Par) {
    parts.apply_order_no_cell(order, par);
    parts.cell.resize(order.len(), 0);
    fill_cells_from_bounds(bounds, seg_cells, &mut parts.cell, par);
}

/// The back half of the sort phase — one rank, one send — for every
/// shard.  The pairs are already in the workspace's buffer
/// ([`SortWorkspace::input_pairs`]): the single-sweep move phase
/// (`crate::movephase`) packed them — with `key_rows` filling the rows
/// it left on a withdrawal step, or every row at construction — or the
/// exchange's merge wrote them there.  Either rank counts every digit it
/// scatters.  Their index fields name rows of `parts`; they need not be a
/// permutation of it (see `send`).
///
/// **Rank.**  With `repair`, first try [`dsmc_datapar::incremental_rank`]:
/// two serial counting passes that repair last step's order instead of
/// re-ranking from scratch.  The caller asks for it only when the pairs sit
/// in the *previous* sorted order — what the move sweep packs over the
/// sorted array it walks, and what the exchange's merge builds by
/// construction — and is also the mover-budget authority: it decides
/// from the sweep's own mover count whether to ask at all.
/// `incremental_rank` reads its previous-structure arguments as a
/// freshness gate only, and freshness is that precondition, so it is
/// handed the one-run structure that always passes.  The repair declines —
/// touching none of the outputs or the pairs — when a pair's cell field is
/// out of `total_cells` range; then, and without `repair`, the chunked
/// radix rank runs, with the (jitter passes, cell pass) digit split whose
/// cell-pass histogram doubles as the per-cell population table.  Either
/// way the segment bounds *and their occupied cell ids* come out of the
/// rank itself, bit for bit the same.  `SimConfig::try_validated` keeps
/// every grid within the cell-field width the rank takes
/// (`dsmc_datapar::MAX_CELL_BITS`), so it never refuses the layout.
///
/// **Send.**  Nine gathers; the sorted `cell` column is run-length coded by
/// `(bounds, seg_cells)`.
///
/// `par` says whether the chunked rank passes, the gathers and the cell
/// refill may fork into the rayon pool; the repair is serial either way.
///
/// Returns the time the rank and the send took, and whether the repair
/// ranked.  `key_bits` callers compute once from the cell count and jitter
/// width via [`key_bits_for`].
#[allow(clippy::too_many_arguments)]
pub fn rank_and_send(
    parts: &mut ParticleStore,
    key_bits: u32,
    jitter_bits: u32,
    total_cells: u32,
    repair: bool,
    ws: &mut SortWorkspace,
    bounds: &mut Vec<u32>,
    order: &mut Vec<u32>,
    par: Par,
) -> (SortSplit, bool) {
    let t = Instant::now();
    let n = ws.radix.input_len() as u32;
    let repaired = repair
        && incremental_rank(
            jitter_bits,
            total_cells,
            &[0, n],
            &[0],
            false,
            &mut ws.radix,
            &mut ws.inc,
            order,
            bounds,
            &mut ws.seg_cells,
        );
    if !repaired {
        let took = sort_order_and_bounds_from_pairs_cells_with(
            key_bits - jitter_bits,
            jitter_bits,
            &mut ws.radix,
            order,
            bounds,
            &mut ws.seg_cells,
            par,
        );
        assert!(took, "a validated grid fits the rank's cell field");
    }
    let rank = t.elapsed();
    let t = Instant::now();
    send(parts, order, bounds, &ws.seg_cells, par);
    let split = SortSplit {
        rank,
        send: t.elapsed(),
        ..SortSplit::default()
    };
    (split, repaired)
}

/// The reference sort phase (what `dsmc_baselines::TwoStepSim` runs):
/// build a key column, materialise the permutation with
/// [`sort_perm_by_key`], gather the ten columns one at a time, then sweep
/// the sorted `cell` column for its segment bounds.  Identical results to
/// `key_rows` + [`rank_and_send`] for identical inputs — the unit test
/// below and the integration suites assert it — but allocates per call.
///
/// `key_bits` callers compute once from the cell count and jitter width via
/// [`key_bits_for`].
pub fn sort_particles(
    parts: &mut ParticleStore,
    tunnel: &Tunnel,
    res_base: u32,
    res: ResLayout,
    jitter_bits: u32,
    key_bits: u32,
    rng_mode: RngMode,
) -> SortOutput {
    let n = parts.len();
    let mut keys = vec![0u32; n];
    {
        let xs = &parts.x;
        let ys = &parts.y;
        let us = &parts.u;
        keys.par_iter_mut()
            .zip(parts.cell.par_iter_mut())
            .zip(parts.rng.par_iter_mut())
            .enumerate()
            .for_each(|(i, ((key, cell), rng))| {
                *key = jittered_key(
                    cell,
                    xs[i],
                    ys[i],
                    us[i],
                    rng,
                    tunnel,
                    res_base,
                    res,
                    jitter_bits,
                    rng_mode,
                );
            });
    }
    let order = sort_perm_by_key(&keys, key_bits);
    parts.apply_order(&order);
    let bounds = dsmc_datapar::segment_bounds_from_sorted(&parts.cell);
    SortOutput { bounds, order }
}

/// Number of key bits needed for `total_cells` cells with `jitter_bits` of
/// per-particle jitter.
pub fn key_bits_for(total_cells: u32, jitter_bits: u32) -> u32 {
    let max_key = ((total_cells as u64) << jitter_bits).saturating_sub(1);
    64 - max_key.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmc_fixed::Fx;
    use dsmc_rng::{Perm5, XorShift32};

    fn fx(v: f64) -> Fx {
        Fx::from_f64(v)
    }

    fn store(n: usize, tunnel: &Tunnel, seed: u32) -> ParticleStore {
        let mut s = ParticleStore::default();
        let mut rng = XorShift32::new(seed);
        for i in 0..n {
            let x = rng.next_f64() * tunnel.width as f64;
            let y = rng.next_f64() * tunnel.height as f64;
            s.push(
                fx(x.min(tunnel.width as f64 - 1e-6)),
                fx(y.min(tunnel.height as f64 - 1e-6)),
                [fx(0.1), fx(0.0), Fx::ZERO, Fx::ZERO, Fx::ZERO],
                Perm5::IDENTITY,
                XorShift32::new(i as u32 + 1),
                0,
            );
        }
        s
    }

    #[test]
    fn key_bits_examples() {
        assert_eq!(key_bits_for(1, 0), 0);
        assert_eq!(key_bits_for(2, 0), 1);
        // The paper's grid: 98·64 + reservoir ≈ 6872 cells, 8 jitter bits.
        let kb = key_bits_for(6872, 8);
        assert!((21..=23).contains(&kb), "kb = {kb}");
    }

    #[test]
    fn sort_groups_cells_contiguously() {
        let tunnel = Tunnel::new(12, 9);
        let mut s = store(4000, &tunnel, 3);
        let out = sort_particles(
            &mut s,
            &tunnel,
            tunnel.n_cells(),
            ResLayout::for_cells(16),
            6,
            key_bits_for(tunnel.n_cells() + 16, 6),
            RngMode::Explicit,
        );
        // Cells non-decreasing.
        for w in s.cell.windows(2) {
            assert!(w[0] <= w[1], "cells must be sorted");
        }
        // Cell indices match positions.
        for i in 0..s.len() {
            assert_eq!(s.cell[i], tunnel.cell_index(s.x[i], s.y[i]));
        }
        // Bounds partition the array into single-cell runs.
        assert_eq!(out.bounds[0], 0);
        assert_eq!(*out.bounds.last().unwrap() as usize, s.len());
        for sw in out.bounds.windows(2) {
            let seg = &s.cell[sw[0] as usize..sw[1] as usize];
            assert!(seg.iter().all(|&c| c == seg[0]));
        }
    }

    #[test]
    fn reservoir_cells_sort_after_flow_cells() {
        let tunnel = Tunnel::new(8, 8);
        let res_base = tunnel.n_cells();
        let mut s = store(100, &tunnel, 5);
        // Convert some to reservoir particles (positions in strip coords).
        for i in 0..30 {
            s.cell[i] = res_base;
            s.x[i] = fx((i % 4) as f64 + 0.5);
            s.y[i] = fx(0.5);
        }
        sort_particles(
            &mut s,
            &tunnel,
            res_base,
            ResLayout::for_cells(8),
            4,
            key_bits_for(res_base + 8, 4),
            RngMode::Explicit,
        );
        let first_res = s.cell.iter().position(|&c| c >= res_base).unwrap();
        assert!(s.cell[first_res..].iter().all(|&c| c >= res_base));
        assert!(s.cell[..first_res].iter().all(|&c| c < res_base));
        assert_eq!(s.len() - first_res, 30);
    }

    #[test]
    fn jitter_reorders_within_cells_between_steps() {
        // All particles in one cell: with jitter the relative order must
        // change between two sorts (overwhelmingly likely for 64 particles).
        let tunnel = Tunnel::new(4, 4);
        let mut s = ParticleStore::default();
        for i in 0..64u32 {
            s.push(
                fx(1.5),
                fx(1.5),
                // Tag particles by a distinguishable velocity.
                [
                    Fx::from_raw(i as i32),
                    Fx::ZERO,
                    Fx::ZERO,
                    Fx::ZERO,
                    Fx::ZERO,
                ],
                Perm5::IDENTITY,
                XorShift32::new(i + 1),
                0,
            );
        }
        let kb = key_bits_for(tunnel.n_cells() + 4, 8);
        sort_particles(
            &mut s,
            &tunnel,
            tunnel.n_cells(),
            ResLayout::for_cells(4),
            8,
            kb,
            RngMode::Explicit,
        );
        let order1: Vec<i32> = s.u.iter().map(|u| u.raw()).collect();
        sort_particles(
            &mut s,
            &tunnel,
            tunnel.n_cells(),
            ResLayout::for_cells(4),
            8,
            kb,
            RngMode::Explicit,
        );
        let order2: Vec<i32> = s.u.iter().map(|u| u.raw()).collect();
        assert_ne!(order1, order2, "jitter must re-mix the cell");
        // Without jitter, the stable sort preserves order exactly.
        let kb0 = key_bits_for(tunnel.n_cells() + 4, 0);
        sort_particles(
            &mut s,
            &tunnel,
            tunnel.n_cells(),
            ResLayout::for_cells(4),
            0,
            kb0,
            RngMode::Explicit,
        );
        let order3: Vec<i32> = s.u.iter().map(|u| u.raw()).collect();
        sort_particles(
            &mut s,
            &tunnel,
            tunnel.n_cells(),
            ResLayout::for_cells(4),
            0,
            kb0,
            RngMode::Explicit,
        );
        let order4: Vec<i32> = s.u.iter().map(|u| u.raw()).collect();
        assert_eq!(order3, order4, "stable sort without jitter is idempotent");
    }

    #[test]
    fn specialised_pair_build_matches_reference_for_both_rng_modes() {
        // The engine's construction sort — `key_rows` over every row, then
        // the one rank and send — must produce the same sorted state, and
        // the same generator evolution, as the reference sort under either
        // jitter source.
        for mode in [RngMode::Explicit, RngMode::DirtyBits] {
            let tunnel = Tunnel::new(12, 9);
            let res = ResLayout::for_cells(16);
            let kb = key_bits_for(tunnel.n_cells() + res.total(), 6);
            let mut fused = store(3000, &tunnel, 21);
            let mut reference = fused.clone();
            let mut ws = SortWorkspace::new();
            let (mut bounds, mut order) = (Vec::new(), Vec::new());
            let n = fused.len();
            key_rows(
                &mut fused,
                &tunnel,
                tunnel.n_cells(),
                res,
                6,
                mode,
                ws.input_pairs(n),
                0..n as u32,
            );
            let total_cells = tunnel.n_cells() + res.total();
            let (_, repaired) = rank_and_send(
                &mut fused,
                kb,
                6,
                total_cells,
                false,
                &mut ws,
                &mut bounds,
                &mut order,
                Par::Pool,
            );
            assert!(!repaired);
            let out = sort_particles(&mut reference, &tunnel, tunnel.n_cells(), res, 6, kb, mode);
            assert_eq!(fused.cell, reference.cell, "{mode:?} cells");
            assert_eq!(fused.x, reference.x, "{mode:?} x");
            assert_eq!(fused.u, reference.u, "{mode:?} u");
            assert_eq!(fused.rng, reference.rng, "{mode:?} generator state");
            assert_eq!(bounds, out.bounds, "{mode:?} bounds");
            assert_eq!(order, out.order, "{mode:?} order");
        }
    }

    #[test]
    fn dirty_bits_mode_also_mixes() {
        let tunnel = Tunnel::new(4, 4);
        let mut s = ParticleStore::default();
        let mut rng = XorShift32::new(17);
        for i in 0..64u32 {
            s.push(
                fx(1.0 + rng.next_f64().min(0.999)),
                fx(1.5),
                [
                    Fx::from_raw(rng.next_u32() as i32 >> 10),
                    Fx::ZERO,
                    Fx::ZERO,
                    Fx::ZERO,
                    Fx::ZERO,
                ],
                Perm5::IDENTITY,
                XorShift32::new(i + 1),
                0,
            );
        }
        let kb = key_bits_for(tunnel.n_cells() + 4, 8);
        sort_particles(
            &mut s,
            &tunnel,
            tunnel.n_cells(),
            ResLayout::for_cells(4),
            8,
            kb,
            RngMode::DirtyBits,
        );
        let o1: Vec<i32> = s.u.iter().map(|u| u.raw()).collect();
        // Perturb positions slightly (as motion would) and re-sort.
        for x in s.x.iter_mut() {
            *x += Fx::from_raw(1023);
        }
        sort_particles(
            &mut s,
            &tunnel,
            tunnel.n_cells(),
            ResLayout::for_cells(4),
            8,
            kb,
            RngMode::DirtyBits,
        );
        let o2: Vec<i32> = s.u.iter().map(|u| u.raw()).collect();
        assert_ne!(o1, o2, "dirty-bit jitter should re-mix after motion");
    }
}
