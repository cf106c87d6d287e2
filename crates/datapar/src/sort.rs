//! The sort (the CM-2 "rank + send"): one stable counting sort.
//!
//! The sort is the crucial step of the particle pipeline: it gathers the
//! particles of each cell into neighbouring addresses, which is what gives
//! the collision routine its perfect dynamic load balance.  On the CM-2 this
//! was a rank computation followed by router sends, one router-sorted key
//! per particle.  Here the rank is one stable counting sort over
//! `(key, index)` pairs packed in `u64`s
//! ([`sort_order_and_bounds_from_pairs_cells`]), in two serial passes:
//!
//! 1. **Jitter scatter + cell count** — a stable counting pass on the low
//!    `jitter_bits` digit into the second pair buffer, after a count of
//!    that digit, accumulating the per-cell population table in the same
//!    read;
//! 2. **Cell scatter** — a stable counting pass on the whole cell field
//!    that emits the 32-bit router addresses straight into the caller's
//!    `order`: the rank's last pass *is* the permutation, and the segment
//!    bounds and their cell ids fall out of the population table's prefix
//!    scan.
//!
//! The caller packs the pairs in the same elementwise sweep that refreshes
//! the cell indices (no key column, no packing pass), and all working
//! memory — the pair buffers and the two counting tables — lives in a
//! caller-owned [`SortScratch`], so a warmed rank performs **no heap
//! allocation**.  The tables are sized by the key layout (`1 << jitter_bits`
//! and `1 << cell_bits` counters), not by the population, and stay in L1/L2.
//!
//! The send half then applies `order` to the nine physical-state columns,
//! one at a time, through the store's three rotating back buffers
//! (`ParticleStore::apply_order_no_cell` in `dsmc-core`) — the rotation
//! makes each gather's destination the pages just read as the previous
//! column's source, so the writes stay L2-hot — and re-materialises the
//! tenth, the sorted `cell` column, from the emitted bounds with sequential
//! stores ([`fill_cells_from_bounds`]).
//! Two alternative send shapes were measured and rejected on this
//! hardware — a fully interleaved all-columns-per-chunk pass (~3× slower:
//! ten columns of random reads thrash L2, where one column at a time
//! stays resident) and a one-launch (column × chunk) task grid (its
//! distinct destination buffers are write-allocate-cold every step; the
//! record is in ROADMAP "Standing guidance").  The sharded engine
//! (`SHARDING.md`) runs this same rank+send on each shard's smaller
//! array, and its send doubles as the migration — the gather reads
//! residents plus arrivals and writes only the live rows (see the
//! stability contract below for why the particles need not be rebuilt
//! first); the benchmark's `core.shard.tax_frac*` metrics record what is
//! left on top.  The rank itself never forks; who forks the send is one
//! rule, ARCHITECTURE.md "Execution knobs" ([`Par`]).
//!
//! # The stability contract
//!
//! The rank is **stable by pair position**: equal keys come out in the
//! order their pair words sit in the input buffer.  The stable jitter pass
//! leaves equal-jitter pairs in input order, and the stable cell pass then
//! orders each cell run by `(jitter, input position)`.  The low 32 bits of
//! a pair are *payload*, copied to `order` and never compared; they need
//! not ascend, be dense, or stay below the pair count.  The sharded engine
//! relies on exactly this: its pair array is in canonical previous order
//! while the payloads name physical slots (arrivals sit at the tail of the
//! columns), so tie order lives in the 8-byte pairs and the particles stay
//! where they are until the one send.
//!
//! [`sort_perm_by_key`] keeps the original fixed-radix, allocating
//! implementation as the executable specification: property tests pin the
//! rank to it bit for bit, and the separate-phase test oracle
//! (`dsmc_baselines::TwoStepSim`, through `dsmc-core`'s `sort_particles`)
//! ranks with it.

use crate::{seq, Par, PAR_THRESHOLD};
use core::marker::PhantomData;
use rayon::prelude::*;

/// A shared output buffer written concurrently at disjoint indices.
///
/// Safety contract: every index written during one parallel phase is written
/// exactly once.  The reference radix scatter satisfies this because the
/// per-chunk, per-digit destination ranges partition the output array.
pub struct DisjointWrites<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for DisjointWrites<'_, T> {}
unsafe impl<T: Send> Sync for DisjointWrites<'_, T> {}

impl<'a, T> DisjointWrites<'a, T> {
    /// Wrap a destination slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Write `v` at `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and no other concurrent write may target `i`.
    #[inline(always)]
    pub unsafe fn write(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        unsafe { self.ptr.add(i).write(v) };
    }
}

/// Pack a sort key and an original index into one pair word: key in the
/// high 32 bits, index in the low 32.  The rank orders by the key half
/// only and breaks ties by pair position (the module's stability
/// contract); the index is payload.
#[inline(always)]
pub fn pack_pair(key: u32, index: usize) -> u64 {
    ((key as u64) << 32) | index as u64
}

/// Reusable workspace for the rank: the packed-pair buffer and its
/// second, plus the jitter-digit and cell counting tables.  Repeated
/// sorts of same-sized inputs reuse every byte.
#[derive(Debug, Default)]
pub struct SortScratch {
    pairs: Vec<u64>,
    pong: Vec<u64>,
    jitter: Vec<u32>,
    cells: Vec<u32>,
}

impl SortScratch {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The input pair buffer, sized for `n` elements; fill it with
    /// [`pack_pair`] words (in any index order) before calling the rank.
    pub fn input_pairs(&mut self, n: usize) -> &mut [u64] {
        self.pairs.resize(n, 0);
        &mut self.pairs
    }

    /// Lend out the second pair buffer, whose contents the rank does not
    /// read across calls: a caller may stage its own pairs there between
    /// ranks and hand it back with [`SortScratch::put_pong`] before the
    /// next.
    pub fn take_pong(&mut self) -> Vec<u64> {
        core::mem::take(&mut self.pong)
    }

    /// Return the buffer [`SortScratch::take_pong`] lent out (or any other
    /// of the same use); the next rank overwrites its contents.
    pub fn put_pong(&mut self, pong: Vec<u64>) {
        self.pong = pong;
    }

    /// Current buffer capacities `[pairs, pong, jitter, cells]` — the
    /// zero-allocation tests assert these go quiescent.
    pub fn capacities(&self) -> [usize; 4] {
        [
            self.pairs.capacity(),
            self.pong.capacity(),
            self.jitter.capacity(),
            self.cells.capacity(),
        ]
    }
}

/// Widest cell field the rank supports.  The bound is the position
/// format's, not a cache guess: Q8.23 coordinates keep a validated grid
/// below 250 × 128 tunnel cells plus a 64-wide reservoir strip of at most
/// 255 rows — under 2^16 cells (`dsmc-core`'s `SimConfig::try_validated`
/// enforces the three limits and ties them to this constant at compile
/// time).  The jitter digit may be as wide; both counting tables are sized
/// from the actual widths.
pub const MAX_CELL_BITS: u32 = 16;

/// The rank: stable order by `(cell << jitter_bits) | jitter` keys
/// previously packed into `scratch` (via [`SortScratch::input_pairs`]).
/// Fills `order` so that `order[i]` is the index payload of the pair that
/// belongs at sorted position `i`, and additionally emits the segment
/// bounds of the sorted cell runs — start offset of every occupied cell
/// plus the final sentinel, exactly as [`crate::segment_bounds_from_sorted`]
/// would compute them from the sorted cell column — and, alongside each
/// bound, the occupied cell index of that segment (`seg_cells`).  The
/// sorted `cell` column is fully determined by `(bounds, seg_cells)` — see
/// [`fill_cells_from_bounds`] — so the send can skip gathering it.
///
/// Two serial stable counting passes (see the module docs): the jitter
/// digit into the second pair buffer, counting every cell as it goes, then
/// the cell field — masked to `cell_bits`, its table `1 << cell_bits`
/// counters — straight into `order`.  With a warmed `scratch` it performs
/// no heap allocation, and it never forks, so the result cannot depend on
/// any thread count.
///
/// `seeded` is ignored; the parameter stays only because the benchmark's
/// adapter names it.
///
/// Key bits above `cell_bits + jitter_bits` must be zero in the packed
/// pairs, and `jitter_bits` is at most [`MAX_CELL_BITS`].  Returns `false`
/// (performing no work) when the layout is out of range — `cell_bits` zero
/// or wider than [`MAX_CELL_BITS`].
pub fn sort_order_and_bounds_from_pairs_cells(
    cell_bits: u32,
    jitter_bits: u32,
    scratch: &mut SortScratch,
    order: &mut Vec<u32>,
    bounds: &mut Vec<u32>,
    seg_cells: &mut Vec<u32>,
    _seeded: bool,
) -> bool {
    assert!(
        cell_bits + jitter_bits <= 32 && jitter_bits <= MAX_CELL_BITS,
        "key layout wider than the rank's tables"
    );
    if cell_bits == 0 || cell_bits > MAX_CELL_BITS {
        return false;
    }
    let SortScratch {
        pairs,
        pong,
        jitter,
        cells,
    } = scratch;
    let n = pairs.len();
    let shift = 32 + jitter_bits;
    let cell_mask = (1usize << cell_bits) - 1;
    let cell_of = |w: u64| ((w >> shift) as usize) & cell_mask;
    cells.clear();
    cells.resize(cell_mask + 1, 0);

    // Pass 1 — stable counting sort on the jitter digit into pong,
    // counting the cells in the same read.  Without jitter every pair
    // shares one digit and the pass is the cell count alone.
    let cell_src: &[u64] = if jitter_bits == 0 {
        for &w in pairs.iter() {
            cells[cell_of(w)] += 1;
        }
        pairs
    } else {
        let jitter_mask = (1usize << jitter_bits) - 1;
        let digit = |w: u64| ((w >> 32) as usize) & jitter_mask;
        jitter.clear();
        jitter.resize(jitter_mask + 1, 0);
        for &w in pairs.iter() {
            jitter[digit(w)] += 1;
        }
        let mut acc = 0u32;
        for slot in jitter.iter_mut() {
            (*slot, acc) = (acc, acc + *slot);
        }
        pong.resize(n, 0);
        for &w in pairs.iter() {
            cells[cell_of(w)] += 1;
            let cursor = &mut jitter[digit(w)];
            pong[*cursor as usize] = w;
            *cursor += 1;
        }
        pong
    };

    // Bounds and segment cells from the population table, which becomes
    // the cell scatter's cursor table in the same sweep.
    bounds.clear();
    seg_cells.clear();
    let mut acc = 0u32;
    for (c, slot) in cells.iter_mut().enumerate() {
        if *slot > 0 {
            bounds.push(acc);
            seg_cells.push(c as u32);
        }
        (*slot, acc) = (acc, acc + *slot);
    }
    debug_assert_eq!(acc as usize, n);
    bounds.push(n as u32);

    // Pass 2 — stable counting sort on the cell field, emitting the
    // 32-bit router addresses directly.
    order.resize(n, 0);
    for &w in cell_src {
        let cursor = &mut cells[cell_of(w)];
        order[*cursor as usize] = w as u32;
        *cursor += 1;
    }
    true
}

/// The rank's former workspace, now empty: the benchmark's adapter still
/// names it.
#[derive(Debug, Default)]
pub struct IncrementalScratch;

impl IncrementalScratch {
    /// The empty workspace.
    pub fn new() -> Self {
        Self
    }
}

/// [`sort_order_and_bounds_from_pairs_cells`] under its former
/// "incremental" name, which the benchmark's adapter still calls: the cell
/// field is the narrowest that holds `total_cells`; `prev_*`, `seeded` and
/// `inc` are ignored.  Returns `true` on a valid layout.
#[allow(clippy::too_many_arguments)]
pub fn incremental_rank(
    jitter_bits: u32,
    total_cells: u32,
    _prev_bounds: &[u32],
    _prev_cells: &[u32],
    _seeded: bool,
    scratch: &mut SortScratch,
    _inc: &mut IncrementalScratch,
    order: &mut Vec<u32>,
    bounds: &mut Vec<u32>,
    seg_cells: &mut Vec<u32>,
) -> bool {
    let cell_bits = 32 - (total_cells.max(2) - 1).leading_zeros();
    sort_order_and_bounds_from_pairs_cells(
        cell_bits,
        jitter_bits,
        scratch,
        order,
        bounds,
        seg_cells,
        false,
    )
}

/// Reconstruct a sorted cell column from its segment bounds and cell ids
/// (as emitted by [`sort_order_and_bounds_from_pairs_cells`]):
/// `out[bounds[s]..bounds[s+1]] = seg_cells[s]` for every segment.
///
/// This replaces the send's gather of the `cell` column — `n` random
/// reads plus `n` writes — with `n` sequential stores: the sorted cell
/// column *is* run-length coded by the bounds, so re-materialising it
/// costs only the decode.  Deterministic for any thread count (each
/// segment's slice is written by exactly one task with a data-determined
/// value).  Forks only where `par` says so.
pub fn fill_cells_from_bounds(bounds: &[u32], seg_cells: &[u32], out: &mut [u32], par: Par) {
    let n_seg = bounds.len().saturating_sub(1);
    assert_eq!(n_seg, seg_cells.len(), "bounds/seg_cells mismatch");
    if n_seg == 0 {
        assert!(out.is_empty());
        return;
    }
    assert_eq!(
        bounds[n_seg] as usize,
        out.len(),
        "sentinel != column length"
    );
    if !par.forks(out.len()) {
        for s in 0..n_seg {
            out[bounds[s] as usize..bounds[s + 1] as usize].fill(seg_cells[s]);
        }
        return;
    }
    let dst = DisjointWrites::new(out);
    (0..n_seg).into_par_iter().for_each(|s| {
        let (lo, hi) = (bounds[s] as usize, bounds[s + 1] as usize);
        for i in lo..hi {
            // SAFETY: segment ranges [bounds[s], bounds[s+1]) partition
            // 0..out.len(), so no two tasks write the same slot.
            unsafe { dst.write(i, seg_cells[s]) };
        }
    });
}

const RADIX_BITS: u32 = 8;

/// Stable sort permutation by `u32` key, examining only the low `key_bits`
/// bits of each key.  Returns `perm` such that `keys[perm[i]]` is sorted and
/// equal keys keep their original relative order.
///
/// `key_bits == 0` is accepted and returns the identity permutation (a sort
/// on a zero-bit key is a no-op by stability).
///
/// This is the original fixed-8-bit-digit, allocating implementation, kept
/// verbatim as the executable specification of the fused path (and as the
/// rank of the separate-phase test oracle, `dsmc_baselines::TwoStepSim`).
pub fn sort_perm_by_key(keys: &[u32], key_bits: u32) -> Vec<u32> {
    assert!(key_bits <= 32, "key_bits must be at most 32");
    let n = keys.len();
    if key_bits == 0 || n <= 1 {
        return (0..n as u32).collect();
    }
    if n < PAR_THRESHOLD {
        // Masked reference sort: only the low key_bits participate.
        let mask = mask_for(key_bits);
        let masked: Vec<u32> = keys.iter().map(|&k| k & mask).collect();
        return seq::sort_perm_by_key(&masked);
    }

    // Pack key (high 32) and original index (low 32) into u64 so each move
    // in the scatter is a single 8-byte store.
    let mut cur: Vec<u64> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| ((k as u64) << 32) | i as u64)
        .collect();
    let mut next: Vec<u64> = vec![0u64; n];

    let passes = key_bits.div_ceil(RADIX_BITS);
    for pass in 0..passes {
        let shift = 32 + pass * RADIX_BITS;
        let digit_bits = RADIX_BITS.min(key_bits - pass * RADIX_BITS);
        let digit_mask = ((1u64 << digit_bits) - 1) as usize;
        radix_pass(&cur, &mut next, shift, digit_mask);
        core::mem::swap(&mut cur, &mut next);
    }
    cur.into_iter().map(|p| (p & 0xFFFF_FFFF) as u32).collect()
}

fn mask_for(bits: u32) -> u32 {
    if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

/// One stable counting pass of the reference sort: scatter `cur` into
/// `next` ordered by the digit at `shift`.
fn radix_pass(cur: &[u64], next: &mut [u64], shift: u32, digit_mask: usize) {
    let n = cur.len();
    let threads = rayon::current_num_threads().max(1);
    let chunk = n.div_ceil(threads * 4).max(4096);
    let n_chunks = n.div_ceil(chunk);

    // Phase 1: per-chunk digit histograms.
    let hists: Vec<Vec<u32>> = cur
        .par_chunks(chunk)
        .map(|c| {
            let mut h = vec![0u32; digit_mask + 1];
            for &x in c {
                h[((x >> shift) as usize) & digit_mask] += 1;
            }
            h
        })
        .collect();

    // Phase 2: exclusive scan in digit-major, chunk-minor order, which is
    // exactly the stable output order.
    let mut offsets = vec![0u32; n_chunks * (digit_mask + 1)];
    let mut acc = 0u32;
    for d in 0..=digit_mask {
        for c in 0..n_chunks {
            offsets[c * (digit_mask + 1) + d] = acc;
            acc += hists[c][d];
        }
    }
    debug_assert_eq!(acc as usize, n);

    // Phase 3: scatter. Each (chunk, digit) pair owns a disjoint destination
    // range [offset, offset + hist), so concurrent writes never alias.
    let out = DisjointWrites::new(next);
    cur.par_chunks(chunk)
        .zip(offsets.par_chunks(digit_mask + 1))
        .for_each(|(c, offs)| {
            let mut local: Vec<u32> = offs.to_vec();
            for &x in c {
                let d = ((x >> shift) as usize) & digit_mask;
                let dst = local[d];
                local[d] += 1;
                // SAFETY: destination ranges of distinct (chunk, digit)
                // pairs partition 0..n; `local[d]` stays within this
                // chunk's range for digit d.
                unsafe { out.write(dst as usize, x) };
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn check_against_reference(keys: &[u32], bits: u32) {
        let got = sort_perm_by_key(keys, bits);
        let mask = mask_for(bits);
        let masked: Vec<u32> = keys.iter().map(|&k| k & mask).collect();
        let want = seq::sort_perm_by_key(&masked);
        assert_eq!(got, want, "bits={bits} n={}", keys.len());
    }

    /// `cell_bits` of the narrowest field holding `cells` cells (≥ 1).
    fn cell_bits_for(cells: u32) -> u32 {
        32 - (cells - 1).leading_zeros().min(31)
    }

    /// Pack `keys` with payload = position.
    fn pack_keys(keys: &[u32], scratch: &mut SortScratch) {
        for (i, (p, &k)) in scratch
            .input_pairs(keys.len())
            .iter_mut()
            .zip(keys)
            .enumerate()
        {
            *p = pack_pair(k, i);
        }
    }

    /// [`pack_keys`], then rank.
    fn rank_keys(
        keys: &[u32],
        cell_bits: u32,
        jitter_bits: u32,
        scratch: &mut SortScratch,
    ) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        pack_keys(keys, scratch);
        // Stale content must be overwritten.
        let (mut order, mut bounds, mut seg_cells) = (vec![7], vec![99], vec![3]);
        assert!(
            sort_order_and_bounds_from_pairs_cells(
                cell_bits,
                jitter_bits,
                scratch,
                &mut order,
                &mut bounds,
                &mut seg_cells,
                false,
            ),
            "layout should be supported (cell_bits={cell_bits})"
        );
        (order, bounds, seg_cells)
    }

    /// The rank's order for a plain `bits`-wide key column: the top
    /// `min(bits, MAX_CELL_BITS)` bits play the cell field, the rest the
    /// jitter.
    fn fused_order(keys: &[u32], bits: u32, scratch: &mut SortScratch) -> Vec<u32> {
        let cell_bits = bits.min(MAX_CELL_BITS);
        let masked: Vec<u32> = keys.iter().map(|&k| k & mask_for(bits)).collect();
        rank_keys(&masked, cell_bits, bits - cell_bits, scratch).0
    }

    #[test]
    fn small_inputs_match_reference() {
        check_against_reference(&[3, 1, 4, 1, 5, 9, 2, 6], 32);
        check_against_reference(&[], 32);
        check_against_reference(&[42], 16);
        check_against_reference(&[7, 7, 7, 7], 8);
    }

    #[test]
    fn zero_bit_sort_is_identity() {
        let keys = [9u32, 2, 5];
        assert_eq!(sort_perm_by_key(&keys, 0), vec![0, 1, 2]);
    }

    #[test]
    fn large_input_matches_reference_and_is_stable() {
        let n = 300_000usize;
        let keys: Vec<u32> = (0..n as u32)
            .map(|i| (i.wrapping_mul(0x9E3779B9) >> 13) & 0xFFFFF)
            .collect();
        check_against_reference(&keys, 20);
    }

    #[test]
    fn large_input_few_distinct_keys() {
        // The engine's regime: ~6k cells, ~100 particles each.
        let n = 200_000usize;
        let keys: Vec<u32> = (0..n as u32)
            .map(|i| (i.wrapping_mul(2654435761)) % 6272)
            .collect();
        check_against_reference(&keys, 13);
    }

    #[test]
    fn partial_bits_ignore_high_bits() {
        // Keys differing only above bit 8 must keep original order.
        let keys = [0x100u32, 0x000, 0x200, 0x001];
        let perm = sort_perm_by_key(&keys, 8);
        assert_eq!(perm, vec![0, 1, 2, 3]);
    }

    #[test]
    fn perm_is_a_permutation_large() {
        let n = 100_000;
        let keys: Vec<u32> = (0..n as u32).map(|i| i % 97).collect();
        let perm = sort_perm_by_key(&keys, 7);
        let mut seen = vec![false; n];
        for &p in &perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fused_order_matches_reference_across_sizes() {
        let mut scratch = SortScratch::new();
        for n in [0usize, 1, 2, 100, 5000, 40_000, 120_000] {
            let keys: Vec<u32> = (0..n as u32)
                .map(|i| (i.wrapping_mul(2654435761)) % 977)
                .collect();
            let want = sort_perm_by_key(&keys, 10);
            let got = fused_order(&keys, 10, &mut scratch);
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn fused_order_matches_reference_across_bit_widths() {
        let mut scratch = SortScratch::new();
        let keys: Vec<u32> = (0..60_000u32).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
        for bits in [1u32, 7, 8, 11, 12, 21, 22, 24, 31, 32] {
            let want = sort_perm_by_key(&keys, bits);
            let got = fused_order(&keys, bits, &mut scratch);
            assert_eq!(got, want, "bits={bits}");
        }
    }

    #[test]
    fn scratch_capacities_go_quiescent() {
        let mut scratch = SortScratch::new();
        let (mut order, mut bounds, mut seg_cells) = (Vec::new(), Vec::new(), Vec::new());
        let keys: Vec<u32> = (0..80_000u32)
            .map(|i| i.wrapping_mul(2654435761) % (6000 << 4))
            .collect();
        let mut rank = |scratch: &mut SortScratch| {
            pack_keys(&keys, scratch);
            assert!(sort_order_and_bounds_from_pairs_cells(
                13,
                4,
                scratch,
                &mut order,
                &mut bounds,
                &mut seg_cells,
                false,
            ));
            [order.capacity(), bounds.capacity(), seg_cells.capacity()]
        };
        let out_caps = rank(&mut scratch);
        let caps = scratch.capacities();
        for _ in 0..20 {
            assert_eq!(rank(&mut scratch), out_caps, "outputs re-allocated");
            assert_eq!(scratch.capacities(), caps, "sort re-allocated");
        }
    }

    /// Rank seeded random keys against the reference sort; returns the
    /// rank's bounds and segment cells with the reference's sorted cell
    /// column.
    fn check_order_and_bounds(
        cells: u32,
        jitter_bits: u32,
        n: usize,
        seed: u32,
    ) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let cell_bits = cell_bits_for(cells);
        let mut state = seed | 1;
        let keys: Vec<u32> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                let cell = state % cells;
                let jitter = (state >> 16) & ((1u32 << jitter_bits) - 1);
                (cell << jitter_bits) | jitter
            })
            .collect();
        let key_bits = cell_bits + jitter_bits;
        let want_order = sort_perm_by_key(&keys, key_bits);
        let sorted_cells: Vec<u32> = want_order
            .iter()
            .map(|&i| keys[i as usize] >> jitter_bits)
            .collect();
        let want_bounds = crate::segment_bounds_from_sorted(&sorted_cells);
        let want_cells: Vec<u32> = want_bounds[..want_bounds.len() - 1]
            .iter()
            .map(|&b| sorted_cells[b as usize])
            .collect();

        let (order, bounds, seg_cells) =
            rank_keys(&keys, cell_bits, jitter_bits, &mut SortScratch::new());
        assert_eq!(order, want_order, "cells={cells} j={jitter_bits} n={n}");
        assert_eq!(bounds, want_bounds, "cells={cells} j={jitter_bits} n={n}");
        assert_eq!(seg_cells, want_cells, "cells={cells} j={jitter_bits} n={n}");
        (bounds, seg_cells, sorted_cells)
    }

    #[test]
    fn order_and_bounds_match_reference() {
        // Both sides of PAR_THRESHOLD, with and without jitter, cell counts
        // straddling power-of-two table sizes, and the widest grids
        // validation admits: 15 bits (200 × 100 plus reservoir) and 16
        // (249 × 127 plus a 255-row strip).
        for &(cells, jitter, n) in &[
            (20_600, 8, 60_000),
            (47_943, 6, 40_000),
            (47_943, 8, 3000),
            (1 << 16, 0, 30_000),
            (1u32, 0u32, 10usize),
            (7, 0, 100),
            (250, 3, 3000),
            (6912, 8, 60_000),
            (255, 8, 40_000),
            (256, 8, 40_000),
            (16_000, 12, 50_000),
            (3, 1, 20_000),
        ] {
            check_order_and_bounds(cells, jitter, n, 0x9E3779B9);
        }
    }

    /// Rank, demand bit-equality with the reference sort (order, bounds,
    /// *and* the emitted segment cell ids), then rebuild the sorted cell
    /// column from the ids on both `Par` arms of the refill.
    fn check_rank_and_cells(cells: u32, jitter_bits: u32, n: usize) {
        let (bounds, seg_cells, want) = check_order_and_bounds(cells, jitter_bits, n, 0x2545F491);
        for par in [Par::Pool, Par::Inline] {
            let mut got = vec![u32::MAX; n];
            fill_cells_from_bounds(&bounds, &seg_cells, &mut got, par);
            assert_eq!(
                got, want,
                "reconstructed cell column, cells={cells} j={jitter_bits} n={n} {par:?}"
            );
        }
    }

    #[test]
    fn seeded_rank_and_cell_reconstruction_match_reference() {
        // Both sides of PAR_THRESHOLD, jittered and jitterless.
        check_rank_and_cells(6912, 8, 60_000);
        check_rank_and_cells(250, 6, 40_000);
        check_rank_and_cells(255, 8, 33_000);
        check_rank_and_cells(97, 0, 20_000);
        check_rank_and_cells(240, 6, 500);
        check_rank_and_cells(3, 1, 17_000);
        // 15- and 16-bit cell fields.
        check_rank_and_cells(20_600, 8, 60_000);
        check_rank_and_cells(47_943, 8, 40_000);
        check_rank_and_cells(47_943, 0, 20_000);
    }

    /// The benchmark adapter's name for the rank is a forward: from the
    /// cell count alone it picks the cell field the rank is handed here,
    /// and emits the same order, bounds and segment cells.
    #[test]
    fn incremental_rank_matches_full_rank() {
        for &(cells, jitter_bits, n) in &[
            (6912u32, 8u32, 60_000usize),
            (97, 0, 20_000),
            (240, 6, 500),
            (1, 3, 1000),
            (47_943, 8, 40_000),
        ] {
            let keys: Vec<u32> = (0..n as u32)
                .map(|i| {
                    let r = i.wrapping_mul(0x9E37_79B9);
                    ((r % cells) << jitter_bits) | ((r >> 16) & ((1u32 << jitter_bits) - 1))
                })
                .collect();
            let mut scratch = SortScratch::new();
            let want = rank_keys(&keys, cell_bits_for(cells), jitter_bits, &mut scratch);
            pack_keys(&keys, &mut scratch);
            let (mut order, mut bounds, mut seg_cells) = (Vec::new(), Vec::new(), Vec::new());
            assert!(incremental_rank(
                jitter_bits,
                cells,
                &[],
                &[],
                false,
                &mut scratch,
                &mut IncrementalScratch::new(),
                &mut order,
                &mut bounds,
                &mut seg_cells,
            ));
            assert_eq!((order, bounds, seg_cells), want, "cells={cells} n={n}");
        }
    }

    /// The module's stability contract against std's stable sort: heavy
    /// ties, and index payloads that are a random permutation — so a rank
    /// that broke ties on the payload instead of the pair position would
    /// show.  The rank must emit `slice::sort_by_key`'s order on the key
    /// half, with the bounds and segment cells that order implies.
    fn check_position_stability(cells: u32, jitter_bits: u32, n: usize, seed: u32) {
        let cell_bits = cell_bits_for(cells);
        let jmask = (1u32 << jitter_bits) - 1;
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let keys: Vec<u32> = (0..n)
            .map(|_| {
                let r = rng();
                ((r % cells) << jitter_bits) | ((r >> 16) & jmask)
            })
            .collect();
        let mut payload: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            payload.swap(i, rng() as usize % (i + 1));
        }

        let mut by_position: Vec<usize> = (0..n).collect();
        by_position.sort_by_key(|&i| keys[i]);
        let want_order: Vec<u32> = by_position.iter().map(|&i| payload[i]).collect();
        let sorted_cells: Vec<u32> = by_position
            .iter()
            .map(|&i| keys[i] >> jitter_bits)
            .collect();
        let want_bounds = crate::segment_bounds_from_sorted(&sorted_cells);
        let want_cells: Vec<u32> = want_bounds[..want_bounds.len() - 1]
            .iter()
            .map(|&b| sorted_cells[b as usize])
            .collect();
        let tag = format!("cells={cells} j={jitter_bits} n={n} seed={seed}");

        let mut scratch = SortScratch::new();
        for (p, (&k, &i)) in scratch
            .input_pairs(n)
            .iter_mut()
            .zip(keys.iter().zip(&payload))
        {
            *p = pack_pair(k, i as usize);
        }
        let (mut order, mut bounds, mut seg_cells) = (Vec::new(), Vec::new(), Vec::new());
        assert!(sort_order_and_bounds_from_pairs_cells(
            cell_bits,
            jitter_bits,
            &mut scratch,
            &mut order,
            &mut bounds,
            &mut seg_cells,
            false,
        ));
        assert_eq!(order, want_order, "{tag}");
        assert_eq!(bounds, want_bounds, "{tag}");
        assert_eq!(seg_cells, want_cells, "{tag}");
    }

    #[test]
    fn every_rank_is_stable_by_pair_position_not_by_index_payload() {
        // Pair counts on both sides of PAR_THRESHOLD, cell fields out to
        // the 16 bits validation admits.
        for (seed, &n) in [2usize, 500, PAR_THRESHOLD - 1, PAR_THRESHOLD, 40_000]
            .iter()
            .enumerate()
        {
            check_position_stability(7, 2, n, 0x9E37_79B9 + seed as u32);
            check_position_stability(250, 6, n, 0x2545_F491 + seed as u32);
            check_position_stability(6912, 8, n, 0x1234_5677 + seed as u32);
            check_position_stability(97, 0, n, 0x0BAD_CAFE + seed as u32);
            check_position_stability(20_600, 8, n, 0x0051_7CC1 + seed as u32);
            check_position_stability(47_943, 4, n, 0x00C0_FFEE + seed as u32);
        }
    }

    #[test]
    fn fill_cells_handles_degenerate_inputs() {
        let mut out: [u32; 0] = [];
        fill_cells_from_bounds(&[0], &[], &mut out, Par::Pool);
        let mut out = [9u32; 4];
        fill_cells_from_bounds(&[0, 3, 4], &[5, 2], &mut out, Par::Inline);
        assert_eq!(out, [5, 5, 5, 2]);
    }

    #[test]
    fn order_and_bounds_rejects_wide_cells() {
        let mut scratch = SortScratch::new();
        scratch.input_pairs(10);
        let (mut order, mut bounds, mut seg_cells) = (Vec::new(), Vec::new(), Vec::new());
        for cell_bits in [MAX_CELL_BITS + 1, 0] {
            assert!(!sort_order_and_bounds_from_pairs_cells(
                cell_bits,
                4,
                &mut scratch,
                &mut order,
                &mut bounds,
                &mut seg_cells,
                false,
            ));
        }
    }

    proptest! {
        #[test]
        fn prop_matches_reference(
            keys in proptest::collection::vec(any::<u32>(), 0..3000),
            bits in 1u32..=32,
        ) {
            check_against_reference(&keys, bits);
        }

        #[test]
        fn prop_fused_order_matches_reference(
            keys in proptest::collection::vec(any::<u32>(), 0..2 * PAR_THRESHOLD),
            bits in 1u32..=32,
        ) {
            let mut scratch = SortScratch::new();
            let got = fused_order(&keys, bits, &mut scratch);
            let want = sort_perm_by_key(&keys, bits);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_sorted_and_stable(keys in proptest::collection::vec(0u32..64, 0..2000)) {
            let perm = sort_perm_by_key(&keys, 6);
            for w in perm.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                prop_assert!(keys[a] <= keys[b], "output not sorted");
                if keys[a] == keys[b] {
                    prop_assert!(a < b, "stability violated");
                }
            }
        }
    }
}
