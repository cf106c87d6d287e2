//! Parallel stable radix sort (the CM-2 "rank + send" sort).
//!
//! The sort is the crucial step of the particle pipeline: it gathers the
//! particles of each cell into neighbouring addresses, which is what gives
//! the collision routine its perfect dynamic load balance.  On the CM-2 this
//! was a rank computation followed by router sends; here it is a stable LSD
//! radix sort over (key, index) pairs packed in `u64`s, with per-chunk
//! histograms and a scatter whose destinations are provably disjoint.
//!
//! # The fused rank + send
//!
//! On the CM-2 the sort was two router transactions: a *rank* (compute each
//! particle's sorted address) and a *send* (move the particle's whole
//! computational state there).  The original shape of this module
//! materialised intermediate products at every seam: a fresh `(key, index)`
//! pair buffer per step, a fresh histogram table per radix pass, a final
//! pass that wrote sorted pairs, an extra sweep that unpacked them into a
//! `Vec<u32>` permutation, and then one gather per structure-of-arrays
//! column — ten sequential router trips where the CM-2 needed one.
//!
//! The steady-state path ([`sort_order_and_bounds_from_pairs_cells`])
//! removes every seam:
//!
//! * the caller packs `(key, index)` pairs directly in the same elementwise
//!   sweep that refreshes cell indices (no separate key column, no packing
//!   pass); the rank counts every digit it scatters itself,
//! * all working memory lives in a caller-owned [`SortScratch`] — ping-pong
//!   pair buffers, histogram and offset tables — so a warmed sort performs
//!   **no heap allocation**,
//! * the digit plan is the key layout's own: the jitter field spread evenly
//!   over the minimum number of ≤8-bit passes (8 bits keeps the scatter's
//!   per-digit write streams L1-resident; wider digits measured slower, see
//!   ROADMAP "Standing guidance"), then **one cell-wide pass** whose
//!   histogram is the per-cell population table, so the segment bounds and
//!   their cell ids fall out of its prefix scan, and
//! * the **final scatter emits 32-bit router addresses straight into the
//!   caller's `order` vector** — the rank's last pass *is* the permutation;
//!   no sorted-pair buffer, no unpack sweep.
//!
//! [`incremental_rank`] is the same rank for a step whose order barely
//! changed: two serial counting passes with global cursors, bit-identical
//! output.
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
//! left on top.  Who forks is one rule: the rayon thread count sizes the
//! pool that the single-domain engine and `Serial` or one-worker sharded
//! runs fork into ([`Par::Pool`]); threaded shard workers at least as
//! many as the pool's threads never enter it ([`Par::Inline`]).
//!
//! # The stability contract
//!
//! Both ranks — [`sort_order_and_bounds_from_pairs_cells`], on its
//! small-input and chunked paths alike, and [`incremental_rank`] — are
//! **stable by pair position**: equal keys come out in the order their pair words sit in
//! the input buffer.  The low 32 bits of a pair are *payload*, copied to
//! `order` and never compared; they need not ascend, be dense, or stay
//! below the pair count.  The sharded engine relies on exactly this: its
//! pair array is in canonical previous order while the payloads name
//! physical slots (arrivals sit at the tail of the columns), so tie order
//! lives in the 8-byte pairs and the particles stay where they are until
//! the one send.
//!
//! [`sort_perm_by_key`] keeps the original fixed-radix, allocating
//! implementation as the executable specification: property tests pin the
//! fused path to it bit for bit, and the separate-phase test oracle
//! (`dsmc_baselines::TwoStepSim`, through `dsmc-core`'s `sort_particles`)
//! ranks with it.

use crate::{seq, Par, PAR_THRESHOLD};
use core::marker::PhantomData;
use rayon::prelude::*;

/// A shared output buffer written concurrently at disjoint indices.
///
/// Safety contract: every index written during one parallel phase is written
/// exactly once.  The radix scatter satisfies this because the per-chunk,
/// per-digit destination ranges partition the output array.
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
/// high 32 bits, index in the low 32.  The ranks order by the key half
/// only and break ties by pair position (the module's stability
/// contract); the index is payload.
#[inline(always)]
pub fn pack_pair(key: u32, index: usize) -> u64 {
    ((key as u64) << 32) | index as u64
}

/// Digit width of the radix plan.  8 bits is deliberate: the scatter keeps
/// one hot write stream per digit, and 256 streams × 64-byte lines fit in
/// L1, so every scattered store is near-free.  Wider digits (fewer passes)
/// were measured *slower* on L2-sized streams — see ROADMAP "Standing
/// guidance".
const MAX_DIGIT_BITS: u32 = 8;

/// Most passes any `key_bits <= 32` plan can need.
const MAX_PASSES: usize = 4;

/// The per-pass digit layout for `key_bits`-wide keys: `(shift, bits)` per
/// pass, least-significant first, widths as even as possible.
fn digit_plan(key_bits: u32) -> ([(u32, u32); MAX_PASSES], usize) {
    debug_assert!((1..=32).contains(&key_bits));
    let passes = key_bits.div_ceil(MAX_DIGIT_BITS) as usize;
    let base = key_bits / passes as u32;
    let wide = (key_bits % passes as u32) as usize;
    let mut plan = [(0u32, 0u32); MAX_PASSES];
    let mut shift = 32u32; // key field starts at bit 32 of the pair
    for (p, slot) in plan.iter_mut().enumerate().take(passes) {
        // The first `wide` passes take the extra bit.
        let bits = base + (p < wide) as u32;
        *slot = (shift, bits);
        shift += bits;
    }
    (plan, passes)
}

/// The chunk width every radix pass uses for `n` pairs: four chunks per
/// pool thread, at least 4096 pairs each.  Exported as a work-size choice
/// for other chunked sweeps over the same population; the rank's result
/// never depends on it.
pub fn radix_chunk_len(n: usize) -> usize {
    let threads = rayon::current_num_threads().max(1);
    n.div_ceil(threads * 4).max(4096)
}

/// Reusable workspace for the rank: packed-pair ping-pong buffers
/// plus the histogram/offset tables of every pass.  Repeated sorts of
/// same-sized inputs reuse every byte.
#[derive(Debug, Default)]
pub struct SortScratch {
    pairs: Vec<u64>,
    pong: Vec<u64>,
    hists: Vec<u32>,
    offsets: Vec<u32>,
}

impl SortScratch {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The input pair buffer, sized for `n` elements; fill it with
    /// [`pack_pair`] words (in any index order) before calling a rank.
    pub fn input_pairs(&mut self, n: usize) -> &mut [u64] {
        self.pairs.resize(n, 0);
        &mut self.pairs
    }

    /// Number of pairs in the input buffer: what the last
    /// [`SortScratch::input_pairs`] sized it to, and the `n` every rank
    /// sorts.
    pub fn input_len(&self) -> usize {
        self.pairs.len()
    }

    /// The counting half of a radix pass: the digit at `shift` of every
    /// pair into a fresh chunk-major histogram, one `n_digits` row per
    /// chunk of the grid.
    fn count_digits(&mut self, par: Par, chunk: usize, n_digits: usize, shift: u32) {
        self.hists.clear();
        self.hists
            .resize(self.pairs.len().div_ceil(chunk) * n_digits, 0);
        let digit_mask = n_digits - 1;
        chunk_pass(
            par,
            &self.pairs,
            chunk,
            &mut self.hists,
            n_digits,
            |c, h| {
                for &x in c {
                    h[((x >> shift) as usize) & digit_mask] += 1;
                }
            },
        );
    }

    /// Current buffer capacities `[pairs, pong, hists, offsets]` — the
    /// zero-allocation tests assert these go quiescent.
    pub fn capacities(&self) -> [usize; 4] {
        [
            self.pairs.capacity(),
            self.pong.capacity(),
            self.hists.capacity(),
            self.offsets.capacity(),
        ]
    }
}

/// Widest cell field the rank supports.  The bound is the position
/// format's, not a cache guess: Q8.23 coordinates keep a validated grid
/// below 250 × 128 tunnel cells plus a 64-wide reservoir strip of at most
/// 255 rows — under 2^16 cells (`dsmc-core`'s `SimConfig::try_validated`
/// enforces the three limits and ties them to this constant at compile
/// time).  The per-chunk tables are sized from the actual `cell_bits`.
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
/// The trick is the CM-2's own: split the digit plan as (jitter passes,
/// then one cell-wide pass).  The final pass's histogram is then the
/// per-cell population table, so the segment bounds fall out of its
/// prefix scan for free — no separate pass over the sorted data — and the
/// final scatter writes the 32-bit router addresses directly into `order`.
/// With a warmed `scratch` the radix path performs no heap allocation
/// (inputs below [`PAR_THRESHOLD`] go through std's stable sort, which
/// takes a temporary, and derive bounds from the sorted pair keys
/// directly), and the result is bit-identical for any thread count.
///
/// `seeded` is ignored: every pass counts its own digit.  The parameter
/// stays only because the benchmark's adapter names it.
///
/// Key bits above `cell_bits + jitter_bits` must be zero in the packed
/// pairs.  Returns `false` (performing no work) when the layout is out of
/// range — `cell_bits` zero or wider than [`MAX_CELL_BITS`].
/// [`sort_order_and_bounds_from_pairs_cells_with`] on [`Par::Pool`].
pub fn sort_order_and_bounds_from_pairs_cells(
    cell_bits: u32,
    jitter_bits: u32,
    scratch: &mut SortScratch,
    order: &mut Vec<u32>,
    bounds: &mut Vec<u32>,
    seg_cells: &mut Vec<u32>,
    _seeded: bool,
) -> bool {
    sort_order_and_bounds_from_pairs_cells_with(
        cell_bits,
        jitter_bits,
        scratch,
        order,
        bounds,
        seg_cells,
        Par::Pool,
    )
}

/// [`sort_order_and_bounds_from_pairs_cells`], with its chunked passes
/// forked into the pool or looped over in turn as `par` says.  The chunk
/// grid is [`radix_chunk_len`]'s on both arms.
pub fn sort_order_and_bounds_from_pairs_cells_with(
    cell_bits: u32,
    jitter_bits: u32,
    scratch: &mut SortScratch,
    order: &mut Vec<u32>,
    bounds: &mut Vec<u32>,
    seg_cells: &mut Vec<u32>,
    par: Par,
) -> bool {
    let key_bits = cell_bits + jitter_bits;
    assert!(key_bits <= 32, "key_bits must be at most 32");
    if cell_bits == 0 || cell_bits > MAX_CELL_BITS {
        return false;
    }
    let n = scratch.pairs.len();
    order.resize(n, 0);
    seg_cells.clear();

    if n <= 1 || n < PAR_THRESHOLD {
        // Stable by pair position: compare the key half only.
        scratch.pairs.sort_by_key(|&w| w >> 32);
        bounds.clear();
        let mut prev_cell = u64::MAX;
        for (i, (slot, &p)) in order.iter_mut().zip(scratch.pairs.iter()).enumerate() {
            *slot = p as u32;
            let cell = p >> (32 + jitter_bits);
            if cell != prev_cell {
                bounds.push(i as u32);
                seg_cells.push(cell as u32);
                prev_cell = cell;
            }
        }
        bounds.push(n as u32);
        return true;
    }

    let chunk = radix_chunk_len(n);
    let n_chunks = n.div_ceil(chunk);

    // Jitter passes (≤ 8-bit digits, L1-resident streams).
    if jitter_bits > 0 {
        let (jitter_plan, jitter_passes) = digit_plan(jitter_bits);
        scratch.offsets.clear();
        scratch.offsets.resize(n_chunks << MAX_DIGIT_BITS, 0);
        scratch.pong.resize(n, 0);
        for &(shift, bits) in &jitter_plan[..jitter_passes] {
            let n_digits = 1usize << bits;
            let digit_mask = n_digits - 1;
            scratch.count_digits(par, chunk, n_digits, shift);
            let offsets = &mut scratch.offsets[..n_chunks * n_digits];
            let mut acc = 0u32;
            for d in 0..n_digits {
                for c in 0..n_chunks {
                    offsets[c * n_digits + d] = acc;
                    acc += scratch.hists[c * n_digits + d];
                }
            }
            debug_assert_eq!(acc as usize, n);
            let out = DisjointWrites::new(scratch.pong.as_mut_slice());
            chunk_pass(
                par,
                &scratch.pairs,
                chunk,
                offsets,
                n_digits,
                |c, cursors| {
                    for &x in c {
                        let d = ((x >> shift) as usize) & digit_mask;
                        let dst = cursors[d];
                        cursors[d] += 1;
                        // SAFETY: disjoint (chunk, digit) destination ranges
                        // partition 0..n.
                        unsafe { out.write(dst as usize, x) };
                    }
                },
            );
            core::mem::swap(&mut scratch.pairs, &mut scratch.pong);
        }
    }

    // The cell pass: histogram doubles as the per-cell population table.
    let shift = 32 + jitter_bits;
    let n_digits = 1usize << cell_bits;
    let digit_mask = n_digits - 1;
    scratch.count_digits(par, chunk, n_digits, shift);

    scratch.offsets.clear();
    scratch.offsets.resize(n_chunks * n_digits, 0);
    bounds.clear();
    let mut acc = 0u32;
    for d in 0..n_digits {
        let start = acc;
        for c in 0..n_chunks {
            scratch.offsets[c * n_digits + d] = acc;
            acc += scratch.hists[c * n_digits + d];
        }
        if acc > start {
            // Occupied cell: its run starts where the scan stood.
            bounds.push(start);
            seg_cells.push(d as u32);
        }
    }
    debug_assert_eq!(acc as usize, n);
    bounds.push(n as u32);

    let out = DisjointWrites::new(order.as_mut_slice());
    chunk_pass(
        par,
        &scratch.pairs,
        chunk,
        &mut scratch.offsets,
        n_digits,
        |c, cursors| {
            for &x in c {
                let d = ((x >> shift) as usize) & digit_mask;
                let dst = cursors[d];
                cursors[d] += 1;
                // SAFETY: disjoint (chunk, digit) destination ranges partition
                // 0..n.
                unsafe { out.write(dst as usize, x as u32) };
            }
        },
    );
    true
}

/// One radix pass over the chunk grid: `f(chunk of pairs, its row of
/// `row` table entries)` for every chunk, forked into the pool or in
/// chunk order on this thread.
fn chunk_pass<F>(par: Par, pairs: &[u64], chunk: usize, table: &mut [u32], row: usize, f: F)
where
    F: Fn(&[u64], &mut [u32]) + Sync,
{
    match par {
        Par::Pool => pairs
            .par_chunks(chunk)
            .zip(table.par_chunks_mut(row))
            .for_each(|(c, r)| f(c, r)),
        Par::Inline => {
            for (c, r) in pairs.chunks(chunk).zip(table.chunks_mut(row)) {
                f(c, r);
            }
        }
    }
}

/// Workspace of the incremental (temporal-coherence) rank: the per-cell
/// population table that becomes the cell scatter's cursor table, plus the
/// `1 << jitter_bits` jitter histogram for the low-digit pass.  Both are
/// sized to the grid / digit width, not the particle count, so they are
/// tiny next to [`SortScratch`] and stable after the first step.
#[derive(Debug, Default)]
pub struct IncrementalScratch {
    counts: Vec<u32>,
    jitter: Vec<u32>,
}

impl IncrementalScratch {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current buffer capacities `[counts, jitter]` — the zero-allocation
    /// tests assert these go quiescent.
    pub fn capacities(&self) -> [usize; 2] {
        [self.counts.capacity(), self.jitter.capacity()]
    }
}

/// Temporal-coherence rank: repair the sorted order using the bookkeeping
/// the move sweep already carried forward, instead of re-running the full
/// radix rank.
///
/// DSMC order barely changes between steps, and the sweep that moved the
/// particles has already counted the movers (the coherence measure the
/// caller's budget gate runs on).  After a light jitter-count sweep
/// (256-entry L1 table for the engine's `jitter_bits <= 8`) the repair
/// needs only two data passes:
///
/// 1. **Jitter scatter + cell count** — a stable counting-sort pass on
///    the low `jitter_bits` digit into the pong buffer, accumulating the
///    per-cell population table (`total_cells` counters, L2-resident) in
///    the same read.
/// 2. **Cell scatter** — a stable counting-sort pass on the cell field
///    that emits the 32-bit router addresses straight into `order`, with
///    the segment bounds and cell ids falling out of the population
///    table's prefix scan for free.
///
/// Two serial scatters with *global* cursor tables, versus the full
/// rank's three chunked passes with per-chunk × per-digit offset tables.
/// Global cursors are the repair's licence to be cheap — a serial stable
/// scatter needs no chunk dimension — and its scaling limit: the passes
/// don't parallelise, which is why the caller's mover-budget ceiling keeps
/// the path A/B-able against the parallel full rank.
///
/// The previous step's segment structure (`prev_bounds`, `prev_cells`) is
/// the freshness gate: it must describe exactly `n` particles, which holds
/// only when the order it describes is the array the sweep just packed —
/// not on the first step, after a snapshot resume, or across a repartition.
/// The repaired order itself never depends on it, so a well-shaped stale
/// structure cannot corrupt the trajectory, only mis-gate the path choice.
///
/// **Order identity:** the full rank is a stable sort by
/// `(cell << jitter_bits) | jitter`, ties broken by pair position (the
/// module's stability contract).  The stable jitter pass leaves
/// equal-jitter pairs in input order, and the stable cell pass then
/// orders each cell run by `(jitter, input position)` ascending — the
/// same order, whatever the index payloads hold.  `order`,
/// `bounds` and `seg_cells` are therefore **bitwise identical** to what
/// [`sort_order_and_bounds_from_pairs_cells`] emits, for every input, and
/// the per-step choice between the two paths is unobservable in the
/// trajectory (pinned by `incremental_rank_matches_full_rank` here and
/// the `sort_identity` integration suite).
///
/// Returns `true` on success.  Returns `false` — having touched only its
/// own scratch, never `order`/`bounds`/`seg_cells` or the packed pairs —
/// when the caller must fall back to the full rank: the prev structure
/// does not describe `n` particles, or a pair's cell field is out of
/// `total_cells` range.  `seeded` is ignored: the repair counts for
/// itself.  The parameter stays only because the benchmark's adapter
/// names it.
#[allow(clippy::too_many_arguments)]
pub fn incremental_rank(
    jitter_bits: u32,
    total_cells: u32,
    prev_bounds: &[u32],
    prev_cells: &[u32],
    _seeded: bool,
    scratch: &mut SortScratch,
    inc: &mut IncrementalScratch,
    order: &mut Vec<u32>,
    bounds: &mut Vec<u32>,
    seg_cells: &mut Vec<u32>,
) -> bool {
    let n = scratch.pairs.len();
    if prev_bounds.len() != prev_cells.len() + 1
        || prev_bounds.first() != Some(&0)
        || prev_bounds.last() != Some(&(n as u32))
    {
        return false;
    }
    if n == 0 {
        order.clear();
        bounds.clear();
        bounds.push(0);
        seg_cells.clear();
        return true;
    }
    let shift = 32 + jitter_bits;
    inc.counts.clear();
    inc.counts.resize(total_cells as usize, 0);
    let SortScratch { pairs, pong, .. } = scratch;

    // Pass 1 — stable counting sort on the jitter digit into pong,
    // accumulating the per-cell population table in the same read, after
    // a count of the jitter digit (global counts: a serial stable scatter
    // needs no chunk dimension); an out-of-range cell bails before any
    // output is touched (pong and the tables are scratch).
    // When jitter_bits is 0 every particle shares one digit and the pass
    // degenerates to the count-and-check sweep alone.
    let cell_src: &[u64] = if jitter_bits == 0 {
        for &w in pairs.iter() {
            let c = (w >> shift) as usize;
            if c >= total_cells as usize {
                return false;
            }
            inc.counts[c] += 1;
        }
        &pairs[..]
    } else {
        let n_digits = 1usize << jitter_bits;
        let jitter_mask = (n_digits - 1) as u32;
        inc.jitter.clear();
        inc.jitter.resize(n_digits, 0);
        for &w in pairs.iter() {
            inc.jitter[((w >> 32) as u32 & jitter_mask) as usize] += 1;
        }
        let mut acc = 0u32;
        for slot in inc.jitter.iter_mut() {
            let k = *slot;
            *slot = acc;
            acc += k;
        }
        debug_assert_eq!(acc as usize, n);
        pong.resize(n, 0);
        for &w in pairs.iter() {
            let c = (w >> shift) as usize;
            if c >= total_cells as usize {
                return false;
            }
            inc.counts[c] += 1;
            let j = ((w >> 32) as u32 & jitter_mask) as usize;
            let dst = inc.jitter[j];
            inc.jitter[j] = dst + 1;
            pong[dst as usize] = w;
        }
        &pong[..]
    };

    // New bounds + segment cells from the population table; the table
    // becomes the cell scatter's per-cell cursor in the same sweep.
    bounds.clear();
    seg_cells.clear();
    let mut acc = 0u32;
    for (c, slot) in inc.counts.iter_mut().enumerate() {
        let k = *slot;
        if k > 0 {
            bounds.push(acc);
            seg_cells.push(c as u32);
        }
        *slot = acc;
        acc += k;
    }
    debug_assert_eq!(acc as usize, n);
    bounds.push(n as u32);

    // Pass 2 — stable counting sort on the cell field, emitting the
    // 32-bit router addresses directly.  Stability over the jitter-sorted
    // stream makes every cell run ascending by (jitter, index) — the
    // exact full-rank order.
    order.resize(n, 0);
    for &w in cell_src {
        let c = (w >> shift) as usize;
        let dst = inc.counts[c];
        inc.counts[c] = dst + 1;
        order[dst as usize] = w as u32;
    }
    true
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
    fn digit_plans_cover_the_key_exactly() {
        for bits in 1..=32u32 {
            let (plan, passes) = digit_plan(bits);
            let total: u32 = plan[..passes].iter().map(|&(_, b)| b).sum();
            assert_eq!(total, bits, "plan for {bits} bits");
            assert_eq!(plan[0].0, 32, "first shift starts at the key field");
            let mut shift = 32;
            for &(s, b) in &plan[..passes] {
                assert_eq!(s, shift);
                assert!((1..=MAX_DIGIT_BITS).contains(&b));
                shift += b;
            }
        }
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

    fn check_order_and_bounds(cells: u32, jitter_bits: u32, n: usize, seed: u32) {
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
    }

    #[test]
    fn order_and_bounds_match_reference() {
        // Small (comparison-sort) and large (radix) paths, with and
        // without jitter, cell counts straddling digit-width boundaries,
        // and the widest grids validation admits: 15 bits (200 × 100 plus
        // reservoir) and 16 (249 × 127 plus a 255-row strip).
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

    /// Rank on both `Par` arms and demand bit-equality with the
    /// [`Par::Pool`] reference of [`rank_keys`] (order, bounds, *and* the
    /// emitted segment cell ids), then rebuild the sorted cell column from
    /// the ids.
    fn check_rank_and_cells(cells: u32, jitter_bits: u32, n: usize) {
        let cell_bits = cell_bits_for(cells);
        let mut state = 0x2545F491u32;
        let keys: Vec<u32> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                ((state % cells) << jitter_bits) | ((state >> 16) & ((1u32 << jitter_bits) - 1))
            })
            .collect();

        let (ref_order, ref_bounds, ref_cells) =
            rank_keys(&keys, cell_bits, jitter_bits, &mut SortScratch::new());

        for par in [Par::Pool, Par::Inline] {
            let mut scratch = SortScratch::new();
            pack_keys(&keys, &mut scratch);
            let (mut order, mut bounds, mut seg_cells) = (Vec::new(), Vec::new(), Vec::new());
            assert!(sort_order_and_bounds_from_pairs_cells_with(
                cell_bits,
                jitter_bits,
                &mut scratch,
                &mut order,
                &mut bounds,
                &mut seg_cells,
                par,
            ));
            let tag = format!("cells={cells} j={jitter_bits} n={n} {par:?}");
            assert_eq!(order, ref_order, "{tag}");
            assert_eq!(bounds, ref_bounds, "{tag}");
            assert_eq!(seg_cells, ref_cells, "{tag}");

            // The emitted ids reconstruct the sorted cell column exactly.
            let want: Vec<u32> = order
                .iter()
                .map(|&i| keys[i as usize] >> jitter_bits)
                .collect();
            let mut got = vec![u32::MAX; n];
            fill_cells_from_bounds(&bounds, &seg_cells, &mut got, par);
            assert_eq!(got, want, "reconstructed cell column, {tag}");
        }
    }

    #[test]
    fn seeded_rank_and_cell_reconstruction_match_reference() {
        // Radix path (≥ PAR_THRESHOLD), jittered and jitterless, plus the
        // small comparison-sort path — each on both `Par` arms.
        check_rank_and_cells(6912, 8, 60_000);
        check_rank_and_cells(250, 6, 40_000);
        check_rank_and_cells(255, 8, 33_000);
        check_rank_and_cells(97, 0, 20_000);
        check_rank_and_cells(240, 6, 500);
        check_rank_and_cells(3, 1, 17_000);
        // 15- and 16-bit cell fields, the latter also as the first pass.
        check_rank_and_cells(20_600, 8, 60_000);
        check_rank_and_cells(47_943, 8, 40_000);
        check_rank_and_cells(47_943, 0, 20_000);
    }

    /// Build a "previous step" by full-ranking random keys, then perturb:
    /// every particle draws fresh jitter and roughly `mover_pct`% change
    /// cell — the incremental repair must reproduce the full rank of the
    /// perturbed keys bit for bit (order, bounds, segment cells).
    fn check_incremental(cells: u32, jitter_bits: u32, n: usize, mover_pct: u32) {
        let cell_bits = cell_bits_for(cells);
        let jmask = (1u32 << jitter_bits) - 1;
        let mut state = 0x1234_5677u32;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let keys0: Vec<u32> = (0..n)
            .map(|_| {
                let r = rng();
                ((r % cells) << jitter_bits) | ((r >> 16) & jmask)
            })
            .collect();

        // Previous step: full rank of keys0 gives the prev structure.
        let mut scratch = SortScratch::new();
        let (mut order, prev_bounds, prev_cells) =
            rank_keys(&keys0, cell_bits, jitter_bits, &mut scratch);

        // This step's keys, indexed in the prev sorted order: mostly the
        // same cell (read off the prev structure), always fresh jitter.
        let mut sorted_cells = vec![0u32; n];
        fill_cells_from_bounds(&prev_bounds, &prev_cells, &mut sorted_cells, Par::Inline);
        let keys1: Vec<u32> = sorted_cells
            .iter()
            .map(|&c| {
                let r = rng();
                let cell = if r % 100 < mover_pct {
                    (r >> 8) % cells
                } else {
                    c
                };
                (cell << jitter_bits) | ((r >> 16) & jmask)
            })
            .collect();

        // Reference: full rank of keys1.
        let (ref_order, ref_bounds, ref_cells) =
            rank_keys(&keys1, cell_bits, jitter_bits, &mut SortScratch::new());

        // Incremental repair of the same keys.
        pack_keys(&keys1, &mut scratch);
        let mut inc = IncrementalScratch::new();
        let (mut bounds, mut seg_cells) = (Vec::new(), Vec::new());
        assert!(incremental_rank(
            jitter_bits,
            cells,
            &prev_bounds,
            &prev_cells,
            false,
            &mut scratch,
            &mut inc,
            &mut order,
            &mut bounds,
            &mut seg_cells,
        ));
        assert_eq!(order, ref_order, "cells={cells} j={jitter_bits} n={n}");
        assert_eq!(bounds, ref_bounds);
        assert_eq!(seg_cells, ref_cells);
    }

    #[test]
    fn incremental_rank_matches_full_rank() {
        // Small (comparison-sort reference) and large (radix reference)
        // inputs, settled and churning mover fractions, jitterless layout,
        // single-cell grid.
        check_incremental(6912, 8, 60_000, 10);
        check_incremental(6912, 8, 60_000, 60);
        check_incremental(250, 6, 40_000, 25);
        check_incremental(97, 0, 20_000, 10);
        check_incremental(240, 6, 500, 30);
        check_incremental(1, 3, 1000, 0);
        check_incremental(3, 1, 17_000, 50);
        check_incremental(20_600, 8, 60_000, 30);
    }

    /// The module's stability contract against std's stable sort: heavy
    /// ties, and index payloads that are a random permutation — so a rank
    /// that broke ties on the payload instead of the pair position would
    /// show.  Both ranks must emit `slice::sort_by_key`'s order on the key
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
        let pack = |scratch: &mut SortScratch| {
            for (p, (&k, &i)) in scratch
                .input_pairs(n)
                .iter_mut()
                .zip(keys.iter().zip(&payload))
            {
                *p = pack_pair(k, i as usize);
            }
        };

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
        let (mut order, mut bounds, mut seg_cells) = (Vec::new(), Vec::new(), Vec::new());
        pack(&mut scratch);
        assert!(sort_order_and_bounds_from_pairs_cells(
            cell_bits,
            jitter_bits,
            &mut scratch,
            &mut order,
            &mut bounds,
            &mut seg_cells,
            false,
        ));
        assert_eq!(order, want_order, "radix rank {tag}");
        assert_eq!(bounds, want_bounds, "radix rank {tag}");
        assert_eq!(seg_cells, want_cells, "radix rank {tag}");

        pack(&mut scratch);
        assert!(incremental_rank(
            jitter_bits,
            cells,
            &[0, n as u32],
            &[0],
            false,
            &mut scratch,
            &mut IncrementalScratch::new(),
            &mut order,
            &mut bounds,
            &mut seg_cells,
        ));
        assert_eq!(order, want_order, "incremental_rank {tag}");
        assert_eq!(bounds, want_bounds, "incremental_rank {tag}");
        assert_eq!(seg_cells, want_cells, "incremental_rank {tag}");
    }

    #[test]
    fn every_rank_is_stable_by_pair_position_not_by_index_payload() {
        // Both sides of PAR_THRESHOLD (comparison sort below, chunked
        // radix at and above); the CI determinism job runs this under
        // RAYON_NUM_THREADS 1 and 4, so the chunk grid varies too.
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
    fn incremental_rank_rejects_inconsistent_prev_structure() {
        let mut scratch = SortScratch::new();
        for (i, p) in scratch.input_pairs(10).iter_mut().enumerate() {
            *p = pack_pair(1 << 4, i); // all in cell 1, jitter_bits = 4
        }
        let mut inc = IncrementalScratch::new();
        let (mut o, mut b, mut s) = (Vec::new(), Vec::new(), Vec::new());
        // Sentinel does not cover n.
        assert!(!incremental_rank(
            4,
            8,
            &[0, 5],
            &[1],
            false,
            &mut scratch,
            &mut inc,
            &mut o,
            &mut b,
            &mut s
        ));
        // bounds/cells length mismatch.
        assert!(!incremental_rank(
            4,
            8,
            &[0, 10],
            &[1, 2],
            false,
            &mut scratch,
            &mut inc,
            &mut o,
            &mut b,
            &mut s
        ));
        // Cell field out of the stated grid.
        assert!(!incremental_rank(
            4,
            1,
            &[0, 10],
            &[0],
            false,
            &mut scratch,
            &mut inc,
            &mut o,
            &mut b,
            &mut s
        ));
        // Well-formed structure works even when every particle moved.
        assert!(incremental_rank(
            4,
            8,
            &[0, 10],
            &[0],
            false,
            &mut scratch,
            &mut inc,
            &mut o,
            &mut b,
            &mut s
        ));
        assert_eq!(b, vec![0, 10]);
        assert_eq!(s, vec![1]);
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
            keys in proptest::collection::vec(any::<u32>(), 0..3000),
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
