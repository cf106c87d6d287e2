//! The one step path and the column-block decomposition it runs over,
//! bit-identical for **any** shard count.
//!
//! The paper ran this simulation by mapping particles to (virtual)
//! processors on the Connection Machine, at whatever virtual-processor
//! ratio the machine size gave; the modern equivalent is a small number
//! of coarse shards, each owning a *column block* of the tunnel.  A
//! [`Simulation`] partitions the grid at column boundaries
//! ([`Simulation::reshard`]) and gives every shard its own particle
//! columns, sort scratch and segment bounds; per-particle `XorShift32`
//! streams travel with their particles, so a shard's random draws are
//! exactly the draws one domain would have made for those particles.  The
//! shard count is a number, not a type: one shard — the default — owns
//! every cell and is itself the canonical state, so its step exchanges
//! nothing (no owner scan, no outbox, no merge, no parity prefix).
//!
//! # The determinism invariant
//!
//! > *Every shard's particle array is, at every step boundary, exactly the
//! > canonical sorted array restricted to the cells that shard owns — in
//! > canonical order.*
//!
//! Everything else follows from maintaining that subsequence invariant:
//!
//! * **Move** runs per shard, keyed: each particle's jittered `(key,
//!   slot)` pair is packed where it stands — on a plunger-withdrawal step,
//!   each one the sweep leaves in the flow; the rows it parks in the
//!   reservoir wait for the refill below.  One shard packs straight into
//!   its sort workspace; several stage their pairs in slot order in the
//!   rank's idle second pair buffer, which the merge below reshapes and
//!   hands back before the rank, and pack their crossers in the same
//!   closure (after the refill on a withdrawal step).
//!   Per-particle arithmetic and RNG draws are position-independent, and
//!   the shared surface-flux window uses the same relaxed-atomic
//!   discipline as the field accumulators, so concurrent shards never race
//!   on a sum that feeds back into the trajectory.
//! * **Migration** exchanges the crossers, not the population.  The stable
//!   rank breaks ties by *position in the pair array*, not by position in
//!   the particle columns, so it is the 8-byte pairs that must be in
//!   canonical previous order; the 40-byte particles can stay where they
//!   are.  Each source shard scans its post-move cells against a per-cell
//!   owner table and copies only the particles another shard now owns —
//!   about one in a hundred at four shards — into a per-destination
//!   outbox, noting their slots as departed.  Each destination appends
//!   its arrivals at the *tail* of its columns and writes one merged pair
//!   array: resident pairs in slot order minus the departed, interleaved
//!   with arrival pairs by *previous* (pre-move, sorted) cell.  Previous
//!   cells partition across shards, so the merge has a unique total order
//!   — any other interleaving would scramble the stable sort's
//!   tie-breaking and change the trajectory.
//! * **Sort** then runs per shard with the *global* cell keys and key
//!   width, through one rank and send.  Because the pair order equals the
//!   canonical order restricted to the shard, the stable sort emits the
//!   canonical order restricted to the shard: the invariant is
//!   reproduced.  The send gathers the live rows out of
//!   residents-plus-arrivals, dropping the departed — the only copy a
//!   particle takes in a step, as in the paper's rank-then-send.
//! * **Collide** needs one global datum: the even/odd parity of each
//!   segment's *global* start index (the canonical pairing rule).  A k-way
//!   merge of all shards' segment tables by cell yields a running global
//!   prefix, and [`crate::collide::select_and_collide`] accepts the
//!   resulting per-segment parities in place of the local `bounds[s] & 1`
//!   (which one shard's are).
//! * **Plunger refill** (the one genuinely global boundary event) takes a
//!   canonical census: the post-move reservoir-parked slots of all shards,
//!   merged by previous cell — the exact array order the reference
//!   [`crate::boundary`] refill scans.  The census rows are exactly the
//!   ones the sweep left unkeyed, and the refill draws only from their own
//!   streams, so once it has moved the ones it takes it keys them all
//!   (`sortstep::key_rows`) into the pairs the sweep packed.
//!
//! The integration suite pins the contract: `shard_counts_agree_bitwise`
//! (proptest over seeds, bodies and RNG modes, shard counts from 1 to one
//! column per shard) and `registry_scenarios_are_shard_count_invariant`
//! (shard counts {1, 2, 4}) assert equal [`Simulation::state_hash`];
//! `sharded_checkpoint_resumes_at_any_shard_count` pins save-at-S /
//! resume-at-S′.  The executable specs are `dsmc_baselines::TwoStepSim`
//! for the step and [`crate::config::ExecMode::Serial`] for its scheduling
//! (ARCHITECTURE.md, "Execution knobs").
//!
//! # Weighted repartition
//!
//! The rank's segment bounds are a free per-cell census.  At the top
//! of each step the engine folds them into per-column flow loads; when
//! the heaviest shard exceeds [`REPARTITION_THRESHOLD`] × the mean, the
//! column cuts are re-drawn by balanced prefix sums.  Because ownership is
//! only consulted by the exchange's routing (whose merge is keyed by
//! previous cells under the invariant, not by the new cuts), moving a cut
//! costs one step of heavier exchange traffic and has no effect on the
//! trajectory, only on balance.
//!
//! # Threaded execution
//!
//! [`crate::config::ExecMode`] selects how the per-shard phases run:
//! `Serial` steps every shard on the coordinator thread (the executable
//! spec), `Threaded` fans each phase out over scoped worker threads,
//! joining at the three coordinator barriers — the repartition check, the
//! census merge and the segment-parity prefix; the exchange
//! runs inside the move and sort phases, on the workers.  When those
//! workers are at least two and at least as many as the rayon pool's
//! threads, each runs its shard's primitives inline — the shards are then
//! the only parallelism, as the CM-2's processors looping over their
//! blocks of virtual processors were; otherwise the primitives fork into
//! the pool (`shard_exec.rs` holds the rule).  Determinism
//! survives because a phase writes only
//! shard-private state (plus exact integer-atomic accumulators and, in the
//! move phase, the shard's own outbox row, which the destinations only
//! read in the sort phase, after the join)
//! and every trajectory-bearing reduction happens on the coordinator in
//! shard-index order; `tests/tests/shard_exec.rs` pins Serial ≡ Threaded
//! bit-identity across shard × worker matrices.  Worker panics surface as
//! a typed [`exec::ShardExecError`] from [`Simulation::try_step`]
//! instead of unwinding through (or aborting) the coordinator.
//!
//! # The shards are the state
//!
//! Several shards are the only resident copy of the particle state, and
//! every reader walks them under `&self`: the exact integer ledgers
//! ([`Simulation::diagnostics`], [`Simulation::n_particles`],
//! [`Simulation::n_flow`]) and the sentinel's scans fold per shard; the
//! order-bearing outputs ([`Simulation::state_hash`],
//! [`Simulation::save_state`]) stream from the shards, walking the merge
//! once for the canonical `(shard, rows)` runs (`CanonicalRuns`).  The
//! merged (one-domain) array is only a cache for the column readers
//! ([`Simulation::particles`], [`Simulation::segment_bounds`]): a k-way
//! merge by cell — a pure copy, no RNG — built on their first read after
//! a step, and dropped by the next step or scatter, so it can never be
//! stale.
//!
//! # Checkpoints
//!
//! [`Simulation::save_state`] writes the canonical sections (identical
//! bytes at every shard count, streamed from the shards) plus, at several
//! shards, an advisory `SHRD` manifest: shard count, column cuts,
//! per-shard populations, repartition count.  [`Simulation::resume`]
//! scatters the canonical state, segment by segment, under *any* shard
//! count and warm-starts the stored cuts only when the counts match, so a
//! checkpoint taken at S shards resumes bit-exactly at S′.  The manifest is outside both the config fingerprint and the
//! state hash (execution layout, not physics).

// The per-shard phase executor (scoped worker threads + typed panic
// propagation) is a child module for the same reason this module is a
// child of `engine`: its closures borrow the private `Shard` state.
#[path = "shard_exec.rs"]
pub mod exec;

use super::Simulation;
use crate::collide;
use crate::config::{ConfigError, SimConfig};
use crate::diag::{SortSplit, Substep};
use crate::movephase::{KeyPack, MoveOutcome, MoveScratch};
use crate::particles::ParticleStore;
use crate::sortstep::{self, SortWorkspace};
use dsmc_datapar::{pack_pair, Par};
use dsmc_fixed::Fx;
use dsmc_state::StateError;
use exec::{ShardExec, ShardExecError};
use std::borrow::Cow;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Repartition trigger: re-draw the column cuts when the heaviest shard's
/// flow population exceeds this multiple of the mean.  1.25 keeps
/// repartitions rare in settled flows while still reacting to the
/// pile-up behind a forming shock (the failure mode of static equal-cell
/// splits in the load-balancing DSMC literature).
pub const REPARTITION_THRESHOLD: f64 = 1.25;

/// The column-block ownership map: shard `k` owns tunnel columns
/// `cuts[k] .. cuts[k+1]` (and the last shard additionally owns the
/// reservoir box, which keeps the reservoir's relaxation segments — and
/// the plunger refill census — from straddling a cut).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardLayout {
    /// `n_shards + 1` ascending column cuts: `cuts[0] == 0`,
    /// `cuts[n_shards] == tunnel_w`.
    cuts: Vec<u32>,
    tunnel_w: u32,
    res_base: u32,
    /// The owner of every cell, flow then reservoir, under `cuts`: what
    /// the per-particle crosser scan reads instead of dividing by the
    /// width and searching the cuts.
    owner_of: Vec<u32>,
}

impl ShardLayout {
    pub(super) fn new(cuts: Vec<u32>, tunnel_w: u32, res_base: u32, total_cells: u32) -> Self {
        let mut layout = Self {
            cuts: Vec::new(),
            tunnel_w,
            res_base,
            owner_of: vec![0; total_cells as usize],
        };
        layout.set_cuts(cuts);
        layout
    }

    /// Move the cuts and re-derive the owner table from them.
    pub(super) fn set_cuts(&mut self, cuts: Vec<u32>) {
        self.cuts = cuts;
        let last = self.n_shards() as u32 - 1;
        for (cell, owner) in self.owner_of.iter_mut().enumerate() {
            let cell = cell as u32;
            *owner = if cell >= self.res_base {
                last
            } else {
                let col = cell % self.tunnel_w;
                self.cuts[1..].partition_point(|&c| c <= col) as u32
            };
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.cuts.len() - 1
    }

    /// The ascending column cuts (`n_shards + 1` entries, first 0, last
    /// the tunnel width).
    pub fn cuts(&self) -> &[u32] {
        &self.cuts
    }

    /// The shard owning `cell`.  Flow cells are row-major (`iy * w + ix`),
    /// so a column block owns a *strided* cell set; reservoir cells all
    /// belong to the last shard.  Panics on a cell past the reservoir.
    #[inline]
    pub fn owner(&self, cell: u32) -> usize {
        self.owner_of[cell as usize] as usize
    }
}

/// Deterministic balanced cuts from per-column loads: cut `k` is placed by
/// the greedy prefix rule at the column where the running load first
/// exceeds `k/n` of the total, clamped so every shard keeps at least one
/// column.
fn balanced_cuts(col_load: &[u64], n_shards: usize) -> Vec<u32> {
    let w = col_load.len();
    debug_assert!(n_shards >= 1 && n_shards <= w);
    let total: u64 = col_load.iter().sum();
    let mut cuts = Vec::with_capacity(n_shards + 1);
    cuts.push(0u32);
    let mut acc: u64 = 0;
    let mut col = 0usize;
    for k in 1..n_shards {
        let target = (total as u128 * k as u128 / n_shards as u128) as u64;
        let min_col = cuts[k - 1] as usize + 1;
        let max_col = w - (n_shards - k);
        while col < min_col {
            acc += col_load[col];
            col += 1;
        }
        while col < max_col && acc + col_load[col] <= target {
            acc += col_load[col];
            col += 1;
        }
        cuts.push(col as u32);
    }
    cuts.push(w as u32);
    cuts
}

/// Whether `cuts` ascends strictly from column 0 to the tunnel width `w`.
pub(super) fn cuts_span(cuts: &[u32], w: u32) -> bool {
    cuts.first() == Some(&0) && cuts.last() == Some(&w) && cuts.windows(2).all(|p| p[0] < p[1])
}

/// Uniform cuts (the cold-start fallback when there is no census yet).
fn uniform_cuts(w: usize, n_shards: usize) -> Vec<u32> {
    (0..=n_shards).map(|k| (k * w / n_shards) as u32).collect()
}

/// The particles leaving one shard for one other shard this step, in
/// source array order — so ascending by previous cell, which is the order
/// the destination merges them in.
#[derive(Default)]
pub(super) struct Outbox {
    /// The ten columns of each crosser.
    parts: ParticleStore,
    /// This step's jittered sort key of each crosser (the key half of the
    /// pair word the sweep packed for it).
    key: Vec<u32>,
    /// Previous (pre-move, sorted) cell of each crosser.
    prev_cell: Vec<u32>,
}

impl Outbox {
    fn clear(&mut self) {
        self.parts.clear();
        self.key.clear();
        self.prev_cell.clear();
    }
}

/// One shard: its slice of the particle population plus private sort
/// machinery — or, as [`Simulation`]'s one domain, all of it.  `parts` is
/// always the canonical sorted array restricted to the shard's owned cells
/// (the module-level invariant); `bounds`, `seg_cell` and `seg_parity`
/// describe its segments under the *global* cell ids.  The exchange's
/// fields (`seg_parity`, `departed`) stay empty on one shard.
///
/// Between the move and the merge an exchanging shard stages this step's
/// `(key, slot)` pair of every resident, in slot order — which is
/// canonical previous order — in its rank's second pair buffer
/// ([`SortWorkspace::take_pong`]), which no rank reads across calls: the
/// merge reads the staged pairs and hands the buffer back before the rank
/// that next uses it.
#[derive(Default)]
pub(super) struct Shard {
    pub(super) parts: ParticleStore,
    pub(super) bounds: Vec<u32>,
    pub(super) order: Vec<u32>,
    /// Cell id of each segment of the last sort (the "previous cells" the
    /// census and the exchange merge by).
    pub(super) seg_cell: Vec<u32>,
    /// Global even/odd parity of each segment's canonical start index —
    /// what makes per-shard pairing identical to canonical pairing.
    seg_parity: Vec<u32>,
    /// Slots whose particle another shard owns after this step's move,
    /// ascending: the rows the merge leaves out and the send never reads.
    departed: Vec<u32>,
    pub(super) sort_ws: SortWorkspace,
    pub(super) move_scratch: MoveScratch,
    pub(super) decisions: Vec<u8>,
}

impl Shard {
    /// An empty shard whose segment tables never reallocate on a grid of
    /// `total_cells` cells.
    pub(super) fn new(total_cells: usize) -> Self {
        let mut shard = Self {
            seg_cell: Vec::with_capacity(total_cells),
            ..Self::default()
        };
        shard.move_scratch.reserve_segments(total_cells + 1);
        shard
    }

    pub(super) fn n_segments(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Rank the pairs in the sort workspace and send the particles through
    /// the order (see [`sortstep::rank_and_send`]), then keep the emitted
    /// segment cells.  Returns where the time went.
    pub(super) fn rank(&mut self, base: &Simulation, par: Par) -> SortSplit {
        let split = sortstep::rank_and_send(
            &mut self.parts,
            base.key_bits,
            base.cfg.jitter_bits,
            &mut self.sort_ws,
            &mut self.bounds,
            &mut self.order,
            par,
        );
        self.seg_cell.clear();
        self.seg_cell.extend_from_slice(self.sort_ws.seg_cells());
        split
    }

    /// The source half of the exchange.  Scan the post-move cell column
    /// against the owner table and copy every crosser — ten columns, sort
    /// key (from its slot's entry in `pairs`), previous cell — into the
    /// outbox of the shard that now owns it, noting its slot as departed.
    /// The scan runs in slot order, which is previous sorted order, so each
    /// outbox fills ascending by previous cell.
    fn pack_crossers(
        &mut self,
        me: usize,
        layout: &ShardLayout,
        pairs: &[u64],
        outbox: &mut [Outbox],
    ) {
        for o in outbox.iter_mut() {
            o.clear();
        }
        self.departed.clear();
        // The previous segment of the crosser at hand; crossers are rare,
        // so the segment table is only walked where one turns up.
        let mut j = 0;
        for (i, &cell) in self.parts.cell.iter().enumerate() {
            let owner = layout.owner(cell);
            if owner != me {
                while self.bounds[j + 1] as usize <= i {
                    j += 1;
                }
                let (p, o) = (&self.parts, &mut outbox[owner]);
                o.parts
                    .push(p.x[i], p.y[i], p.velocity5(i), p.perm[i], p.rng[i], cell);
                o.key.push((pairs[i] >> 32) as u32);
                o.prev_cell.push(self.seg_cell[j]);
                self.departed.push(i as u32);
            }
        }
    }

    /// The destination half of the exchange.  Append the arrivals' columns
    /// behind the residents, source by source, and write the pair array
    /// the rank will sort: the residents' staged pairs in slot order minus
    /// the departed, interleaved with the arrivals' by previous cell, every
    /// index field naming a physical row.  Previous cells partition across
    /// shards and every source is already ascending, so draining whole
    /// equal-cell runs smallest-first is the canonical previous order —
    /// what the stable rank's tie-breaking needs, and all it needs: the
    /// 40-byte particles stay where they are until the send.
    fn merge_arrivals(&mut self, me: usize, outbox: &[Vec<Outbox>]) {
        /// One source's arrivals, and how far the merge has drained them.
        struct Arrivals<'a> {
            from: &'a Outbox,
            /// Row of `from`'s first particle in the destination columns.
            first_row: usize,
            pos: usize,
        }
        impl Arrivals<'_> {
            fn head(&self) -> Option<u32> {
                self.from.prev_cell.get(self.pos).copied()
            }
        }
        /// The source whose next run has the smallest previous cell.
        fn next_run(sources: &[Arrivals<'_>]) -> Option<(u32, usize)> {
            sources
                .iter()
                .enumerate()
                .filter_map(|(k, a)| Some((a.head()?, k)))
                .min()
        }

        let n_old = self.parts.len();
        let mut sources = Vec::with_capacity(outbox.len());
        for (s, row) in outbox.iter().enumerate() {
            if s != me && !row[me].key.is_empty() {
                sources.push(Arrivals {
                    from: &row[me],
                    first_row: self.parts.len(),
                    pos: 0,
                });
                self.parts
                    .extend_range(&row[me].parts, 0..row[me].parts.len());
            }
        }
        let n_live = self.parts.len() - self.departed.len();
        let staged = self.sort_ws.take_pong();
        let merged = self.sort_ws.input_pairs(n_live);
        let (mut k, mut j, mut slot, mut gone) = (0, 0, 0, 0);
        loop {
            // Residents whose previous cell precedes the next run's go
            // first — every slot before the first segment of a later cell
            // — and after the last run, all that are left.
            let run = next_run(&sources);
            let end = match run {
                Some((cell, _)) => {
                    while self.seg_cell.get(j).is_some_and(|&c| c < cell) {
                        j += 1;
                    }
                    debug_assert_ne!(self.seg_cell.get(j), Some(&cell), "cells partition");
                    self.bounds.get(j).map_or(n_old, |&b| b as usize)
                }
                None => n_old,
            };
            while slot < end {
                // One block copy per gap between departed slots.
                let stop = self
                    .departed
                    .get(gone)
                    .map_or(end, |&d| end.min(d as usize));
                merged[k..k + stop - slot].copy_from_slice(&staged[slot..stop]);
                k += stop - slot;
                slot = stop;
                if stop < end {
                    slot += 1;
                    gone += 1;
                }
            }
            let Some((cell, src)) = run else { break };
            let a = &mut sources[src];
            while a.head() == Some(cell) {
                merged[k] = pack_pair(a.from.key[a.pos], a.first_row + a.pos);
                k += 1;
                a.pos += 1;
            }
        }
        debug_assert_eq!(k, n_live, "merge lost or invented pairs");
        self.sort_ws.put_pong(staged);
    }
}

/// One step of the k-way merge of all shards' segment tables by cell:
/// the `(shard, segment)` whose cursor in `pos` points at the smallest
/// `seg_cell`, advancing that cursor; `None` once every table is drained.
/// Cells partition across shards, so the order is total — it is the
/// canonical (single-domain) segment order.
fn next_merged_segment(shards: &[Shard], pos: &mut [usize]) -> Option<(usize, usize)> {
    let mut best: Option<(u32, usize)> = None;
    for (s, shard) in shards.iter().enumerate() {
        if let Some(&c) = shard.seg_cell.get(pos[s]) {
            if best.is_none_or(|(bc, _)| c < bc) {
                best = Some((c, s));
            }
        }
    }
    let (_, s) = best?;
    pos[s] += 1;
    Some((s, pos[s] - 1))
}

/// The canonical (single-domain) array laid over the shards that hold it:
/// what the order-bearing outputs stream from instead of merging a copy.
pub(super) struct CanonicalRuns<'a> {
    shards: &'a [Shard],
    /// `(shard, rows)` in canonical order; adjacent segments of one shard
    /// share a run.
    runs: Vec<(usize, Range<usize>)>,
    /// The canonical segment bounds.
    pub(super) bounds: Cow<'a, [u32]>,
}

impl<'a> CanonicalRuns<'a> {
    /// One shard is the canonical array; several are read off one k-way
    /// merge of their segment tables, the bounds as the running prefix of
    /// the merged segments' lengths.
    pub(super) fn of(shards: &'a [Shard]) -> Self {
        if let [one] = shards {
            return Self {
                shards,
                runs: vec![(0, 0..one.parts.len())],
                bounds: Cow::Borrowed(&one.bounds),
            };
        }
        let mut runs: Vec<(usize, Range<usize>)> = Vec::new();
        let mut bounds = vec![0];
        let mut pos = vec![0; shards.len()];
        while let Some((s, j)) = next_merged_segment(shards, &mut pos) {
            let b = &shards[s].bounds;
            let rows = b[j] as usize..b[j + 1] as usize;
            bounds.push(bounds[bounds.len() - 1] + rows.len() as u32);
            match runs.last_mut() {
                Some((last, run)) if *last == s && run.end == rows.start => run.end = rows.end,
                _ => runs.push((s, rows)),
            }
        }
        Self {
            shards,
            runs,
            bounds: Cow::Owned(bounds),
        }
    }

    /// Number of particles.
    pub(super) fn len(&self) -> usize {
        self.runs.iter().map(|(_, rows)| rows.len()).sum()
    }

    /// One particle column, `col` of each shard's store, in canonical
    /// order.
    pub(super) fn column<T: 'a>(
        &self,
        col: fn(&ParticleStore) -> &[T],
    ) -> impl Iterator<Item = &'a T> + '_ {
        let shards = self.shards;
        self.runs
            .iter()
            .flat_map(move |(s, rows)| &col(&shards[*s].parts)[rows.clone()])
    }
}

/// The canonical (single-domain) array of `shards`, copied into one shard
/// run by run — a pure copy, no RNG.  Each segment's cell is the cell of
/// its first row, so the columns, bounds and segment cells are exactly
/// what one shard's sort would have produced.
fn merged(shards: &[Shard]) -> Shard {
    let canon = CanonicalRuns::of(shards);
    let mut view = Shard::default();
    view.parts.reserve(canon.len());
    for (s, rows) in &canon.runs {
        view.parts.extend_range(&shards[*s].parts, rows.clone());
    }
    view.bounds = canon.bounds.into_owned();
    let (bounds, cells) = (&view.bounds, &view.parts.cell);
    view.seg_cell = (bounds[..bounds.len() - 1].iter())
        .map(|&b| cells[b as usize])
        .collect();
    debug_assert!(view.parts.check_coherent());
    view
}

/// The column-block decomposition: how many shards, where the cuts are,
/// and the cached view several shards merge into for the column readers.
impl Simulation {
    /// Re-decompose the engine into `n_shards` column blocks, clamped to
    /// `[1, tunnel width]`, at a step boundary.  The initial cuts are
    /// weighted by the current per-column populations, so a shock that
    /// already exists is balanced from the first step.  A pure copy — no
    /// RNG is consumed, no particle is reordered — so the trajectory is
    /// the same at every shard count.
    pub fn reshard(&mut self, n_shards: usize) {
        self.reshard_with(n_shards, None);
    }

    /// [`Simulation::reshard`], cutting at `stored` instead when it holds
    /// cuts for exactly the clamped shard count (a checkpoint's manifest;
    /// the caller has checked that they span the tunnel), so a resume
    /// scatters once.
    pub(super) fn reshard_with(&mut self, n_shards: usize, stored: Option<Vec<u32>>) {
        let w = self.tunnel.width;
        let n_shards = n_shards.clamp(1, w as usize);
        self.fold_col_load();
        let canon = match self.shards.len() {
            1 => self.shards.pop().expect("one shard"),
            _ => self.take_merged(),
        };
        let cuts = match stored {
            Some(cuts) if cuts.len() == n_shards + 1 => cuts,
            _ if self.col_load.iter().all(|&l| l == 0) => uniform_cuts(w as usize, n_shards),
            _ => balanced_cuts(&self.col_load, n_shards),
        };
        let total_cells = self.total_cells();
        self.layout = ShardLayout::new(cuts, w, self.res_base, total_cells);
        self.exec = ShardExec::new(self.cfg.exec, n_shards);
        self.outbox = (0..n_shards)
            .map(|_| (0..n_shards).map(|_| Outbox::default()).collect())
            .collect();
        if n_shards == 1 {
            self.shards = vec![canon];
        } else {
            self.shards = (0..n_shards)
                .map(|_| Shard::new(total_cells as usize))
                .collect();
            self.scatter(&canon);
        }
    }

    /// The canonical particle domain: the one shard, or the view several
    /// merge into on its first read since the last step or scatter.
    pub(super) fn canon(&self) -> &Shard {
        match &self.shards[..] {
            [one] => one,
            shards => self.view.get_or_init(|| merged(shards)),
        }
    }

    /// The canonical domain of several shards as one owned shard: the
    /// cached view if a column reader built one, else a fresh merge.  No
    /// view is left behind.
    pub(super) fn take_merged(&mut self) -> Shard {
        self.view.take().unwrap_or_else(|| merged(&self.shards))
    }

    /// Scatter a canonical domain into the shards, segment by segment to
    /// the owner of its cell, writing each shard's segment table in the
    /// same walk.  A pure copy — no RNG is consumed, no particle is
    /// reordered — so the subsequence invariant holds by construction.  The
    /// shards are then the only copy of the state: any view is dropped.
    pub(super) fn scatter(&mut self, canon: &Shard) {
        let segments = || {
            (canon.seg_cell.iter().enumerate())
                .map(|(j, &c)| (c, canon.bounds[j] as usize..canon.bounds[j + 1] as usize))
        };
        let mut pops = vec![0; self.shards.len()];
        for (cell, rows) in segments() {
            pops[self.layout.owner(cell)] += rows.len();
        }
        for (shard, pop) in self.shards.iter_mut().zip(pops) {
            // The eighth of headroom `extend_range` would take on growing.
            shard.parts.clear();
            shard.parts.reserve(pop + pop / 8);
            shard.bounds.clear();
            shard.bounds.push(0);
            shard.seg_cell.clear();
            shard.order.clear();
        }
        for (cell, rows) in segments() {
            let shard = &mut self.shards[self.layout.owner(cell)];
            shard.parts.extend_range(&canon.parts, rows);
            shard.bounds.push(shard.parts.len() as u32);
            shard.seg_cell.push(cell);
        }
        self.view.take();
    }

    /// The engine itself: the shards are the state, and every reader takes
    /// `&Simulation`.  Kept only for the benchmark adapter, which still
    /// spells its reads `canonical().…`.
    pub fn canonical(&self) -> &Simulation {
        self
    }

    /// Advance one time step: the one step path (see the module docs) over
    /// the shards, exchanging the crossers between several.
    ///
    /// Under [`crate::config::ExecMode::Threaded`] a shard-worker panic
    /// is converted into the returned [`ShardExecError`]; the simulation
    /// is then in an unspecified mid-step state and should be discarded
    /// (supervisors recover from the last checkpoint).  Under `Serial`
    /// worker panics unwind normally and this never returns `Err`.
    pub fn try_step(&mut self) -> Result<(), ShardExecError> {
        self.view.take();
        let several = self.shards.len() > 1;
        if several {
            // The repartition check is free (it reads the last sort's
            // census) and the cuts steer nothing but this step's routing;
            // its time is move-phase time.
            let t = Instant::now();
            self.maybe_repartition();
            self.timings.add(Substep::Move, t.elapsed());
        }
        let mut shards = std::mem::take(&mut self.shards);
        let mut outbox = std::mem::take(&mut self.outbox);
        let layout = std::mem::take(&mut self.layout);
        let exchange = several.then_some(Exchange {
            layout: &layout,
            outbox: &mut outbox,
        });
        let exec = self.exec;
        let stepped = self.step_shards(&mut shards, &exec, exchange);
        (self.shards, self.outbox, self.layout) = (shards, outbox, layout);
        stepped
    }

    /// Fold the last sort's segment bounds into per-column flow loads and
    /// re-draw the cuts if the measured imbalance exceeds the threshold.
    /// Runs ahead of the move phase: it reads only that census, and the
    /// cuts are consulted only by this step's routing, whose merge is keyed
    /// by previous cells under the old sorted order — so new cuts just send
    /// more particles through the exchange and never touch the trajectory.
    fn maybe_repartition(&mut self) {
        let s_count = self.shards.len();
        self.fold_col_load();
        let total: u64 = self.col_load.iter().sum();
        if total == 0 {
            return;
        }
        let mut max_load = 0u64;
        for s in 0..s_count {
            let lo = self.layout.cuts[s] as usize;
            let hi = self.layout.cuts[s + 1] as usize;
            max_load = max_load.max(self.col_load[lo..hi].iter().sum());
        }
        if (max_load as f64) <= REPARTITION_THRESHOLD * (total as f64 / s_count as f64) {
            return;
        }
        let cuts = balanced_cuts(&self.col_load, s_count);
        if cuts != self.layout.cuts {
            self.layout.set_cuts(cuts);
            self.repartitions += 1;
        }
    }

    /// Fold the shards' segment tables into per-column flow loads.
    fn fold_col_load(&mut self) {
        let w = self.tunnel.width;
        self.col_load.clear();
        self.col_load.resize(w as usize, 0);
        for shard in &self.shards {
            for j in 0..shard.n_segments() {
                let c = shard.seg_cell[j];
                if c < self.res_base {
                    let len = shard.bounds[j + 1] - shard.bounds[j];
                    self.col_load[(c % w) as usize] += len as u64;
                }
            }
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The current column-block layout.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// How many times the weighted repartition has re-drawn the cuts.
    pub fn repartitions(&self) -> u64 {
        self.repartitions
    }

    /// Resolved shard-worker count for this run (`1` at one shard and on
    /// the serial path).
    pub fn exec_workers(&self) -> usize {
        self.exec.workers()
    }

    /// Replace the column cuts (a test/experimentation hook: e.g. start
    /// maximally skewed to force the weighted repartition mid-run).  Like
    /// the repartition itself this is trajectory-neutral — the shards are
    /// merged, re-cut and re-scattered, a pure copy that consumes no RNG.
    /// Returns `false` (and changes nothing) unless `cuts` has `n_shards +
    /// 1` strictly-ascending entries spanning `0..=tunnel_w`.
    pub fn set_cuts(&mut self, cuts: &[u32]) -> bool {
        if cuts.len() != self.shards.len() + 1 || !cuts_span(cuts, self.tunnel.width) {
            return false;
        }
        if self.shards.len() > 1 {
            let canon = self.take_merged();
            self.layout.set_cuts(cuts.to_vec());
            self.scatter(&canon);
        }
        true
    }

    /// Current per-shard populations (flow + reservoir).
    pub fn shard_populations(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.parts.len()).collect()
    }
}

/// What a step over several shards needs besides the shards: the ownership
/// map the crossers are routed by, and the outboxes they travel in.
struct Exchange<'a> {
    layout: &'a ShardLayout,
    outbox: &'a mut [Vec<Outbox>],
}

/// The one step path.
impl Simulation {
    /// Advance `shards` one time step: the paper's four sub-steps, plus
    /// sampling when a window is open, each phase run per shard by `exec`
    /// and folded into the global state on the coordinator in shard order.
    /// `exchange` routes the crossers between several shards (see the
    /// module docs).  One shard owns every cell and has none: the keyed
    /// sweep packs straight into the sort workspace, the rank reads the
    /// pairs as packed, and pairing takes each segment's own start parity.
    fn step_shards(
        &mut self,
        shards: &mut [Shard],
        exec: &ShardExec,
        mut exchange: Option<Exchange<'_>>,
    ) -> Result<(), ShardExecError> {
        debug_assert_eq!(shards.len() > 1, exchange.is_some());

        // 1+2) Per-shard move sweeps, then the global boundary bookkeeping.
        let t = Instant::now();
        let withdraw = self.plunger.will_withdraw();
        let (out, pack_wall) = self.move_shards(shards, exec, exchange.as_mut(), withdraw)?;
        let void_end = self.fold_move(&out);
        // A wrong guess would rank the reservoir rows the sweep left
        // unkeyed, or leave them for a refill that never comes.
        assert_eq!(
            void_end.is_some(),
            withdraw,
            "will_withdraw must predict the advance"
        );
        if let Some(void_end) = void_end {
            self.introduced += self.refill_from_census(shards, void_end) as u64;
        }
        // The pack is exchange work: its share of the move phase's wall
        // time is booked under the sort bucket with the rest of it.
        self.timings
            .add(Substep::Move, t.elapsed().saturating_sub(pack_wall));

        // 3a) The rest of the exchange and the per-shard sorts.  On a
        // withdrawal step the crossers waited for the refill, which places
        // some of them, so several shards pack them here first.
        let t = Instant::now();
        let mut cpu = SortSplit::default();
        if let (true, Some(x)) = (withdraw, exchange.as_mut()) {
            cpu.exchange += pack_after_refill(shards, exec, x)?;
        }
        let outbox = exchange.as_ref().map(|x| &*x.outbox);
        cpu += self.sort_shards(shards, exec, outbox)?;
        let wall = t.elapsed();
        let mut split = cpu.scaled_to(wall);
        split.exchange += pack_wall;
        self.timings.add_sort(wall + pack_wall, split);

        // 3b+4) Pairing parity, then per-shard select + collide.  Collision
        // RNG streams travel with the particles and the parities are fixed
        // first, so the phase is shard-private; the ledgers reduce from the
        // returned outcomes in shard order.
        let t = Instant::now();
        let global_parity = exchange.is_some();
        if global_parity {
            compute_parities(shards, &mut self.merge_pos);
        }
        let base = &*self;
        let phases = exec.run_phase(shards, "collide", |_i, shard, par| {
            collide::select_and_collide(
                &mut shard.parts,
                &shard.bounds,
                &base.sel,
                base.rounding,
                base.rng_mode,
                &mut shard.decisions,
                global_parity.then_some(shard.seg_parity.as_slice()),
                par,
            )
        })?;
        self.fold_collide(&phases, t.elapsed());

        // Optional sampling pass: per-shard partial sums into the shared
        // accumulator, one step bump.  Cells partition across shards and
        // the sums are integer atomics, so concurrent workers are exact.
        if let Some(acc) = &self.sampler {
            let t = Instant::now();
            let res_base = self.res_base;
            exec.run_phase(shards, "sample", |_i, shard, par| {
                acc.accumulate_partial(&shard.parts, &shard.bounds, res_base, par);
            })?;
            if let Some(acc) = self.sampler.as_mut() {
                acc.bump_step();
            }
            self.timings.add(Substep::Sample, t.elapsed());
        }

        self.steps += 1;
        self.timings.steps += 1;
        Ok(())
    }

    /// The per-shard move sweeps.  Returns the outcome summed (speed:
    /// maxed) across shards — per-particle sums reduced in shard order from
    /// the workers' outcomes, so the totals are independent of both the
    /// decomposition and the scheduling.
    ///
    /// Each sweep packs every particle's pair where it stands, drawing the
    /// jitter in the sweep: one shard into its sort workspace, several into
    /// their staged slot-order pairs, each packing its crossers in the same
    /// closure.  On a `withdraw` step the sweep leaves the rows it parks in
    /// the reservoir for the refill to key, and the crossers wait for the
    /// refill too.  The second return value is the pack's share of the
    /// phase's wall time, split from the sweep's in the proportion the
    /// workers measured.
    fn move_shards(
        &self,
        shards: &mut [Shard],
        exec: &ShardExec,
        exchange: Option<&mut Exchange<'_>>,
        withdraw: bool,
    ) -> Result<(MoveOutcome, Duration), ShardExecError> {
        let t = Instant::now();
        let jitter_bits = self.cfg.jitter_bits;
        let layout = exchange.as_ref().map(|x| x.layout);
        // Each shard's outbox row when several exchange; an empty one each
        // when one shard does not.
        let rows = exchange.map_or(&mut [][..], |x| &mut *x.outbox);
        let rows =
            (rows.iter_mut().map(|row| &mut row[..])).chain(std::iter::repeat_with(|| &mut [][..]));
        let mut lanes: Vec<_> = shards.iter_mut().zip(rows).collect();
        let outs = exec.run_phase(&mut lanes, "move", |me, (shard, outbox), par| {
            let t = Instant::now();
            let n = shard.parts.len();
            // Several shards stage their pairs in the rank's idle buffer.
            let mut staging = layout.map(|_| shard.sort_ws.take_pong());
            let pairs = match &mut staging {
                Some(staging) => {
                    staging.resize(n, 0);
                    &mut staging[..]
                }
                None => shard.sort_ws.input_pairs(n),
            };
            let keys = KeyPack {
                pairs,
                jitter_bits,
                rng_mode: self.rng_mode,
                defer_reservoir: withdraw,
            };
            let out = self.move_sweep(
                &mut shard.parts,
                &shard.bounds,
                keys,
                &mut shard.move_scratch,
                par,
            );
            let sweep = t.elapsed();
            if let (Some(staging), Some(layout)) = (staging, layout) {
                if !withdraw {
                    shard.pack_crossers(me, layout, &staging, outbox);
                }
                shard.sort_ws.put_pong(staging);
            }
            (out, sweep, t.elapsed() - sweep)
        })?;
        let wall = t.elapsed();
        let mut total = MoveOutcome::default();
        let (mut sweep_cpu, mut pack_cpu) = (Duration::ZERO, Duration::ZERO);
        for (out, sweep, pack) in outs {
            total.exited += out.exited;
            total.max_speed_raw = total.max_speed_raw.max(out.max_speed_raw);
            total.movers += out.movers;
            for (acc, n) in total.by_kind.iter_mut().zip(out.by_kind) {
                *acc += n;
            }
            sweep_cpu += sweep;
            pack_cpu += pack;
        }
        let pack_wall = if pack_cpu.is_zero() {
            Duration::ZERO
        } else {
            wall.mul_f64(pack_cpu.as_secs_f64() / (sweep_cpu + pack_cpu).as_secs_f64())
        };
        Ok((total, pack_wall))
    }

    /// The plunger refill through a canonical census: the shards' pre-move
    /// segments merged by cell (previous cells partition across shards),
    /// each scanned for post-move reservoir parking — on one shard, the
    /// array in order.  That is the order `boundary::refill_void` scans,
    /// and the selection arithmetic and per-particle x/y draws match it
    /// verbatim.  Then every census row — each one the sweep left unkeyed —
    /// is keyed into the buffer the sweep packed: the rank's input at one
    /// shard, the staged pairs at several.  Returns how many particles
    /// entered the void.
    fn refill_from_census(&mut self, shards: &mut [Shard], void_end: Fx) -> u32 {
        let h = self.tunnel.height as f64;
        let need = (self.cfg.n_per_cell * void_end.to_f64() * h).round() as usize;
        self.census.clear();
        self.merge_pos.clear();
        self.merge_pos.resize(shards.len(), 0);
        while let Some((s, j)) = next_merged_segment(shards, &mut self.merge_pos) {
            let shard = &shards[s];
            for i in shard.bounds[j]..shard.bounds[j + 1] {
                if shard.parts.cell[i as usize] >= self.res_base {
                    self.census.push((s as u32, i));
                }
            }
        }
        let avail = self.census.len();
        let take = need.min(avail);
        let stride = (avail as f64 / take as f64).max(1.0);
        let void_f = void_end.to_f64();
        for k in 0..take {
            let (s, i) = self.census[(k as f64 * stride) as usize % avail];
            let parts = &mut shards[s as usize].parts;
            let i = i as usize;
            let rng = &mut parts.rng[i];
            let x = Fx::from_f64(void_f * rng.next_f64());
            let y = Fx::from_f64((h * rng.next_f64()).min(h - 1e-6));
            parts.x[i] = x;
            parts.y[i] = y;
            // Velocities stay as relaxed in the reservoir: they *are*
            // the freestream sample.
            parts.cell[i] = self.tunnel.cell_index(x, y);
        }
        let several = shards.len() > 1;
        for (s, shard) in shards.iter_mut().enumerate() {
            let rows = (self.census.iter())
                .filter(|&&(owner, _)| owner as usize == s)
                .map(|&(_, i)| i);
            let mut staged = several.then(|| shard.sort_ws.take_pong());
            let pairs = match &mut staged {
                Some(staged) => &mut staged[..],
                None => shard.sort_ws.input_pairs(shard.parts.len()),
            };
            sortstep::key_rows(
                &mut shard.parts,
                &self.tunnel,
                self.res_base,
                self.res,
                self.cfg.jitter_bits,
                self.rng_mode,
                pairs,
                rows,
            );
            if let Some(staged) = staged {
                shard.sort_ws.put_pong(staged);
            }
        }
        take as u32
    }

    /// The per-shard sorts with the *global* cell keys.  Several shards
    /// first run the destination half of the exchange: the merged pair
    /// array is the canonical previous order restricted to what the shard
    /// now owns, so the stable rank emits the canonical order restricted to
    /// the shard, and its send — reading the residents and the arrivals
    /// behind them, writing only the live rows — is the one copy any
    /// particle takes this step.  One shard ranks the pairs its sweep (and,
    /// on a withdrawal step, the refill) packed.  Each worker returns where
    /// its time went; the durations come back summed.
    fn sort_shards(
        &self,
        shards: &mut [Shard],
        exec: &ShardExec,
        outbox: Option<&[Vec<Outbox>]>,
    ) -> Result<SortSplit, ShardExecError> {
        let outs = exec.run_phase(shards, "sort", |me, shard, par| {
            let t = Instant::now();
            if let Some(outbox) = outbox {
                shard.merge_arrivals(me, outbox);
            }
            let exchange = t.elapsed();
            SortSplit {
                exchange,
                ..shard.rank(self, par)
            }
        })?;
        let mut cpu = SortSplit::default();
        for split in outs {
            cpu += split;
        }
        Ok(cpu)
    }
}

/// Withdrawal steps over several shards: the refill has placed the rows it
/// took and keyed every row the sweep left, so each shard now packs its
/// crossers.  Returns the time spent, summed over shards.
fn pack_after_refill(
    shards: &mut [Shard],
    exec: &ShardExec,
    x: &mut Exchange<'_>,
) -> Result<Duration, ShardExecError> {
    let layout = x.layout;
    let mut lanes: Vec<_> = shards.iter_mut().zip(x.outbox.iter_mut()).collect();
    let outs = exec.run_phase(&mut lanes, "sort", |me, (shard, outbox), _par| {
        let t = Instant::now();
        let staging = shard.sort_ws.take_pong();
        shard.pack_crossers(me, layout, &staging, outbox);
        shard.sort_ws.put_pong(staging);
        t.elapsed()
    })?;
    Ok(outs.into_iter().sum())
}

/// Merge all shards' fresh segment tables by cell into a running global
/// prefix, giving every local segment the even/odd parity of its canonical
/// start index — the one global datum the pairing rule needs.
fn compute_parities(shards: &mut [Shard], pos: &mut Vec<usize>) {
    for shard in shards.iter_mut() {
        let n_seg = shard.n_segments();
        shard.seg_parity.clear();
        shard.seg_parity.resize(n_seg, 0);
    }
    pos.clear();
    pos.resize(shards.len(), 0);
    let mut prefix: u32 = 0;
    while let Some((s, j)) = next_merged_segment(shards, pos) {
        let shard = &mut shards[s];
        shard.seg_parity[j] = prefix & 1;
        prefix += shard.bounds[j + 1] - shard.bounds[j];
    }
}

/// [`Simulation`] at any shard count — the name the benchmark adapter
/// resumes a sharded engine through.
pub type ShardedSimulation = Simulation;

/// A [`Simulation`] tagged by how it was asked for: `Single` at one shard,
/// `Sharded` above it or through [`Engine::resume_sharded`].  Both variants
/// are the one engine struct and take the one step; the enum is the
/// benchmark adapter's spelling of it, and dereferences to it.
pub enum Engine {
    /// Built or resumed at one shard.
    Single(Simulation),
    /// Built or resumed at several shards, or through
    /// [`Engine::resume_sharded`].
    Sharded(Simulation),
}

impl Engine {
    /// Build an engine with `n_shards` shards.  Panics on an invalid
    /// configuration.
    pub fn new(cfg: SimConfig, n_shards: usize) -> Self {
        Self::try_new(cfg, n_shards).unwrap_or_else(|e| panic!("invalid SimConfig: {e}"))
    }

    /// Build an engine, reporting configuration problems as a typed error.
    pub fn try_new(cfg: SimConfig, n_shards: usize) -> Result<Self, ConfigError> {
        let mut sim = Simulation::try_new(cfg)?;
        sim.reshard(n_shards);
        Ok(Self::tag(sim, n_shards))
    }

    /// Resume an engine from a snapshot under `n_shards` shards (see
    /// [`Simulation::resume`]).
    pub fn resume(cfg: SimConfig, bytes: &[u8], n_shards: usize) -> Result<Self, StateError> {
        Simulation::resume(cfg, bytes, n_shards).map(|sim| Self::tag(sim, n_shards))
    }

    /// [`Engine::resume`], tagged `Sharded` even at one shard.
    pub fn resume_sharded(
        cfg: SimConfig,
        bytes: &[u8],
        n_shards: usize,
    ) -> Result<Self, StateError> {
        Simulation::resume(cfg, bytes, n_shards).map(Engine::Sharded)
    }

    fn tag(sim: Simulation, n_shards: usize) -> Self {
        if n_shards <= 1 {
            Engine::Single(sim)
        } else {
            Engine::Sharded(sim)
        }
    }
}

impl std::ops::Deref for Engine {
    type Target = Simulation;

    fn deref(&self) -> &Simulation {
        match self {
            Engine::Single(sim) | Engine::Sharded(sim) => sim,
        }
    }
}

impl std::ops::DerefMut for Engine {
    fn deref_mut(&mut self) -> &mut Simulation {
        match self {
            Engine::Single(sim) | Engine::Sharded(sim) => sim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BodySpec, RngMode};
    use crate::engine::FaultTarget;
    use crate::sentinel::Sentinel;

    fn sharded(cfg: SimConfig, n_shards: usize) -> Simulation {
        let mut sim = Simulation::new(cfg);
        sim.reshard(n_shards);
        sim
    }

    fn wedge_cfg() -> SimConfig {
        let mut cfg = SimConfig::small_wedge(0.5);
        cfg.n_per_cell = 8.0;
        cfg.reservoir_fill = 16.0;
        cfg
    }

    #[test]
    fn owner_maps_every_cell_to_exactly_one_shard() {
        let layout = ShardLayout::new(vec![0, 3, 7, 16], 16, 16 * 12, 16 * 12 + 8);
        for cell in 0..16 * 12 {
            let col = cell % 16;
            let expect = if col < 3 {
                0
            } else if col < 7 {
                1
            } else {
                2
            };
            assert_eq!(layout.owner(cell), expect, "cell {cell}");
        }
        // Reservoir cells always land on the last shard.
        assert_eq!(layout.owner(16 * 12), 2);
        assert_eq!(layout.owner(16 * 12 + 7), 2);
    }

    #[test]
    fn balanced_cuts_track_the_load_and_keep_every_shard_nonempty() {
        // All the weight in the last two columns: the first cuts collapse
        // to the minimum-width clamp.
        let mut load = vec![0u64; 8];
        load[6] = 100;
        load[7] = 100;
        let cuts = balanced_cuts(&load, 4);
        assert_eq!(cuts.len(), 5);
        assert_eq!(cuts[0], 0);
        assert_eq!(cuts[4], 8);
        assert!(cuts.windows(2).all(|w| w[0] < w[1]), "cuts {cuts:?}");
        // The heavy columns end up split across the last shards.
        assert!(cuts[3] >= 6, "cuts {cuts:?}");
        // Uniform load → (close to) uniform cuts.
        let cuts = balanced_cuts(&[10; 8], 4);
        assert_eq!(cuts, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn sharded_runs_hash_identically_to_the_canonical_engine() {
        for shards in [1usize, 2, 3, 4] {
            let mut single = Simulation::new(SimConfig::small_test());
            let mut sharded = sharded(SimConfig::small_test(), shards);
            single.run(40);
            sharded.run(40);
            assert_eq!(
                sharded.state_hash(),
                single.state_hash(),
                "{shards} shards diverged"
            );
            assert_eq!(sharded.diagnostics(), single.diagnostics());
        }
    }

    #[test]
    fn sampling_windows_are_shard_count_invariant() {
        let mut single = Simulation::new(wedge_cfg());
        let mut sharded = sharded(wedge_cfg(), 3);
        single.run(30);
        sharded.run(30);
        single.begin_sampling();
        sharded.begin_sampling();
        single.run(40);
        sharded.run(40);
        assert_eq!(sharded.state_hash(), single.state_hash());
        let fa = single.finish_sampling();
        let fb = sharded.finish_sampling();
        assert_eq!(fa.density, fb.density);
        let sa = single.finish_surface_sampling().expect("wedge has facets");
        let sb = sharded.finish_surface_sampling().expect("wedge has facets");
        assert_eq!(sa.cp, sb.cp);
        assert_eq!(sa.force_x, sb.force_x);
    }

    #[test]
    fn sharded_checkpoint_resumes_bit_exactly_at_another_shard_count() {
        let mut straight = Simulation::new(wedge_cfg());
        straight.run(60);
        let mut a = sharded(wedge_cfg(), 3);
        a.run(35);
        let bytes = a.save_state();
        for resume_shards in [1usize, 2, 4] {
            let mut b = Simulation::resume(wedge_cfg(), &bytes, resume_shards).unwrap();
            b.run(25);
            assert_eq!(
                b.state_hash(),
                straight.state_hash(),
                "resume at {resume_shards} shards diverged"
            );
        }
        // The canonical engine skips the advisory manifest entirely.
        let mut c = Simulation::resume(wedge_cfg(), &bytes, 1).unwrap();
        c.run(25);
        assert_eq!(c.state_hash(), straight.state_hash());
    }

    #[test]
    fn manifest_round_trips_cuts_and_repartitions() {
        let mut a = sharded(wedge_cfg(), 3);
        a.run(50);
        let bytes = a.save_state();
        let b = Simulation::resume(wedge_cfg(), &bytes, 3).unwrap();
        assert_eq!(b.layout().cuts(), a.layout().cuts());
        assert_eq!(b.repartitions(), a.repartitions());
        assert_eq!(b.shard_populations(), a.shard_populations());
    }

    #[test]
    fn repartition_rebalances_a_skewed_start_without_touching_the_hash() {
        // Deliberately bad initial cuts on a wedge flow: the engine must
        // repartition toward balance while staying bit-identical.
        let mut sharded = sharded(wedge_cfg(), 4);
        let w = sharded.tunnel.width;
        assert!(sharded.set_cuts(&[0, 1, 2, 3, w]));
        let mut single = Simulation::new(wedge_cfg());
        sharded.run(30);
        single.run(30);
        assert_eq!(sharded.state_hash(), single.state_hash());
        assert!(
            sharded.repartitions() > 0,
            "a maximally skewed layout must trigger the weighted repartition"
        );
        let pops = sharded.shard_populations();
        let max = *pops.iter().max().unwrap() as f64;
        let mean = pops.iter().sum::<usize>() as f64 / pops.len() as f64;
        assert!(
            max / mean < 2.0,
            "populations still skewed after repartition: {pops:?}"
        );
    }

    #[test]
    fn repartition_steps_stay_bit_identical() {
        // A maximally skewed start forces early repartitions; the
        // trajectory must match the single-domain run bit for bit through
        // them.
        let mut skewed = sharded(wedge_cfg(), 4);
        let w = skewed.tunnel.width;
        assert!(skewed.set_cuts(&[0, 1, 2, 3, w]));
        let mut single = Simulation::new(wedge_cfg());
        skewed.run(30);
        single.run(30);
        assert!(
            skewed.repartitions() > 0,
            "the skewed start never triggered a repartition step"
        );
        assert_eq!(
            skewed.state_hash(),
            single.state_hash(),
            "trajectories diverged across the repartitions"
        );
    }

    #[test]
    fn engine_dispatch_covers_bodies_and_rng_modes() {
        for body in [
            BodySpec::None,
            BodySpec::Cylinder {
                cx: 8.0,
                cy: 6.0,
                r: 2.0,
            },
        ] {
            for rng_mode in [RngMode::Explicit, RngMode::DirtyBits] {
                let mut cfg = SimConfig::small_test();
                cfg.body = body.clone();
                cfg.rng_mode = rng_mode;
                let mut one = sharded(cfg.clone(), 1);
                let mut four = sharded(cfg.clone(), 4);
                one.run(25);
                four.run(25);
                assert_eq!(
                    one.state_hash(),
                    four.state_hash(),
                    "{body:?}/{rng_mode:?} diverged across shard counts"
                );
            }
        }
    }

    #[test]
    fn threaded_execution_is_bit_identical_to_serial_per_worker_count() {
        let mut cfg = wedge_cfg();
        cfg.exec = crate::config::ExecMode::Serial;
        let mut reference = sharded(cfg.clone(), 3);
        reference.run(40);
        let (want_hash, want_diag) = (reference.state_hash(), reference.diagnostics());
        for workers in [1usize, 2, 4] {
            cfg.exec = crate::config::ExecMode::Threaded { workers };
            let mut t = sharded(cfg.clone(), 3);
            assert_eq!(t.exec_workers(), workers.min(3));
            t.run(40);
            assert_eq!(t.state_hash(), want_hash, "{workers} workers diverged");
            assert_eq!(t.diagnostics(), want_diag);
        }
    }

    #[test]
    fn set_cuts_rejects_malformed_layouts_and_stays_trajectory_neutral() {
        let mut sharded = sharded(wedge_cfg(), 3);
        let w = sharded.tunnel.width;
        sharded.run(10);
        assert!(!sharded.set_cuts(&[0, 5, w]), "wrong arity must be refused");
        assert!(!sharded.set_cuts(&[0, 9, 5, w]), "non-ascending refused");
        assert!(!sharded.set_cuts(&[1, 5, 9, w]), "must start at 0");
        assert!(sharded.set_cuts(&[0, 1, 2, w]));
        sharded.run(20);
        let mut single = Simulation::new(wedge_cfg());
        single.run(30);
        assert_eq!(sharded.state_hash(), single.state_hash());
    }

    /// Capacity of every column of the merged view (0 when none is built).
    fn view_capacity(sim: &Simulation) -> usize {
        let Some(view) = sim.view.get() else { return 0 };
        let p = &view.parts;
        let fx = [&p.x, &p.y, &p.u, &p.v, &p.w, &p.r1, &p.r2].map(|c| c.capacity());
        fx.iter().sum::<usize>() + p.perm.capacity() + p.rng.capacity() + p.cell.capacity()
    }

    /// Each section of a snapshot, by tag.
    fn sections(bytes: &[u8]) -> std::collections::HashMap<[u8; 4], &[u8]> {
        let body = &bytes[..bytes.len() - 8];
        let (mut out, mut at) = (std::collections::HashMap::new(), 24);
        while at < body.len() {
            let tag: [u8; 4] = body[at..at + 4].try_into().unwrap();
            let len = u64::from_le_bytes(body[at + 4..at + 12].try_into().unwrap()) as usize;
            out.insert(tag, &body[at + 12..at + 12 + len]);
            at += 12 + len;
        }
        out
    }

    #[test]
    fn the_shards_are_the_only_resident_copy() {
        let mut single = Simulation::new(wedge_cfg());
        single.run(10);
        let bytes = single.save_state();
        let mut resharded = Simulation::new(wedge_cfg());
        resharded.run(10);
        resharded.reshard(4);
        let mut resumed = Simulation::resume(wedge_cfg(), &bytes, 4).unwrap();
        let cycles = single.diagnostics().plunger_cycles;
        single.begin_sampling();
        single.run(30);
        assert!(
            single.diagnostics().plunger_cycles > cycles,
            "no withdrawal"
        );
        let single_save = single.save_state();
        let want = sections(&single_save);
        let want_hash = single.state_hash();
        let want_field = single.finish_sampling();
        let want_surface = single.finish_surface_sampling().expect("wedge has facets");
        for sim in [&mut resharded, &mut resumed] {
            assert_eq!(view_capacity(sim), 0, "a fresh 4-shard engine holds a view");
            // Everything a supervised run reads walks the shards: no
            // reader builds a view.  Only a step or a scatter drops one, so
            // a 0 after a run of readers covers each of them.
            let sentinel = Sentinel::arm(sim);
            assert_eq!(view_capacity(sim), 0, "arming the sentinel built a view");
            sim.begin_sampling();
            sim.run(30);
            sentinel.check(sim).expect("healthy run");
            assert_eq!(view_capacity(sim), 0, "the sentinel check built a view");
            assert_eq!(sim.diagnostics(), single.diagnostics());
            assert!(sim.freestream().sigma() > 0.0);
            let (hash, saved) = (sim.state_hash(), sim.save_state());
            assert_eq!(view_capacity(sim), 0, "streaming the outputs built a view");
            assert_eq!(hash, want_hash);
            let got = sections(&saved);
            for tag in [*b"CORE", *b"PART", *b"BNDS", *b"FSMP"] {
                assert_eq!(got[&tag], want[&tag], "{}", String::from_utf8_lossy(&tag));
            }
            assert!(got.contains_key(b"SHRD") && !want.contains_key(b"SHRD"));
            assert_eq!(sim.finish_sampling().density, want_field.density);
            let surface = sim.finish_surface_sampling().expect("wedge has facets");
            assert_eq!(surface.cp, want_surface.cp);
            assert_eq!(view_capacity(sim), 0, "closing the windows built a view");
            // A column read builds the view; a step drops it, and the next
            // read rebuilds it bitwise as one domain would hold it.
            assert_eq!(sim.particles().x, single.particles().x);
            assert!(view_capacity(sim) > 0);
            let mut reference = Simulation::resume(wedge_cfg(), &sim.save_state(), 1).unwrap();
            sim.step();
            assert_eq!(view_capacity(sim), 0, "a step kept the view");
            reference.step();
            let (got, want) = (sim.canon(), reference.canon());
            assert_eq!(got.parts.x, want.parts.x);
            assert_eq!(got.parts.u, want.parts.u);
            assert_eq!(got.parts.rng, want.parts.rng);
            assert_eq!(got.parts.cell, want.parts.cell);
            assert_eq!(got.bounds, want.bounds);
            assert_eq!(got.seg_cell, want.seg_cell);
            assert_eq!(sim.state_hash(), reference.state_hash());
        }
    }

    #[test]
    fn the_segment_check_refuses_a_segment_held_by_a_shard_that_does_not_own_it() {
        let mut sim = sharded(wedge_cfg(), 4);
        sim.run(5);
        assert_eq!(sim.sorted_state_fault(), None);
        // Move the cuts without scattering: the shards now hold cells
        // their layout gives to another shard.
        let w = sim.tunnel.width;
        sim.layout.set_cuts(vec![0, 1, 2, 3, w]);
        let (what, _) = sim.sorted_state_fault().expect("ownership broken");
        assert_eq!(what, "segment cell owned by another shard");
    }

    #[test]
    fn fault_injection_is_identical_on_the_canonical_view() {
        let mut single = Simulation::new(SimConfig::small_test());
        let mut sharded = sharded(SimConfig::small_test(), 2);
        single.run(20);
        sharded.run(20);
        let m1 = single.inject_fault(FaultTarget::StreamwiseVelocity, 99);
        let m2 = sharded.inject_fault(FaultTarget::StreamwiseVelocity, 99);
        assert_eq!(m1, m2);
        assert_eq!(sharded.state_hash(), single.state_hash());
    }
}
