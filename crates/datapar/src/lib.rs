//! Data-parallel substrate: the Connection Machine primitives a step calls.
//!
//! Dagum's implementation is written against a small vocabulary of
//! data-parallel operations — the C*/Paris primitives catalogued by Hillis &
//! Steele ("Data Parallel Algorithms", CACM 1986).  This crate holds the
//! part of that vocabulary the engine, its test oracle and the benchmark
//! actually use, for shared-memory machines:
//!
//! * the **sort** — a *rank* ([`sort_order_and_bounds_from_pairs_cells`],
//!   and [`incremental_rank`] when the order barely changed) whose output
//!   the engine *sends* its columns through with [`apply_perm`] and
//!   [`fill_cells_from_bounds`]; the backbone of the collision-partner
//!   machinery and the source of the algorithm's perfect dynamic load
//!   balance.  [`sort_perm_by_key`] and [`segment_bounds_from_sorted`] are
//!   its allocating reference form, which the separate-phase oracle
//!   (`dsmc_baselines::TwoStepSim`) runs;
//! * [`segments`]: [`par_segments_mut`] and [`par_segment_runs_mut`], the
//!   safe "one task per cell" abstraction the collision and sampling
//!   routines use to mutate many structure-of-arrays slices segment by
//!   segment;
//! * the plus-**scan** ([`scan_add_exclusive_u32`]) and the **pack** built
//!   on it ([`pack_indices`], stream compaction).
//!
//! Every primitive runs sequentially below [`PAR_THRESHOLD`] and
//! rayon-parallel above it, with bit-identical results — the primitives
//! only use associative integer operations and data-determined disjoint
//! writes, so chunking does not change outcomes.  Module [`seq`] holds the
//! sequential references; property tests enforce the equivalence.  The
//! primitives a sharded step calls also take a [`Par`]: a caller that is
//! already one of several threads sharing the cores passes
//! [`Par::Inline`] and every size takes the sequential arm.

pub mod gather;
pub mod pack;
pub mod scan;
pub mod segments;
pub mod segscan;
pub mod seq;
pub mod sort;

/// Inputs shorter than this run sequentially: below ~16k elements the
/// fork/join overhead exceeds the work.
pub const PAR_THRESHOLD: usize = 1 << 14;

/// Where a primitive's parallelism goes — resolved by the caller, passed
/// down as an argument.  Both arms give bit-identical results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Par {
    /// Fork into the global rayon pool where the input is large enough to
    /// pay ([`PAR_THRESHOLD`] for the flat primitives).
    Pool,
    /// Never fork: the caller is itself one of the threads the cores are
    /// shared between (a sharded engine's worker), so every size takes
    /// the sequential arm.
    Inline,
}

impl Par {
    /// Whether a primitive over `n` elements forks into the pool.
    #[inline]
    pub fn forks(self, n: usize) -> bool {
        self == Par::Pool && n >= PAR_THRESHOLD
    }

    /// [`rayon::join`] on the pool arm; `a` then `b` on this thread on the
    /// inline arm.
    #[inline]
    pub fn join<A, B, RA, RB>(self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        match self {
            Par::Pool => rayon::join(a, b),
            Par::Inline => (a(), b()),
        }
    }
}

pub use gather::{apply_perm, apply_perm_with};
pub use pack::pack_indices;
pub use scan::scan_add_exclusive_u32;
pub use segments::{par_segment_runs_mut, par_segments_mut};
pub use segscan::segment_bounds_from_sorted;
pub use sort::{
    fill_cells_from_bounds, first_pass_bits, incremental_rank, pack_pair, radix_chunk_len,
    sort_order_and_bounds_from_pairs_cells, sort_order_and_bounds_from_pairs_cells_with,
    sort_perm_by_key, DisjointWrites, IncrementalScratch, SortScratch, MAX_CELL_BITS,
};
