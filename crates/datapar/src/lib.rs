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
//! sequential references; property tests enforce the equivalence.

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

pub use gather::apply_perm;
pub use pack::pack_indices;
pub use scan::scan_add_exclusive_u32;
pub use segments::{par_segment_runs_mut, par_segments_mut};
pub use segscan::segment_bounds_from_sorted;
pub use sort::{
    fill_cells_from_bounds, first_pass_bits, incremental_rank, pack_pair, radix_chunk_len,
    sort_order_and_bounds_from_pairs_cells, sort_perm_by_key, DisjointWrites, IncrementalScratch,
    SortScratch, MAX_CELL_BITS,
};
