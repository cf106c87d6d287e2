//! Baseline collision-selection schemes and the serial comparator.
//!
//! The paper positions the McDonald–Baganoff pairwise selection rule
//! against the two families it improves on, and quotes a hand-vectorized
//! Cray-2 implementation as the conventional-supercomputer comparator.
//! All three are implemented here so the claims can be measured:
//!
//! * [`bird`] — Bird's classic time-counter Monte Carlo: pairs are drawn
//!   *per cell* until the asynchronous cell clock catches up with the
//!   global clock.  Inherently cell-sequential ("at best this method can be
//!   parallelized only at the cell level and thus is strongly influenced by
//!   statistical fluctuations in the cell populations").
//! * [`nanbu`] — Nanbu's per-particle probability scheme in Ploss's O(N)
//!   form: each particle independently decides to collide and updates only
//!   itself.  Parallel at particle level, but conserves momentum and energy
//!   only *in the mean* — the paper's stated reason to reject it.
//! * [`vectorized`] — a tuned single-thread implementation of the same
//!   Baganoff–McDonald physics (counting sort, no parallel machinery): the
//!   stand-in for the Cray-2 number (0.5 µs/particle/step) that the CM-2's
//!   7.2 µs is compared against.
//!
//! * [`two_step`] — not a competitor but the engine's test oracle: the
//!   same time step run as four separate whole-population phases through
//!   `dsmc-core`'s per-phase reference kernels, bit-identical to the
//!   engine's fused step for the same seed.
//!
//! The schemes share the 5-vector collision kernel and the [`UniformBox`]
//! harness so comparisons isolate the *selection* policy.

// The baselines are the evidence behind the paper-positioning claims:
// every public item must say what it measures.  `cargo doc` runs under
// `-D warnings` in CI, so this lint is load-bearing.
#![warn(missing_docs)]

pub mod bird;
pub mod harness;
pub mod nanbu;
pub mod two_step;
pub mod vectorized;

pub use bird::BirdBox;
pub use harness::UniformBox;
pub use nanbu::NanbuBox;
pub use two_step::TwoStepSim;
pub use vectorized::SerialSim;
