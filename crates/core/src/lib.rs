//! The Baganoff–McDonald direct particle simulation, data-parallel style.
//!
//! This crate is the paper's primary contribution: a fine-grained parallel
//! implementation of the Stanford direct particle simulation method for
//! hypersonic rarefied flow, structured exactly as the CM-2 code was —
//! *particles map to (virtual) processors*, and each time step is four
//! data-parallel sub-steps:
//!
//! 1. **collisionless motion** of all particles ([`motion`]),
//! 2. **boundary conditions** — specular walls, the body, the moving
//!    plunger inlet, the soft outflow into the reservoir ([`boundary`]),
//! 3. **selection of collision partners** — randomised cell-key sort,
//!    segmented-scan cell densities, even/odd pairing, the pairwise
//!    probability rule ([`sortstep`], [`collide`]),
//! 4. **collision of selected partners** — the 5-vector Maxwell-diatomic
//!    kernel ([`collide`]).
//!
//! The engine restructures sub-steps 1–3a into a *single-sweep move
//! phase* ([`movephase`]): motion, boundary resolve, cell refresh and
//! sort-key packing in one traversal,
//! dispatched per run of the previous step's sorted order by a
//! geometry-aware cell classification — bit-identical to running the
//! per-phase kernels of [`motion`], [`boundary`], [`sortstep`] and
//! [`collide`] one after another, which is what the test oracle
//! `dsmc_baselines::TwoStepSim` does.
//!
//! The public entry point is [`Simulation`], configured by [`SimConfig`]
//! and stepped over any number of column-block shards
//! ([`Simulation::reshard`]; bit-identical at every count, see
//! [`engine::shard`]).
//! State is structure-of-arrays 32-bit fixed point ([`particles`]); the
//! sort is what load-balances the collision phase ("the total processing
//! power of the machine is evenly distributed amongst the computational
//! cells"); and the reservoir keeps otherwise-idle particles doing useful
//! relaxation work, so that freestream injection never needs a Gaussian
//! sample in the step loop.
//!
//! Sampling windows produce two products: the volume fields of the
//! paper's figures ([`sample`]) and the surface-flux distributions —
//! Cp/Cf/Ch along the body — that production DSMC codes report
//! ([`surface`]).
//!
//! The full simulation state — particle columns, sorted-order bounds,
//! counters, plunger phase, open sampling windows — checkpoints to a
//! versioned binary snapshot and resumes *bit-exactly*: stop-at-N /
//! resume-to-M hashes identically to never having stopped
//! ([`engine::snapshot`]; format specified in the repository's
//! `STATE.md`).
//!
//! # Example
//!
//! ```
//! use dsmc_engine::{SimConfig, Simulation};
//!
//! let mut cfg = SimConfig::small_test();
//! cfg.seed = 7;
//! let mut sim = Simulation::new(cfg);
//! sim.run(10);
//! let d = sim.diagnostics();
//! assert!(d.n_flow > 0);
//! ```

pub mod boundary;
pub mod collide;
pub mod config;
pub mod diag;
pub mod engine;
pub mod init;
pub mod motion;
pub mod movephase;
pub mod particles;
pub mod sample;
pub mod sentinel;
pub mod sortstep;
pub mod surface;

pub use config::{BodySpec, ConfigError, ExecMode, RngMode, SimConfig};
pub use diag::{Diagnostics, SortSplit, StepTimings, Substep};
pub use engine::shard::exec::ShardExecError;
pub use engine::shard::{ShardLayout, REPARTITION_THRESHOLD};
// The benchmark adapter's names for `Simulation` at a shard count: a type
// alias and a two-variant enum that dereferences to it.  New code uses
// `Simulation` and `Simulation::reshard`.
pub use engine::shard::{Engine, ShardedSimulation};
pub use engine::{FaultTarget, Simulation};
pub use sample::SampledField;
pub use sentinel::{Sentinel, SentinelError, SentinelThresholds};
pub use surface::{SurfaceAccumulator, SurfaceField};
// The snapshot error/version surface, so downstream crates handle resume
// failures without a direct dsmc-state dependency.
pub use dsmc_state::{StateError, FORMAT_VERSION as STATE_FORMAT_VERSION};
