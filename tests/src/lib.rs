//! Shared helpers for the cross-crate integration tests.
//!
//! The tests run reduced-scale versions of the paper's experiments; these
//! helpers centralise the configurations so every test scales the same
//! way.

use dsmc_engine::{SampledField, SimConfig, Simulation};
use dsmc_flowfield::shock::{wedge_metrics, ShockMetrics};

/// A reduced paper-wedge run: `density` scales the 75/cell baseline,
/// `settle`/`average` are step counts.
pub fn wedge_run(
    lambda: f64,
    density: f64,
    settle: usize,
    average: usize,
) -> (Simulation, SampledField) {
    let mut cfg = SimConfig::paper(lambda);
    cfg.n_per_cell = (75.0 * density).max(4.0);
    cfg.reservoir_fill = cfg.n_per_cell * 1.4;
    let mut sim = Simulation::new(cfg);
    sim.run(settle);
    sim.begin_sampling();
    sim.run(average);
    let field = sim.finish_sampling();
    (sim, field)
}

/// A simulation of `cfg` built at `n_shards` shards.
pub fn at_shards(cfg: SimConfig, n_shards: usize) -> Simulation {
    let mut sim = Simulation::new(cfg);
    sim.reshard(n_shards);
    sim
}

/// Extract the standard wedge metrics from a paper-geometry field.
pub fn paper_metrics(field: &SampledField) -> Option<ShockMetrics> {
    wedge_metrics(field, 20.0, 25.0, 30.0, 4.0, 1.4)
}

/// The widest grid the identity suites run: a 200 × 100 tunnel is 20 600
/// cells with its reservoir — a 15-bit cell field, past the paper grid's 13
/// — and one particle per cell puts the population on the chunked side of
/// `dsmc_datapar::PAR_THRESHOLD`.  The unit plunger trigger makes six steps
/// cross a withdrawal.
pub fn wide_grid_config() -> SimConfig {
    let mut cfg = SimConfig::small_test();
    cfg.tunnel_w = 200;
    cfg.tunnel_h = 100;
    cfg.n_per_cell = 1.0;
    cfg.reservoir_cells = 600;
    cfg.reservoir_fill = 2.0;
    cfg.plunger_trigger = 1.0;
    cfg
}

/// Steps [`wide_grid_config`] needs to cross one plunger withdrawal.
pub const WIDE_GRID_STEPS: usize = 6;
