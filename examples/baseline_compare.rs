//! Selection-scheme comparison on a uniform box.
//!
//! Reproduces the paper's discussion of alternatives: Bird's time-counter
//! (cell-level parallelism only), Nanbu/Ploss (particle-parallel but
//! mean-only conservation), and the McDonald–Baganoff pairwise rule (the
//! paper's contribution: particle-parallel *and* pairwise-conserving).
//!
//! ```text
//! cargo run --release -p dsmc-examples --example baseline_compare
//! ```

use dsmc_baselines::nanbu::pairwise_step;
use dsmc_baselines::{BirdBox, NanbuBox, UniformBox};
use dsmc_fixed::Rounding;
use dsmc_scenarios::BoxSpec;

/// The registry's relax-box gas, re-seeded so this comparison has its own
/// deterministic stream.
fn spec() -> BoxSpec {
    let mut s = dsmc_scenarios::find("relax-box")
        .expect("relax-box is registered")
        .relax_spec()
        .expect("relax case");
    s.seed = 2024;
    s
}

fn fresh() -> UniformBox {
    spec().build()
}

fn main() {
    let steps = 40;
    // Sub-unity collision probability so the *selection* policies differ
    // (at p = 1 every candidate collides under every scheme).
    let p_inf = 0.5;
    let n_inf = spec().per_cell as f64;

    // Pairwise (the paper's rule).
    let mut mb = fresh();
    let m0 = mb.total_momentum_raw();
    let mut mb_cols = 0;
    for _ in 0..steps {
        mb_cols += pairwise_step(&mut mb, p_inf, n_inf, Rounding::Stochastic);
    }
    let mb_drift = max_drift(&mb.total_momentum_raw(), &m0);

    // Bird.
    let mut bird = BirdBox::new(fresh(), p_inf, n_inf);
    let m0 = bird.state.total_momentum_raw();
    for _ in 0..steps {
        bird.step();
    }
    let bird_drift = max_drift(&bird.state.total_momentum_raw(), &m0);

    // Nanbu.
    let mut nb = NanbuBox::new(fresh(), p_inf, n_inf);
    let m0 = nb.state.total_momentum_raw();
    for _ in 0..steps {
        nb.step();
    }
    let nb_drift = max_drift(&nb.state.total_momentum_raw(), &m0);

    println!(
        "{:<22} {:>14} {:>18} {:>12}",
        "scheme", "interactions", "momentum drift", "kurtosis"
    );
    println!(
        "{:<22} {:>14} {:>18} {:>12.3}",
        "pairwise (paper)",
        mb_cols,
        mb_drift,
        mb.kurtosis(0)
    );
    println!(
        "{:<22} {:>14} {:>18} {:>12.3}",
        "Bird time-counter",
        bird.collisions(),
        bird_drift,
        bird.state.kurtosis(0)
    );
    println!(
        "{:<22} {:>14} {:>18} {:>12.3}",
        "Nanbu/Ploss",
        nb.updates(),
        nb_drift,
        nb.state.kurtosis(0)
    );
    println!(
        "\nall three thermalise the gas; only the pairwise rule combines\n\
         particle-level parallelism with per-collision conservation (drift in\n\
         raw LSB units: bounded by 1 per collision for pairwise and Bird, a\n\
         random walk for Nanbu — 'their extension to reacting flows is\n\
         questionable')."
    );
}

fn max_drift(m1: &[i64; 5], m0: &[i64; 5]) -> i64 {
    (0..5).map(|k| (m1[k] - m0[k]).abs()).max().unwrap()
}
