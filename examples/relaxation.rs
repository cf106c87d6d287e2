//! The reservoir's physics: rectangular velocities relax to a Maxwellian.
//!
//! The paper gives reservoir entrants "velocities from a rectangular
//! distribution with the same variance as the freestream, therefore after
//! a few time steps collisions with other reservoir particles relaxes
//! these to the correct Gaussian distributions" — saving every
//! transcendental call in the step loop.  This example watches that
//! relaxation: the excess kurtosis climbs from −1.2 (uniform) to 0
//! (Gaussian), and the energy splits itself equally over the 3+2 degrees
//! of freedom (the diatomic γ = 7/5).
//!
//! ```text
//! cargo run --release -p dsmc-examples --example relaxation
//! ```

use dsmc_baselines::nanbu::pairwise_step;
use dsmc_fixed::Rounding;

fn main() {
    // The box parameters are the registry's relax-box scenario, so this
    // walkthrough and the golden-checked CI case watch the same gas.
    let spec = dsmc_scenarios::find("relax-box")
        .expect("relax-box is registered")
        .relax_spec()
        .expect("relax case");
    let mut b = spec.build();
    println!(
        "box: {} particles in {} cells, rectangular start (kurtosis −1.2)",
        b.len(),
        b.n_cells()
    );
    println!(
        "\n{:>5} {:>10} {:>45}",
        "step", "kurtosis", "energy share per mode (u v w r1 r2)"
    );
    let e0 = b.total_energy_raw();
    for step in 0..=20 {
        if step > 0 {
            pairwise_step(
                &mut b,
                spec.p_inf,
                spec.per_cell as f64,
                Rounding::Stochastic,
            );
        }
        if step % 2 == 0 {
            let k = b.kurtosis(0);
            let s = b.mode_shares();
            println!(
                "{:>5} {:>10.3}   {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
                step, k, s[0], s[1], s[2], s[3], s[4]
            );
        }
    }
    let e1 = b.total_energy_raw();
    println!(
        "\nenergy drift over the whole relaxation: {:+.3e} (stochastic rounding)",
        (e1 - e0) as f64 / e0 as f64
    );
    let k = b.kurtosis(0);
    assert!(
        k.abs() < 0.15,
        "distribution must be Maxwellian, kurtosis {k}"
    );
    let shares = b.mode_shares();
    for (i, s) in shares.iter().enumerate() {
        assert!(
            (s - 0.2).abs() < 0.02,
            "mode {i} should hold 1/5 of the energy, holds {s:.3}"
        );
    }
    println!("relaxed to Maxwellian with 3+2 equipartition — the diatomic model's γ = 7/5.");
}
