//! Figure-7 style scaling: per-particle cost versus problem size.
//!
//! Sweeps the wind-tunnel workload over total populations at a fixed
//! modelled machine (32k processors) and prints both the CM-2 model series
//! (reproducing the paper's falling curve, written to
//! `artifacts/fig7_scaling.csv`) and the wall-clock series on this
//! machine's rayon backend, the model's four-substep timing table at the
//! largest point — then the third axis long campaigns care about: what a
//! settling transient costs cold versus resuming it from a checkpoint.
//!
//! ```text
//! cargo run --release -p dsmc-examples --example scaling
//! ```

use dsmc_engine::{SimConfig, Simulation};
use dsmc_perfmodel::{sweep, Cm2};
use dsmc_scenarios::artifacts;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let machine = Cm2::paper();
    let sizes = [
        32 * 1024usize,
        64 * 1024,
        128 * 1024,
        256 * 1024,
        512 * 1024,
    ];
    println!(
        "sweeping {} populations (fixed 32k-processor model)…",
        sizes.len()
    );
    let pts = sweep(&machine, &sizes, 10, 12, 0.0);
    println!(
        "\n{:>10} {:>4} {:>12} {:>12} {:>12}",
        "particles", "VP", "CM-2 model", "wall-clock", "pair off-chip"
    );
    let mut csv = String::from(
        "n_particles,vp_ratio,f_off_sort,f_off_pair,collisions_per_particle,\
         us_model,us_model_motion,us_model_sort,us_model_select,us_model_collide,us_wall\n",
    );
    for p in &pts {
        println!(
            "{:>10} {:>4.0} {:>9.2} us {:>9.3} us {:>11.1}%",
            p.n_particles,
            p.vp_ratio,
            p.us_model,
            p.us_wall,
            p.f_off_pair * 100.0
        );
        let b = &p.breakdown;
        let _ = writeln!(
            csv,
            "{},{:.2},{:.4},{:.4},{:.4},{:.3},{:.3},{:.3},{:.3},{:.3},{:.4}",
            p.n_particles,
            p.vp_ratio,
            p.f_off_sort,
            p.f_off_pair,
            p.collisions_per_particle,
            p.us_model,
            b.motion,
            b.sort,
            b.select,
            b.collide,
            p.us_wall
        );
    }
    artifacts::write("fig7_scaling.csv", csv.as_bytes()).expect("write figure");
    println!(
        "\npaper: the per-particle time falls as the problem grows (7.2 us at 512k);\n\
         the big drop from VP ratio 1 to 2 is the collision exchange going on-chip."
    );
    let first = &pts[0];
    let last = &pts[pts.len() - 1];
    assert!(last.us_model < first.us_model, "model curve must fall");
    println!(
        "model improvement {:.1}% from {}k to {}k particles",
        (1.0 - last.us_model / first.us_model) * 100.0,
        first.n_particles / 1024,
        last.n_particles / 1024
    );
    let shares = last.breakdown.shares().map(|s| s * 100.0);
    println!(
        "model time split at {}k: motion+bdry {:.0}% | sort {:.0}% | select {:.0}% | collide {:.0}%  \
         (paper on CM-2: 14/27/20/39)",
        last.n_particles / 1024,
        shares[0],
        shares[1],
        shares[2],
        shares[3]
    );

    // Warm start vs cold start: steady-state campaigns re-pay the settle
    // transient on every cold run; a checkpoint amortises it to one
    // deserialisation (bit-exactly — the resumed state hashes identical).
    const SETTLE: usize = 400;
    println!("\nwarm-start economics (small wedge, {SETTLE}-step settle):");
    let t_cold = Instant::now();
    let mut sim = Simulation::new(SimConfig::small_wedge(0.0));
    sim.run(SETTLE);
    let cold = t_cold.elapsed().as_secs_f64();
    let snapshot = sim.save_state();
    let t_warm = Instant::now();
    let mut warm_sim =
        Simulation::resume(SimConfig::small_wedge(0.0), &snapshot, 1).expect("snapshot resumes");
    let warm = t_warm.elapsed().as_secs_f64();
    assert_eq!(warm_sim.state_hash(), sim.state_hash());
    println!(
        "  cold start (init + settle): {cold:.2} s\n  \
         warm start (resume {:.1} MB):  {warm:.3} s  ({:.0}x)",
        snapshot.len() as f64 / 1e6,
        cold / warm.max(1e-9)
    );
}
