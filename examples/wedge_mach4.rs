//! The paper's headline experiment: near-continuum Mach-4 flow over a 30°
//! wedge on the 98×64 grid, with density contours and validation numbers.
//!
//! ```text
//! cargo run --release -p dsmc-examples --example wedge_mach4 -- [density_scale] [step_scale]
//! ```
//!
//! With no arguments a 40%-density, 2/3-steps run finishes in under a
//! minute; `wedge_mach4 1.0 1.0` is the paper's full 512k-particle,
//! 1200+2000-step protocol.

use dsmc_engine::Simulation;
use dsmc_flowfield::render::ascii_heatmap;
use dsmc_flowfield::shock::wedge_metrics;
use dsmc_scenarios::{at_density, find, Scale};

fn main() {
    let usage = "wedge_mach4 [density_scale] [step_scale]";
    let density = dsmc_examples::scale_arg(1, 0.4, usage);
    let steps = dsmc_examples::scale_arg(2, 0.667, usage);

    // The paper configuration lives in the scenario registry; the example
    // only chooses how much of it to run.
    let scenario = find("wedge-paper").expect("wedge-paper is registered");
    let cfg = at_density(
        scenario.tunnel_config(Scale::Full).expect("tunnel case"),
        density,
    );
    let mut sim = Simulation::new(cfg);
    println!(
        "paper configuration at x{density:.2} density: {} particles",
        sim.n_particles()
    );

    let settle = (1200.0 * steps) as usize;
    let average = (2000.0 * steps) as usize;
    println!("running {settle} steps to steady state + {average} averaged…");
    let t0 = std::time::Instant::now();
    sim.run(settle);
    sim.begin_sampling();
    sim.run(average);
    let field = sim.finish_sampling();
    println!(
        "done in {:.1} s ({:.3} us/particle/step)",
        t0.elapsed().as_secs_f64(),
        sim.timings().us_per_particle_step(sim.diagnostics().n_flow)
    );

    print!("{}", ascii_heatmap(&field.density, field.w, field.h, 4.0));
    if let Some(m) = wedge_metrics(&field, 20.0, 25.0, 30.0, 4.0, 1.4) {
        println!(
            "shock angle      {:.1} deg   (paper: 45, theory {:.1})",
            m.shock_angle_deg, m.theory_angle_deg
        );
        println!("density ratio    {:.2}       (paper: 3.7)", m.density_ratio);
        println!("shock thickness  {:.1} cells (paper: ~3)", m.thickness_rise);
        println!(
            "wake shock       recompression factor {:.1} (paper: developed wake shock)",
            m.wake_recompression
        );
    }
    let b = sim.timings().paper_buckets();
    println!(
        "time split: motion+bdry {:.0}% | sort {:.0}% | select {:.0}% | collide {:.0}%  \
         (paper on CM-2: 14/27/20/39)",
        b[0] * 100.0,
        b[1] * 100.0,
        b[2] * 100.0,
        b[3] * 100.0
    );
    let t = sim.timings();
    let sort = t.sort.as_secs_f64();
    println!(
        "inside the sort: rank {:.0}% | send {:.0}%  (a sharded engine's exchange is the rest)",
        t.sort_rank.as_secs_f64() / sort * 100.0,
        t.sort_send.as_secs_f64() / sort * 100.0
    );
}
