//! Quickstart: a small wind-tunnel run in a few seconds.
//!
//! Builds a 64×40 tunnel with a 30° wedge, runs a few hundred steps of
//! Mach-4 flow, and prints the density field, conservation diagnostics and
//! the measured shock angle against oblique-shock theory — then shows the
//! checkpoint/restart subsystem: the settled state is snapshotted and
//! resumed, and the resumed simulation hashes identically to the original
//! (so long campaigns never re-pay the settling steps).
//!
//! ```text
//! cargo run --release -p dsmc-examples --example quickstart
//! ```

use dsmc_engine::{SimConfig, Simulation};
use dsmc_flowfield::render::ascii_heatmap;
use dsmc_flowfield::shock::wedge_metrics;
use std::time::Instant;

fn main() {
    // The library's scaled-down wedge configuration; near-continuum
    // (lambda = 0 means every candidate pair collides).
    let cfg = SimConfig::small_wedge(0.0);
    println!(
        "tunnel {}x{} cells, Mach {}, ~{:.0} particles/cell",
        cfg.tunnel_w, cfg.tunnel_h, cfg.mach, cfg.n_per_cell
    );

    let mut sim = Simulation::new(cfg.clone());
    println!("{} particles initialised", sim.n_particles());

    // Let the shock system establish itself…
    let t_settle = Instant::now();
    sim.run(500);
    let settle_seconds = t_settle.elapsed().as_secs_f64();

    // …snapshot the settled state: resuming it later skips those 500
    // steps, bit-exactly (stop-and-resume hashes identically to never
    // having stopped).
    let snapshot = sim.save_state();
    let t_resume = Instant::now();
    let warm = Simulation::resume(cfg, &snapshot, 1).expect("own snapshot resumes");
    let resume_seconds = t_resume.elapsed().as_secs_f64();
    assert_eq!(warm.state_hash(), sim.state_hash(), "resume is bit-exact");
    println!(
        "settled in {settle_seconds:.2} s; a warm start resumes the same state \
         from a {:.1} MB snapshot in {resume_seconds:.3} s",
        snapshot.len() as f64 / 1e6
    );

    // …then time-average.
    sim.begin_sampling();
    sim.run(400);
    let field = sim.finish_sampling();

    let d = sim.diagnostics();
    println!(
        "after {} steps: {} in flow, {} in reservoir, {:.1}M collisions",
        d.steps,
        d.n_flow,
        d.n_reservoir,
        d.collisions as f64 / 1e6
    );

    println!("\ndensity field (rho/rho_inf, bottom wall at the bottom):");
    print!("{}", ascii_heatmap(&field.density, field.w, field.h, 4.0));

    match wedge_metrics(&field, 14.0, 16.0, 30.0, 4.0, 1.4) {
        Some(m) => {
            println!(
                "\nshock angle: {:.1} deg (theory {:.1}), density ratio {:.2} (theory {:.2})",
                m.shock_angle_deg, m.theory_angle_deg, m.density_ratio, m.theory_density_ratio
            );
        }
        None => println!("\n(no shock fit at this small scale — run longer)"),
    }
}
