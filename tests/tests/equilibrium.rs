//! Kinetic-equilibrium behaviour of the full engine: relaxation,
//! equipartition, collision-rate calibration.

use dsmc_baselines::UniformBox;
use dsmc_engine::{SimConfig, Simulation};
use dsmc_fixed::Rounding;
use dsmc_kinetics::collision::collide_pair;
use dsmc_kinetics::sampling::moments;

/// Temperature equipartition in the tunnel: after settling, the sampled
/// translational and rotational temperatures agree (the 5-slot collision
/// shuffle exchanges the modes), reading ≈1 in freestream units.
#[test]
fn translational_and_rotational_temperatures_equilibrate() {
    let mut cfg = SimConfig::small_test();
    cfg.mach = 0.0;
    cfg.lambda = 0.3;
    cfg.n_per_cell = 30.0;
    cfg.reservoir_fill = 30.0;
    let mut sim = Simulation::new(cfg);
    sim.run(150);
    sim.begin_sampling();
    sim.run(200);
    let f = sim.finish_sampling();
    let mut tt = 0.0;
    let mut tr = 0.0;
    let mut n = 0;
    for iy in 2..10 {
        for ix in 2..14 {
            tt += f.at(&f.t_trans, ix, iy);
            tr += f.at(&f.t_rot, ix, iy);
            n += 1;
        }
    }
    let (tt, tr) = (tt / n as f64, tr / n as f64);
    // The quiescent box sits somewhat below T∞: the downstream boundary is
    // effusive at Mach 0 and escaping molecules carry above-average energy
    // (evaporative cooling), balanced by T∞ inflow.  Equipartition between
    // the modes is the property under test and must hold tightly.
    assert!((0.7..1.1).contains(&tt), "T_trans = {tt}");
    assert!((0.7..1.1).contains(&tr), "T_rot = {tr}");
    assert!(
        (tt - tr).abs() < 0.05 * tt,
        "equipartition: T_trans {tt} vs T_rot {tr}"
    );
}

/// The engine's collision rate tracks the kinetic-theory anchor: in a
/// uniform box at freestream density, collisions per particle per step
/// equal P∞ = c̄/λ up to the documented pair-weighting bias.
#[test]
fn collision_frequency_scales_inversely_with_mean_free_path() {
    let rate_for = |lambda: f64| {
        let mut cfg = SimConfig::small_test();
        cfg.mach = 0.0;
        cfg.lambda = lambda;
        cfg.n_per_cell = 40.0;
        cfg.reservoir_fill = 40.0;
        let mut sim = Simulation::new(cfg);
        sim.run(60);
        let d = sim.diagnostics();
        d.collisions as f64 / (d.steps as f64 * (d.n_flow + d.n_reservoir) as f64)
    };
    let r_half = rate_for(0.5);
    let r_one = rate_for(1.0);
    let ratio = r_half / r_one;
    assert!(
        (ratio - 2.0).abs() < 0.25,
        "halving λ must ≈double the collision rate, got ×{ratio:.2}"
    );
}

/// Velocity distributions in the settled tunnel are Maxwellian: near-zero
/// excess kurtosis in every component even though reservoir re-entries are
/// injected with a rectangular distribution (the relaxation the paper
/// relies on).
#[test]
fn tunnel_velocities_stay_maxwellian() {
    let mut cfg = SimConfig::small_test();
    cfg.lambda = 0.3;
    cfg.n_per_cell = 25.0;
    cfg.reservoir_fill = 30.0;
    let mut sim = Simulation::new(cfg);
    sim.run(400);
    let p = sim.particles();
    let res_base = sim.reservoir_base();
    for (name, col) in [("v", &p.v), ("w", &p.w), ("r1", &p.r1), ("r2", &p.r2)] {
        let (_, var, kurt) = moments(
            col.iter()
                .zip(&p.cell)
                .filter(|&(_, &c)| c < res_base)
                .map(|(x, _)| x.to_f64()),
        );
        assert!(var > 0.0, "component {name} must carry thermal energy");
        assert!(
            kurt.abs() < 0.25,
            "component {name} kurtosis {kurt} not Maxwellian"
        );
    }
}

/// Reservoir thermalisation end to end: particles exiting the hot, shocked
/// tunnel are re-injected with rectangular velocities and must leave the
/// reservoir Maxwellian at freestream variance.
#[test]
fn reservoir_holds_freestream_conditions() {
    let mut cfg = SimConfig::small_test();
    cfg.lambda = 0.4;
    cfg.n_per_cell = 25.0;
    cfg.reservoir_fill = 30.0;
    let mut sim = Simulation::new(cfg);
    sim.run(500);
    let p = sim.particles();
    let res_base = sim.reservoir_base();
    let fs = sim.freestream();
    let (mean_u, var_u, _) = moments(
        p.u.iter()
            .zip(&p.cell)
            .filter(|&(_, &c)| c >= res_base)
            .map(|(x, _)| x.to_f64()),
    );
    assert!(
        (mean_u - fs.u_inf()).abs() < 0.15 * fs.u_inf().max(0.05),
        "reservoir drift {mean_u} vs u∞ {}",
        fs.u_inf()
    );
    let s2 = fs.sigma() * fs.sigma();
    assert!(
        (var_u / s2 - 1.0).abs() < 0.25,
        "reservoir variance ratio {}",
        var_u / s2
    );
}

/// Power-law molecules (the paper's future-work extension) run end to end
/// and produce a shock at the same angle — the selection-rule exponent
/// changes the collision statistics, not the inviscid jump conditions.
#[test]
fn hard_sphere_molecules_reproduce_the_shock_angle() {
    let mut cfg = SimConfig::paper(0.5);
    cfg.n_per_cell = 10.0;
    cfg.reservoir_fill = 14.0;
    cfg.model = dsmc_kinetics::MolecularModel::HardSphere;
    let mut sim = Simulation::new(cfg);
    sim.run(500);
    sim.begin_sampling();
    sim.run(400);
    let f = sim.finish_sampling();
    let m = dsmc_flowfield::shock::wedge_metrics(&f, 20.0, 25.0, 30.0, 4.0, 1.4)
        .expect("hard-sphere fit");
    assert!(
        (m.shock_angle_deg - m.theory_angle_deg).abs() < 4.0,
        "hard-sphere shock angle {:.1}",
        m.shock_angle_deg
    );
}

/// The diffuse-wall extension (the paper's no-slip isothermal future-work
/// item): a hot isothermal wall heats the quiescent gas well above the
/// specular-wall baseline.
#[test]
fn diffuse_walls_heat_the_gas() {
    let run = |walls| {
        let mut cfg = SimConfig::small_test();
        cfg.mach = 0.0;
        cfg.lambda = 0.3;
        cfg.n_per_cell = 25.0;
        cfg.reservoir_fill = 30.0;
        cfg.walls = walls;
        let mut sim = Simulation::new(cfg);
        sim.run(200);
        sim.begin_sampling();
        sim.run(150);
        let f = sim.finish_sampling();
        let mut t = 0.0;
        let mut n = 0;
        for iy in 2..10 {
            for ix in 2..14 {
                t += f.at(&f.t_trans, ix, iy);
                n += 1;
            }
        }
        t / n as f64
    };
    let t_spec = run(dsmc_engine::config::WallModel::Specular);
    let t_hot = run(dsmc_engine::config::WallModel::Diffuse { t_wall: 4.0 });
    assert!(
        t_hot > 1.5 * t_spec,
        "hot diffuse walls must heat the gas: specular {t_spec:.2}, diffuse {t_hot:.2}"
    );
    // And a wall at the gas temperature must stay near the baseline.
    let t_matched = run(dsmc_engine::config::WallModel::Diffuse { t_wall: 1.0 });
    assert!(
        (t_matched / t_spec - 1.0).abs() < 0.3,
        "matched-temperature diffuse wall: {t_matched:.2} vs specular {t_spec:.2}"
    );
}

/// "It is important that candidate partners change between time steps
/// otherwise the situation arises where the same partners collide
/// repeatedly leading to correlated velocity distributions."  A box
/// started from the rectangular distribution (excess kurtosis −1.2) and
/// collided even/odd every step becomes Maxwellian (0) when the
/// within-cell order is re-mixed first — the jittered sort key's role in
/// the engine — and stalls visibly short of it when the pairs are frozen:
/// they equilibrate within each pair but cannot thermalise the box.
#[test]
fn frozen_partners_stall_relaxation() {
    const STEPS: usize = 30;
    let tail_kurtosis = |remix: bool| {
        let mut b = UniformBox::rectangular(64, 40, 0.05, 77);
        let mut series = Vec::with_capacity(STEPS);
        for _ in 0..STEPS {
            if remix {
                b.remix();
            }
            for c in 0..b.n_cells() {
                let (lo, hi) = (b.offsets[c] as usize, b.offsets[c + 1] as usize);
                for i in (lo..hi - 1).step_by(2) {
                    let (head, tail) = b.vel.split_at_mut(i + 1);
                    let mut rng = b.rng[i];
                    collide_pair(
                        &mut head[i],
                        &mut tail[0],
                        b.perm[i],
                        Rounding::Stochastic,
                        &mut rng,
                    );
                    b.rng[i] = rng;
                    for k in [i, i + 1] {
                        let j = b.rng[k].next_below(5);
                        b.perm[k] = b.perm[k].top_transpose(j);
                    }
                }
            }
            series.push(b.kurtosis(0));
        }
        // Judge the last third to smooth step-to-step noise.
        let tail = &series[STEPS - STEPS / 3..];
        tail.iter().sum::<f64>() / tail.len() as f64
    };
    let (remixed, frozen) = (tail_kurtosis(true), tail_kurtosis(false));
    assert!(
        remixed.abs() < 0.15,
        "remixed box must become Maxwellian ({remixed})"
    );
    assert!(
        frozen < -0.25,
        "frozen box must stay visibly non-Maxwellian ({frozen})"
    );
}
