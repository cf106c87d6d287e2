//! The declarative table of named cases and their golden metrics.
//!
//! Adding a workload to the suite means adding one [`Scenario`] entry
//! here: a config builder, the QUICK/FULL run protocol, a metric
//! extractor, and the golden values a QUICK run must reproduce.  The CI
//! scenario matrix enumerates these names; `scenarios --list` prints them.
//!
//! Golden values were recorded by running each case at QUICK scale on the
//! reference seed (runs are bit-deterministic and thread-count
//! independent, so they reproduce exactly); tolerances leave room for
//! physics-preserving refactors while catching real drift.

use crate::{
    BoxSpec, CaseKind, Golden, Metric, RelaxCase, RestartCase, Scenario, SweepCase, TransientCase,
    TransientPoint, TunnelCase,
};
use dsmc_engine::{BodySpec, SampledField, SimConfig, Simulation, SurfaceField};
use dsmc_flowfield::shock::{box_mean_density, wedge_metrics};

/// The paper's wedge geometry at full scale, near-continuum.
fn config_wedge_paper() -> SimConfig {
    SimConfig::paper(0.0)
}

/// The paper's wedge at λ∞ = 0.5 cells (Kn = 0.02).
fn config_wedge_rarefied() -> SimConfig {
    SimConfig::paper(0.5)
}

/// A wall-mounted thin plate normal to the rarefied freestream.
fn config_flat_plate() -> SimConfig {
    let mut cfg = SimConfig::paper(0.5);
    cfg.body = BodySpec::Plate { x0: 32.0, h: 16.0 };
    cfg
}

/// A forward-facing step in rarefied flow.
fn config_forward_step() -> SimConfig {
    let mut cfg = SimConfig::paper(0.5);
    cfg.body = BodySpec::Step {
        x0: 32.0,
        x1: 48.0,
        h: 10.0,
    };
    cfg
}

/// The blunt body: a circular cylinder mid-tunnel, near-continuum, so a
/// detached bow shock forms ahead of the nose.
fn config_cylinder() -> SimConfig {
    let mut cfg = SimConfig::paper(0.0);
    cfg.body = BodySpec::Cylinder {
        cx: 32.0,
        cy: 32.0,
        r: 6.0,
    };
    cfg
}

/// A NaN-safe length-weighted surface mean: a missing surface window (or
/// an empty arc range) must fail the golden check, not silently pass.
fn surf_mean(
    surf: Option<&SurfaceField>,
    vals: fn(&SurfaceField) -> &[f64],
    s0: f64,
    s1: f64,
) -> f64 {
    match surf {
        Some(f) => f.mean_over(vals(f), s0, s1),
        None => f64::NAN,
    }
}

/// Wedge metrics against the θ–β–M / Rankine–Hugoniot theory values, plus
/// the front-face (stagnation-region) surface coefficients.
fn extract_wedge(
    sim: &Simulation,
    field: &SampledField,
    surf: Option<&SurfaceField>,
) -> Vec<Metric> {
    let (x0, base, angle) = match sim.config().body {
        BodySpec::Wedge {
            x0,
            base,
            angle_deg,
        } => (x0, base, angle_deg),
        ref b => unreachable!("wedge extractor on {b:?}"),
    };
    let mach = sim.config().mach;
    // Stagnation-region Cp: the length-weighted mean over the central
    // 25–85% of the ramp arc (clear of the leading-edge singularity and
    // the expansion around the apex), and the matching Ch — which pins
    // the specular surface as adiabatic.
    let front_len = base / angle.to_radians().cos();
    let mut surface = vec![
        Metric {
            name: "surface_cp_front_mean",
            value: surf_mean(surf, |f| &f.cp, 0.25 * front_len, 0.85 * front_len),
        },
        Metric {
            name: "surface_ch_front_mean",
            value: surf_mean(surf, |f| &f.ch, 0.25 * front_len, 0.85 * front_len),
        },
    ];
    match wedge_metrics(field, x0, base, angle, mach, 1.4) {
        Some(m) => surface.extend(vec![
            Metric {
                name: "shock_angle_deg",
                value: m.shock_angle_deg,
            },
            Metric {
                name: "shock_angle_err_deg",
                value: m.shock_angle_deg - m.theory_angle_deg,
            },
            Metric {
                name: "density_ratio",
                value: m.density_ratio,
            },
            Metric {
                name: "density_ratio_rel_err",
                value: (m.density_ratio - m.theory_density_ratio) / m.theory_density_ratio,
            },
            Metric {
                name: "shock_thickness_rise",
                value: m.thickness_rise,
            },
            Metric {
                name: "wake_recompression",
                value: m.wake_recompression,
            },
        ]),
        // A failed fit must fail the golden checks: NaN is outside every
        // tolerance.
        None => surface.extend(vec![
            Metric {
                name: "shock_angle_err_deg",
                value: f64::NAN,
            },
            Metric {
                name: "density_ratio_rel_err",
                value: f64::NAN,
            },
            Metric {
                name: "shock_thickness_rise",
                value: f64::NAN,
            },
        ]),
    }
    surface
}

/// Stagnation-line shock location for a cylinder at `(cx, cy)` of radius
/// `r`: `(standoff_cells, peak_density)`.
///
/// The density along the stagnation line (the row pair bracketing the
/// centre height) rises through the detached shock to a peak just off the
/// nose; the standoff distance is measured from the nose to the point
/// where the rise crosses half the peak, linearly interpolated between
/// cell centres.  Shared by the steady `cylinder` extractor and the
/// `cylinder-startup` transient probe.
fn stagnation_line(field: &SampledField, cx: f64, cy: f64, r: f64) -> (f64, f64) {
    // Cell centres sit at iy + 0.5: average the two rows bracketing cy.
    let row_hi = (cy.round() as u32).min(field.h - 1);
    let row_lo = row_hi.saturating_sub(1);
    let stag = |ix: u32| (field.density_at(ix, row_lo) + field.density_at(ix, row_hi)) / 2.0;
    let nose = cx - r;
    let nose_cell = nose.floor() as u32;
    let mut peak = 0.0f64;
    for ix in 0..nose_cell.min(field.w) {
        peak = peak.max(stag(ix));
    }
    let level = 1.0 + 0.5 * (peak - 1.0);
    // March downstream towards the nose; the first crossing of the
    // half-rise level locates the shock.
    let mut shock_x = f64::NAN;
    for ix in 0..nose_cell.min(field.w).saturating_sub(1) {
        let (d0, d1) = (stag(ix), stag(ix + 1));
        if (d0 < level) != (d1 < level) {
            let t = (level - d0) / (d1 - d0);
            shock_x = ix as f64 + 0.5 + t;
            break;
        }
    }
    (nose - shock_x, peak)
}

/// What [`probe_cylinder_startup`] measures per window, in emission order.
const CYLINDER_STARTUP_PROBE_NAMES: &[&str] =
    &["standoff", "stag_peak", "drag_per_q", "impacts_per_step"];

/// One startup window of the impulsively-started cylinder: where the
/// forming bow shock sits, how compressed the stagnation line is, and
/// what the body feels (drag and impact rate from the window's surface
/// ledgers).
fn probe_cylinder_startup(
    sim: &Simulation,
    field: &SampledField,
    surf: Option<&SurfaceField>,
) -> Vec<Metric> {
    let (cx, cy, r) = match sim.config().body {
        BodySpec::Cylinder { cx, cy, r } => (cx, cy, r),
        ref b => unreachable!("cylinder probe on {b:?}"),
    };
    let (standoff, peak) = stagnation_line(field, cx, cy, r);
    let q_inf = crate::q_inf(sim);
    let (drag_per_q, impacts) = match surf {
        Some(f) => (f.force_x / q_inf, f.impacts_per_step.iter().sum::<f64>()),
        None => (f64::NAN, f64::NAN),
    };
    CYLINDER_STARTUP_PROBE_NAMES
        .iter()
        .zip([standoff, peak, drag_per_q, impacts])
        .map(|(&name, value)| Metric { name, value })
        .collect()
}

/// Reduce the startup series: where the flow ends up, how the drag
/// history ran, and when the bow shock formed.
fn extract_cylinder_startup(points: &[TransientPoint]) -> Vec<Metric> {
    let get = |p: &TransientPoint, name: &str| {
        p.values
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let first = points.first().expect("at least one window");
    let last = points.last().expect("at least one window");
    let standoff_final = get(last, "standoff");
    // The first window in which the standoff reached 75% of its final
    // value: the bow-shock formation time (NaN standoffs from pre-shock
    // windows compare false and are skipped).
    let formation_step = points
        .iter()
        .find(|p| get(p, "standoff") >= 0.75 * standoff_final)
        .map_or(f64::NAN, |p| p.step_end as f64);
    vec![
        Metric {
            name: "standoff_final",
            value: standoff_final,
        },
        Metric {
            name: "stag_peak_final",
            value: get(last, "stag_peak"),
        },
        Metric {
            name: "drag_per_q_first_window",
            value: get(first, "drag_per_q"),
        },
        Metric {
            name: "drag_per_q_final_window",
            value: get(last, "drag_per_q"),
        },
        Metric {
            name: "shock_formation_step",
            value: formation_step,
        },
    ]
}

/// Bow-shock standoff and stagnation compression for the cylinder.
fn extract_cylinder(
    sim: &Simulation,
    field: &SampledField,
    surf: Option<&SurfaceField>,
) -> Vec<Metric> {
    let (cx, cy, r) = match sim.config().body {
        BodySpec::Cylinder { cx, cy, r } => (cx, cy, r),
        ref b => unreachable!("cylinder extractor on {b:?}"),
    };
    let (standoff, peak) = stagnation_line(field, cx, cy, r);
    // Surface distributions: arc length runs nose → top → rear → bottom,
    // so the stagnation region is the first ~25° of arc plus the matching
    // wrap-around tail, and the front/rear halves split at s = πr/2 and
    // 3πr/2.  The front/rear contrast uses the *incident* energy-flux
    // coefficient: net Ch is identically ≈0 on a specular (adiabatic)
    // surface, while the incident flux is the discriminating blunt-body
    // statistic (the windward side takes orders of magnitude more energy
    // than the wake side).
    let (cp_stag, einc_ratio) = match surf {
        Some(f) => {
            let arc = f.total_arc();
            let stag = 25f64.to_radians() * r;
            let nose_flux = f.flux_over(&f.cp, 0.0, stag) + f.flux_over(&f.cp, arc - stag, arc);
            let nose_arc = f.arc_len_over(0.0, stag) + f.arc_len_over(arc - stag, arc);
            let cp_stag = nose_flux / nose_arc;
            let q1 = 0.25 * arc;
            let q3 = 0.75 * arc;
            let front = f.flux_over(&f.e_inc_coeff, 0.0, q1) + f.flux_over(&f.e_inc_coeff, q3, arc);
            let rear = f.flux_over(&f.e_inc_coeff, q1, q3);
            (cp_stag, front / rear)
        }
        None => (f64::NAN, f64::NAN),
    };
    vec![
        Metric {
            name: "shock_standoff_cells",
            value: standoff,
        },
        Metric {
            name: "stagnation_peak_density",
            value: peak,
        },
        Metric {
            name: "surface_cp_stag",
            value: cp_stag,
        },
        Metric {
            name: "surface_einc_front_rear_ratio",
            value: einc_ratio,
        },
    ]
}

/// Frontal compression and wake rarefaction for the wall-mounted bluff
/// bodies (plate and step): mean density in a box ahead of the face and
/// in the near wake behind the body.
fn extract_bluff(
    sim: &Simulation,
    field: &SampledField,
    surf: Option<&SurfaceField>,
) -> Vec<Metric> {
    let (x_face, x_back, h) = match sim.config().body {
        BodySpec::Plate { x0, h } => (x0, x0, h),
        BodySpec::Step { x0, x1, h } => (x0, x1, h),
        ref b => unreachable!("bluff extractor on {b:?}"),
    };
    let yh = (0.8 * h) as u32;
    let front = box_mean_density(
        field,
        (x_face - 8.0) as u32,
        (x_face - 2.0) as u32,
        0,
        yh.max(1),
    );
    let wake = box_mean_density(
        field,
        (x_back + 3.0) as u32,
        (x_back + 13.0) as u32,
        0,
        yh.max(1),
    );
    vec![
        Metric {
            name: "frontal_compression",
            value: front,
        },
        Metric {
            name: "wake_density",
            value: wake,
        },
        // Mean Cp over the windward face (arc [0, h) in both the plate's
        // and the step's parameterisation), clear of the top corner.
        Metric {
            name: "surface_cp_front_mean",
            value: surf_mean(surf, |f| &f.cp, 0.0, 0.9 * h),
        },
    ]
}

/// Golden arrays for tunnel cases all start with the shared conservation
/// pins: the particle count is exactly invariant, and the out-of-plane
/// momentum drift must stay inside its random-walk budget.
macro_rules! tunnel_goldens {
    ($($extra:expr),* $(,)?) => {
        &[
            Golden {
                metric: "particle_count_drift",
                value: 0.0,
                tol: 0.0,
            },
            Golden {
                metric: "momentum_drift_budget_frac",
                value: 0.0,
                tol: 1.0,
            },
            $($extra),*
        ]
    };
}

static WEDGE_PAPER_GOLDEN: &[Golden] = tunnel_goldens![
    // The values validated in tests/tests/wedge_validation.rs: the fitted
    // angle within 3 degrees of the theta-beta-M weak solution and the
    // post-shock plateau within 15% of the Rankine-Hugoniot 3.7.
    Golden {
        metric: "shock_angle_err_deg",
        value: 0.0,
        tol: 3.0,
    },
    Golden {
        metric: "density_ratio_rel_err",
        value: 0.0,
        tol: 0.15,
    },
    // Steady-state regression pins (recorded at QUICK on the reference
    // seed).
    Golden {
        metric: "shock_thickness_rise",
        value: 2.57,
        tol: 1.0,
    },
    Golden {
        metric: "energy_per_particle",
        value: 0.0825,
        tol: 0.004,
    },
    // Surface-flux pins (recorded at QUICK).  The front-face Cp agrees
    // with the M = 4 / 30° oblique-shock value ≈ 0.73; the Ch pin holds
    // the specular surface adiabatic to fixed-point rounding noise.
    Golden {
        metric: "surface_cp_front_mean",
        value: 0.708,
        tol: 0.08,
    },
    Golden {
        metric: "surface_ch_front_mean",
        value: 0.0,
        tol: 1e-6,
    },
    Golden {
        metric: "surface_drag_per_q",
        value: 11.54,
        tol: 1.5,
    },
];

static WEDGE_RAREFIED_GOLDEN: &[Golden] = tunnel_goldens![
    Golden {
        metric: "shock_angle_err_deg",
        value: 0.0,
        tol: 4.0,
    },
    // Rarefaction thickens the shock well past the near-continuum ~2.9
    // cells (the paper's 3 -> 5 story).
    Golden {
        metric: "shock_thickness_rise",
        value: 3.44,
        tol: 1.2,
    },
    Golden {
        metric: "energy_per_particle",
        value: 0.0828,
        tol: 0.004,
    },
    // Rarefaction barely moves the front-face pressure (the oblique shock
    // thickens but the post-shock state is the same) — the pair of Cp
    // pins documents that insensitivity.
    Golden {
        metric: "surface_cp_front_mean",
        value: 0.709,
        tol: 0.08,
    },
    Golden {
        metric: "surface_ch_front_mean",
        value: 0.0,
        tol: 1e-6,
    },
];

static FLAT_PLATE_GOLDEN: &[Golden] = tunnel_goldens![
    Golden {
        metric: "frontal_compression",
        value: 3.97,
        tol: 0.8,
    },
    Golden {
        metric: "wake_density",
        value: 0.21,
        tol: 0.12,
    },
    Golden {
        metric: "energy_per_particle",
        value: 0.0781,
        tol: 0.004,
    },
    Golden {
        metric: "surface_cp_front_mean",
        value: 0.97,
        tol: 0.15,
    },
];

static FORWARD_STEP_GOLDEN: &[Golden] = tunnel_goldens![
    Golden {
        metric: "frontal_compression",
        value: 4.12,
        tol: 0.8,
    },
    Golden {
        metric: "wake_density",
        value: 0.09,
        tol: 0.08,
    },
    Golden {
        metric: "energy_per_particle",
        value: 0.0799,
        tol: 0.004,
    },
    Golden {
        metric: "surface_cp_front_mean",
        value: 1.54,
        tol: 0.2,
    },
];

static CYLINDER_GOLDEN: &[Golden] = tunnel_goldens![
    Golden {
        metric: "shock_standoff_cells",
        value: 3.91,
        tol: 1.2,
    },
    Golden {
        metric: "stagnation_peak_density",
        value: 4.07,
        tol: 0.8,
    },
    Golden {
        metric: "energy_per_particle",
        value: 0.0794,
        tol: 0.004,
    },
    // Stagnation-region Cp (±25° of the nose) and the windward/leeward
    // incident-energy contrast — the discriminating blunt-body surface
    // statistics (net Ch is pinned ≈0 by the wedge cases; on a specular
    // surface only the *incident* flux distinguishes front from rear).
    Golden {
        metric: "surface_cp_stag",
        value: 1.50,
        tol: 0.2,
    },
    Golden {
        metric: "surface_einc_front_rear_ratio",
        value: 20.5,
        tol: 8.0,
    },
];

static CYLINDER_STARTUP_GOLDEN: &[Golden] = tunnel_goldens![
    // Recorded at QUICK on the reference seed.  The final-window values
    // must agree with the steady `cylinder` scenario's picture (the
    // startup converges to the same bow shock); the first-window drag and
    // the formation step pin the transient itself — the history a cold
    // FULL re-settle pays for and a warm start skips.
    Golden {
        metric: "standoff_final",
        value: 3.85,
        tol: 1.2,
    },
    Golden {
        metric: "stag_peak_final",
        value: 4.64,
        tol: 0.8,
    },
    Golden {
        metric: "drag_per_q_first_window",
        value: 18.29,
        tol: 2.0,
    },
    Golden {
        metric: "drag_per_q_final_window",
        value: 16.45,
        tol: 2.0,
    },
    Golden {
        metric: "shock_formation_step",
        value: 120.0,
        tol: 120.0,
    },
    Golden {
        metric: "energy_per_particle",
        value: 0.0824,
        tol: 0.004,
    },
];

static WEDGE_RESTART_GOLDEN: &[Golden] = tunnel_goldens![
    // The resume-bit-identity invariant as CI goldens: restoring the
    // snapshot must reproduce the exact state hash, and running both arms
    // on must keep them identical — tolerance zero, by design.
    Golden {
        metric: "restore_hash_equal",
        value: 1.0,
        tol: 0.0,
    },
    Golden {
        metric: "resume_hash_equal",
        value: 1.0,
        tol: 0.0,
    },
    Golden {
        metric: "energy_per_particle",
        value: 0.0834,
        tol: 0.004,
    },
];

static WEDGE_MACH_SWEEP_GOLDEN: &[Golden] = &[
    // Every point of the curve must finish (the campaign executor's
    // graceful degradation is *not* license for holes in the sweep).
    Golden {
        metric: "sweep_runs_ok",
        value: 4.0,
        tol: 0.0,
    },
    // The worst |shock-angle error| anywhere on the Mach 3-6 curve.  The
    // range starts at 3 because the 30-degree wedge detaches its shock
    // below M ~ 2.7 (no theta-beta-M solution to compare against).
    // Pinned to zero error with the same ±3° band as the per-point wedge
    // pins; the measured QUICK value on the reference seed is 1.03°.
    Golden {
        metric: "curve_worst_abs",
        value: 0.0,
        tol: 3.0,
    },
];

static RELAX_BOX_GOLDEN: &[Golden] = &[
    Golden {
        metric: "kurtosis_final",
        value: 0.0,
        tol: 0.15,
    },
    Golden {
        metric: "mode_share_max_dev",
        value: 0.0,
        tol: 0.02,
    },
    Golden {
        metric: "energy_drift_rel",
        value: 0.0,
        tol: 0.005,
    },
];

static REGISTRY: &[Scenario] = &[
    Scenario {
        name: "wedge-paper",
        about: "the paper's headline case: Mach-4 near-continuum flow over the 30-degree wedge",
        kind: CaseKind::Tunnel(TunnelCase {
            config: config_wedge_paper,
            quick_density: 0.15,
            quick_steps: (500, 500),
            full_steps: (1200, 2000),
            extract: extract_wedge,
        }),
        golden: WEDGE_PAPER_GOLDEN,
    },
    Scenario {
        name: "wedge-rarefied",
        about: "the paper's rarefied counterpart: same wedge at Kn = 0.02 (lambda = 0.5 cells)",
        kind: CaseKind::Tunnel(TunnelCase {
            config: config_wedge_rarefied,
            quick_density: 0.15,
            quick_steps: (500, 500),
            full_steps: (1200, 2000),
            extract: extract_wedge,
        }),
        golden: WEDGE_RAREFIED_GOLDEN,
    },
    Scenario {
        name: "flat-plate",
        about: "wall-mounted thin plate normal to rarefied Mach-4 flow (detached shock + wake)",
        kind: CaseKind::Tunnel(TunnelCase {
            config: config_flat_plate,
            quick_density: 0.15,
            quick_steps: (400, 400),
            full_steps: (1200, 2000),
            extract: extract_bluff,
        }),
        golden: FLAT_PLATE_GOLDEN,
    },
    Scenario {
        name: "forward-step",
        about: "forward-facing step in rarefied Mach-4 flow (frontal compression + base wake)",
        kind: CaseKind::Tunnel(TunnelCase {
            config: config_forward_step,
            quick_density: 0.15,
            quick_steps: (400, 400),
            full_steps: (1200, 2000),
            extract: extract_bluff,
        }),
        golden: FORWARD_STEP_GOLDEN,
    },
    Scenario {
        name: "cylinder",
        about: "NEW blunt body: circular cylinder, near-continuum Mach 4 (bow-shock standoff)",
        kind: CaseKind::Tunnel(TunnelCase {
            config: config_cylinder,
            quick_density: 0.15,
            quick_steps: (500, 500),
            full_steps: (1200, 2000),
            extract: extract_cylinder,
        }),
        golden: CYLINDER_GOLDEN,
    },
    Scenario {
        name: "cylinder-startup",
        about: "startup transient: bow-shock formation history of the impulsively started cylinder",
        kind: CaseKind::Transient(TransientCase {
            config: config_cylinder,
            quick_density: 0.15,
            window_steps: 60,
            quick_windows: 8,
            full_windows: 30,
            probe: probe_cylinder_startup,
            probe_names: CYLINDER_STARTUP_PROBE_NAMES,
            extract: extract_cylinder_startup,
        }),
        golden: CYLINDER_STARTUP_GOLDEN,
    },
    Scenario {
        name: "wedge-restart",
        about: "checkpoint/restart: save-at-N/resume-to-M must hash identically to never stopping",
        kind: CaseKind::Restart(RestartCase {
            config: config_wedge_paper,
            quick_density: 0.15,
            quick_steps: (250, 50, 200),
            full_steps: (1200, 500, 1500),
        }),
        golden: WEDGE_RESTART_GOLDEN,
    },
    Scenario {
        name: "wedge-mach-sweep",
        about: "campaign sweep: the wedge shock-angle curve over Mach 3-6 (run via `campaign run --sweep`)",
        kind: CaseKind::Sweep(SweepCase {
            base: "wedge-paper",
            param: "mach",
            lo: 3.0,
            hi: 6.0,
            n: 4,
            curve_metric: "shock_angle_err_deg",
        }),
        golden: WEDGE_MACH_SWEEP_GOLDEN,
    },
    Scenario {
        name: "relax-box",
        about: "free relaxation: rectangular velocities thermalise to a Maxwellian (3+2 modes)",
        kind: CaseKind::Relax(RelaxCase {
            spec: BoxSpec {
                n_cells: 256,
                per_cell: 50,
                sigma: 0.05,
                p_inf: 1.0,
                seed: 11,
            },
            quick_steps: 20,
            full_steps: 60,
        }),
        golden: RELAX_BOX_GOLDEN,
    },
];

/// Every named case, in registry order.
pub fn registry() -> &'static [Scenario] {
    REGISTRY
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use dsmc_engine::Engine;

    /// `probe_names` is what a restored journal's metric names resolve
    /// against: it must be exactly what the probe emits, in order.
    #[test]
    fn transient_probe_names_are_what_the_probe_emits() {
        for s in registry() {
            let CaseKind::Transient(t) = &s.kind else {
                continue;
            };
            let cfg = s.tunnel_config(Scale::Quick).expect("transient case");
            let mut sim = Engine::new(cfg, 1);
            sim.begin_sampling();
            sim.step();
            let field = sim.finish_sampling();
            let surf = sim.finish_surface_sampling();
            let emitted: Vec<&str> = (t.probe)(sim.canonical(), &field, surf.as_ref())
                .iter()
                .map(|m| m.name)
                .collect();
            assert_eq!(emitted, t.probe_names, "{}", s.name);
        }
    }
}
