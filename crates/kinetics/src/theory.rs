//! Inviscid gas-dynamics theory used to validate the simulation.
//!
//! The paper checks the near-continuum wedge solution against "2D inviscid
//! theoretical results": the θ–β–M oblique-shock relation (45° shock for
//! Mach 4 over a 30° wedge), the Rankine–Hugoniot density ratio (3.7), and
//! the Prandtl–Meyer expansion around the shoulder.  These are implemented
//! here once and shared by the tests and the flow-field analysis.

/// θ–β–M relation: flow deflection angle θ produced by an oblique shock of
/// wave angle β at Mach `m` (all angles in radians).
pub fn deflection_angle(m: f64, beta: f64, gamma: f64) -> f64 {
    let msb = m * beta.sin();
    let num = 2.0 * (msb * msb - 1.0) / beta.tan();
    let den = m * m * (gamma + (2.0 * beta).cos()) + 2.0;
    (num / den).atan()
}

/// Weak-branch oblique-shock wave angle β for deflection `theta` at Mach
/// `m`; `None` if the wedge angle exceeds the maximum attached-shock
/// deflection (detached bow shock).
pub fn oblique_shock_beta(m: f64, theta: f64, gamma: f64) -> Option<f64> {
    assert!(m > 1.0, "oblique shocks need supersonic flow");
    let mu = (1.0 / m).asin(); // Mach angle: β lower bound
                               // Locate the β of maximum deflection by golden-section search.
    let (mut lo, mut hi) = (mu, core::f64::consts::FRAC_PI_2);
    for _ in 0..200 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if deflection_angle(m, m1, gamma) < deflection_angle(m, m2, gamma) {
            lo = m1;
        } else {
            hi = m2;
        }
    }
    let beta_max = 0.5 * (lo + hi);
    if theta > deflection_angle(m, beta_max, gamma) {
        return None;
    }
    // Weak branch: bisect on [μ, β_max] where deflection rises through θ.
    let (mut lo, mut hi) = (mu, beta_max);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if deflection_angle(m, mid, gamma) < theta {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Density ratio across a shock with normal Mach number `mn`
/// (Rankine–Hugoniot).
pub fn density_ratio(mn: f64, gamma: f64) -> f64 {
    ((gamma + 1.0) * mn * mn) / ((gamma - 1.0) * mn * mn + 2.0)
}

/// Static pressure ratio across a shock with normal Mach number `mn`.
pub fn pressure_ratio(mn: f64, gamma: f64) -> f64 {
    1.0 + 2.0 * gamma / (gamma + 1.0) * (mn * mn - 1.0)
}

/// Temperature ratio across a shock with normal Mach number `mn`.
pub fn temperature_ratio(mn: f64, gamma: f64) -> f64 {
    pressure_ratio(mn, gamma) / density_ratio(mn, gamma)
}

/// Downstream normal Mach number of a normal shock.
pub fn downstream_normal_mach(mn: f64, gamma: f64) -> f64 {
    (((gamma - 1.0) * mn * mn + 2.0) / (2.0 * gamma * mn * mn - (gamma - 1.0))).sqrt()
}

/// Prandtl–Meyer function ν(M) (radians).
pub fn prandtl_meyer_nu(m: f64, gamma: f64) -> f64 {
    assert!(m >= 1.0, "Prandtl–Meyer function needs M ≥ 1");
    let k = (gamma + 1.0) / (gamma - 1.0);
    k.sqrt() * ((m * m - 1.0) / k).sqrt().atan() - (m * m - 1.0).sqrt().atan()
}

/// Mach number after an isentropic expansion turning the flow by
/// `turn` radians from upstream Mach `m1` (inverts ν by bisection).
pub fn prandtl_meyer_mach_after(m1: f64, turn: f64, gamma: f64) -> f64 {
    let target = prandtl_meyer_nu(m1, gamma) + turn;
    let (mut lo, mut hi) = (m1, 100.0);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if prandtl_meyer_nu(mid, gamma) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Mach angle μ = asin(1/M).
pub fn mach_angle(m: f64) -> f64 {
    assert!(m >= 1.0);
    (1.0 / m).asin()
}

/// The paper's validation numbers for Mach 4 flow over a 30° wedge with
/// γ = 7/5: shock angle (≈45°) and post-shock density ratio (≈3.7).
pub fn paper_wedge_theory() -> (f64, f64) {
    let gamma = crate::GAMMA_DIATOMIC;
    let beta = oblique_shock_beta(4.0, (30f64).to_radians(), gamma)
        .expect("Mach 4 / 30° supports an attached shock");
    let ratio = density_ratio(4.0 * beta.sin(), gamma);
    (beta.to_degrees(), ratio)
}

#[cfg(test)]
mod tests {
    use super::*;
    const G: f64 = 1.4;

    #[test]
    fn paper_numbers_reproduced() {
        let (beta_deg, ratio) = paper_wedge_theory();
        // "The theoretical shock angle for this flow is 45°".
        assert!((beta_deg - 45.0).abs() < 0.5, "β = {beta_deg}°");
        // "we expect the density behind the shock to be 3.7 times the
        // freestream value".
        assert!((ratio - 3.7).abs() < 0.05, "ρ₂/ρ₁ = {ratio}");
    }

    #[test]
    fn textbook_oblique_shock_case() {
        // NACA 1135 / Anderson: M = 2, θ = 10° ⇒ β ≈ 39.3° (weak).
        let beta = oblique_shock_beta(2.0, (10f64).to_radians(), G).unwrap();
        assert!(
            (beta.to_degrees() - 39.31).abs() < 0.1,
            "β = {}",
            beta.to_degrees()
        );
    }

    #[test]
    fn deflection_vanishes_at_mach_wave() {
        let m = 3.0;
        let mu = mach_angle(m);
        assert!(deflection_angle(m, mu, G).abs() < 1e-9);
    }

    #[test]
    fn detached_shock_detected() {
        // M = 2 supports only ~23° of deflection; 30° must detach.
        assert!(oblique_shock_beta(2.0, (30f64).to_radians(), G).is_none());
        assert!(oblique_shock_beta(4.0, (30f64).to_radians(), G).is_some());
    }

    #[test]
    fn normal_shock_ratios_textbook() {
        // M = 2 normal shock: ρ₂/ρ₁ = 2.667, p₂/p₁ = 4.5, M₂ = 0.5774.
        assert!((density_ratio(2.0, G) - 8.0 / 3.0).abs() < 1e-12);
        assert!((pressure_ratio(2.0, G) - 4.5).abs() < 1e-12);
        assert!((downstream_normal_mach(2.0, G) - 0.57735).abs() < 1e-4);
        // Strong-shock density limit for γ = 1.4 is 6.
        assert!((density_ratio(100.0, G) - 6.0).abs() < 0.01);
    }

    #[test]
    fn temperature_ratio_consistent_with_state_equation() {
        // p = ρRT ⇒ T₂/T₁ = (p₂/p₁)/(ρ₂/ρ₁).
        for mn in [1.5, 2.0, 4.0] {
            let t = temperature_ratio(mn, G);
            assert!((t - pressure_ratio(mn, G) / density_ratio(mn, G)).abs() < 1e-12);
            assert!(t > 1.0);
        }
    }

    #[test]
    fn prandtl_meyer_textbook_values() {
        // ν(1) = 0; ν(2) = 26.38°; ν(4) = 65.78° for γ = 1.4.
        assert!(prandtl_meyer_nu(1.0, G).abs() < 1e-12);
        assert!((prandtl_meyer_nu(2.0, G).to_degrees() - 26.38).abs() < 0.01);
        assert!((prandtl_meyer_nu(4.0, G).to_degrees() - 65.78).abs() < 0.01);
    }

    #[test]
    fn prandtl_meyer_inversion_round_trips() {
        for m1 in [1.5, 2.0, 3.0] {
            for turn_deg in [5.0f64, 15.0, 30.0] {
                let m2 = prandtl_meyer_mach_after(m1, turn_deg.to_radians(), G);
                let back = (prandtl_meyer_nu(m2, G) - prandtl_meyer_nu(m1, G)).to_degrees();
                assert!((back - turn_deg).abs() < 1e-6, "turn {turn_deg} → {back}");
                assert!(m2 > m1, "expansion must accelerate the flow");
            }
        }
    }

    #[test]
    fn wedge_shoulder_expansion_for_paper_geometry() {
        // Behind the 45° shock the flow is at M₂ ≈ 2.56 (wedge frame);
        // turning 30° back at the apex expands it supersonically again.
        let beta = oblique_shock_beta(4.0, (30f64).to_radians(), G).unwrap();
        let mn1 = 4.0 * beta.sin();
        let mn2 = downstream_normal_mach(mn1, G);
        let m2 = mn2 / (beta - (30f64).to_radians()).sin();
        assert!((1.5..2.5).contains(&m2), "post-shock Mach = {m2}");
        let m3 = prandtl_meyer_mach_after(m2, (30f64).to_radians(), G);
        assert!(m3 > m2 && m3 < 4.0, "post-expansion Mach = {m3}");
    }

    #[test]
    fn mach_angle_limits() {
        assert!((mach_angle(1.0).to_degrees() - 90.0).abs() < 1e-9);
        assert!((mach_angle(2.0).to_degrees() - 30.0).abs() < 1e-9);
    }
}
