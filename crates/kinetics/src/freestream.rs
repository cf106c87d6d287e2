//! Freestream state and the simulation's normalisation conventions.
//!
//! Everything is measured in *cell widths* and *time steps* (the paper
//! normalises the time scale by one time step, eq. 2).  The gas state is
//! then pinned by three numbers:
//!
//! * the Mach number `M` of the freestream,
//! * the most probable thermal speed `c_m = √(2RT∞)` in cells/step, and
//! * the freestream mean free path `λ∞` in cell widths (0 = near-continuum).
//!
//! The selection rule is anchored by `P∞ = Δt/t_c∞` with `t_c∞ = λ∞/c̄∞`
//! (mean time between collisions; `c̄ = 2 c_m/√π` is the mean thermal
//! speed), which must stay below ~1/3 for the one-collision-per-step
//! assumption behind eq. (4) to hold.

use crate::GAMMA_DIATOMIC;

/// Freestream (upstream) gas state in simulation units.
#[derive(Clone, Copy, Debug)]
pub struct FreeStream {
    /// Freestream Mach number (hypersonic interest starts at M > 5; the
    /// paper validates at M = 4).
    pub mach: f64,
    /// Most probable thermal speed `√(2RT∞)` in cells per time step.
    pub c_m: f64,
    /// Freestream mean free path in cell widths; `0` requests the
    /// near-continuum limit in which every candidate pair collides.
    pub lambda: f64,
    /// Ratio of specific heats (7/5 for the diatomic model).
    pub gamma: f64,
}

impl FreeStream {
    /// Default thermal speed: keeps `P∞ ≤ 1/3` for λ∞ ≥ 0.35 and particle
    /// displacements well under one cell per step at Mach 4.
    pub const DEFAULT_CM: f64 = 0.08;

    /// Construct a freestream state for the diatomic gas.
    pub fn new(mach: f64, c_m: f64, lambda: f64) -> Self {
        assert!(mach >= 0.0, "Mach number must be non-negative");
        assert!(
            c_m > 0.0 && c_m < 0.5,
            "thermal speed must be in (0, 0.5) cells/step"
        );
        assert!(lambda >= 0.0, "mean free path must be non-negative");
        Self {
            mach,
            c_m,
            lambda,
            gamma: GAMMA_DIATOMIC,
        }
    }

    /// The paper's Mach-4 freestream with the default thermal speed.
    pub fn mach4(lambda: f64) -> Self {
        Self::new(4.0, Self::DEFAULT_CM, lambda)
    }

    /// Speed of sound `a = √(γRT) = c_m·√(γ/2)`.
    pub fn sound_speed(&self) -> f64 {
        self.c_m * (self.gamma / 2.0).sqrt()
    }

    /// Freestream flow speed `u∞ = M·a`, along +x.
    pub fn u_inf(&self) -> f64 {
        self.mach * self.sound_speed()
    }

    /// Mean thermal speed `c̄ = 2 c_m / √π`.
    pub fn mean_speed(&self) -> f64 {
        2.0 * self.c_m / core::f64::consts::PI.sqrt()
    }

    /// Mean *relative* speed between molecule pairs in equilibrium,
    /// `ḡ = √2 · c̄`.
    pub fn mean_relative_speed(&self) -> f64 {
        core::f64::consts::SQRT_2 * self.mean_speed()
    }

    /// The base collision probability `P∞ = Δt/t_c∞ = c̄∞/λ∞`, clamped to 1.
    ///
    /// `λ∞ = 0` (near-continuum) gives exactly 1: "all collision candidates
    /// must collide".
    pub fn p_inf(&self) -> f64 {
        if self.lambda == 0.0 {
            1.0
        } else {
            (self.mean_speed() / self.lambda).min(1.0)
        }
    }

    /// True when the time-step constraint below eq. (4) holds: `Δt` at
    /// least 3× smaller than the mean collision time (`P∞ ≤ 1/3`).
    pub fn time_step_constraint_ok(&self) -> bool {
        self.lambda == 0.0 || self.p_inf() <= 1.0 / 3.0
    }

    /// Knudsen number for a characteristic length `l` in cells.
    pub fn knudsen(&self, l: f64) -> f64 {
        self.lambda / l
    }

    /// Reynolds number via the von Kármán relation `Kn = √(γπ/2)·M/Re`.
    pub fn reynolds(&self, l: f64) -> f64 {
        if self.lambda == 0.0 {
            return f64::INFINITY;
        }
        (self.gamma * core::f64::consts::PI / 2.0).sqrt() * self.mach / self.knudsen(l)
    }

    /// Per-component velocity standard deviation `σ = c_m/√2` (each
    /// translational and rotational degree of freedom carries `kT/2`).
    pub fn sigma(&self) -> f64 {
        self.c_m / core::f64::consts::SQRT_2
    }

    /// Mean collisions per particle per step implied by the selection rule
    /// in equilibrium (the quantity the calibration test measures).
    pub fn collision_rate(&self) -> f64 {
        self.p_inf()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_normalisation_is_consistent() {
        let fs = FreeStream::mach4(0.5);
        // u∞ = 4·√0.7·0.08 ≈ 0.2677 cells/step.
        assert!((fs.u_inf() - 4.0 * (0.7f64).sqrt() * 0.08).abs() < 1e-12);
        // A 98-cell tunnel is traversed in ~366 steps; the paper's 1200
        // steps to steady state are then ≈ 3.3 flow transits.
        let transit = 98.0 / fs.u_inf();
        assert!((300.0..450.0).contains(&transit), "transit = {transit}");
    }

    #[test]
    fn p_inf_limits() {
        assert_eq!(FreeStream::mach4(0.0).p_inf(), 1.0);
        let fs = FreeStream::mach4(0.5);
        let expect = fs.mean_speed() / 0.5;
        assert!((fs.p_inf() - expect).abs() < 1e-12);
        assert!(fs.p_inf() < 0.2, "P∞ must be well under 1/3");
        assert!(fs.time_step_constraint_ok());
        // Tiny mean free path with large c_m saturates at 1.
        let dense = FreeStream::new(4.0, 0.4, 1e-6);
        assert_eq!(dense.p_inf(), 1.0);
        assert!(!dense.time_step_constraint_ok());
    }

    #[test]
    fn knudsen_matches_paper() {
        // λ∞ = 0.5 over the 25-cell wedge: Kn = 0.02 exactly (paper).
        let fs = FreeStream::mach4(0.5);
        assert!((fs.knudsen(25.0) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn reynolds_same_order_as_paper() {
        // The paper quotes Re = 600 for Kn = 0.02, M = 4. The von Kármán
        // relation gives ≈ 297 — same order; the paper's number depends on
        // its λ–viscosity convention.
        let fs = FreeStream::mach4(0.5);
        let re = fs.reynolds(25.0);
        assert!((200.0..700.0).contains(&re), "Re = {re}");
    }

    #[test]
    fn speed_hierarchy() {
        let fs = FreeStream::mach4(0.5);
        // c̄ > c_m·(2/√π − 1)… simply: mean speed ≈ 1.128 c_m, ḡ = √2 c̄.
        assert!((fs.mean_speed() / fs.c_m - core::f64::consts::FRAC_2_SQRT_PI).abs() < 1e-3);
        assert!(
            (fs.mean_relative_speed() / fs.mean_speed() - core::f64::consts::SQRT_2).abs() < 1e-3
        );
        assert!((fs.sigma() - fs.c_m / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn subsonic_and_zero_mach_allowed() {
        let fs = FreeStream::new(0.0, 0.1, 1.0);
        assert_eq!(fs.u_inf(), 0.0);
        assert!(fs.p_inf() > 0.0);
    }

    #[test]
    #[should_panic(expected = "thermal speed")]
    fn absurd_cm_rejected() {
        let _ = FreeStream::new(4.0, 0.7, 0.5);
    }
}
