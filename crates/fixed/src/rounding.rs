//! Rounding policies for the halving operation.
//!
//! The collision routine forms mean and relative velocities by dividing sums
//! and differences by two (paper eqs. 12–15).  In a fixed-point format the
//! dropped bit is information lost; the paper observes that *consistent
//! truncation after division by 2 can lead to a significant loss in total
//! energy in stagnation regions of the flow* and fixes it by adding a random
//! bit, "in a statistical sense achieving the correct rounding".
//!
//! Three policies are provided so the effect can be measured
//! (`tests/tests/conservation.rs::truncation_drains_energy_at_system_level`
//! holds the claim):
//!
//! * [`Rounding::Truncate`] — division semantics: round toward **zero**,
//!   like the hardware integer divide.  Every odd halving shrinks the
//!   magnitude by half an LSB, so velocity magnitudes — and with them the
//!   kinetic energy — decay systematically.  This is the faulty behaviour
//!   the paper diagnoses in stagnation regions.
//! * [`Rounding::Stochastic`] — floor, then add a random bit **only when a
//!   remainder was dropped**.  Exactly unbiased: `E[halve(x)] = x/2` for
//!   every `x`; no energy drift.
//! * [`Rounding::PaperLiteral`] — floor, then add a random bit
//!   unconditionally (the literal reading of the paper's sentence).
//!   Unbiased on odd inputs but biased by +½ LSB on even inputs; kept so
//!   the ablation can compare all three readings.

/// Rounding policy for division by two.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Rounding {
    /// Round toward zero (hardware division). The paper's diagnosed failure
    /// mode: magnitudes shrink, energy drains in stagnation regions.
    Truncate,
    /// Unbiased stochastic rounding (default; the paper's fix, implemented
    /// so that the expectation is exact for all inputs).
    #[default]
    Stochastic,
    /// Literal reading of the paper: always add a uniform random bit.
    PaperLiteral,
}

/// Halve a widened raw value under the given policy.
///
/// `random_bit` must be 0 or 1.  The input is an `i64` so callers can halve
/// sums/differences of two `i32` raw values without overflow; the result of
/// such a halving always fits back in `i32`.
#[inline(always)]
pub fn halve_raw(raw: i64, mode: Rounding, random_bit: u32) -> i64 {
    debug_assert!(random_bit <= 1, "random_bit must be 0 or 1");
    match mode {
        Rounding::Truncate => raw / 2,
        Rounding::Stochastic => (raw >> 1) + ((raw & 1) & random_bit as i64),
        Rounding::PaperLiteral => (raw >> 1) + random_bit as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn truncate_rounds_toward_zero() {
        assert_eq!(halve_raw(5, Rounding::Truncate, 0), 2);
        assert_eq!(halve_raw(-5, Rounding::Truncate, 0), -2);
        assert_eq!(halve_raw(4, Rounding::Truncate, 1), 2);
        assert_eq!(halve_raw(-4, Rounding::Truncate, 1), -2);
    }

    #[test]
    fn truncate_never_grows_magnitude() {
        for x in -100i64..=100 {
            let h = halve_raw(x, Rounding::Truncate, 1);
            assert!(h.abs() * 2 <= x.abs(), "halve({x}) = {h}");
        }
    }

    #[test]
    fn stochastic_brackets_the_exact_value() {
        // Odd input: the two outcomes straddle x/2 with mean exactly x/2.
        assert_eq!(halve_raw(5, Rounding::Stochastic, 0), 2);
        assert_eq!(halve_raw(5, Rounding::Stochastic, 1), 3);
        assert_eq!(halve_raw(-5, Rounding::Stochastic, 0), -3);
        assert_eq!(halve_raw(-5, Rounding::Stochastic, 1), -2);
        // Even input: exact, the bit must not perturb it.
        assert_eq!(halve_raw(6, Rounding::Stochastic, 1), 3);
        assert_eq!(halve_raw(-6, Rounding::Stochastic, 1), -3);
    }

    #[test]
    fn paper_literal_always_adds() {
        assert_eq!(halve_raw(6, Rounding::PaperLiteral, 1), 4);
        assert_eq!(halve_raw(6, Rounding::PaperLiteral, 0), 3);
        assert_eq!(halve_raw(5, Rounding::PaperLiteral, 1), 3);
    }

    /// Empirical bias per policy, in LSBs, over random odd and even inputs.
    fn measured_bias(mode: Rounding, only_odd: bool) -> f64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 200_000;
        let mut acc = 0f64;
        for _ in 0..n {
            let mut x: i64 = rng.gen_range(-1_000_000..1_000_000);
            if only_odd {
                x |= 1;
            } else {
                x &= !1;
            }
            let bit = rng.gen_range(0..2u32);
            let h = halve_raw(x, mode, bit);
            acc += h as f64 - x as f64 / 2.0;
        }
        acc / n as f64
    }

    #[test]
    fn stochastic_is_unbiased_on_both_parities() {
        assert!(measured_bias(Rounding::Stochastic, true).abs() < 0.01);
        assert!(measured_bias(Rounding::Stochastic, false).abs() < 0.01);
    }

    #[test]
    fn truncate_is_biased_toward_zero_on_odd() {
        // Symmetric input ⇒ the signed bias cancels, but the magnitude
        // shrinks by exactly ½ LSB on every odd input.
        let b = measured_bias(Rounding::Truncate, true);
        assert!(b.abs() < 0.01, "signed bias should cancel, got {b}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut mag = 0f64;
        let n = 100_000;
        for _ in 0..n {
            let x: i64 = rng.gen_range(-1_000_000..1_000_000i64) | 1;
            let h = halve_raw(x, Rounding::Truncate, 0);
            mag += h.abs() as f64 - x.abs() as f64 / 2.0;
        }
        let shrink = mag / n as f64;
        assert!((shrink + 0.5).abs() < 0.01, "magnitude bias = {shrink}");
    }

    #[test]
    fn paper_literal_is_biased_up_on_even() {
        let b = measured_bias(Rounding::PaperLiteral, false);
        assert!((b - 0.5).abs() < 0.01, "expected +0.5 LSB bias, got {b}");
    }
}
