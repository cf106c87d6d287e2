//! Sub-step 1: collisionless motion.
//!
//! "Each particle's position vector is updated simply by x⃗ ← x⃗ + u⃗" — with
//! the time scale normalised by one step (paper eq. 2).  The update is
//! exact and reversible in fixed point, perfectly load balanced, and runs
//! with every (virtual) processor active.
//!
//! Reservoir particles advance inside their periodic strip so they keep
//! colliding (and relaxing) at freestream conditions; the wrap is a pure
//! lattice translation, also exact.

use crate::particles::ParticleStore;
use dsmc_fixed::Fx;
use rayon::prelude::*;

/// Displace a coordinate by `d` and wrap it into `[0, span)` by lattice
/// translations (exact).
///
/// Implemented as a fixed-point Euclidean remainder on the raw
/// representations: the result is the unique value in `[0, span)` that
/// differs from `x + d` by an integer multiple of `span`, for *any* input —
/// unlike the add/sub loop this replaced, there is no iteration cap and
/// no branch whose count depends on how far out of range `x + d` is.  The
/// sum is formed in `i64`: a 255-row reservoir strip reaches y ≈ 255, and
/// a step of more than one cell from there would leave the Q8.23 range
/// if it were added in `Fx` first.
#[inline(always)]
pub fn wrap(x: Fx, d: Fx, span: Fx) -> Fx {
    debug_assert!(span > Fx::ZERO);
    // i64 keeps the intermediate exact (raw values are i32); rem_euclid's
    // result lies in [0, span.raw) and so fits back into an i32.
    let sum = x.raw() as i64 + d.raw() as i64;
    Fx::from_raw(sum.rem_euclid(span.raw() as i64) as i32)
}

/// Advance every particle one step.
///
/// `res_base` is the first reservoir cell index; particles with
/// `cell >= res_base` move in the periodic reservoir box of `res_w` ×
/// `res_h` cells.
pub fn advect(parts: &mut ParticleStore, res_base: u32, res_w: Fx, res_h: Fx) {
    let cells = &parts.cell;
    parts
        .x
        .par_iter_mut()
        .zip(parts.y.par_iter_mut())
        .zip(parts.u.par_iter())
        .zip(parts.v.par_iter())
        .zip(cells.par_iter())
        .for_each(|((((x, y), &u), &v), &cell)| {
            if cell < res_base {
                *x += u;
                *y += v;
            } else {
                *x = wrap(*x, u, res_w);
                *y = wrap(*y, v, res_h);
            }
        });
}

/// Reverse one motion step (used by the reversibility test: collisionless
/// motion "is strictly deterministic and reversible").
pub fn advect_reverse(parts: &mut ParticleStore, res_base: u32, res_w: Fx, res_h: Fx) {
    let cells = &parts.cell;
    parts
        .x
        .par_iter_mut()
        .zip(parts.y.par_iter_mut())
        .zip(parts.u.par_iter())
        .zip(parts.v.par_iter())
        .zip(cells.par_iter())
        .for_each(|((((x, y), &u), &v), &cell)| {
            if cell < res_base {
                *x -= u;
                *y -= v;
            } else {
                *x = wrap(*x, -u, res_w);
                *y = wrap(*y, -v, res_h);
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmc_rng::{Perm5, XorShift32};

    fn fx(v: f64) -> Fx {
        Fx::from_f64(v)
    }

    fn store_with(flow: &[(f64, f64, f64, f64)], res: &[(f64, f64, f64, f64)]) -> ParticleStore {
        let mut s = ParticleStore::default();
        for &(x, y, u, v) in flow {
            s.push(
                fx(x),
                fx(y),
                [fx(u), fx(v), Fx::ZERO, Fx::ZERO, Fx::ZERO],
                Perm5::IDENTITY,
                XorShift32::new(1),
                0,
            );
        }
        for &(x, y, u, v) in res {
            s.push(
                fx(x),
                fx(y),
                [fx(u), fx(v), Fx::ZERO, Fx::ZERO, Fx::ZERO],
                Perm5::IDENTITY,
                XorShift32::new(2),
                100,
            );
        }
        s
    }

    #[test]
    fn flow_particles_translate() {
        let mut s = store_with(&[(1.0, 2.0, 0.25, -0.125)], &[]);
        advect(&mut s, 100, fx(8.0), Fx::ONE);
        assert_eq!(s.x[0], fx(1.25));
        assert_eq!(s.y[0], fx(1.875));
    }

    #[test]
    fn reservoir_particles_wrap() {
        let mut s = store_with(&[], &[(7.9, 0.95, 0.25, 0.125)]);
        advect(&mut s, 100, fx(8.0), Fx::ONE);
        assert_eq!(s.x[0], fx(0.15));
        assert_eq!(s.y[0], fx(0.075));
    }

    #[test]
    fn reservoir_negative_wrap() {
        let mut s = store_with(&[], &[(0.1, 0.05, -0.25, -0.125)]);
        advect(&mut s, 100, fx(8.0), Fx::ONE);
        assert_eq!(s.x[0], fx(7.85));
        assert_eq!(s.y[0], fx(0.925));
    }

    #[test]
    fn motion_is_reversible_bit_exactly() {
        let mut rng = XorShift32::new(5);
        let mut s = ParticleStore::default();
        for i in 0..5000 {
            let res = i % 4 == 0;
            // Reservoir coordinates live in the 8×1 strip; flow in the box.
            let x = if res {
                (rng.next_f64() * 8.0).min(7.99)
            } else {
                (rng.next_f64() * 16.0).min(15.99)
            };
            let y = if res {
                rng.next_f64().min(0.99)
            } else {
                (rng.next_f64() * 12.0).min(11.99)
            };
            let u = rng.next_f64() * 0.6 - 0.3;
            let v = rng.next_f64() * 0.6 - 0.3;
            let cell = if res { 200 } else { 0 };
            s.push(
                fx(x),
                fx(y),
                [fx(u), fx(v), Fx::ZERO, Fx::ZERO, Fx::ZERO],
                Perm5::IDENTITY,
                XorShift32::new(i),
                cell,
            );
        }
        let x0 = s.x.clone();
        let y0 = s.y.clone();
        for _ in 0..50 {
            advect(&mut s, 100, fx(8.0), Fx::ONE);
        }
        for _ in 0..50 {
            advect_reverse(&mut s, 100, fx(8.0), Fx::ONE);
        }
        assert_eq!(s.x, x0, "x must return bit-exactly");
        assert_eq!(s.y, y0, "y must return bit-exactly");
    }

    #[test]
    fn wrap_helper_edge_cases() {
        let span = fx(4.0);
        assert_eq!(wrap(fx(0.0), Fx::ZERO, span), fx(0.0));
        assert_eq!(wrap(fx(4.0), Fx::ZERO, span), fx(0.0));
        assert_eq!(wrap(fx(-0.5), Fx::ZERO, span), fx(3.5));
        assert_eq!(wrap(fx(9.0), Fx::ZERO, span), fx(1.0));
        assert_eq!(wrap(fx(3.999), Fx::ZERO, span), fx(3.999));
    }

    #[test]
    fn wrap_handles_far_out_of_range_inputs() {
        // The old guarded loop capped at 16 translations; the modular
        // reduction is exact arbitrarily far out (within the Q8.23 range).
        let span = fx(4.0);
        assert_eq!(wrap(fx(4.0 * 60.0 + 1.25), Fx::ZERO, span), fx(1.25));
        assert_eq!(wrap(fx(-4.0 * 60.0 - 0.75), Fx::ZERO, span), fx(3.25));
        assert_eq!(
            wrap(Fx::from_raw(i32::MIN), Fx::ZERO, Fx::EPSILON),
            Fx::ZERO
        );
    }

    /// The add/sub loop the branch-free reduction replaced, kept as the
    /// executable specification for the property test below.
    fn wrap_by_loop(mut x: Fx, span: Fx) -> Fx {
        let mut guard = 0;
        while x < Fx::ZERO && guard < 16 {
            x += span;
            guard += 1;
        }
        while x >= span && guard < 16 {
            x -= span;
            guard += 1;
        }
        x
    }

    proptest::proptest! {
        #[test]
        fn prop_wrap_matches_the_translation_loop(
            // Spans cover the engine's whole range (reservoir strips are
            // 1..=64 cells; allow any positive fixed-point span) and inputs
            // stay within the loop's 16-translation reach.
            span_raw in 1i32..=(64 << 23),
            lattice in -15i64..=15,
            frac in 0i64..(1i64 << 31),
        ) {
            let span = Fx::from_raw(span_raw);
            let off = frac % span_raw as i64;
            let x_raw = lattice * span_raw as i64 + off;
            proptest::prop_assume!(x_raw >= i32::MIN as i64 && x_raw <= i32::MAX as i64);
            let x = Fx::from_raw(x_raw as i32);
            let got = wrap(x, Fx::ZERO, span);
            proptest::prop_assert_eq!(got, wrap_by_loop(x, span));
            proptest::prop_assert!(got >= Fx::ZERO && got < span);
        }
    }
}
