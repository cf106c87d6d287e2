//! Nanbu's per-particle probability scheme (Ploss's O(N) form).
//!
//! "Nanbu introduces the idea of a probability of collision which he
//! applies unconditionally to decide on a collision and then on a
//! conditional basis to select a collision partner … Ploss shows how
//! Nanbu's scheme can be implemented as O(N) … However, both Ploss's and
//! Nanbu's scheme conserve only the mean energy and momentum of a cell."
//!
//! Every particle independently decides to "collide" with probability
//! `P_c = P∞·n/n∞`, picks a random partner in its cell, and updates *only
//! its own* velocity with the post-collision state; the partner is left
//! untouched.  Mean-conserving, pairwise-violating — implemented here so
//! the paper's criticism is measurable (`nanbu_conserves_only_in_the_mean`
//! below; `examples/baseline_compare.rs` puts the three schemes side by
//! side).

use crate::harness::UniformBox;
use dsmc_fixed::{Fx, Rounding};
use dsmc_kinetics::collision::collide_pair;
use dsmc_rng::XorShift32;
use rayon::prelude::*;

/// Nanbu/Ploss driver over a [`UniformBox`].
pub struct NanbuBox {
    /// The shared particle state.
    pub state: UniformBox,
    /// `P∞` of the matched pairwise scheme.
    pub p_inf: f64,
    /// Freestream particles-per-cell `n∞`.
    pub n_inf: f64,
    /// Rounding policy for the shared kernel.
    pub rounding: Rounding,
    updates: u64,
}

impl NanbuBox {
    /// Wrap a box.
    pub fn new(state: UniformBox, p_inf: f64, n_inf: f64) -> Self {
        Self {
            state,
            p_inf,
            n_inf,
            rounding: Rounding::Stochastic,
            updates: 0,
        }
    }

    /// One step: per-particle independent decisions (particle-parallel, as
    /// Ploss vectorised it).  The *new* velocities are written to a second
    /// buffer so every decision sees the pre-step state, matching the
    /// scheme's definition.
    pub fn step(&mut self) {
        let n_cells = self.state.n_cells();
        let offsets = &self.state.offsets;
        let vel_in = &self.state.vel;
        let perm = &self.state.perm;
        let rng_in = &self.state.rng;
        let p_inf = self.p_inf;
        let n_inf = self.n_inf;
        let rounding = self.rounding;

        // Per-particle outputs: (new_velocity, updated_rng, did_update).
        let results: Vec<([Fx; 5], XorShift32, bool)> = (0..n_cells)
            .into_par_iter()
            .flat_map_iter(|c| {
                let lo = offsets[c] as usize;
                let hi = offsets[c + 1] as usize;
                let n = hi - lo;
                (lo..hi).map(move |i| {
                    let mut rng = rng_in[i];
                    if n < 2 {
                        return (vel_in[i], rng, false);
                    }
                    let p_c = (p_inf * n as f64 / n_inf).min(1.0);
                    if rng.next_f64() >= p_c {
                        return (vel_in[i], rng, false);
                    }
                    // Partner drawn uniformly among the other particles.
                    let mut j = lo + rng.next_below(n as u32) as usize;
                    if j == i {
                        j = lo + (j - lo + 1) % n;
                    }
                    let mut a = vel_in[i];
                    let mut b = vel_in[j];
                    collide_pair(&mut a, &mut b, perm[i], rounding, &mut rng);
                    // Only the deciding particle is updated — the scheme's
                    // defining (and flawed) property.
                    (a, rng, true)
                })
            })
            .collect();

        let mut updates = 0u64;
        for (i, (v, r, did)) in results.into_iter().enumerate() {
            self.state.vel[i] = v;
            self.state.rng[i] = r;
            if did {
                self.state.perm[i] =
                    self.state.perm[i].top_transpose(self.state.rng[i].next_below(5));
                updates += 1;
            }
        }
        self.updates += updates;
    }

    /// One-sided updates performed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

/// The pairwise scheme on the same harness, for head-to-head comparisons:
/// even/odd pairing after a remix, both partners updated.
pub fn pairwise_step(state: &mut UniformBox, p_inf: f64, n_inf: f64, rounding: Rounding) -> u64 {
    state.remix();
    let n_cells = state.n_cells();
    let offsets = state.offsets.clone();
    let mut collisions = 0u64;
    for c in 0..n_cells {
        let lo = offsets[c] as usize;
        let hi = offsets[c + 1] as usize;
        let n = hi - lo;
        if n < 2 {
            continue;
        }
        let p_c = (p_inf * n as f64 / n_inf).min(1.0);
        let mut i = lo;
        while i + 1 < hi {
            let mut rng = state.rng[i];
            if rng.next_f64() < p_c {
                let (head, tail) = state.vel.split_at_mut(i + 1);
                let p = state.perm[i];
                collide_pair(&mut head[i], &mut tail[0], p, rounding, &mut rng);
                let ja = rng.next_below(5);
                state.perm[i] = state.perm[i].top_transpose(ja);
                let jb = state.rng[i + 1].next_below(5);
                state.perm[i + 1] = state.perm[i + 1].top_transpose(jb);
                collisions += 1;
            }
            state.rng[i] = rng;
            i += 2;
        }
    }
    collisions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_rate_matches_probability() {
        let b = UniformBox::rectangular(64, 30, 0.05, 11);
        let n = b.len() as f64;
        let mut nb = NanbuBox::new(b, 0.2, 30.0);
        let steps = 40;
        for _ in 0..steps {
            nb.step();
        }
        let per_step = nb.updates() as f64 / steps as f64;
        // Every particle decides with probability P∞ each step.
        assert!(
            (per_step / (n * 0.2) - 1.0).abs() < 0.05,
            "updates/step {per_step} vs {}",
            n * 0.2
        );
    }

    #[test]
    fn nanbu_conserves_only_in_the_mean() {
        // Momentum drift per step is O(√N·σ) — typically far larger than
        // the pairwise scheme's ≤1 LSB per collision.
        let b = UniformBox::rectangular(32, 40, 0.05, 12);
        let m0 = b.total_momentum_raw();
        let mut nb = NanbuBox::new(b, 0.5, 40.0);
        for _ in 0..20 {
            nb.step();
        }
        let m1 = nb.state.total_momentum_raw();
        let drift: i64 = (0..5).map(|k| (m1[k] - m0[k]).abs()).max().unwrap();
        let updates = nb.updates() as i64;
        assert!(
            drift > 4 * updates,
            "Nanbu drift {drift} should dwarf the pairwise bound {updates}"
        );
        // …but it stays a √N random walk (mean conservation): each
        // one-sided update kicks momentum by O(σ), so the drift is of
        // order √updates · σ_raw, far below the full momentum scale.
        let sigma_raw = 0.05 * Fx::ONE_RAW as f64;
        let walk = (updates as f64).sqrt() * sigma_raw;
        assert!(
            (drift as f64) < 6.0 * walk,
            "drift {drift} exceeds the random-walk scale {walk}"
        );
    }

    #[test]
    fn pairwise_reference_conserves_exactly_to_lsb() {
        let mut b = UniformBox::rectangular(32, 40, 0.05, 13);
        let m0 = b.total_momentum_raw();
        let mut collisions = 0;
        for _ in 0..20 {
            collisions += pairwise_step(&mut b, 0.5, 40.0, Rounding::Stochastic);
        }
        let m1 = b.total_momentum_raw();
        for k in 0..5 {
            assert!(
                (m1[k] - m0[k]).abs() <= collisions as i64,
                "pairwise momentum drift exceeds LSB bound"
            );
        }
    }

    #[test]
    fn nanbu_still_relaxes_the_distribution() {
        // The shape relaxes toward Maxwellian, but the one-sided energy
        // random walk leaves the tails slightly heavy (small positive
        // excess kurtosis) — another measurable signature of the scheme's
        // weaker conservation.
        let b = UniformBox::rectangular(32, 50, 0.05, 14);
        let mut nb = NanbuBox::new(b, 1.0, 50.0);
        assert!(nb.state.kurtosis(1) < -1.0);
        for _ in 0..40 {
            nb.step();
        }
        let k = nb.state.kurtosis(1);
        assert!((-0.3..0.6).contains(&k), "kurtosis {k}");
    }
}
