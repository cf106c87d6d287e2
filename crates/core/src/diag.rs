//! Diagnostics: conservation ledgers and per-substep timings.
//!
//! The paper reports the distribution of computational time over the four
//! sub-steps (motion+boundaries 14%, sort 27%, selection 20%, collision
//! 39%); [`StepTimings`] reproduces that bookkeeping for our backend, and
//! [`Diagnostics`] carries the physical ledgers (populations, collision
//! counts, exact fixed-point energy/momentum totals).

use std::time::Duration;

/// The timed phases of one simulation step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Substep {
    /// The single-sweep move phase: motion + boundary + cell refresh +
    /// key pack + first radix histogram, one traversal (the paper's
    /// sub-steps 1 and 2, plus the sort's pair-build sweep).
    Move,
    /// The randomised cell-key sort (sub-step 3's first half): the rank +
    /// send only — pair building happens inside [`Substep::Move`].
    Sort,
    /// Selection of collision partners (sub-step 3's second half).
    Select,
    /// Collision of selected partners (sub-step 4).
    Collide,
    /// Optional sampling/averaging pass.
    Sample,
}

/// Accumulated wall-clock time per substep.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTimings {
    /// Always zero: motion is timed inside [`StepTimings::move_phase`].
    /// Kept because readers of the timing table sum it.
    pub motion: Duration,
    /// Always zero, like [`StepTimings::motion`].
    pub boundary: Duration,
    /// Move-phase time (motion + boundary + key build in one sweep).
    pub move_phase: Duration,
    /// Sort time (rank + reorder).
    pub sort: Duration,
    /// Partner-selection time.
    pub select: Duration,
    /// Collision time.
    pub collide: Duration,
    /// Sampling time.
    pub sample: Duration,
    /// Number of steps accumulated.
    pub steps: u64,
}

impl StepTimings {
    /// Add a measured duration to a phase.
    pub fn add(&mut self, phase: Substep, d: Duration) {
        match phase {
            Substep::Move => self.move_phase += d,
            Substep::Sort => self.sort += d,
            Substep::Select => self.select += d,
            Substep::Collide => self.collide += d,
            Substep::Sample => self.sample += d,
        }
    }

    /// Total time across the four algorithmic phases (sampling excluded,
    /// matching the paper's accounting).
    pub fn total_algorithmic(&self) -> Duration {
        self.move_phase + self.sort + self.select + self.collide
    }

    /// The paper's four buckets as fractions summing to 1:
    /// `[motion+boundary, sort, select, collide]`.  The move phase covers
    /// motion + boundary *and* the sort's key build; it is reported in
    /// the first bucket, which therefore slightly overstates that bucket
    /// (by the pair-build share).
    pub fn paper_buckets(&self) -> [f64; 4] {
        let tot = self.total_algorithmic().as_secs_f64();
        if tot == 0.0 {
            return [0.0; 4];
        }
        [
            self.move_phase.as_secs_f64() / tot,
            self.sort.as_secs_f64() / tot,
            self.select.as_secs_f64() / tot,
            self.collide.as_secs_f64() / tot,
        ]
    }

    /// Mean wall-clock microseconds per particle per step, the paper's
    /// figure-of-merit (7.2 µs on 32k CM-2 processors; the flow population
    /// is the denominator, "10% less than the total number of particles").
    pub fn us_per_particle_step(&self, flow_particles: usize) -> f64 {
        if self.steps == 0 || flow_particles == 0 {
            return 0.0;
        }
        self.total_algorithmic().as_secs_f64() * 1e6 / (self.steps as f64 * flow_particles as f64)
    }

    /// Reset all accumulators.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Physical ledgers of a running simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Diagnostics {
    /// Steps taken so far.
    pub steps: u64,
    /// Particles currently in the flow.
    pub n_flow: usize,
    /// Particles currently in the reservoir.
    pub n_reservoir: usize,
    /// Candidate pairs examined since start.
    pub candidates: u64,
    /// Collisions performed since start.
    pub collisions: u64,
    /// Particles that exited downstream since start.
    pub exited: u64,
    /// Particles introduced at the inlet since start.
    pub introduced: u64,
    /// Plunger withdrawals since start.
    pub plunger_cycles: u64,
    /// Exact total energy (raw² units, all five components).
    pub energy_raw: i128,
    /// Exact total momentum (raw units) per component.
    pub momentum_raw: [i64; 5],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_normalise() {
        let mut t = StepTimings::default();
        t.add(Substep::Move, Duration::from_millis(14));
        t.add(Substep::Sort, Duration::from_millis(27));
        t.add(Substep::Select, Duration::from_millis(20));
        t.add(Substep::Collide, Duration::from_millis(39));
        t.add(Substep::Sample, Duration::from_millis(500)); // excluded
        let b = t.paper_buckets();
        assert!((b.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((b[0] - 0.14).abs() < 1e-9);
        assert!((b[3] - 0.39).abs() < 1e-9);
    }

    #[test]
    fn us_per_particle() {
        let mut t = StepTimings::default();
        t.add(Substep::Collide, Duration::from_secs(1));
        t.steps = 10;
        // 1 s over 10 steps and 100k particles = 1 µs/particle/step.
        assert!((t.us_per_particle_step(100_000) - 1.0).abs() < 1e-9);
        assert_eq!(t.us_per_particle_step(0), 0.0);
        assert_eq!(StepTimings::default().us_per_particle_step(10), 0.0);
    }

    #[test]
    fn zero_timings_give_zero_buckets() {
        assert_eq!(StepTimings::default().paper_buckets(), [0.0; 4]);
    }

    #[test]
    fn reset_clears() {
        let mut t = StepTimings::default();
        t.add(Substep::Sort, Duration::from_secs(1));
        t.steps = 3;
        t.reset();
        assert_eq!(t.steps, 0);
        assert_eq!(t.sort, Duration::ZERO);
    }
}
