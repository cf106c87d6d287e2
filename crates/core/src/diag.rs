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
    /// key pack, one traversal (the paper's
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

/// Where one sort phase's time went: the sub-buckets nested inside
/// [`StepTimings::sort`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SortSplit {
    /// The sharded engine's crosser pack and pair merge (and, on its
    /// withdrawal steps, the separate pair build that precedes the pack).
    /// Zero on the single-domain engine, which exchanges nothing.
    pub exchange: Duration,
    /// The rank: pairs in, router addresses and segment bounds out.
    pub rank: Duration,
    /// The send: the column gathers through those addresses plus the
    /// `cell` column's refill from the bounds.
    pub send: Duration,
}

impl SortSplit {
    /// Split `wall` in the proportion of these parts — what turns the
    /// per-shard durations workers report (CPU time, summed over shards)
    /// into wall-clock-comparable buckets: exact on one thread, an
    /// attribution estimate on many, like the select/collide split.
    pub fn scaled_to(&self, wall: Duration) -> SortSplit {
        let cpu = self.exchange + self.rank + self.send;
        if cpu.is_zero() {
            return SortSplit::default();
        }
        let scale = wall.as_secs_f64() / cpu.as_secs_f64();
        let exchange = self.exchange.mul_f64(scale);
        let rank = self.rank.mul_f64(scale);
        SortSplit {
            exchange,
            rank,
            send: wall.saturating_sub(exchange + rank),
        }
    }
}

impl std::ops::AddAssign for SortSplit {
    fn add_assign(&mut self, other: SortSplit) {
        self.exchange += other.exchange;
        self.rank += other.rank;
        self.send += other.send;
    }
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
    /// Sort time (rank + reorder; on the sharded engine the exchange too).
    /// Inclusive: [`StepTimings::sort_exchange`], [`StepTimings::sort_rank`]
    /// and [`StepTimings::sort_send`] are parts of it, not additions to it.
    pub sort: Duration,
    /// Part of `sort`: see [`SortSplit::exchange`].
    pub sort_exchange: Duration,
    /// Part of `sort`: see [`SortSplit::rank`].
    pub sort_rank: Duration,
    /// Part of `sort`: see [`SortSplit::send`].
    pub sort_send: Duration,
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

    /// Add one sort phase: `wall` to the inclusive [`StepTimings::sort`]
    /// bucket, `parts` to the sub-buckets nested inside it.
    pub fn add_sort(&mut self, wall: Duration, parts: SortSplit) {
        self.sort += wall;
        self.sort_exchange += parts.exchange;
        self.sort_rank += parts.rank;
        self.sort_send += parts.send;
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
    fn sort_sub_buckets_nest_inside_sort_and_leave_the_totals_alone() {
        let mut t = StepTimings::default();
        t.add(Substep::Move, Duration::from_millis(10));
        // Three shards' worth of CPU time against 60 ms of wall.
        let cpu = SortSplit {
            exchange: Duration::from_millis(10),
            rank: Duration::from_millis(50),
            send: Duration::from_millis(60),
        };
        let wall = Duration::from_millis(60);
        t.add_sort(wall, cpu.scaled_to(wall));
        assert_eq!(t.sort, wall);
        assert_eq!(t.sort_exchange + t.sort_rank + t.sort_send, t.sort);
        assert_eq!(t.sort_exchange, Duration::from_millis(5));
        assert_eq!(t.sort_rank, Duration::from_millis(25));
        assert_eq!(t.total_algorithmic(), Duration::from_millis(70));
        // Nothing measured: nothing attributed, the wall time still counts.
        t.add_sort(wall, SortSplit::default().scaled_to(wall));
        assert_eq!(t.sort, 2 * wall);
        assert_eq!(t.sort_rank, Duration::from_millis(25));
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
