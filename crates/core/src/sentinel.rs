//! Physics sentinels: cheap per-window watchdogs for unattended runs.
//!
//! A long batch run can go wrong in ways that never panic — a flipped
//! bit in a velocity column, a stale cell index after a botched resume, a
//! slow energy leak from a future kernel bug.  The sentinel re-purposes
//! ledgers the engine already keeps (the [`Diagnostics`] conservation
//! counters, the segment bounds, the particle columns themselves) into
//! five invariant checks, each O(1) or one O(N) pass, designed to run
//! every few dozen steps without perturbing the simulation:
//!
//! 1. **Particle-count invariance** — the engine recycles every exited
//!    particle, so the total population is *exactly* constant.  Any
//!    drift is structural corruption, not physics.
//! 2. **Momentum budget** — the conserved components (`w`, `r1`, `r2`)
//!    drift only by fixed-point LSB random walks; the drift since arming
//!    must stay inside a multiple of the analytic walk budget
//!    `4·√collisions + 6·σ_raw·√exited + 1000` (the same bound the
//!    golden metric `momentum_drift_budget_frac` pins).
//! 3. **Energy pin** — mean energy per particle stays within a band of
//!    its armed baseline.  The band is wide (default 0.3–3×) because a
//!    cold start legitimately heats ~2× as the bow shock forms; it still
//!    catches column corruption in small populations and any runaway
//!    energy leak.
//! 4. **Velocity halo** — no particle may move faster than a multiple of
//!    the config-derived classifier halo `(|u∞| + 6σ·t_scale).max(1)`.
//!    Checked two ways: the engine's monotone observed-max (catches a
//!    transient spike even if the particle has since exited) and a fresh
//!    column scan (catches corruption injected while the engine wasn't
//!    looking).  The bound is config-derived, not the engine's tracked
//!    max, so one legitimate historical outlier cannot wedge the
//!    sentinel into a permanent false positive.
//! 5. **Segment consistency** — the sort invariant the whole
//!    gather/scatter machinery rests on: bounds start at 0, strictly
//!    increase, end at N; segments are uniform in cell and strictly
//!    increasing across segments; every cached `cell[i]` equals the cell
//!    *derived from the particle's position* ([`ResLayout`] in the
//!    reservoir), which catches a corrupted singleton segment; no speed
//!    reaches [`MAX_SPEED_RAW`].  Several shards are checked one by one,
//!    each on its own segment table and owning every segment's cell.
//!    `Simulation::resume` runs it too.
//!
//! All checks are read-only and consume no RNG draws: a supervised run
//! and an unsupervised run share bit-identical trajectories, which is
//! what lets the supervisor promise recovery to the *same* `state_hash`.

use crate::config::{ResLayout, WallModel};
use crate::diag::Diagnostics;
use crate::engine::Simulation;
use crate::particles::ParticleStore;
use dsmc_fixed::Fx;

/// Tunable trip thresholds; [`SentinelThresholds::default`] matches the
/// analysis above and holds for every registry scenario (the healthy-run
/// proptests pin that).
#[derive(Clone, Copy, Debug)]
pub struct SentinelThresholds {
    /// Trip when momentum drift exceeds this multiple of the LSB
    /// random-walk budget (the golden tolerance is 1.0; default 1.5
    /// leaves slack for budget-fraction noise between golden samplings).
    pub momentum_budget_frac: f64,
    /// Allowed band of energy-per-particle relative to the armed
    /// baseline, as `(low, high)` multipliers.
    pub energy_band: (f64, f64),
    /// Trip when any per-component speed exceeds this multiple of the
    /// config-derived classifier halo.
    pub halo_multiple: f64,
}

impl Default for SentinelThresholds {
    fn default() -> Self {
        Self {
            momentum_budget_frac: 1.5,
            energy_band: (0.3, 3.0),
            halo_multiple: 3.0,
        }
    }
}

/// A tripped sentinel: which invariant broke and by how much.
#[derive(Clone, Debug, PartialEq)]
pub enum SentinelError {
    /// The exactly-conserved total particle count changed.
    ParticleCountChanged {
        /// Population when the sentinel was armed.
        expected: usize,
        /// Population now.
        found: usize,
    },
    /// A conserved momentum component drifted past its random-walk
    /// budget.
    MomentumBudgetBlown {
        /// Component index into `Diagnostics::momentum_raw` (2 = w,
        /// 3 = r1, 4 = r2).
        component: usize,
        /// Absolute drift since arming, raw fixed-point units.
        drift_raw: f64,
        /// The analytic walk budget at the current collision/exit
        /// counts, raw units.
        budget_raw: f64,
        /// `drift / budget` (tripped because this exceeded the
        /// threshold).
        frac: f64,
    },
    /// Mean energy per particle left its allowed band.
    EnergyPinBroken {
        /// Energy per particle now (squared cells-per-step units).
        per_particle: f64,
        /// Energy per particle when the sentinel was armed.
        baseline: f64,
        /// Allowed `(low, high)` multipliers on the baseline.
        band: (f64, f64),
    },
    /// A per-component speed exceeded the halo bound.
    VelocityHaloExceeded {
        /// Largest |u| or |v| seen (raw units) — from the fresh column
        /// scan or the engine's monotone observed-max, whichever.
        max_raw: u32,
        /// The config-derived bound (raw units).
        bound_raw: u32,
    },
    /// The segment/bounds/cell sort invariant is broken.
    SegmentsBroken {
        /// What specifically failed.
        what: &'static str,
        /// Offending index (particle or segment, per `what`) in the
        /// canonical (single-domain) order, so one fault reports one
        /// index at every shard count.
        index: usize,
    },
}

impl std::fmt::Display for SentinelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ParticleCountChanged { expected, found } => write!(
                f,
                "particle count changed: armed with {expected}, now {found}"
            ),
            Self::MomentumBudgetBlown {
                component,
                drift_raw,
                budget_raw,
                frac,
            } => write!(
                f,
                "momentum component {component} drifted {drift_raw:.0} raw \
                 against a budget of {budget_raw:.0} ({frac:.2}x)"
            ),
            Self::EnergyPinBroken {
                per_particle,
                baseline,
                band,
            } => write!(
                f,
                "energy per particle {per_particle:.4} left band \
                 [{:.4}, {:.4}] around baseline {baseline:.4}",
                band.0 * baseline,
                band.1 * baseline
            ),
            Self::VelocityHaloExceeded { max_raw, bound_raw } => write!(
                f,
                "per-component speed {max_raw} raw exceeds halo bound {bound_raw} raw"
            ),
            Self::SegmentsBroken { what, index } => {
                write!(f, "segment invariant broken at {index}: {what}")
            }
        }
    }
}

impl std::error::Error for SentinelError {}

/// Armed watchdog holding the baselines every later [`Sentinel::check`]
/// compares against.
///
/// Arm it once per run — on the cold-start simulation or right after a
/// resume; because trajectories are deterministic, the same baselines
/// remain valid across checkpoint recoveries of the same run.
#[derive(Clone, Debug)]
pub struct Sentinel {
    n0: usize,
    momentum0: [i64; 5],
    energy0_per_particle: f64,
    halo_bound_raw: u32,
    thresholds: SentinelThresholds,
}

impl Sentinel {
    /// Arm with [`SentinelThresholds::default`].
    pub fn arm(sim: &Simulation) -> Self {
        Self::arm_with(sim, SentinelThresholds::default())
    }

    /// Arm against `sim`'s current state with explicit thresholds.
    pub fn arm_with(sim: &Simulation, thresholds: SentinelThresholds) -> Self {
        let d = sim.diagnostics();
        let n = sim.n_particles();
        assert!(n > 0, "cannot arm a sentinel on an empty simulation");
        let one = Fx::ONE_RAW as f64;
        let energy0_per_particle = d.energy_raw as f64 / n as f64 / (one * one);
        let fs = sim.freestream();
        let t_scale = match sim.config().walls {
            WallModel::Specular => 1.0,
            WallModel::Diffuse { t_wall } => t_wall.sqrt().max(1.0),
        };
        let halo0 = (fs.u_inf().abs() + 6.0 * fs.sigma() * t_scale).max(1.0);
        let halo_bound_raw = (halo0 * thresholds.halo_multiple * one).min(u32::MAX as f64) as u32;
        Self {
            n0: n,
            momentum0: d.momentum_raw,
            energy0_per_particle,
            halo_bound_raw,
            thresholds,
        }
    }

    /// The velocity bound (raw units) checks use.
    pub fn halo_bound_raw(&self) -> u32 {
        self.halo_bound_raw
    }

    /// Run all five checks against `sim`; the first broken invariant is
    /// the error.  Read-only, no RNG draws, one O(N) pass over the
    /// particle columns.
    pub fn check(&self, sim: &Simulation) -> Result<(), SentinelError> {
        let d = sim.diagnostics();
        self.check_count(sim)?;
        self.check_momentum(sim, &d)?;
        self.check_energy(sim, &d)?;
        self.check_halo(sim)?;
        match sim.sorted_state_fault() {
            Some((what, index)) => Err(SentinelError::SegmentsBroken { what, index }),
            None => Ok(()),
        }
    }

    fn check_count(&self, sim: &Simulation) -> Result<(), SentinelError> {
        let found = sim.n_particles();
        if found != self.n0 {
            return Err(SentinelError::ParticleCountChanged {
                expected: self.n0,
                found,
            });
        }
        Ok(())
    }

    fn check_momentum(&self, sim: &Simulation, d: &Diagnostics) -> Result<(), SentinelError> {
        // Same analytic budget the golden `momentum_drift_budget_frac`
        // metric uses, at the current cumulative collision/exit counts.
        let one = Fx::ONE_RAW as f64;
        let sigma_raw = sim.freestream().sigma() * one;
        let collision_walk = 4.0 * (d.collisions as f64).sqrt();
        let exit_walk = 6.0 * sigma_raw * (d.exited.max(1) as f64).sqrt();
        let budget = collision_walk + exit_walk + 1000.0;
        for k in 2..5 {
            let drift = (d.momentum_raw[k] - self.momentum0[k]).abs() as f64;
            let frac = drift / budget;
            if frac > self.thresholds.momentum_budget_frac {
                return Err(SentinelError::MomentumBudgetBlown {
                    component: k,
                    drift_raw: drift,
                    budget_raw: budget,
                    frac,
                });
            }
        }
        Ok(())
    }

    fn check_energy(&self, sim: &Simulation, d: &Diagnostics) -> Result<(), SentinelError> {
        let one = Fx::ONE_RAW as f64;
        let n = sim.n_particles().max(1);
        let per_particle = d.energy_raw as f64 / n as f64 / (one * one);
        let (lo, hi) = self.thresholds.energy_band;
        let baseline = self.energy0_per_particle;
        if per_particle < lo * baseline || per_particle > hi * baseline {
            return Err(SentinelError::EnergyPinBroken {
                per_particle,
                baseline,
                band: (lo, hi),
            });
        }
        Ok(())
    }

    fn check_halo(&self, sim: &Simulation) -> Result<(), SentinelError> {
        // Monotone engine-tracked max first: catches a spike whose
        // particle has since exited.
        let tracked = sim.max_observed_speed_raw();
        if tracked > self.halo_bound_raw {
            return Err(SentinelError::VelocityHaloExceeded {
                max_raw: tracked,
                bound_raw: self.halo_bound_raw,
            });
        }
        // Fresh column scan over every shard's store: catches corruption
        // the engine has not stepped over yet (only u/v — the advecting
        // components the tracked max also watches; w corruption shows in
        // the ledgers).
        let max_raw = (sim.shard_states())
            .flat_map(|(p, _)| p.u.iter().chain(&p.v))
            .map(|c| c.raw().unsigned_abs())
            .max()
            .unwrap_or(0);
        if max_raw > self.halo_bound_raw {
            return Err(SentinelError::VelocityHaloExceeded {
                max_raw,
                bound_raw: self.halo_bound_raw,
            });
        }
        Ok(())
    }
}

/// The Q8.23 speed bound, raw: six cells per step.  Below it a move keeps
/// a tunnel coordinate under 249 + 6 < 256 and a collision's `mean ± rel`
/// under 12; healthy flow (validated `c_m < 0.5`) sits far below it.
///
/// The step does not enforce it: no move or collision clamps a velocity.
/// It is an accepted statistical bound — at a validated `c_m < 0.5` it
/// lies at least 12 σ out — and only the sentinel's check 5 and
/// `Simulation::resume` test it.
pub const MAX_SPEED_RAW: u32 = 6 << Fx::FRAC_BITS;

/// Where check 5 found a fault within one shard: a segment of its table
/// or a row of its store.
#[derive(Clone, Copy)]
pub(crate) enum FaultAt {
    /// Segment index within the shard.
    Segment(usize),
    /// Particle row within the shard.
    Row(usize),
}

impl Simulation {
    /// Check 5 of the module docs — the sentinel's segment check and the
    /// one `Simulation::resume` runs on a decoded state: the first broken
    /// invariant and its particle or segment index in the canonical
    /// order, or `None`.  Run per shard, it also checks that the shard
    /// owns each segment's cell: cells partition, so that is the merged
    /// array's check.
    pub(crate) fn sorted_state_fault(&self) -> Option<(&'static str, usize)> {
        let (what, me, at) = (self.shard_states().enumerate()).find_map(|(me, (p, bounds))| {
            (self.shard_fault(me, p, bounds)).map(|(what, at)| (what, me, at))
        })?;
        Some((what, self.canonical_index(me, at)))
    }

    fn shard_fault(
        &self,
        me: usize,
        p: &ParticleStore,
        bounds: &[u32],
    ) -> Option<(&'static str, FaultAt)> {
        const BOUNDS: &str = "segment bounds inconsistent with the population";
        const ORDER: &str = "particle order is not a sorted segment table";
        let total = self.total_cells();
        let cfg = self.config();
        let res = ResLayout::for_cells(cfg.reservoir_cells);
        let res_base = self.reservoir_base();
        let n = p.len();
        if bounds.first() != Some(&0) || bounds.last() != Some(&(n as u32)) {
            return Some((BOUNDS, FaultAt::Segment(0)));
        }
        let mut prev_cell: Option<u32> = None;
        for (s, w) in bounds.windows(2).enumerate() {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            if lo >= hi {
                return Some((BOUNDS, FaultAt::Segment(s)));
            }
            let cell = p.cell[lo];
            if cell >= total {
                return Some(("cell index beyond the grid", FaultAt::Segment(s)));
            }
            if self.layout().owner(cell) != me {
                return Some(("segment cell owned by another shard", FaultAt::Segment(s)));
            }
            if prev_cell.is_some_and(|prev| cell <= prev) {
                return Some((ORDER, FaultAt::Segment(s)));
            }
            prev_cell = Some(cell);
            if let Some(i) = (lo..hi).find(|&i| p.cell[i] != cell) {
                return Some((ORDER, FaultAt::Row(i)));
            }
        }
        let v = [&p.u, &p.v, &p.w, &p.r1, &p.r2];
        for i in 0..n {
            // Flow cells row-major in the tunnel, reservoir cells in the box.
            let (base, w, h) = if p.cell[i] < res_base {
                (0, cfg.tunnel_w, cfg.tunnel_h)
            } else {
                (res_base, res.w, res.h)
            };
            let (ix, iy) = (p.x[i].floor_int(), p.y[i].floor_int());
            let inside = ix >= 0 && iy >= 0 && (ix as u32) < w && (iy as u32) < h;
            if !inside || p.cell[i] != base + iy as u32 * w + ix as u32 {
                return Some(("particle position disagrees with its cell", FaultAt::Row(i)));
            }
            if v.iter().any(|c| c[i].raw().unsigned_abs() >= MAX_SPEED_RAW) {
                return Some(("velocity beyond the Q8.23 speed bound", FaultAt::Row(i)));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::FaultTarget;

    fn small_sim(steps: u64) -> Simulation {
        let mut sim = Simulation::new(SimConfig::small_test());
        for _ in 0..steps {
            sim.step();
        }
        sim
    }

    #[test]
    fn healthy_run_never_trips() {
        let mut sim = small_sim(0);
        let sentinel = Sentinel::arm(&sim);
        for _ in 0..5 {
            for _ in 0..10 {
                sim.step();
            }
            sentinel.check(&sim).expect("healthy run must pass");
        }
    }

    #[test]
    fn w_column_corruption_trips_a_ledger_check() {
        let mut sim = small_sim(10);
        let sentinel = Sentinel::arm(&sim);
        sim.inject_fault(FaultTarget::OutOfPlaneVelocity, 7);
        let err = sentinel.check(&sim).expect_err("must trip");
        assert!(
            matches!(
                err,
                SentinelError::MomentumBudgetBlown { .. } | SentinelError::EnergyPinBroken { .. }
            ),
            "unexpected trip: {err}"
        );
        // And it persists: w does not advect, so the ledgers stay hot.
        for _ in 0..5 {
            sim.step();
        }
        sentinel.check(&sim).expect_err("still tripped after steps");
    }

    #[test]
    fn u_spike_trips_the_halo_scan_then_the_tracked_max() {
        let mut sim = small_sim(10);
        let sentinel = Sentinel::arm(&sim);
        sim.inject_fault(FaultTarget::StreamwiseVelocity, 3);
        match sentinel.check(&sim).expect_err("must trip") {
            SentinelError::VelocityHaloExceeded { max_raw, bound_raw } => {
                assert!(max_raw > bound_raw);
            }
            other => panic!("unexpected trip: {other}"),
        }
        // Even after the particle advects (and possibly exits), the
        // engine's monotone observed-max keeps the evidence.
        for _ in 0..5 {
            sim.step();
        }
        match sentinel.check(&sim).expect_err("tracked max remembers") {
            SentinelError::VelocityHaloExceeded { .. } => {}
            other => panic!("unexpected trip: {other}"),
        }
    }

    #[test]
    fn cell_rotation_trips_segment_consistency() {
        let mut sim = small_sim(10);
        let sentinel = Sentinel::arm(&sim);
        sim.inject_fault(FaultTarget::CellIndex, 11);
        match sentinel.check(&sim).expect_err("must trip") {
            SentinelError::SegmentsBroken { .. } => {}
            other => panic!("unexpected trip: {other}"),
        }
    }

    #[test]
    fn sentinel_checks_consume_no_rng_and_leave_state_untouched() {
        let mut a = small_sim(20);
        let mut b = small_sim(20);
        let sentinel = Sentinel::arm(&a);
        for _ in 0..3 {
            for _ in 0..7 {
                a.step();
                b.step();
            }
            sentinel.check(&a).unwrap();
        }
        assert_eq!(a.state_hash(), b.state_hash());
    }
}
