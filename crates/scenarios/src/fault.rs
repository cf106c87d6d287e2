//! Deterministic fault injection for the run supervisor.
//!
//! A [`FaultPlan`] is a step-indexed schedule of [`Fault`]s, fixed before
//! the run starts.  Determinism is the whole point: a supervised run with
//! a plan must converge to the *same* `state_hash` as an uninterrupted
//! run, and that assertion is only meaningful if the faults land at
//! reproducible steps.  Each planned fault fires exactly once —
//! [`FaultPlan::take`] removes it — so replaying past the injection step
//! after a recovery does not re-injure the run.
//!
//! The plan is a test/chaos surface, not production behaviour: an empty
//! plan ([`FaultPlan::none`]) is the default everywhere, and the
//! supervisor's handling of *real* faults (torn checkpoint on disk, a
//! sick simulation) shares the exact code paths these exercise.

use dsmc_engine::FaultTarget;
use dsmc_state::store::CheckpointStore;

/// One injectable failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Corrupt a particle column in-memory via
    /// [`dsmc_engine::Simulation::inject_fault`] — the sentinels must
    /// catch it and the supervisor must replay from a clean checkpoint.
    ///
    /// `CellIndex` faults self-heal after one step (the move phase
    /// recomputes the column from positions), so schedule them on
    /// sentinel boundaries; the velocity classes persist and may land
    /// anywhere.
    CorruptColumn {
        /// Which column to damage.
        target: FaultTarget,
        /// Deterministic placement salt (selects the victim slot).
        salt: u64,
    },
    /// Simulated hard crash of the step loop: the supervisor abandons
    /// the in-memory simulation and recovers from disk, exactly as after
    /// a real `kill -9` + restart (which the integration suite also
    /// exercises out-of-process).
    Crash,
    /// The next due checkpoint save reports an I/O error instead of
    /// persisting (disk full, volume detached).  The supervisor logs it
    /// and keeps running on the older retained checkpoints.
    SaveIoError,
    /// Truncate the newest on-disk checkpoint to half its length — a
    /// torn write the recovery scan must step over.
    TruncateCheckpoint,
    /// Flip one payload byte in the newest on-disk checkpoint — silent
    /// media corruption the container checksum must reject.
    FlipCheckpointByte,
    /// Hard process death at the step boundary: the supervisor sends
    /// itself `SIGKILL` (no unwinding, no cleanup — the real `kill -9`
    /// shape).  Only the campaign executor's process isolation survives
    /// this one; it is the worker-crash arm of [`CampaignFaultPlan`].
    KillHard,
    /// Park the step loop forever, simulating a hang (livelock, NFS
    /// stall).  Nothing in-process recovers from it; the campaign
    /// executor's wall-clock timeout must reap the worker.
    Stall,
}

/// A deterministic, fire-once schedule of faults `F`, each pinned to a
/// key `K` — a step boundary for the supervisor ([`FaultPlan`]), a
/// (run, attempt) cell for the campaign executor ([`CampaignFaultPlan`]).
#[derive(Clone, Debug)]
pub struct Plan<K, F> {
    faults: Vec<(K, F)>,
}

impl<K, F> Default for Plan<K, F> {
    fn default() -> Self {
        Self { faults: Vec::new() }
    }
}

impl<K: PartialEq, F: Copy> Plan<K, F> {
    /// The empty plan (production default: inject nothing).
    pub fn none() -> Self {
        Self::default()
    }

    /// Single-fault plan.
    pub fn at(key: K, fault: F) -> Self {
        Self::none().and(key, fault)
    }

    /// Add another fault (builder style).
    pub fn and(mut self, key: K, fault: F) -> Self {
        self.faults.push((key, fault));
        self
    }

    /// Whether any faults remain unfired.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned `(key, fault)` pairs still pending, in insertion order.
    pub fn pending(&self) -> &[(K, F)] {
        &self.faults
    }

    /// Remove and return every fault scheduled at exactly `key`.  Each
    /// fault fires once: after a recovery replays past a step, nothing
    /// re-fires.  (A resumed campaign that re-launches the same attempt
    /// number re-takes from *its own* plan copy — the journal, not the
    /// plan, is what survives an executor crash.)
    pub fn take(&mut self, key: K) -> Vec<F> {
        let mut fired = Vec::new();
        self.faults.retain(|(k, f)| {
            let fire = *k == key;
            if fire {
                fired.push(*f);
            }
            !fire
        });
        fired
    }
}

/// The supervisor's plan: keyed by the step (0-based boundary, before
/// stepping) at which each [`Fault`] fires.
pub type FaultPlan = Plan<u64, Fault>;

impl FaultPlan {
    /// Derive a mixed-class chaos schedule from a seed, for a run of
    /// `total_steps` with sentinel checks every `sentinel_every` steps.
    ///
    /// Pure function of its arguments (splitmix64 over the seed): one
    /// persistent column corruption in the first half, one checkpoint
    /// damage in the middle, one crash in the final third, and a
    /// cell-index corruption pinned to a sentinel boundary.
    pub fn seeded(seed: u64, total_steps: u64, sentinel_every: u64) -> Self {
        let mut s = seed;
        let mut next = move || {
            // splitmix64: tiny, deterministic, and not a stream the
            // engine shares, so injection cannot perturb trajectories.
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let span = total_steps.max(8);
        let in_range = |r: u64, lo: u64, hi: u64| lo + r % (hi - lo).max(1);
        let r1 = next();
        let r2 = next();
        let r3 = next();
        let r4 = next();
        let cell_step = {
            let raw = in_range(next(), span / 4, span / 2);
            (raw / sentinel_every.max(1)) * sentinel_every.max(1)
        };
        Self::at(
            in_range(r1, span / 8, span / 2),
            Fault::CorruptColumn {
                target: FaultTarget::OutOfPlaneVelocity,
                salt: r2,
            },
        )
        .and(
            in_range(r3, span / 2, 2 * span / 3),
            if r3 % 2 == 0 {
                Fault::TruncateCheckpoint
            } else {
                Fault::FlipCheckpointByte
            },
        )
        .and(in_range(r4, 2 * span / 3, span), Fault::Crash)
        .and(
            cell_step,
            Fault::CorruptColumn {
                target: FaultTarget::CellIndex,
                salt: r4,
            },
        )
    }
}

/// One campaign-level failure, injected into a specific worker attempt.
///
/// `Kill` and `Stall` travel to the worker process as supervisor plan
/// entries ([`Fault::KillHard`] / [`Fault::Stall`]) so they land at a
/// deterministic step boundary; `CorruptCheckpoint` is executed by the
/// *executor* itself, damaging the newest checkpoint in the run's cache
/// directory just before the attempt launches (the retry must scan past
/// it or cold-restart).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CampaignFault {
    /// Worker self-`SIGKILL`s at this protocol step.
    Kill {
        /// Step boundary the process dies at.
        at_step: u64,
    },
    /// Worker hangs at this protocol step until the timeout reaps it.
    Stall {
        /// Step boundary the process stalls at.
        at_step: u64,
    },
    /// Flip a byte in the newest cached checkpoint before launching.
    CorruptCheckpoint,
}

/// The campaign executor's plan — the [`FaultPlan`] idea lifted to the
/// fleet, keyed by (zero-based run index, one-based attempt): every
/// robustness-policy branch (retry, timeout, quarantine, checkpoint-cache
/// recovery) is pinned by a reproducible schedule, not by racing real
/// failures.
pub type CampaignFaultPlan = Plan<(usize, u32), CampaignFault>;

/// How [`damage_newest`] injures a checkpoint file.
#[derive(Clone, Copy)]
pub(crate) enum CheckpointDamage {
    /// Cut the file to half its length (a torn write).
    Truncate,
    /// Flip one payload byte (silent media corruption).
    FlipByte,
}

/// Damage the newest checkpoint in `store` on disk and describe what was
/// done — the one injection behind [`Fault::TruncateCheckpoint`],
/// [`Fault::FlipCheckpointByte`] and [`CampaignFault::CorruptCheckpoint`].
pub(crate) fn damage_newest(store: &CheckpointStore, kind: CheckpointDamage) -> String {
    let Some((step, path)) = store.candidates().ok().and_then(|c| c.into_iter().next()) else {
        return "no checkpoint on disk to damage".into();
    };
    let Ok(mut bytes) = std::fs::read(&path) else {
        return format!("could not read checkpoint at step {step} to damage it");
    };
    let mid = bytes.len() / 2;
    match kind {
        CheckpointDamage::Truncate => {
            let _ = std::fs::write(&path, &bytes[..mid]);
            format!("truncated checkpoint at step {step} to half length")
        }
        CheckpointDamage::FlipByte => {
            if let Some(b) = bytes.get_mut(mid) {
                *b ^= 0x01;
            }
            let _ = std::fs::write(&path, &bytes);
            format!("flipped a byte in checkpoint at step {step}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_exactly_once() {
        let mut plan = FaultPlan::at(10, Fault::Crash)
            .and(10, Fault::SaveIoError)
            .and(
                20,
                Fault::CorruptColumn {
                    target: FaultTarget::OutOfPlaneVelocity,
                    salt: 3,
                },
            );
        assert!(plan.take(5).is_empty());
        assert_eq!(plan.take(10), vec![Fault::Crash, Fault::SaveIoError]);
        assert!(plan.take(10).is_empty(), "no re-fire on replay");
        assert_eq!(plan.take(20).len(), 1);
        assert!(plan.is_empty());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        let a = FaultPlan::seeded(42, 1000, 25);
        let b = FaultPlan::seeded(42, 1000, 25);
        assert_eq!(a.pending(), b.pending());
        assert_ne!(
            a.pending(),
            FaultPlan::seeded(43, 1000, 25).pending(),
            "different seeds, different schedules"
        );
        for &(step, fault) in a.pending() {
            assert!(step < 1000, "fault at {step} past end of run");
            if let Fault::CorruptColumn {
                target: FaultTarget::CellIndex,
                ..
            } = fault
            {
                assert_eq!(step % 25, 0, "cell faults pin to sentinel boundaries");
            }
        }
    }

    #[test]
    fn campaign_faults_key_on_run_and_attempt() {
        let mut plan = CampaignFaultPlan::at((0, 1), CampaignFault::Kill { at_step: 30 })
            .and((0, 2), CampaignFault::CorruptCheckpoint)
            .and((2, 1), CampaignFault::Stall { at_step: 10 });
        assert!(plan.take((1, 1)).is_empty(), "wrong run must not fire");
        assert!(plan.take((0, 3)).is_empty(), "wrong attempt must not fire");
        assert_eq!(plan.take((0, 1)), vec![CampaignFault::Kill { at_step: 30 }]);
        assert!(plan.take((0, 1)).is_empty(), "no re-fire");
        assert_eq!(plan.take((0, 2)), vec![CampaignFault::CorruptCheckpoint]);
        assert_eq!(plan.take((2, 1)).len(), 1);
        assert!(plan.is_empty());
    }
}
