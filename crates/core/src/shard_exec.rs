//! The per-shard phase executor: fan a closure out over the shards on a
//! pool of scoped worker threads (or run it inline on the coordinator),
//! converting worker panics into a typed [`ShardExecError`].
//!
//! This is a child module of `shard.rs` so the phase closures can borrow
//! the private `Shard` state directly.  The shape is deliberately
//! fork-join *per phase*, not a long-lived message-passing pool: the
//! sharded step already synchronizes at three coordinator barriers (the
//! repartition check, the plunger census merge, and the segment-parity
//! prefix), so a phase is exactly the span between
//! two barriers and `std::thread::scope` gives workers free borrowing of
//! the coordinator's state for that span.
//!
//! # One layer of parallelism
//!
//! The executor also decides, once, whether a phase's primitives may fork
//! into the rayon pool, and hands that [`Par`] to every phase closure.  The
//! rule: the rayon thread count sizes the pool that one-shard, `Serial`
//! and one-worker runs fork into; threaded workers that are at least as
//! many as the pool's threads never enter it.  Such workers already cover the cores, so forking from them only queues
//! their work behind each other's in the one global pool — the CM-2's one
//! layer, where a physical processor loops over its block of virtual
//! processors, is the shard worker looping over its shard.
//!
//! # Why determinism survives
//!
//! A phase closure touches only its own shard's columns/scratch/RNG
//! streams (and, packing crossers, its own outbox row, which other shards
//! read only in a later phase) plus, read-only, the simulation's global
//! state — with the single exception of the field/surface
//! accumulators, whose integer-atomic `fetch_add`s are exact and
//! order-independent.  Every quantity that
//! feeds back into the trajectory or a ledger (census merges, parities,
//! mover counts) is reduced by the coordinator in shard-index order from
//! the returned per-shard values.  Scheduling therefore cannot
//! reorder anything observable; `tests/tests/shard_exec.rs` pins the
//! claim across shard × worker × thread-count matrices.

use crate::config::ExecMode;
use dsmc_datapar::Par;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A shard worker panicked during a phase.  The panic is caught at the
/// phase boundary and surfaced as this typed error instead of unwinding
/// through (or aborting) the coordinator, so supervisors can log the
/// failing shard and recover from a checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardExecError {
    /// Index of the shard whose worker panicked (the lowest such index
    /// when several panic in the same phase).
    pub shard: usize,
    /// The phase that was running (`"move"`, `"sort"`, `"collide"`,
    /// `"sample"`).
    pub phase: &'static str,
    /// The panic payload, when it was a string (the usual case).
    pub message: String,
}

impl std::fmt::Display for ShardExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} panicked in the {} phase: {}",
            self.shard, self.phase, self.message
        )
    }
}

impl std::error::Error for ShardExecError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The executor: the resolved execution mode of one simulation.  Built
/// from [`ExecMode`], the shard count and the rayon pool's size whenever
/// the shard count is set; `run_phase` then drives every per-shard phase.
#[derive(Clone, Copy, Debug)]
pub(in crate::engine) struct ShardExec {
    /// Resolved worker count (`1` = run inline on the coordinator).
    workers: usize,
    /// Whether the phases' primitives fork into the rayon pool.
    par: Par,
    /// Whether this is the Serial executable-spec path.  Serial differs
    /// from `Threaded { workers: 1 }` only in panic behaviour: the spec
    /// path lets panics unwind normally, the threaded path always
    /// converts them to [`ShardExecError`] (so a one-worker threaded run
    /// exercises the same machinery as a wide one).
    serial: bool,
}

impl ShardExec {
    pub(in crate::engine) fn new(mode: ExecMode, n_shards: usize) -> Self {
        let workers = mode.resolved_workers(n_shards);
        Self {
            workers,
            par: resolve_par(workers, rayon::current_num_threads()),
            serial: mode == ExecMode::Serial,
        }
    }

    /// Resolved worker count.
    pub(super) fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f(shard_index, shard, par)` over every element of `items`, in
    /// parallel across the resolved workers, and return the per-shard
    /// results **in shard-index order** — the coordinator reduces from
    /// that vector, which is what keeps reductions deterministic.  `par`
    /// is the executor's resolved [`Par`], for the closure's primitives.
    ///
    /// Generic over the item type (rather than hard-coded to `Shard`) so
    /// the executor's own unit tests can drive it without building a
    /// simulation.
    pub(super) fn run_phase<I, T, F>(
        &self,
        items: &mut [I],
        phase: &'static str,
        f: F,
    ) -> Result<Vec<T>, ShardExecError>
    where
        I: Send,
        T: Send,
        F: Fn(usize, &mut I, Par) -> T + Sync,
    {
        let par = self.par;
        if self.serial {
            // The executable spec: plain loop, panics unwind normally.
            return Ok(items
                .iter_mut()
                .enumerate()
                .map(|(i, item)| f(i, item, par))
                .collect());
        }
        let n = items.len();
        let w = self.workers.min(n.max(1));
        let mut slots: Vec<Option<Result<T, String>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        // Contiguous chunks, one per worker; the coordinator takes the
        // first chunk itself so a one-worker threaded run spawns nothing.
        let chunk = n.div_ceil(w.max(1)).max(1);
        std::thread::scope(|scope| {
            let mut item_chunks = items.chunks_mut(chunk);
            let mut slot_chunks = slots.chunks_mut(chunk);
            let first_items = item_chunks.next();
            let first_slots = slot_chunks.next();
            for (k, (ic, sc)) in item_chunks.zip(slot_chunks).enumerate() {
                let base = (k + 1) * chunk;
                let f = &f;
                scope.spawn(move || {
                    for (off, (item, slot)) in ic.iter_mut().zip(sc.iter_mut()).enumerate() {
                        *slot = Some(
                            catch_unwind(AssertUnwindSafe(|| f(base + off, item, par)))
                                .map_err(panic_message),
                        );
                    }
                });
            }
            if let (Some(ic), Some(sc)) = (first_items, first_slots) {
                for (off, (item, slot)) in ic.iter_mut().zip(sc.iter_mut()).enumerate() {
                    *slot = Some(
                        catch_unwind(AssertUnwindSafe(|| f(off, item, par))).map_err(panic_message),
                    );
                }
            }
        });
        let mut out = Vec::with_capacity(n);
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(Ok(t)) => out.push(t),
                Some(Err(message)) => {
                    return Err(ShardExecError {
                        shard: i,
                        phase,
                        message,
                    })
                }
                None => {
                    return Err(ShardExecError {
                        shard: i,
                        phase,
                        message: "worker produced no result".to_string(),
                    })
                }
            }
        }
        Ok(out)
    }
}

/// The one-layer rule: a phase's primitives run inline exactly when the
/// phases fan out over at least two workers and those workers are at
/// least as many as the rayon pool's threads.  One worker (what `Serial`
/// always resolves to) and a pool wider than the workers keep forking.
fn resolve_par(workers: usize, pool_threads: usize) -> Par {
    if workers >= 2 && workers >= pool_threads {
        Par::Inline
    } else {
        Par::Pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modes() -> Vec<ExecMode> {
        vec![
            ExecMode::Serial,
            ExecMode::Threaded { workers: 1 },
            ExecMode::Threaded { workers: 2 },
            ExecMode::Threaded { workers: 4 },
            ExecMode::Threaded { workers: 0 },
        ]
    }

    #[test]
    fn results_come_back_in_shard_index_order_for_every_width() {
        for mode in modes() {
            for n in [0usize, 1, 2, 3, 4, 7] {
                let exec = ShardExec::new(mode, n.max(1));
                let mut items: Vec<u64> = (0..n as u64).collect();
                let out = exec
                    .run_phase(&mut items, "move", |i, item, _par| {
                        *item += 100;
                        (i, *item)
                    })
                    .expect("no panics scheduled");
                let want: Vec<(usize, u64)> = (0..n).map(|i| (i, i as u64 + 100)).collect();
                assert_eq!(out, want, "{mode:?} n={n}");
            }
        }
    }

    #[test]
    fn a_worker_panic_becomes_a_typed_error_carrying_the_shard_id() {
        // Satellite contract: the panic must not abort or unwind through —
        // it surfaces as ShardExecError { shard, phase, .. }.
        for workers in [1usize, 2, 4] {
            let exec = ShardExec::new(ExecMode::Threaded { workers }, 4);
            let mut items = vec![0u8; 4];
            let err = exec
                .run_phase(&mut items, "collide", |i, _item, _par| {
                    if i == 2 {
                        panic!("injected shard failure {i}");
                    }
                })
                .expect_err("shard 2 must fail");
            assert_eq!(err.shard, 2, "workers={workers}");
            assert_eq!(err.phase, "collide");
            assert!(
                err.message.contains("injected shard failure 2"),
                "message: {}",
                err.message
            );
        }
    }

    #[test]
    fn the_lowest_panicking_shard_wins_when_several_fail() {
        let exec = ShardExec::new(ExecMode::Threaded { workers: 4 }, 4);
        let mut items = vec![0u8; 4];
        let err = exec
            .run_phase(&mut items, "sort", |i, _item, _par| {
                if i >= 1 {
                    panic!("boom {i}");
                }
            })
            .expect_err("three shards fail");
        assert_eq!(err.shard, 1);
    }

    #[test]
    fn serial_mode_lets_panics_unwind_as_the_executable_spec() {
        let exec = ShardExec::new(ExecMode::Serial, 2);
        let mut items = vec![0u8; 2];
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _ = exec.run_phase(&mut items, "move", |i, _item, _par| {
                if i == 1 {
                    panic!("spec path panics plainly");
                }
            });
        }));
        assert!(unwound.is_err(), "Serial must not catch worker panics");
    }

    #[test]
    fn worker_resolution_clamps_to_the_shard_count() {
        assert_eq!(ShardExec::new(ExecMode::Serial, 8).workers(), 1);
        assert_eq!(
            ShardExec::new(ExecMode::Threaded { workers: 16 }, 4).workers(),
            4
        );
        assert_eq!(
            ShardExec::new(ExecMode::Threaded { workers: 2 }, 4).workers(),
            2
        );
        let auto = ShardExec::new(ExecMode::Threaded { workers: 0 }, 4).workers();
        assert!((1..=4).contains(&auto));
    }

    #[test]
    fn primitives_run_inline_only_when_the_workers_cover_the_pool() {
        let threaded = |workers| ExecMode::Threaded { workers };
        // Serial is the executable spec: it resolves to one worker at any
        // shard count, so it forks whatever the widths.
        for pool in [1usize, 2, 4] {
            let workers = ExecMode::Serial.resolved_workers(4);
            assert_eq!(resolve_par(workers, pool), Par::Pool);
        }
        // One worker fans nothing out.
        for pool in [1usize, 2, 4] {
            assert_eq!(resolve_par(1, pool), Par::Pool);
        }
        // Workers >= max(2, pool threads): inline.
        assert_eq!(resolve_par(2, 1), Par::Inline);
        assert_eq!(resolve_par(2, 2), Par::Inline);
        assert_eq!(resolve_par(4, 4), Par::Inline);
        assert_eq!(resolve_par(4, 2), Par::Inline);
        // Fewer workers than pool threads: the pool keeps its work.
        assert_eq!(resolve_par(2, 4), Par::Pool);
        assert_eq!(resolve_par(3, 4), Par::Pool);

        // The executor applies the rule to the workers it resolved (the
        // shard count clamps them) and to this process's pool, and hands
        // the result to every phase closure.
        let pool = rayon::current_num_threads();
        for (mode, shards) in [
            (ExecMode::Serial, 4),
            (threaded(1), 4),
            (threaded(2), 4),
            (threaded(4), 4),
            (threaded(4), 1),
        ] {
            let exec = ShardExec::new(mode, shards);
            let want = resolve_par(exec.workers(), pool);
            assert_eq!(exec.par, want, "{mode:?} at {shards} shards");
            let mut items = vec![0u8; shards];
            let seen = exec
                .run_phase(&mut items, "move", |_i, _item, par| par)
                .expect("no panics scheduled");
            assert!(seen.iter().all(|&p| p == want), "{mode:?}: {seen:?}");
        }
        assert_eq!(
            ShardExec::new(threaded(pool.max(2)), pool.max(2)).par,
            Par::Inline
        );
    }
}
