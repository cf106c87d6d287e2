//! Bit-exact checkpoint/restart of a running [`Simulation`].
//!
//! The contract is stronger than "approximately resumes": because every
//! run is bit-deterministic for a fixed seed, a snapshot taken at step `N`
//! and resumed to step `M` must hash identically to a run that never
//! stopped — for any `RAYON_NUM_THREADS`.  `tests/tests/state.rs` pins
//! that end to end and the `wedge-restart` registry scenario golden-pins
//! it in CI.
//!
//! What makes the contract work:
//!
//! * **Everything random lives in the particle columns.**  The engine has
//!   no hidden global generator; per-particle `XorShift32` streams (and
//!   the `Perm5` column) are serialised verbatim, so the next random draw
//!   after resume is exactly the draw the uninterrupted run would make.
//! * **The sorted order is part of the state.**  [`Simulation::resume`]
//!   installs the snapshot's segment `bounds` instead of re-sorting:
//!   a re-sort would consume one jitter draw per particle that the
//!   uninterrupted run never made.  This is why snapshots are taken at
//!   step boundaries (the only observable states) — the columns are then
//!   exactly the post-send sorted order the next step expects.
//! * **Open sampling windows are carried.**  The field and surface
//!   accumulators are exact integer sums, exported and restored verbatim,
//!   so a window that straddles a checkpoint reduces to the same field as
//!   one that never did.
//! * **The config is fingerprinted, not trusted.**  A snapshot resumes
//!   only under a configuration whose
//!   [`SimConfig::fingerprint`](crate::SimConfig::fingerprint) matches the
//!   one stored at save time; anything else is rejected with
//!   [`StateError::FingerprintMismatch`].
//!
//! Deliberately *not* serialised (reconstructed from the config instead):
//! the geometry/kinetics tables, the cell classifier (rebuilt
//! conservatively from the stored speed bound — its dispatch choices are
//! pinned bit-identical by the pipeline tests, so it is outside the
//! bit-identity surface), all scratch buffers, the stale `order`
//! permutation of the last sort (overwritten before anyone reads it), and
//! the wall-clock timing accumulators.
//!
//! The container framing (magic, version, checksum) is owned by
//! [`dsmc_state`]; the section schema lives here and is specified
//! field-by-field in the repository's `STATE.md` handbook.  Any change to
//! it must bump [`dsmc_state::FORMAT_VERSION`].

use super::shard::{cuts_span, CanonicalRuns};
use super::Simulation;
use crate::config::SimConfig;
use crate::particles::ParticleStore;
use crate::sample::{FieldAccumState, FieldAccumulator};
use crate::surface::{SurfaceAccumState, SurfaceAccumulator, SurfaceSums};
use dsmc_fixed::Fx;
use dsmc_rng::{Perm5, XorShift32};
use dsmc_state::{Cursor, Fnv64, Reader, StateError, Writer};
use std::path::Path;

/// Engine counters, plunger phase and the halo speed bound.
const SEC_CORE: [u8; 4] = *b"CORE";
/// The ten particle columns, in sorted order.
const SEC_PART: [u8; 4] = *b"PART";
/// Segment bounds of that sorted order.
const SEC_BNDS: [u8; 4] = *b"BNDS";
/// Open volume-field sampling window (optional).
const SEC_FSMP: [u8; 4] = *b"FSMP";
/// Open surface-flux sampling window (optional).
const SEC_SSMP: [u8; 4] = *b"SSMP";
/// Sharded-run manifest: shard count, column cuts, per-shard populations,
/// repartition count — present iff the engine has more than one shard.
/// Advisory (execution layout, not physics): resume only validates it,
/// restores the repartition count and warm-starts the cuts at a matching
/// shard count.
const SEC_SHRD: [u8; 4] = *b"SHRD";

/// The seven fixed-point particle columns, in the order both the `PART`
/// section and the state hash lay them out.
const FX_COLUMNS: [fn(&ParticleStore) -> &[Fx]; 7] = [
    |p| &p.x,
    |p| &p.y,
    |p| &p.u,
    |p| &p.v,
    |p| &p.w,
    |p| &p.r1,
    |p| &p.r2,
];

fn read_fx_column(c: &mut Cursor<'_>, n: usize) -> Result<Vec<Fx>, StateError> {
    let raw = c.vec_i32()?;
    if raw.len() != n {
        return Err(StateError::Malformed("particle column length mismatch"));
    }
    Ok(raw.into_iter().map(Fx::from_raw).collect())
}

impl Simulation {
    /// Serialise the complete resumable state into a self-describing
    /// snapshot (see the module docs for the exact contract): the
    /// canonical sections `CORE`, `PART`, `BNDS` and any open sampling
    /// windows — the same bytes at every shard count — plus, at several
    /// shards, the advisory `SHRD` manifest.
    ///
    /// Several shards stream their rows in canonical order, run by run,
    /// instead of merging a copy; saving reads only, so it never perturbs
    /// the trajectory and checkpoints can be taken at any cadence.
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = Writer::new(self.cfg.fingerprint());
        {
            let mut s = w.section(SEC_CORE);
            s.u64(self.steps);
            s.u64(self.candidates);
            s.u64(self.collisions);
            s.u64(self.exited);
            s.u64(self.introduced);
            s.u64(self.plunger_cycles);
            s.i32(self.plunger.face.raw());
            s.u32(self.max_speed_raw);
            for k in self.move_by_kind {
                s.u64(k);
            }
        }
        let canon = CanonicalRuns::of(&self.shards);
        {
            let n = canon.len() as u64;
            let mut s = w.section(SEC_PART);
            s.u64(n);
            for col in FX_COLUMNS {
                s.u64(n);
                for v in canon.column(col) {
                    s.i32(v.raw());
                }
            }
            s.u64(n);
            for perm in canon.column(|p| &p.perm) {
                s.u16(perm.packed());
            }
            s.u64(n);
            for rng in canon.column(|p| &p.rng) {
                s.u32(rng.state());
            }
            s.u64(n);
            for &cell in canon.column(|p| &p.cell) {
                s.u32(cell);
            }
        }
        {
            let mut s = w.section(SEC_BNDS);
            s.vec_u32(&canon.bounds);
        }
        if let Some(acc) = &self.sampler {
            let st = acc.export();
            let mut s = w.section(SEC_FSMP);
            s.u32(st.w);
            s.u32(st.h);
            s.u64(st.steps);
            s.vec_u64(&st.count);
            for v in [&st.mom_u, &st.mom_v, &st.mom_w, &st.e_trans, &st.e_rot] {
                s.vec_i64(v);
            }
        }
        if let Some(acc) = &self.surf_sampler {
            let st = acc.export();
            let mut s = w.section(SEC_SSMP);
            s.u32(st.n_facets);
            s.u64(st.steps);
            s.vec_u64(&st.count);
            for v in [&st.imp_u, &st.imp_v, &st.e_inc, &st.e_ref] {
                s.vec_i64(v);
            }
            s.u64(st.global.impacts);
            s.i64(st.global.imp_u);
            s.i64(st.global.imp_v);
            s.i64(st.global.e_inc);
            s.i64(st.global.e_ref);
        }
        if self.shards.len() > 1 {
            let mut s = w.section(SEC_SHRD);
            s.u32(self.shards.len() as u32);
            s.vec_u32(self.layout.cuts());
            let pops: Vec<u32> = self.shards.iter().map(|sh| sh.parts.len() as u32).collect();
            s.vec_u32(&pops);
            s.u64(self.repartitions);
        }
        w.finish()
    }

    /// [`Simulation::save_state`] straight to a file.
    pub fn save_state_to(&self, path: impl AsRef<Path>) -> Result<(), StateError> {
        // Atomic replacement: a crash mid-save leaves the previous
        // checkpoint intact instead of a torn file (see STATE.md,
        // "Crash safety & retention").
        dsmc_state::store::atomic_write(path, &self.save_state())
    }

    /// Rebuild a simulation at `n_shards` shards (see
    /// [`Simulation::reshard`]) from a snapshot, verifying the
    /// configuration fingerprint first; subsequent steps are bit-identical
    /// to a run that never stopped, whatever shard count either side ran
    /// at.
    ///
    /// `cfg` must be the configuration of the run that produced the
    /// snapshot (the file stores a fingerprint, not the config itself, so
    /// the caller states its intent explicitly and cannot resume a
    /// checkpoint it cannot describe).  All container damage and every
    /// semantic inconsistency is a typed [`StateError`]; a successful
    /// resume cannot crash the step loop.  The advisory `SHRD` manifest,
    /// when present, warm-starts the column cuts if it was taken at the
    /// same shard count; bit-identity never depends on it.
    pub fn resume(cfg: SimConfig, bytes: &[u8], n_shards: usize) -> Result<Self, StateError> {
        let r = Reader::new(bytes)?;
        let cfg = cfg
            .try_validated()
            .map_err(|e| StateError::InvalidConfig(e.to_string()))?;
        let expected = cfg.fingerprint();
        if r.fingerprint() != expected {
            return Err(StateError::FingerprintMismatch {
                stored: r.fingerprint(),
                expected,
            });
        }
        let mut sim = Self::shell(cfg);

        // CORE — counters and plunger phase.
        let mut c = r.section(SEC_CORE)?;
        sim.steps = c.u64()?;
        sim.candidates = c.u64()?;
        sim.collisions = c.u64()?;
        sim.exited = c.u64()?;
        sim.introduced = c.u64()?;
        sim.plunger_cycles = c.u64()?;
        let face = Fx::from_raw(c.i32()?);
        if face < Fx::ZERO || face >= sim.plunger.trigger {
            return Err(StateError::Malformed("plunger face outside [0, trigger)"));
        }
        sim.plunger.face = face;
        let max_speed_raw = c.u32()?;
        for k in sim.move_by_kind.iter_mut() {
            *k = c.u64()?;
        }
        c.done()?;

        // PART — the ten columns, in the sorted order of the save.
        let mut c = r.section(SEC_PART)?;
        let n = c.u64()? as usize;
        let mut parts = ParticleStore::default();
        parts.x = read_fx_column(&mut c, n)?;
        parts.y = read_fx_column(&mut c, n)?;
        parts.u = read_fx_column(&mut c, n)?;
        parts.v = read_fx_column(&mut c, n)?;
        parts.w = read_fx_column(&mut c, n)?;
        parts.r1 = read_fx_column(&mut c, n)?;
        parts.r2 = read_fx_column(&mut c, n)?;
        let perm_raw = c.vec_u16()?;
        let rng_raw = c.vec_u32()?;
        parts.cell = c.vec_u32()?;
        c.done()?;
        if perm_raw.len() != n || rng_raw.len() != n || parts.cell.len() != n {
            return Err(StateError::Malformed("particle column length mismatch"));
        }
        parts.perm = perm_raw
            .into_iter()
            .map(|p| Perm5::from_packed(p).ok_or(StateError::Malformed("invalid Perm5 packing")))
            .collect::<Result<_, _>>()?;
        parts.rng = rng_raw.into_iter().map(XorShift32::new).collect();
        debug_assert!(parts.check_coherent());

        // BNDS — segment bounds of that order, held to the sentinel's
        // segment check: a sorted segment table (the move phase reads
        // `cell[segment start]`, and any other order would rank and pair
        // differently at different shard counts), each particle inside the
        // cell it names, every speed inside the Q8.23 bound.
        let mut c = r.section(SEC_BNDS)?;
        let bounds = c.vec_u32()?;
        c.done()?;
        let d = &mut sim.shards[0];
        d.bounds = bounds;
        d.parts = parts;
        if let Some((what, _)) = sim.sorted_state_fault() {
            return Err(StateError::Malformed(what));
        }
        // The cell of each segment, which the refill census walks by.
        let d = &mut sim.shards[0];
        let (bounds, cells) = (&d.bounds, &d.parts.cell);
        d.seg_cell.extend(
            bounds[..bounds.len() - 1]
                .iter()
                .map(|&b| cells[b as usize]),
        );
        d.decisions.reserve(n);

        // Optional open sampling windows.
        if r.has_section(SEC_FSMP) {
            let mut c = r.section(SEC_FSMP)?;
            let st = FieldAccumState {
                w: c.u32()?,
                h: c.u32()?,
                steps: c.u64()?,
                count: c.vec_u64()?,
                mom_u: c.vec_i64()?,
                mom_v: c.vec_i64()?,
                mom_w: c.vec_i64()?,
                e_trans: c.vec_i64()?,
                e_rot: c.vec_i64()?,
            };
            c.done()?;
            // Dims first: they bound the product, so a crafted w×h cannot
            // overflow before being rejected.
            if (st.w, st.h) != (sim.tunnel.width, sim.tunnel.height) {
                return Err(StateError::Malformed("field window shape mismatch"));
            }
            let cells = (st.w * st.h) as usize;
            if st.count.len() != cells
                || st.mom_u.len() != cells
                || st.mom_v.len() != cells
                || st.mom_w.len() != cells
                || st.e_trans.len() != cells
                || st.e_rot.len() != cells
            {
                return Err(StateError::Malformed("field window shape mismatch"));
            }
            sim.sampler = Some(FieldAccumulator::restore(&st));
        }
        if r.has_section(SEC_SSMP) {
            let mut c = r.section(SEC_SSMP)?;
            let st = SurfaceAccumState {
                n_facets: c.u32()?,
                steps: c.u64()?,
                count: c.vec_u64()?,
                imp_u: c.vec_i64()?,
                imp_v: c.vec_i64()?,
                e_inc: c.vec_i64()?,
                e_ref: c.vec_i64()?,
                global: SurfaceSums {
                    impacts: c.u64()?,
                    imp_u: c.i64()?,
                    imp_v: c.i64()?,
                    e_inc: c.i64()?,
                    e_ref: c.i64()?,
                },
            };
            c.done()?;
            let facets = st.n_facets as usize;
            if st.n_facets == 0
                || st.n_facets != sim.body.n_facets()
                || st.count.len() != facets
                || st.imp_u.len() != facets
                || st.imp_v.len() != facets
                || st.e_inc.len() != facets
                || st.e_ref.len() != facets
            {
                return Err(StateError::Malformed("surface window shape mismatch"));
            }
            sim.surf_sampler = Some(SurfaceAccumulator::restore(&st));
        }

        // Re-arm the classifier against the stored speed bound (rebuilds
        // only if the flow had outgrown the config-derived halo).
        sim.track_halo(max_speed_raw);

        let mut stored_cuts = None;
        if r.has_section(SEC_SHRD) {
            let mut c = r.section(SEC_SHRD)?;
            let stored_shards = c.u32()? as usize;
            let cuts = c.vec_u32()?;
            let pops = c.vec_u32()?;
            let repartitions = c.u64()?;
            c.done()?;
            let valid = cuts.len() == stored_shards + 1
                && pops.len() == stored_shards
                && cuts_span(&cuts, sim.tunnel.width);
            if !valid {
                return Err(StateError::Malformed("sharded manifest inconsistent"));
            }
            sim.repartitions = repartitions;
            stored_cuts = Some(cuts);
        }
        // Warm-start the stored cuts if they were taken at this shard
        // count; the reshard falls back to balanced ones otherwise.
        sim.reshard_with(n_shards, stored_cuts);
        Ok(sim)
    }

    /// FNV-64 digest of the full resume-bit-identity surface: the ten
    /// particle columns, the segment bounds, the physical counters, the
    /// plunger phase, and any open sampling-window sums.
    ///
    /// Two simulations with equal hashes will produce bit-identical
    /// trajectories from here on (same config assumed); the restart tests
    /// and the `wedge-restart` scenario compare exactly this value.
    ///
    /// Several shards stream their rows in canonical order, as
    /// [`Simulation::save_state`] does, so every shard count hashes into
    /// the same space.
    pub fn state_hash(&self) -> u64 {
        let canon = CanonicalRuns::of(&self.shards);
        let mut h = Fnv64::new();
        h.u64(canon.len() as u64);
        for col in FX_COLUMNS {
            for v in canon.column(col) {
                h.i32(v.raw());
            }
        }
        for perm in canon.column(|p| &p.perm) {
            h.write(&perm.packed().to_le_bytes());
        }
        for rng in canon.column(|p| &p.rng) {
            h.u32(rng.state());
        }
        for &cell in canon.column(|p| &p.cell) {
            h.u32(cell);
        }
        for &b in canon.bounds.iter() {
            h.u32(b);
        }
        h.u64(self.steps);
        h.u64(self.candidates);
        h.u64(self.collisions);
        h.u64(self.exited);
        h.u64(self.introduced);
        h.u64(self.plunger_cycles);
        h.i32(self.plunger.face.raw());
        if let Some(acc) = &self.sampler {
            let st = acc.export();
            h.u64(st.steps);
            for v in &st.count {
                h.u64(*v);
            }
            for col in [&st.mom_u, &st.mom_v, &st.mom_w, &st.e_trans, &st.e_rot] {
                for v in col {
                    h.i64(*v);
                }
            }
        }
        if let Some(acc) = &self.surf_sampler {
            let st = acc.export();
            h.u64(st.steps);
            for v in &st.count {
                h.u64(*v);
            }
            for col in [&st.imp_u, &st.imp_v, &st.e_inc, &st.e_ref] {
                for v in col {
                    h.i64(*v);
                }
            }
            h.u64(st.global.impacts);
            h.i64(st.global.imp_u);
            h.i64(st.global.imp_v);
            h.i64(st.global.e_inc);
            h.i64(st.global.e_ref);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BodySpec, WallModel};
    use crate::engine::shard::Shard;

    fn wedge_cfg() -> SimConfig {
        let mut cfg = SimConfig::small_wedge(0.5);
        cfg.n_per_cell = 8.0;
        cfg.reservoir_fill = 16.0;
        cfg
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let mut sim = Simulation::new(SimConfig::small_test());
        sim.run(23);
        let bytes = sim.save_state();
        let back = Simulation::resume(SimConfig::small_test(), &bytes, 1).unwrap();
        assert_eq!(back.state_hash(), sim.state_hash());
        assert_eq!(back.particles().x, sim.particles().x);
        assert_eq!(back.particles().rng, sim.particles().rng);
        assert_eq!(back.particles().perm, sim.particles().perm);
        assert_eq!(back.segment_bounds(), sim.segment_bounds());
        assert_eq!(back.diagnostics(), sim.diagnostics());
    }

    #[test]
    fn resume_continues_exactly_like_an_uninterrupted_run() {
        let mut straight = Simulation::new(wedge_cfg());
        let mut a = Simulation::new(wedge_cfg());
        a.run(30);
        let bytes = a.save_state();
        let mut b = Simulation::resume(wedge_cfg(), &bytes, 1).unwrap();
        straight.run(70);
        a.run(40);
        b.run(40);
        assert_eq!(a.state_hash(), straight.state_hash(), "cold run diverged");
        assert_eq!(b.state_hash(), straight.state_hash(), "resume diverged");
    }

    #[test]
    fn open_sampling_windows_survive_the_checkpoint() {
        let mut a = Simulation::new(wedge_cfg());
        a.run(20);
        a.begin_sampling();
        a.run(15);
        let bytes = a.save_state();
        let mut b = Simulation::resume(wedge_cfg(), &bytes, 1).unwrap();
        assert_eq!(b.state_hash(), a.state_hash());
        a.run(25);
        b.run(25);
        let fa = a.finish_sampling();
        let fb = b.finish_sampling();
        assert_eq!(fa.steps, 40);
        assert_eq!(fa.density, fb.density, "window did not continue exactly");
        let sa = a.finish_surface_sampling().expect("wedge has facets");
        let sb = b.finish_surface_sampling().expect("wedge has facets");
        assert_eq!(sa.cp, sb.cp);
        assert_eq!(sa.force_x, sb.force_x);
    }

    #[test]
    fn fingerprint_gates_resume() {
        let mut sim = Simulation::new(SimConfig::small_test());
        sim.run(5);
        let bytes = sim.save_state();
        let mut other = SimConfig::small_test();
        other.seed += 1;
        assert!(matches!(
            Simulation::resume(other, &bytes, 1),
            Err(StateError::FingerprintMismatch { .. })
        ));
        let mut walls = SimConfig::small_test();
        walls.walls = WallModel::Diffuse { t_wall: 1.0 };
        assert!(matches!(
            Simulation::resume(walls, &bytes, 1),
            Err(StateError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn resumed_run_repairs_from_its_first_ordinary_step() {
        // The snapshot carries no sort scratch and needs none: the sweep
        // packs the pairs in the saved sorted order, so the first resumed
        // step already repairs — and the trajectory matches a twin that
        // ranks from scratch every step.
        let mut sim = Simulation::new(SimConfig::small_test());
        sim.run(10);
        let bytes = sim.save_state();
        let mut a = Simulation::resume(SimConfig::small_test(), &bytes, 1).unwrap();
        let mut b = Simulation::resume(SimConfig::small_test(), &bytes, 1).unwrap();
        b.set_mover_threshold(0.0);
        assert!(!a.plunger.will_withdraw(), "an ordinary first step");
        a.step();
        assert_eq!(a.sort_path_counts(), (1, 0), "first resumed step");
        a.run(14);
        b.run(15);
        assert_eq!(a.state_hash(), b.state_hash());
        assert_eq!(b.sort_path_counts().0, 0);
    }

    #[test]
    fn exec_mode_is_outside_the_fingerprint() {
        // Serial and Threaded shard execution are pinned bit-identical
        // by the shard_exec suite, so a checkpoint saved under one mode
        // resumes under the other — including into a sharded engine at
        // any worker count.
        let mut serial_cfg = SimConfig::small_test();
        serial_cfg.exec = crate::config::ExecMode::Serial;
        let mut sim = Simulation::new(serial_cfg.clone());
        sim.run(10);
        let bytes = sim.save_state();
        let mut threaded_cfg = serial_cfg.clone();
        threaded_cfg.exec = crate::config::ExecMode::Threaded { workers: 2 };
        let mut a = Simulation::resume(serial_cfg, &bytes, 1).unwrap();
        let mut b = Simulation::resume(threaded_cfg, &bytes, 2).unwrap();
        a.run(15);
        b.run(15);
        assert_eq!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn corrupt_and_truncated_snapshots_are_rejected() {
        let mut sim = Simulation::new(SimConfig::small_test());
        sim.run(3);
        let bytes = sim.save_state();
        // A flip anywhere must be caught by the container checksum.
        for at in [0, bytes.len() / 3, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(Simulation::resume(SimConfig::small_test(), &bad, 1).is_err());
        }
        for n in [0, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(Simulation::resume(SimConfig::small_test(), &bytes[..n], 1).is_err());
        }
    }

    #[test]
    fn snapshots_out_of_sorted_segment_order_are_rejected() {
        // Each of these used to resume and then step to a different
        // state at one shard than at four.
        let mut sim = Simulation::new(SimConfig::small_test());
        sim.run(5);
        let bytes = sim.save_state();
        let tamper = |edit: fn(&mut Shard)| {
            let mut bad = Simulation::resume(SimConfig::small_test(), &bytes, 1).unwrap();
            edit(&mut bad.shards[0]);
            bad.save_state()
        };
        let swapped_across_segments = tamper(|d| {
            let (a, b) = (d.bounds[0] as usize, d.bounds[1] as usize);
            d.parts.cell.swap(a, b);
        });
        let one_segment = tamper(|d| d.bounds = vec![0, d.parts.len() as u32]);
        let reversed = tamper(|d| {
            let n = d.parts.len() as u32;
            let p = &mut d.parts;
            for col in [
                &mut p.x, &mut p.y, &mut p.u, &mut p.v, &mut p.w, &mut p.r1, &mut p.r2,
            ] {
                col.reverse();
            }
            p.perm.reverse();
            p.rng.reverse();
            p.cell.reverse();
            d.bounds = d.bounds.iter().rev().map(|&b| n - b).collect();
        });
        for (what, bad) in [
            ("swapped", swapped_across_segments),
            ("one segment", one_segment),
            ("reversed", reversed),
        ] {
            assert!(
                matches!(
                    Simulation::resume(SimConfig::small_test(), &bad, 1),
                    Err(StateError::Malformed(
                        "particle order is not a sorted segment table"
                    ))
                ),
                "{what} snapshot accepted"
            );
        }
        assert!(Simulation::resume(SimConfig::small_test(), &bytes, 4).is_ok());
    }

    #[test]
    fn a_segment_past_the_grid_is_refused_before_the_reshard() {
        // The last segment renamed to cell `total_cells`, still sorted and
        // resealed by the writer: the shard owner table has no entry for
        // it, so the resume must refuse it before scattering.
        let mut sim = Simulation::new(SimConfig::small_test());
        sim.run(5);
        let mut bad = Simulation::resume(SimConfig::small_test(), &sim.save_state(), 1).unwrap();
        let total = bad.total_cells();
        let d = &mut bad.shards[0];
        let last = d.bounds[d.bounds.len() - 2] as usize;
        d.parts.cell[last..].fill(total);
        let bytes = bad.save_state();
        assert!(matches!(
            Simulation::resume(SimConfig::small_test(), &bytes, 4),
            Err(StateError::Malformed("cell index beyond the grid"))
        ));
    }

    #[test]
    fn snapshots_cover_every_body_and_rng_mode() {
        for body in [
            BodySpec::None,
            BodySpec::Step {
                x0: 6.0,
                x1: 8.0,
                h: 3.0,
            },
            BodySpec::Cylinder {
                cx: 8.0,
                cy: 6.0,
                r: 2.0,
            },
        ] {
            for rng_mode in [
                crate::config::RngMode::Explicit,
                crate::config::RngMode::DirtyBits,
            ] {
                let mut cfg = SimConfig::small_test();
                cfg.body = body.clone();
                cfg.rng_mode = rng_mode;
                let mut straight = Simulation::new(cfg.clone());
                let mut a = Simulation::new(cfg.clone());
                a.run(12);
                let mut b = Simulation::resume(cfg.clone(), &a.save_state(), 1).unwrap();
                b.run(8);
                straight.run(20);
                assert_eq!(
                    b.state_hash(),
                    straight.state_hash(),
                    "resume diverged for {body:?}/{rng_mode:?}"
                );
            }
        }
    }
}
