//! The fused single-sweep *move phase*: motion → boundary → cell refresh
//! → key pack, in **one** parallel traversal.
//!
//! The paper's step streams every particle column through memory three
//! separate times before the sort even ranks anything: advect
//! (`motion::advect`), wall/body/plunger resolve (`boundary::enforce`),
//! and the cell-refresh + key-packing sweep (`sortstep::sort_particles`).
//! Per-particle, those three are independent — every draw comes from the
//! particle's own generator, every write touches only its own slots — so
//! they fuse into a single sweep that reads and writes the position and
//! velocity columns once per step instead of three times.  The rank that
//! follows counts every digit it scatters for itself; the sweep hands it
//! the packed pairs and nothing else.
//!
//! # Geometry-aware dispatch
//!
//! The sweep walks the *previous* step's sorted order, so particles
//! arrive grouped by cell.  A precomputed
//! [`dsmc_geom::CellClassifier`] maps each cell to what its particles
//! can possibly hit in one step (see its *halo invariant*), and
//! consecutive same-class segments merge into dispatch runs:
//!
//! * `Free` — the large majority: a branch-minimal inline loop with **no
//!   geometry tests at all** (a per-particle speed guard routes the
//!   physically absent faster-than-halo outliers through the full path,
//!   so soundness never rests on the classification alone),
//! * `Walls` — wall/plunger/outflow checks, body resolve compiled out,
//! * `Full` — the whole resolve (body cells and their halo band),
//! * `Reservoir` — periodic wrap in the reservoir strip.
//!
//! RNG consumption is unchanged relative to the separate-phase reference
//! (`motion::advect` → `boundary::enforce` → `sortstep::sort_particles`)
//! — draws happen only on actual wall hits, exits, and (Explicit mode) the
//! per-particle jitter, in the same per-stream order — so trajectories
//! are **bit-identical** to `dsmc_baselines::TwoStepSim` and golden
//! metrics never re-record.  On a plunger-withdrawal step the sweep
//! still keys every particle it leaves in the flow, but *defers* every
//! one whose post-move cell is in the reservoir
//! ([`KeyPack::defer_reservoir`]): those are the rows the refill census
//! collects, and the refill may reposition them, drawing from their own
//! streams, before their key is due.  The census keys them after the
//! refill (`sortstep::key_rows`), into the same pair buffer.

use crate::boundary::{diffuse_reemit_one, exit_redraw_one, resolve_flow_one, BoundaryParams};
use crate::config::{RngMode, WallModel};
use crate::motion::wrap;
use crate::particles::ParticleStore;
use dsmc_datapar::{pack_pair, radix_chunk_len, Par};
use dsmc_fixed::Fx;
use dsmc_geom::{Body, CellClassifier, Plunger};
use dsmc_rng::XorShift32;
use rayon::prelude::*;

/// Dispatch kind of one run of consecutive sorted segments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RunKind {
    Free = 0,
    Walls = 1,
    Full = 2,
    Reservoir = 3,
}

/// One dispatch run: particles `[start, end)` of the sorted order, all in
/// cells of the same dispatch kind.
#[derive(Clone, Copy, Debug)]
struct Run {
    start: u32,
    end: u32,
    kind: RunKind,
}

/// Per-chunk partial tallies, merged after the sweep.  Only
/// order-independent reductions (sum, max), so the merged outcome is
/// identical for any chunk grid / thread count.
#[derive(Clone, Copy, Debug, Default)]
struct ChunkStats {
    exited: u32,
    max_speed_raw: u32,
    movers: u32,
}

/// Caller-owned working state of the move phase.
#[derive(Debug, Default)]
pub struct MoveScratch {
    runs: Vec<Run>,
    stats: Vec<ChunkStats>,
}

impl MoveScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffer capacities `[runs, stats]` — asserted stable by the
    /// zero-allocation tests.
    pub fn capacities(&self) -> [usize; 2] {
        [self.runs.capacity(), self.stats.capacity()]
    }

    /// Pre-size the run table for up to `n_segments` occupied cells, so
    /// the dispatch never allocates in the step loop no matter how the
    /// occupied-cell count drifts (runs ≤ segments always).
    pub fn reserve_segments(&mut self, n_segments: usize) {
        self.runs.reserve(n_segments);
    }
}

/// Tallies of one move sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct MoveOutcome {
    /// Particles that exited downstream (moved to the reservoir).
    pub exited: u32,
    /// Largest |u|, |v| component (raw fixed-point units) observed this
    /// step *before* the move — the quantity the halo invariant bounds.
    pub max_speed_raw: u32,
    /// Particles dispatched per run kind `[Free, Walls, Full,
    /// Reservoir]`.
    pub by_kind: [u64; 4],
    /// Particles whose cell index changed during this sweep ("movers") —
    /// the temporal-coherence signal the incremental sort path keys its
    /// full-radix fallback on.  Counted from the cell column the sweep
    /// rewrites anyway, so the tally is near-free; like the other stats it
    /// is an order-independent sum, identical for any thread count.
    pub movers: u32,
}

/// Key-packing instructions for the sweep.
pub struct KeyPack<'a> {
    /// Destination for the packed `(key, index)` words, length `n`.
    pub pairs: &'a mut [u64],
    /// Bits of per-particle key jitter.
    pub jitter_bits: u32,
    /// Where the jitter comes from.
    pub rng_mode: RngMode,
    /// Leave the pair of every particle whose post-move cell is in the
    /// reservoir untouched (a plunger-withdrawal step: the refill keys
    /// them once it has moved the ones it takes).
    pub defer_reservoir: bool,
}

/// Raw column pointers for disjoint-range parallel access.  Each chunk
/// task touches only indices in its own range, so the minted `&mut`s
/// never alias.
struct Cols {
    x: *mut Fx,
    y: *mut Fx,
    u: *mut Fx,
    v: *mut Fx,
    w: *mut Fx,
    r1: *mut Fx,
    r2: *mut Fx,
    rng: *mut XorShift32,
    cell: *mut u32,
    pairs: *mut u64,
    stats: *mut ChunkStats,
}

unsafe impl Send for Cols {}
unsafe impl Sync for Cols {}

/// Constant per-sweep configuration shared by every chunk task.
#[derive(Clone, Copy)]
struct SweepCfg {
    /// The first post-move cell whose pair the sweep leaves unpacked: the
    /// reservoir base on a withdrawal step, past every cell otherwise.
    defer_from: u32,
    jitter_bits: u32,
    dirty: bool,
    halo_raw: u32,
    diffuse: bool,
    res_w: Fx,
    res_h: Fx,
    chunk: usize,
    n: usize,
}

/// The fused move phase.  `bounds` is the previous step's segment table
/// (the array must still be in that sorted order); `keys` says where the
/// packed pairs go and whether the reservoir rows wait for the refill.
/// The chunks run as rayon tasks where `par` forks, in chunk order on
/// this thread otherwise; [`radix_chunk_len`] sizes the chunks either way,
/// and the outcome does not depend on the grid.
#[allow(clippy::too_many_arguments)]
pub fn move_phase<B: Body + ?Sized>(
    parts: &mut ParticleStore,
    p: &BoundaryParams<'_, B>,
    classifier: &CellClassifier,
    plunger: &Plunger,
    bounds: &[u32],
    res_w: Fx,
    res_h: Fx,
    keys: KeyPack<'_>,
    scratch: &mut MoveScratch,
    par: Par,
) -> MoveOutcome {
    let n = parts.len();
    let mut out = MoveOutcome::default();
    if n == 0 {
        return out;
    }
    debug_assert_eq!(
        bounds.last().copied(),
        Some(n as u32),
        "segment bounds stale relative to the particle population"
    );

    // Dispatch runs from the previous sorted order: one class lookup per
    // occupied cell, merged across consecutive same-kind segments.
    scratch.runs.clear();
    let n_seg = bounds.len() - 1;
    scratch.runs.reserve(n_seg);
    for s in 0..n_seg {
        let start = bounds[s];
        let cell = parts.cell[start as usize];
        let kind = if cell >= p.res_base {
            RunKind::Reservoir
        } else {
            let class = classifier.class(cell);
            if class.needs_body() {
                RunKind::Full
            } else if class.needs_walls() {
                RunKind::Walls
            } else {
                RunKind::Free
            }
        };
        match scratch.runs.last_mut() {
            Some(last) if last.kind == kind => last.end = bounds[s + 1],
            _ => scratch.runs.push(Run {
                start,
                end: bounds[s + 1],
                kind,
            }),
        }
    }
    for run in &scratch.runs {
        out.by_kind[run.kind as usize] += (run.end - run.start) as u64;
    }

    let chunk = radix_chunk_len(n);
    let n_chunks = n.div_ceil(chunk);
    scratch.stats.clear();
    scratch.stats.resize(n_chunks, ChunkStats::default());

    assert_eq!(keys.pairs.len(), n, "pair buffer must cover the population");
    let cfg = SweepCfg {
        defer_from: if keys.defer_reservoir {
            p.res_base
        } else {
            u32::MAX
        },
        jitter_bits: keys.jitter_bits,
        dirty: matches!(keys.rng_mode, RngMode::DirtyBits),
        halo_raw: Fx::from_f64(classifier.halo()).raw() as u32,
        diffuse: matches!(p.walls, WallModel::Diffuse { .. }),
        res_w,
        res_h,
        chunk,
        n,
    };
    let cols = Cols {
        x: parts.x.as_mut_ptr(),
        y: parts.y.as_mut_ptr(),
        u: parts.u.as_mut_ptr(),
        v: parts.v.as_mut_ptr(),
        w: parts.w.as_mut_ptr(),
        r1: parts.r1.as_mut_ptr(),
        r2: parts.r2.as_mut_ptr(),
        rng: parts.rng.as_mut_ptr(),
        cell: parts.cell.as_mut_ptr(),
        pairs: keys.pairs.as_mut_ptr(),
        stats: scratch.stats.as_mut_ptr(),
    };
    let runs = &scratch.runs[..];

    let task = |c: usize| {
        // SAFETY: chunk `c` exclusively owns particle indices
        // [c·chunk, (c+1)·chunk) of every column and its own stats slot;
        // chunks partition 0..n, so no two tasks alias.  All pointers
        // outlive the parallel region (borrows of `parts`, `keys`,
        // `scratch` held by the enclosing frame).
        unsafe { sweep_chunk::<B>(c, &cols, runs, cfg, p, plunger) }
    };
    if !par.forks(n) {
        for c in 0..n_chunks {
            task(c);
        }
    } else {
        (0..n_chunks).into_par_iter().for_each(task);
    }

    for st in &scratch.stats {
        out.exited += st.exited;
        out.max_speed_raw = out.max_speed_raw.max(st.max_speed_raw);
        out.movers += st.movers;
    }
    out
}

/// Process one chunk of the population: walk the dispatch runs
/// overlapping the chunk's index range and run the matching inner loop.
///
/// # Safety
/// The caller must guarantee exclusive ownership of this chunk's index
/// range in every column `cols` points to (plus its stats slot), and
/// that all pointers are live for the duration.
#[allow(clippy::too_many_arguments)]
unsafe fn sweep_chunk<B: Body + ?Sized>(
    c: usize,
    cols: &Cols,
    runs: &[Run],
    cfg: SweepCfg,
    p: &BoundaryParams<'_, B>,
    plunger: &Plunger,
) {
    let lo = c * cfg.chunk;
    let hi = (lo + cfg.chunk).min(cfg.n);
    let mut st = ChunkStats::default();

    let mut r = runs.partition_point(|run| (run.end as usize) <= lo);
    let mut i = lo;
    while i < hi {
        let run = runs[r];
        let stop = (run.end as usize).min(hi);
        match run.kind {
            // SAFETY (all arms): indices [i, stop) ⊂ [lo, hi), this
            // chunk's exclusive range.
            RunKind::Free => unsafe { free_loop::<B>(i, stop, cols, cfg, p, plunger, &mut st) },
            RunKind::Walls => unsafe {
                geom_loop::<B, false>(i, stop, cols, cfg, p, plunger, &mut st)
            },
            RunKind::Full => unsafe {
                geom_loop::<B, true>(i, stop, cols, cfg, p, plunger, &mut st)
            },
            RunKind::Reservoir => unsafe { res_loop(i, stop, cols, cfg, p, &mut st) },
        }
        i = stop;
        if stop == run.end as usize {
            r += 1;
        }
    }
    // SAFETY: stats slot `c` belongs to this chunk alone.
    unsafe { cols.stats.add(c).write(st) };
}

/// Pack the jittered `(key, index)` pair — unless the particle's new
/// cell is deferred to the refill (a reservoir cell on a withdrawal step).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn emit_key(
    i: usize,
    cell: u32,
    x: Fx,
    u: Fx,
    rng: &mut XorShift32,
    cols: &Cols,
    cfg: SweepCfg,
) {
    if cell >= cfg.defer_from {
        return;
    }
    let jitter = if cfg.jitter_bits == 0 {
        0
    } else if cfg.dirty {
        // "it is used during the sort to enhance mixing": low-order
        // position/velocity bits as the jitter.
        (x.raw() as u32 ^ (u.raw() as u32).rotate_left(5)) & ((1 << cfg.jitter_bits) - 1)
    } else {
        rng.next_bits(cfg.jitter_bits)
    };
    let key = (cell << cfg.jitter_bits) | jitter;
    // SAFETY: slot `i` is inside the calling chunk's exclusive range.
    unsafe { cols.pairs.add(i).write(pack_pair(key, i)) };
}

/// The branch-minimal majority loop: advance, refresh, pack.  No plunger,
/// wall, outflow, or body test — the classification plus the per-particle
/// halo guard prove none can be needed.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn free_loop<B: Body + ?Sized>(
    lo: usize,
    hi: usize,
    cols: &Cols,
    cfg: SweepCfg,
    p: &BoundaryParams<'_, B>,
    plunger: &Plunger,
    st: &mut ChunkStats,
) {
    for i in lo..hi {
        // SAFETY: `i` is inside the calling chunk's exclusive range.
        unsafe {
            let u = *cols.u.add(i);
            let v = *cols.v.add(i);
            let s = (u.raw().unsigned_abs()).max(v.raw().unsigned_abs());
            if s > st.max_speed_raw {
                st.max_speed_raw = s;
            }
            if s > cfg.halo_raw {
                // Faster than the halo bound: the classification makes no
                // promise, take the full path (identical physics — and
                // identical bits — whether or not anything is hit).
                geom_one::<B, true>(i, cols, cfg, p, plunger, st);
                continue;
            }
            let x = &mut *cols.x.add(i);
            let y = &mut *cols.y.add(i);
            *x += u;
            *y += v;
            let cell = p.tunnel.cell_index(*x, *y);
            let slot = cols.cell.add(i);
            st.movers += (cell != *slot) as u32;
            *slot = cell;
            emit_key(i, cell, *x, u, &mut *cols.rng.add(i), cols, cfg);
        }
    }
}

/// The full resolve loop (`DO_BODY = true`) and its walls-only
/// specialisation (`DO_BODY = false`, body resolve compiled out).  The
/// walls-only loop keeps the same per-particle halo guard as the free
/// loop: a faster-than-halo particle in a `NearWall` cell could cross
/// the halo band and reach the body, so it takes the full path.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn geom_loop<B: Body + ?Sized, const DO_BODY: bool>(
    lo: usize,
    hi: usize,
    cols: &Cols,
    cfg: SweepCfg,
    p: &BoundaryParams<'_, B>,
    plunger: &Plunger,
    st: &mut ChunkStats,
) {
    for i in lo..hi {
        // SAFETY: `i` is inside the calling chunk's exclusive range.
        unsafe {
            let s = (*cols.u.add(i))
                .raw()
                .unsigned_abs()
                .max((*cols.v.add(i)).raw().unsigned_abs());
            if s > st.max_speed_raw {
                st.max_speed_raw = s;
            }
            if !DO_BODY && s > cfg.halo_raw {
                geom_one::<B, true>(i, cols, cfg, p, plunger, st);
            } else {
                geom_one::<B, DO_BODY>(i, cols, cfg, p, plunger, st);
            }
        }
    }
}

/// One particle through the full move: advect, resolve, re-emit/redraw,
/// refresh, pack.  Byte-identical to the separate-phase reference's
/// motion → boundary → keying sequence for this particle.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn geom_one<B: Body + ?Sized, const DO_BODY: bool>(
    i: usize,
    cols: &Cols,
    cfg: SweepCfg,
    p: &BoundaryParams<'_, B>,
    plunger: &Plunger,
    st: &mut ChunkStats,
) {
    // SAFETY: `i` is inside the calling chunk's exclusive range; each
    // reference targets a distinct column.
    unsafe {
        let x = &mut *cols.x.add(i);
        let y = &mut *cols.y.add(i);
        let u = &mut *cols.u.add(i);
        let v = &mut *cols.v.add(i);
        let w = &mut *cols.w.add(i);
        let r1 = &mut *cols.r1.add(i);
        let r2 = &mut *cols.r2.add(i);
        let rng = &mut *cols.rng.add(i);
        let cell = &mut *cols.cell.add(i);
        // The previous cell, read before any path below rewrites the slot
        // (the exit path redraws it in the reservoir).
        let prev_cell = *cell;
        *x += *u;
        *y += *v;
        let (hit, exited) = resolve_flow_one::<B, DO_BODY>(p, plunger, cfg.diffuse, x, y, u, v, *w);
        if cfg.diffuse && hit != 0 && !exited {
            diffuse_reemit_one(p.sigma_wall_raw, hit, u, v, w, r1, r2, rng);
        }
        let c = if exited {
            st.exited += 1;
            exit_redraw_one(p, x, y, u, v, w, r1, r2, cell, rng);
            *cell
        } else {
            let c = p.tunnel.cell_index(*x, *y);
            *cell = c;
            c
        };
        st.movers += (c != prev_cell) as u32;
        emit_key(i, c, *x, *u, rng, cols, cfg);
    }
}

/// Reservoir strip loop: periodic wrap, reservoir cell refresh, pack.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn res_loop<B: Body + ?Sized>(
    lo: usize,
    hi: usize,
    cols: &Cols,
    cfg: SweepCfg,
    p: &BoundaryParams<'_, B>,
    st: &mut ChunkStats,
) {
    for i in lo..hi {
        // SAFETY: `i` is inside the calling chunk's exclusive range.
        unsafe {
            let u = *cols.u.add(i);
            let v = *cols.v.add(i);
            let s = (u.raw().unsigned_abs()).max(v.raw().unsigned_abs());
            if s > st.max_speed_raw {
                st.max_speed_raw = s;
            }
            let x = &mut *cols.x.add(i);
            let y = &mut *cols.y.add(i);
            *x = wrap(*x, u, cfg.res_w);
            *y = wrap(*y, v, cfg.res_h);
            let c = p.res_base + p.res.cell(*x, *y);
            let slot = cols.cell.add(i);
            st.movers += (c != *slot) as u32;
            *slot = c;
            emit_key(i, c, *x, u, &mut *cols.rng.add(i), cols, cfg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ResLayout, WallModel};
    use crate::sortstep;
    use dsmc_geom::{NoBody, Tunnel, Wedge};
    use dsmc_rng::Perm5;

    fn fx(v: f64) -> Fx {
        Fx::from_f64(v)
    }

    /// A mixed flow/reservoir population in last-step sorted order (the
    /// move phase's precondition), with well-mixed per-particle streams.
    fn sorted_store(
        n: usize,
        tunnel: &Tunnel,
        res: ResLayout,
        seed: u32,
    ) -> (ParticleStore, Vec<u32>) {
        let mut s = ParticleStore::default();
        let mut rng = XorShift32::new(seed | 1);
        for i in 0..n {
            let reservoir = i % 5 == 0;
            let (x, y, cell) = if reservoir {
                let x = (rng.next_f64() * res.w as f64).min(res.w as f64 - 1e-6);
                let y = (rng.next_f64() * res.h as f64).min(res.h as f64 - 1e-6);
                (x, y, tunnel.n_cells() + res.cell(fx(x), fx(y)))
            } else {
                let x = (rng.next_f64() * tunnel.width as f64).min(tunnel.width as f64 - 1e-6);
                let y = (rng.next_f64() * tunnel.height as f64).min(tunnel.height as f64 - 1e-6);
                (x, y, tunnel.cell_index(fx(x), fx(y)))
            };
            let vel = core::array::from_fn(|_| fx(rng.next_f64() * 0.8 - 0.4));
            let pseed = dsmc_rng::SplitMix64::new(i as u64 + 7).next_seed32();
            s.push(
                fx(x),
                fx(y),
                vel,
                Perm5::IDENTITY,
                XorShift32::new(pseed),
                cell,
            );
        }
        // Establish sorted order + bounds exactly as the engine would.
        let kb = sortstep::key_bits_for(tunnel.n_cells() + res.total(), 0);
        let out = sortstep::sort_particles(
            &mut s,
            tunnel,
            tunnel.n_cells(),
            res,
            0,
            kb,
            RngMode::Explicit,
        );
        (s, out.bounds)
    }

    /// The contract: one move_phase sweep == advect + enforce + keying
    /// every row of the reference path, bit for bit — state, packed pairs,
    /// and exit tally.
    fn check_matches_reference(body: &dyn Body, walls: WallModel, rng_mode: RngMode) {
        let tunnel = Tunnel::new(48, 32);
        let res = ResLayout::for_cells(64);
        let (mut fused, bounds) = sorted_store(30_000, &tunnel, res, 11);
        let mut reference = fused.clone();
        let classifier = CellClassifier::build(&tunnel, body, 4.0, 1.0);
        let plunger = Plunger::new(fx(0.25), fx(4.0));
        let sigma_wall_raw = match walls {
            WallModel::Specular => 0,
            WallModel::Diffuse { t_wall } => Fx::from_f64(0.06 * t_wall.sqrt()).raw(),
        };
        let params = |surface| BoundaryParams {
            tunnel: &tunnel,
            body,
            res_base: tunnel.n_cells(),
            res,
            u_drift: fx(0.26),
            rect_half_raw: Fx::from_f64(0.1).raw(),
            n_inf: 4.0,
            walls,
            sigma_wall_raw,
            surface,
        };

        // Reference: the three separate sweeps.
        let p = params(None);
        crate::motion::advect(
            &mut reference,
            p.res_base,
            Fx::from_int(res.w as i32),
            Fx::from_int(res.h as i32),
        );
        let mut ref_plunger = plunger;
        let ref_out = crate::boundary::enforce(
            &mut reference,
            &p,
            &mut ref_plunger,
            &mut crate::boundary::BoundaryScratch::new(),
        );
        let jb = 6u32;
        let n = fused.len();
        let mut ref_ws = sortstep::SortWorkspace::new();
        sortstep::key_rows(
            &mut reference,
            &tunnel,
            p.res_base,
            res,
            jb,
            rng_mode,
            ref_ws.input_pairs(n),
            0..n as u32,
        );

        // Fused: one sweep.
        let mut ws = sortstep::SortWorkspace::new();
        let mut scratch = MoveScratch::new();
        let out = move_phase(
            &mut fused,
            &params(None),
            &classifier,
            &plunger,
            &bounds,
            Fx::from_int(res.w as i32),
            Fx::from_int(res.h as i32),
            KeyPack {
                pairs: ws.input_pairs(n),
                jitter_bits: jb,
                rng_mode,
                defer_reservoir: false,
            },
            &mut scratch,
            Par::Pool,
        );

        assert_eq!(fused.x, reference.x, "x");
        assert_eq!(fused.y, reference.y, "y");
        assert_eq!(fused.u, reference.u, "u");
        assert_eq!(fused.v, reference.v, "v");
        assert_eq!(fused.w, reference.w, "w");
        assert_eq!(fused.r1, reference.r1, "r1");
        assert_eq!(fused.r2, reference.r2, "r2");
        assert_eq!(fused.rng, reference.rng, "generator state");
        assert_eq!(fused.cell, reference.cell, "cell");
        assert_eq!(out.exited, ref_out.exited, "exit tally");
        assert_eq!(ws.input_pairs(n), ref_ws.input_pairs(n), "packed pairs");
        // Sanity on the dispatch: with a body present some particles took
        // the full path, and the free majority is the majority.
        if body.aabb().is_some() {
            assert!(out.by_kind[2] > 0, "full runs must exist");
        }
        assert!(
            out.by_kind[0] > out.by_kind[1] + out.by_kind[2],
            "free must dominate: {:?}",
            out.by_kind
        );
    }

    #[test]
    fn matches_reference_empty_tunnel() {
        check_matches_reference(&NoBody, WallModel::Specular, RngMode::Explicit);
    }

    #[test]
    fn matches_reference_wedge_diffuse_dirty() {
        let wedge = Wedge::new(12.0, 14.0, 30.0);
        check_matches_reference(
            &wedge,
            WallModel::Diffuse { t_wall: 2.0 },
            RngMode::DirtyBits,
        );
        check_matches_reference(&wedge, WallModel::Specular, RngMode::Explicit);
    }

    /// The speed tally, on a withdrawal-step sweep: every pair whose
    /// particle lands in the reservoir is left for the refill, untouched,
    /// and every other is packed.
    #[test]
    fn tracks_the_speed_bound() {
        let tunnel = Tunnel::new(48, 32);
        let res = ResLayout::for_cells(64);
        let (mut s, bounds) = sorted_store(20_000, &tunnel, res, 3);
        let classifier = CellClassifier::build(&tunnel, &NoBody, 4.0, 1.0);
        let plunger = Plunger::new(fx(0.25), fx(4.0));
        let p = BoundaryParams {
            tunnel: &tunnel,
            body: &NoBody,
            res_base: tunnel.n_cells(),
            res,
            u_drift: fx(0.26),
            rect_half_raw: Fx::from_f64(0.1).raw(),
            n_inf: 4.0,
            walls: WallModel::Specular,
            sigma_wall_raw: 0,
            surface: None,
        };
        let want: u32 =
            s.u.iter()
                .zip(&s.v)
                .map(|(u, v)| u.raw().unsigned_abs().max(v.raw().unsigned_abs()))
                .max()
                .unwrap();
        let mut scratch = MoveScratch::new();
        let mut pairs = vec![u64::MAX; s.len()];
        let out = move_phase(
            &mut s,
            &p,
            &classifier,
            &plunger,
            &bounds,
            Fx::from_int(res.w as i32),
            Fx::from_int(res.h as i32),
            KeyPack {
                pairs: &mut pairs,
                jitter_bits: 6,
                rng_mode: RngMode::Explicit,
                defer_reservoir: true,
            },
            &mut scratch,
            Par::Inline,
        );
        assert_eq!(out.max_speed_raw, want);
        let deferred = s.cell.iter().filter(|&&c| c >= p.res_base).count();
        assert!(deferred > 0 && deferred < s.len(), "both kinds of row");
        for (i, (&pair, &cell)) in pairs.iter().zip(&s.cell).enumerate() {
            assert_eq!(
                pair == u64::MAX,
                cell >= p.res_base,
                "row {i} in cell {cell}: deferred exactly when in the reservoir"
            );
        }
        assert!(
            (out.max_speed_raw as f64) < classifier.halo() * (1 << Fx::FRAC_BITS) as f64,
            "test velocities obey the halo invariant"
        );
    }

    /// The tallest strip validation admits is 255 rows, and a top-row
    /// particle stepping more than one cell up leaves the Q8.23 range if
    /// the step is added before the wrap.  The sweep must land it where
    /// `motion::advect` does: 254.9 + 1.5 wraps to 1.4.
    #[test]
    fn reservoir_wrap_survives_the_tallest_strip() {
        let tunnel = Tunnel::new(48, 32);
        let res = ResLayout::for_cells(64 * 255);
        assert_eq!(res.h, 255);
        let res_base = tunnel.n_cells();
        let (x0, y0) = (fx(10.25), fx(254.9));
        let mut s = ParticleStore::default();
        s.push(
            x0,
            y0,
            [fx(0.5), fx(1.5), Fx::ZERO, Fx::ZERO, Fx::ZERO],
            Perm5::IDENTITY,
            XorShift32::new(9),
            res_base + res.cell(x0, y0),
        );
        let mut reference = s.clone();
        let classifier = CellClassifier::build(&tunnel, &NoBody, 4.0, 1.0);
        let p = BoundaryParams {
            tunnel: &tunnel,
            body: &NoBody,
            res_base,
            res,
            u_drift: fx(0.26),
            rect_half_raw: Fx::from_f64(0.1).raw(),
            n_inf: 4.0,
            walls: WallModel::Specular,
            sigma_wall_raw: 0,
            surface: None,
        };
        let (res_w, res_h) = (Fx::from_int(res.w as i32), Fx::from_int(res.h as i32));
        let mut ws = sortstep::SortWorkspace::new();
        move_phase(
            &mut s,
            &p,
            &classifier,
            &Plunger::new(fx(0.25), fx(4.0)),
            &[0, 1],
            res_w,
            res_h,
            KeyPack {
                pairs: ws.input_pairs(1),
                jitter_bits: 4,
                rng_mode: RngMode::Explicit,
                defer_reservoir: false,
            },
            &mut MoveScratch::new(),
            Par::Inline,
        );
        assert_eq!((s.x[0], s.y[0]), (fx(10.75), fx(1.4)), "sweep");
        assert_eq!(s.cell[0], res_base + res.cell(fx(10.75), fx(1.4)));

        crate::motion::advect(&mut reference, res_base, res_w, res_h);
        assert_eq!((reference.x[0], reference.y[0]), (s.x[0], s.y[0]), "advect");
        crate::motion::advect_reverse(&mut reference, res_base, res_w, res_h);
        assert_eq!((reference.x[0], reference.y[0]), (x0, y0), "advect_reverse");
    }
}
