//! Structure-of-arrays particle storage.
//!
//! One virtual processor per particle on the CM-2 becomes one SoA slot
//! here.  The *physical* state is seven fixed-point words (x⃗ 2, u⃗ 3, r⃗ 2);
//! the *computational* state adds the cell index and the permutation
//! vector — exactly the paper's decomposition — plus (in `Explicit` rng
//! mode) a 4-byte xorshift stream.
//!
//! The `cell` column doubles as the zone flag: values below the reservoir
//! base index are flow cells, values at or above it are reservoir cells.
//! Positions of reservoir particles live in the reservoir strip's own
//! coordinate system.

use dsmc_datapar::{apply_perm_with, Par};
use dsmc_fixed::Fx;
use dsmc_rng::{Perm5, XorShift32};

/// Back buffers for the sort's "send": one destination per column *type*,
/// swapped with the live column after each gather, so the seven `Fx`
/// columns rotate through one buffer and steady-state sends perform no heap
/// allocation (the population is conserved, so lengths go quiescent after
/// the first step; a shard's drift with the crossers, see
/// [`ParticleStore::extend_from`]).
#[derive(Clone, Debug, Default)]
struct BackColumns {
    fx: Vec<Fx>,
    perm: Vec<Perm5>,
    rng: Vec<XorShift32>,
}

/// SoA particle data.  All columns share a length.
#[derive(Clone, Debug, Default)]
pub struct ParticleStore {
    /// Streamwise position (tunnel frame, or reservoir frame for reservoir
    /// particles).
    pub x: Vec<Fx>,
    /// Wall-normal position.
    pub y: Vec<Fx>,
    /// Streamwise velocity.
    pub u: Vec<Fx>,
    /// Wall-normal velocity.
    pub v: Vec<Fx>,
    /// Out-of-plane velocity.
    pub w: Vec<Fx>,
    /// First rotational velocity component.
    pub r1: Vec<Fx>,
    /// Second rotational velocity component.
    pub r2: Vec<Fx>,
    /// Permutation-of-five used by the collision kernel.
    pub perm: Vec<Perm5>,
    /// Per-particle random stream (present but unused in DirtyBits mode).
    pub rng: Vec<XorShift32>,
    /// Occupied cell index (flow cells, then reservoir cells).
    pub cell: Vec<u32>,

    back: BackColumns,
}

impl ParticleStore {
    /// An empty store with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self::default();
        s.x.reserve(n);
        s.y.reserve(n);
        s.u.reserve(n);
        s.v.reserve(n);
        s.w.reserve(n);
        s.r1.reserve(n);
        s.r2.reserve(n);
        s.perm.reserve(n);
        s.rng.reserve(n);
        s.cell.reserve(n);
        s
    }

    /// Number of particles.
    #[inline]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True if no particles are stored.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Append one particle.
    #[allow(clippy::too_many_arguments)]
    pub fn push(&mut self, x: Fx, y: Fx, vel: [Fx; 5], perm: Perm5, rng: XorShift32, cell: u32) {
        self.x.push(x);
        self.y.push(y);
        self.u.push(vel[0]);
        self.v.push(vel[1]);
        self.w.push(vel[2]);
        self.r1.push(vel[3]);
        self.r2.push(vel[4]);
        self.perm.push(perm);
        self.rng.push(rng);
        self.cell.push(cell);
    }

    /// Append every particle of `other` behind this store's own — the
    /// sharded engine's arrivals, which wait at the tail for the send that
    /// folds them into sorted order.  A column that must grow takes an
    /// eighth of headroom on top, once, instead of doubling: a shard's
    /// population drifts by a percent a step, and the send rotates every
    /// buffer through this call.
    pub fn extend_from(&mut self, other: &ParticleStore) {
        fn append<T: Copy>(col: &mut Vec<T>, tail: &[T]) {
            let need = col.len() + tail.len();
            if col.capacity() < need {
                col.reserve_exact(need + need / 8 - col.len());
            }
            col.extend_from_slice(tail);
        }
        append(&mut self.x, &other.x);
        append(&mut self.y, &other.y);
        append(&mut self.u, &other.u);
        append(&mut self.v, &other.v);
        append(&mut self.w, &other.w);
        append(&mut self.r1, &other.r1);
        append(&mut self.r2, &other.r2);
        append(&mut self.perm, &other.perm);
        append(&mut self.rng, &other.rng);
        append(&mut self.cell, &other.cell);
    }

    /// The five velocity components of particle `i`.
    #[inline]
    pub fn velocity5(&self, i: usize) -> [Fx; 5] {
        [self.u[i], self.v[i], self.w[i], self.r1[i], self.r2[i]]
    }

    /// Overwrite the five velocity components of particle `i`.
    #[inline]
    pub fn set_velocity5(&mut self, i: usize, vel: [Fx; 5]) {
        self.u[i] = vel[0];
        self.v[i] = vel[1];
        self.w[i] = vel[2];
        self.r1[i] = vel[3];
        self.r2[i] = vel[4];
    }

    /// Re-order every column by `order` (`new[i] = old[order[i]]`): the
    /// reference form of the "router send" that follows the rank step of
    /// the CM-2 sort — ten gathers, the `cell` column included.  The
    /// separate-phase reference sort (`sortstep::sort_particles`) and unit
    /// tests call it; the engine's send is
    /// [`ParticleStore::apply_order_no_cell`] plus a refill of `cell` from
    /// the rank's bounds.
    ///
    /// `order` need not be a permutation of the store: a shard's send
    /// gathers `order.len()` rows out of its residents plus the arrivals
    /// behind them, and the store ends up `order.len()` long.  An index
    /// past the last row panics.
    pub fn apply_order(&mut self, order: &[u32]) {
        self.apply_order_no_cell(order, Par::Pool);
        let mut cell = Vec::new();
        dsmc_datapar::apply_perm(&self.cell, order, &mut cell);
        self.cell = cell;
    }

    /// The hot loop's send: one gather per physical-state column through
    /// the rotating back buffer, which makes each gather's destination the
    /// pages just read as the previous column's source (L2-hot writes).
    /// Each gather forks into the rayon pool above `PAR_THRESHOLD` on
    /// [`Par::Pool`] — the single-domain engine, `Serial` and one-worker
    /// sharded runs — and never on [`Par::Inline`], what threaded shard
    /// workers at least as many as the pool's threads pass.
    ///
    /// Nine gathers, not ten: the sorted `cell` column is fully determined
    /// by the rank's `(bounds, seg_cells)` — the caller re-materialises
    /// it with `dsmc_datapar::fill_cells_from_bounds` (sequential stores)
    /// instead of gathering it (random reads), dropping one router trip
    /// from the send.  After this call and before that fill, the `cell`
    /// column is *stale* (still in pre-sort order, at its pre-sort length).
    pub fn apply_order_no_cell(&mut self, order: &[u32], par: Par) {
        for col in [
            &mut self.x,
            &mut self.y,
            &mut self.u,
            &mut self.v,
            &mut self.w,
            &mut self.r1,
            &mut self.r2,
        ] {
            apply_perm_with(col, order, &mut self.back.fx, par);
            core::mem::swap(col, &mut self.back.fx);
        }
        apply_perm_with(&self.perm, order, &mut self.back.perm, par);
        core::mem::swap(&mut self.perm, &mut self.back.perm);
        apply_perm_with(&self.rng, order, &mut self.back.rng, par);
        core::mem::swap(&mut self.rng, &mut self.back.rng);
    }

    /// Capacities of the send back-buffers `[fx, perm, rng]` (for
    /// allocation-stability asserts in the zero-allocation tests).
    pub fn back_buffer_capacities(&self) -> [usize; 3] {
        [
            self.back.fx.capacity(),
            self.back.perm.capacity(),
            self.back.rng.capacity(),
        ]
    }

    /// Exact total momentum (raw units) of the five velocity components.
    pub fn total_momentum_raw(&self) -> [i64; 5] {
        let mut m = [0i64; 5];
        for i in 0..self.len() {
            m[0] += self.u[i].raw() as i64;
            m[1] += self.v[i].raw() as i64;
            m[2] += self.w[i].raw() as i64;
            m[3] += self.r1[i].raw() as i64;
            m[4] += self.r2[i].raw() as i64;
        }
        m
    }

    /// Exact total kinetic energy (Σ over particles and 5 components of
    /// raw², in raw² units).
    pub fn total_energy_raw(&self) -> i128 {
        let mut e = 0i128;
        for i in 0..self.len() {
            e += (self.u[i].sq_raw_wide()
                + self.v[i].sq_raw_wide()
                + self.w[i].sq_raw_wide()
                + self.r1[i].sq_raw_wide()
                + self.r2[i].sq_raw_wide()) as i128;
        }
        e
    }

    /// Debug invariant: every column has the same length.
    pub fn check_coherent(&self) -> bool {
        let n = self.len();
        self.y.len() == n
            && self.u.len() == n
            && self.v.len() == n
            && self.w.len() == n
            && self.r1.len() == n
            && self.r2.len() == n
            && self.perm.len() == n
            && self.rng.len() == n
            && self.cell.len() == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx(v: f64) -> Fx {
        Fx::from_f64(v)
    }

    fn store_of(n: usize) -> ParticleStore {
        let mut s = ParticleStore::with_capacity(n);
        for i in 0..n {
            let f = i as f64;
            s.push(
                fx(f * 0.5),
                fx(f * 0.25),
                [fx(0.1), fx(-0.1), fx(0.2), fx(0.0), fx(0.05)],
                Perm5::IDENTITY,
                XorShift32::new(i as u32 + 1),
                i as u32 % 7,
            );
        }
        s
    }

    #[test]
    fn push_and_access() {
        let s = store_of(5);
        assert_eq!(s.len(), 5);
        assert!(s.check_coherent());
        assert_eq!(s.velocity5(2)[2], fx(0.2));
        assert_eq!(s.cell[3], 3);
    }

    #[test]
    fn set_velocity_round_trips() {
        let mut s = store_of(3);
        let vel = [fx(1.0), fx(2.0), fx(3.0), fx(4.0), fx(5.0)];
        s.set_velocity5(1, vel);
        assert_eq!(s.velocity5(1), vel);
    }

    #[test]
    fn apply_order_permutes_all_columns_together() {
        let mut s = store_of(6);
        let order = [5u32, 4, 3, 2, 1, 0];
        let x_before: Vec<Fx> = s.x.clone();
        let rng_before: Vec<XorShift32> = s.rng.clone();
        s.apply_order(&order);
        for i in 0..6 {
            assert_eq!(s.x[i], x_before[5 - i]);
            assert_eq!(s.rng[i], rng_before[5 - i]);
            assert_eq!(s.cell[i], (5 - i) as u32 % 7);
        }
        assert!(s.check_coherent());
    }

    #[test]
    fn apply_order_gathers_the_named_rows_out_of_a_longer_store() {
        // Four residents, two arrivals at the tail; the send drops
        // residents 1 and 3 and folds the arrivals in.
        let mut s = store_of(4);
        s.extend_from(&store_of(6));
        assert_eq!(s.len(), 10);
        let rng_before: Vec<XorShift32> = s.rng.clone();
        let order = [9u32, 0, 4, 2];
        s.apply_order(&order);
        assert_eq!(s.len(), 4);
        assert!(s.check_coherent());
        for (i, &o) in order.iter().enumerate() {
            assert_eq!(s.rng[i], rng_before[o as usize]);
        }
        assert_eq!(s.x[0], fx(2.5), "row 9 is the second store's particle 5");
    }

    #[test]
    #[should_panic]
    fn apply_order_panics_on_a_row_past_the_store() {
        store_of(3).apply_order(&[0, 3]);
    }

    #[test]
    fn conservation_accumulators() {
        let mut s = ParticleStore::default();
        s.push(
            fx(0.0),
            fx(0.0),
            [fx(0.5), fx(-0.5), Fx::ZERO, Fx::ZERO, Fx::ZERO],
            Perm5::IDENTITY,
            XorShift32::new(1),
            0,
        );
        s.push(
            fx(0.0),
            fx(0.0),
            [fx(-0.5), fx(0.5), Fx::ZERO, Fx::ZERO, Fx::ZERO],
            Perm5::IDENTITY,
            XorShift32::new(2),
            0,
        );
        assert_eq!(s.total_momentum_raw(), [0, 0, 0, 0, 0]);
        let half = fx(0.5).sq_raw_wide() as i128;
        assert_eq!(s.total_energy_raw(), 4 * half);
    }

    #[test]
    fn empty_store() {
        let s = ParticleStore::default();
        assert!(s.is_empty());
        assert_eq!(s.total_energy_raw(), 0);
        assert_eq!(s.total_momentum_raw(), [0; 5]);
    }
}
