//! Segment-parallel mutation of structure-of-arrays data.
//!
//! The collision routine works cell by cell: within one cell's contiguous
//! run of the sorted arrays it pairs neighbours even/odd and overwrites
//! velocities in place.  Cells are mutually disjoint index ranges, so all
//! cells can proceed in parallel — this module provides the safe machinery.
//!
//! [`par_segments_mut`] takes any value implementing [`SegSplit`] — a
//! mutable slice, or a tuple of up to twelve mutable slices sharing one
//! length — and a `bounds` array (segment start offsets plus a final
//! sentinel), and invokes a callback once per segment with exactly that
//! segment's sub-slices.  Parallelism comes from recursive halving over
//! [`Par::join`], so no `unsafe` is needed: safety falls out of
//! `split_at_mut`.  On [`Par::Inline`] the same halving runs both halves
//! in turn, so the callbacks see the same segments and runs on either arm.

use crate::Par;

/// Types that can be split at an index, like `split_at_mut`.
///
/// Implemented for `&mut [T]` and for tuples of splittables (all members
/// must have equal length — the SoA invariant, debug-checked).
pub trait SegSplit: Sized + Send {
    /// Number of addressable elements.
    fn seg_len(&self) -> usize;
    /// Split into `[0, mid)` and `[mid, len)`.
    fn seg_split(self, mid: usize) -> (Self, Self);
}

impl<T: Send> SegSplit for &mut [T] {
    fn seg_len(&self) -> usize {
        self.len()
    }
    fn seg_split(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

/// Read-only columns ride along via a shared-slice wrapper.
#[derive(Clone, Copy)]
pub struct RoCol<'a, T>(pub &'a [T]);

impl<'a, T: Sync> SegSplit for RoCol<'a, T> {
    fn seg_len(&self) -> usize {
        self.0.len()
    }
    fn seg_split(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.0.split_at(mid);
        (RoCol(a), RoCol(b))
    }
}

macro_rules! impl_tuple_split {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: SegSplit),+> SegSplit for ($($name,)+) {
            fn seg_len(&self) -> usize {
                let len = self.0.seg_len();
                $(debug_assert_eq!(self.$idx.seg_len(), len, "SoA columns must share a length");)+
                len
            }
            #[allow(non_snake_case)]
            fn seg_split(self, mid: usize) -> (Self, Self) {
                $(let $name = self.$idx.seg_split(mid);)+
                (($($name.0,)+), ($($name.1,)+))
            }
        }
    };
}

impl_tuple_split!(A: 0);
impl_tuple_split!(A: 0, B: 1);
impl_tuple_split!(A: 0, B: 1, C: 2);
impl_tuple_split!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_split!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple_split!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_tuple_split!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_tuple_split!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);
impl_tuple_split!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8);
impl_tuple_split!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9);
impl_tuple_split!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9, K: 10);
impl_tuple_split!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9, K: 10, L: 11);

/// Below this many elements a sub-tree is processed sequentially.
const SEQ_GRAIN: usize = 4096;

/// Run `f(segment_index, segment_data)` for every segment, in parallel.
///
/// `bounds` holds the start offset of each segment plus a final sentinel
/// equal to the total length (as produced by
/// [`crate::segscan::segment_bounds_from_sorted`]).  Panics if the bounds do
/// not start at 0, are not non-decreasing, or do not end at the data length.
pub fn par_segments_mut<S, F>(data: S, bounds: &[u32], f: &F, par: Par)
where
    S: SegSplit,
    F: Fn(usize, S) + Sync,
{
    assert!(!bounds.is_empty(), "bounds needs at least the sentinel");
    assert_eq!(bounds[0], 0, "bounds must start at 0");
    assert_eq!(
        *bounds.last().unwrap() as usize,
        data.seg_len(),
        "bounds sentinel must equal the data length"
    );
    debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    if bounds.len() <= 1 {
        return;
    }
    rec(data, bounds, 0, f, par);
}

fn rec<S, F>(data: S, bounds: &[u32], first_seg: usize, f: &F, par: Par)
where
    S: SegSplit,
    F: Fn(usize, S) + Sync,
{
    let n_seg = bounds.len() - 1;
    let total = (bounds[n_seg] - bounds[0]) as usize;
    if n_seg == 1 {
        f(first_seg, data);
        return;
    }
    if total < SEQ_GRAIN {
        let mut rest = data;
        let mut cur = bounds[0];
        for s in 0..n_seg {
            let end = bounds[s + 1];
            let (head, tail) = rest.seg_split((end - cur) as usize);
            f(first_seg + s, head);
            rest = tail;
            cur = end;
        }
        return;
    }
    let k = n_seg / 2;
    let split_at = (bounds[k] - bounds[0]) as usize;
    let (left, right) = data.seg_split(split_at);
    let (lb, rb) = (&bounds[..=k], &bounds[k..]);
    par.join(
        || rec(left, lb, first_seg, f, par),
        || rec(right, rb, first_seg + k, f, par),
    );
}

/// Run `f(first_segment_index, bounds_run, run_data)` for parallel *runs*
/// of consecutive segments (~`SEQ_GRAIN` elements per run).
///
/// Where [`par_segments_mut`] hands the callback one pre-split tuple of
/// sub-slices *per segment* — a seg_split per cell, which dominates when
/// cells hold a few dozen particles — this form hands it a whole run plus
/// that run's `bounds` window (global offsets, `n_seg + 1` entries
/// including its end sentinel), and the callback addresses segments by
/// index arithmetic: segment `s` of the run occupies
/// `bounds_run[s] - bounds_run[0] .. bounds_run[s + 1] - bounds_run[0]`
/// of `run_data`.  Same disjointness guarantees, amortised split cost.
pub fn par_segment_runs_mut<S, F>(data: S, bounds: &[u32], f: &F, par: Par)
where
    S: SegSplit,
    F: Fn(usize, &[u32], S) + Sync,
{
    assert!(!bounds.is_empty(), "bounds needs at least the sentinel");
    assert_eq!(bounds[0], 0, "bounds must start at 0");
    assert_eq!(
        *bounds.last().unwrap() as usize,
        data.seg_len(),
        "bounds sentinel must equal the data length"
    );
    debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    if bounds.len() <= 1 {
        return;
    }
    rec_runs(data, bounds, 0, f, par);
}

fn rec_runs<S, F>(data: S, bounds: &[u32], first_seg: usize, f: &F, par: Par)
where
    S: SegSplit,
    F: Fn(usize, &[u32], S) + Sync,
{
    let n_seg = bounds.len() - 1;
    let total = (bounds[n_seg] - bounds[0]) as usize;
    if n_seg == 1 || total < SEQ_GRAIN {
        f(first_seg, bounds, data);
        return;
    }
    let k = n_seg / 2;
    let split_at = (bounds[k] - bounds[0]) as usize;
    let (left, right) = data.seg_split(split_at);
    let (lb, rb) = (&bounds[..=k], &bounds[k..]);
    par.join(
        || rec_runs(left, lb, first_seg, f, par),
        || rec_runs(right, rb, first_seg + k, f, par),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn bounds_of(lens: &[u32]) -> Vec<u32> {
        let mut b = vec![0u32];
        for &l in lens {
            b.push(b.last().unwrap() + l);
        }
        b
    }

    #[test]
    fn single_slice_each_segment_seen_once() {
        let mut data: Vec<u32> = (0..20).collect();
        let bounds = bounds_of(&[3, 0, 5, 12]);
        let visited = AtomicU64::new(0);
        par_segments_mut(
            data.as_mut_slice(),
            &bounds,
            &|s, seg: &mut [u32]| {
                visited.fetch_or(1 << s, Ordering::Relaxed);
                for v in seg.iter_mut() {
                    *v += (s as u32 + 1) * 100;
                }
            },
            Par::Pool,
        );
        assert_eq!(visited.load(Ordering::Relaxed), 0b1111 & !(1 << 1) | 0b0010);
        // Segment 0 = indices 0..3, segment 2 = 3..8, segment 3 = 8..20.
        assert_eq!(data[0], 100);
        assert_eq!(data[3], 303);
        assert_eq!(data[8], 408);
    }

    #[test]
    fn tuple_of_slices_stays_aligned() {
        let n = 10_000usize;
        let mut a: Vec<u32> = (0..n as u32).collect();
        let mut b: Vec<u64> = (0..n as u64).map(|i| i * 2).collect();
        let lens: Vec<u32> = (0..100).map(|i| 100 + (i % 3) - 1).collect();
        let total: u32 = lens.iter().sum();
        let mut lens = lens;
        let diff = n as i64 - total as i64;
        *lens.last_mut().unwrap() = (*lens.last().unwrap() as i64 + diff) as u32;
        let bounds = bounds_of(&lens);
        par_segments_mut(
            (a.as_mut_slice(), b.as_mut_slice()),
            &bounds,
            &|s, (sa, sb): (&mut [u32], &mut [u64])| {
                assert_eq!(sa.len(), sb.len(), "segment {s} misaligned");
                for (x, y) in sa.iter_mut().zip(sb.iter_mut()) {
                    // Check the SoA relationship holds inside the segment.
                    assert_eq!(*y, *x as u64 * 2);
                    *x += 1;
                    *y += 2;
                }
            },
            Par::Pool,
        );
        for i in 0..n {
            assert_eq!(a[i], i as u32 + 1);
            assert_eq!(b[i], i as u64 * 2 + 2);
        }
    }

    #[test]
    fn readonly_column_rides_along() {
        let mut a = vec![0u32; 1000];
        let key: Vec<u32> = (0..1000u32).map(|i| i / 10).collect();
        let bounds: Vec<u32> = (0..=100).map(|i| i * 10).collect();
        par_segments_mut(
            (a.as_mut_slice(), RoCol(key.as_slice())),
            &bounds,
            &|s, (sa, sk): (&mut [u32], RoCol<u32>)| {
                for (x, &k) in sa.iter_mut().zip(sk.0) {
                    assert_eq!(k as usize, s);
                    *x = k;
                }
            },
            Par::Inline,
        );
        assert_eq!(a[999], 99);
        assert_eq!(a[0], 0);
    }

    #[test]
    fn large_parallel_covers_all_elements_exactly_once() {
        let n = 500_000usize;
        let mut data = vec![0u32; n];
        // Irregular segment sizes, including empties.
        let mut lens = Vec::new();
        let mut left = n as u32;
        let mut i = 0u32;
        while left > 0 {
            let l = (i.wrapping_mul(2654435761) % 37).min(left);
            lens.push(l);
            left -= l;
            i += 1;
        }
        let bounds = bounds_of(&lens);
        par_segments_mut(
            data.as_mut_slice(),
            &bounds,
            &|_s, seg: &mut [u32]| {
                for v in seg {
                    *v += 1;
                }
            },
            Par::Pool,
        );
        assert!(data.iter().all(|&v| v == 1), "every element touched once");
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn wrong_sentinel_panics() {
        let mut data = vec![0u32; 10];
        par_segments_mut(
            data.as_mut_slice(),
            &[0, 5, 9],
            &|_, _: &mut [u32]| {},
            Par::Pool,
        );
    }

    #[test]
    fn empty_data_empty_bounds_ok() {
        let mut data: Vec<u32> = vec![];
        par_segments_mut(
            data.as_mut_slice(),
            &[0],
            &|_, _: &mut [u32]| {
                panic!("no segments should be visited");
            },
            Par::Inline,
        );
    }

    /// Irregular segment lengths (empties included) covering `n` elements.
    fn irregular_bounds(n: usize) -> Vec<u32> {
        let mut lens = Vec::new();
        let mut left = n as u32;
        let mut i = 0u32;
        while left > 0 {
            let l = (i.wrapping_mul(2654435761) % 53).min(left);
            lens.push(l);
            left -= l;
            i += 1;
        }
        bounds_of(&lens)
    }

    #[test]
    fn inline_and_pool_segment_passes_are_bit_identical() {
        for n in [
            100usize,
            crate::PAR_THRESHOLD - 1,
            crate::PAR_THRESHOLD,
            60_000,
        ] {
            let bounds = irregular_bounds(n);
            let run = |par: Par| {
                let mut data: Vec<u64> = (0..n as u64).collect();
                par_segments_mut(
                    data.as_mut_slice(),
                    &bounds,
                    &|s, seg: &mut [u64]| {
                        for (k, v) in seg.iter_mut().enumerate() {
                            *v = v.wrapping_mul(31) ^ (s * 1000 + k) as u64;
                        }
                    },
                    par,
                );
                data
            };
            assert_eq!(run(Par::Pool), run(Par::Inline), "n={n}");
        }
    }

    #[test]
    fn inline_and_pool_runs_are_the_same_runs_with_the_same_writes() {
        for n in [
            100usize,
            crate::PAR_THRESHOLD - 1,
            crate::PAR_THRESHOLD,
            60_000,
        ] {
            let bounds = irregular_bounds(n);
            let run = |par: Par| {
                let mut data = vec![0u32; n];
                let seen = std::sync::Mutex::new(Vec::new());
                par_segment_runs_mut(
                    data.as_mut_slice(),
                    &bounds,
                    &|first, brun: &[u32], run_data: &mut [u32]| {
                        seen.lock().unwrap().push((first, brun.to_vec()));
                        let base = brun[0];
                        for s in 0..brun.len() - 1 {
                            for i in brun[s]..brun[s + 1] {
                                run_data[(i - base) as usize] = (first + s) as u32;
                            }
                        }
                    },
                    par,
                );
                let mut seen = seen.into_inner().unwrap();
                seen.sort();
                (data, seen)
            };
            assert_eq!(run(Par::Pool), run(Par::Inline), "n={n}");
        }
    }
}
