//! Segment bounds of sorted key runs.
//!
//! After the sort, the particles of one cell occupy one contiguous run of
//! the array; everything downstream (selection, collision, sampling)
//! addresses cells through the run boundaries.  The rank emits them for
//! free from its per-cell counting table
//! ([`crate::sort_order_and_bounds_from_pairs_cells`]); this
//! is the stand-alone form — compare every key with its left neighbour —
//! that the separate-phase reference sort and the rank's own tests use.

use crate::PAR_THRESHOLD;
use rayon::prelude::*;

/// Chunk length for the two-phase bounds extraction (matches the scan).
const BOUNDS_CHUNK: usize = 1 << 15;

/// Segment boundaries of a sorted key array: start offsets of every run plus
/// a final sentinel equal to `keys.len()`.
///
/// `bounds[s]..bounds[s+1]` is the index range of segment `s`; there are
/// `bounds.len() - 1` segments.  Output is identical for any thread count.
pub fn segment_bounds_from_sorted(keys: &[u32]) -> Vec<u32> {
    let n = keys.len();
    let is_head = |i: usize| i == 0 || keys[i - 1] != keys[i];
    if n < PAR_THRESHOLD {
        let mut bounds: Vec<u32> = (0..n).filter(|&i| is_head(i)).map(|i| i as u32).collect();
        bounds.push(n as u32);
        return bounds;
    }

    // Phase 1: heads per chunk, in parallel.
    let n_chunks = n.div_ceil(BOUNDS_CHUNK);
    let chunk = |c: usize| c * BOUNDS_CHUNK..((c + 1) * BOUNDS_CHUNK).min(n);
    let mut offsets: Vec<u32> = (0..n_chunks)
        .into_par_iter()
        .map(|c| chunk(c).filter(|&i| is_head(i)).count() as u32)
        .collect();

    // Phase 2: exclusive scan of the tiny per-chunk table.
    let mut total = 0u32;
    for c in offsets.iter_mut() {
        let heads = *c;
        *c = total;
        total += heads;
    }

    // Phase 3: write each chunk's head positions at its offset.
    let mut bounds = vec![0u32; total as usize + 1];
    let out = crate::sort::DisjointWrites::new(&mut bounds[..total as usize]);
    (0..n_chunks).into_par_iter().for_each(|c| {
        let heads = chunk(c).filter(|&i| is_head(i));
        for (slot, i) in (offsets[c] as usize..).zip(heads) {
            // SAFETY: chunk c owns destinations [offsets[c],
            // offsets[c] + heads(c)), which partition 0..total.
            unsafe { out.write(slot, i as u32) };
        }
    });
    bounds[total as usize] = n as u32;
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bounds_small() {
        assert_eq!(
            segment_bounds_from_sorted(&[2, 2, 3, 5, 5, 5]),
            vec![0, 2, 3, 6]
        );
        assert_eq!(segment_bounds_from_sorted(&[]), vec![0]);
        assert_eq!(segment_bounds_from_sorted(&[9]), vec![0, 1]);
    }

    #[test]
    fn large_matches_reference() {
        // The chunked path against the one-line sequential definition.
        let mut keys: Vec<u32> = (0..120_000u32)
            .map(|i| i.wrapping_mul(0x9E3779B9) % 600)
            .collect();
        keys.sort_unstable();
        let mut want: Vec<u32> = (0..keys.len())
            .filter(|&i| i == 0 || keys[i - 1] != keys[i])
            .map(|i| i as u32)
            .collect();
        want.push(keys.len() as u32);
        assert_eq!(segment_bounds_from_sorted(&keys), want);
    }

    proptest! {
        #[test]
        fn prop_bounds_partition_the_array(
            mut keys in proptest::collection::vec(0u32..50, 1..2000)
        ) {
            keys.sort_unstable();
            let bounds = segment_bounds_from_sorted(&keys);
            prop_assert_eq!(bounds[0], 0);
            prop_assert_eq!(*bounds.last().unwrap() as usize, keys.len());
            for w in bounds.windows(2) {
                prop_assert!(w[0] < w[1], "empty or reversed segment");
                let seg = &keys[w[0] as usize..w[1] as usize];
                prop_assert!(seg.iter().all(|&k| k == seg[0]), "mixed keys in segment");
            }
        }
    }
}
