//! The parallel plus-scan.
//!
//! The classic three-phase chunked scan: (1) reduce each chunk in parallel,
//! (2) exclusive-scan the chunk totals sequentially (the chunk count is tiny),
//! (3) re-scan each chunk in parallel seeded with its offset.  All operations
//! are associative wrapping integer ops, so the result is bit-identical to
//! the sequential fold.

use crate::{seq, PAR_THRESHOLD};
use rayon::prelude::*;

/// Chunk length for the three-phase scans; large enough to amortise task
/// overhead, small enough to expose parallelism on 100k–1M element arrays.
const CHUNK: usize = 1 << 15;

/// Exclusive plus-scan (wrapping); returns the scan and the grand total.
pub fn scan_add_exclusive_u32(xs: &[u32]) -> (Vec<u32>, u32) {
    if xs.len() < PAR_THRESHOLD {
        return seq::scan_add_exclusive_u32(xs);
    }
    let chunk_sums: Vec<u32> = xs
        .par_chunks(CHUNK)
        .map(|c| c.iter().fold(0u32, |a, &x| a.wrapping_add(x)))
        .collect();
    let (offsets, total) = seq::scan_add_exclusive_u32(&chunk_sums);
    let mut out = vec![0u32; xs.len()];
    out.par_chunks_mut(CHUNK)
        .zip(xs.par_chunks(CHUNK))
        .zip(offsets.par_iter())
        .for_each(|((out_c, in_c), &off)| {
            let mut acc = off;
            for (o, &x) in out_c.iter_mut().zip(in_c) {
                *o = acc;
                acc = acc.wrapping_add(x);
            }
        });
    (out, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scan_add_small_matches_reference() {
        let xs = [5u32, 0, 2, 2, 9];
        assert_eq!(scan_add_exclusive_u32(&xs), (vec![0, 5, 5, 7, 9], 18));
    }

    #[test]
    fn scan_add_large_matches_reference() {
        let xs: Vec<u32> = (0..200_000u32)
            .map(|i| i.wrapping_mul(2654435761) % 7)
            .collect();
        assert_eq!(
            scan_add_exclusive_u32(&xs),
            seq::scan_add_exclusive_u32(&xs)
        );
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(scan_add_exclusive_u32(&[]), (vec![], 0));
        assert_eq!(scan_add_exclusive_u32(&[7]), (vec![0], 7));
    }

    proptest! {
        #[test]
        fn prop_scan_add_matches_reference(xs in proptest::collection::vec(any::<u32>(), 0..2000)) {
            prop_assert_eq!(scan_add_exclusive_u32(&xs), seq::scan_add_exclusive_u32(&xs));
        }

        #[test]
        fn prop_exclusive_shifts_inclusive(xs in proptest::collection::vec(0u32..1000, 1..500)) {
            let (exc, total) = scan_add_exclusive_u32(&xs);
            for (i, &x) in xs.iter().enumerate() {
                // exc[i] + xs[i] is the inclusive prefix: the next
                // exclusive entry, or the total at the end.
                let inc = exc[i] + x;
                prop_assert_eq!(inc, exc.get(i + 1).copied().unwrap_or(total));
            }
            prop_assert_eq!(exc[0], 0);
        }
    }
}
