//! Gather, scatter and permutation application (the CM-2 "router").
//!
//! After the rank step of the sort, every particle's computational state is
//! moved to its new virtual processor with general communication.  Here that
//! is a parallel gather: `out[i] = src[perm[i]]` for each of the
//! structure-of-arrays columns.

use crate::PAR_THRESHOLD;
use rayon::prelude::*;

/// Gather `u32` values: `out[i] = src[idx[i]]`.
pub fn gather_u32(src: &[u32], idx: &[u32]) -> Vec<u32> {
    if idx.len() < PAR_THRESHOLD {
        return crate::seq::gather_u32(src, idx);
    }
    idx.par_iter().map(|&i| src[i as usize]).collect()
}

/// Scatter `u32` values: `out[idx[i]] = src[i]`.
///
/// `idx` must be a permutation of `0..src.len()` (debug-checked); otherwise
/// some slots would be unwritten or doubly written.
pub fn scatter_u32(src: &[u32], idx: &[u32]) -> Vec<u32> {
    assert_eq!(src.len(), idx.len());
    debug_assert!(is_permutation(idx));
    let mut out = vec![0u32; src.len()];
    // Sequential scatter: the inverse-permutation gather below is the
    // parallel-friendly form, and scatter is only used host-side.
    for (i, &dst) in idx.iter().enumerate() {
        out[dst as usize] = src[i];
    }
    out
}

/// Apply a permutation to an arbitrary `Copy` column: `out[i] = src[perm[i]]`.
///
/// This is the workhorse that moves every particle attribute into sorted
/// order; it is called once per column per time step.  `perm` need not
/// cover `src`: the sharded send gathers `perm.len()` rows out of a longer
/// source (departed particles are simply never named, arrivals sit behind
/// the residents).  Every index must be `< src.len()`; one that is not
/// panics.
pub fn apply_perm<T: Copy + Send + Sync>(src: &[T], perm: &[u32], out: &mut Vec<T>) {
    out.clear();
    if perm.len() < PAR_THRESHOLD {
        out.extend(perm.iter().map(|&i| src[i as usize]));
    } else {
        perm.par_iter()
            .map(|&i| src[i as usize])
            .collect_into_vec(out);
    }
}

/// Invert a permutation: `inv[perm[i]] = i`.
pub fn invert_perm(perm: &[u32]) -> Vec<u32> {
    debug_assert!(is_permutation(perm));
    let mut inv = vec![0u32; perm.len()];
    if perm.len() < PAR_THRESHOLD {
        for (i, &p) in perm.iter().enumerate() {
            inv[p as usize] = i as u32;
        }
    } else {
        // Disjoint writes: perm is a permutation, so each inv slot is
        // written exactly once.
        let out = crate::sort::DisjointWrites::new(&mut inv);
        perm.par_iter().enumerate().for_each(|(i, &p)| {
            // SAFETY: `perm` is a permutation (debug-checked above), so the
            // destinations are pairwise distinct and in bounds.
            unsafe { out.write(p as usize, i as u32) };
        });
    }
    inv
}

fn is_permutation(idx: &[u32]) -> bool {
    let mut seen = vec![false; idx.len()];
    for &i in idx {
        if i as usize >= idx.len() || seen[i as usize] {
            return false;
        }
        seen[i as usize] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gather_basic() {
        assert_eq!(gather_u32(&[5, 6, 7], &[2, 2, 0]), vec![7, 7, 5]);
        assert!(gather_u32(&[5, 6, 7], &[]).is_empty());
    }

    #[test]
    fn scatter_inverts_gather_for_permutations() {
        let src = [10u32, 11, 12, 13];
        let perm = [2u32, 0, 3, 1];
        let gathered = gather_u32(&src, &perm);
        let scattered = scatter_u32(&gathered, &perm);
        assert_eq!(scattered.as_slice(), &src);
    }

    #[test]
    fn apply_perm_small_and_large() {
        let src: Vec<u64> = (0..100u64).collect();
        let perm: Vec<u32> = (0..100u32).rev().collect();
        let mut out = Vec::new();
        apply_perm(&src, &perm, &mut out);
        assert_eq!(out, (0..100u64).rev().collect::<Vec<_>>());

        let n = 50_000u32;
        let src: Vec<u32> = (0..n).collect();
        let perm: Vec<u32> = (0..n).map(|i| (i * 7919) % n).collect();
        // 7919 is coprime to 50000? 50000 = 2^4·5^5; 7919 is prime ≠ 2,5 → yes.
        let mut out = Vec::new();
        apply_perm(&src, &perm, &mut out);
        for i in 0..n as usize {
            assert_eq!(out[i], perm[i]);
        }
    }

    #[test]
    fn apply_perm_gathers_fewer_rows_than_the_source_holds() {
        // Both arms: the sequential one and the parallel one.
        for n in [10usize, 40_000] {
            let src: Vec<u32> = (0..n as u32 + 7).map(|i| i * 3).collect();
            let perm: Vec<u32> = (0..n as u32).map(|i| n as u32 + 6 - i).collect();
            let mut out = vec![99; 3];
            apply_perm(&src, &perm, &mut out);
            assert_eq!(out.len(), n);
            for (o, &p) in out.iter().zip(&perm) {
                assert_eq!(*o, p * 3);
            }
        }
    }

    #[test]
    #[should_panic]
    fn apply_perm_panics_on_an_index_past_the_source() {
        let mut out = Vec::new();
        apply_perm(&[1u32, 2, 3], &[0, 3], &mut out);
    }

    #[test]
    fn invert_small_and_large() {
        let perm = [2u32, 0, 1];
        assert_eq!(invert_perm(&perm), vec![1, 2, 0]);

        let n = 40_000u32;
        let perm: Vec<u32> = (0..n).map(|i| (i * 9973) % n).collect();
        let inv = invert_perm(&perm);
        for i in 0..n as usize {
            assert_eq!(inv[perm[i] as usize], i as u32);
        }
    }

    proptest! {
        #[test]
        fn prop_invert_twice_is_identity(n in 1usize..500) {
            // Build a permutation by sorting random keys.
            let keys: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
            let perm = crate::seq::sort_perm_by_key(&keys);
            let inv = invert_perm(&perm);
            let back = invert_perm(&inv);
            prop_assert_eq!(back, perm);
        }

        #[test]
        fn prop_gather_then_scatter_round_trips(n in 1usize..300) {
            let src: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
            let keys: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
            let perm = crate::seq::sort_perm_by_key(&keys);
            let g = gather_u32(&src, &perm);
            let s = scatter_u32(&g, &perm);
            prop_assert_eq!(s, src);
        }
    }
}
