//! Permutation application (the CM-2 "router").
//!
//! After the rank step of the sort, every particle's computational state is
//! moved to its new virtual processor with general communication.  Here that
//! is a parallel gather: `out[i] = src[perm[i]]` for each of the
//! structure-of-arrays columns.

use crate::Par;
use rayon::prelude::*;

/// Apply a permutation to an arbitrary `Copy` column: `out[i] = src[perm[i]]`.
///
/// This is the workhorse that moves every particle attribute into sorted
/// order; it is called once per column per time step.  `perm` need not
/// cover `src`: the sharded send gathers `perm.len()` rows out of a longer
/// source (departed particles are simply never named, arrivals sit behind
/// the residents).  Every index must be `< src.len()`; one that is not
/// panics.  [`apply_perm_with`] on [`Par::Pool`].
pub fn apply_perm<T: Copy + Send + Sync>(src: &[T], perm: &[u32], out: &mut Vec<T>) {
    apply_perm_with(src, perm, out, Par::Pool);
}

/// [`apply_perm`], forking only where `par` says so.
pub fn apply_perm_with<T: Copy + Send + Sync>(src: &[T], perm: &[u32], out: &mut Vec<T>, par: Par) {
    out.clear();
    if !par.forks(perm.len()) {
        out.extend(perm.iter().map(|&i| src[i as usize]));
    } else {
        perm.par_iter()
            .map(|&i| src[i as usize])
            .collect_into_vec(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAR_THRESHOLD;

    #[test]
    fn gather_basic() {
        // Repeated and missing rows: `perm` is an index list, not
        // necessarily a permutation; stale `out` content is replaced.
        let mut out = vec![1u32; 5];
        apply_perm(&[5u32, 6, 7], &[2, 2, 0], &mut out);
        assert_eq!(out, vec![7, 7, 5]);
        apply_perm(&[5u32, 6, 7], &[], &mut out);
        assert!(out.is_empty());
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
        // Both sizes of both `Par` arms: the pool forks from
        // PAR_THRESHOLD up, the inline arm never.
        for n in [10usize, PAR_THRESHOLD - 1, PAR_THRESHOLD, 40_000] {
            for par in [Par::Pool, Par::Inline] {
                let src: Vec<u32> = (0..n as u32 + 7).map(|i| i * 3).collect();
                let perm: Vec<u32> = (0..n as u32).map(|i| n as u32 + 6 - i).collect();
                let mut out = vec![99; 3];
                apply_perm_with(&src, &perm, &mut out, par);
                assert_eq!(out.len(), n);
                for (o, &p) in out.iter().zip(&perm) {
                    assert_eq!(*o, p * 3, "n={n} {par:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn apply_perm_panics_on_an_index_past_the_source() {
        let mut out = Vec::new();
        apply_perm(&[1u32, 2, 3], &[0, 3], &mut out);
    }
}
