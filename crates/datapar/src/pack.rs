//! Stream compaction ("pack" / "enumerate" in data-parallel vocabulary).
//!
//! When particles exit through the soft downstream boundary they are removed
//! from the flow and appended to the reservoir.  On the CM-2 this is an
//! enumerate (exclusive plus-scan of the mask) followed by a send; here the
//! scan produces destination slots and a parallel pass writes them.

use crate::scan::scan_add_exclusive_u32;
use crate::sort::DisjointWrites;
use crate::PAR_THRESHOLD;
use rayon::prelude::*;

/// Indices of the `true` positions of `mask`, in increasing order.
pub fn pack_indices(mask: &[bool]) -> Vec<u32> {
    if mask.len() < PAR_THRESHOLD {
        return crate::seq::pack_indices(mask);
    }
    let ones: Vec<u32> = mask.par_iter().map(|&m| m as u32).collect();
    let (slots, total) = scan_add_exclusive_u32(&ones);
    let mut out = vec![0u32; total as usize];
    let w = DisjointWrites::new(&mut out);
    mask.par_iter().enumerate().for_each(|(i, &m)| {
        if m {
            // SAFETY: `slots` is the exclusive scan of the mask, so each
            // selected element receives a unique slot below `total`.
            unsafe { w.write(slots[i] as usize, i as u32) };
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_small() {
        assert_eq!(pack_indices(&[true, false, true, true]), vec![0, 2, 3]);
        assert!(pack_indices(&[]).is_empty());
        assert!(pack_indices(&[false, false]).is_empty());
    }

    #[test]
    fn pack_large_matches_reference() {
        let mask: Vec<bool> = (0..100_000u32)
            .map(|i| i.wrapping_mul(0x9E3779B9) & 7 == 0)
            .collect();
        assert_eq!(pack_indices(&mask), crate::seq::pack_indices(&mask));
    }

    proptest! {
        #[test]
        fn prop_pack_matches_reference(mask in proptest::collection::vec(any::<bool>(), 0..2000)) {
            prop_assert_eq!(pack_indices(&mask), crate::seq::pack_indices(&mask));
        }
    }
}
