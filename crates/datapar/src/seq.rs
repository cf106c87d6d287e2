//! Sequential reference implementations of the scan, sort and pack.
//!
//! These are the executable specification: simple, obviously-correct loops
//! that the parallel implementations must match bit for bit.  Property tests
//! in each module compare against these; they are also used directly for
//! small inputs where parallelism does not pay.

/// Exclusive plus-scan; returns the scan and the total.
pub fn scan_add_exclusive_u32(xs: &[u32]) -> (Vec<u32>, u32) {
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = 0u32;
    for &x in xs {
        out.push(acc);
        acc = acc.wrapping_add(x);
    }
    (out, acc)
}

/// Stable sort permutation by key: `perm[i]` is the original index of the
/// element that ends up at sorted position `i`.
pub fn sort_perm_by_key(keys: &[u32]) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
    perm.sort_by_key(|&i| keys[i as usize]);
    perm
}

/// Indices of set positions in the mask, in order.
pub fn pack_indices(mask: &[bool]) -> Vec<u32> {
    mask.iter()
        .enumerate()
        .filter_map(|(i, &m)| m.then_some(i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_on_small_inputs() {
        let (ex, total) = scan_add_exclusive_u32(&[1, 2, 3]);
        assert_eq!(ex, vec![0, 1, 3]);
        assert_eq!(total, 6);
        assert_eq!(scan_add_exclusive_u32(&[]), (vec![], 0));
    }

    #[test]
    fn sort_perm_is_stable() {
        let keys = [3u32, 1, 3, 1, 2];
        let p = sort_perm_by_key(&keys);
        assert_eq!(p, vec![1, 3, 4, 0, 2]);
    }

    #[test]
    fn pack_keeps_mask_order() {
        let mask = [true, false, true, true, false];
        assert_eq!(pack_indices(&mask), vec![0, 2, 3]);
    }
}
