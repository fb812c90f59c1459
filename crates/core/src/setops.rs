//! Pure functional set operations on sorted key streams.
//!
//! These are the *semantics* of `S_INTER`, `S_SUB`, `S_MERGE` and their
//! value-carrying variants: exact merge-based algorithms over sorted,
//! deduplicated `u32` slices. The timing models live in [`crate::su`],
//! whose walk also produces the engine's results in the same pass and is
//! tested against these functions; the scalar CPU baseline and the
//! accelerator models reuse these same functions so every design
//! computes identical answers.

use sc_isa::{Bound, Key, Value, ValueOp};

/// Intersection of two sorted key streams, stopping before `bound`.
///
/// # Example
///
/// ```
/// use sparsecore::setops::intersect;
/// use sc_isa::Bound;
///
/// assert_eq!(intersect(&[1, 3, 5], &[3, 4, 5], Bound::none()), vec![3, 5]);
/// assert_eq!(intersect(&[1, 3, 5], &[3, 4, 5], Bound::below(5)), vec![3]);
/// ```
pub fn intersect(a: &[Key], b: &[Key], bound: Bound) -> Vec<Key> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if !bound.admits(x.min(y)) {
            break;
        }
        match x.cmp(&y) {
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    out
}

/// Count of the bounded intersection (the `S_INTER.C` semantics).
pub fn intersect_count(a: &[Key], b: &[Key], bound: Bound) -> u64 {
    let mut count = 0;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if !bound.admits(x.min(y)) {
            break;
        }
        match x.cmp(&y) {
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    count
}

/// `a \ b` over sorted key streams, stopping before `bound`.
pub fn subtract(a: &[Key], b: &[Key], bound: Bound) -> Vec<Key> {
    let mut out = Vec::new();
    let mut j = 0;
    for &x in a {
        if !bound.admits(x) {
            break;
        }
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            out.push(x);
        }
    }
    out
}

/// Count of the bounded subtraction (the `S_SUB.C` semantics).
pub fn subtract_count(a: &[Key], b: &[Key], bound: Bound) -> u64 {
    let mut count = 0;
    let mut j = 0;
    for &x in a {
        if !bound.admits(x) {
            break;
        }
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            count += 1;
        }
    }
    count
}

/// Union of two sorted key streams (duplicates collapse).
pub fn merge(a: &[Key], b: &[Key]) -> Vec<Key> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Count of the merge (the `S_MERGE.C` semantics).
pub fn merge_count(a: &[Key], b: &[Key]) -> u64 {
    let (mut i, mut j, mut count) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
        count += 1;
    }
    count + (a.len() - i) as u64 + (b.len() - j) as u64
}

/// The `S_VINTER` semantics: intersect keys, reduce the matched value
/// pairs with `op`, return the accumulated scalar and the match count.
pub fn vinter(
    a_keys: &[Key],
    a_vals: &[Value],
    b_keys: &[Key],
    b_vals: &[Value],
    op: ValueOp,
) -> (Value, u64) {
    debug_assert_eq!(a_keys.len(), a_vals.len());
    debug_assert_eq!(b_keys.len(), b_vals.len());
    let (mut i, mut j) = (0, 0);
    let mut acc = 0.0;
    let mut matches = 0u64;
    while i < a_keys.len() && j < b_keys.len() {
        match a_keys[i].cmp(&b_keys[j]) {
            std::cmp::Ordering::Equal => {
                acc += op.combine(a_vals[i], b_vals[j]);
                matches += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    (acc, matches)
}

/// The `S_VMERGE` semantics: merged keys with values
/// `scale_a * a[k] + scale_b * b[k]` (missing side contributes zero).
pub fn vmerge(
    scale_a: Value,
    a_keys: &[Key],
    a_vals: &[Value],
    scale_b: Value,
    b_keys: &[Key],
    b_vals: &[Value],
) -> (Vec<Key>, Vec<Value>) {
    debug_assert_eq!(a_keys.len(), a_vals.len());
    debug_assert_eq!(b_keys.len(), b_vals.len());
    let mut keys = Vec::with_capacity(a_keys.len() + b_keys.len());
    let mut vals = Vec::with_capacity(a_keys.len() + b_keys.len());
    let (mut i, mut j) = (0, 0);
    while i < a_keys.len() && j < b_keys.len() {
        match a_keys[i].cmp(&b_keys[j]) {
            std::cmp::Ordering::Equal => {
                keys.push(a_keys[i]);
                vals.push(scale_a * a_vals[i] + scale_b * b_vals[j]);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                keys.push(a_keys[i]);
                vals.push(scale_a * a_vals[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                keys.push(b_keys[j]);
                vals.push(scale_b * b_vals[j]);
                j += 1;
            }
        }
    }
    while i < a_keys.len() {
        keys.push(a_keys[i]);
        vals.push(scale_a * a_vals[i]);
        i += 1;
    }
    while j < b_keys.len() {
        keys.push(b_keys[j]);
        vals.push(scale_b * b_vals[j]);
        j += 1;
    }
    (keys, vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_basic() {
        assert_eq!(intersect(&[1, 2, 3], &[2, 3, 4], Bound::none()), vec![2, 3]);
        assert_eq!(intersect(&[], &[1], Bound::none()), Vec::<u32>::new());
        assert_eq!(intersect(&[1, 5, 9], &[2, 6, 10], Bound::none()), Vec::<u32>::new());
    }

    #[test]
    fn intersect_bounded_early_termination() {
        // Bound applies to outputs: everything >= 4 is cut.
        assert_eq!(intersect(&[1, 4, 7], &[1, 4, 7], Bound::below(4)), vec![1]);
        assert_eq!(intersect(&[1, 4, 7], &[1, 4, 7], Bound::below(8)), vec![1, 4, 7]);
        assert_eq!(intersect(&[1, 4, 7], &[1, 4, 7], Bound::below(0)), Vec::<u32>::new());
    }

    #[test]
    fn counts_match_materialized() {
        let a = [1, 3, 5, 7, 9, 11];
        let b = [2, 3, 5, 8, 9, 12];
        for bound in [Bound::none(), Bound::below(6), Bound::below(0)] {
            assert_eq!(intersect_count(&a, &b, bound), intersect(&a, &b, bound).len() as u64);
            assert_eq!(subtract_count(&a, &b, bound), subtract(&a, &b, bound).len() as u64);
        }
        assert_eq!(merge_count(&a, &b), merge(&a, &b).len() as u64);
    }

    #[test]
    fn subtract_basic() {
        assert_eq!(subtract(&[1, 2, 3, 4], &[2, 4], Bound::none()), vec![1, 3]);
        assert_eq!(subtract(&[1, 2], &[], Bound::none()), vec![1, 2]);
        assert_eq!(subtract(&[], &[1], Bound::none()), Vec::<u32>::new());
    }

    #[test]
    fn subtract_bounded() {
        assert_eq!(subtract(&[1, 3, 5, 7], &[3], Bound::below(6)), vec![1, 5]);
    }

    #[test]
    fn merge_dedups_matches() {
        assert_eq!(merge(&[1, 3, 5], &[3, 4]), vec![1, 3, 4, 5]);
        assert_eq!(merge(&[], &[2]), vec![2]);
        assert_eq!(merge(&[1, 2], &[3, 4]), vec![1, 2, 3, 4]);
    }

    #[test]
    fn vinter_dot_product() {
        // Paper Section 3.3 example: [(1,45),(3,21),(7,13)] x [(2,14),(5,36),(7,2)]
        // matches only key 7 -> 13 * 2 = 26.
        let (acc, n) =
            vinter(&[1, 3, 7], &[45.0, 21.0, 13.0], &[2, 5, 7], &[14.0, 36.0, 2.0], ValueOp::Mac);
        assert_eq!(acc, 26.0);
        assert_eq!(n, 1);
    }

    #[test]
    fn vinter_other_ops() {
        let (mx, _) = vinter(&[1, 2], &[3.0, 8.0], &[1, 2], &[5.0, 6.0], ValueOp::Max);
        assert_eq!(mx, 5.0 + 8.0);
        let (mn, _) = vinter(&[1, 2], &[3.0, 8.0], &[1, 2], &[5.0, 6.0], ValueOp::Min);
        assert_eq!(mn, 3.0 + 6.0);
        let (ad, _) = vinter(&[1], &[3.0], &[1], &[5.0], ValueOp::Add);
        assert_eq!(ad, 8.0);
    }

    #[test]
    fn vmerge_paper_example() {
        // Paper Section 3.3: [(1,4),(3,21)] and [(1,1),(5,36)], scales 2 and 3
        // -> [(1, 4*2+1*3), (3, 21*2), (5, 36*3)] = [(1,11),(3,42),(5,108)].
        let (keys, vals) = vmerge(2.0, &[1, 3], &[4.0, 21.0], 3.0, &[1, 5], &[1.0, 36.0]);
        assert_eq!(keys, vec![1, 3, 5]);
        assert_eq!(vals, vec![11.0, 42.0, 108.0]);
    }

    #[test]
    fn vmerge_empty_sides() {
        let (keys, vals) = vmerge(2.0, &[], &[], 3.0, &[4], &[2.0]);
        assert_eq!(keys, vec![4]);
        assert_eq!(vals, vec![6.0]);
    }

    #[test]
    fn intersect_identity_and_disjoint_extremes() {
        let a: Vec<u32> = (0..100).map(|x| x * 2).collect();
        assert_eq!(intersect(&a, &a, Bound::none()), a);
        let b: Vec<u32> = (0..100).map(|x| x * 2 + 1).collect();
        assert!(intersect(&a, &b, Bound::none()).is_empty());
        assert_eq!(merge(&a, &b).len(), 200);
    }
}
