//! Stream Unit timing: the parallel-comparison datapath of paper Figure 6.
//!
//! Each SU holds a double-buffered window of up to 16 elements of each
//! input stream. Per cycle, the head element of each stream is compared in
//! parallel against the whole window of the other stream, so a stream can
//! skip up to a full window of non-matching elements in one cycle.
//! Intersection emits at most one element per cycle; subtraction and merge
//! can emit several (all elements the comparison proves smaller than the
//! other stream's head).
//!
//! `walk` replays that per-cycle pointer-advancing process over the
//! *actual* operand keys, returning both the comparison-cycle count and
//! the number of elements consumed from each stream (early termination via
//! the bound consumes fewer). It produces the operation's output in the
//! same pass, as the hardware does: every key it proves to be output is
//! passed on as an `Out` piece by operand position, so one walk yields
//! both the timing and the functional result. [`simulate`] is that walk
//! with the output discarded. [`crate::setops`] stays the timing-free
//! reference the walk is tested against. The [`crate::engine`] combines
//! the timing with the bandwidth and refill-latency terms.

use sc_isa::{Bound, Key};
use std::ops::Range;

/// Which set operation an SU performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuOp {
    /// Intersection (`S_INTER`, `S_INTER.C`, `S_VINTER`, and each nested
    /// step of `S_NESTINTER`).
    Intersect,
    /// Subtraction (`S_SUB`, `S_SUB.C`).
    Subtract,
    /// Merge (`S_MERGE`, `S_MERGE.C`, `S_VMERGE`).
    Merge,
}

/// The timing outcome of one SU set operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuTiming {
    /// Parallel-comparison cycles (the SU-busy datapath time).
    pub compare_cycles: u64,
    /// Elements consumed from stream A (≤ `a.len()` under a bound).
    pub consumed_a: u64,
    /// Elements consumed from stream B.
    pub consumed_b: u64,
    /// Elements produced (count for `.C` forms, keys for stream forms).
    pub produced: u64,
}

impl SuTiming {
    /// Total elements moved into the SU (the bandwidth demand).
    pub fn consumed_total(&self) -> u64 {
        self.consumed_a + self.consumed_b
    }
}

/// One piece of a [`walk`]'s output, by operand position. The pieces
/// arrive in output (key) order.
#[derive(Debug)]
pub(crate) enum Out {
    /// `a[i] == b[j]` is output once (intersection, merge).
    Pair(usize, usize),
    /// `a[r]` is output (subtraction's survivors, merge's A side).
    A(Range<usize>),
    /// `b[r]` is output (merge's B side).
    B(Range<usize>),
}

/// The SU walk with its output discarded: the timing alone.
pub fn simulate(op: SuOp, a: &[Key], b: &[Key], bound: Bound, width: usize) -> SuTiming {
    walk(op, a, b, bound, width, |_| {})
}

/// Replay the Figure 6 parallel comparison over real operands, passing
/// the output to `out` as the comparison proves it.
///
/// `width` is the SU buffer width (16 in the paper). The model:
///
/// * heads equal → one output, both advance one — 1 cycle (intersection
///   produces ≤ 1 element/cycle, as the paper states);
/// * heads differ → each stream advances past every buffered element
///   smaller than the other's head (≤ `width` per cycle) — 1 cycle; for
///   subtraction/merge those skipped elements are emitted in the same
///   cycle (multiple outputs per cycle, as the paper states);
/// * a bound stops the operation once no further output can be below it;
/// * for merge (and subtraction's A-tail), the remaining tail after one
///   stream is exhausted copies out at `width` elements per cycle.
pub(crate) fn walk(
    op: SuOp,
    a: &[Key],
    b: &[Key],
    bound: Bound,
    width: usize,
    mut out: impl FnMut(Out),
) -> SuTiming {
    assert!(width > 0, "SU buffer width must be positive");
    let mut t = SuTiming::default();
    let (mut i, mut j) = (0usize, 0usize);

    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        // Early termination: for intersect, outputs are >= max(x, y) is
        // wrong — outputs are >= min future head; both heads being >= bound
        // means every further output is too. For subtract/merge, outputs
        // track the smaller head.
        let cut = match op {
            SuOp::Intersect => !bound.admits(x.min(y)),
            SuOp::Subtract => !bound.admits(x),
            SuOp::Merge => false, // S_MERGE has no bound operand
        };
        if cut {
            break;
        }
        t.compare_cycles += 1;
        if x == y {
            match op {
                SuOp::Intersect | SuOp::Merge => {
                    t.produced += 1;
                    out(Out::Pair(i, j));
                }
                SuOp::Subtract => {}
            }
            i += 1;
            j += 1;
            continue;
        }
        // Parallel comparison: advance each side past elements smaller
        // than the other's head, at most one buffer width per cycle. Only
        // the side with the smaller head moves.
        let a_window = &a[i..(i + width).min(a.len())];
        let adv_a = a_window.partition_point(|&e| e < y);
        let b_window = &b[j..(j + width).min(b.len())];
        let adv_b = b_window.partition_point(|&e| e < x);
        match op {
            SuOp::Intersect => {}
            SuOp::Subtract => {
                // Elements of A proven smaller than B's head survive, but
                // only up to the bound.
                let kept = a_window[..adv_a].partition_point(|&e| bound.admits(e));
                t.produced += kept as u64;
                out(Out::A(i..i + kept));
            }
            SuOp::Merge => {
                t.produced += (adv_a + adv_b) as u64;
                out(Out::A(i..i + adv_a));
                out(Out::B(j..j + adv_b));
            }
        }
        i += adv_a;
        j += adv_b;
        debug_assert!(adv_a > 0 || adv_b > 0, "no progress in parallel compare");
    }

    // Tails.
    match op {
        SuOp::Intersect => {}
        SuOp::Subtract => {
            if j >= b.len() && i < a.len() {
                let tail = &a[i..];
                let kept = tail.partition_point(|&e| bound.admits(e));
                t.produced += kept as u64;
                t.compare_cycles += (kept as u64).div_ceil(width as u64);
                out(Out::A(i..i + kept));
                i += kept; // consumption stops at the bound cut
            }
        }
        SuOp::Merge => {
            let tail = (a.len() - i) + (b.len() - j);
            if tail > 0 {
                t.produced += tail as u64;
                t.compare_cycles += (tail as u64).div_ceil(width as u64);
                out(Out::A(i..a.len()));
                out(Out::B(j..b.len()));
                i = a.len();
                j = b.len();
            }
        }
    }

    t.consumed_a = i as u64;
    t.consumed_b = j as u64;
    t
}

/// The `S_VINTER` key walk. A *dense* operand (consecutive keys: a dense
/// vector viewed as a stream) lets the SU seek instead of scan: key `k`
/// of a dense stream lives at offset `k - first`, so the S-Cache window
/// slides straight to the other operand's head (the same window-slide
/// mechanism `S_FETCH` uses) and only the matched windows are touched.
/// Otherwise it is the unbounded intersection [`walk`]. `pair(i, j)`
/// receives each match `a[i] == b[j]`, in key order.
pub(crate) fn vinter_walk(
    a: &[Key],
    b: &[Key],
    width: usize,
    mut pair: impl FnMut(usize, usize),
) -> SuTiming {
    match (is_dense(a), is_dense(b)) {
        (false, true) => seek(a, b, pair),
        (true, false) => {
            let t = seek(b, a, |j, i| pair(i, j));
            SuTiming { consumed_a: t.consumed_b, consumed_b: t.consumed_a, ..t }
        }
        _ => walk(SuOp::Intersect, a, b, Bound::none(), width, |o| {
            if let Out::Pair(i, j) = o {
                pair(i, j);
            }
        }),
    }
}

/// Are the keys a dense run of consecutive integers? Stream keys are
/// sorted and distinct, so the ends decide it.
fn is_dense(keys: &[Key]) -> bool {
    keys.len() > 1 && keys[keys.len() - 1].wrapping_sub(keys[0]) == keys.len() as Key - 1
}

/// SU timing for sparse x dense: one seek + compare per sparse element
/// (the dense side consumes one window per match instead of scanning).
/// `emit(i, j)` receives each match's sparse and dense positions.
fn seek(sparse: &[Key], dense: &[Key], mut emit: impl FnMut(usize, usize)) -> SuTiming {
    let lo = dense[0];
    let hi = dense[0] + dense.len() as Key;
    let mut matches = 0u64;
    for (i, &k) in sparse.iter().enumerate() {
        if k >= lo && k < hi {
            emit(i, (k - lo) as usize);
            matches += 1;
        }
    }
    SuTiming {
        // One cycle per sparse element (seek + compare) plus the match
        // emission.
        compare_cycles: sparse.len() as u64 + matches,
        consumed_a: sparse.len() as u64,
        // One 16-key window of the dense stream per sparse element.
        consumed_b: (sparse.len() as u64) * 16,
        produced: matches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setops;
    use sc_isa::ValueOp;

    const W: usize = 16;

    /// Sorted, distinct keys: `n` draws from `lo..lo + span`.
    fn keys(seed: &mut u64, n: usize, lo: Key, span: Key) -> Vec<Key> {
        let mut v: Vec<Key> = (0..n)
            .map(|_| {
                *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                lo + (*seed >> 33) as Key % span
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Values for a stream (distinct, non-trivial bit patterns).
    fn vals(ks: &[Key]) -> Vec<f64> {
        ks.iter().map(|&k| f64::from(k) * 0.37 + 1.0 / f64::from(k + 3)).collect()
    }

    /// Operand pairs: empty, disjoint, nested, overlapping, dense.
    fn operand_pairs() -> Vec<(Vec<Key>, Vec<Key>)> {
        let mut seed = 7;
        let big = keys(&mut seed, 300, 0, 1000);
        let nested: Vec<Key> = big.iter().copied().step_by(3).collect();
        vec![
            (vec![], vec![]),
            (vec![], big.clone()),
            (big.clone(), vec![]),
            ((0..50).collect(), (100..180).collect()),
            ((100..180).collect(), (0..50).map(|k| k * 2).collect()),
            (big.clone(), nested.clone()),
            (nested, big.clone()),
            (big.clone(), big.clone()),
            (keys(&mut seed, 200, 0, 400), keys(&mut seed, 40, 0, 400)),
            (keys(&mut seed, 60, 0, 5000), keys(&mut seed, 500, 0, 5000)),
            (keys(&mut seed, 100, 0, 300), (0..300).collect()),
            ((50..250).collect(), keys(&mut seed, 80, 0, 400)),
            (vec![5], vec![5]),
            (vec![5], vec![6]),
        ]
    }

    /// The fused walk's output and timing against `simulate` plus the
    /// `setops` reference, for every op, bound and SU width.
    #[test]
    fn fused_walk_matches_simulate_and_setops() {
        for (a, b) in operand_pairs() {
            let all: Vec<Key> = a.iter().chain(&b).copied().collect();
            let (min, max) = (all.iter().min().copied(), all.iter().max().copied());
            let mut bounds = vec![Bound::none()];
            if let (Some(min), Some(max)) = (min, max) {
                bounds.extend([
                    Bound::below(min),
                    Bound::below(max + 1),
                    Bound::below(min / 2 + max / 2),
                ]);
            }
            for width in [1, 2, 16] {
                for bound in &bounds {
                    for op in [SuOp::Intersect, SuOp::Subtract, SuOp::Merge] {
                        let bound = if op == SuOp::Merge { Bound::none() } else { *bound };
                        let mut got = Vec::new();
                        let t = walk(op, &a, &b, bound, width, |o| match o {
                            Out::Pair(i, j) => {
                                assert_eq!(a[i], b[j]);
                                got.push(a[i]);
                            }
                            Out::A(r) => got.extend_from_slice(&a[r]),
                            Out::B(r) => got.extend_from_slice(&b[r]),
                        });
                        let want = match op {
                            SuOp::Intersect => setops::intersect(&a, &b, bound),
                            SuOp::Subtract => setops::subtract(&a, &b, bound),
                            SuOp::Merge => setops::merge(&a, &b),
                        };
                        let ctx =
                            format!("{op:?} {bound:?} w={width} |a|={} |b|={}", a.len(), b.len());
                        assert_eq!(t, simulate(op, &a, &b, bound, width), "timing: {ctx}");
                        assert_eq!(got, want, "keys: {ctx}");
                        assert_eq!(t.produced, got.len() as u64, "count: {ctx}");
                    }
                }
                // S_VMERGE: merged keys and scaled values.
                let (va, vb) = (vals(&a), vals(&b));
                let (mut keys, mut vs) = (Vec::new(), Vec::new());
                let t = walk(SuOp::Merge, &a, &b, Bound::none(), width, |o| match o {
                    Out::Pair(i, j) => {
                        keys.push(a[i]);
                        vs.push(1.5 * va[i] + -0.25 * vb[j]);
                    }
                    Out::A(r) => {
                        keys.extend_from_slice(&a[r.clone()]);
                        vs.extend(va[r].iter().map(|&v| 1.5 * v));
                    }
                    Out::B(r) => {
                        keys.extend_from_slice(&b[r.clone()]);
                        vs.extend(vb[r].iter().map(|&v| -0.25 * v));
                    }
                });
                let (want_k, want_v) = setops::vmerge(1.5, &a, &va, -0.25, &b, &vb);
                assert_eq!(t, simulate(SuOp::Merge, &a, &b, Bound::none(), width));
                assert_eq!(keys, want_k);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&vs), bits(&want_v), "vmerge values, w={width}");
            }
        }
    }

    /// The `S_VINTER` walk (scan or dense seek) reduces exactly the pairs
    /// `setops::vinter` does, in the same order, bit for bit.
    #[test]
    fn vinter_walk_matches_setops() {
        for (a, b) in operand_pairs() {
            let (va, vb) = (vals(&a), vals(&b));
            for op in [ValueOp::Mac, ValueOp::Add, ValueOp::Max, ValueOp::Min] {
                for width in [1, 2, 16] {
                    let (mut acc, mut pairs) = (0.0, Vec::new());
                    let t = vinter_walk(&a, &b, width, |i, j| {
                        acc += op.combine(va[i], vb[j]);
                        pairs.push((i, j));
                    });
                    let (want, matches) = setops::vinter(&a, &va, &b, &vb, op);
                    assert_eq!(acc.to_bits(), want.to_bits(), "{op:?} w={width}");
                    assert_eq!(t.produced, matches);
                    assert_eq!(pairs.len() as u64, matches);
                    assert!(pairs.iter().all(|&(i, j)| a[i] == b[j]));
                    if !(is_dense(&a) ^ is_dense(&b)) {
                        assert_eq!(t, simulate(SuOp::Intersect, &a, &b, Bound::none(), width));
                    }
                }
            }
        }
    }

    #[test]
    fn intersect_counts_match_functional() {
        let a: Vec<u32> = vec![1, 3, 5, 7, 9, 20, 21, 22, 40];
        let b: Vec<u32> = vec![2, 3, 7, 21, 35, 40, 41];
        for bound in [Bound::none(), Bound::below(22), Bound::below(3)] {
            let t = simulate(SuOp::Intersect, &a, &b, bound, W);
            assert_eq!(t.produced, setops::intersect_count(&a, &b, bound), "{bound:?}");
        }
    }

    #[test]
    fn subtract_counts_match_functional() {
        let a: Vec<u32> = vec![1, 3, 5, 7, 9, 20, 21, 22, 40];
        let b: Vec<u32> = vec![2, 3, 7, 21, 35, 40, 41];
        for bound in [Bound::none(), Bound::below(22), Bound::below(3)] {
            let t = simulate(SuOp::Subtract, &a, &b, bound, W);
            assert_eq!(t.produced, setops::subtract_count(&a, &b, bound), "{bound:?}");
        }
    }

    #[test]
    fn merge_counts_match_functional() {
        let a: Vec<u32> = vec![1, 3, 5, 7, 9];
        let b: Vec<u32> = vec![2, 3, 7, 21, 35, 40, 41];
        let t = simulate(SuOp::Merge, &a, &b, Bound::none(), W);
        assert_eq!(t.produced, setops::merge_count(&a, &b));
        assert_eq!(t.consumed_a, a.len() as u64);
        assert_eq!(t.consumed_b, b.len() as u64);
    }

    #[test]
    fn identical_streams_one_match_per_cycle() {
        let a: Vec<u32> = (0..100).collect();
        let t = simulate(SuOp::Intersect, &a, &a, Bound::none(), W);
        assert_eq!(t.produced, 100);
        assert_eq!(t.compare_cycles, 100); // ≤1 output/cycle for intersect
    }

    #[test]
    fn disjoint_streams_skip_a_window_per_cycle() {
        // A entirely below B: one cycle skips up to 16 elements of A.
        let a: Vec<u32> = (0..160).collect();
        let b: Vec<u32> = vec![1000];
        let t = simulate(SuOp::Intersect, &a, &b, Bound::none(), W);
        assert_eq!(t.compare_cycles, 10); // 160 / 16
        assert_eq!(t.produced, 0);
    }

    #[test]
    fn interleaved_disjoint_is_the_worst_case() {
        // Strictly alternating keys defeat the parallel comparison: each
        // cycle only one side can prove one element smaller than the
        // other's head, so progress is ~1 element/cycle combined — the
        // datapath's worst case.
        let a: Vec<u32> = (0..50).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..50).map(|x| x * 2 + 1).collect();
        let t = simulate(SuOp::Intersect, &a, &b, Bound::none(), W);
        assert!((90..=100).contains(&t.compare_cycles), "cycles={}", t.compare_cycles);
        assert_eq!(t.produced, 0);
    }

    #[test]
    fn parallel_comparison_beats_scalar() {
        // The headline effect: SU cycles are far below the scalar
        // element-at-a-time walk (|A| + |B| steps) on skewed operands.
        let a: Vec<u32> = (0..1000).collect();
        let b: Vec<u32> = vec![100, 500, 900];
        let t = simulate(SuOp::Intersect, &a, &b, Bound::none(), W);
        let scalar_steps = (t.consumed_a + t.consumed_b) as f64;
        assert!(
            (t.compare_cycles as f64) < scalar_steps / 4.0,
            "cycles {} vs scalar {scalar_steps}",
            t.compare_cycles
        );
    }

    #[test]
    fn bounded_consumes_less() {
        let a: Vec<u32> = (0..100).collect();
        let t_full = simulate(SuOp::Intersect, &a, &a, Bound::none(), W);
        let t_cut = simulate(SuOp::Intersect, &a, &a, Bound::below(10), W);
        assert_eq!(t_cut.produced, 10);
        assert!(t_cut.consumed_total() < t_full.consumed_total() / 4);
        assert!(t_cut.compare_cycles < t_full.compare_cycles / 4);
    }

    #[test]
    fn merge_tail_copies_at_width() {
        let a: Vec<u32> = (0..10).collect();
        let b: Vec<u32> = (100..260).collect(); // disjoint tail of 160
        let t = simulate(SuOp::Merge, &a, &b, Bound::none(), W);
        assert_eq!(t.produced, 170);
        // 1 cycle per window of A (all < b[0]), then the B tail at 16/cycle.
        assert!(t.compare_cycles <= 1 + 10, "cycles={}", t.compare_cycles);
    }

    #[test]
    fn subtract_bound_limits_consumption() {
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = vec![150];
        let t = simulate(SuOp::Subtract, &a, &b, Bound::below(10), W);
        assert_eq!(t.produced, 10);
        assert!(t.consumed_a <= 32, "consumed_a={}", t.consumed_a);
    }

    #[test]
    fn empty_operands() {
        let t = simulate(SuOp::Intersect, &[], &[1, 2], Bound::none(), W);
        assert_eq!(t.produced, 0);
        assert_eq!(t.compare_cycles, 0);
        let t = simulate(SuOp::Merge, &[], &[1, 2], Bound::none(), W);
        assert_eq!(t.produced, 2);
    }

    #[test]
    fn width_one_degrades_to_scalar() {
        let a: Vec<u32> = (0..64).collect();
        let b: Vec<u32> = vec![63];
        let t = simulate(SuOp::Intersect, &a, &b, Bound::none(), 1);
        assert_eq!(t.compare_cycles, 64); // one element per cycle
    }
}
