//! Seeded random sparse-matrix and tensor generators.

use crate::csf::CsfTensor;
use crate::csr_matrix::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate a random sparse matrix with the given shape and nonzero count.
///
/// Nonzeros are spread over rows with mild variation (each row receives
/// the mean ± up to 50%), and column positions are sampled without
/// replacement within a row. Values are uniform in (0.1, 1.0] so products
/// never cancel to exactly zero in tests.
///
/// # Panics
///
/// Panics if `nnz` exceeds `rows * cols`.
pub fn random_matrix(rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    assert!(nnz <= rows * cols, "nnz {nnz} exceeds capacity {rows}x{cols}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mean = nnz as f64 / rows as f64;
    let mut triplets: Vec<(u32, u32, f64)> = Vec::with_capacity(nnz);
    let mut remaining = nnz;
    let mut row_fill = vec![std::collections::HashSet::<u32>::new(); rows];
    for (r, fill) in row_fill.iter_mut().enumerate() {
        let rows_left = rows - r;
        let target = if rows_left == 1 {
            remaining
        } else {
            let jitter = rng.gen_range(0.5..1.5);
            (mean * jitter).round() as usize
        };
        // A row can never hold more than `cols` distinct entries.
        let take = target.min(cols).min(remaining);
        while fill.len() < take {
            fill.insert(rng.gen_range(0..cols) as u32);
        }
        remaining -= take;
        if remaining == 0 {
            break;
        }
    }
    // Spill-over: leftovers (e.g. when the last row saturated) go to any
    // row with free capacity.
    while remaining > 0 {
        let r = rng.gen_range(0..rows);
        if row_fill[r].len() < cols && row_fill[r].insert(rng.gen_range(0..cols) as u32) {
            remaining -= 1;
        }
    }
    for (r, chosen) in row_fill.into_iter().enumerate() {
        let mut chosen: Vec<u32> = chosen.into_iter().collect();
        chosen.sort_unstable(); // deterministic order regardless of hasher
        for c in chosen {
            triplets.push((r as u32, c, rng.gen_range(0.1..=1.0)));
        }
    }
    CsrMatrix::from_triplets(rows, cols, &triplets)
}

/// Generate a random CSF 3-tensor with `num_fibers` nonzero (i, j) fibers
/// and `nnz` total entries (distributed over the fibers with variation).
///
/// The last fiber takes whatever the others left over, capped at
/// `dims[2]` entries: when the remainder exceeds that, the tensor comes
/// out with fewer than `nnz` entries.
///
/// # Panics
///
/// Panics if `num_fibers` exceeds `dims[0] * dims[1]`, or the entries per
/// fiber would exceed `dims[2]`.
pub fn random_tensor(dims: [usize; 3], num_fibers: usize, nnz: usize, seed: u64) -> CsfTensor {
    assert!(num_fibers <= dims[0] * dims[1], "too many fibers for dims {dims:?}");
    assert!(nnz >= num_fibers, "need at least one entry per fiber");
    let mut rng = StdRng::seed_from_u64(seed);
    // Choose distinct (i, j) fiber coordinates.
    let mut fibers = std::collections::HashSet::with_capacity(num_fibers * 2);
    while fibers.len() < num_fibers {
        let i = rng.gen_range(0..dims[0]) as u32;
        let j = rng.gen_range(0..dims[1]) as u32;
        fibers.insert((i, j));
    }
    let mut fibers: Vec<(u32, u32)> = fibers.into_iter().collect();
    fibers.sort_unstable(); // deterministic order regardless of hasher
    let mean = nnz as f64 / num_fibers as f64;
    assert!(mean <= dims[2] as f64, "fibers cannot hold {mean:.1} entries (k dim {})", dims[2]);
    let mut entries: Vec<(u32, u32, u32, f64)> = Vec::with_capacity(nnz);
    let mut remaining = nnz;
    for (n, &(i, j)) in fibers.iter().enumerate() {
        let left = num_fibers - n;
        let target = if left == 1 {
            remaining.min(dims[2])
        } else {
            let jitter = rng.gen_range(0.5..1.5);
            ((mean * jitter).round() as usize).clamp(1, dims[2]).min(remaining - (left - 1))
        };
        let mut ks = std::collections::HashSet::with_capacity(target * 2);
        while ks.len() < target {
            ks.insert(rng.gen_range(0..dims[2]) as u32);
        }
        let mut ks: Vec<u32> = ks.into_iter().collect();
        ks.sort_unstable();
        for k in ks {
            entries.push((i, j, k, rng.gen_range(0.1..=1.0)));
        }
        remaining -= target;
    }
    CsfTensor::from_entries(dims, &entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_hits_exact_nnz() {
        let m = random_matrix(100, 200, 1500, 17);
        assert_eq!(m.nnz(), 1500);
        assert_eq!((m.rows(), m.cols()), (100, 200));
    }

    #[test]
    fn matrix_deterministic() {
        assert_eq!(random_matrix(50, 50, 400, 5), random_matrix(50, 50, 400, 5));
        assert_ne!(random_matrix(50, 50, 400, 5), random_matrix(50, 50, 400, 6));
    }

    #[test]
    fn matrix_rows_sorted_no_dups() {
        let m = random_matrix(40, 60, 600, 23);
        for r in 0..m.rows() {
            let idx = m.row_indices(r);
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "row {r} unsorted");
        }
    }

    #[test]
    fn matrix_values_nonzero() {
        let m = random_matrix(30, 30, 200, 3);
        for r in 0..m.rows() {
            assert!(m.row_values(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn tensor_hits_targets() {
        let t = random_tensor([20, 10, 50], 60, 600, 11);
        assert_eq!(t.num_fibers(), 60);
        assert_eq!(t.nnz(), 600);
    }

    #[test]
    fn tensor_deterministic() {
        assert_eq!(
            random_tensor([10, 10, 20], 30, 120, 9),
            random_tensor([10, 10, 20], 30, 120, 9)
        );
    }

    #[test]
    fn tensor_last_fiber_capped_at_k_dim() {
        // The jittered fibers leave more than `dims[2]` entries for the
        // last one on this seed, which used to loop forever looking for
        // that many distinct keys.
        let t = random_tensor([8, 8, 6], 20, 100, 0);
        assert_eq!(t.num_fibers(), 20);
        assert!(t.nnz() < 100, "nnz {}", t.nnz());
        // The same at the Uber shape (`TensorDataset::UberPickups`).
        let t = random_tensor([430, 1100, 1700], 16_500, 330_000, 0xc3f2_827a_ffe7_f664);
        assert_eq!(t.num_fibers(), 16_500);
        assert!(t.nnz() < 330_000, "nnz {}", t.nnz());
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn matrix_capacity_checked() {
        random_matrix(2, 2, 5, 0);
    }

    #[test]
    #[should_panic(expected = "too many fibers")]
    fn tensor_fiber_capacity_checked() {
        random_tensor([2, 2, 2], 5, 5, 0);
    }
}
