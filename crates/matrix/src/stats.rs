//! Matrix statistics used by the cost-based optimizer.
//!
//! Figure 6 of the paper expresses the per-epoch cost of each access method
//! in terms of the per-row non-zero counts `n_i` and the model dimension `d`:
//!
//! * row-wise:        reads = Σᵢ nᵢ, writes = Σᵢ nᵢ (sparse) or d·N (dense)
//! * column-wise:     reads = Σᵢ nᵢ² (via the column-to-row expansion), writes = Σᵢ nᵢ
//! * column-to-row:   reads = Σᵢ nᵢ², writes = Σᵢ nᵢ
//!
//! and Figure 7(b) defines the *cost ratio* `(1+α)Σᵢnᵢ / (Σᵢnᵢ² + αd)` that
//! determines the row-vs-column crossover.  [`MatrixStats`] computes all of
//! these quantities from a [`CsrMatrix`].

use crate::coo::merge_triplets;
use crate::{CooMatrix, CscMatrix, CsrMatrix, Entry};

/// Summary statistics of a data matrix relevant to access-method costs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MatrixStats {
    /// Number of rows (examples), `N`.
    pub rows: usize,
    /// Number of columns (model dimension), `d`.
    pub cols: usize,
    /// Total number of non-zero elements, `Σᵢ nᵢ`.
    pub nnz: usize,
    /// Sum of squared per-row non-zero counts, `Σᵢ nᵢ²`.
    pub nnz_sq_sum: f64,
    /// Maximum non-zero count over rows.
    pub max_row_nnz: usize,
    /// Average non-zero count per row.
    pub avg_row_nnz: f64,
    /// Fraction of cells that are non-zero.
    pub density: f64,
    /// Bytes for the CSR sparse representation.
    pub sparse_bytes: usize,
    /// Bytes for a dense representation.
    pub dense_bytes: usize,
}

impl MatrixStats {
    /// Compute statistics from a CSR matrix.
    pub fn from_csr(matrix: &CsrMatrix) -> Self {
        Self::from_row_counts(
            matrix.rows(),
            matrix.cols(),
            (0..matrix.rows()).map(|i| matrix.row_nnz(i)),
        )
    }

    /// Compute statistics directly from the canonical COO form, without
    /// materializing any compressed layout.
    ///
    /// Duplicate entries and explicit zeros are merged exactly as the
    /// COO→CSR conversion merges them (the same linear merge pass, which
    /// reads row-ordered triplets in place and copies nothing), so the
    /// result is identical to `MatrixStats::from_csr(&coo.to_csr())` — this
    /// is what lets the cost-based planner decide on a storage layout
    /// *before* anything is materialized.
    pub fn from_coo(matrix: &CooMatrix) -> Self {
        Self::from_row_counts(
            matrix.rows(),
            matrix.cols(),
            matrix.converted_row_nnz().into_iter(),
        )
    }

    /// Compute statistics from a CSC matrix (per-row counts are gathered by
    /// a single pass over the stored row indices — no CSR is built).
    pub fn from_csc(matrix: &CscMatrix) -> Self {
        let mut counts = vec![0usize; matrix.rows()];
        for col in matrix.iter_cols() {
            for (i, _) in col.iter() {
                counts[i] += 1;
            }
        }
        Self::from_row_counts(matrix.rows(), matrix.cols(), counts.into_iter())
    }

    /// Construction from per-row stored-entry counts (the shared core of the
    /// `from_*` constructors; also used for row-range views, whose counts
    /// come from the base matrix's row layout).
    pub fn from_row_counts(rows: usize, cols: usize, counts: impl Iterator<Item = usize>) -> Self {
        let mut nnz = 0usize;
        let mut nnz_sq_sum = 0.0;
        let mut max_row_nnz = 0;
        for n_i in counts {
            nnz += n_i;
            nnz_sq_sum += (n_i as f64) * (n_i as f64);
            max_row_nnz = max_row_nnz.max(n_i);
        }
        let cells = (rows * cols).max(1) as f64;
        MatrixStats {
            rows,
            cols,
            nnz,
            nnz_sq_sum,
            max_row_nnz,
            avg_row_nnz: if rows == 0 {
                0.0
            } else {
                nnz as f64 / rows as f64
            },
            density: nnz as f64 / cells,
            // Bytes of the CSR representation: indptr + indices + values.
            sparse_bytes: (rows + 1) * 4 + nnz * 4 + nnz * 8,
            dense_bytes: rows * cols * 8,
        }
    }

    /// Statistics of a matrix with `cols` columns and no rows yet — the
    /// starting point for incremental [`absorb`](Self::absorb) accumulation
    /// over a live page stream.
    pub fn empty(cols: usize) -> Self {
        Self::from_row_counts(0, cols, std::iter::empty())
    }

    /// Absorb one row-disjoint page of raw (unmerged) triplets covering rows
    /// `row_start..row_end`, updating every statistic online.
    ///
    /// Duplicates and explicit zeros inside the page are merged exactly as
    /// the COO→CSR conversion merges them, and a `(row, col)` duplicate
    /// never spans pages (pages are row-disjoint), so after absorbing every
    /// page of a source — in **any** arrival order — the result is
    /// bit-identical to [`from_coo`](Self::from_coo) on the merged data:
    /// the accumulators are integers or f64 sums of exact small integers
    /// (each `nᵢ² < 2⁵³`), so no reassociation error is possible, and the
    /// derived fields are pure functions of `(rows, cols, nnz, …)`.
    pub fn absorb(&mut self, entries: &[Entry], row_start: usize, row_end: usize) {
        debug_assert!(row_end >= row_start);
        let mut counts = vec![0usize; row_end - row_start];
        merge_triplets(entries, false, |r, _, _| counts[r - row_start] += 1);
        for &n_i in &counts {
            self.nnz += n_i;
            self.nnz_sq_sum += (n_i as f64) * (n_i as f64);
            self.max_row_nnz = self.max_row_nnz.max(n_i);
        }
        self.rows += row_end - row_start;
        let cells = (self.rows * self.cols).max(1) as f64;
        self.avg_row_nnz = if self.rows == 0 {
            0.0
        } else {
            self.nnz as f64 / self.rows as f64
        };
        self.density = self.nnz as f64 / cells;
        self.sparse_bytes = (self.rows + 1) * 4 + self.nnz * 4 + self.nnz * 8;
        self.dense_bytes = self.rows * self.cols * 8;
    }

    /// Whether the matrix should be treated as sparse for storage purposes.
    ///
    /// Figure 10 of the paper marks a dataset sparse when the sparse
    /// representation is substantially smaller than the dense one; we use a
    /// 50% threshold, matching the "Dense requires 1/2 the space of a sparse
    /// representation when fully dense" observation in Appendix A.
    pub fn is_sparse(&self) -> bool {
        self.sparse_bytes < self.dense_bytes / 2
    }

    /// Reads per epoch for the row-wise access method (Figure 6).
    pub fn rowwise_reads(&self) -> f64 {
        self.nnz as f64
    }

    /// Writes per epoch for the row-wise method with dense updates (Figure 6).
    pub fn rowwise_writes_dense(&self) -> f64 {
        (self.rows * self.cols) as f64
    }

    /// Writes per epoch for the row-wise method with sparse updates (Figure 6).
    pub fn rowwise_writes_sparse(&self) -> f64 {
        self.nnz as f64
    }

    /// Reads per epoch for the column-wise / column-to-row methods (Figure 6).
    ///
    /// Iterating column-wise over a sparse matrix requires, for each column
    /// `j`, touching every row in `S(j)`; summed over an epoch this is
    /// `Σᵢ nᵢ²` in the paper's model (each row is re-read once per non-zero
    /// it contains).
    pub fn colwise_reads(&self) -> f64 {
        self.nnz_sq_sum
    }

    /// Writes per epoch for the column-wise / column-to-row methods (Figure 6).
    pub fn colwise_writes(&self) -> f64 {
        self.nnz as f64
    }

    /// The cost ratio from Figure 7(b): `(1+α)Σᵢnᵢ / (Σᵢnᵢ² + αd)`.
    ///
    /// A small ratio means row-wise is cheap relative to column-wise; a
    /// large ratio means column-wise wins because the row-wise write
    /// contention (the `αd` term) dominates.
    pub fn cost_ratio(&self, alpha: f64) -> f64 {
        let numerator = (1.0 + alpha) * self.nnz as f64;
        let denominator = self.nnz_sq_sum + alpha * self.cols as f64;
        if denominator == 0.0 {
            0.0
        } else {
            numerator / denominator
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooMatrix, SparseVector};
    use proptest::prelude::*;

    fn matrix_with_rows(rows: &[Vec<(u32, f64)>], cols: usize) -> CsrMatrix {
        let svs: Vec<SparseVector> = rows
            .iter()
            .map(|r| {
                SparseVector::from_parts(
                    r.iter().map(|(i, _)| *i).collect(),
                    r.iter().map(|(_, v)| *v).collect(),
                )
            })
            .collect();
        CsrMatrix::from_sparse_rows(cols, &svs).unwrap()
    }

    #[test]
    fn basic_stats() {
        let m = matrix_with_rows(
            &[
                vec![(0, 1.0), (1, 1.0), (2, 1.0)],
                vec![(1, 1.0)],
                vec![(0, 1.0), (3, 1.0)],
            ],
            4,
        );
        let s = MatrixStats::from_csr(&m);
        assert_eq!(s.rows, 3);
        assert_eq!(s.cols, 4);
        assert_eq!(s.nnz, 6);
        assert_eq!(s.nnz_sq_sum, 9.0 + 1.0 + 4.0);
        assert_eq!(s.max_row_nnz, 3);
        assert!((s.avg_row_nnz - 2.0).abs() < 1e-12);
        assert!((s.density - 0.5).abs() < 1e-12);
        assert_eq!(s.rowwise_reads(), 6.0);
        assert_eq!(s.rowwise_writes_dense(), 12.0);
        assert_eq!(s.rowwise_writes_sparse(), 6.0);
        assert_eq!(s.colwise_reads(), 14.0);
        assert_eq!(s.colwise_writes(), 6.0);
    }

    #[test]
    fn cost_ratio_formula() {
        let m = matrix_with_rows(&[vec![(0, 1.0), (1, 1.0)], vec![(2, 1.0)]], 3);
        let s = MatrixStats::from_csr(&m);
        // nnz = 3, nnz_sq = 5, d = 3, alpha = 10
        let expected = (1.0 + 10.0) * 3.0 / (5.0 + 10.0 * 3.0);
        assert!((s.cost_ratio(10.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn cost_ratio_zero_denominator() {
        let m = CooMatrix::new(2, 0).to_csr();
        let s = MatrixStats::from_csr(&m);
        assert_eq!(s.cost_ratio(10.0), 0.0);
    }

    #[test]
    fn sparse_detection() {
        // A very sparse wide matrix should be recognized as sparse.
        let m = matrix_with_rows(&[vec![(999, 1.0)], vec![(0, 1.0)]], 1000);
        assert!(MatrixStats::from_csr(&m).is_sparse());
        // A tiny fully dense matrix should not.
        let dense = matrix_with_rows(&[vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]], 2);
        assert!(!MatrixStats::from_csr(&dense).is_sparse());
    }

    proptest! {
        #[test]
        fn prop_cost_ratio_monotone_in_alpha_for_sparse_rows(
            nrows in 1usize..20,
            cols in 50usize..200,
        ) {
            // Rows with a single non-zero: nnz = N, nnz_sq = N.
            let rows: Vec<Vec<(u32, f64)>> = (0..nrows)
                .map(|i| vec![((i % cols) as u32, 1.0)])
                .collect();
            let m = matrix_with_rows(&rows, cols);
            let s = MatrixStats::from_csr(&m);
            // When d > nnz (underdetermined), increasing alpha makes row-wise
            // relatively cheaper so the ratio must decrease.
            let r_small = s.cost_ratio(4.0);
            let r_large = s.cost_ratio(12.0);
            prop_assert!(r_large <= r_small + 1e-12);
        }

        #[test]
        fn prop_from_coo_matches_from_csr(
            entries in proptest::collection::vec((0usize..9, 0usize..7, -3.0f64..3.0), 0..40)
        ) {
            let mut coo = CooMatrix::new(9, 7);
            for (r, c, v) in entries {
                // Inject exact zeros and duplicates to exercise the merge.
                let v = if v < -2.5 { 0.0 } else { v };
                coo.push(r, c, v).unwrap();
            }
            prop_assert_eq!(MatrixStats::from_coo(&coo), MatrixStats::from_csr(&coo.to_csr()));
        }

        #[test]
        fn prop_absorb_any_page_arrival_order_bit_matches_from_coo(
            entries in proptest::collection::vec((0usize..9, 0usize..7, -3.0f64..3.0), 0..60),
            page_entries in 1usize..6,
            order_seed in 0u64..1024,
        ) {
            use crate::ooc::{InMemorySource, MatrixSource, ENTRY_BYTES};
            let mut coo = CooMatrix::new(9, 7);
            for (r, c, v) in entries {
                // Inject exact zeros and duplicates to exercise the merge.
                let v = if v < -2.5 { 0.0 } else { v };
                coo.push(r, c, v).unwrap();
            }
            let source = InMemorySource::from_coo(&coo, page_entries * ENTRY_BYTES);
            // Deterministic Fisher–Yates: absorb pages in a shuffled order.
            let mut pages: Vec<usize> = (0..source.page_count()).collect();
            let mut state = order_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            for i in (1..pages.len()).rev() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let j = (state >> 33) as usize % (i + 1);
                pages.swap(i, j);
            }
            let mut inc = MatrixStats::empty(7);
            let mut buf = Vec::new();
            for p in pages {
                let meta = source.page_meta(p);
                source.read_page(p, &mut buf).unwrap();
                inc.absorb(&buf, meta.row_start, meta.row_end);
            }
            if source.page_count() == 0 {
                // No entries means no pages; the empty page still covers
                // the full row range.
                inc.absorb(&[], 0, 9);
            }
            let full = MatrixStats::from_coo(&coo);
            prop_assert_eq!(inc.nnz_sq_sum.to_bits(), full.nnz_sq_sum.to_bits());
            prop_assert_eq!(inc.density.to_bits(), full.density.to_bits());
            prop_assert_eq!(inc.avg_row_nnz.to_bits(), full.avg_row_nnz.to_bits());
            prop_assert_eq!(inc, full);
        }

        #[test]
        fn prop_stats_nonnegative(
            entries in proptest::collection::btree_map((0usize..8, 0usize..8), -3.0f64..3.0, 0..32)
        ) {
            let mut coo = CooMatrix::new(8, 8);
            for (&(r, c), &v) in &entries {
                if v != 0.0 {
                    coo.push(r, c, v).unwrap();
                }
            }
            let s = MatrixStats::from_csr(&coo.to_csr());
            prop_assert!(s.density >= 0.0 && s.density <= 1.0);
            prop_assert!(s.nnz_sq_sum >= s.nnz as f64 || s.nnz == 0);
            prop_assert!(s.avg_row_nnz <= s.max_row_nnz as f64 + 1e-12);
        }
    }
}
