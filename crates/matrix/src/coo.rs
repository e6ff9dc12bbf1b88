//! Coordinate (triplet) format builder for sparse matrices.
//!
//! The synthetic dataset generators in `dw-data` emit entries in arbitrary
//! order; [`CooMatrix`] collects them and converts to [`CsrMatrix`] /
//! [`CscMatrix`] for execution.  Duplicate entries are summed on conversion,
//! matching the conventional COO semantics.

use crate::{CscMatrix, CsrMatrix, DenseMatrix, Entry, Layout, MatrixError, Shape};

/// A sparse matrix under construction, stored as triplets in push order.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    shape: Shape,
    entries: Vec<Entry>,
    /// Whether `entries` are in (row, col) order — kept up to date by
    /// [`push`](Self::push), so a row-major merge of a matrix pushed in
    /// order (as the generators push) skips even the ordering scan.
    row_major_ordered: bool,
}

impl Default for CooMatrix {
    fn default() -> Self {
        CooMatrix::new(0, 0)
    }
}

impl CooMatrix {
    /// Create an empty builder with the given shape.
    ///
    /// # Panics
    /// Panics if either dimension exceeds `u32::MAX` — the bound every
    /// compressed layout in this crate already imposes through its `u32`
    /// index arrays.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(
            rows <= u32::MAX as usize && cols <= u32::MAX as usize,
            "matrix dimensions must fit u32 indices"
        );
        CooMatrix {
            shape: Shape::new(rows, cols),
            entries: Vec::new(),
            row_major_ordered: true,
        }
    }

    /// Shape of the matrix being built.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.shape.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.shape.cols
    }

    /// Number of entries pushed so far (duplicates counted separately).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Bytes occupied by the triplet representation.
    pub fn size_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<Entry>()
    }

    /// Per-row stored-entry counts of the *converted* matrix: duplicates at
    /// the same `(row, col)` are merged and entries whose merged value is
    /// zero are dropped, exactly as [`CooMatrix::to_csr`] does (the same
    /// merge routine backs both).
    ///
    /// This lets [`crate::MatrixStats`] be computed from the canonical COO
    /// form without materializing any compressed layout.
    pub fn converted_row_nnz(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.shape.rows];
        self.merge_entries(false, |row, _, _| counts[row] += 1);
        counts
    }

    /// The one duplicate-merging pass every conversion is built on
    /// (delegates to [`merge_triplets`], which the out-of-core page streams
    /// share so paged reads merge with exactly these semantics).  A
    /// row-major merge of triplets pushed in (row, col) order goes straight
    /// to the merge, without even the ordering scan.
    fn merge_entries(&self, column_major: bool, emit: impl FnMut(usize, usize, f64)) {
        if !column_major && self.row_major_ordered {
            merge_sorted(&self.entries, emit);
        } else {
            merge_triplets(&self.entries, column_major, emit);
        }
    }

    /// Append one entry.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<(), MatrixError> {
        if row >= self.shape.rows || col >= self.shape.cols {
            return Err(MatrixError::IndexOutOfBounds {
                row,
                col,
                shape: (self.shape.rows, self.shape.cols),
            });
        }
        let entry = Entry {
            row: row as u32,
            col: col as u32,
            value,
        };
        if let Some(last) = self.entries.last() {
            self.row_major_ordered &= row_major_key(last) <= row_major_key(&entry);
        }
        self.entries.push(entry);
        Ok(())
    }

    /// View of all entries pushed so far.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Convert to CSR, summing duplicates and dropping explicit zeros.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.shape.rows + 1);
        let mut indices = Vec::with_capacity(self.entries.len());
        let mut data = Vec::with_capacity(self.entries.len());
        indptr.push(0u32);
        let mut current_row = 0usize;
        self.merge_entries(false, |row, col, value| {
            while current_row < row {
                indptr.push(indices.len() as u32);
                current_row += 1;
            }
            indices.push(col as u32);
            data.push(value);
        });
        while current_row < self.shape.rows {
            indptr.push(indices.len() as u32);
            current_row += 1;
        }
        CsrMatrix::from_parts(self.shape.rows, self.shape.cols, indptr, indices, data)
            .expect("COO builder produced a structurally valid CSR")
    }

    /// Convert to CSC, summing duplicates and dropping explicit zeros.
    ///
    /// Converts directly (column-major pass over the shared merge routine)
    /// without materializing an intermediate CSR matrix, so a column-only
    /// consumer never allocates a row-major layout.  The result is
    /// bit-equal to `self.to_csr().to_csc()`.
    pub fn to_csc(&self) -> CscMatrix {
        let mut indptr = Vec::with_capacity(self.shape.cols + 1);
        let mut indices = Vec::with_capacity(self.entries.len());
        let mut data = Vec::with_capacity(self.entries.len());
        indptr.push(0u32);
        let mut current_col = 0usize;
        self.merge_entries(true, |row, col, value| {
            while current_col < col {
                indptr.push(indices.len() as u32);
                current_col += 1;
            }
            indices.push(row as u32);
            data.push(value);
        });
        while current_col < self.shape.cols {
            indptr.push(indices.len() as u32);
            current_col += 1;
        }
        CscMatrix::from_parts(self.shape.rows, self.shape.cols, indptr, indices, data)
            .expect("COO builder produced a structurally valid CSC")
    }

    /// Convert to a dense matrix in the requested layout.
    pub fn to_dense(&self, layout: Layout) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.shape.rows, self.shape.cols, layout);
        for e in &self.entries {
            let (row, col) = (e.row as usize, e.col as usize);
            let prev = m.get(row, col);
            m.set(row, col, prev + e.value);
        }
        m
    }
}

/// The shared duplicate-merging pass over a triplet slice.
///
/// Visits the entries row-major (`column_major = false`) or column-major
/// (`true`) in exactly the order a *stable* sort on the (primary,
/// secondary) key would give — duplicates at the same `(row, col)` keep
/// slice order, so their values sum in the same order on every path —
/// merges them, drops zero sums, and calls `emit(row, col, value)` for each
/// surviving entry in that order.
///
/// The pass is linear in the entries plus the primary key span:
/// * one scan checks whether the slice is already in key order and finds
///   its smallest and largest primary key;
/// * ordered input — what the generators and row-ordered files produce —
///   is merged straight off the borrowed slice, with no copy and no sort;
/// * other input is bucketed by a stable counting sort on the primary key
///   ([`bucket_by_primary`], buckets offset by the smallest key, so a page
///   of high rows allocates only its own span), then each bucket is
///   stable-sorted on the secondary key.
///
/// Centralizing this is what makes [`CooMatrix::to_csr`],
/// [`CooMatrix::to_csc`], [`CooMatrix::converted_row_nnz`] *and* the
/// out-of-core page streams of [`crate::ooc`] bit-consistent with each
/// other by construction: a page whose rows are disjoint from every other
/// page merges to exactly the slice the global merge would have produced
/// for those rows.
pub(crate) fn merge_triplets(
    entries: &[Entry],
    column_major: bool,
    emit: impl FnMut(usize, usize, f64),
) {
    if column_major {
        merge_keyed(entries, col_major_key, emit);
    } else {
        merge_keyed(entries, row_major_key, emit);
    }
}

/// A copy of `entries` stably sorted by row — within-row slice order, and
/// with it the duplicate-merge order, is kept — through the same counting
/// pass [`merge_triplets`] buckets with.
pub(crate) fn stable_sort_by_row(entries: &[Entry]) -> Vec<Entry> {
    let scan = KeyScan::of(entries, row_major_key);
    bucket_by_primary(entries, row_major_key, scan.lo, scan.hi).0
}

/// `(row, col)` packed into one integer that orders like the tuple.
fn row_major_key(e: &Entry) -> u64 {
    (u64::from(e.row) << 32) | u64::from(e.col)
}

/// `(col, row)` packed into one integer that orders like the tuple.
fn col_major_key(e: &Entry) -> u64 {
    (u64::from(e.col) << 32) | u64::from(e.row)
}

/// The primary (high) half of a packed key.
fn primary(key: u64) -> u32 {
    (key >> 32) as u32
}

/// What one pass over the entries learns: whether they are already in key
/// order, and their inclusive primary key range (`lo > hi` when empty).
struct KeyScan {
    ordered: bool,
    lo: u32,
    hi: u32,
}

impl KeyScan {
    fn of(entries: &[Entry], key: impl Fn(&Entry) -> u64) -> Self {
        let mut scan = KeyScan {
            ordered: true,
            lo: u32::MAX,
            hi: 0,
        };
        let mut prev = 0u64;
        for e in entries {
            let k = key(e);
            scan.ordered &= k >= prev;
            prev = k;
            scan.lo = scan.lo.min(primary(k));
            scan.hi = scan.hi.max(primary(k));
        }
        scan
    }
}

/// [`merge_triplets`] for one packed key order.
fn merge_keyed(
    entries: &[Entry],
    key: impl Fn(&Entry) -> u64 + Copy,
    emit: impl FnMut(usize, usize, f64),
) {
    let scan = KeyScan::of(entries, key);
    if scan.ordered {
        return merge_sorted(entries, emit);
    }
    let (mut sorted, bounds) = bucket_by_primary(entries, key, scan.lo, scan.hi);
    for bucket in bounds.windows(2) {
        if bucket[1] - bucket[0] > 1 {
            sorted[bucket[0]..bucket[1]].sort_by_key(key);
        }
    }
    merge_sorted(&sorted, emit);
}

/// Stable counting sort of `entries` on the primary key, whose values lie
/// in `lo..=hi`.  Returns the permuted copy and the bucket bounds: key
/// `lo + k` occupies `sorted[bounds[k]..bounds[k + 1]]`.  Only `hi - lo + 1`
/// buckets are allocated, never one per key below `lo`.
fn bucket_by_primary(
    entries: &[Entry],
    key: impl Fn(&Entry) -> u64,
    lo: u32,
    hi: u32,
) -> (Vec<Entry>, Vec<usize>) {
    if entries.is_empty() {
        return (Vec::new(), vec![0]);
    }
    let bucket = |e: &Entry| (primary(key(e)) - lo) as usize;
    let span = (hi - lo) as usize + 1;
    // `bounds[k + 1]` counts bucket k; the prefix sum turns `bounds[k]`
    // into bucket k's start, which the scatter then uses as its cursor.
    let mut bounds = vec![0usize; span + 1];
    for e in entries {
        bounds[bucket(e) + 1] += 1;
    }
    for k in 0..span {
        bounds[k + 1] += bounds[k];
    }
    let mut sorted = vec![entries[0]; entries.len()];
    for e in entries {
        let cursor = &mut bounds[bucket(e)];
        sorted[*cursor] = *e;
        *cursor += 1;
    }
    // Each cursor now sits on the next bucket's start: shift them back.
    bounds.rotate_right(1);
    bounds[0] = 0;
    (sorted, bounds)
}

/// Merge a slice already in key order: sum runs of equal `(row, col)` in
/// slice order and emit every non-zero sum.
fn merge_sorted(sorted: &[Entry], mut emit: impl FnMut(usize, usize, f64)) {
    let mut i = 0usize;
    while i < sorted.len() {
        let e = sorted[i];
        let mut value = e.value;
        let mut j = i + 1;
        while j < sorted.len() && sorted[j].row == e.row && sorted[j].col == e.col {
            value += sorted[j].value;
            j += 1;
        }
        if value != 0.0 {
            emit(e.row as usize, e.col as usize, value);
        }
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The merge as a copy plus a stable (primary, secondary) comparison
    /// sort: the oracle the linear merge must match bit for bit, in order.
    fn merge_by_sorting(entries: &[Entry], column_major: bool) -> Vec<(usize, usize, u64)> {
        let mut sorted = entries.to_vec();
        if column_major {
            sorted.sort_by_key(|e| (e.col, e.row));
        } else {
            sorted.sort_by_key(|e| (e.row, e.col));
        }
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < sorted.len() {
            let e = sorted[i];
            let mut value = e.value;
            let mut j = i + 1;
            while j < sorted.len() && sorted[j].row == e.row && sorted[j].col == e.col {
                value += sorted[j].value;
                j += 1;
            }
            if value != 0.0 {
                out.push((e.row as usize, e.col as usize, value.to_bits()));
            }
            i = j;
        }
        out
    }

    fn merged(entries: &[Entry], column_major: bool) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        merge_triplets(entries, column_major, |r, c, v| {
            out.push((r, c, v.to_bits()))
        });
        out
    }

    /// Triplets over a small grid whose rows and columns start at `base`,
    /// so duplicates are common; a slice of the value range maps to exact
    /// zero (explicit zeros) and every fourth entry is followed by its
    /// negation (a cancelling pair).
    fn triplets(base: u32, raw: &[(u32, u32, f64)]) -> Vec<Entry> {
        let mut entries = Vec::new();
        for (k, &(r, c, v)) in raw.iter().enumerate() {
            let v = if v < -4.0 { 0.0 } else { v };
            let e = Entry {
                row: base + r,
                col: base + c,
                value: v,
            };
            entries.push(e);
            if k % 4 == 0 {
                entries.push(Entry { value: -v, ..e });
            }
        }
        entries
    }

    proptest! {
        #[test]
        fn prop_linear_merge_matches_sorting_oracle(
            base in 0usize..2,
            order in 0usize..3,
            raw in proptest::collection::vec((0u32..9, 0u32..6, -5.0f64..5.0), 0..60),
        ) {
            // Base 0 covers whole matrices; a base near u32::MAX / 2 is a
            // page of high rows (and columns), which only a bucket offset
            // by the smallest key can count without a 2³¹-entry array.
            let base = if base == 0 { 0 } else { u32::MAX / 2 };
            let mut entries = triplets(base, &raw);
            match order {
                // Fully (row, col)-ordered, as generators emit.
                1 => entries.sort_by_key(|e| (e.row, e.col)),
                // Row-ordered, unsorted within each row.
                2 => entries.sort_by_key(|e| e.row),
                // Arbitrary push order.
                _ => {}
            }
            for column_major in [false, true] {
                prop_assert_eq!(
                    merged(&entries, column_major),
                    merge_by_sorting(&entries, column_major),
                    "order {} column_major {}",
                    order,
                    column_major
                );
            }
            let mut by_row = entries.clone();
            by_row.sort_by_key(|e| e.row);
            prop_assert_eq!(stable_sort_by_row(&entries), by_row);

            // The builder's own merge, which trusts its push-time order flag.
            if base == 0 {
                let mut coo = CooMatrix::new(9, 6);
                for e in &entries {
                    coo.push(e.row as usize, e.col as usize, e.value).unwrap();
                }
                prop_assert_eq!(
                    coo.row_major_ordered,
                    KeyScan::of(&entries, row_major_key).ordered
                );
                for column_major in [false, true] {
                    let mut out = Vec::new();
                    coo.merge_entries(column_major, |r, c, v| out.push((r, c, v.to_bits())));
                    prop_assert_eq!(out, merge_by_sorting(&entries, column_major));
                }
            }
        }
    }

    #[test]
    fn buckets_span_only_the_keys_present() {
        let lo = u32::MAX / 2;
        let entries = [(lo + 7, 1.0), (lo, 2.0), (lo + 3, 3.0), (lo, 4.0)]
            .map(|(row, value)| Entry { row, col: 0, value });
        let scan = KeyScan::of(&entries, row_major_key);
        assert!(!scan.ordered);
        assert_eq!((scan.lo, scan.hi), (lo, lo + 7));
        let (sorted, bounds) = bucket_by_primary(&entries, row_major_key, scan.lo, scan.hi);
        assert_eq!(
            bounds.len(),
            9,
            "one bucket per key in lo..=hi, plus the end"
        );
        assert_eq!(bounds[..2], [0, 2]);
        assert_eq!(
            sorted.iter().map(|e| e.value).collect::<Vec<_>>(),
            vec![2.0, 4.0, 3.0, 1.0],
            "stable: equal rows keep slice order"
        );
    }

    #[test]
    fn empty_slice_merges_to_nothing() {
        assert!(merged(&[], false).is_empty());
        assert!(merged(&[], true).is_empty());
        assert!(stable_sort_by_row(&[]).is_empty());
    }

    proptest! {
        #[test]
        fn prop_direct_csc_matches_csr_route(
            triplets in proptest::collection::vec(
                (0usize..7, 0usize..5, -5.0f64..5.0),
                0..40,
            ),
        ) {
            let mut coo = CooMatrix::new(7, 5);
            for (r, c, v) in triplets {
                // Map a slice of the value range to exact zero so explicit
                // zeros and cancellation paths are exercised.
                let v = if v < -4.0 { 0.0 } else { v };
                coo.push(r, c, v).unwrap();
            }
            // Duplicates and explicit zeros must merge identically on both
            // conversion routes, down to the last bit.
            prop_assert_eq!(coo.to_csc(), coo.to_csr().to_csc());
        }
    }

    #[test]
    fn push_and_bounds() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 2, 2.0).unwrap();
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.shape(), Shape::new(2, 3));
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 3, 1.0).is_err());
        assert_eq!(coo.entries().len(), 2);
    }

    #[test]
    fn to_csr_sums_duplicates_and_drops_zeros() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(1, 1, 2.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        coo.push(0, 2, 5.0).unwrap();
        coo.push(2, 0, 4.0).unwrap();
        coo.push(2, 0, -4.0).unwrap(); // cancels to zero, dropped
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(1, 1), 5.0);
        assert_eq!(csr.get(0, 2), 5.0);
        assert_eq!(csr.get(2, 0), 0.0);
    }

    #[test]
    fn empty_rows_are_represented() {
        let mut coo = CooMatrix::new(4, 2);
        coo.push(3, 1, 1.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.row(0).nnz(), 0);
        assert_eq!(csr.row(3).nnz(), 1);
    }

    #[test]
    fn to_dense_accumulates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, 2.0).unwrap();
        let d = coo.to_dense(Layout::RowMajor);
        assert_eq!(d.get(0, 0), 3.0);
    }

    #[test]
    fn converted_row_nnz_matches_csr() {
        let mut coo = CooMatrix::new(4, 3);
        coo.push(0, 1, 2.0).unwrap();
        coo.push(0, 1, 3.0).unwrap(); // duplicate, merges
        coo.push(2, 0, 1.0).unwrap();
        coo.push(2, 2, -1.0).unwrap();
        coo.push(3, 1, 4.0).unwrap();
        coo.push(3, 1, -4.0).unwrap(); // cancels, dropped
        let counts = coo.converted_row_nnz();
        let csr = coo.to_csr();
        let expected: Vec<usize> = (0..4).map(|i| csr.row_nnz(i)).collect();
        assert_eq!(counts, expected);
        assert_eq!(counts, vec![1, 0, 2, 0]);
        assert_eq!(coo.rows(), 4);
        assert_eq!(coo.cols(), 3);
        assert!(coo.size_bytes() > 0);
    }

    #[test]
    fn csr_csc_dense_agree() {
        let mut coo = CooMatrix::new(3, 4);
        for (r, c, v) in [(0, 1, 1.5), (2, 3, -2.0), (1, 0, 4.0), (2, 0, 0.5)] {
            coo.push(r, c, v).unwrap();
        }
        let csr = coo.to_csr();
        let csc = coo.to_csc();
        let dense = coo.to_dense(Layout::RowMajor);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(csr.get(i, j), dense.get(i, j));
                assert_eq!(csc.get(i, j), dense.get(i, j));
            }
        }
    }
}
