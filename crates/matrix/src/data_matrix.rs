//! The unified storage layer: one logical matrix, plan-driven layouts.
//!
//! The paper treats the physical layout of the data matrix as an *engine
//! decision*: "DimmWitted always stores the dataset in a way that is
//! consistent with the access method" (Appendix A).  [`DataMatrix`] is the
//! storage object that makes that decision cheap to defer — it holds one
//! canonical source form (usually the COO triplets a generator emits) and
//! materializes the compressed layouts **lazily**, caching each one the
//! first time it is requested:
//!
//! * [`DataMatrix::csr`] — row-major compressed storage for row-wise access,
//! * [`DataMatrix::csc`] — column-major compressed storage for column-wise
//!   and column-to-row access,
//! * [`DataMatrix::dense`] — row-major dense storage for dense workloads.
//!
//! A plan that only ever walks rows therefore never allocates the CSC
//! arrays (and vice versa); the planner can eagerly materialize its chosen
//! layout up front with [`DataMatrix::materialize_rows`] /
//! [`DataMatrix::materialize_cols`] so no epoch pays the conversion cost.
//!
//! Two memory levers sit on top of the lazy caches:
//!
//! * [`DataMatrix::compact_source`] drops the canonical COO triplets once a
//!   compressed layout is resident, reclaiming the source's 16 bytes per
//!   non-zero (the resident layouts become canonical; anything still
//!   missing is converted from them).
//! * [`DataMatrix::row_range`] / [`DataMatrix::col_range`] cut **zero-copy
//!   shards**: a [`RowRangeView`] (resp. [`ColRangeView`]) window
//!   `start..end` into the shared row layout's (resp. CSC's) `indptr`, both
//!   thin surfaces over one [`AxisRangeView`] core.  A shard serves
//!   bit-identical row/column bytes through [`RowAccess`] / [`ColAccess`]
//!   without duplicating a single index or value — this is what makes NUMA
//!   sharding free on either axis.
//!
//! Clones share the underlying storage (the handle is an `Arc`), so a
//! layout materialized through any clone — a dataset, a task, a shard
//! builder — is visible to every other holder, and the bytes are counted
//! once.  [`MatrixStats`] are computed from the canonical form without
//! materializing anything, which is what lets the cost-based optimizer pick
//! an access method (and hence a layout) *before* any layout exists.

use crate::dense::DenseRows;
use crate::kernels::{IndexEncoding, KernelVariant};
use crate::ooc::{self, MatrixSource, PagedSource};
use crate::storage::ByteExtent;
use crate::views::{ColAccess, RowAccess};
use crate::{
    ColView, CooMatrix, CscMatrix, CsrMatrix, DenseMatrix, Layout, MatrixStats, RowView, Shape,
};
use std::path::Path;
use std::sync::{Arc, OnceLock, RwLock};

/// The axis a zero-copy range view windows over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// The view windows a contiguous row range (shares the base's row
    /// layout — what NUMA row sharding cuts).
    Rows,
    /// The view windows a contiguous column range (shares the base's CSC —
    /// what columnar sharding for the SCD family cuts).
    Cols,
}

/// Shared core of the zero-copy axis-range views: a cheap handle to the base
/// matrix (an `Arc` bump) plus the `start..end` window along one axis of its
/// shared layout.  The slicing, flattening, and paged-subrange logic lives
/// here once; [`RowRangeView`] and [`ColRangeView`] are the
/// orientation-typed surfaces over it.
///
/// Every stored vector the view serves along its axis is the exact slice
/// pair the base's compressed layout serves, so reads through the view are
/// bit-identical to reads of rows (resp. columns) `start..end` of the base.
#[derive(Debug, Clone)]
pub struct AxisRangeView {
    base: DataMatrix,
    axis: Axis,
    start: usize,
    end: usize,
}

impl AxisRangeView {
    /// The matrix this view windows into.
    pub fn base(&self) -> &DataMatrix {
        &self.base
    }

    /// The axis the window cuts along.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// First base row/column of the window.
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last base row/column of the window.
    pub fn end(&self) -> usize {
        self.end
    }

    /// Number of rows/columns in the window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Shape of the windowed submatrix.
    fn window_shape(&self) -> Shape {
        match self.axis {
            Axis::Rows => Shape::new(self.len(), self.base.cols()),
            Axis::Cols => Shape::new(self.base.rows(), self.len()),
        }
    }

    /// Borrowed view of window row `i` (rows axis only): the base's exact
    /// slice pair for row `start + i`.
    fn row(&self, i: usize) -> RowView<'_> {
        debug_assert_eq!(self.axis, Axis::Rows);
        assert!(
            i < self.len(),
            "row {i} outside view of {} rows",
            self.len()
        );
        // Served through the base's resident row backend (CSR or dense
        // rows) — bit-identical to reading the base directly.
        self.base.row(self.start + i)
    }

    fn row_nnz(&self, i: usize) -> usize {
        debug_assert_eq!(self.axis, Axis::Rows);
        assert!(
            i < self.len(),
            "row {i} outside view of {} rows",
            self.len()
        );
        self.base.row_nnz(self.start + i)
    }

    /// Borrowed view of window column `j` (cols axis only): the base's exact
    /// slice pair for column `start + j`.
    fn col(&self, j: usize) -> ColView<'_> {
        debug_assert_eq!(self.axis, Axis::Cols);
        assert!(
            j < self.len(),
            "column {j} outside view of {} columns",
            self.len()
        );
        // Served through the base's shared CSC — bit-identical to reading
        // the base directly.
        self.base.col(self.start + j)
    }

    fn col_nnz(&self, j: usize) -> usize {
        debug_assert_eq!(self.axis, Axis::Cols);
        assert!(
            j < self.len(),
            "column {j} outside view of {} columns",
            self.len()
        );
        self.base.col_nnz(self.start + j)
    }

    /// Copy the windowed rows into a standalone CSR matrix (rows axis).  On
    /// an out-of-core base whose shared row layout is not resident, this
    /// streams **only the window's page subrange** through the base's
    /// bounded cache — the per-node shard materialization of the
    /// larger-than-DRAM path; otherwise it is the in-memory escape hatch
    /// (shard reads never need it — they go through [`RowAccess`]).
    fn materialize_csr(&self) -> CsrMatrix {
        debug_assert_eq!(self.axis, Axis::Rows);
        if self.base.inner.csr.get().is_none() {
            if let Some(paged) = self.base.inner.paged.get() {
                return DataMatrix::csr_from_paged(paged, self.start, self.end, self.base.cols());
            }
        }
        self.base.csr().select_range(self.start, self.end)
    }

    /// Copy the windowed columns into a standalone CSC matrix (cols axis) —
    /// the mirror of [`AxisRangeView::materialize_csr`].  On an out-of-core
    /// base whose shared column layout is not resident, only the window's
    /// column subrange is *materialized* — but because pages are
    /// row-disjoint, the streaming passes still read every page and filter
    /// (unlike the row mirror, which streams only its page subrange); the
    /// win is bounding the resident output, not the IO.  Sessions never hit
    /// this path — they materialize the base's shared CSC before cutting
    /// shards — so the per-shard full-source passes only occur on direct
    /// matrix-layer use.
    fn materialize_csc(&self) -> CscMatrix {
        debug_assert_eq!(self.axis, Axis::Cols);
        if self.base.inner.csc.get().is_none() {
            if let Some(paged) = self.base.inner.paged.get() {
                return DataMatrix::csc_from_paged_cols(
                    paged,
                    self.base.rows(),
                    self.start,
                    self.end,
                );
            }
        }
        self.base.csc().select_range(self.start, self.end)
    }
}

/// A zero-copy window over a contiguous **row** range of another matrix.
///
/// The view holds a cheap handle to the base matrix plus the `start..end`
/// window into its row layout; every row it serves is the exact slice pair
/// the base's CSR serves, so reads through the view are bit-identical to
/// reads of rows `start..end` of the base.
#[derive(Debug, Clone)]
pub struct RowRangeView {
    view: AxisRangeView,
}

impl RowRangeView {
    /// The matrix this view windows into.
    pub fn base(&self) -> &DataMatrix {
        self.view.base()
    }

    /// First base row of the window.
    pub fn start(&self) -> usize {
        self.view.start()
    }

    /// One past the last base row of the window.
    pub fn end(&self) -> usize {
        self.view.end()
    }

    /// Number of rows in the window.
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }
}

impl RowAccess for RowRangeView {
    fn shape(&self) -> Shape {
        self.view.window_shape()
    }

    fn row(&self, i: usize) -> RowView<'_> {
        self.view.row(i)
    }

    fn row_nnz(&self, i: usize) -> usize {
        self.view.row_nnz(i)
    }
}

/// A zero-copy window over a contiguous **column** range of another matrix —
/// the mirror of [`RowRangeView`] for the column-wise and column-to-row
/// access methods.
///
/// The view holds a cheap handle to the base matrix plus the `start..end`
/// window into its shared CSC; every column it serves is the exact slice
/// pair the base's CSC serves (row ids stay global), so reads through the
/// view are bit-identical to reads of columns `start..end` of the base.
#[derive(Debug, Clone)]
pub struct ColRangeView {
    view: AxisRangeView,
}

impl ColRangeView {
    /// The matrix this view windows into.
    pub fn base(&self) -> &DataMatrix {
        self.view.base()
    }

    /// First base column of the window.
    pub fn start(&self) -> usize {
        self.view.start()
    }

    /// One past the last base column of the window.
    pub fn end(&self) -> usize {
        self.view.end()
    }

    /// Number of columns in the window.
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }
}

impl ColAccess for ColRangeView {
    fn shape(&self) -> Shape {
        self.view.window_shape()
    }

    fn col(&self, j: usize) -> ColView<'_> {
        self.view.col(j)
    }

    fn col_nnz(&self, j: usize) -> usize {
        self.view.col_nnz(j)
    }
}

#[derive(Debug)]
struct Inner {
    shape: Shape,
    /// Canonical COO triplets; `None` for matrices built from a compressed
    /// layout, for row-range views, for out-of-core sources, and after
    /// [`DataMatrix::compact_source`] / [`DataMatrix::spill_source_to`].
    source: RwLock<Option<CooMatrix>>,
    /// Out-of-core canonical source: triplet pages behind a bounded cache
    /// (set by [`DataMatrix::from_source`] or
    /// [`DataMatrix::spill_source_to`]).
    paged: OnceLock<PagedSource>,
    /// Zero-copy row/column window into another matrix (set only by
    /// `row_range` / `col_range`).
    window: Option<AxisRangeView>,
    csr: OnceLock<CsrMatrix>,
    csc: OnceLock<CscMatrix>,
    dense: OnceLock<DenseMatrix>,
    /// Dense row-major storage served through `RowAccess` (the planner's
    /// Dense layout arm: 8 bytes per element plus one shared index arange).
    dense_rows: OnceLock<DenseRows>,
    stats: OnceLock<MatrixStats>,
}

/// A logical data matrix with lazily materialized, cached physical layouts.
///
/// Cloning is cheap (an `Arc` bump) and clones share the layout caches.
#[derive(Debug, Clone)]
pub struct DataMatrix {
    inner: Arc<Inner>,
}

impl DataMatrix {
    fn from_parts(shape: Shape, source: Option<CooMatrix>, window: Option<AxisRangeView>) -> Self {
        DataMatrix {
            inner: Arc::new(Inner {
                shape,
                source: RwLock::new(source),
                paged: OnceLock::new(),
                window,
                csr: OnceLock::new(),
                csc: OnceLock::new(),
                dense: OnceLock::new(),
                dense_rows: OnceLock::new(),
                stats: OnceLock::new(),
            }),
        }
    }

    /// Build from the canonical COO form; nothing is materialized yet.
    pub fn from_coo(coo: CooMatrix) -> Self {
        Self::from_parts(coo.shape(), Some(coo), None)
    }

    /// Build from an **out-of-core** canonical source: triplet pages (e.g. a
    /// [`crate::ooc::FileBackedSource`] spill file) served through a page
    /// cache bounded to `cache_budget_bytes` of resident payload.
    ///
    /// Nothing is materialized yet; layouts materialize by streaming pages
    /// through the cache, so the whole source never needs to be resident —
    /// this is the larger-than-DRAM entry point of Appendix C.3.
    pub fn from_source(source: Arc<dyn MatrixSource>, cache_budget_bytes: usize) -> Self {
        Self::from_source_with(source, cache_budget_bytes, None, None)
    }

    /// [`from_source`](Self::from_source) with streaming-ingest extras: a
    /// pre-computed [`MatrixStats`] (a live source maintains them
    /// incrementally, so the snapshot need not re-stream every page just to
    /// count non-zeros) and shared [`ooc::IngestCounters`] surfaced through
    /// [`ooc_stats`](Self::ooc_stats).
    pub fn from_source_with(
        source: Arc<dyn MatrixSource>,
        cache_budget_bytes: usize,
        stats: Option<MatrixStats>,
        ingest: Option<Arc<ooc::IngestCounters>>,
    ) -> Self {
        let shape = source.shape();
        let m = Self::from_parts(shape, None, None);
        let mut paged = PagedSource::new(source, cache_budget_bytes);
        if let Some(counters) = ingest {
            paged = paged.with_ingest(counters);
        }
        let _ = m.inner.paged.set(paged);
        if let Some(stats) = stats {
            debug_assert_eq!(stats.rows, shape.rows);
            debug_assert_eq!(stats.cols, shape.cols);
            let _ = m.inner.stats.set(stats);
        }
        m
    }

    /// Build from an existing CSR matrix (counts as the row layout being
    /// materialized).
    pub fn from_csr(csr: CsrMatrix) -> Self {
        let m = Self::from_parts(csr.shape(), None, None);
        let _ = m.inner.csr.set(csr);
        m
    }

    /// Build from an existing CSC matrix (counts as the column layout being
    /// materialized).
    pub fn from_csc(csc: CscMatrix) -> Self {
        let m = Self::from_parts(csc.shape(), None, None);
        let _ = m.inner.csc.set(csc);
        m
    }

    /// Re-open the layouts persisted at `path` as a sourceless matrix — the
    /// serving-restart path: every persisted layout counts as materialized,
    /// served in place from the file image (a real `mmap` under the `mmap`
    /// feature), and no COO source is ever streamed.
    pub fn open_persisted(path: &std::path::Path) -> std::io::Result<Self> {
        let persisted = crate::persist::PersistedLayouts::open(path)?;
        let m = Self::from_parts(persisted.shape(), None, None);
        m.adopt_persisted(persisted);
        Ok(m)
    }

    /// Adopt the layouts persisted at `path` into this matrix, skipping
    /// kinds already materialized.  Returns how many layouts were adopted.
    ///
    /// This is the session-start fast path: with the row/column layout
    /// adopted from the file, `materialize_*` is a no-op and the COO source
    /// (paged or resident) is never re-streamed.
    pub fn load_persisted_layouts(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let persisted = crate::persist::PersistedLayouts::open(path)?;
        if persisted.shape() != self.inner.shape {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "persisted layouts are {:?}, matrix is {:?}",
                    persisted.shape(),
                    self.inner.shape
                ),
            ));
        }
        Ok(self.adopt_persisted(persisted))
    }

    fn adopt_persisted(&self, persisted: crate::persist::PersistedLayouts) -> usize {
        let mut adopted = 0;
        if let Some(csr) = persisted.csr {
            adopted += usize::from(self.inner.csr.set(csr).is_ok());
        }
        if let Some(csc) = persisted.csc {
            adopted += usize::from(self.inner.csc.set(csc).is_ok());
        }
        if let Some(dense) = persisted.dense {
            adopted += usize::from(self.inner.dense.set(dense).is_ok());
        }
        if let Some(dense_rows) = persisted.dense_rows {
            adopted += usize::from(self.inner.dense_rows.set(dense_rows).is_ok());
        }
        adopted
    }

    /// The set of layouts currently materialized.
    pub fn materialized_kinds(&self) -> crate::persist::LayoutKinds {
        crate::persist::LayoutKinds {
            csr: self.inner.csr.get().is_some(),
            csc: self.inner.csc.get().is_some(),
            dense: self.inner.dense.get().is_some(),
            dense_rows: self.inner.dense_rows.get().is_some(),
        }
    }

    /// Serialize every materialized layout to `path` in the page-aligned
    /// `.dwlt` format (write-to-temp + atomic rename).  Returns the number
    /// of layouts written; 0 (and no file) when nothing is materialized.
    pub fn persist_layouts(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let src = crate::persist::PersistSource {
            shape: self.inner.shape,
            csr: self.inner.csr.get().map(|m| m.sections()),
            csc: self.inner.csc.get().map(|m| m.sections()),
            dense: self.inner.dense.get().map(|m| (m.layout(), m.data())),
            dense_rows: self.inner.dense_rows.get().map(|m| m.values()),
        };
        crate::persist::write_layout_file(path, &src)
    }

    /// Persist the materialized layouts to `path` unless the file already
    /// covers them (cheap header check).  Returns the number of layouts
    /// written, 0 when the file was already up to date (or nothing is
    /// materialized).
    pub fn sync_persisted_layouts(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let have = self.materialized_kinds();
        if have.is_empty() {
            return Ok(0);
        }
        match crate::persist::persisted_kinds(path) {
            Ok(on_disk) if on_disk.covers(&have) => Ok(0),
            // Missing, stale, or unreadable — (re)write it.
            _ => self.persist_layouts(path),
        }
    }

    /// Start a [`Prefetcher`](crate::ooc::Prefetcher) walking the paged
    /// source's manifest `depth` pages ahead of the consuming stream.
    ///
    /// Returns `None` when the matrix has no paged source or `depth` is 0.
    /// Hold the handle across the materialization pass; dropping it stops
    /// the thread.
    pub fn start_prefetch(&self, depth: usize) -> Option<crate::ooc::Prefetcher> {
        self.inner.paged.get()?.start_prefetch(depth)
    }

    /// Shape of the matrix.
    pub fn shape(&self) -> Shape {
        self.inner.shape
    }

    /// Number of rows (examples `N`).
    pub fn rows(&self) -> usize {
        self.inner.shape.rows
    }

    /// Number of columns (model dimension `d`).
    pub fn cols(&self) -> usize {
        self.inner.shape.cols
    }

    /// Number of stored non-zeros after duplicate merging / zero dropping.
    ///
    /// Computed from the cached statistics; never materializes a layout.
    pub fn nnz(&self) -> usize {
        self.stats().nnz
    }

    /// Matrix statistics for the cost-based optimizer.
    ///
    /// Computed once from the canonical source form (or from an
    /// already-materialized layout when one exists) and cached.  For a
    /// row-range view the per-row counts come from the base's row layout.
    pub fn stats(&self) -> &MatrixStats {
        self.inner.stats.get_or_init(|| {
            if let Some(csr) = self.inner.csr.get() {
                return MatrixStats::from_csr(csr);
            }
            if let Some(view) = &self.inner.window {
                match view.axis {
                    Axis::Rows => {
                        if view.base.inner.csr.get().is_none() {
                            if let Some(paged) = view.base.inner.paged.get() {
                                // Out-of-core base: one streaming pass over
                                // the window's page subrange, nothing
                                // materialized.
                                return Self::stats_from_paged(
                                    paged,
                                    view.start,
                                    view.end,
                                    self.inner.shape.cols,
                                );
                            }
                        }
                        return MatrixStats::from_row_counts(
                            view.len(),
                            self.inner.shape.cols,
                            (view.start..view.end).map(|i| view.base.row_nnz(i)),
                        );
                    }
                    Axis::Cols => {
                        if view.base.inner.csc.get().is_none() {
                            if let Some(paged) = view.base.inner.paged.get() {
                                // One filtered streaming pass: only entries
                                // whose column falls inside the window count.
                                return Self::stats_from_paged_cols(
                                    paged,
                                    self.inner.shape.rows,
                                    view.start,
                                    view.end,
                                );
                            }
                        }
                        // Per-row counts of the column window, accumulated
                        // from the base's shared CSC.
                        let mut counts = vec![0usize; self.inner.shape.rows];
                        for j in view.start..view.end {
                            for i in view.base.col(j).rows() {
                                counts[i] += 1;
                            }
                        }
                        return MatrixStats::from_row_counts(
                            self.inner.shape.rows,
                            view.len(),
                            counts.into_iter(),
                        );
                    }
                }
            }
            if let Some(stats) = self.with_coo_source(MatrixStats::from_coo) {
                return stats;
            }
            if let Some(paged) = self.inner.paged.get() {
                // One streaming pass over the manifest + pages.
                return Self::stats_from_paged(
                    paged,
                    0,
                    self.inner.shape.rows,
                    self.inner.shape.cols,
                );
            }
            // The source can only be absent when a layout exists
            // (compaction's precondition); re-check the CSR cache —
            // a concurrent materialize+compact may have landed
            // between the unlocked check above and taking the lock.
            if let Some(csr) = self.inner.csr.get() {
                MatrixStats::from_csr(csr)
            } else if let Some(csc) = self.inner.csc.get() {
                MatrixStats::from_csc(csc)
            } else if let Some(rows) = self.inner.dense_rows.get() {
                MatrixStats::from_row_counts(
                    rows.rows(),
                    rows.cols(),
                    (0..rows.rows())
                        .map(|i| rows.row(i).values.iter().filter(|v| **v != 0.0).count()),
                )
            } else {
                let dense = self
                    .inner
                    .dense
                    .get()
                    .expect("a sourceless matrix always retains a layout");
                MatrixStats::from_csr(&CsrMatrix::from_dense(dense))
            }
        })
    }

    /// Statistics of rows `start..end` of a paged source: merged per-row
    /// counts from one streaming pass through the bounded cache.
    fn stats_from_paged(paged: &PagedSource, start: usize, end: usize, cols: usize) -> MatrixStats {
        let mut counts = vec![0usize; end - start];
        paged
            .stream_rows(start, end, |row, _, _| counts[row - start] += 1)
            .expect("out-of-core source read failed while computing statistics");
        MatrixStats::from_row_counts(end - start, cols, counts.into_iter())
    }

    /// Statistics of columns `col_start..col_end` of a paged source: merged
    /// per-row counts restricted to the column window, one filtered
    /// streaming pass through the bounded cache.
    fn stats_from_paged_cols(
        paged: &PagedSource,
        rows: usize,
        col_start: usize,
        col_end: usize,
    ) -> MatrixStats {
        let mut counts = vec![0usize; rows];
        paged
            .stream_rows(0, rows, |row, col, _| {
                if (col_start..col_end).contains(&col) {
                    counts[row] += 1;
                }
            })
            .expect("out-of-core source read failed while computing statistics");
        MatrixStats::from_row_counts(rows, col_end - col_start, counts.into_iter())
    }

    /// The row-major compressed layout, materialized and cached on first
    /// request.  For a row-range view this copies the window out of the
    /// base (shard *reads* never need it — they go through [`RowAccess`]).
    /// For an out-of-core source the layout is built by **streaming pages
    /// through the bounded cache** — the whole source is never resident,
    /// and the result is bit-identical to the COO conversion.
    pub fn csr(&self) -> &CsrMatrix {
        self.inner.csr.get_or_init(|| {
            if let Some(view) = &self.inner.window {
                return match view.axis {
                    Axis::Rows => view.materialize_csr(),
                    // Escape hatch for a column window: an owned copy of the
                    // windowed submatrix, converted from its column layout
                    // (shard reads never need it — columns go through
                    // [`ColAccess`], rows through the base).
                    Axis::Cols => self.csc().to_csr(),
                };
            }
            if let Some(csr) = self.with_coo_source(|coo| coo.to_csr()) {
                return csr;
            }
            if let Some(paged) = self.inner.paged.get() {
                return Self::csr_from_paged(
                    paged,
                    0,
                    self.inner.shape.rows,
                    self.inner.shape.cols,
                );
            }
            if let Some(csc) = self.inner.csc.get() {
                csc.to_csr()
            } else if let Some(dense) = self.inner.dense.get() {
                CsrMatrix::from_dense(dense)
            } else {
                let rows = self
                    .inner
                    .dense_rows
                    .get()
                    .expect("a sourceless matrix always retains a layout");
                Self::csr_from_dense_rows(rows)
            }
        })
    }

    /// Build the CSR of global rows `start..end` from a paged source, one
    /// streaming pass through the bounded cache.  Replicates the exact
    /// indptr-building loop of [`CooMatrix::to_csr`], so the full-range
    /// result is bit-identical to the in-memory conversion and a subrange
    /// equals `full.select_range(start, end)`.
    fn csr_from_paged(paged: &PagedSource, start: usize, end: usize, cols: usize) -> CsrMatrix {
        let rows_out = end - start;
        let mut indptr = Vec::with_capacity(rows_out + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0u32);
        let mut current_row = start;
        paged
            .stream_rows(start, end, |row, col, value| {
                while current_row < row {
                    indptr.push(indices.len() as u32);
                    current_row += 1;
                }
                indices.push(col as u32);
                data.push(value);
            })
            .expect("out-of-core source read failed while materializing CSR");
        while current_row < end {
            indptr.push(indices.len() as u32);
            current_row += 1;
        }
        CsrMatrix::from_parts(rows_out, cols, indptr, indices, data)
            .expect("paged stream produced a structurally valid CSR")
    }

    /// CSR from the dense row store (sourceless fallback), dropping zeros
    /// exactly as [`CsrMatrix::from_dense`] does.
    fn csr_from_dense_rows(rows: &DenseRows) -> CsrMatrix {
        let dense = DenseMatrix::from_vec(
            rows.rows(),
            rows.cols(),
            Layout::RowMajor,
            rows.values().to_vec(),
        )
        .expect("dense rows carry a full row-major buffer");
        CsrMatrix::from_dense(&dense)
    }

    /// The column-major compressed layout, materialized and cached on first
    /// request.  Built directly from the COO source (no transient CSR); an
    /// out-of-core source builds it in two streaming passes (count, then
    /// scatter) through the bounded cache, again without a transient CSR.
    pub fn csc(&self) -> &CscMatrix {
        self.inner.csc.get_or_init(|| {
            if let Some(view) = &self.inner.window {
                return match view.axis {
                    // Escape hatch for a row window: an owned copy of the
                    // windowed submatrix, converted from its row layout.
                    Axis::Rows => self.csr().to_csc(),
                    Axis::Cols => view.materialize_csc(),
                };
            }
            if let Some(csc) = self.with_coo_source(|coo| coo.to_csc()) {
                return csc;
            }
            if self.inner.csr.get().is_none() {
                if let Some(paged) = self.inner.paged.get() {
                    return Self::csc_from_paged(paged, self.inner.shape);
                }
            }
            self.csr().to_csc()
        })
    }

    /// Build the CSC from a paged source in two streaming passes.  Within
    /// each column, rows arrive in ascending order (pages are row-disjoint
    /// and streamed in row order) and each `(row, col)` appears exactly once
    /// after merging, so the result is bit-identical to
    /// [`CooMatrix::to_csc`].
    fn csc_from_paged(paged: &PagedSource, shape: Shape) -> CscMatrix {
        // Pass 1: merged per-column counts.
        let mut counts = vec![0u32; shape.cols];
        paged
            .stream_rows(0, shape.rows, |_, col, _| counts[col] += 1)
            .expect("out-of-core source read failed while counting columns");
        let mut indptr = Vec::with_capacity(shape.cols + 1);
        indptr.push(0u32);
        let mut acc = 0u32;
        for &c in &counts {
            acc += c;
            indptr.push(acc);
        }
        let nnz = acc as usize;
        let mut indices = vec![0u32; nnz];
        let mut data = vec![0.0f64; nnz];
        // Pass 2: scatter in row-major stream order.
        let mut cursors: Vec<u32> = indptr[..shape.cols].to_vec();
        paged
            .stream_rows(0, shape.rows, |row, col, value| {
                let pos = cursors[col] as usize;
                indices[pos] = row as u32;
                data[pos] = value;
                cursors[col] += 1;
            })
            .expect("out-of-core source read failed while materializing CSC");
        CscMatrix::from_parts(shape.rows, shape.cols, indptr, indices, data)
            .expect("paged stream produced a structurally valid CSC")
    }

    /// Build the CSC of global columns `col_start..col_end` from a paged
    /// source in two filtered streaming passes — the column mirror of
    /// [`DataMatrix::csr_from_paged`].  Row ids stay global, column ids are
    /// local to the window, and the result equals
    /// `full_csc.select_range(col_start, col_end)` bit for bit.
    fn csc_from_paged_cols(
        paged: &PagedSource,
        rows: usize,
        col_start: usize,
        col_end: usize,
    ) -> CscMatrix {
        let cols_out = col_end - col_start;
        // Pass 1: merged per-column counts inside the window.
        let mut counts = vec![0u32; cols_out];
        paged
            .stream_rows(0, rows, |_, col, _| {
                if (col_start..col_end).contains(&col) {
                    counts[col - col_start] += 1;
                }
            })
            .expect("out-of-core source read failed while counting columns");
        let mut indptr = Vec::with_capacity(cols_out + 1);
        indptr.push(0u32);
        let mut acc = 0u32;
        for &c in &counts {
            acc += c;
            indptr.push(acc);
        }
        let nnz = acc as usize;
        let mut indices = vec![0u32; nnz];
        let mut data = vec![0.0f64; nnz];
        // Pass 2: scatter in row-major stream order (rows ascend within each
        // column, exactly as the full-range conversion scatters them).
        let mut cursors: Vec<u32> = indptr[..cols_out].to_vec();
        paged
            .stream_rows(0, rows, |row, col, value| {
                if (col_start..col_end).contains(&col) {
                    let pos = cursors[col - col_start] as usize;
                    indices[pos] = row as u32;
                    data[pos] = value;
                    cursors[col - col_start] += 1;
                }
            })
            .expect("out-of-core source read failed while materializing CSC");
        CscMatrix::from_parts(rows, cols_out, indptr, indices, data)
            .expect("paged stream produced a structurally valid CSC")
    }

    /// The row-major dense layout, materialized and cached on first request.
    pub fn dense(&self) -> &DenseMatrix {
        self.inner.dense.get_or_init(|| {
            if let Some(csr) = self.inner.csr.get() {
                return csr.to_dense(Layout::RowMajor);
            }
            if let Some(csc) = self.inner.csc.get() {
                return csc.to_dense(Layout::RowMajor);
            }
            if self.inner.window.is_some() {
                return self.csr().to_dense(Layout::RowMajor);
            }
            if let Some(dense) = self.with_coo_source(|coo| coo.to_dense(Layout::RowMajor)) {
                return dense;
            }
            if let Some(paged) = self.inner.paged.get() {
                let mut m = DenseMatrix::zeros(
                    self.inner.shape.rows,
                    self.inner.shape.cols,
                    Layout::RowMajor,
                );
                paged
                    .stream_rows(0, self.inner.shape.rows, |row, col, value| {
                        m.set(row, col, value);
                    })
                    .expect("out-of-core source read failed while materializing dense");
                return m;
            }
            // A concurrent materialize+compact can empty the source
            // between the unlocked layout checks above and taking
            // the lock; the compacted layout is resident by then.
            if let Some(csr) = self.inner.csr.get() {
                csr.to_dense(Layout::RowMajor)
            } else if let Some(csc) = self.inner.csc.get() {
                csc.to_dense(Layout::RowMajor)
            } else {
                let rows = self
                    .inner
                    .dense_rows
                    .get()
                    .expect("a sourceless matrix always retains a layout");
                let mut m = DenseMatrix::zeros(rows.rows(), rows.cols(), Layout::RowMajor);
                for i in 0..rows.rows() {
                    for (j, v) in rows.row(i).iter() {
                        m.set(i, j, v);
                    }
                }
                m
            }
        })
    }

    /// The dense row-major `RowAccess` backend (the planner's Dense layout
    /// arm), materialized and cached on first request: 8 bytes per element
    /// plus one shared `0..d` index arange, serving row views bit-identical
    /// to the CSR views of a fully dense matrix.
    pub fn dense_rows(&self) -> &DenseRows {
        self.inner.dense_rows.get_or_init(|| {
            let shape = self.inner.shape;
            if self.inner.csr.get().is_none() && self.inner.window.is_none() {
                if let Some(out) = self.with_coo_source(|coo| {
                    let mut out = DenseRows::zeros(shape.rows, shape.cols);
                    crate::coo::merge_triplets(coo.entries(), false, |r, c, v| out.set(r, c, v));
                    out
                }) {
                    return out;
                }
                if let Some(paged) = self.inner.paged.get() {
                    let mut out = DenseRows::zeros(shape.rows, shape.cols);
                    paged
                        .stream_rows(0, shape.rows, |r, c, v| out.set(r, c, v))
                        .expect("out-of-core source read failed while materializing dense rows");
                    return out;
                }
            }
            // Resident CSR, window, or sourceless-with-other-layouts: scatter
            // from the row layout (csr() serves the resident one for free and
            // is the correctness net for the rest).
            let csr = self.csr();
            let mut out = DenseRows::zeros(shape.rows, shape.cols);
            for i in 0..shape.rows {
                for (j, v) in csr.row(i).iter() {
                    out.set(i, j, v);
                }
            }
            out
        })
    }

    /// Eagerly materialize the row layout (planner hook).  On a row-range
    /// view this materializes the *base's* shared layout, never a copy —
    /// except over an out-of-core base whose shared layout is not resident,
    /// where the view materializes **its own page subrange** instead (the
    /// per-node on-demand shard materialization of the larger-than-DRAM
    /// path).
    pub fn materialize_rows(&self) {
        if let Some(view) = &self.inner.window {
            if view.axis == Axis::Rows {
                if !view.base.serves_window_rows() {
                    let _ = self.csr();
                    return;
                }
                view.base.materialize_row_access();
                return;
            }
        }
        let _ = self.csr();
    }

    /// Eagerly materialize the dense row-major `RowAccess` backend (the
    /// planner hook for the Dense layout arm).
    pub fn materialize_dense_rows(&self) {
        let _ = self.dense_rows();
    }

    /// Materialize *a* row backend: a no-op when dense rows are already
    /// resident (the Dense layout arm), the row layout otherwise.  Shard
    /// builders use this so they never build CSR next to a dense store.
    pub fn materialize_row_access(&self) {
        if self.dense_rows_materialized() {
            return;
        }
        self.materialize_rows();
    }

    /// Eagerly materialize the column layout (planner hook).  On a
    /// column-range view this materializes the *base's* shared CSC, never a
    /// copy — except over an out-of-core base whose shared layout is not
    /// resident, where the view materializes **its own column subrange**
    /// instead (the mirror of [`DataMatrix::materialize_rows`]).
    pub fn materialize_cols(&self) {
        if let Some(view) = &self.inner.window {
            if view.axis == Axis::Cols {
                if !view.base.serves_window_cols() {
                    let _ = self.csc();
                    return;
                }
                view.base.materialize_cols();
                return;
            }
        }
        let _ = self.csc();
    }

    fn csr_if_materialized(&self) -> Option<&CsrMatrix> {
        self.inner.csr.get()
    }

    fn csc_if_materialized(&self) -> Option<&CscMatrix> {
        self.inner.csc.get()
    }

    /// Whether row views can be served without a layout conversion.  True
    /// for a row-range view whenever the *base's* row layout is resident —
    /// the view itself never owns row storage.
    pub fn csr_materialized(&self) -> bool {
        if self.inner.csr.get().is_some() {
            return true;
        }
        match &self.inner.window {
            Some(view) if view.axis == Axis::Rows => view.base.csr_materialized(),
            _ => false,
        }
    }

    /// Whether column views can be served without a layout conversion.  True
    /// for a column-range view whenever the *base's* CSC is resident — the
    /// view itself never owns column storage.
    pub fn csc_materialized(&self) -> bool {
        if self.inner.csc.get().is_some() {
            return true;
        }
        match &self.inner.window {
            Some(view) if view.axis == Axis::Cols => view.base.csc_materialized(),
            _ => false,
        }
    }

    /// Whether the dense layout is resident.
    pub fn dense_materialized(&self) -> bool {
        self.inner.dense.get().is_some()
    }

    /// Whether the dense row-major `RowAccess` backend is resident (on a
    /// row-range view: whether the *base's* is — the view serves through
    /// it, owning nothing).
    pub fn dense_rows_materialized(&self) -> bool {
        if self.inner.dense_rows.get().is_some() {
            return true;
        }
        match &self.inner.window {
            Some(view) if view.axis == Axis::Rows => view.base.dense_rows_materialized(),
            _ => false,
        }
    }

    /// Whether the canonical source is out-of-core (triplet pages behind a
    /// bounded cache rather than resident COO).
    pub fn is_paged(&self) -> bool {
        self.inner.paged.get().is_some()
    }

    /// Whether a zero-copy window over this matrix should serve rows
    /// *through* it: a row backend (CSR or dense rows) is resident, or the
    /// matrix is in-memory and will materialize its shared layout lazily
    /// (the pre-out-of-core behaviour).  When false — an out-of-core base
    /// with nothing resident — the window materializes its own page
    /// subrange instead of forcing the base's full layout.
    fn serves_window_rows(&self) -> bool {
        self.csr_materialized() || self.dense_rows_materialized() || !self.is_paged()
    }

    /// The column mirror of [`DataMatrix::serves_window_rows`]: whether a
    /// zero-copy column window over this matrix should serve columns
    /// *through* it.  When false — an out-of-core base with no resident CSC
    /// — the window materializes its own column subrange instead of forcing
    /// the base's full layout.
    fn serves_window_cols(&self) -> bool {
        self.csc_materialized() || !self.is_paged()
    }

    /// Build the block-compressed index sidecar of whatever sparse layouts
    /// are resident (and, for a zero-copy window, of its base's), so no
    /// epoch pays the one-time encode.  A no-op when nothing sparse is
    /// materialized — the sidecar only ever rides beside an existing
    /// layout.
    pub fn materialize_encoded_indices(&self) {
        if let Some(csr) = self.csr_if_materialized() {
            let _ = csr.encoded_indices();
        }
        if let Some(csc) = self.csc_if_materialized() {
            let _ = csc.encoded_indices();
        }
        if let Some(view) = &self.inner.window {
            view.base.materialize_encoded_indices();
        }
    }

    /// Dot product of row `i` with a dense slice through an explicit
    /// kernel decision — the per-plan entry point behind every objective's
    /// row read.
    ///
    /// Under [`IndexEncoding::DeltaU16`] the indices stream through the
    /// block-compressed sidecar of whichever CSR actually backs row `i`
    /// (the base's for a zero-copy row shard); when no CSR is resident —
    /// the Dense layout arm, or a column window — the raw row view is used
    /// with the selected variant instead, so the decision degrades to a
    /// variant choice rather than forcing a layout.  Under
    /// [`KernelVariant::Reference`] the result is bit-identical to
    /// `self.row(i).dot(x)` whatever the encoding.
    pub fn row_dot_with(
        &self,
        i: usize,
        x: &[f64],
        variant: KernelVariant,
        encoding: IndexEncoding,
    ) -> f64 {
        if encoding == IndexEncoding::DeltaU16 {
            if let Some(csr) = self.csr_if_materialized() {
                return csr.row_dot_encoded(i, x, variant);
            }
            if let Some(view) = &self.inner.window {
                if view.axis == Axis::Rows && view.base.serves_window_rows() {
                    return view.base.row_dot_with(view.start + i, x, variant, encoding);
                }
            }
        }
        let row = self.row(i);
        crate::kernels::dot_indexed_with(variant, row.indices, row.values, x)
    }

    /// Dot product of column `j` with a dense slice through an explicit
    /// kernel decision — the columnar mirror of
    /// [`DataMatrix::row_dot_with`], reading the CSC sidecar (the base's
    /// for a zero-copy column shard) under [`IndexEncoding::DeltaU16`].
    pub fn col_dot_with(
        &self,
        j: usize,
        y: &[f64],
        variant: KernelVariant,
        encoding: IndexEncoding,
    ) -> f64 {
        if encoding == IndexEncoding::DeltaU16 {
            if let Some(csc) = self.csc_if_materialized() {
                return csc.col_dot_encoded(j, y, variant);
            }
            if let Some(view) = &self.inner.window {
                if view.axis == Axis::Cols && view.base.serves_window_cols() {
                    return view.base.col_dot_with(view.start + j, y, variant, encoding);
                }
            }
        }
        let col = self.col(j);
        crate::kernels::dot_indexed_with(variant, col.indices, col.values, y)
    }

    /// Page-cache counters of the out-of-core source (`None` for fully
    /// resident matrices): faults, IO bytes, resident and peak-resident
    /// page bytes.
    pub fn ooc_stats(&self) -> Option<ooc::CacheStats> {
        self.inner.paged.get().map(|p| p.stats())
    }

    /// The resident-byte budget of the out-of-core page cache.
    pub fn ooc_cache_budget(&self) -> Option<usize> {
        self.inner.paged.get().map(|p| p.cache().budget())
    }

    /// Drop every unpinned cached page of the out-of-core source (a no-op
    /// for resident matrices).  Sessions call this once the plan's layouts
    /// are materialized, so steady-state residency is the layouts alone.
    pub fn release_pages(&self) {
        if let Some(paged) = self.inner.paged.get() {
            paged.cache().release();
        }
    }

    /// Bytes held by this handle: the source form (if still resident) plus
    /// every materialized layout — the quantity the memory-footprint
    /// regression tests bound.  A row-range view owns none of its base's
    /// bytes, so an unmaterialized view reports 0.
    pub fn resident_bytes(&self) -> usize {
        let source = self
            .inner
            .source
            .read()
            .expect("source lock poisoned")
            .as_ref()
            .map_or(0, |coo| coo.size_bytes());
        source
            + self
                .inner
                .paged
                .get()
                .map_or(0, |p| p.cache().stats().resident_bytes)
            + self.inner.csr.get().map_or(0, |m| m.size_bytes())
            + self.inner.csc.get().map_or(0, |m| m.size_bytes())
            + self.inner.dense_rows.get().map_or(0, |m| m.size_bytes())
            + self
                .inner
                .dense
                .get()
                .map_or(0, |_| self.inner.shape.dense_len() * 8)
    }

    /// Whether two handles share the same underlying storage (layouts,
    /// source, page cache) — i.e. are clones of one matrix, not copies.
    ///
    /// The multi-tenant serving registry uses this to confirm that sessions
    /// admitted over the same dataset reuse one set of materialized layouts
    /// instead of duplicating them per session.
    pub fn shares_storage_with(&self, other: &DataMatrix) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of live handles (clones) onto this storage, including this
    /// one.  Diagnostic counterpart of
    /// [`DataMatrix::shares_storage_with`]: a server reports it per dataset
    /// so an operator can see layout reuse across admitted sessions.
    pub fn storage_handles(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// Drop the canonical COO triplets once a compressed layout is resident,
    /// returning the bytes reclaimed (16 per stored triplet).
    ///
    /// The resident compressed layouts become the canonical form: anything
    /// still missing is converted from them, so every read keeps working.
    /// A no-op (returning 0) when no compressed layout exists yet, when the
    /// matrix never had a COO source, or when it was already compacted.
    /// Affects every clone of the handle — compaction is a property of the
    /// shared storage, not of one holder.
    pub fn compact_source(&self) -> usize {
        let layout_resident = self.inner.csr.get().is_some()
            || self.inner.csc.get().is_some()
            || self.inner.dense_rows.get().is_some();
        if !layout_resident {
            return 0;
        }
        let mut source = self.inner.source.write().expect("source lock poisoned");
        match source.take() {
            Some(coo) => coo.size_bytes(),
            None => 0,
        }
    }

    /// Spill the canonical COO source to a delete-on-drop page file under
    /// `dir` and continue serving it **out-of-core** through a page cache
    /// bounded to `cache_budget_bytes`, returning the resident bytes
    /// reclaimed (16 per stored triplet).
    ///
    /// Unlike [`DataMatrix::compact_source`], nothing needs to be
    /// materialized first: the pages *are* the canonical form afterwards,
    /// and any layout still missing materializes by streaming them.  A
    /// no-op (returning 0) for row-range views, already-paged matrices, and
    /// matrices without a COO source.  Affects every clone of the handle.
    pub fn spill_source_to(
        &self,
        dir: &Path,
        page_bytes: usize,
        cache_budget_bytes: usize,
    ) -> std::io::Result<usize> {
        if self.inner.paged.get().is_some() || self.inner.window.is_some() {
            return Ok(0);
        }
        let mut guard = self.inner.source.write().expect("source lock poisoned");
        let Some(coo) = guard.as_ref() else {
            return Ok(0);
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(ooc::unique_spill_name("dw-spill"));
        // Page boundaries need monotone rows.  Generators emit row-ordered
        // triplets, so the common case streams the borrowed entries
        // directly; only an out-of-order source is bucketed by row into a
        // transient copy, by the linear counting pass the merge uses (it is
        // stable, so within-row push order — the duplicate-merge order —
        // is kept).
        let entries = coo.entries();
        let row_ordered = entries.windows(2).all(|w| w[0].row <= w[1].row);
        let sorted;
        let ordered: &[crate::Entry] = if row_ordered {
            entries
        } else {
            sorted = crate::coo::stable_sort_by_row(entries);
            &sorted
        };
        let mut writer =
            ooc::SpillWriter::create(&path, self.rows(), self.cols())?.with_page_bytes(page_bytes);
        for e in ordered {
            writer.push(e.row as usize, e.col as usize, e.value)?;
        }
        let source = writer.finish()?.delete_on_drop();
        let reclaimed = coo.size_bytes();
        let paged = PagedSource::new(Arc::new(source), cache_budget_bytes);
        if self.inner.paged.set(paged).is_err() {
            // Another holder spilled concurrently; keep theirs.
            return Ok(0);
        }
        *guard = None;
        Ok(reclaimed)
    }

    /// Value at `(row, col)` (zero if not stored).  Reads whichever layout
    /// is already resident; materializes CSR only as a last resort.
    ///
    /// # Panics
    /// On a range view, panics when `(row, col)` lies outside the window's
    /// shape — the translated read must never silently serve a neighboring
    /// base row/column the shard does not own.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        if let Some(csr) = self.csr_if_materialized() {
            return csr.get(row, col);
        }
        if let Some(csc) = self.csc_if_materialized() {
            return csc.get(row, col);
        }
        if let Some(rows) = self.inner.dense_rows.get() {
            return rows.get(row, col);
        }
        if let Some(view) = &self.inner.window {
            let shape = self.inner.shape;
            assert!(
                row < shape.rows && col < shape.cols,
                "index ({row}, {col}) outside view of shape {}x{}",
                shape.rows,
                shape.cols
            );
            return match view.axis {
                Axis::Rows => view.base.get(view.start + row, col),
                Axis::Cols => view.base.get(row, view.start + col),
            };
        }
        self.csr().get(row, col)
    }

    /// An owned copy of the canonical COO source, when the matrix was built
    /// from one and the source has not been compacted away.  This clones
    /// the triplets — read-only consumers should use
    /// [`DataMatrix::with_coo_source`] (a borrow, no O(nnz) copy) and
    /// [`DataMatrix::has_coo_source`] for a presence check.
    pub fn coo_source(&self) -> Option<CooMatrix> {
        self.inner
            .source
            .read()
            .expect("source lock poisoned")
            .clone()
    }

    /// Run `f` against a **borrow** of the canonical COO source, without
    /// cloning the triplets; `None` when no COO source is resident (matrices
    /// built from a compressed layout or an out-of-core source, row-range
    /// views, and after compaction/spilling).  The read lock is held for the
    /// duration of `f`.
    pub fn with_coo_source<T>(&self, f: impl FnOnce(&CooMatrix) -> T) -> Option<T> {
        self.inner
            .source
            .read()
            .expect("source lock poisoned")
            .as_ref()
            .map(f)
    }

    /// Whether the canonical COO source is still resident (false for
    /// matrices built from a compressed layout, for row-range views, and
    /// after [`DataMatrix::compact_source`]).
    pub fn has_coo_source(&self) -> bool {
        self.inner
            .source
            .read()
            .expect("source lock poisoned")
            .is_some()
    }

    /// The row window this matrix views, when it is a zero-copy row shard.
    pub fn row_window(&self) -> Option<(usize, usize)> {
        match &self.inner.window {
            Some(v) if v.axis == Axis::Rows => Some((v.start, v.end)),
            _ => None,
        }
    }

    /// The column window this matrix views, when it is a zero-copy column
    /// shard.
    pub fn col_window(&self) -> Option<(usize, usize)> {
        match &self.inner.window {
            Some(v) if v.axis == Axis::Cols => Some((v.start, v.end)),
            _ => None,
        }
    }

    /// The base matrix a zero-copy column shard windows into (`None` for
    /// unwindowed matrices and row shards).  Column-to-row consumers read
    /// **full rows** through this — a column shard restricts only the
    /// column axis, never the row set `S(j)` expands into.
    pub fn col_window_base(&self) -> Option<&DataMatrix> {
        match &self.inner.window {
            Some(v) if v.axis == Axis::Cols => Some(&v.base),
            _ => None,
        }
    }

    /// The typed row view of a zero-copy row shard (`None` otherwise).
    pub fn as_row_range_view(&self) -> Option<RowRangeView> {
        match &self.inner.window {
            Some(v) if v.axis == Axis::Rows => Some(RowRangeView { view: v.clone() }),
            _ => None,
        }
    }

    /// The typed column view of a zero-copy column shard (`None` otherwise).
    pub fn as_col_range_view(&self) -> Option<ColRangeView> {
        match &self.inner.window {
            Some(v) if v.axis == Axis::Cols => Some(ColRangeView { view: v.clone() }),
            _ => None,
        }
    }

    /// Cut a **zero-copy** shard over the contiguous row range
    /// `start..end`: the shard shares the base's row layout through a
    /// [`RowRangeView`] and owns no element storage of its own.
    ///
    /// A row view of a row view flattens to a window over the root matrix,
    /// so chained sharding never stacks indirections.
    ///
    /// # Panics
    /// Panics unless `start <= end <= rows`.
    pub fn row_range(&self, start: usize, end: usize) -> DataMatrix {
        assert!(
            start <= end && end <= self.rows(),
            "row range {start}..{end} outside matrix of {} rows",
            self.rows()
        );
        let (base, offset) = match &self.inner.window {
            Some(view) if view.axis == Axis::Rows => (view.base.clone(), view.start),
            _ => (self.clone(), 0),
        };
        let cols = base.cols();
        Self::from_parts(
            Shape::new(end - start, cols),
            None,
            Some(AxisRangeView {
                base,
                axis: Axis::Rows,
                start: offset + start,
                end: offset + end,
            }),
        )
    }

    /// Cut a **zero-copy** shard over the contiguous column range
    /// `start..end` — the mirror of [`DataMatrix::row_range`] for the
    /// column-wise and column-to-row access methods: the shard shares the
    /// base's CSC through a [`ColRangeView`] and owns no element storage of
    /// its own.
    ///
    /// A column view of a column view flattens to a window over the root
    /// matrix, so chained sharding never stacks indirections.
    ///
    /// # Panics
    /// Panics unless `start <= end <= cols`.
    pub fn col_range(&self, start: usize, end: usize) -> DataMatrix {
        assert!(
            start <= end && end <= self.cols(),
            "column range {start}..{end} outside matrix of {} columns",
            self.cols()
        );
        let (base, offset) = match &self.inner.window {
            Some(view) if view.axis == Axis::Cols => (view.base.clone(), view.start),
            _ => (self.clone(), 0),
        };
        let rows = base.rows();
        Self::from_parts(
            Shape::new(rows, end - start),
            None,
            Some(AxisRangeView {
                base,
                axis: Axis::Cols,
                start: offset + start,
                end: offset + end,
            }),
        )
    }

    /// Cut a row shard as an owned copy (used where a shard must survive its
    /// base or carry reordered rows); prefer [`DataMatrix::row_range`] for
    /// contiguous shards, which is free.
    pub fn select_rows(&self, row_ids: &[usize]) -> DataMatrix {
        DataMatrix::from_csr(self.csr().select_rows(row_ids))
    }

    /// Byte extents of the already-resident row layouts backing rows
    /// `start..end` — what a zero-copy row shard physically reads, handed
    /// to the NUMA page binder at replica-set build time.
    ///
    /// Reads only layouts materialized *right now* (`OnceLock::get`, never
    /// `get_or_init`): asking for extents can never trigger a conversion or
    /// page in an out-of-core source.  A row-windowed matrix delegates to
    /// its base under the window's global offsets — the base's storage is
    /// what the shard serves.  Empty when no row layout is resident.
    ///
    /// # Panics
    /// Panics unless `start <= end <= rows`.
    pub fn row_range_extents(&self, start: usize, end: usize) -> Vec<ByteExtent> {
        assert!(
            start <= end && end <= self.rows(),
            "row range {start}..{end} outside matrix of {} rows",
            self.rows()
        );
        if let Some(view) = &self.inner.window {
            if view.axis == Axis::Rows && self.inner.csr.get().is_none() {
                return view
                    .base
                    .row_range_extents(view.start + start, view.start + end);
            }
        }
        let mut extents = Vec::new();
        if let Some(csr) = self.inner.csr.get() {
            extents.extend(csr.range_extents(start, end));
        }
        if let Some(rows) = self.inner.dense_rows.get() {
            extents.extend(rows.range_extents(start, end));
        }
        extents
    }

    /// The column mirror of [`DataMatrix::row_range_extents`]: byte extents
    /// of the already-resident CSC backing columns `start..end`.  Same
    /// contract — resident layouts only, window-delegating, possibly empty.
    ///
    /// # Panics
    /// Panics unless `start <= end <= cols`.
    pub fn col_range_extents(&self, start: usize, end: usize) -> Vec<ByteExtent> {
        assert!(
            start <= end && end <= self.cols(),
            "column range {start}..{end} outside matrix of {} columns",
            self.cols()
        );
        if let Some(view) = &self.inner.window {
            if view.axis == Axis::Cols && self.inner.csc.get().is_none() {
                return view
                    .base
                    .col_range_extents(view.start + start, view.start + end);
            }
        }
        let mut extents = Vec::new();
        if let Some(csc) = self.inner.csc.get() {
            extents.extend(csc.range_extents(start, end));
        }
        extents
    }
}

impl From<CooMatrix> for DataMatrix {
    fn from(coo: CooMatrix) -> Self {
        DataMatrix::from_coo(coo)
    }
}

impl From<CsrMatrix> for DataMatrix {
    fn from(csr: CsrMatrix) -> Self {
        DataMatrix::from_csr(csr)
    }
}

impl From<CscMatrix> for DataMatrix {
    fn from(csc: CscMatrix) -> Self {
        DataMatrix::from_csc(csc)
    }
}

impl RowAccess for DataMatrix {
    fn shape(&self) -> Shape {
        self.inner.shape
    }

    fn row(&self, i: usize) -> RowView<'_> {
        if self.inner.csr.get().is_none() {
            if let Some(rows) = self.inner.dense_rows.get() {
                return rows.row(i);
            }
            if let Some(view) = &self.inner.window {
                // Serve through the base's resident row backend — unless
                // the base is out-of-core with nothing resident, where the
                // window materializes its own page subrange instead of the
                // base's full layout.
                if view.axis == Axis::Rows && view.base.serves_window_rows() {
                    return view.row(i);
                }
            }
        }
        self.csr().row(i)
    }

    fn row_nnz(&self, i: usize) -> usize {
        if self.inner.csr.get().is_none() {
            if let Some(rows) = self.inner.dense_rows.get() {
                return rows.row_nnz(i);
            }
            if let Some(view) = &self.inner.window {
                if view.axis == Axis::Rows && view.base.serves_window_rows() {
                    return view.row_nnz(i);
                }
            }
        }
        self.csr().row_nnz(i)
    }
}

impl ColAccess for DataMatrix {
    fn shape(&self) -> Shape {
        self.inner.shape
    }

    fn col(&self, j: usize) -> ColView<'_> {
        if self.inner.csc.get().is_none() {
            if let Some(view) = &self.inner.window {
                // Serve through the base's shared CSC — unless the base is
                // out-of-core with nothing resident, where the window
                // materializes its own column subrange instead of the
                // base's full layout.
                if view.axis == Axis::Cols && view.base.serves_window_cols() {
                    return view.col(j);
                }
            }
        }
        self.csc().col(j)
    }

    fn col_nnz(&self, j: usize) -> usize {
        if self.inner.csc.get().is_none() {
            if let Some(view) = &self.inner.window {
                if view.axis == Axis::Cols && view.base.serves_window_cols() {
                    return view.col_nnz(j);
                }
            }
        }
        self.csc().col_nnz(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_coo() -> CooMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [0, 3, 4]]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(2, 1, 3.0).unwrap();
        coo.push(2, 2, 4.0).unwrap();
        coo
    }

    #[test]
    fn clones_share_storage_and_count_their_handles() {
        let m = DataMatrix::from_coo(sample_coo());
        assert_eq!(m.storage_handles(), 1);
        let lease = m.clone();
        assert!(m.shares_storage_with(&lease));
        assert_eq!(m.storage_handles(), 2);
        // A layout materialized through one handle is visible through the
        // other — the reuse the serving registry asserts per dataset.
        lease.materialize_rows();
        assert!(m.csr_materialized());
        drop(lease);
        assert_eq!(m.storage_handles(), 1);
        // An independently built matrix shares nothing, even if equal.
        let other = DataMatrix::from_coo(sample_coo());
        assert!(!m.shares_storage_with(&other));
    }

    #[test]
    fn nothing_materialized_until_requested() {
        let m = DataMatrix::from_coo(sample_coo());
        assert!(!m.csr_materialized());
        assert!(!m.csc_materialized());
        assert!(!m.dense_materialized());
        // Stats never materialize a layout.
        assert_eq!(m.stats().nnz, 4);
        assert_eq!(m.nnz(), 4);
        assert!(!m.csr_materialized());
        assert!(!m.csc_materialized());
    }

    #[test]
    fn row_only_traffic_never_builds_columns() {
        let m = DataMatrix::from_coo(sample_coo());
        for i in 0..m.rows() {
            let _ = m.row(i);
        }
        assert!(m.csr_materialized());
        assert!(!m.csc_materialized(), "row traffic must not build CSC");
    }

    #[test]
    fn col_only_traffic_never_builds_rows() {
        let m = DataMatrix::from_coo(sample_coo());
        for j in 0..m.cols() {
            let _ = m.col(j);
        }
        assert!(m.csc_materialized());
        assert!(!m.csr_materialized(), "column traffic must not build CSR");
    }

    #[test]
    fn range_extents_cover_resident_layouts_only() {
        let m = DataMatrix::from_coo(sample_coo());
        // Nothing resident: extents are empty and nothing materializes.
        assert!(m.row_range_extents(0, m.rows()).is_empty());
        assert!(m.col_range_extents(0, m.cols()).is_empty());
        assert!(!m.csr_materialized());
        assert!(!m.csc_materialized());

        m.materialize_rows();
        let full = m.row_range_extents(0, m.rows());
        assert!(!full.is_empty());
        // A zero-copy shard's extents point into the base's live storage:
        // the shard's value bytes are a sub-range of the full extents.
        let shard = m.row_range(2, 3);
        let shard_extents = shard.row_range_extents(0, shard.rows());
        assert!(!shard_extents.is_empty());
        for e in &shard_extents {
            assert!(
                full.iter()
                    .any(|f| e.addr >= f.addr && e.addr + e.len <= f.addr + f.len),
                "shard extent {e:?} lies inside a base extent"
            );
        }
        // Column extents mirror through the CSC.
        m.materialize_cols();
        let cols = m.col_range_extents(1, 3);
        assert!(!cols.is_empty());
        assert!(cols.iter().all(|e| !e.is_empty()));
    }

    #[test]
    fn clones_share_layout_caches() {
        let a = DataMatrix::from_coo(sample_coo());
        let b = a.clone();
        b.materialize_rows();
        assert!(a.csr_materialized(), "clones share the same cache");
        assert_eq!(a.resident_bytes(), b.resident_bytes());
    }

    #[test]
    fn resident_bytes_grow_with_materialization() {
        let m = DataMatrix::from_coo(sample_coo());
        let source_only = m.resident_bytes();
        m.materialize_rows();
        let with_rows = m.resident_bytes();
        assert!(with_rows > source_only);
        m.materialize_cols();
        assert!(m.resident_bytes() > with_rows);
        let _ = m.dense();
        assert!(m.dense_materialized());
        assert!(m.resident_bytes() > with_rows);
    }

    #[test]
    fn csr_and_csc_sources_prefill_their_layout() {
        let csr = sample_coo().to_csr();
        let m = DataMatrix::from_csr(csr.clone());
        assert!(m.csr_materialized());
        assert!(!m.csc_materialized());
        assert_eq!(m.csr(), &csr);

        let csc = sample_coo().to_csc();
        let m = DataMatrix::from_csc(csc.clone());
        assert!(m.csc_materialized());
        assert!(!m.csr_materialized());
        assert_eq!(m.csc(), &csc);
        assert_eq!(m.csr(), &csc.to_csr());
        assert_eq!(m.stats().nnz, 4);
    }

    #[test]
    fn get_reads_any_resident_layout() {
        let m = DataMatrix::from_coo(sample_coo());
        m.materialize_cols();
        assert_eq!(m.get(2, 1), 3.0);
        assert!(!m.csr_materialized(), "get prefers the resident layout");
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn compact_source_reclaims_coo_bytes_once_a_layout_exists() {
        let m = DataMatrix::from_coo(sample_coo());
        // Nothing materialized yet: compaction must refuse (the triplets are
        // the only copy of the data).
        assert_eq!(m.compact_source(), 0);
        assert_eq!(m.stats().nnz, 4);

        m.materialize_rows();
        let before = m.resident_bytes();
        let reclaimed = m.compact_source();
        assert_eq!(reclaimed, 16 * 4, "16 bytes per stored triplet");
        assert_eq!(m.resident_bytes(), before - reclaimed);
        assert_eq!(m.resident_bytes(), m.csr().size_bytes());
        assert!(!m.has_coo_source());
        // Second compaction is a no-op.
        assert_eq!(m.compact_source(), 0);
        // Every read keeps working; the missing layouts convert from CSR.
        assert_eq!(m.get(2, 1), 3.0);
        assert_eq!(m.csc().get(0, 2), 2.0);
        assert_eq!(m.dense().get(2, 2), 4.0);
    }

    #[test]
    fn compact_source_is_shared_across_clones() {
        let a = DataMatrix::from_coo(sample_coo());
        let b = a.clone();
        a.materialize_rows();
        assert!(b.compact_source() > 0);
        assert!(!a.has_coo_source(), "compaction is storage-wide");
        assert_eq!(a.compact_source(), 0);
    }

    #[test]
    fn compacted_matrix_recomputes_stats_from_layouts() {
        let m = DataMatrix::from_coo(sample_coo());
        m.materialize_cols();
        m.compact_source();
        // Stats were never computed before compaction: they now come from
        // the resident CSC.
        assert_eq!(m.stats().nnz, 4);
        assert_eq!(m.stats(), &MatrixStats::from_csr(&sample_coo().to_csr()));
    }

    #[test]
    fn row_range_view_is_zero_copy_and_bit_identical() {
        let m = DataMatrix::from_coo(sample_coo());
        m.materialize_rows();
        let shard = m.row_range(1, 3);
        assert_eq!(shard.rows(), 2);
        assert_eq!(shard.row_window(), Some((1, 3)));
        // Zero-copy: the shard owns no element storage.
        assert_eq!(shard.resident_bytes(), 0);
        assert!(shard.csr_materialized(), "served by the base's layout");
        assert!(!shard.csc_materialized());
        // Bit-identical row bytes: the view serves the base's exact slices.
        for i in 0..2 {
            let a = shard.row(i);
            let b = m.row(1 + i);
            assert!(std::ptr::eq(a.indices, b.indices), "row {i} shares storage");
            assert!(std::ptr::eq(a.values, b.values), "row {i} shares storage");
        }
        assert_eq!(shard.get(0, 1), 0.0);
        assert_eq!(shard.get(1, 1), 3.0);
        assert_eq!(shard.stats().nnz, 2);
    }

    #[test]
    fn row_range_of_a_view_flattens_to_the_root() {
        let m = DataMatrix::from_coo(sample_coo());
        let outer = m.row_range(1, 3);
        let nested = outer.row_range(1, 2);
        assert_eq!(nested.row_window(), Some((2, 3)));
        assert_eq!(nested.rows(), 1);
        assert_eq!(nested.get(0, 2), 4.0);
    }

    #[test]
    fn row_range_materializes_base_rows_not_a_copy() {
        let m = DataMatrix::from_coo(sample_coo());
        let shard = m.row_range(0, 2);
        assert!(!m.csr_materialized());
        shard.materialize_rows();
        assert!(m.csr_materialized(), "the shared layout was built");
        assert_eq!(shard.resident_bytes(), 0, "the shard still owns nothing");
        // Forcing an owned layout out of the view still works (escape hatch).
        assert_eq!(shard.csr().rows(), 2);
        assert!(shard.resident_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "outside matrix")]
    fn row_range_bounds_checked() {
        let m = DataMatrix::from_coo(sample_coo());
        let _ = m.row_range(1, 4);
    }

    #[test]
    fn col_range_view_is_zero_copy_and_bit_identical() {
        let m = DataMatrix::from_coo(sample_coo());
        m.materialize_cols();
        let shard = m.col_range(1, 3);
        assert_eq!(shard.cols(), 2);
        assert_eq!(shard.rows(), 3, "a column window keeps every row");
        assert_eq!(shard.col_window(), Some((1, 3)));
        assert_eq!(shard.row_window(), None);
        // Zero-copy: the shard owns no element storage.
        assert_eq!(shard.resident_bytes(), 0);
        assert!(shard.csc_materialized(), "served by the base's CSC");
        assert!(!shard.csr_materialized());
        // Bit-identical column bytes: the view serves the base's exact
        // slices, row ids global.
        for j in 0..2 {
            let a = shard.col(j);
            let b = m.col(1 + j);
            assert!(std::ptr::eq(a.indices, b.indices), "col {j} shares storage");
            assert!(std::ptr::eq(a.values, b.values), "col {j} shares storage");
        }
        assert_eq!(shard.get(2, 0), 3.0);
        assert_eq!(shard.get(0, 1), 2.0);
        assert_eq!(shard.stats().nnz, 3);
        // The typed view surface agrees with the matrix handle.
        let view = shard.as_col_range_view().expect("column shard");
        assert_eq!(view.start(), 1);
        assert_eq!(view.end(), 3);
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        assert_eq!(view.shape(), Shape::new(3, 2));
        assert_eq!(view.col_nnz(1), m.col_nnz(2));
        assert!(shard.as_row_range_view().is_none());
    }

    #[test]
    fn col_range_of_a_view_flattens_to_the_root() {
        let m = DataMatrix::from_coo(sample_coo());
        let outer = m.col_range(1, 3);
        let nested = outer.col_range(1, 2);
        assert_eq!(nested.col_window(), Some((2, 3)));
        assert_eq!(nested.cols(), 1);
        assert_eq!(nested.get(2, 0), 4.0);
        assert!(
            nested
                .as_col_range_view()
                .unwrap()
                .base()
                .col_window()
                .is_none(),
            "the nested view windows the root, not the outer view"
        );
    }

    #[test]
    fn col_range_materializes_base_cols_not_a_copy() {
        let m = DataMatrix::from_coo(sample_coo());
        let shard = m.col_range(0, 2);
        assert!(!m.csc_materialized());
        shard.materialize_cols();
        assert!(m.csc_materialized(), "the shared CSC was built");
        assert_eq!(shard.resident_bytes(), 0, "the shard still owns nothing");
        assert!(!m.csr_materialized(), "column shards never touch the CSR");
        // Forcing an owned layout out of the view still works (escape hatch).
        assert_eq!(shard.csc().cols(), 2);
        assert!(shard.resident_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "outside matrix")]
    fn col_range_bounds_checked() {
        let m = DataMatrix::from_coo(sample_coo());
        let _ = m.col_range(2, 4);
    }

    #[test]
    fn window_of_a_paged_base_materializes_only_its_column_subrange() {
        let coo = sample_coo();
        let m = paged_copy(&coo, 16, 64);
        let shard = m.col_range(1, 3);
        shard.materialize_cols();
        assert!(!m.csc_materialized(), "the base's full CSC was never built");
        // The shard's own CSC equals the in-memory column window.
        let expected = coo.to_csc().select_range(1, 3);
        for j in 0..2 {
            let a = shard.col(j);
            let b = expected.col(j);
            assert_eq!(a.indices, b.indices);
            assert_eq!(a.values, b.values);
        }
        assert_eq!(shard.stats().nnz, expected.nnz());
        assert!(shard.resident_bytes() > 0, "the shard owns its subrange");
    }

    #[test]
    fn select_rows_shard_is_row_only() {
        let m = DataMatrix::from_coo(sample_coo());
        let shard = m.select_rows(&[2, 0]);
        assert_eq!(shard.rows(), 2);
        assert!(shard.csr_materialized());
        assert!(!shard.csc_materialized());
        assert_eq!(shard.get(0, 1), 3.0);
        assert_eq!(shard.get(1, 0), 1.0);
    }

    fn paged_copy(coo: &CooMatrix, page_bytes: usize, budget: usize) -> DataMatrix {
        DataMatrix::from_source(
            Arc::new(crate::ooc::InMemorySource::from_coo(coo, page_bytes)),
            budget,
        )
    }

    #[test]
    fn paged_source_materializes_layouts_bit_identically() {
        let coo = sample_coo();
        let m = paged_copy(&coo, 16, 64);
        assert!(m.is_paged());
        assert!(!m.has_coo_source());
        // Stats stream from the pages and match the in-memory route.
        assert_eq!(m.stats(), &MatrixStats::from_coo(&coo));
        assert_eq!(m.csr(), &coo.to_csr());
        assert_eq!(m.csc(), &coo.to_csc());
        assert_eq!(m.dense(), &coo.to_dense(Layout::RowMajor));
        let stats = m.ooc_stats().expect("paged matrix has cache stats");
        assert!(stats.faults > 0, "layouts streamed through the cache");
        m.release_pages();
        assert_eq!(m.ooc_stats().unwrap().resident_bytes, 0);
    }

    #[test]
    fn paged_csc_streams_without_building_csr() {
        let coo = sample_coo();
        let m = paged_copy(&coo, 16, 64);
        let _ = m.csc();
        assert!(m.csc_materialized());
        assert!(
            !m.csr_materialized(),
            "column traffic on a paged source must not build CSR"
        );
    }

    #[test]
    fn spill_source_to_swaps_coo_for_pages_in_place() {
        let coo = sample_coo();
        let m = DataMatrix::from_coo(coo.clone());
        let dir = crate::ooc::TempSpillDir::new("dw-dm-test").unwrap();
        let reclaimed = m.spill_source_to(dir.path(), 32, 64).unwrap();
        assert_eq!(reclaimed, coo.size_bytes());
        assert!(m.is_paged());
        assert!(!m.has_coo_source());
        // Second spill is a no-op; clones share the paged source.
        assert_eq!(m.spill_source_to(dir.path(), 32, 64).unwrap(), 0);
        assert_eq!(m.clone().spill_source_to(dir.path(), 32, 64).unwrap(), 0);
        // Every read keeps working, bit-identically.
        assert_eq!(m.csr(), &coo.to_csr());
        assert_eq!(m.csc(), &coo.to_csc());
        assert_eq!(m.stats(), &MatrixStats::from_coo(&coo));
    }

    #[test]
    fn window_of_a_paged_base_materializes_only_its_page_subrange() {
        let coo = sample_coo();
        let m = paged_copy(&coo, 16, 64);
        let shard = m.row_range(1, 3);
        shard.materialize_rows();
        assert!(
            !m.csr_materialized(),
            "the base's full layout was never built"
        );
        // The shard's own CSR equals the in-memory window.
        let expected = coo.to_csr().select_range(1, 3);
        for i in 0..2 {
            let a = shard.row(i);
            let b = expected.row(i);
            assert_eq!(a.indices, b.indices);
            assert_eq!(a.values, b.values);
        }
        assert_eq!(shard.stats().nnz, expected.nnz());
        assert!(shard.resident_bytes() > 0, "the shard owns its subrange");
    }

    #[test]
    fn dense_rows_serve_row_views_without_sparse_layouts() {
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                coo.push(i, j, (i * 3 + j + 1) as f64).unwrap();
            }
        }
        let m = DataMatrix::from_coo(coo.clone());
        m.materialize_dense_rows();
        assert!(m.dense_rows_materialized());
        assert!(!m.csr_materialized());
        let csr = coo.to_csr();
        for i in 0..3 {
            let a = m.row(i);
            let b = csr.row(i);
            assert_eq!(a.indices, b.indices, "row {i}");
            assert_eq!(a.values, b.values, "row {i}");
        }
        assert!(!m.csr_materialized(), "rows served by the dense store");
        assert_eq!(m.get(1, 2), 6.0);
        // A zero-copy window over a dense-rows base serves through it too.
        let shard = m.row_range(1, 3);
        assert_eq!(shard.row(0).values, csr.row(1).values);
        assert!(!m.csr_materialized());
        // materialize_row_access is a no-op when dense rows are resident.
        m.materialize_row_access();
        assert!(!m.csr_materialized());
        // Compaction accepts the dense store as the retained layout.
        assert!(m.compact_source() > 0);
        assert_eq!(
            m.csr(),
            &csr,
            "sourceless fallback rebuilds from dense rows"
        );
    }

    #[test]
    fn with_coo_source_borrows_without_cloning() {
        let m = DataMatrix::from_coo(sample_coo());
        let nnz = m.with_coo_source(|coo| coo.nnz());
        assert_eq!(nnz, Some(4));
        m.materialize_rows();
        m.compact_source();
        assert_eq!(m.with_coo_source(|coo| coo.nnz()), None);
    }

    proptest! {
        #[test]
        fn prop_paged_matrix_matches_in_memory_layouts(
            entries in proptest::collection::vec((0usize..10, 0usize..6, -4.0f64..4.0), 0..50),
            page_entries in 1usize..8,
            budget_pages in 1usize..4,
        ) {
            let mut coo = CooMatrix::new(10, 6);
            for (r, c, v) in entries {
                let v = if v < -3.5 { 0.0 } else { v };
                coo.push(r, c, v).unwrap();
            }
            let page_bytes = page_entries * 16;
            // A cache budget smaller than the source: layouts still
            // materialize bit-identically by streaming.
            let m = paged_copy(&coo, page_bytes, budget_pages * page_bytes);
            prop_assert_eq!(m.stats(), &MatrixStats::from_coo(&coo));
            prop_assert_eq!(m.csr(), &coo.to_csr());
            prop_assert_eq!(m.csc(), &coo.to_csc());
        }

        #[test]
        fn prop_dense_rows_match_csr_row_views_on_dense_data(
            rows in 1usize..6,
            cols in 1usize..6,
            seed in 0u64..500,
        ) {
            let mut coo = CooMatrix::new(rows, cols);
            for i in 0..rows {
                for j in 0..cols {
                    let v = ((i * cols + j) as u64 * 2654435761 + seed) % 997;
                    coo.push(i, j, v as f64 / 31.0 + 0.25).unwrap();
                }
            }
            let dense = DataMatrix::from_coo(coo.clone());
            dense.materialize_dense_rows();
            let sparse = DataMatrix::from_coo(coo);
            sparse.materialize_rows();
            for i in 0..rows {
                let a = dense.row(i);
                let b = sparse.row(i);
                prop_assert_eq!(a.indices, b.indices);
                prop_assert_eq!(a.values, b.values);
            }
            prop_assert!(!dense.csr_materialized());
        }

        #[test]
        fn prop_views_match_concrete_layouts(
            entries in proptest::collection::btree_map((0usize..8, 0usize..6), -4.0f64..4.0, 0..30)
        ) {
            let mut coo = CooMatrix::new(8, 6);
            for (&(r, c), &v) in &entries {
                coo.push(r, c, v).unwrap();
            }
            let reference = coo.to_csr();
            let m = DataMatrix::from_coo(coo);
            // Row views match the standalone CSR bit for bit.
            for i in 0..m.rows() {
                let a = m.row(i);
                let b = reference.row(i);
                prop_assert_eq!(a.indices, b.indices);
                prop_assert_eq!(a.values, b.values);
            }
            // Column views match the standalone CSC bit for bit.
            let reference_csc = reference.to_csc();
            for j in 0..m.cols() {
                let a = m.col(j);
                let b = reference_csc.col(j);
                prop_assert_eq!(a.indices, b.indices);
                prop_assert_eq!(a.values, b.values);
            }
            // Stats computed lazily agree with the CSR-derived stats.
            prop_assert_eq!(m.stats(), &MatrixStats::from_csr(&reference));
        }

        #[test]
        fn prop_row_range_views_serve_base_rows(
            entries in proptest::collection::btree_map((0usize..10, 0usize..5), -4.0f64..4.0, 0..40),
            start in 0usize..10,
            len in 0usize..10,
        ) {
            let mut coo = CooMatrix::new(10, 5);
            for (&(r, c), &v) in &entries {
                coo.push(r, c, v).unwrap();
            }
            let m = DataMatrix::from_coo(coo);
            let end = (start + len).min(10);
            let shard = m.row_range(start, end);
            prop_assert_eq!(shard.resident_bytes(), 0);
            for i in 0..shard.rows() {
                let a = shard.row(i);
                let b = m.row(start + i);
                prop_assert_eq!(a.indices, b.indices);
                prop_assert_eq!(a.values, b.values);
            }
            // An owned copy of the window agrees with the view.
            let owned = shard.csr().clone();
            for i in 0..shard.rows() {
                prop_assert_eq!(owned.row(i).indices, m.row(start + i).indices);
            }
        }

        #[test]
        fn prop_col_range_views_serve_base_cols(
            entries in proptest::collection::btree_map((0usize..10, 0usize..5), -4.0f64..4.0, 0..40),
            start in 0usize..5,
            len in 0usize..5,
        ) {
            let mut coo = CooMatrix::new(10, 5);
            for (&(r, c), &v) in &entries {
                coo.push(r, c, v).unwrap();
            }
            let m = DataMatrix::from_coo(coo);
            let end = (start + len).min(5);
            let shard = m.col_range(start, end);
            prop_assert_eq!(shard.resident_bytes(), 0);
            for j in 0..shard.cols() {
                let a = shard.col(j);
                let b = m.col(start + j);
                prop_assert_eq!(a.indices, b.indices);
                prop_assert_eq!(a.values, b.values);
                prop_assert_eq!(shard.col_nnz(j), m.col_nnz(start + j));
            }
            // An owned copy of the window agrees with the view — and with
            // the base CSC's contiguous column slice.
            let owned = shard.csc().clone();
            let reference = m.csc().select_range(start, end);
            prop_assert_eq!(&owned, &reference);
            // A nested view flattens to the root and keeps serving the
            // root's exact slices.
            if shard.cols() > 1 {
                let nested = shard.col_range(1, shard.cols());
                for j in 0..nested.cols() {
                    prop_assert_eq!(nested.col(j).indices, m.col(start + 1 + j).indices);
                    prop_assert_eq!(nested.col(j).values, m.col(start + 1 + j).values);
                }
            }
        }

        #[test]
        fn prop_col_range_views_over_a_paged_base_match_the_resident_route(
            entries in proptest::collection::btree_map((0usize..10, 0usize..6), -4.0f64..4.0, 0..40),
            start in 0usize..6,
            len in 0usize..6,
            page_entries in 1usize..8,
        ) {
            let mut coo = CooMatrix::new(10, 6);
            for (&(r, c), &v) in &entries {
                coo.push(r, c, v).unwrap();
            }
            let end = (start + len).min(6);
            let page_bytes = page_entries * 16;
            let paged = paged_copy(&coo, page_bytes, 2 * page_bytes);
            let shard = paged.col_range(start, end);
            // The window materializes only its column subrange, streamed
            // through the bounded cache — bit-identical to the in-memory
            // window of the full CSC.
            let reference = coo.to_csc().select_range(start, end);
            prop_assert_eq!(shard.csc(), &reference);
            prop_assert!(!paged.csc_materialized());
            prop_assert_eq!(shard.stats().nnz, reference.nnz());
        }

        #[test]
        fn prop_roundtrip_through_every_layout_preserves_values(
            entries in proptest::collection::btree_map((0usize..6, 0usize..6), -9.0f64..9.0, 0..24)
        ) {
            let mut coo = CooMatrix::new(6, 6);
            for (&(r, c), &v) in &entries {
                coo.push(r, c, v).unwrap();
            }
            let m = DataMatrix::from_coo(coo.clone());
            let dense = m.dense();
            let csr = m.csr();
            let csc = m.csc();
            for i in 0..6 {
                for j in 0..6 {
                    let expected = coo.to_dense(Layout::RowMajor).get(i, j);
                    prop_assert_eq!(csr.get(i, j), expected);
                    prop_assert_eq!(csc.get(i, j), expected);
                    prop_assert_eq!(dense.get(i, j), expected);
                }
            }
        }

        #[test]
        fn prop_compaction_preserves_every_read(
            entries in proptest::collection::btree_map((0usize..6, 0usize..6), -9.0f64..9.0, 0..24)
        ) {
            let mut coo = CooMatrix::new(6, 6);
            for (&(r, c), &v) in &entries {
                coo.push(r, c, v).unwrap();
            }
            let m = DataMatrix::from_coo(coo.clone());
            m.materialize_rows();
            m.compact_source();
            let reference = coo.to_csr();
            for i in 0..6 {
                for j in 0..6 {
                    prop_assert_eq!(m.get(i, j), reference.get(i, j));
                }
            }
            prop_assert_eq!(m.csc(), &reference.to_csc());
        }
    }
}
