//! Out-of-core paged storage: file-backed sources and a bounded page cache.
//!
//! Appendix C.3 of the paper scales DimmWitted to a 49 GB ClueWeb instance —
//! a dataset no single node holds comfortably in DRAM.  The unified storage
//! layer already separates the *canonical source* of a [`crate::DataMatrix`]
//! from its materialized layouts; this module supplies a source that lives
//! on **disk** and pages in on demand:
//!
//! * [`MatrixSource`] — the abstraction every canonical source sits behind:
//!   an ordered sequence of **pages** of raw COO triplets, each page owning
//!   a contiguous, disjoint row range described by a [`PageMeta`] manifest
//!   entry.  Row-disjoint pages are the key invariant: merging duplicates
//!   *within* one page is bit-identical to the global merge restricted to
//!   that page's rows, so every layout built from a page stream is
//!   bit-identical to the one built from the resident triplets.
//! * [`FileBackedSource`] — page-aligned triplet pages on disk with a footer
//!   manifest of per-page row ranges and entry counts, written by the
//!   streaming [`SpillWriter`] (so a generator can emit a larger-than-DRAM
//!   instance without ever holding the full COO form in memory).
//! * [`InMemorySource`] — the resident COO triplets chunked into the same
//!   page shape, used for parity tests and as the degenerate in-memory
//!   backend of the trait.
//! * [`PageCache`] — a hard resident-byte budget over loaded pages with
//!   pin/unpin and least-recently-used eviction.  [`PageCache::pin`] returns
//!   a [`PinnedPage`] guard; pinned pages are never evicted, everything else
//!   is fair game the moment the budget is exceeded.
//!
//! [`crate::DataMatrix::from_source`] materializes CSR/CSC layouts by
//! streaming pages through the cache instead of requiring the whole source
//! resident, and [`crate::DataMatrix::spill_source_to`] converts a resident
//! COO source into a delete-on-drop [`FileBackedSource`] in place.
//!
//! # File format
//!
//! ```text
//! [0 .. 4096)            header: magic "DWPAGE01", rows u64, cols u64 (LE),
//!                        zero-padded to the page alignment
//! [4096 .. manifest)     pages: raw 16-byte triplets (row u32, col u32,
//!                        value-bits u64, LE), each page zero-padded so the
//!                        next page starts on a 4096-byte boundary
//! [manifest .. end-32)   per-page manifest: offset u64, entry count u64,
//!                        row_start u64, row_end u64
//! [end-32 .. end)        footer: total entries u64, page count u64,
//!                        manifest offset u64, magic "DWFOOT01"
//! ```

use crate::coo::merge_triplets;
use crate::{CooMatrix, Entry, Shape};
use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Bytes of one serialized triplet (`u32` row + `u32` col + `f64` bits).
pub const ENTRY_BYTES: usize = 16;
/// Default target payload size of one page.
pub const DEFAULT_PAGE_BYTES: usize = 64 * 1024;
/// Pages (and the header) start on multiples of this alignment on disk.
pub const PAGE_ALIGN: u64 = 4096;

const HEADER_MAGIC: &[u8; 8] = b"DWPAGE01";
const FOOTER_MAGIC: &[u8; 8] = b"DWFOOT01";
const FOOTER_BYTES: u64 = 32;

/// Monotonic counter for collision-free spill-file and spill-dir names.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Manifest entry describing one page of a [`MatrixSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMeta {
    /// Byte offset of the page payload (file sources) or 0 for in-memory.
    pub offset: u64,
    /// Number of raw (unmerged) triplets stored in the page.
    pub entries: usize,
    /// First row the page covers.
    pub row_start: usize,
    /// One past the last row the page covers.  Page row ranges are disjoint
    /// and ordered, and together they cover `0..rows`.
    pub row_end: usize,
}

impl PageMeta {
    /// Payload bytes of the page.
    pub fn bytes(&self) -> usize {
        self.entries * ENTRY_BYTES
    }
}

/// A canonical matrix source servable one page of triplets at a time.
///
/// The contract every implementation upholds:
///
/// * pages are ordered by row range, and the ranges are disjoint and cover
///   `0..shape().rows` (a row never spans two pages);
/// * within a page, triplets keep their original push order (so duplicate
///   merging sums values in the same order as the resident COO form);
/// * `read_page` fills `out` with exactly `page_meta(page).entries`
///   triplets, bit-identical on every call.
pub trait MatrixSource: std::fmt::Debug + Send + Sync {
    /// Shape of the matrix the source describes.
    fn shape(&self) -> Shape;

    /// Number of pages.
    fn page_count(&self) -> usize;

    /// Manifest entry of page `page`.
    fn page_meta(&self, page: usize) -> PageMeta;

    /// Read page `page` into `out` (cleared first).
    fn read_page(&self, page: usize, out: &mut Vec<Entry>) -> io::Result<()>;

    /// Total raw triplets across all pages.
    fn total_entries(&self) -> usize {
        (0..self.page_count())
            .map(|p| self.page_meta(p).entries)
            .sum()
    }

    /// Bytes of the full triplet payload (what a resident COO copy costs).
    fn total_bytes(&self) -> usize {
        self.total_entries() * ENTRY_BYTES
    }

    /// The contiguous page index range whose row ranges intersect
    /// `rows.start..rows.end` (row-disjoint ordered pages make this a
    /// simple window over the manifest).
    fn pages_for_rows(&self, start: usize, end: usize) -> std::ops::Range<usize> {
        let count = self.page_count();
        let mut first = count;
        for p in 0..count {
            if self.page_meta(p).row_end > start {
                first = p;
                break;
            }
        }
        let mut last = first;
        while last < count && self.page_meta(last).row_start < end {
            last += 1;
        }
        first..last
    }
}

/// The resident COO triplets behind the [`MatrixSource`] trait, chunked
/// into row-disjoint pages.  The degenerate in-memory backend; also the
/// reference the file format's parity tests compare against.
#[derive(Debug)]
pub struct InMemorySource {
    shape: Shape,
    pages: Vec<Vec<Entry>>,
    metas: Vec<PageMeta>,
}

impl InMemorySource {
    /// Chunk a COO matrix into pages of roughly `page_bytes` each, breaking
    /// only at row boundaries.  Entries are stably bucketed by row first, so
    /// within-row push order (and therefore duplicate-merge order) is
    /// preserved.
    pub fn from_coo(coo: &CooMatrix, page_bytes: usize) -> Self {
        let shape = coo.shape();
        let entries = crate::coo::stable_sort_by_row(coo.entries());
        let (pages, metas) = paginate(&entries, shape.rows, page_bytes.max(ENTRY_BYTES));
        InMemorySource {
            shape,
            pages,
            metas,
        }
    }
}

/// The one page-boundary rule every source builder shares: cut a page when
/// the buffered payload has reached the page target **and** the incoming
/// entry starts a new row (pages must stay row-disjoint).  Centralizing the
/// rule keeps [`InMemorySource`] and [`SpillWriter`] cutting identical page
/// boundaries — the bit-parity tests between the two depend on it.
#[derive(Debug)]
pub(crate) struct PageCutter {
    page_bytes: usize,
    buffered_entries: usize,
    last_row: usize,
}

impl PageCutter {
    pub(crate) fn new(page_bytes: usize) -> Self {
        PageCutter {
            page_bytes: page_bytes.max(ENTRY_BYTES),
            buffered_entries: 0,
            last_row: 0,
        }
    }

    /// The last row accepted so far (0 before any entry).
    pub(crate) fn last_row(&self) -> usize {
        self.last_row
    }

    /// Whether a page must be cut *before* accepting an entry of `row`;
    /// returns the cut page's exclusive row end.
    pub(crate) fn cut_before(&self, row: usize) -> Option<usize> {
        if row > self.last_row
            && self.buffered_entries > 0
            && self.buffered_entries * ENTRY_BYTES >= self.page_bytes
        {
            Some(self.last_row + 1)
        } else {
            None
        }
    }

    /// Record an accepted entry.
    pub(crate) fn accept(&mut self, row: usize) {
        self.buffered_entries += 1;
        self.last_row = row;
    }

    /// Reset the buffer accounting after a page was cut.
    pub(crate) fn flushed(&mut self) {
        self.buffered_entries = 0;
    }
}

/// Split row-sorted entries into row-disjoint pages covering `0..rows`.
fn paginate(entries: &[Entry], rows: usize, page_bytes: usize) -> (Vec<Vec<Entry>>, Vec<PageMeta>) {
    let mut cutter = PageCutter::new(page_bytes);
    let mut pages = Vec::new();
    let mut metas: Vec<PageMeta> = Vec::new();
    let mut buf: Vec<Entry> = Vec::new();
    let mut page_row_start = 0usize;
    for e in entries {
        let row = e.row as usize;
        if let Some(row_end) = cutter.cut_before(row) {
            metas.push(PageMeta {
                offset: 0,
                entries: buf.len(),
                row_start: page_row_start,
                row_end,
            });
            pages.push(std::mem::take(&mut buf));
            page_row_start = row_end;
            cutter.flushed();
        }
        buf.push(*e);
        cutter.accept(row);
    }
    if !buf.is_empty() {
        metas.push(PageMeta {
            offset: 0,
            entries: buf.len(),
            row_start: page_row_start,
            row_end: rows,
        });
        pages.push(buf);
    } else if let Some(meta) = metas.last_mut() {
        meta.row_end = rows;
    }
    (pages, metas)
}

impl MatrixSource for InMemorySource {
    fn shape(&self) -> Shape {
        self.shape
    }

    fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn page_meta(&self, page: usize) -> PageMeta {
        self.metas[page]
    }

    fn read_page(&self, page: usize, out: &mut Vec<Entry>) -> io::Result<()> {
        out.clear();
        out.extend_from_slice(&self.pages[page]);
        Ok(())
    }
}

/// Streaming writer of the on-disk page format.
///
/// Push triplets in **non-decreasing row order** (the order every generator
/// emits); the writer cuts a page whenever the buffered payload reaches the
/// page target *and* a row boundary is crossed, so no row ever spans two
/// pages.  Nothing but the current page is buffered — a larger-than-DRAM
/// instance spills with O(page) memory.
#[derive(Debug)]
pub struct SpillWriter {
    file: io::BufWriter<std::fs::File>,
    path: PathBuf,
    shape: Shape,
    cutter: PageCutter,
    buf: Vec<Entry>,
    metas: Vec<PageMeta>,
    offset: u64,
    page_row_start: usize,
    total_entries: usize,
}

impl SpillWriter {
    /// Create the spill file and write its header.
    pub fn create(path: impl AsRef<Path>, rows: usize, cols: usize) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        // Read+write: the same handle serves reads once `finish` converts
        // the writer into a `FileBackedSource`.
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut file = io::BufWriter::new(file);
        let mut header = Vec::with_capacity(PAGE_ALIGN as usize);
        header.extend_from_slice(HEADER_MAGIC);
        header.extend_from_slice(&(rows as u64).to_le_bytes());
        header.extend_from_slice(&(cols as u64).to_le_bytes());
        header.resize(PAGE_ALIGN as usize, 0);
        file.write_all(&header)?;
        Ok(SpillWriter {
            file,
            path,
            shape: Shape::new(rows, cols),
            cutter: PageCutter::new(DEFAULT_PAGE_BYTES),
            buf: Vec::new(),
            metas: Vec::new(),
            offset: PAGE_ALIGN,
            page_row_start: 0,
            total_entries: 0,
        })
    }

    /// Override the target page payload size (clamped to one triplet).
    pub fn with_page_bytes(mut self, page_bytes: usize) -> Self {
        self.cutter = PageCutter::new(page_bytes);
        self
    }

    /// The path being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one triplet.  Rows must be non-decreasing.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> io::Result<()> {
        if row >= self.shape.rows || col >= self.shape.cols {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "entry ({row}, {col}) outside matrix shape {}x{}",
                    self.shape.rows, self.shape.cols
                ),
            ));
        }
        if row < self.cutter.last_row() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "spill rows must be non-decreasing (got row {row} after {})",
                    self.cutter.last_row()
                ),
            ));
        }
        if let Some(row_end) = self.cutter.cut_before(row) {
            self.flush_page(row_end)?;
        }
        self.buf.push(Entry {
            row: row as u32,
            col: col as u32,
            value,
        });
        self.cutter.accept(row);
        self.total_entries += 1;
        Ok(())
    }

    /// Write the buffered page, padding the file to the page alignment.
    fn flush_page(&mut self, row_end: usize) -> io::Result<()> {
        let payload = self.buf.len() * ENTRY_BYTES;
        for e in &self.buf {
            self.file.write_all(&e.row.to_le_bytes())?;
            self.file.write_all(&e.col.to_le_bytes())?;
            self.file.write_all(&e.value.to_bits().to_le_bytes())?;
        }
        let padded = (payload as u64).div_ceil(PAGE_ALIGN) * PAGE_ALIGN;
        let padding = padded - payload as u64;
        if padding > 0 {
            self.file.write_all(&vec![0u8; padding as usize])?;
        }
        self.metas.push(PageMeta {
            offset: self.offset,
            entries: self.buf.len(),
            row_start: self.page_row_start,
            row_end,
        });
        self.offset += padded;
        self.page_row_start = row_end;
        self.buf.clear();
        self.cutter.flushed();
        Ok(())
    }

    /// Flush the last page, write the manifest + footer, and reopen the
    /// result as a [`FileBackedSource`].
    pub fn finish(mut self) -> io::Result<FileBackedSource> {
        if !self.buf.is_empty() {
            self.flush_page(self.shape.rows)?;
        } else if let Some(meta) = self.metas.last_mut() {
            meta.row_end = self.shape.rows;
        }
        let manifest_offset = self.offset;
        for meta in &self.metas {
            self.file.write_all(&meta.offset.to_le_bytes())?;
            self.file.write_all(&(meta.entries as u64).to_le_bytes())?;
            self.file
                .write_all(&(meta.row_start as u64).to_le_bytes())?;
            self.file.write_all(&(meta.row_end as u64).to_le_bytes())?;
        }
        self.file
            .write_all(&(self.total_entries as u64).to_le_bytes())?;
        self.file
            .write_all(&(self.metas.len() as u64).to_le_bytes())?;
        self.file.write_all(&manifest_offset.to_le_bytes())?;
        self.file.write_all(FOOTER_MAGIC)?;
        let mut file = self.file.into_inner()?;
        file.flush()?;
        Ok(FileBackedSource {
            path: self.path,
            file: Mutex::new(file),
            state: RwLock::new(ManifestState {
                shape: self.shape,
                metas: self.metas,
                total_entries: self.total_entries,
                manifest_offset,
                generation: 0,
            }),
            delete_on_drop: false,
        })
    }
}

/// The parsed footer manifest of a [`FileBackedSource`], cached so readers
/// pay the footer parse once per file *generation* instead of assuming the
/// file is immutable after open: a live writer appends delta pages and
/// rewrites the manifest, and [`FileBackedSource::refresh`] re-reads it.
#[derive(Debug)]
struct ManifestState {
    shape: Shape,
    metas: Vec<PageMeta>,
    total_entries: usize,
    manifest_offset: u64,
    generation: u64,
}

/// A matrix source whose triplet pages live in a file written by
/// [`SpillWriter`]; only the manifest is resident.
///
/// The file is *append-only per page*: sealed page payloads are never
/// rewritten, so a reader holding copies of [`PageMeta`] entries (a live
/// snapshot) can keep serving them through [`FileBackedSource::read_page_at`]
/// even after later appends grew the manifest.
#[derive(Debug)]
pub struct FileBackedSource {
    path: PathBuf,
    file: Mutex<std::fs::File>,
    state: RwLock<ManifestState>,
    delete_on_drop: bool,
}

impl FileBackedSource {
    /// Open an existing spill file, validating header and footer.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::File::open(&path)?;
        let (rows, cols) = Self::read_header(&mut file)?;
        let (total_entries, page_count, manifest_offset) = Self::read_footer(&mut file)?;
        let metas = Self::read_manifest(&mut file, page_count, manifest_offset)?;
        Ok(FileBackedSource {
            path,
            file: Mutex::new(file),
            state: RwLock::new(ManifestState {
                shape: Shape::new(rows, cols),
                metas,
                total_entries,
                manifest_offset,
                generation: 0,
            }),
            delete_on_drop: false,
        })
    }

    fn read_header(file: &mut std::fs::File) -> io::Result<(usize, usize)> {
        file.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; 24];
        file.read_exact(&mut header)?;
        if &header[0..8] != HEADER_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a DimmWitted page file (bad header magic)",
            ));
        }
        let rows = u64::from_le_bytes(header[8..16].try_into().unwrap()) as usize;
        let cols = u64::from_le_bytes(header[16..24].try_into().unwrap()) as usize;
        Ok((rows, cols))
    }

    fn read_footer(file: &mut std::fs::File) -> io::Result<(usize, usize, u64)> {
        file.seek(SeekFrom::End(-(FOOTER_BYTES as i64)))?;
        let mut footer = [0u8; FOOTER_BYTES as usize];
        file.read_exact(&mut footer)?;
        if &footer[24..32] != FOOTER_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "truncated DimmWitted page file (bad footer magic)",
            ));
        }
        let total_entries = u64::from_le_bytes(footer[0..8].try_into().unwrap()) as usize;
        let page_count = u64::from_le_bytes(footer[8..16].try_into().unwrap()) as usize;
        let manifest_offset = u64::from_le_bytes(footer[16..24].try_into().unwrap());
        Ok((total_entries, page_count, manifest_offset))
    }

    fn read_manifest(
        file: &mut std::fs::File,
        page_count: usize,
        manifest_offset: u64,
    ) -> io::Result<Vec<PageMeta>> {
        file.seek(SeekFrom::Start(manifest_offset))?;
        let mut manifest = vec![0u8; page_count * 32];
        file.read_exact(&mut manifest)?;
        Ok(manifest
            .chunks_exact(32)
            .map(|c| PageMeta {
                offset: u64::from_le_bytes(c[0..8].try_into().unwrap()),
                entries: u64::from_le_bytes(c[8..16].try_into().unwrap()) as usize,
                row_start: u64::from_le_bytes(c[16..24].try_into().unwrap()) as usize,
                row_end: u64::from_le_bytes(c[24..32].try_into().unwrap()) as usize,
            })
            .collect())
    }

    /// Re-read the footer manifest if a writer appended pages since the
    /// manifest was last parsed; returns whether anything changed.
    ///
    /// The unchanged path costs a single 32-byte footer read (a live seal
    /// rewrites the footer *last*, so an unchanged manifest offset + page
    /// count means the cached parse is still current).  When the file grew,
    /// the manifest and the header row count are re-read and the generation
    /// counter bumps.
    pub fn refresh(&self) -> io::Result<bool> {
        let mut file = self.file.lock().expect("spill file lock poisoned");
        let (total_entries, page_count, manifest_offset) = Self::read_footer(&mut file)?;
        {
            let state = self.state.read().expect("manifest lock poisoned");
            if state.manifest_offset == manifest_offset && state.metas.len() == page_count {
                return Ok(false);
            }
        }
        let (rows, cols) = Self::read_header(&mut file)?;
        let metas = Self::read_manifest(&mut file, page_count, manifest_offset)?;
        drop(file);
        let mut state = self.state.write().expect("manifest lock poisoned");
        state.shape = Shape::new(rows, cols);
        state.metas = metas;
        state.total_entries = total_entries;
        state.manifest_offset = manifest_offset;
        state.generation += 1;
        Ok(true)
    }

    /// How many times [`refresh`](Self::refresh) observed an appended
    /// manifest (0 right after open).
    pub fn generation(&self) -> u64 {
        self.state
            .read()
            .expect("manifest lock poisoned")
            .generation
    }

    /// Byte offset where the current manifest starts — also where the next
    /// appended page's payload goes.
    pub fn manifest_offset(&self) -> u64 {
        self.state
            .read()
            .expect("manifest lock poisoned")
            .manifest_offset
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Remove the backing file when the source is dropped (session spills
    /// use this so tests and runs never leave spill files behind).
    pub fn delete_on_drop(mut self) -> Self {
        self.delete_on_drop = true;
        self
    }

    /// A copy of the current manifest, for one-pass statistics, diagnostics,
    /// and live snapshots that must keep serving a frozen page set.
    pub fn manifest(&self) -> Vec<PageMeta> {
        self.state
            .read()
            .expect("manifest lock poisoned")
            .metas
            .clone()
    }

    /// Read the page a (possibly historical) manifest entry describes.
    /// Sealed page payloads are immutable, so this stays valid even after
    /// later appends replaced the entry's slot in the current manifest.
    ///
    /// Every entry must lie in the page's row range; one that does not is
    /// `InvalidData`.  That bound is what keeps the merge of a page sized by
    /// the page's own rows, whatever the bytes on disk say.
    pub fn read_page_at(&self, meta: &PageMeta, out: &mut Vec<Entry>) -> io::Result<()> {
        let mut bytes = vec![0u8; meta.bytes()];
        {
            let mut file = self.file.lock().expect("spill file lock poisoned");
            file.seek(SeekFrom::Start(meta.offset))?;
            file.read_exact(&mut bytes)?;
        }
        out.clear();
        out.reserve(meta.entries);
        for c in bytes.chunks_exact(ENTRY_BYTES) {
            let entry = Entry {
                row: u32::from_le_bytes(c[0..4].try_into().unwrap()),
                col: u32::from_le_bytes(c[4..8].try_into().unwrap()),
                value: f64::from_bits(u64::from_le_bytes(c[8..16].try_into().unwrap())),
            };
            if !(meta.row_start..meta.row_end).contains(&(entry.row as usize)) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "page entry row {} outside the page's rows {}..{}",
                        entry.row, meta.row_start, meta.row_end
                    ),
                ));
            }
            out.push(entry);
        }
        Ok(())
    }
}

impl Drop for FileBackedSource {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl MatrixSource for FileBackedSource {
    fn shape(&self) -> Shape {
        self.state.read().expect("manifest lock poisoned").shape
    }

    fn page_count(&self) -> usize {
        self.state
            .read()
            .expect("manifest lock poisoned")
            .metas
            .len()
    }

    fn page_meta(&self, page: usize) -> PageMeta {
        self.state.read().expect("manifest lock poisoned").metas[page]
    }

    fn total_entries(&self) -> usize {
        self.state
            .read()
            .expect("manifest lock poisoned")
            .total_entries
    }

    fn read_page(&self, page: usize, out: &mut Vec<Entry>) -> io::Result<()> {
        let meta = self.page_meta(page);
        self.read_page_at(&meta, out)
    }
}

/// Counters a [`PageCache`] accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Page requests served from the cache.
    pub hits: u64,
    /// Page requests that had to load from the source (page faults).
    pub faults: u64,
    /// Bytes read from the source across all faults and prefetches.
    pub io_bytes: u64,
    /// Pages evicted to stay within the budget.
    pub evictions: u64,
    /// Bytes of pages currently resident.
    pub resident_bytes: usize,
    /// High-water mark of `resident_bytes`.
    pub peak_resident_bytes: usize,
    /// Pages inserted ahead of use by a [`Prefetcher`].
    pub prefetched: u64,
    /// Cache hits served from a page a [`Prefetcher`] inserted — IO that was
    /// overlapped with compute instead of blocking a consumer (a subset of
    /// `hits`).
    pub prefetch_hits: u64,
    /// Delta pages a live writer sealed and appended to the source (zero for
    /// static sources; bumped through the [`IngestCounters`] a
    /// [`PagedSource`] can carry).
    pub delta_appends: u64,
    /// Compaction passes that merged accumulated delta pages into a fresh
    /// base file (also carried by [`IngestCounters`]).
    pub compactions: u64,
}

/// Shared streaming-ingest counters: a live source bumps them as it seals
/// delta pages and compacts, and every [`PagedSource`] snapshot holding the
/// same `Arc` surfaces them merged into its [`CacheStats`] — so a session's
/// per-epoch cache-delta accounting sees appends/compactions alongside
/// faults even though each adopted snapshot owns a fresh cache.
#[derive(Debug, Default)]
pub struct IngestCounters {
    /// Delta pages sealed+appended so far.
    pub delta_appends: AtomicU64,
    /// Compaction passes run so far.
    pub compactions: AtomicU64,
}

#[derive(Debug)]
struct Slot {
    data: Arc<Vec<Entry>>,
    bytes: usize,
    pins: usize,
    last_used: u64,
    /// Inserted by a prefetcher and not yet consumed.  Protected from
    /// prefetch-admission eviction (it is exactly the page about to be
    /// pinned) and counted as a prefetch hit when first served.
    prefetched: bool,
}

#[derive(Debug, Default)]
struct CacheInner {
    slots: HashMap<usize, Slot>,
    tick: u64,
    stats: CacheStats,
}

/// A bounded cache of loaded pages with pin/unpin and LRU eviction, safe
/// under concurrent consumers and a [`Prefetcher`].
///
/// The budget is a hard bound on *unpinned* residency: an insert evicts
/// least-recently-used unpinned pages until the new page fits.  Pinned pages
/// are never evicted, so the true invariant is
/// `resident_bytes <= max(budget, pinned bytes + one page)` — callers that
/// pin one page at a time (every streaming pass in this crate) stay within
/// the budget whenever the budget holds at least two pages.
///
/// Two admission policies share the budget.  A consumer fault (`pin`) must
/// succeed, so it evicts any unpinned page, preferring pages no prefetcher
/// is staging.  A prefetch insert (`prefetch`) is best-effort: it only
/// evicts pages that are neither pinned nor freshly prefetched — it never
/// cannibalizes the window it is building — and simply skips the insert
/// when nothing evictable remains.
#[derive(Debug)]
pub struct PageCache {
    budget: usize,
    inner: Mutex<CacheInner>,
    /// Signalled on every served pin, so a prefetcher can pace itself
    /// against the consuming stream.
    progress: Condvar,
}

impl PageCache {
    /// A cache bounded to `budget_bytes` of resident page payload.
    pub fn new(budget_bytes: usize) -> Self {
        PageCache {
            budget: budget_bytes,
            inner: Mutex::new(CacheInner::default()),
            progress: Condvar::new(),
        }
    }

    /// The resident-byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("page cache lock poisoned").stats
    }

    /// Total pins served so far (hits + faults) — the consumer-progress
    /// clock a [`Prefetcher`] paces against.
    pub fn pins_served(&self) -> u64 {
        let inner = self.inner.lock().expect("page cache lock poisoned");
        inner.stats.hits + inner.stats.faults
    }

    /// Block until `pins_served() >= target` or `stop` is raised; returns
    /// whether the target was reached.
    fn wait_for_pins(&self, target: u64, stop: &AtomicBool) -> bool {
        let mut inner = self.inner.lock().expect("page cache lock poisoned");
        loop {
            if inner.stats.hits + inner.stats.faults >= target {
                return true;
            }
            if stop.load(Ordering::Acquire) {
                return false;
            }
            // A short timeout backstops a notify that raced the stop flag.
            let (guard, _timeout) = self
                .progress
                .wait_timeout(inner, std::time::Duration::from_millis(1))
                .expect("page cache lock poisoned");
            inner = guard;
        }
    }

    /// Pin page `page` of `source`, loading it on a miss.  The returned
    /// guard keeps the page unevictable until dropped.
    pub fn pin<'a>(&'a self, source: &dyn MatrixSource, page: usize) -> io::Result<PinnedPage<'a>> {
        // Fast path: serve a cached page under the lock.
        {
            let mut inner = self.inner.lock().expect("page cache lock poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.slots.get_mut(&page) {
                slot.pins += 1;
                slot.last_used = tick;
                let was_prefetched = std::mem::take(&mut slot.prefetched);
                let data = Arc::clone(&slot.data);
                if was_prefetched {
                    inner.stats.prefetch_hits += 1;
                }
                inner.stats.hits += 1;
                drop(inner);
                self.progress.notify_all();
                return Ok(PinnedPage {
                    cache: self,
                    page,
                    data,
                });
            }
        }
        // Fault: read the page with the lock *released*, so hits and faults
        // on other pages (e.g. two nodes materializing their shard
        // subranges) proceed during this page's IO.
        let mut loaded = Vec::new();
        source.read_page(page, &mut loaded)?;
        let bytes = loaded.len() * ENTRY_BYTES;
        let mut inner = self.inner.lock().expect("page cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.slots.get_mut(&page) {
            // Another thread loaded the same page while we read; keep the
            // cached copy (bit-identical by the `MatrixSource` contract)
            // and count the serve as a hit — faults/io track pages that
            // *entered* the cache, so racing loads never double-count.
            slot.pins += 1;
            slot.last_used = tick;
            let was_prefetched = std::mem::take(&mut slot.prefetched);
            let data = Arc::clone(&slot.data);
            if was_prefetched {
                inner.stats.prefetch_hits += 1;
            }
            inner.stats.hits += 1;
            drop(inner);
            self.progress.notify_all();
            return Ok(PinnedPage {
                cache: self,
                page,
                data,
            });
        }
        inner.stats.faults += 1;
        inner.stats.io_bytes += bytes as u64;
        while inner.stats.resident_bytes + bytes > self.budget {
            // Prefer victims no prefetcher staged: a `prefetched` page is
            // about to be consumed, so evicting it would turn overlapped IO
            // straight back into a blocking fault.
            let victim = inner
                .slots
                .iter()
                .filter(|(_, s)| s.pins == 0)
                .min_by_key(|(_, s)| (s.prefetched, s.last_used))
                .map(|(&p, _)| p);
            match victim {
                Some(p) => {
                    let slot = inner.slots.remove(&p).expect("victim exists");
                    inner.stats.resident_bytes -= slot.bytes;
                    inner.stats.evictions += 1;
                }
                // Everything resident is pinned: the insert below may
                // overshoot the budget; the peak counter records it.
                None => break,
            }
        }
        let data = Arc::new(loaded);
        inner.slots.insert(
            page,
            Slot {
                data: Arc::clone(&data),
                bytes,
                pins: 1,
                last_used: tick,
                prefetched: false,
            },
        );
        inner.stats.resident_bytes += bytes;
        inner.stats.peak_resident_bytes = inner
            .stats
            .peak_resident_bytes
            .max(inner.stats.resident_bytes);
        drop(inner);
        self.progress.notify_all();
        Ok(PinnedPage {
            cache: self,
            page,
            data,
        })
    }

    /// Load page `page` ahead of use and insert it unpinned (best-effort
    /// prefetch admission).
    ///
    /// The insert only evicts pages that are neither pinned nor freshly
    /// prefetched; when the page is already cached, or nothing evictable
    /// would make room, the load is skipped/discarded and `Ok(false)` is
    /// returned.  Never blocks a consumer: IO happens with the lock
    /// released, exactly like a `pin` fault.
    pub fn prefetch(&self, source: &dyn MatrixSource, page: usize) -> io::Result<bool> {
        {
            let inner = self.inner.lock().expect("page cache lock poisoned");
            if inner.slots.contains_key(&page) {
                return Ok(false);
            }
        }
        let mut loaded = Vec::new();
        source.read_page(page, &mut loaded)?;
        let bytes = loaded.len() * ENTRY_BYTES;
        let mut inner = self.inner.lock().expect("page cache lock poisoned");
        if inner.slots.contains_key(&page) {
            // A consumer faulted it in while we read; theirs wins.
            return Ok(false);
        }
        while inner.stats.resident_bytes + bytes > self.budget {
            let victim = inner
                .slots
                .iter()
                .filter(|(_, s)| s.pins == 0 && !s.prefetched)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(&p, _)| p);
            match victim {
                Some(p) => {
                    let slot = inner.slots.remove(&p).expect("victim exists");
                    inner.stats.resident_bytes -= slot.bytes;
                    inner.stats.evictions += 1;
                }
                // Only pinned or staged pages remain — give up rather than
                // overshoot the budget or eat the prefetch window.
                None => return Ok(false),
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.stats.prefetched += 1;
        inner.stats.io_bytes += bytes as u64;
        inner.slots.insert(
            page,
            Slot {
                data: Arc::new(loaded),
                bytes,
                pins: 0,
                last_used: tick,
                prefetched: true,
            },
        );
        inner.stats.resident_bytes += bytes;
        inner.stats.peak_resident_bytes = inner
            .stats
            .peak_resident_bytes
            .max(inner.stats.resident_bytes);
        Ok(true)
    }

    /// Drop every unpinned page (used once layouts are materialized and the
    /// stream is done with the source).
    pub fn release(&self) {
        let mut inner = self.inner.lock().expect("page cache lock poisoned");
        let unpinned: Vec<usize> = inner
            .slots
            .iter()
            .filter(|(_, s)| s.pins == 0)
            .map(|(&p, _)| p)
            .collect();
        for p in unpinned {
            let slot = inner.slots.remove(&p).expect("slot exists");
            inner.stats.resident_bytes -= slot.bytes;
        }
    }

    fn unpin(&self, page: usize) {
        let mut inner = self.inner.lock().expect("page cache lock poisoned");
        if let Some(slot) = inner.slots.get_mut(&page) {
            slot.pins = slot.pins.saturating_sub(1);
        }
    }
}

/// A pinned, loaded page; dereferences to its triplets.  Dropping the guard
/// unpins the page (it stays cached until evicted).
#[derive(Debug)]
pub struct PinnedPage<'a> {
    cache: &'a PageCache,
    page: usize,
    data: Arc<Vec<Entry>>,
}

impl std::ops::Deref for PinnedPage<'_> {
    type Target = [Entry];

    fn deref(&self) -> &[Entry] {
        &self.data
    }
}

impl Drop for PinnedPage<'_> {
    fn drop(&mut self) {
        self.cache.unpin(self.page);
    }
}

/// An asynchronous page prefetcher: a thread that walks the manifest in
/// access order, staying `depth` pages ahead of the consuming stream.
///
/// The footer manifest makes every streaming pass's page-access order fully
/// predictable (pages are visited in manifest order), so the prefetcher
/// needs no feedback beyond the cache's served-pin clock: before loading
/// page `k` it waits until the consumer has been served at least `k - depth`
/// pages since the prefetcher started.  Admission goes through
/// [`PageCache::prefetch`], which never evicts pinned or freshly staged
/// pages and never blocks a consumer.
///
/// Dropping the handle stops the thread and joins it.  The prefetcher only
/// ever *warms the cache* — consumers still pin every page through the same
/// `pin` path, so traces and layouts stay bit-identical with or without it.
#[derive(Debug)]
pub struct Prefetcher {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Prefetcher {
    /// Start prefetching every page of `source` into `cache`, keeping at
    /// most `depth` pages in flight ahead of the consuming stream.
    pub fn spawn(source: Arc<dyn MatrixSource>, cache: Arc<PageCache>, depth: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let baseline = cache.pins_served();
        // Stage the first window synchronously, before the consumer takes
        // its first pin: a consumer scheduled ahead of the prefetch thread
        // would otherwise fault the whole head of the stream itself, making
        // prefetch effectiveness a thread-scheduling race.
        let head = depth.min(source.page_count());
        for page in 0..head {
            if cache.prefetch(&*source, page).is_err() {
                break;
            }
        }
        let handle = std::thread::Builder::new()
            .name("dw-prefetch".into())
            .spawn(move || {
                let pages = source.page_count();
                for page in head..pages {
                    // Stay at most `depth` ahead of the pins served since
                    // spawn; the clock also advances on hits, so a fully
                    // warm cache lets the walk finish without IO.
                    let target = baseline + (page as u64).saturating_sub(depth as u64);
                    if !cache.wait_for_pins(target, &thread_stop) {
                        return;
                    }
                    if thread_stop.load(Ordering::Acquire) {
                        return;
                    }
                    // IO errors end the walk quietly: the consumer's own
                    // fault path will surface the error with context.
                    if cache.prefetch(&*source, page).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn prefetch thread");
        Prefetcher {
            stop,
            handle: Some(handle),
        }
    }

    /// Signal the thread to stop and join it (also runs on drop).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A [`MatrixSource`] paired with its bounded [`PageCache`] — the unit a
/// [`crate::DataMatrix`] holds as its out-of-core canonical source.  The
/// cache is `Arc`-shared so a [`Prefetcher`] thread can fill it while the
/// session's stream consumes.
#[derive(Debug)]
pub struct PagedSource {
    source: Arc<dyn MatrixSource>,
    cache: Arc<PageCache>,
    ingest: Option<Arc<IngestCounters>>,
}

impl PagedSource {
    /// Wrap a source with a cache bounded to `cache_budget_bytes`.
    pub fn new(source: Arc<dyn MatrixSource>, cache_budget_bytes: usize) -> Self {
        PagedSource {
            source,
            cache: Arc::new(PageCache::new(cache_budget_bytes)),
            ingest: None,
        }
    }

    /// Attach shared ingest counters; [`stats`](Self::stats) surfaces them
    /// merged into the cache counters.
    pub fn with_ingest(mut self, counters: Arc<IngestCounters>) -> Self {
        self.ingest = Some(counters);
        self
    }

    /// Cache counters, with the delta-append/compaction totals of any
    /// attached [`IngestCounters`] merged in.
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.cache.stats();
        if let Some(counters) = &self.ingest {
            stats.delta_appends = counters.delta_appends.load(Ordering::Relaxed);
            stats.compactions = counters.compactions.load(Ordering::Relaxed);
        }
        stats
    }

    /// Shape of the underlying source.
    pub fn shape(&self) -> Shape {
        self.source.shape()
    }

    /// The underlying source.
    pub fn source(&self) -> &Arc<dyn MatrixSource> {
        &self.source
    }

    /// The page cache.
    pub fn cache(&self) -> &PageCache {
        &self.cache
    }

    /// The shared page cache handle (what a [`Prefetcher`] holds).
    pub fn shared_cache(&self) -> Arc<PageCache> {
        Arc::clone(&self.cache)
    }

    /// Start a [`Prefetcher`] walking this source's manifest `depth` pages
    /// ahead of the stream; returns `None` when `depth` is zero.
    pub fn start_prefetch(&self, depth: usize) -> Option<Prefetcher> {
        if depth == 0 {
            return None;
        }
        Some(Prefetcher::spawn(
            Arc::clone(&self.source),
            self.shared_cache(),
            depth,
        ))
    }

    /// Stream the **merged** triplets of rows `start..end` in row-major
    /// order through the bounded cache, pinning one page at a time.
    ///
    /// Each page is merged independently by the same linear merge pass as
    /// [`CooMatrix::to_csr`] (sum duplicates in page order, drop zeros) — a
    /// page already in (row, col) order straight off the pinned buffer;
    /// because pages are row-disjoint and ordered, the concatenated emission
    /// is bit-identical to the global merge restricted to `start..end`.
    pub fn stream_rows(
        &self,
        start: usize,
        end: usize,
        mut emit: impl FnMut(usize, usize, f64),
    ) -> io::Result<()> {
        let clip = start > 0 || end < self.source.shape().rows;
        for page in self.source.pages_for_rows(start, end) {
            let pinned = self.cache.pin(&*self.source, page)?;
            if clip {
                merge_triplets(&pinned, false, |r, c, v| {
                    if r >= start && r < end {
                        emit(r, c, v);
                    }
                });
            } else {
                merge_triplets(&pinned, false, &mut emit);
            }
        }
        Ok(())
    }
}

/// A self-deleting directory for spill files, so tests and benches never
/// leave pages behind in the repository or the system temp dir.
#[derive(Debug)]
pub struct TempSpillDir {
    path: PathBuf,
}

impl TempSpillDir {
    /// Create a uniquely named directory under the system temp dir.
    pub fn new(prefix: &str) -> io::Result<Self> {
        let unique = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{prefix}-{}-{unique}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempSpillDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempSpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A collision-free spill-file name (used by
/// [`crate::DataMatrix::spill_source_to`]).
pub fn unique_spill_name(stem: &str) -> String {
    let unique = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("{stem}-{}-{unique}.dwpg", std::process::id())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_coo() -> CooMatrix {
        let mut coo = CooMatrix::new(6, 4);
        for (r, c, v) in [
            (0, 1, 1.5),
            (0, 1, 2.5), // duplicate, merges to 4.0
            (1, 0, -1.0),
            (1, 3, 1.0),
            (1, 3, -1.0), // cancels, dropped
            (3, 2, 7.0),
            (5, 0, 0.25),
        ] {
            coo.push(r, c, v).unwrap();
        }
        coo
    }

    fn spill(coo: &CooMatrix, dir: &TempSpillDir, page_bytes: usize) -> FileBackedSource {
        let mut entries = coo.entries().to_vec();
        entries.sort_by_key(|e| e.row);
        let mut w = SpillWriter::create(dir.file("m.dwpg"), coo.rows(), coo.cols())
            .unwrap()
            .with_page_bytes(page_bytes);
        for e in &entries {
            w.push(e.row as usize, e.col as usize, e.value).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn in_memory_source_pages_are_row_disjoint_and_cover_all_rows() {
        let coo = sample_coo();
        // Tiny pages: force multiple pages.
        let source = InMemorySource::from_coo(&coo, ENTRY_BYTES);
        assert!(source.page_count() > 1);
        let mut prev_end = 0;
        for p in 0..source.page_count() {
            let meta = source.page_meta(p);
            assert_eq!(meta.row_start, prev_end, "page {p} contiguous");
            assert!(meta.row_end > meta.row_start);
            prev_end = meta.row_end;
        }
        assert_eq!(prev_end, coo.rows(), "pages cover every row");
        assert_eq!(source.total_entries(), coo.nnz());
        assert_eq!(source.total_bytes(), coo.size_bytes());
    }

    #[test]
    fn page_entry_outside_its_rows_is_invalid_data() {
        let coo = sample_coo();
        let dir = TempSpillDir::new("dw-ooc-test").unwrap();
        let source = spill(&coo, &dir, 32);
        let meta = source.page_meta(0);
        {
            // Overwrite the first entry's row id with a wild one.
            let mut file = std::fs::OpenOptions::new()
                .write(true)
                .open(source.path())
                .unwrap();
            file.seek(SeekFrom::Start(meta.offset)).unwrap();
            file.write_all(&(u32::MAX / 2).to_le_bytes()).unwrap();
        }
        let mut out = Vec::new();
        let err = source.read_page(0, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Untouched pages still read.
        source.read_page(1, &mut out).unwrap();
    }

    #[test]
    fn file_roundtrip_preserves_every_triplet_bit() {
        let coo = sample_coo();
        let dir = TempSpillDir::new("dw-ooc-test").unwrap();
        let source = spill(&coo, &dir, 32);
        assert!(source.page_count() > 1);
        assert_eq!(source.shape(), coo.shape());
        assert_eq!(source.total_entries(), coo.nnz());
        // Page offsets are aligned.
        for meta in source.manifest() {
            assert_eq!(meta.offset % PAGE_ALIGN, 0, "page offsets are aligned");
        }
        // Reopening reads the same manifest and pages.
        let reopened = FileBackedSource::open(source.path()).unwrap();
        assert_eq!(reopened.manifest(), source.manifest());
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut all = Vec::new();
        for p in 0..source.page_count() {
            source.read_page(p, &mut a).unwrap();
            reopened.read_page(p, &mut b).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.row, y.row);
                assert_eq!(x.col, y.col);
                assert_eq!(x.value.to_bits(), y.value.to_bits());
            }
            all.extend_from_slice(&a);
        }
        let mut expected = coo.entries().to_vec();
        expected.sort_by_key(|e| e.row);
        assert_eq!(all.len(), expected.len());
        for (x, y) in all.iter().zip(&expected) {
            assert_eq!(
                (x.row, x.col, x.value.to_bits()),
                (y.row, y.col, y.value.to_bits())
            );
        }
    }

    #[test]
    fn spill_writer_rejects_out_of_order_and_out_of_bounds() {
        let dir = TempSpillDir::new("dw-ooc-test").unwrap();
        let mut w = SpillWriter::create(dir.file("bad.dwpg"), 4, 4).unwrap();
        w.push(2, 0, 1.0).unwrap();
        assert!(w.push(1, 0, 1.0).is_err(), "rows must be non-decreasing");
        assert!(w.push(2, 9, 1.0).is_err(), "columns are bounds-checked");
        assert!(w.push(9, 0, 1.0).is_err(), "rows are bounds-checked");
    }

    #[test]
    fn delete_on_drop_removes_the_spill_file() {
        let dir = TempSpillDir::new("dw-ooc-test").unwrap();
        let source = spill(&sample_coo(), &dir, 64).delete_on_drop();
        let path = source.path().to_path_buf();
        assert!(path.exists());
        drop(source);
        assert!(!path.exists(), "spill file was removed on drop");
    }

    #[test]
    fn page_cache_enforces_its_budget_with_lru_eviction() {
        let coo = sample_coo();
        let source = InMemorySource::from_coo(&coo, ENTRY_BYTES); // 1 entry/page-ish
        let pages = source.page_count();
        assert!(pages >= 3);
        let page_bytes = source.page_meta(0).bytes();
        // Budget: two pages.
        let cache = PageCache::new(2 * page_bytes);
        for p in 0..pages {
            let pinned = cache.pin(&source, p).unwrap();
            assert_eq!(pinned.len(), source.page_meta(p).entries);
        }
        let stats = cache.stats();
        assert_eq!(stats.faults, pages as u64);
        assert_eq!(stats.hits, 0);
        assert!(stats.evictions >= (pages - 2) as u64);
        assert!(
            stats.peak_resident_bytes <= 2 * page_bytes,
            "peak {} over budget {}",
            stats.peak_resident_bytes,
            2 * page_bytes
        );
        // Re-reading the most recent page hits; the oldest faults again.
        let _ = cache.pin(&source, pages - 1).unwrap();
        assert_eq!(cache.stats().hits, 1);
        let _ = cache.pin(&source, 0).unwrap();
        assert_eq!(cache.stats().faults, pages as u64 + 1);
        // Release drops all unpinned residency.
        cache.release();
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let coo = sample_coo();
        let source = InMemorySource::from_coo(&coo, ENTRY_BYTES);
        let pages = source.page_count();
        let page_bytes = source.page_meta(0).bytes();
        let cache = PageCache::new(page_bytes); // room for one page only
        let pinned = cache.pin(&source, 0).unwrap();
        // Faulting other pages cannot evict the pinned one.
        for p in 1..pages {
            let _ = cache.pin(&source, p).unwrap();
        }
        assert_eq!(pinned[0].row, 0, "pinned data still valid");
        let again = cache.pin(&source, 0).unwrap();
        assert_eq!(cache.stats().hits, 1, "page 0 never left the cache");
        drop(again);
        drop(pinned);
        cache.release();
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    #[test]
    fn paged_stream_matches_the_global_merge() {
        let coo = sample_coo();
        let dir = TempSpillDir::new("dw-ooc-test").unwrap();
        let source = spill(&coo, &dir, 32);
        let paged = PagedSource::new(Arc::new(source), 64);
        let mut streamed = Vec::new();
        paged
            .stream_rows(0, coo.rows(), |r, c, v| streamed.push((r, c, v.to_bits())))
            .unwrap();
        let mut expected = Vec::new();
        let csr = coo.to_csr();
        for i in 0..csr.rows() {
            let row = csr.row(i);
            for (j, v) in row.iter() {
                expected.push((i, j, v.to_bits()));
            }
        }
        assert_eq!(streamed, expected, "paged merge == global merge");
        // A row subrange clips exactly.
        let mut sub = Vec::new();
        paged
            .stream_rows(1, 4, |r, c, v| sub.push((r, c, v.to_bits())))
            .unwrap();
        let expected_sub: Vec<_> = expected
            .iter()
            .copied()
            .filter(|&(r, _, _)| (1..4).contains(&r))
            .collect();
        assert_eq!(sub, expected_sub);
    }

    #[test]
    fn pages_for_rows_windows_the_manifest() {
        let coo = sample_coo();
        let source = InMemorySource::from_coo(&coo, ENTRY_BYTES);
        let all = source.pages_for_rows(0, coo.rows());
        assert_eq!(all, 0..source.page_count());
        let none = source.pages_for_rows(0, 0);
        assert!(none.is_empty());
        // Every selected page intersects the range; every skipped page does not.
        for (start, end) in [(0, 2), (1, 4), (3, 6), (5, 6)] {
            let selected = source.pages_for_rows(start, end);
            for p in 0..source.page_count() {
                let meta = source.page_meta(p);
                let intersects = meta.row_start < end && meta.row_end > start;
                assert_eq!(
                    selected.contains(&p),
                    intersects,
                    "page {p} range {}..{} vs rows {start}..{end}",
                    meta.row_start,
                    meta.row_end
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_file_pages_stream_bit_identically_to_memory(
            triplets in proptest::collection::vec((0usize..12, 0usize..6, -4.0f64..4.0), 0..60),
            page_bytes in 1usize..6,
            budget_pages in 1usize..4,
        ) {
            let mut coo = CooMatrix::new(12, 6);
            for (r, c, v) in triplets {
                // Exercise explicit zeros and duplicate merging.
                let v = if v < -3.5 { 0.0 } else { v };
                coo.push(r, c, v).unwrap();
            }
            let dir = TempSpillDir::new("dw-ooc-prop").unwrap();
            let file = spill(&coo, &dir, page_bytes * ENTRY_BYTES);
            let memory = InMemorySource::from_coo(&coo, page_bytes * ENTRY_BYTES);
            prop_assert_eq!(file.total_entries(), memory.total_entries());
            // Both sources stream the same merged triplets under a cache
            // smaller than the source.
            let budget = budget_pages * page_bytes * ENTRY_BYTES;
            let from_file = PagedSource::new(Arc::new(file), budget);
            let from_memory = PagedSource::new(Arc::new(memory), budget);
            let mut a = Vec::new();
            let mut b = Vec::new();
            from_file.stream_rows(0, 12, |r, c, v| a.push((r, c, v.to_bits()))).unwrap();
            from_memory.stream_rows(0, 12, |r, c, v| b.push((r, c, v.to_bits()))).unwrap();
            prop_assert_eq!(&a, &b);
            // And both match the global in-memory merge.
            let csr = coo.to_csr();
            let mut expected = Vec::new();
            for i in 0..csr.rows() {
                for (j, v) in csr.row(i).iter() {
                    expected.push((i, j, v.to_bits()));
                }
            }
            prop_assert_eq!(a, expected);
            // Single-pin streaming never exceeds the budget (or, when the
            // budget is below one page, a single page).
            let stats = from_file.cache().stats();
            let max_page = (0..from_file.source().page_count())
                .map(|p| from_file.source().page_meta(p).bytes())
                .max()
                .unwrap_or(0);
            prop_assert!(stats.peak_resident_bytes <= budget.max(max_page));
        }
    }

    /// A uniform synthetic source: 2 entries per row, 2 rows per page, so
    /// every page carries exactly the same byte count (which lets the
    /// stress test reconcile `io_bytes` against the fault/prefetch counts
    /// exactly).
    fn uniform_source() -> InMemorySource {
        let mut coo = CooMatrix::new(64, 8);
        for r in 0..64 {
            for c in 0..2 {
                coo.push(r, c, (r * 8 + c) as f64 + 0.5).unwrap();
            }
        }
        InMemorySource::from_coo(&coo, 4 * ENTRY_BYTES)
    }

    #[test]
    fn page_cache_is_safe_under_concurrent_pin_and_prefetch_pressure() {
        let source = Arc::new(uniform_source());
        let pages = source.page_count();
        assert!(pages >= 8);
        let page_bytes = source.page_meta(0).bytes();
        assert!(
            (0..pages).all(|p| source.page_meta(p).bytes() == page_bytes),
            "uniform pages, so io_bytes reconciles exactly"
        );
        // Room for three pages; three threads plus a long-lived pin fight
        // over them.
        let cache = Arc::new(PageCache::new(3 * page_bytes));
        let pinned = cache.pin(source.as_ref(), 0).unwrap();
        let witness = (pinned[0].row, pinned[0].col, pinned[0].value.to_bits());
        let rounds = 50;
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let source = Arc::clone(&source);
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        for p in 0..pages {
                            if (p + t + round) % 7 == 0 {
                                // Admission under pressure: may decline
                                // (nothing evictable), never errors.
                                let _ = cache.prefetch(source.as_ref(), p).unwrap();
                            }
                            let page = cache.pin(source.as_ref(), p).unwrap();
                            let meta = source.page_meta(p);
                            assert_eq!(page.len(), meta.entries);
                            assert!(page.iter().all(
                                |e| (meta.row_start..meta.row_end).contains(&(e.row as usize))
                            ));
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(
            (pinned[0].row, pinned[0].col, pinned[0].value.to_bits()),
            witness,
            "the pinned page was never evicted or corrupted"
        );
        let stats = cache.stats();
        let total_pins = 1 + 3 * rounds as u64 * pages as u64;
        assert_eq!(
            stats.hits + stats.faults,
            total_pins,
            "every pin is exactly one hit or one fault"
        );
        assert_eq!(cache.pins_served(), total_pins);
        assert_eq!(
            stats.io_bytes,
            (stats.faults + stats.prefetched) * page_bytes as u64,
            "every byte that entered the cache is a fault or a prefetch"
        );
        assert!(
            stats.prefetch_hits <= stats.prefetched,
            "a prefetched page is consumed at most once per staging"
        );
        // The budget bounds *unpinned* residency; pinned pages overcommit.
        // At most four pins are live at once (the witness plus one per
        // thread), so that is the hard ceiling.
        assert!(
            stats.peak_resident_bytes <= 4 * page_bytes,
            "residency never exceeded the concurrently pinned bytes"
        );
    }

    #[test]
    fn prefetcher_turns_faults_into_hits_without_changing_the_stream() {
        let coo = {
            let mut coo = CooMatrix::new(64, 8);
            for r in 0..64 {
                for c in 0..2 {
                    coo.push(r, c, (r * 8 + c) as f64 + 0.5).unwrap();
                }
            }
            coo
        };
        let dir = TempSpillDir::new("dw-ooc-prefetch").unwrap();
        let source = Arc::new(spill(&coo, &dir, 4 * ENTRY_BYTES));
        let budget = 4 * 4 * ENTRY_BYTES;
        let collect = |prefetch_depth: usize| {
            let paged = PagedSource::new(Arc::clone(&source) as Arc<dyn MatrixSource>, budget);
            let prefetcher = paged.start_prefetch(prefetch_depth);
            let mut streamed = Vec::new();
            paged
                .stream_rows(0, 64, |r, c, v| streamed.push((r, c, v.to_bits())))
                .unwrap();
            drop(prefetcher);
            (streamed, paged.cache().stats())
        };
        let (cold, cold_stats) = collect(0);
        let (warm, warm_stats) = collect(3);
        assert_eq!(cold, warm, "prefetch only warms the cache — same bytes");
        assert_eq!(cold_stats.prefetched, 0);
        assert_eq!(cold_stats.prefetch_hits, 0);
        assert!(
            warm_stats.prefetched > 0,
            "the prefetcher staged pages ahead of the stream"
        );
        assert!(
            warm_stats.prefetch_hits > 0,
            "staged pages were consumed as hits"
        );
        assert!(
            warm_stats.faults < cold_stats.faults,
            "prefetch hits replaced blocking faults: {} vs {}",
            warm_stats.faults,
            cold_stats.faults
        );
    }

    #[test]
    fn temp_spill_dir_cleans_up_while_a_panic_unwinds() {
        let dir = TempSpillDir::new("dw-ooc-panic").unwrap();
        let path = dir.path().to_path_buf();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            std::fs::write(dir.file("partial.dwpg"), b"half-written page").unwrap();
            panic!("spill failed mid-write");
        }));
        assert!(result.is_err());
        assert!(
            !path.exists(),
            "the spill dir and its contents were removed during unwind"
        );
    }

    #[test]
    fn unique_spill_name_never_collides_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..200)
                        .map(|_| unique_spill_name("stress"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        for handle in handles {
            for name in handle.join().unwrap() {
                assert!(seen.insert(name.clone()), "duplicate spill name {name}");
            }
        }
        assert_eq!(seen.len(), 8 * 200);
    }
}
