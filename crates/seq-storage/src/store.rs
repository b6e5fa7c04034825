//! Paged stored sequences with access accounting.
//!
//! [`StoredSequence`] is the physical representation of a base sequence:
//! records packed into fixed-capacity pages in position order, a sparse
//! position index for probed access, and shared [`Stats`] counters
//! charged on every page touch. An optional [`BufferPool`] decides whether a
//! page touch is a (cheap) hit or a (charged) read.

use std::sync::Arc;

use seq_core::{
    BaseSequence, CmpOp, Counter, Record, RecordBatch, Result, Schema, SeqMeta, Sequence, Span,
    Stats, Value,
};

use crate::buffer::{BufferPool, PageAccess, StoreId};
use crate::filter::ScanFilter;
use crate::index::SparseIndex;
use crate::page::{ColumnSet, DecodedRows, DictMasks, Page, PageId};

/// Default number of records per page. With ~16-byte records this models a
/// small page; experiments that care set their own capacity.
pub const DEFAULT_PAGE_CAPACITY: usize = 64;

/// How many pages of one column chose each encoding. Encodings are picked
/// per page, so a column is described by a mix, not a single label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnEncodingMix {
    /// Pages storing the column plain.
    pub plain: u32,
    /// Pages storing the column delta-encoded.
    pub delta: u32,
    /// Pages storing the column run-length-encoded.
    pub rle: u32,
    /// Pages storing the column dictionary-encoded.
    pub dict: u32,
}

impl ColumnEncodingMix {
    fn bump(&mut self, label: &str) {
        match label {
            "delta" => self.delta += 1,
            "rle" => self.rle += 1,
            "dict" => self.dict += 1,
            _ => self.plain += 1,
        }
    }

    /// The encoding chosen by the most pages (ties prefer the compressed
    /// encodings in delta/rle/dict order).
    pub fn dominant(&self) -> &'static str {
        let mut best = ("plain", self.plain);
        for (label, n) in [("dict", self.dict), ("rle", self.rle), ("delta", self.delta)] {
            if n >= best.1 && n > 0 {
                best = (label, n);
            }
        }
        best.0
    }
}

impl std::fmt::Display for ColumnEncodingMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.dominant())
    }
}

/// Per-sequence compression summary, computed once at build time from the
/// encoded pages (consulting it never touches a page).
#[derive(Debug, Clone, Default)]
pub struct CompressionStats {
    /// Decoded (row-equivalent) byte footprint of all pages.
    pub plain_bytes: u64,
    /// Encoded byte footprint of all pages.
    pub encoded_bytes: u64,
    /// Encoding mix of each record column across pages.
    pub columns: Vec<ColumnEncodingMix>,
}

impl CompressionStats {
    fn from_pages(pages: &[Page], arity: usize) -> CompressionStats {
        let mut c = CompressionStats {
            plain_bytes: 0,
            encoded_bytes: 0,
            columns: vec![ColumnEncodingMix::default(); arity],
        };
        for page in pages {
            c.plain_bytes += page.plain_bytes() as u64;
            c.encoded_bytes += page.encoded_bytes() as u64;
            for (col, label) in page.column_encodings().enumerate() {
                c.columns[col].bump(label);
            }
        }
        c
    }

    /// Encoded-to-plain size ratio (`1.0` when nothing is stored or nothing
    /// compressed; smaller is better).
    pub fn ratio(&self) -> f64 {
        if self.plain_bytes == 0 {
            1.0
        } else {
            self.encoded_bytes as f64 / self.plain_bytes as f64
        }
    }
}

/// A physically stored base sequence: its immutable stored form, shared
/// by every view of it, and the counters this view charges.
pub struct StoredSequence {
    body: Arc<StoredBody>,
    stats: Stats,
}

/// The immutable part of a [`StoredSequence`].
struct StoredBody {
    store_id: StoreId,
    name: String,
    schema: Schema,
    meta: SeqMeta,
    pages: Vec<Page>,
    index: SparseIndex,
    record_count: u64,
    compression: CompressionStats,
    buffer: Option<Arc<BufferPool>>,
}

impl std::fmt::Debug for StoredSequence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredSequence")
            .field("name", &self.body.name)
            .field("store_id", &self.body.store_id)
            .field("pages", &self.body.pages.len())
            .field("records", &self.body.record_count)
            .field("meta", &self.body.meta)
            .finish()
    }
}

impl StoredSequence {
    /// Materialize an in-memory base sequence into pages of `page_capacity`
    /// records each.
    pub fn from_base(
        store_id: StoreId,
        name: impl Into<String>,
        base: &BaseSequence,
        page_capacity: usize,
        stats: Stats,
        buffer: Option<Arc<BufferPool>>,
    ) -> StoredSequence {
        assert!(page_capacity > 0, "page capacity must be positive");
        let entries = base.entries();
        let mut pages = Vec::with_capacity(entries.len().div_ceil(page_capacity));
        for (i, chunk) in entries.chunks(page_capacity).enumerate() {
            pages.push(Page::new(i as PageId, chunk.to_vec()));
        }
        let index = SparseIndex::build(&pages);
        let compression = CompressionStats::from_pages(&pages, base.schema().arity());
        let body = StoredBody {
            store_id,
            name: name.into(),
            schema: base.schema().clone(),
            meta: base.meta().clone(),
            pages,
            index,
            record_count: entries.len() as u64,
            compression,
            buffer,
        };
        StoredSequence { body: Arc::new(body), stats }
    }

    /// A view of the same physical sequence charging `stats` instead: the
    /// stored form is shared, not copied (same `store_id`, so buffer-pool
    /// hits and misses are unchanged). This is how a query charges its own
    /// scope and a profiler attributes page traffic to one operator.
    pub fn with_stats(&self, stats: Stats) -> Arc<StoredSequence> {
        Arc::new(StoredSequence { body: Arc::clone(&self.body), stats })
    }

    /// Catalog name of the sequence.
    pub fn name(&self) -> &str {
        &self.body.name
    }

    /// Identifier within the shared buffer pool.
    pub fn store_id(&self) -> StoreId {
        self.body.store_id
    }

    /// Number of pages the sequence occupies.
    pub fn page_count(&self) -> usize {
        self.body.pages.len()
    }

    /// The counters this store charges.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Compression summary of the stored pages (build-time metadata).
    pub fn compression(&self) -> &CompressionStats {
        &self.body.compression
    }

    /// Charge one page touch against the statistics (and the buffer pool,
    /// when attached).
    fn touch_page(&self, page: PageId) {
        match &self.body.buffer {
            Some(pool) => match pool.access(self.body.store_id, page) {
                PageAccess::Hit => self.stats.add(Counter::PageHits, 1),
                PageAccess::Miss => self.stats.add(Counter::PageReads, 1),
            },
            None => self.stats.add(Counter::PageReads, 1),
        }
    }

    /// The one page-entry decision both the tuple and the batch scan share,
    /// so their charging stays symmetric at every boundary: a scan positioned
    /// before `page` (bounds `start..=end`, optional pushed filter) either
    /// enters it (touch charged, cursor at the first in-span slot), skips it
    /// on zone-map evidence (charged to `pages_skipped`, never fetched), or
    /// learns the span is exhausted (free: `first_pos`, like the zone map, is
    /// header metadata — consulting it is not a page read).
    fn enter_page(
        &self,
        page: &Page,
        start: i64,
        end: i64,
        filter: Option<&ScanFilter>,
    ) -> PageEntry {
        if page.first_pos().is_none_or(|fp| fp > end) {
            return PageEntry::Exhausted;
        }
        if filter.is_some_and(|f| !f.page_may_match(page)) {
            self.stats.add(Counter::PagesSkipped, 1);
            return PageEntry::Skip;
        }
        self.touch_page(page.id());
        PageEntry::Enter(page.lower_bound(start))
    }
}

/// Outcome of [`StoredSequence::enter_page`].
enum PageEntry {
    /// Page materialized; scan continues from this slot.
    Enter(usize),
    /// Zone map refuted the filter: advance past without reading.
    Skip,
    /// The page starts past the span end: the scan is exhausted.
    Exhausted,
}

impl Sequence for StoredSequence {
    fn schema(&self) -> &Schema {
        &self.body.schema
    }

    fn meta(&self) -> &SeqMeta {
        &self.body.meta
    }

    fn get(&self, pos: i64) -> Option<Record> {
        self.stats.add(Counter::Probes, 1);
        let page_id = self.body.index.page_for(pos)?;
        self.touch_page(page_id);
        let (rec, bytes) = self.body.pages[page_id as usize].find(pos)?;
        self.stats.add(Counter::BytesDecoded, bytes as u64);
        Some(rec)
    }

    fn scan(&self, span: Span) -> Box<dyn Iterator<Item = (i64, Record)> + '_> {
        self.stats.add(Counter::ScansOpened, 1);
        if span.is_empty() {
            return Box::new(std::iter::empty());
        }
        let start_page = self.body.index.first_page_at_or_after(span.start());
        Box::new(StoredScan {
            store: self,
            page_idx: start_page,
            slot: None,
            rows: None,
            end: span.end(),
            start: span.start(),
        })
    }

    fn record_count(&self) -> u64 {
        self.body.record_count
    }
}

impl StoredSequence {
    /// An owning stream cursor (for executors that cannot hold a borrow on
    /// the store). Touches each page once, in order, like
    /// [`Sequence::scan`], and additionally supports positional skipping.
    pub fn scan_owned(self: &Arc<Self>, span: Span) -> OwnedScan {
        self.scan_owned_filtered(span, None)
    }

    /// [`StoredSequence::scan_owned`] with a pushed-down [`ScanFilter`]:
    /// pages whose zone map refutes the filter are skipped without being
    /// read (charged to `pages_skipped`). Rows of surviving pages are *not*
    /// filtered — the caller re-applies its full predicate per record.
    pub fn scan_owned_filtered(
        self: &Arc<Self>,
        span: Span,
        filter: Option<ScanFilter>,
    ) -> OwnedScan {
        self.stats.add(Counter::ScansOpened, 1);
        let (page_idx, start, end) = if span.is_empty() {
            (usize::MAX, 1, 0)
        } else {
            (self.body.index.first_page_at_or_after(span.start()), span.start(), span.end())
        };
        OwnedScan { store: Arc::clone(self), page_idx, slot: None, rows: None, start, end, filter }
    }

    /// A batched owning stream cursor: materializes up to `batch_size`
    /// in-span records at a time into a columnar [`RecordBatch`]. Page
    /// touches are charged exactly as [`StoredSequence::scan_owned`] (once
    /// per page entered, in order); stream-record counts fold into one
    /// atomic add per batch instead of one per record.
    pub fn scan_batch(self: &Arc<Self>, span: Span, batch_size: usize) -> OwnedBatchScan {
        self.scan_batch_filtered(span, batch_size, None)
    }

    /// [`StoredSequence::scan_batch`] with a pushed-down [`ScanFilter`];
    /// page skipping exactly as in [`StoredSequence::scan_owned_filtered`].
    pub fn scan_batch_filtered(
        self: &Arc<Self>,
        span: Span,
        batch_size: usize,
        filter: Option<ScanFilter>,
    ) -> OwnedBatchScan {
        self.stats.add(Counter::ScansOpened, 1);
        let (page_idx, start, end) = if span.is_empty() {
            (usize::MAX, 1, 0)
        } else {
            (self.body.index.first_page_at_or_after(span.start()), span.start(), span.end())
        };
        OwnedBatchScan {
            store: Arc::clone(self),
            page_idx,
            slot: None,
            start,
            end,
            batch_size: batch_size.max(1),
            filter,
            survivors: Vec::new(),
            columns: ColumnSet::All,
            masks: None,
        }
    }

    /// Split `span` into up to `parts` contiguous, page-aligned sub-spans
    /// covering exactly `span`'s overlap with the stored data. Parallel
    /// drivers hand each sub-span to an independent [`OwnedBatchScan`] (the
    /// scan is `Clone` and the store is shared behind the `Arc`), and
    /// page-aligned boundaries mean no page is entered by two workers for
    /// the same scan.
    pub fn partition_spans(&self, span: Span, parts: usize) -> Vec<Span> {
        let span = span.intersect(&self.body.meta.span);
        if span.is_empty() {
            return Vec::new();
        }
        let first = self.body.index.first_page_at_or_after(span.start());
        let last = self
            .body
            .pages
            .iter()
            .rposition(|p| p.first_pos().is_some_and(|fp| fp <= span.end()))
            .unwrap_or(first);
        if first >= self.body.pages.len() || last < first {
            return Vec::new();
        }
        let pages = last - first + 1;
        let parts = parts.clamp(1, pages);
        let per = pages.div_ceil(parts);
        let mut out = Vec::with_capacity(parts);
        let mut lo = span.start();
        let mut page = first;
        while page <= last {
            let chunk_last = (page + per - 1).min(last);
            let hi = if chunk_last == last {
                span.end()
            } else {
                // End just before the next chunk's first position so the
                // sub-spans tile the span without overlap.
                self.body.pages[chunk_last + 1].first_pos().expect("pages are non-empty") - 1
            };
            if hi >= lo {
                out.push(Span::new(lo, hi));
                lo = hi + 1;
            }
            page = chunk_last + 1;
        }
        out
    }
}

/// Owning batched streaming scan over an `Arc<StoredSequence>`.
///
/// Yields the same records, in the same order, with the same page-touch
/// accounting as [`OwnedScan`]; only the granularity differs. Cloning is
/// cheap (the page store is shared behind the `Arc`) and yields an
/// independent scan position, so parallel workers can each carry their own.
#[derive(Clone)]
pub struct OwnedBatchScan {
    store: Arc<StoredSequence>,
    page_idx: usize,
    slot: Option<usize>,
    start: i64,
    end: i64,
    batch_size: usize,
    filter: Option<ScanFilter>,
    /// Scratch survivor-slot buffer reused across page windows by
    /// [`OwnedBatchScan::next_batch_selected`], so the hot filtered-scan
    /// loop allocates nothing per window.
    survivors: Vec<u32>,
    /// Which record columns to materialize into emitted batches
    /// ([`ColumnSet::All`] unless the planner pruned some); positions are
    /// always decoded. Pruned columns leave empty (unmaterialized) slots in
    /// the batch, charged to `columns_pruned` once per page entered.
    columns: ColumnSet,
    /// Per-dict-entry match bitmaps for the conjunction last passed to
    /// [`OwnedBatchScan::next_batch_selected`], cached per entered page
    /// (keyed by page index) so multi-window visits to one page evaluate
    /// each dict term against the dictionary exactly once.
    masks: Option<(usize, DictMasks)>,
}

impl OwnedBatchScan {
    /// Restrict which record columns the scan materializes. Positions are
    /// always decoded; unlisted columns stay unmaterialized in emitted
    /// batches (reading one through [`RecordBatch`] row accessors is a
    /// schema error, so callers prune only columns the plan never reads).
    pub fn set_columns(&mut self, columns: ColumnSet) {
        self.columns = columns;
    }

    /// The column restriction currently applied by this scan.
    pub fn columns(&self) -> &ColumnSet {
        &self.columns
    }

    /// Charge the per-page late-materialization saving when entering a page:
    /// one `columns_pruned` count per column the scan will not decode.
    fn charge_pruned(&self, arity: usize) {
        let pruned = self.columns.pruned_of(arity);
        if pruned > 0 {
            self.store.stats.add(Counter::ColumnsPruned, pruned as u64);
        }
    }
    /// Next run of up to `batch_size` in-span records, or `None` when the
    /// span is exhausted. Charges one folded `stream_records` add per batch.
    pub fn next_batch(&mut self) -> Option<RecordBatch> {
        let arity = self.store.schema().arity();
        let mut batch = RecordBatch::with_capacity(arity, self.batch_size);
        while batch.len() < self.batch_size {
            let Some(page) = self.store.body.pages.get(self.page_idx) else { break };
            let slot = match self.slot {
                Some(s) => s,
                // Entry (exhaustion check, zone-map skip, touch charging) is
                // the logic shared with the tuple path — see `enter_page`.
                None => {
                    match self.store.enter_page(page, self.start, self.end, self.filter.as_ref()) {
                        PageEntry::Enter(s) => {
                            self.charge_pruned(arity);
                            s
                        }
                        PageEntry::Skip => {
                            self.page_idx += 1;
                            continue;
                        }
                        PageEntry::Exhausted => {
                            self.page_idx = usize::MAX;
                            break;
                        }
                    }
                }
            };
            // The in-span run on this page is contiguous: bulk-decode it
            // column-wise straight into the batch, with no per-record
            // materialization.
            let in_span = page.upper_bound(self.end);
            let take = (self.batch_size - batch.len()).min(in_span.saturating_sub(slot));
            let bytes = page.append_range_into_cols(&mut batch, slot, take, &self.columns);
            self.store.stats.add(Counter::BytesDecoded, bytes as u64);
            let slot = slot + take;
            if slot >= page.len() {
                self.page_idx += 1;
                self.slot = None;
            } else if slot >= in_span {
                // The span ends inside this page: the scan is exhausted.
                self.page_idx = usize::MAX;
                self.slot = None;
                break;
            } else {
                self.slot = Some(slot);
            }
        }
        if batch.is_empty() {
            None
        } else {
            self.store.stats.fold(Counter::StreamRecords, batch.len() as u64);
            Some(batch)
        }
    }

    /// Like [`OwnedBatchScan::next_batch`], but evaluates a conjunction of
    /// `col op lit` terms *in place* over the encoded page columns and
    /// materializes only the surviving rows — non-survivors are never
    /// decoded. Returns the survivors (possibly an empty batch) plus the
    /// number of rows scanned, which is exactly the row count
    /// [`OwnedBatchScan::next_batch`] would have materialized for the same
    /// window: page entry/skip decisions, batch window boundaries, and the
    /// per-window `stream_records` fold are all identical, so every counter
    /// except `bytes_decoded` stays bit-identical to scan-then-filter.
    /// `None` means the span is exhausted.
    pub fn next_batch_selected(
        &mut self,
        terms: &[(usize, CmpOp, Value)],
    ) -> Result<Option<(RecordBatch, u64)>> {
        let arity = self.store.schema().arity();
        let mut batch = RecordBatch::with_capacity(arity, self.batch_size.min(64));
        let mut scanned = 0usize;
        while scanned < self.batch_size {
            let Some(page) = self.store.body.pages.get(self.page_idx) else { break };
            let slot = match self.slot {
                Some(s) => s,
                None => {
                    match self.store.enter_page(page, self.start, self.end, self.filter.as_ref()) {
                        PageEntry::Enter(s) => {
                            self.charge_pruned(arity);
                            s
                        }
                        PageEntry::Skip => {
                            self.page_idx += 1;
                            continue;
                        }
                        PageEntry::Exhausted => {
                            self.page_idx = usize::MAX;
                            break;
                        }
                    }
                }
            };
            let in_span = page.upper_bound(self.end);
            let take = (self.batch_size - scanned).min(in_span.saturating_sub(slot));
            if take > 0 {
                // Dict-entry bitmaps for this page's dictionary columns are
                // built once on first use and reused across windows (the
                // executor drives one cursor with one fixed conjunction).
                if self.masks.as_ref().is_none_or(|(idx, _)| *idx != self.page_idx) {
                    self.masks = Some((self.page_idx, page.dict_masks(terms)?));
                }
                let masks = &self.masks.as_ref().expect("masks built above").1;
                let mut survivors = std::mem::take(&mut self.survivors);
                page.filter_slots_masked(terms, masks, slot, slot + take, &mut survivors)?;
                // Contiguous survivor runs bulk-decode via the range path;
                // only scattered survivors pay the per-slot gather.
                let bytes = page.append_slot_runs_into_cols(&mut batch, &survivors, &self.columns);
                self.survivors = survivors;
                self.store.stats.add(Counter::BytesDecoded, bytes as u64);
                scanned += take;
            }
            let slot = slot + take;
            if slot >= page.len() {
                self.page_idx += 1;
                self.slot = None;
            } else if slot >= in_span {
                // The span ends inside this page: the scan is exhausted.
                self.page_idx = usize::MAX;
                self.slot = None;
                break;
            } else {
                self.slot = Some(slot);
            }
        }
        if scanned == 0 {
            Ok(None)
        } else {
            self.store.stats.fold(Counter::StreamRecords, scanned as u64);
            Ok(Some((batch, scanned as u64)))
        }
    }

    /// Raise the scan's lower bound, exactly like [`OwnedScan::skip_to`]:
    /// skipped records are not charged, pages are still entered in order.
    pub fn skip_to(&mut self, lower: i64) {
        if lower > self.start {
            self.start = lower;
            if let Some(slot) = self.slot {
                if let Some(page) = self.store.body.pages.get(self.page_idx) {
                    if page.last_pos().map(|lp| lp < lower).unwrap_or(true) {
                        self.page_idx += 1;
                        self.slot = None;
                    } else {
                        let lb = page.lower_bound(lower);
                        self.slot = Some(lb.max(slot));
                    }
                }
            }
        }
    }
}

/// Owning streaming scan over an `Arc<StoredSequence>`.
pub struct OwnedScan {
    store: Arc<StoredSequence>,
    page_idx: usize,
    slot: Option<usize>,
    /// Row view of the current page, decoded once on page entry; yielded
    /// records are slice views into its shared buffer.
    rows: Option<DecodedRows>,
    start: i64,
    end: i64,
    filter: Option<ScanFilter>,
}

impl OwnedScan {
    /// Next non-empty position, or `None` when the span is exhausted.
    pub fn next_record(&mut self) -> Option<(i64, Record)> {
        loop {
            let page = self.store.body.pages.get(self.page_idx)?;
            let slot = match self.slot {
                Some(s) => s,
                // Same shared entry decision as the batched scan, so both
                // paths charge identically at every page boundary. Entering
                // decodes the page into a row view once.
                None => {
                    match self.store.enter_page(page, self.start, self.end, self.filter.as_ref()) {
                        PageEntry::Enter(s) => {
                            let rows = page.decode_rows();
                            self.store.stats.add(Counter::BytesDecoded, rows.byte_size() as u64);
                            self.rows = Some(rows);
                            s
                        }
                        PageEntry::Skip => {
                            self.page_idx += 1;
                            continue;
                        }
                        PageEntry::Exhausted => {
                            self.page_idx = usize::MAX;
                            return None;
                        }
                    }
                }
            };
            let rows = self.rows.as_ref().expect("page rows decoded on entry");
            if slot < rows.len() {
                let pos = rows.pos(slot);
                if pos > self.end {
                    self.page_idx = usize::MAX;
                    return None;
                }
                self.slot = Some(slot + 1);
                self.store.stats.add(Counter::StreamRecords, 1);
                return Some((pos, rows.record(slot)));
            }
            self.page_idx = self.page_idx.wrapping_add(1);
            self.slot = None;
            self.rows = None;
        }
    }

    /// Raise the scan's lower bound: subsequent records have position
    /// `>= lower`. Skipped records are *not* charged as stream records, but
    /// pages between here and there are still entered one by one (a stream
    /// access cannot jump; cf. §3.3's distinction from probed access).
    pub fn skip_to(&mut self, lower: i64) {
        if lower > self.start {
            self.start = lower;
            if let Some(slot) = self.slot {
                // Stay on the current page if it may still hold positions
                // >= lower; otherwise re-enter pages forward.
                if let Some(page) = self.store.body.pages.get(self.page_idx) {
                    if page.last_pos().map(|lp| lp < lower).unwrap_or(true) {
                        self.page_idx += 1;
                        self.slot = None;
                        self.rows = None;
                    } else {
                        let lb = page.lower_bound(lower);
                        self.slot = Some(lb.max(slot));
                    }
                }
            }
        }
    }
}

impl Iterator for OwnedScan {
    type Item = (i64, Record);

    fn next(&mut self) -> Option<(i64, Record)> {
        self.next_record()
    }
}

/// Streaming scan over a stored sequence: touches each page once, in order.
struct StoredScan<'a> {
    store: &'a StoredSequence,
    page_idx: usize,
    /// Slot within the current page; `None` before the page is entered.
    slot: Option<usize>,
    /// Row view of the current page, decoded once on page entry.
    rows: Option<DecodedRows>,
    start: i64,
    end: i64,
}

impl Iterator for StoredScan<'_> {
    type Item = (i64, Record);

    fn next(&mut self) -> Option<(i64, Record)> {
        loop {
            let page = self.store.body.pages.get(self.page_idx)?;
            let slot = match self.slot {
                Some(s) => s,
                None => {
                    // Entering this page: charge the touch, decode the row
                    // view, and position the cursor at the first in-span
                    // entry.
                    self.store.touch_page(page.id());
                    let rows = page.decode_rows();
                    self.store.stats.add(Counter::BytesDecoded, rows.byte_size() as u64);
                    self.rows = Some(rows);
                    page.lower_bound(self.start)
                }
            };
            let rows = self.rows.as_ref().expect("page rows decoded on entry");
            if slot < rows.len() {
                let pos = rows.pos(slot);
                if pos > self.end {
                    return None;
                }
                self.slot = Some(slot + 1);
                self.store.stats.add(Counter::StreamRecords, 1);
                return Some((pos, rows.record(slot)));
            }
            // Page exhausted; move on.
            self.page_idx += 1;
            self.slot = None;
            self.rows = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seq_core::{record, schema, AttrType};

    fn base(n: i64, step: i64) -> BaseSequence {
        let entries = (0..n)
            .map(|i| {
                let p = 1 + i * step;
                (p, record![p, (p as f64) * 0.5])
            })
            .collect();
        BaseSequence::from_entries(
            schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
            entries,
        )
        .unwrap()
    }

    fn stored(n: i64, step: i64, cap: usize) -> (StoredSequence, Stats) {
        let stats = Stats::new();
        let s = StoredSequence::from_base(0, "t", &base(n, step), cap, stats.clone(), None);
        (s, stats)
    }

    #[test]
    fn pagination_matches_capacity() {
        let (s, _) = stored(100, 1, 16);
        assert_eq!(s.page_count(), 7); // ceil(100/16)
        assert_eq!(s.record_count(), 100);
    }

    #[test]
    fn full_scan_touches_each_page_once() {
        let (s, stats) = stored(100, 1, 16);
        let n = s.scan(Span::all()).count();
        assert_eq!(n, 100);
        let snap = stats.snapshot();
        assert_eq!(snap.page_reads, 7);
        assert_eq!(snap.stream_records, 100);
        assert_eq!(snap.scans_opened, 1);
    }

    #[test]
    fn restricted_scan_touches_fewer_pages() {
        let (s, stats) = stored(100, 1, 16);
        // Positions 1..=100, pages of 16: positions 1..16 on page 0, etc.
        let got: Vec<i64> = s.scan(Span::new(40, 50)).map(|(p, _)| p).collect();
        assert_eq!(got, (40..=50).collect::<Vec<_>>());
        let snap = stats.snapshot();
        // Positions 40..50 live on pages 2 (33..48) and 3 (49..64).
        assert_eq!(snap.page_reads, 2);
    }

    #[test]
    fn probe_charges_one_page() {
        let (s, stats) = stored(100, 1, 16);
        assert!(s.get(50).is_some());
        assert!(s.get(101).is_none()); // out of range: no page touched
        let snap = stats.snapshot();
        assert_eq!(snap.probes, 2);
        assert_eq!(snap.page_reads, 1);
    }

    #[test]
    fn probe_empty_position_in_range_touches_page() {
        let (s, stats) = stored(50, 2, 16); // positions 1,3,5,...
        assert!(s.get(2).is_none());
        assert_eq!(stats.snapshot().page_reads, 1);
    }

    #[test]
    fn buffer_pool_absorbs_repeat_probes() {
        let stats = Stats::new();
        let pool = Arc::new(BufferPool::new(8));
        let s = StoredSequence::from_base(0, "t", &base(100, 1), 16, stats.clone(), Some(pool));
        s.get(10);
        s.get(11);
        s.get(12);
        let snap = stats.snapshot();
        assert_eq!(snap.page_reads, 1);
        assert_eq!(snap.page_hits, 2);
    }

    #[test]
    fn scan_on_sparse_sequence() {
        let (s, _) = stored(10, 5, 4); // positions 1,6,11,...,46
        let got: Vec<i64> = s.scan(Span::new(7, 30)).map(|(p, _)| p).collect();
        assert_eq!(got, vec![11, 16, 21, 26]);
    }

    #[test]
    fn empty_span_scan_reads_nothing() {
        let (s, stats) = stored(10, 1, 4);
        assert_eq!(s.scan(Span::empty()).count(), 0);
        assert_eq!(stats.snapshot().page_reads, 0);
    }

    #[test]
    fn meta_comes_from_base() {
        let (s, _) = stored(10, 1, 4);
        assert_eq!(s.meta().span, Span::new(1, 10));
        assert_eq!(s.meta().density, 1.0);
        assert_eq!(s.schema().arity(), 2);
    }
}

/// A batch's logical rows, through a one-batch query result.
#[cfg(test)]
fn rows_of(batch: RecordBatch) -> Vec<(i64, Record)> {
    let mut set = seq_core::ResultSet::new();
    set.push(batch);
    set.into_rows()
}

#[cfg(test)]
mod owned_scan_tests {
    use super::*;
    use seq_core::{record, schema, AttrType};

    fn stored(n: i64, step: i64, cap: usize) -> (Arc<StoredSequence>, Stats) {
        let entries = (0..n).map(|i| (1 + i * step, record![1 + i * step])).collect();
        let base = BaseSequence::from_entries(schema(&[("x", AttrType::Int)]), entries).unwrap();
        let stats = Stats::new();
        let s = Arc::new(StoredSequence::from_base(0, "t", &base, cap, stats.clone(), None));
        (s, stats)
    }

    #[test]
    fn owned_scan_matches_borrowed_scan() {
        let (s, _) = stored(50, 3, 8);
        let borrowed: Vec<i64> = s.scan(Span::new(10, 100)).map(|(p, _)| p).collect();
        let owned: Vec<i64> = s.scan_owned(Span::new(10, 100)).map(|(p, _)| p).collect();
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn skip_to_advances_without_counting_records() {
        let (s, stats) = stored(100, 1, 16);
        let mut scan = s.scan_owned(Span::new(1, 100));
        assert_eq!(scan.next_record().unwrap().0, 1);
        scan.skip_to(60);
        assert_eq!(scan.next_record().unwrap().0, 60);
        // Only two records were streamed out.
        assert_eq!(stats.snapshot().stream_records, 2);
    }

    #[test]
    fn skip_backward_is_a_no_op() {
        let (s, _) = stored(10, 1, 4);
        let mut scan = s.scan_owned(Span::new(1, 10));
        scan.next_record();
        scan.next_record();
        scan.skip_to(1); // lower than current: ignored
        assert_eq!(scan.next_record().unwrap().0, 3);
    }

    #[test]
    fn skip_within_current_page() {
        let (s, _) = stored(20, 1, 16);
        let mut scan = s.scan_owned(Span::new(1, 20));
        assert_eq!(scan.next_record().unwrap().0, 1);
        scan.skip_to(5);
        assert_eq!(scan.next_record().unwrap().0, 5);
    }

    #[test]
    fn empty_span_owned_scan() {
        let (s, _) = stored(10, 1, 4);
        let mut scan = s.scan_owned(Span::empty());
        assert!(scan.next_record().is_none());
    }

    fn drain_batches(s: &Arc<StoredSequence>, span: Span, batch_size: usize) -> Vec<RecordBatch> {
        let mut scan = s.scan_batch(span, batch_size);
        let mut out = Vec::new();
        while let Some(b) = scan.next_batch() {
            out.push(b);
        }
        out
    }

    #[test]
    fn batch_scan_matches_owned_scan() {
        for (batch_size, cap) in [(4, 16), (16, 16), (1000, 16), (7, 5)] {
            let (s, stats) = stored(100, 3, cap);
            let span = Span::new(10, 250);
            let owned: Vec<(i64, Record)> = s.scan_owned(span).collect();
            let owned_snap = stats.snapshot();
            stats.reset();
            let batches = drain_batches(&s, span, batch_size);
            let batched: Vec<(i64, Record)> =
                batches.iter().flat_map(|b| rows_of(b.clone())).collect();
            let batch_snap = stats.snapshot();
            assert_eq!(owned, batched, "batch_size={batch_size} cap={cap}");
            assert_eq!(owned_snap.stream_records, batch_snap.stream_records);
            assert_eq!(owned_snap.page_accesses(), batch_snap.page_accesses());
            for b in &batches {
                assert!(b.len() <= batch_size);
            }
        }
    }

    #[test]
    fn batch_scan_folds_stats_per_batch() {
        let (s, stats) = stored(100, 1, 16);
        let batches = drain_batches(&s, Span::all(), 8);
        let snap = stats.snapshot();
        assert_eq!(snap.stream_records, 100);
        // One folded add per non-empty batch, not one per record.
        assert_eq!(snap.stat_folds, batches.len() as u64);
        assert_eq!(batches.len(), 13); // ceil(100/8)
    }

    #[test]
    fn batch_scan_skip_to_advances_without_counting() {
        let (s, stats) = stored(100, 1, 16);
        let mut scan = s.scan_batch(Span::new(1, 100), 4);
        assert_eq!(scan.next_batch().unwrap().positions(), &[1, 2, 3, 4]);
        scan.skip_to(60);
        assert_eq!(scan.next_batch().unwrap().positions(), &[60, 61, 62, 63]);
        assert_eq!(stats.snapshot().stream_records, 8);
    }

    #[test]
    fn empty_span_batch_scan() {
        let (s, stats) = stored(10, 1, 4);
        let mut scan = s.scan_batch(Span::empty(), 8);
        assert!(scan.next_batch().is_none());
        assert_eq!(stats.snapshot().page_reads, 0);
    }

    #[test]
    fn batch_scan_clone_is_independent() {
        let (s, _) = stored(100, 1, 16);
        let mut a = s.scan_batch(Span::new(1, 100), 8);
        assert_eq!(a.next_batch().unwrap().positions(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut b = a.clone();
        // Advancing the clone does not move the original, and vice versa.
        b.skip_to(50);
        assert_eq!(b.next_batch().unwrap().first_pos(), Some(50));
        assert_eq!(a.next_batch().unwrap().positions(), &[9, 10, 11, 12, 13, 14, 15, 16]);
        assert_eq!(b.next_batch().unwrap().first_pos(), Some(58));
    }

    #[test]
    fn partition_spans_tile_the_span() {
        let (s, _) = stored(100, 1, 16); // positions 1..=100, 7 pages of 16
        for parts in [1, 2, 3, 4, 7, 20] {
            let spans = s.partition_spans(Span::new(1, 100), parts);
            assert!(!spans.is_empty());
            assert!(spans.len() <= parts.min(7));
            // Contiguous tiling: starts at 1, ends at 100, no gaps/overlap.
            assert_eq!(spans[0].start(), 1);
            assert_eq!(spans.last().unwrap().end(), 100);
            for w in spans.windows(2) {
                assert_eq!(w[1].start(), w[0].end() + 1);
            }
            // Interior boundaries are page-aligned (multiples of 16 + 1).
            for sp in &spans[1..] {
                assert_eq!((sp.start() - 1) % 16, 0);
            }
            // Each partition scans exactly its own records.
            let total: usize = spans
                .iter()
                .map(|sp| {
                    let mut sc = s.scan_batch(*sp, 32);
                    let mut n = 0;
                    while let Some(b) = sc.next_batch() {
                        n += b.len();
                    }
                    n
                })
                .sum();
            assert_eq!(total, 100);
        }
    }

    #[test]
    fn partition_spans_degenerate_cases() {
        let (s, _) = stored(100, 1, 16);
        assert!(s.partition_spans(Span::empty(), 4).is_empty());
        assert!(s.partition_spans(Span::new(200, 300), 4).is_empty());
        // Span narrower than a page: one partition covering it.
        let spans = s.partition_spans(Span::new(40, 44), 8);
        assert_eq!(spans, vec![Span::new(40, 44)]);
        // Unbounded request clamps to the stored span.
        let spans = s.partition_spans(Span::all(), 2);
        assert_eq!(spans[0].start(), 1);
        assert_eq!(spans.last().unwrap().end(), 100);
    }

    #[test]
    fn with_stats_view_shares_pages_and_tees_charges() {
        let (s, global) = stored(100, 1, 16);
        let scope = Stats::new().teeing_into(&global);
        let view = s.with_stats(scope.clone());
        assert_eq!(view.store_id(), s.store_id());
        assert_eq!(view.page_count(), s.page_count());
        // Scan the view: the scope sees the traffic, and so does the global
        // context (identical to scanning the original store).
        let n = view.scan_owned(Span::new(1, 100)).count();
        assert_eq!(n, 100);
        assert_eq!(scope.snapshot().page_reads, 7);
        assert_eq!(scope.snapshot().stream_records, 100);
        assert_eq!(global.snapshot().page_reads, 7);
        assert_eq!(global.snapshot().stream_records, 100);
        // The original store still charges only the global context.
        s.scan_owned(Span::new(1, 16)).count();
        assert_eq!(scope.snapshot().page_reads, 7);
        assert_eq!(global.snapshot().page_reads, 8);
    }

    #[test]
    fn compression_stats_summarize_pages() {
        let (s, _) = stored(100, 3, 16); // x column = position: sequential ints
        let c = s.compression();
        assert!(c.plain_bytes > 0);
        assert!(c.encoded_bytes > 0);
        assert!(c.ratio() < 1.0, "sequential ints should compress: {}", c.ratio());
        assert_eq!(c.columns.len(), 1);
        assert_eq!(c.columns[0].dominant(), "delta");
        assert_eq!(c.columns[0].delta as usize, s.page_count());
    }

    #[test]
    fn scans_charge_bytes_decoded() {
        let (s, stats) = stored(100, 1, 16);
        s.scan_owned(Span::new(1, 100)).count();
        let tuple = stats.snapshot().bytes_decoded;
        assert!(tuple > 0);
        stats.reset();
        drain_batches(&s, Span::new(1, 100), 8);
        assert!(stats.snapshot().bytes_decoded > 0);
    }

    #[test]
    fn shared_storage_types_are_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<StoredSequence>();
        assert_sync::<Stats>();
        assert_sync::<OwnedBatchScan>();
    }
}

#[cfg(test)]
mod filtered_scan_tests {
    use super::*;
    use crate::filter::ScanFilter;
    use seq_core::{record, schema, AttrType, CmpOp, Value};

    /// Positions 1..=n, column 0 equal to the position (clustered values).
    fn stored(n: i64, cap: usize) -> (Arc<StoredSequence>, Stats) {
        let entries = (1..=n).map(|p| (p, record![p])).collect();
        let base = BaseSequence::from_entries(schema(&[("x", AttrType::Int)]), entries).unwrap();
        let stats = Stats::new();
        let s = Arc::new(StoredSequence::from_base(0, "t", &base, cap, stats.clone(), None));
        (s, stats)
    }

    fn ge(lit: i64) -> Option<ScanFilter> {
        Some(ScanFilter::new(vec![(0, CmpOp::Ge, Value::Int(lit))]))
    }

    #[test]
    fn filtered_scan_skips_refuted_pages() {
        let (s, stats) = stored(100, 16); // 7 pages: 1..16, 17..32, ..., 97..100
        let got: Vec<i64> =
            s.scan_owned_filtered(Span::new(1, 100), ge(90)).map(|(p, _)| p).collect();
        // Surviving pages (max >= 90) are the last two; their *whole* in-span
        // runs are yielded — the caller re-applies the predicate per record.
        assert_eq!(got, (81..=100).collect::<Vec<_>>());
        let snap = stats.snapshot();
        assert_eq!(snap.pages_skipped, 5);
        assert_eq!(snap.page_reads, 2);
        assert_eq!(snap.stream_records, 20);
    }

    #[test]
    fn reads_plus_skips_conserve_unfiltered_reads() {
        for lit in [1, 40, 90, 1000] {
            let (s, stats) = stored(100, 16);
            s.scan_owned(Span::new(5, 95)).count();
            let unfiltered = stats.snapshot();
            stats.reset();
            s.scan_owned_filtered(Span::new(5, 95), ge(lit)).count();
            let filtered = stats.snapshot();
            assert_eq!(
                filtered.page_reads + filtered.pages_skipped,
                unfiltered.page_reads,
                "lit={lit}: every page is either read or skipped"
            );
            assert_eq!(unfiltered.pages_skipped, 0);
        }
    }

    #[test]
    fn batch_filtered_scan_matches_tuple_filtered_scan() {
        for (batch_size, cap, lit) in [(4, 16, 50), (16, 16, 90), (1000, 16, 101), (7, 5, 33)] {
            let (s, stats) = stored(100, cap);
            let span = Span::new(3, 97);
            let tuple: Vec<(i64, Record)> = s.scan_owned_filtered(span, ge(lit)).collect();
            let tuple_snap = stats.snapshot();
            stats.reset();
            let mut scan = s.scan_batch_filtered(span, batch_size, ge(lit));
            let mut batched = Vec::new();
            while let Some(b) = scan.next_batch() {
                batched.extend(rows_of(b));
            }
            let batch_snap = stats.snapshot();
            assert_eq!(tuple, batched, "bs={batch_size} cap={cap} lit={lit}");
            assert_eq!(tuple_snap.stream_records, batch_snap.stream_records);
            assert_eq!(tuple_snap.page_accesses(), batch_snap.page_accesses());
            assert_eq!(tuple_snap.pages_skipped, batch_snap.pages_skipped);
        }
    }

    #[test]
    fn skip_to_charges_intermediate_pages_symmetrically() {
        // With values clustered on position, a `>= 50` filter refutes the
        // first three 16-record pages; skip_to then hops over entered pages
        // one by one exactly as the unfiltered scan would.
        let (s, stats) = stored(100, 16);
        let mut tuple = s.scan_owned_filtered(Span::new(1, 100), ge(50));
        assert_eq!(tuple.next_record().unwrap().0, 49);
        tuple.skip_to(90);
        assert_eq!(tuple.next_record().unwrap().0, 90);
        while tuple.next_record().is_some() {}
        let tuple_snap = stats.snapshot();

        stats.reset();
        let mut batch = s.scan_batch_filtered(Span::new(1, 100), 1, ge(50));
        assert_eq!(batch.next_batch().unwrap().positions(), &[49]);
        batch.skip_to(90);
        assert_eq!(batch.next_batch().unwrap().positions(), &[90]);
        while batch.next_batch().is_some() {}
        let batch_snap = stats.snapshot();

        assert_eq!(tuple_snap.pages_skipped, 3);
        assert_eq!(tuple_snap.page_reads, batch_snap.page_reads);
        assert_eq!(tuple_snap.pages_skipped, batch_snap.pages_skipped);
        assert_eq!(tuple_snap.stream_records, batch_snap.stream_records);
    }

    #[test]
    fn selected_batch_scan_matches_filter_after_scan() {
        for (batch_size, cap, lit) in
            [(4, 16, 50), (16, 16, 90), (1000, 16, 101), (7, 5, 33), (1, 16, 50)]
        {
            let (s, stats) = stored(100, cap);
            let span = Span::new(3, 97);
            let terms = vec![(0usize, CmpOp::Ge, Value::Int(lit))];
            // Reference: zone-filtered scan, predicate re-applied per row.
            let mut scan = s.scan_batch_filtered(span, batch_size, ge(lit));
            let mut want = Vec::new();
            while let Some(b) = scan.next_batch() {
                for (p, r) in rows_of(b) {
                    if r.values()[0].total_cmp(&Value::Int(lit)).unwrap().is_ge() {
                        want.push((p, r));
                    }
                }
            }
            let want_snap = stats.snapshot();

            stats.reset();
            let mut scan = s.scan_batch_filtered(span, batch_size, ge(lit));
            let mut got = Vec::new();
            let mut scanned_total = 0u64;
            while let Some((b, scanned)) = scan.next_batch_selected(&terms).unwrap() {
                scanned_total += scanned;
                got.extend(rows_of(b));
            }
            let got_snap = stats.snapshot();

            assert_eq!(got, want, "bs={batch_size} cap={cap} lit={lit}");
            // The in-place path scans (and charges) exactly what the decode
            // path materialized; every counter but bytes_decoded matches.
            assert_eq!(scanned_total, want_snap.stream_records);
            assert_eq!(got_snap.stream_records, want_snap.stream_records);
            assert_eq!(got_snap.page_accesses(), want_snap.page_accesses());
            assert_eq!(got_snap.pages_skipped, want_snap.pages_skipped);
            assert_eq!(got_snap.stat_folds, want_snap.stat_folds);
            // Only survivors are decoded.
            assert!(got_snap.bytes_decoded <= want_snap.bytes_decoded);
        }
    }

    #[test]
    fn selected_batch_scan_skip_to_stays_symmetric() {
        let (s, stats) = stored(100, 16);
        let terms = vec![(0usize, CmpOp::Ge, Value::Int(50))];
        let mut reference = s.scan_batch_filtered(Span::new(1, 100), 1, ge(50));
        assert_eq!(reference.next_batch().unwrap().positions(), &[49]);
        reference.skip_to(90);
        while reference.next_batch().is_some() {}
        let want_snap = stats.snapshot();

        stats.reset();
        let mut selected = s.scan_batch_filtered(Span::new(1, 100), 1, ge(50));
        let (first, scanned) = selected.next_batch_selected(&terms).unwrap().unwrap();
        assert_eq!(scanned, 1);
        assert!(first.is_empty(), "49 fails >= 50 in place");
        selected.skip_to(90);
        while selected.next_batch_selected(&terms).unwrap().is_some() {}
        let got_snap = stats.snapshot();

        assert_eq!(got_snap.page_reads, want_snap.page_reads);
        assert_eq!(got_snap.pages_skipped, want_snap.pages_skipped);
        assert_eq!(got_snap.stream_records, want_snap.stream_records);
    }

    /// Positions 1..=n with three columns: position, a wide string, and a
    /// low-cardinality dict-encodable label.
    fn stored_wide(n: i64, cap: usize) -> (Arc<StoredSequence>, Stats) {
        let entries = (1..=n)
            .map(|p| (p, record![p, "a-reasonably-wide-payload", ["lo", "hi"][(p % 2) as usize]]))
            .collect();
        let base = BaseSequence::from_entries(
            schema(&[("x", AttrType::Int), ("note", AttrType::Str), ("lvl", AttrType::Str)]),
            entries,
        )
        .unwrap();
        let stats = Stats::new();
        let s = Arc::new(StoredSequence::from_base(0, "w", &base, cap, stats.clone(), None));
        (s, stats)
    }

    #[test]
    fn column_pruned_scan_decodes_less_and_charges_columns_pruned() {
        let (s, stats) = stored_wide(100, 16);
        let span = Span::new(1, 100);
        let mut full = s.scan_batch(span, 32);
        while full.next_batch().is_some() {}
        let full_snap = stats.snapshot();

        stats.reset();
        let mut pruned = s.scan_batch(span, 32);
        pruned.set_columns(ColumnSet::Only(vec![0]));
        let mut rows = 0usize;
        let mut positions = Vec::new();
        while let Some(b) = pruned.next_batch() {
            rows += b.len();
            positions.extend_from_slice(b.positions());
            assert!(b.column_is_materialized(0));
            assert!(!b.column_is_materialized(1) && !b.column_is_materialized(2));
        }
        let pruned_snap = stats.snapshot();

        assert_eq!(rows, 100);
        assert_eq!(positions, (1..=100).collect::<Vec<_>>());
        // Same page traffic and record counts; only decode volume changes.
        assert_eq!(pruned_snap.page_accesses(), full_snap.page_accesses());
        assert_eq!(pruned_snap.stream_records, full_snap.stream_records);
        assert!(
            pruned_snap.bytes_decoded * 2 <= full_snap.bytes_decoded,
            "pruning two of three columns (one wide) should at least halve decode volume: \
             {} vs {}",
            pruned_snap.bytes_decoded,
            full_snap.bytes_decoded
        );
        // Two pruned columns, charged once per page entered (7 pages).
        assert_eq!(pruned_snap.columns_pruned, 2 * 7);
        assert_eq!(full_snap.columns_pruned, 0);
    }

    #[test]
    fn selected_scan_with_dict_terms_and_pruning_matches_reference() {
        let (s, stats) = stored_wide(100, 16);
        let span = Span::new(1, 100);
        let terms =
            vec![(2usize, CmpOp::Eq, Value::str("hi")), (0usize, CmpOp::Le, Value::Int(80))];
        // Reference: full decode, filter per row.
        let mut scan = s.scan_batch(span, 16);
        let mut want = Vec::new();
        while let Some(b) = scan.next_batch() {
            for (p, r) in rows_of(b) {
                if crate::column::strict_eq(&r.values()[2], &Value::str("hi"))
                    && r.values()[0].total_cmp(&Value::Int(80)).unwrap().is_le()
                {
                    want.push((p, r.values()[0].clone()));
                }
            }
        }
        let want_snap = stats.snapshot();

        stats.reset();
        let mut scan = s.scan_batch(span, 16);
        scan.set_columns(ColumnSet::Only(vec![0]));
        let mut got = Vec::new();
        while let Some((b, _)) = scan.next_batch_selected(&terms).unwrap() {
            for i in 0..b.len() {
                got.push((b.position_at(i), b.value_at(0, i).clone()));
            }
        }
        let got_snap = stats.snapshot();

        assert_eq!(got, want);
        assert_eq!(got_snap.page_accesses(), want_snap.page_accesses());
        assert_eq!(got_snap.stream_records, want_snap.stream_records);
        assert!(got_snap.bytes_decoded < want_snap.bytes_decoded);
        assert_eq!(got_snap.columns_pruned, 2 * 7);
    }

    #[test]
    fn empty_span_filtered_scan_charges_nothing() {
        let (s, stats) = stored(10, 4);
        assert!(s.scan_owned_filtered(Span::empty(), ge(0)).next_record().is_none());
        assert!(s.scan_batch_filtered(Span::empty(), 8, ge(0)).next_batch().is_none());
        let snap = stats.snapshot();
        assert_eq!(snap.page_reads, 0);
        assert_eq!(snap.pages_skipped, 0);
    }
}
