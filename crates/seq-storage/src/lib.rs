//! # seq-storage — paged physical storage for sequences
//!
//! The physical substrate the paper assumes: base sequences materialized on
//! fixed-capacity pages with a sparse position index, supporting the two
//! access modes of §3.3 —
//!
//! - **stream** access via [`seq_core::Sequence::scan`], touching each page
//!   at most once per scan, and
//! - **probed** access via [`seq_core::Sequence::get`], touching the one page
//!   that can hold the requested position;
//!
//! with every page touch charged against shared [`seq_core::Stats`]
//! counters, optionally filtered through an LRU [`buffer::BufferPool`].
//! These counters are what the benchmark harness reports: the paper's
//! optimizations (span restriction, access-mode selection, caching) all
//! manifest as page/probe-count differences.

pub mod buffer;
pub mod catalog;
pub mod column;
pub mod filter;
pub mod index;
pub mod page;
pub mod store;

pub use buffer::{BufferPool, PageAccess, StoreId, StripeStats};
pub use catalog::Catalog;
pub use column::{strict_eq, ColumnData, PosData};
pub use filter::ScanFilter;
pub use index::SparseIndex;
pub use page::{ColumnSet, DecodedRows, DictMasks, Page, PageId, ZoneEntry};
pub use seq_core::{Stats, StatsSnapshot};
pub use store::{OwnedBatchScan, OwnedScan, StoredSequence, DEFAULT_PAGE_CAPACITY};
