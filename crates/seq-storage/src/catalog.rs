//! The catalog: named base sequences plus the shared storage context
//! (statistics counters and optional buffer pool).

use std::collections::HashMap;
use std::sync::Arc;

use seq_core::{BaseSequence, Result, SeqError, SeqMeta, Sequence, Stats};

use crate::buffer::BufferPool;
use crate::store::{StoredSequence, DEFAULT_PAGE_CAPACITY};

/// A named collection of stored sequences sharing one statistics context.
pub struct Catalog {
    stats: Stats,
    buffer: Option<Arc<BufferPool>>,
    page_capacity: usize,
    seqs: HashMap<String, Arc<StoredSequence>>,
    next_id: u32,
}

impl Catalog {
    /// A catalog with no buffer pool: every page touch is charged as a read.
    pub fn new() -> Catalog {
        Catalog {
            stats: Stats::new(),
            buffer: None,
            page_capacity: DEFAULT_PAGE_CAPACITY,
            seqs: HashMap::new(),
            next_id: 0,
        }
    }

    /// A catalog whose sequences share an LRU buffer pool of `pool_pages`.
    pub fn with_buffer_pool(pool_pages: usize) -> Catalog {
        let mut c = Catalog::new();
        c.buffer = Some(Arc::new(BufferPool::new(pool_pages)));
        c
    }

    /// Set the page capacity used for subsequently registered sequences.
    pub fn set_page_capacity(&mut self, records_per_page: usize) {
        assert!(records_per_page > 0);
        self.page_capacity = records_per_page;
    }

    /// Records per page for newly registered sequences.
    pub fn page_capacity(&self) -> usize {
        self.page_capacity
    }

    /// Register (materialize) a base sequence under `name`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        base: &BaseSequence,
    ) -> Arc<StoredSequence> {
        let name = name.into();
        let stored = Arc::new(StoredSequence::from_base(
            self.next_id,
            name.clone(),
            base,
            self.page_capacity,
            self.stats.clone(),
            self.buffer.clone(),
        ));
        self.next_id += 1;
        self.seqs.insert(name, stored.clone());
        stored
    }

    /// Look up a sequence by name.
    pub fn get(&self, name: &str) -> Result<Arc<StoredSequence>> {
        self.seqs.get(name).cloned().ok_or_else(|| SeqError::UnknownSequence(name.to_string()))
    }

    /// Look up a sequence as the abstract [`Sequence`] trait object.
    pub fn get_sequence(&self, name: &str) -> Result<Arc<dyn Sequence>> {
        Ok(self.get(name)? as Arc<dyn Sequence>)
    }

    /// Meta-data of a registered sequence.
    pub fn meta(&self, name: &str) -> Result<SeqMeta> {
        Ok(self.get(name)?.meta().clone())
    }

    /// Names of all registered sequences.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.seqs.keys().map(|s| s.as_str())
    }

    /// The shared access counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The shared buffer pool, when configured.
    pub fn buffer(&self) -> Option<&Arc<BufferPool>> {
        self.buffer.as_ref()
    }

    /// Reset statistics (and drop buffered pages) between measurements.
    pub fn reset_measurement(&self) {
        self.stats.reset();
        if let Some(pool) = &self.buffer {
            pool.clear();
        }
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seq_core::{record, schema, AttrType, Span};

    fn base() -> BaseSequence {
        BaseSequence::from_entries(
            schema(&[("x", AttrType::Int)]),
            (1..=10).map(|p| (p, record![p])).collect(),
        )
        .unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register("IBM", &base());
        assert!(c.get("IBM").is_ok());
        assert!(c.get("DEC").is_err());
        assert_eq!(c.meta("IBM").unwrap().span, Span::new(1, 10));
        assert_eq!(c.names().count(), 1);
    }

    #[test]
    fn sequences_share_stats() {
        let mut c = Catalog::new();
        c.set_page_capacity(4);
        c.register("A", &base());
        c.register("B", &base());
        c.get("A").unwrap().get(3);
        c.get("B").unwrap().get(3);
        assert_eq!(c.stats().snapshot().probes, 2);
        c.reset_measurement();
        assert_eq!(c.stats().snapshot().probes, 0);
    }

    #[test]
    fn buffer_pool_is_shared_and_cleared() {
        let mut c = Catalog::with_buffer_pool(4);
        c.register("A", &base());
        let a = c.get("A").unwrap();
        a.get(1);
        a.get(1);
        let snap = c.stats().snapshot();
        assert_eq!(snap.page_reads, 1);
        assert_eq!(snap.page_hits, 1);
        c.reset_measurement();
        a.get(1);
        assert_eq!(c.stats().snapshot().page_reads, 1);
    }

    #[test]
    fn distinct_store_ids() {
        let mut c = Catalog::new();
        let a = c.register("A", &base());
        let b = c.register("B", &base());
        assert_ne!(a.store_id(), b.store_id());
    }

    #[test]
    fn get_sequence_trait_object() {
        let mut c = Catalog::new();
        c.register("A", &base());
        let s = c.get_sequence("A").unwrap();
        assert_eq!(s.record_count(), 10);
    }
}
