//! Catalog information the optimizer consumes.
//!
//! The optimizer needs, per base sequence: schema, meta-data (span, density,
//! column statistics — §3/Table 1), and the physical profile that prices the
//! two access modes (§4.1.1). [`CatalogRef`] adapts the storage catalog.

use seq_core::{Result, Schema, SeqMeta};
use seq_ops::SchemaProvider;
use seq_storage::Catalog;

/// Everything the optimizer needs to know about the stored world.
pub trait CatalogInfo: SchemaProvider {
    /// Meta-data of a base sequence.
    fn meta_of(&self, name: &str) -> Result<SeqMeta>;

    /// Records per page, used to convert record counts into page I/Os.
    fn page_capacity(&self) -> usize;

    /// Measured selectivity of the last profiled predicate over this base
    /// sequence, when execution feedback is attached (see [`WithFeedback`]).
    /// `None` means "no measurement": estimators fall back to the model.
    fn measured_selectivity(&self, _name: &str) -> Option<f64> {
        None
    }

    /// Measured fraction of this base sequence's candidate pages that
    /// zone-map/encoded-domain checks skipped in the last profiled run,
    /// when execution feedback is attached. `None` means "no measurement".
    fn measured_skip_fraction(&self, _name: &str) -> Option<f64> {
        None
    }
}

/// Measured per-sequence statistics captured from one profiled run, the
/// unit [`StatsOverlay`] stores. All fields are optional because a single
/// run need not observe every statistic (an unfiltered scan measures
/// density but no selectivity; a scan that entered every page measures no
/// skip fraction).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeedbackStats {
    /// Measured record density over the scanned span (rows seen / length).
    pub density: Option<f64>,
    /// Measured selectivity of the applied predicate (rows out / rows in).
    pub selectivity: Option<f64>,
    /// Measured fraction of candidate pages skipped without being read.
    pub skip_fraction: Option<f64>,
    /// Rows the measuring scan actually produced.
    pub observed_rows: u64,
    /// How many profiled runs have been folded into this entry.
    pub refreshes: u32,
}

impl FeedbackStats {
    /// Fold a newer measurement over this one: fresh `Some` fields replace
    /// stale ones (latest run wins), absent fields keep earlier values, and
    /// the refresh counter advances.
    pub fn merge(&mut self, newer: &FeedbackStats) {
        if let Some(d) = newer.density {
            self.density = Some(d.clamp(0.0, 1.0));
        }
        if let Some(s) = newer.selectivity {
            self.selectivity = Some(s.clamp(0.0, 1.0));
        }
        if let Some(f) = newer.skip_fraction {
            self.skip_fraction = Some(f.clamp(0.0, 1.0));
        }
        self.observed_rows = newer.observed_rows;
        self.refreshes += 1;
    }
}

/// Mutable store of measured per-sequence statistics, keyed by catalog
/// name. Populated from profiled runs (see `analyze::absorb_feedback`) and
/// layered over any [`CatalogInfo`] with [`WithFeedback`] so re-planning
/// the same template prices with measured numbers instead of defaults.
#[derive(Debug, Clone, Default)]
pub struct StatsOverlay {
    entries: std::collections::HashMap<String, FeedbackStats>,
}

impl StatsOverlay {
    /// An empty overlay.
    pub fn new() -> StatsOverlay {
        StatsOverlay::default()
    }

    /// Fold one run's measurement for `name` into the overlay.
    pub fn record(&mut self, name: impl Into<String>, stats: FeedbackStats) {
        self.entries.entry(name.into()).or_default().merge(&stats);
    }

    /// Measured statistics for `name`, if any run has been absorbed.
    pub fn get(&self, name: &str) -> Option<&FeedbackStats> {
        self.entries.get(name)
    }

    /// Whether no measurements have been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All measured entries in name order (stable for display).
    pub fn iter_sorted(&self) -> Vec<(&str, &FeedbackStats)> {
        let mut v: Vec<_> = self.entries.iter().map(|(k, f)| (k.as_str(), f)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Drop every measurement.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// A [`CatalogInfo`] view that layers a [`StatsOverlay`] of measured
/// statistics over a base catalog: measured densities replace the stored
/// meta-data density, and measured selectivities / skip fractions surface
/// through the `measured_*` accessors the estimators consult first.
pub struct WithFeedback<'a, I: CatalogInfo> {
    inner: &'a I,
    overlay: &'a StatsOverlay,
}

impl<'a, I: CatalogInfo> WithFeedback<'a, I> {
    /// Layer `overlay` over `inner`.
    pub fn new(inner: &'a I, overlay: &'a StatsOverlay) -> WithFeedback<'a, I> {
        WithFeedback { inner, overlay }
    }
}

impl<I: CatalogInfo> SchemaProvider for WithFeedback<'_, I> {
    fn schema_of(&self, name: &str) -> Result<Schema> {
        self.inner.schema_of(name)
    }
}

impl<I: CatalogInfo> CatalogInfo for WithFeedback<'_, I> {
    fn meta_of(&self, name: &str) -> Result<SeqMeta> {
        let mut meta = self.inner.meta_of(name)?;
        if let Some(d) = self.overlay.get(name).and_then(|f| f.density) {
            meta.density = d.clamp(0.0, 1.0);
        }
        Ok(meta)
    }

    fn page_capacity(&self) -> usize {
        self.inner.page_capacity()
    }

    fn measured_selectivity(&self, name: &str) -> Option<f64> {
        self.overlay.get(name).and_then(|f| f.selectivity)
    }

    fn measured_skip_fraction(&self, name: &str) -> Option<f64> {
        self.overlay.get(name).and_then(|f| f.skip_fraction)
    }
}

/// Adapter implementing the optimizer traits over a storage [`Catalog`].
pub struct CatalogRef<'a>(pub &'a Catalog);

impl SchemaProvider for CatalogRef<'_> {
    fn schema_of(&self, name: &str) -> Result<Schema> {
        Ok(seq_core::Sequence::schema(self.0.get(name)?.as_ref()).clone())
    }
}

impl CatalogInfo for CatalogRef<'_> {
    fn meta_of(&self, name: &str) -> Result<SeqMeta> {
        self.0.meta(name)
    }

    fn page_capacity(&self) -> usize {
        self.0.page_capacity()
    }
}

/// A self-contained catalog description for tests and for optimizing against
/// hypothetical data (e.g. the paper's Table 1 without materializing it).
#[derive(Debug, Clone, Default)]
pub struct StaticCatalogInfo {
    entries: std::collections::HashMap<String, (Schema, SeqMeta)>,
    page_capacity: usize,
}

impl StaticCatalogInfo {
    /// An empty description with the given page capacity.
    pub fn new(page_capacity: usize) -> StaticCatalogInfo {
        StaticCatalogInfo { entries: Default::default(), page_capacity: page_capacity.max(1) }
    }

    /// Describe a (hypothetical) base sequence.
    pub fn insert(&mut self, name: impl Into<String>, schema: Schema, meta: SeqMeta) {
        self.entries.insert(name.into(), (schema, meta));
    }
}

impl SchemaProvider for StaticCatalogInfo {
    fn schema_of(&self, name: &str) -> Result<Schema> {
        self.entries
            .get(name)
            .map(|(s, _)| s.clone())
            .ok_or_else(|| seq_core::SeqError::UnknownSequence(name.to_string()))
    }
}

impl CatalogInfo for StaticCatalogInfo {
    fn meta_of(&self, name: &str) -> Result<SeqMeta> {
        self.entries
            .get(name)
            .map(|(_, m)| m.clone())
            .ok_or_else(|| seq_core::SeqError::UnknownSequence(name.to_string()))
    }

    fn page_capacity(&self) -> usize {
        self.page_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seq_core::{record, schema, AttrType, BaseSequence, Span};

    #[test]
    fn catalog_ref_exposes_schema_and_meta() {
        let mut c = Catalog::new();
        c.set_page_capacity(16);
        let base = BaseSequence::from_entries(
            schema(&[("x", AttrType::Int)]),
            (1..=10).map(|p| (p, record![p])).collect(),
        )
        .unwrap();
        c.register("S", &base);
        let info = CatalogRef(&c);
        assert_eq!(info.schema_of("S").unwrap().arity(), 1);
        assert_eq!(info.meta_of("S").unwrap().span, Span::new(1, 10));
        assert_eq!(info.page_capacity(), 16);
        assert!(info.schema_of("missing").is_err());
    }

    #[test]
    fn feedback_overlay_overrides_defaults() {
        let mut info = StaticCatalogInfo::new(64);
        info.insert(
            "S",
            schema(&[("x", AttrType::Int)]),
            SeqMeta::with_span(Span::new(1, 100), 1.0),
        );
        let mut overlay = StatsOverlay::new();
        assert!(overlay.is_empty());
        overlay.record(
            "S",
            FeedbackStats {
                density: Some(0.5),
                selectivity: Some(0.1),
                skip_fraction: Some(0.25),
                observed_rows: 10,
                refreshes: 0,
            },
        );
        let fb = WithFeedback::new(&info, &overlay);
        assert_eq!(fb.meta_of("S").unwrap().density, 0.5);
        assert_eq!(fb.measured_selectivity("S"), Some(0.1));
        assert_eq!(fb.measured_skip_fraction("S"), Some(0.25));
        assert_eq!(fb.measured_selectivity("missing"), None);
        assert_eq!(fb.page_capacity(), 64);
        // A newer run replaces the fields it measured and keeps the rest.
        overlay.record(
            "S",
            FeedbackStats { selectivity: Some(0.2), observed_rows: 20, ..Default::default() },
        );
        let f = overlay.get("S").unwrap();
        assert_eq!(f.selectivity, Some(0.2));
        assert_eq!(f.density, Some(0.5));
        assert_eq!(f.refreshes, 2);
        assert_eq!(overlay.iter_sorted().len(), 1);
    }

    #[test]
    fn static_info_for_table1() {
        // Table 1 of the paper, without materializing any data.
        let stock = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
        let mut info = StaticCatalogInfo::new(64);
        info.insert("IBM", stock.clone(), SeqMeta::with_span(Span::new(200, 500), 0.95));
        info.insert("DEC", stock.clone(), SeqMeta::with_span(Span::new(1, 350), 0.7));
        info.insert("HP", stock, SeqMeta::with_span(Span::new(1, 750), 1.0));
        assert_eq!(info.meta_of("HP").unwrap().density, 1.0);
        assert_eq!(info.meta_of("IBM").unwrap().span, Span::new(200, 500));
        assert!(info.meta_of("SUN").is_err());
    }
}
