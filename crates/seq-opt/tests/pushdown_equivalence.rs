//! Differential property test for selection pushdown.
//!
//! Zone-map page skipping is a pure storage-side optimization: for any
//! predicate and any data distribution, a plan optimized with pushdown on
//! must produce exactly the rows of the same plan optimized with pushdown
//! off — and of the reference evaluator — on every execution path (batch at
//! batch size 1 and 48, morsel-driven parallel). The only counter allowed
//! to move is the page
//! traffic split: every page the filtered scan *doesn't* read it must
//! charge to `pages_skipped`, so
//!
//! ```text
//! page_reads(on) + pages_skipped(on) == page_reads(off)
//! ```
//!
//! holds exactly, per path, and `pages_skipped` is identically zero with
//! pushdown off. Derived work (records streamed, predicate evaluations)
//! may only shrink when pushdown is on — skipping a page never creates
//! work.

use std::collections::HashMap;
use std::sync::Arc;

use seq_core::{record, schema, AttrType, BaseSequence, Record, ResultSet, Sequence, Span};
use seq_exec::{
    execute_batched_with, execute_parallel_with, ExecContext, ParallelConfig, PhysPlan,
};
use seq_ops::{Expr, QueryGraph, ReferenceEvaluator, SeqQuery};
use seq_opt::{optimize, CatalogRef, OptimizerConfig};
use seq_storage::{Catalog, StatsSnapshot};
use seq_workload::Rng;

const N: i64 = 2000;

/// Deterministic catalog: five sequences over 1..=N with distributions
/// chosen to exercise the zone maps — and the page encodings — differently.
///
/// * `CLUST` — dense, values ramp with position (plus small noise), so
///   range predicates refute long page runs: the zone maps' best case;
/// * `UNI` — dense, values uniform per record, so almost every page
///   straddles any threshold: the zone maps' worst case;
/// * `SPARSE` — 20% density, mixed-sign uniform values;
/// * `STEP` — dense, values constant over 64-position steps, so every
///   16-capacity page holds a single run: RLE-encoded pages whose zones
///   refute exactly;
/// * `QUANT` — dense, values drawn from eight fixed levels: dictionary-
///   encoded pages where thresholds fall between code points.
fn catalog(seed: u64) -> Catalog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Catalog::new();
    c.set_page_capacity(16);
    let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
    let mut clustered = Vec::new();
    let mut uniform = Vec::new();
    let mut sparse = Vec::new();
    let mut stepped = Vec::new();
    let mut quantized = Vec::new();
    for p in 1i64..=N {
        let ramp = (p as f64) / (N as f64) * 100.0 + rng.gen_range(-2.0..2.0);
        clustered.push((p, record![p, ramp]));
        uniform.push((p, record![p, rng.gen_range(0.0..100.0)]));
        if rng.gen_bool(0.2) {
            sparse.push((p, record![p, rng.gen_range(-50.0..50.0)]));
        }
        stepped.push((p, record![p, (p / 64) as f64 * 3.5 - 50.0]));
        quantized.push((p, record![p, rng.gen_range(0..8) as f64 * 12.5]));
    }
    c.register("CLUST", &BaseSequence::from_entries(sch.clone(), clustered).unwrap());
    c.register("UNI", &BaseSequence::from_entries(sch.clone(), uniform).unwrap());
    c.register("SPARSE", &BaseSequence::from_entries(sch.clone(), sparse).unwrap());
    c.register("STEP", &BaseSequence::from_entries(sch.clone(), stepped).unwrap());
    c.register("QUANT", &BaseSequence::from_entries(sch, quantized).unwrap());
    c
}

/// The shaped sequences must actually live on encoded pages, or the trials
/// below exercise the plain decode path five ways.
#[test]
fn shaped_sequences_land_in_the_intended_encodings() {
    let c = catalog(7);
    for (name, value_encoding) in [("STEP", "rle"), ("QUANT", "dict")] {
        let stored = c.get(name).unwrap();
        let comp = stored.compression();
        assert!(
            comp.ratio() < 0.75,
            "{name}: expected compressed pages, got ratio {:.2}",
            comp.ratio()
        );
        assert_eq!(comp.columns[0].dominant(), "delta", "{name}: time column");
        assert_eq!(comp.columns[1].dominant(), value_encoding, "{name}: close column");
    }
}

/// A random pushdown-eligible predicate: a conjunction of one or two
/// column-vs-literal comparisons with random operators and thresholds
/// (spanning always-true through always-false selectivities).
fn random_predicate(rng: &mut Rng) -> Expr {
    let term = |rng: &mut Rng| {
        let lhs = if rng.gen_bool(0.3) { Expr::attr("time") } else { Expr::attr("close") };
        let lit = if rng.gen_bool(0.3) {
            Expr::lit(rng.gen_range(-100..(N + 100)))
        } else {
            Expr::lit(rng.gen_range(-120.0..120.0))
        };
        match rng.gen_range(0..4usize) {
            0 => lhs.gt(lit),
            1 => lhs.ge(lit),
            2 => lhs.lt(lit),
            _ => lhs.le(lit),
        }
    };
    let first = term(rng);
    if rng.gen_bool(0.4) {
        first.and(term(rng))
    } else {
        first
    }
}

struct Run {
    rows: ResultSet,
    output_records: u64,
    predicate_evals: u64,
    storage: StatsSnapshot,
}

/// Execute `plan` on one path against a fresh catalog and capture the
/// rows plus every counter the equivalence claims speak about.
fn drive(plan: &PhysPlan, seed: u64, path: &str) -> Run {
    let c = catalog(seed);
    let ctx = ExecContext::new(&c);
    let rows = match path {
        "one" => execute_batched_with(plan, &ctx, 1).unwrap(),
        "batch" => execute_batched_with(plan, &ctx, 48).unwrap(),
        "parallel" => {
            let config = ParallelConfig { workers: 4, batch_size: 48, morsel_positions: 96 };
            execute_parallel_with(plan, &ctx, config).unwrap()
        }
        other => panic!("unknown path {other}"),
    };
    let exec = ctx.stats.snapshot();
    Run {
        rows,
        output_records: exec.output_records,
        predicate_evals: exec.predicate_evals,
        storage: c.stats().snapshot(),
    }
}

/// The reference evaluator's rows for `query` over the catalog's sequences.
fn reference_rows(query: &QueryGraph, c: &Catalog) -> Vec<(i64, Record)> {
    let resolved = query.resolve(&CatalogRef(c)).unwrap();
    let sequences: HashMap<String, Arc<dyn Sequence>> = ["CLUST", "UNI", "SPARSE", "STEP", "QUANT"]
        .iter()
        .map(|&name| (name.to_string(), c.get(name).unwrap() as Arc<dyn Sequence>))
        .collect();
    let eval = ReferenceEvaluator::new(&resolved, &sequences).unwrap();
    eval.materialize(Span::new(1, N)).unwrap()
}

#[test]
fn pushdown_is_invisible_except_for_page_skips() {
    let mut rng = Rng::seed_from_u64(0x5EED);
    pushdown_differential(&mut rng);
}

fn pushdown_differential(rng: &mut Rng) {
    let info_catalog = catalog(7);
    let info = CatalogRef(&info_catalog);
    let range = Span::new(1, N);
    let on = OptimizerConfig::new(range);
    let mut off = OptimizerConfig::new(range);
    off.pushdown = false;
    assert!(on.pushdown, "pushdown must default on");

    let mut fused_at_least_once = false;
    let mut skipped_at_least_once = false;
    for trial in 0..40 {
        let name = ["CLUST", "UNI", "SPARSE", "STEP", "QUANT"][trial % 5];
        let pred = random_predicate(rng);
        let query = SeqQuery::base(name).select(pred.clone()).build();

        let opt_on = optimize(&query, &info, &on).unwrap();
        let opt_off = optimize(&query, &info, &off).unwrap();
        assert_eq!(opt_off.est_pages_skipped, 0.0, "off must not predict skips");
        fused_at_least_once |= opt_on.est_pages_skipped > 0.0;

        let reference = reference_rows(&query, &catalog(7));
        for path in ["one", "batch", "parallel"] {
            let label = format!("trial {trial}: {name} where {pred} [{path}]");
            let got_on = drive(&opt_on.plan, 7, path);
            let got_off = drive(&opt_off.plan, 7, path);

            assert_eq!(got_on.rows, reference, "{label}: rows diverged from the reference");
            assert_eq!(got_on.rows, got_off.rows, "{label}: rows diverged");
            assert_eq!(got_on.output_records, got_off.output_records, "{label}: rows_out");

            assert_eq!(got_off.storage.pages_skipped, 0, "{label}: skips with pushdown off");
            assert_eq!(
                got_on.storage.page_reads + got_on.storage.pages_skipped,
                got_off.storage.page_reads,
                "{label}: a skipped page must be exactly one forgone read"
            );
            assert!(
                got_on.storage.stream_records <= got_off.storage.stream_records,
                "{label}: pushdown streamed more records"
            );
            assert!(
                got_on.predicate_evals <= got_off.predicate_evals,
                "{label}: pushdown evaluated the predicate more often"
            );
            skipped_at_least_once |= got_on.storage.pages_skipped > 0;
        }
    }
    // The trial mix must actually exercise the machinery, or the asserts
    // above are vacuous.
    assert!(fused_at_least_once, "no trial fused a selection");
    assert!(skipped_at_least_once, "no trial skipped a page");
}

#[test]
fn pushdown_off_plan_contains_no_fused_scan() {
    let info_catalog = catalog(7);
    let info = CatalogRef(&info_catalog);
    let query = SeqQuery::base("CLUST").select(Expr::attr("close").gt(Expr::lit(90.0))).build();
    let mut off = OptimizerConfig::new(Span::new(1, N));
    off.pushdown = false;
    let opt = optimize(&query, &info, &off).unwrap();
    assert!(!opt.plan.render().contains("FusedScan"), "{}", opt.plan.render());

    let on = OptimizerConfig::new(Span::new(1, N));
    let opt = optimize(&query, &info, &on).unwrap();
    assert!(opt.plan.render().contains("FusedScan"), "{}", opt.plan.render());
    assert!(opt.est_pages_skipped > 0.0);
}
