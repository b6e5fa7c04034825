//! Shared helpers for the cross-crate integration tests.

use std::collections::HashMap;
use std::sync::Arc;

use seqproc::prelude::*;
use seqproc::seq_ops::ReferenceEvaluator;
use seqproc::seq_workload::Rng;

/// A generated world: the same base sequences registered in a storage
/// catalog (for the physical executor) and held as trait objects (for the
/// reference evaluator).
pub struct World {
    pub catalog: Catalog,
    pub sequences: HashMap<String, Arc<dyn Sequence>>,
    pub schemas: HashMap<String, Schema>,
}

impl World {
    pub fn new(page_capacity: usize) -> World {
        let mut catalog = Catalog::new();
        catalog.set_page_capacity(page_capacity);
        World { catalog, sequences: HashMap::new(), schemas: HashMap::new() }
    }

    pub fn add(&mut self, name: &str, base: BaseSequence) {
        self.catalog.register(name, &base);
        self.schemas.insert(name.to_string(), base.schema().clone());
        self.sequences.insert(name.to_string(), Arc::new(base));
    }
}

/// Generate a random stock-schema base sequence.
#[allow(dead_code)]
pub fn random_stock_sequence(rng: &mut Rng, max_span: i64) -> BaseSequence {
    let start = rng.gen_range(1i64..=10);
    let end = start + rng.gen_range(5..=max_span.max(6));
    let density = rng.gen_range(0.2..=1.0);
    let mut entries = Vec::new();
    for p in start..=end {
        if rng.gen_bool(density) {
            entries.push((p, record![p, rng.gen_range(1.0..200.0_f64)]));
        }
    }
    BaseSequence::from_entries(
        schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
        entries,
    )
    .unwrap()
    .with_declared_span(Span::new(start, end))
}

/// A world of three random stock sequences S0/S1/S2.
#[allow(dead_code)]
pub fn random_world(seed: u64, max_span: i64) -> World {
    let mut rng = Rng::seed_from_u64(seed);
    let mut world = World::new(8);
    for i in 0..3 {
        let base = random_stock_sequence(&mut rng, max_span);
        world.add(&format!("S{i}"), base);
    }
    world
}

/// Build a random query over the world, returning the graph and the name of
/// a numeric attribute valid in its output schema. Grammar: chains of
/// selections, offsets, value offsets, windowed aggregates, and composes.
#[allow(dead_code)]
pub fn random_query(rng: &mut Rng, depth: u32) -> (SeqQuery, String) {
    if depth == 0 || rng.gen_bool(0.25) {
        let base = format!("S{}", rng.gen_range(0u32..3));
        return (SeqQuery::base(base), "close".to_string());
    }
    match rng.gen_range(0u32..6) {
        0 => {
            let (q, attr) = random_query(rng, depth - 1);
            let lit = rng.gen_range(0.0..200.0);
            (q.select(Expr::attr(&attr).gt(Expr::lit(lit))), attr)
        }
        1 => {
            let (q, attr) = random_query(rng, depth - 1);
            let off = rng.gen_range(-4i64..=4);
            (q.positional_offset(off), attr)
        }
        2 => {
            let (q, attr) = random_query(rng, depth - 1);
            // Backward only: forward value offsets over derived unbounded
            // spans are rejected by the reference evaluator.
            let off = -rng.gen_range(1i64..=2);
            (q.value_offset(off), attr)
        }
        3 | 4 => {
            let (q, attr) = random_query(rng, depth - 1);
            let func = match rng.gen_range(0u32..5) {
                0 => AggFunc::Sum,
                1 => AggFunc::Avg,
                2 => AggFunc::Count,
                3 => AggFunc::Min,
                _ => AggFunc::Max,
            };
            let window = match rng.gen_range(0u32..3) {
                0 => Window::trailing(rng.gen_range(1u32..=5)),
                1 => {
                    let lo = rng.gen_range(-4i64..=0);
                    let hi = rng.gen_range(lo..=lo + 4);
                    Window::Sliding { lo, hi }
                }
                _ => Window::Cumulative,
            };
            let name = format!("{}_{}", func.to_string().to_lowercase(), attr);
            (q.aggregate(func, &attr, window), name)
        }
        _ => {
            let (l, la) = random_query(rng, depth - 1);
            let (r, ra) = random_query(rng, depth.saturating_sub(2));
            if rng.gen_bool(0.5) {
                (l.compose_with(r), la)
            } else {
                // Join predicate referencing both sides where possible.
                let rattr = if ra == la { format!("{ra}_r") } else { ra };
                let pred = Expr::attr(&la).le(Expr::attr(&rattr));
                (l.compose_filtered(r, pred), la)
            }
        }
    }
}

/// Materialize via the reference evaluator; `None` when the query is outside
/// the reference evaluator's (bounded-walk) capabilities.
#[allow(dead_code)]
pub fn reference_rows(
    world: &World,
    query: &QueryGraph,
    range: Span,
) -> Option<Vec<(i64, Record)>> {
    let resolved = query.resolve(&world.schemas).ok()?;
    let eval = ReferenceEvaluator::new(&resolved, &world.sequences).ok()?;
    match eval.materialize(range) {
        Ok(rows) => Some(rows),
        Err(SeqError::Unsupported(_)) => None,
        Err(e) => panic!("reference evaluation failed: {e}"),
    }
}

/// Materialize via optimize + execute; `None` for plans that cannot be
/// stream-materialized under the given config (unbounded intermediate spans).
#[allow(dead_code)]
pub fn optimized_rows(
    world: &World,
    query: &QueryGraph,
    config: &OptimizerConfig,
) -> Option<ResultSet> {
    let optimized = match optimize(query, &CatalogRef(&world.catalog), config) {
        Ok(o) => o,
        Err(SeqError::Unsupported(_)) => return None,
        Err(e) => panic!("optimization failed: {e}"),
    };
    let ctx = ExecContext::new(&world.catalog);
    match execute(&optimized.plan, &ctx) {
        Ok(rows) => Some(rows),
        Err(SeqError::Unsupported(_)) => None,
        Err(e) => panic!("execution failed: {e}\nplan:\n{}", optimized.plan.render()),
    }
}

/// Assert an engine result holds exactly the expected rows (positions and
/// records).
#[allow(dead_code)]
pub fn assert_rows_equal(want: &[(i64, Record)], got: &ResultSet, label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: row counts differ");
    for ((pw, rw), Row(pg, rg)) in want.iter().zip(got) {
        assert_eq!(*pw, pg, "{label}: positions diverge");
        assert!(rg == *rw, "{label}: records diverge at position {pw}: {rw} vs {rg}");
    }
}
