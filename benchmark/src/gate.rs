//! The correctness gate: before anything is timed, every template of the
//! workload is run with three literal bindings on a 20 000-position world and
//! compared row for row with `seq_ops::ReferenceEvaluator` reading the raw
//! generated sequences (not the stored pages the engine reads).

use std::collections::HashMap;
use std::sync::Arc;

use seq_core::{Schema, Sequence};
use seq_lang::parse_query;
use seq_ops::ReferenceEvaluator;
use seq_serve::{Engine, SessionConfig};

use crate::workloads::{
    gate_sample, generate_world, register, sessions, Workload, WorldSize, TEMPLATES,
};

/// Literal bindings compared per template.
const BINDINGS: usize = 3;

/// `wholespan` makes the reference evaluator fold the entire input once per
/// output position, and every position carries the same record: comparing a
/// short prefix of the range checks the same thing 300 times cheaper.
const WHOLESPAN_POSITIONS: i64 = 64;

/// What the gate compared.
pub struct GateReport {
    /// Queries compared.
    pub queries: usize,
    /// Rows compared.
    pub rows: usize,
}

/// Compare engine and reference on the gate world of `workload`. `Err` names
/// the first query that differs.
pub fn check(workload: Workload, seed: u64) -> Result<GateReport, String> {
    let size = WorldSize::gate();
    let bases = generate_world(workload, &size, seed);
    let session = sessions(workload, &size, seed, 1, &bases).remove(0);
    let engine = Engine::new(register(&bases), 256);
    let provider: HashMap<String, Arc<dyn Sequence>> =
        bases.into_iter().map(|(name, base)| (name, Arc::new(base) as Arc<dyn Sequence>)).collect();
    let schemas: HashMap<String, Schema> =
        provider.iter().map(|(name, seq)| (name.clone(), seq.schema().clone())).collect();

    let mut report = GateReport { queries: 0, rows: 0 };
    for request in gate_sample(&session, BINDINGS) {
        let name = TEMPLATES[request.template];
        let fail = |what: String| format!("gate: {name} `{}`: {what}", request.text);
        let mut range = session.range;
        if name == "wholespan" {
            range = range.intersect(&seq_core::Span::new(
                range.start(),
                range.start() + WHOLESPAN_POSITIONS - 1,
            ));
        }
        let got = engine
            .run_query(&request.text, &SessionConfig::new(range))
            .map_err(|e| fail(format!("engine: {e}")))?
            .rows;
        let graph = parse_query(&request.text).map_err(|e| fail(format!("parse: {e}")))?;
        let resolved = graph.resolve(&schemas).map_err(|e| fail(format!("resolve: {e}")))?;
        let want = ReferenceEvaluator::new(&resolved, &provider)
            .and_then(|reference| reference.materialize(range))
            .map_err(|e| fail(format!("reference: {e}")))?;
        if got.len() != want.len() {
            return Err(fail(format!("{} rows, reference has {}", got.len(), want.len())));
        }
        if let Some((g, w)) = got.iter().zip(&want).find(|(g, w)| g != w) {
            return Err(fail(format!("row {}: {} but reference has {}: {}", g.0, g.1, w.0, w.1)));
        }
        report.queries += 1;
        report.rows += want.len();
    }
    if report.rows == 0 {
        return Err(format!("gate: {} compared no rows", workload.name()));
    }
    Ok(report)
}
