//! # seq-ops — the logical sequence algebra
//!
//! The declarative layer of the stack (§2 of the paper):
//!
//! - [`expr`] — scalar expressions used by selections, projections, and
//!   compose (positional-join) predicates, with binding, type inference, and
//!   selectivity estimation;
//! - [`operator`] — the operator set of §2.1 (Selection, Projection,
//!   Positional Offset, Value Offset, windowed Aggregates, Compose);
//! - [`scope`] — operator scope (§2.3): size / sequentiality / relativity,
//!   scope composition (Proposition 2.1), and effective scopes (§3.4);
//! - [`graph`] — query graphs (§2.2) and their resolved, type-checked form;
//! - [`spanrules`] — bottom-up and top-down span/density propagation rules
//!   (§3.2, Step 2 of §4);
//! - [`semantics`] — the naive reference evaluator, the ground truth for all
//!   differential testing;
//! - [`builder`] — a fluent construction API.

pub mod builder;
pub mod expr;
pub mod graph;
pub mod operator;
pub mod scope;
pub mod semantics;
pub mod spanrules;

pub use builder::SeqQuery;
pub use expr::{BinOp, Expr, ValueSource};
pub use graph::{
    BoundOp, NodeId, QueryGraph, QueryNode, ResolvedGraph, ResolvedKind, ResolvedNode,
    SchemaProvider,
};
pub use operator::{float_result, AggFold, AggFunc, SeqOperator, Window};
pub use scope::{ScopeShape, ScopeSize};
pub use semantics::{ReferenceEvaluator, SequenceProvider};
