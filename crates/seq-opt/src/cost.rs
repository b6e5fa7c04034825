//! The cost model (§4.1).
//!
//! Costs are abstract units anchored on page I/O. Every derived sequence is
//! priced in both access modes:
//!
//! - **base sequences** (§4.1.1): stream cost = pages within the (restricted)
//!   valid range × sequential-page cost; probed cost = positions in the valid
//!   range × average per-probe cost;
//! - **positional joins** (§4.1.3): the paper's formulas verbatim —
//!   `stream = min(A1 + d1·a2, A2 + d2·a1, A1 + A2) + d1·d2·span·K` and
//!   `probed = min(a1 + d1·a2, a2 + d2·a1) + d1·d2·span·K`;
//! - **non-unit-scope operators** (§4.1.2): probed cost = probed input cost ×
//!   scope size; stream cost = input stream cost + cache traffic
//!   (Cache-Strategy-A/B), or the naive estimate driven by the input density
//!   for variable scopes.

use seq_core::{SeqMeta, Span};
use seq_exec::JoinStrategy;

/// Unit costs. Defaults model a random page I/O as twice a sequential one,
/// with CPU work two orders of magnitude cheaper than I/O.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// One sequentially read page.
    pub seq_page_io: f64,
    /// One randomly probed page (per-record probe cost).
    pub rand_page_io: f64,
    /// Per-record CPU handling.
    pub record_cpu: f64,
    /// Storing or retrieving one record in an operator cache.
    pub cache_op: f64,
    /// One application of a join/selection predicate (the K of §4.1.3).
    pub predicate_k: f64,
    /// Correlation factor for Null positions of joined sequences (§3:
    /// "correlations between sequences in the positions of Null records").
    /// 1.0 = independent; >1 = positively correlated (more matches).
    pub null_correlation: f64,
}

impl Default for CostParams {
    fn default() -> CostParams {
        CostParams {
            seq_page_io: 1.0,
            rand_page_io: 2.0,
            record_cpu: 0.01,
            cache_op: 0.005,
            predicate_k: 0.01,
            null_correlation: 1.0,
        }
    }
}

/// The stream/probed cost pair of one sequence access plan (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessCosts {
    /// Cost of one full stream scan over the sequence's span.
    pub stream: f64,
    /// Cost of probing every position in the span once (per-position
    /// average × span length, as in §4.1.1); scale by a density to price a
    /// partial probing pattern.
    pub probed: f64,
}

impl AccessCosts {
    /// Free access (empty spans, constants' probes).
    pub const ZERO: AccessCosts = AccessCosts { stream: 0.0, probed: 0.0 };
}

/// §4.1.1 — access costs to a base sequence within its (restricted) span.
pub fn base_access_costs(meta: &SeqMeta, page_capacity: usize, params: &CostParams) -> AccessCosts {
    let span_len = span_len_f(&meta.span);
    if span_len == 0.0 {
        return AccessCosts::ZERO;
    }
    if !span_len.is_finite() {
        return AccessCosts { stream: f64::INFINITY, probed: f64::INFINITY };
    }
    let records = span_len * meta.density;
    let pages = (records / page_capacity.max(1) as f64).ceil();
    AccessCosts {
        stream: pages * params.seq_page_io + records * params.record_cpu,
        probed: span_len * params.rand_page_io,
    }
}

/// §4.1.1 — "a constant sequence has no access cost and a density of one."
/// Streaming a constant still enumerates positions (CPU only).
pub fn constant_access_costs(span: &Span, params: &CostParams) -> AccessCosts {
    let span_len = span_len_f(span);
    if !span_len.is_finite() {
        return AccessCosts { stream: f64::INFINITY, probed: 0.0 };
    }
    AccessCosts { stream: span_len * params.record_cpu, probed: 0.0 }
}

/// Probability that one page of `rows_per_page` records holds *no* record
/// matching a predicate of selectivity `s` — the fraction of pages a
/// zone-mapped scan can expect to skip. Under the independence assumption
/// each of the page's records matches with probability `s`, so the page is
/// skippable with probability `(1 − s)^k`. Value-clustered data skips far
/// more than this (whole runs of pages refute a range predicate at once), so
/// the term is a conservative discount: pushdown is never priced *better*
/// than the uniform worst case.
pub fn zone_skip_fraction(selectivity: f64, rows_per_page: usize) -> f64 {
    let s = selectivity.clamp(0.0, 1.0);
    (1.0 - s).powi(rows_per_page.clamp(1, 1_000_000) as i32)
}

fn span_len_f(span: &Span) -> f64 {
    if span.is_empty() {
        0.0
    } else if !span.is_bounded() {
        f64::INFINITY
    } else {
        span.len() as f64
    }
}

/// One side of a positional join, as the DP sees it.
#[derive(Debug, Clone, Copy)]
pub struct JoinSide {
    /// Full-span stream/probed access costs of the side.
    pub costs: AccessCosts,
    /// Non-Null density of the side.
    pub density: f64,
}

/// The outcome of pricing one positional join (§4.1.3).
#[derive(Debug, Clone, Copy)]
pub struct JoinPricing {
    /// Cheapest stream-mode cost (§4.1.3's three-way minimum plus K).
    pub stream_cost: f64,
    /// The strategy realizing `stream_cost`.
    pub stream_strategy: JoinStrategy,
    /// Cheapest probed-mode cost (the two-way minimum plus K).
    pub probed_cost: f64,
    /// True when the cheaper probed order probes the *right* side first.
    pub probe_right_first: bool,
    /// Density of the join output (before any extra predicates).
    pub output_density: f64,
}

/// §4.1.3 — price a positional join of two sides over a common output span.
/// `extra_selectivity` multiplies in the selectivities of predicates applied
/// at this join; `n_predicates` is how many predicate applications each
/// joined pair costs.
pub fn price_join(
    left: &JoinSide,
    right: &JoinSide,
    out_span: &Span,
    extra_selectivity: f64,
    n_predicates: usize,
    params: &CostParams,
    forced: Option<JoinStrategy>,
) -> JoinPricing {
    let span = span_len_f(out_span);
    let (d1, d2) = (left.density, right.density);
    let (a_1, a1) = (left.costs.stream, left.costs.probed);
    let (a_2, a2) = (right.costs.stream, right.costs.probed);

    // d1·d2·output_span·K — the join-predicate application term. Every
    // aligned pair costs at least the positional match; extra predicates
    // multiply the per-pair constant.
    let pairs =
        d1 * d2 * params.null_correlation.min(1.0 / d1.max(1e-12)).min(1.0 / d2.max(1e-12)) * span;
    let k_cost = pairs * params.predicate_k * (1 + n_predicates) as f64;

    let candidates = [
        (a_1 + d1 * a2, JoinStrategy::StreamLeftProbeRight),
        (a_2 + d2 * a1, JoinStrategy::StreamRightProbeLeft),
        (a_1 + a_2, JoinStrategy::LockStep),
    ];
    let (stream_raw, stream_strategy) = match forced {
        Some(f) => {
            let c = candidates.iter().find(|(_, s)| *s == f).expect("strategy in set");
            *c
        }
        None => candidates.into_iter().min_by(|a, b| a.0.total_cmp(&b.0)).expect("non-empty"),
    };

    let probe_left_first = a1 + d1 * a2;
    let probe_right_first_cost = a2 + d2 * a1;
    let (probed_raw, probe_right_first) = if probe_right_first_cost < probe_left_first {
        (probe_right_first_cost, true)
    } else {
        (probe_left_first, false)
    };

    let output_density = (d1 * d2 * params.null_correlation * extra_selectivity).clamp(0.0, 1.0);

    JoinPricing {
        stream_cost: stream_raw + k_cost,
        stream_strategy,
        probed_cost: probed_raw + k_cost,
        probe_right_first,
        output_density,
    }
}

/// §4.1.2 — price a fixed-scope aggregate over an input.
/// Returns (Cache-Strategy-A stream cost, naive probed cost).
pub fn price_fixed_aggregate(
    input: &JoinSide,
    input_span: &Span,
    out_span: &Span,
    out_density: f64,
    scope_size: u64,
    params: &CostParams,
) -> AccessCosts {
    let in_records = span_len_f(input_span) * input.density;
    let out_records = span_len_f(out_span) * out_density;
    let stream = input.costs.stream
        + in_records * params.cache_op        // store each input record once
        + out_records * params.cache_op       // one cache access per output
        + out_records * params.record_cpu; // the aggregate computation
                                           // "The probed access cost is the probed access cost of the input
                                           // sequence multiplied by the size of the operator scope."
    let probed = input.costs.probed * scope_size as f64;
    AccessCosts { stream, probed }
}

/// §4.1.2 — price a value offset of magnitude `l` (variable scope).
/// Returns (incremental Cache-Strategy-B stream cost, naive probed cost).
pub fn price_value_offset(
    input: &JoinSide,
    input_span: &Span,
    out_span: &Span,
    magnitude: u64,
    params: &CostParams,
) -> AccessCosts {
    let in_records = span_len_f(input_span) * input.density;
    let out_records = span_len_f(out_span); // density ≈ 1 within the span
    let stream = input.costs.stream + in_records * params.cache_op + out_records * params.cache_op;
    // Naive: each output walks backward until `l` records are found —
    // l / density positions on average, each a probe. Scaling the whole-span
    // probed cost by that factor prices it, as §4.1.2 suggests estimating
    // from the input density.
    let walk = magnitude as f64 / input.density.max(1e-9);
    let per_position_probe = if span_len_f(input_span) > 0.0 && span_len_f(input_span).is_finite() {
        input.costs.probed / span_len_f(input_span)
    } else {
        params.rand_page_io
    };
    let probed = out_records * walk * per_position_probe;
    AccessCosts { stream, probed }
}

/// Price a cumulative or whole-span aggregate: stream = one input scan plus
/// accumulator traffic; probed degenerates to re-scanning the history per
/// probe (span/2 positions on average for cumulative, the whole span for
/// whole-span windows).
pub fn price_unbounded_aggregate(
    input: &JoinSide,
    input_span: &Span,
    out_span: &Span,
    whole_span: bool,
    params: &CostParams,
) -> AccessCosts {
    let in_records = span_len_f(input_span) * input.density;
    let out_records = span_len_f(out_span);
    let stream =
        input.costs.stream + in_records * params.cache_op + out_records * params.record_cpu;
    let per_probe_window =
        if whole_span { span_len_f(input_span) } else { span_len_f(input_span) / 2.0 };
    let per_position_probe = if span_len_f(input_span) > 0.0 && span_len_f(input_span).is_finite() {
        input.costs.probed / span_len_f(input_span)
    } else {
        params.rand_page_io
    };
    let probed = out_records * per_probe_window * per_position_probe;
    AccessCosts { stream, probed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        CostParams::default()
    }

    #[test]
    fn zone_skip_fraction_bounds_and_monotonicity() {
        // Nothing matches: every page is skippable. Everything matches: none.
        assert_eq!(zone_skip_fraction(0.0, 16), 1.0);
        assert_eq!(zone_skip_fraction(1.0, 16), 0.0);
        // 10% selectivity over 16-record pages: 0.9^16 ≈ 0.185.
        assert!((zone_skip_fraction(0.1, 16) - 0.9f64.powi(16)).abs() < 1e-12);
        // Monotone: higher selectivity or bigger pages → fewer skips.
        assert!(zone_skip_fraction(0.05, 16) > zone_skip_fraction(0.2, 16));
        assert!(zone_skip_fraction(0.1, 8) > zone_skip_fraction(0.1, 64));
        // Out-of-range inputs clamp instead of exploding.
        assert_eq!(zone_skip_fraction(-1.0, 0), 1.0);
        assert_eq!(zone_skip_fraction(2.0, 16), 0.0);
    }

    #[test]
    fn base_costs_scale_with_span_and_density() {
        let p = params();
        let full = base_access_costs(&SeqMeta::with_span(Span::new(1, 6400), 1.0), 64, &p);
        assert_eq!(full.stream, 100.0 + 6400.0 * p.record_cpu);
        assert_eq!(full.probed, 6400.0 * p.rand_page_io);
        // Restricting the span to a quarter quarters both costs (Figure 3's
        // payoff).
        let quarter = base_access_costs(&SeqMeta::with_span(Span::new(1, 1600), 1.0), 64, &p);
        assert!((quarter.stream - full.stream / 4.0).abs() < 1.0);
        assert!((quarter.probed - full.probed / 4.0).abs() < 1e-9);
        // Lower density, fewer pages to stream; probing is span-driven.
        let sparse = base_access_costs(&SeqMeta::with_span(Span::new(1, 6400), 0.25), 64, &p);
        assert!(sparse.stream < full.stream / 3.0);
        assert_eq!(sparse.probed, full.probed);
    }

    #[test]
    fn empty_and_unbounded_spans() {
        let p = params();
        let empty = base_access_costs(&SeqMeta::with_span(Span::empty(), 1.0), 64, &p);
        assert_eq!(empty, AccessCosts::ZERO);
        let unbounded =
            base_access_costs(&SeqMeta::with_span(Span::new(1, 1).unbounded_above(), 1.0), 64, &p);
        assert!(unbounded.stream.is_infinite());
    }

    #[test]
    fn constants_probe_for_free() {
        let p = params();
        let c = constant_access_costs(&Span::new(1, 100), &p);
        assert_eq!(c.probed, 0.0);
        assert!(c.stream > 0.0);
        assert!(constant_access_costs(&Span::all(), &p).stream.is_infinite());
    }

    #[test]
    fn join_prefers_probing_the_sparse_side() {
        let p = params();
        // Dense cheap-to-stream left; sparse expensive-to-stream right.
        let left = JoinSide { costs: AccessCosts { stream: 10.0, probed: 2000.0 }, density: 0.01 };
        let right =
            JoinSide { costs: AccessCosts { stream: 1000.0, probed: 2000.0 }, density: 0.9 };
        let out = price_join(&left, &right, &Span::new(1, 1000), 1.0, 0, &p, None);
        // Streaming left (cost 10) and probing right per left record
        // (0.01 × 2000 = 20) beats lock-step (1010) and the converse.
        assert_eq!(out.stream_strategy, JoinStrategy::StreamLeftProbeRight);
        assert!(out.stream_cost < 100.0);
    }

    #[test]
    fn join_prefers_lockstep_when_both_dense() {
        let p = params();
        let side =
            JoinSide { costs: AccessCosts { stream: 100.0, probed: 12800.0 }, density: 0.95 };
        let out = price_join(&side, &side, &Span::new(1, 6400), 1.0, 0, &p, None);
        assert_eq!(out.stream_strategy, JoinStrategy::LockStep);
    }

    #[test]
    fn forced_strategy_is_respected() {
        let p = params();
        let side =
            JoinSide { costs: AccessCosts { stream: 100.0, probed: 12800.0 }, density: 0.95 };
        let out = price_join(
            &side,
            &side,
            &Span::new(1, 6400),
            1.0,
            0,
            &p,
            Some(JoinStrategy::StreamLeftProbeRight),
        );
        assert_eq!(out.stream_strategy, JoinStrategy::StreamLeftProbeRight);
        assert!(out.stream_cost > 100.0 + 0.9 * 12800.0 * 0.9);
    }

    #[test]
    fn join_density_multiplies_with_selectivity() {
        let p = params();
        let side = JoinSide { costs: AccessCosts { stream: 1.0, probed: 1.0 }, density: 0.5 };
        let out = price_join(&side, &side, &Span::new(1, 100), 0.3, 1, &p, None);
        assert!((out.output_density - 0.5 * 0.5 * 0.3).abs() < 1e-9);
    }

    #[test]
    fn aggregate_probed_scales_with_scope() {
        let p = params();
        let input = JoinSide { costs: AccessCosts { stream: 50.0, probed: 500.0 }, density: 1.0 };
        let span = Span::new(1, 100);
        let c6 = price_fixed_aggregate(&input, &span, &span, 1.0, 6, &p);
        let c12 = price_fixed_aggregate(&input, &span, &span, 1.0, 12, &p);
        assert_eq!(c6.probed, 3000.0);
        assert_eq!(c12.probed, 6000.0);
        assert_eq!(c6.stream, c12.stream); // Cache-A streams once regardless
        assert!(c6.stream < c6.probed);
    }

    #[test]
    fn value_offset_naive_explodes_with_sparsity() {
        let p = params();
        let span = Span::new(1, 1000);
        let dense = JoinSide { costs: AccessCosts { stream: 20.0, probed: 2000.0 }, density: 1.0 };
        let sparse =
            JoinSide { costs: AccessCosts { stream: 20.0, probed: 2000.0 }, density: 0.05 };
        let cd = price_value_offset(&dense, &span, &span, 1, &p);
        let cs = price_value_offset(&sparse, &span, &span, 1, &p);
        // The naive walk is ~1/density long per output.
        assert!(cs.probed > 15.0 * cd.probed);
        // Cache-Strategy-B barely changes (stream + cache traffic).
        assert!(cs.stream <= cd.stream);
        assert!(cd.stream < cd.probed);
    }

    #[test]
    fn unbounded_aggregate_probed_is_quadratic() {
        let p = params();
        let span = Span::new(1, 1000);
        let input = JoinSide { costs: AccessCosts { stream: 20.0, probed: 2000.0 }, density: 1.0 };
        let cum = price_unbounded_aggregate(&input, &span, &span, false, &p);
        let whole = price_unbounded_aggregate(&input, &span, &span, true, &p);
        assert!(cum.probed > 100.0 * cum.stream);
        assert!(whole.probed > cum.probed * 1.5);
    }
}
