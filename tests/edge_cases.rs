//! End-to-end edge cases: degenerate sequences, extreme offsets, negative
//! positions, and boundary spans through the full optimize+execute pipeline.

use seqproc::prelude::*;

fn world_with(entries: Vec<(i64, f64)>) -> Catalog {
    let mut c = Catalog::new();
    c.set_page_capacity(4);
    let base = BaseSequence::from_entries(
        schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
        entries.into_iter().map(|(p, v)| (p, record![p, v])).collect(),
    )
    .unwrap();
    c.register("S", &base);
    c
}

fn run(catalog: &Catalog, q: QueryGraph, range: Span) -> Vec<(i64, Record)> {
    let optimized = optimize(&q, &CatalogRef(catalog), &OptimizerConfig::new(range)).unwrap();
    optimized.execute(&ExecContext::new(catalog)).unwrap().into_rows()
}

#[test]
fn empty_base_sequence_everywhere() {
    let catalog = world_with(vec![]);
    let range = Span::new(-10, 10);
    for q in [
        SeqQuery::base("S").build(),
        SeqQuery::base("S").select(Expr::attr("close").gt(Expr::lit(0.0))).build(),
        SeqQuery::base("S").previous().build(),
        SeqQuery::base("S").aggregate(AggFunc::Sum, "close", Window::trailing(3)).build(),
        SeqQuery::base("S").compose_with(SeqQuery::base("S2")).build(),
    ] {
        let mut catalog2 = world_with(vec![]);
        catalog2.register(
            "S2",
            &BaseSequence::from_entries(
                schema(&[("time", AttrType::Int), ("close", AttrType::Float)]),
                vec![],
            )
            .unwrap(),
        );
        let c = if q.resolve(&CatalogRef(&catalog)).is_ok() { &catalog } else { &catalog2 };
        assert!(run(c, q, range).is_empty());
    }
}

#[test]
fn single_record_sequence() {
    let catalog = world_with(vec![(5, 42.0)]);
    let range = Span::new(0, 20);

    let rows = run(&catalog, SeqQuery::base("S").build(), range);
    assert_eq!(rows.len(), 1);

    // Previous of a single record: defined strictly after it.
    let rows = run(&catalog, SeqQuery::base("S").previous().build(), range);
    assert_eq!(rows.first().map(|(p, _)| *p), Some(6));
    assert_eq!(rows.len(), 15); // positions 6..=20

    // Whole-span max == the record itself.
    let rows = run(
        &catalog,
        SeqQuery::base("S").aggregate(AggFunc::Max, "close", Window::WholeSpan).build(),
        range,
    );
    assert!(rows.iter().all(|(_, r)| r.value(0).unwrap().as_f64().unwrap() == 42.0));
}

#[test]
fn negative_positions_end_to_end() {
    let catalog = world_with(vec![(-10, 1.0), (-5, 2.0), (0, 3.0), (5, 4.0)]);
    let range = Span::new(-20, 20);
    let rows = run(
        &catalog,
        SeqQuery::base("S").aggregate(AggFunc::Sum, "close", Window::trailing(6)).build(),
        range,
    );
    // At position -5: window [-10, -5] covers records at -10 and -5.
    let at = rows.iter().find(|(p, _)| *p == -5).unwrap();
    assert_eq!(at.1.value(0).unwrap().as_f64().unwrap(), 3.0);
    // At position 0: window [-5, 0] covers -5 and 0.
    let at = rows.iter().find(|(p, _)| *p == 0).unwrap();
    assert_eq!(at.1.value(0).unwrap().as_f64().unwrap(), 5.0);
}

#[test]
fn offset_larger_than_span() {
    let catalog = world_with(vec![(1, 1.0), (2, 2.0)]);
    // Shifting by more than the span pushes everything outside the range.
    let rows = run(&catalog, SeqQuery::base("S").positional_offset(100).build(), Span::new(1, 10));
    assert!(rows.is_empty());
    // Shift the other way: Out(i) = In(i+(-100)) puts records at 101, 102.
    let rows =
        run(&catalog, SeqQuery::base("S").positional_offset(-100).build(), Span::new(90, 110));
    let pos: Vec<i64> = rows.iter().map(|(p, _)| *p).collect();
    assert_eq!(pos, vec![101, 102]);
}

#[test]
fn value_offset_beyond_record_count() {
    let catalog = world_with(vec![(1, 1.0), (2, 2.0), (3, 3.0)]);
    // The 5th-most-recent record never exists.
    let rows = run(&catalog, SeqQuery::base("S").value_offset(-5).build(), Span::new(1, 50));
    assert!(rows.is_empty());
}

#[test]
fn window_larger_than_data() {
    let catalog = world_with(vec![(10, 1.0), (11, 2.0)]);
    let rows = run(
        &catalog,
        SeqQuery::base("S").aggregate(AggFunc::Avg, "close", Window::trailing(1000)).build(),
        Span::new(1, 100),
    );
    // Output exists from the first record through range end.
    assert_eq!(rows.first().map(|(p, _)| *p), Some(10));
    assert_eq!(rows.last().map(|(p, _)| *p), Some(100));
    assert!(rows.iter().skip(1).all(|(_, r)| r.value(0).unwrap().as_f64().unwrap() == 1.5));
}

#[test]
fn range_touching_span_edges() {
    let catalog = world_with((1..=20).map(|p| (p, p as f64)).collect());
    // Exactly the first and last positions.
    let rows = run(&catalog, SeqQuery::base("S").build(), Span::new(1, 1));
    assert_eq!(rows.len(), 1);
    let rows = run(&catalog, SeqQuery::base("S").build(), Span::new(20, 20));
    assert_eq!(rows.len(), 1);
    // Inverted range == empty.
    let rows = run(&catalog, SeqQuery::base("S").build(), Span::new(15, 5));
    assert!(rows.is_empty());
}

#[test]
fn self_join_of_disjoint_derivations() {
    // Compose two disjoint selections of the same base: empty result, no
    // wasted scans beyond the inputs.
    let catalog = world_with((1..=50).map(|p| (p, p as f64)).collect());
    let q = SeqQuery::base("S")
        .select(Expr::attr("close").lt(Expr::lit(10.0)))
        .compose_with(SeqQuery::base("S").select(Expr::attr("close").gt(Expr::lit(40.0))))
        .build();
    // The same base twice is fine — distinct leaf nodes.
    let rows = run(&catalog, q, Span::new(1, 50));
    assert!(rows.is_empty());
}

#[test]
fn deep_operator_chain() {
    let catalog = world_with((1..=200).map(|p| (p, (p % 17) as f64)).collect());
    // Five stacked non-unit-scope operators: blocks chain correctly.
    let q = SeqQuery::base("S")
        .aggregate(AggFunc::Sum, "close", Window::trailing(3))
        .aggregate(AggFunc::Max, "sum_close", Window::trailing(4))
        .previous()
        .aggregate(AggFunc::Min, "max_sum_close", Window::trailing(2))
        .aggregate(AggFunc::Avg, "min_max_sum_close", Window::trailing(5))
        .build();
    let optimized =
        optimize(&q, &CatalogRef(&catalog), &OptimizerConfig::new(Span::new(1, 220))).unwrap();
    assert_eq!(optimized.block_count, 5);
    let rows = optimized.execute(&ExecContext::new(&catalog)).unwrap();
    assert!(!rows.is_empty());
}

#[test]
fn probe_positions_outside_everything() {
    use seqproc::prelude::probe_positions;
    let catalog = world_with(vec![(5, 1.0)]);
    let q = SeqQuery::base("S").build();
    let optimized =
        optimize(&q, &CatalogRef(&catalog), &OptimizerConfig::new(Span::new(1, 10))).unwrap();
    let ctx = ExecContext::new(&catalog);
    let out =
        probe_positions(&optimized.plan, &ctx, &[i64::MIN + 2, -1, 5, 11, i64::MAX - 2]).unwrap();
    let hits: Vec<bool> = out.iter().map(|(_, r)| r.is_some()).collect();
    assert_eq!(hits, vec![false, false, true, false, false]);
}

#[test]
fn all_records_filtered_out() {
    let catalog = world_with((1..=30).map(|p| (p, p as f64)).collect());
    let q = SeqQuery::base("S")
        .select(Expr::attr("close").gt(Expr::lit(1e9)))
        .aggregate(AggFunc::Count, "close", Window::Cumulative)
        .build();
    let rows = run(&catalog, q, Span::new(1, 30));
    assert!(rows.is_empty(), "cumulative over an empty selection yields nothing");
}
