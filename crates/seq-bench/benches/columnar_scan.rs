//! Columnar encoded pages vs the row layout they replaced: full scans and
//! in-place filtered scans over four datasets, each shaped so its value
//! column lands in one encoding —
//!
//! * **delta** — a slowly drifting integer tick column (zigzag deltas pack
//!   at one byte);
//! * **rle** — a level column constant over runs longer than a page, so
//!   every page body is a single run;
//! * **dict** — a tag column drawn from eight strings (one code byte per
//!   row);
//! * **plain** — high-entropy floats, where encoding buys nothing and the
//!   columnar path must win on layout alone.
//!
//! The row layout is emulated the way pages stored records before the
//! columnar rewrite: fixed-capacity chunks of `(position, Record)` pairs,
//! scanned by materializing every record into the batch. The columnar side
//! is the real storage engine (`scan_batch` bulk decode, and
//! `next_batch_selected` for the filtered cells, which evaluates the
//! predicate over the encoded representation and decodes survivors only).
//! Results land in `BENCH_columnar.json` with per-encoding compression
//! ratios and speedups.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use seq_core::{
    record, schema, AttrType, BaseSequence, CmpOp, Record, RecordBatch, ResultSet, Span, Value,
};
use seq_storage::{Catalog, DEFAULT_PAGE_CAPACITY};
use seq_workload::Rng;

const N: i64 = 500_000;

struct Dataset {
    label: &'static str,
    /// Expected dominant encoding of the value column.
    encoding: &'static str,
    entries: Vec<(i64, Record)>,
    /// Filter on the value column for the in-place cells.
    term: (usize, CmpOp, Value),
}

fn datasets() -> Vec<Dataset> {
    let mut rng = Rng::seed_from_u64(0xC01);
    let tags = ["ACME", "GLOBEX", "INITECH", "HOOLI", "UMBRELLA", "WONKA", "STARK", "TYRELL"];
    let mut tick = 40_000i64;
    let mut make = |f: &mut dyn FnMut(i64, &mut Rng) -> Record| {
        (1..=N).map(|p| (p, f(p, &mut rng))).collect::<Vec<_>>()
    };
    vec![
        Dataset {
            label: "delta",
            encoding: "delta",
            entries: make(&mut |p, rng| {
                tick += rng.gen_range(-60i64..60);
                record![p, tick]
            }),
            term: (1, CmpOp::Gt, Value::Int(40_000)),
        },
        Dataset {
            label: "rle",
            encoding: "rle",
            entries: make(&mut |p, _| record![p, (p / 256) as f64 * 0.5]),
            term: (1, CmpOp::Gt, Value::Float(N as f64 / 256.0 * 0.25)),
        },
        Dataset {
            label: "dict",
            encoding: "dict",
            entries: make(&mut |p, rng| {
                record![p, tags[rng.gen_range(0..tags.len() as u32) as usize]]
            }),
            term: (1, CmpOp::Eq, Value::from("GLOBEX")),
        },
        Dataset {
            label: "plain",
            encoding: "plain",
            entries: make(&mut |p, rng| record![p, rng.gen_range(-100.0..100.0)]),
            term: (1, CmpOp::Gt, Value::Float(0.0)),
        },
    ]
}

fn dataset_schema(label: &str) -> seq_core::Schema {
    match label {
        "delta" => schema(&[("time", AttrType::Int), ("tick", AttrType::Int)]),
        "dict" => schema(&[("time", AttrType::Int), ("tag", AttrType::Str)]),
        _ => schema(&[("time", AttrType::Int), ("level", AttrType::Float)]),
    }
}

/// The pre-columnar page body: a fixed-capacity chunk of owned records.
fn row_chunks(entries: &[(i64, Record)]) -> Vec<Vec<(i64, Record)>> {
    entries.chunks(DEFAULT_PAGE_CAPACITY).map(|c| c.to_vec()).collect()
}

/// Row-layout full scan: materialize every record into fixed-size batches,
/// exactly the per-record work the old layout did on every page.
fn scan_rows(chunks: &[Vec<(i64, Record)>], arity: usize, batch_size: usize) -> usize {
    let mut rows = 0usize;
    let mut batch = RecordBatch::with_capacity(arity, batch_size);
    for chunk in chunks {
        for (pos, rec) in chunk {
            if batch.len() == batch_size {
                rows += batch.len();
                batch = RecordBatch::with_capacity(arity, batch_size);
            }
            batch.push_record(*pos, rec).unwrap();
        }
    }
    rows + black_box(batch).len()
}

/// Row-layout filtered scan: decode every record, evaluate, keep survivors.
fn filter_rows(
    chunks: &[Vec<(i64, Record)>],
    arity: usize,
    batch_size: usize,
    term: &(usize, CmpOp, Value),
) -> usize {
    let (col, op, lit) = term;
    let mut rows = 0usize;
    let mut batch = RecordBatch::with_capacity(arity, batch_size);
    for chunk in chunks {
        for (pos, rec) in chunk {
            if op.holds(rec.values()[*col].total_cmp(lit).unwrap()) {
                if batch.len() == batch_size {
                    rows += batch.len();
                    batch = RecordBatch::with_capacity(arity, batch_size);
                }
                batch.push_record(*pos, rec).unwrap();
            }
        }
    }
    rows + black_box(batch).len()
}

fn time_once<F: FnMut() -> usize>(f: &mut F) -> (Duration, usize) {
    let start = Instant::now();
    let rows = black_box(f());
    (start.elapsed(), rows)
}

/// Interleaved min-of-`SAMPLES` of two closures that must agree on rows.
fn measure<F, G>(label: &str, mut row_path: F, mut col_path: G) -> (Duration, Duration, usize)
where
    F: FnMut() -> usize,
    G: FnMut() -> usize,
{
    const SAMPLES: usize = 7;
    let (mut t_row, mut t_col) = (Duration::MAX, Duration::MAX);
    let (mut rows_row, mut rows_col) = (0usize, 0usize);
    for _ in 0..SAMPLES {
        let (t, r) = time_once(&mut row_path);
        t_row = t_row.min(t);
        rows_row = r;
        let (t, r) = time_once(&mut col_path);
        t_col = t_col.min(t);
        rows_col = r;
    }
    assert_eq!(rows_row, rows_col, "{label}: layouts disagree on row count");
    (t_row, t_col, rows_row)
}

fn bench(c: &mut Criterion) {
    let sets = datasets();
    let span = Span::new(1, N);
    let batch_size = seq_exec::DEFAULT_BATCH_SIZE;

    let mut catalog = Catalog::new();
    for set in &sets {
        let base = BaseSequence::from_entries(dataset_schema(set.label), set.entries.clone());
        catalog.register(set.label, &base.unwrap());
    }

    // Correctness anchors: the encoder picked the intended representation,
    // and the in-place filtered scan returns exactly the rows the
    // decode-then-filter row path keeps.
    for set in &sets {
        let stored = catalog.get(set.label).unwrap();
        assert_eq!(
            stored.compression().columns[1].dominant(),
            set.encoding,
            "{}: value column missed its encoding",
            set.label
        );
        let mut scan = stored.scan_batch(span, batch_size);
        let mut got = ResultSet::new();
        while let Some((b, _scanned)) =
            scan.next_batch_selected(std::slice::from_ref(&set.term)).unwrap()
        {
            got.push(b);
        }
        let (_, op, lit) = &set.term;
        let expect: Vec<(i64, Record)> = set
            .entries
            .iter()
            .filter(|(_, r)| op.holds(r.values()[1].total_cmp(lit).unwrap()))
            .cloned()
            .collect();
        assert_eq!(got, expect, "{}: in-place filter diverged from row filter", set.label);
    }

    let mut group = c.benchmark_group("columnar_scan");
    group.sample_size(10);
    for set in &sets {
        let stored = catalog.get(set.label).unwrap();
        let chunks = row_chunks(&set.entries);
        let arity = 2;
        group.bench_function(format!("{}/row", set.label), |b| {
            b.iter(|| scan_rows(&chunks, arity, batch_size))
        });
        group.bench_function(format!("{}/columnar", set.label), |b| {
            b.iter(|| {
                let mut rows = 0usize;
                let mut scan = stored.scan_batch(span, batch_size);
                while let Some(batch) = scan.next_batch() {
                    rows += batch.len();
                }
                rows
            })
        });
    }
    group.finish();

    let mut fields = String::new();
    let mut headline = 0.0f64;
    println!("\ncolumnar_scan summary:");
    for set in &sets {
        let stored = catalog.get(set.label).unwrap();
        let ratio = stored.compression().ratio();
        let chunks = row_chunks(&set.entries);
        let arity = 2;

        let (row_scan, col_scan, rows) = measure(
            set.label,
            || scan_rows(&chunks, arity, batch_size),
            || {
                let mut rows = 0usize;
                let mut scan = stored.scan_batch(span, batch_size);
                while let Some(batch) = scan.next_batch() {
                    rows += batch.len();
                }
                rows
            },
        );
        let scan_speedup = row_scan.as_secs_f64() / col_scan.as_secs_f64();

        let (row_filter, col_filter, kept) = measure(
            set.label,
            || filter_rows(&chunks, arity, batch_size, &set.term),
            || {
                let mut rows = 0usize;
                let mut scan = stored.scan_batch(span, batch_size);
                while let Some((b, _)) =
                    scan.next_batch_selected(std::slice::from_ref(&set.term)).unwrap()
                {
                    rows += b.len();
                }
                rows
            },
        );
        let filter_speedup = row_filter.as_secs_f64() / col_filter.as_secs_f64();

        if set.label == "rle" {
            headline = filter_speedup;
        }
        println!(
            "  {}: ratio {:.2}, scan {row_scan:?} -> {col_scan:?} ({scan_speedup:.2}x), \
             filter {row_filter:?} -> {col_filter:?} ({filter_speedup:.2}x, {kept}/{rows} kept)",
            set.label, ratio,
        );
        fields.push_str(&format!(
            "  \"{0}_encoding\": \"{1}\",\n  \"{0}_compression_ratio\": {ratio:.3},\n  \
             \"{0}_rows\": {rows},\n  \"{0}_scan_row_ms\": {2:.3},\n  \
             \"{0}_scan_columnar_ms\": {3:.3},\n  \"{0}_scan_speedup\": {scan_speedup:.2},\n  \
             \"{0}_filter_kept\": {kept},\n  \"{0}_filter_row_ms\": {4:.3},\n  \
             \"{0}_filter_columnar_ms\": {5:.3},\n  \"{0}_filter_speedup\": {filter_speedup:.2},\n",
            set.label,
            set.encoding,
            row_scan.as_secs_f64() * 1e3,
            col_scan.as_secs_f64() * 1e3,
            row_filter.as_secs_f64() * 1e3,
            col_filter.as_secs_f64() * 1e3,
        ));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"columnar_scan\",\n  \"plan\": \"full + filtered scans of 500k-record sequences, encoded columnar pages vs emulated row-layout pages, one dataset per encoding\",\n  \"input_records\": {N},\n  \"page_capacity\": {},\n  \"batch_size\": {batch_size},\n  \"samples_per_path\": 7,\n  \"statistic\": \"min of interleaved samples\",\n{fields}  \"headline\": \"rle in-place filter over row-layout filter\",\n  \"headline_speedup\": {headline:.2}\n}}\n",
        DEFAULT_PAGE_CAPACITY,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_columnar.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
