//! Morsel-driven parallel execution of batch-capable plan segments.
//!
//! A bounded output span partitions into contiguous *morsels* — cache-sized
//! multiples of the batch size, in the style of HyPer's morsel-driven
//! scheduling (Leis et al., SIGMOD 2014). The calling thread and `workers - 1`
//! scoped helpers each claim the next morsel from one atomic counter, clone
//! the plan restricted to it ([`crate::PhysNode::restrict_to`] widens
//! window-aggregate and positional-offset inputs by the operator's scope
//! overhang), run an independent [`crate::BatchCursor`] pipeline over its
//! sub-span, and keep the `(index, batches)` result locally. After its last
//! claim the caller joins the helpers and moves every morsel's batches into
//! the result in morsel order. Because unit-scope stream operators are
//! position-wise independent, the output is bit-identical to the sequential
//! batch path.
//!
//! [`crate::run_policy`] decides when a plan runs this way; this module
//! tiles the range and runs the morsels, with no runtime dependency.
//! Every morsel charges the query's one counter scope ([`crate::ExecStats`],
//! relaxed atomics), so the paper's accounting (§4.1.3) folds exactly across
//! threads.
//! There is no merge window: [`crate::execute`] materializes the whole
//! result, so every morsel's batches are resident at the end anyway, and
//! memory follows the output, not the worker count. Nothing waits on a
//! condition either: a panicking morsel stops the claiming, and the join
//! re-raises its panic on the caller, as at parallelism 1.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use seq_core::{RecordBatch, Result, ResultSet, Span};

use crate::plan::{ExecContext, PhysPlan};
use crate::profile::WorkerProfile;

/// Target number of batches per morsel when no explicit morsel length is
/// given: large enough to amortize per-morsel plan cloning and scan opening,
/// small enough that a handful of morsels per worker keeps the load even.
pub const DEFAULT_MORSEL_BATCHES: u64 = 16;

/// Positions per morsel for a non-empty bounded `range`, as
/// [`plan_morsels`] tiles it: always a batch-size multiple so batch
/// boundaries inside a morsel stay aligned with the sequential path's.
pub(crate) fn morsel_len(
    range: Span,
    batch_size: usize,
    workers: usize,
    morsel_positions: u64,
) -> u64 {
    let bs = batch_size.max(1) as u64;
    let target = if morsel_positions > 0 {
        morsel_positions
    } else {
        let per_worker = range.len().div_ceil((workers.max(1) as u64).saturating_mul(4)).max(1);
        per_worker.min(bs * DEFAULT_MORSEL_BATCHES)
    };
    target.div_ceil(bs).saturating_mul(bs).max(1)
}

/// Partition a bounded span into contiguous morsels of `morsel_positions`
/// positions (the last one ragged). `morsel_positions = 0` picks
/// [`DEFAULT_MORSEL_BATCHES`] batches worth, fewer when that leaves under ~4
/// morsels per worker, rounded up to a batch-size multiple.
pub fn plan_morsels(
    range: Span,
    batch_size: usize,
    workers: usize,
    morsel_positions: u64,
) -> Vec<Span> {
    if range.is_empty() {
        return Vec::new();
    }
    debug_assert!(range.is_bounded(), "morsels partition bounded spans");
    let len = morsel_len(range, batch_size, workers, morsel_positions);
    let mut morsels = Vec::new();
    let mut lo = range.start();
    loop {
        let hi = lo.saturating_add((len - 1).min(i64::MAX as u64) as i64).min(range.end());
        morsels.push(Span::new(lo, hi));
        if hi >= range.end() {
            return morsels;
        }
        lo = hi + 1;
    }
}

/// One morsel's outcome in [`run_claims`]: its value, the thread that ran
/// it (0 is the caller) and the time the work took.
struct Claimed<T> {
    value: T,
    worker: usize,
    busy: Duration,
}

/// Sets the stop flag when a claim loop unwinds, so no thread claims
/// another morsel after a panic.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Run `work(i)` for every `i` in `0..count` on this thread plus
/// `workers - 1` scoped helpers, each claiming the next index from an atomic
/// counter and keeping its results locally. Returns the outcomes in index
/// order and the time this thread waited to join the helpers. Claiming
/// stops after the first error or panic. The error returned is the one of
/// the lowest failed index — the one the sequential pipeline would reach
/// first; every lower index was claimed earlier and so has run. A panic is
/// re-raised here once every helper has been joined.
fn run_claims<T: Send>(
    count: usize,
    workers: usize,
    work: impl Fn(usize) -> Result<T> + Sync,
) -> Result<(Vec<Claimed<T>>, Duration)> {
    // Relaxed throughout: the counter only hands out distinct indices and
    // the flag only cuts claiming short; results reach this thread through
    // the join, which synchronizes.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let claim = |worker: usize| {
        let _guard = StopOnPanic(&stop);
        let mut mine = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            let start = Instant::now();
            let result = work(i);
            if result.is_err() {
                stop.store(true, Ordering::Relaxed);
            }
            mine.push((i, result.map(|value| Claimed { value, worker, busy: start.elapsed() })));
        }
        mine
    };
    let (mut all, join_wait) = std::thread::scope(|scope| {
        let claim = &claim;
        let helpers: Vec<_> = (1..workers).map(|w| scope.spawn(move || claim(w))).collect();
        let mut all = claim(0);
        let joined = Instant::now();
        for helper in helpers {
            all.extend(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        (all, joined.elapsed())
    });
    all.sort_unstable_by_key(|(i, _)| *i);
    let claimed = all.into_iter().map(|(_, result)| result).collect::<Result<Vec<_>>>()?;
    Ok((claimed, join_wait))
}

/// Evaluate one morsel: restrict the plan to the sub-span, run its pipeline
/// to completion, and return the produced batches, clamped and compacted
/// on the thread that ran it so the caller only moves them.
fn run_morsel(
    plan: &PhysPlan,
    ctx: &ExecContext<'_>,
    morsel: Span,
    batch_size: usize,
) -> Result<Vec<RecordBatch>> {
    let node = plan.root.restrict_to(morsel);
    let mut out = Vec::new();
    crate::exec::drain_batches(&node, ctx, morsel, batch_size, |mut b| {
        b.compact();
        out.push(b);
    })?;
    Ok(out)
}

/// The multi-morsel loop behind [`crate::Run::Morsels`]: this thread and
/// `workers - 1` helpers run the morsels, then this thread moves each
/// morsel's batches into `out` in morsel order. Bit-identical to the
/// sequential pipeline because the plan is position-partitionable.
pub(crate) fn run_parallel(
    plan: &PhysPlan,
    ctx: &ExecContext<'_>,
    morsels: &[Span],
    batch_size: usize,
    workers: usize,
    out: &mut ResultSet,
) -> Result<()> {
    let (claimed, join_wait) =
        run_claims(morsels.len(), workers, |i| run_morsel(plan, ctx, morsels[i], batch_size))?;
    if let Some(m) = &ctx.telemetry {
        claimed.iter().for_each(|c| m.record_morsel(c.busy));
    }
    if let Some(p) = &ctx.profile {
        p.record_morsels_planned(morsels.len() as u64);
        p.record_merge_wait(join_wait);
        let mut per_worker: Vec<WorkerProfile> =
            (0..workers).map(|worker| WorkerProfile { worker, ..Default::default() }).collect();
        for c in &claimed {
            let w = &mut per_worker[c.worker];
            w.morsels += 1;
            w.rows += c.value.iter().map(|b| b.len() as u64).sum::<u64>();
            w.busy += c.busy;
        }
        per_worker.into_iter().for_each(|w| p.record_worker(w));
    }
    // Already dense: the set takes each batch as it is.
    claimed.into_iter().flat_map(|c| c.value).for_each(|b| out.push(b));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seq_core::SeqError;

    #[test]
    fn morsels_tile_the_range_in_batch_multiples() {
        let morsels = plan_morsels(Span::new(1, 1000), 64, 4, 0);
        assert!(morsels.len() > 1);
        // Contiguous, ordered, and exactly covering the range.
        assert_eq!(morsels.first().unwrap().start(), 1);
        assert_eq!(morsels.last().unwrap().end(), 1000);
        for pair in morsels.windows(2) {
            assert_eq!(pair[0].end() + 1, pair[1].start());
        }
        // Every morsel except the last is a multiple of the batch size.
        for m in &morsels[..morsels.len() - 1] {
            assert_eq!(m.len() % 64, 0, "morsel {m} not batch-aligned");
        }
    }

    #[test]
    fn explicit_morsel_length_is_respected() {
        let morsels = plan_morsels(Span::new(10, 29), 4, 2, 8);
        let lens: Vec<u64> = morsels.iter().map(|m| m.len()).collect();
        assert_eq!(lens, vec![8, 8, 4]);
    }

    #[test]
    fn empty_and_single_morsel_ranges() {
        assert!(plan_morsels(Span::empty(), 64, 4, 0).is_empty());
        let one = plan_morsels(Span::new(5, 8), 64, 4, 0);
        assert_eq!(one, vec![Span::new(5, 8)]);
    }

    #[test]
    fn huge_worker_counts_saturate() {
        // `workers * 4` must not wrap (2^62 * 4 is 0 in u64, a division by
        // zero) or overflow: the range still tiles into one-batch morsels.
        for workers in [usize::MAX, 1 << 62] {
            let morsels = plan_morsels(Span::new(1, 5000), 64, workers, 0);
            assert_eq!(morsels.len(), 5000usize.div_ceil(64));
            assert_eq!(morsels[0], Span::new(1, 64));
            assert_eq!(morsels.last().unwrap().end(), 5000);
        }
    }

    /// Run `f` on a thread of its own and wait at most 10 s for it, so a
    /// claim loop that hangs fails its test instead of stalling the suite.
    fn within_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(10)).expect("the claim loop did not finish in 10 s")
    }

    /// The payload of a caught panic, as text.
    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().map_or_else(String::new, |s| s.to_string()),
        }
    }

    /// After a failed or panicked loop, a parallel `execute` over fresh
    /// morsels still returns the sequential rows.
    fn assert_next_execute_answers(workers: usize) {
        use seq_core::{record, schema, AttrType, BaseSequence};
        let mut catalog = seq_storage::Catalog::new();
        catalog.set_page_capacity(8);
        let sch = schema(&[("time", AttrType::Int), ("close", AttrType::Float)]);
        let entries = (1..=300).filter(|p| p % 7 != 0).map(|p| (p, record![p, p as f64]));
        catalog.register("IBM", &BaseSequence::from_entries(sch, entries.collect()).unwrap());
        let span = Span::new(1, 300);
        let plan = PhysPlan::new(crate::PhysNode::Base { name: "IBM".into(), span }, span);
        let ctx = ExecContext::new(&catalog);
        let run = |opts| crate::execute(&plan, &ctx, &opts).unwrap().into_rows();
        let opts = crate::ExecOptions { batch_size: 8, workers, morsel_positions: 16 };
        assert_eq!(run(opts), run(crate::ExecOptions::default()));
    }

    #[test]
    fn claims_return_results_in_index_order() {
        for workers in [1, 2, 4] {
            let (claimed, _) = run_claims(50, workers, |i| Ok(i * 10)).unwrap();
            let values: Vec<usize> = claimed.iter().map(|c| c.value).collect();
            assert_eq!(values, (0..50).map(|i| i * 10).collect::<Vec<_>>());
            assert!(claimed.iter().all(|c| c.worker < workers));
        }
    }

    #[test]
    fn a_failed_morsel_returns_the_lowest_index_error() {
        for workers in [2, 4] {
            for k in [0, 3, 15] {
                let result = within_deadline(move || {
                    run_claims(16, workers, |i| match i >= k {
                        true => Err(SeqError::Unsupported(format!("morsel {i}"))),
                        false => Ok(i),
                    })
                    .map(|_| ())
                });
                let err = result.expect_err("a failed morsel must fail the loop");
                assert_eq!(
                    err.to_string(),
                    SeqError::Unsupported(format!("morsel {k}")).to_string()
                );
            }
            assert_next_execute_answers(workers);
        }
    }

    #[test]
    fn a_panicking_morsel_reaches_the_caller() {
        for workers in [2, 4] {
            for k in [0, 3, 15] {
                let caught = within_deadline(move || {
                    std::panic::catch_unwind(|| {
                        run_claims(16, workers, |i| {
                            assert_ne!(i, k, "morsel {k} panicked");
                            Ok(i)
                        })
                        .map(|_| ())
                    })
                });
                let payload = caught.expect_err("the panic must reach the caller");
                assert!(panic_text(payload).contains(&format!("morsel {k} panicked")));
            }
            // A helper, not the caller, panics: the caller's morsels wait
            // until a helper has started one, so a helper runs one.
            let caught = within_deadline(move || {
                let caller = std::thread::current().id();
                let helper_started = AtomicBool::new(false);
                std::panic::catch_unwind(|| {
                    run_claims(64, workers, |i| {
                        if std::thread::current().id() == caller {
                            while !helper_started.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                            return Ok(i);
                        }
                        helper_started.store(true, Ordering::SeqCst);
                        panic!("a helper panicked");
                    })
                    .map(|_| ())
                })
            });
            let payload = caught.expect_err("the helper's panic must reach the caller");
            assert!(panic_text(payload).contains("a helper panicked"));
            assert_next_execute_answers(workers);
        }
    }
}
