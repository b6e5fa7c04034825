//! Morsel-driven parallel execution of batch-capable plan segments.
//!
//! A bounded output span partitions into contiguous *morsels* — cache-sized
//! multiples of the batch size, in the style of HyPer's morsel-driven
//! scheduling (Leis et al., SIGMOD 2014). Each worker claims the next
//! unclaimed morsel, clones the plan restricted to it
//! ([`crate::PhysNode::restrict_to`] widens window-aggregate and
//! positional-offset inputs by the operator's scope overhang), runs an
//! independent [`BatchCursor`] pipeline over its sub-span, and hands the
//! result to an order-preserving bounded merge. Because unit-scope stream
//! operators are position-wise independent, the merged output is
//! bit-identical to the sequential batch path.
//!
//! The pool is plain `std::thread::scope` + `Mutex`/`Condvar`; no runtime
//! dependency. [`crate::stats::ExecStats`] and the storage counters are
//! shared atomics, so the paper's accounting (§4.1.3) folds correctly across
//! workers. Claiming is bounded by a merge window: a worker may run at most
//! a few morsels ahead of the merge frontier, so memory stays proportional
//! to `workers`, not to the span.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use seq_core::{RecordBatch, Result, ResultSet, SeqError, Span};

use crate::plan::{ExecContext, PhysPlan};

/// Target number of batches per morsel when no explicit morsel length is
/// given: large enough to amortize per-morsel plan cloning and scan opening,
/// small enough that a handful of morsels per worker keeps the load even.
pub const DEFAULT_MORSEL_BATCHES: u64 = 16;

/// Parallel driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Worker thread count; `0` and `1` both mean sequential.
    pub workers: usize,
    /// Rows per batch inside each worker's pipeline.
    pub batch_size: usize,
    /// Positions per morsel; `0` picks a batch-size multiple automatically.
    pub morsel_positions: u64,
}

impl ParallelConfig {
    /// `workers` threads with default batch and morsel sizing.
    pub fn with_workers(workers: usize) -> ParallelConfig {
        ParallelConfig { workers, batch_size: seq_core::DEFAULT_BATCH_SIZE, morsel_positions: 0 }
    }
}

/// Partition a bounded span into contiguous morsels of `morsel_positions`
/// positions (the last one ragged). `morsel_positions = 0` picks
/// [`DEFAULT_MORSEL_BATCHES`] batches worth of positions, rounded so every
/// morsel length is a multiple of the batch size and there are at least a
/// few morsels per worker to balance against selective operators.
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
    let bs = batch_size.max(1) as u64;
    let total = range.len();
    let target = if morsel_positions > 0 {
        morsel_positions.max(1)
    } else {
        // At least ~4 morsels per worker when the span allows it, each a
        // multiple of the batch size, defaulting to DEFAULT_MORSEL_BATCHES
        // batches for long spans.
        let per_worker = total.div_ceil((workers.max(1) as u64) * 4).max(1);
        per_worker.min(bs * DEFAULT_MORSEL_BATCHES)
    };
    // Round up to a batch-size multiple so batch boundaries inside a morsel
    // stay aligned with the sequential path's.
    let target = target.div_ceil(bs).saturating_mul(bs).max(1);
    let mut morsels = Vec::new();
    let mut lo = range.start();
    loop {
        let hi = lo.saturating_add((target - 1).min(i64::MAX as u64) as i64).min(range.end());
        morsels.push(Span::new(lo, hi));
        if hi >= range.end() {
            return morsels;
        }
        lo = hi + 1;
    }
}

/// The shared claim/complete/merge state: morsel `i`'s result is emitted
/// strictly after morsel `i-1`'s, and a morsel may only be *claimed* while
/// it is less than `window` ahead of the merge frontier (the bounded queue).
struct MergeQueue {
    state: Mutex<MergeState>,
    /// Signals claim space (the frontier advanced) to waiting workers.
    space: Condvar,
    /// Signals a completed morsel to the merging thread.
    ready: Condvar,
    window: usize,
    total: usize,
}

struct MergeState {
    next_claim: usize,
    next_emit: usize,
    /// Completed but not yet merged morsels.
    done: BTreeMap<usize, Vec<RecordBatch>>,
    /// Claimed morsels not yet completed.
    outstanding: usize,
    /// First worker error; once set, workers stop claiming.
    error: Option<SeqError>,
    aborted: bool,
}

impl MergeQueue {
    fn new(total: usize, window: usize) -> MergeQueue {
        MergeQueue {
            state: Mutex::new(MergeState {
                next_claim: 0,
                next_emit: 0,
                done: BTreeMap::new(),
                outstanding: 0,
                error: None,
                aborted: false,
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
            window: window.max(1),
            total,
        }
    }

    /// Claim the next morsel index, blocking while the claim window is full.
    /// `None` once every morsel is claimed or the run failed/aborted.
    fn claim(&self) -> Option<usize> {
        let mut st = self.state.lock().expect("merge queue poisoned");
        loop {
            if st.error.is_some() || st.aborted || st.next_claim >= self.total {
                return None;
            }
            if st.next_claim < st.next_emit + self.window {
                let idx = st.next_claim;
                st.next_claim += 1;
                st.outstanding += 1;
                return Some(idx);
            }
            st = self.space.wait(st).expect("merge queue poisoned");
        }
    }

    /// Deliver a claimed morsel's result.
    fn complete(&self, idx: usize, result: Result<Vec<RecordBatch>>) {
        let mut st = self.state.lock().expect("merge queue poisoned");
        st.outstanding -= 1;
        match result {
            Ok(batches) => {
                st.done.insert(idx, batches);
            }
            Err(e) => {
                if st.error.is_none() {
                    st.error = Some(e);
                }
                // Unblock workers parked on a full claim window.
                self.space.notify_all();
            }
        }
        self.ready.notify_all();
    }

    /// Next in-order morsel result for the merge thread: `Ok(Some(batches))`
    /// in morsel order, `Ok(None)` when all morsels are merged, or the first
    /// worker error once every claimed morsel has settled.
    fn take_next(&self) -> Result<Option<Vec<RecordBatch>>> {
        let mut st = self.state.lock().expect("merge queue poisoned");
        loop {
            let frontier = st.next_emit;
            if let Some(batches) = st.done.remove(&frontier) {
                st.next_emit += 1;
                self.space.notify_all();
                return Ok(Some(batches));
            }
            if let Some(e) = &st.error {
                if st.outstanding == 0 {
                    return Err(e.clone());
                }
            } else if st.next_emit >= self.total {
                return Ok(None);
            }
            st = self.ready.wait(st).expect("merge queue poisoned");
        }
    }

    /// Stop the run early: workers cease claiming new morsels.
    fn abort(&self) {
        let mut st = self.state.lock().expect("merge queue poisoned");
        st.aborted = true;
        self.space.notify_all();
        self.ready.notify_all();
    }
}

/// Evaluate one morsel: restrict the plan to the sub-span, run its pipeline
/// to completion, and return the produced batches, clamped and compacted
/// here on the worker so the merge thread only moves them.
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

/// Morsel-driven parallel evaluation of the plan: the merge thread moves each
/// morsel's batches into the result in morsel order. Bit-identical to
/// [`crate::exec::execute_batched_with`], which it reduces to exactly when
/// `workers <= 1` or the range fits a single morsel.
///
/// Requires a bounded effective range and a position-partitionable plan
/// ([`crate::PhysNode::is_position_partitionable`]); the optimizer's Step 6
/// gates the parallel exec mode on both.
pub fn execute_parallel_with(
    plan: &PhysPlan,
    ctx: &ExecContext<'_>,
    config: ParallelConfig,
) -> Result<ResultSet> {
    let Some(range) = crate::exec::materialized_range(plan)? else { return Ok(ResultSet::new()) };
    let batch_size = config.batch_size.max(1);
    if config.workers <= 1 {
        // Degree 1 is *exactly* the sequential batch path: same cursors,
        // same page and counter accounting — and works for any plan.
        return crate::exec::execute_batched_with(plan, ctx, batch_size);
    }
    if !plan.root.is_position_partitionable() {
        return Err(SeqError::Unsupported(
            "parallel execution needs a position-partitionable plan".into(),
        ));
    }
    let morsels = plan_morsels(range, batch_size, config.workers, config.morsel_positions);
    if morsels.len() <= 1 {
        return crate::exec::execute_batched_with(plan, ctx, batch_size);
    }
    // The degenerate paths above record through the batch entry point; only
    // the true multi-morsel run below records as a parallel-path query.
    crate::telemetry::instrument(
        ctx,
        crate::telemetry::QueryPath::Parallel,
        |rows: &ResultSet| rows.len() as u64,
        || run_parallel(plan, ctx, &morsels, batch_size, config.workers),
    )
}

/// The multi-morsel worker/merge loop behind [`execute_parallel_with`].
fn run_parallel(
    plan: &PhysPlan,
    ctx: &ExecContext<'_>,
    morsels: &[Span],
    batch_size: usize,
    workers: usize,
) -> Result<ResultSet> {
    if let Some(p) = &ctx.profile {
        p.set_op_modes(plan.root.exec_mode_labels());
    }
    let workers = workers.min(morsels.len());
    let queue = MergeQueue::new(morsels.len(), workers * 2 + 2);
    if let Some(p) = &ctx.profile {
        p.record_morsels_planned(morsels.len() as u64);
    }

    let mut out = ResultSet::new();
    let merged: Result<()> = std::thread::scope(|scope| {
        for w in 0..workers {
            let (queue, profile) = (&queue, ctx.profile.as_deref());
            let telemetry = ctx.telemetry.as_deref();
            scope.spawn(move || {
                let mut local = crate::profile::WorkerProfile { worker: w, ..Default::default() };
                loop {
                    let idx = match profile {
                        Some(_) => {
                            let wait = Instant::now();
                            let idx = queue.claim();
                            local.claim_wait += wait.elapsed();
                            idx
                        }
                        None => queue.claim(),
                    };
                    let Some(idx) = idx else { break };
                    let busy = (profile.is_some() || telemetry.is_some()).then(Instant::now);
                    let result = run_morsel(plan, ctx, morsels[idx], batch_size);
                    if let Some(busy) = busy {
                        let elapsed = busy.elapsed();
                        if let Some(m) = telemetry {
                            // Per-worker tee: each worker records into the
                            // shared morsel histogram's atomic buckets, so
                            // the session slot is the exact fold.
                            m.record_morsel(elapsed);
                        }
                        if profile.is_some() {
                            local.busy += elapsed;
                            local.morsels += 1;
                            if let Ok(batches) = &result {
                                local.rows += batches.iter().map(|b| b.len() as u64).sum::<u64>();
                            }
                        }
                    }
                    queue.complete(idx, result);
                }
                if let Some(p) = profile {
                    p.record_worker(local);
                }
            });
        }
        // Merge on this thread, in morsel order.
        let profile = ctx.profile.as_deref();
        loop {
            let wait = profile.map(|_| Instant::now());
            let next = queue.take_next();
            if let (Some(p), Some(wait)) = (profile, wait) {
                p.record_merge_wait(wait.elapsed().as_nanos() as u64);
            }
            match next {
                // Already dense: the set takes each batch as it is.
                Ok(Some(batches)) => batches.into_iter().for_each(|b| out.push(b)),
                Ok(None) => return Ok(()),
                Err(e) => {
                    queue.abort();
                    return Err(e);
                }
            }
        }
    });
    merged?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn merge_queue_orders_and_bounds_claims() {
        let q = MergeQueue::new(5, 2);
        let a = q.claim().unwrap();
        let b = q.claim().unwrap();
        assert_eq!((a, b), (0, 1));
        q.complete(1, Ok(Vec::new()));
        q.complete(0, Ok(Vec::new()));
        assert!(q.take_next().unwrap().is_some()); // morsel 0
        assert!(q.take_next().unwrap().is_some()); // morsel 1
        assert_eq!(q.claim(), Some(2));
    }

    #[test]
    fn merge_queue_surfaces_worker_errors() {
        let q = MergeQueue::new(2, 4);
        assert_eq!(q.claim(), Some(0));
        q.complete(0, Err(SeqError::Unsupported("boom".into())));
        assert!(q.claim().is_none());
        assert!(q.take_next().is_err());
    }
}
