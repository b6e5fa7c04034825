//! Execution-mode lowering: which executor entry point runs the plan.
//!
//! All execution paths produce identical results, so this is a purely
//! physical decision made after plan selection (Step 6) — and a structural
//! one: nothing here is priced. The paper's costed physical choice is the
//! access mode (stream vs. probed, §3.3/§4.1), which the Step-5 DP has
//! already fixed in the plan's strategies. Which nodes then run a batch
//! kernel, which fall back to record cursors behind an adapter, and where a
//! filter's selection vector is densified all follow from the plan's shape
//! and live in one place, `seq-exec`'s lowering
//! ([`PhysNode::open_batch`], mirrored by [`PhysNode::exec_mode_labels`]).

use seq_core::Span;
use seq_exec::PhysNode;

/// Which executor entry point a plan should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Record-at-a-time cursors ([`seq_exec::execute`]).
    RecordAtATime,
    /// Vectorized batch kernels ([`seq_exec::execute_batched`]).
    Batched,
    /// Morsel-driven parallel batch pipelines
    /// ([`seq_exec::execute_parallel`]).
    Parallel {
        /// Worker thread count (always `>= 2` when selected).
        workers: usize,
    },
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::RecordAtATime => write!(f, "record-at-a-time"),
            ExecMode::Batched => write!(f, "batched"),
            ExecMode::Parallel { workers } => write!(f, "parallel({workers})"),
        }
    }
}

/// Decide the execution mode for a selected plan.
///
/// Parallel wins when the user asked for more than one worker *and* the
/// plan can be evaluated morsel-by-morsel: every operator position-
/// partitionable and the materialized range bounded (morsels are contiguous
/// position intervals). Otherwise the sequential batch path runs every plan
/// whose root has a native batch kernel; a kernel-less root (the naive
/// probe-walk strategies, `Constant`) would only re-batch the record
/// cursor's output behind an adapter, so it runs the record path directly.
pub fn choose_exec_mode(root: &PhysNode, parallelism: usize, range: Span) -> ExecMode {
    if parallelism > 1
        && root.is_position_partitionable()
        && range.intersect(&root.span()).is_bounded()
    {
        ExecMode::Parallel { workers: parallelism }
    } else if root.is_batch_capable() {
        ExecMode::Batched
    } else {
        ExecMode::RecordAtATime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seq_core::Span;
    use seq_exec::{AggStrategy, JoinStrategy};

    fn base() -> Box<PhysNode> {
        Box::new(PhysNode::Base { name: "A".into(), span: Span::new(1, 10) })
    }

    #[test]
    fn kernel_less_root_runs_the_record_path() {
        let span = Span::new(1, 10);
        assert_eq!(choose_exec_mode(&base(), 1, span), ExecMode::Batched);
        let agg = |strategy| PhysNode::Aggregate {
            input: base(),
            func: seq_ops::AggFunc::Sum,
            attr_index: 0,
            window: seq_ops::Window::Cumulative,
            strategy,
            span,
        };
        assert_eq!(choose_exec_mode(&agg(AggStrategy::CacheA), 1, span), ExecMode::Batched);
        // The naive probe-walk strategy has no batch kernel.
        let naive = agg(AggStrategy::NaiveProbe);
        assert_eq!(choose_exec_mode(&naive, 1, span), ExecMode::RecordAtATime);
        // Under a batch-capable root it is an adapter boundary, not a
        // reason to leave the batch path.
        let over = PhysNode::Project { input: Box::new(naive), indices: vec![0], span };
        assert_eq!(choose_exec_mode(&over, 1, span), ExecMode::Batched);
        assert_eq!(over.exec_mode_labels(true), vec!["batch", "tuple", "tuple"]);
    }

    #[test]
    fn parallel_mode_needs_partitionable_plan_and_bounded_range() {
        let span = Span::new(1, 10);
        let b = base();
        assert_eq!(choose_exec_mode(&b, 4, span), ExecMode::Parallel { workers: 4 });
        // Parallelism 1 is the sequential batch path.
        assert_eq!(choose_exec_mode(&b, 1, span), ExecMode::Batched);
        // Unbounded range: morsels are position intervals, so no parallel —
        // the single-threaded batch path still applies.
        let unbounded = PhysNode::Base { name: "A".into(), span: Span::all() };
        assert_eq!(choose_exec_mode(&unbounded, 4, Span::all()), ExecMode::Batched);
        // A non-partitionable root falls back to the sequential batch path.
        let voff = PhysNode::ValueOffset {
            input: base(),
            offset: -1,
            strategy: seq_exec::ValueOffsetStrategy::IncrementalCacheB,
            span,
        };
        assert_eq!(choose_exec_mode(&voff, 4, span), ExecMode::Batched);
        // A partitionable lock-step join of bases parallelizes.
        let compose = PhysNode::Compose {
            left: base(),
            right: base(),
            predicate: None,
            strategy: JoinStrategy::LockStep,
            span,
        };
        assert_eq!(choose_exec_mode(&compose, 4, span), ExecMode::Parallel { workers: 4 });
    }
}
