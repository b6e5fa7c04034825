//! Execution-mode lowering: how many workers the plan runs with.
//!
//! Every execution path produces identical results, so this is a purely
//! physical decision made after plan selection (Step 6) — and a structural
//! one: nothing here is priced. The executor's run policy
//! ([`seq_exec::run_policy`]) makes it; this module labels it. The paper's
//! costed physical choice is the access mode (stream vs. probed,
//! §3.3/§4.1), which the Step-5 DP has already fixed in the plan's
//! strategies. Which nodes then run a batch
//! kernel, which are walked over their own probes, and where a filter's
//! selection vector is densified all follow from the plan's shape and live
//! in one place, `seq-exec`'s lowering ([`PhysNode::open_batch`], mirrored
//! by [`PhysNode::exec_mode_labels`]).

use seq_core::Span;
use seq_exec::{run_workers, ExecOptions, PhysNode};

/// The execution path a plan is lowered onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One sequential batch pipeline ([`seq_exec::Run::Sequential`] or
    /// [`seq_exec::Run::FewMorsels`]).
    Batched,
    /// Morsel-driven parallel batch pipelines ([`seq_exec::Run::Morsels`]).
    Parallel {
        /// Worker thread count (always `>= 2` when selected).
        workers: usize,
    },
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Batched => write!(f, "batched"),
            ExecMode::Parallel { workers } => write!(f, "parallel({workers})"),
        }
    }
}

/// Label the run policy's answer at `parallelism` workers with the threads
/// that actually run the plan: `batched` for one pipeline (a range of one
/// morsel included), else `parallel(min(parallelism, morsels))`.
pub fn choose_exec_mode(root: &PhysNode, parallelism: usize, range: Span) -> ExecMode {
    match run_workers(root, range, &ExecOptions::with_workers(parallelism)) {
        1 => ExecMode::Batched,
        workers => ExecMode::Parallel { workers },
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
    fn kernel_less_root_is_probe_walked_on_the_batch_path() {
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
        // The naive strategy has no batch kernel: it is walked over its own
        // probes, and opens its subtree in probed mode.
        let naive = agg(AggStrategy::NaiveProbe);
        assert_eq!(choose_exec_mode(&naive, 1, span), ExecMode::Batched);
        assert_eq!(naive.exec_mode_labels(), vec!["probe", "probe"]);
        let over = PhysNode::Project { input: Box::new(naive), indices: vec![0], span };
        assert_eq!(choose_exec_mode(&over, 1, span), ExecMode::Batched);
        assert_eq!(over.exec_mode_labels(), vec!["batch", "probe", "probe"]);
    }

    #[test]
    fn parallel_mode_needs_partitionable_plan_and_bounded_range() {
        let span = Span::new(1, 100_000);
        let b = Box::new(PhysNode::Base { name: "A".into(), span });
        assert_eq!(choose_exec_mode(&b, 4, span), ExecMode::Parallel { workers: 4 });
        // Parallelism 1 is the sequential batch path.
        assert_eq!(choose_exec_mode(&b, 1, span), ExecMode::Batched);
        // A range of one morsel runs as one pipeline, and says so.
        assert_eq!(choose_exec_mode(&b, 4, Span::new(1, 10)), ExecMode::Batched);
        assert_eq!(choose_exec_mode(&b, 4, Span::new(1, 4096)), ExecMode::Batched);
        // Two morsels are too few to pay for a helper thread.
        assert_eq!(choose_exec_mode(&b, 4, Span::new(1, 8192)), ExecMode::Batched);
        // The label counts the threads that run: three morsels, three workers.
        assert_eq!(choose_exec_mode(&b, 4, Span::new(1, 8193)), ExecMode::Parallel { workers: 3 });
        // Unbounded range: morsels are position intervals, so no parallel —
        // the single-threaded batch path still applies.
        let unbounded = PhysNode::Base { name: "A".into(), span: Span::all() };
        assert_eq!(choose_exec_mode(&unbounded, 4, Span::all()), ExecMode::Batched);
        // A non-partitionable root falls back to the sequential batch path.
        let voff = PhysNode::ValueOffset {
            input: b.clone(),
            offset: -1,
            strategy: seq_exec::ValueOffsetStrategy::IncrementalCacheB,
            span,
        };
        assert_eq!(choose_exec_mode(&voff, 4, span), ExecMode::Batched);
        // A partitionable lock-step join of bases parallelizes.
        let compose = PhysNode::Compose {
            left: b.clone(),
            right: b,
            predicate: None,
            strategy: JoinStrategy::LockStep,
            span,
        };
        assert_eq!(choose_exec_mode(&compose, 4, span), ExecMode::Parallel { workers: 4 });
    }
}
