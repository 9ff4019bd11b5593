//! Worker performance testing — Step 3 of the assignment framework
//! (Section 4.1).
//!
//! After the optimal assignment, some active workers remain idle because
//! no top-worker set contains them — either iCrowd knows too little about
//! them or they rank below everyone on every task. Rather than waste
//! their request, iCrowd *tests* them on a microtask chosen by two
//! factors:
//!
//! 1. **Uncertainty** — prefer tasks where the worker's estimate carries
//!    high beta-posterior variance (little nearby evidence).
//! 2. **Co-worker quality** — prefer tasks whose already-assigned workers
//!    have high estimated accuracies, so the eventual consensus used to
//!    grade the tested worker is trustworthy.
//!
//! The score is the product of the two factors; candidates are tasks
//! with remaining capacity that the worker has not answered.

use icrowd_core::task::TaskId;
use icrowd_core::worker::WorkerId;
use icrowd_estimate::AccuracyEstimator;

/// Quality factor assigned to a task with no co-workers yet: below any
/// plausible mean co-worker accuracy so tested workers land next to
/// existing evidence when possible.
pub const EMPTY_COWORKER_QUALITY: f64 = 0.25;

/// Picks the performance-test microtask for an idle worker.
///
/// `candidates` yields `(task, current co-workers)` pairs with remaining
/// capacity that `worker` has not been assigned; the co-workers may be
/// any iterator, so a caller can pass borrowed lists. Returns `None`
/// when `candidates` is empty.
///
/// Score: `p̂(worker, task) × variance(worker, task) × quality(co-workers)`,
/// where quality is the mean estimated accuracy of the co-workers on the
/// task (or [`EMPTY_COWORKER_QUALITY`] when there are none). The paper's
/// two factors are variance and co-worker quality; we additionally weight
/// by the tested worker's own estimate so exploration spends its vote
/// where the worker is *plausibly* competent — a test whose subject is
/// probably wrong both risks the task's majority and yields a weak
/// Equation-(5) grading. Ties break toward the smaller task id.
pub fn performance_test_assignment<C>(
    estimator: &AccuracyEstimator,
    worker: WorkerId,
    candidates: impl IntoIterator<Item = (TaskId, C)>,
) -> Option<TaskId>
where
    C: IntoIterator<Item = WorkerId>,
{
    let mut best: Option<(f64, TaskId)> = None;
    for (task, coworkers) in candidates {
        let variance = estimator.uncertainty(worker, task);
        let mut count = 0usize;
        let sum: f64 = coworkers
            .into_iter()
            .inspect(|_| count += 1)
            .map(|cw| estimator.estimate(cw, task))
            .sum();
        let quality = if count == 0 {
            EMPTY_COWORKER_QUALITY
        } else {
            sum / count as f64
        };
        let own = estimator.estimate(worker, task);
        let score = own * variance * quality;
        let better = match best {
            None => true,
            Some((bs, bt)) => score > bs + 1e-15 || ((score - bs).abs() <= 1e-15 && task < bt),
        };
        if better {
            best = Some((score, task));
        }
    }
    best.map(|(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icrowd_core::answer::Answer;
    use icrowd_core::config::ICrowdConfig;
    use icrowd_estimate::EstimationMode;
    use icrowd_graph::SimilarityGraph;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    fn w(i: u32) -> WorkerId {
        WorkerId(i)
    }

    /// Tasks 0-1 form one topical block, tasks 2-3 another.
    fn estimator() -> AccuracyEstimator {
        let g = SimilarityGraph::from_edges(4, &[(t(0), t(1), 0.9), (t(2), t(3), 0.9)]);
        AccuracyEstimator::new(g, ICrowdConfig::default(), EstimationMode::Centered)
    }

    #[test]
    fn prefers_the_unexplored_block() {
        let mut e = estimator();
        // Worker answered tasks in block A; block B is unexplored.
        e.record_qualification(w(0), t(0), Answer::YES, Answer::YES);
        e.record_qualification(w(0), t(1), Answer::YES, Answer::YES);
        let candidates = vec![(t(1), vec![]), (t(2), vec![])];
        let pick = performance_test_assignment(&e, w(0), candidates);
        assert_eq!(
            pick,
            Some(t(2)),
            "the unexplored block carries higher variance"
        );
    }

    #[test]
    fn prefers_reliable_coworkers_at_equal_uncertainty() {
        let mut e = estimator();
        // Make worker 1 visibly good and worker 2 visibly bad on block B.
        e.record_qualification(w(1), t(2), Answer::YES, Answer::YES);
        e.record_qualification(w(1), t(3), Answer::YES, Answer::YES);
        e.record_qualification(w(2), t(2), Answer::NO, Answer::YES);
        e.record_qualification(w(2), t(3), Answer::NO, Answer::YES);
        // Worker 0 has no evidence anywhere: variance is equal on both
        // candidates; co-worker quality decides.
        let candidates = vec![(t(2), vec![w(2)]), (t(3), vec![w(1)])];
        let pick = performance_test_assignment(&e, w(0), candidates);
        assert_eq!(pick, Some(t(3)), "the good co-worker makes a better judge");
    }

    #[test]
    fn tasks_with_coworkers_beat_empty_tasks() {
        let mut e = estimator();
        e.record_qualification(w(1), t(2), Answer::YES, Answer::YES);
        let candidates = vec![(t(0), vec![]), (t(2), vec![w(1)])];
        let pick = performance_test_assignment(&e, w(0), candidates);
        assert_eq!(pick, Some(t(2)));
    }

    #[test]
    fn empty_candidates_yield_none() {
        let e = estimator();
        let none: Vec<(TaskId, Vec<WorkerId>)> = Vec::new();
        assert_eq!(performance_test_assignment(&e, w(0), none), None);
    }

    #[test]
    fn ties_break_to_smaller_task_id() {
        let e = estimator();
        // No evidence at all: both candidates score identically.
        let candidates = vec![(t(3), vec![]), (t(1), vec![])];
        let pick = performance_test_assignment(&e, w(0), candidates);
        assert_eq!(pick, Some(t(1)));
    }
}
