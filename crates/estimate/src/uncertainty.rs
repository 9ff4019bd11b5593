//! Step-3 uncertainty — beta-posterior variance over graph neighborhoods.
//!
//! When iCrowd actively tests an unassigned worker (Section 4.1, Step 3)
//! it prefers tasks where the estimate is *uncertain*: the worker has
//! completed `N = N1 + N0` microtasks similar to the candidate task, `N1`
//! judged correct and `N0` incorrect, and the uncertainty is the variance
//! of `Beta(N1 + 1, N0 + 1)`:
//!
//! ```text
//! (N1+1)(N0+1) / ((N1+N0+2)^2 (N1+N0+3))
//! ```
//!
//! "Similar to" means adjacent in the similarity graph (or the task
//! itself). Observations carry fractional correctness `q ∈ [0, 1]`, so
//! the counts are fractional: an answer with observed accuracy `q`
//! contributes `q` to `N1` and `1 − q` to `N0` of every neighboring task.

use icrowd_core::probability::beta_variance;
use icrowd_core::task::TaskId;
use icrowd_graph::SimilarityGraph;

use crate::row::TaskRow;

/// Per-task fractional evidence counts `(N1, N0)` for one worker.
///
/// Sparse: a worker's evidence only ever touches her observed tasks and
/// their graph neighbors, so the counts live in a task-keyed row (a
/// flat open-addressed table) over exactly those tasks. The dense
/// two-`Vec<f64>`-of-`|T|` layout wasted O(|T|) zeroed memory *per
/// worker*, and registering a worker mid-campaign paid that allocation
/// inside a single `request_task` call (a multi-hundred-µs spike at
/// Figure-10 scale). Absent entries read as zero evidence,
/// bit-identical to the dense representation. A withdrawn observation
/// leaves its cells in place, holding whatever its subtraction left.
/// The default holds no evidence and allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct NeighborhoodEvidence {
    counts: TaskRow<(f64, f64)>,
}

impl NeighborhoodEvidence {
    /// Records an observation with correctness `q` on `task`: the task
    /// itself and every graph neighbor gain `q` correct / `1 − q`
    /// incorrect fractional counts.
    pub fn record(&mut self, graph: &SimilarityGraph, task: TaskId, q: f64) {
        debug_assert!((0.0..=1.0).contains(&q));
        let cell = self.counts.entry(task.0);
        cell.0 += q;
        cell.1 += 1.0 - q;
        for (nb, _) in graph.neighbors(task) {
            let cell = self.counts.entry(nb.0);
            cell.0 += q;
            cell.1 += 1.0 - q;
        }
    }

    /// Withdraws a previously recorded observation (used when a
    /// re-grading replaces an observation — e.g. a late vote changes a
    /// task's Equation-(5) posterior — so evidence is never
    /// double-counted).
    pub fn withdraw(&mut self, graph: &SimilarityGraph, task: TaskId, q: f64) {
        debug_assert!((0.0..=1.0).contains(&q));
        let cell = self.counts.entry(task.0);
        cell.0 -= q;
        cell.1 -= 1.0 - q;
        for (nb, _) in graph.neighbors(task) {
            let cell = self.counts.entry(nb.0);
            cell.0 -= q;
            cell.1 -= 1.0 - q;
        }
    }

    /// The evidence counts `(N1, N0)` at `task`.
    pub fn counts(&self, task: TaskId) -> (f64, f64) {
        self.counts.get(task.0).copied().unwrap_or((0.0, 0.0))
    }

    /// The beta-posterior variance at `task` — the paper's Step-3
    /// uncertainty score. Tasks with no nearby evidence score the
    /// uniform-prior maximum `1/12`.
    pub fn variance(&self, task: TaskId) -> f64 {
        let (n1, n0) = self.counts(task);
        beta_variance(n1, n0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    fn path_graph() -> SimilarityGraph {
        SimilarityGraph::from_edges(4, &[(t(0), t(1), 0.9), (t(1), t(2), 0.9)])
    }

    #[test]
    fn evidence_reaches_neighbors_only() {
        let g = path_graph();
        let mut ev = NeighborhoodEvidence::default();
        ev.record(&g, t(0), 1.0);
        assert_eq!(ev.counts(t(0)), (1.0, 0.0));
        assert_eq!(ev.counts(t(1)), (1.0, 0.0), "direct neighbor sees it");
        assert_eq!(ev.counts(t(2)), (0.0, 0.0), "two hops away sees nothing");
        assert_eq!(ev.counts(t(3)), (0.0, 0.0), "isolated task sees nothing");
    }

    #[test]
    fn fractional_correctness_splits_counts() {
        let g = path_graph();
        let mut ev = NeighborhoodEvidence::default();
        ev.record(&g, t(1), 0.75);
        let (n1, n0) = ev.counts(t(1));
        assert!((n1 - 0.75).abs() < 1e-12);
        assert!((n0 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn variance_drops_as_evidence_accumulates() {
        let g = path_graph();
        let mut ev = NeighborhoodEvidence::default();
        let before = ev.variance(t(1));
        assert!((before - 1.0 / 12.0).abs() < 1e-12, "uniform prior");
        ev.record(&g, t(0), 1.0);
        let after_one = ev.variance(t(1));
        ev.record(&g, t(2), 1.0);
        ev.record(&g, t(1), 1.0);
        let after_three = ev.variance(t(1));
        assert!(after_one < before);
        assert!(after_three < after_one);
    }

    #[test]
    fn untouched_tasks_stay_maximally_uncertain() {
        let g = path_graph();
        let mut ev = NeighborhoodEvidence::default();
        ev.record(&g, t(0), 1.0);
        assert!((ev.variance(t(3)) - 1.0 / 12.0).abs() < 1e-12);
    }
}
