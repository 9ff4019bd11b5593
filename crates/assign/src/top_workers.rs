//! Top worker sets — Definition 3 of the paper.
//!
//! For an uncompleted microtask `t` with assigned workers `W^d(t)` (those
//! who completed it or are currently working on it), the *top worker set*
//! is the `k' = k − |W^d(t)|` eligible active workers with the highest
//! estimated accuracies `p_t^w`.

use icrowd_core::task::TaskId;
use icrowd_core::worker::WorkerId;

/// The top worker set of one microtask.
#[derive(Debug, Clone, PartialEq)]
pub struct TopWorkerSet {
    /// The microtask.
    pub task: TaskId,
    /// Top workers with their estimated accuracies, highest first.
    /// Contains at most `k'` entries — fewer when not enough active
    /// workers are eligible.
    pub workers: Vec<(WorkerId, f64)>,
    /// The remaining capacity `k'` (how many workers the task still
    /// needs).
    pub remaining: usize,
}

impl TopWorkerSet {
    /// Mean estimated accuracy of the set — Algorithm 3's selection
    /// score. Zero for an empty set.
    pub fn average_accuracy(&self) -> f64 {
        if self.workers.is_empty() {
            0.0
        } else {
            self.workers.iter().map(|&(_, p)| p).sum::<f64>() / self.workers.len() as f64
        }
    }

    /// Summed estimated accuracy — the objective contribution in
    /// Definition 4.
    pub fn total_accuracy(&self) -> f64 {
        self.workers.iter().map(|&(_, p)| p).sum()
    }

    /// The worker ids, highest accuracy first.
    pub fn worker_ids(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.workers.iter().map(|&(w, _)| w)
    }
}

/// Computes the top worker set of one task.
///
/// `eligible` are the active workers the task can still be assigned to
/// (`W^u(t)`, i.e. active workers minus `W^d(t)`), paired with their
/// estimated accuracies on this task. `remaining` is `k'`.
///
/// Workers are ranked by accuracy descending with worker-id ascending as
/// the deterministic tie-break.
pub fn top_worker_set(
    task: TaskId,
    eligible: impl IntoIterator<Item = (WorkerId, f64)>,
    remaining: usize,
) -> TopWorkerSet {
    let mut workers: Vec<(WorkerId, f64)> = eligible.into_iter().collect();
    workers.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    workers.truncate(remaining);
    TopWorkerSet {
        task,
        workers,
        remaining,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    fn w(i: u32) -> WorkerId {
        WorkerId(i)
    }

    #[test]
    fn ranks_by_accuracy_then_id() {
        let set = top_worker_set(
            t(0),
            vec![(w(3), 0.7), (w(1), 0.9), (w(2), 0.7), (w(0), 0.2)],
            3,
        );
        assert_eq!(
            set.workers,
            vec![(w(1), 0.9), (w(2), 0.7), (w(3), 0.7)],
            "ties break toward the smaller worker id"
        );
        assert!((set.average_accuracy() - (0.9 + 0.7 + 0.7) / 3.0).abs() < 1e-12);
        assert!((set.total_accuracy() - 2.3).abs() < 1e-12);
        assert_eq!(set.workers.len(), set.remaining);
    }

    #[test]
    fn respects_remaining_capacity() {
        // Paper's Table 3: t11 already has one assignee, so its top worker
        // set holds only k' = 2 workers.
        let set = top_worker_set(t(10), vec![(w(4), 0.85), (w(2), 0.8), (w(0), 0.6)], 2);
        assert_eq!(set.workers.len(), 2);
        assert_eq!(set.remaining, 2);
        assert_eq!(set.workers[0], (w(4), 0.85));
    }

    #[test]
    fn underfull_set_is_not_full() {
        let set = top_worker_set(t(0), vec![(w(0), 0.9)], 3);
        assert!(set.workers.len() < set.remaining);
        assert_eq!(set.average_accuracy(), 0.9);
        let empty = top_worker_set(t(0), vec![], 3);
        assert_eq!(empty.average_accuracy(), 0.0);
        assert!(empty.workers.is_empty());
    }
}
