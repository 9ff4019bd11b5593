//! Majority voting and answer aggregation (Section 2.1).
//!
//! iCrowd derives a microtask's result by (weighted) majority voting over
//! the `k` collected answers. This module provides:
//!
//! * [`majority_vote`] — plain majority voting with deterministic,
//!   lowest-answer tie-breaking;
//! * [`weighted_majority_vote`] — votes weighted by per-worker accuracy
//!   (used by AvgAccPV-style aggregations);
//! * [`ConsensusState`] — bookkeeping for a whole task set: which tasks are
//!   globally completed and what their consensus answers are.

use std::collections::HashMap;

use crate::answer::{Answer, Vote, VoteSet};
use crate::task::{TaskId, TaskSet};
use crate::worker::WorkerId;

/// Result of a (weighted) majority vote.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoteOutcome {
    /// The winning answer.
    pub answer: Answer,
    /// The winner's (weighted) vote mass.
    pub support: f64,
    /// Total (weighted) vote mass cast.
    pub total: f64,
    /// Whether the top two answers tied exactly (winner chosen as the
    /// lowest answer index for determinism).
    pub tied: bool,
}

/// Plain majority voting over `votes` with `num_choices` possible answers.
///
/// Ties are broken toward the lowest answer index so results are
/// deterministic; the `tied` flag reports when this happened. Returns
/// `None` for an empty vote slice.
///
/// ```
/// use icrowd_core::{majority_vote, Answer, Vote, WorkerId};
/// let votes = vec![
///     Vote { worker: WorkerId(0), answer: Answer::YES },
///     Vote { worker: WorkerId(1), answer: Answer::NO },
///     Vote { worker: WorkerId(2), answer: Answer::YES },
/// ];
/// let outcome = majority_vote(&votes, 2).unwrap();
/// assert_eq!(outcome.answer, Answer::YES);
/// assert_eq!(outcome.support, 2.0);
/// ```
pub fn majority_vote(votes: &[Vote], num_choices: u8) -> Option<VoteOutcome> {
    weighted_majority_vote(votes, num_choices, |_| 1.0)
}

/// Majority voting where each worker's vote is weighted by `weight(worker)`.
///
/// Weights must be non-negative; a common choice is the worker's estimated
/// accuracy, or the paper's probabilistic-verification log-odds weights.
/// Returns `None` if `votes` is empty or all weights are zero.
pub fn weighted_majority_vote(
    votes: &[Vote],
    num_choices: u8,
    mut weight: impl FnMut(WorkerId) -> f64,
) -> Option<VoteOutcome> {
    if votes.is_empty() {
        return None;
    }
    let mut mass = vec![0.0f64; num_choices as usize];
    let mut total = 0.0;
    for v in votes {
        let w = weight(v.worker);
        debug_assert!(w >= 0.0, "vote weights must be non-negative");
        mass[v.answer.index()] += w;
        total += w;
    }
    if total == 0.0 {
        return None;
    }
    let (winner, &support) = mass
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.total_cmp(b).then(ib.cmp(ia)))
        .expect("num_choices >= 1");
    let tied = mass
        .iter()
        .enumerate()
        .any(|(i, &m)| i != winner && (m - support).abs() < f64::EPSILON * support.max(1.0));
    Some(VoteOutcome {
        answer: Answer(winner as u8),
        support,
        total,
        tied,
    })
}

/// Consensus bookkeeping for an entire task set.
///
/// Holds one [`VoteSet`] per microtask and tracks the set of *globally
/// completed* microtasks `T^d` together with their consensus answers.
#[derive(Debug, Clone)]
pub struct ConsensusState {
    vote_sets: Vec<VoteSet>,
    completed: Vec<Option<Answer>>,
    num_completed: usize,
}

impl ConsensusState {
    /// Creates consensus state for `tasks` with assignment size `k`.
    pub fn new(tasks: &TaskSet, k: usize) -> Self {
        let vote_sets = tasks
            .iter()
            .map(|t| VoteSet::new(t.id, t.num_choices, k))
            .collect::<Vec<_>>();
        let completed = vec![None; tasks.len()];
        Self {
            vote_sets,
            completed,
            num_completed: 0,
        }
    }

    /// Records a vote, returning the new consensus answer if this vote just
    /// globally completed the task.
    ///
    /// # Errors
    /// Propagates [`VoteSet::record`] errors and rejects unknown tasks.
    pub fn record(&mut self, task: TaskId, vote: Vote) -> Result<Option<Answer>, crate::CoreError> {
        let vs = self
            .vote_sets
            .get_mut(task.index())
            .ok_or(crate::CoreError::UnknownTask { task })?;
        vs.record(vote)?;
        if self.completed[task.index()].is_none() {
            if let Some(ans) = vs.consensus() {
                self.completed[task.index()] = Some(ans);
                self.num_completed += 1;
                return Ok(Some(ans));
            }
        }
        Ok(None)
    }

    /// Marks `task` as globally completed with a known answer without any
    /// crowd votes — used for qualification microtasks, whose answers the
    /// requester labelled herself (Section 2.2), so no crowd capacity is
    /// spent re-answering them.
    ///
    /// No-op if the task is already completed.
    pub fn preset(&mut self, task: TaskId, answer: Answer) {
        if self.completed[task.index()].is_none() {
            self.completed[task.index()] = Some(answer);
            self.num_completed += 1;
        }
    }

    /// The vote set of `task`.
    pub fn votes(&self, task: TaskId) -> &VoteSet {
        &self.vote_sets[task.index()]
    }

    /// The consensus answer of `task`, if globally completed.
    #[inline]
    pub fn consensus(&self, task: TaskId) -> Option<Answer> {
        self.completed[task.index()]
    }

    /// Whether `task` is globally completed.
    #[inline]
    pub fn is_completed(&self, task: TaskId) -> bool {
        self.completed[task.index()].is_some()
    }

    /// Number of globally completed tasks.
    #[inline]
    pub fn num_completed(&self) -> usize {
        self.num_completed
    }

    /// Total number of tasks tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.vote_sets.len()
    }

    /// Whether the state tracks no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vote_sets.is_empty()
    }

    /// Whether every task is globally completed.
    #[inline]
    pub fn all_completed(&self) -> bool {
        self.num_completed == self.vote_sets.len()
    }

    /// Ids of globally completed tasks (the paper's `T^d`).
    pub fn completed_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.completed
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(i, _)| TaskId(i as u32))
    }

    /// Workers already assigned to `task` (have voted), the paper's `W^d(t)`.
    pub fn assigned_workers(&self, task: TaskId) -> impl Iterator<Item = WorkerId> + '_ {
        self.vote_sets[task.index()].voters()
    }

    /// Falls back to majority voting on incomplete tasks to derive a final
    /// answer for every task; completed tasks keep their consensus.
    ///
    /// Used at campaign end to emit results for tasks whose vote sets never
    /// reached the `(k+1)/2` threshold (possible for `num_choices > 2` or
    /// when the campaign is truncated).
    pub fn final_answers(&self, tasks: &TaskSet) -> HashMap<TaskId, Answer> {
        let mut out = HashMap::with_capacity(self.vote_sets.len());
        for (i, vs) in self.vote_sets.iter().enumerate() {
            let id = TaskId(i as u32);
            let ans = self.completed[i]
                .or_else(|| majority_vote(vs.votes(), tasks[id].num_choices).map(|o| o.answer));
            if let Some(a) = ans {
                out.insert(id, a);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Microtask;

    fn vote(w: u32, a: Answer) -> Vote {
        Vote {
            worker: WorkerId(w),
            answer: a,
        }
    }

    fn tasks(n: u32) -> TaskSet {
        (0..n)
            .map(|i| Microtask::binary(TaskId(i), format!("task {i}")))
            .collect()
    }

    #[test]
    fn simple_majority() {
        let votes = vec![
            vote(1, Answer::YES),
            vote(2, Answer::NO),
            vote(3, Answer::YES),
        ];
        let out = majority_vote(&votes, 2).unwrap();
        assert_eq!(out.answer, Answer::YES);
        assert_eq!(out.support, 2.0);
        assert_eq!(out.total, 3.0);
        assert!(!out.tied);
    }

    #[test]
    fn tie_breaks_to_lowest_answer_and_flags() {
        let votes = vec![vote(1, Answer::YES), vote(2, Answer::NO)];
        let out = majority_vote(&votes, 2).unwrap();
        assert_eq!(out.answer, Answer::NO, "lowest answer index wins ties");
        assert!(out.tied);
    }

    #[test]
    fn weights_flip_the_outcome() {
        let votes = vec![
            vote(1, Answer::YES),
            vote(2, Answer::NO),
            vote(3, Answer::NO),
        ];
        // Worker 1 is far more reliable than the other two combined.
        let out = weighted_majority_vote(&votes, 2, |w| if w.0 == 1 { 0.99 } else { 0.3 }).unwrap();
        assert_eq!(out.answer, Answer::YES);
    }

    #[test]
    fn empty_and_zero_weight_votes_yield_none() {
        assert!(majority_vote(&[], 2).is_none());
        let votes = vec![vote(1, Answer::YES)];
        assert!(weighted_majority_vote(&votes, 2, |_| 0.0).is_none());
    }

    #[test]
    fn consensus_state_tracks_completion() {
        let ts = tasks(3);
        let mut cs = ConsensusState::new(&ts, 3);
        assert_eq!(cs.num_completed(), 0);
        assert!(cs
            .record(TaskId(0), vote(1, Answer::YES))
            .unwrap()
            .is_none());
        let done = cs.record(TaskId(0), vote(2, Answer::YES)).unwrap();
        assert_eq!(
            done,
            Some(Answer::YES),
            "2/3 same answers complete the task"
        );
        assert!(cs.is_completed(TaskId(0)));
        assert_eq!(cs.num_completed(), 1);
        assert_eq!(cs.completed_tasks().collect::<Vec<_>>(), vec![TaskId(0)]);
        // The third vote does not re-report completion.
        assert!(cs.record(TaskId(0), vote(3, Answer::NO)).unwrap().is_none());
        assert_eq!(cs.consensus(TaskId(0)), Some(Answer::YES));
    }

    #[test]
    fn unknown_task_rejected() {
        let ts = tasks(1);
        let mut cs = ConsensusState::new(&ts, 3);
        let err = cs.record(TaskId(9), vote(1, Answer::YES)).unwrap_err();
        assert!(matches!(err, crate::CoreError::UnknownTask { .. }));
    }

    #[test]
    fn final_answers_fall_back_to_majority() {
        let ts = tasks(2);
        let mut cs = ConsensusState::new(&ts, 3);
        // Task 0 completed; task 1 has a single vote (no consensus yet).
        cs.record(TaskId(0), vote(1, Answer::NO)).unwrap();
        cs.record(TaskId(0), vote(2, Answer::NO)).unwrap();
        cs.record(TaskId(1), vote(1, Answer::YES)).unwrap();
        let answers = cs.final_answers(&ts);
        assert_eq!(answers[&TaskId(0)], Answer::NO);
        assert_eq!(answers[&TaskId(1)], Answer::YES);
    }
}
