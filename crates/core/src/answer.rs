//! Answers, votes and per-task vote sets.

use std::fmt;

use crate::task::TaskId;
use crate::worker::WorkerId;

/// A worker's answer to a microtask.
///
/// Answers are small integers in `0..num_choices`; for the paper's binary
/// microtasks use [`Answer::YES`] and [`Answer::NO`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Answer(pub u8);

impl Answer {
    /// The affirmative choice of a binary microtask.
    pub const YES: Answer = Answer(1);
    /// The negative choice of a binary microtask.
    pub const NO: Answer = Answer(0);

    /// The answer as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// For a binary answer, the opposite choice.
    #[inline]
    pub fn negated(self) -> Answer {
        debug_assert!(self.0 < 2, "negated() is only defined for binary answers");
        Answer(1 - self.0)
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Answer::YES => write!(f, "YES"),
            Answer::NO => write!(f, "NO"),
            Answer(n) => write!(f, "choice{n}"),
        }
    }
}

/// A single (worker, answer) vote on a microtask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// The worker who voted.
    pub worker: WorkerId,
    /// The answer they gave.
    pub answer: Answer,
}

/// All votes collected so far for one microtask, with consensus bookkeeping.
///
/// A microtask is *globally completed* (Section 2.1) once at least
/// `(k+1)/2` of its `k` assigned workers agree on an answer; the agreed
/// answer is the *consensus answer* `ans*`.
#[derive(Debug, Clone)]
pub struct VoteSet {
    task: TaskId,
    assignment_size: usize,
    votes: Vec<Vote>,
    counts: Vec<u32>,
}

impl VoteSet {
    /// Creates an empty vote set for `task` with `num_choices` possible
    /// answers and assignment size `k`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `num_choices < 2`.
    pub fn new(task: TaskId, num_choices: u8, k: usize) -> Self {
        assert!(k > 0, "assignment size k must be positive");
        assert!(num_choices >= 2, "a microtask needs at least two choices");
        Self {
            task,
            assignment_size: k,
            votes: Vec::with_capacity(k),
            counts: vec![0; num_choices as usize],
        }
    }

    /// The task this vote set belongs to.
    #[inline]
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// The assignment size `k`.
    #[inline]
    pub fn assignment_size(&self) -> usize {
        self.assignment_size
    }

    /// Records a vote.
    ///
    /// # Errors
    /// * [`crate::CoreError::DuplicateVote`] if the worker already voted.
    /// * [`crate::CoreError::InvalidAnswer`] if the answer is out of range.
    /// * [`crate::CoreError::AssignmentExhausted`] if `k` votes were already
    ///   collected.
    pub fn record(&mut self, vote: Vote) -> Result<(), crate::CoreError> {
        if vote.answer.index() >= self.counts.len() {
            return Err(crate::CoreError::InvalidAnswer {
                task: self.task,
                answer: vote.answer,
            });
        }
        if self.votes.len() >= self.assignment_size {
            return Err(crate::CoreError::AssignmentExhausted { task: self.task });
        }
        if self.votes.iter().any(|v| v.worker == vote.worker) {
            return Err(crate::CoreError::DuplicateVote {
                task: self.task,
                worker: vote.worker,
            });
        }
        self.counts[vote.answer.index()] += 1;
        self.votes.push(vote);
        Ok(())
    }

    /// The votes recorded so far, in arrival order.
    #[inline]
    pub fn votes(&self) -> &[Vote] {
        &self.votes
    }

    /// Number of votes recorded so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.votes.len()
    }

    /// Whether no votes have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.votes.is_empty()
    }

    /// Per-answer vote counts, indexed by answer.
    #[inline]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The consensus answer, if some answer has reached at least
    /// `(k+1)/2` votes (strict majority of the assignment size).
    ///
    /// With odd `k` this is exactly the paper's condition; for even `k` the
    /// threshold `(k+1)/2` rounded up (i.e. `k/2 + 1`) preserves "more than
    /// half".
    pub fn consensus(&self) -> Option<Answer> {
        let threshold = (self.assignment_size / 2 + 1) as u32;
        self.counts
            .iter()
            .position(|&c| c >= threshold)
            .map(|i| Answer(i as u8))
    }

    /// Whether the task is globally completed (a consensus answer exists).
    #[inline]
    pub fn is_globally_completed(&self) -> bool {
        self.consensus().is_some()
    }

    /// Workers who have voted, in arrival order.
    pub fn voters(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.votes.iter().map(|v| v.worker)
    }

    /// The answer a specific worker gave, if any.
    pub fn answer_of(&self, worker: WorkerId) -> Option<Answer> {
        self.votes
            .iter()
            .find(|v| v.worker == worker)
            .map(|v| v.answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vote(w: u32, a: Answer) -> Vote {
        Vote {
            worker: WorkerId(w),
            answer: a,
        }
    }

    #[test]
    fn answer_display_and_negate() {
        assert_eq!(Answer::YES.to_string(), "YES");
        assert_eq!(Answer::NO.to_string(), "NO");
        assert_eq!(Answer(3).to_string(), "choice3");
        assert_eq!(Answer::YES.negated(), Answer::NO);
        assert_eq!(Answer::NO.negated(), Answer::YES);
    }

    #[test]
    fn consensus_requires_majority_of_k() {
        let mut vs = VoteSet::new(TaskId(0), 2, 3);
        vs.record(vote(1, Answer::YES)).unwrap();
        assert_eq!(vs.consensus(), None);
        vs.record(vote(2, Answer::NO)).unwrap();
        assert_eq!(vs.consensus(), None);
        vs.record(vote(3, Answer::YES)).unwrap();
        assert_eq!(vs.consensus(), Some(Answer::YES));
        assert!(vs.is_globally_completed());
    }

    #[test]
    fn early_consensus_with_first_two_votes() {
        let mut vs = VoteSet::new(TaskId(0), 2, 3);
        vs.record(vote(1, Answer::NO)).unwrap();
        vs.record(vote(2, Answer::NO)).unwrap();
        // 2 >= (3+1)/2 = 2: globally completed before the third vote arrives.
        assert_eq!(vs.consensus(), Some(Answer::NO));
    }

    #[test]
    fn duplicate_vote_rejected() {
        let mut vs = VoteSet::new(TaskId(0), 2, 3);
        vs.record(vote(1, Answer::YES)).unwrap();
        let err = vs.record(vote(1, Answer::NO)).unwrap_err();
        assert!(matches!(err, crate::CoreError::DuplicateVote { .. }));
    }

    #[test]
    fn out_of_range_answer_rejected() {
        let mut vs = VoteSet::new(TaskId(0), 2, 3);
        let err = vs.record(vote(1, Answer(2))).unwrap_err();
        assert!(matches!(err, crate::CoreError::InvalidAnswer { .. }));
    }

    #[test]
    fn capacity_enforced() {
        let mut vs = VoteSet::new(TaskId(0), 2, 1);
        vs.record(vote(1, Answer::YES)).unwrap();
        let err = vs.record(vote(2, Answer::YES)).unwrap_err();
        assert!(matches!(err, crate::CoreError::AssignmentExhausted { .. }));
    }

    #[test]
    fn three_way_disagreement_has_no_consensus() {
        // k = 3, three choices, all three votes disagree: no consensus.
        let mut vs = VoteSet::new(TaskId(0), 3, 3);
        vs.record(vote(1, Answer(0))).unwrap();
        vs.record(vote(2, Answer(1))).unwrap();
        vs.record(vote(3, Answer(2))).unwrap();
        assert_eq!(vs.consensus(), None);
    }

    #[test]
    fn answer_of_finds_worker_vote() {
        let mut vs = VoteSet::new(TaskId(0), 2, 3);
        vs.record(vote(7, Answer::YES)).unwrap();
        assert_eq!(vs.answer_of(WorkerId(7)), Some(Answer::YES));
        assert_eq!(vs.answer_of(WorkerId(8)), None);
    }
}
