//! Worker sessions — a worker's interaction with one HIT.
//!
//! A session walks the Appendix-A flow: accept a HIT, repeatedly request
//! a microtask and submit an answer ("when the worker finishes the
//! microtask and clicks the Next link, we assign the next microtask"),
//! and finally submit the HIT for payment — or abandon it partway.

use icrowd_core::task::TaskId;
use icrowd_core::worker::Tick;

use crate::hit::HitId;

/// Where a session stands in the HIT lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Holding a HIT, ready to request the next microtask.
    Ready,
    /// A microtask has been assigned and awaits the worker's answer.
    Working(TaskId),
    /// The HIT was submitted (paid) or abandoned; the session is closed.
    Closed,
}

/// One worker's session on one HIT.
#[derive(Debug, Clone)]
pub struct WorkerSession {
    /// The platform-side worker identifier (AMT's opaque worker id).
    pub external_id: String,
    /// The HIT this session holds.
    pub hit: HitId,
    /// Microtasks answered so far within this HIT.
    pub answered: usize,
    /// Current state.
    pub state: SessionState,
    /// When the session started.
    pub started: Tick,
}

impl WorkerSession {
    /// Opens a session on `hit`.
    pub fn open(external_id: impl Into<String>, hit: HitId, now: Tick) -> Self {
        Self {
            external_id: external_id.into(),
            hit,
            answered: 0,
            state: SessionState::Ready,
            started: now,
        }
    }

    /// Marks a microtask as assigned.
    ///
    /// # Panics
    /// Panics unless the session is `Ready`.
    pub fn assign(&mut self, task: TaskId) {
        assert_eq!(
            self.state,
            SessionState::Ready,
            "can only assign to a ready session"
        );
        self.state = SessionState::Working(task);
    }

    /// Records the answer to the in-flight microtask, returning it.
    ///
    /// # Panics
    /// Panics unless the session is `Working`.
    pub fn complete_task(&mut self) -> TaskId {
        let SessionState::Working(task) = self.state else {
            panic!("no microtask in flight");
        };
        self.answered += 1;
        self.state = SessionState::Ready;
        task
    }

    /// Abandons the in-flight microtask without credit, returning it.
    /// Used when a submission is lost in transit or rejected: the worker
    /// goes back to `Ready` but her answer count is unchanged.
    ///
    /// # Panics
    /// Panics unless the session is `Working`.
    pub fn abort_task(&mut self) -> TaskId {
        let SessionState::Working(task) = self.state else {
            panic!("no microtask in flight");
        };
        self.state = SessionState::Ready;
        task
    }

    /// Whether the worker has answered the full HIT quota.
    pub fn hit_finished(&self, tasks_per_hit: usize) -> bool {
        self.answered >= tasks_per_hit
    }

    /// Closes the session (submission or abandonment).
    pub fn close(&mut self) {
        self.state = SessionState::Closed;
    }

    /// The task in flight, if any.
    pub fn in_flight(&self) -> Option<TaskId> {
        match self.state {
            SessionState::Working(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_walkthrough() {
        let mut s = WorkerSession::open("AMT-X", HitId(0), Tick(5));
        assert_eq!(s.state, SessionState::Ready);
        assert_eq!(s.in_flight(), None);

        s.assign(TaskId(3));
        assert_eq!(s.in_flight(), Some(TaskId(3)));
        assert_eq!(s.complete_task(), TaskId(3));
        assert_eq!(s.answered, 1);
        assert!(!s.hit_finished(10));
        assert!(s.hit_finished(1));

        s.close();
        assert_eq!(s.state, SessionState::Closed);
    }

    #[test]
    fn abort_returns_task_without_credit() {
        let mut s = WorkerSession::open("A", HitId(0), Tick(0));
        s.assign(TaskId(4));
        assert_eq!(s.abort_task(), TaskId(4));
        assert_eq!(s.answered, 0);
        assert_eq!(s.state, SessionState::Ready);
    }

    #[test]
    #[should_panic(expected = "ready session")]
    fn double_assignment_rejected() {
        let mut s = WorkerSession::open("A", HitId(0), Tick(0));
        s.assign(TaskId(0));
        s.assign(TaskId(1));
    }

    #[test]
    #[should_panic(expected = "no microtask in flight")]
    fn completing_without_assignment_rejected() {
        let mut s = WorkerSession::open("A", HitId(0), Tick(0));
        s.complete_task();
    }
}
