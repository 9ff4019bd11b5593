//! Workers, worker identifiers and activity tracking.
//!
//! The worker set in crowdsourcing is *dynamic* (Section 2.1): workers
//! appear, work for a while and leave. iCrowd's assignment Step 1
//! (Section 4.1) identifies *active* workers either by a time window since
//! their last request or by whether they currently hold a HIT; both signals
//! are represented here.

use std::fmt;

/// Identifier of a worker, dense and zero-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub u32);

impl WorkerId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0 + 1)
    }
}

/// Logical time, in platform ticks.
///
/// The simulator advances a logical clock; using ticks instead of wall-clock
/// `Instant`s keeps every experiment deterministic and replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(pub u64);

impl Tick {
    /// Tick zero.
    pub const ZERO: Tick = Tick(0);

    /// The tick `delta` ticks later.
    #[inline]
    pub fn plus(self, delta: u64) -> Tick {
        Tick(self.0 + delta)
    }

    /// Ticks elapsed since `earlier` (saturating).
    #[inline]
    pub fn since(self, earlier: Tick) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Mutable per-worker record kept by the framework.
#[derive(Debug, Clone)]
pub struct WorkerRecord {
    /// The worker's id.
    pub id: WorkerId,
    /// Opaque external handle (e.g. the AMT worker id string).
    pub external_id: String,
    /// Tick of the worker's most recent task request.
    pub last_request: Tick,
    /// Whether warm-up rejected this worker as unqualified (Section 2.2).
    pub rejected: bool,
    /// Number of answers this worker has submitted.
    pub completed: u32,
}

impl WorkerRecord {
    /// Creates a record for a newly seen worker.
    pub fn new(id: WorkerId, external_id: impl Into<String>, now: Tick) -> Self {
        Self {
            id,
            external_id: external_id.into(),
            last_request: now,
            rejected: false,
            completed: 0,
        }
    }
}

/// Tracks which workers are currently *active*.
///
/// A worker is active if she requested a task within the last
/// `window` ticks — the request signal of Section 4.1 Step 1. Rejected
/// workers are never active.
#[derive(Debug, Clone)]
pub struct ActivityTracker {
    window: u64,
    workers: Vec<WorkerRecord>,
}

impl ActivityTracker {
    /// Creates a tracker with the given activity window (in ticks).
    pub fn new(window: u64) -> Self {
        Self {
            window,
            workers: Vec::new(),
        }
    }

    /// The activity window in ticks.
    #[inline]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Registers a new worker, returning its dense id.
    pub fn register(&mut self, external_id: impl Into<String>, now: Tick) -> WorkerId {
        let id = WorkerId(u32::try_from(self.workers.len()).expect("more than u32::MAX workers"));
        self.workers.push(WorkerRecord::new(id, external_id, now));
        id
    }

    /// Finds the worker with the given external id.
    pub fn find_external(&self, external_id: &str) -> Option<WorkerId> {
        self.workers
            .iter()
            .find(|w| w.external_id == external_id)
            .map(|w| w.id)
    }

    /// Marks a task request from `worker` at `now`.
    pub fn touch(&mut self, worker: WorkerId, now: Tick) {
        if let Some(w) = self.workers.get_mut(worker.index()) {
            w.last_request = now;
        }
    }

    /// Marks `worker` as rejected by warm-up.
    pub fn reject(&mut self, worker: WorkerId) {
        if let Some(w) = self.workers.get_mut(worker.index()) {
            w.rejected = true;
        }
    }

    /// Increments the completed-answer counter of `worker`.
    pub fn record_completion(&mut self, worker: WorkerId) {
        if let Some(w) = self.workers.get_mut(worker.index()) {
            w.completed += 1;
        }
    }

    /// Replaces the contents of `out` with all workers active at `now`,
    /// in id order, so a caller can keep one buffer across calls.
    pub fn active_workers(&self, now: Tick, out: &mut Vec<WorkerId>) {
        out.clear();
        out.extend(
            self.workers
                .iter()
                .filter(|w| !w.rejected && now.since(w.last_request) < self.window)
                .map(|w| w.id),
        );
    }

    /// The record for `worker`, if registered.
    pub fn record(&self, worker: WorkerId) -> Option<&WorkerRecord> {
        self.workers.get(worker.index())
    }

    /// Number of registered workers (active or not).
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether no workers are registered.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Iterates over all worker records.
    pub fn iter(&self) -> impl Iterator<Item = &WorkerRecord> {
        self.workers.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_arithmetic() {
        let t = Tick(10);
        assert_eq!(t.plus(5), Tick(15));
        assert_eq!(Tick(15).since(t), 5);
        assert_eq!(t.since(Tick(15)), 0, "since() saturates");
        assert_eq!(t.to_string(), "@10");
    }

    #[test]
    fn register_and_find() {
        let mut tr = ActivityTracker::new(30);
        let a = tr.register("AMT-A", Tick(0));
        let b = tr.register("AMT-B", Tick(0));
        assert_eq!(a, WorkerId(0));
        assert_eq!(b, WorkerId(1));
        assert_eq!(tr.find_external("AMT-B"), Some(b));
        assert_eq!(tr.find_external("nope"), None);
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn activity_window_expires() {
        let mut tr = ActivityTracker::new(30);
        let w = tr.register("A", Tick(0));
        let mut active = Vec::new();
        let mut active_at = |tr: &ActivityTracker, now| {
            tr.active_workers(Tick(now), &mut active);
            active == [w]
        };
        assert!(active_at(&tr, 29));
        assert!(!active_at(&tr, 30));
        tr.touch(w, Tick(40));
        assert!(active_at(&tr, 69));
        assert!(!active_at(&tr, 70));
    }

    #[test]
    fn rejected_worker_is_never_active() {
        let mut tr = ActivityTracker::new(30);
        let w = tr.register("A", Tick(0));
        tr.reject(w);
        let mut active = vec![w];
        tr.active_workers(Tick(0), &mut active);
        assert!(active.is_empty());
    }

    #[test]
    fn active_workers_filters_by_now() {
        let mut tr = ActivityTracker::new(10);
        let a = tr.register("A", Tick(0));
        let _b = tr.register("B", Tick(0));
        tr.touch(a, Tick(20));
        let mut active = Vec::new();
        tr.active_workers(Tick(25), &mut active);
        assert_eq!(active, vec![a]);
    }

    #[test]
    fn completion_counter() {
        let mut tr = ActivityTracker::new(10);
        let w = tr.register("A", Tick(0));
        tr.record_completion(w);
        tr.record_completion(w);
        assert_eq!(tr.record(w).unwrap().completed, 2);
    }
}
