//! Steps 1–2 of Algorithm 2 over one flat, reusable buffer.
//!
//! [`top_worker_set`](crate::top_worker_set) and
//! [`greedy_assign`](crate::greedy_assign) state Definition 3 and
//! Algorithm 3 directly: one `Vec` and one sort per task, then a sort of
//! the sets that recomputes each average inside every comparison, a hash
//! set of used workers and a cloned `Vec` per winner. An online request
//! needs one answer out of all that — the task the *requesting* worker
//! gets — so [`TopSetBuffer`] keeps every set's workers back to back in
//! one vector that lives across requests, keeps each set's top `k'` by
//! bounded insertion in `top_worker_set`'s exact order (score descending
//! by `total_cmp`, worker id ascending), computes each average once in
//! the same summation order, and walks Algorithm 3 only until the
//! requester's set is committed.
//!
//! The references stay the specification: the walk decides exactly what
//! `greedy_assign` decides for the requester, and the sets are bitwise
//! the references' sets (held there by `tests/assign_oracle.rs` and by
//! the framework's debug-build oracle).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use icrowd_core::task::TaskId;
use icrowd_core::worker::WorkerId;

/// One top worker set inside a [`TopSetBuffer`].
#[derive(Debug, Clone, Copy)]
struct SetHead {
    task: TaskId,
    remaining: usize,
    /// The set is `workers[start..end]`, highest score first.
    start: usize,
    end: usize,
    /// [`crate::TopWorkerSet::average_accuracy`] of the set.
    average: f64,
}

/// A borrowed view of one set in a [`TopSetBuffer`].
#[derive(Debug, Clone, Copy)]
pub struct TopSetView<'a> {
    /// The microtask.
    pub task: TaskId,
    /// The remaining capacity `k'` the set was built for.
    pub remaining: usize,
    /// Top workers with their estimated accuracies, highest first.
    pub workers: &'a [(WorkerId, f64)],
    /// Mean estimated accuracy of the set.
    pub average: f64,
}

/// Algorithm 3's walk order as a max-heap key: a greater key is
/// committed earlier — higher average first (by `total_cmp`), then the
/// smaller task id, then the set built first (the references' stable
/// sort).
type WalkKey = (i64, Reverse<TaskId>, Reverse<usize>);

/// An integer that orders as `f64::total_cmp` orders `x`: the
/// standard library's own key (flip the magnitude bits of negatives).
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Whether `a` ranks strictly before `b` in a top worker set: score
/// descending by `total_cmp`, worker id ascending.
fn ranks_before(a: (WorkerId, f64), b: (WorkerId, f64)) -> bool {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)) == Ordering::Less
}

/// Top worker sets of one request, built in place and walked once.
///
/// Build with [`Self::begin_set`], [`Self::offer`] per eligible worker
/// and [`Self::end_set`] per task (or [`Self::push_set`]); then decide
/// with [`Self::walk`] and [`Self::best_containing`]. [`Self::clear`]
/// empties it for the next request and keeps every allocation.
///
/// ```
/// use icrowd_assign::TopSetBuffer;
/// use icrowd_core::{TaskId, WorkerId};
///
/// let mut buf = TopSetBuffer::default();
/// buf.push_set(TaskId(0), 2, [(WorkerId(0), 0.9), (WorkerId(1), 0.8)]);
/// buf.push_set(TaskId(1), 1, [(WorkerId(1), 0.95)]); // conflicts on w1
/// buf.push_set(TaskId(2), 1, [(WorkerId(2), 0.6)]);
/// // t1 wins first (average 0.95), knocking out t0.
/// assert_eq!(buf.walk(WorkerId(1)), Some(TaskId(1)));
/// assert_eq!(buf.walk(WorkerId(0)), None);
/// assert_eq!(buf.best_containing(WorkerId(0)), Some(TaskId(0)));
/// assert_eq!(buf.walk(WorkerId(2)), Some(TaskId(2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TopSetBuffer {
    /// Finished non-empty sets, in build order.
    heads: Vec<SetHead>,
    /// Every set's workers, back to back.
    workers: Vec<(WorkerId, f64)>,
    /// The set under construction: task, `k'`, start in `workers`.
    building: Option<(TaskId, usize, usize)>,
    /// Heap storage for the walk, kept for its capacity.
    keys: Vec<WalkKey>,
    /// Walk bitmap by worker index: `used[w] == epoch` marks a worker
    /// of a set committed in the current walk.
    used: Vec<u32>,
    epoch: u32,
}

impl TopSetBuffer {
    /// Drops every set, keeping the allocations.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.workers.clear();
        self.building = None;
    }

    /// Starts the top worker set of `task` with remaining capacity
    /// `remaining` (`k'`).
    ///
    /// # Panics
    /// Panics if another set is still under construction.
    pub fn begin_set(&mut self, task: TaskId, remaining: usize) {
        assert!(self.building.is_none(), "begin_set before end_set");
        self.building = Some((task, remaining, self.workers.len()));
    }

    /// Offers one eligible worker to the set under construction. The
    /// set keeps the `k'` best offers in `top_worker_set`'s order; an
    /// offer that ties an earlier one exactly goes after it, as a stable
    /// sort would place it.
    ///
    /// # Panics
    /// Panics if no set is under construction.
    pub fn offer(&mut self, worker: WorkerId, score: f64) {
        let (_, remaining, start) = self.building.expect("offer outside begin_set/end_set");
        let entry = (worker, score);
        let end = self.workers.len();
        if end - start < remaining {
            self.workers.push(entry);
        } else if remaining > 0 && ranks_before(entry, self.workers[end - 1]) {
            // Full: the newcomer displaces the last member.
            self.workers[end - 1] = entry;
        } else {
            return;
        }
        // Bubble the newcomer up past every member it strictly outranks.
        let set = &mut self.workers[start..];
        let mut i = set.len() - 1;
        while i > 0 && ranks_before(set[i], set[i - 1]) {
            set.swap(i, i - 1);
            i -= 1;
        }
    }

    /// Finishes the set under construction: an empty set is dropped,
    /// as Algorithm 3 ignores it; otherwise its average is computed once.
    ///
    /// # Panics
    /// Panics if no set is under construction.
    pub fn end_set(&mut self) {
        let (task, remaining, start) = self.building.take().expect("end_set without begin_set");
        let members = &self.workers[start..];
        if members.is_empty() {
            return;
        }
        // The exact expression of `TopWorkerSet::average_accuracy`, so
        // the walk orders by the same bits.
        let average = members.iter().map(|&(_, p)| p).sum::<f64>() / members.len() as f64;
        self.heads.push(SetHead {
            task,
            remaining,
            start,
            end: self.workers.len(),
            average,
        });
    }

    /// Builds one whole set: [`Self::begin_set`], an [`Self::offer`] per
    /// eligible worker, [`Self::end_set`].
    pub fn push_set(
        &mut self,
        task: TaskId,
        remaining: usize,
        eligible: impl IntoIterator<Item = (WorkerId, f64)>,
    ) {
        self.begin_set(task, remaining);
        for (w, s) in eligible {
            self.offer(w, s);
        }
        self.end_set();
    }

    /// Number of non-empty sets.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether no non-empty set was built.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// The non-empty sets, in build order.
    pub fn sets(&self) -> impl Iterator<Item = TopSetView<'_>> + '_ {
        self.heads.iter().map(|h| self.view(h))
    }

    fn view(&self, head: &SetHead) -> TopSetView<'_> {
        TopSetView {
            task: head.task,
            remaining: head.remaining,
            workers: &self.workers[head.start..head.end],
            average: head.average,
        }
    }

    fn contains(&self, head: &SetHead, worker: WorkerId) -> bool {
        self.workers[head.start..head.end]
            .iter()
            .any(|&(w, _)| w == worker)
    }

    /// Algorithm 3 for one requester: the task of the committed set that
    /// contains `requester` in `greedy_assign`'s scheme over these sets,
    /// or `None` when no committed set contains her.
    ///
    /// Sets are popped from a heap in `greedy_assign`'s order and
    /// committed when disjoint from every earlier commitment, as there;
    /// the walk stops as soon as her set is committed, or once every
    /// set containing her has been knocked out.
    pub fn walk(&mut self, requester: WorkerId) -> Option<TaskId> {
        let mut pending = self
            .heads
            .iter()
            .filter(|h| self.contains(h, requester))
            .count();
        if pending == 0 {
            return None;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.used.fill(0);
            self.epoch = 1;
        }
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        keys.extend(
            self.heads
                .iter()
                .enumerate()
                .map(|(set, h)| (total_key(h.average), Reverse(h.task), Reverse(set))),
        );
        let mut heap = BinaryHeap::from(keys);
        let mut decision = None;
        while let Some((_, _, Reverse(set))) = heap.pop() {
            let head = self.heads[set];
            let mine = self.contains(&head, requester);
            let members = &self.workers[head.start..head.end];
            let conflicts = members
                .iter()
                .any(|&(w, _)| self.used.get(w.index()) == Some(&self.epoch));
            if conflicts {
                if mine {
                    pending -= 1;
                    if pending == 0 {
                        break;
                    }
                }
                continue;
            }
            if mine {
                decision = Some(head.task);
                break;
            }
            for &(w, _) in members {
                if self.used.len() <= w.index() {
                    self.used.resize(w.index() + 1, 0);
                }
                self.used[w.index()] = self.epoch;
            }
        }
        self.keys = heap.into_vec();
        decision
    }

    /// The conflict fallback for a requester the walk did not serve: of
    /// the sets that contain her, the one where her own score is highest,
    /// ties to the higher set average, then to the smaller task id — the
    /// task "to which w can contribute the most" (Section 4.1). `None`
    /// when no set contains her.
    pub fn best_containing(&self, requester: WorkerId) -> Option<TaskId> {
        self.sets()
            .filter_map(|set| {
                set.workers
                    .iter()
                    .find(|&&(w, _)| w == requester)
                    .map(|&(_, p)| (set.task, p, set.average))
            })
            .max_by(|(ta, pa, aa), (tb, pb, ab)| {
                // total_cmp: an all-NaN accuracy column (a worker with no
                // observations under fault load) must not panic the loop.
                pa.total_cmp(pb).then(aa.total_cmp(ab)).then(tb.cmp(ta))
            })
            .map(|(t, _, _)| t)
    }
}
