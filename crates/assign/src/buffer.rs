//! Steps 1–2 of Algorithm 2 over one numbering of the active workers.
//!
//! [`top_worker_set`](crate::top_worker_set) and
//! [`greedy_assign`](crate::greedy_assign) state Definition 3 and
//! Algorithm 3 directly: one `Vec` and one sort per task, then a sort of
//! the sets that recomputes each average inside every comparison, a hash
//! set of used workers and a cloned `Vec` per winner. An online request
//! needs one answer out of all that — the task the *requesting* worker
//! gets — so [`TopSetBuffer`] works over state that lives across
//! requests:
//!
//! * **One numbering.** [`TopSetBuffer::number`] gives each of the
//!   request's active workers a slot, in ascending id. Every set records
//!   its members as a bitset over the slots, `⌈n/64⌉` words for `n`
//!   workers, so there is no worker-count limit.
//! * **Step 1.** Sets are built one task at a time. The workers who may
//!   not take the task (in the framework, its voters) go into one
//!   exclusion bitset; offers keep the set's top `k'` by bounded
//!   insertion in `top_worker_set`'s exact order (score descending by
//!   `total_cmp`, worker id ascending). [`TopSetBuffer::offer_columns`] offers every
//!   numbered worker from her dense estimate vector, so a request looks
//!   each vector up once. Finishing a set computes its average once, in
//!   the same summation order, and records its member bitset.
//! * **Step 2 in commit rounds.** Each round commits the highest-key set
//!   disjoint from the sets committed so far. A set that conflicts once
//!   conflicts for ever, so the rounds commit exactly `greedy_assign`'s
//!   sets in its order; the walk ends at the requester's set, or as soon
//!   as no unconflicted set contains her.
//!
//! The references stay the specification: the walk decides exactly what
//! `greedy_assign` decides for the requester, and the sets are bitwise
//! the references' sets (held there by `tests/assign_oracle.rs`). No
//! build replays them per request; `tests/failure_injection.rs` holds
//! the framework's two Step-1 entries to each other on random
//! campaigns.

use std::cmp::Ordering;

use icrowd_core::task::TaskId;
use icrowd_core::worker::WorkerId;

/// Bits per bitset word.
const WORD: usize = 64;

/// The slot of a worker outside the numbering.
const UNNUMBERED: u32 = u32::MAX;

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

/// Whether `a` ranks strictly before `b` in a top worker set: score
/// descending by `total_cmp`, worker id ascending.
fn ranks_before(a: (WorkerId, f64), b: (WorkerId, f64)) -> bool {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)) == Ordering::Less
}

/// Whether Algorithm 3 commits `a` before `b`: the higher average first
/// (by `total_cmp`), then the smaller task id. Between equal keys the
/// set built first goes first, as the references' stable sort has it.
fn walks_before(a: &SetHead, b: &SetHead) -> bool {
    a.average.total_cmp(&b.average).then(b.task.cmp(&a.task)) == Ordering::Greater
}

/// Top worker sets of one request, built in place and walked once.
///
/// Number the workers with [`Self::number`]. Build each set with
/// [`Self::begin_set`], [`Self::exclude`] for every worker who may not
/// take the task, [`Self::offer`] per worker or [`Self::offer_columns`]
/// for all of them, and [`Self::end_set`]. Then decide with
/// [`Self::walk`] and [`Self::best_containing`]. The next
/// [`Self::number`] drops every set and keeps every allocation.
///
/// ```
/// use icrowd_assign::TopSetBuffer;
/// use icrowd_core::{TaskId, WorkerId};
///
/// let mut buf = TopSetBuffer::default();
/// buf.number(&[WorkerId(0), WorkerId(1), WorkerId(2)]);
/// // Dense estimate vectors over tasks 0..3, one per numbered worker.
/// let columns: [&[f64]; 3] = [&[0.9, 0.2, 0.1], &[0.8, 0.95, 0.3], &[0.1, 0.1, 0.6]];
/// buf.begin_set(TaskId(0), 2);
/// buf.offer_columns(&columns);
/// buf.end_set();
/// buf.begin_set(TaskId(1), 1);
/// buf.exclude(WorkerId(0)); // w0 already voted on t1
/// buf.offer_columns(&columns);
/// buf.end_set();
/// buf.begin_set(TaskId(2), 1);
/// buf.exclude(WorkerId(1)); // w1 holds t2
/// buf.offer_columns(&columns);
/// buf.end_set();
/// // Sets: t0 = {w0, w1}, t1 = {w1}, t2 = {w2}. t1 wins first
/// // (average 0.95), knocking out t0 on w1; t2 is disjoint.
/// assert_eq!(buf.walk(WorkerId(1)), Some(TaskId(1)));
/// assert_eq!(buf.walk(WorkerId(0)), None);
/// assert_eq!(buf.best_containing(WorkerId(0)), Some(TaskId(0)));
/// assert_eq!(buf.walk(WorkerId(2)), Some(TaskId(2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TopSetBuffer {
    /// The numbering: slot `i` is worker `ids[i]`, ids ascending.
    ids: Vec<WorkerId>,
    /// Each numbered worker's slot by worker index; `UNNUMBERED` for
    /// every other index.
    slots: Vec<u32>,
    /// Words per bitset: `⌈ids.len() / 64⌉`.
    words: usize,
    /// Finished non-empty sets, in build order.
    heads: Vec<SetHead>,
    /// Every set's workers, back to back.
    workers: Vec<(WorkerId, f64)>,
    /// Each finished set's member bitset, `words` words per set.
    members: Vec<u64>,
    /// The set under construction: task, `k'`, start in `workers`.
    building: Option<(TaskId, usize, usize)>,
    /// The workers excluded from the set under construction.
    excluded: Vec<u64>,
    /// The walk's committed workers.
    used: Vec<u64>,
}

impl TopSetBuffer {
    /// Numbers `workers` — slot `i` is `workers[i]` — and drops every
    /// set, keeping the allocations.
    ///
    /// # Panics
    /// Panics unless the ids strictly ascend.
    pub fn number(&mut self, workers: &[WorkerId]) {
        assert!(
            workers.windows(2).all(|pair| pair[0] < pair[1]),
            "the numbering must list distinct workers in ascending id"
        );
        for w in self.ids.drain(..) {
            self.slots[w.index()] = UNNUMBERED;
        }
        for (slot, &w) in workers.iter().enumerate() {
            if self.slots.len() <= w.index() {
                self.slots.resize(w.index() + 1, UNNUMBERED);
            }
            self.slots[w.index()] = u32::try_from(slot).expect("slot fits in u32");
        }
        self.ids.extend_from_slice(workers);
        self.words = workers.len().div_ceil(WORD);
        self.heads.clear();
        self.workers.clear();
        self.members.clear();
        self.building = None;
        self.excluded.clear();
        self.excluded.resize(self.words, 0);
    }

    /// The slot of `worker`, or `None` when she is not numbered.
    #[inline]
    pub fn slot(&self, worker: WorkerId) -> Option<usize> {
        match self.slots.get(worker.index()) {
            Some(&slot) if slot != UNNUMBERED => Some(slot as usize),
            _ => None,
        }
    }

    /// Starts the top worker set of `task` with remaining capacity
    /// `remaining` (`k'`), excluding nobody yet.
    ///
    /// # Panics
    /// Panics if another set is still under construction.
    #[inline]
    pub fn begin_set(&mut self, task: TaskId, remaining: usize) {
        assert!(self.building.is_none(), "begin_set before end_set");
        self.building = Some((task, remaining, self.workers.len()));
        self.excluded.fill(0);
    }

    /// Excludes `worker` from the set under construction: her offers to
    /// it are refused. A worker outside the numbering is ignored.
    #[inline]
    pub fn exclude(&mut self, worker: WorkerId) {
        debug_assert!(self.building.is_some(), "exclude outside begin_set/end_set");
        if let Some(slot) = self.slot(worker) {
            self.excluded[slot / WORD] |= 1 << (slot % WORD);
        }
    }

    /// Offers the worker in `slot` at `score` to the set under
    /// construction, and returns whether she may take it (is not
    /// excluded). The set keeps the `k'` best offers in
    /// `top_worker_set`'s order, whatever order they arrive in.
    ///
    /// # Panics
    /// Panics if no set is under construction.
    #[inline]
    pub fn offer(&mut self, slot: usize, score: f64) -> bool {
        let (_, remaining, start) = self.building.expect("offer outside begin_set/end_set");
        if self.excluded[slot / WORD] & (1 << (slot % WORD)) != 0 {
            return false;
        }
        self.insert(start, remaining, (self.ids[slot], score));
        true
    }

    /// Offers every numbered worker to the set under construction at her
    /// score in `columns[slot]`, a dense estimate vector indexed by task.
    ///
    /// # Panics
    /// Panics if no set is under construction, or unless there is one
    /// column per numbered worker.
    #[inline]
    pub fn offer_columns(&mut self, columns: &[&[f64]]) {
        let (task, remaining, start) = self.building.expect("offer outside begin_set/end_set");
        assert_eq!(
            columns.len(),
            self.ids.len(),
            "one column per numbered worker"
        );
        for (slot, column) in columns.iter().enumerate() {
            if self.excluded[slot / WORD] & (1 << (slot % WORD)) == 0 {
                self.insert(start, remaining, (self.ids[slot], column[task.index()]));
            }
        }
    }

    /// Inserts `entry` into the set under construction, `workers[start..]`,
    /// keeping its best `remaining` entries in `top_worker_set`'s order.
    /// An entry that ties an earlier one exactly goes after it, as a
    /// stable sort would place it.
    fn insert(&mut self, start: usize, remaining: usize, entry: (WorkerId, f64)) {
        let end = self.workers.len();
        if end - start < remaining {
            self.workers.push(entry);
        } else if remaining > 0 && ranks_before(entry, self.workers[end - 1]) {
            // Full: the newcomer displaces the last member.
            self.workers[end - 1] = entry;
        } else {
            return;
        }
        // Bubble the newcomer up past every member it outranks.
        let set = &mut self.workers[start..];
        let mut i = set.len() - 1;
        while i > 0 && ranks_before(set[i], set[i - 1]) {
            set.swap(i, i - 1);
            i -= 1;
        }
    }

    /// Finishes the set under construction: an empty set is dropped, as
    /// Algorithm 3 ignores it; otherwise its average is computed once and
    /// its member bitset recorded.
    ///
    /// # Panics
    /// Panics if no set is under construction.
    #[inline]
    pub fn end_set(&mut self) {
        let (task, remaining, start) = self.building.take().expect("end_set without begin_set");
        let members = &self.workers[start..];
        if members.is_empty() {
            return;
        }
        // The exact expression of `TopWorkerSet::average_accuracy`, so
        // the walk orders by the same bits.
        let average = members.iter().map(|&(_, p)| p).sum::<f64>() / members.len() as f64;
        let base = self.members.len();
        self.members.resize(base + self.words, 0);
        for &(w, _) in members {
            let slot = self.slots[w.index()] as usize;
            self.members[base + slot / WORD] |= 1 << (slot % WORD);
        }
        self.heads.push(SetHead {
            task,
            remaining,
            start,
            end: self.workers.len(),
            average,
        });
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
        self.heads.iter().map(|h| TopSetView {
            task: h.task,
            remaining: h.remaining,
            workers: &self.workers[h.start..h.end],
            average: h.average,
        })
    }

    /// The member bitset of set `set`.
    fn mask(&self, set: usize) -> &[u64] {
        &self.members[set * self.words..(set + 1) * self.words]
    }

    /// Algorithm 3 for one requester: the task of the committed set that
    /// contains `requester` in `greedy_assign`'s scheme over these sets,
    /// or `None` when no committed set contains her.
    ///
    /// Each round commits the highest-key set disjoint from every set
    /// committed before it, which is the set `greedy_assign` commits
    /// next. The walk stops at the round that commits her set, or at the
    /// first round in which no unconflicted set contains her: conflicts
    /// only grow, so none ever will.
    pub fn walk(&mut self, requester: WorkerId) -> Option<TaskId> {
        let me = self.slot(requester)?;
        let (word, bit) = (me / WORD, 1u64 << (me % WORD));
        let mut used = std::mem::take(&mut self.used);
        used.clear();
        used.resize(self.words, 0);
        let decision = loop {
            // One round: the best set no commitment has knocked out.
            let mut best: Option<(&SetHead, &[u64])> = None;
            let mut reachable = false;
            for (head, mask) in self.heads.iter().zip(self.members.chunks_exact(self.words)) {
                if mask.iter().zip(&used).any(|(m, u)| m & u != 0) {
                    continue;
                }
                reachable |= mask[word] & bit != 0;
                if best.is_none_or(|(b, _)| walks_before(head, b)) {
                    best = Some((head, mask));
                }
            }
            if !reachable {
                break None;
            }
            let (head, mask) = best.expect("a set that contains her is unconflicted");
            if mask[word] & bit != 0 {
                break Some(head.task);
            }
            for (u, m) in used.iter_mut().zip(mask) {
                *u |= m;
            }
        };
        self.used = used;
        decision
    }

    /// The conflict fallback for a requester the walk did not serve: of
    /// the sets that contain her, the one where her own score is highest,
    /// ties to the higher set average, then to the smaller task id — the
    /// task "to which w can contribute the most" (Section 4.1). `None`
    /// when no set contains her.
    pub fn best_containing(&self, requester: WorkerId) -> Option<TaskId> {
        let me = self.slot(requester)?;
        let (word, bit) = (me / WORD, 1u64 << (me % WORD));
        self.sets()
            .enumerate()
            .filter(|&(set, _)| self.mask(set)[word] & bit != 0)
            .filter_map(|(_, set)| {
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
