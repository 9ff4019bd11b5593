//! The iCrowd framework — Figure 1 and Algorithm 2 of the paper.
//!
//! [`ICrowd`] plays the ExternalQuestion server role against a
//! crowdsourcing platform: on every worker request it decides an
//! assignment, and on every submitted answer it updates consensus state
//! and re-estimates the voters' accuracies. The assignment pipeline is
//! Algorithm 2:
//!
//! 1. **Top worker sets** — for every candidate microtask, the `k'`
//!    eligible active workers with the highest estimated accuracies.
//! 2. **Optimal assignment** — Algorithm 3's greedy disjoint packing;
//!    the requesting worker receives the task whose winning set contains
//!    her.
//! 3. **Performance testing** — if no winning set contains her, she is
//!    tested on the task maximizing estimate-uncertainty × co-worker
//!    quality.
//!
//! New workers first pass through [`crate::warmup::WarmUp`] on the
//! qualification microtasks (selected by influence maximization unless
//! overridden); workers whose qualification average falls below the
//! configured threshold are rejected and never assigned again.
//!
//! ## Candidate pools and scalability
//!
//! A campaign's pipeline is fixed when it is built. Uncapped (the
//! default), every open task with remaining capacity is a candidate each
//! round, scored from each active worker's dense estimate cache. On very
//! large sets (the Figure 10 regime) that is wasteful: accuracy evidence
//! only ever distinguishes tasks near the workers' completed ones, so
//! the builder's `candidate_limit` selects the capped pipeline for the
//! whole campaign. Its pool is the few best warm tasks from each active
//! worker's rank cache plus a rotating sample of other open tasks,
//! bounded by the limit. This is the "effective index structure" that
//! keeps per-request assignment cost independent of `|T|`.
//!
//! ## The incremental assignment hot path
//!
//! Under a candidate cap the framework maintains, instead of rebuilding
//! per request:
//!
//! * a per-worker **rank cache** (`rank`) of her open warm tasks —
//!   tasks with a populated estimator accumulator cell — keyed so set
//!   iteration yields descending score; patched on qualification
//!   answers (baseline shifts), task completions (cell deltas over the
//!   completed task's PPR support) and task closures;
//! * a **warm inverted index** (`warm`) from task id to the workers
//!   warm there with their exact scores, giving candidate scoring one
//!   lookup per task instead of one estimator probe per (worker, task);
//! * a **deadline-ordered lease queue** replacing the per-request
//!   O(workers) expiry sweep, and a **remaining-capacity counter**
//!   (`rem_cap`) replacing the per-candidate capacity-holder walk.
//!
//! Both modes then share one Step 1–3 pipeline over state kept across
//! requests: the candidate list and a flat [`TopSetBuffer`] of top
//! worker sets are cleared and refilled, never reallocated, and
//! Algorithm 3 is walked only until the requester's set is committed.
//! Uncapped, every open task with capacity is a candidate, scored from
//! each active worker's dense estimate cache; capped, the warm∪cold
//! subsets above feed the same buffer.
//!
//! The paper-level references, [`icrowd_assign::top_worker_set`] and
//! [`icrowd_assign::greedy_assign`], survive as the debug-mode oracle:
//! every request in a debug build re-derives the top worker sets from a
//! full active × candidates score matrix, asserts bitwise equality with
//! the buffer and that the walk decides what the greedy scheme decides,
//! and [`ICrowd::validate_incremental_state`] re-checks every maintained
//! structure against from-scratch recomputation.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use icrowd_assign::{performance_test_assignment, TopSetBuffer};
use icrowd_core::answer::{Answer, Vote};
use icrowd_core::config::ICrowdConfig;
use icrowd_core::task::{TaskId, TaskSet};
use icrowd_core::voting::ConsensusState;
use icrowd_core::worker::{ActivityTracker, Tick, WorkerId};
use icrowd_estimate::{AccuracyEstimator, EstimationMode};
use icrowd_graph::{LinearityIndex, SimilarityGraph};
use icrowd_platform::events::RejectReason;
use icrowd_platform::market::{ExternalQuestionServer, SubmitOutcome};
use icrowd_text::{CosineTfIdf, TaskSimilarity, Tokenizer};

use crate::warmup::WarmUp;

/// Which assignment strategy the framework runs (Section 6.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignStrategy {
    /// Full iCrowd: adaptive estimation + optimal assignment + testing.
    #[default]
    Adapt,
    /// Adaptive estimation, but each worker simply gets *her* best task.
    BestEffort,
    /// Estimation frozen after qualification; assignment as in `Adapt`.
    QfOnly,
}

impl AssignStrategy {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AssignStrategy::Adapt => "Adapt",
            AssignStrategy::BestEffort => "BestEffort",
            AssignStrategy::QfOnly => "QF-Only",
        }
    }
}

/// What kind of assignment a worker currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AssignmentKind {
    Warmup,
    Regular,
}

/// An outstanding assignment: the task a worker holds, under a deadline.
/// An assignment not answered by its deadline is reclaimed — the task's
/// capacity returns and it re-enters the candidate pool — and a late
/// answer for it is rejected rather than recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lease {
    task: TaskId,
    kind: AssignmentKind,
    deadline: Tick,
}

/// Step-3 stride cap on the uncapped path.
const MAX_TEST_CANDIDATES: usize = 256;
/// Step-3 stride cap on the capped fast path, where the candidate pool
/// is already small and per-candidate co-worker walks dominate.
const MAX_TEST_CANDIDATES_CAPPED: usize = 32;
/// Fresh candidate pulls per active worker from her rank cache.
const RANK_TOP_K: usize = 2;
/// Rank-cache entries scanned per worker while skipping full tasks.
const RANK_SCAN: usize = 16;
/// Rotating exploration sample per request on the capped fast path.
const EXPLORE_SAMPLE: usize = 8;

/// Builder for [`ICrowd`].
pub struct ICrowdBuilder {
    tasks: TaskSet,
    config: ICrowdConfig,
    strategy: AssignStrategy,
    mode: EstimationMode,
    graph: Option<SimilarityGraph>,
    index: Option<LinearityIndex>,
    qualification: Option<Vec<TaskId>>,
    candidate_limit: usize,
}

impl ICrowdBuilder {
    /// Starts a builder over the given microtasks.
    pub fn new(tasks: TaskSet) -> Self {
        Self {
            tasks,
            config: ICrowdConfig::default(),
            strategy: AssignStrategy::Adapt,
            mode: EstimationMode::default(),
            graph: None,
            index: None,
            qualification: None,
            candidate_limit: usize::MAX,
        }
    }

    /// Sets the framework configuration.
    pub fn config(mut self, config: ICrowdConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the assignment strategy.
    pub fn strategy(mut self, strategy: AssignStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the estimation mode (see [`EstimationMode`]).
    pub fn estimation_mode(mut self, mode: EstimationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Injects a pre-built similarity graph (otherwise one is built from
    /// `Cos(tf-idf)` over the task texts at the configured threshold).
    pub fn graph(mut self, graph: SimilarityGraph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Injects a prebuilt linearity index over the graph given to
    /// [`Self::graph`] (otherwise the estimator builds its own). Valid
    /// only together with `.graph(..)`.
    pub fn index(mut self, index: LinearityIndex) -> Self {
        self.index = Some(index);
        self
    }

    /// Builds the graph from an explicit similarity metric.
    pub fn metric<M: TaskSimilarity + Sync>(mut self, metric: &M) -> Self {
        let mut builder = icrowd_graph::GraphBuilder::new(self.config.similarity_threshold)
            .with_threads(self.config.ppr.threads);
        if let Some(m) = self.config.max_neighbors {
            builder = builder.with_max_neighbors(m);
        }
        self.graph = Some(builder.build(&self.tasks, metric));
        self
    }

    /// Overrides the qualification microtasks (otherwise selected by
    /// influence maximization, Algorithm 4). Every listed task must carry
    /// ground truth.
    pub fn qualification(mut self, tasks: Vec<TaskId>) -> Self {
        self.qualification = Some(tasks);
        self
    }

    /// Caps the per-request candidate pool, which selects the capped
    /// pipeline for the whole campaign under `Adapt` and `QfOnly` (see
    /// module docs). `BestEffort` ignores it. The default (`usize::MAX`)
    /// considers every open task.
    pub fn candidate_limit(mut self, limit: usize) -> Self {
        assert!(limit > 0, "candidate_limit must be positive");
        self.candidate_limit = limit;
        self
    }

    /// Builds the framework (runs offline graph + index construction and
    /// qualification selection, skipping whatever was injected).
    ///
    /// # Panics
    /// Panics if the configuration is invalid, an index was injected
    /// without a graph or does not match it, or a selected qualification
    /// microtask lacks ground truth.
    pub fn build(self) -> ICrowd {
        let _span = icrowd_obs::span!("framework.build");
        self.config.validate().expect("invalid configuration");
        assert!(
            self.index.is_none() || self.graph.is_some(),
            "ICrowdBuilder::index requires ICrowdBuilder::graph"
        );
        let graph = self.graph.unwrap_or_else(|| {
            let _span = icrowd_obs::span!("graph.build");
            let metric = CosineTfIdf::new(&self.tasks, &Tokenizer::new());
            let mut builder = icrowd_graph::GraphBuilder::new(self.config.similarity_threshold)
                .with_threads(self.config.ppr.threads);
            if let Some(m) = self.config.max_neighbors {
                builder = builder.with_max_neighbors(m);
            }
            builder.build(&self.tasks, &metric)
        });
        let estimator = match self.index {
            Some(index) => {
                AccuracyEstimator::with_index(graph, index, self.config.clone(), self.mode)
            }
            None => AccuracyEstimator::new(graph, self.config.clone(), self.mode),
        };
        let qualification = self.qualification.unwrap_or_else(|| {
            let _span = icrowd_obs::span!("qualification.select");
            icrowd_assign::select_qualification_influence(
                estimator.index(),
                self.config.warmup.num_qualification,
            )
        });
        let mut consensus = ConsensusState::new(&self.tasks, self.config.assignment_size);
        let mut open: BTreeSet<u32> = self.tasks.ids().map(|t| t.0).collect();
        for &q in &qualification {
            // The requester labelled the qualification tasks herself
            // (Section 2.2): their results are known up front and no crowd
            // capacity is spent re-answering them; warm-up answers feed
            // estimation only.
            let truth = self.tasks[q]
                .ground_truth
                .unwrap_or_else(|| panic!("qualification task {q} lacks ground truth"));
            consensus.preset(q, truth);
            open.remove(&q.0);
        }
        let cap16 =
            u16::try_from(self.config.assignment_size).expect("assignment_size fits in u16");
        let rem_cap = vec![cap16; self.tasks.len()];
        // Pre-sized so no request ever pays an O(|T|) resize mid-flight.
        let inflight_workers = vec![Vec::new(); self.tasks.len()];
        ICrowd {
            activity: ActivityTracker::new(self.config.activity_window),
            warmup: WarmUp::new(qualification),
            consensus,
            estimator,
            strategy: self.strategy,
            candidate_limit: self.candidate_limit,
            tasks: self.tasks,
            config: self.config,
            in_flight: Vec::new(),
            expired_last: Vec::new(),
            inflight_workers,
            lease_queue: BinaryHeap::new(),
            rem_cap,
            rank: Vec::new(),
            warm: BTreeMap::new(),
            open,
            open_cursor: 0,
            candidates: Vec::new(),
            sets: TopSetBuffer::default(),
            regular_assignments: Vec::new(),
            test_assignments: 0,
            early_stops: 0,
            declined_requests: 0,
            leases_expired: 0,
            answers_rejected: 0,
        }
    }
}

/// The iCrowd adaptive crowdsourcing server.
pub struct ICrowd {
    tasks: TaskSet,
    config: ICrowdConfig,
    strategy: AssignStrategy,
    estimator: AccuracyEstimator,
    consensus: ConsensusState,
    activity: ActivityTracker,
    warmup: WarmUp,
    /// In-flight assignment lease per worker index.
    in_flight: Vec<Option<Lease>>,
    /// The task of each worker's most recently expired lease, kept so a
    /// late answer can be classified as `LeaseExpired` (not merely
    /// `NotAssigned`) when it finally arrives.
    expired_last: Vec<Option<TaskId>>,
    /// Workers currently holding each task (regular assignments only).
    inflight_workers: Vec<Vec<WorkerId>>,
    /// Deadline-ordered queue of `(deadline, worker)` lease entries with
    /// lazy invalidation: renewals and consumed leases leave stale
    /// entries behind, and a popped entry only acts when it still matches
    /// the worker's live lease exactly (see [`Self::expire_leases`]).
    lease_queue: BinaryHeap<Reverse<(u64, u32)>>,
    /// Remaining capacity per task: `assignment_size − voters − holders`,
    /// maintained at every vote and lease transition so the hot path
    /// never walks capacity holders.
    rem_cap: Vec<u16>,
    /// Per-worker rank cache over her open *warm* tasks (tasks with an
    /// estimator accumulator cell), keyed by [`Self::rank_key`] so set
    /// iteration yields scores descending, ties by ascending task id.
    /// Only maintained under a candidate cap (see module docs).
    rank: Vec<BTreeSet<(u64, u32)>>,
    /// Inverse of `rank`: open task id → workers warm there with their
    /// exact scores, sorted by worker id. Only maintained under a cap.
    warm: BTreeMap<u32, Vec<(WorkerId, f64)>>,
    /// Open (not globally completed) task ids.
    open: BTreeSet<u32>,
    /// Round-robin cursor into `open` for candidate sampling.
    open_cursor: u32,
    candidate_limit: usize,
    /// This request's candidate tasks, ascending; refilled per request.
    candidates: Vec<TaskId>,
    /// This request's top worker sets; refilled per request.
    sets: TopSetBuffer,
    /// Regular (non-warmup) assignments per worker — Figure 15's metric.
    regular_assignments: Vec<u32>,
    /// Step-3 performance-test assignments issued.
    test_assignments: u64,
    /// Tasks completed early by the confidence-based stopping extension.
    early_stops: u64,
    /// Requests the server declined.
    declined_requests: u64,
    /// Assignment leases that expired and were reclaimed.
    leases_expired: u64,
    /// Submitted answers the server rejected.
    answers_rejected: u64,
}

impl ICrowd {
    /// The task set under crowdsourcing.
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// The configuration in force.
    pub fn config(&self) -> &ICrowdConfig {
        &self.config
    }

    /// The strategy in force.
    pub fn strategy(&self) -> AssignStrategy {
        self.strategy
    }

    /// The consensus state (votes, completions).
    pub fn consensus(&self) -> &ConsensusState {
        &self.consensus
    }

    /// The accuracy estimator.
    pub fn estimator(&self) -> &AccuracyEstimator {
        &self.estimator
    }

    /// The warm-up component.
    pub fn warmup(&self) -> &WarmUp {
        &self.warmup
    }

    /// Final answers for every task: consensus where reached, majority
    /// fallback elsewhere.
    pub fn results(&self) -> std::collections::HashMap<TaskId, Answer> {
        self.consensus.final_answers(&self.tasks)
    }

    /// Final answers with votes re-aggregated by *weighted* majority
    /// voting, each vote weighted by the voter's estimated accuracy on
    /// that task (Section 2.1 notes weighted majority voting as the
    /// accepted alternative; this uses the framework's own estimates as
    /// the weights). Qualification tasks keep their requester labels;
    /// tasks whose weighted vote is empty fall back to [`Self::results`].
    pub fn results_weighted(&self) -> std::collections::HashMap<TaskId, Answer> {
        let mut out = self.results();
        for t in self.tasks.ids() {
            let votes = self.consensus.votes(t).votes().to_vec();
            if votes.is_empty() {
                continue; // preset gold or never assigned: keep as-is
            }
            let num_choices = self.tasks[t].num_choices;
            let weighted = icrowd_core::voting::weighted_majority_vote(&votes, num_choices, |w| {
                self.estimator.estimate(w, t)
            });
            if let Some(o) = weighted {
                out.insert(t, o.answer);
            }
        }
        out
    }

    /// Regular assignments handed to each registered worker (Figure 15).
    pub fn assignment_distribution(&self) -> &[u32] {
        &self.regular_assignments
    }

    /// Regular assignments keyed by the workers' external (platform)
    /// ids, in registration order.
    pub fn worker_assignments(&self) -> Vec<(String, u32)> {
        self.activity
            .iter()
            .map(|r| {
                (
                    r.external_id.clone(),
                    self.regular_assignments[r.id.index()],
                )
            })
            .collect()
    }

    /// Step-3 performance-test assignments issued so far.
    pub fn test_assignments(&self) -> u64 {
        self.test_assignments
    }

    /// Tasks completed early by the confidence-stopping extension.
    pub fn early_stops(&self) -> u64 {
        self.early_stops
    }

    /// Requests declined so far.
    pub fn declined_requests(&self) -> u64 {
        self.declined_requests
    }

    /// Assignment leases that expired and were reclaimed so far.
    pub fn leases_expired(&self) -> u64 {
        self.leases_expired
    }

    /// Submitted answers rejected so far (duplicate, stale, unsolicited).
    pub fn answers_rejected(&self) -> u64 {
        self.answers_rejected
    }

    /// The lease duration in force.
    fn lease_len(&self) -> u64 {
        self.config
            .lease_ticks
            .unwrap_or(self.config.activity_window)
    }

    /// Counts and reports a rejected submission.
    fn reject(&mut self, reason: RejectReason) -> SubmitOutcome {
        self.answers_rejected += 1;
        icrowd_obs::counter_add(reason.counter_name(), 1);
        SubmitOutcome::Rejected(reason)
    }

    /// The dense worker id for an external id, registering new workers.
    fn worker_id(&mut self, external: &str, now: Tick) -> WorkerId {
        if let Some(w) = self.activity.find_external(external) {
            return w;
        }
        let w = self.activity.register(external, now);
        self.grow_worker_state(w);
        w
    }

    fn grow_worker_state(&mut self, w: WorkerId) {
        if self.in_flight.len() <= w.index() {
            self.in_flight.resize(w.index() + 1, None);
            self.expired_last.resize(w.index() + 1, None);
            self.regular_assignments.resize(w.index() + 1, 0);
        }
        if self.rank.len() <= w.index() {
            self.rank.resize_with(w.index() + 1, BTreeSet::new);
        }
        self.estimator.register_worker(w);
    }

    /// Workers consuming capacity on `task`: regular voters + in-flight.
    fn capacity_holders(&self, task: TaskId) -> impl Iterator<Item = WorkerId> + '_ {
        self.consensus
            .assigned_workers(task)
            .chain(self.inflight_workers[task.index()].iter().copied())
    }

    /// Whether `worker` may be assigned the candidate `task`: she neither
    /// voted on it nor holds it. Candidates are open tasks, and
    /// qualification tasks are never open (asserted by
    /// [`Self::validate_incremental_state`]), so warm-up history needs no
    /// check.
    fn eligible(&self, worker: WorkerId, task: TaskId) -> bool {
        self.consensus.votes(task).answer_of(worker).is_none()
            && !self.inflight_workers[task.index()].contains(&worker)
    }

    /// Remaining capacity of `task` — the maintained counter, O(1).
    fn remaining_capacity(&self, task: TaskId) -> usize {
        usize::from(self.rem_cap[task.index()])
    }

    /// Reclaims expired assignment leases: the holder's capacity is
    /// returned and the task re-enters the candidate pool. Generalizes
    /// the old inactivity-based purge — a lease's deadline is renewed by
    /// the worker's own re-requests, so an active worker never loses a
    /// live assignment, while a no-show forfeits hers after `lease_len`
    /// ticks whether or not she ever comes back.
    ///
    /// The queue is deadline-ordered with lazy invalidation, so each call
    /// costs O(expired · log queue) instead of a sweep over every
    /// registered worker. Per-worker expiry effects commute, so popping
    /// in deadline order reaches the exact state of the old id-order
    /// sweep.
    fn expire_leases(&mut self, now: Tick) {
        while let Some(&Reverse((deadline, wi))) = self.lease_queue.peek() {
            if deadline > now.0 {
                break;
            }
            self.lease_queue.pop();
            let w = WorkerId(wi);
            match self.in_flight.get(w.index()).copied().flatten() {
                Some(lease) if lease.deadline.0 == deadline => {
                    self.in_flight[w.index()] = None;
                    self.expired_last[w.index()] = Some(lease.task);
                    self.leases_expired += 1;
                    icrowd_obs::counter_add("lease.expired", 1);
                    if lease.kind == AssignmentKind::Regular {
                        if let Some(v) = self.inflight_workers.get_mut(lease.task.index()) {
                            v.retain(|&x| x != w);
                        }
                        self.rem_cap[lease.task.index()] += 1;
                    }
                }
                // Stale entry: the lease was renewed, consumed, or the
                // worker holds a newer one.
                _ => {}
            }
        }
    }

    /// Rotating exploration sampler: inserts open tasks with remaining
    /// capacity into `cand` starting at the persisted cursor, counting
    /// only *fresh* insertions toward `budget` — a task already pooled
    /// (e.g. from a rank cache overlapping the cursor window) must not
    /// silently shrink the exploration sample. A full-wrap guard
    /// terminates once every open task has been visited.
    fn sample_open_into(&mut self, cand: &mut BTreeSet<u32>, budget: usize) {
        let mut taken = 0usize;
        let mut wrapped = false;
        let mut cursor = self.open_cursor;
        let start = cursor;
        while taken < budget {
            match self.open.range(cursor..).next().copied() {
                Some(t) => {
                    if wrapped && t >= start {
                        break;
                    }
                    if self.rem_cap[t as usize] > 0 && cand.insert(t) {
                        taken += 1;
                    }
                    match t.checked_add(1) {
                        Some(c) => cursor = c,
                        None if !wrapped => {
                            wrapped = true;
                            cursor = 0;
                        }
                        None => break,
                    }
                }
                None if !wrapped => {
                    wrapped = true;
                    cursor = 0;
                }
                None => break,
            }
        }
        self.open_cursor = cursor;
    }

    /// The uncapped candidate pool: every open task with remaining
    /// capacity, ascending.
    fn candidate_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.open
            .iter()
            .map(|&t| TaskId(t))
            .filter(|&t| self.remaining_capacity(t) > 0)
    }

    /// Algorithm 2 for one requesting worker.
    fn adaptive_assign(&mut self, worker: WorkerId, now: Tick) -> Option<TaskId> {
        let mut active = self.activity.active_workers(now);
        if !active.contains(&worker) {
            active.push(worker);
        }
        // Keep only workers free to take a task right now.
        active.retain(|&w| self.in_flight.get(w.index()).copied().flatten().is_none());
        if !active.contains(&worker) {
            return None;
        }

        if self.capped() {
            return self.adaptive_assign_capped(worker, &active);
        }

        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        candidates.extend(self.candidate_tasks());
        let pick = if candidates.is_empty() {
            None
        } else {
            for &w in &active {
                self.estimator.accuracies(w);
            }
            // Step 1: top worker sets over the refreshed dense caches.
            // Eligibility is read once per task from its voters and
            // holders.
            let mut sets = std::mem::take(&mut self.sets);
            sets.clear();
            for &t in &candidates {
                let voters = self.consensus.votes(t).votes();
                let holders = &self.inflight_workers[t.index()];
                sets.begin_set(t, self.remaining_capacity(t));
                for &w in &active {
                    if !voters.iter().any(|v| v.worker == w) && !holders.contains(&w) {
                        sets.offer(w, self.estimator.accuracy_cached(w, t));
                    }
                }
                sets.end_set();
            }
            self.sets = sets;

            #[cfg(debug_assertions)]
            self.debug_assert_sets_match_oracle(worker, &active, &candidates);

            self.finish_assign(worker, &candidates, MAX_TEST_CANDIDATES)
        };
        self.candidates = candidates;
        pick
    }

    /// Steps 2–3 of Algorithm 2 over this request's top worker sets:
    /// greedy disjoint packing walked until the requester's set is
    /// committed, the requester's best containing set as the conflict
    /// fallback, and performance testing when no set contains her.
    fn finish_assign(
        &mut self,
        worker: WorkerId,
        candidates: &[TaskId],
        max_test: usize,
    ) -> Option<TaskId> {
        // Step 2: greedy optimal assignment; serve the requester if some
        // winning set contains her.
        if let Some(task) = self.sets.walk(worker) {
            return Some(task);
        }

        // The requester is a top worker for some tasks but lost the
        // packing to conflicts. Only her own assignment is executed right
        // now (the other winning sets re-form at their workers' next
        // requests), so serve her the task "to which w can contribute the
        // most" (Section 4.1): her best accuracy among the sets that
        // contain her. Step-3 testing is reserved for workers who are top
        // workers for NO task.
        if let Some(task) = self.sets.best_containing(worker) {
            return Some(task);
        }

        // Step 3: performance testing. On huge candidate pools a strided
        // sample suffices — any reasonably uncertain task does the job,
        // and scanning co-workers of thousands of tasks would reintroduce
        // the per-request cost the candidate cap removed.
        let eligible = || {
            candidates
                .iter()
                .copied()
                .filter(|&t| self.eligible(worker, t) && self.remaining_capacity(t) > 0)
        };
        let stride = (eligible().count() / max_test).max(1);
        let pick = performance_test_assignment(
            &self.estimator,
            worker,
            eligible()
                .step_by(stride)
                .map(|t| (t, self.capacity_holders(t))),
        );
        if pick.is_some() {
            self.test_assignments += 1;
            icrowd_obs::counter_add("assign.test", 1);
        }
        pick
    }

    /// Algorithm 2 on the capped fast path: candidates come from the
    /// incrementally maintained per-worker rank caches plus a rotating
    /// exploration sample, and each top worker set is assembled from the
    /// task's warm scores merged with a shared cold ranking instead of a
    /// full active × candidates score matrix. Produces sets bitwise
    /// identical to the full construction (asserted in debug builds by
    /// [`Self::debug_assert_sets_match_oracle`]).
    fn adaptive_assign_capped(&mut self, worker: WorkerId, active: &[WorkerId]) -> Option<TaskId> {
        // Candidate selection: the best few open-with-capacity tasks
        // from each active worker's rank cache, plus exploration.
        let mut cand: BTreeSet<u32> = BTreeSet::new();
        for &w in active {
            if cand.len() >= self.candidate_limit {
                break;
            }
            let Some(ranked) = self.rank.get(w.index()) else {
                continue;
            };
            let mut pulled = 0usize;
            for (scanned, &(_, t)) in ranked.iter().enumerate() {
                if pulled >= RANK_TOP_K
                    || scanned >= RANK_SCAN
                    || cand.len() >= self.candidate_limit
                {
                    break;
                }
                if self.rem_cap[t as usize] == 0 {
                    continue;
                }
                if cand.insert(t) {
                    pulled += 1;
                }
            }
        }
        let budget = EXPLORE_SAMPLE.min(self.candidate_limit.saturating_sub(cand.len()));
        self.sample_open_into(&mut cand, budget);
        if cand.is_empty() {
            return None;
        }
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        candidates.extend(cand.iter().copied().map(TaskId));

        // Shared cold ranking: every active worker at her absent-cell
        // score, ordered exactly as `top_worker_set` orders (score
        // descending, worker id ascending).
        let mut cold_rank: Vec<(WorkerId, f64)> = active
            .iter()
            .map(|&w| (w, self.estimator.baseline_score(w)))
            .collect();
        cold_rank.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let k = self.config.assignment_size;
        let mut active_mask = vec![false; self.in_flight.len()];
        for &w in active {
            active_mask[w.index()] = true;
        }

        // Step 1: top worker sets.
        let mut sets = std::mem::take(&mut self.sets);
        sets.clear();
        for &t in &candidates {
            let remaining = self.remaining_capacity(t);
            let warm_here = self.warm.get(&t.0);
            let any_active_warm =
                warm_here.is_some_and(|l| l.iter().any(|&(w, _)| active_mask[w.index()]));
            if !any_active_warm && remaining == k {
                // Cold and untouched: no votes, no holders, and no
                // warm-up history (qualification tasks are never open),
                // so every active worker is eligible at her cold score —
                // the set is a shared prefix of the cold ranking.
                sets.push_set(t, k, cold_rank.iter().copied().take(k));
                continue;
            }
            // Warm or partially filled: the true top-`remaining` set is
            // contained in (eligible warm actives) ∪ (the first
            // `remaining` eligible cold actives) — any later cold worker
            // is dominated by `remaining` earlier entries.
            sets.begin_set(t, remaining);
            if let Some(list) = warm_here {
                for &(w, s) in list {
                    if active_mask[w.index()] && self.eligible(w, t) {
                        sets.offer(w, s);
                    }
                }
            }
            let mut cold_taken = 0usize;
            for &(w, s) in &cold_rank {
                if cold_taken >= remaining {
                    break;
                }
                if warm_here.is_some_and(|l| l.binary_search_by_key(&w, |&(x, _)| x).is_ok()) {
                    continue;
                }
                if self.eligible(w, t) {
                    sets.offer(w, s);
                    cold_taken += 1;
                }
            }
            sets.end_set();
        }
        self.sets = sets;

        #[cfg(debug_assertions)]
        self.debug_assert_sets_match_oracle(worker, active, &candidates);

        let pick = self.finish_assign(worker, &candidates, MAX_TEST_CANDIDATES_CAPPED);
        self.candidates = candidates;
        pick
    }

    /// Debug-mode oracle for both paths: re-derives the top worker sets
    /// with the paper-level reference — a full active × candidates score
    /// matrix through the estimator, eligibility from the capacity
    /// holders and warm-up history, [`icrowd_assign::top_worker_set`]
    /// per task — and asserts the buffer matched bitwise and that the
    /// walk serves the requester exactly the task
    /// [`icrowd_assign::greedy_assign`]'s scheme gives her.
    #[cfg(debug_assertions)]
    fn debug_assert_sets_match_oracle(
        &mut self,
        worker: WorkerId,
        active: &[WorkerId],
        candidates: &[TaskId],
    ) {
        use icrowd_assign::{greedy_assign, top_worker_set, TopWorkerSet};
        let mut oracle: Vec<TopWorkerSet> = Vec::with_capacity(candidates.len());
        for &t in candidates {
            let remaining = self
                .config
                .assignment_size
                .saturating_sub(self.capacity_holders(t).count());
            if remaining == 0 {
                continue;
            }
            let eligible = active
                .iter()
                .filter(|&&w| self.eligible(w, t) && !self.warmup.has_answered(w, t))
                .map(|&w| (w, self.estimator.estimate(w, t)));
            let set = top_worker_set(t, eligible, remaining);
            if !set.workers.is_empty() {
                oracle.push(set);
            }
        }
        assert_eq!(
            oracle.len(),
            self.sets.len(),
            "oracle disagrees on set count"
        );
        for (a, b) in oracle.iter().zip(self.sets.sets()) {
            assert_eq!(a.task, b.task, "oracle disagrees on set task");
            let aw: Vec<(u32, u64)> = a.workers.iter().map(|&(w, s)| (w.0, s.to_bits())).collect();
            let bw: Vec<(u32, u64)> = b.workers.iter().map(|&(w, s)| (w.0, s.to_bits())).collect();
            assert_eq!(aw, bw, "oracle disagrees on workers of task {:?}", a.task);
            assert_eq!(
                a.average_accuracy().to_bits(),
                b.average.to_bits(),
                "oracle disagrees on the average of task {:?}",
                a.task
            );
        }
        let served = greedy_assign(&oracle)
            .into_iter()
            .find(|a| a.worker_ids().any(|w| w == worker))
            .map(|a| a.task);
        assert_eq!(
            self.sets.walk(worker),
            served,
            "the walk disagrees with greedy_assign for worker {worker:?}"
        );
    }

    /// Whether the capped pipeline and its incremental candidate caches
    /// are in force: a candidate cap was set and the strategy reads it
    /// (BestEffort ignores it). Fixed at build time.
    fn capped(&self) -> bool {
        self.candidate_limit != usize::MAX && self.strategy != AssignStrategy::BestEffort
    }

    /// Rank-cache key for a (score, task) pair. Scores are clamped to
    /// `[0, 1]` (never negative, never NaN), so complementing the
    /// IEEE-754 bits makes ascending `BTreeSet` order iterate scores
    /// descending, ties broken by ascending task id.
    fn rank_key(score: f64, task: u32) -> (u64, u32) {
        (!score.to_bits(), task)
    }

    /// Rebuilds one worker's rank/warm entries from the estimator's
    /// cell view. Called after qualification answers — a baseline shift
    /// moves every one of the worker's cell scores at once, so patching
    /// is no cheaper than rebuilding her (small) slice of the cache.
    fn refresh_worker_rank(&mut self, worker: WorkerId) {
        if !self.capped() {
            return;
        }
        let old = std::mem::take(&mut self.rank[worker.index()]);
        for &(_, t) in &old {
            if let Some(list) = self.warm.get_mut(&t) {
                if let Ok(pos) = list.binary_search_by_key(&worker, |&(w, _)| w) {
                    list.remove(pos);
                }
                if list.is_empty() {
                    self.warm.remove(&t);
                }
            }
        }
        let mut fresh = old;
        fresh.clear();
        let Self {
            estimator,
            open,
            warm,
            ..
        } = self;
        for (t, s) in estimator.cell_scores(worker) {
            if !open.contains(&t.0) {
                continue;
            }
            fresh.insert(Self::rank_key(s, t.0));
            let list = warm.entry(t.0).or_default();
            match list.binary_search_by_key(&worker, |&(w, _)| w) {
                Ok(pos) => list[pos] = (worker, s),
                Err(pos) => list.insert(pos, (worker, s)),
            }
        }
        self.rank[worker.index()] = fresh;
    }

    /// Completion-time patch of the candidate caches: a completed task
    /// changes its voters' cells over exactly the support of its PPR
    /// vector (and no baselines), so only those (voter, task) entries
    /// are re-scored.
    fn record_completion_capped(&mut self, task: TaskId, votes: &[Vote], consensus: Answer) {
        let support: Vec<u32> = self.estimator.index().vector(task).support().collect();
        for v in votes {
            let w = v.worker;
            for &j in &support {
                if let Some(list) = self.warm.get_mut(&j) {
                    if let Ok(pos) = list.binary_search_by_key(&w, |&(x, _)| x) {
                        let (_, old_score) = list[pos];
                        list.remove(pos);
                        if list.is_empty() {
                            self.warm.remove(&j);
                        }
                        if let Some(ranked) = self.rank.get_mut(w.index()) {
                            ranked.remove(&Self::rank_key(old_score, j));
                        }
                    }
                }
            }
        }
        self.estimator.record_completed_task(task, votes, consensus);
        let Self {
            estimator,
            open,
            warm,
            rank,
            ..
        } = self;
        for v in votes {
            let w = v.worker;
            for &j in &support {
                if !open.contains(&j) {
                    continue;
                }
                if let Some(s) = estimator.cell_score(w, TaskId(j)) {
                    rank[w.index()].insert(Self::rank_key(s, j));
                    let list = warm.entry(j).or_default();
                    match list.binary_search_by_key(&w, |&(x, _)| x) {
                        Ok(pos) => list[pos] = (w, s),
                        Err(pos) => list.insert(pos, (w, s)),
                    }
                }
            }
        }
    }

    /// Drops a completed task from every worker's candidate cache:
    /// closed tasks are never candidates again, so evicting them here
    /// keeps rank iteration free of per-entry open-set checks.
    fn purge_closed_candidate(&mut self, task: TaskId) {
        if let Some(list) = self.warm.remove(&task.0) {
            for (w, s) in list {
                if let Some(ranked) = self.rank.get_mut(w.index()) {
                    ranked.remove(&Self::rank_key(s, task.0));
                }
            }
        }
    }

    /// Asserts the incrementally maintained hot-path state against
    /// from-scratch recomputation: `rem_cap` vs counted capacity
    /// holders, the lease queue covering every live lease, and (under a
    /// candidate cap) the rank/warm caches against the estimator's cell
    /// view. Debug builds run this after every request; the fault-plan
    /// equivalence tests call it explicitly.
    ///
    /// # Panics
    /// Panics if any maintained structure drifted from its oracle.
    pub fn validate_incremental_state(&self) {
        // rem_cap mirrors assignment_size − holders wherever it can
        // matter: open tasks and tasks with live leases.
        let mut check: BTreeSet<u32> = self.open.iter().copied().collect();
        check.extend(self.in_flight.iter().flatten().map(|l| l.task.0));
        for &tid in &check {
            let t = TaskId(tid);
            let swept = self
                .config
                .assignment_size
                .saturating_sub(self.capacity_holders(t).count());
            assert_eq!(
                usize::from(self.rem_cap[t.index()]),
                swept,
                "rem_cap drifted from recomputation on task {tid}"
            );
        }
        // Candidates are open tasks, so eligibility skips warm-up history.
        for q in self.warmup.qualification_tasks() {
            assert!(!self.open.contains(&q.0), "qualification task {q} is open");
        }
        // Every live lease is covered by a queue entry at its exact
        // deadline (lazy invalidation only ever leaves *extra* entries).
        let queued: std::collections::HashSet<(u64, u32)> =
            self.lease_queue.iter().map(|r| r.0).collect();
        for (wi, lease) in self.in_flight.iter().enumerate() {
            if let Some(l) = lease {
                let w = u32::try_from(wi).expect("worker id fits in u32");
                assert!(
                    queued.contains(&(l.deadline.0, w)),
                    "live lease of worker {wi} missing from the deadline queue"
                );
            }
        }
        if !self.capped() {
            return;
        }
        // Rank caches mirror the estimator's cell view over open tasks.
        for (wi, ranked) in self.rank.iter().enumerate() {
            let w = WorkerId(u32::try_from(wi).expect("worker id fits in u32"));
            let expect: BTreeSet<(u64, u32)> = self
                .estimator
                .cell_scores(w)
                .filter(|(t, _)| self.open.contains(&t.0))
                .map(|(t, s)| Self::rank_key(s, t.0))
                .collect();
            assert_eq!(
                ranked, &expect,
                "rank cache drifted from the estimator for worker {wi}"
            );
        }
        // The warm index is the exact inverse of the rank caches.
        let mut inverse: BTreeMap<u32, Vec<(u32, u64)>> = BTreeMap::new();
        for (wi, ranked) in self.rank.iter().enumerate() {
            for &(key, t) in ranked {
                inverse
                    .entry(t)
                    .or_default()
                    .push((u32::try_from(wi).expect("worker id fits in u32"), !key));
            }
        }
        let warm_view: BTreeMap<u32, Vec<(u32, u64)>> = self
            .warm
            .iter()
            .map(|(&t, list)| (t, list.iter().map(|&(w, s)| (w.0, s.to_bits())).collect()))
            .collect();
        assert_eq!(warm_view, inverse, "warm index is not the inverse of rank");
    }

    /// The BestEffort strategy: the requester's own best eligible task,
    /// read from her refreshed dense cache. The rest of the crowd is
    /// ignored by definition.
    fn best_effort_assign(&mut self, worker: WorkerId) -> Option<TaskId> {
        self.estimator.accuracies(worker);
        self.candidate_tasks()
            .filter(|&t| self.eligible(worker, t))
            .map(|t| (t, self.estimator.accuracy_cached(worker, t)))
            .max_by(|(ta, a), (tb, b)| a.total_cmp(b).then(tb.cmp(ta)))
            .map(|(t, _)| t)
    }

    /// Records an assignment as in flight under a fresh lease.
    fn mark_in_flight(&mut self, worker: WorkerId, task: TaskId, kind: AssignmentKind, now: Tick) {
        let deadline = Tick(now.0 + self.lease_len());
        self.in_flight[worker.index()] = Some(Lease {
            task,
            kind,
            deadline,
        });
        self.lease_queue.push(Reverse((deadline.0, worker.0)));
        if kind == AssignmentKind::Regular {
            if self.inflight_workers.len() <= task.index() {
                self.inflight_workers.resize(task.index() + 1, Vec::new());
            }
            self.inflight_workers[task.index()].push(worker);
            self.regular_assignments[worker.index()] += 1;
            debug_assert!(self.rem_cap[task.index()] > 0, "assigned a full task");
            self.rem_cap[task.index()] -= 1;
        }
    }
}

impl ExternalQuestionServer for ICrowd {
    fn request_task(&mut self, external: &str, now: Tick) -> Option<TaskId> {
        let _span = icrowd_obs::span!("assign.loop");
        let worker = self.worker_id(external, now);
        self.activity.touch(worker, now);
        if self.activity.record(worker).is_some_and(|r| r.rejected) {
            self.declined_requests += 1;
            icrowd_obs::counter_add("assign.rejected_worker", 1);
            return None;
        }
        self.expire_leases(now);
        #[cfg(debug_assertions)]
        self.validate_incremental_state();

        // Idempotent re-request: hand back the task already in flight,
        // renewing its lease — the worker just proved she is alive. The
        // renewed deadline is re-queued; the old entry goes stale.
        let lease_len = self.lease_len();
        if let Some(lease) = self.in_flight[worker.index()] {
            let deadline = Tick(now.0 + lease_len);
            self.in_flight[worker.index()] = Some(Lease { deadline, ..lease });
            self.lease_queue.push(Reverse((deadline.0, worker.0)));
            icrowd_obs::counter_add("assign.repeat", 1);
            return Some(lease.task);
        }

        // Warm-up: qualification microtasks first.
        if self.warmup.in_warmup(worker) {
            let task = self.warmup.next_task(worker).expect("in_warmup checked");
            self.mark_in_flight(worker, task, AssignmentKind::Warmup, now);
            icrowd_obs::counter_add("assign.warmup", 1);
            return Some(task);
        }

        let assigned = match self.strategy {
            AssignStrategy::Adapt | AssignStrategy::QfOnly => self.adaptive_assign(worker, now),
            AssignStrategy::BestEffort => self.best_effort_assign(worker),
        };
        match assigned {
            Some(task) => {
                self.mark_in_flight(worker, task, AssignmentKind::Regular, now);
                icrowd_obs::counter_add("assign.issued", 1);
                Some(task)
            }
            None => {
                self.declined_requests += 1;
                icrowd_obs::counter_add("assign.declined", 1);
                None
            }
        }
    }

    fn submit_answer(
        &mut self,
        external: &str,
        task: TaskId,
        answer: Answer,
        now: Tick,
    ) -> SubmitOutcome {
        let _span = icrowd_obs::span!("answer.submit");
        let worker = self.worker_id(external, now);
        self.activity.touch(worker, now);
        self.expire_leases(now);

        // Validate against the assignment record: only an answer for the
        // worker's live lease is recorded. Everything else — duplicates,
        // answers that outlived their lease, answers for completed tasks,
        // unsolicited submissions — is rejected before it can touch
        // consensus, the estimator, or payment.
        let lease = match self.in_flight[worker.index()] {
            Some(l) if l.task == task => {
                self.in_flight[worker.index()] = None;
                l
            }
            _ => {
                let reason = if self.consensus.votes(task).answer_of(worker).is_some()
                    || self.warmup.has_answered(worker, task)
                {
                    RejectReason::Duplicate
                } else if self.expired_last[worker.index()] == Some(task) {
                    RejectReason::LeaseExpired
                } else if self.consensus.is_completed(task) {
                    RejectReason::TaskCompleted
                } else {
                    RejectReason::NotAssigned
                };
                return self.reject(reason);
            }
        };

        match lease.kind {
            AssignmentKind::Warmup => {
                let truth = self.tasks[task]
                    .ground_truth
                    .expect("qualification tasks carry ground truth");
                self.estimator
                    .record_qualification(worker, task, answer, truth);
                // The qualification answer shifted this worker's
                // baseline, which re-scores all her cells at once.
                self.refresh_worker_rank(worker);
                self.warmup.advance(worker);
                if self.estimator.should_reject(worker) {
                    self.activity.reject(worker);
                }
                SubmitOutcome::Accepted
            }
            AssignmentKind::Regular => {
                if let Some(v) = self.inflight_workers.get_mut(task.index()) {
                    v.retain(|&x| x != worker);
                }
                // The lease's capacity hold is released here; a recorded
                // vote below re-takes it, so the counter nets to zero on
                // the accept path and +1 on every reject path.
                self.rem_cap[task.index()] += 1;
                // The task reached consensus while this answer was in
                // flight (another worker's vote closed it, or early
                // stopping preset it): the late answer is moot.
                if self.consensus.is_completed(task) {
                    return self.reject(RejectReason::TaskCompleted);
                }
                let vote = Vote { worker, answer };
                match self.consensus.record(task, vote) {
                    Ok(_newly_completed) => {
                        self.rem_cap[task.index()] -= 1;
                        self.activity.record_completion(worker);
                        // Budget-saving extension: complete early when the
                        // posterior under current estimates is confident,
                        // even before (k+1)/2 votes agree.
                        if !self.consensus.is_completed(task) {
                            if let Some(tau) = self.config.early_stop_confidence {
                                let votes = self.consensus.votes(task).votes().to_vec();
                                let num_choices = self.tasks[task].num_choices;
                                let posterior = icrowd_core::probability::vote_posterior(
                                    &votes,
                                    num_choices,
                                    |w| self.estimator.estimate(w, task),
                                );
                                if let Some((ans, conf)) = posterior {
                                    if conf >= tau {
                                        self.consensus.preset(task, ans);
                                        self.early_stops += 1;
                                        icrowd_obs::counter_add("consensus.early_stop", 1);
                                    }
                                }
                            }
                        }
                        if self.consensus.is_completed(task) {
                            icrowd_obs::counter_add("consensus.completed", 1);
                            self.open.remove(&task.0);
                            self.purge_closed_candidate(task);
                            if self.strategy != AssignStrategy::QfOnly {
                                let consensus_ans = self
                                    .consensus
                                    .consensus(task)
                                    .expect("completed task has consensus");
                                let votes = self.consensus.votes(task).votes().to_vec();
                                if self.capped() {
                                    self.record_completion_capped(task, &votes, consensus_ans);
                                } else {
                                    self.estimator.record_completed_task(
                                        task,
                                        &votes,
                                        consensus_ans,
                                    );
                                }
                            }
                        }
                        SubmitOutcome::Accepted
                    }
                    Err(icrowd_core::CoreError::DuplicateVote { .. }) => {
                        self.reject(RejectReason::Duplicate)
                    }
                    Err(_) => self.reject(RejectReason::TaskCompleted),
                }
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.consensus.all_completed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icrowd_core::task::Microtask;
    use icrowd_text::metric::MatrixSimilarity;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    /// Six binary tasks in two topical blocks (0-2 and 3-5), all ground
    /// truth YES, block-diagonal similarity.
    fn setup(strategy: AssignStrategy, num_qual: usize) -> ICrowd {
        let tasks: TaskSet = (0..6)
            .map(|i| {
                Microtask::binary(TaskId(i), format!("task {i}")).with_ground_truth(Answer::YES)
            })
            .collect();
        let edges = vec![
            (t(0), t(1), 0.9),
            (t(1), t(2), 0.9),
            (t(0), t(2), 0.9),
            (t(3), t(4), 0.9),
            (t(4), t(5), 0.9),
            (t(3), t(5), 0.9),
        ];
        let metric = MatrixSimilarity::from_edges(&tasks, &edges, "blocks");
        let config = ICrowdConfig {
            similarity_threshold: 0.5,
            warmup: icrowd_core::config::WarmupConfig {
                num_qualification: num_qual,
                ..Default::default()
            },
            ..Default::default()
        };
        ICrowdBuilder::new(tasks)
            .config(config)
            .strategy(strategy)
            .metric(&metric)
            .build()
    }

    #[test]
    fn new_workers_get_qualification_first() {
        let mut srv = setup(AssignStrategy::Adapt, 2);
        let quals = srv.warmup().qualification_tasks().to_vec();
        assert_eq!(quals.len(), 2);
        let first = srv.request_task("A", Tick(0)).unwrap();
        assert_eq!(first, quals[0]);
        srv.submit_answer("A", first, Answer::YES, Tick(1));
        let second = srv.request_task("A", Tick(2)).unwrap();
        assert_eq!(second, quals[1]);
        srv.submit_answer("A", second, Answer::YES, Tick(3));
        // Out of warm-up: next assignment is a regular task.
        let third = srv.request_task("A", Tick(4)).unwrap();
        assert!(srv.assignment_distribution()[0] == 1);
        assert!(!quals.contains(&third) || srv.consensus().votes(third).is_empty());
    }

    #[test]
    fn re_request_is_idempotent() {
        let mut srv = setup(AssignStrategy::Adapt, 1);
        let a = srv.request_task("A", Tick(0)).unwrap();
        let b = srv.request_task("A", Tick(1)).unwrap();
        assert_eq!(a, b, "unanswered assignment is handed back");
    }

    #[test]
    fn bad_workers_get_rejected_and_declined() {
        let mut srv = setup(AssignStrategy::Adapt, 6);
        // Answer five qualification tasks wrong (ground truth YES).
        for i in 0..5 {
            let task = srv.request_task("BAD", Tick(i)).unwrap();
            srv.submit_answer("BAD", task, Answer::NO, Tick(i));
        }
        // Rejected now: no more assignments.
        assert_eq!(srv.request_task("BAD", Tick(10)), None);
        assert!(srv.declined_requests() >= 1);
    }

    #[test]
    fn campaign_completes_and_results_match_crowd() {
        let mut srv = setup(AssignStrategy::Adapt, 1);
        // Three always-correct workers churn until everything completes.
        let mut tick = 0u64;
        let mut guard = 0;
        while !srv.is_complete() {
            guard += 1;
            assert!(guard < 500, "campaign did not converge");
            for name in ["A", "B", "C"] {
                if srv.is_complete() {
                    break;
                }
                if let Some(task) = srv.request_task(name, Tick(tick)) {
                    srv.submit_answer(name, task, Answer::YES, Tick(tick));
                }
                tick += 1;
            }
        }
        let results = srv.results();
        assert_eq!(results.len(), 6);
        assert!(results.values().all(|&a| a == Answer::YES));
        // 1 qualification task is preset; the other 5 complete with 2-3
        // votes each under early consensus.
        let total: u32 = srv.assignment_distribution().iter().sum();
        assert!((10..=15).contains(&total), "regular assignments: {total}");
    }

    #[test]
    fn workers_never_see_a_task_twice() {
        let mut srv = setup(AssignStrategy::Adapt, 2);
        let mut seen = std::collections::HashSet::new();
        let mut tick = 0;
        while let Some(task) = srv.request_task("A", Tick(tick)) {
            assert!(seen.insert(task), "task {task} assigned twice to A");
            srv.submit_answer("A", task, Answer::YES, Tick(tick));
            tick += 1;
            if tick > 50 {
                break;
            }
        }
        // 2 warm-up + 6 regular = at most 8 distinct tasks.
        assert!(seen.len() <= 8);
    }

    #[test]
    fn best_effort_assigns_workers_own_best_task() {
        let mut srv = setup(AssignStrategy::BestEffort, 2);
        let quals = srv.warmup().qualification_tasks().to_vec();
        // Complete warm-up: right on the first qual, wrong on the second.
        // (Quals land in different blocks by influence maximization.)
        let q0 = srv.request_task("A", Tick(0)).unwrap();
        srv.submit_answer("A", q0, Answer::YES, Tick(0));
        let q1 = srv.request_task("A", Tick(1)).unwrap();
        srv.submit_answer("A", q1, Answer::NO, Tick(1));
        assert_eq!(vec![q0, q1], quals);
        // The next assignment lies in the block of the correct answer.
        let next = srv.request_task("A", Tick(2)).unwrap();
        let block_of = |task: TaskId| task.index() / 3;
        assert_eq!(
            block_of(next),
            block_of(q0),
            "BestEffort should pick from the block the worker aced"
        );
    }

    #[test]
    fn qf_only_freezes_estimation_after_warmup() {
        let mut srv = setup(AssignStrategy::QfOnly, 1);
        let q = srv.request_task("A", Tick(0)).unwrap();
        srv.submit_answer("A", q, Answer::YES, Tick(0));
        let baseline_obs = srv.estimator().num_observations(WorkerId(0));
        // Complete a few regular tasks; observations must not grow.
        for tick in 1..8 {
            for name in ["A", "B", "C"] {
                // B and C still need warm-up; let them flow through it.
                if let Some(task) = srv.request_task(name, Tick(tick)) {
                    srv.submit_answer(name, task, Answer::YES, Tick(tick));
                }
            }
        }
        assert_eq!(
            srv.estimator().num_observations(WorkerId(0)),
            baseline_obs,
            "QF-Only must not accumulate post-warmup observations"
        );
    }

    #[test]
    fn weighted_results_cover_every_task_and_respect_gold() {
        let mut srv = setup(AssignStrategy::Adapt, 2);
        let quals = srv.warmup().qualification_tasks().to_vec();
        let mut tick = 0u64;
        while !srv.is_complete() {
            for name in ["A", "B", "C"] {
                if let Some(task) = srv.request_task(name, Tick(tick)) {
                    srv.submit_answer(name, task, Answer::YES, Tick(tick));
                }
                tick += 1;
            }
            assert!(tick < 2000, "stalled");
        }
        let plain = srv.results();
        let weighted = srv.results_weighted();
        assert_eq!(weighted.len(), plain.len());
        // Gold answers are requester labels in both.
        for q in quals {
            assert_eq!(weighted[&q], plain[&q]);
        }
        // With unanimous YES votes, the two aggregations agree entirely.
        assert_eq!(weighted, plain);
    }

    #[test]
    fn weighted_results_can_overturn_a_noisy_majority() {
        // Task 1 gets votes NO (trusted expert) vs YES, YES (two workers
        // with bad records): weighted aggregation should side with the
        // expert while plain majority says YES.
        let mut srv = setup(AssignStrategy::Adapt, 1);
        let q = srv.warmup().qualification_tasks()[0];
        // Build records: EXPERT aces the qual; DUD1/DUD2 flunk it.
        for (name, ans) in [
            ("EXPERT", Answer::YES),
            ("DUD1", Answer::NO),
            ("DUD2", Answer::NO),
        ] {
            let t0 = srv.request_task(name, Tick(0)).unwrap();
            assert_eq!(t0, q);
            srv.submit_answer(name, t0, ans, Tick(0));
        }
        // Drive votes on one open task via the protocol.
        let target = srv.request_task("EXPERT", Tick(1)).unwrap();
        srv.submit_answer("EXPERT", target, Answer::NO, Tick(1));
        // The duds loop through real request/answer cycles until they are
        // legitimately assigned the target. Filler answers on other tasks
        // are split YES/NO between the duds so no filler task ever gathers
        // two agreeing votes — none completes, so no filler vote is ever
        // scored against a consensus and the estimator sees exactly the
        // qualification + target evidence.
        for (name, filler) in [("DUD1", Answer::YES), ("DUD2", Answer::NO)] {
            let mut tick = 2u64;
            loop {
                let t2 = srv
                    .request_task(name, Tick(tick))
                    .expect("open capacity remains");
                let ans = if t2 == target { Answer::YES } else { filler };
                assert_eq!(
                    srv.submit_answer(name, t2, ans, Tick(tick)),
                    SubmitOutcome::Accepted
                );
                if t2 == target {
                    break;
                }
                tick += 1;
                assert!(tick < 20, "{name} never reached the target task");
            }
        }

        let plain = srv.results();
        let mut weighted = srv.results_weighted();
        assert_eq!(plain[&target], Answer::YES, "2-1 plain majority");
        assert_eq!(
            weighted.remove(&target),
            Some(Answer::NO),
            "estimate-weighted vote trusts the expert"
        );
    }

    #[test]
    fn early_stopping_saves_votes_when_confident() {
        // Two workers with strong qualification records agree on the
        // first vote pair; with early stopping at 0.8 the task completes
        // after 2 votes even when the strict majority rule would need
        // them to agree anyway — the interesting case is k = 5, where
        // majority needs 3 votes but confidence is reached at 2.
        let tasks: TaskSet = (0..4)
            .map(|i| {
                Microtask::binary(TaskId(i), format!("task {i}")).with_ground_truth(Answer::YES)
            })
            .collect();
        let edges = vec![(t(0), t(1), 0.9), (t(1), t(2), 0.9), (t(2), t(3), 0.9)];
        let metric = MatrixSimilarity::from_edges(&tasks, &edges, "chain");
        let config = ICrowdConfig {
            assignment_size: 5,
            similarity_threshold: 0.5,
            early_stop_confidence: Some(0.8),
            warmup: icrowd_core::config::WarmupConfig {
                num_qualification: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut srv = ICrowdBuilder::new(tasks)
            .config(config)
            .metric(&metric)
            .build();
        let mut tick = 0u64;
        let mut guard = 0;
        while !srv.is_complete() {
            guard += 1;
            assert!(guard < 300, "early-stop campaign stalled");
            for name in ["A", "B", "C"] {
                if let Some(task) = srv.request_task(name, Tick(tick)) {
                    srv.submit_answer(name, task, Answer::YES, Tick(tick));
                }
                tick += 1;
            }
        }
        assert!(
            srv.early_stops() > 0,
            "confident unanimous pairs should stop tasks early"
        );
        // Early stopping saved votes: fewer than k = 5 votes per task.
        let total: u32 = srv.assignment_distribution().iter().sum();
        assert!(total < 2 * 5, "saved votes: only {total} regular answers");
        assert!(srv.results().values().all(|&a| a == Answer::YES));
    }

    #[test]
    fn candidate_limit_still_completes_campaigns() {
        let tasks: TaskSet = (0..12)
            .map(|i| {
                Microtask::binary(TaskId(i), format!("task {i}")).with_ground_truth(Answer::YES)
            })
            .collect();
        let metric = MatrixSimilarity::from_edges(&tasks, &[], "empty");
        let mut srv = ICrowdBuilder::new(tasks)
            .config(ICrowdConfig {
                warmup: icrowd_core::config::WarmupConfig {
                    num_qualification: 1,
                    ..Default::default()
                },
                ..Default::default()
            })
            .metric(&metric)
            .candidate_limit(3)
            .build();
        let mut tick = 0u64;
        let mut guard = 0;
        while !srv.is_complete() {
            guard += 1;
            assert!(guard < 2000, "campaign stalled under candidate_limit");
            for name in ["A", "B", "C", "D"] {
                if let Some(task) = srv.request_task(name, Tick(tick)) {
                    srv.submit_answer(name, task, Answer::YES, Tick(tick));
                }
                tick += 1;
            }
        }
        srv.validate_incremental_state();
    }

    #[test]
    fn rotating_sampler_counts_only_fresh_insertions() {
        let mut srv = setup(AssignStrategy::Adapt, 1);
        // One qualification task is preset, so 5 open tasks remain.
        // Pre-pool the first three open ids so the cursor window overlaps
        // the existing pool (as rank-cache candidates do).
        let open: Vec<u32> = srv.open.iter().copied().collect();
        assert_eq!(open.len(), 5);
        let mut cand: BTreeSet<u32> = open[..3].iter().copied().collect();
        srv.open_cursor = 0;
        srv.sample_open_into(&mut cand, 2);
        assert_eq!(
            cand.len(),
            5,
            "pre-pooled tasks under the cursor must not consume the budget"
        );
    }

    #[test]
    fn rotating_sampler_terminates_when_everything_is_pooled() {
        let mut srv = setup(AssignStrategy::Adapt, 1);
        let mut cand: BTreeSet<u32> = srv.open.iter().copied().collect();
        let before = cand.len();
        srv.open_cursor = 2;
        srv.sample_open_into(&mut cand, 3);
        assert_eq!(cand.len(), before, "no fresh task exists; must not spin");
    }

    #[test]
    fn rotating_sampler_skips_full_tasks() {
        let mut srv = setup(AssignStrategy::Adapt, 1);
        let open: Vec<u32> = srv.open.iter().copied().collect();
        srv.rem_cap[open[0] as usize] = 0;
        let mut cand = BTreeSet::new();
        srv.open_cursor = 0;
        srv.sample_open_into(&mut cand, open.len());
        assert!(!cand.contains(&open[0]), "full task must be skipped");
        assert_eq!(cand.len(), open.len() - 1);
    }

    use icrowd_core::worker::WorkerId;
}
