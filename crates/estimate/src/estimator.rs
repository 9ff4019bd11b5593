//! The graph-based accuracy estimator — Algorithm 1 of the paper.
//!
//! Offline, a [`LinearityIndex`] precomputes a PPR vector `p_{t_i}` per
//! microtask (Lemma 3). Online, a worker's accuracy vector is the sparse
//! weighted sum `Σ q_i^w · p_{t_i}` over her observed accuracies.
//!
//! ## Incremental accumulators
//!
//! Rather than re-summing over all observations on every estimate, each
//! worker carries *running accumulators* in a task-keyed row (a flat
//! open-addressed table over the tasks she has touched) — per task `j`
//! the weighted sum `Σ_i q_i·w_i·M_ij`, the mass `Σ_i w_i·M_ij` and the
//! squared mass `Σ_i (w_i·M_ij)²` (for the effective-sample-size
//! shrinkage), where `w_i` is the mode's information weight. All three
//! are independent of the worker's baseline, so recording one new
//! observation is an `O(nnz(p_t))` delta: subtract the old observation's
//! contribution (replacement case), add the new one. A per-cell
//! contributor count retires a cell exactly when its last observation is
//! withdrawn: the cell is zeroed in place and reads as absent, so
//! cancelled terms cannot leave floating-point residue in the normalized
//! mode's `dev/mass` quotient. Estimates at any task are
//! then a single cell lookup; the cached dense vector is patched in
//! place over the delta's support whenever the baseline is unchanged,
//! and only a baseline shift (a new qualification grade) marks it stale,
//! so the next refresh rewrites it — still from the accumulators, and in
//! place.
//!
//! ## Unreached tasks
//!
//! PPR mass decays with graph distance, so a task far from everything the
//! worker completed receives (near-)zero mass. Taken literally (the
//! paper's formulation, [`EstimationMode::Raw`]), that reads as "accuracy
//! 0", which conflates *unknown* with *bad* — the paper compensates with
//! its Step-3 performance testing. [`EstimationMode::Centered`]
//! (the default) instead propagates *deviations from a per-worker
//! baseline* (her warm-up average): tasks the graph cannot reach fall
//! back to the baseline, tasks near correct answers rise above it and
//! tasks near mistakes sink below it. Both modes share the same index and
//! are compared by the `ablation` bench.

use icrowd_core::answer::{Answer, Vote};
use icrowd_core::config::ICrowdConfig;
use icrowd_core::task::TaskId;
use icrowd_core::worker::WorkerId;
use icrowd_graph::{LinearityIndex, SimilarityGraph};

use crate::observed::{observed_accuracy, qualification_observed};
use crate::row::TaskRow;
use crate::uncertainty::NeighborhoodEvidence;

/// How raw propagated mass is turned into accuracy estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimationMode {
    /// Literal Algorithm 1: `p = Σ q_i · p_{t_i}`, clamped to `[0, 1]`.
    /// Tasks out of propagation reach estimate to ~0.
    Raw,
    /// Propagate deviations `q_i − baseline` and re-add the baseline,
    /// where the baseline is the worker's warm-up average accuracy (or
    /// the configured default before any qualification completes).
    Centered,
    /// Like `Centered`, but the propagated deviation at each task is
    /// *normalized* by the total PPR mass reaching it and shrunk by the
    /// effective number of contributing observations:
    ///
    /// ```text
    /// p_j = b + (Σ_i (q_i − b) · M_ij / Σ_i M_ij) · n_eff / (n_eff + 1)
    /// n_eff = (Σ_i M_ij)² / Σ_i M_ij²
    /// ```
    ///
    /// Rationale: in a dense topical clique every PPR vector spreads its
    /// mass over ~degree neighbors, so un-normalized propagation
    /// (`Raw`/`Centered`) shrinks domain evidence by 1/degree and the
    /// ranking degenerates to the workers' *average* accuracies — the
    /// very failure mode iCrowd exists to avoid. Normalizing makes the
    /// estimate scale-free (a weighted average of nearby evidence), and
    /// the `n_eff` shrinkage keeps one lucky answer from saturating a
    /// whole domain. This is the default; the `ablation` bench compares
    /// all three modes.
    #[default]
    Normalized,
}

/// One task's running accumulator cell. Field meaning depends on the
/// [`EstimationMode`]:
///
/// * `Raw`: `s1 = Σ q_i·M_ij`; `mass`/`mass2` unused.
/// * `Centered`: `s1 = Σ q_i·M_ij`, `mass = Σ M_ij`.
/// * `Normalized`: `s1 = Σ q_i·info_i·M_ij`, `mass = Σ info_i·M_ij`,
///   `mass2 = Σ (info_i·M_ij)²`.
///
/// All are baseline-free: centered deviations are recovered at read time
/// as `s1 − b·mass`, so a shifting warm-up average never forces an
/// accumulator rebuild.
#[derive(Debug, Clone, Copy, Default)]
struct AccumCell {
    /// Number of observations currently contributing. When it returns to
    /// zero the cell is *zeroed* in place and reads as absent, restoring
    /// exact zeros instead of the `O(ε)` residue numeric cancellation
    /// would leave (which the normalized mode would otherwise divide by).
    n: u32,
    s1: f64,
    mass: f64,
    mass2: f64,
}

/// Per-worker estimation state. The default is empty and allocates
/// nothing, whatever the task count.
#[derive(Debug, Clone, Default)]
struct WorkerState {
    /// Observed accuracies `q^w` over globally completed tasks, keyed by
    /// task id. A map (not a sparse vector) because `q = 0` — a provably
    /// wrong answer — is a *valid, informative* observation that a
    /// zero-dropping sparse representation would silently discard.
    observed: std::collections::BTreeMap<u32, f64>,
    /// Running accumulators over the union of the observed tasks' PPR
    /// supports, keyed by task id; a cell with `n == 0` is absent.
    /// Maintained incrementally by [`AccuracyEstimator::set_observed`].
    accum: TaskRow<AccumCell>,
    /// Correct / total counts on qualification microtasks.
    quals_correct: u32,
    quals_total: u32,
    /// Cached dense estimate, one entry per task once first refreshed.
    /// Patched in place over a delta's support while fresh and the
    /// baseline is unchanged; a baseline shift marks it stale, and the
    /// next refresh rewrites it in place.
    cache: Vec<f64>,
    /// Whether `cache` holds the current estimates. Nothing reads a
    /// stale cache.
    cache_fresh: bool,
    /// The baseline the cache was computed with (meaningless while
    /// stale).
    cache_baseline: f64,
    /// Evidence counts for Step-3 uncertainty.
    evidence: NeighborhoodEvidence,
}

/// The accumulator cell at `task`, if any observation contributes.
#[inline]
fn live(accum: &TaskRow<AccumCell>, task: u32) -> Option<&AccumCell> {
    accum.get(task).filter(|c| c.n > 0)
}

/// The accuracy estimator: linearity index + per-worker observations.
#[derive(Debug, Clone)]
pub struct AccuracyEstimator {
    graph: SimilarityGraph,
    index: LinearityIndex,
    config: ICrowdConfig,
    mode: EstimationMode,
    workers: Vec<WorkerState>,
    /// Equation-(5) inputs of the completion being recorded, kept across
    /// calls so recording a completion allocates nothing.
    match_accs: Vec<f64>,
    mismatch_accs: Vec<f64>,
}

impl AccuracyEstimator {
    /// Builds the estimator, running the offline index construction
    /// (Algorithm 1 lines 2–4).
    pub fn new(graph: SimilarityGraph, config: ICrowdConfig, mode: EstimationMode) -> Self {
        config.validate().expect("invalid configuration");
        let index = LinearityIndex::build(&graph, config.alpha, &config.ppr);
        Self::with_index(graph, index, config, mode)
    }

    /// Builds the estimator over a prebuilt linearity index, so the one
    /// index a campaign builds serves both gold selection and estimation.
    ///
    /// # Panics
    /// Panics if the configuration is invalid, or if `index` covers a
    /// different task count than `graph` or was built with another
    /// `alpha` than `config.alpha`.
    pub fn with_index(
        graph: SimilarityGraph,
        index: LinearityIndex,
        config: ICrowdConfig,
        mode: EstimationMode,
    ) -> Self {
        config.validate().expect("invalid configuration");
        assert_eq!(
            index.num_tasks(),
            graph.num_tasks(),
            "linearity index covers a different task count than the graph"
        );
        assert_eq!(
            index.alpha(),
            config.alpha,
            "linearity index was built with a different alpha"
        );
        Self {
            graph,
            index,
            config,
            mode,
            workers: Vec::new(),
            match_accs: Vec::new(),
            mismatch_accs: Vec::new(),
        }
    }

    /// The precomputed linearity index.
    pub fn index(&self) -> &LinearityIndex {
        &self.index
    }

    /// The configuration in force.
    pub fn config(&self) -> &ICrowdConfig {
        &self.config
    }

    /// Number of tasks covered.
    pub fn num_tasks(&self) -> usize {
        self.index.num_tasks()
    }

    /// Ensures state exists for `worker` (ids are dense; registering
    /// worker `w` implicitly registers every smaller id).
    pub fn register_worker(&mut self, worker: WorkerId) {
        while self.workers.len() <= worker.index() {
            self.workers.push(WorkerState::default());
        }
    }

    /// Records a qualification answer for `worker` on `task` with known
    /// ground truth: `q_i` becomes exactly 0 or 1 and warm-up counters
    /// advance.
    pub fn record_qualification(
        &mut self,
        worker: WorkerId,
        task: TaskId,
        answer: Answer,
        ground_truth: Answer,
    ) {
        self.register_worker(worker);
        let q = qualification_observed(answer, ground_truth);
        let default_accuracy = self.config.default_accuracy;
        let mode = self.mode;
        let state = &mut self.workers[worker.index()];
        state.quals_total += 1;
        if q > 0.5 {
            state.quals_correct += 1;
        }
        // Baseline *after* the counters advanced: the cache patch in
        // `set_observed` must compare against the value future reads use.
        let baseline = Self::state_baseline(state, default_accuracy);
        Self::set_observed(&self.graph, &self.index, mode, baseline, state, task, q);
    }

    /// Records a globally completed microtask: every voter's observed
    /// accuracy is (re)computed from Equation (5) using the voters'
    /// current estimates.
    ///
    /// `votes` must be the full vote set of `task` and `consensus` its
    /// consensus answer.
    pub fn record_completed_task(&mut self, task: TaskId, votes: &[Vote], consensus: Answer) {
        icrowd_obs::counter_add("estimator.completed_tasks", 1);
        // Gather current estimates first (immutable pass), then update.
        let mut match_accs = std::mem::take(&mut self.match_accs);
        let mut mismatch_accs = std::mem::take(&mut self.mismatch_accs);
        match_accs.clear();
        mismatch_accs.clear();
        for v in votes {
            self.register_worker(v.worker);
            let p = self.estimate(v.worker, task);
            if v.answer == consensus {
                match_accs.push(p);
            } else {
                mismatch_accs.push(p);
            }
        }
        for v in votes {
            let matches = v.answer == consensus;
            let q = observed_accuracy(matches, &match_accs, &mismatch_accs);
            let mode = self.mode;
            let baseline = self.baseline(v.worker);
            let state = &mut self.workers[v.worker.index()];
            Self::set_observed(&self.graph, &self.index, mode, baseline, state, task, q);
        }
        self.match_accs = match_accs;
        self.mismatch_accs = mismatch_accs;
    }

    /// The baseline derived from a worker state directly (warm-up average
    /// when available, else the configured default) — usable while the
    /// state is mutably borrowed.
    fn state_baseline(state: &WorkerState, default_accuracy: f64) -> f64 {
        if state.quals_total > 0 {
            f64::from(state.quals_correct) / f64::from(state.quals_total)
        } else {
            default_accuracy
        }
    }

    fn set_observed(
        graph: &SimilarityGraph,
        index: &LinearityIndex,
        mode: EstimationMode,
        baseline: f64,
        state: &mut WorkerState,
        task: TaskId,
        q: f64,
    ) {
        let _span = icrowd_obs::span!("estimator.refresh");
        let old = state.observed.insert(task.0, q);
        // Replace, don't double-count: withdraw the previous observation's
        // contribution (accumulators and evidence) before adding the new
        // one. Both deltas touch only `nnz(p_task)` cells.
        if let Some(old_q) = old {
            Self::apply_delta(index, mode, &mut state.accum, task, old_q, -1.0);
            state.evidence.withdraw(graph, task, old_q);
        }
        Self::apply_delta(index, mode, &mut state.accum, task, q, 1.0);
        state.evidence.record(graph, task, q);
        // The dense cache only depends on the accumulators and the
        // baseline, so while the baseline holds it can be patched over
        // the delta's support instead of rebuilt.
        if state.cache_fresh && state.cache_baseline == baseline {
            icrowd_obs::counter_add("estimator.cache_patch", 1);
            for (j, _) in index.vector(task).iter() {
                state.cache[j.index()] =
                    Self::cell_estimate(mode, baseline, live(&state.accum, j.0));
            }
        } else if state.cache_fresh {
            icrowd_obs::counter_add("estimator.cache_stale", 1);
            state.cache_fresh = false;
        }
    }

    /// Adds (`sign = 1.0`) or withdraws (`sign = -1.0`) one observation's
    /// contribution to the running accumulators. `O(nnz(p_task))`.
    fn apply_delta(
        index: &LinearityIndex,
        mode: EstimationMode,
        accum: &mut TaskRow<AccumCell>,
        task: TaskId,
        q: f64,
        sign: f64,
    ) {
        let info = (2.0 * q - 1.0).abs();
        if mode == EstimationMode::Normalized && info == 0.0 {
            // As in the from-scratch math (`tests/estimator_oracle.rs`):
            // uninformative observations (Equation-5 posterior exactly
            // 0.5) contribute nothing, on the way in *and* on the way out.
            return;
        }
        for (j, m) in index.vector(task).iter() {
            let (ds1, dmass, dmass2) = match mode {
                EstimationMode::Raw => (q * m, 0.0, 0.0),
                EstimationMode::Centered => (q * m, m, 0.0),
                EstimationMode::Normalized => {
                    let wm = info * m;
                    (q * wm, wm, wm * wm)
                }
            };
            let cell = accum.entry(j.0);
            cell.s1 += sign * ds1;
            cell.mass += sign * dmass;
            cell.mass2 += sign * dmass2;
            if sign > 0.0 {
                cell.n += 1;
            } else {
                cell.n -= 1;
                if cell.n == 0 {
                    *cell = AccumCell::default();
                }
            }
        }
    }

    /// Turns one accumulator cell (or its absence) into the estimate at
    /// that task under `mode` and `baseline`. Agrees with the from-scratch
    /// formulas term for term.
    fn cell_estimate(mode: EstimationMode, baseline: f64, cell: Option<&AccumCell>) -> f64 {
        match (mode, cell) {
            (EstimationMode::Raw, None) => 0.0,
            (EstimationMode::Raw, Some(c)) => c.s1.clamp(0.0, 1.0),
            (EstimationMode::Centered, None) => baseline.clamp(0.0, 1.0),
            (EstimationMode::Centered, Some(c)) => {
                // Σ (q_i − b)·M_ij recovered as s1 − b·mass.
                (baseline + (c.s1 - baseline * c.mass)).clamp(0.0, 1.0)
            }
            (EstimationMode::Normalized, None) => baseline,
            (EstimationMode::Normalized, Some(c)) => {
                if c.mass <= 0.0 {
                    return baseline;
                }
                let avg_dev = (c.s1 - baseline * c.mass) / c.mass;
                let n_eff = c.mass * c.mass / c.mass2;
                (baseline + avg_dev * n_eff / (n_eff + 1.0)).clamp(0.0, 1.0)
            }
        }
    }

    /// The worker's warm-up average accuracy, if she completed any
    /// qualification microtasks.
    pub fn warmup_average(&self, worker: WorkerId) -> Option<f64> {
        let s = self.workers.get(worker.index())?;
        (s.quals_total > 0).then(|| f64::from(s.quals_correct) / f64::from(s.quals_total))
    }

    /// The baseline accuracy used for unreached tasks: the warm-up
    /// average when available, else the configured default.
    pub fn baseline(&self, worker: WorkerId) -> f64 {
        self.warmup_average(worker)
            .unwrap_or(self.config.default_accuracy)
    }

    /// Whether warm-up evidence says this worker should be rejected
    /// (average below threshold after enough qualification answers).
    pub fn should_reject(&self, worker: WorkerId) -> bool {
        let Some(s) = self.workers.get(worker.index()) else {
            return false;
        };
        s.quals_total as usize >= self.config.warmup.reject_after
            && (f64::from(s.quals_correct) / f64::from(s.quals_total))
                < self.config.warmup.reject_threshold
    }

    /// The estimated accuracy vector `p^w` (dense, one entry per task),
    /// rewriting the cache from the running accumulators if it is stale.
    pub fn accuracies(&mut self, worker: WorkerId) -> &[f64] {
        self.register_worker(worker);
        let baseline = self.baseline(worker);
        let mode = self.mode;
        let num_tasks = self.index.num_tasks();
        let state = &mut self.workers[worker.index()];
        if !state.cache_fresh {
            let _span = icrowd_obs::span!("estimator.rebuild");
            icrowd_obs::counter_add("estimator.cache_rebuild", 1);
            // The default value everywhere, overwritten per populated
            // cell; after the first refresh this reuses the allocation.
            state.cache.clear();
            state
                .cache
                .resize(num_tasks, Self::cell_estimate(mode, baseline, None));
            for (j, cell) in state.accum.iter().filter(|(_, c)| c.n > 0) {
                state.cache[j as usize] = Self::cell_estimate(mode, baseline, Some(cell));
            }
            state.cache_fresh = true;
            state.cache_baseline = baseline;
        } else {
            icrowd_obs::counter_add("estimator.cache_hit", 1);
        }
        &state.cache
    }

    /// The dense estimate vector as the last [`Self::accuracies`] call
    /// left it, or `None` when that call would have to rewrite it (never
    /// refreshed, or stale since a baseline shift). Read-only, so several
    /// workers' vectors can be read side by side.
    pub fn cached_accuracies(&self, worker: WorkerId) -> Option<&[f64]> {
        self.workers
            .get(worker.index())
            .filter(|s| s.cache_fresh)
            .map(|s| s.cache.as_slice())
    }

    /// The estimate of `worker` on `task`: her accumulator cell's score
    /// ([`Self::cell_score`]), else [`Self::baseline_score`]. One
    /// row lookup, independent of the task count, and the same
    /// bits the dense cache holds; never builds or touches the cache.
    pub fn estimate(&self, worker: WorkerId, task: TaskId) -> f64 {
        self.cell_score(worker, task)
            .unwrap_or_else(|| self.baseline_score(worker))
    }

    /// The mode's absent-cell estimate for `worker`: what every task
    /// *without* a populated accumulator cell estimates to (0 in `Raw`
    /// mode, the worker's baseline otherwise). Together with
    /// [`Self::cell_scores`] this is a complete sparse view of the
    /// dense estimate vector.
    pub fn baseline_score(&self, worker: WorkerId) -> f64 {
        Self::cell_estimate(self.mode, self.baseline(worker), None)
    }

    /// The estimate at `task` if the worker has a populated accumulator
    /// cell there, else `None` (meaning the estimate is
    /// [`Self::baseline_score`]). One row lookup; never touches the
    /// dense cache.
    pub fn cell_score(&self, worker: WorkerId, task: TaskId) -> Option<f64> {
        let state = self.workers.get(worker.index())?;
        let cell = live(&state.accum, task.0)?;
        Some(Self::cell_estimate(
            self.mode,
            self.baseline(worker),
            Some(cell),
        ))
    }

    /// All tasks with a populated accumulator cell for `worker`, with
    /// their estimates, in the row's table order (not task-id order: it
    /// depends on the order the cells were first touched). Tasks not
    /// yielded estimate to [`Self::baseline_score`]. This is the delta
    /// surface incremental candidate caches subscribe to: after any
    /// `record_*` call, only the recorded task's PPR support can have
    /// entered, left, or changed value in this iteration.
    pub fn cell_scores(&self, worker: WorkerId) -> impl Iterator<Item = (TaskId, f64)> + '_ {
        let baseline = self.baseline(worker);
        let mode = self.mode;
        self.workers
            .get(worker.index())
            .into_iter()
            .flat_map(move |s| {
                s.accum
                    .iter()
                    .filter(|(_, cell)| cell.n > 0)
                    .map(move |(j, cell)| {
                        (TaskId(j), Self::cell_estimate(mode, baseline, Some(cell)))
                    })
            })
    }

    /// The worker's observed accuracies `q^w`, keyed by task id.
    /// Includes `q = 0` entries (provably wrong answers).
    pub fn observed(&self, worker: WorkerId) -> Option<&std::collections::BTreeMap<u32, f64>> {
        self.workers.get(worker.index()).map(|s| &s.observed)
    }

    /// The observed accuracy of `worker` on `task`, if recorded.
    pub fn observed_at(&self, worker: WorkerId, task: TaskId) -> Option<f64> {
        self.workers
            .get(worker.index())
            .and_then(|s| s.observed.get(&task.0).copied())
    }

    /// Step-3 uncertainty of the estimate of `worker` on `task`: the
    /// beta-posterior variance over the task's graph neighborhood.
    pub fn uncertainty(&self, worker: WorkerId, task: TaskId) -> f64 {
        match self.workers.get(worker.index()) {
            Some(s) => s.evidence.variance(task),
            // Never-seen workers carry maximal (uniform-prior) variance.
            None => icrowd_core::probability::beta_variance(0.0, 0.0),
        }
    }

    /// Number of globally completed tasks with recorded observations for
    /// `worker`.
    pub fn num_observations(&self, worker: WorkerId) -> usize {
        self.workers
            .get(worker.index())
            .map_or(0, |s| s.observed.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icrowd_core::task::TaskId;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    fn w(i: u32) -> WorkerId {
        WorkerId(i)
    }

    /// Two 3-cliques (tasks 0-2 and 3-5), mirroring Figure 3's topical
    /// block structure.
    fn two_clique_graph() -> SimilarityGraph {
        SimilarityGraph::from_edges(
            6,
            &[
                (t(0), t(1), 0.9),
                (t(1), t(2), 0.9),
                (t(0), t(2), 0.9),
                (t(3), t(4), 0.9),
                (t(4), t(5), 0.9),
                (t(3), t(5), 0.9),
            ],
        )
    }

    fn estimator(mode: EstimationMode) -> AccuracyEstimator {
        AccuracyEstimator::new(two_clique_graph(), ICrowdConfig::default(), mode)
    }

    #[test]
    #[should_panic(expected = "different task count")]
    fn with_index_refuses_an_index_over_another_task_count() {
        let config = ICrowdConfig::default();
        let other = SimilarityGraph::from_edges(3, &[(t(0), t(1), 0.9)]);
        let index = LinearityIndex::build(&other, config.alpha, &config.ppr);
        let _ = AccuracyEstimator::with_index(
            two_clique_graph(),
            index,
            config,
            EstimationMode::default(),
        );
    }

    #[test]
    fn qualification_signal_propagates_within_clique() {
        let mut e = estimator(EstimationMode::Centered);
        // Worker nails task 0 (clique A) and flunks task 3 (clique B).
        e.record_qualification(w(0), t(0), Answer::YES, Answer::YES);
        e.record_qualification(w(0), t(3), Answer::NO, Answer::YES);
        let p = e.accuracies(w(0)).to_vec();
        // Within clique A estimates exceed clique B everywhere.
        for a in 0..3 {
            for b in 3..6 {
                assert!(
                    p[a] > p[b],
                    "clique A task {a} ({}) should beat clique B task {b} ({})",
                    p[a],
                    p[b]
                );
            }
        }
        // The completed tasks themselves are the extremes.
        assert!(p[0] >= p[1] && p[0] >= p[2]);
        assert!(p[3] <= p[4] && p[3] <= p[5]);
    }

    #[test]
    fn centered_mode_falls_back_to_baseline_for_unreached_tasks() {
        let g = SimilarityGraph::from_edges(3, &[(t(0), t(1), 0.9)]);
        let mut e = AccuracyEstimator::new(g, ICrowdConfig::default(), EstimationMode::Centered);
        // Five perfect qualifications on task 0 → baseline 1.0... use a mix
        // to get baseline 0.8: 4 correct, 1 wrong.
        for (task, ok) in [(0u32, true), (0, true), (0, true), (0, true), (1, false)] {
            // Record on distinct tasks to keep observed sparse sensible:
            // use task 0 and 1 (task ids may repeat; set_observed replaces).
            let ans = if ok { Answer::YES } else { Answer::NO };
            e.record_qualification(w(0), t(task), ans, Answer::YES);
        }
        assert_eq!(e.warmup_average(w(0)), Some(0.8));
        let p = e.accuracies(w(0)).to_vec();
        // Task 2 is isolated: no propagation reaches it → exact baseline.
        assert!((p[2] - 0.8).abs() < 1e-9, "unreached task got {}", p[2]);
    }

    #[test]
    fn raw_mode_estimates_zero_for_unreached_tasks() {
        let g = SimilarityGraph::from_edges(3, &[(t(0), t(1), 0.9)]);
        let mut e = AccuracyEstimator::new(g, ICrowdConfig::default(), EstimationMode::Raw);
        e.record_qualification(w(0), t(0), Answer::YES, Answer::YES);
        let p = e.accuracies(w(0)).to_vec();
        assert!(p[0] > 0.0);
        assert_eq!(p[2], 0.0, "raw mode leaves unreached tasks at zero");
    }

    #[test]
    fn completed_task_updates_all_voters() {
        let mut e = estimator(EstimationMode::Centered);
        // With every voter at the uninformative 0.5 baseline, Equation (5)
        // yields exactly 0.5 for everyone (2-vs-1 at even odds carries no
        // information). Give the majority voters prior positive evidence so
        // the consensus is credible.
        e.record_qualification(w(0), t(2), Answer::YES, Answer::YES);
        e.record_qualification(w(1), t(2), Answer::YES, Answer::YES);
        let votes = vec![
            Vote {
                worker: w(0),
                answer: Answer::YES,
            },
            Vote {
                worker: w(1),
                answer: Answer::YES,
            },
            Vote {
                worker: w(2),
                answer: Answer::NO,
            },
        ];
        e.record_completed_task(t(1), &votes, Answer::YES);
        assert_eq!(e.num_observations(w(0)), 2, "qualification + consensus");
        assert_eq!(e.num_observations(w(2)), 1);
        let q_match = e.observed_at(w(0), t(1)).unwrap();
        let q_dissent = e.observed_at(w(2), t(1)).unwrap();
        assert!(q_match > 0.5, "matching the consensus is positive evidence");
        assert!(q_dissent < 0.5, "dissenting is negative evidence");
        assert!((q_match + q_dissent - 1.0).abs() < 1e-9);
        // Estimates reflect it: w0 beats w2 on the neighboring task 0.
        let p0 = e.estimate(w(0), t(0));
        let p2 = e.estimate(w(2), t(0));
        assert!(p0 > p2);
    }

    #[test]
    fn re_recording_a_task_replaces_rather_than_accumulates() {
        let mut e = estimator(EstimationMode::Raw);
        e.record_qualification(w(0), t(0), Answer::YES, Answer::YES);
        let first = e.observed_at(w(0), t(0)).unwrap();
        assert_eq!(first, 1.0);
        e.record_qualification(w(0), t(0), Answer::NO, Answer::YES);
        let second = e.observed_at(w(0), t(0)).unwrap();
        assert_eq!(second, 0.0, "replacement, not accumulation");
    }

    #[test]
    fn rejection_threshold_follows_config() {
        // Use the paper's illustrative 0.6 threshold explicitly (the
        // library default is spammer-level 0.4).
        let config = ICrowdConfig {
            warmup: icrowd_core::config::WarmupConfig {
                reject_threshold: 0.6,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut e = AccuracyEstimator::new(two_clique_graph(), config, EstimationMode::Centered);
        // 2 correct of 5 = 0.4 < 0.6 → reject.
        let answers = [true, true, false, false, false];
        for (i, ok) in answers.iter().enumerate() {
            let ans = if *ok { Answer::YES } else { Answer::NO };
            e.record_qualification(w(0), t(i as u32), ans, Answer::YES);
        }
        assert!(e.should_reject(w(0)));
        // 4 of 5 correct → keep.
        let answers = [true, true, true, true, false];
        for (i, ok) in answers.iter().enumerate() {
            let ans = if *ok { Answer::YES } else { Answer::NO };
            e.record_qualification(w(1), t(i as u32), ans, Answer::YES);
        }
        assert!(!e.should_reject(w(1)));
        // Too few answers → never reject yet.
        e.record_qualification(w(2), t(0), Answer::NO, Answer::YES);
        assert!(!e.should_reject(w(2)));
    }

    #[test]
    fn unknown_worker_defaults() {
        let e = estimator(EstimationMode::Centered);
        assert_eq!(e.warmup_average(w(9)), None);
        assert_eq!(e.baseline(w(9)), 0.5);
        assert!(!e.should_reject(w(9)));
        assert_eq!(e.estimate(w(9), t(0)), 0.5);
        assert_eq!(e.cached_accuracies(w(9)), None, "nothing refreshed yet");
        // Unknown workers have the uniform-prior variance.
        assert!((e.uncertainty(w(9), t(0)) - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn cache_invalidation_on_new_evidence() {
        let mut e = estimator(EstimationMode::Centered);
        e.record_qualification(w(0), t(0), Answer::YES, Answer::YES);
        let before = e.accuracies(w(0))[1];
        assert_eq!(e.cached_accuracies(w(0)).map(|c| c[1]), Some(before));
        e.record_qualification(w(0), t(1), Answer::NO, Answer::YES);
        // The baseline shifted: the stale cache is unreadable until the
        // next refresh rewrites it.
        assert_eq!(e.cached_accuracies(w(0)), None);
        let after = e.accuracies(w(0))[1];
        assert!(
            after < before,
            "fresh negative evidence must lower the estimate"
        );
        assert_eq!(e.cached_accuracies(w(0)).map(|c| c[1]), Some(after));
    }

    #[test]
    fn estimates_always_in_unit_interval() {
        let mut e = estimator(EstimationMode::Centered);
        for i in 0..6u32 {
            let ans = if i % 2 == 0 { Answer::YES } else { Answer::NO };
            e.record_qualification(w(0), t(i), ans, Answer::YES);
        }
        for &v in e.accuracies(w(0)) {
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
