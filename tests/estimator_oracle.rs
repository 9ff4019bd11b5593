//! The incremental estimator against its from-scratch math.
//!
//! `AccuracyEstimator` absorbs each observation as an `O(nnz(p_t))`
//! delta on per-task accumulator cells and patches its dense cache in
//! place. This test recomputes everything the estimator reports from
//! its public observations alone, over random graphs and random
//! sequences of qualification answers, completions and re-gradings, in
//! every `EstimationMode`:
//!
//! * `accuracies` is within 1e-9 of Algorithm 1 summed from scratch
//!   (`Σ_i q_i · p_{t_i}` under the mode's centring, normalization and
//!   information weights);
//! * a dense cache refreshed after every operation (patched in place or
//!   rebuilt) is bit-equal to one built once at the end, and the sparse
//!   reads (`estimate`, `cell_score`, `cell_scores`) return its bits;
//! * `cell_scores` yields, as a set, exactly the tasks some live
//!   observation's PPR vector reaches;
//! * `uncertainty` is the beta variance of the evidence counts
//!   recomputed from the observations and the graph.
//!
//! Every case ends with a scripted re-grade: two workers with identical
//! histories answer a task against each other, which grades both at
//! exactly 0.5. In `Normalized` mode that observation carries no weight,
//! so withdrawing their earlier, fractional grades leaves cells with no
//! contributor: those cells must read as absent, and a later observation
//! must restart them from exact zeros, bit-equal to a fresh worker's.

use std::collections::{BTreeMap, BTreeSet};

use icrowd_core::answer::{Answer, Vote};
use icrowd_core::config::ICrowdConfig;
use icrowd_core::probability::beta_variance;
use icrowd_core::task::TaskId;
use icrowd_core::worker::WorkerId;
use icrowd_estimate::{AccuracyEstimator, EstimationMode};
use icrowd_graph::SimilarityGraph;
use proptest::prelude::*;

/// Workers the random operations draw from.
const CROWD: u32 = 5;
/// Task ids the generators draw from; a case keeps those below its size.
const MAX_TASKS: u32 = 12;

const MODES: [EstimationMode; 3] = [
    EstimationMode::Raw,
    EstimationMode::Centered,
    EstimationMode::Normalized,
];

/// Algorithm 1 from the raw observations of one worker: the dense
/// estimate under `mode` and `baseline`.
fn from_scratch(
    estimator: &AccuracyEstimator,
    observed: &BTreeMap<u32, f64>,
    baseline: f64,
    mode: EstimationMode,
) -> Vec<f64> {
    let n = estimator.num_tasks();
    let index = estimator.index();
    let mut dev = vec![0.0f64; n];
    let mut mass = vec![0.0f64; n];
    let mut mass2 = vec![0.0f64; n];
    for (&i, &q) in observed {
        // An Equation-(5) posterior of exactly 0.5 says nothing about
        // the worker; normalized propagation gives it no weight.
        let info = match mode {
            EstimationMode::Normalized => (2.0 * q - 1.0).abs(),
            _ => 1.0,
        };
        if info == 0.0 {
            continue;
        }
        let d = match mode {
            EstimationMode::Raw => q,
            _ => q - baseline,
        };
        for (j, m) in index.vector(TaskId(i)).iter() {
            let wm = info * m;
            dev[j.index()] += d * wm;
            mass[j.index()] += wm;
            mass2[j.index()] += wm * wm;
        }
    }
    (0..n)
        .map(|j| match mode {
            EstimationMode::Raw => dev[j].clamp(0.0, 1.0),
            // The restart weight damps a single observation's deviation
            // at its own task; deliberately not compensated.
            EstimationMode::Centered => (baseline + dev[j]).clamp(0.0, 1.0),
            EstimationMode::Normalized => {
                if mass[j] <= 0.0 {
                    return baseline;
                }
                let n_eff = mass[j] * mass[j] / mass2[j];
                (baseline + dev[j] / mass[j] * n_eff / (n_eff + 1.0)).clamp(0.0, 1.0)
            }
        })
        .collect()
}

/// The tasks some observation of the worker still contributes to: the
/// PPR supports of her observed tasks, minus the weightless ones in
/// `Normalized` mode.
fn live_tasks(
    estimator: &AccuracyEstimator,
    observed: &BTreeMap<u32, f64>,
    mode: EstimationMode,
) -> BTreeSet<u32> {
    observed
        .iter()
        .filter(|&(_, &q)| mode != EstimationMode::Normalized || (2.0 * q - 1.0).abs() != 0.0)
        .flat_map(|(&i, _)| estimator.index().vector(TaskId(i)).support())
        .collect()
}

/// Step-3 evidence counts `(N1, N0)` from the observations: each
/// observed task and each of its graph neighbors gains `q` and `1 − q`.
fn evidence(graph: &SimilarityGraph, observed: &BTreeMap<u32, f64>) -> Vec<(f64, f64)> {
    let mut counts = vec![(0.0, 0.0); graph.num_tasks()];
    for (&i, &q) in observed {
        let task = TaskId(i);
        for j in std::iter::once(task).chain(graph.neighbors(task).map(|(nb, _)| nb)) {
            counts[j.index()].0 += q;
            counts[j.index()].1 += 1.0 - q;
        }
    }
    counts
}

/// One operation, applied to both estimators under test.
#[derive(Debug, Clone)]
enum Op {
    Qualify {
        worker: u32,
        task: u32,
        correct: bool,
    },
    Complete {
        task: u32,
        votes: Vec<Vote>,
    },
}

impl Op {
    /// Decodes a generated tuple: a kind, a worker, a task and bits
    /// that pick the other voters and their answers.
    fn decode((kind, worker, task, bits): (u8, u32, u32, u32), num_tasks: u32) -> Op {
        let task = task % num_tasks;
        if kind < 4 {
            return Op::Qualify {
                worker,
                task,
                correct: bits % 4 != 0,
            };
        }
        // The first voter's answer is the consensus, so at least one
        // voter matches it.
        let mut voters = vec![(worker, true)];
        voters.extend(
            (0..CROWD)
                .filter(|&w| w != worker && bits & (1 << w) != 0)
                .map(|w| (w, bits & (1 << (8 + w)) != 0)),
        );
        Op::Complete {
            task,
            votes: votes(&voters),
        }
    }

    fn apply(&self, estimator: &mut AccuracyEstimator) {
        match self {
            &Op::Qualify {
                worker,
                task,
                correct,
            } => {
                let answer = if correct { Answer::YES } else { Answer::NO };
                estimator.record_qualification(WorkerId(worker), TaskId(task), answer, Answer::YES);
            }
            Op::Complete { task, votes } => {
                estimator.record_completed_task(TaskId(*task), votes, Answer::YES)
            }
        }
    }
}

/// Votes by `(worker, answers the consensus)`.
fn votes(voters: &[(u32, bool)]) -> Vec<Vote> {
    voters
        .iter()
        .map(|&(w, agrees)| Vote {
            worker: WorkerId(w),
            answer: if agrees { Answer::YES } else { Answer::NO },
        })
        .collect()
}

/// Applies `op` to both estimators; `refreshed` then refreshes every
/// registered worker's dense cache, so its caches are patched or
/// rebuilt after every operation.
fn step(op: &Op, refreshed: &mut AccuracyEstimator, lazy: &mut AccuracyEstimator, workers: u32) {
    op.apply(refreshed);
    op.apply(lazy);
    for w in 0..workers {
        let _ = refreshed.accuracies(WorkerId(w));
    }
}

/// Every check of the module doc for one worker.
fn check_worker(
    refreshed: &mut AccuracyEstimator,
    lazy: &mut AccuracyEstimator,
    graph: &SimilarityGraph,
    mode: EstimationMode,
    worker: WorkerId,
) {
    let patched = refreshed.accuracies(worker).to_vec();
    let rebuilt = lazy.accuracies(worker).to_vec();
    let same_bits = patched
        .iter()
        .zip(&rebuilt)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        same_bits,
        "{mode:?} {worker:?}: patched cache {patched:?} vs rebuilt {rebuilt:?}"
    );

    let observed = lazy.observed(worker).cloned().unwrap_or_default();
    let baseline = lazy.baseline(worker);
    let scratch = from_scratch(lazy, &observed, baseline, mode);
    for (j, (inc, scr)) in rebuilt.iter().zip(&scratch).enumerate() {
        assert!(
            (inc - scr).abs() < 1e-9,
            "{mode:?} {worker:?} task {j}: incremental {inc} vs from-scratch {scr}"
        );
    }

    let cells: BTreeMap<u32, f64> = lazy.cell_scores(worker).map(|(t, s)| (t.0, s)).collect();
    assert_eq!(
        cells.keys().copied().collect::<BTreeSet<u32>>(),
        live_tasks(lazy, &observed, mode)
    );
    let absent = lazy.baseline_score(worker);
    for (j, &dense) in rebuilt.iter().enumerate() {
        let task = TaskId(j as u32);
        let cell = cells.get(&(j as u32)).copied();
        assert_eq!(lazy.cell_score(worker, task), cell);
        assert_eq!(
            lazy.estimate(worker, task).to_bits(),
            cell.unwrap_or(absent).to_bits()
        );
        assert_eq!(lazy.estimate(worker, task).to_bits(), dense.to_bits());
    }

    let counts = evidence(graph, &observed);
    for (j, &(n1, n0)) in counts.iter().enumerate() {
        let got = lazy.uncertainty(worker, TaskId(j as u32));
        let want = beta_variance(n1, n0);
        assert!(
            (got - want).abs() < 1e-9,
            "{mode:?} {worker:?} task {j}: uncertainty {got} vs recomputed {want}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_estimates_match_the_from_scratch_math(
        num_tasks in 3u32..=MAX_TASKS,
        edges in proptest::collection::vec((0u32..MAX_TASKS, 0u32..MAX_TASKS, 0.05f64..1.0), 0..24),
        mode in 0usize..3,
        ops in proptest::collection::vec((0u8..10, 0u32..CROWD, 0u32..MAX_TASKS, 0u32..1 << 16), 1..40),
    ) {
        let mode = MODES[mode];
        let edges: Vec<(TaskId, TaskId, f64)> = edges
            .into_iter()
            .filter(|&(a, b, _)| a != b && a < num_tasks && b < num_tasks)
            .map(|(a, b, w)| (TaskId(a), TaskId(b), w))
            .collect();
        let graph = SimilarityGraph::from_edges(num_tasks as usize, &edges);
        let mut lazy = AccuracyEstimator::new(graph.clone(), ICrowdConfig::default(), mode);
        let mut refreshed = lazy.clone();
        let workers = CROWD + 4;
        for op in ops {
            step(&Op::decode(op, num_tasks), &mut refreshed, &mut lazy, workers);
        }

        // The scripted re-grade. Twins `a` and `b` are graded twice on
        // neighboring tasks against helper `h`, who passed a
        // qualification on t0 and dissents; then they answer each task
        // against each other. Identical histories give identical
        // estimates, so Equation (5) grades both at exactly 0.5.
        let (a, b, c, h) = (CROWD, CROWD + 1, CROWD + 2, CROWD + 3);
        let t0 = 0;
        let t1 = graph.neighbors(TaskId(t0)).map(|(nb, _)| nb.0).next().unwrap_or(1);
        step(&Op::Qualify { worker: h, task: t0, correct: true }, &mut refreshed, &mut lazy, workers);
        for task in [t0, t1] {
            let grade = Op::Complete { task, votes: votes(&[(a, true), (b, true), (h, false)]) };
            step(&grade, &mut refreshed, &mut lazy, workers);
        }
        for task in [t0, t1] {
            let tie = Op::Complete { task, votes: votes(&[(a, true), (b, false)]) };
            step(&tie, &mut refreshed, &mut lazy, workers);
            prop_assert_eq!(lazy.observed_at(WorkerId(a), TaskId(task)), Some(0.5));
            prop_assert_eq!(lazy.observed_at(WorkerId(b), TaskId(task)), Some(0.5));
        }
        if mode == EstimationMode::Normalized {
            // Every grade withdrawn and nothing weighted added: no cell
            // is left, and `a` estimates like the fresh worker `c`.
            prop_assert_eq!(lazy.cell_scores(WorkerId(a)).count(), 0);
            let baseline = lazy.baseline(WorkerId(a));
            prop_assert!(refreshed.accuracies(WorkerId(a)).iter().all(|&p| p == baseline));
        }
        // One completion grades `a` and `c` alike. In Normalized mode
        // `a`'s cells restarted from exact zeros, so they hold `c`'s bits.
        let regrade = Op::Complete { task: t0, votes: votes(&[(a, true), (c, true), (h, false)]) };
        step(&regrade, &mut refreshed, &mut lazy, workers);
        if mode == EstimationMode::Normalized {
            let cells = |w: u32| -> BTreeMap<u32, u64> {
                lazy.cell_scores(WorkerId(w)).map(|(t, s)| (t.0, s.to_bits())).collect()
            };
            prop_assert_eq!(cells(a), cells(c));
        }

        for w in 0..workers {
            check_worker(&mut refreshed, &mut lazy, &graph, mode, WorkerId(w));
        }
    }
}
