//! Kernel costs behind the paper's two cost claims, and the offline
//! kernels a served campaign pays, timed into the obs registry.
//!
//! DESIGN §7's two ablations are gates: the binary exits nonzero unless
//!
//! * Lemma 3: the linearity-index lookup (Algorithm 1's online path) is
//!   at least 10× cheaper than a dense power-iteration solve of
//!   Equation (4), on blocky graphs of 100 and 400 tasks, and
//! * Equation (1): the Poisson-binomial DP for `Pr(W_t)` is at least
//!   100× cheaper than literal subset enumeration at `k = 15`.
//!
//! Enumeration stays cheaper at `k = 3`; that crossover is printed, not
//! gated. The other cases are the sparse solve, the estimator refresh
//! (incremental against a full recompute) and the served offline
//! kernels: item_compare's index build on one thread and the LDA fit at
//! 8 topics and 150 sweeps.
//!
//! Each case calibrates by doubling its call count until one batch lasts
//! at least 1 ms, then times 11 batches and records each batch's
//! per-call nanoseconds under span `kernel.<case>`; the printed figure is
//! that histogram's median. Telemetry is off while the kernels run, so
//! their own spans cost what they cost on the served path.
//! `ICROWD_TELEMETRY=<path>` writes the samples as JSONL; to compare one
//! kernel across two commits, run each commit's binary with its own path
//! and `icrowd obs diff a.jsonl b.jsonl --span kernel.index_build
//! --min-count 11`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use icrowd::core::{
    worker_set_accuracy, worker_set_accuracy_enumerate, Answer, ICrowdConfig, PprConfig, TaskId,
    WorkerId,
};
use icrowd::estimate::{AccuracyEstimator, EstimationMode};
use icrowd::graph::{
    power_iteration, sparse_ppr, LinearityIndex, SimilarityGraph, SparseTaskVector,
};
use icrowd::text::{LdaConfig, LdaModel, Tokenizer};
use icrowd_sim::campaign::{build_graph, CampaignConfig};
use icrowd_sim::datasets::{item_compare, yahooqa};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A batch lasts at least this long.
const BATCH: Duration = Duration::from_millis(1);

/// Batches per case: the sample count behind each median.
const BATCHES: usize = 11;

/// Times `f`: doubles the calls per batch until one batch lasts at
/// least [`BATCH`], then records [`BATCHES`] batches' per-call
/// nanoseconds under `kernel.<case>` and returns the histogram's median.
fn time<R>(case: &str, mut f: impl FnMut() -> R) -> u64 {
    let run = |f: &mut dyn FnMut() -> R, calls: u64| {
        let started = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        started.elapsed()
    };
    let mut calls = 1u64;
    while run(&mut f, calls) < BATCH {
        calls *= 2;
    }
    let samples: Vec<u64> = (0..BATCHES)
        .map(|_| (run(&mut f, calls).as_nanos() / u128::from(calls)) as u64)
        .collect();
    let name = format!("kernel.{case}");
    icrowd_obs::enable();
    for ns in samples {
        icrowd_obs::record_span_ns(&name, ns);
    }
    icrowd_obs::disable();
    let median = icrowd_obs::span_histogram(&name)
        .expect("recorded above")
        .percentile(0.5);
    println!("{case:<28} {median:>14} {calls:>12}");
    median
}

/// A graph of `blocks` cliques of size `block_size` with sparse bridges.
fn blocky_graph(blocks: usize, block_size: usize, seed: u64) -> SimilarityGraph {
    let n = blocks * block_size;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for b in 0..blocks {
        let base = (b * block_size) as u32;
        for i in 0..block_size as u32 {
            for j in (i + 1)..block_size as u32 {
                edges.push((TaskId(base + i), TaskId(base + j), rng.gen_range(0.6..1.0)));
            }
        }
    }
    SimilarityGraph::from_edges(n, &edges)
}

/// Lemma 3: per-request estimation by a dense solve, a sparse solve and
/// the index lookup. Returns `(n, dense_ns, lookup_ns)`.
fn lemma3(blocks: usize) -> (usize, u64, u64) {
    let graph = blocky_graph(blocks, 20, 7);
    let n = graph.num_tasks();
    let config = PprConfig::default();
    let mut q_dense = vec![0.0; n];
    q_dense[0] = 1.0;
    q_dense[n / 2] = 0.5;
    let q_sparse = SparseTaskVector::from_pairs(vec![(0, 1.0), (n as u32 / 2, 0.5)]);
    let index = LinearityIndex::build(&graph, 1.0, &config);
    let dense = time(&format!("dense_solve/{n}"), || {
        power_iteration(&graph, &q_dense, 1.0, &config)
    });
    time(&format!("sparse_solve/{n}"), || {
        sparse_ppr(&graph, &q_sparse, 1.0, 1e-6, &config)
    });
    let lookup = time(&format!("lookup/{n}"), || index.estimate_dense(&q_sparse));
    (n, dense, lookup)
}

/// Equation (1): the DP and enumeration at `k` workers. Returns
/// `(dp_ns, enumerate_ns)`.
fn eq1(rng: &mut StdRng, k: usize) -> (u64, u64) {
    let probs: Vec<f64> = (0..k).map(|_| rng.gen_range(0.3..0.95)).collect();
    let dp = time(&format!("dp/{k}"), || {
        worker_set_accuracy(black_box(&probs))
    });
    let enumerate = time(&format!("enumerate/{k}"), || {
        worker_set_accuracy_enumerate(black_box(&probs))
    });
    (dp, enumerate)
}

/// One refresh absorbs a (re)observation on a rotating task and reads
/// the estimate back there: incrementally (accumulator delta + cache
/// patch), and by re-deriving the estimate from the raw observation set.
fn estimator_refresh() {
    let graph = blocky_graph(50, 20, 7);
    let n = graph.num_tasks();
    let worker = WorkerId(0);
    let make = || {
        let mut e = AccuracyEstimator::new(
            graph.clone(),
            ICrowdConfig::default(),
            EstimationMode::Normalized,
        );
        // 50 standing observations spread over the blocks; the rotating
        // refresh replaces them in turn, so the observed set stays at a
        // steady-state size.
        for i in 0..50u32 {
            let t = TaskId((i as usize * n / 50) as u32);
            e.record_qualification(worker, t, Answer::YES, Answer::YES);
        }
        let _ = e.accuracies(worker);
        e
    };
    let observe = |e: &mut AccuracyEstimator, round: &mut u32| {
        let t = TaskId((*round as usize * n / 50) as u32 % n as u32);
        let answer = if round.is_multiple_of(3) {
            Answer::NO
        } else {
            Answer::YES
        };
        e.record_qualification(worker, t, answer, Answer::YES);
        *round += 1;
        t
    };

    let (mut e, mut round) = (make(), 0);
    time("refresh_incremental", || {
        let t = observe(&mut e, &mut round);
        e.estimate(worker, t)
    });
    let (mut e, mut round) = (make(), 0);
    time("refresh_full", || {
        let t = observe(&mut e, &mut round);
        let q: SparseTaskVector = e
            .observed(worker)
            .expect("registered")
            .iter()
            .map(|(&i, &v)| (i, v))
            .collect();
        e.index().estimate_dense(&q)[t.index()]
    });
}

/// The offline kernels a served campaign pays: item_compare's index
/// build at the campaign defaults on one thread, and the `Cos(topic)`
/// LDA fit (8 topics, 150 sweeps, the campaign seed) on both datasets.
fn served_offline() {
    let config = CampaignConfig::default();
    let graph = build_graph(&item_compare(config.seed), &config);
    let ppr = PprConfig {
        threads: 1,
        ..config.icrowd.ppr
    };
    time("index_build", || {
        LinearityIndex::build(&graph, config.icrowd.alpha, &ppr)
    });
    let tokenizer = Tokenizer::new();
    for (name, tasks) in [
        ("yahooqa", yahooqa(config.seed).tasks),
        ("item_compare", item_compare(config.seed).tasks),
    ] {
        let (docs, vocab) = icrowd::text::tokenize::encode_corpus(
            &tokenizer,
            tasks.iter().map(|t| t.text.as_str()),
        );
        let lda = LdaConfig {
            num_topics: 8,
            iterations: 150,
            seed: config.seed,
            ..Default::default()
        };
        time(&format!("lda_fit/{name}"), || {
            LdaModel::fit(&docs, vocab.len(), &lda)
        });
    }
}

fn main() {
    let telemetry = std::env::var(icrowd_bench::telemetry::ENV).ok();
    icrowd_obs::reset();
    println!(
        "{:<28} {:>14} {:>12}",
        "case", "median_ns/call", "calls/batch"
    );

    let lemma3_rows = [lemma3(5), lemma3(20)];
    let mut rng = StdRng::seed_from_u64(3);
    let [(dp3, enumerate3), _, (dp15, enumerate15), _] = [3, 7, 15, 21].map(|k| eq1(&mut rng, k));
    estimator_refresh();
    served_offline();

    let mut failed = false;
    let mut gate = |what: String, cheap: u64, costly: u64, min: f64| {
        let ratio = costly as f64 / cheap.max(1) as f64;
        let ok = ratio >= min;
        failed |= !ok;
        let verdict = if ok { "ok" } else { "FAIL" };
        println!("{verdict:<4} {what}: {ratio:.1}x (gate >= {min}x)");
    };
    println!();
    for (n, dense, lookup) in lemma3_rows {
        gate(
            format!("Lemma 3, n = {n}: lookup {lookup} ns vs dense solve {dense} ns"),
            lookup,
            dense,
            10.0,
        );
    }
    gate(
        format!("Eq. 1, k = 15: DP {dp15} ns vs enumeration {enumerate15} ns"),
        dp15,
        enumerate15,
        100.0,
    );
    let cheaper = if enumerate3 < dp3 {
        "enumeration"
    } else {
        "DP"
    };
    println!("info Eq. 1, k = 3: DP {dp3} ns vs enumeration {enumerate3} ns; {cheaper} is cheaper (not gated)");

    icrowd_bench::telemetry::finish(telemetry);
    if failed {
        std::process::exit(1);
    }
}
