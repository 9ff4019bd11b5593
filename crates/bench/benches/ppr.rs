//! PPR engine benchmarks — the ablation behind Lemma 3.
//!
//! Compares, on a blocky similarity graph:
//! * a full dense power-iteration solve per estimation request (what a
//!   naive implementation of Equation (4) costs),
//! * a sparse truncated solve, and
//! * the linearity-index lookup (Algorithm 1's online path) — the paper's
//!   design, orders of magnitude cheaper per request.
//!
//! Three further groups cover the optimizations since:
//! * `index_build_threads` — the offline build at 1/2/4/8 worker
//!   threads (bit-identical output; wall-clock only scales with the
//!   hardware threads actually present),
//! * `index_build` — the build a served campaign pays: item_compare's
//!   `Cos(topic)` graph at the campaign defaults, on one thread, and
//! * `estimator_refresh` — absorbing one new observation incrementally
//!   (accumulator delta + cache patch) vs re-deriving the estimate from
//!   the raw observation set, the pre-accumulator cost.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use icrowd::core::{Answer, ICrowdConfig, PprConfig, TaskId, WorkerId};
use icrowd::estimate::{AccuracyEstimator, EstimationMode};
use icrowd::graph::{
    power_iteration, sparse_ppr, LinearityIndex, SimilarityGraph, SparseTaskVector,
};
use icrowd_sim::campaign::{build_graph, CampaignConfig};
use icrowd_sim::datasets::item_compare;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn bench_ppr(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppr");
    group.sample_size(10);
    for &n_blocks in &[5usize, 20] {
        let graph = blocky_graph(n_blocks, 20, 7);
        let n = graph.num_tasks();
        let config = PprConfig::default();
        let mut q_dense = vec![0.0; n];
        q_dense[0] = 1.0;
        q_dense[n / 2] = 0.5;
        let q_sparse = SparseTaskVector::from_pairs(vec![(0, 1.0), (n as u32 / 2, 0.5)]);

        group.bench_with_input(BenchmarkId::new("dense_power_iteration", n), &n, |b, _| {
            b.iter(|| power_iteration(&graph, &q_dense, 1.0, &config))
        });
        group.bench_with_input(BenchmarkId::new("sparse_ppr", n), &n, |b, _| {
            b.iter(|| sparse_ppr(&graph, &q_sparse, 1.0, 1e-6, &config))
        });

        let index = LinearityIndex::build(&graph, 1.0, &config);
        group.bench_with_input(BenchmarkId::new("linearity_lookup", n), &n, |b, _| {
            b.iter(|| index.estimate_dense(&q_sparse))
        });
        group.bench_with_input(BenchmarkId::new("index_build", n), &n, |b, _| {
            b.iter(|| LinearityIndex::build(&graph, 1.0, &config))
        });
    }
    group.finish();
}

fn bench_index_build_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build_threads");
    group.sample_size(10);
    let graph = blocky_graph(50, 20, 7);
    for &threads in &[1usize, 2, 4, 8] {
        let config = PprConfig {
            threads,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| LinearityIndex::build(&graph, 1.0, &config))
        });
    }
    group.finish();
}

/// The served offline build: the campaign defaults (seed 42) with the
/// build on one thread, so the figure does not depend on the core count.
fn bench_served_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    let config = CampaignConfig::default();
    let graph = build_graph(&item_compare(config.seed), &config);
    let ppr = PprConfig {
        threads: 1,
        ..config.icrowd.ppr
    };
    group.bench_function("item_compare_360", |b| {
        b.iter(|| LinearityIndex::build(&graph, config.icrowd.alpha, &ppr))
    });
    group.finish();
}

/// One refresh = absorb a (re)observation on a rotating task and read
/// the estimate back at that task.
fn bench_estimator_refresh(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator_refresh");
    group.sample_size(10);
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
        // refresh below replaces them in turn, so the observed set stays
        // at a steady-state size.
        for i in 0..50u32 {
            let t = TaskId((i as usize * n / 50) as u32);
            e.record_qualification(worker, t, Answer::YES, Answer::YES);
        }
        let _ = e.accuracies(worker);
        e
    };

    let mut e = make();
    let mut round = 0u32;
    group.bench_function("incremental", |b| {
        b.iter(|| {
            let t = TaskId((round as usize * n / 50) as u32 % n as u32);
            let ans = if round.is_multiple_of(3) {
                Answer::NO
            } else {
                Answer::YES
            };
            e.record_qualification(worker, t, ans, Answer::YES);
            round += 1;
            black_box(e.estimate(worker, t))
        })
    });

    // The pre-accumulator cost: re-derive the dense estimate from the
    // raw observation set (Σ q_i·p_{t_i} via the index) on every refresh.
    let mut e = make();
    let mut round = 0u32;
    group.bench_function("full_recompute", |b| {
        b.iter(|| {
            let t = TaskId((round as usize * n / 50) as u32 % n as u32);
            let ans = if round.is_multiple_of(3) {
                Answer::NO
            } else {
                Answer::YES
            };
            e.record_qualification(worker, t, ans, Answer::YES);
            round += 1;
            let q: SparseTaskVector = e
                .observed(worker)
                .expect("registered")
                .iter()
                .map(|(&i, &v)| (i, v))
                .collect();
            black_box(e.index().estimate_dense(&q)[t.index()])
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ppr,
    bench_index_build_threads,
    bench_served_index_build,
    bench_estimator_refresh
);
criterion_main!(benches);
