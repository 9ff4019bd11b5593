//! `sparse_ppr` sorts a sweep's pairs once per support of the iterate
//! and reuses that order while the support holds. The reference here is
//! the solver that sorts every sweep: each sweep's pairs go through
//! `SparseTaskVector::from_pairs`. The solver and the linearity index
//! must match it bit for bit, on the same number of stored entries.
//!
//! The graphs are dense enough (degree ≥ 10) that a sweep's pair list
//! runs past `sort_unstable`'s small-slice cutoff, where equal task ids
//! stop keeping their generation order; and the truncation thresholds
//! change the support mid-solve.

use icrowd::core::{PprConfig, TaskId};
use icrowd::graph::{sparse_ppr, LinearityIndex, SimilarityGraph, SparseTaskVector};
use icrowd_sim::campaign::{build_graph, CampaignConfig};
use icrowd_sim::datasets::by_name;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TRUNCATIONS: [f64; 3] = [0.0, 1e-6, 1e-3];

/// The per-sweep sort: Equation (4) with one `from_pairs` per sweep.
fn reference_ppr(
    graph: &SimilarityGraph,
    q: &SparseTaskVector,
    alpha: f64,
    truncate_eps: f64,
    config: &PprConfig,
) -> SparseTaskVector {
    let damping = 1.0 / (1.0 + alpha);
    let restart = alpha / (1.0 + alpha);
    let tolerance = config.tolerance.max(truncate_eps * 0.1);
    let mut p = q.clone();
    for _ in 0..config.max_iterations {
        let mut pairs = Vec::new();
        for (i, v) in p.iter() {
            let dv = damping * v;
            for (j, w) in graph.normalized_neighbors(i) {
                pairs.push((j.0, dv * w));
            }
        }
        for (i, v) in q.iter() {
            pairs.push((i.0, restart * v));
        }
        let mut next = SparseTaskVector::from_pairs(pairs);
        next.truncate(truncate_eps);
        let delta = l1_distance(&p, &next);
        p = next;
        if delta < tolerance {
            break;
        }
    }
    p
}

/// The solver's L1 distance between iterates, in its summation order.
fn l1_distance(a: &SparseTaskVector, b: &SparseTaskVector) -> f64 {
    let (ea, eb) = (a.entries(), b.entries());
    let (mut i, mut j) = (0, 0);
    let mut d = 0.0;
    while i < ea.len() && j < eb.len() {
        match ea[i].0.cmp(&eb[j].0) {
            std::cmp::Ordering::Less => {
                d += ea[i].1.abs();
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                d += eb[j].1.abs();
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                d += (ea[i].1 - eb[j].1).abs();
                i += 1;
                j += 1;
            }
        }
    }
    d += ea[i..].iter().map(|&(_, v)| v.abs()).sum::<f64>();
    d += eb[j..].iter().map(|&(_, v)| v.abs()).sum::<f64>();
    d
}

fn assert_bit_identical(got: &SparseTaskVector, want: &SparseTaskVector, what: &str) {
    assert_eq!(got.nnz(), want.nnz(), "{what}: nnz");
    for (&(gi, gv), &(wi, wv)) in got.entries().iter().zip(want.entries()) {
        assert_eq!(gi, wi, "{what}: support");
        assert_eq!(
            gv.to_bits(),
            wv.to_bits(),
            "{what}: task {gi} reads {gv:e}, the per-sweep sort {wv:e}"
        );
    }
}

/// The linearity index built from the reference solver, as
/// `LinearityIndex::build` stores it.
fn assert_index_matches(graph: &SimilarityGraph, alpha: f64, config: &PprConfig, what: &str) {
    let index = LinearityIndex::build(graph, alpha, config);
    for t in 0..graph.num_tasks() {
        let task = TaskId(t as u32);
        let mut want = reference_ppr(
            graph,
            &SparseTaskVector::unit(task),
            alpha,
            config.index_epsilon,
            config,
        );
        want.truncate(config.index_epsilon);
        assert_bit_identical(index.vector(task), &want, &format!("{what}, p_{t}"));
    }
}

/// A random graph on `n` nodes in which each node picks at least ten
/// distinct neighbors.
fn random_graph(n: usize, seed: u64) -> SimilarityGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for i in 0..n as u32 {
        let degree = rng.gen_range(10..15usize);
        let mut picked: Vec<u32> = Vec::with_capacity(degree);
        while picked.len() < degree {
            let j = rng.gen_range(0..n as u32);
            if j != i && !picked.contains(&j) {
                picked.push(j);
            }
        }
        for j in picked {
            edges.push((TaskId(i), TaskId(j), rng.gen_range(0.05..1.0)));
        }
    }
    SimilarityGraph::from_edges(n, &edges)
}

proptest! {
    #[test]
    fn sparse_ppr_matches_the_per_sweep_sort(
        n in 40usize..=120,
        seed in 0u64..u64::MAX,
        alpha in 0.2f64..5.0,
        restart in proptest::collection::vec((0u32..40, 0.05f64..=1.0), 2..6),
    ) {
        let graph = random_graph(n, seed);
        let q = SparseTaskVector::from_pairs(restart);
        let config = PprConfig::default();
        for eps in TRUNCATIONS {
            let got = sparse_ppr(&graph, &q, alpha, eps, &config);
            let want = reference_ppr(&graph, &q, alpha, eps, &config);
            assert_bit_identical(&got, &want, &format!("n={n} seed={seed} alpha={alpha} eps={eps}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn index_build_matches_the_per_sweep_sort(
        n in 40usize..=120,
        seed in 0u64..u64::MAX,
        alpha in 0.2f64..5.0,
    ) {
        let graph = random_graph(n, seed);
        for eps in TRUNCATIONS {
            let config = PprConfig { index_epsilon: eps, threads: 1, ..Default::default() };
            assert_index_matches(&graph, alpha, &config, &format!("n={n} seed={seed} eps={eps}"));
        }
    }
}

#[test]
fn served_dataset_indexes_match_the_per_sweep_sort() {
    for key in ["item_compare", "yahooqa"] {
        for seed in [42, 10752] {
            let dataset = by_name(key, seed).expect("built-in dataset");
            let config = CampaignConfig {
                seed,
                ..Default::default()
            };
            let graph = build_graph(&dataset, &config);
            assert_index_matches(
                &graph,
                config.icrowd.alpha,
                &config.icrowd.ppr,
                &format!("{key} seed {seed}"),
            );
        }
    }
}
