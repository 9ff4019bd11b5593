//! Personalized PageRank — the solver behind Equation (4).
//!
//! The estimation model's closed form (Lemma 1)
//!
//! ```text
//! p* = (alpha / (1 + alpha)) (I - S' / (1 + alpha))^(-1) q
//! ```
//!
//! is computed iteratively (Lemma 2) by repeating
//!
//! ```text
//! p <- (1 / (1 + alpha)) p S' + (alpha / (1 + alpha)) q
//! ```
//!
//! which is personalized PageRank with damping `1 / (1 + alpha)` and
//! restart vector `q`. Two solvers are provided:
//!
//! * [`power_iteration`] — dense, the reference implementation;
//! * [`sparse_ppr`] — keeps the iterate sparse, truncating entries below
//!   an epsilon per sweep; this is what the offline linearity-index build
//!   uses on large graphs (each `p_{t_i}` only touches a small
//!   neighborhood when the graph is neighbor-capped).

use std::cell::RefCell;

use icrowd_core::config::PprConfig;
use icrowd_core::task::TaskId;

use crate::csr::SimilarityGraph;
use crate::sparsevec::{sort_by_index, SparseTaskVector};

/// Dense PPR by power iteration.
///
/// Starts from `p = q` (the paper's initialization) and iterates
/// Equation (4) until the L1 change drops below `config.tolerance` or
/// `config.max_iterations` sweeps elapse. Returns the converged vector.
///
/// # Panics
/// Panics if `q.len() != graph.num_tasks()` or `alpha <= 0`.
pub fn power_iteration(
    graph: &SimilarityGraph,
    q: &[f64],
    alpha: f64,
    config: &PprConfig,
) -> Vec<f64> {
    assert_eq!(q.len(), graph.num_tasks(), "q must have one entry per task");
    assert!(alpha > 0.0, "alpha must be positive");
    let damping = 1.0 / (1.0 + alpha);
    let restart = alpha / (1.0 + alpha);

    let mut p = q.to_vec();
    let mut sp = vec![0.0; q.len()];
    for _ in 0..config.max_iterations {
        graph.mul_normalized(&p, &mut sp);
        let mut delta = 0.0;
        for i in 0..p.len() {
            let next = damping * sp[i] + restart * q[i];
            delta += (next - p[i]).abs();
            p[i] = next;
        }
        if delta < config.tolerance {
            break;
        }
    }
    p
}

/// Sparse PPR: the same fixed-point iteration over a sparse iterate.
///
/// Entries whose magnitude stays below `truncate_eps` after a sweep are
/// dropped, bounding the working set by the (damped) neighborhood of
/// `q`'s support. With `truncate_eps = 0` this is exact up to
/// `config.tolerance` and matches [`power_iteration`].
///
/// A sweep makes one contribution `(damping·p_i)·s'_ij` per neighbor `j`
/// of each support entry `i`, then one `restart·q_j` per entry of `q`,
/// and sums each task's contributions in the order `sort_by_index`
/// leaves them, each run from its first element. That order depends only
/// on the sequence of task ids, which depends only on the iterate's
/// support (`q` and the graph are fixed). So the solver sorts once per
/// support, and the first sweep after a sort turns the sorted pairs into
/// a plan, each contribution's source and weight in summation order,
/// that every later sweep on the support replays: the same operands in
/// the same order, so the same bits as sorting every sweep's
/// contributions.
pub fn sparse_ppr(
    graph: &SimilarityGraph,
    q: &SparseTaskVector,
    alpha: f64,
    truncate_eps: f64,
    config: &PprConfig,
) -> SparseTaskVector {
    assert!(alpha > 0.0, "alpha must be positive");
    let _span = icrowd_obs::span!("ppr.solve");
    let damping = 1.0 / (1.0 + alpha);
    let restart = alpha / (1.0 + alpha);
    // Iterating past the truncation threshold is wasted work: changes
    // smaller than a tenth of what gets truncated cannot survive.
    let tolerance = config.tolerance.max(truncate_eps * 0.1);

    let mut p = q.clone();
    let mut next = SparseTaskVector::new();
    let (mut iterations, mut sorts) = (0u64, 0u64);
    SCRATCH.with_borrow_mut(|(plan, sources)| {
        let mut plan_fits = false;
        for _ in 0..config.max_iterations {
            iterations += 1;
            // The sweep's sources in slot order: `damping·p_i` per support
            // entry of `p`, then `restart·q_j` per entry of `q`.
            sources.clear();
            sources.extend(p.iter().map(|(_, v)| damping * v));
            sources.extend(q.iter().map(|(_, v)| restart * v));
            // next = damping * (p S') + restart * q, truncated as it fills.
            if plan_fits {
                plan.sweep(sources, truncate_eps, &mut next);
            } else {
                plan.sort(graph, &p, q);
                plan.build_and_sweep(sources, truncate_eps, &mut next);
                sorts += 1;
            }
            // The next sweep starts from `next`: the plan fits it only if
            // the support held.
            plan_fits = next.support().eq(p.support());

            // L1 distance between iterates (merge walk).
            let delta = l1_distance(&p, &next);
            std::mem::swap(&mut p, &mut next);
            if delta < tolerance {
                break;
            }
        }
    });
    icrowd_obs::counter_add("ppr.solves", 1);
    icrowd_obs::counter_add("ppr.iterations", iterations);
    icrowd_obs::counter_add("ppr.sorts", sorts);
    p
}

thread_local! {
    /// The solver's plan and sources, kept across solves: the index build
    /// solves once per task, and fresh buffers for each solve cost page
    /// faults whenever the allocator hands freed memory back to the
    /// system. The build frees them when its solves are done.
    static SCRATCH: RefCell<(SweepPlan, Vec<f64>)> = RefCell::default();
}

/// Frees the calling thread's solver scratch, so a thread that built an
/// index keeps no solver buffers.
pub(crate) fn release_scratch() {
    SCRATCH.take();
}

/// One support's sweep, in summation order.
///
/// [`Self::sort`] fills `pairs` with the task ids a sweep generates,
/// each tagged with its generation index, and sorts them.
/// [`Self::build_and_sweep`] then rewrites every pair in place into its
/// plan entry (source slot, weight) and records in `runs` where each
/// task's run ends; after it, [`Self::sweep`] is one pass over the plan.
#[derive(Default)]
struct SweepPlan {
    /// `(task, generation)` pairs in sorted order, until the first sweep
    /// rewrites them to `(source slot, weight)`.
    pairs: Vec<(u32, f64)>,
    /// The source slot and weight of each generation.
    generations: Vec<(u32, f64)>,
    /// Each run's task and the end of its span in `pairs`.
    runs: Vec<(u32, usize)>,
}

impl SweepPlan {
    /// Sorts the task ids a sweep from `p` generates: each neighbor of
    /// each support entry, then each entry of `q` (weight 1: its source
    /// already is `restart·q_j`). The generation index rides in the `f64`
    /// slot as raw bits, so the sort runs on the element type `from_pairs`
    /// sorts and leaves equal ids in the order the contributions would
    /// take: a `(u32, u32)` sort orders them differently.
    fn sort(&mut self, graph: &SimilarityGraph, p: &SparseTaskVector, q: &SparseTaskVector) {
        self.pairs.clear();
        self.generations.clear();
        for (slot, i) in p.support().enumerate() {
            let (tasks, weights) = graph.normalized_row(TaskId(i));
            self.generate(slot, tasks, weights);
        }
        for (k, j) in q.support().enumerate() {
            self.generate(p.nnz() + k, &[j], &[1.0]);
        }
        sort_by_index(&mut self.pairs);
    }

    /// Appends one generation per task in `tasks`, all from source
    /// `slot`, with the matching weights.
    fn generate(&mut self, slot: usize, tasks: &[u32], weights: &[f64]) {
        let slot = u32::try_from(slot).expect("a sweep has fewer than 2^32 sources");
        let first = self.generations.len();
        self.pairs.extend(
            tasks
                .iter()
                .enumerate()
                .map(|(k, &j)| (j, f64::from_bits((first + k) as u64))),
        );
        self.generations
            .extend(weights.iter().map(|&weight| (slot, weight)));
    }

    /// The first sweep after [`Self::sort`], fused with building the
    /// plan: one pass that rewrites each pair into its plan entry, records
    /// each run's end, and sums into `next`.
    // Out of line for the reason `sweep` gives.
    #[inline(never)]
    fn build_and_sweep(&mut self, sources: &[f64], truncate_eps: f64, next: &mut SparseTaskVector) {
        self.runs.clear();
        next.clear();
        let mut k = 0;
        while k < self.pairs.len() {
            let task = self.pairs[k].0;
            let mut sum = self.rewrite(k, sources);
            k += 1;
            while k < self.pairs.len() && self.pairs[k].0 == task {
                sum += self.rewrite(k, sources);
                k += 1;
            }
            self.runs.push((task, k));
            next.push_above(task, sum, truncate_eps);
        }
    }

    /// Rewrites pair `k` into its plan entry and returns its
    /// contribution.
    fn rewrite(&mut self, k: usize, sources: &[f64]) -> f64 {
        let entry = self.generations[self.pairs[k].1.to_bits() as usize];
        self.pairs[k] = entry;
        contribution(sources, entry)
    }

    /// A later sweep on the same support: each run summed from its first
    /// element, in plan order.
    // Out of line: inlined into `sparse_ppr`, the compiler kept each
    // run's sum on the stack and a sweep took three times as long.
    #[inline(never)]
    fn sweep(&self, sources: &[f64], truncate_eps: f64, next: &mut SparseTaskVector) {
        next.clear();
        let mut start = 0;
        for &(task, end) in &self.runs {
            let (&first, rest) = self.pairs[start..end]
                .split_first()
                .expect("a run holds at least one contribution");
            let sum = rest
                .iter()
                .fold(contribution(sources, first), |sum, &entry| {
                    sum + contribution(sources, entry)
                });
            next.push_above(task, sum, truncate_eps);
            start = end;
        }
    }
}

/// A plan entry's contribution: its source's value times its weight.
#[inline]
fn contribution(sources: &[f64], (slot, weight): (u32, f64)) -> f64 {
    sources[slot as usize] * weight
}

/// L1 distance between two sparse vectors.
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

/// Solves the closed form of Lemma 1 by Gaussian elimination — an
/// `O(n^3)` oracle used in tests to confirm the iterative solvers reach
/// the analytic optimum `p* = restart * (I - damping * S')^(-1) q`.
pub fn closed_form_oracle(graph: &SimilarityGraph, q: &[f64], alpha: f64) -> Vec<f64> {
    let n = graph.num_tasks();
    assert_eq!(q.len(), n);
    let damping = 1.0 / (1.0 + alpha);
    let restart = alpha / (1.0 + alpha);

    // Build A = I - damping * S' densely.
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        a[i * n + i] = 1.0;
        for (j, w) in graph.normalized_neighbors(TaskId(i as u32)) {
            a[i * n + j.index()] -= damping * w;
        }
    }
    let mut b: Vec<f64> = q.iter().map(|&v| restart * v).collect();

    // Gaussian elimination with partial pivoting.
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&x, &y| a[x * n + col].abs().total_cmp(&a[y * n + col].abs()))
            .unwrap();
        if a[pivot * n + col].abs() < 1e-14 {
            continue;
        }
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
            b.swap(col, pivot);
        }
        for row in (col + 1)..n {
            let f = a[row * n + col] / a[col * n + col];
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= f * a[col * n + k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row * n + k] * x[k];
        }
        x[row] = acc / a[row * n + row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    fn chain() -> SimilarityGraph {
        SimilarityGraph::from_edges(
            5,
            &[
                (t(0), t(1), 0.9),
                (t(1), t(2), 0.8),
                (t(2), t(3), 0.7),
                (t(3), t(4), 0.6),
            ],
        )
    }

    #[test]
    fn power_iteration_matches_closed_form() {
        let g = chain();
        let q = vec![1.0, 0.0, 0.0, 0.0, 0.5];
        for alpha in [0.5, 1.0, 2.0] {
            let iterative = power_iteration(&g, &q, alpha, &PprConfig::default());
            let exact = closed_form_oracle(&g, &q, alpha);
            for (a, b) in iterative.iter().zip(&exact) {
                assert!((a - b).abs() < 1e-7, "alpha={alpha}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sparse_matches_dense_without_truncation() {
        let g = chain();
        let q_dense = vec![0.0, 1.0, 0.0, 0.0, 0.0];
        let dense = power_iteration(&g, &q_dense, 1.0, &PprConfig::default());
        let sparse = sparse_ppr(
            &g,
            &SparseTaskVector::unit(t(1)),
            1.0,
            0.0,
            &PprConfig::default(),
        );
        for i in 0..5u32 {
            assert!((sparse.get(t(i)) - dense[i as usize]).abs() < 1e-7);
        }
    }

    #[test]
    fn truncated_sparse_is_close_and_smaller() {
        let g = chain();
        let exact = sparse_ppr(
            &g,
            &SparseTaskVector::unit(t(0)),
            1.0,
            0.0,
            &PprConfig::default(),
        );
        let truncated = sparse_ppr(
            &g,
            &SparseTaskVector::unit(t(0)),
            1.0,
            1e-3,
            &PprConfig::default(),
        );
        assert!(truncated.nnz() <= exact.nnz());
        for (i, v) in exact.iter() {
            assert!((truncated.get(i) - v).abs() < 1e-2);
        }
    }

    #[test]
    fn mass_decays_with_distance_from_source() {
        let g = chain();
        let p = power_iteration(&g, &[1.0, 0.0, 0.0, 0.0, 0.0], 1.0, &PprConfig::default());
        assert!(p[0] > p[1], "source dominates");
        assert!(
            p[1] > p[2] && p[2] > p[3] && p[3] > p[4],
            "mass decays: {p:?}"
        );
        assert!(p[4] > 0.0, "everything connected receives some mass");
    }

    #[test]
    fn isolated_node_keeps_only_restart_mass() {
        let g = SimilarityGraph::from_edges(3, &[(t(0), t(1), 0.5)]);
        let p = power_iteration(&g, &[0.0, 0.0, 1.0], 1.0, &PprConfig::default());
        // alpha = 1: restart weight is 0.5; the isolated node converges to
        // exactly restart * q = 0.5 and leaks nothing to others.
        assert!((p[2] - 0.5).abs() < 1e-9);
        assert_eq!(p[0], 0.0);
        assert_eq!(p[1], 0.0);
    }

    #[test]
    fn large_alpha_pins_p_to_q() {
        let g = chain();
        let q = vec![0.0, 1.0, 0.0, 0.0, 0.0];
        let p = power_iteration(&g, &q, 100.0, &PprConfig::default());
        // restart weight 100/101: p should be nearly q.
        assert!((p[1] - 100.0 / 101.0).abs() < 1e-2);
        assert!(p[0] < 0.02 && p[2] < 0.02);
    }

    #[test]
    fn linearity_property_holds() {
        // Lemma 3: p*(q) = sum_i q_i * p*(e_i).
        let g = chain();
        let cfg = PprConfig::default();
        let q = vec![0.7, 0.0, 0.3, 0.0, 1.0];
        let direct = power_iteration(&g, &q, 1.0, &cfg);
        let mut combined = vec![0.0; 5];
        for (i, &qi) in q.iter().enumerate() {
            if qi == 0.0 {
                continue;
            }
            let mut e = vec![0.0; 5];
            e[i] = 1.0;
            let p_i = power_iteration(&g, &e, 1.0, &cfg);
            for (c, v) in combined.iter_mut().zip(&p_i) {
                *c += qi * v;
            }
        }
        for (a, b) in direct.iter().zip(&combined) {
            assert!((a - b).abs() < 1e-7, "linearity violated: {a} vs {b}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_graph() -> impl Strategy<Value = SimilarityGraph> {
            proptest::collection::vec((0u32..8, 0u32..8, 0.05f64..=1.0), 0..20).prop_map(|v| {
                let edges: Vec<_> = v
                    .into_iter()
                    .filter(|(a, b, _)| a != b)
                    .map(|(a, b, s)| (TaskId(a), TaskId(b), s))
                    .collect();
                SimilarityGraph::from_edges(8, &edges)
            })
        }

        proptest! {
            #[test]
            fn converges_to_closed_form(
                g in arb_graph(),
                q in proptest::collection::vec(0.0f64..=1.0, 8),
                alpha in 0.2f64..5.0,
            ) {
                let p = power_iteration(&g, &q, alpha, &PprConfig::default());
                let exact = closed_form_oracle(&g, &q, alpha);
                for (a, b) in p.iter().zip(&exact) {
                    prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
                }
            }

            #[test]
            fn output_is_nonnegative_and_bounded(
                g in arb_graph(),
                q in proptest::collection::vec(0.0f64..=1.0, 8),
            ) {
                // Symmetric normalization does NOT keep estimates within
                // [0, 1] (a star center can exceed 1 — the estimator layer
                // clamps); but mass is non-negative, finite, and bounded by
                // the Neumann series in L2: ||p||_2 <= ||q||_2 since the
                // spectral radius of damping * S' is <= damping < 1 and
                // restart + damping = 1.
                let p = power_iteration(&g, &q, 1.0, &PprConfig::default());
                let nq: f64 = q.iter().map(|x| x * x).sum::<f64>().sqrt();
                let np: f64 = p.iter().map(|x| x * x).sum::<f64>().sqrt();
                for &v in &p {
                    prop_assert!(v >= -1e-12);
                    prop_assert!(v.is_finite());
                }
                prop_assert!(np <= nq + 1e-9, "||p||={np} escapes ||q||={nq}");
            }
        }
    }
}
