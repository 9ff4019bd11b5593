//! The linearity index — Lemma 3 and Algorithm 1's offline component.
//!
//! PPR is linear in its restart vector: writing `p_{t_i}` for the
//! converged solution with `q = e_i` (the unit vector at task `t_i`),
//!
//! ```text
//! p*(q) = Σ_i q_i · p_{t_i}
//! ```
//!
//! iCrowd therefore precomputes `p_{t_i}` for every task **offline** and
//! answers online estimation requests with a sparse weighted sum over the
//! worker's observed accuracies — `O(|q| · nnz)` instead of a fresh PPR
//! solve per worker. Vectors are sparsified at `index_epsilon`, bounding
//! memory on large graphs (this is the "effective index structure" behind
//! the paper's Figure 10 scalability claims).

use icrowd_core::config::PprConfig;
use icrowd_core::task::TaskId;

use crate::csr::SimilarityGraph;
use crate::parallel::par_map_indexed;
use crate::ppr::{release_scratch, sparse_ppr};
use crate::sparsevec::SparseTaskVector;

/// Precomputed per-task PPR vectors enabling O(|q|)-vector online
/// estimation and influence computation.
#[derive(Debug, Clone)]
pub struct LinearityIndex {
    alpha: f64,
    vectors: Vec<SparseTaskVector>,
}

impl LinearityIndex {
    /// Builds the index by running sparse PPR from every task.
    ///
    /// `config.index_epsilon` controls sparsification of the stored
    /// vectors (0 keeps everything the solver produced).
    ///
    /// The per-task solves are independent, so the build fans out over
    /// `config.threads` scoped threads (`0` = hardware parallelism, `1` =
    /// serial). The result is bit-identical for every thread count: each
    /// vector is solved from the same immutable graph and stored at its
    /// task's slot regardless of which thread claimed it.
    pub fn build(graph: &SimilarityGraph, alpha: f64, config: &PprConfig) -> Self {
        let _span = icrowd_obs::span!("index.build");
        let vectors = par_map_indexed(graph.num_tasks(), config.threads, |i| {
            let q = SparseTaskVector::unit(TaskId(i as u32));
            let mut p = sparse_ppr(graph, &q, alpha, config.index_epsilon, config);
            p.truncate(config.index_epsilon);
            // The solver's working buffers carry ~degree^2 capacity
            // slack; keeping it across |T| stored vectors multiplies
            // index memory ~100x on capped large graphs.
            p.shrink_to_fit();
            p
        });
        // A serial build solved on this thread; worker threads freed
        // their solver scratch as they exited.
        release_scratch();
        let built = Self { alpha, vectors };
        if icrowd_obs::is_enabled() {
            icrowd_obs::gauge_set("index.tasks", built.num_tasks() as f64);
            icrowd_obs::gauge_set("index.total_nnz", built.total_nnz() as f64);
        }
        built
    }

    /// The `alpha` the index was built with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of indexed tasks.
    pub fn num_tasks(&self) -> usize {
        self.vectors.len()
    }

    /// The precomputed vector `p_{t_i}`.
    pub fn vector(&self, task: TaskId) -> &SparseTaskVector {
        &self.vectors[task.index()]
    }

    /// Total stored entries across all vectors (index size).
    pub fn total_nnz(&self) -> usize {
        self.vectors.iter().map(SparseTaskVector::nnz).sum()
    }

    /// Online estimation (Algorithm 1, line 6): `p = Σ q_i · p_{t_i}`
    /// over the sparse observed-accuracy vector `q`, returned densely.
    ///
    /// Values are **not** clamped here; the estimator layer decides how to
    /// map raw mass to probabilities.
    pub fn estimate_dense(&self, q: &SparseTaskVector) -> Vec<f64> {
        let mut out = vec![0.0; self.vectors.len()];
        for (i, qi) in q.iter() {
            for (j, v) in self.vectors[i.index()].iter() {
                out[j.index()] += qi * v;
            }
        }
        out
    }

    /// `INF(T^q)` (Definition 5): the number of tasks receiving non-zero
    /// mass from `Σ_{t ∈ T^q} p_t`, i.e. the size of the union of the
    /// selected tasks' supports.
    pub fn influence(&self, tasks: &[TaskId]) -> usize {
        let reached: std::collections::HashSet<u32> = tasks
            .iter()
            .flat_map(|t| self.vectors[t.index()].support())
            .collect();
        reached.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppr::power_iteration;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    /// Two 3-cliques joined by nothing: clear block structure.
    fn two_cliques() -> SimilarityGraph {
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

    #[test]
    fn index_estimation_matches_direct_ppr() {
        let g = two_cliques();
        let cfg = PprConfig {
            index_epsilon: 0.0,
            ..Default::default()
        };
        let idx = LinearityIndex::build(&g, 1.0, &cfg);
        let q_sparse = SparseTaskVector::from_pairs(vec![(0, 1.0), (3, 0.5)]);
        let q_dense = q_sparse.to_dense(6);
        let direct = power_iteration(&g, &q_dense, 1.0, &cfg);
        let via_index = idx.estimate_dense(&q_sparse);
        for (a, b) in via_index.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn influence_counts_reached_tasks() {
        let g = two_cliques();
        let idx = LinearityIndex::build(&g, 1.0, &PprConfig::default());
        // One task reaches its whole clique (3 tasks) and nothing else.
        assert_eq!(idx.influence(&[t(0)]), 3);
        // One from each clique reaches everything.
        assert_eq!(idx.influence(&[t(0), t(3)]), 6);
        // Two from the same clique add no new coverage.
        assert_eq!(idx.influence(&[t(0), t(1)]), 3);
        assert_eq!(idx.influence(&[]), 0);
    }

    #[test]
    fn epsilon_shrinks_the_index() {
        let g = two_cliques();
        let exact = LinearityIndex::build(
            &g,
            1.0,
            &PprConfig {
                index_epsilon: 0.0,
                ..Default::default()
            },
        );
        let pruned = LinearityIndex::build(
            &g,
            1.0,
            &PprConfig {
                index_epsilon: 0.05,
                ..Default::default()
            },
        );
        assert!(pruned.total_nnz() <= exact.total_nnz());
        // Estimates stay close despite pruning.
        let q = SparseTaskVector::unit(t(0));
        let a = exact.estimate_dense(&q);
        let b = pruned.estimate_dense(&q);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 0.1);
        }
    }

    #[test]
    fn index_vectors_carry_no_solver_capacity_slack() {
        // Regression: sparse_ppr's working buffers have ~degree^2
        // capacity; storing them unshrunk once blew index memory ~100x
        // (10+ GB on the Figure-10 workload). Build a dense-ish graph and
        // assert stored capacity tracks live entries.
        let mut edges = Vec::new();
        for i in 0..40u32 {
            for j in (i + 1)..40u32 {
                edges.push((t(i), t(j), 0.9));
            }
        }
        let g = SimilarityGraph::from_edges(40, &edges);
        let idx = LinearityIndex::build(
            &g,
            1.0,
            &PprConfig {
                index_epsilon: 1e-3,
                ..Default::default()
            },
        );
        for i in 0..40u32 {
            let v = idx.vector(t(i));
            assert!(v.nnz() <= 40, "vector {i} has {} entries", v.nnz());
            assert_eq!(
                v.capacity(),
                v.nnz(),
                "vector {i} retains solver slack ({} cap for {} entries)",
                v.capacity(),
                v.nnz()
            );
        }
        // Total index size stays linear in edges, not quadratic.
        assert!(idx.total_nnz() <= 40 * 40);
    }

    #[test]
    fn isolated_task_influences_only_itself() {
        let g = SimilarityGraph::from_edges(3, &[(t(0), t(1), 0.8)]);
        let idx = LinearityIndex::build(&g, 1.0, &PprConfig::default());
        assert_eq!(idx.influence(&[t(2)]), 1);
        let est = idx.estimate_dense(&SparseTaskVector::unit(t(2)));
        assert!((est[2] - 0.5).abs() < 1e-9, "alpha=1 restart mass");
        assert_eq!(est[0], 0.0);
    }

    #[test]
    fn empty_q_estimates_zero() {
        let g = two_cliques();
        let idx = LinearityIndex::build(&g, 1.0, &PprConfig::default());
        let est = idx.estimate_dense(&SparseTaskVector::new());
        assert!(est.iter().all(|&v| v == 0.0));
    }

    /// A messier graph than the clique fixtures: ring + chords + hubs, so
    /// per-task PPR solves have varied cost and support.
    fn lumpy_graph(n: u32) -> SimilarityGraph {
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((t(i), t((i + 1) % n), 0.5 + 0.4 * f64::from(i % 5) / 5.0));
            if i % 3 == 0 {
                edges.push((t(i), t((i + 7) % n), 0.6));
            }
            if i % 11 == 0 {
                // Hubs: connect to a spread of nodes.
                for k in 1..6 {
                    edges.push((t(i), t((i + k * 13) % n), 0.3 + 0.1 * f64::from(k)));
                }
            }
        }
        edges.retain(|(a, b, _)| a != b);
        SimilarityGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let g = lumpy_graph(120);
        let base = PprConfig {
            index_epsilon: 1e-4,
            ..Default::default()
        };
        let serial = LinearityIndex::build(&g, 1.0, &PprConfig { threads: 1, ..base });
        for threads in [0usize, 2, 3, 4, 8] {
            let parallel = LinearityIndex::build(&g, 1.0, &PprConfig { threads, ..base });
            assert_eq!(parallel.num_tasks(), serial.num_tasks());
            for i in 0..serial.num_tasks() as u32 {
                let (a, b) = (serial.vector(t(i)), parallel.vector(t(i)));
                assert_eq!(a.nnz(), b.nnz(), "task {i}, threads={threads}");
                for ((ia, va), (ib, vb)) in a.iter().zip(b.iter()) {
                    assert_eq!(ia, ib, "task {i}, threads={threads}");
                    assert_eq!(
                        va.to_bits(),
                        vb.to_bits(),
                        "task {i}, threads={threads}: {va} vs {vb}"
                    );
                }
                // The capacity regression guarantee holds on the parallel
                // path too.
                assert_eq!(b.capacity(), b.nnz());
            }
        }
    }
}
