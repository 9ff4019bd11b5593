//! The microtask similarity graph in compressed-sparse-row form.
//!
//! A similarity graph (Section 3) is a weighted undirected graph
//! `G = (T, E)` whose edge weights are task similarities `s_ij`. The
//! estimation model works on the symmetrically normalized matrix
//! `S' = D^(-1/2) S D^(-1/2)` with `D_ii = Σ_j s_ij`; this module stores
//! both the raw weights and the normalized weights so the PPR solver can
//! multiply by `S'` in one pass.

use icrowd_core::task::TaskId;

/// A weighted undirected similarity graph in CSR layout.
///
/// Self-loops are rejected (a task's similarity to itself carries no
/// information for the estimation model) and edges are deduplicated at
/// construction.
#[derive(Debug, Clone)]
pub struct SimilarityGraph {
    n: usize,
    row_ptr: Vec<usize>,
    col: Vec<u32>,
    /// Raw similarity `s_ij` per CSR slot.
    weight: Vec<f64>,
    /// Normalized weight `s_ij / sqrt(D_ii * D_jj)` per CSR slot.
    norm_weight: Vec<f64>,
    /// `D_ii = Σ_j s_ij` (zero for isolated tasks).
    degree: Vec<f64>,
}

impl SimilarityGraph {
    /// Builds a graph over `n` tasks from an undirected edge list.
    ///
    /// Each `(a, b, s)` is inserted once in both directions. Duplicate
    /// pairs keep the **maximum** similarity (metrics may emit a pair from
    /// both sides).
    ///
    /// # Panics
    /// Panics on self-loops, out-of-range endpoints, or similarities
    /// outside `(0, 1]` (zero-weight edges must simply be omitted).
    pub fn from_edges(n: usize, edges: &[(TaskId, TaskId, f64)]) -> Self {
        for &(a, b, s) in edges {
            assert!(a != b, "self-loop on {a} rejected");
            assert!(
                a.index() < n && b.index() < n,
                "edge ({a}, {b}) out of range for n = {n}"
            );
            assert!(
                s > 0.0 && s <= 1.0,
                "similarity {s} for ({a}, {b}) must lie in (0, 1]"
            );
        }

        // Counting-sort CSR construction: two flat arrays instead of `n`
        // nested vectors — this halves peak memory on million-task graphs
        // (the Figure-10 regime) and avoids `2n` allocator round-trips.
        let mut counts = vec![0usize; n + 1];
        for &(a, b, _) in edges {
            counts[a.index() + 1] += 1;
            counts[b.index() + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let row_start = counts.clone();
        let mut col = vec![0u32; edges.len() * 2];
        let mut weight = vec![0.0f64; edges.len() * 2];
        let mut cursor = row_start.clone();
        for &(a, b, s) in edges {
            let slot = cursor[a.index()];
            col[slot] = b.0;
            weight[slot] = s;
            cursor[a.index()] += 1;
            let slot = cursor[b.index()];
            col[slot] = a.0;
            weight[slot] = s;
            cursor[b.index()] += 1;
        }

        // Per-row sort + in-place dedup (keep max similarity per pair).
        let mut row_ptr = vec![0usize; n + 1];
        let mut write = 0usize;
        for i in 0..n {
            let (lo, hi) = (row_start[i], row_start[i + 1]);
            // Sort the row slice by (neighbor, -similarity).
            let mut row: Vec<(u32, f64)> = col[lo..hi]
                .iter()
                .zip(&weight[lo..hi])
                .map(|(&j, &s)| (j, s))
                .collect();
            row.sort_unstable_by(|x, y| x.0.cmp(&y.0).then(y.1.total_cmp(&x.1)));
            row.dedup_by_key(|e| e.0);
            for (j, s) in row {
                col[write] = j;
                weight[write] = s;
                write += 1;
            }
            row_ptr[i + 1] = write;
        }
        col.truncate(write);
        col.shrink_to_fit();
        weight.truncate(write);
        weight.shrink_to_fit();

        let mut degree = vec![0.0; n];
        for i in 0..n {
            degree[i] = weight[row_ptr[i]..row_ptr[i + 1]].iter().sum();
        }
        let mut norm_weight = vec![0.0f64; col.len()];
        for i in 0..n {
            let di = degree[i];
            for slot in row_ptr[i]..row_ptr[i + 1] {
                let dj = degree[col[slot] as usize];
                norm_weight[slot] = weight[slot] / (di * dj).sqrt();
            }
        }

        Self {
            n,
            row_ptr,
            col,
            weight,
            norm_weight,
            degree,
        }
    }

    /// Number of tasks (nodes).
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col.len() / 2
    }

    /// The degree `D_ii` (sum of incident similarities) of `task`.
    #[inline]
    pub fn degree(&self, task: TaskId) -> f64 {
        self.degree[task.index()]
    }

    /// Number of neighbors of `task`.
    #[inline]
    pub fn neighbor_count(&self, task: TaskId) -> usize {
        let i = task.index();
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Neighbors of `task` with raw similarities.
    pub fn neighbors(&self, task: TaskId) -> impl Iterator<Item = (TaskId, f64)> + '_ {
        let i = task.index();
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.col[lo..hi]
            .iter()
            .zip(&self.weight[lo..hi])
            .map(|(&j, &s)| (TaskId(j), s))
    }

    /// Neighbors of `task` with normalized weights (`S'` row).
    pub fn normalized_neighbors(&self, task: TaskId) -> impl Iterator<Item = (TaskId, f64)> + '_ {
        let (cols, weights) = self.normalized_row(task);
        cols.iter().zip(weights).map(|(&j, &s)| (TaskId(j), s))
    }

    /// The `S'` row of `task` as the CSR slices themselves: neighbor ids
    /// and their normalized weights, in the same order.
    pub(crate) fn normalized_row(&self, task: TaskId) -> (&[u32], &[f64]) {
        let i = task.index();
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col[lo..hi], &self.norm_weight[lo..hi])
    }

    /// The raw similarity of `(a, b)` (zero if not adjacent).
    pub fn similarity(&self, a: TaskId, b: TaskId) -> f64 {
        let i = a.index();
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        match self.col[lo..hi].binary_search(&b.0) {
            Ok(pos) => self.weight[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Dense multiply `out = v * S'` (i.e. `out_j = Σ_i v_i s'_ij`;
    /// `S'` is symmetric so this equals `S' v`).
    ///
    /// `out` must have length `n` and is fully overwritten.
    pub fn mul_normalized(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.n);
        assert_eq!(out.len(), self.n);
        out.fill(0.0);
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            for (&j, &w) in self.col[lo..hi].iter().zip(&self.norm_weight[lo..hi]) {
                out[j as usize] += vi * w;
            }
        }
    }

    /// All undirected edges `(a, b, s)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (TaskId, TaskId, f64)> + '_ {
        (0..self.n).flat_map(move |i| {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            self.col[lo..hi]
                .iter()
                .zip(&self.weight[lo..hi])
                .filter(move |(&j, _)| (j as usize) > i)
                .map(move |(&j, &s)| (TaskId(i as u32), TaskId(j), s))
        })
    }

    /// Ids of isolated tasks (no similar neighbor above threshold).
    pub fn isolated_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.n)
            .filter(|&i| self.row_ptr[i + 1] == self.row_ptr[i])
            .map(|i| TaskId(i as u32))
    }

    /// Connected components, as a vector of sorted task-id vectors
    /// (iterative DFS; used by tests and qualification-selection
    /// diagnostics).
    pub fn components(&self) -> Vec<Vec<TaskId>> {
        let mut seen = vec![false; self.n];
        let mut out = Vec::new();
        for start in 0..self.n {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(u) = stack.pop() {
                comp.push(TaskId(u as u32));
                let (lo, hi) = (self.row_ptr[u], self.row_ptr[u + 1]);
                for &v in &self.col[lo..hi] {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        stack.push(v as usize);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    fn triangle() -> SimilarityGraph {
        SimilarityGraph::from_edges(
            4,
            &[(t(0), t(1), 0.5), (t(1), t(2), 0.8), (t(0), t(2), 0.2)],
        )
    }

    #[test]
    fn basic_shape_and_degrees() {
        let g = triangle();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!((g.degree(t(0)) - 0.7).abs() < 1e-12);
        assert!((g.degree(t(1)) - 1.3).abs() < 1e-12);
        assert!((g.degree(t(2)) - 1.0).abs() < 1e-12);
        assert_eq!(g.degree(t(3)), 0.0);
        assert_eq!(g.neighbor_count(t(1)), 2);
        assert_eq!(g.isolated_tasks().collect::<Vec<_>>(), vec![t(3)]);
    }

    #[test]
    fn similarity_lookup_and_symmetry() {
        let g = triangle();
        assert_eq!(g.similarity(t(0), t(1)), 0.5);
        assert_eq!(g.similarity(t(1), t(0)), 0.5);
        assert_eq!(g.similarity(t(0), t(3)), 0.0);
    }

    #[test]
    fn normalization_matches_formula() {
        let g = triangle();
        // s'_01 = 0.5 / sqrt(0.7 * 1.3)
        let want = 0.5 / (0.7f64 * 1.3).sqrt();
        let got = g
            .normalized_neighbors(t(0))
            .find(|&(j, _)| j == t(1))
            .unwrap()
            .1;
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn duplicate_edges_keep_max() {
        let g = SimilarityGraph::from_edges(2, &[(t(0), t(1), 0.3), (t(1), t(0), 0.6)]);
        assert_eq!(g.similarity(t(0), t(1)), 0.6);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        SimilarityGraph::from_edges(2, &[(t(0), t(0), 0.5)]);
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1]")]
    fn zero_weight_edges_rejected() {
        SimilarityGraph::from_edges(2, &[(t(0), t(1), 0.0)]);
    }

    #[test]
    fn mul_normalized_matches_manual_expansion() {
        let g = triangle();
        let v = vec![1.0, 2.0, 3.0, 4.0];
        let mut out = vec![0.0; 4];
        g.mul_normalized(&v, &mut out);
        // Manually: out_j = sum_i v_i * s'_ij.
        let mut want = vec![0.0; 4];
        for (i, &vi) in v.iter().enumerate() {
            for (j, w) in g.normalized_neighbors(t(i as u32)) {
                want[j.index()] += vi * w;
            }
        }
        for (a, b) in out.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(out[3], 0.0, "isolated node receives nothing");
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_by_key(|a| (a.0, a.1));
        assert_eq!(
            edges,
            vec![(t(0), t(1), 0.5), (t(0), t(2), 0.2), (t(1), t(2), 0.8)]
        );
    }

    #[test]
    fn components_found() {
        let g = SimilarityGraph::from_edges(5, &[(t(0), t(1), 0.5), (t(2), t(3), 0.5)]);
        let comps = g.components();
        assert_eq!(comps.len(), 3);
        assert!(comps.contains(&vec![t(0), t(1)]));
        assert!(comps.contains(&vec![t(2), t(3)]));
        assert!(comps.contains(&vec![t(4)]));
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = SimilarityGraph::from_edges(3, &[]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.isolated_tasks().count(), 3);
        let mut out = vec![1.0; 3];
        g.mul_normalized(&[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, vec![0.0, 0.0, 0.0]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_edges() -> impl Strategy<Value = Vec<(TaskId, TaskId, f64)>> {
            proptest::collection::vec((0u32..10, 0u32..10, 0.01f64..=1.0), 0..30).prop_map(|v| {
                v.into_iter()
                    .filter(|(a, b, _)| a != b)
                    .map(|(a, b, s)| (TaskId(a), TaskId(b), s))
                    .collect()
            })
        }

        proptest! {
            #[test]
            fn degree_is_sum_of_incident_weights(edges in arb_edges()) {
                let g = SimilarityGraph::from_edges(10, &edges);
                for i in 0..10u32 {
                    let sum: f64 = g.neighbors(TaskId(i)).map(|(_, s)| s).sum();
                    prop_assert!((g.degree(TaskId(i)) - sum).abs() < 1e-9);
                }
            }

            #[test]
            fn graph_stays_symmetric(edges in arb_edges()) {
                let g = SimilarityGraph::from_edges(10, &edges);
                for i in 0..10u32 {
                    for (j, s) in g.neighbors(TaskId(i)) {
                        prop_assert!((g.similarity(j, TaskId(i)) - s).abs() < 1e-12);
                    }
                }
            }

            #[test]
            fn spectral_radius_bounded_by_one(edges in arb_edges()) {
                // Power iteration on |S'| must not blow up: after 30
                // multiplies of the all-ones vector, the max entry stays
                // bounded (S' has spectral radius <= 1).
                let g = SimilarityGraph::from_edges(10, &edges);
                let mut v = vec![1.0; 10];
                let mut out = vec![0.0; 10];
                for _ in 0..30 {
                    g.mul_normalized(&v, &mut out);
                    std::mem::swap(&mut v, &mut out);
                }
                let max = v.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
                prop_assert!(max <= 10.0 + 1e-6, "max entry {max}");
            }
        }
    }
}
