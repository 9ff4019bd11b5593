//! Sparse task-indexed vectors.
//!
//! Both the PPR solver and the linearity index manipulate vectors indexed
//! by task id that are overwhelmingly zero on large graphs; this module
//! provides the shared sorted-pairs representation.

use icrowd_core::task::TaskId;

/// A sparse vector over task indices, entries sorted by index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseTaskVector {
    entries: Vec<(u32, f64)>,
}

impl SparseTaskVector {
    /// The empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A unit vector: `1.0` at `task`, zero elsewhere.
    pub fn unit(task: TaskId) -> Self {
        Self {
            entries: vec![(task.0, 1.0)],
        }
    }

    /// Builds from unsorted `(index, value)` pairs, merging duplicates by
    /// addition and dropping exact zeros.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        sort_by_index(&mut pairs);
        let mut out = Self::new();
        out.assign_sorted(pairs);
        out
    }

    /// Rebuilds `self` from pairs in [`sort_by_index`] order, reusing its
    /// capacity: each index's run sums from its first pair on, and exact
    /// zeros drop.
    pub(crate) fn assign_sorted(&mut self, sorted: impl IntoIterator<Item = (u32, f64)>) {
        self.entries.clear();
        for (i, v) in sorted {
            match self.entries.last_mut() {
                Some((li, lv)) if *li == i => *lv += v,
                _ => self.entries.push((i, v)),
            }
        }
        self.entries.retain(|&(_, v)| v != 0.0);
    }

    /// Builds from a dense slice, keeping entries with `|v| > epsilon`.
    pub fn from_dense(dense: &[f64], epsilon: f64) -> Self {
        let entries = dense
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v.abs() > epsilon)
            .map(|(i, &v)| (i as u32, v))
            .collect();
        Self { entries }
    }

    /// Expands to a dense vector of length `n`.
    pub fn to_dense(&self, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        for &(i, v) in &self.entries {
            out[i as usize] = v;
        }
        out
    }

    /// The entries, sorted by index.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Allocated capacity in entries (diagnostics; see
    /// [`Self::shrink_to_fit`]).
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Whether the vector is all-zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value at `task` (zero if absent), via binary search.
    pub fn get(&self, task: TaskId) -> f64 {
        match self.entries.binary_search_by_key(&task.0, |&(i, _)| i) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.entries.iter().map(|&(_, v)| v).sum()
    }

    /// L1 norm.
    pub fn l1(&self) -> f64 {
        self.entries.iter().map(|&(_, v)| v.abs()).sum()
    }

    /// Drops entries with `|v| <= epsilon`.
    ///
    /// Note: like `Vec::retain`, this keeps the underlying capacity (the
    /// PPR solver reuses the slack between sweeps); call
    /// [`Self::shrink_to_fit`] before storing a vector long-term.
    pub fn truncate(&mut self, epsilon: f64) {
        self.entries.retain(|&(_, v)| v.abs() > epsilon);
    }

    /// Releases excess capacity. Essential when retaining many vectors
    /// (the linearity index holds one per task; un-shrunk solver slack is
    /// ~100x the live data on capped million-task graphs).
    pub fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
    }

    /// The support (indices of non-zero entries), sorted.
    pub fn support(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().map(|&(i, _)| i)
    }

    /// Iterates over `(TaskId, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, f64)> + '_ {
        self.entries.iter().map(|&(i, v)| (TaskId(i), v))
    }
}

impl FromIterator<(u32, f64)> for SparseTaskVector {
    fn from_iter<I: IntoIterator<Item = (u32, f64)>>(iter: I) -> Self {
        Self::from_pairs(iter.into_iter().collect())
    }
}

/// Sorts `(index, value)` pairs by index: the one sort behind
/// [`SparseTaskVector::from_pairs`] and the PPR solver's sweep order.
///
/// `sort_unstable` leaves equal indices in an order fixed by the sequence
/// of indices and the element type alone, never by the values. So pairs
/// whose `f64` slot carries something else (the solver's generation
/// indices) sort into the same permutation as the contributions would,
/// and the solver sorts once per support instead of once per sweep.
pub(crate) fn sort_by_index(pairs: &mut [(u32, f64)]) {
    pairs.sort_unstable_by_key(|&(i, _)| i);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_merges_and_drops_zeros() {
        let v = SparseTaskVector::from_pairs(vec![(5, 1.0), (2, 0.5), (5, 1.5), (7, 0.0)]);
        assert_eq!(v.entries(), &[(2, 0.5), (5, 2.5)]);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn assign_sorted_reuses_capacity() {
        let mut v = SparseTaskVector::from_pairs(vec![(9, 1.0), (1, 1.0), (4, 1.0)]);
        let cap_before = v.capacity();
        v.assign_sorted([(2, 0.5), (5, 1.0), (5, 1.5), (7, 0.0)]);
        assert_eq!(v.entries(), &[(2, 0.5), (5, 2.5)]);
        assert_eq!(v.capacity(), cap_before, "capacity is retained");
    }

    #[test]
    fn dense_round_trip() {
        let dense = vec![0.0, 0.3, 0.0, 0.0001, 0.9];
        let v = SparseTaskVector::from_dense(&dense, 0.001);
        assert_eq!(v.entries(), &[(1, 0.3), (4, 0.9)]);
        let back = v.to_dense(5);
        assert_eq!(back, vec![0.0, 0.3, 0.0, 0.0, 0.9]);
    }

    #[test]
    fn get_uses_binary_search() {
        let v = SparseTaskVector::from_pairs(vec![(1, 0.5), (10, 0.25)]);
        assert_eq!(v.get(TaskId(1)), 0.5);
        assert_eq!(v.get(TaskId(10)), 0.25);
        assert_eq!(v.get(TaskId(5)), 0.0);
    }

    #[test]
    fn unit_truncate_and_norms() {
        assert_eq!(SparseTaskVector::unit(TaskId(3)).get(TaskId(3)), 1.0);
        let mut v = SparseTaskVector::from_pairs(vec![(3, 1.0), (4, 1e-9)]);
        assert_eq!(v.nnz(), 2);
        v.truncate(1e-6);
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.sum(), 1.0);
        assert_eq!(v.l1(), 1.0);
    }
}
