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
    ///
    /// Each index's run sums from its first pair on, in the order an
    /// unstable sort by index leaves the pairs.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        sort_by_index(&mut pairs);
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for (i, v) in pairs {
            match entries.last_mut() {
                Some((li, lv)) if *li == i => *lv += v,
                _ => entries.push((i, v)),
            }
        }
        entries.retain(|&(_, v)| v != 0.0);
        Self { entries }
    }

    /// Empties `self`, keeping its capacity (the PPR solver refills one
    /// vector every sweep).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Appends `value` at `index` unless it is an exact zero or
    /// `|value| <= epsilon`: [`Self::truncate`] applied as entries
    /// arrive. Indices must arrive in increasing order.
    pub(crate) fn push_above(&mut self, index: u32, value: f64, epsilon: f64) {
        debug_assert!(self.entries.last().is_none_or(|&(last, _)| last < index));
        if value != 0.0 && value.abs() > epsilon {
            self.entries.push((index, value));
        }
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
    fn refilling_truncates_and_reuses_capacity() {
        let mut v = SparseTaskVector::from_pairs(vec![(9, 1.0), (1, 1.0), (4, 1.0)]);
        let cap_before = v.capacity();
        v.clear();
        for (i, x) in [(2, 0.5), (5, 2.5), (6, -1e-4), (7, 0.0), (8, -0.25)] {
            v.push_above(i, x, 1e-3);
        }
        assert_eq!(v.entries(), &[(2, 0.5), (5, 2.5), (8, -0.25)]);
        assert_eq!(v.capacity(), cap_before, "capacity is retained");
        v.clear();
        v.push_above(3, -0.0, 0.0);
        assert!(v.is_empty(), "exact zeros drop even at epsilon 0");
    }

    #[test]
    fn to_dense_fills_the_gaps_with_zeros() {
        let v = SparseTaskVector::from_pairs(vec![(4, 0.9), (1, 0.3)]);
        assert_eq!(v.to_dense(5), vec![0.0, 0.3, 0.0, 0.0, 0.9]);
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
    }

    /// Every stored index bit depends on the order in which std's
    /// unstable sort leaves equal task ids, and std leaves that order
    /// unspecified. This pins it on a fixed input, so a toolchain that
    /// moves it fails here by name, not only as moved golden labels.
    #[test]
    fn sort_by_index_keeps_the_unstable_order_of_equal_ids() {
        // 1,000 pairs over 37 ids, far past std's small-slice cutoff and
        // about 27 copies of each id; each pair's f64 slot carries its
        // original position as a tag.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut pairs: Vec<(u32, f64)> = (0..1_000u32)
            .map(|pos| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) as u32 % 37, f64::from(pos))
            })
            .collect();
        sort_by_index(&mut pairs);
        assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0));
        // FNV-1a over the tag permutation.
        let hash = pairs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &(_, tag)| {
            (h ^ tag as u64).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(
            hash, 0xa2b5_3560_9647_bc39,
            "sort_by_index left equal ids in another order: std's unstable sort \
             order moved with the toolchain, and with it every PPR index bit and \
             the golden labels (ROADMAP item 4)"
        );
    }
}
