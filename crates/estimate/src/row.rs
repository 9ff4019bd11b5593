//! Task-keyed rows: the per-worker, per-task state of the estimator.
//!
//! A worker's accumulator cells and Step-3 evidence counts only ever
//! touch the tasks her observations reach, so each lives in a
//! [`TaskRow`]: a flat open-addressed table keyed by task id that holds
//! exactly the cells the worker has touched. A new row allocates
//! nothing, so registering a worker costs the same at any task count.

/// Marks a free slot. No task carries this id: a task set that large
/// could not hold its linearity index in memory.
const EMPTY: u32 = u32::MAX;

/// Smallest non-zero slot count.
const MIN_SLOTS: usize = 8;

/// A map from task id to a `Copy` cell, one per touched task.
///
/// Linear probing over a power-of-two slot array under Fibonacci
/// hashing (the top bits of `task × 2³²/φ`, which spreads the runs of
/// consecutive ids a graph component holds). Cells are never removed:
/// a cell whose last contribution is withdrawn is zeroed in place by
/// its owner, so there are no tombstones and a lookup stops at the
/// first free slot. The table doubles once it is three-quarters full.
/// Iteration is in slot order, which depends on the insertion history;
/// no reader may rely on it. The keys are task ids from the campaign's
/// own graph and index, never raw outside input, so a fixed hash leaves
/// nothing for crafted colliding keys to exploit.
#[derive(Debug, Clone, Default)]
pub(crate) struct TaskRow<C> {
    keys: Vec<u32>,
    cells: Vec<C>,
    len: usize,
}

impl<C: Copy + Default> TaskRow<C> {
    /// The cell at `task`, if the row holds one.
    #[inline]
    pub(crate) fn get(&self, task: u32) -> Option<&C> {
        self.find(task).ok().map(|i| &self.cells[i])
    }

    /// The cell at `task`, inserted as `C::default()` if absent.
    #[inline]
    pub(crate) fn entry(&mut self, task: u32) -> &mut C {
        let slot = match self.find(task) {
            Ok(i) => i,
            Err(i) if (self.len + 1) * 4 <= self.keys.len() * 3 => self.occupy(i, task),
            Err(_) => {
                self.grow();
                let i = self.find(task).expect_err("a grown row lacks the new key");
                self.occupy(i, task)
            }
        };
        &mut self.cells[slot]
    }

    /// Every cell with its task id, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &C)> + '_ {
        self.keys
            .iter()
            .zip(&self.cells)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, c)| (k, c))
    }

    /// `Ok(slot)` holding `task`, else `Err(slot)`: the free slot that
    /// ends its probe sequence (meaningless while the row is empty).
    #[inline]
    fn find(&self, task: u32) -> Result<usize, usize> {
        debug_assert_ne!(task, EMPTY, "task id collides with the free-slot mark");
        if self.keys.is_empty() {
            return Err(0);
        }
        let mask = self.keys.len() - 1;
        let shift = 32 - self.keys.len().trailing_zeros();
        let mut i = (task.wrapping_mul(0x9E37_79B9) >> shift) as usize;
        loop {
            match self.keys[i] {
                k if k == task => return Ok(i),
                EMPTY => return Err(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Claims a free slot for `task`. Its cell already holds
    /// `C::default()`: slots are filled with it and never freed.
    fn occupy(&mut self, slot: usize, task: u32) -> usize {
        self.keys[slot] = task;
        self.len += 1;
        slot
    }

    /// Doubles the slot array and re-inserts every cell.
    fn grow(&mut self) {
        let slots = (self.keys.len() * 2).max(MIN_SLOTS);
        let keys = std::mem::replace(&mut self.keys, vec![EMPTY; slots]);
        let cells = std::mem::replace(&mut self.cells, vec![C::default(); slots]);
        for (k, c) in keys.into_iter().zip(cells) {
            if k != EMPTY {
                let i = self.find(k).expect_err("keys are unique");
                self.keys[i] = k;
                self.cells[i] = c;
            }
        }
    }
}
