//! HITs — Human Intelligence Tasks, AMT's unit of publication.
//!
//! The paper publishes microtasks in batches of 10 per HIT at $0.10 per
//! assignment, and sets "Number of Assignments per HIT" to bound how many
//! distinct workers may take each HIT. With the ExternalQuestion
//! mechanism a HIT does not pin *which* microtasks a worker sees — the
//! server decides at request time — so a HIT here is simply a claim
//! ticket: accepting one entitles a worker to request up to
//! `tasks_per_hit` microtasks and be paid on submission.

/// Identifier of a HIT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HitId(pub u32);

impl std::fmt::Display for HitId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HIT-{}", self.0)
    }
}

/// A published HIT type with remaining assignment slots.
#[derive(Debug, Clone)]
struct Hit {
    id: HitId,
    remaining_assignments: u32,
}

/// The pool of published HITs.
///
/// Workers accept the first HIT with free assignment slots; the pool
/// tracks remaining capacity. This mirrors the paper's setup of
/// publishing enough assignment capacity ("a large number, 10 in our
/// experiments") to collect answers from the whole worker population.
#[derive(Debug, Clone)]
pub struct HitPool {
    hits: Vec<Hit>,
    tasks_per_hit: usize,
    reward_cents: u32,
}

impl HitPool {
    /// Publishes `num_hits` HITs, each allowing `assignments_per_hit`
    /// workers, `tasks_per_hit` microtasks per assignment, paying
    /// `reward_cents` per completed assignment.
    ///
    /// # Panics
    /// Panics if any count is zero.
    pub fn publish(
        num_hits: usize,
        assignments_per_hit: u32,
        tasks_per_hit: usize,
        reward_cents: u32,
    ) -> Self {
        assert!(num_hits > 0, "publish at least one HIT");
        assert!(assignments_per_hit > 0, "each HIT needs assignment slots");
        assert!(tasks_per_hit > 0, "each HIT needs tasks");
        Self {
            hits: (0..num_hits as u32)
                .map(|i| Hit {
                    id: HitId(i),
                    remaining_assignments: assignments_per_hit,
                })
                .collect(),
            tasks_per_hit,
            reward_cents,
        }
    }

    /// Microtasks per HIT assignment.
    pub fn tasks_per_hit(&self) -> usize {
        self.tasks_per_hit
    }

    /// Reward per completed assignment, in cents.
    pub fn reward_cents(&self) -> u32 {
        self.reward_cents
    }

    /// Accepts the first HIT with a free slot, consuming one assignment.
    pub fn accept_any(&mut self) -> Option<HitId> {
        let hit = self.hits.iter_mut().find(|h| h.remaining_assignments > 0)?;
        hit.remaining_assignments -= 1;
        Some(hit.id)
    }

    /// Returns an abandoned assignment slot to the pool (AMT re-publishes
    /// returned HITs).
    pub fn release(&mut self, hit: HitId) {
        if let Some(h) = self.hits.iter_mut().find(|h| h.id == hit) {
            h.remaining_assignments += 1;
        }
    }

    /// Remaining assignment slots across all HITs.
    pub fn remaining_assignments(&self) -> u32 {
        self.hits.iter().map(|h| h.remaining_assignments).sum()
    }

    /// Number of published HITs.
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_consumes_slots_in_order() {
        let mut pool = HitPool::publish(2, 2, 10, 10);
        assert_eq!(pool.remaining_assignments(), 4);
        assert_eq!(pool.accept_any(), Some(HitId(0)));
        assert_eq!(pool.accept_any(), Some(HitId(0)));
        assert_eq!(pool.accept_any(), Some(HitId(1)), "first HIT exhausted");
        assert_eq!(pool.remaining_assignments(), 1);
    }

    #[test]
    fn exhausted_pool_returns_none() {
        let mut pool = HitPool::publish(1, 1, 10, 10);
        assert!(pool.accept_any().is_some());
        assert_eq!(pool.accept_any(), None);
    }

    #[test]
    fn release_restores_capacity() {
        let mut pool = HitPool::publish(1, 1, 10, 10);
        let hit = pool.accept_any().unwrap();
        pool.release(hit);
        assert_eq!(pool.remaining_assignments(), 1);
        assert_eq!(pool.accept_any(), Some(hit));
    }

    #[test]
    fn metadata_accessors() {
        let pool = HitPool::publish(3, 10, 10, 10);
        assert_eq!(pool.len(), 3);
        assert!(!pool.is_empty());
        assert_eq!(pool.tasks_per_hit(), 10);
        assert_eq!(pool.reward_cents(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one HIT")]
    fn zero_hits_rejected() {
        HitPool::publish(0, 1, 1, 1);
    }
}
