//! The request path's flat top-worker-set buffer and its Algorithm-3
//! walk, held to the paper-level references: `top_worker_set`
//! (Definition 3) for the sets, `greedy_assign` (Algorithm 3) for the
//! requester's task, and the framework's best-containing-set rule when
//! the greedy scheme leaves her out.

use icrowd::assign::{greedy_assign, top_worker_set, TopSetBuffer, TopWorkerSet};
use icrowd::core::{TaskId, WorkerId};
use proptest::prelude::*;

/// Scores drawn with ties, both zeros and both NaNs, so every branch of
/// `total_cmp` ordering is exercised; indices past the pool draw a free
/// score instead.
const POOL: [f64; 8] = [0.0, -0.0, f64::NAN, -f64::NAN, 0.5, 0.7, 1.0, 0.25];

/// Worker ids in the families; `NOBODY` is in no set.
const WORKERS: u32 = 8;
const NOBODY: u32 = WORKERS;

/// One set: task id, remaining capacity `k'`, offers of (worker, pool
/// index, free score).
type SetSpec = (u32, usize, Vec<(u32, usize, f64)>);

fn families() -> impl Strategy<Value = Vec<Vec<SetSpec>>> {
    let offer = (0u32..WORKERS, 0usize..12, 0.0f64..1.0);
    let set = (0u32..16, 0usize..5, proptest::collection::vec(offer, 0..7));
    proptest::collection::vec(proptest::collection::vec(set, 0..12), 1..4)
}

fn score(pick: usize, free: f64) -> f64 {
    POOL.get(pick).copied().unwrap_or(free)
}

fn offers(spec: &SetSpec) -> impl Iterator<Item = (WorkerId, f64)> + '_ {
    spec.2.iter().map(|&(w, p, f)| (WorkerId(w), score(p, f)))
}

fn bits(workers: &[(WorkerId, f64)]) -> Vec<(u32, u64)> {
    workers.iter().map(|&(w, s)| (w.0, s.to_bits())).collect()
}

/// The framework's fallback as first written over reference sets: among
/// the sets containing `worker`, her highest score, then the highest
/// set average, then the smallest task id.
fn reference_fallback(sets: &[TopWorkerSet], worker: WorkerId) -> Option<TaskId> {
    sets.iter()
        .filter_map(|set| {
            set.workers
                .iter()
                .find(|&&(w, _)| w == worker)
                .map(|&(_, p)| (set.task, p, set.average_accuracy()))
        })
        .max_by(|(ta, pa, aa), (tb, pb, ab)| {
            pa.total_cmp(pb).then(aa.total_cmp(ab)).then(tb.cmp(ta))
        })
        .map(|(t, _, _)| t)
}

/// Builds `specs` into `buf` and checks sets, walk and fallback against
/// the references for every worker as the requester.
fn check_family(buf: &mut TopSetBuffer, specs: &[SetSpec]) {
    buf.clear();
    for spec in specs {
        buf.push_set(TaskId(spec.0), spec.1, offers(spec));
    }
    let reference: Vec<TopWorkerSet> = specs
        .iter()
        .map(|spec| top_worker_set(TaskId(spec.0), offers(spec), spec.1))
        .filter(|set| !set.workers.is_empty())
        .collect();

    assert_eq!(buf.len(), reference.len(), "set count");
    for (got, want) in buf.sets().zip(&reference) {
        assert_eq!(got.task, want.task);
        assert_eq!(got.remaining, want.remaining);
        assert_eq!(bits(got.workers), bits(&want.workers), "task {}", want.task);
        assert_eq!(
            got.average.to_bits(),
            want.average_accuracy().to_bits(),
            "average of task {}",
            want.task
        );
    }

    let scheme = greedy_assign(&reference);
    for w in (0..=NOBODY).map(WorkerId) {
        let served = scheme
            .iter()
            .find(|a| a.worker_ids().any(|x| x == w))
            .map(|a| a.task);
        let walked = buf.walk(w);
        assert_eq!(walked, served, "walk for worker {w}");
        if walked.is_none() {
            assert_eq!(
                buf.best_containing(w),
                reference_fallback(&reference, w),
                "fallback for worker {w}"
            );
        }
    }
    assert_eq!(buf.walk(WorkerId(NOBODY)), None);
    assert_eq!(buf.best_containing(WorkerId(NOBODY)), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn flat_buffer_and_walk_match_the_references(families in families()) {
        // One buffer across several families: a cleared buffer must not
        // remember anything but its capacity.
        let mut buf = TopSetBuffer::default();
        for specs in &families {
            check_family(&mut buf, specs);
        }
    }
}

#[test]
fn signed_zeros_nans_and_ties_rank_by_total_order() {
    let w = WorkerId;
    let mut buf = TopSetBuffer::default();
    // total_cmp: NaN > 1 > 0 > -0 > -NaN; equal scores break by worker id.
    let offers = [
        (w(5), -0.0),
        (w(4), 0.0),
        (w(3), -f64::NAN),
        (w(2), f64::NAN),
        (w(1), 0.5),
        (w(0), 0.5),
    ];
    buf.push_set(TaskId(7), 6, offers);
    let ranked: Vec<u32> = buf
        .sets()
        .flat_map(|s| s.workers.iter().map(|p| p.0 .0))
        .collect();
    assert_eq!(ranked, vec![2, 0, 1, 4, 5, 3]);

    // k' below the eligible count keeps the best k' only; an empty or
    // zero-capacity set is dropped.
    let finite = [(w(5), -0.0), (w(4), 0.0), (w(1), 0.5), (w(0), 0.5)];
    buf.clear();
    buf.push_set(TaskId(0), 2, finite);
    buf.push_set(TaskId(1), 0, finite);
    buf.push_set(TaskId(2), 3, std::iter::empty());
    buf.push_set(TaskId(3), 3, [(w(6), 0.9)]);
    let sizes: Vec<(u32, usize)> = buf.sets().map(|s| (s.task.0, s.workers.len())).collect();
    assert_eq!(sizes, vec![(0, 2), (3, 1)]);

    // Task 3 (average 0.9) commits before task 0 (0.5); they are
    // disjoint, so both are served. Worker 5 fell below k' everywhere.
    assert_eq!(buf.walk(w(6)), Some(TaskId(3)));
    assert_eq!(buf.walk(w(0)), Some(TaskId(0)));
    assert_eq!(buf.walk(w(5)), None);
    assert_eq!(buf.best_containing(w(5)), None);
}
