//! The request path's top-worker-set buffer — one numbering of the
//! workers, a member bitset per set and Algorithm 3 in commit rounds —
//! held to the paper-level references: `top_worker_set` (Definition 3)
//! for the sets, `greedy_assign` (Algorithm 3) for the requester's task,
//! and the framework's best-containing-set rule when the greedy scheme
//! leaves her out. Families of more than 64 workers make every bitset
//! span several words; every family is also asked about numbered workers
//! in no set and about workers outside the numbering.

use icrowd::assign::{greedy_assign, top_worker_set, TopSetBuffer, TopWorkerSet};
use icrowd::core::{TaskId, WorkerId};
use proptest::prelude::*;

/// Scores drawn with ties, both zeros and both NaNs, so every branch of
/// `total_cmp` ordering is exercised; indices past the pool draw a free
/// score instead.
const POOL: [f64; 8] = [0.0, -0.0, f64::NAN, -f64::NAN, 0.5, 0.7, 1.0, 0.25];

/// Workers offered in the narrow families; one more is numbered but
/// never offered.
const WORKERS: usize = 8;

/// Slots on both sides of each word boundary (taken modulo the worker
/// count), so wide families build sets that span words and conflict
/// across them.
const WIDE_SLOTS: [usize; 12] = [0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 190, 191];

/// Tasks the dense columns cover.
const TASKS: u32 = 8;

/// Most workers a column case numbers.
const MAX_COLUMN_WORKERS: usize = 140;

/// One set: task id, remaining capacity `k'`, offers of (slot pick,
/// pool index, free score).
type SetSpec = (u32, usize, Vec<(usize, usize, f64)>);

/// The numbered worker in `slot`. Ids ascend with the slot but differ
/// from it, so a slot read as an id (or the reverse) shows.
fn id(slot: usize) -> WorkerId {
    WorkerId(u32::try_from(slot).expect("small slot") * 3 + 2)
}

/// Ids outside every numbering: below the first numbered id, and past
/// every slot table.
const UNNUMBERED: [WorkerId; 2] = [WorkerId(0), WorkerId(1_000_000)];

fn score(pick: usize, free: f64) -> f64 {
    POOL.get(pick).copied().unwrap_or(free)
}

fn bits(workers: &[(WorkerId, f64)]) -> Vec<(u32, u64)> {
    workers.iter().map(|&(w, s)| (w.0, s.to_bits())).collect()
}

fn set_specs(slot_picks: usize) -> impl Strategy<Value = Vec<SetSpec>> {
    let offer = (0usize..slot_picks, 0usize..12, 0.0f64..1.0);
    let set = (0u32..16, 0usize..5, proptest::collection::vec(offer, 0..7));
    proptest::collection::vec(set, 0..12)
}

/// Families over `WORKERS + 1` numbered workers.
fn narrow_families() -> impl Strategy<Value = Vec<Vec<SetSpec>>> {
    proptest::collection::vec(set_specs(WORKERS), 1..4)
}

/// Families over 65–200 numbered workers.
fn wide_families() -> impl Strategy<Value = Vec<(usize, Vec<SetSpec>)>> {
    proptest::collection::vec((65usize..201, set_specs(WIDE_SLOTS.len())), 1..4)
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

/// Checks the sets of `buf`, numbered over `n` workers, against
/// `reference` (already stripped of empty sets), then the walk and the
/// fallback for every numbered worker and every unnumbered one.
fn check_against(buf: &mut TopSetBuffer, n: usize, reference: &[TopWorkerSet]) {
    assert_eq!(buf.len(), reference.len(), "set count");
    for (got, want) in buf.sets().zip(reference) {
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

    let scheme = greedy_assign(reference);
    for w in (0..n).map(id).chain(UNNUMBERED) {
        let served = scheme
            .iter()
            .find(|a| a.worker_ids().any(|x| x == w))
            .map(|a| a.task);
        let walked = buf.walk(w);
        assert_eq!(walked, served, "walk for worker {w}");
        if walked.is_none() {
            assert_eq!(
                buf.best_containing(w),
                reference_fallback(reference, w),
                "fallback for worker {w}"
            );
        }
    }
    for w in UNNUMBERED {
        assert_eq!(buf.best_containing(w), None);
    }
}

/// Builds `specs` over `n` numbered workers with one [`TopSetBuffer::offer`]
/// per offer, in the order given (the capped pipeline's entry), and
/// checks it. `slot_of` maps an offer's slot pick to a slot.
fn check_offers(
    buf: &mut TopSetBuffer,
    n: usize,
    specs: &[SetSpec],
    slot_of: impl Fn(usize) -> usize,
) {
    let ids: Vec<WorkerId> = (0..n).map(id).collect();
    buf.number(&ids);
    let offers = |spec: &SetSpec| -> Vec<(usize, f64)> {
        spec.2
            .iter()
            .map(|&(pick, p, f)| (slot_of(pick), score(p, f)))
            .collect()
    };
    for spec in specs {
        buf.begin_set(TaskId(spec.0), spec.1);
        for (slot, s) in offers(spec) {
            assert!(buf.offer(slot, s), "nobody is excluded here");
        }
        buf.end_set();
    }
    let reference: Vec<TopWorkerSet> = specs
        .iter()
        .map(|spec| {
            let eligible = offers(spec).into_iter().map(|(slot, s)| (id(slot), s));
            top_worker_set(TaskId(spec.0), eligible, spec.1)
        })
        .filter(|set| !set.workers.is_empty())
        .collect();
    check_against(buf, n, &reference);
}

/// One candidate of a column case: task, remaining capacity `k'`, and
/// slot picks of the workers excluded from it.
type Candidate = (u32, usize, Vec<usize>);

/// A Step-1 case: the worker count, every worker's column over `TASKS`
/// tasks as (pool index, free score), row-major, and the candidates.
type ColumnCase = (usize, Vec<(usize, f64)>, Vec<Candidate>);

fn column_cases() -> impl Strategy<Value = ColumnCase> {
    let cells = MAX_COLUMN_WORKERS * TASKS as usize;
    let candidate = (
        0u32..TASKS,
        0usize..5,
        proptest::collection::vec(0usize..WIDE_SLOTS.len(), 0..6),
    );
    (
        1usize..MAX_COLUMN_WORKERS + 1,
        proptest::collection::vec((0usize..12, 0.0f64..1.0), cells..cells + 1),
        proptest::collection::vec(candidate, 0..10),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn flat_buffer_and_walk_match_the_references(families in narrow_families()) {
        // One buffer across several families: a renumbered buffer must
        // not remember anything but its capacity. The last numbered
        // worker is never offered, so she is in no set.
        let mut buf = TopSetBuffer::default();
        for specs in &families {
            check_offers(&mut buf, WORKERS + 1, specs, |pick| pick);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn wide_families_span_bitset_words_and_match_the_references(
        families in wide_families()
    ) {
        let mut buf = TopSetBuffer::default();
        for (n, specs) in &families {
            check_offers(&mut buf, *n, specs, |pick| WIDE_SLOTS[pick] % n);
        }
    }

    #[test]
    fn dense_columns_with_exclusions_match_top_worker_set(case in column_cases()) {
        // The uncapped pipeline's entry: per candidate, its excluded
        // workers, then every worker's column, in slot order.
        let (n, cells, candidates) = case;
        let columns: Vec<Vec<f64>> = cells
            .chunks(TASKS as usize)
            .take(n)
            .map(|row| row.iter().map(|&(p, f)| score(p, f)).collect())
            .collect();
        let excluded = |c: &Candidate| -> Vec<usize> {
            c.2.iter().map(|&pick| WIDE_SLOTS[pick] % n).collect()
        };
        let column_refs: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        let mut buf = TopSetBuffer::default();
        let ids: Vec<WorkerId> = (0..n).map(id).collect();
        buf.number(&ids);
        for c in &candidates {
            buf.begin_set(TaskId(c.0), c.1);
            for slot in excluded(c) {
                buf.exclude(id(slot));
            }
            // Excluding a worker outside the numbering changes nothing.
            buf.exclude(UNNUMBERED[1]);
            buf.offer_columns(&column_refs);
            buf.end_set();
        }
        let reference: Vec<TopWorkerSet> = candidates
            .iter()
            .map(|c| {
                let out = excluded(c);
                let eligible = (0..n)
                    .filter(|slot| !out.contains(slot))
                    .map(|slot| (id(slot), columns[slot][c.0 as usize]));
                top_worker_set(TaskId(c.0), eligible, c.1)
            })
            .filter(|set| !set.workers.is_empty())
            .collect();
        check_against(&mut buf, n, &reference);
    }
}

#[test]
fn signed_zeros_nans_and_ties_rank_by_total_order() {
    let mut buf = TopSetBuffer::default();
    buf.number(&(0..7).map(id).collect::<Vec<_>>());
    // total_cmp: NaN > 1 > 0 > -0 > -NaN; equal scores break by worker id.
    let offers = [
        (5, -0.0),
        (4, 0.0),
        (3, -f64::NAN),
        (2, f64::NAN),
        (1, 0.5),
        (0, 0.5),
    ];
    buf.begin_set(TaskId(7), 6);
    for (slot, s) in offers {
        buf.offer(slot, s);
    }
    buf.end_set();
    let ranked: Vec<WorkerId> = buf
        .sets()
        .flat_map(|s| s.workers.iter().map(|p| p.0))
        .collect();
    assert_eq!(ranked, [2, 0, 1, 4, 5, 3].map(id));

    // k' below the eligible count keeps the best k' only; an empty or
    // zero-capacity set is dropped.
    let finite = [(5, -0.0), (4, 0.0), (1, 0.5), (0, 0.5)];
    buf.number(&(0..7).map(id).collect::<Vec<_>>());
    for (task, remaining, offers) in [
        (0, 2, &finite[..]),
        (1, 0, &finite[..]),
        (2, 3, &[][..]),
        (3, 3, &[(6, 0.9)][..]),
    ] {
        buf.begin_set(TaskId(task), remaining);
        for &(slot, s) in offers {
            buf.offer(slot, s);
        }
        buf.end_set();
    }
    let sizes: Vec<(u32, usize)> = buf.sets().map(|s| (s.task.0, s.workers.len())).collect();
    assert_eq!(sizes, vec![(0, 2), (3, 1)]);

    // Task 3 (average 0.9) commits before task 0 (0.5); they are
    // disjoint, so both are served. Worker 5 fell below k' everywhere,
    // so she is in no set; worker 0 outside the numbering never is.
    assert_eq!(buf.walk(id(6)), Some(TaskId(3)));
    assert_eq!(buf.walk(id(0)), Some(TaskId(0)));
    assert_eq!(buf.walk(id(5)), None);
    assert_eq!(buf.best_containing(id(5)), None);
    assert_eq!(buf.walk(WorkerId(0)), None);
}
