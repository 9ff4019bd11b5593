//! Failure injection: abandoned assignments, protocol slop, injected
//! marketplace faults and worker churn must not wedge the framework —
//! and must never corrupt its vote or payment accounting.

use icrowd::core::{Answer, Domain, ICrowdConfig, Microtask, TaskId, TaskSet, Tick, WarmupConfig};
use icrowd::platform::{
    ChurnSpike, ExternalQuestionServer, FaultConfig, MarketConfig, MarketOutcome, Marketplace,
    RejectReason, SubmitOutcome, WorkerScript,
};
use icrowd::text::{JaccardSimilarity, Tokenizer};
use icrowd::{AssignStrategy, ICrowd, ICrowdBuilder};
use icrowd_platform::market::WorkerBehavior;
use icrowd_sim::datasets::table1;
use icrowd_sim::{SimWorker, WorkerProfile};
use icrowd_text::metric::MatrixSimilarity;
use proptest::collection::vec;
use proptest::prelude::*;

/// The telemetry registry is process-global and one test here arms it,
/// so every test that drives a framework serializes through one lock:
/// no other test's counters land in that test's counts.
fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tasks(n: u32) -> TaskSet {
    (0..n)
        .map(|i| Microtask::binary(TaskId(i), format!("task {i}")).with_ground_truth(Answer::YES))
        .collect()
}

fn server(n: u32, window: u64) -> ICrowd {
    let ts = tasks(n);
    let metric = MatrixSimilarity::from_edges(&ts, &[], "empty");
    ICrowdBuilder::new(ts)
        .config(ICrowdConfig {
            activity_window: window,
            warmup: WarmupConfig {
                num_qualification: 1,
                ..Default::default()
            },
            ..Default::default()
        })
        .strategy(AssignStrategy::Adapt)
        .metric(&metric)
        .build()
}

#[test]
fn abandoned_assignments_release_capacity_after_the_activity_window() {
    let _g = obs_guard();
    let mut srv = server(4, 10);
    // Ghost worker passes warm-up, takes a regular task and vanishes.
    let q = srv.request_task("GHOST", Tick(0)).unwrap();
    srv.submit_answer("GHOST", q, Answer::YES, Tick(0));
    let abandoned = srv.request_task("GHOST", Tick(1)).unwrap();

    // Three diligent workers churn; after the window expires the
    // abandoned task must become assignable again and the campaign must
    // complete.
    let mut tick = 20u64; // past GHOST's activity window
    let mut guard = 0;
    while !srv.is_complete() {
        guard += 1;
        assert!(guard < 400, "abandoned task wedged the campaign");
        for name in ["A", "B", "C"] {
            if let Some(t) = srv.request_task(name, Tick(tick)) {
                srv.submit_answer(name, t, Answer::YES, Tick(tick));
            }
            tick += 1;
        }
    }
    // The abandoned task completed via other workers.
    assert!(srv.consensus().is_completed(abandoned));
}

#[test]
fn duplicate_and_unsolicited_submissions_are_rejected() {
    let _g = obs_guard();
    let mut srv = server(3, 30);
    let q = srv.request_task("A", Tick(0)).unwrap();
    assert_eq!(
        srv.submit_answer("A", q, Answer::YES, Tick(0)),
        SubmitOutcome::Accepted
    );
    let t1 = srv.request_task("A", Tick(1)).unwrap();
    assert_eq!(
        srv.submit_answer("A", t1, Answer::YES, Tick(1)),
        SubmitOutcome::Accepted
    );
    // Submitting the same task twice is a duplicate: refused, the first
    // vote stands untouched.
    assert_eq!(
        srv.submit_answer("A", t1, Answer::NO, Tick(2)),
        SubmitOutcome::Rejected(RejectReason::Duplicate)
    );
    assert_eq!(
        srv.consensus()
            .votes(t1)
            .answer_of(icrowd::core::WorkerId(0)),
        Some(Answer::YES),
        "duplicate must not overwrite the recorded vote"
    );
    // An answer for a task never assigned to B (after B's own warm-up
    // flow) is unsolicited: refused, never counted.
    let qb = srv.request_task("B", Tick(3)).unwrap();
    srv.submit_answer("B", qb, Answer::YES, Tick(3));
    let unsolicited = TaskId(if t1 == TaskId(2) { 1 } else { 2 });
    assert_eq!(
        srv.submit_answer("B", unsolicited, Answer::NO, Tick(4)),
        SubmitOutcome::Rejected(RejectReason::NotAssigned)
    );
    assert!(srv
        .consensus()
        .votes(unsolicited)
        .answer_of(icrowd::core::WorkerId(1))
        .is_none());
    assert_eq!(srv.answers_rejected(), 2);
}

#[test]
fn expired_lease_answers_are_rejected_and_the_task_is_reassigned() {
    let _g = obs_guard();
    let mut srv = server(4, 5); // lease = activity window = 5 ticks
    let qa = srv.request_task("A", Tick(0)).unwrap();
    srv.submit_answer("A", qa, Answer::YES, Tick(0));
    let stale = srv.request_task("A", Tick(1)).unwrap(); // lease expires at 6
    assert_eq!(srv.leases_expired(), 0);

    // B's much-later request sweeps expired leases: A's assignment is
    // reclaimed and the task re-enters the candidate pool.
    let qb = srv.request_task("B", Tick(50)).unwrap();
    srv.submit_answer("B", qb, Answer::YES, Tick(50));
    assert_eq!(srv.leases_expired(), 1);

    // A's answer arrives after her lease was reclaimed: refused.
    assert_eq!(
        srv.submit_answer("A", stale, Answer::YES, Tick(51)),
        SubmitOutcome::Rejected(RejectReason::LeaseExpired)
    );
    assert_eq!(srv.answers_rejected(), 1);

    // Diligent workers complete the campaign, reclaimed task included.
    let mut tick = 52u64;
    let mut guard = 0;
    while !srv.is_complete() {
        guard += 1;
        assert!(guard < 400, "reclaimed task wedged the campaign");
        for name in ["B", "C", "D"] {
            if let Some(t) = srv.request_task(name, Tick(tick)) {
                srv.submit_answer(name, t, Answer::YES, Tick(tick));
            }
            tick += 1;
        }
    }
    assert!(srv.consensus().is_completed(stale));
}

#[test]
fn a_crowd_of_rejected_workers_cannot_complete_but_does_not_panic() {
    let _g = obs_guard();
    // 8 tasks, 3 of them qualification: 5 regular tasks can never
    // complete once every worker is rejected.
    let ts = tasks(8);
    let metric = MatrixSimilarity::from_edges(&ts, &[], "empty");
    let mut srv = ICrowdBuilder::new(ts)
        .config(ICrowdConfig {
            warmup: WarmupConfig {
                num_qualification: 3,
                reject_threshold: 0.9,
                reject_after: 3,
            },
            ..Default::default()
        })
        .strategy(AssignStrategy::Adapt)
        .metric(&metric)
        .build();
    // Both workers answer all qualifications wrong → rejected.
    for name in ["A", "B"] {
        for tick in 0..3 {
            let t = srv.request_task(name, Tick(tick)).unwrap();
            srv.submit_answer(name, t, Answer::NO, Tick(tick));
        }
        assert_eq!(srv.request_task(name, Tick(10)), None, "{name} rejected");
    }
    assert!(!srv.is_complete());
    assert!(srv.declined_requests() >= 2);
}

#[test]
fn re_requests_after_stale_purge_get_fresh_assignments() {
    let _g = obs_guard();
    let mut srv = server(5, 5);
    let q = srv.request_task("A", Tick(0)).unwrap();
    srv.submit_answer("A", q, Answer::YES, Tick(0));
    let first = srv.request_task("A", Tick(1)).unwrap();
    // A goes silent past the window, then returns: her stale in-flight
    // was purged, and the re-request hands out a (possibly identical,
    // but freshly tracked) assignment without panicking.
    let second = srv.request_task("A", Tick(100)).unwrap();
    srv.submit_answer("A", second, Answer::YES, Tick(100));
    let _ = first;
    // Subsequent flow still works.
    assert!(srv.request_task("A", Tick(101)).is_some());
}

/// The books a faulted marketplace run must keep, whatever it
/// injected: both conservation laws, spend equal to payments × reward,
/// the marketplace's rejections equal to the framework's, and no task
/// past k votes (`at` names the run in a failure).
fn assert_books(outcome: &MarketOutcome, server: &ICrowd, tasks: u32, at: &str) {
    let a = outcome.accounting;
    assert!(a.balanced(), "books out of balance at {at}: {a:?}");
    let reward = u64::from(MarketConfig::default().reward_cents);
    let ledger = &outcome.ledger;
    assert_eq!(
        ledger.total_spend(),
        ledger.num_payments() as u64 * reward,
        "spend != payments x reward at {at}"
    );
    assert_eq!(a.answers_rejected, server.answers_rejected(), "at {at}");
    let k = server.config().assignment_size;
    for t in 0..tasks {
        let votes = server.consensus().votes(TaskId(t)).len();
        assert!(votes <= k, "task {t} holds {votes} votes, past k, at {at}");
    }
}

/// Workers who always answer the ground truth (YES for `tasks()`).
struct Truthful;
impl WorkerBehavior for Truthful {
    fn answer(&mut self, task: &Microtask) -> Answer {
        task.ground_truth.unwrap_or(Answer::YES)
    }
}

/// The framework with its maintained state re-checked against
/// from-scratch recomputation after every request and every submit.
struct Validated(ICrowd);

impl ExternalQuestionServer for Validated {
    fn request_task(&mut self, worker: &str, now: Tick) -> Option<TaskId> {
        let task = self.0.request_task(worker, now);
        self.0.validate_incremental_state();
        task
    }

    fn submit_answer(
        &mut self,
        worker: &str,
        task: TaskId,
        answer: Answer,
        now: Tick,
    ) -> SubmitOutcome {
        let outcome = self.0.submit_answer(worker, task, answer, now);
        self.0.validate_incremental_state();
        outcome
    }

    fn is_complete(&self) -> bool {
        self.0.is_complete()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any fault plan — drops, duplicates, late delivery, stalls and a
    /// churn spike in one run — leaves the books balanced: the campaign
    /// terminates, every payment matches the per-assignment reward, no
    /// task collects more than `k` votes, and no vote is double-counted.
    #[test]
    fn random_fault_plans_never_corrupt_the_accounting(
        seed in 0u64..1_000,
        drop_rate in 0.0f64..0.4,
        dup_rate in 0.0f64..0.4,
        late_rate in 0.0f64..0.4,
        stall_rate in 0.0f64..0.1,
        churn_fraction in 0.0f64..0.3,
    ) {
        let _g = obs_guard();
        let n = 8u32;
        let ts = tasks(n);
        let metric = MatrixSimilarity::from_edges(&ts, &[], "empty");
        // Heap-based lease expiry and counter-based remaining capacity
        // must match their swept/recomputed oracles after every call,
        // whatever the fault mix.
        let mut srv = Validated(
            ICrowdBuilder::new(ts.clone())
                .config(ICrowdConfig {
                    warmup: WarmupConfig {
                        num_qualification: 1,
                        ..Default::default()
                    },
                    ..Default::default()
                })
                .strategy(AssignStrategy::Adapt)
                .metric(&metric)
                .build(),
        );
        let market = Marketplace::new(ts, MarketConfig::default());
        let behaviors: Vec<(WorkerScript, Box<dyn WorkerBehavior>)> = (0..12)
            .map(|i| {
                (
                    WorkerScript {
                        arrival: Tick(i as u64),
                        max_answers: 60,
                        ticks_per_answer: 1,
                    },
                    Box::new(Truthful) as Box<dyn WorkerBehavior>,
                )
            })
            .collect();
        let faults = FaultConfig {
            seed,
            drop_rate,
            dup_rate,
            late_rate,
            stall_rate,
            churn: vec![ChurnSpike { at: 10, fraction: churn_fraction }],
            ..Default::default()
        };
        let outcome = market.run_with_faults(&mut srv, behaviors, Some(faults.clone()));

        let at = format!("{faults:?}");
        assert_books(&outcome, &srv.0, n, &at);

        // Same fault plan against a capped-pool server: the incremental
        // candidate caches must also survive drops, dups, expiries and
        // churn without drifting from the estimator.
        let ts2 = tasks(n);
        let metric2 = MatrixSimilarity::from_edges(&ts2, &[], "empty");
        let mut capped = Validated(
            ICrowdBuilder::new(ts2.clone())
                .config(ICrowdConfig {
                    warmup: WarmupConfig {
                        num_qualification: 1,
                        ..Default::default()
                    },
                    ..Default::default()
                })
                .strategy(AssignStrategy::Adapt)
                .metric(&metric2)
                .candidate_limit(4)
                .build(),
        );
        let market2 = Marketplace::new(ts2, MarketConfig::default());
        let behaviors2: Vec<(WorkerScript, Box<dyn WorkerBehavior>)> = (0..12)
            .map(|i| {
                (
                    WorkerScript {
                        arrival: Tick(i as u64),
                        max_answers: 60,
                        ticks_per_answer: 1,
                    },
                    Box::new(Truthful) as Box<dyn WorkerBehavior>,
                )
            })
            .collect();
        let outcome2 = market2.run_with_faults(&mut capped, behaviors2, Some(faults));
        assert_books(&outcome2, &capped.0, n, &at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The capped pipeline decides exactly as the uncapped one whenever
    /// its pool holds every open task. Each case is a small random
    /// campaign — a random similarity graph, noisy workers with two
    /// domain accuracies each, k ∈ {1, 3, 5}, with or without explicit
    /// leases, Adapt or QF-Only, and a random fault plan — run twice:
    /// uncapped, and capped with `candidate_limit` = |T| over at most 8
    /// open tasks, where the rank pulls plus the 8-task exploration
    /// sample pool all of them. Both runs sample Step 3 with stride 1,
    /// so the two can differ only where a top worker set differs: the
    /// capped warm∪cold construction against the dense one. The event
    /// logs, labels and per-worker assignment counts must be identical,
    /// and both runs re-validate their maintained state after every
    /// call.
    #[test]
    fn capped_and_uncapped_pipelines_decide_alike(
        open in 1u32..=8,
        quals in 1u32..=2,
        truths in vec((proptest::bool::ANY, 0u16..2), 10),
        edges in vec((0u32..10, 0u32..10, 0.2f64..1.0), 0..24),
        k_index in 0usize..3,
        lease in 0u64..12,
        qf_only in proptest::bool::ANY,
        crowd in vec((0.2f64..1.0, 0.2f64..1.0), 3..10),
        seed in 0u64..1_000,
        drop_rate in 0.0f64..0.3,
        dup_rate in 0.0f64..0.3,
        late_rate in 0.0f64..0.3,
        stall_rate in 0.0f64..0.1,
        churn_at in 0u64..40,
        churn_fraction in 0.0f64..0.3,
    ) {
        let _g = obs_guard();
        let n = open + quals;
        let ts: TaskSet = (0..n)
            .map(|i| {
                let (yes, domain) = truths[i as usize];
                let truth = if yes { Answer::YES } else { Answer::NO };
                Microtask::binary(TaskId(i), format!("task {i}"))
                    .with_domain(Domain(domain))
                    .with_ground_truth(truth)
            })
            .collect();
        let edges: Vec<(TaskId, TaskId, f64)> = edges
            .into_iter()
            .map(|(a, b, s)| (TaskId(a % n), TaskId(b % n), s))
            .filter(|(a, b, _)| a != b)
            .collect();
        let metric = MatrixSimilarity::from_edges(&ts, &edges, "random");
        let config = ICrowdConfig {
            assignment_size: [1, 3, 5][k_index],
            similarity_threshold: 0.5,
            lease_ticks: (lease > 0).then_some(lease),
            warmup: WarmupConfig {
                num_qualification: quals as usize,
                ..Default::default()
            },
            ..Default::default()
        };
        let strategy = if qf_only { AssignStrategy::QfOnly } else { AssignStrategy::Adapt };
        let faults = FaultConfig {
            seed,
            drop_rate,
            dup_rate,
            late_rate,
            stall_rate,
            churn: vec![ChurnSpike { at: churn_at, fraction: churn_fraction }],
            ..Default::default()
        };
        let run = |candidate_limit: Option<usize>| {
            let mut builder = ICrowdBuilder::new(ts.clone())
                .config(config.clone())
                .strategy(strategy)
                .metric(&metric);
            if let Some(limit) = candidate_limit {
                builder = builder.candidate_limit(limit);
            }
            let mut server = Validated(builder.build());
            let behaviors: Vec<(WorkerScript, Box<dyn WorkerBehavior>)> = crowd
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| {
                    let profile = WorkerProfile {
                        name: format!("W{i}"),
                        domain_accuracy: vec![a, b],
                    };
                    (
                        WorkerScript {
                            arrival: Tick(i as u64),
                            max_answers: 40,
                            ticks_per_answer: 1,
                        },
                        Box::new(SimWorker::new(profile, seed ^ i as u64))
                            as Box<dyn WorkerBehavior>,
                    )
                })
                .collect();
            let outcome = Marketplace::new(ts.clone(), MarketConfig::default()).run_with_faults(
                &mut server,
                behaviors,
                Some(faults.clone()),
            );
            assert_books(&outcome, &server.0, n, &format!("{config:?} {faults:?}"));
            (outcome, server.0)
        };
        let (uncapped_outcome, uncapped) = run(None);
        let (capped_outcome, capped) = run(Some(n as usize));

        let at = format!("{strategy:?} {config:?} {edges:?} {crowd:?} {faults:?}");
        prop_assert_eq!(
            uncapped_outcome.events.to_json_lines(),
            capped_outcome.events.to_json_lines(),
            "event logs differ at {}",
            at
        );
        prop_assert_eq!(uncapped.results(), capped.results(), "labels differ at {}", at);
        prop_assert_eq!(
            uncapped.assignment_distribution(),
            capped.assignment_distribution(),
            "assignment counts differ at {}",
            at
        );
    }
}

/// The marketplace cells' fault seed; it also seeds the crowd.
const CELL_SEED: u64 = 20150531;

/// One cell of the marketplace sweep: table1 under Jaccard similarity
/// with stopwords kept (threshold 0.4), two qualification tasks and
/// 12-tick leases, served to 24 patient workers (table1's roster
/// cycled, one arriving every 2 ticks) through a marketplace that drops
/// and stalls at the given rates, duplicates and delays 10% of answers
/// (by up to 6 ticks) and churns 20% of the crowd at tick 60.
fn run_cell(drop_rate: f64, stall_rate: f64) -> (MarketOutcome, ICrowd) {
    let ds = table1();
    let metric = JaccardSimilarity::new(&ds.tasks, &Tokenizer::keeping_stopwords());
    let mut server: ICrowd = ICrowdBuilder::new(ds.tasks.clone())
        .config(ICrowdConfig {
            similarity_threshold: 0.4,
            // Short leases reclaim a stalled worker's assignment well
            // before the rest of the crowd gives up.
            lease_ticks: Some(12),
            warmup: WarmupConfig {
                num_qualification: 2,
                ..Default::default()
            },
            ..Default::default()
        })
        .strategy(AssignStrategy::Adapt)
        .metric(&metric)
        .build();
    let market = Marketplace::new(
        ds.tasks.clone(),
        MarketConfig {
            // Enough retry headroom to outlive a stalled assignment's lease.
            max_retries: 20,
            ..Default::default()
        },
    );
    let behaviors: Vec<(WorkerScript, Box<dyn WorkerBehavior>)> = ds
        .spawn_workers(CELL_SEED)
        .into_iter()
        .cycle()
        .take(24)
        .enumerate()
        .map(|(i, w)| {
            (
                WorkerScript {
                    arrival: Tick(i as u64 * 2),
                    max_answers: usize::MAX,
                    ticks_per_answer: 1,
                },
                Box::new(w) as Box<dyn WorkerBehavior>,
            )
        })
        .collect();
    let faults = FaultConfig {
        seed: CELL_SEED,
        drop_rate,
        dup_rate: 0.1,
        late_rate: 0.1,
        late_max_ticks: 6,
        stall_rate,
        churn: vec![ChurnSpike {
            at: 60,
            fraction: 0.2,
        }],
    };
    let outcome = market.run_with_faults(&mut server, behaviors, Some(faults));
    (outcome, server)
}

/// The marketplace sweep: drop {0, .05, .1, .2} × stall {0, .02, .05},
/// with duplicates, late deliveries and a churn spike in every cell.
/// Leases reclaim what stalled workers hold, so every cell completes,
/// with balanced books, spend equal to payments × reward, and no task
/// past k votes.
#[test]
fn every_drop_and_stall_cell_completes_with_balanced_books() {
    let _g = obs_guard();
    let tasks = table1().tasks.len() as u32;
    for drop_rate in [0.0, 0.05, 0.1, 0.2] {
        for stall_rate in [0.0, 0.02, 0.05] {
            let (outcome, server) = run_cell(drop_rate, stall_rate);
            let at = format!("drop {drop_rate} stall {stall_rate}");
            assert_books(&outcome, &server, tasks, &at);
            assert!(
                server.is_complete(),
                "the campaign did not complete at {at}"
            );
        }
    }
}

/// The worst cell (drop 0.2, stall 0.05) replays byte-identically: the
/// event log's JSON, the accounting and the fault tally. Run with
/// telemetry on, it counts exactly the drops, stalls, lease expiries
/// and rejections it saw, and each of them happened.
#[test]
fn the_worst_cell_replays_byte_identically_and_counts_its_faults() {
    let _g = obs_guard();
    icrowd_obs::reset();
    icrowd_obs::enable();
    let (traced, server) = run_cell(0.2, 0.05);
    let counters = icrowd_obs::snapshot().counters;
    icrowd_obs::disable();
    icrowd_obs::reset();
    let (replay, _) = run_cell(0.2, 0.05);

    assert_eq!(
        traced.events.to_json_lines(),
        replay.events.to_json_lines(),
        "event logs differ between identical runs"
    );
    assert_eq!(traced.accounting, replay.accounting);
    assert_eq!(traced.faults, replay.faults);

    let seen = [
        ("fault.drop", traced.faults.drops),
        ("fault.stall", traced.faults.stalls),
        ("lease.expired", server.leases_expired()),
        ("answer.rejected.", server.answers_rejected()),
    ];
    for (prefix, happened) in seen {
        let counted: u64 = counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, value)| value)
            .sum();
        assert!(happened > 0, "no {prefix}* in the worst cell");
        assert_eq!(counted, happened, "{prefix}* counted wrong: {counters:?}");
    }
}
