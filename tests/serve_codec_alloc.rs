//! A served line builds no JSON tree: `Request::parse_with_trace`
//! scans the line and builds the request, `CampaignEngine::handle`
//! serves it, and `Response::encode_line_flagged` writes the reply into
//! a reused buffer; a journaled mutation is framed into the journal
//! writer's reused buffers. This test holds that path to ceilings on
//! heap allocations.
//!
//! It drives item_compare seed 42, the campaign perfbench serves, with
//! a journal attached (snapshots every 64 accepted answers, as
//! `icrowd serve --journal` does; no fsync, which allocates nothing),
//! one line at a time as perfbench's client sends them: every worker
//! polls in turn, submits what it is assigned, and on `declined` or
//! `left` asks `STATUS` whether to stop. Each exchange is counted from
//! the parse to the encoded reply. The transport's own buffers are not
//! in it: the server reads lines into a per-connection buffer and parses
//! them in place.
//!
//! Measured on this campaign, and through the JSON tree this codec
//! replaced:
//!
//! | exchanges | count | mean | max | tree mean | tree max |
//! |---|---|---|---|---|---|
//! | a worker's first poll | 53 | 2.40 | 19 | 11.77 | 48 |
//! | `wait` polls | 44,073 | 1.00 | 1 | 10.00 | 10 |
//! | assigning polls (journaled) | 1,118 | 3.66 | 47 | 30.66 | 74 |
//! | submits (journaled) | 1,119 | 4.18 | 24 | 37.78 | 82 |
//! | other polls and `STATUS` | 162 | 1.17 | 4 | 38.41 | 64 |
//!
//! The one block a `wait` poll allocates is the worker id the request
//! owns. An assigning poll adds the journaled op's worker id and what
//! the driver and Algorithm 2 allocate (`tests/assign_alloc.rs`); a
//! submit adds the op's worker id, the event log's copy of the worker
//! id and the estimator's row growth. A worker's first poll also
//! registers the worker for `STATUS`. The ceilings — 1 block in any
//! `wait` poll, a mean of 5 per assigning poll and 4.5 per submit —
//! leave room for that growth. The tree's figures fail all three, and
//! so do the 6.09 per submit the driver took when it also copied the
//! worker id only to lend it to the backend, and the 5.18 the journal
//! took when it recorded each submit's verdict as a fresh string.
//!
//! The test installs a counting global allocator, so it is its own
//! integration-test process with exactly one `#[test]`; the count is
//! scoped to the test's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use icrowd::AssignStrategy;
use icrowd_core::answer::Answer;
use icrowd_core::config::ICrowdConfig;
use icrowd_core::task::TaskId;
use icrowd_platform::market::WorkerBehavior;
use icrowd_platform::{PollOutcome, SubmitOutcome, SubmitReport};
use icrowd_serve::protocol::{Request, Response};
use icrowd_serve::CampaignEngine;
use icrowd_sim::campaign::{Approach, CampaignConfig, MetricChoice, QualStrategy};
use icrowd_sim::datasets::item_compare;
use icrowd_sim::worker_model::SimWorker;

/// Largest allocation count of any `wait` poll after a worker's first.
const MAX_PER_WAIT_POLL: u64 = 1;

/// Largest mean allocation count over the assigning polls.
const MAX_MEAN_PER_ASSIGNING_POLL: f64 = 5.0;

/// Largest mean allocation count over the submits.
const MAX_MEAN_PER_SUBMIT: f64 = 4.5;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Armed only on the test thread, only inside a measured exchange.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// Counts an allocation if the current thread is mid-measurement.
fn tally() {
    if MEASURING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The config perfbench serves: `icrowd serve --dataset item_compare`
/// with its default flags.
fn served_config(seed: u64) -> CampaignConfig {
    let mut icrowd = ICrowdConfig {
        assignment_size: 3,
        similarity_threshold: 0.8,
        ..Default::default()
    };
    icrowd.warmup.num_qualification = 10;
    CampaignConfig {
        seed,
        icrowd,
        metric: MetricChoice::CosTopic { num_topics: 8 },
        qual: QualStrategy::Influence,
        ..Default::default()
    }
}

/// Allocation counts over one kind of exchange.
#[derive(Default)]
struct Tally {
    calls: u64,
    total: u64,
    max: u64,
}

impl Tally {
    fn add(&mut self, n: u64) {
        self.calls += 1;
        self.total += n;
        self.max = self.max.max(n);
    }

    fn mean(&self) -> f64 {
        self.total as f64 / self.calls.max(1) as f64
    }

    fn line(&self, kind: &str) -> String {
        format!(
            "{kind}: {} exchanges, {:.2} allocations per exchange on average, at most {}",
            self.calls,
            self.mean(),
            self.max
        )
    }
}

/// One line through parse → handle → encode, counted; returns the reply
/// and the allocations it took.
fn exchange(engine: &CampaignEngine, line: &str, out: &mut String) -> (Response, u64) {
    let degraded = engine.durability().degraded();
    MEASURING.with(|m| m.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let resp = match Request::parse_with_trace(line) {
        Ok((req, _)) => engine.handle(&req, 1),
        Err(message) => Response::Error { message },
    };
    resp.encode_line_flagged(degraded, out);
    let n = ALLOCATIONS.load(Ordering::Relaxed) - before;
    MEASURING.with(|m| m.set(false));
    (resp, n)
}

/// A worker as perfbench's client keeps one.
struct Worker {
    poll: String,
    external: String,
    sim: SimWorker,
    /// A re-issued assignment replays the same draw.
    answered: HashMap<u32, Answer>,
}

#[test]
fn served_lines_allocate_under_the_ceilings() {
    icrowd_obs::disable();
    let seed = 42;
    let dataset = item_compare(seed);
    let journal = std::env::temp_dir().join(format!(
        "icrowd_serve_codec_alloc_{}.journal",
        std::process::id()
    ));
    std::fs::remove_file(&journal).ok();
    let engine = CampaignEngine::new(
        "item_compare",
        dataset.clone(),
        Approach::ICrowd(AssignStrategy::Adapt),
        served_config(seed),
    );
    engine
        .start_journal(&journal, 0, 64)
        .expect("create the journal");

    let mut queue: VecDeque<Worker> = dataset
        .spawn_workers(seed)
        .into_iter()
        .enumerate()
        .map(|(i, sim)| {
            let external = format!("W{}", i + 1);
            Worker {
                poll: format!("{{\"op\":\"REQUEST_TASK\",\"worker\":\"{external}\"}}"),
                external,
                sim,
                answered: HashMap::new(),
            }
        })
        .collect();
    let [mut first, mut waits, mut assigning, mut submits, mut other] =
        std::array::from_fn(|_| Tally::default());
    let mut seen = HashSet::new();
    let mut out = String::new();
    while let Some(mut w) = queue.pop_front() {
        let (resp, n) = exchange(&engine, &w.poll, &mut out);
        let tally: &mut Tally = if seen.insert(w.external.clone()) {
            &mut first
        } else {
            match resp {
                Response::Poll(PollOutcome::Wait) => &mut waits,
                Response::Poll(PollOutcome::Assigned(_)) => &mut assigning,
                _ => &mut other,
            }
        };
        tally.add(n);
        match resp {
            Response::Poll(PollOutcome::Assigned(task)) => {
                let answer = *w
                    .answered
                    .entry(task.0)
                    .or_insert_with(|| w.sim.answer(&dataset.tasks[TaskId(task.0)]));
                let line = format!(
                    "{{\"op\":\"SUBMIT_ANSWER\",\"worker\":\"{}\",\"task\":{},\"answer\":{}}}",
                    w.external, task.0, answer.0
                );
                let (resp, n) = exchange(&engine, &line, &mut out);
                assert_eq!(
                    resp,
                    Response::Submit(SubmitReport::Delivered(SubmitOutcome::Accepted)),
                    "{line}"
                );
                submits.add(n);
                queue.push_back(w);
            }
            Response::Poll(PollOutcome::Wait | PollOutcome::Declined { retry: true }) => {
                queue.push_back(w)
            }
            Response::Poll(PollOutcome::Declined { retry: false } | PollOutcome::Left) => {
                let (status, n) = exchange(&engine, r#"{"op":"STATUS"}"#, &mut out);
                other.add(n);
                let Response::Status {
                    complete, finished, ..
                } = status
                else {
                    panic!("STATUS answered {status:?}");
                };
                if !(complete || finished) {
                    queue.push_back(w);
                }
            }
            resp => panic!("a poll answered {resp:?}"),
        }
    }
    let health = engine.journal_health().expect("a journal is attached");
    std::fs::remove_file(&journal).ok();
    assert!(health.attached() && health.snapshots > 0, "{health:?}");

    for (kind, tally) in [
        ("a worker's first poll", &first),
        ("wait poll", &waits),
        ("assigning poll (journaled)", &assigning),
        ("submit (journaled)", &submits),
        ("other poll or STATUS", &other),
    ] {
        println!("{}", tally.line(kind));
    }
    assert!(waits.calls > 0 && assigning.calls > 0 && submits.calls > 0);
    assert!(
        waits.max <= MAX_PER_WAIT_POLL,
        "{} (ceiling {MAX_PER_WAIT_POLL} in any one: the worker id)",
        waits.line("wait poll")
    );
    assert!(
        assigning.mean() <= MAX_MEAN_PER_ASSIGNING_POLL,
        "{} (ceiling {MAX_MEAN_PER_ASSIGNING_POLL} on average)",
        assigning.line("assigning poll")
    );
    assert!(
        submits.mean() <= MAX_MEAN_PER_SUBMIT,
        "{} (ceiling {MAX_MEAN_PER_SUBMIT} on average)",
        submits.line("submit")
    );
}
