//! Algorithm 2 keeps its working state between requests: a served
//! `request_task` reuses one numbering of the active workers and one
//! top-worker-set buffer instead of building a candidate set, a score
//! matrix and one vector per candidate task, on either pipeline. The
//! estimator keeps its per-task state in task-keyed rows and its
//! Equation-(5) inputs in reused buffers, so a submit that completes a
//! task allocates only when a row or an observation map grows. This
//! test holds both to ceilings on heap allocations.
//!
//! It drives item_compare seed 42, the campaign perfbench serves,
//! through the in-process marketplace, with the server wrapped so every
//! `request_task` and `submit_answer` call is counted on its own, the
//! submits by kind; then it drives the same campaign on the capped
//! pipeline (`candidate_limit(64)`). What remains per request is small
//! and bounded: a new worker's registration, the first refresh of a
//! worker's dense estimates, and the amortized growth of the reused
//! buffers and of per-task lease lists. What remains per submit is the
//! amortized growth of a worker's rows and of her observation map.
//!
//! Measured on this campaign:
//!
//! | calls | count | mean | max |
//! |---|---|---|---|
//! | `request_task`, before the numbering | 1,131 | 2.09 | 30 |
//! | `request_task` | 1,131 | 0.44 | 42 |
//! | capped `request_task`, before the numbering | 1,143 | 6.10 | 16 |
//! | capped `request_task` | 1,143 | 0.39 | 20 |
//! | qualification submits, before the rows | 266 | 7.67 | 23 |
//! | qualification submits | 266 | 3.27 | 21 |
//! | completing submits, before the rows | 350 | 2.83 | 9 |
//! | completing submits | 350 | 0.40 | 6 |
//! | other submits | 503 | 0 | 0 |
//!
//! Before the flat buffer `request_task` allocated 362.1 times per call
//! on average and up to 1,118. Its largest call is the first assigning
//! request, which grows the reused buffers to their working size; later
//! calls stay in single digits. The ceiling of 64 leaves headroom for
//! that growth and for workers that register or refresh together; any
//! per-candidate allocation breaks it on the first request with a couple
//! of hundred candidates. Before the numbering, every assigning request
//! allocated its active-worker list, and a capped one also its candidate
//! `BTreeSet`, its cold ranking and an active mask; a baseline shift
//! dropped a worker's dense estimates, so the next refresh reallocated
//! them. The mean ceiling of 1 per request fails that code on both
//! pipelines. Before the rows, a completing submit copied its vote set
//! and built two accuracy vectors, and a qualification submit grew
//! B-tree nodes and a SipHash map; the mean ceilings (1 and 5) fail that
//! code and leave the rows' growth room.
//!
//! The test installs a counting global allocator, so it is its own
//! integration-test process with exactly one `#[test]`; the count is
//! scoped to the test's thread. Debug and release builds run the same
//! request path and count the same allocations, so plain `cargo test`
//! runs it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use icrowd::{AssignStrategy, ICrowd, ICrowdBuilder};
use icrowd_core::answer::Answer;
use icrowd_core::config::ICrowdConfig;
use icrowd_core::task::TaskId;
use icrowd_core::worker::Tick;
use icrowd_platform::market::{
    ExternalQuestionServer, MarketConfig, Marketplace, SubmitOutcome, WorkerBehavior, WorkerScript,
};
use icrowd_sim::campaign::{
    build_graph, prepare_campaign, Approach, CampaignConfig, CampaignServer, CampaignSetup,
    MetricChoice, QualStrategy,
};
use icrowd_sim::datasets::{item_compare, Dataset};

/// Largest allocation count any one `request_task` call may reach.
const MAX_ALLOCATIONS_PER_REQUEST: u64 = 64;

/// Largest mean allocation count over the `request_task` calls, on
/// either pipeline.
const MAX_MEAN_PER_REQUEST: f64 = 1.0;

/// The candidate cap of the capped campaign.
const CANDIDATE_LIMIT: usize = 64;

/// Largest mean allocation count over the submits that complete a task.
const MAX_MEAN_PER_COMPLETING_SUBMIT: f64 = 1.0;

/// Largest mean allocation count over the qualification submits.
const MAX_MEAN_PER_QUALIFICATION_SUBMIT: f64 = 5.0;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Armed only on the test thread, only inside a measured call.
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

/// Allocation counts over one kind of call.
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
            "{kind}: {} calls, {:.2} allocations per call on average, at most {}",
            self.calls,
            self.mean(),
            self.max
        )
    }
}

/// Runs `f` with the counter armed; returns its result and the number
/// of allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    MEASURING.with(|m| m.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let n = ALLOCATIONS.load(Ordering::Relaxed) - before;
    MEASURING.with(|m| m.set(false));
    (out, n)
}

/// Forwards to the iCrowd server, counting each `request_task` and each
/// `submit_answer`, the latter by kind: a qualification answer, a
/// regular answer that completes its task, and any other.
struct CountingServer {
    inner: ICrowd,
    requests: Tally,
    qualification: Tally,
    completing: Tally,
    other: Tally,
}

impl ExternalQuestionServer for CountingServer {
    fn request_task(&mut self, worker: &str, now: Tick) -> Option<TaskId> {
        let (task, n) = counted(|| self.inner.request_task(worker, now));
        self.requests.add(n);
        task
    }

    fn submit_answer(
        &mut self,
        worker: &str,
        task: TaskId,
        answer: Answer,
        now: Tick,
    ) -> SubmitOutcome {
        let qualification = self.inner.warmup().is_qualification(task);
        let was_completed = self.inner.consensus().is_completed(task);
        let (outcome, n) = counted(|| self.inner.submit_answer(worker, task, answer, now));
        if qualification {
            self.qualification.add(n);
        } else if !was_completed && self.inner.consensus().is_completed(task) {
            self.completing.add(n);
        } else {
            self.other.add(n);
        }
        outcome
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }
}

/// Drives `server` through the campaign's marketplace with every call
/// counted.
fn drive(
    server: ICrowd,
    dataset: &Dataset,
    config: &CampaignConfig,
    scripts: Vec<WorkerScript>,
    market: MarketConfig,
) -> CountingServer {
    let behaviors: Vec<(WorkerScript, Box<dyn WorkerBehavior>)> = dataset
        .spawn_workers(config.seed)
        .into_iter()
        .zip(scripts)
        .map(|(w, script)| (script, Box::new(w) as Box<dyn WorkerBehavior>))
        .collect();
    let mut counting = CountingServer {
        inner: server,
        requests: Tally::default(),
        qualification: Tally::default(),
        completing: Tally::default(),
        other: Tally::default(),
    };
    let outcome = Marketplace::new(dataset.tasks.clone(), market).run_with_faults(
        &mut counting,
        behaviors,
        config.faults.clone(),
    );
    assert!(counting.is_complete(), "the campaign must complete");
    assert!(outcome.answers > 0);
    counting
}

#[test]
fn served_campaign_allocations_stay_under_the_ceilings() {
    icrowd_obs::disable();
    let config = served_config(42);
    let dataset = item_compare(42);
    let CampaignSetup {
        server,
        scripts,
        market,
        gold,
    } = prepare_campaign(&dataset, Approach::ICrowd(AssignStrategy::Adapt), &config);
    let CampaignServer::ICrowd(inner) = server else {
        unreachable!("an iCrowd approach builds an iCrowd server")
    };
    let counting = drive(*inner, &dataset, &config, scripts.clone(), market);
    for (kind, tally) in [
        ("request_task", &counting.requests),
        ("qualification submit", &counting.qualification),
        ("completing submit", &counting.completing),
        ("other submit", &counting.other),
    ] {
        println!("{}", tally.line(kind));
    }

    // The same campaign on the capped pipeline.
    let capped = ICrowdBuilder::new(dataset.tasks.clone())
        .config(config.icrowd.clone())
        .estimation_mode(config.estimation_mode)
        .graph(build_graph(&dataset, &config))
        .qualification(gold)
        .candidate_limit(CANDIDATE_LIMIT)
        .build();
    let capped = drive(capped, &dataset, &config, scripts, market);
    println!("{}", capped.requests.line("capped request_task"));

    assert!(
        counting.requests.max <= MAX_ALLOCATIONS_PER_REQUEST,
        "{} (ceiling {MAX_ALLOCATIONS_PER_REQUEST} in one call)",
        counting.requests.line("request_task")
    );
    assert!(
        counting.requests.mean() <= MAX_MEAN_PER_REQUEST,
        "{} (ceiling {MAX_MEAN_PER_REQUEST} on average)",
        counting.requests.line("request_task")
    );
    assert!(
        counting.completing.mean() <= MAX_MEAN_PER_COMPLETING_SUBMIT,
        "{} (ceiling {MAX_MEAN_PER_COMPLETING_SUBMIT} on average)",
        counting.completing.line("completing submit")
    );
    assert!(
        counting.qualification.mean() <= MAX_MEAN_PER_QUALIFICATION_SUBMIT,
        "{} (ceiling {MAX_MEAN_PER_QUALIFICATION_SUBMIT} on average)",
        counting.qualification.line("qualification submit")
    );
    assert!(
        capped.requests.mean() <= MAX_MEAN_PER_REQUEST,
        "{} (ceiling {MAX_MEAN_PER_REQUEST} on average)",
        capped.requests.line("capped request_task")
    );
}
