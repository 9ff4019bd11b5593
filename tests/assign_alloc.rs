//! Algorithm 2 keeps its working state between requests: a served
//! `request_task` reuses one top-worker-set buffer instead of building
//! a candidate set, a score matrix and one vector per candidate task.
//! This test holds that to a ceiling on heap allocations per call.
//!
//! It drives item_compare seed 42, the campaign perfbench serves,
//! through the in-process marketplace, with the server wrapped so every
//! `request_task` call is counted on its own. What remains per call is
//! small and bounded: the active-worker list, a new worker's
//! registration, a dense estimate rebuild after a qualification answer,
//! and the amortized growth of per-task lease lists.
//!
//! Measured on this campaign (1,131 calls): at most 23 allocations in
//! one call after the change, 2.1 on average, against at most 1,118 and
//! 362.1 on average before it. The 23 are the first assigning request,
//! which grows the reused buffers to their working size; later calls
//! stay in single digits. The ceiling of 64 leaves headroom for that
//! growth and for workers that register or refresh together; any
//! per-candidate allocation breaks it on the first request with a couple
//! of hundred candidates.
//!
//! The test installs a counting global allocator, so it is its own
//! integration-test process with exactly one `#[test]`; the count is
//! scoped to the test's thread. It is compiled only without debug
//! assertions: debug builds re-validate the incremental state and
//! replay the top-worker-set oracle inside every request, and both
//! allocate. Run it with `cargo test --release --test assign_alloc`.
#![cfg(not(debug_assertions))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use icrowd::AssignStrategy;
use icrowd_core::answer::Answer;
use icrowd_core::config::ICrowdConfig;
use icrowd_core::task::TaskId;
use icrowd_core::worker::Tick;
use icrowd_platform::market::{
    ExternalQuestionServer, Marketplace, SubmitOutcome, WorkerBehavior, WorkerScript,
};
use icrowd_sim::campaign::{
    prepare_campaign, Approach, CampaignConfig, CampaignServer, CampaignSetup, MetricChoice,
    QualStrategy,
};
use icrowd_sim::datasets::item_compare;

/// Largest allocation count any one `request_task` call may reach.
const MAX_ALLOCATIONS_PER_REQUEST: u64 = 64;

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

/// Forwards to the campaign server, counting each `request_task`.
struct CountingServer {
    inner: CampaignServer,
    calls: u64,
    total: u64,
    max: u64,
}

impl ExternalQuestionServer for CountingServer {
    fn request_task(&mut self, worker: &str, now: Tick) -> Option<TaskId> {
        MEASURING.with(|m| m.set(true));
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let task = self.inner.request_task(worker, now);
        let n = ALLOCATIONS.load(Ordering::Relaxed) - before;
        MEASURING.with(|m| m.set(false));
        self.calls += 1;
        self.total += n;
        self.max = self.max.max(n);
        task
    }

    fn submit_answer(
        &mut self,
        worker: &str,
        task: TaskId,
        answer: Answer,
        now: Tick,
    ) -> SubmitOutcome {
        self.inner.submit_answer(worker, task, answer, now)
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }
}

#[test]
fn request_task_allocations_stay_under_the_ceiling() {
    icrowd_obs::disable();
    let config = served_config(42);
    let dataset = item_compare(42);
    let CampaignSetup {
        server,
        scripts,
        market,
        ..
    } = prepare_campaign(&dataset, Approach::ICrowd(AssignStrategy::Adapt), &config);
    let behaviors: Vec<(WorkerScript, Box<dyn WorkerBehavior>)> = dataset
        .spawn_workers(config.seed)
        .into_iter()
        .zip(scripts)
        .map(|(w, script)| (script, Box::new(w) as Box<dyn WorkerBehavior>))
        .collect();
    let mut counting = CountingServer {
        inner: server,
        calls: 0,
        total: 0,
        max: 0,
    };
    let outcome = Marketplace::new(dataset.tasks.clone(), market).run_with_faults(
        &mut counting,
        behaviors,
        config.faults.clone(),
    );
    assert!(counting.is_complete(), "the campaign must complete");
    assert!(outcome.answers > 0);
    println!(
        "request_task: {} calls, {:.1} allocations per call on average, at most {}",
        counting.calls,
        counting.total as f64 / counting.calls as f64,
        counting.max
    );
    assert!(
        counting.max <= MAX_ALLOCATIONS_PER_REQUEST,
        "a request_task call allocated {} times (ceiling {MAX_ALLOCATIONS_PER_REQUEST})",
        counting.max
    );
}
