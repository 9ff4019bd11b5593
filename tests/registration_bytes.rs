//! Registering a worker is O(her evidence), not O(|T|): a new worker's
//! estimator state (observations, accumulator row, Step-3 evidence row)
//! starts empty and grows only over the tasks her answers reach. Sizing
//! any of it by the task count would put a |T|-sized allocation inside
//! the request or submit that first meets her; at Figure-10 scale that
//! allocation is the request latency's p99 (DESIGN.md §12).
//!
//! This test registers a worker and records her first qualification
//! answer on a 1,000-task and on a 100,000-task estimator, and requires
//! both to allocate the same number of bytes. The graph has no edges, so
//! each PPR vector is its own task and the index builds quickly.
//!
//! The test installs a counting global allocator, so it is its own
//! integration-test process with exactly one `#[test]`; the count is
//! scoped to the test's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use icrowd_core::answer::Answer;
use icrowd_core::config::ICrowdConfig;
use icrowd_core::task::TaskId;
use icrowd_core::worker::WorkerId;
use icrowd_estimate::{AccuracyEstimator, EstimationMode};
use icrowd_graph::SimilarityGraph;

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Armed only on the test thread, only inside a measured call.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// Adds `bytes` to the tally if the current thread is mid-measurement.
fn tally(bytes: usize) {
    if MEASURING.with(Cell::get) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allocated by registering worker 0 and recording her first
/// qualification answer on an edgeless estimator over `num_tasks` tasks.
fn first_answer_bytes(num_tasks: usize) -> u64 {
    let graph = SimilarityGraph::from_edges(num_tasks, &[]);
    let mut estimator =
        AccuracyEstimator::new(graph, ICrowdConfig::default(), EstimationMode::default());
    let worker = WorkerId(0);
    MEASURING.with(|m| m.set(true));
    let before = BYTES.load(Ordering::Relaxed);
    estimator.register_worker(worker);
    estimator.record_qualification(worker, TaskId(7), Answer::YES, Answer::YES);
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    MEASURING.with(|m| m.set(false));
    assert_eq!(estimator.observed_at(worker, TaskId(7)), Some(1.0));
    bytes
}

#[test]
fn registration_and_first_answer_allocate_the_same_bytes_at_any_task_count() {
    icrowd_obs::disable();
    // One-time lazy allocations (thread-locals, the telemetry switch)
    // land here, outside both measurements.
    first_answer_bytes(10);
    let small = first_answer_bytes(1_000);
    let large = first_answer_bytes(100_000);
    println!("registration + first answer: {small} bytes at 1,000 tasks, {large} at 100,000");
    assert!(small > 0, "recording an answer allocates its first cells");
    assert_eq!(
        small, large,
        "registration or the first answer allocates by the task count"
    );
}
