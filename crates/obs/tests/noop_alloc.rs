//! The disabled telemetry path must be allocation-free: the assignment
//! hot loop runs `span!` + `counter_add` per request, a request handler
//! opens a trace root + child spans, and a campaign issues hundreds of
//! thousands of requests with telemetry off. With telemetry on, a span
//! or counter whose name the registry already holds must record
//! without allocating too: the loadgen records every client operation.
//!
//! This file installs a counting global allocator and must therefore be
//! an integration test (its own process) with exactly one `#[test]`.
//! The count is scoped to the test's own thread (a thread-local flag
//! armed around the measured window) so stray allocations from libtest
//! harness threads cannot flake the assertion.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Armed only on the test thread, only inside the measured window.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// Counts an allocation if the current thread is mid-measurement.
/// `thread_local` access with a const initializer and a non-`Drop`
/// payload is a plain TLS read — safe inside the allocator.
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

#[test]
fn disabled_telemetry_and_known_names_allocate_nothing() {
    icrowd_obs::disable();

    // Warm up any lazy statics outside the measured window.
    {
        let _s = icrowd_obs::span!("warmup");
        icrowd_obs::counter_add("warmup", 1);
        icrowd_obs::gauge_set("warmup", 0.0);
        let _t = icrowd_obs::trace_begin(1, "warmup");
        let _c = icrowd_obs::Span::start("warmup.child");
    }

    MEASURING.with(|m| m.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..100_000u64 {
        let _s = icrowd_obs::span!("assign.loop");
        icrowd_obs::counter_add("assign.issued", 1);
        icrowd_obs::gauge_set("assign.queue_depth", i as f64);
        icrowd_obs::record_span_ns("assign.loop", i);
        // The trace path must also be inert: a disabled root guard and
        // a child span drop without touching the registry or the heap.
        let _t = icrowd_obs::trace_begin(i + 1, "serve.rpc.request");
        let _c = icrowd_obs::Span::start("serve.request");
        // The rejection path counts through static names — no format!
        // allocation even with every reason exercised.
        for reason in [
            icrowd_platform::events::RejectReason::NotAssigned,
            icrowd_platform::events::RejectReason::Duplicate,
            icrowd_platform::events::RejectReason::LeaseExpired,
            icrowd_platform::events::RejectReason::TaskCompleted,
        ] {
            icrowd_obs::counter_add(reason.counter_name(), 1);
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    MEASURING.with(|m| m.set(false));

    assert_eq!(
        after - before,
        0,
        "disabled span/counter/gauge/trace path allocated {} times over 100k iterations",
        after - before
    );
    assert!(!icrowd_obs::is_enabled());

    // Enabled: each name's first record copies it into the registry;
    // every later record of the same value finds it and allocates
    // nothing (its histogram bucket exists too).
    icrowd_obs::reset();
    icrowd_obs::enable();
    icrowd_obs::record_span_ns("assign.loop", 1_000);
    icrowd_obs::counter_add("assign.issued", 1);
    MEASURING.with(|m| m.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..100_000 {
        icrowd_obs::record_span_ns("assign.loop", 1_000);
        icrowd_obs::counter_add("assign.issued", 1);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    MEASURING.with(|m| m.set(false));
    icrowd_obs::disable();
    assert_eq!(
        after - before,
        0,
        "recording known span and counter names allocated {} times over 100k iterations",
        after - before
    );
    assert_eq!(icrowd_obs::counter_value("assign.issued"), 100_001);
}
