//! Request-scoped tracing: causally linked span trees per protocol
//! request.
//!
//! `icrowd loadgen` stamps a nonzero `u64` trace id on each protocol
//! line; the serving layer opens a **root** trace span for the request
//! ([`trace_begin`]) and every [`Span`](crate::Span) started underneath
//! it — engine, market driver, Algorithm 2, estimator, journal — becomes
//! a **child** node without any signature plumbing: the active trace
//! rides a thread-local, which is correct because one request is handled
//! start-to-finish on one handler thread.
//!
//! Each completed node becomes a [`TraceEvent`] in the global registry
//! and is exported as one JSONL line
//! (`{"type":"trace","trace":...,"span":...,"parent":...,...}`), so an
//! assigning `REQUEST_TASK` yields e.g.
//!
//! ```text
//! serve.rpc.request (span 1, parent 0)
//! └─ serve.request (span 2, parent 1)
//!    ├─ driver.poll (span 3, parent 2)
//!    │  └─ assign.loop (span 4, parent 3)
//!    └─ journal.append (span 5, parent 2)
//! ```
//!
//! Cost discipline matches the span path: with telemetry disabled,
//! [`trace_begin`] and a span start are a single relaxed atomic load —
//! no clock read, no allocation, no thread-local access (asserted by the
//! `noop_alloc` integration test). With telemetry enabled but no active
//! trace on the thread (e.g. the in-process harness), a span start pays
//! one thread-local read for its tree.

use std::cell::Cell;
use std::time::Instant;

use crate::{is_enabled, push_trace_event};

/// One completed trace span, as recorded and exported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The request's trace id (nonzero; stamped by the client).
    pub trace_id: u64,
    /// This span's id, unique within the trace (root = 1).
    pub span_id: u32,
    /// The parent span's id (0 for the root).
    pub parent_id: u32,
    /// Span name (e.g. `"driver.poll"`).
    pub name: &'static str,
    /// Start time, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Per-thread active-trace state. `trace_id == 0` means no trace is
/// active; ids/parents are plain counters so the whole context is
/// `Copy` and lives in a `Cell`.
#[derive(Clone, Copy)]
struct Ctx {
    trace_id: u64,
    next_span: u32,
    parent: u32,
}

const IDLE: Ctx = Ctx {
    trace_id: 0,
    next_span: 0,
    parent: 0,
};

thread_local! {
    static CTX: Cell<Ctx> = const { Cell::new(IDLE) };
}

/// The process-wide trace epoch (first use).
fn epoch() -> Instant {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from the trace epoch to `at`.
fn since_epoch_ns(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Opens the root span of a trace on this thread. No-op (and
/// allocation-free) when telemetry is disabled or `trace_id` is 0; a
/// nested `trace_begin` while a trace is already active is also
/// ignored (the outer trace wins — requests do not nest).
#[must_use = "the trace is active until the guard drops"]
pub fn trace_begin(trace_id: u64, name: &'static str) -> TraceGuard {
    if !is_enabled() || trace_id == 0 || CTX.with(|c| c.get().trace_id != 0) {
        return TraceGuard { armed: None };
    }
    CTX.with(|c| {
        c.set(Ctx {
            trace_id,
            next_span: 2,
            parent: 1,
        });
    });
    let started = Instant::now();
    TraceGuard {
        armed: Some((trace_id, name, since_epoch_ns(started), started)),
    }
}

/// RAII root-span guard returned by [`trace_begin`]; emits the root
/// [`TraceEvent`] and deactivates the thread's trace on drop.
pub struct TraceGuard {
    armed: Option<(u64, &'static str, u64, Instant)>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let Some((trace_id, name, start_ns, started)) = self.armed.take() {
            CTX.with(|c| c.set(IDLE));
            push_trace_event(TraceEvent {
                trace_id,
                span_id: 1,
                parent_id: 0,
                name,
                start_ns,
                dur_ns: started.elapsed().as_nanos() as u64,
            });
        }
    }
}

/// A [`Span`](crate::Span)'s place in the thread's active trace.
#[derive(Clone, Copy)]
pub(crate) struct Node {
    trace_id: u64,
    span_id: u32,
    parent_id: u32,
}

impl Node {
    /// Opens a child of the innermost open span of the thread's active
    /// trace and makes it the parent of spans started after it. `None`
    /// when no trace is active on this thread.
    pub(crate) fn open() -> Option<Node> {
        CTX.with(|c| {
            let ctx = c.get();
            if ctx.trace_id == 0 {
                return None;
            }
            c.set(Ctx {
                trace_id: ctx.trace_id,
                next_span: ctx.next_span + 1,
                parent: ctx.next_span,
            });
            Some(Node {
                trace_id: ctx.trace_id,
                span_id: ctx.next_span,
                parent_id: ctx.parent,
            })
        })
    }

    /// Closes the node: restores its parent as the innermost open span
    /// (later siblings parent correctly even if the trace ended early)
    /// and returns the completed event.
    pub(crate) fn close(self, name: &'static str, started: Instant, dur_ns: u64) -> TraceEvent {
        CTX.with(|c| {
            let mut ctx = c.get();
            if ctx.trace_id == self.trace_id {
                ctx.parent = self.parent_id;
                c.set(ctx);
            }
        });
        TraceEvent {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            name,
            start_ns: since_epoch_ns(started),
            dur_ns,
        }
    }
}
