//! Tracing and metrics for the iCrowd workspace.
//!
//! The paper's evaluation is entirely about *where time and assignments
//! go* — per-phase latency of the offline graph build vs. online
//! assignment (Figure 10), assignment counts per worker, early stops,
//! declined requests. This crate gives every layer a shared, process-wide
//! instrumentation sink so those numbers come from one audited registry
//! instead of ad-hoc `println!` lines:
//!
//! - **Spans** — RAII timers created with [`span!`], the crate's one
//!   timer; each named span accumulates count / total / min / max plus
//!   a deterministic log-bucketed [`LogHistogram`] from which every
//!   exported quantile (p50/p99) is computed with ≤1% relative error.
//!   Histograms merge associatively, so per-thread or per-shard series
//!   fold exactly.
//! - **Counters** — monotonic `u64` totals ([`counter_add`]): assignments
//!   issued, estimator cache hits, PPR iterations, HIT lifecycle
//!   transitions.
//! - **Gauges** — `f64` values ([`gauge_set`]) tracked as
//!   last/window-min/window-max, so burst peaks survive scrapes.
//! - **Events** — pre-serialized JSON payloads ([`event_json`]) bridging
//!   structured logs (the platform's `EventLog`) into the same sink.
//! - **Traces** — request-scoped span trees ([`trace_begin`]): the
//!   serving layer opens a root span per traced protocol request, and
//!   every [`span!`] started under it on that thread (engine, driver,
//!   Algorithm 2, estimator, journal) is also a causally linked child,
//!   exported as JSONL `trace` records. One guard feeds both views, so a
//!   tree node and its histogram share a name and a duration.
//! - **Windows** — [`window_advance`] snapshots everything that
//!   happened since the previous advance (counter deltas, windowed
//!   histograms, gauge extremes) for live scraping (`METRICS` verb,
//!   `icrowd serve --metrics-every`). Totals reset never; windows are
//!   deltas, monotonically sequenced.
//!
//! Telemetry is **off by default** and the disabled path is free: no
//! allocation, no clock read, no lock — a single relaxed atomic load
//! (asserted by the `noop_alloc` integration test, which covers the
//! trace path too). Exports are deterministic: registries are
//! `BTreeMap`s so JSONL lines and the summary table come out in stable
//! order, and quantiles come from deterministic bucketing, not
//! sampling.
//!
//! The crate's one dependency is the vendored `serde_json`, which has
//! none, so it stays usable from every workspace crate. Export lines are
//! written by hand, but names are escaped and gauges printed by the
//! writers `serde_json`'s tree printer uses, so the two cannot disagree.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use serde_json::{write_f64, write_string};

mod hist;
mod trace;
mod window;

pub use hist::{LogHistogram, SUB_BITS};
pub use trace::{trace_begin, TraceEvent, TraceGuard};
pub use window::{GaugeSummary, WindowReport};

/// Global on/off switch. Relaxed ordering is sufficient: the flag only
/// gates *whether* to record, never synchronizes data (the registry
/// mutex does that).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Hard cap on retained [`event_json`] payloads; overflow is counted,
/// not silently dropped.
const MAX_EVENTS: usize = 100_000;

/// Hard cap on retained [`TraceEvent`]s; overflow is counted.
const MAX_TRACE_EVENTS: usize = 200_000;

fn registry() -> MutexGuard<'static, Inner> {
    static REGISTRY: OnceLock<Mutex<Inner>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(Inner::default()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Default)]
struct Inner {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, GaugeStat>,
    events: Vec<(String, String)>,
    events_dropped: u64,
    traces: Vec<TraceEvent>,
    traces_dropped: u64,
    /// Window baselines: cumulative state at the previous
    /// [`window_advance`] mark.
    win_spans: BTreeMap<String, LogHistogram>,
    win_counters: BTreeMap<String, u64>,
    win_seq: u64,
    win_mark: Option<Instant>,
}

impl Inner {
    /// Records one execution of span `name`. The name is copied only
    /// the first time it is recorded.
    fn record_span(&mut self, name: &str, ns: u64) {
        match self.spans.get_mut(name) {
            Some(stat) => stat.record(ns),
            None => {
                let mut stat = SpanStat::new();
                stat.record(ns);
                self.spans.insert(name.to_owned(), stat);
            }
        }
    }

    /// Appends a completed trace node, bounded like events.
    fn push_trace(&mut self, ev: TraceEvent) {
        if self.traces.len() >= MAX_TRACE_EVENTS {
            self.traces_dropped += 1;
        } else {
            self.traces.push(ev);
        }
    }
}

struct SpanStat {
    total_ns: u64,
    hist: LogHistogram,
}

#[derive(Clone, Copy)]
struct GaugeStat {
    last: f64,
    win_min: f64,
    win_max: f64,
}

impl SpanStat {
    fn new() -> Self {
        Self {
            total_ns: 0,
            hist: LogHistogram::new(),
        }
    }

    fn record(&mut self, ns: u64) {
        self.total_ns = self.total_ns.saturating_add(ns);
        self.hist.record(ns);
    }

    fn summary(&self, name: &str) -> SpanSummary {
        SpanSummary {
            name: name.to_owned(),
            count: self.hist.count(),
            total_ns: self.total_ns,
            min_ns: self.hist.min(),
            max_ns: self.hist.max(),
            p50_ns: self.hist.percentile(0.50),
            p99_ns: self.hist.percentile(0.99),
        }
    }
}

/// Summarizes a windowed histogram the same way a cumulative span is
/// summarized (total from the histogram's sum, since the window has no
/// separate total ledger).
fn hist_summary(name: &str, hist: &LogHistogram) -> SpanSummary {
    SpanSummary {
        name: name.to_owned(),
        count: hist.count(),
        total_ns: hist.sum(),
        min_ns: hist.min(),
        max_ns: hist.max(),
        p50_ns: hist.percentile(0.50),
        p99_ns: hist.percentile(0.99),
    }
}

/// Aggregate statistics for one named span, as exported.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name (e.g. `"ppr.solve"`).
    pub name: String,
    /// Number of recorded executions.
    pub count: u64,
    /// Summed duration over all executions, nanoseconds.
    pub total_ns: u64,
    /// Fastest execution, nanoseconds (0 when `count == 0`).
    pub min_ns: u64,
    /// Slowest execution, nanoseconds.
    pub max_ns: u64,
    /// Median execution, nanoseconds (histogram-derived, ≤1% error).
    pub p50_ns: u64,
    /// 99th-percentile execution, nanoseconds (histogram-derived).
    pub p99_ns: u64,
}

/// A point-in-time copy of the whole registry, for tests and exporters.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Per-span aggregates, in name order.
    pub spans: Vec<SpanSummary>,
    /// Counter totals, in name order.
    pub counters: Vec<(String, u64)>,
    /// Gauge values (last/window-min/window-max), in name order.
    pub gauges: Vec<GaugeSummary>,
    /// Bridged `(kind, json payload)` events, in arrival order.
    pub events: Vec<(String, String)>,
    /// Events discarded after the retention cap was hit.
    pub events_dropped: u64,
    /// Completed trace spans, in completion order.
    pub traces: Vec<TraceEvent>,
    /// Trace spans discarded after the retention cap was hit.
    pub traces_dropped: u64,
}

// ---------------------------------------------------------------------
// Control
// ---------------------------------------------------------------------

/// Turns telemetry collection on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns telemetry collection off. From then on nothing records: a
/// [`Span`] guard started while enabled records nothing when it drops
/// after this call.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether telemetry is currently collected. Callers pay only this
/// relaxed load on the disabled path; use it to gate instrumentation
/// that must allocate (e.g. `format!`-built counter names).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears every span, counter, gauge, event, trace, and window
/// baseline. The enable flag is untouched.
pub fn reset() {
    *registry() = Inner::default();
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// RAII timer: records the elapsed time under its span name on drop
/// and, when a trace is active on the thread, emits the span as a node
/// of that trace's tree. When telemetry is disabled at creation the
/// guard holds nothing — no clock read, no thread-local access, no
/// allocation, and `Drop` is a no-op.
#[must_use = "a span guard times until it is dropped; binding it to _ drops it immediately"]
pub struct Span {
    armed: Option<(&'static str, Instant, Option<trace::Node>)>,
}

impl Span {
    /// Starts a span timer named `name` (no-op when disabled).
    pub fn start(name: &'static str) -> Self {
        if !is_enabled() {
            return Span { armed: None };
        }
        let node = trace::Node::open();
        Span {
            armed: Some((name, Instant::now(), node)),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, started, node)) = self.armed.take() {
            let ns = started.elapsed().as_nanos() as u64;
            let event = node.map(|n| n.close(name, started, ns));
            if !is_enabled() {
                return;
            }
            let mut reg = registry();
            reg.record_span(name, ns);
            if let Some(ev) = event {
                reg.push_trace(ev);
            }
        }
    }
}

/// Times the enclosing scope: `let _guard = span!("ppr.solve");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::start($name)
    };
}

/// Records one execution of `name` taking `ns` nanoseconds, as a
/// [`Span`] does on drop: for pre-measured durations.
pub fn record_span_ns(name: &str, ns: u64) {
    if !is_enabled() {
        return;
    }
    registry().record_span(name, ns);
}

/// A copy of one span's full histogram (`None` if never recorded) —
/// the mergeable source behind its exported quantiles.
pub fn span_histogram(name: &str) -> Option<LogHistogram> {
    registry().spans.get(name).map(|s| s.hist.clone())
}

// ---------------------------------------------------------------------
// Counters, gauges, events, traces
// ---------------------------------------------------------------------

/// Adds `delta` to the monotonic counter `name` (no-op when disabled).
pub fn counter_add(name: &str, delta: u64) {
    if !is_enabled() || delta == 0 {
        return;
    }
    let mut reg = registry();
    match reg.counters.get_mut(name) {
        Some(value) => *value += delta,
        None => {
            reg.counters.insert(name.to_owned(), delta);
        }
    }
}

/// Sets the gauge `name` to `value` (no-op when disabled). The last
/// write wins for the cumulative view; the current window additionally
/// tracks the min/max written since the previous [`window_advance`].
pub fn gauge_set(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    let mut reg = registry();
    match reg.gauges.get_mut(name) {
        Some(g) => {
            g.last = value;
            g.win_min = g.win_min.min(value);
            g.win_max = g.win_max.max(value);
        }
        None => {
            reg.gauges.insert(
                name.to_owned(),
                GaugeStat {
                    last: value,
                    win_min: value,
                    win_max: value,
                },
            );
        }
    }
}

/// Bridges a pre-serialized JSON object into the sink under `kind`
/// (no-op when disabled). `payload` must be a complete JSON value; it
/// is embedded verbatim in the export as the line's `"data"` field.
/// Retention is capped at `MAX_EVENTS`; overflow increments the
/// `events_dropped` tally instead of growing without bound.
pub fn event_json(kind: &str, payload: &str) {
    if !is_enabled() {
        return;
    }
    let mut reg = registry();
    if reg.events.len() >= MAX_EVENTS {
        reg.events_dropped += 1;
    } else {
        reg.events.push((kind.to_owned(), payload.to_owned()));
    }
}

/// Appends a completed trace root (called by [`TraceGuard`]'s `Drop`).
/// Bounded like events; overflow is tallied.
pub(crate) fn push_trace_event(ev: TraceEvent) {
    if !is_enabled() {
        return;
    }
    registry().push_trace(ev);
}

// ---------------------------------------------------------------------
// Windows
// ---------------------------------------------------------------------

/// Closes the current metrics window and opens the next one: returns
/// everything recorded since the previous advance (or since the first
/// record, for window 1) and re-baselines. Counters report deltas,
/// spans report windowed histogram summaries, gauges report
/// last/min/max and have their window extremes reset to the last
/// value. Cumulative totals are untouched — windows "reset" only in
/// the sense that each advance starts a fresh delta, monotonically
/// sequenced.
pub fn window_advance() -> WindowReport {
    let mut reg = registry();
    let now = Instant::now();
    let dur_ns = reg
        .win_mark
        .map_or(0, |mark| now.duration_since(mark).as_nanos() as u64);
    let mut spans = Vec::new();
    let mut new_base_spans = BTreeMap::new();
    for (name, stat) in &reg.spans {
        let base = reg.win_spans.get(name);
        let windowed = match base {
            Some(b) => stat.hist.diff(b),
            None => stat.hist.clone(),
        };
        if !windowed.is_empty() {
            spans.push(hist_summary(name, &windowed));
        }
        new_base_spans.insert(name.clone(), stat.hist.clone());
    }
    let mut counters = Vec::new();
    for (name, &value) in &reg.counters {
        let delta = value - reg.win_counters.get(name).copied().unwrap_or(0);
        if delta > 0 {
            counters.push((name.clone(), delta));
        }
    }
    let mut gauges = Vec::new();
    for (name, g) in &mut reg.gauges {
        gauges.push(GaugeSummary {
            name: name.clone(),
            last: g.last,
            min: g.win_min,
            max: g.win_max,
        });
        g.win_min = g.last;
        g.win_max = g.last;
    }
    reg.win_spans = new_base_spans;
    reg.win_counters = reg.counters.clone();
    reg.win_seq += 1;
    reg.win_mark = Some(now);
    WindowReport {
        seq: reg.win_seq,
        dur_ns,
        spans,
        counters,
        gauges,
    }
}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

/// Copies the registry out for inspection.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    Snapshot {
        spans: reg.spans.iter().map(|(n, s)| s.summary(n)).collect(),
        counters: reg.counters.iter().map(|(n, v)| (n.clone(), *v)).collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|(n, g)| GaugeSummary {
                name: n.clone(),
                last: g.last,
                min: g.win_min,
                max: g.win_max,
            })
            .collect(),
        events: reg.events.clone(),
        events_dropped: reg.events_dropped,
        traces: reg.traces.clone(),
        traces_dropped: reg.traces_dropped,
    }
}

/// The current value of counter `name` (0 if never touched).
pub fn counter_value(name: &str) -> u64 {
    registry().counters.get(name).copied().unwrap_or(0)
}

/// Serializes the registry as JSON lines, in section order:
///
/// 1. spans — `{"type":"span","name":...,"count":...,"total_ns":...,
///    "min_ns":...,"max_ns":...,"p50_ns":...,"p99_ns":...}`
/// 2. histograms — `{"type":"hist","name":...,"sub_bits":7,
///    "count":...,"sum":...,"min":...,"max":...,
///    "buckets":[[index,count],...]}` — the mergeable source the
///    `icrowd obs report|diff` analyzer reconstructs quantiles from
/// 3. counters, gauges (`value`/`min`/`max`), traces
///    (`{"type":"trace","trace":...,"span":...,"parent":...,
///    "name":...,"start_ns":...,"dur_ns":...}`), bridged events
///
/// Spans/hists/counters/gauges are name-sorted; traces and events are
/// in arrival order. Overflow tallies append as counters.
pub fn export_jsonl() -> String {
    let reg = registry();
    let mut out = String::new();
    for (name, stat) in &reg.spans {
        let s = stat.summary(name);
        out.push_str("{\"type\":\"span\",\"name\":");
        write_string(&mut out, &s.name);
        out.push_str(&format!(
            ",\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}\n",
            s.count, s.total_ns, s.min_ns, s.max_ns, s.p50_ns, s.p99_ns
        ));
    }
    for (name, stat) in &reg.spans {
        if stat.hist.is_empty() {
            continue;
        }
        out.push_str("{\"type\":\"hist\",\"name\":");
        write_string(&mut out, name);
        out.push_str(&format!(
            ",\"sub_bits\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            SUB_BITS,
            stat.hist.count(),
            stat.hist.sum(),
            stat.hist.min(),
            stat.hist.max()
        ));
        for (i, (idx, n)) in stat.hist.buckets().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{idx},{n}]"));
        }
        out.push_str("]}\n");
    }
    for (name, value) in &reg.counters {
        out.push_str("{\"type\":\"counter\",\"name\":");
        write_string(&mut out, name);
        out.push_str(&format!(",\"value\":{value}}}\n"));
    }
    for (name, g) in &reg.gauges {
        out.push_str("{\"type\":\"gauge\",\"name\":");
        write_string(&mut out, name);
        out.push_str(",\"value\":");
        write_f64(&mut out, g.last);
        out.push_str(",\"min\":");
        write_f64(&mut out, g.win_min);
        out.push_str(",\"max\":");
        write_f64(&mut out, g.win_max);
        out.push_str("}\n");
    }
    for t in &reg.traces {
        out.push_str(&format!(
            "{{\"type\":\"trace\",\"trace\":{},\"span\":{},\"parent\":{},\"name\":",
            t.trace_id, t.span_id, t.parent_id
        ));
        write_string(&mut out, t.name);
        out.push_str(&format!(
            ",\"start_ns\":{},\"dur_ns\":{}}}\n",
            t.start_ns, t.dur_ns
        ));
    }
    for (kind, payload) in &reg.events {
        out.push_str("{\"type\":\"event\",\"name\":");
        write_string(&mut out, kind);
        out.push_str(",\"data\":");
        out.push_str(payload);
        out.push_str("}\n");
    }
    if reg.events_dropped > 0 {
        out.push_str(&format!(
            "{{\"type\":\"counter\",\"name\":\"obs.events_dropped\",\"value\":{}}}\n",
            reg.events_dropped
        ));
    }
    if reg.traces_dropped > 0 {
        out.push_str(&format!(
            "{{\"type\":\"counter\",\"name\":\"obs.traces_dropped\",\"value\":{}}}\n",
            reg.traces_dropped
        ));
    }
    out
}

/// Writes [`export_jsonl`] to `path`.
///
/// # Errors
/// Propagates file-creation and write errors.
pub fn write_jsonl(path: &str) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(export_jsonl().as_bytes())?;
    f.flush()
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Renders a fixed-width, human-readable table of every span, counter,
/// and gauge (times in milliseconds).
pub fn summary_table() -> String {
    let snap = snapshot();
    let mut out = String::new();
    out.push_str("== telemetry summary ==\n");
    if !snap.spans.is_empty() {
        out.push_str(&format!(
            "{:<24} {:>9} {:>12} {:>10} {:>10} {:>10} {:>10}\n",
            "span", "count", "total_ms", "min_ms", "max_ms", "p50_ms", "p99_ms"
        ));
        for s in &snap.spans {
            out.push_str(&format!(
                "{:<24} {:>9} {:>12} {:>10} {:>10} {:>10} {:>10}\n",
                s.name,
                s.count,
                fmt_ms(s.total_ns),
                fmt_ms(s.min_ns),
                fmt_ms(s.max_ns),
                fmt_ms(s.p50_ns),
                fmt_ms(s.p99_ns),
            ));
        }
    }
    if !snap.counters.is_empty() {
        out.push_str(&format!("{:<24} {:>12}\n", "counter", "value"));
        for (name, value) in &snap.counters {
            out.push_str(&format!("{name:<24} {value:>12}\n"));
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str(&format!(
            "{:<24} {:>12} {:>12} {:>12}\n",
            "gauge", "last", "win_min", "win_max"
        ));
        for g in &snap.gauges {
            out.push_str(&format!(
                "{:<24} {:>12.3} {:>12.3} {:>12.3}\n",
                g.name, g.last, g.min, g.max
            ));
        }
    }
    if !snap.traces.is_empty() || snap.traces_dropped > 0 {
        out.push_str(&format!(
            "traces: {} spans recorded, {} dropped\n",
            snap.traces.len(),
            snap.traces_dropped
        ));
    }
    if !snap.events.is_empty() || snap.events_dropped > 0 {
        out.push_str(&format!(
            "events: {} recorded, {} dropped\n",
            snap.events.len(),
            snap.events_dropped
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests that toggle it serialize
    /// through this lock so `cargo test`'s thread pool can't interleave
    /// enable/reset calls.
    fn guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        disable();
        reset();
        {
            let _s = span!("never");
        }
        counter_add("never", 3);
        gauge_set("never", 1.0);
        event_json("never", "{}");
        {
            let _t = trace_begin(7, "never");
            let _c = Span::start("never.child");
        }
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.events.is_empty());
        assert!(snap.traces.is_empty());
    }

    #[test]
    fn span_guard_times_scope() {
        let _g = guard();
        enable();
        reset();
        {
            let _s = span!("unit.work");
            std::hint::black_box(0u64);
        }
        {
            let _s = span!("unit.work");
        }
        disable();
        let snap = snapshot();
        let s = snap.spans.iter().find(|s| s.name == "unit.work").unwrap();
        assert_eq!(s.count, 2);
        assert!(s.min_ns <= s.p50_ns && s.p50_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
    }

    #[test]
    fn counters_accumulate_and_gauges_track_extremes() {
        let _g = guard();
        enable();
        reset();
        counter_add("c", 2);
        counter_add("c", 0); // no-op by contract
        counter_add("c", 5);
        gauge_set("g", 1.0);
        gauge_set("g", 7.5);
        gauge_set("g", 3.0);
        disable();
        assert_eq!(counter_value("c"), 7);
        let snap = snapshot();
        assert_eq!(snap.gauges.len(), 1);
        let g = &snap.gauges[0];
        assert_eq!(
            (g.name.as_str(), g.last, g.min, g.max),
            ("g", 3.0, 1.0, 7.5)
        );
    }

    #[test]
    fn percentiles_within_error_bound_of_known_distribution() {
        let _g = guard();
        enable();
        reset();
        for ns in 1..=100u64 {
            record_span_ns("dist", ns * 1000);
        }
        disable();
        let snap = snapshot();
        let s = snap.spans.iter().find(|s| s.name == "dist").unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min_ns, 1000);
        assert_eq!(s.max_ns, 100_000);
        // rank ⌈0.5·100⌉ = 50 → exact 50_000; ⌈0.99·100⌉ = 99 → 99_000.
        assert!(
            (s.p50_ns as f64 - 50_000.0).abs() <= 0.01 * 50_000.0,
            "{}",
            s.p50_ns
        );
        assert!(
            (s.p99_ns as f64 - 99_000.0).abs() <= 0.01 * 99_000.0,
            "{}",
            s.p99_ns
        );
        assert_eq!(s.total_ns, 5050 * 1000);
    }

    #[test]
    fn quantiles_stay_deterministic_and_bounded_at_scale() {
        let _g = guard();
        enable();
        reset();
        for ns in 0..20_000u64 {
            record_span_ns("big", ns);
        }
        disable();
        let snap = snapshot();
        let s = snap.spans.iter().find(|s| s.name == "big").unwrap();
        assert_eq!(s.count, 20_000);
        // Uniform 0..20_000: p50 within 1% of 9_999.
        assert!(
            (s.p50_ns as f64 - 9_999.0).abs() <= 0.01 * 9_999.0 + 1.0,
            "p50 {} too far from true median",
            s.p50_ns
        );
        assert!(s.p99_ns > s.p50_ns);
        // Re-recording the same series yields identical quantiles.
        let p50 = s.p50_ns;
        reset();
        enable();
        for ns in 0..20_000u64 {
            record_span_ns("big", ns);
        }
        disable();
        let again = snapshot();
        assert_eq!(again.spans[0].p50_ns, p50);
    }

    #[test]
    fn export_jsonl_is_sorted_and_escaped() {
        let _g = guard();
        enable();
        reset();
        record_span_ns("b.span", 10);
        record_span_ns("a.span", 20);
        counter_add("weird \"name\"\n", 1);
        gauge_set("g", 0.5);
        event_json("market", "{\"k\":1}");
        disable();
        let text = export_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        // 2 spans + 2 hists + 1 counter + 1 gauge + 1 event.
        assert_eq!(lines.len(), 7, "{text}");
        assert!(lines[0].contains("\"a.span\""), "spans sorted: {text}");
        assert!(lines[1].contains("\"b.span\""));
        assert!(lines[2].contains("\"type\":\"hist\"") && lines[2].contains("\"a.span\""));
        assert!(
            lines[3].contains("\"type\":\"hist\"") && lines[3].contains("\"buckets\":[[10,1]]")
        );
        assert!(
            lines[4].contains("weird \\\"name\\\"\\n"),
            "escaped: {text}"
        );
        assert!(lines[6].contains("\"data\":{\"k\":1}"));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
        let table = summary_table();
        assert!(table.contains("a.span") && table.contains("events: 1 recorded"));
    }

    #[test]
    fn event_cap_counts_drops() {
        let _g = guard();
        enable();
        reset();
        // Shrinking MAX_EVENTS for the test isn't possible on a const;
        // exercise the bookkeeping path directly instead.
        {
            let mut reg = registry();
            reg.events = vec![(String::new(), String::new()); MAX_EVENTS];
        }
        event_json("over", "{}");
        disable();
        let snap = snapshot();
        assert_eq!(snap.events.len(), MAX_EVENTS);
        assert_eq!(snap.events_dropped, 1);
        assert!(export_jsonl().contains("obs.events_dropped"));
        reset();
    }

    #[test]
    fn trace_spans_form_a_causal_tree() {
        let _g = guard();
        enable();
        reset();
        {
            let _root = trace_begin(0xABCD, "rpc.request_task");
            let _child = Span::start("serve.request");
            {
                let _grandchild = Span::start("driver.poll");
            }
            {
                let _grandchild2 = Span::start("journal.append");
            }
        }
        disable();
        let snap = snapshot();
        assert_eq!(snap.traces.len(), 4);
        let by_name = |n: &str| snap.traces.iter().find(|t| t.name == n).unwrap();
        let root = by_name("rpc.request_task");
        let child = by_name("serve.request");
        let gc1 = by_name("driver.poll");
        let gc2 = by_name("journal.append");
        assert_eq!((root.span_id, root.parent_id), (1, 0));
        assert_eq!(child.parent_id, root.span_id);
        assert_eq!(gc1.parent_id, child.span_id);
        assert_eq!(gc2.parent_id, child.span_id);
        assert_ne!(gc1.span_id, gc2.span_id);
        assert!(snap.traces.iter().all(|t| t.trace_id == 0xABCD));
        let text = export_jsonl();
        assert!(text.contains("\"type\":\"trace\""), "{text}");
        assert!(text.contains("\"name\":\"driver.poll\""), "{text}");
        // The same guards fed the histograms, under the same names.
        for name in ["serve.request", "driver.poll", "journal.append"] {
            let s = snap.spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.count, 1, "{name}");
        }
        assert!(!snap.spans.iter().any(|s| s.name == "rpc.request_task"));
    }

    #[test]
    fn span_without_active_trace_records_no_tree() {
        let _g = guard();
        enable();
        reset();
        {
            let _orphan = Span::start("driver.poll");
        }
        disable();
        let snap = snapshot();
        assert!(snap.traces.is_empty());
        assert_eq!(snap.spans.len(), 1);
    }

    #[test]
    fn windows_report_deltas_and_reseed_gauges() {
        let _g = guard();
        enable();
        reset();
        record_span_ns("w.span", 1000);
        counter_add("w.count", 5);
        gauge_set("w.gauge", 10.0);
        gauge_set("w.gauge", 2.0);
        let w1 = window_advance();
        assert_eq!(w1.seq, 1);
        assert_eq!(w1.spans.len(), 1);
        assert_eq!(w1.spans[0].count, 1);
        assert_eq!(w1.counters, vec![("w.count".to_owned(), 5)]);
        assert_eq!(w1.gauges.len(), 1);
        assert_eq!(
            (w1.gauges[0].last, w1.gauges[0].min, w1.gauges[0].max),
            (2.0, 2.0, 10.0)
        );

        // Second window: only the new activity shows; gauge extremes
        // restarted from the last value.
        record_span_ns("w.span", 9000);
        record_span_ns("w.span", 9000);
        counter_add("w.count", 2);
        let w2 = window_advance();
        assert_eq!(w2.seq, 2);
        assert_eq!(w2.spans[0].count, 2);
        assert!(w2.spans[0].p50_ns >= 8900 && w2.spans[0].p50_ns <= 9100);
        assert_eq!(w2.counters, vec![("w.count".to_owned(), 2)]);
        assert_eq!(
            (w2.gauges[0].last, w2.gauges[0].min, w2.gauges[0].max),
            (2.0, 2.0, 2.0)
        );

        // Idle window: nothing moved.
        let w3 = window_advance();
        assert_eq!(w3.seq, 3);
        assert!(w3.spans.is_empty() && w3.counters.is_empty());
        disable();

        // Cumulative view is untouched by windowing.
        let snap = snapshot();
        let s = snap.spans.iter().find(|s| s.name == "w.span").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(counter_value("w.count"), 7);

        let json = w2.to_json();
        assert!(
            json.starts_with("{\"type\":\"window\",\"seq\":2,"),
            "{json}"
        );
        assert!(json.contains("\"delta\":2"), "{json}");
    }

    #[test]
    fn reset_clears_everything() {
        let _g = guard();
        enable();
        record_span_ns("x", 1);
        counter_add("y", 1);
        {
            let _t = trace_begin(1, "r");
        }
        let _ = window_advance();
        reset();
        disable();
        let snap = snapshot();
        assert!(snap.spans.is_empty() && snap.counters.is_empty() && snap.traces.is_empty());
        // Window sequence restarts too.
        enable();
        let w = window_advance();
        assert_eq!(w.seq, 1);
        reset();
        disable();
    }
}
