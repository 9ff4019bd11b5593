//! Time-windowed metric snapshots for live scraping.
//!
//! Cumulative totals in the registry never reset; a **window** is the
//! delta between two consecutive [`crate::window_advance`] calls:
//! counter deltas, per-span histograms reconstructed by bucket-wise
//! subtraction (exact — bucket counts are monotonic), and gauges as
//! `{last, min, max}` observed since the previous window mark. Each
//! advance bumps a monotonic sequence number and becomes the new
//! baseline, so a scraper (the `METRICS` protocol verb, or the
//! `icrowd serve --metrics-every` emitter) always reads
//! "what happened since you last looked" without ever losing data to
//! a reset race. Scrapers share one sequence: a `METRICS` scrape
//! closes the window the emitter would have written next, so the
//! emitted stream's `seq` strictly increases but can skip.

use serde_json::{write_f64, write_string};

use crate::SpanSummary;

/// One gauge's windowed view: the last written value plus the extremes
/// observed during the window (a burst's peak queue depth survives
/// even if the last write landed after the burst drained).
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSummary {
    /// Gauge name.
    pub name: String,
    /// Most recently written value.
    pub last: f64,
    /// Smallest value written during the window.
    pub min: f64,
    /// Largest value written during the window.
    pub max: f64,
}

/// Everything that happened between two window marks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowReport {
    /// Monotonic window sequence number (1 = first window).
    pub seq: u64,
    /// Window length, nanoseconds.
    pub dur_ns: u64,
    /// Spans active during the window (count > 0), with quantiles
    /// computed over the window's samples only.
    pub spans: Vec<SpanSummary>,
    /// Counters that moved during the window, as deltas.
    pub counters: Vec<(String, u64)>,
    /// All gauges, with window min/max/last.
    pub gauges: Vec<GaugeSummary>,
}

impl WindowReport {
    /// Serializes the window as one JSON object (no trailing newline):
    /// `{"type":"window","seq":...,"dur_ns":...,"spans":[...],
    /// "counters":[...],"gauges":[...]}`. The same encoder serves the
    /// `--metrics-every` JSONL stream and the `METRICS` verb.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"window\",\"seq\":{},\"dur_ns\":{},\"spans\":[",
            self.seq, self.dur_ns
        ));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_string(&mut out, &s.name);
            out.push_str(&format!(
                ",\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                s.count, s.total_ns, s.min_ns, s.max_ns, s.p50_ns, s.p99_ns
            ));
        }
        out.push_str("],\"counters\":[");
        for (i, (name, delta)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_string(&mut out, name);
            out.push_str(&format!(",\"delta\":{delta}}}"));
        }
        out.push_str("],\"gauges\":[");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_string(&mut out, &g.name);
            out.push_str(",\"last\":");
            write_f64(&mut out, g.last);
            out.push_str(",\"min\":");
            write_f64(&mut out, g.min);
            out.push_str(",\"max\":");
            write_f64(&mut out, g.max);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}
