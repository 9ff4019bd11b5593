//! In-memory spans for the traced run, written out as JSONL when the
//! run ends. All timestamps share one process-wide epoch, so spans
//! recorded on the server's threads (journal I/O) line up with the
//! client's root spans.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    ns_at(Instant::now())
}

/// `at` in nanoseconds since the process epoch.
pub fn ns_at(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// One timed call. `op` is the index of the client op the span belongs
/// to (0 when it is not tied to one); `parent` names the enclosing span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of one traced run.
#[derive(Debug, Default)]
pub struct Trace(pub Vec<Span>);

impl Trace {
    pub fn push(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.0.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns,
        });
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for s in &self.0 {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.parent, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
