//! The iCrowd benchmark: two served workloads, end-to-end metrics from
//! an untraced run and a per-layer breakdown from a traced one.
//!
//! ```text
//! perfbench --workload <serve_journal|serve_nojournal>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it through `run.sh`, which builds it and confines it to one CPU.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it stamp the
//! environment and list every metric with its unit and sample count.
//! A run whose correctness gate fails prints no result and exits 1. See
//! README.md for the workloads and the layer → metric map.

mod calib;
mod client;
mod env;
mod journal_io;
mod report;
mod served;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use served::ServedWorkload;

/// The end-to-end metrics, printed by an untraced run.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "answers_per_s",
    "request_p50_us",
    "request_p99_us",
    "submit_p50_us",
    "submit_p99_us",
    "peak_rss_mb",
];

/// The per-layer metrics, printed by a traced run.
const PER_LAYER: [&str; 30] = [
    "text.similarity_s",
    "graph.graph_build_s",
    "graph.ppr_index_s",
    "assign.qualification_s",
    "icrowd.server_build_s",
    "icrowd.request_task_p50_us",
    "icrowd.request_task_p99_us",
    "icrowd.submit_answer_p50_us",
    "icrowd.submit_answer_p99_us",
    "icrowd.declined_ratio",
    "platform.driver_poll_self_p50_us",
    "platform.driver_submit_self_p50_us",
    "platform.polls_per_answer",
    "platform.journal_write_p50_us",
    "platform.journal_bytes_per_answer",
    "platform.journal_fsync_p50_us",
    "platform.journal_fsyncs_per_answer",
    "platform.journal_compactions",
    "platform.journal_compact_ms",
    "platform.journal_replay_s",
    "server.protocol_parse_p50_us",
    "server.protocol_encode_p50_us",
    "server.engine_request_p50_us",
    "server.engine_request_p99_us",
    "server.engine_submit_p50_us",
    "server.engine_submit_p99_us",
    "server.transport_request_p50_us",
    "server.transport_submit_p50_us",
    "server.connections_per_answer",
    "trace.overhead_frac",
];

const SERVE_JOURNAL: ServedWorkload = ServedWorkload {
    name: "serve_journal",
    dataset: "item_compare",
    journal: true,
    campaign_s: 1.5,
};

/// The same campaigns with the journal off.
const SERVE_NOJOURNAL: ServedWorkload = ServedWorkload {
    name: "serve_nojournal",
    dataset: "item_compare",
    journal: false,
    campaign_s: 1.45,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // Journals, and the trace of a traced run, go here: inside the
    // checkout the benchmark runs from.
    let work = PathBuf::from(".perfbench-work");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let stamp = env::Stamp::read(&work, Path::new("."));
    let seconds = args.seconds as f64;
    let w = match args.workload.as_str() {
        "serve_journal" => &SERVE_JOURNAL,
        "serve_nojournal" => &SERVE_NOJOURNAL,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let (report, trace) = if args.trace {
        let (r, t) = served::run_traced(w, args.seed, seconds, &work)?;
        (r, Some(t))
    } else {
        (served::run(w, args.seed, seconds, &work)?, None)
    };
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let mut want = expected.to_vec();
    names.sort_unstable();
    want.sort_unstable();
    if names != want {
        return Err(format!(
            "metric set mismatch: printed {names:?}, declared {want:?}"
        ));
    }
    if let Some(t) = trace {
        let path = work.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        t.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# trace {} spans written to {}", t.0.len(), path.display());
    }
    println!(
        "{}",
        stamp.line(&args.workload, args.seed, args.seconds, args.trace)
    );
    print!("{}", report.table());
    println!("{}", report.json());
    Ok(())
}
