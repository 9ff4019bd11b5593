//! Figure 10 — scalability of task assignment with simulation.
//!
//! The paper: "Initially the entire microtask set was empty. We inserted
//! 0.2 million microtasks at each time and ran iCrowd to evaluate the
//! efficiency", with the maximal neighbor count per microtask in
//! {20, 40, 60} (neighbors drawn at random). We measure, per task-set
//! size and neighbor cap:
//!
//! * offline index construction (graph + linearity index + qualification
//!   selection), and
//! * online assignment: total elapsed time of 1,000 `request_task`
//!   calls from a 20-worker pool, with the candidate pool capped — the
//!   paper's "effective index structures".
//!
//! The paper reports sub-linear growth of assignment time in `|T|`; the
//! capped candidate pool reproduces that (per-request work is bounded by
//! evidence neighborhoods, not `|T|`).
//!
//! Sizes default to the paper's 0.2M..1.0M; set `FIG10_SCALE=small` for
//! a quick 20k..100k pass. `FIG10_THREADS` sets the offline-build worker
//! thread count (`0`/unset = all hardware threads; the built index is
//! bit-identical regardless). `FIG10_JSON=path` additionally appends one
//! JSON object per configuration to `path` for machine consumption. Each
//! configuration reports its process's peak resident set (`VmHWM`, read
//! once when the run finishes) as `peak_rss_mb`.
//! `FIG10_TELEMETRY=path` arms the `icrowd-obs` sink per configuration:
//! each child writes its span/counter telemetry (index.build, ppr.solve,
//! assign.loop, estimator.refresh, ...) to `path.<n>.<cap>.jsonl`; in
//! direct child mode (`fig10 <n> <cap>`) the value is used verbatim. The
//! child then reads its export back and exits nonzero unless those four
//! spans carry their full summaries and the index was built exactly once.

use std::io::Write as _;
use std::time::Instant;

use icrowd::core::{Answer, ICrowdConfig, PprConfig, Tick, WarmupConfig};
use icrowd::platform::ExternalQuestionServer;
use icrowd::{AssignStrategy, ICrowdBuilder};
use icrowd_graph::GraphBuilder;
use icrowd_sim::datasets::{scalability_edges, scalability_tasks};

fn main() {
    // Child mode: run one (n, cap) configuration and print its row. The
    // parent spawns a child per configuration so allocator high-water
    // from one million-task graph never accumulates into the next.
    let args: Vec<String> = std::env::args().skip(1).collect();
    match icrowd_bench::parse_child_args(&args) {
        Ok(Some((n, cap))) => {
            run_one(n, cap);
            return;
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }

    let small = std::env::var("FIG10_SCALE").is_ok_and(|v| v == "small");
    let sizes: Vec<usize> = if small {
        vec![20_000, 40_000, 60_000, 80_000, 100_000]
    } else {
        vec![200_000, 400_000, 600_000, 800_000, 1_000_000]
    };
    let caps = [20usize, 40, 60];

    // Fresh JSON output per run; children append their own rows.
    if let Ok(path) = std::env::var("FIG10_JSON") {
        let _ = std::fs::remove_file(path);
    }

    println!("=== Figure 10: evaluating scalability with simulation ===");
    println!("offline build threads: {}", build_threads_label());
    println!(
        "{:>12} {:>6} {:>18} {:>22} {:>16}",
        "#microtasks", "cap", "index build (s)", "1000 assignments (ms)", "per request (us)"
    );
    let me = std::env::current_exe().expect("own path");
    let telemetry_base = std::env::var("FIG10_TELEMETRY").ok();
    for &cap in &caps {
        for &n in &sizes {
            let mut child = std::process::Command::new(&me);
            child.arg(n.to_string()).arg(cap.to_string());
            // One telemetry file per configuration: the children run
            // sequentially but must not clobber each other's export.
            if let Some(base) = &telemetry_base {
                child.env("FIG10_TELEMETRY", format!("{base}.{n}.{cap}.jsonl"));
            }
            let status = child.status().expect("spawn child");
            if !status.success() {
                println!("{n:>12} {cap:>6}   (child failed: {status})");
            }
        }
    }
}

/// The `FIG10_THREADS` knob: worker threads for graph + index build.
/// `0` or unset defers to hardware parallelism.
fn build_threads() -> usize {
    std::env::var("FIG10_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn build_threads_label() -> String {
    match build_threads() {
        0 => format!("auto ({} hardware)", icrowd_graph::resolve_threads(0)),
        n => n.to_string(),
    }
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`) in
/// MiB; 0 where the file is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn run_one(n: usize, cap: usize) {
    let telemetry = std::env::var("FIG10_TELEMETRY").ok();
    // Telemetry is always armed: the per-request latency distribution
    // (p50/p99 of the assign.loop span) comes from the obs histograms,
    // and the CI fig10 job gates the median p99 of three runs' rows.
    icrowd_obs::reset();
    icrowd_obs::enable();
    let tasks = scalability_tasks(n);
    let edges = scalability_edges(n, cap, 42);
    let graph = GraphBuilder::new(0.5)
        .with_max_neighbors(cap)
        .build_from_edges(n, edges);

    let threads = build_threads();
    let config = ICrowdConfig {
        warmup: WarmupConfig {
            num_qualification: 10,
            ..Default::default()
        },
        ppr: PprConfig {
            index_epsilon: 1e-3,
            max_iterations: 20,
            tolerance: 1e-6,
            threads,
        },
        ..Default::default()
    };
    let t0 = Instant::now();
    let mut server = ICrowdBuilder::new(tasks)
        .config(config)
        .strategy(AssignStrategy::Adapt)
        .graph(graph)
        .candidate_limit(2_048)
        .build();
    let build_s = t0.elapsed().as_secs_f64();

    // 20 workers churn; measure request_task time only.
    let mut assign_time = 0.0f64;
    let mut requests = 0usize;
    let mut tick = 0u64;
    'outer: loop {
        for w in 0..20 {
            let name = format!("W{w}");
            let t1 = Instant::now();
            let task = server.request_task(&name, Tick(tick));
            assign_time += t1.elapsed().as_secs_f64();
            requests += 1;
            if let Some(t) = task {
                server.submit_answer(&name, t, Answer::YES, Tick(tick));
            }
            tick += 1;
            if requests >= 1_000 {
                break 'outer;
            }
        }
    }
    // The process's peak resident set over build and assignment.
    let peak_rss_mb = peak_rss_mb();
    // Per-request latency distribution from the assign.loop span
    // (nanosecond histogram recorded inside request_task).
    let (p50_us, p99_us) = icrowd_obs::span_histogram("assign.loop")
        .filter(|h| h.count() > 0)
        .map_or((0.0, 0.0), |h| {
            (
                h.percentile(0.50) as f64 / 1e3,
                h.percentile(0.99) as f64 / 1e3,
            )
        });
    println!(
        "{:>12} {:>6} {:>18.2} {:>22.1} {:>16.1} (p50 {:.1} us, p99 {:.1} us, peak RSS {:.0} MiB)",
        n,
        cap,
        build_s,
        assign_time * 1e3,
        assign_time * 1e6 / requests as f64,
        p50_us,
        p99_us,
        peak_rss_mb
    );
    if let Ok(path) = std::env::var("FIG10_JSON") {
        let row = serde_json::json!({
            "tasks": n,
            "cap": cap,
            "threads": threads,
            "effective_threads": icrowd_graph::resolve_threads(threads),
            "index_build_s": build_s,
            "assign_1000_ms": assign_time * 1e3,
            "per_request_us": assign_time * 1e6 / requests as f64,
            "request_p50_us": p50_us,
            "request_p99_us": p99_us,
            "peak_rss_mb": peak_rss_mb,
        });
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(f, "{}", serde_json::to_string(&row).expect("row json"));
        }
    }
    if let Some(path) = telemetry {
        icrowd_obs::gauge_set("fig10.tasks", n as f64);
        icrowd_obs::gauge_set("fig10.cap", cap as f64);
        icrowd_obs::disable();
        let checked = icrowd_obs::write_jsonl(&path)
            .map_err(|e| format!("cannot write telemetry to {path}: {e}"))
            .and_then(|()| check_telemetry(&path));
        match checked {
            Ok(()) => eprintln!("telemetry written to {path}, spans OK"),
            Err(e) => {
                eprintln!("telemetry check: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Reads back a child's telemetry export and requires spans
/// `index.build`, `ppr.solve`, `assign.loop` and `estimator.refresh`,
/// each with its full summary, and exactly one index build: qualification
/// selection and the estimator share one linearity index.
fn check_telemetry(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read telemetry export {path}: {e}"))?;
    let mut spans = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v: serde_json::Value = serde_json::from_str(line)
            .map_err(|e| format!("unparseable telemetry line ({e}): {line}"))?;
        if v["type"] == "span" {
            spans.push(v);
        }
    }
    for name in [
        "index.build",
        "ppr.solve",
        "assign.loop",
        "estimator.refresh",
    ] {
        let span = spans
            .iter()
            .find(|s| s["name"] == name)
            .ok_or_else(|| format!("span {name} missing from {path}"))?;
        for field in ["count", "total_ns", "min_ns", "max_ns", "p50_ns", "p99_ns"] {
            if span.get(field).is_none() {
                return Err(format!("span {name} missing {field}"));
            }
        }
        if name == "index.build" && span["count"].as_u64() != Some(1) {
            return Err(format!("index.build count {}, expected 1", span["count"]));
        }
    }
    Ok(())
}
