//! `icrowd obs report|diff` — the telemetry JSONL analyzer and the CI
//! latency-regression gate.
//!
//! Both subcommands read files written by `--telemetry <path>`; they
//! skip `window` records, so the `--metrics-out` stream is not an
//! input. Quantiles are **recomputed from the exported histogram
//! buckets** (`{"type":"hist",...}` lines, one per span) via
//! [`LogHistogram::from_parts`], not read off the pre-rendered span
//! summaries — so a diff compares the actual mergeable series two runs
//! recorded, at the same ≤1% error bound the live registry reports.
//!
//! `report` summarizes one file: spans (count/p50/p99), the BUSY rate
//! (`loadgen.busy` over client-side request attempts), requests per
//! submit (polls per answer, from the span counts), counters and
//! gauges. `--json` emits the same numbers machine-readable.
//!
//! `diff` compares two files span-by-span and emits a machine-readable
//! verdict: any span (≥ `--min-count` samples in both files, optionally
//! filtered by `--span <prefix>`) whose p99 grew more than
//! `--max-p99-regress` (default 0.25 = +25%) or whose p50 grew more
//! than `--max-p50-regress` (default 0.5) is a regression. With
//! `--assert` a failed verdict becomes a CLI error (nonzero exit) —
//! that is the CI gate — and so does a diff that compared no span.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use icrowd_obs::LogHistogram;
use serde_json::Value;

use crate::args::{Args, CliError};

/// One file's parsed telemetry.
#[derive(Default)]
struct Telemetry {
    /// Span histograms reconstructed from the `hist` lines, by name.
    hists: BTreeMap<String, LogHistogram>,
    counters: BTreeMap<String, u64>,
    /// Gauges as `(last, min, max)`.
    gauges: BTreeMap<String, (f64, f64, f64)>,
    /// Trace events seen (count only; the tree itself is for humans).
    traces: u64,
}

impl Telemetry {
    /// Loads a telemetry JSONL file, ignoring the record types it does
    /// not read (span summaries, events, windows) so the analyzer keeps
    /// working as the export grows.
    fn load(path: &str) -> Result<Telemetry, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError(format!("cannot read telemetry `{path}`: {e}")))?;
        let mut t = Telemetry::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v: Value = serde_json::from_str(line)
                .map_err(|e| CliError(format!("`{path}` line {}: {e}", i + 1)))?;
            let name = || {
                v.get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned()
            };
            let num = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
            let f = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            match v.get("type").and_then(Value::as_str) {
                Some("hist") => {
                    let buckets = v
                        .get("buckets")
                        .and_then(Value::as_array)
                        .map(|rows| {
                            rows.iter()
                                .filter_map(|row| {
                                    let pair = row.as_array()?;
                                    Some((pair.first()?.as_u64()? as u16, pair.get(1)?.as_u64()?))
                                })
                                .collect::<Vec<_>>()
                        })
                        .unwrap_or_default();
                    t.hists.insert(
                        name(),
                        LogHistogram::from_parts(num("min"), num("max"), num("sum"), buckets),
                    );
                }
                Some("counter") => {
                    t.counters.insert(name(), num("value"));
                }
                Some("gauge") => {
                    t.gauges.insert(name(), (f("value"), f("min"), f("max")));
                }
                Some("trace") => t.traces += 1,
                _ => {}
            }
        }
        Ok(t)
    }

    /// `(count, p50_ns, p99_ns)` of span `name`, from its histogram.
    fn quantiles(&self, name: &str) -> Option<(u64, u64, u64)> {
        let h = self.hists.get(name).filter(|h| !h.is_empty())?;
        Some((h.count(), h.percentile(0.50), h.percentile(0.99)))
    }

    /// Every span name with a histogram, in name order.
    fn span_names(&self) -> impl Iterator<Item = &String> {
        self.hists.keys()
    }

    /// BUSY back-pressure rate: `loadgen.busy` responses over all
    /// client-side request attempts (successful + retry series). `None`
    /// when the file has no client-side series at all.
    fn busy_rate(&self) -> Option<f64> {
        let attempts: u64 = [
            "loadgen.request",
            "loadgen.request.retry",
            "loadgen.submit",
            "loadgen.submit.retry",
        ]
        .iter()
        .filter_map(|n| self.quantiles(n).map(|(c, _, _)| c))
        .sum();
        if attempts == 0 {
            return None;
        }
        let busy = self.counters.get("loadgen.busy").copied().unwrap_or(0);
        Some(busy as f64 / attempts as f64)
    }

    /// `REQUEST_TASK`s per `SUBMIT_ANSWER`, from the span counts: the
    /// client's (`loadgen.request` / `loadgen.submit`) in a loadgen's
    /// file, the server's (`serve.request` / `serve.submit`) in a
    /// server's. Returns the ratio and the two spans it divides; `None`
    /// when the file has neither pair.
    fn requests_per_submit(&self) -> Option<(f64, &'static str, &'static str)> {
        [
            ("loadgen.request", "loadgen.submit"),
            ("serve.request", "serve.submit"),
        ]
        .into_iter()
        .find_map(|(request, submit)| {
            let (requests, _, _) = self.quantiles(request)?;
            let (submits, _, _) = self.quantiles(submit)?;
            Some((requests as f64 / submits as f64, request, submit))
        })
    }
}

/// Dispatches `icrowd obs <report|diff> ...`.
///
/// # Errors
/// Missing operands, unreadable files, and (under `--assert`) a failed
/// regression verdict.
pub fn obs_cmd(args: &Args) -> Result<String, CliError> {
    match args.positionals() {
        [] => Err(CliError(
            "obs requires a subcommand: `obs report <file>` or `obs diff <baseline> <current>`"
                .into(),
        )),
        [sub, rest @ ..] => match (sub.as_str(), rest) {
            ("report", [file]) => report(args, file),
            ("report", _) => Err(CliError("obs report takes exactly one file".into())),
            ("diff", [base, new]) => diff(args, base, new),
            ("diff", _) => Err(CliError(
                "obs diff takes exactly two files: <baseline> <current>".into(),
            )),
            (other, _) => Err(CliError(format!(
                "unknown obs subcommand `{other}` (try report or diff)"
            ))),
        },
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn report(args: &Args, path: &str) -> Result<String, CliError> {
    let t = Telemetry::load(path)?;
    if args.has_flag("json") {
        let spans: Vec<Value> = t
            .span_names()
            .filter_map(|n| {
                let (count, p50, p99) = t.quantiles(n)?;
                Some(serde_json::json!({
                    "name": n,
                    "count": count,
                    "p50_us": us(p50),
                    "p99_us": us(p99),
                }))
            })
            .collect();
        let counters: Vec<Value> = t
            .counters
            .iter()
            .map(|(n, v)| serde_json::json!({"name": n, "value": v}))
            .collect();
        let mut v = serde_json::json!({
            "file": path,
            "spans": spans,
            "counters": counters,
            "traces": t.traces,
        });
        if let Value::Object(o) = &mut v {
            if let Some(rate) = t.busy_rate() {
                o.push(("busy_rate".into(), serde_json::json!(rate)));
            }
            if let Some((ratio, _, _)) = t.requests_per_submit() {
                o.push(("requests_per_submit".into(), serde_json::json!(ratio)));
            }
        }
        return serde_json::to_string_pretty(&v)
            .map(|s| s + "\n")
            .map_err(|e| CliError(format!("cannot serialize report: {e}")));
    }

    let mut out = String::new();
    writeln!(out, "telemetry report: {path}").unwrap();
    writeln!(
        out,
        "{:<28} {:>9} {:>12} {:>12}",
        "span", "count", "p50_us", "p99_us"
    )
    .unwrap();
    for n in t.span_names() {
        let Some((count, p50, p99)) = t.quantiles(n) else {
            continue;
        };
        writeln!(
            out,
            "{n:<28} {count:>9} {:>12.1} {:>12.1}",
            us(p50),
            us(p99)
        )
        .unwrap();
    }
    if let Some(rate) = t.busy_rate() {
        writeln!(out, "busy rate: {:.4} of client request attempts", rate).unwrap();
    }
    if let Some((ratio, request, submit)) = t.requests_per_submit() {
        writeln!(
            out,
            "requests per submit: {ratio:.2} ({request} / {submit})"
        )
        .unwrap();
    }
    if !t.counters.is_empty() {
        writeln!(out, "{:<28} {:>12}", "counter", "value").unwrap();
        for (n, v) in &t.counters {
            writeln!(out, "{n:<28} {v:>12}").unwrap();
        }
    }
    if !t.gauges.is_empty() {
        writeln!(
            out,
            "{:<28} {:>12} {:>12} {:>12}",
            "gauge", "last", "min", "max"
        )
        .unwrap();
        for (n, (last, min, max)) in &t.gauges {
            writeln!(out, "{n:<28} {last:>12.3} {min:>12.3} {max:>12.3}").unwrap();
        }
    }
    if t.traces > 0 {
        writeln!(out, "trace spans: {}", t.traces).unwrap();
    }
    Ok(out)
}

fn diff(args: &Args, base_path: &str, new_path: &str) -> Result<String, CliError> {
    let base = Telemetry::load(base_path)?;
    let new = Telemetry::load(new_path)?;
    let max_p99 = args.get_parsed("max-p99-regress", 0.25f64)?;
    let max_p50 = args.get_parsed("max-p50-regress", 0.50f64)?;
    let min_count = args.get_parsed("min-count", 50u64)?;
    let prefix = args.get("span");

    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    for name in new.span_names() {
        if let Some(p) = prefix {
            if !name.starts_with(p) {
                continue;
            }
        }
        let (Some((bc, bp50, bp99)), Some((nc, np50, np99))) =
            (base.quantiles(name), new.quantiles(name))
        else {
            continue;
        };
        if bc < min_count || nc < min_count {
            continue;
        }
        // Relative growth; sub-microsecond baselines are floored so a
        // 100ns→300ns jitter on a trivial span cannot fail a build.
        let growth = |b: u64, n: u64| (n as f64 - b as f64) / (b.max(1_000) as f64);
        let (g50, g99) = (growth(bp50, np50), growth(bp99, np99));
        for (metric, b, n, g, cap) in [
            ("p50", bp50, np50, g50, max_p50),
            ("p99", bp99, np99, g99, max_p99),
        ] {
            if g > cap {
                regressions.push(serde_json::json!({
                    "span": name,
                    "metric": metric,
                    "baseline_us": us(b),
                    "current_us": us(n),
                    "regress": g,
                    "max_allowed": cap,
                }));
            }
        }
        rows.push((name.clone(), bc, nc, bp50, np50, g50, bp99, np99, g99));
    }

    // A gate that compared nothing cannot fail, so it must not pass.
    if rows.is_empty() && args.has_flag("assert") {
        let filter = prefix.map_or_else(
            || "no --span filter".to_owned(),
            |p| format!("--span `{p}`"),
        );
        return Err(CliError(format!(
            "obs diff --assert compared no span ({filter}, --min-count {min_count}): no span \
             the filter keeps has --min-count samples in both {base_path} and {new_path}"
        )));
    }
    let verdict = if regressions.is_empty() {
        "pass"
    } else {
        "fail"
    };
    let verdict_json = serde_json::to_string_pretty(&serde_json::json!({
        "verdict": verdict,
        "baseline": base_path,
        "current": new_path,
        "max_p50_regress": max_p50,
        "max_p99_regress": max_p99,
        "min_count": min_count,
        "spans_compared": rows.len(),
        "regressions": regressions,
    }))
    .map_err(|e| CliError(format!("cannot serialize verdict: {e}")))?;

    if args.has_flag("json") {
        if verdict == "fail" && args.has_flag("assert") {
            return Err(CliError(verdict_json));
        }
        return Ok(verdict_json + "\n");
    }

    let mut out = String::new();
    writeln!(out, "obs diff: {base_path} -> {new_path}").unwrap();
    writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "span", "p50_us", "p50'_us", "Δp50", "p99_us", "p99'_us", "Δp99"
    )
    .unwrap();
    for (name, _, _, bp50, np50, g50, bp99, np99, g99) in &rows {
        writeln!(
            out,
            "{name:<28} {:>10.1} {:>10.1} {:>+7.1}% {:>10.1} {:>10.1} {:>+7.1}%",
            us(*bp50),
            us(*np50),
            g50 * 100.0,
            us(*bp99),
            us(*np99),
            g99 * 100.0,
        )
        .unwrap();
    }
    writeln!(
        out,
        "verdict: {verdict} ({} spans compared, {} regressions)",
        rows.len(),
        regressions.len()
    )
    .unwrap();
    out.push_str(&verdict_json);
    out.push('\n');
    if verdict == "fail" && args.has_flag("assert") {
        return Err(CliError(out));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(str::to_owned)).unwrap()
    }

    fn write_telemetry(tag: &str, p50_target_ns: u64, samples: u64) -> String {
        icrowd_obs::reset();
        icrowd_obs::enable();
        for i in 0..samples {
            // A spread around the target so p50 ≈ target and p99 is
            // deterministically above it.
            icrowd_obs::record_span_ns("loadgen.request", p50_target_ns + i * 10);
            icrowd_obs::record_span_ns("serve.request", p50_target_ns / 2 + i * 10);
        }
        icrowd_obs::counter_add("loadgen.busy", samples / 10);
        icrowd_obs::disable();
        let path =
            std::env::temp_dir().join(format!("icrowd_obs_cmd_{tag}_{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap().to_owned();
        icrowd_obs::write_jsonl(&path).unwrap();
        icrowd_obs::reset();
        path
    }

    #[test]
    fn report_recomputes_quantiles_from_histograms() {
        let _g = crate::obs_test_guard();
        let path = write_telemetry("report", 100_000, 200);
        let out = obs_cmd(&args(&format!("obs report {path}"))).unwrap();
        assert!(out.contains("loadgen.request"), "{out}");
        assert!(out.contains("busy rate"), "{out}");

        let json = obs_cmd(&args(&format!("obs report {path} --json"))).unwrap();
        let v: Value = serde_json::from_str(&json).unwrap();
        let spans = v["spans"].as_array().unwrap();
        let req = spans
            .iter()
            .find(|s| s["name"] == "loadgen.request")
            .unwrap();
        assert_eq!(req["count"].as_u64(), Some(200));
        // Samples are 100_000..102_000 ns → p50 ≈ 101 µs within 1%.
        let p50 = req["p50_us"].as_f64().unwrap();
        assert!((p50 - 101.0).abs() <= 2.0, "p50 {p50}");
        // busy = 20 / (200 request attempts) = 0.1.
        let rate = v["busy_rate"].as_f64().unwrap();
        assert!((rate - 0.1).abs() < 1e-9, "rate {rate}");
        std::fs::remove_file(&path).ok();
    }

    /// Requests per submit divides the span counts: the client's pair
    /// when the file has it, the server's otherwise.
    #[test]
    fn report_derives_requests_per_submit_from_span_counts() {
        let _g = crate::obs_test_guard();
        let write = |tag: &str, spans: &[(&'static str, u64)]| {
            icrowd_obs::reset();
            icrowd_obs::enable();
            for &(name, count) in spans {
                for i in 0..count {
                    icrowd_obs::record_span_ns(name, 1_000 + i);
                }
            }
            icrowd_obs::disable();
            let path = std::env::temp_dir()
                .join(format!("icrowd_obs_cmd_{tag}_{}.jsonl", std::process::id()));
            let path = path.to_str().unwrap().to_owned();
            icrowd_obs::write_jsonl(&path).unwrap();
            icrowd_obs::reset();
            path
        };
        let server = write(
            "rps_server",
            &[("serve.request", 390), ("serve.submit", 10)],
        );
        let loadgen = write(
            "rps_loadgen",
            &[
                ("loadgen.request", 46),
                ("loadgen.submit", 20),
                ("serve.request", 7),
                ("serve.submit", 7),
            ],
        );
        let neither = write("rps_neither", &[("serve.request", 5)]);

        let out = obs_cmd(&args(&format!("obs report {server}"))).unwrap();
        assert!(
            out.contains("requests per submit: 39.00 (serve.request / serve.submit)"),
            "{out}"
        );
        let json = obs_cmd(&args(&format!("obs report {loadgen} --json"))).unwrap();
        let v: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["requests_per_submit"].as_f64(), Some(2.3), "{json}");
        let out = obs_cmd(&args(&format!("obs report {loadgen}"))).unwrap();
        assert!(out.contains("(loadgen.request / loadgen.submit)"), "{out}");
        let out = obs_cmd(&args(&format!("obs report {neither}"))).unwrap();
        assert!(!out.contains("requests per submit"), "{out}");
        let json = obs_cmd(&args(&format!("obs report {neither} --json"))).unwrap();
        assert!(!json.contains("requests_per_submit"), "{json}");
        for p in [server, loadgen, neither] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn diff_passes_like_runs_and_fails_regressions() {
        let _g = crate::obs_test_guard();
        let base = write_telemetry("diff_base", 100_000, 200);
        let same = write_telemetry("diff_same", 100_000, 200);
        let slow = write_telemetry("diff_slow", 200_000, 200);

        let out = obs_cmd(&args(&format!("obs diff {base} {same}"))).unwrap();
        assert!(out.contains("\"verdict\": \"pass\""), "{out}");

        // +100% p50/p99 against a 25%/50% budget: fail, and --assert
        // turns the fail into a CLI error.
        let out = obs_cmd(&args(&format!("obs diff {base} {slow}"))).unwrap();
        assert!(out.contains("\"verdict\": \"fail\""), "{out}");
        assert!(out.contains("loadgen.request"), "{out}");
        let err = obs_cmd(&args(&format!("obs diff {base} {slow} --assert"))).unwrap_err();
        assert!(err.0.contains("fail"), "{}", err.0);

        // A generous budget lets the same pair pass.
        let out = obs_cmd(&args(&format!(
            "obs diff {base} {slow} --max-p99-regress 5 --max-p50-regress 5"
        )))
        .unwrap();
        assert!(out.contains("\"verdict\": \"pass\""), "{out}");

        // --span filters the comparison; --min-count excludes thin data.
        let out = obs_cmd(&args(&format!("obs diff {base} {slow} --span serve."))).unwrap();
        assert!(!out.contains("loadgen.request"), "{out}");
        let out = obs_cmd(&args(&format!("obs diff {base} {slow} --min-count 1000"))).unwrap();
        assert!(out.contains("0 spans compared"), "{out}");

        for p in [base, same, slow] {
            std::fs::remove_file(&p).ok();
        }
    }

    /// Under `--assert`, a filter or count threshold that leaves no span
    /// to compare fails the gate, naming both.
    #[test]
    fn diff_assert_fails_when_nothing_was_compared() {
        let _g = crate::obs_test_guard();
        let base = write_telemetry("empty_base", 100_000, 11);
        let new = write_telemetry("empty_new", 100_000, 11);
        for (flags, named) in [
            ("--span kernel.index_build", "`kernel.index_build`"),
            ("", "--min-count 50"),
        ] {
            let err =
                obs_cmd(&args(&format!("obs diff {base} {new} {flags} --assert"))).unwrap_err();
            assert!(err.0.contains("compared no span"), "{}", err.0);
            assert!(err.0.contains(named), "{}", err.0);
        }
        let out = obs_cmd(&args(&format!(
            "obs diff {base} {new} --min-count 11 --assert"
        )))
        .unwrap();
        assert!(out.contains("2 spans compared"), "{out}");
        for p in [base, new] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn obs_usage_errors_are_user_facing() {
        assert!(obs_cmd(&args("obs")).unwrap_err().0.contains("report"));
        assert!(obs_cmd(&args("obs report"))
            .unwrap_err()
            .0
            .contains("one file"));
        assert!(obs_cmd(&args("obs diff one.jsonl"))
            .unwrap_err()
            .0
            .contains("two files"));
        assert!(obs_cmd(&args("obs explode x"))
            .unwrap_err()
            .0
            .contains("unknown obs subcommand"));
        assert!(obs_cmd(&args("obs report /nonexistent/telemetry.jsonl"))
            .unwrap_err()
            .0
            .contains("cannot read"));
    }
}
