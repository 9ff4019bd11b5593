//! The CLI subcommands.

use std::fmt::Write as _;

use icrowd::AssignStrategy;
use icrowd_core::config::ICrowdConfig;
use icrowd_graph::{GraphBuilder, LinearityIndex};
use icrowd_serve::{
    run_loadgen, CampaignEngine, ClientFaultConfig, DurabilityPolicy, LoadgenConfig, ServeConfig,
};
use icrowd_sim::campaign::{
    labels_lines, run_campaign, Approach, CampaignConfig, CampaignResult, MetricChoice,
    QualStrategy,
};
use icrowd_sim::datasets::{by_name, Dataset};

use crate::args::{Args, CliError};

/// Dispatches a parsed command line, returning the text to print.
/// Progress lines emitted mid-command (the `serve` listening banner)
/// are dropped; use [`run_with`] to receive them.
///
/// # Errors
/// Unknown subcommands, datasets, approaches or bad option values.
pub fn run(args: &Args) -> Result<String, CliError> {
    run_with(args, &mut |_| {})
}

/// Like [`run`], but streams progress lines through `notify` as they
/// happen. Long-running commands use this for output that must appear
/// before they return — `serve` announces its bound address so scripts
/// can discover an ephemeral port before the command blocks in the
/// drain. The binary prints and flushes each line; the library itself
/// never writes to stdout.
///
/// # Errors
/// Unknown subcommands, datasets, approaches or bad option values.
pub fn run_with(args: &Args, notify: &mut dyn FnMut(&str)) -> Result<String, CliError> {
    // `obs` takes positional operands (subcommand + files); every other
    // grammar is purely `--key value`.
    if args.command != "obs" {
        args.expect_no_positionals()?;
    }
    match args.command.as_str() {
        "help" => Ok(help_text()),
        "datasets" => datasets_cmd(),
        "campaign" => campaign_cmd(args),
        "compare" => compare_cmd(args),
        "graph" => graph_cmd(args),
        "quals" => quals_cmd(args),
        "serve" => serve_cmd(args, notify),
        "loadgen" => loadgen_cmd(args),
        "obs" => crate::obs_cmd::obs_cmd(args),
        other => Err(CliError(format!(
            "unknown subcommand `{other}`; try `icrowd help`"
        ))),
    }
}

fn help_text() -> String {
    "icrowd — adaptive crowdsourcing campaigns (SIGMOD 2015 reproduction)

USAGE:
    icrowd datasets
    icrowd campaign --dataset <name> [--approach <a>] [--seed N] [--k N] [--faults <spec>] [--json] [--telemetry <path>]
    icrowd compare  --dataset <name> [--seed N] [--faults <spec>] [--telemetry <path>]
    icrowd graph    --dataset <name> [--metric <m>] [--threshold X]
    icrowd quals    --dataset <name> [--q N] [--strategy inf|random]
    icrowd serve    --dataset <name> [--approach <a>] [--addr H:P] [--max-conns N]
                    [--seed N] [--faults <spec>] [--labels-out <path>]
                    [--journal <path> | --recover <path>] [--fsync N]
                    [--snapshot-every N] [--durability fail-stop|degrade|retry]
                    [--idle-timeout-ms T] [--telemetry <path>]
                    [--metrics-every MS] [--metrics-out <path>]
    icrowd loadgen  (--addr H:P | --addr-file <path>) [--workers N] [--think-ms T]
                    [--give-up-ms T] [--io-timeout-ms T]
                    [--faults dup=R,late=R:MS,seed=N]
                    [--labels-out <path>] [--no-shutdown] [--telemetry <path>]
    icrowd obs report <telemetry.jsonl> [--json]
    icrowd obs diff <baseline.jsonl> <current.jsonl> [--assert] [--json]
                    [--max-p99-regress R] [--max-p50-regress R]
                    [--min-count N] [--span <prefix>]

DATASETS:    yahooqa, item_compare, table1, quiz
APPROACHES:  icrowd (Adapt), best-effort, qf-only, random-mv, random-em, avgacc-pv
METRICS:     jaccard, cos-tfidf, cos-topic, edit-distance

FAULTS:      --faults injects marketplace faults, e.g.
             drop=0.2,stall=0.05,dup=0.1,late=0.1:12,churn=50:0.3,seed=7
             (drop/dup/stall are rates; late takes an optional :maxticks;
             churn=TICK:FRACTION may repeat). Runs stay deterministic
             under a fixed seed; rejected/duplicate answers are counted
             and never double-paid.

TELEMETRY:   --telemetry <path> records span timings (index.build, ppr.solve,
             assign.loop, estimator.refresh, ...), counters and marketplace
             events during the run and writes them to <path> as JSON lines.
             Every p50/p99 comes from deterministic log-bucketed histograms
             (≤1% relative error) exported alongside the span summaries, so
             `icrowd obs report` and `icrowd obs diff` can recompute and
             compare quantiles offline; `obs diff --assert` exits nonzero on
             regression (the CI latency gate). A telemetry-armed `serve` +
             `loadgen` pair also records a causally linked trace-span tree
             per request (loadgen stamps trace ids; serve propagates them
             engine -> driver -> journal).

LIVE METRICS: `icrowd serve --metrics-every MS [--metrics-out <path>]` emits
             a windowed snapshot (counter deltas, windowed histograms, gauge
             min/max/last) as one JSON line per window. The METRICS protocol
             verb scrapes the same windows on demand over the wire.

SERVING:     `icrowd serve` hosts one campaign behind a line-delimited JSON
             TCP protocol (HELLO/REQUEST_TASK/SUBMIT_ANSWER/STATUS/RESULTS/
             SHUTDOWN) and drains gracefully on SHUTDOWN. Each connection
             gets its own thread, up to --max-conns (default 64) at once;
             one more is answered BUSY and closed. `icrowd loadgen`
             drives it with N concurrent simulated workers and reports
             throughput + p50/p99 latency. At the same seed, the served
             campaign's consensus labels are byte-identical to the
             in-process `icrowd campaign` run (compare via --labels-out).

DURABILITY:  --journal <path> appends every accepted state transition to a
             crash-consistent write-ahead journal (CRC32-framed records;
             --fsync N batches fsyncs, 1 = every record, 0 = never;
             --snapshot-every N appends a verification snapshot every N
             accepted answers; the file is append-only and every snapshot
             stays in it). --journal refuses a non-empty file rather than
             truncate it. After a crash, --recover <path> replays
             the journal through a fresh campaign, verifies snapshots and
             the accounting conservation laws, truncates any torn tail,
             and resumes serving — consensus stays byte-identical to an
             uninterrupted run. `icrowd loadgen --addr-file` re-reads the
             server address before every connection, so clients follow a
             restarted server to its new port and re-submit idempotently.

             --durability picks what a journal disk fault does:
             fail-stop (default) refuses further mutations, drains, and
             exits nonzero; degrade keeps serving but advertises the loss
             (STATUS journal health, a `degraded` flag on every response,
             journal.detached gauge); retry re-opens and re-appends with
             bounded backoff, escalating to degrade when the budget is
             exhausted. The on-disk journal always remains a valid
             replayable prefix; silent detachment no longer exists.
"
    .to_owned()
}

fn dataset_by_name(name: &str, seed: u64) -> Result<Dataset, CliError> {
    by_name(name, seed).ok_or_else(|| {
        CliError(format!(
            "unknown dataset `{name}` (try: yahooqa, item_compare, table1, quiz)"
        ))
    })
}

/// Writes consensus labels to `--labels-out` when requested.
fn write_labels(args: &Args, labels: &str) -> Result<(), CliError> {
    let Some(path) = args.get("labels-out") else {
        return Ok(());
    };
    std::fs::write(path, labels)
        .map_err(|e| CliError(format!("cannot write labels to `{path}`: {e}")))
}

fn approach_by_name(name: &str) -> Result<Approach, CliError> {
    match name {
        "icrowd" | "adapt" => Ok(Approach::ICrowd(AssignStrategy::Adapt)),
        "best-effort" | "besteffort" => Ok(Approach::ICrowd(AssignStrategy::BestEffort)),
        "qf-only" | "qfonly" => Ok(Approach::ICrowd(AssignStrategy::QfOnly)),
        "random-mv" | "randommv" => Ok(Approach::RandomMV),
        "random-em" | "randomem" => Ok(Approach::RandomEM),
        "avgacc-pv" | "avgaccpv" => Ok(Approach::AvgAccPV),
        other => Err(CliError(format!("unknown approach `{other}`"))),
    }
}

fn metric_by_name(name: &str) -> Result<MetricChoice, CliError> {
    match name {
        "jaccard" => Ok(MetricChoice::Jaccard),
        "cos-tfidf" | "tfidf" => Ok(MetricChoice::CosTfIdf),
        "cos-topic" | "topic" => Ok(MetricChoice::CosTopic { num_topics: 8 }),
        "edit-distance" | "edit" => Ok(MetricChoice::EditDistance),
        other => Err(CliError(format!("unknown metric `{other}`"))),
    }
}

/// Default metric per dataset: short product-ish texts work better with
/// lexical metrics than topic models.
fn default_metric(dataset: &str) -> &'static str {
    match dataset {
        "table1" => "jaccard",
        _ => "cos-topic",
    }
}

fn campaign_config(args: &Args, dataset: &str) -> Result<CampaignConfig, CliError> {
    let seed = args.get_parsed("seed", 42u64)?;
    let k = args.get_parsed("k", 3usize)?;
    let threshold = args.get_parsed("threshold", 0.8f64)?;
    let q = args.get_parsed("q", 10usize)?;
    let metric = metric_by_name(args.get_or("metric", default_metric(dataset)))?;
    let qual = match args.get_or("strategy", "inf") {
        "inf" | "influence" => QualStrategy::Influence,
        "random" => QualStrategy::Random,
        other => {
            return Err(CliError(format!(
                "unknown qualification strategy `{other}`"
            )))
        }
    };
    let mut icrowd = ICrowdConfig {
        assignment_size: k,
        similarity_threshold: threshold,
        ..Default::default()
    };
    icrowd.warmup.num_qualification = q;
    icrowd
        .validate()
        .map_err(|e| CliError(format!("invalid configuration: {e}")))?;
    let faults = args
        .get("faults")
        .map(|spec| {
            icrowd::platform::FaultConfig::parse(spec)
                .map_err(|e| CliError(format!("invalid --faults spec: {e}")))
        })
        .transpose()?;
    Ok(CampaignConfig {
        seed,
        icrowd,
        metric,
        qual,
        faults,
        ..Default::default()
    })
}

/// Arms the telemetry sink when `--telemetry <path>` is present,
/// returning the export path. The registry is cleared first so the
/// export covers exactly this invocation.
fn telemetry_begin(args: &Args) -> Option<&str> {
    let path = args.get("telemetry");
    if path.is_some() {
        icrowd_obs::reset();
        icrowd_obs::enable();
    }
    path
}

/// Writes the JSONL export (if armed) and, when `out` is given (i.e.
/// the command prints human-readable text, not JSON), appends the
/// summary table to it.
fn telemetry_end(path: Option<&str>, out: Option<&mut String>) -> Result<(), CliError> {
    let Some(path) = path else {
        return Ok(());
    };
    icrowd_obs::disable();
    icrowd_obs::write_jsonl(path)
        .map_err(|e| CliError(format!("cannot write telemetry to `{path}`: {e}")))?;
    if let Some(out) = out {
        out.push('\n');
        out.push_str(&icrowd_obs::summary_table());
        writeln!(out, "telemetry written to {path}").unwrap();
    }
    Ok(())
}

fn datasets_cmd() -> Result<String, CliError> {
    let mut out = String::new();
    writeln!(
        out,
        "{:<14} {:>8} {:>8} {:>8}",
        "dataset", "tasks", "domains", "workers"
    )
    .unwrap();
    for name in ["yahooqa", "item_compare", "table1", "quiz"] {
        let ds = dataset_by_name(name, 42)?;
        let (t, d, w) = ds.statistics();
        writeln!(out, "{name:<14} {t:>8} {d:>8} {w:>8}").unwrap();
    }
    Ok(out)
}

fn campaign_cmd(args: &Args) -> Result<String, CliError> {
    let name = args
        .get("dataset")
        .ok_or_else(|| CliError("campaign requires --dataset".into()))?;
    let config = campaign_config(args, name)?;
    let ds = dataset_by_name(name, config.seed)?;
    let approach = approach_by_name(args.get_or("approach", "icrowd"))?;
    let telemetry = telemetry_begin(args);
    let r = run_campaign(&ds, approach, &config);
    write_labels(args, &labels_lines(&r.labels))?;

    if args.has_flag("json") {
        telemetry_end(telemetry, None)?;
        let per_domain: Vec<serde_json::Value> = r
            .per_domain
            .iter()
            .map(|d| {
                serde_json::json!({
                    "domain": d.domain,
                    "accuracy": d.accuracy(),
                    "correct": d.correct,
                    "total": d.total,
                })
            })
            .collect();
        let mut v = serde_json::json!({
            "dataset": r.dataset,
            "approach": r.approach,
            "overall_accuracy": r.overall,
            "per_domain": per_domain,
            "answers": r.answers,
            "spend_cents": r.spend_cents,
            "gold_tasks": r.gold.len(),
            "elapsed_ms": r.elapsed_ms,
        });
        // Fault-free output stays byte-identical to the pre-fault CLI;
        // the extra accounting appears only when faults are requested.
        if config.faults.is_some() {
            let a = r.accounting;
            let f = r.fault_stats;
            if let serde_json::Value::Object(o) = &mut v {
                o.push(("completed".into(), serde_json::json!(r.completed)));
                o.push((
                    "accounting".into(),
                    serde_json::json!({
                        "submitted": a.answers_submitted,
                        "accepted": a.answers_accepted,
                        "rejected": a.answers_rejected,
                        "dropped": a.answers_dropped,
                        "paid": a.answers_paid,
                        "abandoned": a.answers_abandoned,
                    }),
                ));
                o.push((
                    "faults".into(),
                    serde_json::json!({
                        "drops": f.drops,
                        "dups": f.dups,
                        "lates": f.lates,
                        "stalls": f.stalls,
                        "churned": f.churned,
                    }),
                ));
            }
        }
        return serde_json::to_string_pretty(&v)
            .map(|s| s + "\n")
            .map_err(|e| CliError(format!("cannot serialize result: {e}")));
    }

    let mut out = String::new();
    writeln!(
        out,
        "{} on {} (seed {})",
        r.approach, r.dataset, config.seed
    )
    .unwrap();
    writeln!(out, "overall accuracy: {:.3}", r.overall).unwrap();
    for d in &r.per_domain {
        writeln!(
            out,
            "  {:<16} {:.3} ({}/{})",
            d.domain,
            d.accuracy(),
            d.correct,
            d.total
        )
        .unwrap();
    }
    writeln!(
        out,
        "answers: {}   spend: {} cents",
        r.answers, r.spend_cents
    )
    .unwrap();
    if config.faults.is_some() {
        let f = r.fault_stats;
        let a = r.accounting;
        writeln!(
            out,
            "faults: drop {} dup {} late {} stall {} churn {}",
            f.drops, f.dups, f.lates, f.stalls, f.churned
        )
        .unwrap();
        writeln!(
            out,
            "answers submitted: {}   accepted: {}   rejected: {}   completed: {}",
            a.answers_submitted, a.answers_accepted, a.answers_rejected, r.completed
        )
        .unwrap();
    }
    telemetry_end(telemetry, Some(&mut out))?;
    Ok(out)
}

fn compare_cmd(args: &Args) -> Result<String, CliError> {
    let name = args
        .get("dataset")
        .ok_or_else(|| CliError("compare requires --dataset".into()))?;
    let config = campaign_config(args, name)?;
    let ds = dataset_by_name(name, config.seed)?;
    let telemetry = telemetry_begin(args);
    let faulty = config.faults.is_some();
    let mut out = String::new();
    if faulty {
        writeln!(
            out,
            "{:<12} {:>9} {:>9} {:>8} {:>9} {:>6}",
            "approach", "overall", "answers", "cents", "rejected", "done"
        )
        .unwrap();
    } else {
        writeln!(
            out,
            "{:<12} {:>9} {:>9} {:>8}",
            "approach", "overall", "answers", "cents"
        )
        .unwrap();
    }
    for approach in [
        Approach::RandomMV,
        Approach::RandomEM,
        Approach::AvgAccPV,
        Approach::ICrowd(AssignStrategy::Adapt),
    ] {
        let r = run_campaign(&ds, approach, &config);
        if faulty {
            writeln!(
                out,
                "{:<12} {:>9.3} {:>9} {:>8} {:>9} {:>6}",
                r.approach,
                r.overall,
                r.answers,
                r.spend_cents,
                r.accounting.answers_rejected,
                if r.completed { "yes" } else { "no" }
            )
            .unwrap();
        } else {
            writeln!(
                out,
                "{:<12} {:>9.3} {:>9} {:>8}",
                r.approach, r.overall, r.answers, r.spend_cents
            )
            .unwrap();
        }
    }
    telemetry_end(telemetry, Some(&mut out))?;
    Ok(out)
}

fn graph_cmd(args: &Args) -> Result<String, CliError> {
    let name = args
        .get("dataset")
        .ok_or_else(|| CliError("graph requires --dataset".into()))?;
    let seed = args.get_parsed("seed", 42u64)?;
    let threshold = args.get_parsed("threshold", 0.5f64)?;
    let ds = dataset_by_name(name, seed)?;
    let metric = metric_by_name(args.get_or("metric", default_metric(name)))?;
    let built = metric.build(&ds.tasks, seed);
    let graph = GraphBuilder::new(threshold).build(&ds.tasks, &built);
    let mut out = String::new();
    writeln!(
        out,
        "{} graph over {}: {} nodes, {} edges, {} isolated (threshold {threshold})",
        metric.name(),
        ds.name,
        graph.num_tasks(),
        graph.num_edges(),
        graph.isolated_tasks().count()
    )
    .unwrap();
    let comps = graph.components();
    writeln!(out, "components: {}", comps.len()).unwrap();
    if graph.num_tasks() <= 20 {
        for (a, b, s) in graph.edges() {
            writeln!(out, "  {a} -- {b}  {s:.3}").unwrap();
        }
    }
    Ok(out)
}

fn quals_cmd(args: &Args) -> Result<String, CliError> {
    let name = args
        .get("dataset")
        .ok_or_else(|| CliError("quals requires --dataset".into()))?;
    let config = campaign_config(args, name)?;
    let ds = dataset_by_name(name, config.seed)?;
    let graph = icrowd_sim::campaign::build_graph(&ds, &config);
    let index = (config.qual == QualStrategy::Influence)
        .then(|| LinearityIndex::build(&graph, config.icrowd.alpha, &config.icrowd.ppr));
    let gold = icrowd_sim::campaign::select_gold(&ds, index.as_ref(), &config);
    let mut out = String::new();
    writeln!(
        out,
        "{} qualification tasks for {} ({}):",
        gold.len(),
        ds.name,
        config.qual.name()
    )
    .unwrap();
    for &g in &gold {
        writeln!(
            out,
            "  {g} [{}] {}",
            ds.domain_name(g),
            &ds.tasks[g].text.chars().take(60).collect::<String>()
        )
        .unwrap();
    }
    Ok(out)
}

/// Summarizes a finished (served) campaign, mirroring `campaign`'s
/// human-readable output.
fn campaign_summary(r: &CampaignResult, seed: u64) -> String {
    let mut out = String::new();
    writeln!(out, "{} on {} (seed {seed})", r.approach, r.dataset).unwrap();
    writeln!(out, "overall accuracy: {:.3}", r.overall).unwrap();
    writeln!(
        out,
        "answers: {}   spend: {} cents   completed: {}",
        r.answers,
        r.spend_cents,
        if r.completed { "yes" } else { "no" }
    )
    .unwrap();
    let a = r.accounting;
    writeln!(
        out,
        "accounting: submitted {} accepted {} rejected {} balanced {}",
        a.answers_submitted,
        a.answers_accepted,
        a.answers_rejected,
        a.balanced()
    )
    .unwrap();
    out
}

fn serve_cmd(args: &Args, notify: &mut dyn FnMut(&str)) -> Result<String, CliError> {
    let name = args
        .get("dataset")
        .ok_or_else(|| CliError("serve requires --dataset".into()))?;
    let config = campaign_config(args, name)?;
    let ds = dataset_by_name(name, config.seed)?;
    let approach = approach_by_name(args.get_or("approach", "icrowd"))?;
    let serve_config = ServeConfig {
        addr: args.get_or("addr", "127.0.0.1:7700").to_owned(),
        max_conns: args.get_parsed("max-conns", 64usize)?,
        idle_timeout_ms: args.get_parsed("idle-timeout-ms", 10_000u64)?,
        metrics_every_ms: args.get_parsed("metrics-every", 0u64)?,
        metrics_out: args.get("metrics-out").map(str::to_owned),
    };
    if serve_config.metrics_every_ms > 0 && args.get("telemetry").is_none() {
        // The window emitter reads the global registry; arm it even
        // without an exit-time export path.
        icrowd_obs::reset();
        icrowd_obs::enable();
    }
    let fsync_every = args.get_parsed("fsync", 1usize)?;
    let snapshot_every = args.get_parsed("snapshot-every", 64usize)?;
    let journal = args.get("journal");
    let recover_path = args.get("recover");
    if let (Some(j), Some(r)) = (journal, recover_path) {
        if j != r {
            return Err(CliError(format!(
                "--journal `{j}` and --recover `{r}` must name the same file \
                 (recovery reattaches the journal it replays)"
            )));
        }
    }
    if let (Some(path), None) = (journal, recover_path) {
        // A fresh journal truncates its file: never let that eat the
        // log a crashed server left for recovery.
        let len = std::fs::metadata(path)
            .ok()
            .filter(std::fs::Metadata::is_file)
            .map_or(0, |m| m.len());
        if len > 0 {
            return Err(CliError(format!(
                "--journal `{path}` already holds {len} bytes; resume that campaign with \
                 --recover `{path}`, or remove the file to start a new one"
            )));
        }
    }
    let durability = DurabilityPolicy::parse(args.get_or("durability", "fail-stop"))
        .map_err(|e| CliError(format!("invalid --durability: {e}")))?;
    let telemetry = telemetry_begin(args);
    let seed = config.seed;

    let engine = if let Some(path) = recover_path {
        let (engine, report) = icrowd_serve::recover_with_policy(
            std::path::Path::new(path),
            name,
            ds,
            approach,
            config,
            fsync_every,
            snapshot_every,
            durability,
        )
        .map_err(|e| CliError(format!("cannot recover from `{path}`: {e}")))?;
        notify(&format!(
            "recovered {} ops from {path} ({} snapshots verified, {} torn bytes truncated, \
             {} answers, balanced {})",
            report.ops_replayed,
            report.snapshots_verified,
            report.truncated_bytes,
            report.answers,
            report.balanced
        ));
        engine
    } else {
        let engine = CampaignEngine::new(name, ds, approach, config);
        if let Some(path) = journal {
            engine
                .start_journal_policy(
                    std::path::Path::new(path),
                    fsync_every,
                    snapshot_every,
                    durability,
                )
                .map_err(|e| CliError(format!("cannot create journal `{path}`: {e}")))?;
        }
        engine
    };
    // `serve` consumes the engine; keep the probe so the exit code can
    // reflect a fail-stop drain after the fact.
    let probe = engine.durability();
    let handle = icrowd_serve::serve(engine, &serve_config).map_err(|e| CliError(e.to_string()))?;
    // Emitted before blocking so scripts can discover an ephemeral
    // port; everything else arrives at drain.
    notify(&format!("icrowd-serve listening on {}", handle.addr()));

    let result = handle.join();
    write_labels(args, &labels_lines(&result.labels))?;
    let mut out = campaign_summary(&result, seed);
    telemetry_end(telemetry, Some(&mut out))?;
    if probe.fail_stopped() {
        return Err(CliError(format!(
            "{out}durability lost: journal I/O failed under the fail-stop policy; \
             server drained and is exiting nonzero"
        )));
    }
    Ok(out)
}

fn loadgen_cmd(args: &Args) -> Result<String, CliError> {
    let addr_file = args.get("addr-file").map(str::to_owned);
    let addr = match (args.get("addr"), &addr_file) {
        (Some(a), _) => a.to_owned(),
        (None, Some(_)) => String::new(), // resolved from the file per connection
        (None, None) => return Err(CliError("loadgen requires --addr or --addr-file".into())),
    };
    let faults = args
        .get("faults")
        .map(|spec| {
            ClientFaultConfig::parse(spec)
                .map_err(|e| CliError(format!("invalid --faults spec: {e}")))
        })
        .transpose()?;
    let config = LoadgenConfig {
        addr,
        addr_file,
        workers: args.get_parsed("workers", 8usize)?,
        think_ms: args.get_parsed("think-ms", 0u64)?,
        give_up_ms: args.get_parsed("give-up-ms", 30_000u64)?,
        io_timeout_ms: args.get_parsed("io-timeout-ms", 5_000u64)?,
        faults,
        shutdown: !args.has_flag("no-shutdown"),
        fetch_labels: true,
    };
    let telemetry = telemetry_begin(args);
    let report = run_loadgen(&config).map_err(CliError)?;
    if let Some(labels) = &report.labels {
        write_labels(args, labels)?;
    }

    let mut out = String::new();
    let target = if config.addr.is_empty() {
        format!("addr-file {}", config.addr_file.as_deref().unwrap_or("?"))
    } else {
        config.addr.clone()
    };
    writeln!(
        out,
        "loadgen: {} threads over {} workers against {target}",
        report.threads, report.roster
    )
    .unwrap();
    writeln!(
        out,
        "requests: {}   accepted: {}   rejected: {}   dups sent: {}   retries: {}   busy: {}",
        report.requests,
        report.accepted,
        report.rejected,
        report.dups_sent,
        report.retries,
        report.busy
    )
    .unwrap();
    writeln!(
        out,
        "complete: {}   balanced: {}   elapsed: {:.2}s   throughput: {:.1} answers/s",
        if report.complete { "yes" } else { "no" },
        report.balanced,
        report.elapsed.as_secs_f64(),
        report.throughput
    )
    .unwrap();
    writeln!(
        out,
        "latency us: request p50 {:.0} p99 {:.0}   submit p50 {:.0} p99 {:.0}",
        report.request_p50_us, report.request_p99_us, report.submit_p50_us, report.submit_p99_us
    )
    .unwrap();
    telemetry_end(telemetry, Some(&mut out))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<String, CliError> {
        run(&Args::parse(line.split_whitespace().map(str::to_owned)).unwrap())
    }

    #[test]
    fn help_and_datasets() {
        assert!(run_line("help").unwrap().contains("USAGE"));
        let d = run_line("datasets").unwrap();
        assert!(d.contains("yahooqa"));
        assert!(d.contains("360"), "item_compare task count shown");
    }

    #[test]
    fn campaign_on_table1_prints_accuracy() {
        let out = run_line("campaign --dataset table1 --approach random-mv --q 3").unwrap();
        assert!(out.contains("overall accuracy"), "{out}");
        assert!(out.contains("RandomMV"));
    }

    #[test]
    fn campaign_json_output_parses() {
        let out = run_line("campaign --dataset table1 --approach icrowd --q 3 --json").unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        assert_eq!(v["approach"], "iCrowd");
        assert!(v["overall_accuracy"].as_f64().unwrap() >= 0.0);
        assert_eq!(v["per_domain"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn graph_command_prints_edges_for_small_sets() {
        let out = run_line("graph --dataset table1 --metric jaccard --threshold 0.5").unwrap();
        assert!(out.contains("12 nodes"));
        assert!(out.contains("t2 -- t7"), "{out}");
    }

    #[test]
    fn quals_command_lists_gold_tasks() {
        let out = run_line("quals --dataset table1 --q 3").unwrap();
        assert!(out.contains("3 qualification tasks"));
        assert!(out.contains("InfQF"));
    }

    #[test]
    fn campaign_telemetry_writes_parseable_jsonl() {
        let _g = crate::obs_test_guard();
        let path = std::env::temp_dir().join("icrowd_cli_telemetry_test.jsonl");
        let path_str = path.to_str().unwrap().to_owned();
        let out = run_line(&format!(
            "campaign --dataset table1 --approach icrowd --q 3 --telemetry {path_str}"
        ))
        .unwrap();
        assert!(out.contains("telemetry summary"), "{out}");
        assert!(out.contains("telemetry written to"), "{out}");

        let text = std::fs::read_to_string(&path).unwrap();
        let mut span_names = Vec::new();
        for line in text.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("every line parses");
            if v["type"] == "span" {
                assert!(v["count"].as_u64().unwrap() > 0);
                assert!(v["total_ns"].as_u64().is_some());
                assert!(v["p50_ns"].as_u64().is_some());
                assert!(v["p99_ns"].as_u64().is_some());
                span_names.push(v["name"].as_str().unwrap().to_owned());
            }
        }
        for expected in [
            "index.build",
            "ppr.solve",
            "assign.loop",
            "estimator.refresh",
        ] {
            assert!(
                span_names.iter().any(|n| n == expected),
                "missing span {expected} in {span_names:?}"
            );
        }
        // Marketplace lifecycle events are bridged into the same sink.
        assert!(text.contains("\"type\":\"counter\""), "{text}");
        assert!(text.contains("market.answer_submitted"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn campaign_with_faults_reports_accounting() {
        let out = run_line(
            "campaign --dataset table1 --approach icrowd --q 3 --faults drop=0.2,stall=0.05,seed=7",
        )
        .unwrap();
        assert!(out.contains("faults: drop"), "{out}");
        assert!(out.contains("rejected:"), "{out}");
        // Deterministic under a fixed seed.
        let again = run_line(
            "campaign --dataset table1 --approach icrowd --q 3 --faults drop=0.2,stall=0.05,seed=7",
        )
        .unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn campaign_json_with_faults_carries_accounting() {
        let out = run_line(
            "campaign --dataset table1 --approach icrowd --q 3 --faults dup=0.3,seed=1 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        let a = &v["accounting"];
        assert_eq!(
            a["accepted"].as_u64().unwrap() + a["rejected"].as_u64().unwrap(),
            a["submitted"].as_u64().unwrap()
        );
        assert!(v["faults"]["dups"].as_u64().unwrap() > 0);
    }

    #[test]
    fn zero_fault_spec_output_matches_fault_free_run() {
        // An all-zero fault plan must not perturb the campaign itself —
        // only the extra reporting lines differ.
        let plain = run_line("campaign --dataset table1 --approach icrowd --q 3").unwrap();
        let zero =
            run_line("campaign --dataset table1 --approach icrowd --q 3 --faults seed=9").unwrap();
        let stripped: String = zero
            .lines()
            .filter(|l| !l.starts_with("faults:") && !l.starts_with("answers submitted:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(plain, stripped);
    }

    #[test]
    fn compare_with_faults_adds_rejection_column() {
        let out = run_line("compare --dataset table1 --q 3 --faults drop=0.1,seed=3").unwrap();
        assert!(out.contains("rejected"), "{out}");
        assert!(out.contains("done"), "{out}");
    }

    #[test]
    fn errors_are_user_facing() {
        assert!(run_line("nonsense")
            .unwrap_err()
            .0
            .contains("unknown subcommand"));
        assert!(run_line("campaign").unwrap_err().0.contains("--dataset"));
        assert!(run_line("campaign --dataset mars")
            .unwrap_err()
            .0
            .contains("unknown dataset"));
        assert!(run_line("campaign --dataset table1 --approach magic")
            .unwrap_err()
            .0
            .contains("unknown approach"));
        assert!(run_line("campaign --dataset table1 --k 0")
            .unwrap_err()
            .0
            .contains("invalid configuration"));
        assert!(run_line("campaign --dataset table1 --faults drop=2.0")
            .unwrap_err()
            .0
            .contains("invalid --faults"));
        assert!(run_line("campaign --dataset table1 --faults wobble=0.1")
            .unwrap_err()
            .0
            .contains("invalid --faults"));
    }

    /// Regression: the serving commands reject malformed options with an
    /// error (nonzero exit in `main`) instead of panicking — none of
    /// these may reach the network.
    #[test]
    fn serving_command_errors_are_user_facing() {
        assert!(run_line("serve").unwrap_err().0.contains("--dataset"));
        assert!(run_line("loadgen").unwrap_err().0.contains("--addr"));
        assert!(run_line("loadgen --addr 127.0.0.1:1 --workers banana")
            .unwrap_err()
            .0
            .contains("banana"));
        assert!(run_line("loadgen --addr 127.0.0.1:1 --faults dup=banana")
            .unwrap_err()
            .0
            .contains("invalid --faults"));
        assert!(run_line("loadgen --addr 127.0.0.1:1 --faults late=0.5:xx")
            .unwrap_err()
            .0
            .contains("invalid --faults"));
        assert!(run_line("serve --dataset table1 --max-conns many")
            .unwrap_err()
            .0
            .contains("many"));
        // An unopenable --metrics-out is refused before binding, by name
        // (it used to fall back to stderr silently).
        let metrics_out = std::env::temp_dir()
            .join("icrowd_cli_no_such_dir")
            .join("windows.jsonl");
        let metrics_out = metrics_out.to_str().unwrap();
        let err = run_line(&format!(
            "serve --dataset table1 --approach random-mv --q 3 \
             --metrics-every 100 --metrics-out {metrics_out}"
        ))
        .unwrap_err()
        .0;
        assert!(err.contains(metrics_out) && !err.contains("bind"), "{err}");
        // --journal on a non-empty file is refused, by path, instead of
        // truncating the log a crashed server left for --recover. (The
        // unopenable --metrics-out stops a serve that got past the
        // journal before it could bind and block.)
        let journal = std::env::temp_dir().join(format!(
            "icrowd_cli_existing_{}.journal",
            std::process::id()
        ));
        let bytes = b"\x05\x00\x00\x00not a frame".to_vec();
        std::fs::write(&journal, &bytes).unwrap();
        let journal_str = journal.to_str().unwrap();
        let err = run_line(&format!(
            "serve --dataset table1 --approach random-mv --q 3 --journal {journal_str} \
             --metrics-every 100 --metrics-out {metrics_out}"
        ))
        .unwrap_err()
        .0;
        assert!(
            err.contains(journal_str) && err.contains("--recover"),
            "{err}"
        );
        assert_eq!(
            std::fs::read(&journal).unwrap(),
            bytes,
            "the file was touched"
        );
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn campaign_labels_out_writes_canonical_lines() {
        let path = std::env::temp_dir().join("icrowd_cli_labels_test.txt");
        let path_str = path.to_str().unwrap().to_owned();
        run_line(&format!(
            "campaign --dataset table1 --approach random-mv --q 3 --labels-out {path_str}"
        ))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 12, "one line per table1 task");
        for line in text.lines() {
            let (t, a) = line.split_once(' ').expect("task answer");
            t.parse::<u32>().unwrap();
            a.parse::<u8>().unwrap();
        }
        std::fs::remove_file(&path).ok();
    }
}
