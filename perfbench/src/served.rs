//! The served workloads: the real server, started in-process through
//! `icrowd_serve::serve` (what `icrowd serve` calls), driven over
//! loopback TCP by the benchmark's own client.
//!
//! An untraced run serves a fixed number of whole campaigns, sized to
//! the time budget, one after another, gating each as soon as it is
//! served; the machine-speed reference ([`calib`]) runs through each
//! campaign. A traced run serves half as many twice, untraced and
//! traced, and adds the per-layer breakdown:
//!
//! * root spans per client op and journal spans from the timing
//!   [`BenchIo`] inside the served run itself;
//! * setup split into `prepare_campaign`'s public steps, called one at
//!   a time;
//! * engine and protocol times from replaying the served request lines
//!   through `Request::parse_with_trace` → `CampaignEngine::handle` →
//!   `Response::encode_line`;
//! * driver and backend times from replaying them through
//!   `MarketDriver::poll` / `submit_scheduled` over a timing
//!   `ExternalQuestionServer` wrapper.
//!
//! A replay whose responses or labels differ from the served run voids
//! the breakdown, and the run fails.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError};
use std::time::Instant;

use icrowd::AssignStrategy;
use icrowd_assign::select_qualification_influence;
use icrowd_core::answer::Answer;
use icrowd_core::config::ICrowdConfig;
use icrowd_core::task::TaskId;
use icrowd_core::worker::Tick;
use icrowd_graph::{GraphBuilder, LinearityIndex};
use icrowd_platform::market::{ExternalQuestionServer, SubmitOutcome};
use icrowd_platform::MarketDriver;
use icrowd_serve::{
    recover, serve, CampaignEngine, DurabilityPolicy, Request, ServeConfig, ServerHandle,
};
use icrowd_sim::campaign::{
    labels_lines, prepare_campaign, prepare_campaign_with, run_campaign, Approach, CampaignConfig,
    CampaignResult, CampaignServer, MetricChoice, QualStrategy,
};
use icrowd_sim::datasets::{by_name, Dataset};
use serde_json::Value;

use crate::calib;
use crate::client::{Client, Drive, OpKind, OpRecord};
use crate::journal_io::{with_log, BenchIo, JournalLog};
use crate::report::{self, Part, Report};
use crate::stats::{self_time, Samples, Summary};
use crate::trace::{now_ns, Trace};

/// `icrowd serve --journal` defaults: fsync every record, snapshot (and
/// compact) every 64 ops, fail-stop.
const FSYNC_EVERY: usize = 1;
const SNAPSHOT_EVERY: usize = 64;
/// Samples a p99 needs (ten beyond it).
const P99_SAMPLES: usize = 1_000;
/// Campaigns in an untraced run, at least: two per traced half.
const MIN_CAMPAIGNS: usize = 4;
/// A run fails when serving its campaigns takes more than this many
/// times its time budget.
const OVERRUN: f64 = 2.0;

/// One served workload, over one persistent connection.
pub struct ServedWorkload {
    pub name: &'static str,
    pub dataset: &'static str,
    pub journal: bool,
    /// Wall time one campaign takes to set up, serve and shut down, as
    /// measured on a 2-vCPU Xeon VM: a run with `--seconds S` serves
    /// `S / campaign_s` campaigns, whatever the machine's speed.
    pub campaign_s: f64,
}

impl ServedWorkload {
    /// The campaigns a run with a budget of `seconds` serves.
    fn campaigns(&self, seconds: f64) -> usize {
        ((seconds / self.campaign_s).round() as usize).max(MIN_CAMPAIGNS)
    }
}

/// The campaign's generated inputs, made from the seed outside every
/// timer.
pub struct Inputs {
    pub key: &'static str,
    pub dataset: Dataset,
    pub approach: Approach,
    pub config: CampaignConfig,
}

impl Inputs {
    /// The inputs `icrowd serve --dataset <key> --seed <seed>` builds
    /// with its default flags.
    pub fn new(key: &'static str, seed: u64) -> Inputs {
        let mut icrowd = ICrowdConfig {
            assignment_size: 3,
            similarity_threshold: 0.8,
            ..Default::default()
        };
        icrowd.warmup.num_qualification = 10;
        Inputs {
            key,
            dataset: by_name(key, seed).expect("built-in dataset"),
            approach: Approach::ICrowd(AssignStrategy::Adapt),
            config: CampaignConfig {
                seed,
                icrowd,
                metric: MetricChoice::CosTopic { num_topics: 8 },
                qual: QualStrategy::Influence,
                ..Default::default()
            },
        }
    }
}

// -- serving campaigns -------------------------------------------------

/// The seed of campaign `i` of a run with `--seed seed`. A run serves
/// several campaigns, each on inputs of its own, so that one seed's
/// campaign does not set a whole run's figures.
pub fn campaign_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_shl(8) | (i as u64 & 0xFF)
}

/// One served campaign.
struct Served {
    inp: Inputs,
    /// The machine-speed reference's median round trip through the
    /// campaign (see [`calib`]).
    rtt_us: f64,
    setup_s: f64,
    /// Peak resident set while it was set up and served.
    peak_rss_mb: f64,
    /// The client's round trips, summarized as soon as the campaign ends
    /// so that a long run holds a bounded record of each campaign.
    request: Summary,
    submit: Summary,
    drive: Drive,
    result: CampaignResult,
    journal: Option<PathBuf>,
}

/// `setup_s`: `CampaignEngine::new` + journal open + `serve()` bound.
/// Returns the running server, the setup time and the journal's path.
fn start(
    inp: &Inputs,
    journal: Option<PathBuf>,
    log: Option<&JournalLog>,
) -> Result<(ServerHandle, f64, Option<PathBuf>), String> {
    let dataset = inp.dataset.clone();
    let config = inp.config.clone();
    if let Some(p) = &journal {
        let _ = std::fs::remove_file(p);
    }
    let t0 = Instant::now();
    let engine = CampaignEngine::new(inp.key, dataset, inp.approach, config);
    if let Some(p) = &journal {
        let io = Box::new(BenchIo {
            log: log.map(Arc::clone),
        });
        engine
            .start_journal_with(
                p,
                FSYNC_EVERY,
                SNAPSHOT_EVERY,
                DurabilityPolicy::FailStop,
                io,
            )
            .map_err(|e| format!("cannot create journal {}: {e}", p.display()))?;
    }
    let handle = serve(engine, &ServeConfig::default()).map_err(|e| format!("bind: {e}"))?;
    Ok((handle, t0.elapsed().as_secs_f64(), journal))
}

fn serve_once(
    w: &ServedWorkload,
    inp: Inputs,
    work: &Path,
    idx: usize,
    log: Option<&JournalLog>,
) -> Result<Served, String> {
    let journal = w
        .journal
        .then(|| work.join(format!("{}-{idx}.journal", w.name)));
    let mut reference = calib::Reference::start()?;
    reference.burst(calib::EDGE_TRIPS)?;
    crate::env::reset_peak_rss();
    let (handle, setup_s, journal) = start(&inp, journal, log)?;
    let client = Client::new(handle.addr(), &inp.dataset, log.is_some());
    let drive = client.run(inp.config.seed, &mut reference);
    if drive.is_err() {
        handle.shutdown();
    }
    let peak_rss_mb = crate::env::peak_rss_mb();
    let result = handle.join();
    let mut drive = drive?;
    reference.burst(calib::EDGE_TRIPS)?;
    let rtt_us = reference.finish()?;
    Ok(Served {
        inp,
        rtt_us,
        setup_s,
        peak_rss_mb,
        request: Summary::of(&std::mem::take(&mut drive.request_us)),
        submit: Summary::of(&std::mem::take(&mut drive.submit_us)),
        drive,
        result,
        journal,
    })
}

/// Serves campaigns `0..count` back to back, each gated as soon as it
/// is served: the measured campaigns so spread over the whole run, and a
/// phase of the host that is faster or slower for a while moves a few of
/// them rather than most. Fails when serving them (gates aside) takes
/// more than [`OVERRUN`] times `seconds`. Returns the campaigns and each
/// journal recovery's duration.
fn serve_campaigns(
    w: &ServedWorkload,
    seed: u64,
    work: &Path,
    (count, seconds): (usize, f64),
    log: Option<&JournalLog>,
) -> Result<(Vec<Served>, Samples), String> {
    let (mut runs, mut replay_s) = (Vec::with_capacity(count), Samples::default());
    let mut serving_s = 0.0;
    for i in 0..count {
        let inp = Inputs::new(w.dataset, campaign_seed(seed, i));
        let t0 = Instant::now();
        let run = serve_once(w, inp, work, i, log)?;
        serving_s += t0.elapsed().as_secs_f64();
        if let Some(s) = gate(&run)? {
            replay_s.push(s);
        }
        runs.push(run);
    }
    println!("# served {count} campaigns in {serving_s:.2} s, budget {seconds} s");
    if serving_s > OVERRUN * seconds {
        return Err(format!(
            "{count} campaigns took {serving_s:.1} s, over {OVERRUN}x the {seconds} s budget"
        ));
    }
    Ok((runs, replay_s))
}

/// The correctness gate, outside every timer. A campaign's labels must
/// be byte-identical to `run_campaign` at the same seed and config; its
/// final STATUS must report both conservation laws, and `complete`
/// exactly when `run_campaign` completed (on some seeds the simulated
/// crowd leaves before every task reaches consensus, in process as well
/// as served); its journal must `recover()` into a fresh engine with the
/// same labels. Returns the recovery's duration.
fn gate(run: &Served) -> Result<Option<f64>, String> {
    let inp = &run.inp;
    let expected = run_campaign(&inp.dataset, inp.approach, &inp.config);
    let baseline = labels_lines(&expected.labels);
    let fail = |what: &str| Err(format!("campaign seed {}: {what}", inp.config.seed));
    if run.drive.labels != baseline {
        return fail("served labels differ from run_campaign at the same seed");
    }
    if labels_lines(&run.result.labels) != baseline {
        return fail("drained labels differ from run_campaign at the same seed");
    }
    let st = &run.drive.status;
    let acct = |k: &str| st.get("accounting")?.get(k)?.as_u64();
    let laws = || {
        Some(
            acct("accepted")? + acct("rejected")? == acct("submitted")?
                && acct("paid")? + acct("abandoned")? == acct("accepted")?,
        )
    };
    if st.get("complete").and_then(Value::as_bool) != Some(expected.completed) {
        return fail(&format!(
            "final STATUS complete is not {}, as in run_campaign",
            expected.completed
        ));
    }
    if st.get("balanced").and_then(Value::as_bool) != Some(true) || laws() != Some(true) {
        return fail(&format!("final STATUS is not balanced: {st:?}"));
    }
    if !run.result.accounting.balanced() {
        return fail("drained accounting is not balanced");
    }
    if acct("accepted") != Some(run.drive.accepted) {
        return fail("client and server disagree on accepted answers");
    }
    let Some(path) = &run.journal else {
        return Ok(None);
    };
    let t0 = Instant::now();
    let (engine, report) = recover(
        path,
        inp.key,
        inp.dataset.clone(),
        inp.approach,
        inp.config.clone(),
        FSYNC_EVERY,
        SNAPSHOT_EVERY,
    )
    .map_err(|e| format!("campaign seed {}: recovery failed: {e}", inp.config.seed))?;
    let replay_s = t0.elapsed().as_secs_f64();
    if !report.balanced || engine.labels() != baseline {
        return fail("recovered journal does not reproduce the labels");
    }
    Ok(Some(replay_s))
}

/// Adds the campaigns' ops to the report's accounting; returns their
/// accepted answers.
fn sum_drive(runs: &[Served], report: &mut Report) -> u64 {
    let mut accepted = 0;
    for r in runs {
        accepted += r.drive.accepted;
        report.attempted += r.drive.attempted;
        report.failed += r.drive.failed;
    }
    accepted
}

/// What the report needs of each campaign.
fn parts(runs: &[Served]) -> Vec<Part> {
    runs.iter()
        .map(|r| Part {
            setup_s: r.setup_s,
            peak_rss_mb: r.peak_rss_mb,
            answers: r.drive.accepted,
            drive_s: r.drive.drive_s,
            request: r.request.clone(),
            submit: r.submit.clone(),
            rtt_us: r.rtt_us,
        })
        .collect()
}

/// An untraced run: the end-to-end metrics.
pub fn run(w: &ServedWorkload, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let (runs, _) = serve_campaigns(w, seed, work, (w.campaigns(seconds), seconds), None)?;
    // A campaign with fewer than 1,000 submits has no p99 of its own and
    // sits out the p99 medians; a run needs at least one that has both.
    let has_p99 = |r: &Served| r.request.p99.is_some() && r.submit.p99.is_some();
    if !runs.iter().any(has_p99) {
        return Err(format!(
            "no campaign made the {P99_SAMPLES} submits a p99 needs"
        ));
    }
    let mut report = Report::default();
    for (i, r) in runs.iter().enumerate() {
        println!(
            "# campaign {i} seed {} rtt_us {:.3} setup_s {:.4} peak_rss_mb {:.2} drive_s {:.4} \
             answers {} requests {} answers_per_s {:.2} request_p50_us {:.3} request_p99_us {:.3} \
             submit_p50_us {:.3} submit_p99_us {:.3} (as measured)",
            r.inp.config.seed,
            r.rtt_us,
            r.setup_s,
            r.peak_rss_mb,
            r.drive.drive_s,
            r.drive.accepted,
            r.drive.requests_sent,
            r.drive.accepted as f64 / r.drive.drive_s,
            r.request.p50.unwrap_or(0.0),
            r.request.p99.unwrap_or(0.0),
            r.submit.p50.unwrap_or(0.0),
            r.submit.p99.unwrap_or(0.0),
        );
    }
    sum_drive(&runs, &mut report);
    report.end_to_end(&parts(&runs));
    Ok(report)
}

// -- traced run --------------------------------------------------------

/// Setup split into `prepare_campaign`'s public steps.
struct SetupSplit {
    similarity_s: f64,
    graph_build_s: f64,
    ppr_index_s: f64,
    qualification_s: f64,
    server_build_s: f64,
}

/// Runs `prepare_campaign` one public step at a time: the metric and
/// graph steps of `build_graph`, the index and selection steps of
/// `select_gold`, then `prepare_campaign_with`. The first driver replay
/// runs on the setup this returns, so a split that drifted from
/// `prepare_campaign` fails that replay's label check.
fn setup_split(
    inp: &Inputs,
    trace: &mut Trace,
) -> (SetupSplit, icrowd_sim::campaign::CampaignSetup) {
    let c = &inp.config;
    let timed = |name: &'static str| {
        let s = now_ns();
        move |trace: &mut Trace| {
            let e = now_ns();
            trace.push(name, "setup", 0, s, e);
            (e - s) as f64 / 1e9
        }
    };
    let done = timed("text.similarity");
    let metric = c.metric.build(&inp.dataset.tasks, c.seed);
    let similarity_s = done(trace);
    let done = timed("graph.graph_build");
    let mut builder =
        GraphBuilder::new(c.icrowd.similarity_threshold).with_threads(c.icrowd.ppr.threads);
    if let Some(m) = c.icrowd.max_neighbors {
        builder = builder.with_max_neighbors(m);
    }
    let graph = builder.build(&inp.dataset.tasks, &metric);
    let graph_build_s = done(trace);
    let done = timed("graph.ppr_index");
    let index = LinearityIndex::build(&graph, c.icrowd.alpha, &c.icrowd.ppr);
    let ppr_index_s = done(trace);
    let done = timed("assign.qualification");
    let gold = select_qualification_influence(&index, c.icrowd.warmup.num_qualification);
    let qualification_s = done(trace);
    drop(index);
    let done = timed("icrowd.server_build");
    let setup = prepare_campaign_with(&inp.dataset, inp.approach, c, graph, gold);
    let server_build_s = done(trace);
    (
        SetupSplit {
            similarity_s,
            graph_build_s,
            ppr_index_s,
            qualification_s,
            server_build_s,
        },
        setup,
    )
}

/// The ops that reached `CampaignEngine::handle`, in order (SHUTDOWN is
/// answered by the transport).
fn engine_ops(ops: &[OpRecord]) -> impl Iterator<Item = &OpRecord> {
    ops.iter().filter(|o| o.kind != OpKind::Shutdown)
}

#[derive(Default)]
struct EngineReplay {
    parse_us: Samples,
    encode_us: Samples,
    request_us: Samples,
    submit_us: Samples,
    /// parse + handle + encode per replayed op, in op order, less the
    /// replay's own journal writes and syncs: the served run's journal
    /// I/O is measured in the served run itself.
    per_op_ns: Vec<u64>,
}

/// Replays the served request lines in-process through the protocol
/// and the engine (journaled like the served run when it was).
/// Every REQUEST_TASK and SUBMIT_ANSWER response must match the served
/// one byte for byte, and the final labels must too.
fn replay_engine(
    inp: &Inputs,
    ops: &[OpRecord],
    labels: &str,
    journal: Option<&Path>,
    trace: &mut Trace,
) -> Result<EngineReplay, String> {
    let engine = CampaignEngine::new(
        inp.key,
        inp.dataset.clone(),
        inp.approach,
        inp.config.clone(),
    );
    let log = JournalLog::default();
    if let Some(p) = journal {
        let _ = std::fs::remove_file(p);
        let io = Box::new(BenchIo {
            log: Some(Arc::clone(&log)),
        });
        engine
            .start_journal_with(
                p,
                FSYNC_EVERY,
                SNAPSHOT_EVERY,
                DurabilityPolicy::FailStop,
                io,
            )
            .map_err(|e| format!("replay journal: {e}"))?;
    }
    let io_ns = || with_log(&log, |t| t.io_ns);
    let mut out = EngineReplay::default();
    let mut buf = String::new();
    for (i, op) in engine_ops(ops).enumerate() {
        let j0 = io_ns();
        let t0 = now_ns();
        let (req, _) =
            Request::parse_with_trace(&op.line).map_err(|e| format!("replay parse: {e}"))?;
        let t1 = now_ns();
        let resp = engine.handle(&req, 0);
        let t2 = now_ns();
        let journal_ns = io_ns() - j0;
        buf.clear();
        resp.encode_line(&mut buf);
        let t3 = now_ns();
        let opid = i as u64 + 1;
        trace.push("server.parse", "replay.op", opid, t0, t1);
        trace.push("server.engine_handle", "replay.op", opid, t1, t2);
        trace.push("server.encode", "replay.op", opid, t2, t3);
        out.parse_us.push((t1 - t0) as f64 / 1e3);
        out.encode_us.push((t3 - t2) as f64 / 1e3);
        out.per_op_ns.push((t3 - t0).saturating_sub(journal_ns));
        match op.kind {
            OpKind::Request => out.request_us.push((t2 - t1) as f64 / 1e3),
            OpKind::Submit => out.submit_us.push((t2 - t1) as f64 / 1e3),
            _ => continue,
        }
        if buf.trim_end() != op.response {
            return Err(format!(
                "engine replay diverged at op {i}: served `{}`, replayed `{}`",
                op.response,
                buf.trim_end()
            ));
        }
    }
    if engine.labels() != labels {
        return Err("engine replay labels differ from the served run".to_owned());
    }
    Ok(out)
}

/// Per op, the time the served run spent in journal writes and syncs
/// inside the op's client span. Both lists are in time order.
fn journal_ns_per_op<'a>(ops: impl Iterator<Item = &'a OpRecord>, journal: &Trace) -> Vec<u64> {
    let io: Vec<(u64, u64)> = journal
        .0
        .iter()
        .filter(|s| s.name != "journal.compact")
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let mut next = 0;
    ops.map(|op| {
        while next < io.len() && io[next].1 <= op.start_ns {
            next += 1;
        }
        io[next..]
            .iter()
            .take_while(|&&(s, _)| s < op.end_ns)
            .map(|&(s, e)| e.min(op.end_ns) - s.max(op.start_ns))
            .sum()
    })
    .collect()
}

/// An `ExternalQuestionServer` wrapper that times every backend call
/// the `MarketDriver` makes.
struct TimedBackend {
    inner: CampaignServer,
    nested: RefCell<Vec<(u64, u64)>>,
    request_us: Samples,
    submit_us: Samples,
    requests: u64,
    declined: u64,
}

impl TimedBackend {
    fn note(&self, s: u64) -> u64 {
        let e = now_ns();
        self.nested.borrow_mut().push((s, e));
        e
    }
}

impl ExternalQuestionServer for TimedBackend {
    fn request_task(&mut self, worker: &str, now: Tick) -> Option<TaskId> {
        let s = now_ns();
        let r = self.inner.request_task(worker, now);
        let e = self.note(s);
        self.request_us.push((e - s) as f64 / 1e3);
        self.requests += 1;
        self.declined += u64::from(r.is_none());
        r
    }

    fn submit_answer(
        &mut self,
        worker: &str,
        task: TaskId,
        answer: Answer,
        now: Tick,
    ) -> SubmitOutcome {
        let s = now_ns();
        let r = self.inner.submit_answer(worker, task, answer, now);
        let e = self.note(s);
        self.submit_us.push((e - s) as f64 / 1e3);
        r
    }

    fn is_complete(&self) -> bool {
        let s = now_ns();
        let r = self.inner.is_complete();
        self.note(s);
        r
    }
}

#[derive(Default)]
struct DriverReplay {
    poll_self_us: Samples,
    submit_self_us: Samples,
    request_us: Samples,
    submit_us: Samples,
    requests: u64,
    declined: u64,
}

/// Replays the served ops through `MarketDriver` over the timing
/// backend, exactly as `CampaignEngine` drives it; the labels must
/// match the served run's.
fn replay_driver(
    inp: &Inputs,
    setup: icrowd_sim::campaign::CampaignSetup,
    ops: &[OpRecord],
    labels: &str,
    out: &mut DriverReplay,
    trace: &mut Trace,
) -> Result<(), String> {
    let mut driver = MarketDriver::new(
        inp.dataset.tasks.clone(),
        setup.market,
        setup.scripts,
        inp.config.faults.clone(),
    );
    let mut backend = TimedBackend {
        inner: setup.server,
        nested: RefCell::new(Vec::new()),
        request_us: Samples::default(),
        submit_us: Samples::default(),
        requests: 0,
        declined: 0,
    };
    for (i, op) in engine_ops(ops).enumerate() {
        let (req, _) =
            Request::parse_with_trace(&op.line).map_err(|e| format!("replay parse: {e}"))?;
        backend.nested.borrow_mut().clear();
        let s = now_ns();
        let name = match &req {
            Request::RequestTask { worker } => {
                driver.poll(&mut backend, worker);
                "driver.poll"
            }
            Request::SubmitAnswer {
                worker,
                task,
                answer,
            } => {
                let scheduled = driver
                    .pending()
                    .filter(|p| driver.external_id(p.worker) == worker && p.task == *task);
                match scheduled {
                    Some(p) => driver.submit_scheduled(p.worker, *answer, &mut backend),
                    None => return Err(format!("driver replay: op {i} submits off schedule")),
                };
                "driver.submit_scheduled"
            }
            _ => {
                driver.pump(&mut backend);
                continue;
            }
        };
        let e = now_ns();
        let nested = backend.nested.borrow();
        let opid = i as u64 + 1;
        trace.push(name, "replay.op", opid, s, e);
        for &(cs, ce) in nested.iter() {
            trace.push("icrowd.backend", name, opid, cs, ce);
        }
        let self_us = self_time(s, e, &nested) as f64 / 1e3;
        match op.kind {
            OpKind::Request => out.poll_self_us.push(self_us),
            _ => out.submit_self_us.push(self_us),
        }
    }
    let mut results: Vec<(TaskId, Answer)> = backend
        .inner
        .results(inp.config.weighted_aggregation)
        .into_iter()
        .collect();
    results.sort_unstable_by_key(|(t, _)| *t);
    if labels_lines(&results) != labels {
        return Err("driver replay labels differ from the served run".to_owned());
    }
    out.request_us.extend(&backend.request_us);
    out.submit_us.extend(&backend.submit_us);
    out.requests += backend.requests;
    out.declined += backend.declined;
    Ok(())
}

/// A traced run: an untraced half for the overhead baseline, a traced
/// half on the same campaign seeds, then the setup split and the
/// replays.
pub fn run_traced(
    w: &ServedWorkload,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<(Report, Trace), String> {
    let mut report = Report::default();
    // Both halves serve the same campaigns, so that
    // `trace.overhead_frac` compares like with like.
    let half = (w.campaigns(seconds) / 2, seconds / 2.0);
    let (plain, _) = serve_campaigns(w, seed, work, half, None)?;
    sum_drive(&plain, &mut report);

    let log = JournalLog::default();
    let (traced, replay_s) = serve_campaigns(w, seed, work, half, Some(&log))?;
    let answers = sum_drive(&traced, &mut report);
    let mut trace = Trace::default();
    for (c, run) in traced.iter().enumerate() {
        for (i, op) in run.drive.ops.as_ref().expect("traced").iter().enumerate() {
            let name = match op.kind {
                OpKind::Request => "client.request_task",
                OpKind::Submit => "client.submit_answer",
                _ => "client.other",
            };
            trace.push(
                name,
                "",
                (c * 1_000_000 + i + 1) as u64,
                op.start_ns,
                op.end_ns,
            );
        }
    }

    let (split, setup) = setup_split(&traced[0].inp, &mut trace);
    let mut setup = Some(setup);
    let replay_journal = w
        .journal
        .then(|| work.join(format!("{}-replay.journal", w.name)));
    let journal = log.lock().unwrap_or_else(PoisonError::into_inner);
    let mut eng = EngineReplay::default();
    let mut drv = DriverReplay::default();
    let (mut t_req, mut t_sub) = (Samples::default(), Samples::default());
    let mut connects = 0;
    // Every traced campaign is replayed once, and the first again until
    // every replayed p99 has its samples.
    let mut r = 0;
    while r < traced.len() || eng.submit_us.len() < P99_SAMPLES {
        let run = &traced[r % traced.len()];
        let (inp, labels) = (&run.inp, &run.drive.labels);
        let ops = run.drive.ops.as_ref().expect("traced");
        let one = replay_engine(inp, ops, labels, replay_journal.as_deref(), &mut trace)?;
        if r < traced.len() {
            // Transport: each client round trip minus its matched
            // in-process parse + handle + encode, and minus the journal
            // I/O the served run did inside it.
            connects += run.drive.connects;
            let served_io = journal_ns_per_op(engine_ops(ops), &journal.spans);
            for ((op, &matched), io) in engine_ops(ops).zip(&one.per_op_ns).zip(served_io) {
                let us = (op.end_ns - op.start_ns).saturating_sub(matched + io) as f64 / 1e3;
                match op.kind {
                    OpKind::Request => t_req.push(us),
                    OpKind::Submit => t_sub.push(us),
                    _ => {}
                }
            }
        }
        eng.parse_us.extend(&one.parse_us);
        eng.encode_us.extend(&one.encode_us);
        eng.request_us.extend(&one.request_us);
        eng.submit_us.extend(&one.submit_us);
        let s = setup
            .take()
            .unwrap_or_else(|| prepare_campaign(&inp.dataset, inp.approach, &inp.config));
        replay_driver(inp, s, ops, labels, &mut drv, &mut trace)?;
        r += 1;
    }
    let requests_sent: u64 = traced.iter().map(|r| r.drive.requests_sent).sum();
    let campaigns = traced.len() as u64;
    trace.0.extend_from_slice(&journal.spans.0);

    report.add("text.similarity_s", "s", split.similarity_s, 1);
    report.add("graph.graph_build_s", "s", split.graph_build_s, 1);
    report.add("graph.ppr_index_s", "s", split.ppr_index_s, 1);
    report.add("assign.qualification_s", "s", split.qualification_s, 1);
    report.add("icrowd.server_build_s", "s", split.server_build_s, 1);
    report.p50("icrowd.request_task_p50_us", "us", &drv.request_us);
    report.p99("icrowd.request_task_p99_us", "us", &drv.request_us);
    report.p50("icrowd.submit_answer_p50_us", "us", &drv.submit_us);
    report.p99("icrowd.submit_answer_p99_us", "us", &drv.submit_us);
    report.ratio(
        "icrowd.declined_ratio",
        "1",
        drv.declined as f64,
        drv.requests,
    );
    report.p50("platform.driver_poll_self_p50_us", "us", &drv.poll_self_us);
    report.p50(
        "platform.driver_submit_self_p50_us",
        "us",
        &drv.submit_self_us,
    );
    report.ratio(
        "platform.polls_per_answer",
        "1",
        requests_sent as f64,
        answers,
    );
    report.p50("platform.journal_write_p50_us", "us", &journal.write_us);
    report.ratio(
        "platform.journal_bytes_per_answer",
        "B",
        journal.bytes as f64,
        if w.journal { answers } else { 0 },
    );
    report.p50("platform.journal_fsync_p50_us", "us", &journal.sync_us);
    report.ratio(
        "platform.journal_fsyncs_per_answer",
        "1",
        journal.sync_us.len() as f64,
        if w.journal { answers } else { 0 },
    );
    report.ratio(
        "platform.journal_compactions",
        "count",
        journal.compact_ms.len() as f64,
        if w.journal { campaigns } else { 0 },
    );
    report.p50("platform.journal_compact_ms", "ms", &journal.compact_ms);
    report.p50("platform.journal_replay_s", "s", &replay_s);
    report.p50("server.protocol_parse_p50_us", "us", &eng.parse_us);
    report.p50("server.protocol_encode_p50_us", "us", &eng.encode_us);
    report.p50("server.engine_request_p50_us", "us", &eng.request_us);
    report.p99("server.engine_request_p99_us", "us", &eng.request_us);
    report.p50("server.engine_submit_p50_us", "us", &eng.submit_us);
    report.p99("server.engine_submit_p99_us", "us", &eng.submit_us);
    report.p50("server.transport_request_p50_us", "us", &t_req);
    report.p50("server.transport_submit_p50_us", "us", &t_sub);
    report.ratio(
        "server.connections_per_answer",
        "1",
        connects as f64,
        answers,
    );
    let plain_rate = report::answers_per_s(&parts(&plain));
    let traced_rate = report::answers_per_s(&parts(&traced));
    report.add(
        "trace.overhead_frac",
        "1",
        1.0 - traced_rate / plain_rate,
        2,
    );
    Ok((report, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use icrowd_sim::datasets::table1;

    /// The small Table 1 campaign of the `run_campaign` doc example.
    fn table1_inputs() -> Inputs {
        let mut config = CampaignConfig {
            seed: 7,
            metric: MetricChoice::Jaccard,
            ..Default::default()
        };
        config.icrowd.similarity_threshold = 0.4;
        config.icrowd.warmup.num_qualification = 3;
        Inputs {
            key: "table1",
            dataset: table1(),
            approach: Approach::ICrowd(AssignStrategy::Adapt),
            config,
        }
    }

    fn work_dir(name: &str) -> PathBuf {
        let dir = Path::new(".perfbench-work").join(name);
        std::fs::create_dir_all(&dir).expect("work dir");
        dir
    }

    fn table1_workload(journal: bool) -> ServedWorkload {
        ServedWorkload {
            name: "test",
            dataset: "table1",
            journal,
            campaign_s: 1.0,
        }
    }

    /// Serves the campaign with the traced client, then checks that
    /// both in-process replays line up with the socket op for op.
    fn served_then_replayed(journal: bool) {
        let work = work_dir(&format!("test-journal-{journal}"));
        let log = JournalLog::default();
        let run = serve_once(
            &table1_workload(journal),
            table1_inputs(),
            &work,
            0,
            Some(&log),
        )
        .expect("served campaign");
        gate(&run).expect("gate");
        let inp = &run.inp;
        assert_eq!(run.drive.failed, 0);
        assert_eq!(run.drive.connects, 1);
        let ops = run.drive.ops.as_ref().expect("traced ops");
        let count = |k: OpKind| ops.iter().filter(|o| o.kind == k).count() as u64;
        assert_eq!(count(OpKind::Request), run.drive.requests_sent);
        assert_eq!(count(OpKind::Submit), run.drive.accepted);
        assert!(ops.windows(2).all(|p| p[0].end_ns <= p[1].start_ns));

        let mut trace = Trace::default();
        let replay_journal = journal.then(|| work.join("replay.journal"));
        let eng = replay_engine(
            inp,
            ops,
            &run.drive.labels,
            replay_journal.as_deref(),
            &mut trace,
        )
        .expect("engine replay aligns");
        assert_eq!(eng.per_op_ns.len(), engine_ops(ops).count());
        assert_eq!(eng.request_us.len() as u64, run.drive.requests_sent);
        assert_eq!(eng.submit_us.len() as u64, run.drive.accepted);

        let mut drv = DriverReplay::default();
        let setup = prepare_campaign(&inp.dataset, inp.approach, &inp.config);
        replay_driver(inp, setup, ops, &run.drive.labels, &mut drv, &mut trace)
            .expect("driver replay aligns");
        assert_eq!(drv.poll_self_us.len() as u64, run.drive.requests_sent);
        assert_eq!(drv.submit_us.len() as u64, run.drive.accepted);

        let times = log.lock().expect("log");
        if journal {
            assert!(times.sync_us.len() as u64 > run.drive.accepted);
            assert!(times.bytes > 0);
        } else {
            assert_eq!(times.write_us.len(), 0);
        }
    }

    #[test]
    fn replay_aligns_with_the_socket() {
        served_then_replayed(false);
    }

    #[test]
    fn journaled_replay_aligns_with_the_socket() {
        served_then_replayed(true);
    }

    #[test]
    fn a_run_serves_the_campaigns_its_budget_buys() {
        let w = table1_workload(false);
        assert_eq!(w.campaigns(30.0), 30);
        assert_eq!(w.campaigns(1.0), MIN_CAMPAIGNS);
        let work = work_dir("test-count");
        let (runs, _) = serve_campaigns(&w, 3, &work, (2, 30.0), None).expect("served");
        let seeds: Vec<u64> = runs.iter().map(|r| r.inp.config.seed).collect();
        assert_eq!(seeds, [campaign_seed(3, 0), campaign_seed(3, 1)]);
        let err = serve_campaigns(&w, 3, &work, (1, 0.0), None)
            .err()
            .expect("a run far over its budget fails");
        assert!(err.contains("budget"), "{err}");
    }

    #[test]
    fn a_diverging_replay_voids_the_breakdown() {
        let work = work_dir("test-diverge");
        let log = JournalLog::default();
        let run = serve_once(
            &table1_workload(false),
            table1_inputs(),
            &work,
            0,
            Some(&log),
        )
        .expect("served campaign");
        let inp = &run.inp;
        let mut ops = run.drive.ops.clone().expect("traced ops");
        let submit = ops
            .iter_mut()
            .find(|o| o.kind == OpKind::Submit)
            .expect("a submit");
        submit.response = submit.response.replace("accepted", "rejected");
        let mut trace = Trace::default();
        let err = replay_engine(inp, &ops, &run.drive.labels, None, &mut trace)
            .err()
            .expect("a tampered response must not align");
        assert!(err.contains("diverged"), "{err}");
        let err = replay_engine(
            inp,
            run.drive.ops.as_ref().expect("ops"),
            "0 1\n",
            None,
            &mut trace,
        )
        .err()
        .expect("other labels must not align");
        assert!(err.contains("labels"), "{err}");
    }
}
