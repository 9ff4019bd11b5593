//! The metrics plane's wire formats, round-tripped: trace events must
//! survive JSONL export → parse intact (the `icrowd obs` analyzer and
//! any external tooling read exactly these lines), window reports must
//! be valid JSON, and — the invariant the whole plane hangs on —
//! telemetry must never change consensus labels. The plane also counts
//! the offline work: every path that prepares a campaign builds its
//! linearity index at most once.

use std::collections::BTreeMap;

use icrowd::AssignStrategy;
use icrowd_obs::TraceEvent;
use icrowd_platform::market::WorkerBehavior;
use icrowd_platform::PollOutcome;
use icrowd_serve::protocol::Request;
use icrowd_serve::{CampaignEngine, Response};
use icrowd_sim::campaign::{
    labels_lines, prepare_campaign, run_campaign, Approach, CampaignConfig, MetricChoice,
    QualStrategy,
};
use icrowd_sim::datasets::{table1, yahooqa};
use serde_json::Value;

/// The telemetry registry is process-global; every test here arms or
/// resets it, so they serialize through one lock.
fn guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn trace_events_round_trip_through_jsonl() {
    let _g = guard();
    icrowd_obs::reset();
    icrowd_obs::enable();

    // One request's causal tree: root → engine → {driver, journal}.
    {
        let _root = icrowd_obs::trace_begin(42, "serve.rpc.request");
        let _engine = icrowd_obs::Span::start("serve.request");
        {
            let _driver = icrowd_obs::Span::start("driver.poll");
        }
        let _journal = icrowd_obs::Span::start("journal.append");
    }

    let recorded = icrowd_obs::snapshot().traces;
    assert_eq!(recorded.len(), 4, "root + three children");

    // Export, then parse every trace line back and compare field for
    // field against what the registry recorded.
    let exported = icrowd_obs::export_jsonl();
    let mut parsed = Vec::new();
    for line in exported.lines() {
        let v: Value = serde_json::from_str(line).expect("every exported line is valid JSON");
        if v.get("type").and_then(Value::as_str) == Some("trace") {
            parsed.push(v);
        }
    }
    assert_eq!(parsed.len(), recorded.len());
    for (v, e) in parsed.iter().zip(&recorded) {
        assert_eq!(v.get("trace").and_then(Value::as_u64), Some(e.trace_id));
        assert_eq!(
            v.get("span").and_then(Value::as_u64),
            Some(u64::from(e.span_id))
        );
        assert_eq!(
            v.get("parent").and_then(Value::as_u64),
            Some(u64::from(e.parent_id))
        );
        assert_eq!(v.get("name").and_then(Value::as_str), Some(e.name));
        assert_eq!(v.get("start_ns").and_then(Value::as_u64), Some(e.start_ns));
        assert_eq!(v.get("dur_ns").and_then(Value::as_u64), Some(e.dur_ns));
    }

    // The parsed lines alone must reconstruct the causal tree: exactly
    // one root, and every parent id resolves within the same trace.
    let ids: Vec<u64> = parsed
        .iter()
        .map(|v| v.get("span").and_then(Value::as_u64).unwrap())
        .collect();
    let roots = parsed
        .iter()
        .filter(|v| v.get("parent").and_then(Value::as_u64) == Some(0))
        .count();
    assert_eq!(roots, 1);
    for v in &parsed {
        let parent = v.get("parent").and_then(Value::as_u64).unwrap();
        assert!(
            parent == 0 || ids.contains(&parent),
            "dangling parent {parent}"
        );
    }

    icrowd_obs::disable();
    icrowd_obs::reset();
}

/// Renders the subtree under span `id` as `name(child,child)`, children
/// in start order; `estimator.*` nodes are left out unless `estimator`.
fn render(nodes: &[TraceEvent], id: u32, estimator: bool) -> String {
    let node = nodes.iter().find(|n| n.span_id == id).expect("node");
    let children: Vec<String> = nodes
        .iter()
        .filter(|n| n.parent_id == id && (estimator || !n.name.starts_with("estimator.")))
        .map(|c| render(nodes, c.span_id, estimator))
        .collect();
    if children.is_empty() {
        node.name.to_owned()
    } else {
        format!("{}({})", node.name, children.join(","))
    }
}

/// One guard feeds both views: driving a journaled yahooqa campaign
/// through `CampaignEngine::handle` with every request traced, as the
/// transport does, yields one tree per request that carries the engine,
/// driver, Algorithm-2, estimator and journal spans under the names the
/// histograms use.
#[test]
fn served_requests_trace_the_full_split() {
    let _g = guard();
    let dataset = yahooqa(42);
    let config = CampaignConfig::default();
    let engine = CampaignEngine::new(
        "yahooqa",
        dataset.clone(),
        Approach::ICrowd(AssignStrategy::Adapt),
        config.clone(),
    );
    let journal =
        std::env::temp_dir().join(format!("icrowd_trace_tree_{}.bin", std::process::id()));
    std::fs::remove_file(&journal).ok();
    engine.start_journal(&journal, 1, 64).expect("journal");
    icrowd_obs::reset();
    icrowd_obs::enable();

    // Each request is handled under its own trace root, as the server
    // opens one per traced protocol line.
    let mut next_trace = 0u64;
    let mut traced = |name: &'static str, req: &Request| {
        next_trace += 1;
        let _root = icrowd_obs::trace_begin(next_trace, name);
        (next_trace, engine.handle(req, 0))
    };
    let workers: Vec<String> = (1..=dataset.workers.len())
        .map(|i| format!("W{i}"))
        .collect();
    let mut sims: Vec<_> = dataset
        .spawn_workers(config.seed)
        .into_iter()
        .map(Some)
        .collect();
    let mut kinds: BTreeMap<u64, &str> = BTreeMap::new();
    let mut live = workers.len();
    while live > 0 {
        assert!(kinds.len() < 100_000, "campaign livelocked");
        for (i, w) in workers.iter().enumerate() {
            let Some(sim) = sims[i].as_mut() else {
                continue;
            };
            let poll = Request::RequestTask { worker: w.clone() };
            match traced("serve.rpc.request", &poll) {
                (id, Response::Poll(PollOutcome::Assigned(task))) => {
                    kinds.insert(id, "assigned");
                    let answer = WorkerBehavior::answer(sim, &dataset.tasks[task]);
                    let submit = Request::SubmitAnswer {
                        worker: w.clone(),
                        task,
                        answer,
                    };
                    let (id, resp) = traced("serve.rpc.submit", &submit);
                    kinds.insert(id, "submit");
                    assert!(matches!(resp, Response::Submit(_)), "{resp:?}");
                }
                (id, Response::Poll(PollOutcome::Wait)) => {
                    kinds.insert(id, "wait");
                }
                (id, Response::Poll(PollOutcome::Declined { retry: true })) => {
                    kinds.insert(id, "declined");
                }
                (
                    id,
                    Response::Poll(PollOutcome::Left | PollOutcome::Declined { retry: false }),
                ) => {
                    kinds.insert(id, "left");
                    sims[i] = None;
                    live -= 1;
                }
                (_, other) => panic!("unexpected poll response {other:?}"),
            }
        }
    }
    icrowd_obs::disable();
    let snap = icrowd_obs::snapshot();
    icrowd_obs::reset();
    std::fs::remove_file(&journal).ok();
    assert_eq!(snap.traces_dropped, 0);
    // The same guards fed the histograms: one driver.poll per poll and
    // one driver.submit per submit.
    let count = |name: &str| {
        let span = snap.spans.iter().find(|s| s.name == name);
        span.map_or(0, |s| s.count as usize)
    };
    let submits = kinds.values().filter(|&&k| k == "submit").count();
    assert_eq!(count("driver.poll"), kinds.len() - submits);
    assert_eq!(count("driver.submit"), submits);

    let mut by_trace: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
    for ev in snap.traces {
        by_trace.entry(ev.trace_id).or_default().push(ev);
    }
    assert_eq!(by_trace.len(), kinds.len(), "one tree per request");
    // Shapes with the estimator's nodes left out: how many refreshes
    // or lazy rebuilds a request pays depends on the evidence.
    let mut shapes: BTreeMap<(&str, String), usize> = BTreeMap::new();
    let mut refreshed = 0;
    for (id, nodes) in &by_trace {
        assert_eq!(
            nodes.iter().filter(|n| n.parent_id == 0).count(),
            1,
            "trace {id}: one root"
        );
        for n in nodes {
            assert!(
                n.parent_id == 0 || nodes.iter().any(|p| p.span_id == n.parent_id),
                "trace {id}: {} has a dangling parent {}",
                n.name,
                n.parent_id
            );
        }
        *shapes
            .entry((kinds[id], render(nodes, 1, false)))
            .or_default() += 1;
        if render(nodes, 1, true).contains("answer.submit(estimator.refresh") {
            refreshed += 1;
        }
    }
    for (kind, shape) in [
        (
            "assigned",
            "serve.rpc.request(serve.request(driver.poll(assign.loop),journal.append))",
        ),
        ("wait", "serve.rpc.request(serve.request(driver.poll))"),
        (
            "submit",
            "serve.rpc.submit(serve.submit(driver.submit(answer.submit),journal.append))",
        ),
    ] {
        let total = kinds.values().filter(|&&k| k == kind).count();
        assert!(total > 0, "the campaign sent no {kind} request");
        assert_eq!(
            shapes.get(&(kind, shape.to_owned())),
            Some(&total),
            "every {kind} tree is {shape}: {shapes:#?}"
        );
    }
    assert!(
        refreshed > 0,
        "no submit refreshed the estimator under answer.submit"
    );
}

#[test]
fn window_reports_are_valid_json() {
    let _g = guard();
    icrowd_obs::reset();
    icrowd_obs::enable();

    icrowd_obs::record_span_ns("serve.request", 1_500);
    icrowd_obs::counter_add("serve.conn_accepted", 3);
    icrowd_obs::gauge_set("serve.conns", 7.0);

    let report = icrowd_obs::window_advance();
    let v: Value = serde_json::from_str(&report.to_json()).expect("window JSON parses");
    assert_eq!(v.get("type").and_then(Value::as_str), Some("window"));
    assert_eq!(v.get("seq").and_then(Value::as_u64), Some(report.seq));
    assert!(v.get("spans").and_then(Value::as_array).is_some());
    let counters = v.get("counters").and_then(Value::as_array).unwrap();
    assert!(counters
        .iter()
        .any(
            |c| c.get("name").and_then(Value::as_str) == Some("serve.conn_accepted")
                && c.get("delta").and_then(Value::as_u64) == Some(3)
        ));
    let gauges = v.get("gauges").and_then(Value::as_array).unwrap();
    assert!(gauges.iter().any(
        |g| g.get("name").and_then(Value::as_str) == Some("serve.conns")
            && g.get("last").and_then(Value::as_f64) == Some(7.0)
    ));

    icrowd_obs::disable();
    icrowd_obs::reset();
}

#[test]
fn telemetry_on_or_off_labels_are_byte_identical() {
    let _g = guard();
    let config = CampaignConfig::default();
    let approach = Approach::ICrowd(AssignStrategy::Adapt);

    icrowd_obs::disable();
    icrowd_obs::reset();
    let off = run_campaign(&table1(), approach, &config);

    icrowd_obs::reset();
    icrowd_obs::enable();
    let on = run_campaign(&table1(), approach, &config);
    icrowd_obs::disable();
    icrowd_obs::reset();

    assert_eq!(
        labels_lines(&off.labels),
        labels_lines(&on.labels),
        "telemetry must observe the campaign, not steer it"
    );
    assert_eq!(off.overall, on.overall);
    assert_eq!(off.answers, on.answers);
    assert_eq!(off.spend_cents, on.spend_cents);
}

/// Algorithm 1's index is one PPR solve per task. A campaign builds it
/// once and shares it: influence gold selection and the iCrowd
/// estimator read the same value, and a random baseline under random
/// qualification builds none.
#[test]
fn every_campaign_path_builds_the_linearity_index_at_most_once() {
    let _g = guard();
    let dataset = table1();
    let tasks = dataset.tasks.len() as u64;
    let icrowd = Approach::ICrowd(AssignStrategy::Adapt);
    for (approach, qual, builds) in [
        (icrowd, QualStrategy::Influence, 1),
        (Approach::RandomMV, QualStrategy::Influence, 1),
        (icrowd, QualStrategy::Random, 1),
        (Approach::RandomMV, QualStrategy::Random, 0),
    ] {
        let mut config = CampaignConfig {
            metric: MetricChoice::Jaccard,
            qual,
            ..Default::default()
        };
        config.icrowd.similarity_threshold = 0.3;
        config.icrowd.warmup.num_qualification = 3;
        let paths: [(&str, &dyn Fn()); 3] = [
            ("prepare_campaign", &|| {
                let _ = prepare_campaign(&dataset, approach, &config);
            }),
            ("run_campaign", &|| {
                let _ = run_campaign(&dataset, approach, &config);
            }),
            ("CampaignEngine::new", &|| {
                let _ = CampaignEngine::new("table1", dataset.clone(), approach, config.clone());
            }),
        ];
        for (path, prepare) in paths {
            icrowd_obs::reset();
            icrowd_obs::enable();
            prepare();
            icrowd_obs::disable();
            let case = format!("{path}, {} with {}", approach.name(), qual.name());
            let built = icrowd_obs::span_histogram("index.build").map_or(0, |h| h.count());
            assert_eq!(built, builds, "index builds, {case}");
            assert_eq!(
                icrowd_obs::counter_value("ppr.solves"),
                builds * tasks,
                "PPR solves, {case}"
            );
        }
    }
    icrowd_obs::reset();
}
