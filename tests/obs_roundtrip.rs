//! The metrics plane's wire formats, round-tripped: trace events must
//! survive JSONL export → parse intact (the `icrowd obs` analyzer and
//! any external tooling read exactly these lines), window reports must
//! be valid JSON, and — the invariant the whole plane hangs on —
//! telemetry must never change consensus labels. The plane also counts
//! the offline work: every path that prepares a campaign builds its
//! linearity index at most once.

use icrowd::AssignStrategy;
use icrowd_serve::CampaignEngine;
use icrowd_sim::campaign::{
    labels_lines, prepare_campaign, run_campaign, Approach, CampaignConfig, MetricChoice,
    QualStrategy,
};
use icrowd_sim::datasets::table1;
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
        let _engine = icrowd_obs::TraceSpan::start("engine.request");
        {
            let _driver = icrowd_obs::TraceSpan::start("driver.poll");
        }
        let _journal = icrowd_obs::TraceSpan::start("journal.append");
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
