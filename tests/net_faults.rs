//! Network faults end in a clean retry or a clean error — never a
//! hang. The chaos proxy sits between a real served campaign and the
//! hardened load generator; a fully blackholed network must surface a
//! bounded-time error, and a resetting one must still converge to the
//! baseline labels through clean reconnects.

use std::time::{Duration, Instant};

use icrowd::core::ICrowdConfig;
use icrowd_serve::{
    run_loadgen, serve, CampaignEngine, ChaosProxy, ChaosProxyConfig, LoadgenConfig, ServeConfig,
};
use icrowd_sim::campaign::{labels_lines, run_campaign, Approach, CampaignConfig, MetricChoice};
use icrowd_sim::datasets::table1;

fn config() -> CampaignConfig {
    let mut icrowd = ICrowdConfig {
        assignment_size: 3,
        similarity_threshold: 0.3,
        ..Default::default()
    };
    icrowd.warmup.num_qualification = 3;
    CampaignConfig {
        seed: 42,
        icrowd,
        metric: MetricChoice::Jaccard,
        ..Default::default()
    }
}

/// Regression for the blackhole hang: before the loadgen grew I/O
/// timeouts and the no-progress watchdog, a proxy that swallowed every
/// byte would wedge the client forever. Now it must return a clean
/// error in bounded time.
#[test]
fn blackholed_network_surfaces_a_clean_error_in_bounded_time() {
    let engine = CampaignEngine::new("table1", table1(), Approach::RandomMV, config());
    let handle = serve(engine, &ServeConfig::default()).expect("bind server");
    let proxy = ChaosProxy::start(
        handle.addr(),
        ChaosProxyConfig::parse("blackhole=1.0,seed=3").expect("spec parses"),
    )
    .expect("bind proxy");

    let started = Instant::now();
    let err = run_loadgen(&LoadgenConfig {
        addr: proxy.addr().to_string(),
        workers: 2,
        give_up_ms: 1_000,
        io_timeout_ms: 200,
        ..Default::default()
    })
    .expect_err("a fully blackholed network must surface an error, not hang");
    let elapsed = started.elapsed();

    assert!(
        elapsed < Duration::from_secs(30),
        "blackhole error took {elapsed:?}; the watchdog should bound it"
    );
    assert!(!err.is_empty(), "error carries no diagnostic");
    let stats = proxy.stop();
    assert!(stats.blackholed > 0, "proxy never blackholed a connection");
    handle.shutdown();
    handle.join();
}

/// Connection resets are transport damage, not protocol failures: the
/// loadgen reconnects and the campaign still converges byte-for-byte to
/// the baseline labels with balanced books.
#[test]
fn resetting_proxy_still_converges_to_baseline_labels() {
    let expected = run_campaign(&table1(), Approach::RandomMV, &config());
    let baseline = labels_lines(&expected.labels);

    let engine = CampaignEngine::new("table1", table1(), Approach::RandomMV, config());
    let handle = serve(engine, &ServeConfig::default()).expect("bind server");
    let proxy = ChaosProxy::start(
        handle.addr(),
        ChaosProxyConfig::parse("reset=0.3,seed=11").expect("spec parses"),
    )
    .expect("bind proxy");

    let report = run_loadgen(&LoadgenConfig {
        addr: proxy.addr().to_string(),
        workers: 4,
        io_timeout_ms: 500,
        give_up_ms: 60_000,
        ..Default::default()
    })
    .expect("loadgen rides through resets");
    let result = handle.join();
    let stats = proxy.stop();

    assert!(report.complete, "campaign incomplete under resets");
    assert!(report.balanced, "accounting unbalanced under resets");
    assert!(result.accounting.balanced());
    assert_eq!(
        report.labels, baseline,
        "labels diverged from baseline under resets"
    );
    assert!(stats.resets > 0, "proxy never reset a connection");
}
