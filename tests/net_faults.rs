//! Network faults end in a clean retry or a clean error — never a
//! hang. The chaos proxy sits between a real served campaign and the
//! hardened load generator; a fully blackholed network must surface a
//! bounded-time error, and a table of latency, bandwidth, reset,
//! blackhole, corruption and storm rows must each still complete with
//! balanced books, converging to the baseline labels through clean
//! reconnects.

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
        ChaosProxyConfig {
            seed: 3,
            blackhole_rate: 1.0,
            ..Default::default()
        },
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

/// Serves the campaign behind a chaos proxy and drives it with the
/// hardened loadgen. Every injected fault must end in a clean retry:
/// the campaign completes with balanced books in the loadgen's report
/// and in `finalize`, the server counts no invariant violation, and the
/// labels match the baseline. Corruption can garble a line into
/// different but valid JSON (a stray vote), so a corrupting row claims
/// completion and balance, not label parity. A row that resets,
/// blackholes or corrupts must have done so: each draw is a function of
/// the seed and the connection's index, so whether it fires does not
/// depend on timing once the campaign has opened a few dozen
/// connections.
fn run_row(name: &str, proxy: ChaosProxyConfig, baseline: &str) {
    let engine = CampaignEngine::new("table1", table1(), Approach::RandomMV, config());
    let handle = serve(engine, &ServeConfig::default()).expect("bind server");
    let chaos = ChaosProxy::start(handle.addr(), proxy.clone()).expect("bind proxy");

    let report = run_loadgen(&LoadgenConfig {
        addr: chaos.addr().to_string(),
        workers: 4,
        // Short I/O deadline so blackholed connections surface as clean
        // retries quickly; the watchdog bounds the whole run.
        io_timeout_ms: 200,
        give_up_ms: 60_000,
        ..Default::default()
    })
    .unwrap_or_else(|e| panic!("loadgen failed under {name}: {e}"));
    // The loadgen's SHUTDOWN went through the proxy, which may have
    // lost it; draining from this side cannot hang on that.
    handle.shutdown();
    let result = handle.join();
    let stats = chaos.stop();

    assert!(report.complete, "incomplete under {name}: {report:?}");
    assert!(report.balanced, "loadgen saw unbalanced books under {name}");
    let books = result.accounting;
    assert!(books.balanced(), "unbalanced under {name}: {books:?}");
    if proxy.corrupt_rate == 0.0 {
        assert_eq!(report.labels, baseline, "labels diverged under {name}");
    }
    assert_eq!(
        icrowd_obs::counter_value("serve.invariant_violation"),
        0,
        "invariant violations under {name}"
    );
    if proxy.reset_rate + proxy.blackhole_rate + proxy.corrupt_rate > 0.0 {
        assert!(
            stats.resets + stats.blackholed + stats.corrupted > 0,
            "no fault fired under {name}: {stats:?}"
        );
    }
}

/// The network-fault table at seed 7: latency, a bandwidth cap,
/// resets, blackholes, corruption and a storm of three faults at once,
/// each behind its own server, proxy and loadgen, run side by side.
#[test]
fn every_proxy_fault_ends_in_a_clean_retry_with_balanced_books() {
    let expected = run_campaign(&table1(), Approach::RandomMV, &config());
    let baseline = labels_lines(&expected.labels);
    let rows = [
        (
            "latency",
            ChaosProxyConfig {
                latency_up_ms: 2,
                latency_down_ms: 1,
                ..Default::default()
            },
        ),
        (
            "bandwidth",
            ChaosProxyConfig {
                bandwidth_bps: 262_144,
                ..Default::default()
            },
        ),
        (
            "reset",
            ChaosProxyConfig {
                reset_rate: 0.25,
                ..Default::default()
            },
        ),
        (
            "blackhole",
            ChaosProxyConfig {
                blackhole_rate: 0.25,
                ..Default::default()
            },
        ),
        (
            "corrupt",
            ChaosProxyConfig {
                corrupt_rate: 0.05,
                ..Default::default()
            },
        ),
        (
            "storm",
            ChaosProxyConfig {
                latency_up_ms: 1,
                latency_down_ms: 1,
                reset_rate: 0.1,
                blackhole_rate: 0.1,
                ..Default::default()
            },
        ),
    ];
    std::thread::scope(|scope| {
        for (name, proxy) in rows {
            let baseline = baseline.as_str();
            scope.spawn(move || run_row(name, ChaosProxyConfig { seed: 7, ..proxy }, baseline));
        }
    });
}

/// Connection resets are transport damage, not protocol failures: the
/// loadgen reconnects and the campaign still converges byte-for-byte to
/// the baseline labels with balanced books.
#[test]
fn resetting_proxy_still_converges_to_baseline_labels() {
    let expected = run_campaign(&table1(), Approach::RandomMV, &config());
    let proxy = ChaosProxyConfig {
        seed: 11,
        reset_rate: 0.3,
        ..Default::default()
    };
    run_row("reset 0.3", proxy, &labels_lines(&expected.labels));
}
