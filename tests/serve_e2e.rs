//! End-to-end tests of the TCP serving layer: a campaign driven over
//! real sockets by the concurrent load generator must complete, keep
//! the marketplace accounting's conservation laws, and produce
//! consensus labels byte-identical to the in-process path at the same
//! seed.

use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use icrowd::platform::FaultConfig;
use icrowd::AssignStrategy;
use icrowd_serve::protocol::Request;
use icrowd_serve::server::MAX_LINE_BYTES;
use icrowd_serve::{
    client, run_loadgen, serve, CampaignEngine, Conn, LoadgenConfig, ServeConfig, ServerHandle,
};
use icrowd_sim::campaign::{
    labels_lines, run_campaign, Approach, CampaignConfig, CampaignResult, MetricChoice,
};
use icrowd_sim::datasets::table1;
use serde_json::Value;

/// A fast campaign configuration (table1, Jaccard, 3 gold tasks).
fn quick_config() -> CampaignConfig {
    let mut config = CampaignConfig {
        metric: MetricChoice::Jaccard,
        ..Default::default()
    };
    config.icrowd.similarity_threshold = 0.3;
    config.icrowd.warmup.num_qualification = 3;
    config
}

fn start(approach: Approach, max_conns: usize) -> ServerHandle {
    start_with(approach, quick_config(), max_conns)
}

fn start_with(approach: Approach, config: CampaignConfig, max_conns: usize) -> ServerHandle {
    let engine = CampaignEngine::new("table1", table1(), approach, config);
    serve(
        engine,
        &ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_conns,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port")
}

/// Drains `handle` and returns its result, failing (instead of hanging)
/// when `join` takes longer than `limit`.
fn shutdown_and_join_within(handle: ServerHandle, limit: Duration) -> CampaignResult {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = tx.send(handle.join());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("shutdown + join took longer than {limit:?}"))
}

/// The tentpole acceptance path: ≥8 concurrent loadgen workers drive a
/// served campaign to completion, the accounting balances, and the
/// final consensus is byte-identical to the in-process run. The same
/// run checks the telemetry plane: a `METRICS` scrape over TCP, the
/// serve spans with no invariant violation, and the `--metrics-every`
/// window stream.
#[test]
fn loadgen_campaign_matches_in_process_labels_byte_for_byte() {
    let approach = Approach::ICrowd(AssignStrategy::Adapt);
    let expected = run_campaign(&table1(), approach, &quick_config());

    // As `icrowd serve --metrics-every` does, arm the registry the
    // window emitter reads.
    icrowd_obs::enable();
    let windows = std::env::temp_dir().join(format!(
        "icrowd_serve_e2e_windows_{}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&windows).ok();
    let engine = CampaignEngine::new("table1", table1(), approach, quick_config());
    let handle = serve(
        engine,
        &ServeConfig {
            max_conns: 36,
            metrics_every_ms: 10,
            metrics_out: Some(windows.to_string_lossy().into_owned()),
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");

    let scrape = client::call_once(handle.addr(), &Request::Metrics);
    let report = run_loadgen(&LoadgenConfig {
        addr: handle.addr().to_string(),
        workers: 8,
        think_ms: 0,
        faults: None,
        shutdown: true,
        ..Default::default()
    });
    let served = handle.join();
    // Nothing above panics once the stream file exists, so removing it
    // here leaves nothing behind when an assertion below fails.
    let stream = std::fs::read_to_string(&windows);
    std::fs::remove_file(&windows).ok();
    let stream = stream.expect("the window stream was written");
    let report = report.expect("loadgen completes");

    let scrape = scrape.expect("METRICS");
    assert_eq!(scrape["ok"].as_bool(), Some(true), "{scrape:?}");
    assert_eq!(scrape["type"].as_str(), Some("metrics"), "{scrape:?}");
    assert_eq!(
        scrape["window"]["type"].as_str(),
        Some("window"),
        "{scrape:?}"
    );
    assert!(scrape["window"]["seq"].as_u64() >= Some(1), "{scrape:?}");
    assert!(report.complete, "campaign did not complete: {report:?}");
    assert!(report.balanced, "conservation law violated: {report:?}");
    assert_eq!(
        report.labels,
        labels_lines(&expected.labels),
        "served consensus diverged from the in-process path"
    );
    assert_eq!(labels_lines(&served.labels), labels_lines(&expected.labels));
    assert_eq!(served.answers, expected.answers);
    assert_eq!(served.spend_cents, expected.spend_cents);
    assert!(served.accounting.balanced());
    assert!(served.completed);
    assert!(report.requests > 0 && report.accepted > 0);

    let spans = icrowd_obs::snapshot().spans;
    for name in [
        "serve.accept",
        "serve.parse",
        "serve.request",
        "serve.submit",
        "serve.encode",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name && s.count > 0),
            "span {name} was not recorded"
        );
    }
    assert_eq!(
        icrowd_obs::counter_value("serve.invariant_violation"),
        0,
        "a submission broke the conservation law"
    );

    // Every line is a window and `seq` strictly increases; the METRICS
    // scrape took a number of its own, so it may skip.
    let mut last_seq = 0;
    let mut saw_conns = false;
    for line in stream.lines() {
        let w: Value = serde_json::from_str(line).expect("a window line is JSON");
        assert_eq!(w["type"].as_str(), Some("window"), "{line}");
        let seq = w["seq"].as_u64().expect("a window has a seq");
        assert!(seq > last_seq, "window seq {seq} after {last_seq}");
        last_seq = seq;
        for g in w["gauges"].as_array().expect("a window lists its gauges") {
            let bound = |k: &str| g[k].as_f64().unwrap_or_else(|| panic!("gauge {k}: {g:?}"));
            let (min, last, max) = (bound("min"), bound("last"), bound("max"));
            assert!(min <= last && last <= max, "gauge out of its bounds: {g:?}");
            saw_conns |= g["name"] == "serve.conns";
        }
    }
    assert!(last_seq > 0, "the window stream is empty");
    assert!(saw_conns, "no serve.conns gauge in the window stream");
}

/// Two threads racing the same submission: exactly one acceptance, one
/// duplicate rejection, and the accounting never double-counts (which
/// would show up as `balanced == false` — the double-payment detector).
#[test]
fn duplicate_submission_race_settles_exactly_once() {
    let handle = start(Approach::RandomMV, 16);
    let addr = handle.addr().to_string();

    // Find the worker whose turn is first and get her assignment.
    let mut assigned = None;
    'outer: for _ in 0..100 {
        for i in 1..=5u32 {
            let worker = format!("W{i}");
            let v = client::call_once(
                addr.as_str(),
                &Request::RequestTask {
                    worker: worker.clone(),
                },
            )
            .expect("poll");
            if v.get("type").and_then(Value::as_str) == Some("task") {
                assigned = Some((worker, v.get("task").and_then(Value::as_u64).unwrap()));
                break 'outer;
            }
        }
    }
    let (worker, task) = assigned.expect("some worker gets assigned");

    let barrier = Arc::new(Barrier::new(2));
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let worker = worker.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr.as_str()).expect("connect");
                barrier.wait();
                conn.call(&Request::SubmitAnswer {
                    worker,
                    task: icrowd_core::task::TaskId(task as u32),
                    answer: icrowd_core::answer::Answer(0),
                })
                .expect("submit")
            })
        })
        .collect();
    let verdicts: Vec<Value> = racers.into_iter().map(|t| t.join().unwrap()).collect();

    let results: Vec<&str> = verdicts
        .iter()
        .map(|v| v.get("result").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(
        results.iter().filter(|r| **r == "accepted").count(),
        1,
        "exactly one acceptance: {verdicts:?}"
    );
    assert_eq!(
        results.iter().filter(|r| **r == "rejected").count(),
        1,
        "exactly one rejection: {verdicts:?}"
    );
    let rejected = verdicts
        .iter()
        .find(|v| v.get("result").and_then(Value::as_str) == Some("rejected"))
        .unwrap();
    assert_eq!(
        rejected.get("reason").and_then(Value::as_str),
        Some("duplicate"),
        "{rejected:?}"
    );

    // The conservation law holds: both submissions counted, one each way.
    let status = client::call_once(addr.as_str(), &Request::Status).expect("status");
    assert_eq!(status["balanced"].as_bool(), Some(true), "{status:?}");
    let a = &status["accounting"];
    assert_eq!(a["submitted"].as_u64(), Some(2));
    assert_eq!(a["accepted"].as_u64(), Some(1));
    assert_eq!(a["rejected"].as_u64(), Some(1));

    handle.shutdown();
    let result = handle.join();
    assert!(result.accounting.balanced(), "no double payment at drain");
}

/// Backpressure: with both connection slots held, the acceptor rejects
/// the third connection with an explicit `BUSY` line instead of hanging
/// or resetting.
#[test]
fn overloaded_server_rejects_with_busy() {
    let handle = start(Approach::RandomMV, 2);
    let addr = handle.addr().to_string();

    // Hold both slots: a round trip guarantees each is being served.
    let mut conn1 = Conn::open(addr.as_str()).expect("conn1");
    conn1.call(&Request::Hello).expect("hello");
    let mut conn2 = Conn::open(addr.as_str()).expect("conn2");
    conn2.call(&Request::Hello).expect("hello");
    // Overflow: the acceptor must answer BUSY and close.
    let mut conn3 = Conn::open(addr.as_str()).expect("conn3");
    let v = conn3.call(&Request::Hello).expect("busy line");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{v:?}");
    assert_eq!(v.get("type").and_then(Value::as_str), Some("busy"), "{v:?}");

    // The held connection is still served, and counts itself open.
    let v = conn1.call(&Request::Status).expect("status on held conn");
    assert_eq!(v.get("type").and_then(Value::as_str), Some("status"));
    assert_eq!(v["conns"].as_u64(), Some(2), "{v:?}");

    handle.shutdown();
    let _ = handle.join();
}

/// A connection gives its slot back when it ends: with a cap of one,
/// the next connection is served once the held one closes, and again
/// once one is evicted: idle after half a line, trickling bytes that
/// never end a line (the slow-loris guards), or flooding past the line
/// cap.
#[test]
fn a_closed_or_evicted_connection_frees_its_slot() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::net::TcpStream;

    let engine = CampaignEngine::new("table1", table1(), Approach::RandomMV, quick_config());
    let handle = serve(
        engine,
        &ServeConfig {
            max_conns: 1,
            idle_timeout_ms: 300,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let reply = |stream: &TcpStream| {
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).expect("reply");
        line
    };
    // Opens a connection and returns it once the server serves it. A
    // slot frees when its thread sees the connection end; until then
    // the reply is BUSY.
    let hold = || {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stream = TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            (&stream).write_all(b"{\"op\":\"HELLO\"}\n").unwrap();
            let line = reply(&stream);
            if line.contains("\"hello\"") {
                return stream;
            }
            assert!(
                line.contains("\"busy\"") && Instant::now() < deadline,
                "slot never freed: {line}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    let held = hold();
    let v = client::call_once(addr.as_str(), &Request::Hello).expect("busy line");
    assert_eq!(v.get("type").and_then(Value::as_str), Some("busy"), "{v:?}");
    drop(held);

    // Half a request line, then silence: partial bytes do not reset the
    // idle deadline, so the server evicts the connection with a notice.
    let idle = hold();
    (&idle).write_all(b"{\"op\":").unwrap();
    let line = reply(&idle);
    assert!(line.contains("idle timeout"), "{line}");
    drop(idle);

    // Bytes that never make a line: a flood passes the line cap, and the
    // reply names the cap; a trickle outlasts the idle deadline though
    // every read returns data. Either way the server answers, closes and
    // frees the slot. Each writer gives up on its own after a few seconds
    // and the reply's read times out, so a server that never evicts such
    // a client fails this instead of hanging it.
    for (chunk, pause, expect) in [
        (64 * 1024, Duration::ZERO, MAX_LINE_BYTES.to_string()),
        (1, Duration::from_millis(20), "idle timeout".to_owned()),
    ] {
        let stream = hold();
        let writer = {
            let stream = stream.try_clone().expect("clone the stream");
            std::thread::spawn(move || {
                let bytes = vec![b'x'; chunk];
                let deadline = Instant::now() + Duration::from_secs(5);
                while Instant::now() < deadline && (&stream).write_all(&bytes).is_ok() {
                    std::thread::sleep(pause);
                }
            })
        };
        let line = reply(&stream);
        assert!(
            line.contains("\"error\"") && line.contains(&expect),
            "{line}"
        );
        writer
            .join()
            .expect("the writer ends once the server closes");
    }
    drop(hold());

    shutdown_and_join_within(handle, Duration::from_secs(2));
}

/// Drain never waits on traffic: `shutdown` wakes an `accept` that no
/// client ever reached, and ends an idle persistent connection.
#[test]
fn shutdown_and_join_return_promptly() {
    let handle = start(Approach::RandomMV, 4);
    let result = shutdown_and_join_within(handle, Duration::from_secs(2));
    assert_eq!(result.answers, 0);
    assert!(result.accounting.balanced());

    let handle = start(Approach::RandomMV, 4);
    let mut idle = Conn::open(handle.addr().to_string().as_str()).expect("connect");
    idle.call(&Request::Hello).expect("hello");
    shutdown_and_join_within(handle, Duration::from_secs(2));
    // The drained server closed the idle connection.
    assert!(idle.call(&Request::Hello).is_err());
}

/// An unopenable metrics output fails `serve` up front, naming the
/// path, instead of quietly streaming the windows to stderr.
#[test]
fn serve_refuses_an_unopenable_metrics_out() {
    let path = std::env::temp_dir()
        .join("icrowd_serve_no_such_dir")
        .join("windows.jsonl");
    let engine = CampaignEngine::new("table1", table1(), Approach::RandomMV, quick_config());
    let err = serve(
        engine,
        &ServeConfig {
            metrics_every_ms: 100,
            metrics_out: Some(path.to_string_lossy().into_owned()),
            ..Default::default()
        },
    )
    .err()
    .expect("a metrics output under a missing directory is an error");
    assert!(
        err.to_string().contains(path.to_string_lossy().as_ref()),
        "{err}"
    );
}

/// Malformed protocol lines get an error response; the connection (and
/// the campaign) survive.
#[test]
fn malformed_requests_get_error_responses_not_resets() {
    let handle = start(Approach::RandomMV, 16);
    let addr = handle.addr().to_string();

    use std::io::{BufRead as _, BufReader, Write as _};
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for bad in [
        "this is not json",
        "{\"op\":\"EXPLODE\"}",
        "{\"no\":\"op\"}",
    ] {
        writer.write_all(bad.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v: Value = serde_json::from_str(&line).expect("error response parses");
        assert_eq!(v["ok"].as_bool(), Some(false), "{line}");
    }
    // Same connection still serves valid requests afterwards.
    writer.write_all(b"{\"op\":\"HELLO\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(&line).unwrap();
    assert_eq!(v["type"].as_str(), Some("hello"));
    assert_eq!(v["dataset"].as_str(), Some("table1"));

    handle.shutdown();
    let _ = handle.join();
}

/// Client-side fault injection: duplicate submissions are rejected as
/// strays, the campaign still completes, and consensus is unchanged —
/// duplicates must never alter labels or double-pay. That holds too when
/// the server's own fault plan drops the submission a copy duplicates:
/// the server still holds that assignment, and must not take the copy.
#[test]
fn loadgen_duplicates_do_not_perturb_consensus() {
    let approach = Approach::RandomMV;
    let drops = FaultConfig {
        seed: 2,
        drop_rate: 0.1,
        ..Default::default()
    };
    for server_faults in [None, Some(drops)] {
        let config = CampaignConfig {
            faults: server_faults.clone(),
            ..quick_config()
        };
        let expected = run_campaign(&table1(), approach, &config);
        let handle = start_with(approach, config, 36);
        let report = run_loadgen(&LoadgenConfig {
            addr: handle.addr().to_string(),
            workers: 8,
            think_ms: 0,
            faults: Some(icrowd_serve::ClientFaultConfig {
                dup: 0.5,
                late: 0.0,
                late_ms: 0,
                seed: 11,
            }),
            shutdown: true,
            ..Default::default()
        })
        .expect("loadgen completes");
        let served = handle.join();

        assert!(report.balanced, "server faults {server_faults:?}");
        assert!(report.dups_sent > 0, "fault plan injected no duplicates");
        assert!(
            served.accounting.answers_rejected >= report.dups_sent,
            "every duplicate copy must be rejected: {:?} vs {} dups, server faults {server_faults:?}",
            served.accounting,
            report.dups_sent
        );
        assert_eq!(
            labels_lines(&served.labels),
            labels_lines(&expected.labels),
            "duplicates changed the consensus, server faults {server_faults:?}"
        );
        assert_eq!(served.answers, expected.answers, "{server_faults:?}");
        assert_eq!(served.completed, expected.completed, "{server_faults:?}");
        assert!(served.accounting.balanced(), "{:?}", served.accounting);
    }
}
