//! Kill-and-recover end-to-end tests: a journaled served campaign that
//! dies mid-flight must recover from its journal and finish with
//! consensus labels byte-identical to an uninterrupted run — with every
//! answer accepted exactly once, even though clients re-submit across
//! the restart.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use icrowd_platform::journal::{crc32, encode_record, JournalRecord, JOURNAL_VERSION};
use icrowd_platform::market::WorkerBehavior;
use icrowd_serve::protocol::Request;
use icrowd_serve::{
    client, recover, run_loadgen, serve, CampaignEngine, LoadgenConfig, Response, ServeConfig,
};
use icrowd_sim::campaign::{labels_lines, run_campaign, Approach, CampaignConfig, MetricChoice};
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

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("icrowd_crash_{name}_{}", std::process::id()))
}

/// Publishes the server address for `--addr-file` clients: write to a
/// temp file, then rename — readers never observe a partial write.
fn publish_addr(addr_file: &PathBuf, addr: &str) {
    let staged = addr_file.with_extension("tmp");
    std::fs::write(&staged, addr).expect("write addr file");
    std::fs::rename(&staged, addr_file).expect("publish addr file");
}

/// Drives a [`quick_config`] table1 campaign through the request
/// interface for at most `rounds` rounds: each simulated worker in turn
/// polls and answers what it is assigned. `after_poll` runs after every
/// poll and stops the drive by returning false. Returns whether every
/// worker left, i.e. the campaign ran to its end.
fn drive(engine: &CampaignEngine, rounds: usize, mut after_poll: impl FnMut() -> bool) -> bool {
    let ds = table1();
    let sims = ds.spawn_workers(quick_config().seed);
    let mut sims: Vec<_> = sims.into_iter().map(Some).collect();
    for _round in 0..rounds {
        let mut live = false;
        for (i, slot) in sims.iter_mut().enumerate() {
            let Some(sim) = slot.as_mut() else {
                continue;
            };
            let worker = format!("W{}", i + 1);
            match engine.handle(
                &Request::RequestTask {
                    worker: worker.clone(),
                },
                0,
            ) {
                Response::Task(task) => {
                    live = true;
                    let answer = sim.answer(&ds.tasks[task]);
                    engine.handle(
                        &Request::SubmitAnswer {
                            worker,
                            task,
                            answer,
                        },
                        0,
                    );
                }
                Response::Wait | Response::Declined { retry: true } => live = true,
                _ => *slot = None,
            }
            if !after_poll() {
                return false;
            }
        }
        if !live {
            return true;
        }
    }
    false
}

/// S1 regression: restart the server mid-campaign. The loadgen rides
/// through the outage (backoff + addr-file re-resolution), re-submits
/// idempotently, and the recovered campaign ends byte-identical to the
/// in-process baseline with exactly-once accepted answers.
#[test]
fn journaled_serve_restart_preserves_exactly_once_and_labels() {
    let approach = Approach::RandomMV;
    let expected = run_campaign(&table1(), approach, &quick_config());

    let journal = tmp("restart.journal");
    let addr_file = tmp("restart.addr");
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&addr_file).ok();

    let engine = CampaignEngine::new("table1", table1(), approach, quick_config());
    engine
        .start_journal(&journal, 1, 8)
        .expect("journal starts");
    let handle = serve(engine, &ServeConfig::default()).expect("bind ephemeral port");
    publish_addr(&addr_file, &handle.addr().to_string());

    let loadgen_config = LoadgenConfig {
        addr: String::new(),
        addr_file: Some(addr_file.to_string_lossy().into_owned()),
        workers: 4,
        ..Default::default()
    };
    let (tx, rx) = mpsc::channel();
    let loadgen = {
        let config = loadgen_config;
        std::thread::spawn(move || {
            let _ = tx.send(run_loadgen(&config));
        })
    };

    // Let the campaign make real progress, then kill the first server.
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = handle.addr().to_string();
    loop {
        assert!(
            Instant::now() < deadline,
            "campaign made no progress before the crash point"
        );
        if let Ok(status) = client::call_once(addr.as_str(), &Request::Status) {
            let accepted = status
                .get("accounting")
                .and_then(|a| a.get("accepted"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
            if accepted >= 3 {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
    let interrupted = handle.join(); // partial result — discarded
    assert!(!interrupted.completed, "crash point was after completion");

    // Recover from the journal and resume serving on a fresh port.
    let (recovered, report) = recover(&journal, "table1", table1(), approach, quick_config(), 1, 8)
        .expect("recovery succeeds");
    assert!(report.ops_replayed > 0, "nothing was journaled: {report:?}");
    let handle = serve(recovered, &ServeConfig::default()).expect("rebind");
    publish_addr(&addr_file, &handle.addr().to_string());

    loadgen.join().expect("loadgen thread");
    let lg = rx
        .recv()
        .expect("loadgen result")
        .expect("loadgen completes");
    let served = handle.join();

    assert!(lg.complete, "campaign did not complete: {lg:?}");
    assert!(lg.balanced, "conservation law violated: {lg:?}");
    assert!(
        lg.retries > 0,
        "the restart produced no client retries — the outage was not exercised"
    );
    assert_eq!(
        lg.labels.as_deref(),
        Some(labels_lines(&expected.labels).as_str()),
        "recovered consensus diverged from the uninterrupted baseline"
    );
    assert_eq!(
        served.answers, expected.answers,
        "accepted answers not exactly-once across the restart"
    );
    assert_eq!(labels_lines(&served.labels), labels_lines(&expected.labels));
    assert!(served.accounting.balanced());

    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&addr_file).ok();
}

/// A torn tail (garbage appended by a crash mid-write) is truncated on
/// recovery; the surviving prefix still replays to the exact state.
#[test]
fn recovery_truncates_torn_tail_and_preserves_state() {
    let approach = Approach::RandomMV;
    let journal = tmp("torn.journal");
    std::fs::remove_file(&journal).ok();

    let config = quick_config();
    let engine = CampaignEngine::new("table1", table1(), approach, config.clone());
    engine.start_journal(&journal, 1, 4).expect("journal");

    // Drive a few assignments through the request interface.
    drive(&engine, 4, || engine.checkpoint().1 < 6);
    let checkpoint = engine.checkpoint();
    assert!(checkpoint.1 > 0, "no answers accepted");
    drop(engine); // crash without finalize

    // Simulate a torn write: half a frame of garbage at the tail.
    let clean_len = std::fs::metadata(&journal).unwrap().len();
    let mut bytes = std::fs::read(&journal).unwrap();
    bytes.extend_from_slice(&[0x42, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe]);
    std::fs::write(&journal, &bytes).unwrap();

    let (recovered, report) = recover(&journal, "table1", table1(), approach, config, 1, 4)
        .expect("recovery succeeds despite the torn tail");
    assert_eq!(report.truncated_bytes, 7, "{report:?}");
    assert_eq!(recovered.checkpoint(), checkpoint, "state diverged");
    assert_eq!(
        std::fs::metadata(&journal).unwrap().len(),
        clean_len,
        "torn tail was not cut off the file"
    );
    let result = recovered.finalize();
    assert!(result.accounting.balanced());
    std::fs::remove_file(&journal).ok();
}

/// Recovery refuses to resume a journal under a different campaign
/// identity (here: a different approach at the same seed).
#[test]
fn recovery_refuses_a_journal_for_a_different_campaign() {
    let journal = tmp("identity.journal");
    std::fs::remove_file(&journal).ok();
    let engine = CampaignEngine::new("table1", table1(), Approach::RandomMV, quick_config());
    engine.start_journal(&journal, 1, 0).expect("journal");
    engine.handle(
        &Request::RequestTask {
            worker: "W1".into(),
        },
        0,
    );
    drop(engine);

    match recover(
        &journal,
        "table1",
        table1(),
        Approach::RandomEM,
        quick_config(),
        1,
        0,
    ) {
        Err(e) => assert!(e.contains("header mismatch"), "{e}"),
        Ok(_) => panic!("a RandomMV journal must not recover as RandomEM"),
    }
    std::fs::remove_file(&journal).ok();
}

/// The journal is append-only: every checkpoint written during the
/// campaign is still in the file at the end, byte for byte where it was
/// written, and recovery verifies each one. The recovered engine's
/// STATUS counts the same checkpoints the live engine wrote.
#[test]
fn the_journal_is_append_only_and_every_checkpoint_is_verified() {
    let approach = Approach::RandomMV;
    let config = quick_config();
    let expected = run_campaign(&table1(), approach, &config);
    let journal = tmp("append_only.journal");
    std::fs::remove_file(&journal).ok();

    let engine = CampaignEngine::new("table1", table1(), approach, config.clone());
    engine.start_journal(&journal, 1, 2).expect("journal");
    let snapshots = || engine.journal_health().expect("journal attached").snapshots;

    // Drive the campaign to its end, copying the file each time a
    // checkpoint lands.
    let mut copies = Vec::new();
    let finished = drive(&engine, 10_000, || {
        if snapshots() > copies.len() as u64 {
            copies.push(std::fs::read(&journal).expect("read journal"));
        }
        true
    });
    assert!(finished, "the campaign did not finish");
    assert_eq!(engine.labels(), labels_lines(&expected.labels));
    let written = snapshots();
    assert!(written >= 3, "only {written} checkpoints written");
    assert_eq!(copies.len() as u64, written);
    drop(engine);

    let bytes = std::fs::read(&journal).expect("read journal");
    let rewritten = copies.iter().position(|c| !bytes.starts_with(c));
    assert_eq!(rewritten, None, "the file at that checkpoint was rewritten");

    let (recovered, report) =
        recover(&journal, "table1", table1(), approach, config, 1, 2).expect("recovery succeeds");
    assert_eq!(report.snapshots_verified as u64, written, "{report:?}");
    assert_eq!(report.truncated_bytes, 0);
    let status = recovered.handle(&Request::Status, 0).to_value();
    let recorded = status
        .get("journal")
        .and_then(|j| j.get("snapshots"))
        .and_then(Value::as_u64);
    assert_eq!(recorded, Some(written), "{status:?}");
    assert_eq!(std::fs::read(&journal).expect("read journal"), bytes);
    std::fs::remove_file(&journal).ok();
}

/// A format-1 journal (which may hold a compaction `batch` frame the
/// current reader no longer knows) is refused at the header check,
/// naming both versions, and left byte for byte as it was.
#[test]
fn recovery_refuses_a_v1_journal_and_leaves_it_intact() {
    let journal = tmp("v1.journal");
    let mut header = CampaignEngine::expected_header("table1", Approach::RandomMV, &quick_config());
    header.version = 1;
    let mut bytes = encode_record(&JournalRecord::Header(header)).expect("encode header");
    let batch = br#"{"t":"batch","ops":[{"t":"poll","w":"W1","o":"wait"},{"t":"pump"}]}"#;
    bytes.extend((batch.len() as u32).to_le_bytes());
    bytes.extend(crc32(batch).to_le_bytes());
    bytes.extend(batch);
    std::fs::write(&journal, &bytes).unwrap();

    let err = recover(
        &journal,
        "table1",
        table1(),
        Approach::RandomMV,
        quick_config(),
        1,
        0,
    )
    .err()
    .expect("a version-1 journal must be refused");
    let v2 = format!("format v{JOURNAL_VERSION}");
    assert!(err.contains("format v1") && err.contains(&v2), "{err}");
    assert_eq!(
        std::fs::read(&journal).unwrap(),
        bytes,
        "a refused journal was modified"
    );
    std::fs::remove_file(&journal).ok();
}
