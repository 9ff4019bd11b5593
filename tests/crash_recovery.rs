//! Kill-and-recover end-to-end tests: a journaled served campaign that
//! dies mid-flight must recover from its journal and finish with
//! consensus labels byte-identical to an uninterrupted run — with every
//! answer accepted exactly once, even though clients re-submit across
//! the restart.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use icrowd_platform::journal::{encode_record, JournalOp, JournalRecord};
use icrowd_platform::market::WorkerBehavior;
use icrowd_platform::PollOutcome;
use icrowd_serve::protocol::{response_line, Request};
use icrowd_serve::{client, recover, run_loadgen, CampaignEngine, LoadgenConfig, Response};
use icrowd_sim::campaign::{labels_lines, run_campaign, Approach, CampaignConfig, MetricChoice};
use icrowd_sim::datasets::table1;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// A directory of one test's own for its scratch files, removed with
/// everything in it when the guard drops, so a failing test leaves
/// nothing behind either.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("icrowd_crash_{test}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        ScratchDir(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Publishes the server address for `--addr-file` clients: write to a
/// temp file, then rename — readers never observe a partial write.
fn publish_addr(addr_file: &Path, addr: &str) {
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
                Response::Poll(PollOutcome::Assigned(task)) => {
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
                Response::Poll(PollOutcome::Wait | PollOutcome::Declined { retry: true }) => {
                    live = true
                }
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

/// The campaign the SIGKILL test's child serves: [`quick_config`] on
/// table1 under RandomMV, as CLI flags.
const SERVE_ARGS: [&str; 21] = [
    "serve",
    "--dataset",
    "table1",
    "--approach",
    "random-mv",
    "--seed",
    "42",
    "--k",
    "3",
    "--threshold",
    "0.3",
    "--metric",
    "jaccard",
    "--q",
    "3",
    "--addr",
    "127.0.0.1:0",
    "--fsync",
    "1",
    "--snapshot-every",
    "8",
];

/// The SIGKILL test's served child. The test re-runs this test binary
/// as `<binary> serve_child --exact --nocapture -- serve ...`: libtest
/// then runs only this test, which serves the command line after `--`
/// through the CLI and prints what the `icrowd` binary would. In any
/// other run there is no such command line and it returns at once.
#[test]
fn serve_child() {
    let args: Vec<String> = std::env::args().skip_while(|a| a != "--").skip(1).collect();
    if args.first().map(String::as_str) != Some("serve") {
        return;
    }
    let args = icrowd_cli::Args::parse(args).expect("the child's command line parses");
    let mut notify = |line: &str| {
        println!("{line}");
        std::io::stdout().flush().ok();
    };
    let out = icrowd_cli::run_with(&args, &mut notify).expect("the child serves to its end");
    print!("{out}");
}

/// A served child process, SIGKILLed on drop so a failing test never
/// leaks one. A thread forwards its stdout lines until it exits.
struct ServedChild {
    process: Option<Child>,
    lines: mpsc::Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl ServedChild {
    /// Starts a child serving on a fresh `journal`, or recovering it.
    fn spawn(journal: &Path, recover: bool, labels_out: &Path, telemetry_out: &Path) -> Self {
        let mut process = Command::new(std::env::current_exe().expect("test binary path"))
            .args(["serve_child", "--exact", "--nocapture", "--"])
            .args(SERVE_ARGS)
            .arg(if recover { "--recover" } else { "--journal" })
            .arg(journal)
            .arg("--labels-out")
            .arg(labels_out)
            .arg("--telemetry")
            .arg(telemetry_out)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the served child");
        let stdout = process.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    return;
                }
            }
        });
        ServedChild {
            process: Some(process),
            lines,
            reader: Some(reader),
        }
    }

    /// The first stdout line holding `marker`. libtest prints
    /// `test serve_child ... ` on the line the child's first output
    /// lands on, so the marker is found anywhere in a line.
    fn line_with(&self, marker: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) if line.contains(marker) => return line,
                Ok(_) => {}
                Err(e) => panic!("the served child printed no `{marker}` line: {e}"),
            }
        }
    }

    fn kill(&mut self) {
        if let Some(mut process) = self.process.take() {
            let _ = process.kill(); // SIGKILL: no cleanup runs
            let _ = process.wait();
        }
    }

    /// Sends `SHUTDOWN` (a refused connection means the child is
    /// draining already) and waits for the child to exit cleanly.
    fn drain(&mut self, addr: &str) {
        let _ = client::call_once(addr, &Request::Shutdown);
        let mut process = self.process.take().expect("child running");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = process.try_wait().expect("poll the served child") {
                break status;
            }
            if Instant::now() > deadline {
                let _ = process.kill();
                let _ = process.wait();
                panic!("the served child did not exit after SHUTDOWN");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(status.success(), "the served child failed: {status}");
    }
}

impl Drop for ServedChild {
    fn drop(&mut self) {
        self.kill();
        // The child is gone, so its stdout is at EOF and the reader ends.
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The word after `marker` in `line`.
fn word_after<'a>(line: &'a str, marker: &str) -> &'a str {
    let (_, rest) = line
        .split_once(marker)
        .unwrap_or_else(|| panic!("no `{marker}` in: {line}"));
    rest.split(' ').next().unwrap_or_default()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Tears the journal's tail the way a crash mid-write leaves it,
/// cycling by kill through garbage, a clean tail and a frame cut
/// short. Only bytes past the last written frame are touched: a frame
/// on disk may already be acknowledged, and cutting one would undo an
/// answer the client saw accepted. Returns the bytes appended.
fn tear(journal: &Path, kill: usize, rng: &mut StdRng) -> usize {
    let tail: Vec<u8> = match kill % 3 {
        1 => (0..rng.gen_range(1..40)).map(|_| rng.gen()).collect(),
        2 => return 0,
        _ => {
            let frame = encode_record(&JournalRecord::Op(JournalOp::Pump));
            frame[..rng.gen_range(1..frame.len())].to_vec()
        }
    };
    std::fs::OpenOptions::new()
        .append(true)
        .open(journal)
        .and_then(|mut f| f.write_all(&tail))
        .expect("tear the journal tail");
    tail.len()
}

/// Real processes, real SIGKILLs: a journaled `icrowd serve` child is
/// killed three times mid-campaign, each time at a random point 250 to
/// 500 journal bytes into its run, its journal tail torn (garbage,
/// clean, a frame cut short), and restarted with `--recover`. One
/// loadgen follows `--addr-file` across every restart and re-submits
/// idempotently. The campaign must end byte-identical to the
/// uninterrupted baseline, with every accepted answer counted exactly
/// once and no invariant violation.
#[test]
fn journaled_serve_restart_preserves_exactly_once_and_labels() {
    const KILLS: usize = 3;
    let expected = run_campaign(&table1(), Approach::RandomMV, &quick_config());
    let baseline = labels_lines(&expected.labels);
    let dir = ScratchDir::new("kill");
    let [journal, addr_file, labels_out, telemetry_out] =
        ["journal", "addr", "labels", "telemetry"].map(|name| dir.file(name));

    let (tx, rx) = mpsc::channel();
    let loadgen = {
        let config = LoadgenConfig {
            addr: String::new(),
            addr_file: Some(addr_file.to_string_lossy().into_owned()),
            workers: 4,
            // Paces the campaign so every kill lands mid-flight.
            think_ms: 30,
            give_up_ms: 60_000,
            ..Default::default()
        };
        std::thread::spawn(move || {
            let _ = tx.send(run_loadgen(&config));
        })
    };

    let mut rng = StdRng::seed_from_u64(20150531);
    let (mut kills, mut torn, mut appended, mut replayed) = (0, 0, 0, 0);
    let (report, served_answers) = loop {
        let mut child = ServedChild::spawn(&journal, kills > 0, &labels_out, &telemetry_out);
        if kills > 0 {
            // "recovered N ops from <path> (S snapshots verified, T torn
            // bytes truncated, ...)": every op the killed child journaled
            // survives, and the torn tail is cut.
            let line = child.line_with("recovered ");
            let ops: u64 = word_after(&line, "recovered ").parse().expect(&line);
            let cut: usize = word_after(&line, "verified, ").parse().expect(&line);
            assert!(
                ops > replayed,
                "recovery {kills} replayed {ops} ops, not more than the {replayed} before"
            );
            assert!(
                cut >= appended,
                "recovery cut {cut} of {appended} torn bytes"
            );
            replayed = ops;
            torn += usize::from(appended > 0);
        }
        let banner = child.line_with("icrowd-serve listening on ");
        let addr = word_after(&banner, "listening on ").to_owned();
        publish_addr(&addr_file, &addr);
        let done = if kills < KILLS {
            let kill_at = file_len(&journal) + rng.gen_range(250u64..500);
            let deadline = Instant::now() + Duration::from_secs(15);
            let mut done = rx.try_recv().ok();
            while done.is_none() && file_len(&journal) < kill_at && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
                done = rx.try_recv().ok();
            }
            done
        } else {
            let report = rx.recv_timeout(Duration::from_secs(120));
            Some(report.expect("the loadgen did not finish after the last recovery"))
        };
        if let Some(report) = done {
            child.drain(&addr);
            let summary = child.line_with("answers: ");
            break (report, word_after(&summary, "answers: ").to_owned());
        }
        child.kill();
        // Stay down for a few think times, so the workers' next
        // exchanges meet the outage: a restart quicker than every
        // worker's pause went unseen by the client, and the retry check
        // below failed about once in twenty runs.
        std::thread::sleep(Duration::from_millis(150));
        kills += 1;
        appended = tear(&journal, kills, &mut rng);
    };
    loadgen.join().expect("loadgen thread");

    let report = report.expect("the loadgen rode through every kill");
    assert_eq!(kills, KILLS, "the campaign outran the kill schedule");
    assert!(torn >= 1, "recovery cut no torn tail");
    assert!(report.complete, "campaign incomplete: {report:?}");
    assert!(report.balanced, "conservation law violated: {report:?}");
    assert!(
        report.retries > 0,
        "the kills produced no client retries — the outage was not exercised"
    );
    assert_eq!(report.labels, baseline, "loadgen labels diverged");
    let served_labels = std::fs::read_to_string(&labels_out).expect("child wrote --labels-out");
    assert_eq!(served_labels, baseline, "--labels-out diverged");
    assert_eq!(
        report.accepted, expected.answers as u64,
        "accepted answers not exactly-once across the kills"
    );
    assert_eq!(
        served_answers,
        expected.answers.to_string(),
        "the last child's summary counts other answers"
    );
    let telemetry = std::fs::read_to_string(&telemetry_out).expect("child wrote --telemetry");
    assert!(
        telemetry.contains("recovery.ops_replayed"),
        "the last child did not recover: {telemetry}"
    );
    assert!(
        !telemetry.contains("serve.invariant_violation"),
        "telemetry recorded serve.invariant_violation"
    );
}

/// A torn tail (garbage appended by a crash mid-write) is truncated on
/// recovery; the surviving prefix still replays to the exact state.
#[test]
fn recovery_truncates_torn_tail_and_preserves_state() {
    let approach = Approach::RandomMV;
    let dir = ScratchDir::new("torn");
    let journal = dir.file("journal");

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
}

/// Recovery refuses to resume a journal under a different campaign
/// identity (here: a different approach at the same seed).
#[test]
fn recovery_refuses_a_journal_for_a_different_campaign() {
    let dir = ScratchDir::new("identity");
    let journal = dir.file("journal");
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
    let dir = ScratchDir::new("append_only");
    let journal = dir.file("journal");

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
    let status: Value =
        serde_json::from_str(&response_line(&recovered.handle(&Request::Status, 0)))
            .expect("a STATUS line is JSON");
    let recorded = status
        .get("journal")
        .and_then(|j| j.get("snapshots"))
        .and_then(Value::as_u64);
    assert_eq!(recorded, Some(written), "{status:?}");
    assert_eq!(std::fs::read(&journal).expect("read journal"), bytes);
}
