//! Chaos sweep — fault-injected marketplace runs against the iCrowd
//! framework, asserting the accounting invariants that the lease and
//! rejection machinery exists to protect:
//!
//! * every task reaches consensus even with dropped answers, stalled
//!   workers, duplicate deliveries, late arrivals and a churn spike
//!   (leases reclaim dead assignments so the task re-enters the pool);
//! * the books balance: `paid + abandoned + rejected == submitted`
//!   among answers that reached the server, and total spend equals the
//!   number of paid HITs times the per-HIT reward;
//! * no task collects more than `k` votes, no HIT is paid twice;
//! * a fixed seed replays byte-identically (event-log JSON compared).
//!
//! `--smoke` runs only the reference cell (20% drop + 5% stall) plus
//! the determinism check — the CI `chaos-smoke` job's entry point.
//! Telemetry is armed by `ICROWD_TELEMETRY` like every other bin; a
//! `--smoke` run with telemetry armed then reads its export back and
//! requires the `fault.drop`, `fault.stall` and `lease.expired`
//! counters above zero and at least one `answer.rejected.*` counter.
//!
//! `--crash` runs the kill-and-recover harness instead: it spawns a
//! real `icrowd serve --journal` process, SIGKILLs it at randomized
//! points mid-campaign (occasionally also tearing the journal tail),
//! restarts it with `--recover`, and asserts the finished campaign's
//! labels are byte-identical to an in-process baseline with zero
//! `serve.invariant_violation` in the telemetry export — the CI
//! `crash-smoke` job's entry point.
//!
//! `--net` serves a real campaign behind the seeded chaos TCP proxy
//! (latency, bandwidth caps, resets, corruption, blackholes) and drives
//! it with the hardened load generator, asserting every injected
//! network fault ends in a clean retry or a clean error — never a hang
//! — with balanced accounting and zero invariant violations.

use icrowd::core::{ICrowdConfig, Tick, WarmupConfig};
use icrowd::platform::market::{WorkerBehavior, WorkerScript};
use icrowd::platform::{
    ChurnSpike, ExternalQuestionServer, FaultConfig, MarketConfig, MarketOutcome, Marketplace,
};
use icrowd::{AssignStrategy, ICrowd, ICrowdBuilder};
use icrowd_sim::datasets::table1;

const SEED: u64 = 20150531;
const WORKERS: usize = 24;

struct Cell {
    outcome: MarketOutcome,
    completed: bool,
    events_json: String,
    max_votes: usize,
}

fn run_cell(drop: f64, stall: f64, seed: u64) -> Cell {
    let ds = table1();
    let metric = icrowd::text::JaccardSimilarity::new(
        &ds.tasks,
        &icrowd::text::Tokenizer::keeping_stopwords(),
    );
    let mut server: ICrowd = ICrowdBuilder::new(ds.tasks.clone())
        .config(ICrowdConfig {
            similarity_threshold: 0.4,
            // Short leases so assignments held by stalled workers are
            // reclaimed well before the remaining crowd gives up.
            lease_ticks: Some(12),
            warmup: WarmupConfig {
                num_qualification: 2,
                ..Default::default()
            },
            ..Default::default()
        })
        .strategy(AssignStrategy::Adapt)
        .metric(&metric)
        .build();
    let market = Marketplace::new(
        ds.tasks.clone(),
        MarketConfig {
            // Patient workers: enough retry headroom to outlive a lease
            // on a stalled assignment.
            max_retries: 20,
            ..Default::default()
        },
    );
    let behaviors: Vec<(WorkerScript, Box<dyn WorkerBehavior>)> = ds
        .spawn_workers(seed)
        .into_iter()
        .cycle()
        .take(WORKERS)
        .enumerate()
        .map(|(i, w)| {
            (
                WorkerScript {
                    arrival: Tick(i as u64 * 2),
                    max_answers: usize::MAX,
                    ticks_per_answer: 1,
                },
                Box::new(w) as Box<dyn WorkerBehavior>,
            )
        })
        .collect();
    let faults = FaultConfig {
        seed,
        drop_rate: drop,
        dup_rate: 0.1,
        late_rate: 0.1,
        late_max_ticks: 6,
        stall_rate: stall,
        churn: vec![ChurnSpike {
            at: 60,
            fraction: 0.2,
        }],
    };
    let outcome = market.run_with_faults(&mut server, behaviors, Some(faults));
    let completed = server.is_complete();
    let k = ICrowdConfig::default().assignment_size;
    let max_votes = (0..ds.tasks.len() as u32)
        .map(|t| server.consensus().votes(icrowd::core::TaskId(t)).len())
        .max()
        .unwrap_or(0);
    assert!(
        max_votes <= k,
        "a task collected {max_votes} votes, more than k = {k}"
    );
    let events_json = outcome.events.to_json_lines();
    Cell {
        outcome,
        completed,
        events_json,
        max_votes,
    }
}

fn assert_invariants(cell: &Cell, drop: f64, stall: f64) {
    let a = cell.outcome.accounting;
    assert!(
        a.balanced(),
        "accounting out of balance at drop={drop} stall={stall}: {a:?}"
    );
    assert_eq!(
        a.answers_paid + a.answers_abandoned + a.answers_rejected,
        a.answers_submitted,
        "paid + abandoned + rejected != submitted at drop={drop} stall={stall}"
    );
    let reward = u64::from(MarketConfig::default().reward_cents);
    assert_eq!(
        cell.outcome.ledger.total_spend(),
        cell.outcome.ledger.num_payments() as u64 * reward,
        "spend != paid HITs x reward at drop={drop} stall={stall}"
    );
    assert!(
        cell.completed,
        "campaign failed to complete at drop={drop} stall={stall}"
    );
}

mod crash {
    //! The kill-and-recover harness behind `chaos --crash`.

    use std::io::{BufRead, BufReader, Write};
    use std::path::{Path, PathBuf};
    use std::process::{Child, Command, Stdio};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    use icrowd::core::ICrowdConfig;
    use icrowd_serve::client::call_once;
    use icrowd_serve::protocol::Request;
    use icrowd_serve::{run_loadgen, LoadgenConfig};
    use icrowd_sim::campaign::{
        labels_lines, run_campaign, Approach, CampaignConfig, MetricChoice,
    };
    use icrowd_sim::datasets::table1;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Crash rounds before the campaign is allowed to finish.
    const KILLS: usize = 3;

    /// The campaign the child serves — must mirror the CLI flags in
    /// [`serve_args`] exactly, or the recovery header check (rightly)
    /// refuses the journal.
    fn served_config() -> CampaignConfig {
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

    fn serve_args() -> Vec<&'static str> {
        vec![
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
        ]
    }

    /// The `icrowd` CLI binary, expected next to this harness binary.
    fn icrowd_bin() -> PathBuf {
        let me = std::env::current_exe().expect("current exe path");
        let dir = me.parent().expect("exe has a parent directory");
        let bin = dir.join("icrowd");
        assert!(
            bin.exists(),
            "icrowd binary not found at {} — build it first (cargo build -p icrowd-cli)",
            bin.display()
        );
        bin
    }

    /// SIGKILL-on-drop guard so a panicking harness never leaks a
    /// serving child process.
    struct Reaper(Option<Child>);

    impl Reaper {
        fn kill_now(&mut self) {
            if let Some(mut child) = self.0.take() {
                let _ = child.kill(); // SIGKILL on unix — no cleanup runs
                let _ = child.wait();
            }
        }
    }

    impl Drop for Reaper {
        fn drop(&mut self) {
            self.kill_now();
        }
    }

    /// Publishes the server address atomically (write + rename) so
    /// `--addr-file` readers never see a partial line.
    fn publish_addr(addr_file: &Path, addr: &str) {
        let staged = addr_file.with_extension("tmp");
        std::fs::write(&staged, addr).expect("write addr file");
        std::fs::rename(&staged, addr_file).expect("publish addr file");
    }

    /// Spawns a serving child and blocks until its listen banner (and,
    /// on recovery rounds, its recovery summary) arrives. Remaining
    /// stdout is drained by a background thread to keep the pipe moving.
    fn spawn_server(
        bin: &Path,
        journal: &Path,
        recover: bool,
        extra: &[(&str, &Path)],
    ) -> (Reaper, String) {
        let mut cmd = Command::new(bin);
        cmd.args(serve_args());
        cmd.arg(if recover { "--recover" } else { "--journal" })
            .arg(journal);
        for (flag, path) in extra {
            cmd.arg(flag).arg(path);
        }
        cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
        let mut child = cmd.spawn().expect("spawn icrowd serve");
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut reader = BufReader::new(stdout);
        let mut addr = None;
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            if let Some(rest) = line.trim().strip_prefix("icrowd-serve listening on ") {
                addr = Some(rest.to_owned());
                break;
            }
            if line.trim().starts_with("recovered ") {
                println!("  child: {}", line.trim());
            }
            line.clear();
        }
        let addr = addr.expect("server exited before announcing its address");
        std::thread::spawn(move || {
            for l in reader.lines().map_while(Result::ok) {
                println!("  child: {l}");
            }
        });
        (Reaper(Some(child)), addr)
    }

    /// The harness: baseline → kill/recover rounds → final round to
    /// completion → label + telemetry verification.
    pub fn run() {
        let expected = run_campaign(&table1(), Approach::RandomMV, &served_config());
        let baseline = labels_lines(&expected.labels);
        println!("=== Crash harness: table1 / random-mv, seed 42 ===");
        println!(
            "baseline: {} labels, {} answers",
            expected.labels.len(),
            expected.answers
        );

        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let journal = dir.join(format!("icrowd_chaos_{pid}.journal"));
        let addr_file = dir.join(format!("icrowd_chaos_{pid}.addr"));
        let labels_out = dir.join(format!("icrowd_chaos_{pid}.labels"));
        let telemetry_out = dir.join(format!("icrowd_chaos_{pid}.telemetry"));
        for p in [&journal, &addr_file, &labels_out, &telemetry_out] {
            std::fs::remove_file(p).ok();
        }

        let bin = icrowd_bin();
        let mut rng = StdRng::seed_from_u64(super::SEED);

        // One loadgen spans every server incarnation: it follows the
        // addr-file across restarts and re-submits idempotently.
        let (tx, rx) = mpsc::channel();
        let loadgen = {
            let config = LoadgenConfig {
                addr: String::new(),
                addr_file: Some(addr_file.to_string_lossy().into_owned()),
                workers: 4,
                // Pace the campaign so the kill schedule lands mid-flight
                // instead of racing a sub-second run.
                think_ms: 30,
                give_up_ms: 60_000,
                ..Default::default()
            };
            std::thread::spawn(move || {
                let _ = tx.send(run_loadgen(&config));
            })
        };

        let extra: Vec<(&str, &Path)> = vec![
            ("--labels-out", labels_out.as_path()),
            ("--telemetry", telemetry_out.as_path()),
        ];
        let mut kills = 0usize;
        let mut torn = 0usize;
        let report = loop {
            let recovering = kills > 0;
            let (mut reaper, addr) = spawn_server(&bin, &journal, recovering, &extra);
            publish_addr(&addr_file, &addr);

            if kills < KILLS {
                // Wait for the journal to accumulate real state, then
                // kill at a randomized instant.
                let floor = 300 + kills as u64 * 200;
                let grow_deadline = Instant::now() + Duration::from_secs(15);
                while std::fs::metadata(&journal).map_or(0, |m| m.len()) < floor
                    && Instant::now() < grow_deadline
                {
                    std::thread::sleep(Duration::from_millis(5));
                }
                std::thread::sleep(Duration::from_millis(rng.gen_range(10..120)));
                if let Ok(result) = rx.try_recv() {
                    // The campaign outran the kill schedule.
                    drain(&mut reaper, &addr);
                    break result;
                }
                reaper.kill_now();
                kills += 1;
                println!(
                    "kill #{kills}: SIGKILL at journal size {}",
                    std::fs::metadata(&journal).map_or(0, |m| m.len())
                );
                // Also tear the tail, as a crash mid-write would —
                // cycling truncate / garbage / clean so every run
                // exercises all three recovery paths.
                match kills % 3 {
                    0 => {
                        let len = std::fs::metadata(&journal).map_or(0, |m| m.len());
                        let cut = rng.gen_range(1u64..=64).min(len.saturating_sub(200));
                        if cut > 0 {
                            let f = std::fs::OpenOptions::new()
                                .write(true)
                                .open(&journal)
                                .expect("open journal");
                            f.set_len(len - cut).expect("truncate journal");
                            torn += 1;
                            println!("  torn: truncated {cut} bytes");
                        }
                    }
                    1 => {
                        let mut f = std::fs::OpenOptions::new()
                            .append(true)
                            .open(&journal)
                            .expect("open journal");
                        let garbage: Vec<u8> =
                            (0..rng.gen_range(1..40)).map(|_| rng.gen()).collect();
                        f.write_all(&garbage).expect("append garbage");
                        torn += 1;
                        println!("  torn: appended {} garbage bytes", garbage.len());
                    }
                    _ => {}
                }
            } else {
                // Final round: run to completion; the child drains and
                // writes labels-out.
                let result = rx
                    .recv_timeout(Duration::from_secs(120))
                    .expect("loadgen did not finish after the final recovery");
                drain(&mut reaper, &addr);
                break result;
            }
        };
        loadgen.join().expect("loadgen thread");

        let report = report.expect("loadgen failed");
        assert!(report.complete, "campaign incomplete: {report:?}");
        assert!(report.balanced, "conservation law violated: {report:?}");
        let final_labels = std::fs::read_to_string(&labels_out).expect("child wrote --labels-out");
        assert_eq!(
            report.labels, baseline,
            "loadgen-fetched labels diverged from baseline"
        );
        assert_eq!(final_labels, baseline, "label file diverged from baseline");
        println!(
            "labels match baseline ({} labels, {kills} kills, {torn} torn tails)",
            expected.labels.len()
        );

        let telemetry = std::fs::read_to_string(&telemetry_out).unwrap_or_default();
        let violations = telemetry
            .lines()
            .filter(|l| l.contains("serve.invariant_violation"))
            .count();
        assert_eq!(
            violations, 0,
            "telemetry recorded serve.invariant_violation"
        );
        println!("invariant violations: {violations}");
        println!("retries ridden through by clients: {}", report.retries);

        for p in [&journal, &addr_file, &labels_out, &telemetry_out] {
            std::fs::remove_file(p).ok();
        }
    }

    /// Ends the campaign once the loadgen has returned. Its final probe
    /// sent `SHUTDOWN`, but to the child serving at that moment: when a
    /// kill landed after that probe was answered, the child serving now
    /// was started after the loadgen finished and has never been told
    /// to drain. So the harness sends `SHUTDOWN` itself (a refused
    /// connection means the child is already draining) and then
    /// requires the child to exit.
    fn drain(reaper: &mut Reaper, addr: &str) {
        let _ = call_once(addr, &Request::Shutdown);
        let child = reaper.0.take().expect("child running");
        assert!(
            wait_with_deadline(child, Duration::from_secs(30)),
            "served child did not exit after SHUTDOWN"
        );
    }

    /// Waits for the child to exit, killing it if the deadline passes.
    fn wait_with_deadline(mut child: Child, deadline: Duration) -> bool {
        let until = Instant::now() + deadline;
        while Instant::now() < until {
            match child.try_wait() {
                Ok(Some(_)) => return true,
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(_) => return false,
            }
        }
        let _ = child.kill();
        let _ = child.wait();
        false
    }
}

mod net {
    //! The chaos-proxy network sweep behind `chaos --net`.

    use icrowd::core::ICrowdConfig;
    use icrowd_serve::{
        run_loadgen, serve, CampaignEngine, ChaosProxy, ChaosProxyConfig, LoadgenConfig,
        ServeConfig,
    };
    use icrowd_sim::campaign::{
        labels_lines, run_campaign, Approach, CampaignConfig, MetricChoice,
    };
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

    /// `(name, proxy spec, labels must match baseline)`. Corruption can
    /// garble a line into *different but valid* JSON (a stray vote), so
    /// its cell asserts clean completion and balance, not label parity.
    fn scenarios() -> Vec<(&'static str, &'static str, bool)> {
        vec![
            ("latency", "latency=2:1,seed=7", true),
            ("bandwidth", "bw=262144,seed=7", true),
            ("reset", "reset=0.25,seed=7", true),
            ("blackhole", "blackhole=0.25,seed=7", true),
            ("corrupt", "corrupt=0.05,seed=7", false),
            ("storm", "latency=1,reset=0.1,blackhole=0.1,seed=7", true),
        ]
    }

    /// One scenario: serve a real campaign, interpose the chaos proxy,
    /// and drive it with the hardened load generator. Every injected
    /// fault must end in a clean retry or a clean error — never a hang.
    fn run_scenario(name: &str, spec: &str, parity: bool, baseline: &str) {
        let proxy_config = ChaosProxyConfig::parse(spec).expect("scenario spec parses");
        let engine = CampaignEngine::new("table1", table1(), Approach::RandomMV, config());
        let handle = serve(engine, &ServeConfig::default()).expect("bind server");
        let proxy = ChaosProxy::start(handle.addr(), proxy_config).expect("bind proxy");

        let report = run_loadgen(&LoadgenConfig {
            addr: proxy.addr().to_string(),
            workers: 4,
            // Short I/O deadline so blackholed connections surface as
            // clean retries quickly; the watchdog bounds the whole run.
            io_timeout_ms: 500,
            give_up_ms: 60_000,
            ..Default::default()
        })
        .expect("loadgen rode through the chaos");
        let result = handle.join();
        let stats = proxy.stop();

        assert!(
            report.complete,
            "campaign incomplete under {name}: {report:?}"
        );
        assert!(report.balanced, "accounting unbalanced under {name}");
        assert!(result.accounting.balanced());
        if parity {
            assert_eq!(
                report.labels, baseline,
                "labels diverged from baseline under {name}"
            );
        }
        let violations = icrowd_obs::counter_value("serve.invariant_violation");
        assert_eq!(violations, 0, "invariant violations under {name}");
        println!(
            "{name:>9} {:>6} {:>10} {:>7} {:>10} {:>8} {:>8} {:>7}",
            stats.connections,
            stats.blackholed,
            stats.resets,
            stats.corrupted,
            report.retries,
            report.accepted,
            if parity { "yes" } else { "n/a" },
        );
    }

    /// The full sweep.
    pub fn run() {
        let expected = run_campaign(&table1(), Approach::RandomMV, &config());
        let baseline = labels_lines(&expected.labels);
        println!("=== Network-fault sweep: table1 / random-mv behind the chaos proxy ===");
        println!(
            "{:>9} {:>6} {:>10} {:>7} {:>10} {:>8} {:>8} {:>7}",
            "scenario",
            "conns",
            "blackholed",
            "resets",
            "corrupted",
            "retries",
            "accepted",
            "labels"
        );
        for (name, spec, parity) in scenarios() {
            run_scenario(name, spec, parity, &baseline);
        }
        println!("invariant violations: 0");
        println!("net sweep: PASS");
    }
}

fn main() {
    let telemetry = icrowd_bench::telemetry::init_from_env();
    if std::env::args().any(|a| a == "--crash") {
        crash::run();
        icrowd_bench::telemetry::finish(telemetry);
        return;
    }
    if std::env::args().any(|a| a == "--net") {
        net::run();
        icrowd_bench::telemetry::finish(telemetry);
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (drops, stalls): (Vec<f64>, Vec<f64>) = if smoke {
        (vec![0.2], vec![0.05])
    } else {
        (vec![0.0, 0.05, 0.1, 0.2], vec![0.0, 0.02, 0.05])
    };

    println!("=== Chaos sweep: table1, {WORKERS} workers, seed {SEED} ===");
    println!(
        "{:>5} {:>6} {:>9} {:>9} {:>9} {:>7} {:>7} {:>6} {:>6}",
        "drop", "stall", "submitted", "accepted", "rejected", "paid", "spend", "votes", "done"
    );
    for &drop in &drops {
        for &stall in &stalls {
            let cell = run_cell(drop, stall, SEED);
            assert_invariants(&cell, drop, stall);
            let a = cell.outcome.accounting;
            println!(
                "{:>5.2} {:>6.2} {:>9} {:>9} {:>9} {:>7} {:>7} {:>6} {:>6}",
                drop,
                stall,
                a.answers_submitted,
                a.answers_accepted,
                a.answers_rejected,
                a.answers_paid,
                cell.outcome.ledger.total_spend(),
                cell.max_votes,
                if cell.completed { "yes" } else { "no" }
            );
        }
    }

    // Determinism: the reference cell replays byte-identically.
    let a = run_cell(0.2, 0.05, SEED);
    let b = run_cell(0.2, 0.05, SEED);
    assert_eq!(
        a.events_json, b.events_json,
        "event logs differ between identical chaos runs"
    );
    assert_eq!(a.outcome.accounting, b.outcome.accounting);
    assert_eq!(a.outcome.faults, b.outcome.faults);
    println!(
        "\ndeterminism: PASS ({} events byte-identical across reruns)",
        a.events_json.lines().count()
    );
    println!(
        "faults injected at reference cell: drop {} dup {} late {} stall {} churn {}",
        a.outcome.faults.drops,
        a.outcome.faults.dups,
        a.outcome.faults.lates,
        a.outcome.faults.stalls,
        a.outcome.faults.churned
    );
    println!("all invariants hold");
    icrowd_bench::telemetry::finish(telemetry.clone());
    if let (true, Some(path)) = (smoke, telemetry) {
        assert_smoke_counters(&path);
    }
}

/// Reads back a `--smoke` run's telemetry export and requires the fault
/// and lease machinery to have fired: counters `fault.drop`,
/// `fault.stall` and `lease.expired` above zero, and at least one
/// `answer.rejected.*`.
fn assert_smoke_counters(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read telemetry export {path}: {e}"));
    let mut counters = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("unparseable telemetry line ({e}): {line}"));
        if v["type"] == "counter" {
            let name = v["name"].as_str().unwrap_or_default().to_owned();
            counters.push((name, v["value"].as_u64().unwrap_or(0)));
        }
    }
    let value = |name: &str| counters.iter().find(|(n, _)| n == name).map_or(0, |c| c.1);
    for name in ["fault.drop", "fault.stall", "lease.expired"] {
        assert!(
            value(name) > 0,
            "counter {name} missing or zero: {counters:?}"
        );
    }
    assert!(
        counters
            .iter()
            .any(|(n, _)| n.starts_with("answer.rejected.")),
        "no answer.rejected.* counter in {counters:?}"
    );
    println!(
        "telemetry counters: PASS ({} counters in {path})",
        counters.len()
    );
}
