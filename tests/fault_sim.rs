//! One seeded fault simulator for a served campaign. Each seed feeds one
//! `icrowd_platform::faults::DecisionStream`, which draws a campaign
//! (table1 or yahooqa, RandomMV or iCrowd Adapt), a durability policy
//! and the rates of every fault domain, then drives
//! `CampaignEngine::handle` with a client that follows the loadgen's
//! rules, interleaving:
//!
//! * marketplace faults: the campaign's `FaultConfig`;
//! * disk faults: the journal on a `FaultyIo` under the drawn policy;
//! * exchange faults: a reply lost, or a submit sent twice;
//! * crash-restart: the engine dropped, the journal tail maybe torn past
//!   its last frame, and `recover_with_policy` run on the file. A
//!   fail-stop trip restarts the same way, as an operator would.
//!
//! "Durable" means the journal is attached with nothing pending or
//! unjournaled. Checked: after every exchange, `accepted + rejected ==
//! submitted`, the policy contract, and that no copy of a submission is
//! accepted; until the first crash or fail-stop trip, a journal-free
//! shadow engine answers every request alike; at every crash, the end
//! included, the file has a header, the previous crash's valid prefix
//! still prefixes it, recovery succeeds and leaves exactly the valid
//! prefix, and mutations are lost only when the journal counted them
//! pending or unjournaled, so a durable crash recovers the same
//! `checkpoint()`; at the end, `finalize()` balances both laws, and the
//! labels and answer count equal `run_campaign`'s whenever the journal
//! was durable at every crash and at the end and no `dropped` or
//! `rejected` reply was lost. The client polls every worker again after
//! a restart.
//!
//! A failure names the seed, its drawn schedule, the step and the check;
//! rerunning replays it. The tier-1 seeds must cover every fault of
//! every domain; `cargo test --release --test fault_sim -- --ignored`
//! soaks ten times as many seeds.

use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use icrowd::core::{Answer, TaskId};
use icrowd::platform::{ChurnSpike, FaultConfig, MarketAccounting};
use icrowd::AssignStrategy;
use icrowd_platform::faults::DecisionStream;
use icrowd_platform::journal::{encode_record, JournalOp, JournalRecord};
use icrowd_platform::market::WorkerBehavior;
use icrowd_platform::{read_journal, DiskFaultConfig, FaultyIo};
use icrowd_serve::protocol::{Request, Response};
use icrowd_serve::{
    recover_with_policy, CampaignEngine, DurabilityPolicy, DurabilityProbe, JournalHealth,
};
use icrowd_sim::campaign::{labels_lines, run_campaign, Approach, CampaignConfig, MetricChoice};
use icrowd_sim::datasets::{by_name, Dataset};
use icrowd_sim::SimWorker;

/// The seeds tier-1 runs; the soak runs the next `10 * TIER1_SEEDS`.
const TIER1_SEEDS: u64 = 40;

/// What the tier-1 seeds must see between them, comma-separated.
const COVERAGE: &str = "drop, marketplace dup, late, stall, churn, ENOSPC, EIO, torn write, \
    fsync failure, open failure, lost reply, submit sent twice, fail-stop trip, degrade, \
    retry reattach, retry escalation, durable crash after a retry skipped a landed frame, \
    torn tail cut, snapshot verified, label parity, \
    label parity after 2+ crashes and faults in every domain";

/// Zero half the time, else a rate drawn from `[0, max)`.
fn rate(s: &mut DecisionStream, max: f64) -> f64 {
    if s.chance(0.5) {
        0.0
    } else {
        s.next_unit() * max
    }
}

/// What a seed drew.
#[derive(Debug)]
struct Schedule {
    dataset: &'static str,
    approach: Approach,
    /// The campaign, marketplace faults included.
    config: CampaignConfig,
    policy: DurabilityPolicy,
    disk: DiskFaultConfig,
    snapshot_every: usize,
    /// Chance that a reply is lost on its way to the client.
    lose_reply: f64,
    /// Chance that a submit whose reply arrived is sent again.
    send_twice: f64,
    /// Chance that the server crashes before a client cycle.
    crash: f64,
}

impl Schedule {
    fn draw(seed: u64, s: &mut DecisionStream) -> Schedule {
        let dataset = if s.chance(0.2) { "yahooqa" } else { "table1" };
        // Disk and crash rates are drawn as faults per campaign and
        // spread over its journal ops or client cycles, so a yahooqa
        // campaign meets a few faults of a kind, not hundreds.
        let (ops, cycles) = if dataset == "yahooqa" {
            (1_500.0, 7_000.0)
        } else {
            (150.0, 150.0)
        };
        let approach = if s.chance(0.5) {
            Approach::RandomMV
        } else {
            Approach::ICrowd(AssignStrategy::Adapt)
        };
        let mut config = Self::campaign(dataset, s.below(1_000));
        let market = FaultConfig {
            seed: s.next_u64(),
            drop_rate: rate(s, 0.15),
            dup_rate: rate(s, 0.15),
            late_rate: rate(s, 0.15),
            late_max_ticks: 1 + s.below(12),
            stall_rate: rate(s, 0.05),
            churn: (s.chance(0.25))
                .then(|| ChurnSpike {
                    at: s.below(40),
                    fraction: 0.3,
                })
                .into_iter()
                .collect(),
        };
        config.faults = s.chance(0.8).then_some(market);
        // Each policy takes every third seed.
        let policy = [
            DurabilityPolicy::FailStop,
            DurabilityPolicy::Degrade,
            DurabilityPolicy::Retry,
        ][(seed % 3) as usize];
        let mut disk = DiskFaultConfig {
            seed: s.next_u64(),
            enospc_rate: rate(s, 1.5) / ops,
            eio_rate: rate(s, 1.5) / ops,
            torn_rate: rate(s, 1.5) / ops,
            fsync_rate: s.next_unit() * 4.5 / ops,
            open_rate: rate(s, 0.1),
        };
        if s.chance(0.25) {
            // A failing disk: writes fail early and half the opens are
            // refused, so repairs keep failing and retry escalates.
            disk.eio_rate = 7.5 / ops;
            disk.open_rate = 0.5;
        }
        Schedule {
            dataset,
            approach,
            config,
            policy,
            disk,
            snapshot_every: [0, 1, 4, 16][s.below(4) as usize],
            lose_reply: rate(s, 0.05),
            send_twice: s.next_unit() * 0.3,
            crash: [0.0, 1.0, 2.0, 3.0][s.below(4) as usize] / cycles,
        }
    }

    fn campaign(dataset: &str, seed: u64) -> CampaignConfig {
        let mut config = CampaignConfig {
            seed,
            ..Default::default()
        };
        if dataset == "table1" {
            config.metric = MetricChoice::Jaccard;
            config.icrowd.similarity_threshold = 0.3;
            config.icrowd.warmup.num_qualification = 3;
        }
        config
    }
}

/// One simulated worker on the client side.
struct ClientWorker {
    id: String,
    sim: SimWorker,
    /// The answer drawn per assigned task, replayed when the task is
    /// re-issued and forgotten on `rejected` or `dropped`.
    memo: HashMap<TaskId, Answer>,
    retired: bool,
}

/// An engine's `checkpoint()`.
type Checkpoint = (MarketAccounting, u64, u64, u64);

/// One seed's campaign under its schedule. See the module docs.
struct Sim {
    seed: u64,
    sched: Schedule,
    s: DecisionStream,
    dataset: Dataset,
    path: PathBuf,
    io: FaultyIo,
    engine: Option<CampaignEngine>,
    probe: Arc<DurabilityProbe>,
    shadow: Option<CampaignEngine>,
    workers: Vec<ClientWorker>,
    cursor: usize,
    step: usize,
    crashes: usize,
    /// The valid journal prefix the latest crash read.
    prefix: Vec<u8>,
    /// The journal state after the latest exchange.
    state: &'static str,
    /// Durable at every crash so far and no `dropped` or `rejected`
    /// reply lost: label parity is owed.
    parity_owed: bool,
    /// A landed frame is pending since the last attached state, and a
    /// reattach has since skipped one.
    landed: bool,
    deduped: bool,
    /// The coverage events this run saw.
    seen: BTreeSet<&'static str>,
}

impl Sim {
    fn new(seed: u64, sched: Schedule, s: DecisionStream) -> Sim {
        let dataset = by_name(sched.dataset, sched.config.seed).expect("known dataset");
        let fresh = || {
            CampaignEngine::new(
                sched.dataset,
                dataset.clone(),
                sched.approach,
                sched.config.clone(),
            )
        };
        // Tests run concurrently, and two may simulate the same seed.
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("icrowd_fault_sim_{}_{run}", std::process::id()));
        let io = FaultyIo::new(sched.disk.clone());
        let engine = fresh();
        // A header write the disk refuses is retried, as an operator
        // restarting the server would; the create truncates each time.
        for attempt in 1.. {
            let io = Box::new(io.clone());
            match engine.start_journal_with(&path, 1, sched.snapshot_every, sched.policy, io) {
                Ok(()) => break,
                Err(_) if attempt < 1_000 => {}
                Err(e) => panic!("fault_sim seed {seed}: no journal: {e}\n  schedule: {sched:?}"),
            }
        }
        let workers = dataset
            .spawn_workers(sched.config.seed)
            .into_iter()
            .enumerate()
            .map(|(i, sim)| ClientWorker {
                id: format!("W{}", i + 1),
                sim,
                memo: HashMap::new(),
                retired: false,
            })
            .collect();
        Sim {
            probe: engine.durability(),
            shadow: Some(fresh()),
            engine: Some(engine),
            seed,
            sched,
            s,
            dataset,
            path,
            io,
            workers,
            cursor: 0,
            step: 0,
            crashes: 0,
            prefix: Vec::new(),
            state: "attached",
            parity_owed: true,
            landed: false,
            deduped: false,
            seen: BTreeSet::new(),
        }
    }

    fn engine(&self) -> &CampaignEngine {
        self.engine.as_ref().expect("a live engine")
    }

    fn fail(&self, check: &str) -> ! {
        panic!(
            "fault_sim seed {} failed at step {}: {check}\n  schedule: {:?}",
            self.seed, self.step, self.sched
        )
    }

    fn health(&self) -> JournalHealth {
        self.engine().journal_health().expect("a journaled engine")
    }

    fn see(&mut self, event: &'static str, happened: bool) {
        if happened {
            self.seen.insert(event);
        }
    }

    /// Sends one request and checks what every exchange must keep.
    fn exchange(&mut self, req: &Request) -> Response {
        let fsyncs = self.io.stats().fsync_failures;
        let resp = self.engine().handle(req, 0);
        if let Some(shadow) = &self.shadow {
            let mut want = shadow.handle(req, 0);
            if let (Response::Status { journal, .. }, Response::Status { journal: j, .. }) =
                (&mut want, &resp)
            {
                journal.clone_from(j);
            }
            if want != resp {
                self.fail(&format!(
                    "{req:?} answered {resp:?}; the engine with no journal answered {want:?}"
                ));
            }
        }
        let (a, ..) = self.engine().checkpoint();
        if a.answers_accepted + a.answers_rejected != a.answers_submitted {
            self.fail(&format!("accepted + rejected != submitted: {a:?}"));
        }
        let h = self.health();
        let state = h.state;
        let (stopped, degraded) = (self.probe.fail_stopped(), self.probe.degraded());
        let policy = self.sched.policy;
        if state == "attached" && h.unjournaled > 0 {
            self.fail("the attached journal counts unjournaled ops");
        }
        if degraded && state != "degraded" {
            self.fail(&format!("a degraded engine reports its journal {state}"));
        }
        if policy == DurabilityPolicy::FailStop && !matches!(state, "attached" | "fail-stop") {
            self.fail(&format!("fail-stop left the journal {state}"));
        }
        if policy == DurabilityPolicy::Degrade && state == "retrying" {
            self.fail("degrade retried");
        }
        if policy != DurabilityPolicy::FailStop && stopped {
            self.fail("a policy other than fail-stop tripped fail-stop");
        }
        if matches!(resp, Response::Error { .. }) && !stopped {
            self.fail(&format!("{req:?} was refused: {resp:?}"));
        }
        self.see("fail-stop trip", stopped);
        self.see("degrade", degraded && policy == DurabilityPolicy::Degrade);
        self.see(
            "retry escalation",
            degraded && policy == DurabilityPolicy::Retry,
        );
        // An op whose fsync failed after its frame was written is on disk
        // and pending; the retry's repair must not append it again.
        self.landed |= self.state == "attached"
            && state == "retrying"
            && h.pending > 0
            && self.io.stats().fsync_failures > fsyncs;
        if self.state == "retrying" && state == "attached" {
            self.seen.insert("retry reattach");
            self.deduped |= std::mem::take(&mut self.landed);
        }
        self.state = state;
        if stopped {
            self.shadow = None;
        }
        resp
    }

    /// Whether the reply to the exchange just made is lost.
    fn lost(&mut self, resp: &Response) -> bool {
        if !self.s.chance(self.sched.lose_reply) {
            return false;
        }
        self.seen.insert("lost reply");
        if let Response::Submit {
            result: "dropped" | "rejected",
            ..
        } = resp
        {
            self.parity_owed = false;
        }
        true
    }

    /// The loadgen's retirement: a worker told it left retires once
    /// STATUS says the campaign is complete or finished.
    fn retire_probe(&mut self, w: usize) {
        let resp = self.exchange(&Request::Status);
        if let Response::Status {
            complete, finished, ..
        } = resp
        {
            if !self.lost(&resp) {
                self.workers[w].retired |= complete || finished;
            }
        }
    }

    /// One loadgen cycle of worker `w`: poll; on an assignment answer it
    /// (replaying the memoized draw) and submit, maybe twice. A refusal
    /// from a fail-stopped engine ends the cycle.
    fn cycle(&mut self, w: usize) {
        let id = self.workers[w].id.clone();
        let resp = self.exchange(&Request::RequestTask { worker: id.clone() });
        let task = match resp {
            _ if self.lost(&resp) => return,
            Response::Task(task) => task,
            Response::Wait | Response::Declined { retry: true } | Response::Error { .. } => return,
            Response::Left | Response::Declined { retry: false } => return self.retire_probe(w),
            other => self.fail(&format!("a poll by {id} answered {other:?}")),
        };
        let worker = &mut self.workers[w];
        let answer = *worker
            .memo
            .entry(task)
            .or_insert_with(|| worker.sim.answer(&self.dataset.tasks[task]));
        let submit = Request::SubmitAnswer {
            worker: id.clone(),
            task,
            answer,
        };
        let resp = self.exchange(&submit);
        let result = match resp {
            _ if self.lost(&resp) => return,
            Response::Submit { result, .. } => result,
            Response::Error { .. } => return,
            other => self.fail(&format!("a submit by {id} answered {other:?}")),
        };
        if self.s.chance(self.sched.send_twice) {
            self.seen.insert("submit sent twice");
            match self.exchange(&submit) {
                Response::Submit {
                    result: "rejected", ..
                }
                | Response::Error { .. } => {}
                other => self.fail(&format!(
                    "the copy of {id}'s {result} submit of task {} was answered {other:?}",
                    task.0
                )),
            }
        }
        match result {
            "stalled" => self.retire_probe(w),
            "rejected" | "dropped" => {
                self.workers[w].memo.remove(&task);
            }
            _ => {}
        }
    }

    /// Tears the journal's tail as a crash mid-write leaves it: a frame
    /// cut short, garbage, or nothing, all past the last written frame.
    /// Returns the bytes appended.
    fn tear(&mut self) -> u64 {
        use std::io::Write as _;
        let tail: Vec<u8> = match self.s.below(3) {
            0 => {
                let frame = encode_record(&JournalRecord::Op(JournalOp::Pump));
                frame[..1 + self.s.below(frame.len() as u64 - 1) as usize].to_vec()
            }
            1 => (0..1 + self.s.below(40))
                .map(|_| self.s.next_u64() as u8)
                .collect(),
            _ => return 0,
        };
        std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .and_then(|mut f| f.write_all(&tail))
            .expect("tear the journal tail");
        tail.len() as u64
    }

    /// Drops the engine and restarts it from its journal.
    fn crash(&mut self) {
        self.crashes += 1;
        let (health, before) = (self.health(), self.engine().checkpoint());
        drop(self.engine.take());
        self.restart(health, before);
    }

    /// Tears the tail of the dead engine's journal and recovers from the
    /// file; `health` and `before` describe the engine when it died.
    fn restart(&mut self, health: JournalHealth, before: Checkpoint) {
        let durable = health.state == "attached" && health.unjournaled == 0 && health.pending == 0;
        self.shadow = None;
        let torn = self.tear();
        let readout = read_journal(&self.path).expect("the journal reads");
        let bytes = std::fs::read(&self.path).expect("the journal reads");
        let prefix = bytes[..readout.valid_bytes as usize].to_vec();
        if readout.header.is_none() {
            self.fail("the journal has no header");
        }
        if !prefix.starts_with(&self.prefix) {
            self.fail("the valid prefix an earlier crash read was rewritten");
        }
        if readout.truncated_bytes < torn {
            self.fail("a torn tail read as frames");
        }
        if durable && readout.ops.len() as u64 != health.ops {
            self.fail(&format!(
                "the file holds {} ops; the durable engine journaled {}",
                readout.ops.len(),
                health.ops
            ));
        }
        let mut refused = 0;
        let (engine, report) = loop {
            match recover_with_policy(
                &self.path,
                self.sched.dataset,
                self.dataset.clone(),
                self.sched.approach,
                self.sched.config.clone(),
                1,
                self.sched.snapshot_every,
                self.sched.policy,
                Box::new(self.io.clone()),
            ) {
                Ok(recovered) => break recovered,
                // The disk refused to reopen the file: restart again.
                Err(e) if e.contains("cannot reattach") && refused < 100 => refused += 1,
                Err(e) => self.fail(&format!("recovery failed: {e}")),
            }
        };
        if std::fs::read(&self.path).expect("the journal reads") != prefix {
            self.fail("recovery did not leave exactly the valid prefix");
        }
        if report.snapshots_verified != readout.snapshots.len() {
            self.fail("recovery skipped a snapshot checkpoint");
        }
        if engine.checkpoint() != before && (durable || health.unjournaled + health.pending == 0) {
            self.fail(&format!(
                "recovery lost mutations the journal did not count: recovered {:?}, crashed \
                 {before:?}, journal {health:?}",
                engine.checkpoint()
            ));
        }
        let resumed = engine.journal_health().expect("a journaled engine");
        if (resumed.ops, resumed.snapshots)
            != (readout.ops.len() as u64, report.snapshots_verified as u64)
        {
            self.fail(&format!(
                "the resumed journal does not carry on from the file: {resumed:?}"
            ));
        }
        let deduped = std::mem::take(&mut self.deduped);
        self.landed = false;
        let event = "durable crash after a retry skipped a landed frame";
        self.see(event, durable && deduped);
        self.see("torn tail cut", readout.truncated_bytes > 0);
        self.see("snapshot verified", report.snapshots_verified > 0);
        self.parity_owed &= durable;
        self.prefix = prefix;
        self.probe = engine.durability();
        self.engine = Some(engine);
        self.state = "attached";
        // The client notices the restart; every worker polls again.
        for w in &mut self.workers {
            w.retired = false;
        }
    }

    /// Runs the campaign to its end, makes the end-of-run checks, and
    /// returns the coverage events the run saw.
    fn run(mut self) -> BTreeSet<&'static str> {
        let expected = run_campaign(&self.dataset, self.sched.approach, &self.sched.config);
        while self.workers.iter().any(|w| !w.retired) {
            self.step += 1;
            if self.step > 1_000_000 {
                self.fail("the campaign livelocked");
            }
            if self.probe.fail_stopped() {
                // The server refuses mutations, drains and exits
                // nonzero; the operator restarts it.
                let poll = Request::RequestTask {
                    worker: "W1".into(),
                };
                match self.engine().handle(&poll, 0) {
                    Response::Error { message } if message.contains("fail-stop") => {}
                    other => self.fail(&format!("a fail-stopped engine answered {other:?}")),
                }
                let h = self.health();
                if h.state != "fail-stop" || h.last_error.is_none() {
                    self.fail(&format!("a fail-stopped engine reports {h:?}"));
                }
                self.crash();
            } else if self.s.chance(self.sched.crash) {
                self.crash();
            } else {
                while self.workers[self.cursor].retired {
                    self.cursor = (self.cursor + 1) % self.workers.len();
                }
                let w = self.cursor;
                self.cursor = (self.cursor + 1) % self.workers.len();
                self.cycle(w);
            }
        }
        self.step += 1;
        let labels = self.engine().labels();
        let (health, end) = (self.health(), self.engine().checkpoint());
        let result = self.engine.take().expect("a live engine").finalize();
        if !result.accounting.balanced() {
            self.fail(&format!(
                "unbalanced finalized books: {:?}",
                result.accounting
            ));
        }
        // The end is one more crash: the journal the run left recovers.
        self.restart(health, end);
        if self.parity_owed {
            let want = labels_lines(&expected.labels);
            if labels != want || self.engine().labels() != want {
                self.fail("the live or recovered labels differ from run_campaign's");
            }
            if result.answers != expected.answers {
                self.fail(&format!(
                    "{} answers accepted; run_campaign accepted {}",
                    result.answers, expected.answers
                ));
            }
        }
        let recovered = self.engine.take().expect("the recovered engine").finalize();
        if !recovered.accounting.balanced() {
            self.fail("the recovered campaign's finalized books are unbalanced");
        }
        let (f, d) = (result.fault_stats, self.io.stats());
        for (event, count) in [
            ("drop", f.drops),
            ("marketplace dup", f.dups),
            ("late", f.lates),
            ("stall", f.stalls),
            ("churn", f.churned),
            ("ENOSPC", d.enospc),
            ("EIO", d.eio),
            ("torn write", d.torn),
            ("fsync failure", d.fsync_failures),
            ("open failure", d.open_failures),
        ] {
            self.see(event, count > 0);
        }
        self.see("label parity", self.parity_owed);
        let exchanged = self.seen.contains("lost reply") || self.seen.contains("submit sent twice");
        let every_domain = self.crashes >= 2
            && d.total() > 0
            && exchanged
            && f.drops + f.dups + f.lates + f.stalls + f.churned > 0;
        let event = "label parity after 2+ crashes and faults in every domain";
        self.see(event, self.parity_owed && every_domain);
        std::mem::take(&mut self.seen)
    }
}

impl Drop for Sim {
    /// A finished or failed run leaves no journal behind.
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

fn run_seed(seed: u64) -> BTreeSet<&'static str> {
    let mut s = DecisionStream::new(seed);
    let sched = Schedule::draw(seed, &mut s);
    Sim::new(seed, sched, s).run()
}

#[test]
fn tier1_seeds_hold_every_invariant_and_cover_every_fault() {
    let seen: BTreeSet<&str> = (0..TIER1_SEEDS).flat_map(run_seed).collect();
    let missing: Vec<&str> = COVERAGE.split(", ").filter(|e| !seen.contains(e)).collect();
    assert!(missing.is_empty(), "no tier-1 seed saw {missing:?}");
}

#[test]
#[ignore = "soak: run with `cargo test --release --test fault_sim -- --ignored`"]
fn soak_seeds_hold_every_invariant() {
    for seed in TIER1_SEEDS..11 * TIER1_SEEDS {
        run_seed(seed);
    }
}

/// A SUBMIT_ANSWER naming a task outside the campaign, or an answer
/// outside its task's choices, is refused before the driver sees it:
/// nothing is counted or journaled and STATUS stays balanced. The
/// simulator's client then drives the campaign on to `run_campaign`'s
/// labels, and its journal recovers.
#[test]
fn out_of_range_submissions_are_refused_before_the_driver() {
    let sched = Schedule {
        dataset: "table1",
        approach: Approach::ICrowd(AssignStrategy::Adapt),
        config: Schedule::campaign("table1", 42),
        policy: DurabilityPolicy::FailStop,
        disk: DiskFaultConfig::default(),
        snapshot_every: 2,
        lose_reply: 0.0,
        send_twice: 0.0,
        crash: 0.0,
    };
    let mut sim = Sim::new(0, sched, DecisionStream::new(0));
    // The shadow is not fed the refused lines.
    sim.shadow = None;
    let refused = |sim: &Sim, line: &str, field: &str| {
        let ops = || sim.engine().journal_health().expect("journal attached").ops;
        let before = ops();
        match sim
            .engine()
            .handle(&Request::parse(line).expect("the line parses"), 0)
        {
            Response::Error { message } => assert!(message.contains(field), "{message}"),
            other => panic!("{line} was not refused: {other:?}"),
        }
        assert_eq!(ops(), before, "{line} was journaled");
    };
    refused(
        &sim,
        r#"{"op":"SUBMIT_ANSWER","worker":"W1","task":4000000,"answer":0}"#,
        "task",
    );
    // The worker whose turn it is gets an assignment; an answer beyond
    // the task's two choices on that scheduled submit is refused too.
    let (worker, task) = sim
        .workers
        .iter()
        .find_map(|w| {
            let poll = Request::RequestTask {
                worker: w.id.clone(),
            };
            match sim.engine().handle(&poll, 0) {
                Response::Task(task) => Some((w.id.clone(), task)),
                _ => None,
            }
        })
        .expect("some worker holds the first assignment");
    let line = format!(
        r#"{{"op":"SUBMIT_ANSWER","worker":"{worker}","task":{},"answer":2}}"#,
        task.0
    );
    refused(&sim, &line, "answer");
    match sim.engine().handle(&Request::Status, 0) {
        Response::Status {
            accounting,
            balanced,
            ..
        } => assert!(
            balanced && accounting.answers_submitted == 0,
            "{accounting:?}"
        ),
        other => panic!("STATUS answered {other:?}"),
    }
    // The holder re-polls, gets the same task back and answers it.
    let seen = sim.run();
    assert!(
        seen.contains("label parity") && seen.contains("snapshot verified"),
        "{seen:?}"
    );
}
