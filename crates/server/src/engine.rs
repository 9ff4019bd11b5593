//! The shared campaign state behind the serving layer.
//!
//! [`CampaignEngine`] owns a [`MarketDriver`] plus the approach's
//! `ExternalQuestionServer` under one mutex — the deterministic
//! `(tick, sequence)` schedule is inherently serial, so concurrency at
//! the transport layer collapses to an ordered stream of `poll` /
//! `submit` calls here. Because both the in-process harness and this
//! engine drive the *identical* driver code in the identical order, a
//! served campaign's consensus labels are byte-identical to an
//! in-process `run_campaign` at the same seed.
//!
//! With a journal attached ([`CampaignEngine::start_journal`]), every
//! call that moved the driver's mutation epoch is appended to the
//! write-ahead journal *inside the campaign lock*, so journal order is
//! exactly apply order. The driver is deterministic given its
//! construction inputs, which makes the op log a complete
//! recovery image: [`crate::recovery::recover`] replays it through a
//! freshly prepared engine and resumes serving. Idempotent re-issues
//! and out-of-turn waits leave the epoch (and the journal) untouched,
//! and a journal-free engine takes none of these branches — the
//! no-journal serve path is structurally identical to the pre-journal
//! behavior.

use std::collections::{HashSet, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use icrowd_core::answer::Answer;
use icrowd_core::task::TaskId;
use icrowd_platform::journal::{
    fingerprint, JournalHeader, JournalIo, JournalOp, JournalRecord, JournalSnapshot,
    JournalWriter, StdIo, JOURNAL_VERSION,
};
use icrowd_platform::market::ExternalQuestionServer;
use icrowd_platform::{MarketAccounting, MarketDriver, PollOutcome, SubmitReport};
use icrowd_sim::campaign::{
    labels_lines, prepare_campaign, score_campaign, Approach, CampaignConfig, CampaignResult,
    CampaignServer,
};
use icrowd_sim::datasets::Dataset;

use crate::protocol::{JournalHealth, Request, Response};

/// A stable fingerprint of the full campaign configuration, stored in
/// the journal header so recovery refuses a journal written under a
/// different configuration.
pub fn config_fingerprint(config: &CampaignConfig) -> u64 {
    fingerprint(&format!("{config:?}"))
}

/// What the server does when the journal's disk fails underneath it.
/// The old behavior — silently dropping the journal and serving on
/// without durability — is gone: degradation is now always either
/// advertised or fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityPolicy {
    /// A journal I/O error is fatal: the engine refuses further
    /// mutations, the transport drains, and the process exits nonzero.
    /// The journal on disk remains a valid replayable prefix.
    #[default]
    FailStop,
    /// Keep serving without durability, but *advertised*: `STATUS`
    /// reports the detached journal, every response carries a
    /// `degraded` flag, and the `journal.detached` gauge is raised.
    Degrade,
    /// Buffer unjournaled ops and re-open/re-append with bounded
    /// backoff; after the retry budget is exhausted, escalate to the
    /// advertised degraded mode.
    Retry,
}

impl DurabilityPolicy {
    /// Stable flag/wire name.
    pub fn name(self) -> &'static str {
        match self {
            DurabilityPolicy::FailStop => "fail-stop",
            DurabilityPolicy::Degrade => "degrade",
            DurabilityPolicy::Retry => "retry",
        }
    }

    /// Parses the `--durability` flag value.
    ///
    /// # Errors
    /// Names the accepted values on anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "fail-stop" | "failstop" => Ok(DurabilityPolicy::FailStop),
            "degrade" => Ok(DurabilityPolicy::Degrade),
            "retry" => Ok(DurabilityPolicy::Retry),
            other => Err(format!(
                "unknown durability policy `{other}` (want fail-stop, degrade or retry)"
            )),
        }
    }
}

/// Consecutive failed repair attempts before the retry policy escalates
/// to the advertised degraded mode.
const MAX_RETRY_ATTEMPTS: u32 = 5;

/// Shared durability state, readable without the campaign lock: the
/// transport polls it to trigger the fail-stop drain and to stamp the
/// `degraded` flag on responses; the CLI polls it after the drain to
/// pick the process exit code.
#[derive(Debug, Default)]
pub struct DurabilityProbe {
    fail_stop: AtomicBool,
    degraded: AtomicBool,
}

impl DurabilityProbe {
    /// Whether a journal error tripped the fail-stop policy — the
    /// server must drain and exit nonzero.
    pub fn fail_stopped(&self) -> bool {
        self.fail_stop.load(Ordering::Relaxed)
    }

    /// Whether the server is serving without durability (advertised
    /// degraded mode).
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }
}

/// Where the journal currently stands in the policy state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JournalState {
    /// Healthy: every mutation is journaled.
    Attached,
    /// An append failed under the retry policy; ops are buffered and
    /// repair attempts run with op-count backoff.
    Retrying,
    /// Serving without durability, advertised. Terminal.
    Degraded,
    /// Fail-stop tripped; no further mutations are accepted. Terminal.
    FailStop,
}

impl JournalState {
    fn name(self) -> &'static str {
        match self {
            JournalState::Attached => "attached",
            JournalState::Retrying => "retrying",
            JournalState::Degraded => "degraded",
            JournalState::FailStop => "fail-stop",
        }
    }
}

/// Journal state riding inside the campaign lock, so append order is
/// apply order.
struct Journal {
    writer: JournalWriter,
    /// Ops appended so far (including replayed ones after recovery).
    ops: u64,
    /// Accepted answers between snapshots (`0` disables snapshots).
    snapshot_every: usize,
    accepted_since_snapshot: usize,
    /// Snapshot checkpoints in the file (including verified ones after
    /// recovery).
    snapshots: u64,
    policy: DurabilityPolicy,
    state: JournalState,
    /// Ops accepted by the driver but not yet journaled (retry policy).
    pending: VecDeque<JournalOp>,
    /// Consecutive failed repair attempts.
    retry_attempts: u32,
    /// Mutations to let pass before the next repair attempt.
    retry_backoff: u32,
    /// Accepted mutations that will never be journaled (degraded mode,
    /// or the op that tripped fail-stop) — counted and flagged, never
    /// silent.
    unjournaled: u64,
    /// Most recent journal I/O error.
    last_error: Option<String>,
}

impl Journal {
    /// A journal whose file already holds `ops` ops and `snapshots`
    /// checkpoints.
    fn new(
        writer: JournalWriter,
        snapshot_every: usize,
        ops: u64,
        snapshots: u64,
        policy: DurabilityPolicy,
    ) -> Self {
        Journal {
            writer,
            ops,
            snapshot_every,
            accepted_since_snapshot: 0,
            snapshots,
            policy,
            state: JournalState::Attached,
            pending: VecDeque::new(),
            retry_attempts: 0,
            retry_backoff: 0,
            unjournaled: 0,
            last_error: None,
        }
    }

    fn health(&self) -> JournalHealth {
        JournalHealth {
            state: self.state.name(),
            policy: self.policy.name(),
            ops: self.ops,
            snapshots: self.snapshots,
            pending: self.pending.len() as u64,
            unjournaled: self.unjournaled,
            last_error: self.last_error.clone(),
        }
    }
}

struct Core {
    driver: MarketDriver,
    backend: CampaignServer,
    journal: Option<Journal>,
    /// Worker ids that requested or submitted, for `STATUS`.
    workers_seen: HashSet<String>,
}

impl Core {
    /// Notes `worker` in [`Core::workers_seen`], allocating only on the
    /// worker's first op.
    fn saw(&mut self, worker: &str) {
        if !self.workers_seen.contains(worker) {
            self.workers_seen.insert(worker.to_owned());
        }
    }
}

/// One campaign served over the wire. See the module docs.
pub struct CampaignEngine {
    core: Mutex<Core>,
    durability: Arc<DurabilityProbe>,
    dataset_key: String,
    dataset: Dataset,
    approach: Approach,
    config: CampaignConfig,
    gold: Vec<TaskId>,
    start: Instant,
}

impl CampaignEngine {
    /// Prepares a campaign for serving: offline work (graph, one
    /// linearity index shared by gold selection and the estimator, gold
    /// selection) runs here, exactly as `run_campaign` would, and the
    /// marketplace driver is built from the same
    /// [`icrowd_sim::campaign::CampaignSetup`]. `recover()` calls this
    /// too, so a restarted server's setup builds the index once as well.
    ///
    /// `dataset_key` is the name clients feed to
    /// [`icrowd_sim::datasets::by_name`] to regenerate `dataset`.
    pub fn new(
        dataset_key: &str,
        dataset: Dataset,
        approach: Approach,
        config: CampaignConfig,
    ) -> Self {
        let setup = prepare_campaign(&dataset, approach, &config);
        let driver = MarketDriver::new(
            dataset.tasks.clone(),
            setup.market,
            setup.scripts,
            config.faults.clone(),
        );
        Self {
            core: Mutex::new(Core {
                driver,
                backend: setup.server,
                journal: None,
                workers_seen: HashSet::new(),
            }),
            durability: Arc::new(DurabilityProbe::default()),
            dataset_key: dataset_key.to_owned(),
            dataset,
            approach,
            config,
            gold: setup.gold,
            start: Instant::now(),
        }
    }

    /// Locks the campaign core, recovering from a poisoned lock: the
    /// driver's state transitions are all-or-nothing per call, so a
    /// panicking connection thread must not take the whole campaign (and
    /// every other client) down with it.
    fn core_lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The journal header identifying this campaign — what
    /// [`Self::start_journal`] writes and recovery verifies.
    pub fn expected_header(
        dataset_key: &str,
        approach: Approach,
        config: &CampaignConfig,
    ) -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            dataset: dataset_key.to_owned(),
            approach: approach.name(),
            seed: config.seed,
            config_fp: config_fingerprint(config),
        }
    }

    /// Creates a fresh journal at `path` and starts journaling every
    /// mutation under the default fail-stop durability policy. The
    /// header is written and synced immediately, so a crash at any
    /// later instant leaves a recoverable file.
    ///
    /// # Errors
    /// Propagates journal-creation and header-write failures.
    pub fn start_journal(
        &self,
        path: &Path,
        fsync_every: usize,
        snapshot_every: usize,
    ) -> std::io::Result<()> {
        self.start_journal_with(
            path,
            fsync_every,
            snapshot_every,
            DurabilityPolicy::FailStop,
            Box::new(StdIo),
        )
    }

    /// Like [`Self::start_journal`], with an explicit durability policy
    /// and an explicit [`JournalIo`] (the real filesystem, or a fault
    /// injector).
    ///
    /// # Errors
    /// Propagates journal-creation and header-write failures.
    pub fn start_journal_with(
        &self,
        path: &Path,
        fsync_every: usize,
        snapshot_every: usize,
        policy: DurabilityPolicy,
        io: Box<dyn JournalIo>,
    ) -> std::io::Result<()> {
        let mut writer = JournalWriter::create_with(path, fsync_every, io)?;
        writer.append(&JournalRecord::Header(Self::expected_header(
            &self.dataset_key,
            self.approach,
            &self.config,
        )))?;
        writer.sync()?;
        self.core_lock().journal = Some(Journal::new(writer, snapshot_every, 0, 0, policy));
        icrowd_obs::gauge_set("journal.detached", 0.0);
        Ok(())
    }

    /// Reattaches a journal writer after recovery replayed `ops`
    /// existing ops and verified `snapshots` checkpoints; subsequent
    /// mutations append after them, and both counts carry on from the
    /// file's.
    pub(crate) fn resume_journal(
        &self,
        writer: JournalWriter,
        snapshot_every: usize,
        ops: u64,
        snapshots: u64,
        policy: DurabilityPolicy,
    ) {
        self.core_lock().journal =
            Some(Journal::new(writer, snapshot_every, ops, snapshots, policy));
        icrowd_obs::gauge_set("journal.detached", 0.0);
    }

    /// The shared durability probe: `fail_stopped()` tells the
    /// transport to drain (and the CLI to exit nonzero), `degraded()`
    /// stamps the advertised `degraded` flag on responses. Clone the
    /// `Arc` before handing the engine to `serve`.
    pub fn durability(&self) -> Arc<DurabilityProbe> {
        Arc::clone(&self.durability)
    }

    /// Journal health as reported in `STATUS`; `None` when no journal
    /// was ever configured.
    pub fn journal_health(&self) -> Option<JournalHealth> {
        self.core_lock().journal.as_ref().map(Journal::health)
    }

    /// Appends one op (plus, every `snapshot_every` accepted answers, a
    /// snapshot checkpoint) to the journal, inside the campaign lock.
    /// The file is append-only, so every checkpoint stays in it for
    /// recovery to verify. A write
    /// failure lands in the configured [`DurabilityPolicy`] state
    /// machine — fail-stop, advertised degradation, or bounded retry —
    /// and counts `journal.error`; it is never silently swallowed.
    /// `op` builds the op only when it is to be written or kept, so a
    /// journal-free engine allocates nothing here.
    fn journal_append(
        &self,
        journal: &mut Option<Journal>,
        driver: &MarketDriver,
        op: impl FnOnce() -> JournalOp,
    ) {
        let Some(j) = journal.as_mut() else {
            return;
        };
        let _span = icrowd_obs::span!("journal.append");
        match j.state {
            // Terminal states: the op is accepted but will never be
            // journaled — count it so the loss is visible, not silent.
            JournalState::Degraded | JournalState::FailStop => {
                j.unjournaled += 1;
                icrowd_obs::counter_add("journal.unjournaled", 1);
            }
            JournalState::Retrying => {
                j.pending.push_back(op());
                self.journal_retry(j, driver);
            }
            JournalState::Attached => {
                let op = op();
                let accepted =
                    matches!(&op, JournalOp::Submit { verdict, .. } if verdict == "accepted");
                let record = JournalRecord::Op(op);
                if let Err(e) = j.writer.append(&record) {
                    let JournalRecord::Op(op) = record else {
                        unreachable!("the record was built from the op above")
                    };
                    self.journal_fault(j, Some(op), &e);
                    return;
                }
                j.ops += 1;
                if accepted {
                    j.accepted_since_snapshot += 1;
                }
                if j.snapshot_every > 0 && j.accepted_since_snapshot >= j.snapshot_every {
                    j.accepted_since_snapshot = 0;
                    let snap = JournalSnapshot {
                        ops: j.ops,
                        answers: driver.answers() as u64,
                        accounting: driver.accounting(),
                        end_tick: driver.now().0,
                        epoch: driver.epoch(),
                    };
                    icrowd_obs::counter_add("journal.snapshot", 1);
                    match j.writer.append(&JournalRecord::Snapshot(snap)) {
                        // The op itself is durable; only the checkpoint
                        // was lost, so nothing lands in `pending`.
                        Err(e) => self.journal_fault(j, None, &e),
                        Ok(()) => j.snapshots += 1,
                    }
                }
            }
        }
    }

    /// Routes a journal I/O error into the configured policy.
    /// `lost_op` is the op whose append failed (`None` when only a
    /// snapshot checkpoint failed and every op is still durable).
    fn journal_fault(&self, j: &mut Journal, lost_op: Option<JournalOp>, err: &std::io::Error) {
        j.last_error = Some(err.to_string());
        icrowd_obs::counter_add("journal.error", 1);
        match j.policy {
            DurabilityPolicy::FailStop => {
                j.state = JournalState::FailStop;
                if lost_op.is_some() {
                    j.unjournaled += 1;
                    icrowd_obs::counter_add("journal.unjournaled", 1);
                }
                self.durability.fail_stop.store(true, Ordering::Relaxed);
            }
            DurabilityPolicy::Degrade => {
                Self::journal_degrade(&self.durability, j);
                if lost_op.is_some() {
                    j.unjournaled += 1;
                    icrowd_obs::counter_add("journal.unjournaled", 1);
                }
            }
            DurabilityPolicy::Retry => {
                j.state = JournalState::Retrying;
                j.retry_attempts = 0;
                j.retry_backoff = 0;
                if let Some(op) = lost_op {
                    j.pending.push_back(op);
                }
            }
        }
    }

    /// Switches to the advertised degraded mode: `STATUS` reports the
    /// detachment, every response carries the `degraded` flag, and the
    /// `journal.detached` gauge is raised.
    fn journal_degrade(probe: &DurabilityProbe, j: &mut Journal) {
        j.state = JournalState::Degraded;
        j.unjournaled += j.pending.len() as u64;
        icrowd_obs::counter_add("journal.unjournaled", j.pending.len() as u64);
        j.pending.clear();
        probe.degraded.store(true, Ordering::Relaxed);
        icrowd_obs::gauge_set("journal.detached", 1.0);
        icrowd_obs::counter_add("journal.degraded", 1);
    }

    /// One bounded-backoff repair attempt: truncate the file to its
    /// longest valid prefix (the journal invariant — a torn frame never
    /// survives), reopen, re-append everything pending, and sync to
    /// prove durability before claiming reattachment. Repair runs at
    /// exponentially spaced mutation counts (1, 2, 4, … ops between
    /// attempts — never sleeping under the campaign lock) and escalates
    /// to the advertised degraded mode after [`MAX_RETRY_ATTEMPTS`]
    /// consecutive failures.
    fn journal_retry(&self, j: &mut Journal, _driver: &MarketDriver) {
        if j.retry_backoff > 0 {
            j.retry_backoff -= 1;
            return;
        }
        j.retry_attempts += 1;
        icrowd_obs::counter_add("journal.retry", 1);
        let attempt = |j: &mut Journal| -> std::io::Result<()> {
            let on_disk = j.writer.repair()?;
            // Frames that landed despite a reported failure (a complete
            // write whose fsync failed) are already durable: drop the
            // matching head of the pending queue instead of re-appending
            // it — re-appending would double-count the op on replay.
            while on_disk > j.ops && !j.pending.is_empty() {
                j.pending.pop_front();
                j.ops += 1;
            }
            while let Some(op) = j.pending.front() {
                j.writer.append(&JournalRecord::Op(op.clone()))?;
                j.pending.pop_front();
                j.ops += 1;
            }
            j.writer.sync()
        };
        match attempt(j) {
            Ok(()) => {
                j.state = JournalState::Attached;
                j.retry_attempts = 0;
                j.retry_backoff = 0;
                j.last_error = None;
                icrowd_obs::counter_add("journal.reattached", 1);
            }
            Err(e) => {
                j.last_error = Some(e.to_string());
                icrowd_obs::counter_add("journal.error", 1);
                if j.retry_attempts >= MAX_RETRY_ATTEMPTS {
                    Self::journal_degrade(&self.durability, j);
                } else {
                    j.retry_backoff = 1 << j.retry_attempts;
                }
            }
        }
    }

    /// Handles one request. `conns` is the transport's open connection
    /// count, echoed in `STATUS`.
    pub fn handle(&self, req: &Request, conns: usize) -> Response {
        match req {
            Request::Hello => Response::Hello {
                dataset: self.dataset_key.clone(),
                seed: self.config.seed,
                workers: self.dataset.workers.len(),
                tasks: self.dataset.tasks.len(),
                approach: self.approach.name(),
            },
            Request::RequestTask { worker } => self.request_task(worker),
            Request::SubmitAnswer {
                worker,
                task,
                answer,
            } => self.submit_answer(worker, *task, *answer),
            Request::Status => self.status(conns),
            Request::Results => Response::Results {
                labels: self.labels(),
            },
            // Scrapes the telemetry plane, not the campaign: it takes
            // no engine lock, so scraping a busy server cannot perturb
            // assignment.
            Request::Metrics => Response::Metrics {
                window: icrowd_obs::window_advance().to_json(),
            },
            Request::Shutdown => Response::Bye,
        }
    }

    /// The fail-stop refusal: once durability is lost under the
    /// fail-stop policy, no further mutations are accepted — the
    /// journal on disk stays a replayable prefix of exactly what the
    /// server acknowledged, and the transport drains.
    fn refuse_if_fail_stopped(&self) -> Option<Response> {
        if self.durability.fail_stopped() {
            Some(Response::Error {
                message: "durability lost (fail-stop policy); server is draining".into(),
            })
        } else {
            None
        }
    }

    fn request_task(&self, worker: &str) -> Response {
        let _span = icrowd_obs::span!("serve.request");
        if let Some(refusal) = self.refuse_if_fail_stopped() {
            return refusal;
        }
        let outcome = {
            let mut core = self.core_lock();
            core.saw(worker);
            let Core {
                driver,
                backend,
                journal,
                ..
            } = &mut *core;
            let before = driver.epoch();
            let outcome = driver.poll(backend, worker);
            if driver.epoch() != before {
                self.journal_append(journal, driver, || JournalOp::Poll {
                    worker: worker.to_owned(),
                    tag: outcome,
                });
            }
            outcome
        };
        match outcome {
            PollOutcome::Assigned(task) => Response::Task(task),
            PollOutcome::Wait => Response::Wait,
            PollOutcome::Declined { retry } => Response::Declined { retry },
            PollOutcome::Left => Response::Left,
        }
    }

    fn submit_answer(&self, worker: &str, task: TaskId, answer: Answer) -> Response {
        let _span = icrowd_obs::span!("serve.submit");
        if let Some(refusal) = self.refuse_if_fail_stopped() {
            return refusal;
        }
        // A task or answer outside the campaign is a malformed request,
        // refused before the driver can count or journal it.
        let Some(t) = self.dataset.tasks.get(task) else {
            return Response::Error {
                message: format!(
                    "task {} is out of range: the campaign has {} tasks",
                    task.0,
                    self.dataset.tasks.len()
                ),
            };
        };
        if !t.is_valid_answer(answer) {
            return Response::Error {
                message: format!(
                    "answer {} is out of range: task {} has {} choices",
                    answer.0, task.0, t.num_choices
                ),
            };
        }
        let mut core = self.core_lock();
        core.saw(worker);
        let Core {
            driver,
            backend,
            journal,
            ..
        } = &mut *core;
        let before = driver.epoch();
        // The scheduled path is only for the assignment the driver
        // is suspended on; everything else (duplicates, unsolicited
        // submissions from misbehaving clients) goes through the
        // stray path, which validates without touching the schedule.
        let scheduled = driver
            .pending()
            .filter(|p| driver.external_id(p.worker) == worker && p.task == task);
        let resp = match scheduled {
            Some(p) => match driver.submit_scheduled(p.worker, answer, backend) {
                SubmitReport::Delivered(outcome) => Response::from_outcome(outcome),
                SubmitReport::Dropped => Response::Submit {
                    result: "dropped",
                    reason: None,
                },
                SubmitReport::Stalled => Response::Submit {
                    result: "stalled",
                    reason: None,
                },
                SubmitReport::Deferred => Response::Submit {
                    result: "deferred",
                    reason: None,
                },
            },
            None => Response::from_outcome(driver.submit_stray(backend, worker, task, answer)),
        };
        // The continuous conservation law must hold after every
        // submission; a violation means a verdict was double-counted.
        let a = driver.accounting();
        if a.answers_accepted + a.answers_rejected != a.answers_submitted {
            icrowd_obs::counter_add("serve.invariant_violation", 1);
        }
        if driver.epoch() != before {
            if let Response::Submit { result, reason } = &resp {
                self.journal_append(journal, driver, || JournalOp::Submit {
                    worker: worker.to_owned(),
                    task: task.0,
                    answer: answer.0,
                    verdict: reason
                        .map_or_else(|| (*result).to_owned(), |r| format!("{result}:{r}")),
                });
            }
        }
        resp
    }

    fn status(&self, conns: usize) -> Response {
        let mut core = self.core_lock();
        let Core {
            driver,
            backend,
            journal,
            workers_seen,
        } = &mut *core;
        // Pump deferred (late) deliveries so progress keeps moving even
        // after every worker left, and the final sweep runs once the
        // schedule drains. Once fail-stop trips, pumps (mutations) stop
        // too: the journal prefix stays exactly what was acknowledged.
        if !self.durability.fail_stopped() {
            let before = driver.epoch();
            driver.pump(backend);
            if driver.epoch() != before {
                self.journal_append(journal, driver, || JournalOp::Pump);
            }
        }
        let a = driver.accounting();
        // The settlement law `paid + abandoned == accepted` holds only
        // once the final sweep has settled every open HIT; until then
        // only the continuous law is checked.
        let finished = driver.is_finished();
        Response::Status {
            complete: backend.is_complete(),
            finished,
            answers: driver.answers(),
            accounting: a,
            balanced: if finished {
                a.balanced()
            } else {
                a.answers_accepted + a.answers_rejected == a.answers_submitted
            },
            conns,
            workers_seen: workers_seen.len(),
            journal: journal.as_ref().map(Journal::health),
        }
    }

    /// Current consensus labels in canonical line format.
    pub fn labels(&self) -> String {
        let mut core = self.core_lock();
        let Core {
            driver,
            backend,
            journal,
            ..
        } = &mut *core;
        if !self.durability.fail_stopped() {
            let before = driver.epoch();
            driver.pump(backend);
            if driver.epoch() != before {
                self.journal_append(journal, driver, || JournalOp::Pump);
            }
        }
        let results = backend.results(self.config.weighted_aggregation);
        let mut labels: Vec<(TaskId, Answer)> = results.into_iter().collect();
        labels.sort_unstable_by_key(|(t, _)| *t);
        labels_lines(&labels)
    }

    /// Applies a deferred-delivery pump without journaling — the
    /// recovery path replaying a journaled `Pump` record.
    pub(crate) fn replay_pump(&self) {
        let mut core = self.core_lock();
        let Core {
            driver, backend, ..
        } = &mut *core;
        driver.pump(backend);
    }

    /// The checkpoint view of the driver: accounting, accepted answers,
    /// latest tick and mutation epoch — what snapshots pin and recovery
    /// verifies.
    pub fn checkpoint(&self) -> (MarketAccounting, u64, u64, u64) {
        let core = self.core_lock();
        (
            core.driver.accounting(),
            core.driver.answers() as u64,
            core.driver.now().0,
            core.driver.epoch(),
        )
    }

    /// Drains the campaign into its scored result: pumps stragglers,
    /// forces the final sweep if the schedule did not complete, and
    /// scores exactly as the in-process harness does. The journal (if
    /// any) is synced and closed *before* the drain sweep runs — drain
    /// mutations are never journaled, so a recovered campaign resumes
    /// from the last served state, not a half-drained one.
    pub fn finalize(self) -> CampaignResult {
        let core = self
            .core
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let Core {
            mut driver,
            mut backend,
            journal,
            ..
        } = core;
        if let Some(mut j) = journal {
            let _ = j.writer.sync();
        }
        driver.pump(&mut backend);
        if !driver.is_finished() {
            driver.finish_now();
        }
        let outcome = driver.into_outcome();
        score_campaign(
            &self.dataset,
            self.approach,
            &self.config,
            &mut backend,
            self.gold,
            &outcome,
            self.start.elapsed().as_secs_f64() * 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icrowd_core::config::ICrowdConfig;
    use icrowd_sim::campaign::MetricChoice;
    use icrowd_sim::datasets::table1;

    fn quick_config() -> CampaignConfig {
        let mut config = CampaignConfig {
            metric: MetricChoice::Jaccard,
            icrowd: ICrowdConfig {
                similarity_threshold: 0.3,
                ..Default::default()
            },
            ..Default::default()
        };
        config.icrowd.warmup.num_qualification = 3;
        config
    }

    fn engine() -> CampaignEngine {
        CampaignEngine::new("table1", table1(), Approach::RandomMV, quick_config())
    }

    /// Drives a whole campaign through the request interface, exactly as
    /// remote pollers would, and checks the drain matches in-process.
    #[test]
    fn engine_driven_campaign_matches_in_process_labels() {
        let ds = table1();
        let config = quick_config();
        let expected = icrowd_sim::campaign::run_campaign(&ds, Approach::RandomMV, &config);

        let eng = engine();
        let workers: Vec<String> = (1..=ds.workers.len()).map(|i| format!("W{i}")).collect();
        let sims = ds.spawn_workers(config.seed);
        let mut sims: Vec<_> = sims.into_iter().map(Some).collect();
        let mut live = workers.len();
        let mut guard = 0;
        while live > 0 {
            guard += 1;
            assert!(guard < 1_000_000, "engine livelocked");
            for (i, w) in workers.iter().enumerate() {
                let Some(sim) = sims[i].as_mut() else {
                    continue;
                };
                match eng.handle(&Request::RequestTask { worker: w.clone() }, 0) {
                    Response::Task(task) => {
                        let answer =
                            icrowd_platform::market::WorkerBehavior::answer(sim, &ds.tasks[task]);
                        let resp = eng.handle(
                            &Request::SubmitAnswer {
                                worker: w.clone(),
                                task,
                                answer,
                            },
                            0,
                        );
                        assert!(
                            matches!(resp, Response::Submit { .. }),
                            "unexpected submit response {resp:?}"
                        );
                    }
                    Response::Wait | Response::Declined { retry: true } => {}
                    Response::Left | Response::Declined { retry: false } => {
                        sims[i] = None;
                        live -= 1;
                    }
                    other => panic!("unexpected poll response {other:?}"),
                }
            }
        }
        let labels = eng.labels();
        let result = eng.finalize();
        assert_eq!(labels, labels_lines(&expected.labels));
        assert_eq!(labels_lines(&result.labels), labels_lines(&expected.labels));
        assert_eq!(result.answers, expected.answers);
        assert_eq!(result.spend_cents, expected.spend_cents);
        assert!(result.accounting.balanced());
    }

    #[test]
    fn stray_submission_is_rejected_and_accounted() {
        let eng = engine();
        let resp = eng.handle(
            &Request::SubmitAnswer {
                worker: "W1".into(),
                task: TaskId(0),
                answer: Answer(0),
            },
            0,
        );
        assert!(
            matches!(
                resp,
                Response::Submit {
                    result: "rejected",
                    ..
                }
            ),
            "{resp:?}"
        );
        // A repeat from the same worker is no new worker.
        let _ = eng.handle(
            &Request::RequestTask {
                worker: "W1".into(),
            },
            0,
        );
        match eng.handle(&Request::Status, 0) {
            Response::Status {
                balanced,
                accounting,
                workers_seen,
                ..
            } => {
                assert!(balanced);
                assert_eq!(accounting.answers_rejected, 1);
                assert_eq!(workers_seen, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn finalize_mid_campaign_still_balances() {
        let eng = engine();
        // One real poll so a session opens, then drain immediately.
        let mut polled = false;
        for i in 1..=5 {
            if let Response::Task(task) = eng.handle(
                &Request::RequestTask {
                    worker: format!("W{i}"),
                },
                0,
            ) {
                let _ = eng.handle(
                    &Request::SubmitAnswer {
                        worker: format!("W{i}"),
                        task,
                        answer: Answer(0),
                    },
                    0,
                );
                polled = true;
                break;
            }
        }
        assert!(polled, "no worker could be assigned");
        let result = eng.finalize();
        assert!(result.accounting.balanced());
        assert!(!result.completed);
    }

    /// Feeds a journal's ops through a fresh [`engine`], as recovery
    /// replays them.
    fn replay(ops: &[JournalOp]) -> CampaignEngine {
        let fresh = engine();
        for op in ops {
            match op {
                JournalOp::Poll { worker, .. } => {
                    fresh.handle(
                        &Request::RequestTask {
                            worker: worker.clone(),
                        },
                        0,
                    );
                }
                JournalOp::Submit {
                    worker,
                    task,
                    answer,
                    ..
                } => {
                    fresh.handle(
                        &Request::SubmitAnswer {
                            worker: worker.clone(),
                            task: TaskId(*task),
                            answer: Answer(*answer),
                        },
                        0,
                    );
                }
                JournalOp::Pump => fresh.replay_pump(),
            }
        }
        fresh
    }

    /// Journaling must not perturb the campaign: a journal-attached
    /// engine produces the identical op stream the journal records, and
    /// a journal-free engine at the same seed yields identical labels.
    #[test]
    fn journaled_engine_records_every_mutation_and_labels_match() {
        let path =
            std::env::temp_dir().join(format!("icrowd_engine_journal_{}.bin", std::process::id()));
        let eng = engine();
        eng.start_journal(&path, 1, 4).unwrap();

        let plain = engine();
        for i in 1..=5u32 {
            let w = format!("W{i}");
            let r1 = eng.handle(&Request::RequestTask { worker: w.clone() }, 0);
            let r2 = plain.handle(&Request::RequestTask { worker: w.clone() }, 0);
            assert_eq!(r1, r2, "journaling changed serving behavior");
            if let Response::Task(task) = r1 {
                let a1 = eng.handle(
                    &Request::SubmitAnswer {
                        worker: w.clone(),
                        task,
                        answer: Answer(0),
                    },
                    0,
                );
                let a2 = plain.handle(
                    &Request::SubmitAnswer {
                        worker: w,
                        task,
                        answer: Answer(0),
                    },
                    0,
                );
                assert_eq!(a1, a2);
            }
        }
        let (acct, answers, end, epoch) = eng.checkpoint();
        let r = eng.finalize();
        assert!(r.accounting.balanced());

        let readout = icrowd_platform::read_journal(&path).unwrap();
        assert_eq!(
            readout.header,
            Some(CampaignEngine::expected_header(
                "table1",
                Approach::RandomMV,
                &quick_config()
            ))
        );
        assert!(!readout.ops.is_empty(), "mutating polls were journaled");
        assert_eq!(readout.truncated_bytes, 0);

        // Replaying the journal through a fresh engine reproduces the
        // exact checkpoint the live engine reached.
        assert_eq!(
            replay(&readout.ops).checkpoint(),
            (acct, answers, end, epoch)
        );
        std::fs::remove_file(&path).ok();
    }

    use icrowd_platform::{DiskFaultConfig, FaultyIo};

    /// Attaches a [`FaultyIo`] journal under `policy`, scanning seeds
    /// until the header write lands so the interesting faults hit live
    /// mutations rather than journal creation.
    fn faulty_journal_engine(
        policy: DurabilityPolicy,
        mut config: DiskFaultConfig,
    ) -> (CampaignEngine, std::path::PathBuf, FaultyIo) {
        for seed in 0..1000 {
            config.seed = seed;
            let io = FaultyIo::new(config.clone());
            let eng = engine();
            let path = std::env::temp_dir().join(format!(
                "icrowd_engine_{}_{}_{}.bin",
                policy.name(),
                seed,
                std::process::id()
            ));
            if eng
                .start_journal_with(&path, 1, 0, policy, Box::new(io.clone()))
                .is_ok()
            {
                return (eng, path, io);
            }
            std::fs::remove_file(&path).ok();
        }
        panic!("no seed admitted a clean header write");
    }

    /// Runs `rounds` poll/submit exchanges against the engine.
    fn drive(eng: &CampaignEngine, rounds: u32) {
        for i in 0..rounds {
            let w = format!("W{}", 1 + (i % 5));
            if let Response::Task(task) = eng.handle(&Request::RequestTask { worker: w.clone() }, 0)
            {
                let _ = eng.handle(
                    &Request::SubmitAnswer {
                        worker: w,
                        task,
                        answer: Answer(0),
                    },
                    0,
                );
            }
        }
    }

    #[test]
    fn fail_stop_policy_refuses_mutations_after_a_fault() {
        let (eng, path, io) = faulty_journal_engine(
            DurabilityPolicy::FailStop,
            DiskFaultConfig {
                eio_rate: 0.2,
                ..Default::default()
            },
        );
        let probe = eng.durability();
        for _ in 0..200 {
            if probe.fail_stopped() {
                break;
            }
            drive(&eng, 5);
        }
        assert!(probe.fail_stopped(), "no fault fired in 200 rounds");
        assert!(io.stats().eio > 0);

        // Mutations are refused with an explicit drain message...
        match eng.handle(
            &Request::RequestTask {
                worker: "W1".into(),
            },
            0,
        ) {
            Response::Error { message } => assert!(message.contains("fail-stop"), "{message}"),
            other => panic!("fail-stopped engine served a mutation: {other:?}"),
        }
        // ...while read-only STATUS keeps answering, reporting the state.
        match eng.handle(&Request::Status, 0) {
            Response::Status { journal, .. } => {
                let health = journal.expect("journaled engine reports health");
                assert_eq!(health.state, "fail-stop");
                assert!(health.last_error.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        // The surviving file is a valid replayable prefix.
        let readout = icrowd_platform::read_journal(&path).unwrap();
        assert!(readout.header.is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn degrade_policy_advertises_and_keeps_serving() {
        let (eng, path, io) = faulty_journal_engine(
            DurabilityPolicy::Degrade,
            DiskFaultConfig {
                enospc_rate: 0.2,
                ..Default::default()
            },
        );
        let probe = eng.durability();
        for _ in 0..200 {
            if probe.degraded() {
                break;
            }
            drive(&eng, 5);
        }
        assert!(probe.degraded(), "no fault fired in 200 rounds");
        assert!(io.stats().enospc > 0);
        assert!(!probe.fail_stopped());

        // Serving continues: a mutation is not refused.
        let resp = eng.handle(
            &Request::RequestTask {
                worker: "W1".into(),
            },
            0,
        );
        assert!(
            !matches!(resp, Response::Error { .. }),
            "degraded engine refused a mutation: {resp:?}"
        );
        let health = eng.journal_health().unwrap();
        assert_eq!(health.state, "degraded");
        assert!(
            health.unjournaled > 0,
            "accepted-but-unjournaled mutations must be counted"
        );
        // Degradation never corrupts the prefix that did land.
        let readout = icrowd_platform::read_journal(&path).unwrap();
        assert!(readout.header.is_some());
        let r = eng.finalize();
        assert!(r.accounting.balanced());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_policy_repairs_and_reattaches() {
        // fsync-only faults: every frame lands complete, so repair can
        // always truncate-reopen-resync its way back to attached.
        let (eng, path, io) = faulty_journal_engine(
            DurabilityPolicy::Retry,
            DiskFaultConfig {
                fsync_rate: 0.2,
                ..Default::default()
            },
        );
        let probe = eng.durability();
        drive(&eng, 120);
        assert!(
            io.stats().fsync_failures > 0,
            "no fsync fault in 120 rounds"
        );
        // Drive until the most recent repair attempt sticks.
        let mut health = eng.journal_health().unwrap();
        for _ in 0..200 {
            if health.state == "attached" {
                break;
            }
            drive(&eng, 5);
            health = eng.journal_health().unwrap();
        }
        assert_eq!(health.state, "attached", "retry never reattached");
        assert!(!probe.fail_stopped() && !probe.degraded());
        assert_eq!(health.pending, 0);
        assert_eq!(health.unjournaled, 0);

        // Every mutation made it to disk exactly once: replaying the
        // journal reproduces the live engine's checkpoint.
        let readout = icrowd_platform::read_journal(&path).unwrap();
        assert_eq!(readout.ops.len() as u64, health.ops);
        assert_eq!(replay(&readout.ops).checkpoint(), eng.checkpoint());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_policy_escalates_to_degraded_when_repair_keeps_failing() {
        // open faults poison `repair` (set_len and open_append both draw
        // from the open stream), so attempts fail until escalation.
        let (eng, path, _io) = faulty_journal_engine(
            DurabilityPolicy::Retry,
            DiskFaultConfig {
                eio_rate: 0.2,
                open_rate: 0.95,
                ..Default::default()
            },
        );
        let probe = eng.durability();
        for _ in 0..500 {
            if probe.degraded() {
                break;
            }
            drive(&eng, 5);
        }
        assert!(
            probe.degraded(),
            "exhausted retries must escalate to the advertised degraded mode"
        );
        assert!(!probe.fail_stopped());
        assert_eq!(eng.journal_health().unwrap().state, "degraded");
        std::fs::remove_file(&path).ok();
    }
}
