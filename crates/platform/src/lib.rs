//! # icrowd-platform
//!
//! A simulated Amazon Mechanical Turk marketplace — the substitute for
//! the live platform of the paper's Appendix A.
//!
//! The paper's deployment wraps microtasks in HITs carrying only an
//! *ExternalQuestion* URL: when a worker accepts a HIT and asks for work,
//! AMT calls iCrowd's web server, which decides the actual assignment;
//! answers flow back the same way and iCrowd triggers payment through the
//! AMT API. Everything iCrowd can observe of AMT is therefore the
//! request → assign → answer → pay loop, and that loop is exactly what
//! this crate simulates:
//!
//! * [`hit`] — HIT batches (10 microtasks per HIT, $0.10 per assignment
//!   in the paper's setup) with bounded assignments per HIT.
//! * [`session`] — per-worker HIT sessions (accept, work, submit,
//!   abandon).
//! * [`market`] — the deterministic event-driven marketplace loop
//!   driving pluggable worker behaviours against a pluggable
//!   [`ExternalQuestionServer`] (the role iCrowd or any baseline plays).
//! * [`driver`] — the same loop as a suspendable state machine
//!   ([`MarketDriver`]), split at the answer point so a TCP serving
//!   layer can host the identical deterministic schedule.
//! * [`payment`] — the payment ledger.
//! * [`events`] — a structured, serializable event log for replay and
//!   debugging.
//! * [`faults`] — seedable fault injection (dropped, duplicated, and
//!   late answers; stalls; churn spikes) for chaos-testing the loop.
//! * [`journal`] — a crash-consistent, append-only write-ahead journal
//!   of driver mutations (CRC32-framed records, batched fsync,
//!   interleaved snapshot checkpoints) that a serving layer replays to
//!   recover a campaign.
//!
//! The networked deployment of the same loop, with workers reaching the
//! server over real sockets, is `icrowd-serve`.

#![warn(missing_docs)]
#![warn(clippy::dbg_macro)]

pub mod driver;
pub mod events;
pub mod faults;
pub mod hit;
pub mod journal;
pub mod market;
pub mod payment;
pub mod session;

pub use driver::{MarketDriver, PendingAssignment, PollOutcome, SubmitReport, TurnOutcome};
pub use events::{EventLog, MarketEvent, RejectReason};
pub use faults::{ChurnSpike, FaultConfig, FaultPlan, FaultStats};
pub use hit::{HitId, HitPool};
pub use journal::{
    read_journal, DiskFaultConfig, DiskFaultStats, FaultyIo, JournalFile, JournalHeader, JournalIo,
    JournalOp, JournalReadout, JournalRecord, JournalSnapshot, JournalWriter, PollTag, StdIo,
};
pub use market::{
    ExternalQuestionServer, MarketAccounting, MarketConfig, MarketOutcome, Marketplace,
    SubmitOutcome, WorkerScript,
};
pub use payment::PaymentLedger;
pub use session::{SessionState, WorkerSession};
