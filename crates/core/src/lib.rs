//! # icrowd-core
//!
//! Foundational types and voting mathematics for the iCrowd adaptive
//! crowdsourcing framework (Fan et al., SIGMOD 2015).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`task`] — microtasks ([`Microtask`]), task identifiers, domains and
//!   ground truth.
//! * [`worker`] — worker identifiers, worker records and activity tracking
//!   (the paper's *active*/*inactive* distinction, Section 4.1 Step 1).
//! * [`answer`] — answers, votes and per-task vote sets with consensus
//!   detection (*globally completed* microtasks, Section 2.1).
//! * [`voting`] — simple and weighted majority voting (Section 2.1).
//! * [`probability`] — worker-set accuracy `Pr(W_t)` from Equation (1),
//!   computed both by exact subset enumeration and by an `O(k^2)`
//!   Poisson-binomial dynamic program.
//! * [`config`] — tunable parameters (`k`, `alpha`, thresholds, ...).
//! * [`error`] — the crate-level error type.
//!
//! The crate is dependency-light by design: everything downstream (graph
//! estimation, assignment, platform simulation) builds on these types.

#![warn(missing_docs)]
#![warn(clippy::dbg_macro)]

pub mod answer;
pub mod config;
pub mod error;
pub mod probability;
pub mod task;
pub mod voting;
pub mod worker;

pub use answer::{Answer, Vote, VoteSet};
pub use config::{ICrowdConfig, PprConfig, WarmupConfig};
pub use error::CoreError;
pub use probability::{beta_variance, worker_set_accuracy, worker_set_accuracy_enumerate};
pub use task::{Domain, DomainRegistry, Microtask, TaskId, TaskSet};
pub use voting::{majority_vote, weighted_majority_vote, ConsensusState, VoteOutcome};
pub use worker::{ActivityTracker, Tick, WorkerId, WorkerRecord};
