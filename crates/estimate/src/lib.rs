//! # icrowd-estimate
//!
//! Worker-accuracy estimation — Section 3 of the iCrowd paper.
//!
//! * [`observed`] — *observed accuracies* `q_i^w`: 0/1 against ground
//!   truth for qualification microtasks, and Equation (5)'s
//!   consensus-probability model for ordinary globally completed
//!   microtasks.
//! * [`estimator`] — the full [`AccuracyEstimator`] implementing
//!   Algorithm 1: a graph [`icrowd_graph::LinearityIndex`] built offline,
//!   online estimation as a sparse weighted sum of precomputed PPR
//!   vectors, with per-worker caching and a configurable treatment of
//!   tasks the propagation never reaches ([`EstimationMode`]).
//! * [`uncertainty`] — the Step-3 beta-posterior uncertainty of an
//!   estimate over a task's graph neighborhood (Section 4.1).

#![warn(missing_docs)]
#![warn(clippy::dbg_macro)]

pub mod estimator;
pub mod observed;
mod row;
pub mod uncertainty;

pub use estimator::{AccuracyEstimator, EstimationMode};
pub use observed::{observed_accuracy, qualification_observed};
pub use uncertainty::NeighborhoodEvidence;
