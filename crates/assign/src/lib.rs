//! # icrowd-assign
//!
//! Adaptive microtask assignment — Sections 4 and 5 of the iCrowd paper.
//!
//! * [`top_workers`] — Definition 3: for every uncompleted microtask, the
//!   `k' = k − |W^d(t)|` active workers with the highest estimated
//!   accuracies.
//! * [`greedy`] — Algorithm 3: the greedy approximation to the NP-hard
//!   optimal microtask assignment (disjoint top-worker sets maximizing
//!   summed accuracy).
//! * [`optimal`] — an exact branch-and-bound solver for the same problem,
//!   feasible only for small active-worker counts; powers the Table 5
//!   approximation-error experiment.
//! * [`testing`] — Step 3: performance-test assignments for workers the
//!   optimal scheme left idle, scored by estimate uncertainty × existing
//!   co-worker quality.
//! * [`qualification`] — Section 5: influence-maximizing qualification
//!   microtask selection (Algorithm 4, `1 − 1/e` greedy with CELF lazy
//!   evaluation) and the RandomQF baseline.

#![warn(missing_docs)]
#![warn(clippy::dbg_macro)]

pub mod greedy;
pub mod optimal;
pub mod qualification;
pub mod testing;
pub mod top_workers;

pub use greedy::{greedy_assign, Assignment};
pub use optimal::optimal_assign;
pub use qualification::{select_qualification_influence, select_qualification_random};
pub use testing::performance_test_assignment;
pub use top_workers::{top_worker_set, TopWorkerSet};
