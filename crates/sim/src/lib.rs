//! # icrowd-sim
//!
//! Simulated crowds, synthetic datasets and the campaign harness that
//! regenerates the paper's experiments.
//!
//! The paper evaluated iCrowd on Amazon Mechanical Turk with real
//! workers; offline we replace the human crowd with stochastic workers
//! whose *per-domain* accuracy matrices reproduce the diversity regime of
//! Figure 6 (each worker strong in one or two domains, weak elsewhere —
//! anchor values from the paper's text are hard-coded in [`profiles`]).
//!
//! * [`worker_model`] — [`SimWorker`]: Bernoulli answers driven by a
//!   domain-accuracy matrix, pluggable into the platform as a
//!   [`icrowd_platform::market::WorkerBehavior`].
//! * [`profiles`] — diversity-regime generators + Figure 6 anchors.
//! * [`datasets`] — YahooQA (110 tasks / 6 domains / 25 workers),
//!   ItemCompare (360 / 4 / 53), the Table-1 worked example, and the
//!   Figure-10 scalability workload.
//! * [`campaign`] — run any approach (iCrowd strategies or the three
//!   baselines) over a dataset on the simulated marketplace.
//! * [`metrics`] — per-domain accuracy, assignment distributions,
//!   approximation errors.

#![warn(missing_docs)]
#![warn(clippy::dbg_macro)]

pub mod campaign;
pub mod datasets;
pub mod metrics;
pub mod profiles;
pub mod worker_model;

pub use campaign::{run_campaign, Approach, CampaignConfig, CampaignResult, QualStrategy};
pub use datasets::Dataset;
pub use metrics::DomainAccuracy;
pub use profiles::WorkerProfile;
pub use worker_model::SimWorker;
