//! Campaign labels pinned to fixed bytes.
//!
//! The CI serve job, `tests/serve_e2e.rs` and perfbench's gate compare
//! served labels with `run_campaign`, so a change that moves both paths
//! together passes them all. These files were written by this exact
//! call and hold `run_campaign`'s consensus labels (`labels_lines`) and
//! its gold set, one task id a line. Any change to the offline build,
//! gold selection, assignment or aggregation that moves a byte fails
//! here. Every iCrowd strategy is pinned: Adapt and QF-Only run
//! Algorithm 2's top-worker sets and greedy walk, BestEffort the
//! candidate pool.

use icrowd::AssignStrategy;
use icrowd_core::config::ICrowdConfig;
use icrowd_sim::campaign::{
    labels_lines, run_campaign, Approach, CampaignConfig, CampaignResult, MetricChoice,
    QualStrategy,
};
use icrowd_sim::datasets::{item_compare, yahooqa};

/// The config perfbench serves: `icrowd serve --dataset item_compare`
/// with its default flags.
fn served_config(seed: u64) -> CampaignConfig {
    let mut icrowd = ICrowdConfig {
        assignment_size: 3,
        similarity_threshold: 0.8,
        ..Default::default()
    };
    icrowd.warmup.num_qualification = 10;
    CampaignConfig {
        seed,
        icrowd,
        metric: MetricChoice::CosTopic { num_topics: 8 },
        qual: QualStrategy::Influence,
        ..Default::default()
    }
}

fn gold_lines(result: &CampaignResult) -> String {
    result.gold.iter().map(|t| format!("{}\n", t.0)).collect()
}

fn assert_golden(result: &CampaignResult, labels: &str, gold: &str) {
    assert_eq!(
        labels_lines(&result.labels),
        labels,
        "{} on {}: labels moved",
        result.approach,
        result.dataset
    );
    assert_eq!(
        gold_lines(result),
        gold,
        "{} on {}: gold set moved",
        result.approach,
        result.dataset
    );
}

#[test]
fn yahooqa_seed_42_labels_match_the_golden_bytes() {
    let config = CampaignConfig::default();
    let dataset = yahooqa(42);
    let icrowd = run_campaign(&dataset, Approach::ICrowd(AssignStrategy::Adapt), &config);
    assert_golden(
        &icrowd,
        include_str!("golden/yahooqa_42_icrowd.labels"),
        include_str!("golden/yahooqa_42.gold"),
    );
    let random = run_campaign(&dataset, Approach::RandomMV, &config);
    assert_golden(
        &random,
        include_str!("golden/yahooqa_42_randommv.labels"),
        include_str!("golden/yahooqa_42.gold"),
    );
}

#[test]
fn served_item_compare_seed_42_labels_match_the_golden_bytes() {
    let result = run_campaign(
        &item_compare(42),
        Approach::ICrowd(AssignStrategy::Adapt),
        &served_config(42),
    );
    assert_golden(
        &result,
        include_str!("golden/item_compare_42_icrowd.labels"),
        include_str!("golden/item_compare_42.gold"),
    );
}

/// Pins one strategy on both inputs: yahooqa at the default config and
/// item_compare at the served config.
fn assert_strategy_golden(
    strategy: AssignStrategy,
    yahooqa_labels: &str,
    item_compare_labels: &str,
) {
    let approach = Approach::ICrowd(strategy);
    assert_golden(
        &run_campaign(&yahooqa(42), approach, &CampaignConfig::default()),
        yahooqa_labels,
        include_str!("golden/yahooqa_42.gold"),
    );
    assert_golden(
        &run_campaign(&item_compare(42), approach, &served_config(42)),
        item_compare_labels,
        include_str!("golden/item_compare_42.gold"),
    );
}

#[test]
fn qf_only_labels_match_the_golden_bytes() {
    assert_strategy_golden(
        AssignStrategy::QfOnly,
        include_str!("golden/yahooqa_42_qfonly.labels"),
        include_str!("golden/item_compare_42_qfonly.labels"),
    );
}

#[test]
fn best_effort_labels_match_the_golden_bytes() {
    assert_strategy_golden(
        AssignStrategy::BestEffort,
        include_str!("golden/yahooqa_42_besteffort.labels"),
        include_str!("golden/item_compare_42_besteffort.labels"),
    );
}
