//! End-to-end campaigns across every crate: datasets → similarity →
//! graph → estimation → assignment → platform → aggregation → metrics.

use icrowd::core::{Answer, ICrowdConfig, PprConfig, Tick, WarmupConfig};
use icrowd::platform::ExternalQuestionServer;
use icrowd::{AssignStrategy, ICrowdBuilder};
use icrowd_graph::GraphBuilder;
use icrowd_sim::campaign::{run_campaign, Approach, CampaignConfig, MetricChoice};
use icrowd_sim::datasets::{scalability_edges, scalability_tasks, table1, yahooqa};

fn table1_config() -> CampaignConfig {
    CampaignConfig {
        metric: MetricChoice::Jaccard,
        icrowd: ICrowdConfig {
            similarity_threshold: 0.4,
            warmup: WarmupConfig {
                num_qualification: 3,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn every_approach_completes_a_yahooqa_campaign() {
    let ds = yahooqa(7);
    let config = CampaignConfig::default();
    for approach in [
        Approach::RandomMV,
        Approach::RandomEM,
        Approach::AvgAccPV,
        Approach::ICrowd(AssignStrategy::Adapt),
        Approach::ICrowd(AssignStrategy::BestEffort),
        Approach::ICrowd(AssignStrategy::QfOnly),
    ] {
        let r = run_campaign(&ds, approach, &config);
        assert!(
            r.overall > 0.3,
            "{} collapsed to {:.3}",
            r.approach,
            r.overall
        );
        assert!(
            r.answers > 100,
            "{}: only {} answers",
            r.approach,
            r.answers
        );
        // Every domain is measured.
        assert_eq!(r.per_domain.len(), 6);
        let measured: usize = r.per_domain.iter().map(|d| d.total).sum();
        assert_eq!(measured, 110 - r.gold.len());
    }
}

#[test]
fn icrowd_beats_random_assignment_on_expert_crowds() {
    // Averaged over seeds to be robust against crowd noise: the adaptive
    // strategy must beat random assignment + majority voting on the
    // domain-diverse YahooQA regime — the paper's headline claim.
    let config = CampaignConfig::default();
    let (mut ic_sum, mut mv_sum) = (0.0, 0.0);
    for seed in [42u64, 1337, 20150531, 7] {
        let ds = yahooqa(seed);
        let config = CampaignConfig {
            seed,
            ..config.clone()
        };
        ic_sum += run_campaign(&ds, Approach::ICrowd(AssignStrategy::Adapt), &config).overall;
        mv_sum += run_campaign(&ds, Approach::RandomMV, &config).overall;
    }
    assert!(
        ic_sum > mv_sum + 0.1,
        "iCrowd ({:.3} avg) should clearly beat RandomMV ({:.3} avg)",
        ic_sum / 4.0,
        mv_sum / 4.0
    );
}

#[test]
fn campaign_accounting_is_consistent() {
    let ds = table1();
    let r = run_campaign(
        &ds,
        Approach::ICrowd(AssignStrategy::Adapt),
        &table1_config(),
    );
    // Spend is a multiple of the per-HIT reward.
    assert_eq!(r.spend_cents % 10, 0);
    // Worker assignment counts cover every profile.
    assert_eq!(r.worker_assignments.len(), ds.workers.len());
    let assigned: u32 = r.worker_assignments.iter().map(|&(_, c)| c).sum();
    assert!(assigned > 0);
    // Regular assignments can't exceed collected answers.
    assert!((assigned as usize) <= r.answers);
}

#[test]
fn gold_tasks_are_excluded_from_measurement_for_every_approach() {
    let ds = table1();
    let config = table1_config();
    for approach in [Approach::RandomMV, Approach::ICrowd(AssignStrategy::Adapt)] {
        let r = run_campaign(&ds, approach, &config);
        let measured: usize = r.per_domain.iter().map(|d| d.total).sum();
        assert_eq!(measured + r.gold.len(), ds.tasks.len(), "{}", r.approach);
    }
}

/// The capped pipeline (Figure 10's candidate cap) over a connected
/// similarity graph, run to completion: rank and warm upkeep over real
/// PPR supports, and the late phase with fewer open tasks than the cap,
/// both hold. The maintained state is re-validated after every call.
#[test]
fn a_capped_campaign_over_a_connected_graph_runs_to_completion() {
    let (n, neighbors) = (200, 10);
    let graph = GraphBuilder::new(0.5)
        .with_max_neighbors(neighbors)
        .build_from_edges(n, scalability_edges(n, neighbors, 42));
    // fig10's configuration, built on one thread.
    let config = ICrowdConfig {
        warmup: WarmupConfig {
            num_qualification: 10,
            ..Default::default()
        },
        ppr: PprConfig {
            index_epsilon: 1e-3,
            max_iterations: 20,
            tolerance: 1e-6,
            threads: 1,
        },
        ..Default::default()
    };
    let k = config.assignment_size;
    let mut server = ICrowdBuilder::new(scalability_tasks(n))
        .config(config)
        .strategy(AssignStrategy::Adapt)
        .graph(graph)
        .candidate_limit(32)
        .build();
    // 20 workers in turn, as fig10's child loop drives them.
    let mut tick = 0u64;
    while !server.is_complete() {
        assert!(tick < 20_000, "the capped campaign stalled");
        for w in 0..20 {
            let name = format!("W{w}");
            if let Some(t) = server.request_task(&name, Tick(tick)) {
                server.validate_incremental_state();
                server.submit_answer(&name, t, Answer::YES, Tick(tick));
            }
            server.validate_incremental_state();
            tick += 1;
        }
    }
    for t in server.tasks().ids() {
        let votes = server.consensus().votes(t).len();
        assert!(votes <= k, "task {t} holds {votes} votes");
    }
}
