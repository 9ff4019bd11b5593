//! Design-choice ablations (beyond the paper's own figures):
//!
//! 1. **Estimation mode** — literal Algorithm 1 (`Raw`), baseline-centered
//!    propagation (`Centered`) and mass-normalized propagation
//!    (`Normalized`, our default): how each ranks workers and what the
//!    campaign accuracy ends up being. Motivates the deviation documented
//!    in DESIGN.md §1.
//! 2. **Qualification count Q** — the warm-up budget's accuracy/cost
//!    trade-off.
//! 3. **Worker dynamics** — uniform vs heavy-tail vs session crowds:
//!    iCrowd's adaptive assigner against the myopic BestEffort strategy
//!    and RandomMV, per crowd regime.

use icrowd::core::{ICrowdConfig, WarmupConfig};
use icrowd::estimate::EstimationMode;
use icrowd::AssignStrategy;
use icrowd_bench::averaged_campaign;
use icrowd_sim::campaign::{Approach, CampaignConfig, WorkerDynamics};
use icrowd_sim::datasets::yahooqa;

fn main() {
    let telemetry = icrowd_bench::telemetry::init_from_env();
    println!("=== Ablation 1: estimation mode (YahooQA, iCrowd Adapt) ===");
    for mode in [
        EstimationMode::Raw,
        EstimationMode::Centered,
        EstimationMode::Normalized,
    ] {
        let config = CampaignConfig {
            estimation_mode: mode,
            ..Default::default()
        };
        let r = averaged_campaign(&yahooqa, Approach::ICrowd(AssignStrategy::Adapt), &config);
        println!("{mode:<12?} overall = {:.3}", r.rows.last().unwrap().1);
    }

    println!("\n=== Ablation 2: qualification budget Q (YahooQA) ===");
    for q in [4usize, 10, 16, 24] {
        let config = CampaignConfig {
            icrowd: ICrowdConfig {
                warmup: WarmupConfig {
                    num_qualification: q,
                    ..Default::default()
                },
                ..CampaignConfig::default().icrowd
            },
            ..Default::default()
        };
        let r = averaged_campaign(&yahooqa, Approach::ICrowd(AssignStrategy::Adapt), &config);
        println!("Q = {q:<3} overall = {:.3}", r.rows.last().unwrap().1);
    }

    println!("\n=== Ablation 2b: weighted vs plain aggregation (YahooQA, iCrowd) ===");
    for weighted in [false, true] {
        let config = CampaignConfig {
            weighted_aggregation: weighted,
            ..Default::default()
        };
        let r = averaged_campaign(&yahooqa, Approach::ICrowd(AssignStrategy::Adapt), &config);
        println!(
            "{:<22} overall = {:.3}",
            if weighted {
                "estimate-weighted MV"
            } else {
                "plain consensus MV"
            },
            r.rows.last().unwrap().1
        );
    }

    println!("\n=== Ablation 3: worker dynamics (YahooQA, iCrowd vs BestEffort vs RandomMV) ===");
    for (name, dynamics) in [
        (
            "uniform",
            WorkerDynamics::Uniform {
                max_answers: usize::MAX,
            },
        ),
        ("heavy-tail", WorkerDynamics::HeavyTail),
        ("sessions(6)", WorkerDynamics::Sessions { concurrency: 6 }),
        ("sessions(3)", WorkerDynamics::Sessions { concurrency: 3 }),
    ] {
        let config = CampaignConfig {
            dynamics,
            ..Default::default()
        };
        let overall = |approach| {
            averaged_campaign(&yahooqa, approach, &config)
                .rows
                .last()
                .unwrap()
                .1
        };
        let ic = overall(Approach::ICrowd(AssignStrategy::Adapt));
        let be = overall(Approach::ICrowd(AssignStrategy::BestEffort));
        let mv = overall(Approach::RandomMV);
        println!(
            "{name:<12} iCrowd = {ic:.3}   BestEffort = {be:.3}   RandomMV = {mv:.3}   \
             gap = {:+.3}   BestEffort - iCrowd = {:+.3}",
            ic - mv,
            be - ic
        );
    }
    icrowd_bench::telemetry::finish(telemetry);
}
