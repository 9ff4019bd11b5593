//! Table 5 (Appendix D.4) — approximation error of the greedy
//! assignment algorithm vs the enumeration-based optimum on ItemCompare.
//!
//! The paper varies the number of active workers (3–7; beyond that the
//! exact solver did not finish in 30 minutes) and reports
//! `(OPT − APP) / OPT`, finding errors under 2%. Our branch-and-bound
//! handles a couple more workers, reported as a bonus column block.

use icrowd::core::{Answer, ICrowdConfig, TaskId};
use icrowd_assign::greedy::scheme_objective;
use icrowd_assign::{greedy_assign, optimal_assign, top_worker_set, TopWorkerSet};
use icrowd_core::worker::WorkerId;
use icrowd_estimate::{AccuracyEstimator, EstimationMode};
use icrowd_graph::LinearityIndex;
use icrowd_sim::campaign::{build_graph, select_gold, CampaignConfig};
use icrowd_sim::datasets::item_compare;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let telemetry = icrowd_bench::telemetry::init_from_env();
    let ds = item_compare(42);
    let config = CampaignConfig::default();
    let graph = build_graph(&ds, &config);
    // One index serves gold selection and every worker pool's estimator.
    let index = LinearityIndex::build(&graph, config.icrowd.alpha, &config.icrowd.ppr);
    let gold = select_gold(&ds, Some(&index), &config);

    println!("=== Table 5: approximation error of the greedy assignment (ItemCompare) ===");
    println!(
        "{:>16} {:>22} {:>22}",
        "# active workers", "error, fresh (%)", "error, mid-campaign (%)"
    );
    println!(
        "{:>16} {:>22} {:>22}",
        "", "(all tasks k' = k)", "(15% partially assigned)"
    );

    const INSTANCES: usize = 10;
    for num_workers in 3..=9usize {
        // Estimate accuracies for a worker pool that completed warm-up,
        // then build the top-worker sets Algorithm 3/OPT both consume.
        let mut est = AccuracyEstimator::with_index(
            graph.clone(),
            index.clone(),
            ICrowdConfig::default(),
            EstimationMode::default(),
        );
        let mut rng = StdRng::seed_from_u64(7 + num_workers as u64);
        let workers = ds.spawn_workers(42);
        for (wi, worker) in workers.iter().take(num_workers).enumerate() {
            let w = WorkerId(wi as u32);
            let mut worker = worker.clone();
            for &g in &gold {
                let ans =
                    icrowd_platform::market::WorkerBehavior::answer(&mut worker, &ds.tasks[g]);
                est.record_qualification(w, g, ans, ds.tasks[g].ground_truth.unwrap());
            }
        }
        let k = 3usize;
        let mut errors = [0.0f64; 2]; // [fresh, mid-campaign]
        for (scenario, partial_fraction) in [(0usize, 0.0f64), (1, 0.15)] {
            let (mut opt_sum, mut app_sum) = (0.0f64, 0.0f64);
            for _instance in 0..INSTANCES {
                // A random subset of open tasks keeps enumeration honest
                // (the paper's exact search over 337 tasks already timed
                // out above 7 workers).
                let mut candidate_tasks: Vec<TaskId> =
                    ds.tasks.ids().filter(|t| !gold.contains(t)).collect();
                for i in 0..candidate_tasks.len() {
                    let j = rng.gen_range(i..candidate_tasks.len());
                    candidate_tasks.swap(i, j);
                }
                candidate_tasks.truncate(40);

                let sets: Vec<TopWorkerSet> = candidate_tasks
                    .iter()
                    .map(|&t| {
                        // Fresh tasks keep k' = k; partially assigned
                        // ones already hold 1-2 (ineligible) workers.
                        let already = if rng.gen::<f64>() < partial_fraction {
                            rng.gen_range(1..=2usize)
                        } else {
                            0
                        }
                        .min(k.min(num_workers) - 1);
                        let mut pool: Vec<u32> = (0..num_workers as u32).collect();
                        for j in 0..already {
                            let s = rng.gen_range(j..pool.len());
                            pool.swap(j, s);
                        }
                        let eligible = pool[already..]
                            .iter()
                            .map(|&wi| (WorkerId(wi), est.accuracy(WorkerId(wi), t)))
                            .collect::<Vec<_>>();
                        top_worker_set(t, eligible, k - already)
                    })
                    .filter(|s| !s.workers.is_empty())
                    .collect();

                opt_sum += scheme_objective(&optimal_assign(&sets));
                app_sum += scheme_objective(&greedy_assign(&sets));
            }
            errors[scenario] = if opt_sum > 0.0 {
                (opt_sum - app_sum) / opt_sum * 100.0
            } else {
                0.0
            };
        }
        println!("{num_workers:>16} {:>22.1} {:>22.1}", errors[0], errors[1]);
        let _ = Answer::YES;
    }
    icrowd_bench::telemetry::finish(telemetry);
}
