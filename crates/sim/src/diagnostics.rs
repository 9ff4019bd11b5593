//! Estimation diagnostics: how well does the framework's internal
//! accuracy model track the simulated ground truth?
//!
//! These are the research-side instruments used to calibrate the
//! reproduction (and to debug estimation regressions): per-domain
//! correlation between estimated and true worker accuracy, and the mean
//! true accuracy of the workers who actually voted — the quantity that
//! upper-bounds majority-vote quality.

use icrowd::ICrowd;
use icrowd_core::task::TaskId;
use icrowd_core::worker::WorkerId;

use crate::datasets::Dataset;

/// Pearson correlation; 0.0 when either side is constant.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "correlating unequal-length slices");
    if a.is_empty() {
        return 0.0;
    }
    let n = a.len() as f64;
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va * vb).sqrt()
    }
}

/// Per-domain ranking quality of a campaign's final estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimationQuality {
    /// Domain name.
    pub domain: String,
    /// Pearson correlation between the framework's mean estimated
    /// accuracy over the domain's tasks and the workers' true domain
    /// accuracy.
    pub correlation: f64,
}

/// Measures, per domain, how well the server's estimates rank the
/// dataset's workers (workers are addressed by their campaign external
/// ids `"W1"`, `"W2"`, ... in profile order, the convention of
/// [`crate::campaign::run_campaign`]).
pub fn estimation_quality(server: &ICrowd, dataset: &Dataset) -> Vec<EstimationQuality> {
    let mut out = Vec::new();
    for (d, name) in dataset.domains.iter() {
        let domain_tasks: Vec<TaskId> = dataset
            .tasks
            .iter()
            .filter(|t| t.domain == Some(d))
            .map(|t| t.id)
            .collect();
        if domain_tasks.is_empty() {
            continue;
        }
        let mut est = Vec::new();
        let mut tru = Vec::new();
        for (i, profile) in dataset.workers.iter().enumerate() {
            let w = WorkerId(i as u32);
            let sum: f64 = domain_tasks
                .iter()
                .map(|&t| server.estimator().estimate(w, t))
                .sum();
            est.push(sum / domain_tasks.len() as f64);
            tru.push(profile.domain_accuracy[d.index()]);
        }
        out.push(EstimationQuality {
            domain: name.to_owned(),
            correlation: pearson(&est, &tru),
        });
    }
    out
}

/// Mean *true* accuracy of the workers behind each collected vote,
/// overall — the routing-quality number that upper-bounds majority
/// voting (population mean ≈ random assignment; the best-available
/// expert mean ≈ perfect routing).
pub fn voter_quality(server: &ICrowd, dataset: &Dataset, exclude: &[TaskId]) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for task in dataset.tasks.iter() {
        if exclude.contains(&task.id) {
            continue;
        }
        let d = task.domain.expect("labelled").index();
        for v in server.consensus().votes(task.id).votes() {
            sum += dataset.workers[v.worker.index()].domain_accuracy[d];
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icrowd::core::{Answer, Tick};
    use icrowd::platform::ExternalQuestionServer;
    use icrowd::{AssignStrategy, ICrowdBuilder};
    use icrowd_core::config::{ICrowdConfig, WarmupConfig};
    use icrowd_graph::LinearityIndex;

    use crate::campaign::{build_graph, select_gold, CampaignConfig, MetricChoice};
    use crate::datasets::table1;

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0, "constant side");
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn quality_instruments_run_on_a_real_campaign() {
        let ds = table1();
        let config = CampaignConfig {
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
        };
        let graph = build_graph(&ds, &config);
        let index = LinearityIndex::build(&graph, config.icrowd.alpha, &config.icrowd.ppr);
        let gold = select_gold(&ds, Some(&index), &config);
        let mut srv = ICrowdBuilder::new(ds.tasks.clone())
            .config(config.icrowd.clone())
            .strategy(AssignStrategy::Adapt)
            .graph(graph)
            .index(index)
            .qualification(gold.clone())
            .build();
        // Drive the crowd to completion.
        let workers = ds.spawn_workers(7);
        let mut behaviors = workers;
        let mut tick = 0u64;
        while !srv.is_complete() && tick < 2000 {
            for (i, w) in behaviors.iter_mut().enumerate() {
                let name = format!("W{}", i + 1);
                if let Some(t) = srv.request_task(&name, Tick(tick)) {
                    let ans: Answer =
                        icrowd::platform::market::WorkerBehavior::answer(w, &ds.tasks[t]);
                    srv.submit_answer(&name, t, ans, Tick(tick));
                }
                tick += 1;
            }
        }
        assert!(srv.is_complete());

        let quality = estimation_quality(&srv, &ds);
        assert_eq!(quality.len(), 3, "one row per domain");
        for q in &quality {
            assert!((-1.0..=1.0).contains(&q.correlation), "{q:?}");
        }
        let vq = voter_quality(&srv, &ds, &gold);
        assert!((0.0..=1.0).contains(&vq));
        // The crowd has experts at ~0.9 and a spammer at 0.35; any voter
        // mix lands strictly inside that band.
        assert!(vq > 0.35 && vq < 0.95, "voter quality {vq}");
    }
}
