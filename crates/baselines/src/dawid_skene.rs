//! The Dawid–Skene EM aggregator — the paper's RandomEM baseline.
//!
//! Dawid & Skene (1979) model each worker `w` with a confusion matrix
//! `π^w[c][a]` — the probability she answers `a` when the true class is
//! `c` — and each task with a latent true class. EM alternates:
//!
//! * **E-step** — task posteriors
//!   `T_i(c) ∝ ρ_c · Π_{(w,a) ∈ votes(i)} π^w[c][a]`;
//! * **M-step** — confusion matrices and class priors re-estimated from
//!   the posteriors (with additive smoothing so unseen cells stay
//!   positive).
//!
//! Iteration stops when the observed-data log-likelihood improves by less
//! than the tolerance. Posteriors initialize from per-task vote
//! fractions, the standard majority-voting warm start.

use icrowd_core::answer::Answer;
use icrowd_core::worker::WorkerId;

use crate::aggregate::{Aggregator, TaskVotes};

/// Configuration for the Dawid–Skene EM aggregator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DawidSkene {
    /// Maximum EM iterations.
    pub max_iterations: usize,
    /// Stop when the log-likelihood improves less than this.
    pub tolerance: f64,
    /// Additive (Laplace) smoothing for confusion-matrix cells.
    pub smoothing: f64,
}

impl Default for DawidSkene {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            tolerance: 1e-7,
            smoothing: 0.01,
        }
    }
}

/// A fitted Dawid–Skene model.
#[derive(Debug, Clone)]
pub struct DawidSkeneFit {
    num_choices: usize,
    /// `posterior[i][c]`: probability task `i` has true class `c`
    /// (empty inner vec for unvoted tasks).
    posterior: Vec<Vec<f64>>,
    /// `confusion[w][c][a]` flattened to `w * k * k + c * k + a`.
    confusion: Vec<f64>,
    num_workers: usize,
    /// Class priors `ρ`.
    priors: Vec<f64>,
    /// Final observed-data log-likelihood.
    log_likelihood: f64,
    iterations: usize,
}

impl DawidSkeneFit {
    /// Posterior distribution of task `i` (empty slice if unvoted).
    pub fn posterior(&self, task: usize) -> &[f64] {
        &self.posterior[task]
    }

    /// MAP answer for task `i` (`None` if unvoted).
    pub fn map_answer(&self, task: usize) -> Option<Answer> {
        let p = &self.posterior[task];
        if p.is_empty() {
            return None;
        }
        let (best, _) = p
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.total_cmp(b).then(ib.cmp(ia)))?;
        Some(Answer(best as u8))
    }

    /// The confusion matrix cell `π^w[true][answered]`.
    pub fn confusion(&self, worker: WorkerId, truth: u8, answered: u8) -> f64 {
        let k = self.num_choices;
        self.confusion[worker.index() * k * k + truth as usize * k + answered as usize]
    }

    /// Number of workers the model saw.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// The class priors `ρ`.
    pub fn priors(&self) -> &[f64] {
        &self.priors
    }

    /// The final log-likelihood.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// EM iterations actually run.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

impl DawidSkene {
    /// Runs EM on the given votes.
    pub fn fit(&self, num_tasks: usize, num_choices: u8, votes: &[TaskVotes]) -> DawidSkeneFit {
        let k = num_choices as usize;
        let num_workers = votes
            .iter()
            .flat_map(|tv| tv.votes.iter().map(|v| v.worker.index() + 1))
            .max()
            .unwrap_or(0);

        // Initialize posteriors from vote fractions (majority warm start).
        let mut posterior: Vec<Vec<f64>> = vec![Vec::new(); num_tasks];
        for tv in votes {
            if tv.votes.is_empty() {
                continue;
            }
            let mut p = vec![0.0; k];
            for v in &tv.votes {
                p[v.answer.index()] += 1.0;
            }
            let total: f64 = p.iter().sum();
            for x in &mut p {
                *x /= total;
            }
            posterior[tv.task.index()] = p;
        }

        let mut confusion = vec![0.0; num_workers * k * k];
        let mut priors = vec![1.0 / k as f64; k];
        let mut last_ll = f64::NEG_INFINITY;
        let mut iterations = 0;

        for iter in 0..self.max_iterations {
            iterations = iter + 1;
            // M-step: confusion matrices and priors from posteriors.
            confusion.fill(self.smoothing);
            let mut prior_counts = vec![self.smoothing; k];
            for tv in votes {
                let p = &posterior[tv.task.index()];
                if p.is_empty() {
                    continue;
                }
                for v in &tv.votes {
                    let w = v.worker.index();
                    for (c, &pc) in p.iter().enumerate() {
                        confusion[w * k * k + c * k + v.answer.index()] += pc;
                    }
                }
                for (c, &pc) in p.iter().enumerate() {
                    prior_counts[c] += pc;
                }
            }
            // Normalize confusion rows and priors.
            for w in 0..num_workers {
                for c in 0..k {
                    let row = &mut confusion[w * k * k + c * k..w * k * k + (c + 1) * k];
                    let s: f64 = row.iter().sum();
                    for x in row {
                        *x /= s;
                    }
                }
            }
            let ps: f64 = prior_counts.iter().sum();
            for (c, pc) in prior_counts.iter().enumerate() {
                priors[c] = pc / ps;
            }

            // E-step: recompute posteriors; accumulate log-likelihood.
            let mut ll = 0.0;
            for tv in votes {
                if tv.votes.is_empty() {
                    continue;
                }
                let mut logp: Vec<f64> = priors.iter().map(|&r| r.ln()).collect();
                for v in &tv.votes {
                    let w = v.worker.index();
                    for (c, lp) in logp.iter_mut().enumerate() {
                        *lp += confusion[w * k * k + c * k + v.answer.index()].ln();
                    }
                }
                // Log-sum-exp normalization.
                let m = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let z: f64 = logp.iter().map(|&lp| (lp - m).exp()).sum();
                ll += m + z.ln();
                let p = &mut posterior[tv.task.index()];
                p.clear();
                p.extend(logp.iter().map(|&lp| (lp - m).exp() / z));
            }

            if (ll - last_ll).abs() < self.tolerance {
                last_ll = ll;
                break;
            }
            last_ll = ll;
        }

        DawidSkeneFit {
            num_choices: k,
            posterior,
            confusion,
            num_workers,
            priors,
            log_likelihood: last_ll,
            iterations,
        }
    }
}

impl Aggregator for DawidSkene {
    fn name(&self) -> &str {
        "DawidSkeneEM"
    }

    fn aggregate(
        &self,
        num_tasks: usize,
        num_choices: u8,
        votes: &[TaskVotes],
    ) -> Vec<Option<Answer>> {
        let fit = self.fit(num_tasks, num_choices, votes);
        (0..num_tasks).map(|i| fit.map_answer(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icrowd_core::answer::Vote;
    use icrowd_core::task::TaskId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn vote(w: u32, a: u8) -> Vote {
        Vote {
            worker: WorkerId(w),
            answer: Answer(a),
        }
    }

    /// Synthesizes votes: workers 0-2 are 90% accurate, worker 3 answers
    /// adversarially (flips the truth), over 60 binary tasks.
    fn synthetic_votes(seed: u64) -> (Vec<Answer>, Vec<TaskVotes>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let truths: Vec<Answer> = (0..60).map(|_| Answer(rng.gen_range(0..2u8))).collect();
        let votes = truths
            .iter()
            .enumerate()
            .map(|(i, &truth)| {
                let mut vs = Vec::new();
                for w in 0..3u32 {
                    let correct = rng.gen_bool(0.9);
                    let a = if correct { truth } else { truth.negated() };
                    vs.push(vote(w, a.0));
                }
                // The adversary is wrong 85% of the time.
                let a = if rng.gen_bool(0.15) {
                    truth
                } else {
                    truth.negated()
                };
                vs.push(vote(3, a.0));
                TaskVotes {
                    task: TaskId(i as u32),
                    votes: vs,
                }
            })
            .collect();
        (truths, votes)
    }

    #[test]
    fn recovers_truth_better_than_chance_and_identifies_the_adversary() {
        let (truths, votes) = synthetic_votes(11);
        let ds = DawidSkene::default();
        let fit = ds.fit(60, 2, &votes);
        let correct = truths
            .iter()
            .enumerate()
            .filter(|&(i, &t)| fit.map_answer(i) == Some(t))
            .count();
        assert!(correct >= 54, "EM should recover >= 90%: got {correct}/60");
        // Honest workers get high accuracy, the adversary low; accuracy
        // is the prior-weighted diagonal of a worker's confusion matrix.
        let accuracy = |w: u32| -> f64 {
            (0..2u8)
                .map(|c| fit.priors()[c as usize] * fit.confusion(WorkerId(w), c, c))
                .sum()
        };
        for w in 0..3u32 {
            assert!(
                accuracy(w) > 0.75,
                "honest worker {w} scored {}",
                accuracy(w)
            );
        }
        assert!(accuracy(3) < 0.4, "adversary scored {}", accuracy(3));
    }

    #[test]
    fn em_beats_majority_under_heterogeneous_reliability() {
        // One 95% expert among four barely-better-than-chance workers.
        // Majority voting weighs them equally; EM learns the confusion
        // matrices and leans on the expert. (Note the setup keeps every
        // worker above 0.5 — with a majority of pure spammers per vote
        // set, Dawid–Skene is genuinely unidentifiable and may flip.)
        let accuracies = [0.95, 0.58, 0.58, 0.58, 0.58];
        let mut rng = StdRng::seed_from_u64(5);
        let truths: Vec<Answer> = (0..200).map(|_| Answer(rng.gen_range(0..2u8))).collect();
        let votes: Vec<TaskVotes> = truths
            .iter()
            .enumerate()
            .map(|(i, &truth)| TaskVotes {
                task: TaskId(i as u32),
                votes: accuracies
                    .iter()
                    .enumerate()
                    .map(|(w, &p)| {
                        let a = if rng.gen_bool(p) {
                            truth
                        } else {
                            truth.negated()
                        };
                        vote(w as u32, a.0)
                    })
                    .collect(),
            })
            .collect();
        let em_answers = DawidSkene::default().aggregate(200, 2, &votes);
        let mv_answers = crate::aggregate::MajorityAggregator.aggregate(200, 2, &votes);
        let acc = |answers: &[Option<Answer>]| {
            truths
                .iter()
                .enumerate()
                .filter(|&(i, &t)| answers[i] == Some(t))
                .count()
        };
        let (em_acc, mv_acc) = (acc(&em_answers), acc(&mv_answers));
        assert!(
            em_acc > mv_acc,
            "EM ({em_acc}) should beat majority voting ({mv_acc})"
        );
        assert!(em_acc >= 180, "EM should track the expert: {em_acc}/200");
    }

    #[test]
    fn log_likelihood_is_monotone_over_iterations() {
        let (_, votes) = synthetic_votes(3);
        let mut last = f64::NEG_INFINITY;
        for iters in [1, 2, 5, 20] {
            let fit = DawidSkene {
                max_iterations: iters,
                tolerance: 0.0,
                ..Default::default()
            }
            .fit(60, 2, &votes);
            assert!(
                fit.log_likelihood() >= last - 1e-6,
                "LL decreased: {} after {} iters (was {})",
                fit.log_likelihood(),
                iters,
                last
            );
            last = fit.log_likelihood();
        }
    }

    #[test]
    fn posteriors_are_distributions() {
        let (_, votes) = synthetic_votes(7);
        let fit = DawidSkene::default().fit(60, 2, &votes);
        for i in 0..60 {
            let p = fit.posterior(i);
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x >= 0.0));
        }
        let s: f64 = fit.priors().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unvoted_tasks_stay_unanswered() {
        let votes = vec![TaskVotes {
            task: TaskId(1),
            votes: vec![vote(0, 1)],
        }];
        let out = DawidSkene::default().aggregate(3, 2, &votes);
        assert_eq!(out[0], None);
        assert_eq!(out[1], Some(Answer::YES));
        assert_eq!(out[2], None);
    }

    #[test]
    fn empty_input_is_fine() {
        let out = DawidSkene::default().aggregate(2, 2, &[]);
        assert_eq!(out, vec![None, None]);
    }

    #[test]
    fn works_with_three_choices() {
        let mut rng = StdRng::seed_from_u64(9);
        let truths: Vec<Answer> = (0..60).map(|_| Answer(rng.gen_range(0..3u8))).collect();
        let votes: Vec<TaskVotes> = truths
            .iter()
            .enumerate()
            .map(|(i, &truth)| TaskVotes {
                task: TaskId(i as u32),
                votes: (0..3u32)
                    .map(|w| {
                        let a = if rng.gen_bool(0.85) {
                            truth.0
                        } else {
                            (truth.0 + rng.gen_range(1..3u8)) % 3
                        };
                        vote(w, a)
                    })
                    .collect(),
            })
            .collect();
        let out = DawidSkene::default().aggregate(60, 3, &votes);
        let correct = truths
            .iter()
            .enumerate()
            .filter(|&(i, &t)| out[i] == Some(t))
            .count();
        assert!(correct >= 48, "3-class EM got {correct}/60");
    }
}
