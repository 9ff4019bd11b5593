//! Worker-set accuracy `Pr(W_t)` — Equation (1) of the paper.
//!
//! Given the per-worker accuracies `p_i^w` of the workers assigned to a
//! microtask, `Pr(W_t)` is the probability that a strict majority of them
//! answer correctly (the majority-vote result is then correct, assuming
//! worker independence and binary answers).
//!
//! Two implementations are provided:
//!
//! * [`worker_set_accuracy`] — an `O(k^2)` Poisson-binomial dynamic
//!   program; this is the one production code uses.
//! * [`worker_set_accuracy_enumerate`] — literal Equation (1): sum over all
//!   `x`-size subsets for `x = (k+1)/2 .. k`. Exponential; kept as a test
//!   oracle and timed against the DP by the `kernels` binary, which fails
//!   unless the DP is at least 100× cheaper at `k = 15`.

/// Probability that a strict majority of independent workers with
/// accuracies `probs` answer correctly, via the Poisson-binomial DP.
///
/// `dp[j]` is the probability that exactly `j` of the workers processed so
/// far are correct; the answer is the tail mass at `j >= floor(k/2) + 1`.
/// Runs in `O(k^2)` time and `O(k)` space.
///
/// Returns `0.0` for an empty slice (no workers can produce no majority).
///
/// ```
/// use icrowd_core::probability::worker_set_accuracy;
/// // Three workers at 0.7: p^3 + 3 p^2 (1 - p).
/// let p = worker_set_accuracy(&[0.7, 0.7, 0.7]);
/// assert!((p - (0.343 + 3.0 * 0.49 * 0.3)).abs() < 1e-12);
/// ```
///
/// # Panics
/// Panics in debug builds if any probability is outside `[0, 1]`.
pub fn worker_set_accuracy(probs: &[f64]) -> f64 {
    if probs.is_empty() {
        return 0.0;
    }
    debug_assert!(
        probs.iter().all(|&p| (0.0..=1.0).contains(&p)),
        "accuracies must lie in [0, 1]"
    );
    let k = probs.len();
    let mut dp = vec![0.0f64; k + 1];
    dp[0] = 1.0;
    for (i, &p) in probs.iter().enumerate() {
        // Walk backwards so dp[j] still holds the value for i workers.
        for j in (0..=i + 1).rev() {
            let from_correct = if j > 0 { dp[j - 1] * p } else { 0.0 };
            let from_wrong = dp[j] * (1.0 - p);
            dp[j] = from_correct + from_wrong;
        }
    }
    let threshold = k / 2 + 1;
    dp[threshold..].iter().sum()
}

/// Literal Equation (1): enumerate every subset of size `x >= (k+1)/2` of
/// the worker set, multiplying member accuracies and non-member error
/// probabilities.
///
/// Exponential in `k`; only suitable for small worker sets (tests, Table 5
/// style ablations).
pub fn worker_set_accuracy_enumerate(probs: &[f64]) -> f64 {
    if probs.is_empty() {
        return 0.0;
    }
    let k = probs.len();
    assert!(k <= 25, "enumeration oracle limited to k <= 25");
    let threshold = k / 2 + 1;
    let mut total = 0.0;
    for mask in 0u32..(1u32 << k) {
        if (mask.count_ones() as usize) < threshold {
            continue;
        }
        let mut prob = 1.0;
        for (i, &p) in probs.iter().enumerate() {
            prob *= if mask & (1 << i) != 0 { p } else { 1.0 - p };
        }
        total += prob;
    }
    total
}

/// Posterior over answers given votes and per-voter accuracies — the
/// naive-Bayes model shared by the CDAS probabilistic-verification
/// aggregation and the budget-saving early-stop extension:
///
/// ```text
/// P(answer = a | votes) ∝ Π_{w voted a} p_w · Π_{w voted a' ≠ a} (1 − p_w)/(c − 1)
/// ```
///
/// Returns the MAP answer and its posterior probability, or `None` for an
/// empty vote slice. Accuracies are clamped to `[0.01, 0.99]`.
pub fn vote_posterior(
    votes: &[crate::answer::Vote],
    num_choices: u8,
    mut accuracy: impl FnMut(crate::worker::WorkerId) -> f64,
) -> Option<(crate::answer::Answer, f64)> {
    if votes.is_empty() {
        return None;
    }
    let c = num_choices as usize;
    let mut logp = vec![0.0f64; c];
    for v in votes {
        let p = accuracy(v.worker).clamp(0.01, 0.99);
        let wrong = ((1.0 - p) / (c as f64 - 1.0)).ln();
        let right = p.ln();
        for (a, lp) in logp.iter_mut().enumerate() {
            *lp += if a == v.answer.index() { right } else { wrong };
        }
    }
    let m = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let z: f64 = logp.iter().map(|&lp| (lp - m).exp()).sum();
    let (best, &best_lp) = logp
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.total_cmp(b).then(ib.cmp(ia)))?;
    Some((crate::answer::Answer(best as u8), (best_lp - m).exp() / z))
}

/// Variance of a `Beta(n1 + 1, n0 + 1)` posterior — the paper's Step-3
/// uncertainty measure for a worker who answered `n1` similar microtasks
/// correctly and `n0` incorrectly (Section 4.1, Step 3):
///
/// ```text
/// (N1+1)(N0+1) / ((N1+N0+2)^2 (N1+N0+3))
/// ```
pub fn beta_variance(n1: f64, n0: f64) -> f64 {
    debug_assert!(n1 >= 0.0 && n0 >= 0.0, "counts must be non-negative");
    let a = n1 + 1.0;
    let b = n0 + 1.0;
    let s = a + b;
    (a * b) / (s * s * (s + 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn single_worker_is_their_own_majority() {
        assert!(close(worker_set_accuracy(&[0.8]), 0.8));
        assert!(close(worker_set_accuracy_enumerate(&[0.8]), 0.8));
    }

    #[test]
    fn three_identical_workers_matches_closed_form() {
        // P(majority of 3 with accuracy p) = p^3 + 3 p^2 (1-p).
        let p: f64 = 0.7;
        let expect = p.powi(3) + 3.0 * p.powi(2) * (1.0 - p);
        assert!(close(worker_set_accuracy(&[p, p, p]), expect));
        assert!(close(worker_set_accuracy_enumerate(&[p, p, p]), expect));
    }

    #[test]
    fn dp_matches_enumeration_on_mixed_sets() {
        let cases: &[&[f64]] = &[
            &[0.9, 0.6, 0.7],
            &[0.5, 0.5, 0.5, 0.5, 0.5],
            &[1.0, 0.0, 0.5],
            &[0.99, 0.01, 0.5, 0.7, 0.3, 0.8, 0.65],
            &[0.3, 0.4], // even k: needs both correct
        ];
        for c in cases {
            assert!(
                close(worker_set_accuracy(c), worker_set_accuracy_enumerate(c)),
                "mismatch for {c:?}"
            );
        }
    }

    #[test]
    fn even_k_requires_strict_majority() {
        // Two workers: both must be right (1 of 2 is not a strict majority).
        assert!(close(worker_set_accuracy(&[0.8, 0.5]), 0.8 * 0.5));
    }

    #[test]
    fn empty_set_has_zero_accuracy() {
        assert_eq!(worker_set_accuracy(&[]), 0.0);
        assert_eq!(worker_set_accuracy_enumerate(&[]), 0.0);
    }

    #[test]
    fn perfect_and_hopeless_workers() {
        assert!(close(worker_set_accuracy(&[1.0, 1.0, 1.0]), 1.0));
        assert!(close(worker_set_accuracy(&[0.0, 0.0, 0.0]), 0.0));
    }

    #[test]
    fn vote_posterior_matches_hand_computation() {
        use crate::answer::{Answer, Vote};
        use crate::worker::WorkerId;
        let votes = vec![
            Vote {
                worker: WorkerId(0),
                answer: Answer::YES,
            },
            Vote {
                worker: WorkerId(1),
                answer: Answer::NO,
            },
        ];
        // p0 = 0.9, p1 = 0.6: P(YES) ∝ 0.9 * 0.4, P(NO) ∝ 0.1 * 0.6.
        let (ans, conf) = vote_posterior(&votes, 2, |w| if w.0 == 0 { 0.9 } else { 0.6 }).unwrap();
        assert_eq!(ans, Answer::YES);
        let want = 0.36 / (0.36 + 0.06);
        assert!((conf - want).abs() < 1e-12);
        // Empty votes: None.
        assert!(vote_posterior(&[], 2, |_| 0.5).is_none());
    }

    #[test]
    fn vote_posterior_confidence_grows_with_unanimity() {
        use crate::answer::{Answer, Vote};
        use crate::worker::WorkerId;
        let mk = |n: u32| {
            (0..n)
                .map(|i| Vote {
                    worker: WorkerId(i),
                    answer: Answer::YES,
                })
                .collect::<Vec<_>>()
        };
        let (_, c2) = vote_posterior(&mk(2), 2, |_| 0.8).unwrap();
        let (_, c3) = vote_posterior(&mk(3), 2, |_| 0.8).unwrap();
        assert!(c3 > c2);
    }

    #[test]
    fn beta_variance_matches_known_values() {
        // Uniform prior: Beta(1,1) has variance 1/12.
        assert!(close(beta_variance(0.0, 0.0), 1.0 / 12.0));
        // Beta(4, 2): variance (4*2)/(36*7).
        assert!(close(beta_variance(3.0, 1.0), 8.0 / (36.0 * 7.0)));
    }

    #[test]
    fn variance_shrinks_with_evidence() {
        assert!(beta_variance(10.0, 10.0) < beta_variance(1.0, 1.0));
        assert!(beta_variance(100.0, 0.0) < beta_variance(2.0, 0.0));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn dp_equals_enumeration(probs in proptest::collection::vec(0.0f64..=1.0, 1..10)) {
                let dp = worker_set_accuracy(&probs);
                let en = worker_set_accuracy_enumerate(&probs);
                prop_assert!((dp - en).abs() < 1e-9, "dp={dp} enum={en}");
            }

            #[test]
            fn accuracy_is_a_probability(probs in proptest::collection::vec(0.0f64..=1.0, 0..15)) {
                let p = worker_set_accuracy(&probs);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
            }

            #[test]
            fn monotone_in_member_accuracy(
                probs in proptest::collection::vec(0.01f64..=0.99, 1..9),
                idx in 0usize..9,
                bump in 0.0f64..=0.5,
            ) {
                let idx = idx % probs.len();
                let base = worker_set_accuracy(&probs);
                let mut better = probs.clone();
                better[idx] = (better[idx] + bump).min(1.0);
                let improved = worker_set_accuracy(&better);
                prop_assert!(improved + 1e-12 >= base);
            }

            #[test]
            fn beta_variance_positive_and_bounded(n1 in 0.0f64..1e4, n0 in 0.0f64..1e4) {
                let v = beta_variance(n1, n0);
                prop_assert!(v > 0.0);
                prop_assert!(v <= 0.25);
            }
        }
    }
}
