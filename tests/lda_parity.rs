//! `LdaModel::fit` keeps its counts row-major beside the terms the full
//! conditional reads (`n + alpha`, `n + beta`, `n + V * beta`). The
//! reference here is the same sampler over topic-major nested counts,
//! with the conditional computed inline from them. Same RNG draws, same
//! weights, same sums, so every `theta` and `phi` entry must match bit
//! for bit.
//!
//! Inputs: random corpora (empty documents and one-word vocabularies
//! included) and the corpora served campaigns fit, at the served
//! configuration (`MetricChoice::CosTopic`: 8 topics, 150 sweeps).

use icrowd::text::tokenize::encode_corpus;
use icrowd::text::{LdaConfig, LdaModel, Tokenizer};
use icrowd_sim::datasets::by_name;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sampler over topic-major `Vec<Vec<u32>>` counts, the conditional
/// computed inline: returns `(theta, phi)`.
fn reference_fit(
    docs: &[Vec<u32>],
    vocab_size: usize,
    config: &LdaConfig,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let k = config.num_topics;
    let v = vocab_size;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut n_dk = vec![vec![0u32; k]; docs.len()];
    let mut n_kw = vec![vec![0u32; v]; k];
    let mut n_k = vec![0u32; k];
    let mut z: Vec<Vec<usize>> = docs
        .iter()
        .map(|doc| doc.iter().map(|_| rng.gen_range(0..k)).collect())
        .collect();
    for (d, doc) in docs.iter().enumerate() {
        for (i, &w) in doc.iter().enumerate() {
            let t = z[d][i];
            n_dk[d][t] += 1;
            n_kw[t][w as usize] += 1;
            n_k[t] += 1;
        }
    }

    let mut weights = vec![0.0f64; k];
    for _sweep in 0..config.iterations {
        for (d, doc) in docs.iter().enumerate() {
            for (i, &w) in doc.iter().enumerate() {
                let w = w as usize;
                let old = z[d][i];
                n_dk[d][old] -= 1;
                n_kw[old][w] -= 1;
                n_k[old] -= 1;
                let mut total = 0.0;
                for (t, wt) in weights.iter_mut().enumerate() {
                    let a = n_dk[d][t] as f64 + config.alpha;
                    let b = (n_kw[t][w] as f64 + config.beta)
                        / (n_k[t] as f64 + v as f64 * config.beta);
                    *wt = a * b;
                    total += *wt;
                }
                let mut u = rng.gen::<f64>() * total;
                let mut new = k - 1;
                for (t, &wt) in weights.iter().enumerate() {
                    if u < wt {
                        new = t;
                        break;
                    }
                    u -= wt;
                }
                z[d][i] = new;
                n_dk[d][new] += 1;
                n_kw[new][w] += 1;
                n_k[new] += 1;
            }
        }
    }

    let theta = docs
        .iter()
        .enumerate()
        .map(|(d, doc)| {
            let denom = doc.len() as f64 + k as f64 * config.alpha;
            (0..k)
                .map(|t| (n_dk[d][t] as f64 + config.alpha) / denom)
                .collect()
        })
        .collect();
    let phi = (0..k)
        .map(|t| {
            let denom = n_k[t] as f64 + v as f64 * config.beta;
            (0..v)
                .map(|w| (n_kw[t][w] as f64 + config.beta) / denom)
                .collect()
        })
        .collect();
    (theta, phi)
}

fn assert_bits_match(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}[{i}] reads {g:e}, the reference sampler {w:e}"
        );
    }
}

fn assert_fit_matches(docs: &[Vec<u32>], vocab_size: usize, config: &LdaConfig, what: &str) {
    let model = LdaModel::fit(docs, vocab_size, config);
    let (theta, phi) = reference_fit(docs, vocab_size, config);
    assert_eq!(model.num_docs(), theta.len(), "{what}: documents");
    for (d, want) in theta.iter().enumerate() {
        assert_bits_match(model.theta(d), want, &format!("{what}: theta[{d}]"));
    }
    for (t, want) in phi.iter().enumerate() {
        assert_bits_match(model.phi(t), want, &format!("{what}: phi[{t}]"));
    }
}

proptest! {
    #[test]
    fn fit_matches_the_reference_sampler_on_random_corpora(
        num_topics in 1usize..=12,
        vocab_size in 1usize..=200,
        tokens in proptest::collection::vec(
            proptest::collection::vec(0u32..200, 0..26),
            0..61,
        ),
        iterations in 1usize..=30,
        seed in 0u64..=u64::MAX,
    ) {
        let docs: Vec<Vec<u32>> = tokens
            .into_iter()
            .map(|doc| doc.into_iter().map(|w| w % vocab_size as u32).collect())
            .collect();
        let config = LdaConfig {
            num_topics,
            iterations,
            seed,
            ..Default::default()
        };
        assert_fit_matches(
            &docs,
            vocab_size,
            &config,
            &format!("k={num_topics} V={vocab_size} sweeps={iterations} seed={seed}"),
        );
    }
}

/// The corpora and configuration `MetricChoice::CosTopic` fits for a
/// served campaign.
#[test]
fn served_corpora_match_the_reference_sampler() {
    let tokenizer = Tokenizer::new();
    for key in ["yahooqa", "item_compare"] {
        for seed in [42, 10752] {
            let dataset = by_name(key, seed).expect("built-in dataset");
            let (docs, vocab) =
                encode_corpus(&tokenizer, dataset.tasks.iter().map(|t| t.text.as_str()));
            let config = LdaConfig {
                num_topics: 8,
                iterations: 150,
                seed,
                ..Default::default()
            };
            assert_fit_matches(
                &docs,
                vocab.len().max(1),
                &config,
                &format!("{key} seed {seed}"),
            );
        }
    }
}
