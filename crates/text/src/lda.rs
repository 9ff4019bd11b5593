//! Latent Dirichlet Allocation via collapsed Gibbs sampling.
//!
//! Appendix D.1's best-performing similarity, `Cos(topic)`, needs a topic
//! distribution per microtask. This module implements the standard LDA
//! generative model (Blei, Ng & Jordan) with the collapsed Gibbs sampler of
//! Griffiths & Steyvers: topic assignments `z` are resampled word by word
//! from
//!
//! ```text
//! P(z = k | rest) ∝ (n_dk + alpha) * (n_kw + beta) / (n_k + V * beta)
//! ```
//!
//! After burn-in, document–topic distributions `theta` and topic–word
//! distributions `phi` are read off the smoothed counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// LDA hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdaConfig {
    /// Number of topics `K`.
    pub num_topics: usize,
    /// Symmetric Dirichlet prior on document–topic distributions.
    pub alpha: f64,
    /// Symmetric Dirichlet prior on topic–word distributions.
    pub beta: f64,
    /// Total Gibbs sweeps (burn-in included).
    pub iterations: usize,
    /// RNG seed (sampling is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        Self {
            num_topics: 10,
            alpha: 0.5,
            beta: 0.01,
            iterations: 200,
            seed: 42,
        }
    }
}

/// A fitted LDA model.
#[derive(Debug, Clone)]
pub struct LdaModel {
    num_topics: usize,
    vocab_size: usize,
    /// `theta[d][k]`: probability of topic `k` in document `d`.
    theta: Vec<Vec<f64>>,
    /// `phi[k][w]`: probability of word `w` under topic `k`.
    phi: Vec<Vec<f64>>,
}

/// The sampler's counts `n_dk`, `n_wk` and `n_k`, row-major with stride
/// `k`, each beside the term the full conditional reads from it:
/// `n_dk + alpha`, `n_wk + beta` and `n_k + V * beta`. A term is
/// recomputed from its count whenever the count moves, so it holds the
/// bits the conditional would compute from the count itself.
struct Counts {
    k: usize,
    alpha: f64,
    beta: f64,
    v_beta: f64,
    n_dk: Vec<u32>,
    n_wk: Vec<u32>,
    n_k: Vec<u32>,
    doc: Vec<f64>,
    word: Vec<f64>,
    topic: Vec<f64>,
}

impl Counts {
    fn new(num_docs: usize, vocab_size: usize, config: &LdaConfig) -> Self {
        let k = config.num_topics;
        let v_beta = vocab_size as f64 * config.beta;
        Self {
            k,
            alpha: config.alpha,
            beta: config.beta,
            v_beta,
            n_dk: vec![0; num_docs * k],
            n_wk: vec![0; vocab_size * k],
            n_k: vec![0; k],
            // A zero count's terms, summed as `shift` sums them (a prior
            // of -0.0 gives 0.0).
            doc: vec![0.0 + config.alpha; num_docs * k],
            word: vec![0.0 + config.beta; vocab_size * k],
            topic: vec![0.0 + v_beta; k],
        }
    }

    /// Fills `weights` with the full conditional of a token of word `w`
    /// in document `d`, the token itself uncounted, and returns their sum
    /// taken in topic order.
    fn conditional(&self, d: usize, w: usize, weights: &mut [f64]) -> f64 {
        let k = self.k;
        let doc = &self.doc[d * k..(d + 1) * k];
        let word = &self.word[w * k..(w + 1) * k];
        for (wt, (a, (num, den))) in weights
            .iter_mut()
            .zip(doc.iter().zip(word.iter().zip(&self.topic)))
        {
            *wt = a * (num / den);
        }
        weights.iter().fold(0.0, |total, wt| total + wt)
    }

    /// Counts a token of word `w` in document `d` under topic `t`.
    fn add(&mut self, d: usize, w: usize, t: usize) {
        self.shift(d, w, t, |n| n + 1);
    }

    /// Uncounts a token of word `w` in document `d` under topic `t`.
    fn remove(&mut self, d: usize, w: usize, t: usize) {
        self.shift(d, w, t, |n| n - 1);
    }

    /// Applies `step` to the token's three counts and recomputes their
    /// terms from the new counts.
    fn shift(&mut self, d: usize, w: usize, t: usize, step: impl Fn(u32) -> u32) {
        let (dt, wt) = (d * self.k + t, w * self.k + t);
        let n = step(self.n_dk[dt]);
        self.n_dk[dt] = n;
        self.doc[dt] = n as f64 + self.alpha;
        let n = step(self.n_wk[wt]);
        self.n_wk[wt] = n;
        self.word[wt] = n as f64 + self.beta;
        let n = step(self.n_k[t]);
        self.n_k[t] = n;
        self.topic[t] = n as f64 + self.v_beta;
    }
}

impl LdaModel {
    /// Fits LDA on `docs` (token-id documents over a vocabulary of
    /// `vocab_size` words) by collapsed Gibbs sampling.
    ///
    /// Empty documents are legal; their `theta` is the uniform
    /// distribution.
    ///
    /// # Panics
    /// Panics if `config.num_topics == 0`, `iterations == 0`, or any token
    /// id is `>= vocab_size`.
    pub fn fit(docs: &[Vec<u32>], vocab_size: usize, config: &LdaConfig) -> Self {
        assert!(config.num_topics > 0, "need at least one topic");
        assert!(config.iterations > 0, "need at least one Gibbs sweep");
        let k = config.num_topics;
        let v = vocab_size;
        for doc in docs {
            for &w in doc {
                assert!((w as usize) < v, "token id {w} out of vocabulary");
            }
        }

        let mut rng = StdRng::seed_from_u64(config.seed);
        // Current topic assignment of every token position.
        let mut z: Vec<Vec<usize>> = docs
            .iter()
            .map(|doc| doc.iter().map(|_| rng.gen_range(0..k)).collect())
            .collect();
        let mut counts = Counts::new(docs.len(), v, config);
        for (d, doc) in docs.iter().enumerate() {
            for (i, &w) in doc.iter().enumerate() {
                counts.add(d, w as usize, z[d][i]);
            }
        }

        let mut weights = vec![0.0f64; k];
        for _sweep in 0..config.iterations {
            for (d, doc) in docs.iter().enumerate() {
                for (i, &w) in doc.iter().enumerate() {
                    let w = w as usize;
                    let old = z[d][i];
                    counts.remove(d, w, old);
                    let total = counts.conditional(d, w, &mut weights);
                    // Inverse-CDF sample.
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
                    counts.add(d, w, new);
                }
            }
        }

        // Read distributions off the final counts' terms (single-sample
        // estimate).
        let theta = docs
            .iter()
            .zip(counts.doc.chunks_exact(k))
            .map(|(doc, terms)| {
                let denom = doc.len() as f64 + k as f64 * config.alpha;
                terms.iter().map(|a| a / denom).collect()
            })
            .collect();
        let phi = (0..k)
            .map(|t| {
                let denom = counts.topic[t];
                (0..v).map(|w| counts.word[w * k + t] / denom).collect()
            })
            .collect();

        Self {
            num_topics: k,
            vocab_size: v,
            theta,
            phi,
        }
    }

    /// Number of topics `K`.
    pub fn num_topics(&self) -> usize {
        self.num_topics
    }

    /// Vocabulary size `V`.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Topic distribution of document `d`.
    pub fn theta(&self, d: usize) -> &[f64] {
        &self.theta[d]
    }

    /// Word distribution of topic `t`.
    pub fn phi(&self, t: usize) -> &[f64] {
        &self.phi[t]
    }

    /// Number of fitted documents.
    pub fn num_docs(&self) -> usize {
        self.theta.len()
    }

    /// Cosine similarity between the topic distributions of documents
    /// `i` and `j`, clamped to `[0, 1]`.
    pub fn topic_cosine(&self, i: usize, j: usize) -> f64 {
        let (a, b) = (&self.theta[i], &self.theta[j]);
        let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot / (na * nb)).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::{encode_corpus, Tokenizer};

    /// Two clearly separated topics: phones and basketball.
    fn two_topic_corpus() -> (Vec<Vec<u32>>, usize) {
        let texts: Vec<String> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    "iphone ipad wifi screen battery apple phone tablet".to_string()
                } else {
                    "nba lakers basketball court player coach season game".to_string()
                }
            })
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (docs, vocab) = encode_corpus(&Tokenizer::keeping_stopwords(), refs);
        let v = vocab.len();
        (docs, v)
    }

    fn fit_two_topics() -> LdaModel {
        let (docs, v) = two_topic_corpus();
        LdaModel::fit(
            &docs,
            v,
            &LdaConfig {
                num_topics: 2,
                iterations: 150,
                seed: 7,
                ..Default::default()
            },
        )
    }

    #[test]
    fn theta_and_phi_are_distributions() {
        let m = fit_two_topics();
        for d in 0..m.num_docs() {
            let s: f64 = m.theta(d).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "theta[{d}] sums to {s}");
            assert!(m.theta(d).iter().all(|&p| p > 0.0));
        }
        for t in 0..m.num_topics() {
            let s: f64 = m.phi(t).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "phi[{t}] sums to {s}");
        }
    }

    #[test]
    fn separates_two_obvious_topics() {
        let m = fit_two_topics();
        // Same-domain documents should be much closer than cross-domain.
        let same = m.topic_cosine(0, 2);
        let cross = m.topic_cosine(0, 1);
        assert!(
            same > cross + 0.3,
            "same-domain cosine {same} should dominate cross-domain {cross}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (docs, v) = two_topic_corpus();
        let cfg = LdaConfig {
            num_topics: 2,
            iterations: 50,
            seed: 99,
            ..Default::default()
        };
        let m1 = LdaModel::fit(&docs, v, &cfg);
        let m2 = LdaModel::fit(&docs, v, &cfg);
        for d in 0..m1.num_docs() {
            assert_eq!(m1.theta(d), m2.theta(d));
        }
    }

    #[test]
    fn empty_documents_get_uniform_theta() {
        let docs = vec![vec![0, 1, 2], vec![]];
        let m = LdaModel::fit(
            &docs,
            3,
            &LdaConfig {
                num_topics: 4,
                iterations: 10,
                ..Default::default()
            },
        );
        let th = m.theta(1);
        for &p in th {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn top_words_reflect_topic_mass() {
        let m = fit_two_topics();
        // The top words of the two topics should be (mostly) disjoint.
        let top5 = |t: usize| {
            let phi = m.phi(t);
            let mut idx: Vec<usize> = (0..phi.len()).collect();
            idx.sort_by(|&a, &b| phi[b].total_cmp(&phi[a]).then(a.cmp(&b)));
            idx.truncate(5);
            idx
        };
        let (a, b) = (top5(0), top5(1));
        let overlap = a.iter().filter(|w| b.contains(w)).count();
        assert!(overlap <= 1, "topics share {overlap} of top-5 words");
    }

    /// The mirrored terms give the bits of the conditional computed
    /// from the counts themselves: every weight and the total.
    #[test]
    fn conditional_matches_the_formula_on_the_counts() {
        let mut rng = StdRng::seed_from_u64(5);
        // (topics, vocabulary, alpha, beta, tokens). The last case leaves
        // most counts at zero, whose terms must carry the sign the
        // counts give a -0.0 prior.
        let cases = [
            (1, 1, 0.5, 0.01, 400),
            (8, 87, 0.5, 0.01, 400),
            (12, 200, 0.1, 0.3, 400),
            (12, 200, -0.0, -0.0, 30),
        ];
        for (k, v, alpha, beta, num_tokens) in cases {
            let config = LdaConfig {
                num_topics: k,
                alpha,
                beta,
                ..Default::default()
            };
            let num_docs = 7;
            let mut counts = Counts::new(num_docs, v, &config);
            let tokens: Vec<(usize, usize, usize)> = (0..num_tokens)
                .map(|_| {
                    let token = (
                        rng.gen_range(0..num_docs),
                        rng.gen_range(0..v),
                        rng.gen_range(0..k),
                    );
                    counts.add(token.0, token.1, token.2);
                    token
                })
                .collect();
            for &(d, w, t) in tokens.iter().step_by(3) {
                counts.remove(d, w, t);
            }
            let mut weights = vec![0.0; k];
            for d in 0..num_docs {
                for w in 0..v {
                    let total = counts.conditional(d, w, &mut weights);
                    let mut want_total = 0.0;
                    for (t, got) in weights.iter().enumerate() {
                        let a = counts.n_dk[d * k + t] as f64 + alpha;
                        let b = (counts.n_wk[w * k + t] as f64 + beta)
                            / (counts.n_k[t] as f64 + v as f64 * beta);
                        let want = a * b;
                        assert_eq!(got.to_bits(), want.to_bits(), "k={k} d={d} w={w} t={t}");
                        want_total += want;
                    }
                    assert_eq!(total.to_bits(), want_total.to_bits(), "k={k} d={d} w={w}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn rejects_out_of_vocab_tokens() {
        LdaModel::fit(&[vec![5]], 3, &LdaConfig::default());
    }
}
