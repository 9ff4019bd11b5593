//! Cosine similarities: `Cos(tf-idf)` and `Cos(topic)` (Appendix D.1).

use icrowd_core::task::{TaskId, TaskSet};

use crate::lda::{LdaConfig, LdaModel};
use crate::metric::TaskSimilarity;
use crate::tfidf::TfIdfModel;
use crate::tokenize::{encode_corpus, Tokenizer};

/// `Cos(tf-idf)`: cosine similarity of L2-normalized tf-idf vectors.
#[derive(Debug, Clone)]
pub struct CosineTfIdf {
    model: TfIdfModel,
}

impl CosineTfIdf {
    /// Fits tf-idf over the task texts.
    pub fn new(tasks: &TaskSet, tokenizer: &Tokenizer) -> Self {
        let model = TfIdfModel::fit(tokenizer, tasks.iter().map(|t| t.text.as_str()));
        Self { model }
    }

    /// The underlying tf-idf model.
    pub fn model(&self) -> &TfIdfModel {
        &self.model
    }
}

impl TaskSimilarity for CosineTfIdf {
    fn similarity(&self, a: TaskId, b: TaskId) -> f64 {
        self.model.cosine(a.index(), b.index())
    }

    fn name(&self) -> &str {
        "Cos(tf-idf)"
    }
}

/// `Cos(topic)`: cosine similarity of LDA topic distributions — the
/// paper's best-performing similarity (used with threshold 0.8 as the
/// default across experiments).
#[derive(Debug, Clone)]
pub struct TopicCosine {
    model: LdaModel,
}

impl TopicCosine {
    /// Tokenizes the task texts and fits LDA.
    pub fn new(tasks: &TaskSet, tokenizer: &Tokenizer, config: &LdaConfig) -> Self {
        let (docs, vocab) = encode_corpus(tokenizer, tasks.iter().map(|t| t.text.as_str()));
        let model = LdaModel::fit(&docs, vocab.len().max(1), config);
        Self { model }
    }

    /// The underlying LDA model.
    pub fn model(&self) -> &LdaModel {
        &self.model
    }
}

impl TaskSimilarity for TopicCosine {
    fn similarity(&self, a: TaskId, b: TaskId) -> f64 {
        self.model.topic_cosine(a.index(), b.index())
    }

    fn name(&self) -> &str {
        "Cos(topic)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icrowd_core::task::Microtask;

    fn tasks(texts: &[&str]) -> TaskSet {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| Microtask::binary(TaskId(i as u32), *t))
            .collect()
    }

    #[test]
    fn tfidf_cosine_orders_related_before_unrelated() {
        let ts = tasks(&[
            "iphone 4 wifi 32gb",
            "iphone four wifi 16gb",
            "nba lakers championship",
        ]);
        let m = CosineTfIdf::new(&ts, &Tokenizer::keeping_stopwords());
        assert!(m.similarity(TaskId(0), TaskId(1)) > m.similarity(TaskId(0), TaskId(2)));
        assert_eq!(m.name(), "Cos(tf-idf)");
    }

    #[test]
    fn topic_cosine_separates_domains() {
        let mut texts = Vec::new();
        for _ in 0..10 {
            texts.push("iphone ipad apple wifi screen battery");
            texts.push("nba lakers basketball player court game");
        }
        let ts = tasks(&texts);
        let m = TopicCosine::new(
            &ts,
            &Tokenizer::keeping_stopwords(),
            &LdaConfig {
                num_topics: 2,
                iterations: 120,
                seed: 3,
                ..Default::default()
            },
        );
        let same = m.similarity(TaskId(0), TaskId(2));
        let cross = m.similarity(TaskId(0), TaskId(1));
        assert!(same > cross, "same-domain {same} vs cross-domain {cross}");
        assert_eq!(m.name(), "Cos(topic)");
    }

    #[test]
    fn topic_cosine_is_symmetric_and_bounded() {
        let ts = tasks(&["a b c", "c d e", "x y z"]);
        let m = TopicCosine::new(
            &ts,
            &Tokenizer::keeping_stopwords(),
            &LdaConfig {
                num_topics: 3,
                iterations: 30,
                ..Default::default()
            },
        );
        for i in 0..3u32 {
            for j in 0..3u32 {
                let s = m.similarity(TaskId(i), TaskId(j));
                assert!((0.0..=1.0).contains(&s));
                assert!((s - m.similarity(TaskId(j), TaskId(i))).abs() < 1e-12);
            }
        }
    }
}
