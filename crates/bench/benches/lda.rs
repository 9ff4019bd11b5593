//! LDA sampler throughput (the offline cost behind `Cos(topic)`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use icrowd::text::{LdaConfig, LdaModel, Tokenizer};
use icrowd_sim::datasets::{item_compare, yahooqa};

fn bench_lda(c: &mut Criterion) {
    let mut group = c.benchmark_group("lda");
    group.sample_size(10);
    let tokenizer = Tokenizer::new();
    for (name, tasks) in [
        ("yahooqa_110", yahooqa(42).tasks),
        ("item_compare_360", item_compare(42).tasks),
    ] {
        let (docs, vocab) = icrowd::text::tokenize::encode_corpus(
            &tokenizer,
            tasks.iter().map(|t| t.text.as_str()),
        );
        let v = vocab.len();
        group.bench_with_input(BenchmarkId::new("fit_50_sweeps", name), &docs, |b, d| {
            b.iter(|| {
                LdaModel::fit(
                    d,
                    v,
                    &LdaConfig {
                        num_topics: 8,
                        iterations: 50,
                        seed: 1,
                        ..Default::default()
                    },
                )
            })
        });
        // The fit a served campaign pays: `MetricChoice::CosTopic`'s 150
        // sweeps over 8 topics at the campaign seed.
        group.bench_with_input(BenchmarkId::new("fit_served", name), &docs, |b, d| {
            b.iter(|| {
                LdaModel::fit(
                    d,
                    v,
                    &LdaConfig {
                        num_topics: 8,
                        iterations: 150,
                        seed: 42,
                        ..Default::default()
                    },
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lda);
criterion_main!(benches);
