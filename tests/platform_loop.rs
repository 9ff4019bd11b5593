//! Platform-loop invariants: payments balance against events, the
//! event log replays, and a sold-out marketplace stops cleanly.

use icrowd::core::{Answer, ICrowdConfig, Microtask, TaskId, TaskSet, WarmupConfig};
use icrowd::platform::market::{MarketConfig, Marketplace, WorkerBehavior, WorkerScript};
use icrowd::platform::{EventLog, ExternalQuestionServer, MarketEvent};
use icrowd::{AssignStrategy, ICrowdBuilder};
use icrowd_sim::datasets::table1;

fn build_server(tasks: TaskSet) -> impl ExternalQuestionServer {
    let metric =
        icrowd::text::JaccardSimilarity::new(&tasks, &icrowd::text::Tokenizer::keeping_stopwords());
    ICrowdBuilder::new(tasks)
        .config(ICrowdConfig {
            similarity_threshold: 0.4,
            warmup: WarmupConfig {
                num_qualification: 2,
                ..Default::default()
            },
            ..Default::default()
        })
        .strategy(AssignStrategy::Adapt)
        .metric(&metric)
        .build()
}

fn crowd(n: usize) -> Vec<(WorkerScript, Box<dyn WorkerBehavior>)> {
    table1()
        .spawn_workers(3)
        .into_iter()
        .cycle()
        .take(n)
        .map(|w| {
            (
                WorkerScript::default(),
                Box::new(w) as Box<dyn WorkerBehavior>,
            )
        })
        .collect()
}

#[test]
fn payments_balance_against_the_event_log() {
    let ds = table1();
    let mut server = build_server(ds.tasks.clone());
    let market = Marketplace::new(ds.tasks.clone(), MarketConfig::default());
    let outcome = market.run_sequential(&mut server, crowd(5));

    // Ledger totals equal the HitSubmitted events' rewards.
    let submitted: u64 = outcome
        .events
        .events()
        .iter()
        .filter_map(|e| match e {
            MarketEvent::HitSubmitted { reward_cents, .. } => Some(u64::from(*reward_cents)),
            _ => None,
        })
        .sum();
    assert_eq!(outcome.ledger.total_spend(), submitted);
    // Earnings sum equals spend.
    let earned: u64 = outcome.ledger.iter().map(|(_, c)| c).sum();
    assert_eq!(earned, outcome.ledger.total_spend());
    // Every answer event corresponds to exactly one collected answer.
    let answer_events = outcome
        .events
        .events()
        .iter()
        .filter(|e| matches!(e, MarketEvent::AnswerSubmitted { .. }))
        .count();
    assert_eq!(answer_events, outcome.answers);
}

#[test]
fn event_log_round_trips_through_json() {
    let ds = table1();
    let mut server = build_server(ds.tasks.clone());
    let market = Marketplace::new(ds.tasks.clone(), MarketConfig::default());
    let outcome = market.run_sequential(&mut server, crowd(4));
    let text = outcome.events.to_json_lines();
    let parsed = EventLog::from_json_lines(&text).expect("replayable log");
    assert_eq!(parsed.events(), outcome.events.events());
}

#[test]
fn sold_out_marketplace_stops_cleanly() {
    // One HIT with one assignment and ten tasks per HIT: the second
    // worker cannot accept anything and leaves without events exploding.
    let tasks: TaskSet = (0..4)
        .map(|i| Microtask::binary(TaskId(i), format!("t{i}")).with_ground_truth(Answer::YES))
        .collect();
    let mut server = build_server(tasks.clone());
    let config = MarketConfig {
        num_hits: 1,
        assignments_per_hit: 1,
        ..Default::default()
    };
    let market = Marketplace::new(tasks, config);
    let outcome = market.run_sequential(&mut server, crowd(2));
    // Only the first worker worked.
    let workers_with_answers: std::collections::HashSet<_> = outcome
        .events
        .events()
        .iter()
        .filter_map(|e| match e {
            MarketEvent::AnswerSubmitted { worker, .. } => Some(worker.clone()),
            _ => None,
        })
        .collect();
    assert!(workers_with_answers.len() <= 1);
}
