//! Structured marketplace event log.
//!
//! Every observable interaction on the simulated platform is recorded as
//! a [`MarketEvent`]; the log serializes to JSON lines for replay and
//! debugging, and the integration tests assert accounting invariants over
//! it (e.g. every payment is preceded by enough submissions).

use icrowd_core::answer::Answer;
use icrowd_core::task::TaskId;
use icrowd_core::worker::Tick;
use serde_json::{json, Error, Value};

use crate::hit::HitId;

/// Why the server refused to record a submitted answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The worker holds no assignment for this task.
    NotAssigned,
    /// The worker already answered this task; the copy is discarded.
    Duplicate,
    /// The assignment's lease expired before the answer arrived.
    LeaseExpired,
    /// The task already reached consensus; the late answer is moot.
    TaskCompleted,
}

impl RejectReason {
    const ALL: [RejectReason; 4] = [
        RejectReason::NotAssigned,
        RejectReason::Duplicate,
        RejectReason::LeaseExpired,
        RejectReason::TaskCompleted,
    ];

    /// The variant name the event log writes for this reason.
    fn tag(self) -> &'static str {
        match self {
            RejectReason::NotAssigned => "NotAssigned",
            RejectReason::Duplicate => "Duplicate",
            RejectReason::LeaseExpired => "LeaseExpired",
            RejectReason::TaskCompleted => "TaskCompleted",
        }
    }

    /// A stable lowercase name, used as the telemetry counter suffix.
    pub fn name(&self) -> &'static str {
        match self {
            RejectReason::NotAssigned => "not_assigned",
            RejectReason::Duplicate => "duplicate",
            RejectReason::LeaseExpired => "lease_expired",
            RejectReason::TaskCompleted => "task_completed",
        }
    }

    /// The full telemetry counter name for this rejection, as a static
    /// string so the disabled-telemetry path never allocates (the obs
    /// crate's `noop_alloc` test covers every one of these).
    pub fn counter_name(&self) -> &'static str {
        match self {
            RejectReason::NotAssigned => "answer.rejected.not_assigned",
            RejectReason::Duplicate => "answer.rejected.duplicate",
            RejectReason::LeaseExpired => "answer.rejected.lease_expired",
            RejectReason::TaskCompleted => "answer.rejected.task_completed",
        }
    }
}

/// One marketplace event.
#[derive(Debug, Clone, PartialEq)]
pub enum MarketEvent {
    /// A worker arrived and accepted a HIT.
    HitAccepted {
        /// When it happened.
        at: Tick,
        /// The worker's external id.
        worker: String,
        /// The accepted HIT.
        hit: HitId,
    },
    /// The server assigned a microtask to a requesting worker.
    TaskAssigned {
        /// When it happened.
        at: Tick,
        /// The worker's external id.
        worker: String,
        /// The assigned microtask.
        task: TaskId,
    },
    /// A worker requested work but the server had nothing for her.
    RequestDeclined {
        /// When it happened.
        at: Tick,
        /// The worker's external id.
        worker: String,
    },
    /// A worker submitted an answer.
    AnswerSubmitted {
        /// When it happened.
        at: Tick,
        /// The worker's external id.
        worker: String,
        /// The answered microtask.
        task: TaskId,
        /// The answer.
        answer: Answer,
    },
    /// A worker submitted a completed HIT and was paid.
    HitSubmitted {
        /// When it happened.
        at: Tick,
        /// The worker's external id.
        worker: String,
        /// The submitted HIT.
        hit: HitId,
        /// The payment, in cents.
        reward_cents: u32,
    },
    /// A worker abandoned her HIT (left before finishing).
    HitAbandoned {
        /// When it happened.
        at: Tick,
        /// The worker's external id.
        worker: String,
        /// The abandoned HIT.
        hit: HitId,
        /// Answers credited to the HIT before abandonment.
        answered: usize,
    },
    /// The server refused to record a submitted answer.
    AnswerRejected {
        /// When it happened.
        at: Tick,
        /// The worker's external id.
        worker: String,
        /// The task the rejected answer was for.
        task: TaskId,
        /// Why it was refused.
        reason: RejectReason,
    },
    /// An injected fault lost a submission in transit; the server never
    /// saw it.
    AnswerDropped {
        /// When it happened.
        at: Tick,
        /// The worker's external id.
        worker: String,
        /// The task whose answer was lost.
        task: TaskId,
    },
    /// An injected fault made the worker hold her assignment forever.
    WorkerStalled {
        /// When it happened.
        at: Tick,
        /// The worker's external id.
        worker: String,
        /// The task she is sitting on.
        task: TaskId,
    },
    /// An injected churn spike made the worker depart.
    WorkerChurned {
        /// When it happened.
        at: Tick,
        /// The worker's external id.
        worker: String,
    },
}

impl MarketEvent {
    /// A stable kebab-ish name for the variant, used as the telemetry
    /// counter / event key (`market.<kind>`).
    pub fn kind(&self) -> &'static str {
        match self {
            MarketEvent::HitAccepted { .. } => "hit_accepted",
            MarketEvent::TaskAssigned { .. } => "task_assigned",
            MarketEvent::RequestDeclined { .. } => "request_declined",
            MarketEvent::AnswerSubmitted { .. } => "answer_submitted",
            MarketEvent::HitSubmitted { .. } => "hit_submitted",
            MarketEvent::HitAbandoned { .. } => "hit_abandoned",
            MarketEvent::AnswerRejected { .. } => "answer_rejected",
            MarketEvent::AnswerDropped { .. } => "answer_dropped",
            MarketEvent::WorkerStalled { .. } => "worker_stalled",
            MarketEvent::WorkerChurned { .. } => "worker_churned",
        }
    }

    /// The event timestamp.
    pub fn at(&self) -> Tick {
        match self {
            MarketEvent::HitAccepted { at, .. }
            | MarketEvent::TaskAssigned { at, .. }
            | MarketEvent::RequestDeclined { at, .. }
            | MarketEvent::AnswerSubmitted { at, .. }
            | MarketEvent::HitSubmitted { at, .. }
            | MarketEvent::HitAbandoned { at, .. }
            | MarketEvent::AnswerRejected { at, .. }
            | MarketEvent::AnswerDropped { at, .. }
            | MarketEvent::WorkerStalled { at, .. }
            | MarketEvent::WorkerChurned { at, .. } => *at,
        }
    }

    /// The worker the event concerns.
    pub fn worker(&self) -> &str {
        match self {
            MarketEvent::HitAccepted { worker, .. }
            | MarketEvent::TaskAssigned { worker, .. }
            | MarketEvent::RequestDeclined { worker, .. }
            | MarketEvent::AnswerSubmitted { worker, .. }
            | MarketEvent::HitSubmitted { worker, .. }
            | MarketEvent::HitAbandoned { worker, .. }
            | MarketEvent::AnswerRejected { worker, .. }
            | MarketEvent::AnswerDropped { worker, .. }
            | MarketEvent::WorkerStalled { worker, .. }
            | MarketEvent::WorkerChurned { worker, .. } => worker,
        }
    }
}

/// An append-only event log.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<MarketEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event, tallying the HIT-lifecycle transition in the
    /// telemetry sink (no-op when telemetry is disabled).
    pub fn push(&mut self, event: MarketEvent) {
        debug_assert!(
            self.events
                .last()
                .is_none_or(|last| last.at() <= event.at()),
            "events must arrive in tick order"
        );
        if icrowd_obs::is_enabled() {
            icrowd_obs::counter_add(&format!("market.{}", event.kind()), 1);
        }
        self.events.push(event);
    }

    /// All events, in arrival order.
    pub fn events(&self) -> &[MarketEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the log as JSON lines, one object per event, tagged
    /// by variant name:
    /// `{"AnswerRejected":{"at":7,"worker":"A","task":0,"reason":"Duplicate"}}`.
    pub fn to_json_lines(&self) -> String {
        self.events
            .iter()
            .map(|e| event_to_value(e).to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Parses a log from JSON lines.
    ///
    /// # Errors
    /// Returns a `serde_json` error for the first line that is not JSON
    /// or not an event.
    pub fn from_json_lines(s: &str) -> Result<Self, Error> {
        let events = s
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                let v: Value = serde_json::from_str(l)?;
                event_from_value(&v).ok_or_else(|| Error::custom(format!("not an event: {l}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { events })
    }

    /// Bridges every logged event into the `icrowd-obs` sink as a typed
    /// JSON event (no-op when telemetry is disabled), so marketplace
    /// history lands in the same JSONL export as spans and counters.
    pub fn export_to_obs(&self) {
        if !icrowd_obs::is_enabled() {
            return;
        }
        for e in &self.events {
            let payload = event_to_value(e).to_string();
            icrowd_obs::event_json(&format!("market.{}", e.kind()), &payload);
        }
    }
}

/// Encodes one event as its event-log object: tagged by variant name,
/// fields in declaration order, ids as bare numbers, e.g.
/// `{"AnswerRejected":{"at":7,"worker":"A","task":0,"reason":"Duplicate"}}`.
fn event_to_value(e: &MarketEvent) -> Value {
    let (tag, fields) = match e {
        MarketEvent::HitAccepted { at, worker, hit } => (
            "HitAccepted",
            json!({"at": at.0, "worker": worker, "hit": hit.0}),
        ),
        MarketEvent::TaskAssigned { at, worker, task } => (
            "TaskAssigned",
            json!({"at": at.0, "worker": worker, "task": task.0}),
        ),
        MarketEvent::RequestDeclined { at, worker } => {
            ("RequestDeclined", json!({"at": at.0, "worker": worker}))
        }
        MarketEvent::AnswerSubmitted {
            at,
            worker,
            task,
            answer,
        } => (
            "AnswerSubmitted",
            json!({"at": at.0, "worker": worker, "task": task.0, "answer": answer.0}),
        ),
        MarketEvent::HitSubmitted {
            at,
            worker,
            hit,
            reward_cents,
        } => (
            "HitSubmitted",
            json!({"at": at.0, "worker": worker, "hit": hit.0, "reward_cents": reward_cents}),
        ),
        MarketEvent::HitAbandoned {
            at,
            worker,
            hit,
            answered,
        } => (
            "HitAbandoned",
            json!({"at": at.0, "worker": worker, "hit": hit.0, "answered": answered}),
        ),
        MarketEvent::AnswerRejected {
            at,
            worker,
            task,
            reason,
        } => (
            "AnswerRejected",
            json!({"at": at.0, "worker": worker, "task": task.0, "reason": reason.tag()}),
        ),
        MarketEvent::AnswerDropped { at, worker, task } => (
            "AnswerDropped",
            json!({"at": at.0, "worker": worker, "task": task.0}),
        ),
        MarketEvent::WorkerStalled { at, worker, task } => (
            "WorkerStalled",
            json!({"at": at.0, "worker": worker, "task": task.0}),
        ),
        MarketEvent::WorkerChurned { at, worker } => {
            ("WorkerChurned", json!({"at": at.0, "worker": worker}))
        }
    };
    Value::Object(vec![(tag.to_owned(), fields)])
}

/// A numeric field of an event object, if present and in range.
fn num<T: TryFrom<u64>>(fields: &Value, key: &str) -> Option<T> {
    T::try_from(fields.get(key)?.as_u64()?).ok()
}

/// Decodes one object written by [`event_to_value`].
fn event_from_value(v: &Value) -> Option<MarketEvent> {
    let [(tag, f)] = v.as_object()? else {
        return None;
    };
    let at = Tick(num(f, "at")?);
    let worker = f.get("worker")?.as_str()?.to_owned();
    Some(match tag.as_str() {
        "HitAccepted" => MarketEvent::HitAccepted {
            at,
            worker,
            hit: HitId(num(f, "hit")?),
        },
        "TaskAssigned" => MarketEvent::TaskAssigned {
            at,
            worker,
            task: TaskId(num(f, "task")?),
        },
        "RequestDeclined" => MarketEvent::RequestDeclined { at, worker },
        "AnswerSubmitted" => MarketEvent::AnswerSubmitted {
            at,
            worker,
            task: TaskId(num(f, "task")?),
            answer: Answer(num(f, "answer")?),
        },
        "HitSubmitted" => MarketEvent::HitSubmitted {
            at,
            worker,
            hit: HitId(num(f, "hit")?),
            reward_cents: num(f, "reward_cents")?,
        },
        "HitAbandoned" => MarketEvent::HitAbandoned {
            at,
            worker,
            hit: HitId(num(f, "hit")?),
            answered: num(f, "answered")?,
        },
        "AnswerRejected" => {
            let reason = f.get("reason")?.as_str()?;
            MarketEvent::AnswerRejected {
                at,
                worker,
                task: TaskId(num(f, "task")?),
                reason: RejectReason::ALL.into_iter().find(|r| r.tag() == reason)?,
            }
        }
        "AnswerDropped" => MarketEvent::AnswerDropped {
            at,
            worker,
            task: TaskId(num(f, "task")?),
        },
        "WorkerStalled" => MarketEvent::WorkerStalled {
            at,
            worker,
            task: TaskId(num(f, "task")?),
        },
        "WorkerChurned" => MarketEvent::WorkerChurned { at, worker },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_all_variants() {
        let events = [
            MarketEvent::HitAccepted {
                at: Tick(1),
                worker: "A".into(),
                hit: HitId(0),
            },
            MarketEvent::TaskAssigned {
                at: Tick(2),
                worker: "A".into(),
                task: TaskId(0),
            },
            MarketEvent::RequestDeclined {
                at: Tick(3),
                worker: "B".into(),
            },
            MarketEvent::AnswerSubmitted {
                at: Tick(4),
                worker: "A".into(),
                task: TaskId(0),
                answer: Answer::YES,
            },
            MarketEvent::HitSubmitted {
                at: Tick(5),
                worker: "A".into(),
                hit: HitId(0),
                reward_cents: 10,
            },
            MarketEvent::HitAbandoned {
                at: Tick(6),
                worker: "B".into(),
                hit: HitId(1),
                answered: 3,
            },
            MarketEvent::AnswerRejected {
                at: Tick(7),
                worker: "A".into(),
                task: TaskId(0),
                reason: RejectReason::Duplicate,
            },
            MarketEvent::AnswerDropped {
                at: Tick(8),
                worker: "A".into(),
                task: TaskId(0),
            },
            MarketEvent::WorkerStalled {
                at: Tick(9),
                worker: "B".into(),
                task: TaskId(1),
            },
            MarketEvent::WorkerChurned {
                at: Tick(10),
                worker: "B".into(),
            },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.at(), Tick(i as u64 + 1));
        }
        assert_eq!(events[2].worker(), "B");
        assert_eq!(events[9].worker(), "B");
    }

    #[test]
    fn json_round_trip() {
        let mut log = EventLog::new();
        log.push(MarketEvent::HitAccepted {
            at: Tick(0),
            worker: "A".into(),
            hit: HitId(0),
        });
        log.push(MarketEvent::AnswerSubmitted {
            at: Tick(1),
            worker: "A".into(),
            task: TaskId(7),
            answer: Answer::NO,
        });
        let text = log.to_json_lines();
        let parsed = EventLog::from_json_lines(&text).unwrap();
        assert_eq!(parsed.events(), log.events());
        assert_eq!(parsed.len(), 2);
    }

    /// The exact bytes of the replay record: one event of every variant
    /// (and every rejection reason), a worker id that needs escaping,
    /// and a `u64::MAX` tick.
    #[test]
    fn json_lines_are_byte_stable() {
        let worker = |s: &str| s.to_owned();
        let events = [
            MarketEvent::HitAccepted {
                at: Tick(1),
                worker: worker("A"),
                hit: HitId(0),
            },
            MarketEvent::TaskAssigned {
                at: Tick(2),
                worker: worker("A"),
                task: TaskId(4_000_000_000),
            },
            MarketEvent::RequestDeclined {
                at: Tick(3),
                worker: worker("q\"b\\s\n\r\t\u{1}é漢😀"),
            },
            MarketEvent::AnswerSubmitted {
                at: Tick(4),
                worker: worker("A"),
                task: TaskId(0),
                answer: Answer(255),
            },
            MarketEvent::HitSubmitted {
                at: Tick(5),
                worker: worker("A"),
                hit: HitId(0),
                reward_cents: 10,
            },
            MarketEvent::HitAbandoned {
                at: Tick(6),
                worker: worker("B"),
                hit: HitId(1),
                answered: 3,
            },
            MarketEvent::AnswerRejected {
                at: Tick(7),
                worker: worker("A"),
                task: TaskId(0),
                reason: RejectReason::Duplicate,
            },
            MarketEvent::AnswerRejected {
                at: Tick(7),
                worker: worker("A"),
                task: TaskId(1),
                reason: RejectReason::NotAssigned,
            },
            MarketEvent::AnswerRejected {
                at: Tick(7),
                worker: worker("A"),
                task: TaskId(2),
                reason: RejectReason::LeaseExpired,
            },
            MarketEvent::AnswerRejected {
                at: Tick(7),
                worker: worker("A"),
                task: TaskId(3),
                reason: RejectReason::TaskCompleted,
            },
            MarketEvent::AnswerDropped {
                at: Tick(8),
                worker: worker("A"),
                task: TaskId(0),
            },
            MarketEvent::WorkerStalled {
                at: Tick(9),
                worker: worker("B"),
                task: TaskId(1),
            },
            MarketEvent::WorkerChurned {
                at: Tick(u64::MAX),
                worker: worker("B"),
            },
        ];
        let mut log = EventLog::new();
        for e in events {
            log.push(e);
        }
        let expected = [
            r#"{"HitAccepted":{"at":1,"worker":"A","hit":0}}"#,
            r#"{"TaskAssigned":{"at":2,"worker":"A","task":4000000000}}"#,
            "{\"RequestDeclined\":{\"at\":3,\"worker\":\"q\\\"b\\\\s\\n\\r\\t\\u0001é漢😀\"}}",
            r#"{"AnswerSubmitted":{"at":4,"worker":"A","task":0,"answer":255}}"#,
            r#"{"HitSubmitted":{"at":5,"worker":"A","hit":0,"reward_cents":10}}"#,
            r#"{"HitAbandoned":{"at":6,"worker":"B","hit":1,"answered":3}}"#,
            r#"{"AnswerRejected":{"at":7,"worker":"A","task":0,"reason":"Duplicate"}}"#,
            r#"{"AnswerRejected":{"at":7,"worker":"A","task":1,"reason":"NotAssigned"}}"#,
            r#"{"AnswerRejected":{"at":7,"worker":"A","task":2,"reason":"LeaseExpired"}}"#,
            r#"{"AnswerRejected":{"at":7,"worker":"A","task":3,"reason":"TaskCompleted"}}"#,
            r#"{"AnswerDropped":{"at":8,"worker":"A","task":0}}"#,
            r#"{"WorkerStalled":{"at":9,"worker":"B","task":1}}"#,
            r#"{"WorkerChurned":{"at":18446744073709551615,"worker":"B"}}"#,
        ]
        .join("\n");
        assert_eq!(log.to_json_lines(), expected);
        let parsed = EventLog::from_json_lines(&expected).unwrap();
        assert_eq!(parsed.events(), log.events());
    }

    #[test]
    fn reject_counter_names_match_the_dynamic_scheme() {
        for r in [
            RejectReason::NotAssigned,
            RejectReason::Duplicate,
            RejectReason::LeaseExpired,
            RejectReason::TaskCompleted,
        ] {
            assert_eq!(r.counter_name(), format!("answer.rejected.{}", r.name()));
        }
    }

    #[test]
    fn malformed_json_is_an_error() {
        for bad in [
            "not json",
            r#""RequestDeclined""#,
            r#"{"Teleported":{"at":1,"worker":"A"}}"#,
            r#"{"TaskAssigned":{"at":1,"worker":"A"}}"#,
            r#"{"TaskAssigned":{"at":1,"worker":"A","task":4294967296}}"#,
            r#"{"AnswerRejected":{"at":1,"worker":"A","task":0,"reason":"duplicate"}}"#,
            r#"{"WorkerChurned":{"at":1,"worker":"A"},"RequestDeclined":{"at":1,"worker":"A"}}"#,
        ] {
            assert!(EventLog::from_json_lines(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn kind_names_are_distinct() {
        let kinds = [
            MarketEvent::HitAccepted {
                at: Tick(0),
                worker: String::new(),
                hit: HitId(0),
            }
            .kind(),
            MarketEvent::TaskAssigned {
                at: Tick(0),
                worker: String::new(),
                task: TaskId(0),
            }
            .kind(),
            MarketEvent::RequestDeclined {
                at: Tick(0),
                worker: String::new(),
            }
            .kind(),
            MarketEvent::AnswerSubmitted {
                at: Tick(0),
                worker: String::new(),
                task: TaskId(0),
                answer: Answer::YES,
            }
            .kind(),
            MarketEvent::HitSubmitted {
                at: Tick(0),
                worker: String::new(),
                hit: HitId(0),
                reward_cents: 0,
            }
            .kind(),
            MarketEvent::HitAbandoned {
                at: Tick(0),
                worker: String::new(),
                hit: HitId(0),
                answered: 0,
            }
            .kind(),
            MarketEvent::AnswerRejected {
                at: Tick(0),
                worker: String::new(),
                task: TaskId(0),
                reason: RejectReason::NotAssigned,
            }
            .kind(),
            MarketEvent::AnswerDropped {
                at: Tick(0),
                worker: String::new(),
                task: TaskId(0),
            }
            .kind(),
            MarketEvent::WorkerStalled {
                at: Tick(0),
                worker: String::new(),
                task: TaskId(0),
            }
            .kind(),
            MarketEvent::WorkerChurned {
                at: Tick(0),
                worker: String::new(),
            }
            .kind(),
        ];
        let distinct: std::collections::BTreeSet<&str> = kinds.iter().copied().collect();
        assert_eq!(distinct.len(), kinds.len());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Worker ids exercising the serializer's escaping: quotes,
        /// backslashes, control characters, and non-ASCII.
        fn arb_worker() -> impl Strategy<Value = String> {
            "[a-zA-Z0-9 _.\"\\\n\té漢-]{0,12}"
        }

        /// One arbitrary event of any variant. Extreme ticks included:
        /// `Tick` is `u64` and must survive JSON untruncated.
        fn arb_event() -> impl Strategy<Value = MarketEvent> {
            (
                (0u8..10, 0u64..=u64::MAX),
                (arb_worker(), 0u32..=u32::MAX),
                (0u32..=u32::MAX, 0u8..=255),
            )
                .prop_map(|((sel, at), (worker, id), (reward, ans))| {
                    let at = Tick(at);
                    match sel {
                        0 => MarketEvent::HitAccepted {
                            at,
                            worker,
                            hit: HitId(id),
                        },
                        1 => MarketEvent::TaskAssigned {
                            at,
                            worker,
                            task: TaskId(id),
                        },
                        2 => MarketEvent::RequestDeclined { at, worker },
                        3 => MarketEvent::AnswerSubmitted {
                            at,
                            worker,
                            task: TaskId(id),
                            answer: Answer(ans),
                        },
                        4 => MarketEvent::HitSubmitted {
                            at,
                            worker,
                            hit: HitId(id),
                            reward_cents: reward,
                        },
                        5 => MarketEvent::HitAbandoned {
                            at,
                            worker,
                            hit: HitId(id),
                            answered: reward as usize % 11,
                        },
                        6 => MarketEvent::AnswerRejected {
                            at,
                            worker,
                            task: TaskId(id),
                            reason: match ans % 4 {
                                0 => RejectReason::NotAssigned,
                                1 => RejectReason::Duplicate,
                                2 => RejectReason::LeaseExpired,
                                _ => RejectReason::TaskCompleted,
                            },
                        },
                        7 => MarketEvent::AnswerDropped {
                            at,
                            worker,
                            task: TaskId(id),
                        },
                        8 => MarketEvent::WorkerStalled {
                            at,
                            worker,
                            task: TaskId(id),
                        },
                        _ => MarketEvent::WorkerChurned { at, worker },
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Every `MarketEvent` variant — with hostile worker ids and
            /// extreme numeric fields — survives the JSON-lines round
            /// trip bit-for-bit.
            #[test]
            fn json_lines_round_trip_all_variants(
                mut events in proptest::collection::vec(arb_event(), 0..24),
            ) {
                // `push` asserts tick monotonicity; order like a real run.
                events.sort_by_key(MarketEvent::at);
                let mut log = EventLog::new();
                for e in events {
                    log.push(e);
                }
                let text = log.to_json_lines();
                let parsed = EventLog::from_json_lines(&text).unwrap();
                prop_assert_eq!(parsed.events(), log.events());
            }
        }
    }
}
