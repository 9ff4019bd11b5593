//! The line-delimited JSON wire protocol.
//!
//! Every message is one JSON object on one line. Requests carry an
//! `"op"` field; responses carry `"ok"` plus a `"type"` discriminator:
//!
//! ```text
//! -> {"op":"HELLO"}
//! <- {"ok":true,"type":"hello","dataset":"table1","seed":42,
//!     "workers":5,"tasks":12,"approach":"iCrowd"}
//! -> {"op":"REQUEST_TASK","worker":"W1"}
//! <- {"ok":true,"type":"task","task":7}          (or "wait" /
//!     "declined" {"retry":bool} / "left")
//! -> {"op":"SUBMIT_ANSWER","worker":"W1","task":7,"answer":1}
//! <- {"ok":true,"type":"submit","result":"accepted"}
//!     (result: accepted | rejected (+"reason") | dropped | stalled |
//!      deferred)
//! -> {"op":"STATUS"}
//! <- {"ok":true,"type":"status","complete":false,...}
//! -> {"op":"RESULTS"}
//! <- {"ok":true,"type":"results","labels":"0 1\n1 0\n..."}
//! -> {"op":"SHUTDOWN"}
//! <- {"ok":true,"type":"bye"}
//! ```
//!
//! Failures are `{"ok":false,"error":...}`; an overloaded server
//! answers `{"ok":false,"type":"busy",...}` at accept time and closes.

use icrowd_core::answer::Answer;
use icrowd_core::task::TaskId;
use icrowd_platform::{MarketAccounting, SubmitOutcome};
use serde_json::{json, Value};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Campaign announcement: dataset, seed, roster size.
    Hello,
    /// One worker's poll of the schedule.
    RequestTask {
        /// External worker id (`"W3"`).
        worker: String,
    },
    /// An answer for an assigned task.
    SubmitAnswer {
        /// External worker id.
        worker: String,
        /// The task being answered.
        task: TaskId,
        /// The answer choice.
        answer: Answer,
    },
    /// Campaign progress + accounting probe.
    Status,
    /// Current consensus labels in canonical line format.
    Results,
    /// Live metrics scrape: close the current telemetry window and
    /// return it (counter deltas, windowed histograms, gauge extremes).
    Metrics,
    /// Graceful drain: stop accepting, flush in-flight, finalize.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    /// Malformed JSON, unknown ops, or missing/mistyped fields.
    pub fn parse(line: &str) -> Result<Request, String> {
        Self::parse_with_trace(line).map(|(req, _)| req)
    }

    /// Parses one request line together with its optional `"trace"` id
    /// (a nonzero `u64` stamped by tracing clients; absent or zero
    /// means the request is untraced).
    ///
    /// # Errors
    /// Malformed JSON, unknown ops, or missing/mistyped fields.
    pub fn parse_with_trace(line: &str) -> Result<(Request, Option<u64>), String> {
        let v: Value =
            serde_json::from_str(line.trim()).map_err(|_| "malformed JSON".to_owned())?;
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing \"op\"".to_owned())?;
        let trace = v.get("trace").and_then(Value::as_u64).filter(|&t| t != 0);
        let req = match op {
            "HELLO" => Request::Hello,
            "REQUEST_TASK" => Request::RequestTask {
                worker: str_field(&v, "worker")?,
            },
            "SUBMIT_ANSWER" => Request::SubmitAnswer {
                worker: str_field(&v, "worker")?,
                task: TaskId(
                    u32::try_from(u64_field(&v, "task")?)
                        .map_err(|_| "\"task\" out of range".to_owned())?,
                ),
                answer: Answer(
                    u8::try_from(u64_field(&v, "answer")?)
                        .map_err(|_| "\"answer\" out of range".to_owned())?,
                ),
            },
            "STATUS" => Request::Status,
            "RESULTS" => Request::Results,
            "METRICS" => Request::Metrics,
            "SHUTDOWN" => Request::Shutdown,
            other => return Err(format!("unknown op `{other}`")),
        };
        Ok((req, trace))
    }

    /// Encodes the request as its wire JSON value.
    pub fn to_value(&self) -> Value {
        match self {
            Request::Hello => json!({"op": "HELLO"}),
            Request::RequestTask { worker } => {
                json!({"op": "REQUEST_TASK", "worker": worker})
            }
            Request::SubmitAnswer {
                worker,
                task,
                answer,
            } => json!({
                "op": "SUBMIT_ANSWER",
                "worker": worker,
                "task": task.0,
                "answer": answer.0,
            }),
            Request::Status => json!({"op": "STATUS"}),
            Request::Results => json!({"op": "RESULTS"}),
            Request::Metrics => json!({"op": "METRICS"}),
            Request::Shutdown => json!({"op": "SHUTDOWN"}),
        }
    }

    /// Encodes the request with a `"trace"` id stamped on the line
    /// (omitted when `trace` is `None` or zero, keeping untraced lines
    /// byte-identical to [`Request::to_value`]).
    pub fn to_value_traced(&self, trace: Option<u64>) -> Value {
        let mut v = self.to_value();
        if let (Some(t), Value::Object(o)) = (trace.filter(|&t| t != 0), &mut v) {
            o.push(("trace".into(), json!(t)));
        }
        v
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field \"{key}\""))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing numeric field \"{key}\""))
}

/// Journal health as reported in `STATUS` replies: whether durability
/// is currently being provided, and how far along the journal is. When
/// no journal is configured, the field is omitted from the wire
/// entirely — keeping journal-free serving byte-identical to the
/// pre-journal protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHealth {
    /// `attached`, `retrying`, `degraded` or `fail-stop`.
    pub state: &'static str,
    /// The configured durability policy (`fail-stop`, `degrade`,
    /// `retry`).
    pub policy: &'static str,
    /// Ops journaled so far (including replayed ones after recovery).
    pub ops: u64,
    /// Snapshot checkpoints written.
    pub snapshots: u64,
    /// Ops buffered for re-append (retry policy only).
    pub pending: u64,
    /// Accepted mutations that were never journaled (degraded mode, or
    /// the op whose append tripped fail-stop).
    pub unjournaled: u64,
    /// The most recent journal I/O error, if any.
    pub last_error: Option<String>,
}

impl JournalHealth {
    /// Whether the journal is currently providing durability.
    pub fn attached(&self) -> bool {
        self.state == "attached"
    }

    fn to_value(&self) -> Value {
        let mut v = json!({
            "state": self.state,
            "policy": self.policy,
            "ops": self.ops,
            "snapshots": self.snapshots,
            "pending": self.pending,
            "unjournaled": self.unjournaled,
        });
        if let (Some(err), Value::Object(o)) = (&self.last_error, &mut v) {
            o.push(("last_error".into(), json!(err.as_str())));
        }
        v
    }
}

/// A server response, encoded to one wire line via [`Response::to_value`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Campaign announcement.
    Hello {
        /// Dataset key as accepted by `icrowd_sim::datasets::by_name`.
        dataset: String,
        /// Campaign seed (clients regenerate the dataset + workers).
        seed: u64,
        /// Roster size; external ids are `"W1"..="W{workers}"`.
        workers: usize,
        /// Number of published microtasks.
        tasks: usize,
        /// Approach display name.
        approach: String,
    },
    /// The worker was assigned (or re-issued) this task.
    Task(TaskId),
    /// Another worker's turn is ahead; poll again.
    Wait,
    /// The server had no task for the worker.
    Declined {
        /// Whether a retry turn is queued.
        retry: bool,
    },
    /// The worker left the marketplace; stop polling.
    Left,
    /// How a submission settled.
    Submit {
        /// `accepted`, `rejected`, `dropped`, `stalled` or `deferred`.
        result: &'static str,
        /// Rejection reason (`rejected` only).
        reason: Option<&'static str>,
    },
    /// Campaign progress + accounting.
    Status {
        /// Every task reached consensus.
        complete: bool,
        /// The driver ran its final sweep.
        finished: bool,
        /// Answers accepted so far.
        answers: usize,
        /// Marketplace accounting so far.
        accounting: MarketAccounting,
        /// The continuous conservation law
        /// `accepted + rejected == submitted`.
        balanced: bool,
        /// Open connections, the asking one included.
        conns: usize,
        /// Distinct workers the serving layer has seen.
        workers_seen: usize,
        /// Journal health; `None` when no journal is configured (and
        /// the key is then absent from the wire).
        journal: Option<JournalHealth>,
    },
    /// Consensus labels in canonical `<task> <answer>` line format.
    Results {
        /// The label lines.
        labels: String,
    },
    /// One closed telemetry window (`METRICS` verb), carried as the
    /// pre-serialized JSON object `icrowd-obs` emitted for it.
    Metrics {
        /// `WindowReport::to_json()` output.
        window: String,
    },
    /// Shutdown acknowledged.
    Bye,
    /// Connection cap reached; retry later.
    Busy,
    /// Request-level failure.
    Error {
        /// User-facing message.
        message: String,
    },
}

impl Response {
    /// Maps a submission verdict to the wire encoding.
    pub fn from_outcome(outcome: SubmitOutcome) -> Response {
        match outcome {
            SubmitOutcome::Accepted => Response::Submit {
                result: "accepted",
                reason: None,
            },
            SubmitOutcome::Rejected(reason) => Response::Submit {
                result: "rejected",
                reason: Some(reason.name()),
            },
        }
    }

    /// Encodes the response as its wire JSON value.
    pub fn to_value(&self) -> Value {
        match self {
            Response::Hello {
                dataset,
                seed,
                workers,
                tasks,
                approach,
            } => json!({
                "ok": true, "type": "hello",
                "dataset": dataset, "seed": seed,
                "workers": workers, "tasks": tasks,
                "approach": approach,
            }),
            Response::Task(task) => json!({"ok": true, "type": "task", "task": task.0}),
            Response::Wait => json!({"ok": true, "type": "wait"}),
            Response::Declined { retry } => {
                json!({"ok": true, "type": "declined", "retry": retry})
            }
            Response::Left => json!({"ok": true, "type": "left"}),
            Response::Submit { result, reason } => {
                let mut v = json!({"ok": true, "type": "submit", "result": *result});
                if let (Some(reason), Value::Object(o)) = (reason, &mut v) {
                    o.push(("reason".into(), json!(*reason)));
                }
                v
            }
            Response::Status {
                complete,
                finished,
                answers,
                accounting: a,
                balanced,
                conns,
                workers_seen,
                journal,
            } => {
                let accounting = json!({
                    "submitted": a.answers_submitted,
                    "accepted": a.answers_accepted,
                    "rejected": a.answers_rejected,
                    "dropped": a.answers_dropped,
                    "paid": a.answers_paid,
                    "abandoned": a.answers_abandoned,
                    "stalled": a.stalled,
                    "churned": a.churned,
                });
                let mut v = json!({
                    "ok": true, "type": "status",
                    "complete": complete, "finished": finished,
                    "answers": answers,
                    "accounting": accounting,
                    "balanced": balanced,
                    "conns": conns,
                    "workers_seen": workers_seen,
                });
                if let (Some(j), Value::Object(o)) = (journal, &mut v) {
                    o.push(("journal".into(), j.to_value()));
                }
                v
            }
            Response::Results { labels } => {
                json!({"ok": true, "type": "results", "labels": labels})
            }
            Response::Metrics { window } => {
                // The window payload is already JSON (hand-written by
                // icrowd-obs); embed it structurally so the line stays
                // one object. A parse failure would be an obs encoder
                // bug — degrade to a string rather than panic.
                let payload = serde_json::from_str::<Value>(window)
                    .unwrap_or_else(|_| json!(window.as_str()));
                json!({"ok": true, "type": "metrics", "window": payload})
            }
            Response::Bye => json!({"ok": true, "type": "bye"}),
            Response::Busy => {
                json!({"ok": false, "type": "busy", "error": "server at capacity; retry"})
            }
            Response::Error { message } => {
                json!({"ok": false, "type": "error", "error": message})
            }
        }
    }

    /// Serializes into `buf` (reused across requests) with the trailing
    /// newline the framing requires.
    pub fn encode_line(&self, buf: &mut String) {
        self.encode_line_flagged(false, buf);
    }

    /// Serializes like [`Response::encode_line`], stamping a
    /// `"degraded":true` flag on the line when the server is serving
    /// without durability (the advertised-degradation contract: a
    /// client can always tell). When `degraded` is `false` the line is
    /// byte-identical to the unflagged encoding.
    pub fn encode_line_flagged(&self, degraded: bool, buf: &mut String) {
        let mut v = self.to_value();
        if let (true, Value::Object(o)) = (degraded, &mut v) {
            o.push(("degraded".into(), json!(true)));
        }
        serde_json::write_to_string(&v, buf);
        buf.push('\n');
    }
}

/// Shorthand used by tests and the rejection path: encode straight to a
/// fresh line.
pub fn response_line(resp: &Response) -> String {
    let mut buf = String::new();
    resp.encode_line(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use icrowd_platform::RejectReason;

    #[test]
    fn requests_round_trip_through_the_wire_encoding() {
        let reqs = [
            Request::Hello,
            Request::RequestTask {
                worker: "W3".into(),
            },
            Request::SubmitAnswer {
                worker: "W1".into(),
                task: TaskId(17),
                answer: Answer(1),
            },
            Request::Status,
            Request::Results,
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = serde_json::to_string(&req.to_value()).unwrap();
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn trace_ids_ride_the_line_without_changing_the_request() {
        let req = Request::RequestTask {
            worker: "W7".into(),
        };
        // Stamped: the id round-trips (u64-exact, beyond 2^53).
        let id = u64::MAX - 3;
        let line = serde_json::to_string(&req.to_value_traced(Some(id))).unwrap();
        assert!(line.contains("\"trace\""), "{line}");
        let (parsed, trace) = Request::parse_with_trace(&line).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(trace, Some(id));
        // Unstamped (None or zero): byte-identical to the plain encoding.
        let plain = serde_json::to_string(&req.to_value()).unwrap();
        assert_eq!(
            serde_json::to_string(&req.to_value_traced(None)).unwrap(),
            plain
        );
        assert_eq!(
            serde_json::to_string(&req.to_value_traced(Some(0))).unwrap(),
            plain
        );
        let (_, trace) = Request::parse_with_trace(&plain).unwrap();
        assert_eq!(trace, None);
        // A zero id on the wire is treated as untraced.
        let (_, trace) = Request::parse_with_trace("{\"op\":\"STATUS\",\"trace\":0}").unwrap();
        assert_eq!(trace, None);
    }

    #[test]
    fn metrics_response_embeds_the_window_structurally() {
        let line = response_line(&Response::Metrics {
            window: "{\"type\":\"window\",\"seq\":3,\"dur_ns\":10,\"spans\":[],\"counters\":[],\"gauges\":[]}".into(),
        });
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["type"].as_str(), Some("metrics"));
        assert_eq!(v["window"]["seq"].as_u64(), Some(3));
        assert_eq!(v["window"]["type"].as_str(), Some("window"));
    }

    #[test]
    fn malformed_requests_are_rejected_not_panicked() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{}").unwrap_err().contains("op"));
        assert!(Request::parse("{\"op\":\"EXPLODE\"}")
            .unwrap_err()
            .contains("unknown op"));
        assert!(Request::parse("{\"op\":\"REQUEST_TASK\"}")
            .unwrap_err()
            .contains("worker"));
        assert!(
            Request::parse("{\"op\":\"SUBMIT_ANSWER\",\"worker\":\"W1\",\"task\":\"x\"}").is_err()
        );
    }

    #[test]
    fn responses_carry_their_discriminators() {
        let line = response_line(&Response::Task(TaskId(5)));
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["type"].as_str(), Some("task"));
        assert_eq!(v["task"].as_u64(), Some(5));

        let line = response_line(&Response::Submit {
            result: "rejected",
            reason: Some(RejectReason::Duplicate.name()),
        });
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["result"].as_str(), Some("rejected"));
        assert_eq!(v["reason"].as_str(), Some("duplicate"));

        let v: Value = serde_json::from_str(&response_line(&Response::Busy)).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(false));
        assert_eq!(v["type"].as_str(), Some("busy"));
    }

    #[test]
    fn status_omits_journal_health_when_unconfigured() {
        let status = Response::Status {
            complete: false,
            finished: false,
            answers: 0,
            accounting: MarketAccounting::default(),
            balanced: true,
            conns: 0,
            workers_seen: 0,
            journal: None,
        };
        let line = response_line(&status);
        assert!(
            !line.contains("journal"),
            "journal-free status must stay byte-compatible: {line}"
        );

        let with = Response::Status {
            complete: false,
            finished: false,
            answers: 0,
            accounting: MarketAccounting::default(),
            balanced: true,
            conns: 0,
            workers_seen: 0,
            journal: Some(JournalHealth {
                state: "degraded",
                policy: "degrade",
                ops: 41,
                snapshots: 3,
                pending: 0,
                unjournaled: 7,
                last_error: Some("No space left on device (os error 28)".into()),
            }),
        };
        let v: Value = serde_json::from_str(&response_line(&with)).unwrap();
        assert_eq!(v["journal"]["state"].as_str(), Some("degraded"));
        assert_eq!(v["journal"]["policy"].as_str(), Some("degrade"));
        assert_eq!(v["journal"]["ops"].as_u64(), Some(41));
        assert_eq!(v["journal"]["unjournaled"].as_u64(), Some(7));
        assert!(v["journal"]["last_error"]
            .as_str()
            .unwrap()
            .contains("No space left"));
    }

    #[test]
    fn degraded_flag_stamps_every_response_type() {
        for resp in [
            Response::Wait,
            Response::Task(TaskId(3)),
            Response::Bye,
            Response::Error {
                message: "x".into(),
            },
        ] {
            let mut flagged = String::new();
            resp.encode_line_flagged(true, &mut flagged);
            let v: Value = serde_json::from_str(&flagged).unwrap();
            assert_eq!(v["degraded"].as_bool(), Some(true), "{flagged}");
            // Unflagged stays byte-identical to the legacy encoding.
            let mut plain = String::new();
            resp.encode_line_flagged(false, &mut plain);
            assert_eq!(plain, response_line(&resp));
            assert!(!plain.contains("degraded"));
        }
    }

    #[test]
    fn encode_line_reuses_the_buffer() {
        let mut buf = String::new();
        Response::Wait.encode_line(&mut buf);
        let first = buf.clone();
        Response::Wait.encode_line(&mut buf);
        assert_eq!(buf, first, "encode clears before writing");
        assert!(buf.ends_with('\n'));
    }
}
