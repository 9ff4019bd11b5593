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
//!
//! The server's side builds no JSON tree. [`Request::parse_with_trace`]
//! walks a line once with the vendored `serde_json` tokenizer, the one
//! its tree parser uses, and builds the [`Request`] from the members it
//! reads, as `Value::get` would read them (the first of duplicate keys
//! wins); [`Response::encode_line_flagged`] writes each reply straight
//! into the connection's buffer, escaping strings with the tree
//! printer's own escaper. The client side ([`Request::to_value`])
//! builds trees.
//!
//! A reply carries the driver's and obs's own types, not a copy of
//! them: a poll is answered with its [`PollOutcome`], a submit with its
//! [`SubmitReport`] (printed through [`SubmitReport::name`], the table
//! the journal records verdicts by), and `METRICS` with its
//! [`WindowReport`], which obs prints into the line.

use icrowd_core::answer::Answer;
use icrowd_core::task::TaskId;
use icrowd_obs::WindowReport;
use icrowd_platform::wire::{write_accounting, write_bool, write_string, write_u64};
use icrowd_platform::{MarketAccounting, PollOutcome, SubmitReport};
use serde_json::{json, Malformed, Scan, Str, Value};

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
    /// The `--metrics-every` stream shares the window sequence, so a
    /// scrape takes the window the stream would have emitted next and
    /// the stream's `seq` skips it.
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
    /// means the request is untraced). On a line whose keys and op
    /// carry no escapes, the only allocation is the worker id the
    /// request carries.
    ///
    /// # Errors
    /// Malformed JSON, unknown ops, or missing/mistyped fields.
    pub fn parse_with_trace(line: &str) -> Result<(Request, Option<u64>), String> {
        let fields = Fields::scan(line.trim()).map_err(|Malformed| "malformed JSON".to_owned())?;
        let op = match fields.op.flatten() {
            Some(op) => op.text(),
            None => return Err("missing \"op\"".to_owned()),
        };
        let worker = || -> Result<String, String> {
            match fields.worker.flatten() {
                Some(w) => Ok(w.text().into_owned()),
                None => Err("missing string field \"worker\"".to_owned()),
            }
        };
        let number = |field: Option<Option<u64>>, key: &str| {
            field
                .flatten()
                .ok_or_else(|| format!("missing numeric field \"{key}\""))
        };
        let req = match &*op {
            "HELLO" => Request::Hello,
            "REQUEST_TASK" => Request::RequestTask { worker: worker()? },
            "SUBMIT_ANSWER" => Request::SubmitAnswer {
                worker: worker()?,
                task: TaskId(
                    u32::try_from(number(fields.task, "task")?)
                        .map_err(|_| "\"task\" out of range".to_owned())?,
                ),
                answer: Answer(
                    u8::try_from(number(fields.answer, "answer")?)
                        .map_err(|_| "\"answer\" out of range".to_owned())?,
                ),
            },
            "STATUS" => Request::Status,
            "RESULTS" => Request::Results,
            "METRICS" => Request::Metrics,
            "SHUTDOWN" => Request::Shutdown,
            other => return Err(format!("unknown op `{other}`")),
        };
        Ok((req, fields.trace.flatten().filter(|&t| t != 0)))
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

/// The members of a request line the parser reads. Each holds the
/// first occurrence of its key, as `Value::get` finds it: `None` when
/// the key is absent, `Some(None)` when its value has another type.
#[derive(Default)]
struct Fields<'a> {
    op: Option<Option<Str<'a>>>,
    worker: Option<Option<Str<'a>>>,
    task: Option<Option<u64>>,
    answer: Option<Option<u64>>,
    trace: Option<Option<u64>>,
}

impl<'a> Fields<'a> {
    /// Scans a whole trimmed line. Valid JSON that is not an object
    /// yields no members.
    fn scan(line: &'a str) -> Result<Fields<'a>, Malformed> {
        let mut s = Scan::new(line);
        let mut fields = Fields::default();
        s.ws();
        if s.peek() == Some(b'{') {
            s.object(|key, s| fields.member(&key.text(), s))?;
        } else {
            s.skip_value()?;
        }
        s.end()?;
        Ok(fields)
    }

    /// Reads the value at the cursor into the member `key` names, if
    /// that member is not set yet; skips it otherwise.
    fn member(&mut self, key: &str, s: &mut Scan<'a>) -> Result<(), Malformed> {
        match key {
            "op" if self.op.is_none() => self.op = Some(s.string_value()?),
            "worker" if self.worker.is_none() => self.worker = Some(s.string_value()?),
            "task" if self.task.is_none() => self.task = Some(s.u64_value()?),
            "answer" if self.answer.is_none() => self.answer = Some(s.u64_value()?),
            "trace" if self.trace.is_none() => self.trace = Some(s.u64_value()?),
            _ => s.skip_value()?,
        }
        Ok(())
    }
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

    fn write(&self, buf: &mut String) {
        buf.push_str(r#"{"state":"#);
        write_string(buf, self.state);
        buf.push_str(r#","policy":"#);
        write_string(buf, self.policy);
        for (key, n) in [
            (r#","ops":"#, self.ops),
            (r#","snapshots":"#, self.snapshots),
            (r#","pending":"#, self.pending),
            (r#","unjournaled":"#, self.unjournaled),
        ] {
            buf.push_str(key);
            write_u64(buf, n);
        }
        if let Some(err) = &self.last_error {
            buf.push_str(r#","last_error":"#);
            write_string(buf, err);
        }
        buf.push('}');
    }
}

/// A server response, encoded to one wire line by
/// [`Response::encode_line`].
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
    /// What a worker's poll produced: `task`, `wait`, `declined`
    /// (with `retry`) or `left`.
    Poll(PollOutcome),
    /// How a submission settled: `result` is `accepted`, `rejected`
    /// (with its `reason`), `dropped`, `stalled` or `deferred`.
    Submit(SubmitReport),
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
        /// `accepted + rejected == submitted`, and once `finished` also
        /// the settlement law `paid + abandoned == accepted`.
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
    /// One closed telemetry window (`METRICS` verb).
    Metrics(WindowReport),
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
        buf.clear();
        // Each arm writes its object up to, not including, the closing
        // brace, so the stamp can go in before it.
        match self {
            Response::Hello {
                dataset,
                seed,
                workers,
                tasks,
                approach,
            } => {
                buf.push_str(r#"{"ok":true,"type":"hello","dataset":"#);
                write_string(buf, dataset);
                buf.push_str(r#","seed":"#);
                write_u64(buf, *seed);
                buf.push_str(r#","workers":"#);
                write_u64(buf, *workers as u64);
                buf.push_str(r#","tasks":"#);
                write_u64(buf, *tasks as u64);
                buf.push_str(r#","approach":"#);
                write_string(buf, approach);
            }
            Response::Poll(PollOutcome::Assigned(task)) => {
                buf.push_str(r#"{"ok":true,"type":"task","task":"#);
                write_u64(buf, task.0.into());
            }
            Response::Poll(PollOutcome::Wait) => buf.push_str(r#"{"ok":true,"type":"wait""#),
            Response::Poll(PollOutcome::Declined { retry }) => {
                buf.push_str(r#"{"ok":true,"type":"declined","retry":"#);
                write_bool(buf, *retry);
            }
            Response::Poll(PollOutcome::Left) => buf.push_str(r#"{"ok":true,"type":"left""#),
            Response::Submit(report) => {
                // The name is the result, then `:` and the reason for
                // a rejection.
                let name = report.name();
                let (result, reason) = match name.split_once(':') {
                    Some((result, reason)) => (result, Some(reason)),
                    None => (name, None),
                };
                buf.push_str(r#"{"ok":true,"type":"submit","result":"#);
                write_string(buf, result);
                if let Some(reason) = reason {
                    buf.push_str(r#","reason":"#);
                    write_string(buf, reason);
                }
            }
            Response::Status {
                complete,
                finished,
                answers,
                accounting,
                balanced,
                conns,
                workers_seen,
                journal,
            } => {
                buf.push_str(r#"{"ok":true,"type":"status","complete":"#);
                write_bool(buf, *complete);
                buf.push_str(r#","finished":"#);
                write_bool(buf, *finished);
                buf.push_str(r#","answers":"#);
                write_u64(buf, *answers as u64);
                buf.push_str(r#","accounting":"#);
                write_accounting(buf, accounting);
                buf.push_str(r#","balanced":"#);
                write_bool(buf, *balanced);
                buf.push_str(r#","conns":"#);
                write_u64(buf, *conns as u64);
                buf.push_str(r#","workers_seen":"#);
                write_u64(buf, *workers_seen as u64);
                if let Some(journal) = journal {
                    buf.push_str(r#","journal":"#);
                    journal.write(buf);
                }
            }
            Response::Results { labels } => {
                buf.push_str(r#"{"ok":true,"type":"results","labels":"#);
                write_string(buf, labels);
            }
            Response::Metrics(window) => {
                buf.push_str(r#"{"ok":true,"type":"metrics","window":"#);
                window.write_json(buf);
            }
            Response::Bye => buf.push_str(r#"{"ok":true,"type":"bye""#),
            Response::Busy => {
                buf.push_str(r#"{"ok":false,"type":"busy","error":"server at capacity; retry""#);
            }
            Response::Error { message } => {
                buf.push_str(r#"{"ok":false,"type":"error","error":"#);
                write_string(buf, message);
            }
        }
        if degraded {
            buf.push_str(r#","degraded":true"#);
        }
        buf.push_str("}\n");
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
    use icrowd_obs::{GaugeSummary, SpanSummary};
    use icrowd_platform::{RejectReason, SubmitOutcome};

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
        let line = response_line(&Response::Metrics(WindowReport {
            seq: 3,
            dur_ns: 10,
            ..Default::default()
        }));
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["type"].as_str(), Some("metrics"));
        assert_eq!(v["window"]["seq"].as_u64(), Some(3));
        assert_eq!(v["window"]["type"].as_str(), Some("window"));
    }

    /// `METRICS` writes its window as obs prints it: for a window with
    /// escaped names and negative, fractional and non-finite gauges,
    /// the line is what parsing the window and printing it again would
    /// give.
    #[test]
    fn metrics_window_splices_as_the_tree_would_reprint_it() {
        let gauge = |name: &str, last, min, max| GaugeSummary {
            name: name.into(),
            last,
            min,
            max,
        };
        let window = WindowReport {
            seq: 7,
            dur_ns: u64::MAX,
            spans: vec![SpanSummary {
                name: "serve.\"parse\"\n".into(),
                count: 3,
                total_ns: 30,
                min_ns: 1,
                max_ns: 20,
                p50_ns: 9,
                p99_ns: 20,
            }],
            counters: vec![("c\\\u{1}\té😀/".into(), 2)],
            gauges: vec![
                gauge("queue", -3.0, -0.5, 0.1),
                gauge("\r", f64::NAN, f64::NEG_INFINITY, f64::INFINITY),
                gauge("tiny", 1e-7, -1e300, 1e21),
            ],
        };
        let reprinted = serde_json::from_str::<Value>(&window.to_json())
            .unwrap()
            .to_string();
        assert_eq!(
            response_line(&Response::Metrics(window)),
            format!("{{\"ok\":true,\"type\":\"metrics\",\"window\":{reprinted}}}\n")
        );
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
        let line = response_line(&Response::Poll(PollOutcome::Assigned(TaskId(5))));
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["type"].as_str(), Some("task"));
        assert_eq!(v["task"].as_u64(), Some(5));

        let line = response_line(&Response::Submit(SubmitReport::Delivered(
            SubmitOutcome::Rejected(RejectReason::Duplicate),
        )));
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["result"].as_str(), Some("rejected"));
        assert_eq!(v["reason"].as_str(), Some("duplicate"));

        let v: Value = serde_json::from_str(&response_line(&Response::Busy)).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(false));
        assert_eq!(v["type"].as_str(), Some("busy"));
    }

    /// Every submit verdict goes on the wire as the journal names it:
    /// the name's `result`, and for a rejection its reason, which is
    /// the reason's telemetry name.
    #[test]
    fn submit_replies_print_the_journal_names() {
        let cases = [
            ("accepted", r#""result":"accepted""#),
            ("dropped", r#""result":"dropped""#),
            ("stalled", r#""result":"stalled""#),
            ("deferred", r#""result":"deferred""#),
            (
                "rejected:not_assigned",
                r#""result":"rejected","reason":"not_assigned""#,
            ),
            (
                "rejected:duplicate",
                r#""result":"rejected","reason":"duplicate""#,
            ),
            (
                "rejected:lease_expired",
                r#""result":"rejected","reason":"lease_expired""#,
            ),
            (
                "rejected:task_completed",
                r#""result":"rejected","reason":"task_completed""#,
            ),
        ];
        for (name, members) in cases {
            let report = SubmitReport::from_name(name).expect(name);
            assert_eq!(
                response_line(&Response::Submit(report)),
                format!("{{\"ok\":true,\"type\":\"submit\",{members}}}\n")
            );
            if let SubmitReport::Delivered(SubmitOutcome::Rejected(reason)) = report {
                assert_eq!(name, format!("rejected:{}", reason.name()));
            }
        }
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
            Response::Poll(PollOutcome::Wait),
            Response::Poll(PollOutcome::Assigned(TaskId(3))),
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

    /// The exact wire bytes of every request, with and without a trace
    /// stamp.
    #[test]
    fn request_lines_are_byte_stable() {
        let cases = [
            (Request::Hello, r#"{"op":"HELLO"}"#),
            (
                Request::RequestTask {
                    worker: "W\"3\\\n".into(),
                },
                r#"{"op":"REQUEST_TASK","worker":"W\"3\\\n"}"#,
            ),
            (
                Request::SubmitAnswer {
                    worker: "W1".into(),
                    task: TaskId(u32::MAX),
                    answer: Answer(255),
                },
                r#"{"op":"SUBMIT_ANSWER","worker":"W1","task":4294967295,"answer":255}"#,
            ),
            (Request::Status, r#"{"op":"STATUS"}"#),
            (Request::Results, r#"{"op":"RESULTS"}"#),
            (Request::Metrics, r#"{"op":"METRICS"}"#),
            (Request::Shutdown, r#"{"op":"SHUTDOWN"}"#),
        ];
        for (req, plain) in cases {
            assert_eq!(serde_json::to_string(&req.to_value()).unwrap(), plain);
            let traced = serde_json::to_string(&req.to_value_traced(Some(u64::MAX))).unwrap();
            let stamped = format!(
                "{},\"trace\":18446744073709551615}}",
                &plain[..plain.len() - 1]
            );
            assert_eq!(traced, stamped);
        }
    }

    /// The exact wire bytes of every response, with and without the
    /// `degraded` stamp.
    #[test]
    fn response_lines_are_byte_stable() {
        let status = |journal| Response::Status {
            complete: true,
            finished: false,
            answers: 12,
            accounting: MarketAccounting {
                answers_submitted: 9,
                answers_accepted: 8,
                answers_rejected: 1,
                answers_dropped: 2,
                answers_paid: 6,
                answers_abandoned: 2,
                stalled: 3,
                churned: 4,
            },
            balanced: true,
            conns: 5,
            workers_seen: 7,
            journal,
        };
        let health = |last_error| JournalHealth {
            state: "degraded",
            policy: "degrade",
            ops: 41,
            snapshots: 3,
            pending: 0,
            unjournaled: 7,
            last_error,
        };
        let acct = r#""accounting":{"submitted":9,"accepted":8,"rejected":1,"dropped":2,"paid":6,"abandoned":2,"stalled":3,"churned":4}"#;
        let status_head = format!(
            r#"{{"ok":true,"type":"status","complete":true,"finished":false,"answers":12,{acct},"balanced":true,"conns":5,"workers_seen":7"#
        );
        let journal_head = r#""journal":{"state":"degraded","policy":"degrade","ops":41,"snapshots":3,"pending":0,"unjournaled":7"#;
        let cases = [
            (
                Response::Hello {
                    dataset: "table1".into(),
                    seed: u64::MAX,
                    workers: 5,
                    tasks: 12,
                    approach: "iCrowd".into(),
                },
                r#"{"ok":true,"type":"hello","dataset":"table1","seed":18446744073709551615,"workers":5,"tasks":12,"approach":"iCrowd"}"#.to_owned(),
            ),
            (
                Response::Poll(PollOutcome::Assigned(TaskId(7))),
                r#"{"ok":true,"type":"task","task":7}"#.to_owned(),
            ),
            (
                Response::Poll(PollOutcome::Wait),
                r#"{"ok":true,"type":"wait"}"#.to_owned(),
            ),
            (
                Response::Poll(PollOutcome::Declined { retry: true }),
                r#"{"ok":true,"type":"declined","retry":true}"#.to_owned(),
            ),
            (
                Response::Poll(PollOutcome::Declined { retry: false }),
                r#"{"ok":true,"type":"declined","retry":false}"#.to_owned(),
            ),
            (
                Response::Poll(PollOutcome::Left),
                r#"{"ok":true,"type":"left"}"#.to_owned(),
            ),
            (
                Response::Submit(SubmitReport::Delivered(SubmitOutcome::Accepted)),
                r#"{"ok":true,"type":"submit","result":"accepted"}"#.to_owned(),
            ),
            (
                Response::Submit(SubmitReport::Delivered(SubmitOutcome::Rejected(
                    RejectReason::LeaseExpired,
                ))),
                r#"{"ok":true,"type":"submit","result":"rejected","reason":"lease_expired"}"#
                    .to_owned(),
            ),
            (status(None), format!("{status_head}}}")),
            (
                status(Some(health(None))),
                format!("{status_head},{journal_head}}}}}"),
            ),
            (
                status(Some(health(Some("disk \"full\"\n".into())))),
                format!(
                    r#"{status_head},{journal_head},"last_error":"disk \"full\"\n"}}}}"#
                ),
            ),
            (
                Response::Results {
                    labels: "0 1\n1 0\n".into(),
                },
                r#"{"ok":true,"type":"results","labels":"0 1\n1 0\n"}"#.to_owned(),
            ),
            (
                Response::Metrics(WindowReport {
                    seq: 3,
                    dur_ns: u64::MAX,
                    spans: vec![SpanSummary {
                        name: "a".into(),
                        count: 2,
                        total_ns: 30,
                        min_ns: 10,
                        max_ns: 20,
                        p50_ns: 10,
                        p99_ns: 20,
                    }],
                    counters: vec![("c\"".into(), 4)],
                    gauges: vec![GaugeSummary {
                        name: "g".into(),
                        last: 0.25,
                        min: -4.0,
                        max: 1e300,
                    }],
                }),
                r#"{"ok":true,"type":"metrics","window":{"type":"window","seq":3,"dur_ns":18446744073709551615,"spans":[{"name":"a","count":2,"total_ns":30,"min_ns":10,"max_ns":20,"p50_ns":10,"p99_ns":20}],"counters":[{"name":"c\"","delta":4}],"gauges":[{"name":"g","last":0.25,"min":-4.0,"max":1e300}]}}"#.to_owned(),
            ),
            (Response::Bye, r#"{"ok":true,"type":"bye"}"#.to_owned()),
            (
                Response::Busy,
                r#"{"ok":false,"type":"busy","error":"server at capacity; retry"}"#.to_owned(),
            ),
            (
                Response::Error {
                    message: "unknown op `X\"`".into(),
                },
                r#"{"ok":false,"type":"error","error":"unknown op `X\"`"}"#.to_owned(),
            ),
        ];
        for (resp, plain) in cases {
            let mut line = String::new();
            resp.encode_line_flagged(false, &mut line);
            assert_eq!(line, format!("{plain}\n"));
            resp.encode_line_flagged(true, &mut line);
            let flagged = format!("{},\"degraded\":true}}\n", &plain[..plain.len() - 1]);
            assert_eq!(line, flagged);
        }
    }

    #[test]
    fn encode_line_reuses_the_buffer() {
        let mut buf = String::new();
        let wait = Response::Poll(PollOutcome::Wait);
        wait.encode_line(&mut buf);
        let first = buf.clone();
        wait.encode_line(&mut buf);
        assert_eq!(buf, first, "encode clears before writing");
        assert!(buf.ends_with('\n'));
    }
}
