//! The benchmark's own fixed protocol client: one thread, one persistent
//! connection, zero think time, a closed loop over the campaign's
//! simulated worker roster.
//!
//! It is deliberately independent of `icrowd loadgen` and of the
//! server crate's `Conn`, so that a change to either cannot move the
//! load. Request lines are written here byte for byte. Every op counts
//! against `attempted`; a transport error, a `busy` or `error` reply, a
//! malformed response or a submit not answered `accepted` counts as
//! `failed`. The client never retries silently: a failed op is counted
//! and the worker goes back into the rotation.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use icrowd_core::answer::Answer;
use icrowd_core::task::TaskId;
use icrowd_platform::market::WorkerBehavior;
use icrowd_sim::datasets::Dataset;
use icrowd_sim::worker_model::SimWorker;
use serde_json::Value;

use crate::calib::{self, Reference};
use crate::stats::Samples;

/// Which protocol op a record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Request,
    Submit,
    Status,
    Results,
    Shutdown,
}

/// One op as the client saw it (kept only in traced runs): the exact
/// request line, the response line, and when it ran (see
/// [`crate::trace::now_ns`]).
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub kind: OpKind,
    pub line: String,
    pub response: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one campaign drive measured.
#[derive(Debug, Default)]
pub struct Drive {
    /// REQUEST_TASK round trips, microseconds.
    pub request_us: Samples,
    /// SUBMIT_ANSWER round trips, microseconds.
    pub submit_us: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub requests_sent: u64,
    /// TCP connects: one, and one more after each transport error.
    pub connects: u64,
    pub accepted: u64,
    /// Wall time from the first op to the last worker retiring, less
    /// the machine-speed reference's bursts in between.
    pub drive_s: f64,
    /// Every op in order, in traced runs.
    pub ops: Option<Vec<OpRecord>>,
    /// The final STATUS and RESULTS labels.
    pub status: Value,
    pub labels: String,
}

/// A campaign drive gives up after this long without finishing.
const DRIVE_DEADLINE: Duration = Duration::from_secs(120);
/// ... or after this many failed ops in a row.
const MAX_FAILURE_STREAK: u32 = 200;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

struct LineConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineConn {
    fn open(addr: SocketAddr) -> io::Result<LineConn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(LineConn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one line (with its `\n`) and reads one response line into
    /// `out`.
    fn call(&mut self, line: &str, out: &mut String) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        out.clear();
        self.reader.read_line(out)?;
        if out.is_empty() {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }
}

struct Logical {
    request_line: String,
    external: String,
    sim: SimWorker,
    /// Answers already drawn, by task: a re-issued assignment replays
    /// the same draw, as `loadgen` does.
    answered: HashMap<u32, Answer>,
}

enum Cycle {
    Continue,
    Retired,
    Failed(String),
}

/// Drives one served campaign to completion.
pub struct Client<'a> {
    addr: SocketAddr,
    dataset: &'a Dataset,
    conn: Option<LineConn>,
    epoch: Instant,
    resp: String,
    drive: Drive,
}

impl<'a> Client<'a> {
    pub fn new(addr: SocketAddr, dataset: &'a Dataset, traced: bool) -> Self {
        Client {
            addr,
            dataset,
            conn: None,
            epoch: Instant::now(),
            resp: String::new(),
            drive: Drive {
                ops: traced.then(Vec::new),
                ..Drive::default()
            },
        }
    }

    /// Runs every worker of the roster (regenerated from the dataset
    /// and `seed`, as the server's own workers are) until each retires,
    /// then fetches the final STATUS and labels and shuts the server
    /// down. Every [`calib::DRIVE_EVERY`] poll cycles it times a short
    /// burst of `reference` round trips; the drive time leaves them out.
    pub fn run(mut self, seed: u64, reference: &mut Reference) -> Result<Drive, String> {
        let mut queue: VecDeque<Logical> = self
            .dataset
            .spawn_workers(seed)
            .into_iter()
            .enumerate()
            .map(|(i, sim)| {
                let external = format!("W{}", i + 1);
                Logical {
                    request_line: format!(
                        "{{\"op\":\"REQUEST_TASK\",\"worker\":\"{external}\"}}\n"
                    ),
                    external,
                    sim,
                    answered: HashMap::new(),
                }
            })
            .collect();
        self.epoch = Instant::now();
        let spent_before = reference.spent();
        let mut streak = 0u32;
        let mut cycles = 0u64;
        while let Some(mut worker) = queue.pop_front() {
            if self.epoch.elapsed() > DRIVE_DEADLINE {
                return Err(format!("campaign not finished after {DRIVE_DEADLINE:?}"));
            }
            cycles += 1;
            if cycles.is_multiple_of(calib::DRIVE_EVERY) {
                reference.burst(calib::DRIVE_TRIPS)?;
            }
            match self.cycle(&mut worker) {
                Cycle::Continue => {
                    streak = 0;
                    queue.push_back(worker);
                }
                Cycle::Retired => streak = 0,
                Cycle::Failed(e) => {
                    streak += 1;
                    if streak >= MAX_FAILURE_STREAK {
                        return Err(format!("{streak} failed ops in a row; last: {e}"));
                    }
                    queue.push_back(worker);
                }
            }
        }
        let bursts = reference.spent() - spent_before;
        self.drive.drive_s = (self.epoch.elapsed() - bursts).as_secs_f64();
        self.finish()
    }

    fn finish(mut self) -> Result<Drive, String> {
        let status = self.simple_op(OpKind::Status, "{\"op\":\"STATUS\"}\n")?;
        let results = self.simple_op(OpKind::Results, "{\"op\":\"RESULTS\"}\n")?;
        self.simple_op(OpKind::Shutdown, "{\"op\":\"SHUTDOWN\"}\n")?;
        self.drive.labels = results
            .get("labels")
            .and_then(Value::as_str)
            .ok_or("RESULTS carried no labels")?
            .to_owned();
        self.drive.status = status;
        Ok(self.drive)
    }

    /// An op outside the measured loop: one attempt, and a failure ends
    /// the run.
    fn simple_op(&mut self, kind: OpKind, line: &str) -> Result<Value, String> {
        let (start, res) = self.call(kind, line);
        let v = res.and_then(|()| self.parse_ok())?;
        self.record(kind, line, start);
        Ok(v)
    }

    /// Sends `line` on the current connection (connecting first when
    /// there is none) and returns when the op started.
    fn call(&mut self, kind: OpKind, line: &str) -> (Instant, Result<(), String>) {
        let start = Instant::now();
        self.drive.attempted += 1;
        if kind == OpKind::Request {
            self.drive.requests_sent += 1;
        }
        let res = self.call_inner(line);
        if res.is_err() {
            self.drive.failed += 1;
            self.conn = None;
        }
        (start, res)
    }

    fn call_inner(&mut self, line: &str) -> Result<(), String> {
        if self.conn.is_none() {
            self.drive.connects += 1;
            self.conn = Some(LineConn::open(self.addr).map_err(|e| format!("connect: {e}"))?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        conn.call(line, &mut self.resp)
            .map_err(|e| format!("round trip: {e}"))
    }

    /// Parses the response line; a `busy`, `error` or unparseable reply
    /// is a failed op.
    fn parse_ok(&mut self) -> Result<Value, String> {
        match serde_json::from_str::<Value>(&self.resp) {
            Ok(v) if v.get("ok").and_then(Value::as_bool) == Some(true) => Ok(v),
            _ => {
                self.drive.failed += 1;
                self.conn = None;
                Err(format!("refused or malformed: {}", self.resp.trim_end()))
            }
        }
    }

    fn record(&mut self, kind: OpKind, line: &str, start: Instant) {
        if let Some(ops) = self.drive.ops.as_mut() {
            ops.push(OpRecord {
                kind,
                line: line.trim_end().to_owned(),
                response: self.resp.trim_end().to_owned(),
                start_ns: crate::trace::ns_at(start),
                end_ns: crate::trace::now_ns(),
            });
        }
    }

    /// One poll cycle: REQUEST_TASK, and on assignment SUBMIT_ANSWER; a
    /// worker told `left` (or declined for good) retires once STATUS
    /// says the campaign is over.
    fn cycle(&mut self, worker: &mut Logical) -> Cycle {
        let (start, res) = self.call(OpKind::Request, &worker.request_line);
        if let Err(e) = res {
            return Cycle::Failed(e);
        }
        let rtt = micros(start);
        let v = match self.parse_ok() {
            Ok(v) => v,
            Err(e) => return Cycle::Failed(e),
        };
        self.drive.request_us.push(rtt);
        self.record(OpKind::Request, &worker.request_line, start);
        let task = match v.get("type").and_then(Value::as_str) {
            Some("task") => v.get("task").and_then(Value::as_u64),
            Some("wait") => return Cycle::Continue,
            Some("declined") if v.get("retry").and_then(Value::as_bool) == Some(true) => {
                return Cycle::Continue
            }
            Some("declined" | "left") => return self.retire_probe(),
            _ => None,
        };
        let Some(task) = task.and_then(|t| u32::try_from(t).ok()) else {
            self.drive.failed += 1;
            return Cycle::Failed(format!("malformed poll response: {}", self.resp.trim_end()));
        };
        let answer = *worker
            .answered
            .entry(task)
            .or_insert_with(|| worker.sim.answer(&self.dataset.tasks[TaskId(task)]));
        let line = format!(
            "{{\"op\":\"SUBMIT_ANSWER\",\"worker\":\"{}\",\"task\":{task},\"answer\":{}}}\n",
            worker.external, answer.0
        );
        let (start, res) = self.call(OpKind::Submit, &line);
        if let Err(e) = res {
            return Cycle::Failed(e);
        }
        let rtt = micros(start);
        let v = match self.parse_ok() {
            Ok(v) => v,
            Err(e) => return Cycle::Failed(e),
        };
        self.drive.submit_us.push(rtt);
        self.record(OpKind::Submit, &line, start);
        if v.get("result").and_then(Value::as_str) == Some("accepted") {
            self.drive.accepted += 1;
            Cycle::Continue
        } else {
            worker.answered.remove(&task);
            self.drive.failed += 1;
            Cycle::Failed(format!("submit not accepted: {}", self.resp.trim_end()))
        }
    }

    fn retire_probe(&mut self) -> Cycle {
        let line = "{\"op\":\"STATUS\"}\n";
        let (start, res) = self.call(OpKind::Status, line);
        if let Err(e) = res {
            return Cycle::Failed(e);
        }
        let v = match self.parse_ok() {
            Ok(v) => v,
            Err(e) => return Cycle::Failed(e),
        };
        self.record(OpKind::Status, line, start);
        let flag = |k: &str| v.get(k).and_then(Value::as_bool) == Some(true);
        if flag("complete") || flag("finished") {
            Cycle::Retired
        } else {
            Cycle::Continue
        }
    }
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3
}
