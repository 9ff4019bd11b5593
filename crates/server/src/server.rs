//! The TCP transport: one thread per connection under one cap.
//!
//! The acceptor thread blocks in `accept` and hands every connection
//! to a thread of its own, which serves it to EOF, one line per
//! request. A connection beyond [`ServeConfig::max_conns`] open ones
//! gets one `BUSY` line and is closed (accept-then-reject backpressure
//! — the client gets an explicit signal instead of an opaque
//! connection reset).
//!
//! Drain (the `SHUTDOWN` op, [`ServerHandle::shutdown`], or a fail-stop
//! journal error) flips a flag and wakes the blocked `accept` with a
//! loopback connection to the listener. The acceptor stops accepting,
//! every connection finishes the request in hand and closes (a quiet
//! one notices within its 100 ms read tick), the acceptor's thread
//! scope joins the connection threads, and [`ServerHandle::join`]
//! finalizes the campaign into its scored result.

use std::fs::File;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use icrowd_sim::campaign::CampaignResult;

use crate::engine::CampaignEngine;
use crate::protocol::{Request, Response};

/// Transport parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port (the bound
    /// address is available via [`ServerHandle::addr`]).
    pub addr: String,
    /// Open connections served at once, one thread each; a connection
    /// beyond the cap is rejected `BUSY`.
    pub max_conns: usize,
    /// Evict a connection that has not completed a request line for
    /// this long (slow-loris / stalled-client guard). `0` disables
    /// eviction.
    pub idle_timeout_ms: u64,
    /// Advance and emit a telemetry window every this many
    /// milliseconds (`icrowd serve --metrics-every`). `0` disables the
    /// emitter; the `METRICS` verb works regardless.
    pub metrics_every_ms: u64,
    /// Where the periodic window JSONL stream goes; `None` writes to
    /// stderr.
    pub metrics_out: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            max_conns: 64,
            idle_timeout_ms: 10_000,
            metrics_every_ms: 0,
            metrics_out: None,
        }
    }
}

/// The drain trigger shared by the handle, the acceptor and every
/// connection thread.
struct Drain {
    requested: AtomicBool,
    /// A loopback address of the listener, for the wake-up connection.
    wake: SocketAddr,
}

impl Drain {
    fn requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    /// Requests drain and wakes the acceptor out of `accept`. Returns
    /// whether this call was the first request.
    fn trigger(&self) -> bool {
        if self.requested.swap(true, Ordering::SeqCst) {
            return false;
        }
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
        true
    }
}

/// A running server; join it to collect the campaign result.
pub struct ServerHandle {
    addr: SocketAddr,
    drain: Arc<Drain>,
    acceptor: JoinHandle<()>,
    emitter: Option<JoinHandle<()>>,
    engine: Arc<CampaignEngine>,
}

impl ServerHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful drain (idempotent; the `SHUTDOWN` op does the
    /// same through the wire).
    pub fn shutdown(&self) {
        self.drain.trigger();
    }

    /// Blocks until the server drains (a `SHUTDOWN` op arrives or
    /// [`Self::shutdown`] is called), then finalizes and scores the
    /// campaign. A panicked transport thread is counted, not
    /// propagated — the campaign result is still recoverable from the
    /// engine.
    pub fn join(self) -> CampaignResult {
        for thread in std::iter::once(self.acceptor).chain(self.emitter) {
            if thread.join().is_err() {
                icrowd_obs::counter_add("serve.thread_panic", 1);
            }
        }
        // The acceptor owned the only other reference, and its scope
        // outlived every connection thread that borrowed the engine.
        match Arc::try_unwrap(self.engine) {
            Ok(engine) => engine.finalize(),
            Err(_) => unreachable!("joined transport threads hold no engine refs"),
        }
    }
}

/// Starts serving `engine` per `config`. Returns once the listener is
/// bound; the campaign runs on the connection threads until drain.
///
/// # Errors
/// Opening the metrics output (when the emitter is on) and binding the
/// listener; each error names the path or address it failed on.
pub fn serve(engine: CampaignEngine, config: &ServeConfig) -> std::io::Result<ServerHandle> {
    let context = |what: &str, e: std::io::Error| {
        std::io::Error::new(e.kind(), format!("cannot {what}: {e}"))
    };
    let sink = match &config.metrics_out {
        Some(path) if config.metrics_every_ms > 0 => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| context(&format!("open metrics output `{path}`"), e))?,
        ),
        _ => None,
    };
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| context(&format!("bind `{}`", config.addr), e))?;
    let addr = listener.local_addr()?;
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        let loopback = if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        };
        wake.set_ip(loopback);
    }
    let drain = Arc::new(Drain {
        requested: AtomicBool::new(false),
        wake,
    });
    let engine = Arc::new(engine);

    let acceptor = {
        let drain = Arc::clone(&drain);
        let engine = Arc::clone(&engine);
        let max_conns = config.max_conns.max(1);
        let idle_timeout = Duration::from_millis(config.idle_timeout_ms);
        thread::spawn(move || acceptor_loop(listener, &engine, &drain, max_conns, idle_timeout))
    };
    let emitter = (config.metrics_every_ms > 0).then(|| {
        let drain = Arc::clone(&drain);
        let every = Duration::from_millis(config.metrics_every_ms);
        thread::spawn(move || metrics_emitter_loop(&drain, every, sink))
    });

    Ok(ServerHandle {
        addr,
        drain,
        acceptor,
        emitter,
        engine,
    })
}

/// Closes a telemetry window every `every` and appends its JSON line to
/// `sink` (stderr when `None`). Emits one final window on drain so the
/// tail of the run is never lost to the tick boundary.
fn metrics_emitter_loop(drain: &Drain, every: Duration, mut sink: Option<File>) {
    // Stream only flows when the operator passed `--metrics-every`;
    // with no `--metrics-out` path it goes to stderr (never stdout,
    // which belongs to the caller's output).
    let mut emit = |line: String| {
        let ok = match sink.as_mut() {
            Some(f) => f.write_all(line.as_bytes()).and_then(|()| f.flush()),
            None => std::io::stderr().write_all(line.as_bytes()),
        };
        if ok.is_err() {
            icrowd_obs::counter_add("serve.metrics_emit_error", 1);
        }
    };
    loop {
        let done = drain.requested();
        let window = icrowd_obs::window_advance();
        emit(format!("{}\n", window.to_json()));
        if done {
            return;
        }
        // Sleep in short slices so drain latency stays bounded even
        // with a long window period.
        let tick_start = Instant::now();
        while tick_start.elapsed() < every {
            if drain.requested() {
                break;
            }
            thread::sleep(Duration::from_millis(20).min(every));
        }
    }
}

/// Accepts until drain, serving each connection on a scoped thread;
/// returns once every connection thread has finished.
fn acceptor_loop(
    listener: TcpListener,
    engine: &CampaignEngine,
    drain: &Drain,
    max_conns: usize,
    idle_timeout: Duration,
) {
    let open = AtomicUsize::new(0);
    thread::scope(|scope| {
        for stream in listener.incoming() {
            if drain.requested() {
                break;
            }
            let mut stream = match stream {
                Ok(stream) => stream,
                // The peer gave up between SYN and accept.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                // Anything else (fd exhaustion, a broken listener) ends
                // accepting; the open connections still finish.
                Err(_) => break,
            };
            let _span = icrowd_obs::span!("serve.accept");
            icrowd_obs::counter_add("serve.conn_accepted", 1);
            // Only this thread opens connections, so the cap is exact.
            if open.load(Ordering::SeqCst) >= max_conns {
                icrowd_obs::counter_add("serve.conn_busy", 1);
                let line = crate::protocol::response_line(&Response::Busy);
                let _ = stream.write_all(line.as_bytes());
                continue; // closed on drop — accept-then-reject backpressure
            }
            let conn = OpenConn::new(&open);
            let spawned = thread::Builder::new().spawn_scoped(scope, move || {
                serve_connection(stream, engine, drain, &conn, idle_timeout);
            });
            // Out of threads: the connection closes unserved (its slot
            // is released with it) and the client retries.
            if spawned.is_err() {
                icrowd_obs::counter_add("serve.conn_spawn_error", 1);
            }
        }
        // Refuse new connections while the open ones finish; the scope
        // then joins every connection thread.
        drop(listener);
    });
}

/// One slot of the connection cap, held by a connection's thread and
/// released when it ends, panicking or not. `serve.conns` follows the
/// count.
struct OpenConn<'a>(&'a AtomicUsize);

impl<'a> OpenConn<'a> {
    fn new(open: &'a AtomicUsize) -> Self {
        let n = open.fetch_add(1, Ordering::SeqCst) + 1;
        icrowd_obs::gauge_set("serve.conns", n as f64);
        Self(open)
    }

    /// Open connections right now, this one included.
    fn count(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }
}

impl Drop for OpenConn<'_> {
    fn drop(&mut self) {
        let n = self.0.fetch_sub(1, Ordering::SeqCst) - 1;
        icrowd_obs::gauge_set("serve.conns", n as f64);
    }
}

/// A request line (trailing `\n` stripped) accumulated byte-by-byte, or
/// the reason the connection ended.
enum LineRead {
    Line(String),
    Eof,
    Evicted,
    Draining,
    Error,
}

/// Reads until `acc` holds a complete line, enforcing the idle
/// deadline. Partial bytes survive read timeouts — a slow writer is
/// only evicted once the *deadline* passes, never by losing data to a
/// 100 ms poll tick. Once drain is requested, a line already received
/// is still served, but no further one is waited for: a busy
/// persistent connection cannot hold the drain open.
fn read_deadline_line(
    mut stream: &TcpStream,
    acc: &mut Vec<u8>,
    drain: &Drain,
    idle_timeout: Duration,
) -> LineRead {
    let deadline_start = Instant::now();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(pos) = acc.iter().position(|&b| b == b'\n') {
            let rest = acc.split_off(pos + 1);
            let line = std::mem::replace(acc, rest);
            return LineRead::Line(String::from_utf8_lossy(&line).into_owned());
        }
        if drain.requested() {
            return LineRead::Draining;
        }
        match stream.read(&mut buf) {
            Ok(0) => return LineRead::Eof,
            Ok(n) => acc.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if !idle_timeout.is_zero() && deadline_start.elapsed() >= idle_timeout {
                    return LineRead::Evicted;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return LineRead::Error,
        }
    }
}

/// Serves one connection to EOF (or drain, or idle eviction). Errors
/// drop the connection; the protocol is stateless per line, so clients
/// just reconnect. `STATUS` echoes the open connection count.
fn serve_connection(
    stream: TcpStream,
    engine: &CampaignEngine,
    drain: &Drain,
    conn: &OpenConn<'_>,
    idle_timeout: Duration,
) {
    let durability = engine.durability();
    let _ = stream.set_nodelay(true);
    // A finite read timeout lets the thread notice drain and the idle
    // deadline while parked on a quiet connection; a write deadline
    // keeps a non-draining client from wedging the thread.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut writer = &stream;
    let mut acc: Vec<u8> = Vec::new();
    let mut out = String::new();
    loop {
        let line = match read_deadline_line(&stream, &mut acc, drain, idle_timeout) {
            LineRead::Line(line) => line,
            LineRead::Evicted => {
                icrowd_obs::counter_add("serve.conn_evicted", 1);
                out.clear();
                Response::Error {
                    message: "idle timeout — connection evicted".to_owned(),
                }
                .encode_line(&mut out);
                let _ = writer.write_all(out.as_bytes());
                return;
            }
            LineRead::Eof | LineRead::Draining | LineRead::Error => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let resp = match Request::parse_with_trace(&line) {
            Ok((Request::Shutdown, _)) => {
                let resp = engine.handle(&Request::Shutdown, conn.count());
                out.clear();
                resp.encode_line_flagged(durability.degraded(), &mut out);
                let _ = writer.write_all(out.as_bytes());
                let _ = writer.flush();
                drain.trigger();
                return;
            }
            // METRICS is transport-level: it scrapes the telemetry
            // plane, not the campaign, so it never takes the engine
            // lock (scraping a busy server cannot perturb assignment).
            Ok((Request::Metrics, _)) => Response::Metrics {
                window: icrowd_obs::window_advance().to_json(),
            },
            Ok((req, trace)) => {
                // The root span of this request's trace; engine /
                // driver / journal spans attach underneath via the
                // thread-local trace context. Untraced lines skip all
                // of this at the cost of one atomic load.
                let _root = icrowd_obs::trace_begin(
                    trace.unwrap_or(0),
                    match &req {
                        Request::RequestTask { .. } => "serve.rpc.request",
                        Request::SubmitAnswer { .. } => "serve.rpc.submit",
                        _ => "serve.rpc.other",
                    },
                );
                engine.handle(&req, conn.count())
            }
            Err(message) => Response::Error { message },
        };
        // Advertised degradation: once durability is lost under the
        // degrade policy, every response line carries the flag.
        resp.encode_line_flagged(durability.degraded(), &mut out);
        if writer
            .write_all(out.as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        // Fail-stop: a journal error under the fail-stop policy drains
        // the server exactly like a SHUTDOWN op — the response that
        // carried the refusal is already flushed.
        if durability.fail_stopped() && drain.trigger() {
            icrowd_obs::counter_add("serve.fail_stop_drain", 1);
        }
    }
}
