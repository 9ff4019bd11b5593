//! A std-only, in-process TCP chaos proxy — the network counterpart of
//! the journal's disk fault injector.
//!
//! The proxy listens on an ephemeral port and forwards every accepted
//! connection to a fixed upstream, injecting toxiproxy-style faults on
//! the way:
//!
//! * **latency** — a fixed per-chunk delay, configurable per direction;
//! * **bandwidth cap** — bytes per second throttling, per direction;
//! * **reset** — the connection is abruptly closed after a drawn byte
//!   budget (clients observe EOF mid-conversation and must retry);
//! * **corruption** — a random byte of a forwarded chunk is flipped
//!   (the line protocol's JSON parsing must reject the damage);
//! * **blackhole** — the connection is accepted and everything the
//!   client sends is swallowed; nothing is forwarded and nothing
//!   comes back (client timeouts must fire — a wedged connection may
//!   never hang the worker loop).
//!
//! All decisions come from a [`DecisionStream`], stream *n* of the
//! seed's family for connection *n*, so a given seed yields the same
//! fault plan for connection *n* on every run. Timing (thread
//! interleaving, OS scheduling) is of course not deterministic; the
//! *decisions* are, which is what makes failures reproducible enough
//! to bisect.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use icrowd_platform::faults::DecisionStream;

/// Chaos proxy fault configuration. The reset and blackhole rates are
/// per-connection probabilities and the corruption rate a per-chunk
/// one, all in `[0, 1]`; latency and bandwidth apply to every
/// connection. The default forwards cleanly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosProxyConfig {
    /// Seed of the per-connection decision stream.
    pub seed: u64,
    /// Added delay per forwarded chunk, client → upstream, in ms.
    pub latency_up_ms: u64,
    /// Added delay per forwarded chunk, upstream → client, in ms.
    pub latency_down_ms: u64,
    /// Bandwidth cap per direction in bytes/second (`0` = unlimited).
    pub bandwidth_bps: u64,
    /// Probability that a connection is reset (abruptly closed) after a
    /// drawn byte budget in `1..=1024`.
    pub reset_rate: f64,
    /// Probability, per forwarded chunk, that one byte is flipped.
    pub corrupt_rate: f64,
    /// Probability that a connection is blackholed: accepted, then all
    /// traffic swallowed until the client gives up.
    pub blackhole_rate: f64,
}

/// Tally of faults the proxy injected, readable while it runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosProxyStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections blackholed.
    pub blackholed: u64,
    /// Connections reset after their byte budget.
    pub resets: u64,
    /// Chunks with a flipped byte.
    pub corrupted: u64,
}

#[derive(Default)]
struct StatCells {
    connections: AtomicU64,
    blackholed: AtomicU64,
    resets: AtomicU64,
    corrupted: AtomicU64,
}

/// How one accepted connection behaves, drawn once at accept time.
struct ConnFate {
    blackhole: bool,
    /// Close both directions after forwarding this many bytes.
    reset_after: Option<u64>,
}

/// A running chaos proxy; drop or [`ChaosProxy::stop`] it to shut down.
pub struct ChaosProxy {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    stats: Arc<StatCells>,
}

impl ChaosProxy {
    /// Starts the proxy on an ephemeral localhost port, forwarding to
    /// `upstream`.
    ///
    /// # Errors
    /// Propagates listener binding failures.
    pub fn start(
        upstream: std::net::SocketAddr,
        config: ChaosProxyConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatCells::default());
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            thread::spawn(move || accept_loop(&listener, upstream, &config, &shutdown, &stats))
        };
        Ok(Self {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            stats,
        })
    }

    /// The proxy's listen address — what clients should dial.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Faults injected so far.
    pub fn stats(&self) -> ChaosProxyStats {
        ChaosProxyStats {
            connections: self.stats.connections.load(Ordering::Relaxed),
            blackholed: self.stats.blackholed.load(Ordering::Relaxed),
            resets: self.stats.resets.load(Ordering::Relaxed),
            corrupted: self.stats.corrupted.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting and winds down the pump threads.
    pub fn stop(mut self) -> ChaosProxyStats {
        self.shut();
        self.stats()
    }

    fn shut(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shut();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: std::net::SocketAddr,
    config: &ChaosProxyConfig,
    shutdown: &Arc<AtomicBool>,
    stats: &Arc<StatCells>,
) {
    let mut conn_index = 0u64;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((client, _)) => {
                stats.connections.fetch_add(1, Ordering::Relaxed);
                let mut plan = DecisionStream::nth(config.seed, conn_index);
                conn_index += 1;
                let fate = ConnFate {
                    blackhole: plan.chance(config.blackhole_rate),
                    reset_after: plan.chance(config.reset_rate).then(|| 1 + plan.below(1024)),
                };
                let config = config.clone();
                let shutdown = Arc::clone(shutdown);
                let stats = Arc::clone(stats);
                // One thread per connection; loadgen keeps connection
                // counts small and the pump threads exit with the
                // connection.
                thread::spawn(move || {
                    serve_proxied(client, upstream, &config, plan, &fate, &shutdown, &stats);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(_) => return,
        }
    }
}

/// Swallows everything the client sends until EOF, shutdown, or the
/// client's own timeout closes the socket. Nothing is ever forwarded
/// and nothing is ever written back.
fn blackhole(mut client: TcpStream, shutdown: &AtomicBool) {
    let _ = client.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match client.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

fn serve_proxied(
    client: TcpStream,
    upstream_addr: std::net::SocketAddr,
    config: &ChaosProxyConfig,
    plan: DecisionStream,
    fate: &ConnFate,
    shutdown: &Arc<AtomicBool>,
    stats: &Arc<StatCells>,
) {
    if fate.blackhole {
        stats.blackholed.fetch_add(1, Ordering::Relaxed);
        blackhole(client, shutdown);
        return;
    }
    let Ok(upstream) = TcpStream::connect_timeout(&upstream_addr, Duration::from_secs(5)) else {
        return; // upstream gone: the client sees EOF and retries
    };
    let _ = client.set_nodelay(true);
    let _ = upstream.set_nodelay(true);
    let (Ok(client_r), Ok(upstream_r)) = (client.try_clone(), upstream.try_clone()) else {
        return;
    };
    // The two directions share the connection's byte budget (reset) via
    // an atomic; corruption draws stay deterministic per direction by
    // splitting the plan into two independent streams.
    let budget = Arc::new(AtomicU64::new(fate.reset_after.unwrap_or(u64::MAX)));
    let reset_armed = fate.reset_after.is_some();
    let up = PumpSide {
        latency: Duration::from_millis(config.latency_up_ms),
        bandwidth_bps: config.bandwidth_bps,
        corrupt_rate: config.corrupt_rate,
        plan: plan.derive(0x5555_5555_5555_5555),
    };
    let down = PumpSide {
        latency: Duration::from_millis(config.latency_down_ms),
        bandwidth_bps: config.bandwidth_bps,
        corrupt_rate: config.corrupt_rate,
        plan: plan.derive(0xAAAA_AAAA_AAAA_AAAA),
    };
    let t_up = {
        let shutdown = Arc::clone(shutdown);
        let stats = Arc::clone(stats);
        let budget = Arc::clone(&budget);
        thread::spawn(move || {
            pump(
                client_r,
                upstream,
                up,
                &shutdown,
                &stats,
                &budget,
                reset_armed,
            );
        })
    };
    pump(
        upstream_r,
        client,
        down,
        shutdown,
        stats,
        &budget,
        reset_armed,
    );
    let _ = t_up.join();
}

struct PumpSide {
    latency: Duration,
    bandwidth_bps: u64,
    corrupt_rate: f64,
    plan: DecisionStream,
}

/// Forwards bytes `from` → `to`, applying latency, bandwidth, byte
/// corruption and the shared reset budget. Exits on EOF, error,
/// shutdown, or an exhausted budget (abrupt close — the reset).
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    mut side: PumpSide,
    shutdown: &AtomicBool,
    stats: &StatCells,
    budget: &AtomicU64,
    reset_armed: bool,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 4096];
    loop {
        if shutdown.load(Ordering::SeqCst) || budget.load(Ordering::Relaxed) == 0 {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        if !side.latency.is_zero() {
            thread::sleep(side.latency);
        }
        // Model the cap as the time this chunk would take on a link of
        // that bandwidth; zero bps means uncapped.
        if let Some(ms) = (n as u64)
            .saturating_mul(1000)
            .checked_div(side.bandwidth_bps)
        {
            if ms > 0 {
                thread::sleep(Duration::from_millis(ms.min(1000)));
            }
        }
        if side.corrupt_rate > 0.0 && side.plan.chance(side.corrupt_rate) {
            let at = side.plan.below(n as u64) as usize;
            buf[at] ^= 0x20;
            stats.corrupted.fetch_add(1, Ordering::Relaxed);
        }
        let mut send = n as u64;
        if reset_armed {
            // Claim bytes from the shared budget; crossing zero fires
            // the reset after this (possibly truncated) chunk.
            let before =
                budget.fetch_sub(send.min(budget.load(Ordering::Relaxed)), Ordering::Relaxed);
            if before <= send {
                send = before;
                stats.resets.fetch_add(1, Ordering::Relaxed);
                budget.store(0, Ordering::Relaxed);
            }
        }
        if to.write_all(&buf[..send as usize]).is_err() {
            break;
        }
        let _ = to.flush();
        if reset_armed && budget.load(Ordering::Relaxed) == 0 {
            break;
        }
    }
    // Abrupt close on both directions: the peer observes EOF
    // mid-conversation, which the client treats as a retriable error.
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_fates_are_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<(bool, Option<u64>)> {
            (0..32)
                .map(|i| {
                    let mut plan = DecisionStream::nth(seed, i);
                    let blackhole = plan.next_unit() < 0.3;
                    let reset = (plan.next_unit() < 0.3).then(|| 1 + plan.next_u64() % 1024);
                    (blackhole, reset)
                })
                .collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        assert!(
            draw(42).iter().any(|(b, _)| *b) && draw(42).iter().any(|(_, r)| r.is_some()),
            "30% rates must fire within 32 connections"
        );
    }

    #[test]
    fn clean_proxy_forwards_transparently() {
        // Echo upstream: reads a line, writes it back.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 64];
            let n = s.read(&mut buf).unwrap();
            s.write_all(&buf[..n]).unwrap();
        });
        let proxy = ChaosProxy::start(upstream_addr, ChaosProxyConfig::default()).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"ping\n").unwrap();
        let mut buf = [0u8; 64];
        let n = c.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping\n");
        echo.join().unwrap();
        let stats = proxy.stop();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.blackholed + stats.resets + stats.corrupted, 0);
    }

    #[test]
    fn blackholed_connection_returns_nothing_and_client_times_out() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let proxy = ChaosProxy::start(
            upstream_addr,
            ChaosProxyConfig {
                blackhole_rate: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        c.write_all(b"{\"op\":\"HELLO\"}\n").unwrap();
        let mut buf = [0u8; 16];
        let err = c.read(&mut buf).expect_err("blackhole must starve reads");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{err}"
        );
        let stats = proxy.stop();
        assert_eq!(stats.blackholed, 1);
    }
}
