//! The machine-speed reference, measured through every served campaign.
//!
//! The 2-vCPU VM the benchmark was tuned on switches between a fast and
//! a slow mode within seconds, and how much of the time it spends in
//! each drifts over minutes: with nothing else running, a bare loopback
//! round trip went from 7 to 13 µs and back. Every served figure follows
//! that drift, setup included, so runs of the same code at different
//! times disagreed by more than any bound the gate can hold.
//!
//! A [`Reference`] measures how fast the machine runs while a campaign
//! runs: round trips of one protocol-sized line over one loopback TCP
//! connection to an echo thread, made only of the benchmark's own code
//! and the standard library, so that no change to the program's request
//! path can move them. A burst of them runs right before the campaign's
//! setup, short bursts run between the client's poll cycles all through
//! the drive, while the server waits for the client's next line, and a
//! burst runs right after the server stops. The campaign's figures are
//! scaled by [`REFERENCE_RTT_US`] over the median of all of them
//! ([`scale`]). A thread the program runs on its own shares the CPU with
//! the drive's bursts; heavy background work would slow them too and be
//! partly scaled away.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::stats::Samples;

/// The reference machine speed: the loopback round trip, in
/// microseconds, of the machine the scaled figures are expressed on.
/// The VM the benchmark was tuned on measured 7–8 µs in its fast mode
/// and 12–13 µs in its slow one.
pub const REFERENCE_RTT_US: f64 = 10.0;

/// Round trips right before setup and right after the server stops.
pub const EDGE_TRIPS: usize = 500;
/// Round trips between poll cycles during the drive...
pub const DRIVE_TRIPS: usize = 8;
/// ... once every this many poll cycles (≈4 ms of drive).
pub const DRIVE_EVERY: u64 = 256;
/// Untimed round trips when the connection opens.
const WARMUP_TRIPS: usize = 200;
/// A line the size of a REQUEST_TASK.
const LINE: &[u8] = b"{\"op\":\"REQUEST_TASK\",\"worker\":\"W17\"}\n";

/// The factor that turns a time measured while the loopback round trip
/// took `rtt_us` into one at the reference speed (a rate is divided by
/// it).
pub fn scale(rtt_us: f64) -> f64 {
    REFERENCE_RTT_US / rtt_us
}

/// An echo thread and a connection to it; timed round trips are added
/// in bursts.
pub struct Reference {
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    echo: JoinHandle<io::Result<()>>,
    addr: SocketAddr,
    line: Vec<u8>,
    rtt_us: Samples,
    /// Wall time spent in bursts so far.
    spent: Duration,
}

impl Reference {
    /// Starts the echo thread, connects to it and warms the connection
    /// up.
    pub fn start() -> Result<Reference, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(fail)?;
        let addr = listener.local_addr().map_err(fail)?;
        let echo = thread::spawn(move || -> io::Result<()> {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            let mut line = Vec::new();
            loop {
                line.clear();
                if reader.read_until(b'\n', &mut line)? == 0 {
                    return Ok(());
                }
                writer.write_all(&line)?;
            }
        });
        let mut reference = Reference {
            conn: None,
            echo,
            addr,
            line: Vec::new(),
            rtt_us: Samples::default(),
            spent: Duration::ZERO,
        };
        let opened = connect(addr);
        let warm = opened.and_then(|conn| {
            reference.conn = Some(conn);
            (0..WARMUP_TRIPS).try_for_each(|_| reference.trip().map(drop))
        });
        match warm {
            Ok(()) => Ok(reference),
            Err(e) => {
                let _ = reference.finish();
                Err(fail(e))
            }
        }
    }

    /// One round trip; returns how long it took.
    fn trip(&mut self) -> io::Result<Duration> {
        let (writer, reader) = self.conn.as_mut().expect("connected");
        let t0 = Instant::now();
        writer.write_all(LINE)?;
        self.line.clear();
        reader.read_until(b'\n', &mut self.line)?;
        let took = t0.elapsed();
        if self.line != LINE {
            return Err(io::Error::other("echo returned another line"));
        }
        Ok(took)
    }

    /// `trips` timed round trips.
    pub fn burst(&mut self, trips: usize) -> Result<(), String> {
        let t0 = Instant::now();
        for _ in 0..trips {
            let took = self.trip().map_err(fail)?;
            self.rtt_us.push(took.as_nanos() as f64 / 1e3);
        }
        self.spent += t0.elapsed();
        Ok(())
    }

    /// Wall time spent in bursts so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Closes the connection, joins the echo thread and returns the
    /// median of the timed round trips, in microseconds.
    pub fn finish(mut self) -> Result<f64, String> {
        if self.conn.take().is_none() {
            // The echo thread may still wait in `accept`: hand it a
            // connection that closes at once.
            let _ = TcpStream::connect(self.addr);
        }
        self.echo
            .join()
            .map_err(|_| "loopback echo thread panicked")?
            .map_err(fail)?;
        self.rtt_us
            .median()
            .ok_or_else(|| "loopback reference: no round trip was timed".to_owned())
    }
}

fn connect(addr: SocketAddr) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok((stream.try_clone()?, BufReader::new(stream)))
}

fn fail(e: io::Error) -> String {
    format!("loopback reference: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_times_its_round_trips() {
        let mut r = Reference::start().expect("reference starts");
        r.burst(50).expect("burst");
        r.burst(DRIVE_TRIPS).expect("burst");
        assert!(r.spent() > Duration::ZERO);
        let rtt = r.finish().expect("reference finishes");
        assert!(rtt > 0.0 && rtt < 10_000.0, "{rtt}");
    }

    #[test]
    fn a_reference_without_round_trips_has_no_speed() {
        let r = Reference::start().expect("reference starts");
        assert!(r.finish().is_err());
    }

    #[test]
    fn a_slower_machine_scales_its_times_down() {
        assert_eq!(scale(REFERENCE_RTT_US), 1.0);
        assert_eq!(scale(2.0 * REFERENCE_RTT_US), 0.5);
    }
}
