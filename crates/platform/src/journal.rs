//! The crash-consistent campaign journal: a write-ahead log of every
//! accepted driver mutation.
//!
//! The marketplace driver is fully deterministic given its construction
//! inputs, so durability does not require serializing its state — it is
//! enough to record the ordered stream of *mutating inputs* (polls that
//! moved the schedule, every submission, deferred-delivery pumps) and
//! replay them through a freshly built driver. Each record is framed as
//!
//! ```text
//! [u32 payload_len LE][u32 crc32 LE][payload bytes]
//! ```
//!
//! with the CRC taken over the payload (a compact JSON object, written
//! directly into a buffer the writer keeps; the reader parses it with
//! `serde_json`). A torn or corrupt tail — a partial frame, a CRC
//! mismatch, unparseable payload — terminates the read at the longest
//! valid prefix; the recovery layer truncates the file there and
//! resumes appending.
//!
//! Snapshot records are *verification checkpoints*, not state dumps:
//! they pin the accounting, accepted-answer count, logical clock and
//! mutation epoch at a known op index so replay can detect divergence
//! early. The file is append-only: a valid frame stays where it was
//! written (only a torn tail past the last valid frame is ever cut),
//! so every checkpoint is there for replay to verify in op order.
//! Nothing is compacted away — the op log *is* the state, so it
//! cannot shrink.
//!
//! Fsync policy: `fsync_every = 1` syncs after every record (full
//! durability), `N` batches syncs every `N` records, `0` never syncs
//! (the OS flushes at its leisure). Losing an un-synced tail is safe:
//! clients idempotently re-poll and re-submit, and the server's
//! duplicate rejection keeps accepted answers exactly-once.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use icrowd_core::task::TaskId;
use serde_json::Value;

use crate::driver::PollOutcome;
use crate::faults::DecisionStream;
use crate::market::MarketAccounting;
use crate::wire::{write_accounting, write_string, write_u64};

/// Journal format version (bumped on incompatible frame/payload changes).
/// Version 1 files may hold a compaction `batch` frame, which version 2
/// no longer reads, so recovery refuses them at the header check.
pub const JOURNAL_VERSION: u32 = 2;

/// Frames larger than this are treated as corruption, not allocation
/// requests.
const MAX_FRAME: u32 = 16 * 1024 * 1024;

// -- CRC32 (IEEE 802.3), table generated at compile time ---------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) over `data` — the per-frame integrity check.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A stable fingerprint of an arbitrary configuration rendering, stored
/// in the header so recovery refuses to replay a journal against a
/// different campaign configuration (FNV-1a 64).
pub fn fingerprint(text: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// -- record model ------------------------------------------------------

/// The journal's first record: identifies the campaign the ops belong to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Frame/payload format version.
    pub version: u32,
    /// Dataset key (`icrowd_sim::datasets::by_name`).
    pub dataset: String,
    /// Approach display name.
    pub approach: String,
    /// Campaign seed.
    pub seed: u64,
    /// Fingerprint of the full campaign configuration.
    pub config_fp: u64,
}

/// One mutating driver input, in apply order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// A poll that moved the schedule.
    Poll {
        /// External worker id.
        worker: String,
        /// The outcome the live run produced (replay verifies it
        /// matches). A poll that mutated nothing is never journaled, so
        /// a journaled `Wait` is one that pumped deferred deliveries.
        tag: PollOutcome,
    },
    /// A submission (scheduled or stray) and its verdict, e.g.
    /// `accepted`, `rejected:duplicate`, `dropped`, `stalled`,
    /// `deferred`.
    Submit {
        /// External worker id.
        worker: String,
        /// Task id.
        task: u32,
        /// Answer choice.
        answer: u8,
        /// The live run's verdict tag.
        verdict: String,
    },
    /// A `STATUS`/`RESULTS` pump that moved the schedule (deferred
    /// deliveries landed, or the final sweep ran).
    Pump,
}

/// A verification checkpoint: state the replay must reproduce once
/// `ops` records have been applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalSnapshot {
    /// Number of ops preceding this checkpoint.
    pub ops: u64,
    /// Accepted answers at the checkpoint.
    pub answers: u64,
    /// Accounting at the checkpoint.
    pub accounting: MarketAccounting,
    /// Latest logical tick reached.
    pub end_tick: u64,
    /// Driver mutation epoch.
    pub epoch: u64,
}

/// One framed record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Campaign identity; always the first record.
    Header(JournalHeader),
    /// A single mutating input.
    Op(JournalOp),
    /// A verification checkpoint.
    Snapshot(JournalSnapshot),
}

/// Writes `rec`'s payload into `out` (cleared first): the compact JSON
/// object the reader parses, byte for byte as the `serde_json` tree
/// printer would print it.
fn write_payload(rec: &JournalRecord, out: &mut String) {
    out.clear();
    match rec {
        JournalRecord::Header(h) => {
            out.push_str(r#"{"t":"header","version":"#);
            write_u64(out, h.version.into());
            out.push_str(r#","dataset":"#);
            write_string(out, &h.dataset);
            out.push_str(r#","approach":"#);
            write_string(out, &h.approach);
            out.push_str(r#","seed":"#);
            write_u64(out, h.seed);
            out.push_str(r#","fp":"#);
            write_u64(out, h.config_fp);
        }
        JournalRecord::Op(JournalOp::Poll { worker, tag }) => {
            out.push_str(r#"{"t":"poll","w":"#);
            write_string(out, worker);
            out.push_str(r#","o":"#);
            write_string(out, tag.name());
            if let PollOutcome::Assigned(task) = tag {
                out.push_str(r#","task":"#);
                write_u64(out, task.0.into());
            }
        }
        JournalRecord::Op(JournalOp::Submit {
            worker,
            task,
            answer,
            verdict,
        }) => {
            out.push_str(r#"{"t":"submit","w":"#);
            write_string(out, worker);
            out.push_str(r#","task":"#);
            write_u64(out, (*task).into());
            out.push_str(r#","a":"#);
            write_u64(out, (*answer).into());
            out.push_str(r#","v":"#);
            write_string(out, verdict);
        }
        JournalRecord::Op(JournalOp::Pump) => out.push_str(r#"{"t":"pump""#),
        JournalRecord::Snapshot(s) => {
            out.push_str(r#"{"t":"snapshot","ops":"#);
            write_u64(out, s.ops);
            out.push_str(r#","answers":"#);
            write_u64(out, s.answers);
            out.push_str(r#","end":"#);
            write_u64(out, s.end_tick);
            out.push_str(r#","epoch":"#);
            write_u64(out, s.epoch);
            out.push_str(r#","acct":"#);
            write_accounting(out, &s.accounting);
        }
    }
    out.push('}');
}

fn u64_field(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Value::as_str)
}

fn op_from_value(v: &Value) -> Option<JournalOp> {
    match str_field(v, "t")? {
        "poll" => {
            let worker = str_field(v, "w")?.to_owned();
            let tag = match str_field(v, "o")? {
                "assigned" => {
                    PollOutcome::Assigned(TaskId(u32::try_from(u64_field(v, "task")?).ok()?))
                }
                "wait" => PollOutcome::Wait,
                "declined_retry" => PollOutcome::Declined { retry: true },
                "declined_left" => PollOutcome::Declined { retry: false },
                "left" => PollOutcome::Left,
                _ => return None,
            };
            Some(JournalOp::Poll { worker, tag })
        }
        "submit" => Some(JournalOp::Submit {
            worker: str_field(v, "w")?.to_owned(),
            task: u32::try_from(u64_field(v, "task")?).ok()?,
            answer: u8::try_from(u64_field(v, "a")?).ok()?,
            verdict: str_field(v, "v")?.to_owned(),
        }),
        "pump" => Some(JournalOp::Pump),
        _ => None,
    }
}

fn accounting_from_value(v: &Value) -> Option<MarketAccounting> {
    Some(MarketAccounting {
        answers_submitted: u64_field(v, "submitted")?,
        answers_accepted: u64_field(v, "accepted")?,
        answers_rejected: u64_field(v, "rejected")?,
        answers_dropped: u64_field(v, "dropped")?,
        answers_paid: u64_field(v, "paid")?,
        answers_abandoned: u64_field(v, "abandoned")?,
        stalled: u64_field(v, "stalled")?,
        churned: u64_field(v, "churned")?,
    })
}

fn record_from_value(v: &Value) -> Option<JournalRecord> {
    match str_field(v, "t")? {
        "header" => Some(JournalRecord::Header(JournalHeader {
            version: u32::try_from(u64_field(v, "version")?).ok()?,
            dataset: str_field(v, "dataset")?.to_owned(),
            approach: str_field(v, "approach")?.to_owned(),
            seed: u64_field(v, "seed")?,
            config_fp: u64_field(v, "fp")?,
        })),
        "snapshot" => Some(JournalRecord::Snapshot(JournalSnapshot {
            ops: u64_field(v, "ops")?,
            answers: u64_field(v, "answers")?,
            end_tick: u64_field(v, "end")?,
            epoch: u64_field(v, "epoch")?,
            accounting: accounting_from_value(v.get("acct")?)?,
        })),
        _ => op_from_value(v).map(JournalRecord::Op),
    }
}

/// Frames `rec` into `frame` (cleared first): payload length, CRC and
/// payload. `payload` is scratch space for the payload text.
fn write_frame(rec: &JournalRecord, payload: &mut String, frame: &mut Vec<u8>) {
    write_payload(rec, payload);
    let payload = payload.as_bytes();
    frame.clear();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
}

/// Encodes one record into its framed wire bytes.
pub fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(rec, &mut String::new(), &mut frame);
    frame
}

// -- pluggable file I/O ------------------------------------------------

/// An open journal file handle: the only two operations the writer ever
/// performs on one. Implementations may fail (and may persist a strict
/// prefix of a failed write — a torn write), which is exactly what the
/// fault injector exploits.
pub trait JournalFile: Send {
    /// Writes the whole buffer (or fails, possibly after persisting a
    /// prefix of it).
    ///
    /// # Errors
    /// Propagates (or injects) write failures.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Flushes and fsyncs to stable storage.
    ///
    /// # Errors
    /// Propagates (or injects) `fsync` failures.
    fn sync(&mut self) -> io::Result<()>;
}

/// The journal's view of a filesystem. [`StdIo`] passes straight
/// through to `std::fs`; [`FaultyIo`] injects seeded disk faults. Every
/// file operation [`JournalWriter`] performs — creation, append-open,
/// truncation — routes through this trait, so an injected fault can
/// land at any of them.
pub trait JournalIo: Send {
    /// Creates (truncating) a file for writing.
    ///
    /// # Errors
    /// Propagates (or injects) creation failures.
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn JournalFile>>;

    /// Opens an existing file for appending.
    ///
    /// # Errors
    /// Propagates (or injects) open failures.
    fn open_append(&mut self, path: &Path) -> io::Result<Box<dyn JournalFile>>;

    /// Truncates the file to `len` bytes — the repair path dropping a
    /// torn tail.
    ///
    /// # Errors
    /// Propagates (or injects) truncation failures.
    fn set_len(&mut self, path: &Path, len: u64) -> io::Result<()>;

    /// Renames `from` over `to`. The append-only writer never calls
    /// this; it is kept for the benchmark's implementation of this
    /// trait.
    ///
    /// # Errors
    /// Propagates rename failures.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    /// Best-effort directory sync. The append-only writer never calls
    /// this; it is kept for the benchmark's implementation of this
    /// trait.
    fn sync_dir(&mut self, _dir: &Path) {}
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdIo;

struct StdFile(File);

impl JournalFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.flush()?;
        self.0.sync_data()
    }
}

impl JournalIo for StdIo {
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn JournalFile>> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn open_append(&mut self, path: &Path) -> io::Result<Box<dyn JournalFile>> {
        Ok(Box::new(StdFile(
            OpenOptions::new().append(true).open(path)?,
        )))
    }

    fn set_len(&mut self, path: &Path, len: u64) -> io::Result<()> {
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }
}

// -- disk fault injection ----------------------------------------------

/// Configuration of the disk fault injector. All rates are per-operation
/// probabilities in `[0, 1]`; the default injects nothing. Decisions
/// come from a [`DecisionStream`], as [`crate::faults::FaultPlan`]'s
/// do, so a given seed produces the same fault at the same operation
/// count on every run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskFaultConfig {
    /// Seed of the decision stream.
    pub seed: u64,
    /// Probability that a write fails with `ENOSPC` (nothing persisted).
    pub enospc_rate: f64,
    /// Probability that a write fails with `EIO` (nothing persisted).
    pub eio_rate: f64,
    /// Probability that a write persists a strict prefix of the buffer
    /// and then fails — a torn write the prefix-tolerant reader must
    /// survive.
    pub torn_rate: f64,
    /// Probability that an `fsync` fails (the bytes were written but
    /// durability was never promised).
    pub fsync_rate: f64,
    /// Probability that a create/open/truncate fails.
    pub open_rate: f64,
}

impl Default for DiskFaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            enospc_rate: 0.0,
            eio_rate: 0.0,
            torn_rate: 0.0,
            fsync_rate: 0.0,
            open_rate: 0.0,
        }
    }
}

/// Tally of disk faults actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskFaultStats {
    /// Writes failed with `ENOSPC`.
    pub enospc: u64,
    /// Writes failed with `EIO`.
    pub eio: u64,
    /// Torn writes (a prefix persisted, then failure).
    pub torn: u64,
    /// `fsync` failures.
    pub fsync_failures: u64,
    /// Create/open/truncate failures.
    pub open_failures: u64,
}

impl DiskFaultStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.enospc + self.eio + self.torn + self.fsync_failures + self.open_failures
    }
}

const ENOSPC: i32 = 28;
const EIO: i32 = 5;

struct FaultyState {
    config: DiskFaultConfig,
    stream: DecisionStream,
    stats: DiskFaultStats,
}

/// A [`JournalIo`] that injects seeded ENOSPC / EIO / torn-write /
/// fsync-failure / open-failure faults on top of the real filesystem.
/// All handles cloned from one `FaultyIo` share a single decision
/// counter, so the fault schedule is a deterministic function of the
/// seed and the global operation count — exactly reproducible, exactly
/// bisectable.
#[derive(Clone)]
pub struct FaultyIo {
    state: Arc<Mutex<FaultyState>>,
}

/// What one write decision draw resolved to.
enum WriteFault {
    None,
    Enospc,
    Eio,
    /// Persist this many bytes of the buffer, then fail.
    Torn(usize),
}

impl FaultyIo {
    /// Builds the injector. The rates are not checked: each operation
    /// draws once from `[0, 1)`, and the write faults take consecutive
    /// bands of that draw (ENOSPC, then EIO, then torn), so the three
    /// write rates should sum to at most 1.
    pub fn new(config: DiskFaultConfig) -> Self {
        Self {
            state: Arc::new(Mutex::new(FaultyState {
                stream: DecisionStream::new(config.seed),
                config,
                stats: DiskFaultStats::default(),
            })),
        }
    }

    /// Faults injected so far, across every handle sharing this
    /// injector.
    pub fn stats(&self) -> DiskFaultStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultyState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One decision draw for a write of `len` bytes. Exactly one unit
    /// draw per write (plus one extra u64 for the torn split point), so
    /// zero-rate plans consume the stream identically to faulty ones.
    fn write_fault(&self, len: usize) -> WriteFault {
        let mut s = self.lock();
        let u = s.stream.next_unit();
        let c = &s.config;
        let (enospc, eio, torn) = (c.enospc_rate, c.eio_rate, c.torn_rate);
        if u < enospc {
            s.stats.enospc += 1;
            WriteFault::Enospc
        } else if u < enospc + eio {
            s.stats.eio += 1;
            WriteFault::Eio
        } else if u < enospc + eio + torn {
            s.stats.torn += 1;
            let cut = if len > 1 {
                1 + s.stream.below(len as u64 - 1) as usize
            } else {
                0
            };
            WriteFault::Torn(cut)
        } else {
            WriteFault::None
        }
    }

    fn sync_fault(&self) -> bool {
        let mut s = self.lock();
        let hit = {
            let u = s.stream.next_unit();
            u < s.config.fsync_rate
        };
        if hit {
            s.stats.fsync_failures += 1;
        }
        hit
    }

    fn open_fault(&self) -> bool {
        let mut s = self.lock();
        let hit = {
            let u = s.stream.next_unit();
            u < s.config.open_rate
        };
        if hit {
            s.stats.open_failures += 1;
        }
        hit
    }
}

struct FaultyFile {
    file: File,
    io: FaultyIo,
}

impl JournalFile for FaultyFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.io.write_fault(buf.len()) {
            WriteFault::None => self.file.write_all(buf),
            WriteFault::Enospc => Err(io::Error::from_raw_os_error(ENOSPC)),
            WriteFault::Eio => Err(io::Error::from_raw_os_error(EIO)),
            WriteFault::Torn(cut) => {
                // Persist a strict prefix — the genuinely torn frame the
                // prefix-tolerant reader must cope with — then fail.
                self.file.write_all(&buf[..cut])?;
                let _ = self.file.flush();
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected torn write",
                ))
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.io.sync_fault() {
            return Err(io::Error::from_raw_os_error(EIO));
        }
        self.file.flush()?;
        self.file.sync_data()
    }
}

impl JournalIo for FaultyIo {
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn JournalFile>> {
        if self.open_fault() {
            return Err(io::Error::from_raw_os_error(EIO));
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(FaultyFile {
            file,
            io: self.clone(),
        }))
    }

    fn open_append(&mut self, path: &Path) -> io::Result<Box<dyn JournalFile>> {
        if self.open_fault() {
            return Err(io::Error::from_raw_os_error(EIO));
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Box::new(FaultyFile {
            file,
            io: self.clone(),
        }))
    }

    fn set_len(&mut self, path: &Path, len: u64) -> io::Result<()> {
        if self.open_fault() {
            return Err(io::Error::from_raw_os_error(EIO));
        }
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }
}

// -- writer ------------------------------------------------------------

/// An append-only journal writer with batched fsync.
/// All file operations route through a [`JournalIo`], so fault
/// injection and the real filesystem share one code path.
pub struct JournalWriter {
    io: Box<dyn JournalIo>,
    file: Box<dyn JournalFile>,
    path: PathBuf,
    /// Sync after this many records (`1` = every record, `0` = never).
    fsync_every: usize,
    unsynced: usize,
    /// The last record's payload text and frame, kept so an append
    /// reuses their capacity.
    payload: String,
    frame: Vec<u8>,
}

impl JournalWriter {
    /// Creates (truncating) a fresh journal at `path` on the real
    /// filesystem.
    ///
    /// # Errors
    /// Propagates file-creation failures.
    pub fn create(path: &Path, fsync_every: usize) -> io::Result<JournalWriter> {
        Self::create_with(path, fsync_every, Box::new(StdIo))
    }

    /// Creates a fresh journal through an explicit [`JournalIo`].
    ///
    /// # Errors
    /// Propagates file-creation failures.
    pub fn create_with(
        path: &Path,
        fsync_every: usize,
        mut io: Box<dyn JournalIo>,
    ) -> io::Result<JournalWriter> {
        let file = io.create(path)?;
        Ok(JournalWriter {
            io,
            file,
            path: path.to_path_buf(),
            fsync_every,
            unsynced: 0,
            payload: String::new(),
            frame: Vec::new(),
        })
    }

    /// Opens an existing journal for appending through an explicit
    /// [`JournalIo`] — the recovery path, after the file has been
    /// truncated to its valid prefix.
    ///
    /// # Errors
    /// Propagates open failures.
    pub fn append_to_with(
        path: &Path,
        fsync_every: usize,
        mut io: Box<dyn JournalIo>,
    ) -> io::Result<JournalWriter> {
        let file = io.open_append(path)?;
        Ok(JournalWriter {
            io,
            file,
            path: path.to_path_buf(),
            fsync_every,
            unsynced: 0,
            payload: String::new(),
            frame: Vec::new(),
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one framed record, syncing per the fsync policy.
    ///
    /// # Errors
    /// Propagates write/sync failures; the caller decides whether to
    /// stop journaling.
    pub fn append(&mut self, rec: &JournalRecord) -> io::Result<()> {
        write_frame(rec, &mut self.payload, &mut self.frame);
        self.file.write_all(&self.frame)?;
        if icrowd_obs::is_enabled() {
            icrowd_obs::counter_add("journal.records", 1);
            icrowd_obs::counter_add("journal.bytes", self.frame.len() as u64);
        }
        self.unsynced += 1;
        if self.fsync_every > 0 && self.unsynced >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces pending records to stable storage.
    ///
    /// # Errors
    /// Propagates `fsync` failures.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.file.sync()?;
        self.unsynced = 0;
        if icrowd_obs::is_enabled() {
            icrowd_obs::counter_add("journal.fsync", 1);
        }
        Ok(())
    }

    /// Repairs the journal after a failed append: re-reads the longest
    /// valid record prefix, truncates the file to it (dropping any torn
    /// partial frame a failed write left behind) and reopens for
    /// appending. Returns the number of ops that survive on disk, so
    /// the caller can tell whether the frame that triggered the failure
    /// actually landed (e.g. a complete write whose fsync failed).
    ///
    /// # Errors
    /// Propagates read/truncate/reopen failures — the retry policy's
    /// backoff handles those.
    pub fn repair(&mut self) -> io::Result<u64> {
        let readout = read_journal(&self.path)?;
        self.io.set_len(&self.path, readout.valid_bytes)?;
        self.file = self.io.open_append(&self.path)?;
        self.unsynced = 0;
        Ok(readout.ops.len() as u64)
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

// -- reader ------------------------------------------------------------

/// What a prefix-tolerant read produced.
#[derive(Debug)]
pub struct JournalReadout {
    /// The campaign header, when the first valid record is one.
    pub header: Option<JournalHeader>,
    /// Every op in apply order.
    pub ops: Vec<JournalOp>,
    /// Verification checkpoints, in op order.
    pub snapshots: Vec<JournalSnapshot>,
    /// Bytes covered by valid frames (the recovery truncation point).
    pub valid_bytes: u64,
    /// Bytes past the valid prefix (torn tail, corruption, garbage).
    pub truncated_bytes: u64,
}

/// Reads the longest valid record prefix of the journal at `path`. A
/// partial frame, oversized length, CRC mismatch or unparseable payload
/// ends the read — never panics, never errors on tail damage.
///
/// # Errors
/// Only on failing to open/read the file itself.
pub fn read_journal(path: &Path) -> io::Result<JournalReadout> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut header = None;
    let mut ops = Vec::new();
    let mut snapshots = Vec::new();
    let mut off = 0usize;
    let mut first = true;
    while bytes.len() - off >= 8 {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap_or_default());
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap_or_default());
        if len > MAX_FRAME {
            break;
        }
        let len = len as usize;
        let Some(payload) = bytes.get(off + 8..off + 8 + len) else {
            break; // torn tail: frame extends past EOF
        };
        if crc32(payload) != crc {
            break;
        }
        let Ok(value) = serde_json::from_str::<Value>(&String::from_utf8_lossy(payload)) else {
            break;
        };
        let Some(record) = record_from_value(&value) else {
            break;
        };
        match record {
            JournalRecord::Header(h) => {
                if first {
                    header = Some(h);
                } else {
                    break; // a header mid-stream is corruption
                }
            }
            JournalRecord::Op(op) => ops.push(op),
            JournalRecord::Snapshot(s) => snapshots.push(s),
        }
        first = false;
        off += 8 + len;
    }
    Ok(JournalReadout {
        header,
        ops,
        snapshots,
        valid_bytes: off as u64,
        truncated_bytes: (bytes.len() - off) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("icrowd_journal_{}_{tag}.bin", std::process::id()))
    }

    fn sample_header() -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            dataset: "table1".into(),
            approach: "RandomMV".into(),
            seed: 42,
            config_fp: fingerprint("config"),
        }
    }

    fn sample_ops() -> Vec<JournalOp> {
        vec![
            JournalOp::Poll {
                worker: "W1".into(),
                tag: PollOutcome::Assigned(TaskId(7)),
            },
            JournalOp::Submit {
                worker: "W1".into(),
                task: 7,
                answer: 1,
                verdict: "accepted".into(),
            },
            JournalOp::Poll {
                worker: "W2".into(),
                tag: PollOutcome::Declined { retry: true },
            },
            JournalOp::Pump,
            JournalOp::Poll {
                worker: "W2".into(),
                tag: PollOutcome::Left,
            },
            JournalOp::Submit {
                worker: "W3".into(),
                task: 2,
                answer: 0,
                verdict: "rejected:duplicate".into(),
            },
        ]
    }

    fn write_all(path: &Path, fsync_every: usize) -> JournalSnapshot {
        let snap = JournalSnapshot {
            ops: 6,
            answers: 1,
            accounting: MarketAccounting {
                answers_submitted: 2,
                answers_accepted: 1,
                answers_rejected: 1,
                ..Default::default()
            },
            end_tick: 12,
            epoch: 9,
        };
        let mut w = JournalWriter::create(path, fsync_every).unwrap();
        w.append(&JournalRecord::Header(sample_header())).unwrap();
        for op in sample_ops() {
            w.append(&JournalRecord::Op(op)).unwrap();
        }
        w.append(&JournalRecord::Snapshot(snap)).unwrap();
        w.sync().unwrap();
        snap
    }

    #[test]
    fn records_round_trip_through_the_frame_codec() {
        let path = tmp_path("roundtrip");
        let snap = write_all(&path, 1);
        let r = read_journal(&path).unwrap();
        assert_eq!(r.header, Some(sample_header()));
        assert_eq!(r.ops, sample_ops());
        assert_eq!(r.snapshots, vec![snap]);
        assert_eq!(r.truncated_bytes, 0);
        assert_eq!(
            r.valid_bytes,
            std::fs::metadata(&path).unwrap().len(),
            "every byte accounted for"
        );
        std::fs::remove_file(&path).ok();
    }

    /// The exact framed bytes of one record of each kind: length, CRC
    /// and payload.
    #[test]
    fn framed_records_are_byte_stable() {
        let cases = [
            (
                JournalRecord::Header(JournalHeader {
                    version: JOURNAL_VERSION,
                    dataset: "table1".into(),
                    approach: "iCrowd".into(),
                    seed: u64::MAX,
                    config_fp: 0x0123_4567_89AB_CDEF,
                }),
                r#"{"t":"header","version":2,"dataset":"table1","approach":"iCrowd","seed":18446744073709551615,"fp":81985529216486895}"#,
                0xBD45_DA72,
            ),
            (
                JournalRecord::Op(JournalOp::Poll {
                    worker: "W\"1\\".into(),
                    tag: PollOutcome::Assigned(TaskId(u32::MAX)),
                }),
                r#"{"t":"poll","w":"W\"1\\","o":"assigned","task":4294967295}"#,
                0x920E_1C02,
            ),
            (
                JournalRecord::Op(JournalOp::Poll {
                    worker: "W2".into(),
                    tag: PollOutcome::Declined { retry: false },
                }),
                r#"{"t":"poll","w":"W2","o":"declined_left"}"#,
                0x0F83_C0D7,
            ),
            (
                JournalRecord::Op(JournalOp::Submit {
                    worker: "W3".into(),
                    task: 2,
                    answer: 255,
                    verdict: "rejected:duplicate".into(),
                }),
                r#"{"t":"submit","w":"W3","task":2,"a":255,"v":"rejected:duplicate"}"#,
                0xEB18_6945,
            ),
            (
                JournalRecord::Op(JournalOp::Pump),
                r#"{"t":"pump"}"#,
                0xC1DC_5315,
            ),
            (
                JournalRecord::Snapshot(JournalSnapshot {
                    ops: 6,
                    answers: 1,
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
                    end_tick: u64::MAX,
                    epoch: 9,
                }),
                r#"{"t":"snapshot","ops":6,"answers":1,"end":18446744073709551615,"epoch":9,"acct":{"submitted":9,"accepted":8,"rejected":1,"dropped":2,"paid":6,"abandoned":2,"stalled":3,"churned":4}}"#,
                0x0E3D_4735,
            ),
        ];
        for (rec, payload, crc) in cases {
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&u32::to_le_bytes(crc));
            frame.extend_from_slice(payload.as_bytes());
            assert_eq!(encode_record(&rec), frame, "{payload}");
        }
    }

    #[test]
    fn batched_and_unsynced_fsync_policies_write_identical_bytes() {
        let p1 = tmp_path("fsync1");
        let p2 = tmp_path("fsync0");
        write_all(&p1, 1);
        write_all(&p2, 0);
        assert_eq!(
            std::fs::read(&p1).unwrap(),
            std::fs::read(&p2).unwrap(),
            "fsync policy must not change the byte stream"
        );
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn torn_tail_keeps_the_longest_valid_prefix() {
        let path = tmp_path("torn");
        write_all(&path, 1);
        let full = std::fs::read(&path).unwrap();
        // Cut mid-way through the final frame.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let r = read_journal(&path).unwrap();
        assert_eq!(r.ops, sample_ops(), "ops before the tear survive");
        assert!(r.snapshots.is_empty(), "the torn snapshot is dropped");
        assert!(r.truncated_bytes > 0);
        assert_eq!(r.valid_bytes + r.truncated_bytes, full.len() as u64 - 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_byte_stops_at_the_preceding_record() {
        let path = tmp_path("corrupt");
        write_all(&path, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let r = read_journal(&path).unwrap();
        assert!(r.ops.len() < sample_ops().len(), "flip lands mid-ops");
        assert_eq!(r.ops, sample_ops()[..r.ops.len()], "prefix is exact");
        assert!(r.truncated_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn zero_rate_faulty_io_is_byte_identical_to_std_io() {
        let p1 = tmp_path("faulty_noop");
        let p2 = tmp_path("std_ref");
        let io = FaultyIo::new(DiskFaultConfig::default());
        let mut w = JournalWriter::create_with(&p1, 1, Box::new(io.clone())).unwrap();
        w.append(&JournalRecord::Header(sample_header())).unwrap();
        for op in sample_ops() {
            w.append(&JournalRecord::Op(op)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let mut w = JournalWriter::create(&p2, 1).unwrap();
        w.append(&JournalRecord::Header(sample_header())).unwrap();
        for op in sample_ops() {
            w.append(&JournalRecord::Op(op)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        assert_eq!(io.stats().total(), 0);
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn faulty_io_schedule_is_deterministic_under_a_seed() {
        let config = DiskFaultConfig {
            seed: 1234,
            enospc_rate: 0.15,
            eio_rate: 0.15,
            torn_rate: 0.1,
            fsync_rate: 0.1,
            ..Default::default()
        };
        let run = |tag: &str| {
            let path = tmp_path(tag);
            let io = FaultyIo::new(config.clone());
            let mut w = JournalWriter::create_with(&path, 1, Box::new(io.clone())).unwrap();
            let mut outcomes = Vec::new();
            for _ in 0..64 {
                outcomes.push(w.append(&JournalRecord::Op(JournalOp::Pump)).is_ok());
            }
            drop(w);
            std::fs::remove_file(&path).ok();
            (outcomes, io.stats())
        };
        let (oa, sa) = run("det_a");
        let (ob, sb) = run("det_b");
        assert_eq!(oa, ob, "same seed, same fault schedule");
        assert_eq!(sa, sb);
        assert!(sa.total() > 0, "these rates must fire within 64 appends");
    }

    #[test]
    fn torn_write_leaves_a_replayable_prefix_and_repair_reopens() {
        let path = tmp_path("faulty_torn");
        write_all(&path, 1);
        let clean = read_journal(&path).unwrap();
        assert_eq!(clean.truncated_bytes, 0);

        // Every append through this injector tears: a strict prefix of
        // the frame lands, then the write errors.
        let torn_only = DiskFaultConfig {
            seed: 7,
            torn_rate: 1.0,
            ..Default::default()
        };
        let io = FaultyIo::new(torn_only);
        let mut w = JournalWriter::append_to_with(&path, 1, Box::new(io.clone())).unwrap();
        let err = w
            .append(&JournalRecord::Op(JournalOp::Pump))
            .expect_err("torn write must surface as an error");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(io.stats().torn, 1);

        // The file now has a torn tail; the reader still returns the
        // full pre-fault prefix, and repair truncates back to it.
        let readout = read_journal(&path).unwrap();
        assert_eq!(readout.ops, clean.ops);
        assert!(readout.truncated_bytes > 0, "the torn frame is on disk");
        let surviving = w.repair().unwrap();
        assert_eq!(surviving, clean.ops.len() as u64);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean.valid_bytes,
            "repair truncated exactly to the valid prefix"
        );
        drop(w);

        // A healthy writer appends cleanly after the repair.
        let mut w = JournalWriter::append_to_with(&path, 1, Box::new(StdIo)).unwrap();
        w.append(&JournalRecord::Op(JournalOp::Pump)).unwrap();
        drop(w);
        let readout = read_journal(&path).unwrap();
        assert_eq!(readout.ops.len(), clean.ops.len() + 1);
        assert_eq!(readout.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn enospc_and_fsync_faults_carry_their_os_errnos() {
        let path = tmp_path("faulty_errno");
        let io = FaultyIo::new(DiskFaultConfig {
            seed: 3,
            enospc_rate: 1.0,
            ..Default::default()
        });
        let mut w = JournalWriter::create_with(&path, 0, Box::new(io)).unwrap();
        let err = w
            .append(&JournalRecord::Op(JournalOp::Pump))
            .expect_err("enospc must fire");
        assert_eq!(err.raw_os_error(), Some(ENOSPC));

        let io = FaultyIo::new(DiskFaultConfig {
            seed: 3,
            fsync_rate: 1.0,
            ..Default::default()
        });
        let mut w = JournalWriter::create_with(&path, 1, Box::new(io)).unwrap();
        let err = w
            .append(&JournalRecord::Op(JournalOp::Pump))
            .expect_err("fsync fault must fire");
        assert_eq!(err.raw_os_error(), Some(EIO));
        // The frame itself landed — only durability failed — so the
        // reader still sees a valid record.
        let readout = read_journal(&path).unwrap();
        assert_eq!(readout.ops.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
