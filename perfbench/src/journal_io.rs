//! The journal's filesystem in the served runs.
//!
//! Journal files are real files in the benchmark's work directory inside
//! the checkout, written through the program's own `JournalWriter`.
//! The one departure from `StdIo` is that `sync` and `sync_dir` skip the
//! device flush (`fdatasync`), as on a RAM-backed filesystem, where it
//! returns at once. Every `sync` call the writer makes still happens and
//! is counted; what is left out is the disk's latency, which on a shared
//! virtual disk swings by tens of percent between runs and is out of
//! scope here.
//!
//! In a traced run the same I/O also times every `write_all` and `sync`,
//! counts bytes, and times each compaction from its tmp-file `create` to
//! the `rename` that commits it.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use icrowd_platform::journal::{JournalFile, JournalIo};

use crate::stats::Samples;
use crate::trace::{now_ns, Trace};

/// Journal I/O as a traced run sees it.
#[derive(Debug, Default)]
pub struct JournalTimes {
    pub spans: Trace,
    pub write_us: Samples,
    pub bytes: u64,
    pub sync_us: Samples,
    pub compact_ms: Samples,
    /// Total time inside `write_all` and `sync`.
    pub io_ns: u64,
    compact_start: Option<u64>,
}

pub type JournalLog = Arc<Mutex<JournalTimes>>;

pub fn with_log<R>(log: &JournalLog, f: impl FnOnce(&mut JournalTimes) -> R) -> R {
    f(&mut log.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Real files with the device flush skipped; timed when `log` is set.
pub struct BenchIo {
    pub log: Option<JournalLog>,
}

struct BenchFile {
    file: File,
    log: Option<JournalLog>,
}

/// What a timed file operation was.
enum FileOp {
    Write(usize),
    Sync,
}

impl BenchFile {
    fn timed(&mut self, op: FileOp, f: impl FnOnce(&mut File) -> io::Result<()>) -> io::Result<()> {
        let Some(log) = &self.log else {
            return f(&mut self.file);
        };
        let s = now_ns();
        let r = f(&mut self.file);
        let e = now_ns();
        with_log(log, |t| {
            let us = (e - s) as f64 / 1e3;
            match op {
                FileOp::Write(bytes) => {
                    t.spans.push("journal.write_all", "", 0, s, e);
                    t.write_us.push(us);
                    t.bytes += bytes as u64;
                }
                FileOp::Sync => {
                    t.spans.push("journal.sync", "", 0, s, e);
                    t.sync_us.push(us);
                }
            }
            t.io_ns += e - s;
        });
        r
    }
}

impl JournalFile for BenchFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.timed(FileOp::Write(buf.len()), |f| f.write_all(buf))
    }

    fn sync(&mut self) -> io::Result<()> {
        self.timed(FileOp::Sync, File::flush)
    }
}

impl BenchIo {
    fn wrap(&self, file: io::Result<File>) -> io::Result<Box<dyn JournalFile>> {
        Ok(Box::new(BenchFile {
            file: file?,
            log: self.log.clone(),
        }))
    }
}

impl JournalIo for BenchIo {
    fn create(&mut self, path: &Path) -> io::Result<Box<dyn JournalFile>> {
        // The writer creates exactly one kind of extra file: the
        // compaction's tmp copy.
        if let (Some(log), true) = (&self.log, path.extension().is_some_and(|e| e == "tmp")) {
            with_log(log, |t| t.compact_start = Some(now_ns()));
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path);
        self.wrap(file)
    }

    fn open_append(&mut self, path: &Path) -> io::Result<Box<dyn JournalFile>> {
        let file = OpenOptions::new().append(true).open(path);
        self.wrap(file)
    }

    fn set_len(&mut self, path: &Path, len: u64) -> io::Result<()> {
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        let r = std::fs::rename(from, to);
        if let Some(log) = &self.log {
            let e = now_ns();
            with_log(log, |t| {
                if let Some(s) = t.compact_start.take() {
                    t.spans.push("journal.compact", "", 0, s, e);
                    t.compact_ms.push((e - s) as f64 / 1e6);
                }
            });
        }
        r
    }

    fn sync_dir(&mut self, _dir: &Path) {}
}
