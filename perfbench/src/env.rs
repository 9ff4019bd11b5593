//! The environment stamp printed with every result, so that numbers
//! from another machine or setting are never compared silently, and the
//! process's peak resident set.

use std::fs;
use std::path::{Path, PathBuf};

/// Where a run executed and on what.
pub struct Stamp {
    pub online_cpus: usize,
    pub affinity: String,
    pub journal_fs: String,
    pub commit: String,
    pub source_fp: String,
}

impl Stamp {
    /// Reads the stamp; `work_dir` is where journals are written and
    /// `root` is the checkout root the program was built from.
    pub fn read(work_dir: &Path, root: &Path) -> Stamp {
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        let affinity = status_field(&status, "Cpus_allowed_list:").unwrap_or("?");
        let online_cpus = fs::read_to_string("/proc/cpuinfo")
            .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
            .unwrap_or(0);
        Stamp {
            online_cpus,
            affinity: affinity.to_owned(),
            journal_fs: fs_type(work_dir).unwrap_or_else(|| "?".to_owned()),
            commit: git_commit(root).unwrap_or_else(|| "none".to_owned()),
            source_fp: format!("{:016x}", source_fingerprint(root)),
        }
    }

    pub fn line(&self, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
        format!(
            "# env workload={workload} seed={seed} seconds={seconds} trace={} online_cpus={} \
             cpu_affinity={} usable_cpus={} journal_fs={} journal_device_flush=skipped commit={} \
             source_fp={}",
            u8::from(trace),
            self.online_cpus,
            self.affinity,
            std::thread::available_parallelism().map_or(0, usize::from),
            self.journal_fs,
            self.commit,
            self.source_fp,
        )
    }
}

fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(str::trim)
}

fn status_mb(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, key)
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    /// glibc: returns the heap's free pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Resets the process's peak resident set to the current one, so that
/// [`peak_rss_mb`] covers what runs next. The heap's free pages go back
/// to the kernel first, so that memory an earlier campaign or its
/// correctness check freed does not count toward the next campaign's
/// peak. Where the kernel refuses the reset, the peak covers the whole
/// process so far.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` takes no pointers and releases only memory
    // that no allocation holds; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// The filesystem type of the mount holding `dir` (longest matching
/// mount point in `/proc/self/mounts`).
fn fs_type(dir: &Path) -> Option<String> {
    let dir = fs::canonicalize(dir).ok()?;
    let mounts = fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind)
}

/// The checked-out commit, when `root` is a git work tree.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_owned)
}

/// FNV-1a over the program's sources (`Cargo.lock` and every file under
/// `crates/`, in path order): identifies the code measured when the
/// checkout carries no git metadata.
fn source_fingerprint(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = fs::read(f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}
