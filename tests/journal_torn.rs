//! Torn-tail property tests for the campaign journal: truncating or
//! corrupting the file at *any* byte offset must never panic the
//! reader, and what survives must be exactly the longest valid prefix
//! of the records that were written — ops and the snapshot checkpoints
//! interleaved with them alike, since the append-only journal keeps
//! every checkpoint where it was written.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use icrowd_core::task::TaskId;
use icrowd_platform::journal::{fingerprint, JournalReadout, JournalSnapshot, JOURNAL_VERSION};
use icrowd_platform::{
    read_journal, JournalHeader, JournalOp, JournalRecord, JournalWriter, MarketAccounting,
    PollOutcome, RejectReason, SubmitOutcome, SubmitReport,
};
use proptest::prelude::*;

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmp_path() -> PathBuf {
    std::env::temp_dir().join(format!(
        "icrowd_journal_torn_{}_{}.bin",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn header() -> JournalHeader {
    JournalHeader {
        version: JOURNAL_VERSION,
        dataset: "table1".into(),
        approach: "RandomMV".into(),
        seed: 42,
        config_fp: fingerprint("torn-test"),
    }
}

/// Decodes generated tuples into records in write order (the selector
/// picks the variant; kind 4 is a snapshot checkpoint of the ops so far).
fn build_records(raw: Vec<(u8, u32, u32, u8)>) -> Vec<JournalRecord> {
    let mut ops = 0u64;
    let mut records = Vec::with_capacity(raw.len());
    for (kind, wi, task, answer) in raw {
        let worker = format!("W{}", wi + 1);
        let op = match kind {
            0 => JournalOp::Poll {
                worker,
                tag: PollOutcome::Assigned(TaskId(task)),
            },
            1 => JournalOp::Poll {
                worker,
                tag: PollOutcome::Declined { retry: true },
            },
            2 => JournalOp::Submit {
                worker,
                task,
                answer,
                verdict: if answer == 0 {
                    SubmitReport::Delivered(SubmitOutcome::Accepted)
                } else {
                    SubmitReport::Delivered(SubmitOutcome::Rejected(RejectReason::Duplicate))
                },
            },
            3 => JournalOp::Pump,
            _ => {
                records.push(JournalRecord::Snapshot(JournalSnapshot {
                    ops,
                    answers: u64::from(task),
                    accounting: MarketAccounting {
                        answers_accepted: u64::from(task),
                        ..Default::default()
                    },
                    end_tick: u64::from(wi),
                    epoch: ops,
                }));
                continue;
            }
        };
        records.push(JournalRecord::Op(op));
        ops += 1;
    }
    records
}

/// Writes the header and `records` to a fresh journal; returns its path.
fn write_journal(records: &[JournalRecord]) -> PathBuf {
    let path = tmp_path();
    let mut w = JournalWriter::create(&path, 0).unwrap();
    w.append(&JournalRecord::Header(header())).unwrap();
    for rec in records {
        w.append(rec).unwrap();
    }
    drop(w);
    path
}

/// The surviving ops and snapshots are exactly the first `n` records
/// written, in their write order, for some `n`.
fn assert_record_prefix(r: &JournalReadout, records: &[JournalRecord]) {
    let n = r.ops.len() + r.snapshots.len();
    assert!(n <= records.len());
    let (mut ops, mut snapshots) = (Vec::new(), Vec::new());
    for rec in &records[..n] {
        match rec {
            JournalRecord::Op(op) => ops.push(op.clone()),
            JournalRecord::Snapshot(s) => snapshots.push(*s),
            JournalRecord::Header(_) => unreachable!("records hold no header"),
        }
    }
    assert_eq!(r.ops, ops, "op prefix must be exact");
    assert_eq!(r.snapshots, snapshots, "snapshot prefix must be exact");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncation at any offset keeps a clean prefix: the reader never
    /// panics, the surviving ops and snapshots are the records
    /// originally written at those positions, and valid + truncated
    /// bytes cover the whole file.
    #[test]
    fn truncation_at_any_offset_keeps_the_longest_valid_prefix(
        raw in proptest::collection::vec((0u8..5, 0u32..16, 0u32..64, 0u8..4), 1..40),
        cut in 0usize..4096,
    ) {
        let records = build_records(raw);
        let path = write_journal(&records);

        let full = std::fs::read(&path).unwrap();
        let cut = cut % (full.len() + 1);
        std::fs::write(&path, &full[..cut]).unwrap();

        let r = read_journal(&path).unwrap();
        assert_record_prefix(&r, &records);
        prop_assert_eq!(r.valid_bytes + r.truncated_bytes, cut as u64);
        if cut == full.len() {
            prop_assert_eq!(r.header.as_ref(), Some(&header()));
            prop_assert_eq!(r.ops.len() + r.snapshots.len(), records.len());
            prop_assert_eq!(r.truncated_bytes, 0);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Flipping any byte anywhere in the file never panics the reader,
    /// and the ops and snapshots that survive are still an exact
    /// positional prefix — the CRC catches the damage at or before the
    /// flipped record.
    #[test]
    fn corruption_at_any_offset_never_panics_and_keeps_a_prefix(
        raw in proptest::collection::vec((0u8..5, 0u32..16, 0u32..64, 0u8..4), 1..40),
        at in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let records = build_records(raw);
        let path = write_journal(&records);

        let mut bytes = std::fs::read(&path).unwrap();
        let at = at % bytes.len();
        bytes[at] ^= flip;
        std::fs::write(&path, &bytes).unwrap();

        let r = read_journal(&path).unwrap();
        assert_record_prefix(&r, &records);
        prop_assert!(r.valid_bytes + r.truncated_bytes == bytes.len() as u64);
        std::fs::remove_file(&path).ok();
    }
}
