//! Crash recovery: rebuild a served campaign from its journal.
//!
//! The journal is an *op log*, not a state dump: the
//! [`crate::CampaignEngine`] is deterministic given its construction
//! inputs (dataset, approach, config/seed), so replaying the journaled
//! poll/submit/pump stream through a freshly prepared engine
//! reconstructs the exact driver, estimator, and accounting state the
//! crashed server held at its last synced record. Recovery therefore:
//!
//! 1. reads the longest valid record prefix ([`read_journal`] stops at
//!    the first torn or corrupt frame),
//! 2. verifies the header matches the campaign being recovered
//!    (format version, dataset, approach, seed, config fingerprint) —
//!    before anything is truncated, so a refused file stays as it was,
//! 3. replays every op through [`CampaignEngine::handle`] — before any
//!    journal is attached, so replay appends nothing — checking that
//!    each poll and submit is answered with the journaled
//!    `PollOutcome` or `SubmitReport` (the reply carries the driver's
//!    own value, so the two compare as they stand), and a `Pump`
//!    through the engine's one pump helper, which `STATUS` and
//!    `RESULTS` call too,
//! 4. verifies every surviving snapshot checkpoint and the marketplace
//!    conservation laws,
//! 5. truncates any torn tail off the file and reattaches an
//!    append-mode writer so serving resumes journaling where the valid
//!    prefix ended.
//!
//! Any divergence — a replayed poll assigned a different task, a
//! submit verdict flipped, a snapshot that does not match — is a hard
//! error: it means the journal was written under different code or
//! inputs, and resuming would silently fork the campaign.

use std::fs::OpenOptions;
use std::path::Path;

use icrowd_core::answer::Answer;
use icrowd_core::task::TaskId;
use icrowd_platform::journal::{
    read_journal, JournalIo, JournalOp, JournalSnapshot, JournalWriter, StdIo,
};
use icrowd_sim::campaign::{Approach, CampaignConfig};
use icrowd_sim::datasets::Dataset;

use crate::engine::{CampaignEngine, DurabilityPolicy};
use crate::protocol::{Request, Response};

/// What recovery found and did, for operator-facing summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Ops replayed from the valid prefix.
    pub ops_replayed: u64,
    /// Torn/corrupt bytes truncated off the journal tail.
    pub truncated_bytes: u64,
    /// Snapshot checkpoints verified during replay.
    pub snapshots_verified: usize,
    /// Accepted answers in the recovered campaign.
    pub answers: u64,
    /// Whether the end-state conservation laws hold.
    pub balanced: bool,
}

/// Rebuilds an engine from `path` and resumes journaling to the same
/// file on the real filesystem under the default fail-stop durability
/// policy.
///
/// # Errors
/// See [`recover_with_policy`].
pub fn recover(
    path: &Path,
    dataset_key: &str,
    dataset: Dataset,
    approach: Approach,
    config: CampaignConfig,
    fsync_every: usize,
    snapshot_every: usize,
) -> Result<(CampaignEngine, RecoveryReport), String> {
    recover_with_policy(
        path,
        dataset_key,
        dataset,
        approach,
        config,
        fsync_every,
        snapshot_every,
        DurabilityPolicy::FailStop,
        Box::new(StdIo),
    )
}

/// Rebuilds an engine from `path` and resumes journaling to the same
/// file. `dataset_key`/`approach`/`config` must describe the campaign
/// the journal was written for — they are re-derived from CLI flags,
/// and the header check refuses a mismatch. The resumed writer appends
/// through `io` (the real filesystem, or a fault injector), and
/// `policy` governs how the engine reacts to its I/O errors.
///
/// # Errors
/// Returns a description of the first inconsistency: unreadable file,
/// missing or mismatched header, replay divergence, failed snapshot
/// checkpoint, broken conservation law, or an I/O error while
/// truncating/reattaching the journal.
#[allow(clippy::too_many_arguments)]
pub fn recover_with_policy(
    path: &Path,
    dataset_key: &str,
    dataset: Dataset,
    approach: Approach,
    config: CampaignConfig,
    fsync_every: usize,
    snapshot_every: usize,
    policy: DurabilityPolicy,
    io: Box<dyn JournalIo>,
) -> Result<(CampaignEngine, RecoveryReport), String> {
    let _span = icrowd_obs::span!("recovery.replay");
    let readout =
        read_journal(path).map_err(|e| format!("cannot read journal `{}`: {e}", path.display()))?;
    let Some(header) = &readout.header else {
        return Err(format!(
            "journal `{}` has no valid header record",
            path.display()
        ));
    };
    let expected = CampaignEngine::expected_header(dataset_key, approach, &config);
    if *header != expected {
        return Err(format!(
            "journal header mismatch: journal holds format v{} {}/{} seed {} fp {:016x}, \
             but the requested campaign is format v{} {}/{} seed {} fp {:016x}",
            header.version,
            header.dataset,
            header.approach,
            header.seed,
            header.config_fp,
            expected.version,
            expected.dataset,
            expected.approach,
            expected.seed,
            expected.config_fp,
        ));
    }

    let engine = CampaignEngine::new(dataset_key, dataset, approach, config);

    // Snapshots are ordered by the op count they checkpoint; verify each
    // one as soon as that many ops have been applied.
    let mut snapshots = readout.snapshots.iter().peekable();
    let mut verified = 0usize;
    for (applied, op) in readout.ops.iter().enumerate() {
        while snapshots.peek().is_some_and(|s| s.ops as usize <= applied) {
            let snap = snapshots.next().expect("peeked");
            verify_snapshot(&engine, snap, applied)?;
            verified += 1;
        }
        apply(&engine, op).map_err(|e| format!("replay diverged at op {applied}: {e}"))?;
    }
    for snap in snapshots {
        if snap.ops as usize > readout.ops.len() {
            return Err(format!(
                "journal snapshot checkpoints {} ops but only {} survived — \
                 the file is internally inconsistent",
                snap.ops,
                readout.ops.len()
            ));
        }
        verify_snapshot(&engine, snap, readout.ops.len())?;
        verified += 1;
    }

    let (accounting, answers, _, _) = engine.checkpoint();
    if accounting.answers_accepted + accounting.answers_rejected != accounting.answers_submitted {
        icrowd_obs::counter_add("serve.invariant_violation", 1);
        return Err(format!(
            "recovered state violates the continuous conservation law: \
             accepted {} + rejected {} != submitted {}",
            accounting.answers_accepted, accounting.answers_rejected, accounting.answers_submitted
        ));
    }
    if accounting.answers_paid + accounting.answers_abandoned > accounting.answers_accepted {
        icrowd_obs::counter_add("serve.invariant_violation", 1);
        return Err(format!(
            "recovered state violates the settlement law: paid {} + abandoned {} > accepted {}",
            accounting.answers_paid, accounting.answers_abandoned, accounting.answers_accepted
        ));
    }

    // Cut the torn tail off the file so the reattached writer appends
    // directly after the last valid record.
    if readout.truncated_bytes > 0 {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| format!("cannot reopen journal for truncation: {e}"))?;
        file.set_len(readout.valid_bytes)
            .map_err(|e| format!("cannot truncate torn journal tail: {e}"))?;
        file.sync_data()
            .map_err(|e| format!("cannot sync truncated journal: {e}"))?;
    }
    let writer = JournalWriter::append_to_with(path, fsync_every, io)
        .map_err(|e| format!("cannot reattach journal writer: {e}"))?;
    engine.resume_journal(
        writer,
        snapshot_every,
        readout.ops.len() as u64,
        verified as u64,
        policy,
    );

    icrowd_obs::counter_add("recovery.ops_replayed", readout.ops.len() as u64);
    icrowd_obs::counter_add("recovery.truncated_bytes", readout.truncated_bytes);
    let report = RecoveryReport {
        ops_replayed: readout.ops.len() as u64,
        truncated_bytes: readout.truncated_bytes,
        snapshots_verified: verified,
        answers,
        balanced: accounting.balanced(),
    };
    Ok((engine, report))
}

/// Checks one snapshot checkpoint against the engine's current state.
fn verify_snapshot(
    engine: &CampaignEngine,
    snap: &JournalSnapshot,
    applied: usize,
) -> Result<(), String> {
    let (accounting, answers, end_tick, epoch) = engine.checkpoint();
    let got = (accounting, answers, end_tick, epoch);
    let want = (snap.accounting, snap.answers, snap.end_tick, snap.epoch);
    if got != want {
        return Err(format!(
            "snapshot checkpoint at op {applied} does not match replayed state: \
             journal recorded {want:?}, replay produced {got:?}"
        ));
    }
    Ok(())
}

/// Replays one journaled op through the request interface, insisting
/// the engine answers with the journaled outcome.
fn apply(engine: &CampaignEngine, op: &JournalOp) -> Result<(), String> {
    let (req, want) = match op {
        JournalOp::Poll { worker, tag } => (
            Request::RequestTask {
                worker: worker.clone(),
            },
            Response::Poll(*tag),
        ),
        JournalOp::Submit {
            worker,
            task,
            answer,
            verdict,
        } => (
            Request::SubmitAnswer {
                worker: worker.clone(),
                task: TaskId(*task),
                answer: Answer(*answer),
            },
            Response::Submit(*verdict),
        ),
        JournalOp::Pump => {
            drop(engine.pump());
            return Ok(());
        }
    };
    let got = engine.handle(&req, 0);
    if got != want {
        return Err(format!(
            "{req:?} was answered {got:?} but the journal recorded {want:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use icrowd_core::config::ICrowdConfig;
    use icrowd_platform::journal::{crc32, encode_record, JournalRecord, JOURNAL_VERSION};
    use icrowd_platform::PollOutcome;
    use icrowd_sim::campaign::MetricChoice;
    use icrowd_sim::datasets::table1;

    fn quick_config() -> CampaignConfig {
        let mut config = CampaignConfig {
            metric: MetricChoice::Jaccard,
            icrowd: ICrowdConfig {
                similarity_threshold: 0.3,
                ..Default::default()
            },
            ..Default::default()
        };
        config.icrowd.warmup.num_qualification = 3;
        config
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("icrowd_recovery_{name}_{}.bin", std::process::id()))
    }

    /// Drives part of a journaled campaign, "crashes" (drops the engine
    /// without finalizing), recovers, and checks the recovered engine
    /// continues to the same labels as an uninterrupted run.
    #[test]
    fn recover_resumes_to_identical_labels() {
        let ds = table1();
        let config = quick_config();
        let expected = icrowd_sim::campaign::run_campaign(&ds, Approach::RandomMV, &config);

        let path = tmp("resume");
        let eng = CampaignEngine::new("table1", table1(), Approach::RandomMV, config.clone());
        eng.start_journal(&path, 1, 4).unwrap();
        let workers: Vec<String> = (1..=ds.workers.len()).map(|i| format!("W{i}")).collect();
        let sims = ds.spawn_workers(config.seed);
        let mut sims: Vec<_> = sims.into_iter().map(Some).collect();

        // Drive a bounded number of rounds, then crash mid-campaign.
        let drive = |eng: &CampaignEngine, rounds: usize, sims: &mut Vec<Option<_>>| {
            for _ in 0..rounds {
                let mut live = false;
                for (i, w) in workers.iter().enumerate() {
                    let Some(sim) = sims[i].as_mut() else {
                        continue;
                    };
                    match eng.handle(&Request::RequestTask { worker: w.clone() }, 0) {
                        Response::Poll(PollOutcome::Assigned(task)) => {
                            live = true;
                            let answer = icrowd_platform::market::WorkerBehavior::answer(
                                sim,
                                &ds.tasks[task],
                            );
                            eng.handle(
                                &Request::SubmitAnswer {
                                    worker: w.clone(),
                                    task,
                                    answer,
                                },
                                0,
                            );
                        }
                        Response::Poll(
                            PollOutcome::Wait | PollOutcome::Declined { retry: true },
                        ) => live = true,
                        _ => sims[i] = None,
                    }
                }
                if !live {
                    return false;
                }
            }
            true
        };
        assert!(
            drive(&eng, 3, &mut sims),
            "campaign ended before the crash point"
        );
        drop(eng); // crash: no finalize, journal synced per-record

        let (recovered, report) = recover(
            &path,
            "table1",
            table1(),
            Approach::RandomMV,
            config.clone(),
            1,
            4,
        )
        .expect("recovery failed");
        assert!(report.ops_replayed > 0);
        assert_eq!(report.truncated_bytes, 0);
        assert!(report.balanced || report.ops_replayed > 0);

        // NOTE: worker RNGs in `sims` carry over from before the crash —
        // exactly what the real loadgen's answer memoization preserves.
        while drive(&recovered, 1, &mut sims) {}
        let labels = recovered.labels();
        assert_eq!(
            labels,
            icrowd_sim::campaign::labels_lines(&expected.labels),
            "recovered campaign diverged from the uninterrupted baseline"
        );
        let result = recovered.finalize();
        assert!(result.accounting.balanced());
        std::fs::remove_file(&path).ok();
    }

    /// A journal written for one seed must not recover under another.
    #[test]
    fn recover_rejects_mismatched_config() {
        let path = tmp("mismatch");
        let config = quick_config();
        let eng = CampaignEngine::new("table1", table1(), Approach::RandomMV, config.clone());
        eng.start_journal(&path, 1, 0).unwrap();
        eng.handle(
            &Request::RequestTask {
                worker: "W1".into(),
            },
            0,
        );
        drop(eng);

        let mut other = config;
        other.seed = 7;
        match recover(&path, "table1", table1(), Approach::RandomMV, other, 1, 0) {
            Err(err) => assert!(err.contains("header mismatch"), "{err}"),
            Ok(_) => panic!("mismatched seed must be refused"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// A format-1 journal (which may hold a compaction `batch` frame the
    /// current reader no longer knows) is refused at the header check,
    /// naming both versions, and left byte for byte as it was.
    #[test]
    fn recovery_refuses_a_v1_journal_and_leaves_it_intact() {
        let path = tmp("v1");
        let mut header =
            CampaignEngine::expected_header("table1", Approach::RandomMV, &quick_config());
        header.version = 1;
        let mut bytes = encode_record(&JournalRecord::Header(header));
        let batch = br#"{"t":"batch","ops":[{"t":"poll","w":"W1","o":"wait"},{"t":"pump"}]}"#;
        bytes.extend((batch.len() as u32).to_le_bytes());
        bytes.extend(crc32(batch).to_le_bytes());
        bytes.extend(batch);
        std::fs::write(&path, &bytes).unwrap();

        let err = recover(
            &path,
            "table1",
            table1(),
            Approach::RandomMV,
            quick_config(),
            1,
            0,
        )
        .err()
        .expect("a version-1 journal must be refused");
        let v2 = format!("format v{JOURNAL_VERSION}");
        assert!(err.contains("format v1") && err.contains(&v2), "{err}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "a refused journal was modified"
        );
        std::fs::remove_file(&path).ok();
    }
}
