//! The durability policy state machine under a faulty disk: a journal
//! hit by ENOSPC, EIO, torn writes, fsync failures and open failures
//! must leave the server policy-conformant, the books balanced, and the
//! surviving journal file a valid replayable prefix, for every policy
//! and every fault schedule — and whenever the server still claimed
//! durability at the end, recovery must reproduce the baseline labels.
//!
//! Two drivers share one check: five named schedules × the three
//! policies, and a property test over random schedules.

use icrowd::core::ICrowdConfig;
use icrowd_platform::market::WorkerBehavior;
use icrowd_platform::{read_journal, DiskFaultConfig, FaultyIo, PollOutcome, StdIo};
use icrowd_serve::protocol::{Request, Response};
use icrowd_serve::{recover_with_policy, CampaignEngine, DurabilityPolicy};
use icrowd_sim::campaign::{labels_lines, run_campaign, Approach, CampaignConfig, MetricChoice};
use icrowd_sim::datasets::{table1, Dataset};
use proptest::prelude::*;

const POLICIES: [DurabilityPolicy; 3] = [
    DurabilityPolicy::FailStop,
    DurabilityPolicy::Degrade,
    DurabilityPolicy::Retry,
];

fn config() -> CampaignConfig {
    let mut icrowd = ICrowdConfig {
        assignment_size: 3,
        similarity_threshold: 0.3,
        ..Default::default()
    };
    icrowd.warmup.num_qualification = 3;
    CampaignConfig {
        seed: 42,
        icrowd,
        metric: MetricChoice::Jaccard,
        ..Default::default()
    }
}

fn baseline() -> String {
    labels_lines(&run_campaign(&table1(), Approach::RandomMV, &config()).labels)
}

/// Drives the campaign through the request interface until it completes
/// or the fail-stop drain refuses a mutation.
fn drive_to_end(eng: &CampaignEngine, dataset: &Dataset, seed: u64) {
    let workers: Vec<String> = (1..=dataset.workers.len())
        .map(|i| format!("W{i}"))
        .collect();
    let mut sims: Vec<_> = dataset.spawn_workers(seed).into_iter().map(Some).collect();
    let mut live = workers.len();
    let mut guard = 0u32;
    while live > 0 {
        guard += 1;
        assert!(guard < 1_000_000, "campaign livelocked");
        for (i, w) in workers.iter().enumerate() {
            let Some(sim) = sims[i].as_mut() else {
                continue;
            };
            match eng.handle(&Request::RequestTask { worker: w.clone() }, 0) {
                Response::Poll(PollOutcome::Assigned(task)) => {
                    let answer = WorkerBehavior::answer(sim, &dataset.tasks[task]);
                    eng.handle(
                        &Request::SubmitAnswer {
                            worker: w.clone(),
                            task,
                            answer,
                        },
                        0,
                    );
                }
                Response::Poll(PollOutcome::Wait | PollOutcome::Declined { retry: true }) => {}
                Response::Poll(PollOutcome::Left | PollOutcome::Declined { retry: false }) => {
                    sims[i] = None;
                    live -= 1;
                }
                Response::Error { .. } => return,
                other => panic!("unexpected poll response {other:?}"),
            }
        }
    }
}

/// How one journaled run ended.
struct Cell {
    /// Disk faults the `FaultyIo` injected.
    injected: u64,
    /// Every task reached consensus.
    complete: bool,
    /// The journal never left the attached state and no accepted
    /// mutation went unjournaled: the server still claimed durability.
    durable: bool,
}

/// Runs the campaign with its journal on a `FaultyIo` (fault seeds
/// scanned up from `seed` until the header write survives, so faults
/// land on live mutations) and checks the policy contract, balanced
/// books live and recovered, the journal invariant, and label parity
/// whenever durability was claimed.
fn run_cell(
    name: &str,
    mut fault_config: DiskFaultConfig,
    seed: u64,
    policy: DurabilityPolicy,
    baseline: &str,
) -> Cell {
    let cell = format!("{name}/{}", policy.name());
    let dataset = table1();
    let path = std::env::temp_dir().join(format!(
        "icrowd_durability_{name}_{}_{}.bin",
        policy.name(),
        std::process::id()
    ));
    let (eng, io) = 'scan: {
        for s in seed..seed + 1_000 {
            fault_config.seed = s;
            let io = FaultyIo::new(fault_config.clone());
            let eng = CampaignEngine::new("table1", table1(), Approach::RandomMV, config());
            if eng
                .start_journal_with(&path, 1, 8, policy, Box::new(io.clone()))
                .is_ok()
            {
                break 'scan (eng, io);
            }
            std::fs::remove_file(&path).ok();
        }
        panic!("no seed admitted a clean header write at {cell}");
    };
    let probe = eng.durability();
    drive_to_end(&eng, &dataset, config().seed);

    let (complete, balanced) = match eng.handle(&Request::Status, 0) {
        Response::Status {
            complete, balanced, ..
        } => (complete, balanced),
        other => panic!("unexpected STATUS {other:?}"),
    };
    let health = eng.journal_health().expect("journaled engine");
    match policy {
        DurabilityPolicy::FailStop => {
            assert!(!probe.degraded(), "fail-stop degraded at {cell}");
            if probe.fail_stopped() {
                assert_eq!(health.state, "fail-stop", "at {cell}");
                let refusal = eng.handle(
                    &Request::RequestTask {
                        worker: "W1".into(),
                    },
                    0,
                );
                assert!(
                    matches!(refusal, Response::Error { .. }),
                    "fail-stopped server served a mutation at {cell}: {refusal:?}"
                );
            } else {
                assert_eq!(health.state, "attached", "at {cell}");
            }
        }
        DurabilityPolicy::Degrade => {
            assert!(!probe.fail_stopped(), "degrade fail-stopped at {cell}");
            assert!(complete, "degrade stopped serving at {cell}");
            let expected = if probe.degraded() {
                "degraded"
            } else {
                "attached"
            };
            assert_eq!(health.state, expected, "at {cell}");
        }
        DurabilityPolicy::Retry => {
            assert!(!probe.fail_stopped(), "retry fail-stopped at {cell}");
            assert!(complete, "retry stopped serving at {cell}");
            assert!(
                matches!(health.state, "attached" | "retrying" | "degraded"),
                "unexpected retry state {} at {cell}",
                health.state
            );
        }
    }
    assert!(balanced, "STATUS unbalanced at {cell}");
    // Accepted-but-unjournaled work is only ever admitted once the
    // journal has left the attached state.
    if health.unjournaled > 0 {
        assert!(
            health.state != "attached" || health.pending > 0,
            "unjournaled ops while attached with nothing pending at {cell}"
        );
    }
    let durable = health.state == "attached" && health.unjournaled == 0 && health.pending == 0;
    let labels = eng.labels();
    assert!(
        eng.finalize().accounting.balanced(),
        "live accounting unbalanced at {cell}"
    );

    // Whatever the faults did, the file on disk is a valid replayable
    // prefix: raw read tolerates a torn tail, and full recovery (replay
    // + snapshot verification + conservation laws) succeeds. A
    // mid-campaign prefix may fail the settlement law (in-flight
    // answers are not yet paid or abandoned); finalizing balances it.
    let readout = read_journal(&path).expect("journal file readable");
    assert!(
        readout.header.is_some(),
        "journal lost its header at {cell}"
    );
    let (recovered, _) = recover_with_policy(
        &path,
        "table1",
        table1(),
        Approach::RandomMV,
        config(),
        1,
        8,
        policy,
        Box::new(StdIo),
    )
    .unwrap_or_else(|e| panic!("recovery failed at {cell}: {e}"));
    // Whenever durability was claimed, the journal is the whole truth.
    if durable && complete {
        assert_eq!(labels, baseline, "live labels diverged at {cell}");
        assert_eq!(
            recovered.labels(),
            baseline,
            "recovered labels diverged at {cell}"
        );
    }
    assert!(
        recovered.finalize().accounting.balanced(),
        "finalized recovered state unbalanced at {cell}"
    );
    std::fs::remove_file(&path).ok();
    Cell {
        injected: io.stats().total(),
        complete,
        durable,
    }
}

/// Five named schedules × every policy. Every cell takes a fault, and at
/// these rates the retry policy always reattaches: every retry cell ends
/// attached, durable and label-identical.
#[test]
fn named_fault_schedules_hold_every_policy_contract() {
    let schedules = [
        (
            "enospc",
            DiskFaultConfig {
                enospc_rate: 0.02,
                ..Default::default()
            },
        ),
        (
            "eio",
            DiskFaultConfig {
                eio_rate: 0.02,
                ..Default::default()
            },
        ),
        (
            "torn",
            DiskFaultConfig {
                torn_rate: 0.02,
                ..Default::default()
            },
        ),
        (
            "fsync",
            DiskFaultConfig {
                fsync_rate: 0.05,
                ..Default::default()
            },
        ),
        (
            "mixed",
            DiskFaultConfig {
                enospc_rate: 0.01,
                eio_rate: 0.01,
                torn_rate: 0.01,
                fsync_rate: 0.02,
                open_rate: 0.01,
                ..Default::default()
            },
        ),
    ];
    let baseline = baseline();
    for (name, fault_config) in schedules {
        for policy in POLICIES {
            let cell = run_cell(name, fault_config.clone(), 0, policy, &baseline);
            assert!(cell.injected > 0, "no fault landed at {name}");
            if policy == DurabilityPolicy::Retry {
                assert!(
                    cell.complete && cell.durable,
                    "retry lost durability at {name}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// Any fault schedule × any policy keeps every contract.
    #[test]
    fn random_fault_schedules_keep_the_journal_replayable(
        seed in 0u64..10_000,
        enospc in 0.0f64..0.05,
        eio in 0.0f64..0.05,
        torn in 0.0f64..0.05,
        fsync in 0.0f64..0.08,
        open in 0.0f64..0.02,
        policy_idx in 0u8..3,
    ) {
        let fault_config = DiskFaultConfig {
            enospc_rate: enospc,
            eio_rate: eio,
            torn_rate: torn,
            fsync_rate: fsync,
            open_rate: open,
            ..Default::default()
        };
        let name = format!("prop{seed}");
        run_cell(&name, fault_config, seed, POLICIES[policy_idx as usize], &baseline());
    }
}
