//! Library-level integration of the CLI command surface (the same code
//! path `icrowd <cmd>` runs; the binary itself is a three-line shim).

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpListener;
use std::thread::JoinHandle;

use icrowd_cli::{run, Args};
use icrowd_serve::protocol::Request;

fn run_line(line: &str) -> Result<String, icrowd_cli::CliError> {
    run(&Args::parse(line.split_whitespace().map(str::to_owned)).unwrap())
}

/// A stub server for one loadgen run: HELLO announces table1, every
/// REQUEST_TASK is answered `left`, and STATUS reports the campaign
/// complete and finished with books `balanced` or not. It returns after
/// SHUTDOWN.
fn stub_server(balanced: bool) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let stream = stream.unwrap();
            let mut writer = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let (req, _) = Request::parse_with_trace(&line.unwrap()).unwrap();
                let reply = match req {
                    Request::Hello => r#"{"ok":true,"type":"hello","dataset":"table1","seed":1}"#,
                    Request::RequestTask { .. } => r#"{"ok":true,"type":"left"}"#,
                    Request::Status if balanced => {
                        r#"{"ok":true,"type":"status","complete":true,"finished":true,"balanced":true}"#
                    }
                    Request::Status => {
                        r#"{"ok":true,"type":"status","complete":true,"finished":true,"balanced":false}"#
                    }
                    Request::Results => r#"{"ok":true,"type":"results","labels":""}"#,
                    Request::Shutdown => {
                        writeln!(writer, r#"{{"ok":true,"type":"bye"}}"#).unwrap();
                        return;
                    }
                    other => panic!("the loadgen sent {other:?}"),
                };
                writeln!(writer, "{reply}").unwrap();
            }
        }
    });
    (addr, server)
}

/// `icrowd loadgen` exits nonzero (the CLI returns an error) when the
/// final STATUS reports unbalanced books, and zero when it does not.
#[test]
fn loadgen_fails_when_the_final_status_is_unbalanced() {
    for balanced in [true, false] {
        let (addr, server) = stub_server(balanced);
        let out = run_line(&format!("loadgen --addr {addr} --workers 1"));
        match &out {
            Ok(text) => assert!(balanced && text.contains("balanced: true"), "{text}"),
            Err(e) => assert!(!balanced && e.0.contains("unbalanced books"), "{}", e.0),
        }
        server
            .join()
            .expect("the stub server saw the loadgen through");
    }
}

/// `icrowd obs report` refuses a line nested past the parser's depth
/// cap with an error naming the line, instead of overflowing its stack.
#[test]
fn obs_report_names_a_line_nested_too_deep() {
    let path = std::env::temp_dir().join(format!("icrowd_cli_deep_{}.jsonl", std::process::id()));
    let depth = 100_000;
    let deep = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    std::fs::write(&path, format!("{{\"type\":\"counter\"}}\n{deep}\n")).unwrap();
    let err = run_line(&format!("obs report {}", path.display())).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        err.0.contains("line 2:") && err.0.contains("256"),
        "{}",
        err.0
    );
}

#[test]
fn compare_on_table1_lists_all_approaches() {
    let out = run_line("compare --dataset table1 --q 3 --threshold 0.4").unwrap();
    for name in ["RandomMV", "RandomEM", "AvgAccPV", "iCrowd"] {
        assert!(out.contains(name), "missing {name}: {out}");
    }
}

#[test]
fn campaign_json_has_the_full_result_schema() {
    let out = run_line(
        "campaign --dataset quiz --approach icrowd --q 4 --threshold 0.2 --metric cos-tfidf --json",
    )
    .unwrap();
    let v: serde_json::Value = serde_json::from_str(&out).unwrap();
    for key in [
        "dataset",
        "approach",
        "overall_accuracy",
        "per_domain",
        "answers",
        "spend_cents",
        "gold_tasks",
        "elapsed_ms",
    ] {
        assert!(!v[key].is_null(), "missing key {key}");
    }
    assert_eq!(v["dataset"], "Quiz");
}

#[test]
fn quals_strategy_switch_changes_selection() {
    let inf = run_line("quals --dataset yahooqa --q 6").unwrap();
    let rand = run_line("quals --dataset yahooqa --q 6 --strategy random").unwrap();
    assert!(inf.contains("InfQF"));
    assert!(rand.contains("RamdomQF"));
    assert_ne!(inf, rand, "the two strategies pick different tasks");
}
