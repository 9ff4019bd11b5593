//! `Request::parse_with_trace` scans a request line once and builds the
//! request without a JSON tree. This test holds it to the reference it
//! replaced: the vendored `serde_json` tree parse followed by
//! `Value::get` lookups. For every line both must return the same
//! request, the same trace id, or the same error string.
//!
//! The generated lines cover every op with its members in random
//! order; whitespace between tokens and Unicode whitespace around the
//! line; escapes, surrogate pairs and broken escapes; duplicate and
//! extra keys, extra ones carrying nested arrays and objects; integers,
//! negatives, floats, exponents, leading zeros and values past `u32`
//! and `u64`; members of the wrong type; valid JSON that is not an
//! object; and truncations and single-character edits of all of these.
//!
//! `cargo test --release --test request_parse_parity -- --ignored` runs
//! the soak, 100 times the tier-1 cases.

use icrowd_core::answer::Answer;
use icrowd_core::task::TaskId;
use icrowd_serve::protocol::Request;
use proptest::prelude::*;
use proptest::TestRng;
use serde_json::Value;

/// Generated lines per tier-1 run.
const CASES: u32 = 4_000;

/// The parser this codec replaced, kept verbatim as the reference.
fn reference(line: &str) -> Result<(Request, Option<u64>), String> {
    let v: Value = serde_json::from_str(line.trim()).map_err(|_| "malformed JSON".to_owned())?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing \"op\"".to_owned())?;
    let trace = v.get("trace").and_then(Value::as_u64).filter(|&t| t != 0);
    let req = match op {
        "HELLO" => Request::Hello,
        "REQUEST_TASK" => Request::RequestTask {
            worker: str_field(&v, "worker")?,
        },
        "SUBMIT_ANSWER" => Request::SubmitAnswer {
            worker: str_field(&v, "worker")?,
            task: TaskId(
                u32::try_from(u64_field(&v, "task")?)
                    .map_err(|_| "\"task\" out of range".to_owned())?,
            ),
            answer: Answer(
                u8::try_from(u64_field(&v, "answer")?)
                    .map_err(|_| "\"answer\" out of range".to_owned())?,
            ),
        },
        "STATUS" => Request::Status,
        "RESULTS" => Request::Results,
        "METRICS" => Request::Metrics,
        "SHUTDOWN" => Request::Shutdown,
        other => return Err(format!("unknown op `{other}`")),
    };
    Ok((req, trace))
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field \"{key}\""))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing numeric field \"{key}\""))
}

fn assert_parity(line: &str) {
    assert_eq!(
        Request::parse_with_trace(line),
        reference(line),
        "line {line:?}"
    );
}

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

fn chance(rng: &mut TestRng, percent: u64) -> bool {
    rng.below(100) < percent
}

/// Whitespace between tokens: mostly none, as clients send it.
fn ws(rng: &mut TestRng) -> &'static str {
    if chance(rng, 75) {
        ""
    } else {
        pick(rng, &[" ", "  ", "\t", "\n", "\r\n", " \t "])
    }
}

/// Every op, the two that carry members weighted up.
const OPS: &[&str] = &[
    "HELLO",
    "REQUEST_TASK",
    "REQUEST_TASK",
    "REQUEST_TASK",
    "SUBMIT_ANSWER",
    "SUBMIT_ANSWER",
    "SUBMIT_ANSWER",
    "STATUS",
    "RESULTS",
    "METRICS",
    "SHUTDOWN",
];

/// A piece of string content: plain text, escapes (surrogate pairs and
/// the stub's `+` hex quirk included), and raw non-ASCII or control
/// characters.
const STRING_PIECES: &[&str] = &[
    "W",
    "W1",
    "7",
    "abc",
    "REQUEST_TASK",
    "é",
    "😀",
    "中",
    "\u{1}",
    "\t",
    " ",
    "\\\"",
    "\\\\",
    "\\/",
    "\\n",
    "\\r",
    "\\t",
    "\\b",
    "\\f",
    "\\u0057",
    "\\u0031",
    "\\u00e9",
    "\\u00E9",
    "\\u4e2d",
    "\\u0000",
    "\\u+041",
    "\\ud83d\\ude00",
    "\\uD83D\\uDE00",
    "\\ud83d\\u0041",
];

/// Escapes the tree parser refuses.
const BROKEN_ESCAPES: &[&str] = &[
    "\\ud83d", "\\ude00", "\\u12", "\\uzzzz", "\\u-041", "\\x", "\\",
];

fn string_token(rng: &mut TestRng) -> String {
    let mut s = String::from("\"");
    for _ in 0..rng.below(4) {
        let pieces = if chance(rng, 3) {
            BROKEN_ESCAPES
        } else {
            STRING_PIECES
        };
        s.push_str(pick(rng, pieces));
    }
    s.push('"');
    s
}

/// A number token, typed as the tree parser types it: integers and
/// integral floats of every size, and now and then one it refuses.
fn number_token(rng: &mut TestRng) -> String {
    if chance(rng, 30) {
        let len = 1 + rng.below(22);
        let mut s = String::new();
        if chance(rng, 20) {
            s.push('-');
        }
        for _ in 0..len {
            s.push(char::from(b'0' + rng.below(10) as u8));
        }
        return s;
    }
    if chance(rng, 5) {
        return pick(rng, &["-", "--1", "1-2", "1e", "1..2", "0x10", "1+"]).to_owned();
    }
    pick(
        rng,
        &[
            "0",
            "1",
            "7",
            "007",
            "-0",
            "-1",
            "-7",
            "1.0",
            "7.0",
            "1.5",
            "0.0",
            "-0.0",
            "1e2",
            "1E2",
            "1e+2",
            "1e-2",
            "2.5e1",
            "1.",
            "255",
            "256",
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "1e19",
            "1e20",
            "1e400",
            "-9223372036854775808",
            "-9223372036854775809",
        ],
    )
    .to_owned()
}

/// A value of any type; containers nest up to `depth` more levels.
fn value_token(rng: &mut TestRng, depth: u32) -> String {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.below(kinds) {
        0 => string_token(rng),
        1 => number_token(rng),
        2 => pick(rng, &["null", "true", "false", "null", "true", "nul"]).to_owned(),
        3 => number_token(rng),
        4 => string_token(rng),
        5 => {
            let mut s = String::from("[");
            s.push_str(ws(rng));
            let n = rng.below(4);
            for i in 0..n {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(ws(rng));
                s.push_str(&value_token(rng, depth - 1));
                s.push_str(ws(rng));
            }
            s.push(']');
            s
        }
        _ => {
            let mut s = String::from("{");
            s.push_str(ws(rng));
            let n = rng.below(4);
            for i in 0..n {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(ws(rng));
                s.push_str(&key_token(rng));
                s.push_str(ws(rng));
                s.push(':');
                s.push_str(ws(rng));
                s.push_str(&value_token(rng, depth - 1));
                s.push_str(ws(rng));
            }
            s.push('}');
            s
        }
    }
}

/// A member key: the ones the parser reads, escaped spellings of them,
/// near misses, and unrelated keys.
fn key_token(rng: &mut TestRng) -> String {
    if chance(rng, 15) {
        return string_token(rng);
    }
    let key = pick(
        rng,
        &[
            "op",
            "worker",
            "task",
            "answer",
            "trace",
            "o\\u0070",
            "\\u006fp",
            "wor\\u006ber",
            "t\\u0061sk",
            "Op",
            "op ",
            "workers",
            "extra",
            "",
            "nested",
        ],
    );
    format!("\"{key}\"")
}

/// A value for `key`: mostly the right type, sometimes not.
fn member_value(rng: &mut TestRng, key: &str) -> String {
    if chance(rng, 15) {
        return value_token(rng, 2);
    }
    match key {
        "op" => {
            if chance(rng, 85) {
                format!("\"{}\"", pick(rng, OPS))
            } else {
                let op = pick(
                    rng,
                    &[
                        "EXPLODE",
                        "request_task",
                        "REQUEST_TASK ",
                        "\\u0053TATUS",
                        "HEL\\u004cO",
                        "X\\\"",
                        "",
                    ],
                );
                format!("\"{op}\"")
            }
        }
        "worker" => string_token(rng),
        "task" | "answer" if chance(rng, 60) => rng.below(300).to_string(),
        "task" | "answer" | "trace" => number_token(rng),
        _ => value_token(rng, 3),
    }
}

/// A whole object line with its members in random order, duplicates
/// and extra keys included.
fn object_line(rng: &mut TestRng) -> String {
    let mut keys: Vec<String> = Vec::new();
    for key in ["op", "worker", "task", "answer", "trace"] {
        let p = if key == "trace" { 40 } else { 85 };
        if chance(rng, p) {
            keys.push(format!("\"{key}\""));
        }
    }
    for _ in 0..rng.below(3) {
        keys.push(key_token(rng));
    }
    // Duplicates: the first occurrence is the one that counts.
    for _ in 0..rng.below(3) {
        if !keys.is_empty() {
            let dup = keys[rng.below(keys.len() as u64) as usize].clone();
            keys.push(dup);
        }
    }
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut s = String::from("{");
    s.push_str(ws(rng));
    for (i, key) in keys.iter().enumerate() {
        if i > 0 {
            s.push(',');
            s.push_str(ws(rng));
        }
        s.push_str(key);
        s.push_str(ws(rng));
        s.push(':');
        s.push_str(ws(rng));
        s.push_str(&member_value(rng, key.trim_matches('"')));
        s.push_str(ws(rng));
    }
    s.push('}');
    s
}

/// Deletes, inserts, replaces or truncates at one character.
fn edit(rng: &mut TestRng, line: &str) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    if chars.is_empty() {
        return line.to_owned();
    }
    let at = rng.below(chars.len() as u64) as usize;
    let inserted = || {
        const ALPHABET: &[char] = &[
            '{', '}', '[', ']', '"', ':', ',', '\\', 'u', '0', '9', '-', '.', 'e', ' ', 'x',
            '\u{a0}', 'é',
        ];
        ALPHABET[at % ALPHABET.len()]
    };
    match rng.below(4) {
        0 => {
            chars.remove(at);
        }
        1 => chars.insert(at, inserted()),
        2 => chars[at] = inserted(),
        _ => chars.truncate(at),
    }
    chars.into_iter().collect()
}

/// One generated request line.
fn line(rng: &mut TestRng) -> String {
    let mut line = if chance(rng, 90) {
        object_line(rng)
    } else {
        value_token(rng, 2)
    };
    if chance(rng, 25) {
        line = edit(rng, &line);
    }
    if chance(rng, 10) {
        // Unicode whitespace around the line is trimmed; the byte-order
        // mark and the zero-width space are not whitespace.
        let around = ["\u{a0}", "\u{2003}", " \n", "\u{feff}", "\u{200b}"];
        let lead = around[rng.below(around.len() as u64) as usize];
        let trail = around[rng.below(around.len() as u64) as usize];
        line = format!("{lead}{line}{trail}");
    }
    line
}

struct Lines;

impl Strategy for Lines {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        line(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]
    #[test]
    fn generated_lines_parse_as_the_tree_parser_reads_them(line in Lines) {
        assert_parity(&line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES * 100))]
    #[test]
    #[ignore = "soak: 100 times the tier-1 cases; run with --ignored"]
    fn generated_lines_parse_as_the_tree_parser_reads_them_soak(line in Lines) {
        assert_parity(&line);
    }
}

/// Lines that pin one rule each, so a broken rule fails by name.
#[test]
fn each_rule_holds_on_its_own_line() {
    for line in [
        // What clients send.
        r#"{"op":"REQUEST_TASK","worker":"W17"}"#,
        r#"{"op":"SUBMIT_ANSWER","worker":"W3","task":44,"answer":1}"#,
        r#"{"op":"REQUEST_TASK","worker":"W7","trace":18446744073709551612}"#,
        r#"{"op":"STATUS","trace":0}"#,
        // The first of duplicate keys wins, even when mistyped.
        r#"{"op":"REQUEST_TASK","worker":"W1","worker":"W2"}"#,
        r#"{"op":"SUBMIT_ANSWER","worker":"W1","task":3,"task":4,"answer":0}"#,
        r#"{"op":"HELLO","op":"STATUS"}"#,
        r#"{"op":1,"op":"HELLO"}"#,
        r#"{"op":"REQUEST_TASK","worker":1,"worker":"W1"}"#,
        r#"{"op":"STATUS","trace":"7","trace":7}"#,
        // Integers written as floats, exponents or with leading zeros.
        r#"{"op":"SUBMIT_ANSWER","worker":"W1","task":1.0,"answer":0}"#,
        r#"{"op":"SUBMIT_ANSWER","worker":"W1","task":1e2,"answer":1E0}"#,
        r#"{"op":"SUBMIT_ANSWER","worker":"W1","task":007,"answer":-0}"#,
        r#"{"op":"SUBMIT_ANSWER","worker":"W1","task":1.5,"answer":0}"#,
        r#"{"op":"SUBMIT_ANSWER","worker":"W1","task":-1,"answer":0}"#,
        r#"{"op":"SUBMIT_ANSWER","worker":"W1","task":4294967296,"answer":0}"#,
        r#"{"op":"SUBMIT_ANSWER","worker":"W1","task":2,"answer":256}"#,
        r#"{"op":"STATUS","trace":18446744073709551616}"#,
        r#"{"op":"STATUS","trace":1e400}"#,
        // Escapes, in values and keys.
        r#"{"op":"REQUEST_TASK","worker":"W1\"\\\/\b\f\n\r\t"}"#,
        r#"{"op":"REQUEST_TASK","worker":"\u0057\u4e2d\ud83d\ude00"}"#,
        r#"{"op":"REQUEST_TASK","worker":"😀é"}"#,
        r#"{"op":"REQUEST_TASK","worker":"\ud83dA"}"#,
        r#"{"op":"REQUEST_TASK","worker":"\u+041"}"#,
        r#"{"op":"REQUEST_TASK","worker":"\ude00"}"#,
        r#"{"op":"REQUEST_TASK","worker":"\ud83d"}"#,
        r#"{"op":"STATUS"}"#,
        r#"{"op":"EXPLODE"}"#,
        // Ignored members with nested values.
        r#"{"x":[1,{"y":[[],{}],"z":null}],"op":"HELLO","w":{"a":[true,false]}}"#,
        r#"{"x":[1,],"op":"HELLO"}"#,
        r#"{"x":{"a":1,},"op":"HELLO"}"#,
        // Whitespace between tokens and around the line.
        " \u{a0}{ \"op\" :\t\"HELLO\" \r\n}\u{2003} ",
        "{\"op\":\u{a0}\"HELLO\"}",
        "\u{feff}{\"op\":\"HELLO\"}",
        // Valid JSON that is not an object, and malformed text.
        "[1,2]",
        "\"op\"",
        "null",
        "42",
        "",
        "{",
        "{\"op\":\"HELLO\"",
        "{\"op\":\"HELLO\"}}",
        "{\"op\":\"HELLO\",}",
        "{\"op\" \"HELLO\"}",
        "not json",
    ] {
        assert_parity(line);
    }
}

/// Nesting the tree parser walks by recursion is walked here on a
/// stack: a deep ignored member parses like a shallow one.
#[test]
fn deep_nesting_needs_no_recursion() {
    for depth in [1, 64, 200] {
        let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let line = format!(r#"{{"x":{nested},"op":"HELLO"}}"#);
        assert_parity(&line);
        let open = format!(r#"{{"x":{},"op":"HELLO"}}"#, "[".repeat(depth));
        assert_parity(&open);
    }
    // Far past the depth the tree parser's recursion can take.
    let depth = 60_000;
    let line = format!(
        r#"{{"x":{}0{},"op":"HELLO"}}"#,
        "[{\"a\":".repeat(depth),
        "}]".repeat(depth)
    );
    assert_eq!(Request::parse(&line), Ok(Request::Hello));
}
