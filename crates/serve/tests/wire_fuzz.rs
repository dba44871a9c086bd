//! Wire fuzz corpus: `Server::handle_line` is *total* — every request
//! line, however hostile, yields response lines and never a panic, and a
//! line the request parser rejects yields exactly one `error` line.
//!
//! Adversaries, all seeded and deterministic, applied to the committed
//! smoke request lines plus a `restore` of the smoke stream's snapshot:
//!  1. truncation (every prefix of every line),
//!  2. bit flips (every bit of every byte),
//!  3. random splices (a prefix of one line joined to a suffix of
//!     another, or a span overwritten with noise),
//!  4. hostile shapes: deep nesting, non-ASCII hex, malformed `\u`
//!     escapes, out-of-range numbers and mistyped fields.
//!
//! Each mutated line is fed to a server that has already replayed the
//! script up to that line, so mutations of `step`, `pause` and friends
//! reach live sessions instead of dying on "no sim".

use bc_serve::{parse_request, Server};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde::Value;

const SMOKE_SCRIPT: &str = include_str!("fixtures/smoke_session.jsonl");
const SMOKE_GOLDEN: &str = include_str!("golden/smoke_session.golden.jsonl");

/// The smoke script with a `restore` of its own snapshot inserted before
/// `shutdown`, so the hex decoder and the snapshot decoder are in reach.
fn script() -> Vec<String> {
    let snapshot = SMOKE_GOLDEN
        .lines()
        .find(|l| l.starts_with(r#"{"ev":"snapshot""#))
        .expect("golden stream has a snapshot line");
    let v: Value = serde_json::from_str(snapshot).unwrap();
    let Some(Value::Str(hex)) = v.get("bytes") else {
        panic!("snapshot line has no bytes: {snapshot}");
    };
    let mut lines: Vec<String> = SMOKE_SCRIPT.lines().map(str::to_string).collect();
    let shutdown = lines.len() - 1;
    assert_eq!(lines[shutdown], r#"{"cmd":"shutdown"}"#);
    lines.insert(
        shutdown,
        format!(r#"{{"cmd":"restore","sim":"delta","bytes":"{hex}"}}"#),
    );
    lines
}

/// A server that has handled `lines`.
fn replayed(lines: &[String]) -> Server {
    let mut server = Server::new();
    for line in lines {
        server.handle_line(line);
    }
    server
}

/// Feeds one line and checks the contract: every response is a JSON
/// object with an `ev`, and a line the parser rejects gets exactly one
/// `error` line. Returns the responses.
fn probe(server: &mut Server, line: &str) -> Vec<String> {
    let out = server.handle_line(line);
    for resp in &out {
        let v: Value = serde_json::from_str(resp)
            .unwrap_or_else(|e| panic!("response {resp:?} to {line:?} is not JSON: {e}"));
        assert!(
            matches!(v.get("ev"), Some(Value::Str(_))),
            "response without ev: {resp}"
        );
    }
    let trimmed = line.trim();
    if !trimmed.is_empty() && parse_request(trimmed).is_err() {
        assert_eq!(out.len(), 1, "malformed {line:?} gave {out:?}");
        assert!(
            out[0].starts_with(r#"{"ev":"error""#),
            "malformed {line:?} gave {out:?}"
        );
    }
    out
}

/// Runs `mutations(line)` for every script line against a server that
/// replayed the lines before it. After a mutated `restore` the restored
/// name is closed again, so each mutation reaches the snapshot decoder.
/// Returns how many mutations were restored.
fn fuzz_each_line(mut mutations: impl FnMut(&[u8]) -> Vec<Vec<u8>>) -> usize {
    let lines = script();
    let mut restored = 0;
    for (k, line) in lines.iter().enumerate() {
        let mut server = replayed(&lines[..k]);
        for bad in mutations(line.as_bytes()) {
            let out = probe(&mut server, &String::from_utf8_lossy(&bad));
            if line.contains(r#""cmd":"restore""#) {
                restored += out
                    .iter()
                    .filter(|l| l.contains(r#""ev":"restored""#))
                    .count();
                server.handle_line(r#"{"cmd":"close","sim":"delta"}"#);
            }
        }
    }
    restored
}

#[test]
fn every_truncation_is_one_error() {
    let restored = fuzz_each_line(|line| (1..line.len()).map(|cut| line[..cut].to_vec()).collect());
    assert_eq!(restored, 0);
}

#[test]
fn bit_flips_never_panic() {
    // A flip in a free integer field of the snapshot still decodes and
    // restores; the contract under attack is totality, not rejection.
    let restored = fuzz_each_line(|line| {
        let mut out = Vec::with_capacity(line.len() * 8);
        for i in 0..line.len() {
            for bit in 0..8 {
                let mut bad = line.to_vec();
                bad[i] ^= 1 << bit;
                out.push(bad);
            }
        }
        out
    });
    assert!(restored > 0, "no flipped snapshot reached a restore");
}

#[test]
fn random_splices_never_panic() {
    let lines = script();
    let mut rng = SmallRng::seed_from_u64(0x5EAF);
    let mut server = replayed(&lines[..lines.len() - 1]);
    for _ in 0..3000 {
        let a = lines[rng.random_range(0..lines.len())].as_bytes();
        let b = lines[rng.random_range(0..lines.len())].as_bytes();
        let mut bad = a[..rng.random_range(0..=a.len())].to_vec();
        bad.extend_from_slice(&b[rng.random_range(0..=b.len())..]);
        probe(&mut server, &String::from_utf8_lossy(&bad));
        // Overwrite a short span with noise, invalid UTF-8 included.
        if !bad.is_empty() {
            let at = rng.random_range(0..bad.len());
            let span = rng.random_range(1..16usize).min(bad.len() - at);
            for byte in &mut bad[at..at + span] {
                *byte = rng.random::<u32>() as u8;
            }
            probe(&mut server, &String::from_utf8_lossy(&bad));
        }
    }
    // The server is still serving.
    let out = probe(&mut server, r#"{"cmd":"status"}"#);
    assert!(out[0].starts_with(r#"{"ev":"status""#), "{out:?}");
}

#[test]
fn hostile_shapes_are_one_error_each() {
    let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
    let hostile = [
        "[".repeat(300_000),
        r#"{"a":"#.repeat(100_000),
        format!(r#"{{"cmd":"status","x":{}}}"#, nest(128)),
        r#"{"cmd":"restore","sim":"a","bytes":"aéb"}"#.to_string(),
        r#"{"cmd":"restore","sim":"a","bytes":"🦀🦀"}"#.to_string(),
        r#"{"cmd":"restore","sim":"a","bytes":"+f"}"#.to_string(),
        r#"{"cmd":"restore","sim":"a","bytes":7}"#.to_string(),
        r#"{"cmd":"restore","sim":"a"}"#.to_string(),
        r#"{"cmd":"st\u+04aus"}"#.to_string(),
        r#"{"cmd":"st\u00"}"#.to_string(),
        r#"{"cmd":"😀"}"#.to_string(),
        r#"{"cmd":"status\"#.to_string(),
        r#"{"cmd":"open","sim":"a"#.to_string(),
        r#"{"cmd":"status"} trailing"#.to_string(),
        r#"{"cmd":"step","sim":"alpha","events":1e400}"#.to_string(),
        r#"{"cmd":"step","sim":"alpha","events":-5}"#.to_string(),
        format!(
            r#"{{"cmd":"step","sim":"alpha","events":{}}}"#,
            "9".repeat(60)
        ),
        format!(r#"{{"cmd":"step","sim":"{}"}}"#, "n".repeat(65)),
        r#"{"cmd":"step","sim":""}"#.to_string(),
        r#"{"cmd":["status"]}"#.to_string(),
        "{\"cmd\":\"sta\u{0}tus\"}".to_string(),
        String::from_utf8_lossy(b"{\"cmd\":\"\xff\xfe\"}").into_owned(),
    ];
    let lines = script();
    let mut server = replayed(&lines[..lines.len() - 1]);
    for line in &hostile {
        let out = probe(&mut server, line);
        assert_eq!(out.len(), 1, "{line:.80}: {out:?}");
        assert!(
            out[0].starts_with(r#"{"ev":"error""#),
            "{line:.80} was accepted: {out:?}"
        );
    }
    // Nesting up to the parser's bound is still an ordinary request.
    let deep_ok = format!(r#"{{"cmd":"status","x":{}}}"#, nest(127));
    let out = probe(&mut server, &deep_ok);
    assert!(out[0].starts_with(r#"{"ev":"status""#), "{out:?}");
}
