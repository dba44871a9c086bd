//! End-to-end hostile request lines through [`Server::handle_line`]:
//! each gets one structured `error` line, and the server keeps serving.
//! They pin three ways a single line could take the server down: a
//! stack overflow from unbounded nesting, a char-boundary panic in the
//! hex decoder, and a parse time quadratic in the line's length.

use bc_serve::{Server, MAX_LINE_LEN};
use serde::Value;

const OPEN: &str =
    r#"{"cmd":"open","sim":"ok","tree":{"root_compute":2,"nodes":[[0,1,2]]},"tasks":6}"#;

fn field_str(line: &str, key: &str) -> String {
    let v: Value = serde_json::from_str(line).expect("server emitted invalid JSON");
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("field {key}: {other:?} in {line}"),
    }
}

/// Asserts `out` is exactly one `error` line and returns its message.
fn one_error(out: &[String]) -> String {
    assert_eq!(out.len(), 1, "expected one line, got {out:?}");
    assert_eq!(field_str(&out[0], "ev"), "error", "{out:?}");
    field_str(&out[0], "msg")
}

fn assert_still_serving(server: &mut Server) {
    let out = server.handle_line(OPEN);
    assert_eq!(field_str(&out[0], "ev"), "opened", "{out:?}");
}

#[test]
fn deeply_nested_line_is_one_error() {
    let mut server = Server::new();
    let msg = one_error(&server.handle_line(&"[".repeat(300_000)));
    assert!(msg.contains("nesting deeper than 128"), "{msg}");
    assert_still_serving(&mut server);
}

#[test]
fn non_ascii_restore_bytes_is_one_error() {
    let mut server = Server::new();
    let msg = one_error(&server.handle_line(r#"{"cmd":"restore","sim":"a","bytes":"aéb"}"#));
    assert_eq!(msg, "bad hex at byte 0");
    assert_still_serving(&mut server);
}

/// A real snapshot padded with zero bytes to a line of exactly
/// `MAX_LINE_LEN` bytes: the hex decodes, and the snapshot decoder
/// rejects the trailing bytes.
#[test]
fn restore_line_at_the_length_bound_gets_bad_snapshot() {
    let mut server = Server::new();
    server.handle_line(OPEN);
    let snap = server.handle_line(r#"{"cmd":"snapshot","sim":"ok"}"#);
    let hex = field_str(&snap[0], "bytes");

    let head = r#"{"cmd":"restore","sim":"big","bytes":""#;
    let room = MAX_LINE_LEN - head.len() - 2;
    let mut line = String::with_capacity(MAX_LINE_LEN);
    line.push_str(head);
    line.push_str(&hex);
    line.extend(std::iter::repeat_n('0', room - room % 2 - hex.len()));
    line.push_str(r#""}"#);
    assert!(MAX_LINE_LEN - line.len() < 2, "{} bytes", line.len());

    let msg = one_error(&server.handle_line(&line));
    assert!(msg.starts_with("bad snapshot"), "{msg}");
    server.handle_line(r#"{"cmd":"close","sim":"ok"}"#);
    assert_still_serving(&mut server);
}
