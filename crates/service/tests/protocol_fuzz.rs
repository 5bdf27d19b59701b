//! Negative-path protocol tests: hostile or broken wire input — truncated
//! frames, oversized lines, invalid UTF-8/JSON, unknown ops, random
//! garbage — must always be answered with a structured
//! `{"ok":false,"error":...}` line (or a clean close for an empty
//! truncated stream) and must never kill a worker: the same server keeps
//! compiling real jobs afterwards.

use parallax_service::{start, Json, ServerConfig, ServerHandle, ServiceClient, SubmitRequest};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};

fn test_server() -> ServerHandle {
    start(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 8,
        // Small cap so the oversized-line path is cheap to exercise.
        max_line_bytes: 64 * 1024,
        ..Default::default()
    })
    .expect("bind ephemeral port")
}

/// Send raw bytes on a fresh connection, half-close the write side, and
/// collect every response line until the server closes.
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream).lines().map_while(Result::ok).collect()
}

/// The server is still healthy: a real submission compiles on it.
fn assert_still_serving(addr: std::net::SocketAddr) {
    let mut client = ServiceClient::connect(addr).expect("connect");
    let reply = client
        .submit(SubmitRequest { quick: true, ..Default::default() })
        .expect("server must still compile after hostile input");
    assert_eq!(reply.result.get("swaps").and_then(Json::as_u64), Some(0));
}

fn assert_structured_error(line: &str) {
    let v = parallax_service::json::parse(line).unwrap_or_else(|e| {
        panic!("response must stay valid JSON, got {line:?}: {e}");
    });
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
    assert!(v.get("error").and_then(Json::as_str).is_some(), "{line}");
}

#[test]
fn truncated_frames_answer_or_close_cleanly() {
    let server = test_server();
    let addr = server.addr();

    // A frame cut off before its newline: processed as a final partial
    // line (a parse error) and answered before the connection closes.
    let responses = raw_exchange(addr, b"{\"cmd\":\"sub");
    assert_eq!(responses.len(), 1, "{responses:?}");
    assert_structured_error(&responses[0]);

    // A clean half-close with no bytes at all: no response, no harm.
    assert!(raw_exchange(addr, b"").is_empty());

    // A valid request followed by a truncated second one: both answered
    // (the first with ok:true).
    let responses = raw_exchange(addr, b"{\"cmd\":\"ping\"}\n{\"cmd\":\"st");
    assert_eq!(responses.len(), 2, "{responses:?}");
    assert!(responses[0].contains("\"pong\":true"), "{responses:?}");
    assert_structured_error(&responses[1]);

    assert_still_serving(addr);
}

#[test]
fn oversized_lines_get_a_structured_error_and_resynchronize() {
    let server = test_server();
    let addr = server.addr();

    // One giant line (4x the cap), then a valid ping on the same
    // connection: the server must discard through the newline, answer
    // with a structured error, and then serve the ping normally.
    let mut giant = vec![b'x'; 256 * 1024];
    giant.push(b'\n');
    giant.extend_from_slice(b"{\"cmd\":\"ping\"}\n");
    let responses = raw_exchange(addr, &giant);
    assert_eq!(responses.len(), 2, "{responses:?}");
    assert_structured_error(&responses[0]);
    assert!(responses[0].contains("exceeds"), "{responses:?}");
    assert!(responses[1].contains("\"pong\":true"), "resync failed: {responses:?}");

    // Oversized truncated tail (no newline before EOF): still answered.
    let responses = raw_exchange(addr, &vec![b'y'; 256 * 1024]);
    assert_eq!(responses.len(), 1, "{responses:?}");
    assert_structured_error(&responses[0]);

    let mut client = ServiceClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(
        stats.get("bad_requests").and_then(Json::as_u64).unwrap() >= 2,
        "oversized lines must count as bad requests"
    );
    assert_still_serving(addr);
}

#[test]
fn invalid_utf8_json_and_unknown_ops_are_rejected_without_casualties() {
    let server = test_server();
    let addr = server.addr();

    let cases: &[&[u8]] = &[
        b"\xff\xfe\x80garbage\n",                        // invalid UTF-8
        b"not json at all\n",                            // invalid JSON
        b"{\"cmd\":\"explode\"}\n",                      // unknown op
        b"{}\n",                                         // missing cmd
        b"{\"cmd\":\"submit\"}\n",                       // submit without a source
        b"{\"cmd\":\"submit\",\"workload\":\"NOPE\"}\n", // unknown workload
        b"{\"cmd\":\"submit\",\"qasm\":\"bad\",\"workload\":\"QFT\"}\n", // both sources
        b"[1,2,3]\n",                                    // non-object JSON
        b"\"just a string\"\n",                          // non-object JSON
    ];
    for &case in cases {
        let responses = raw_exchange(addr, case);
        assert_eq!(responses.len(), 1, "case {case:?} -> {responses:?}");
        assert_structured_error(&responses[0]);
    }
    assert_still_serving(addr);
}

#[test]
fn deeply_nested_lines_get_a_structured_error_and_the_connection_keeps_serving() {
    // 100,000 open brackets are far under the default line cap, but a
    // parser recursing once per level would overflow its thread's stack
    // and abort the whole process. The nesting cap answers with a
    // structured error, and a submit on the same connection compiles.
    let server = start(ServerConfig { workers: 1, queue_capacity: 8, ..Default::default() })
        .expect("bind ephemeral port");
    let mut bytes = vec![b'['; 100_000];
    bytes.push(b'\n');
    bytes.extend_from_slice(b"{\"cmd\":\"submit\",\"workload\":\"ADD\",\"quick\":true}\n");
    let responses = raw_exchange(server.addr(), &bytes);
    assert_eq!(responses.len(), 2, "{responses:?}");
    assert_structured_error(&responses[0]);
    assert!(responses[0].contains("nesting"), "{responses:?}");
    let reply = parallax_service::json::parse(&responses[1]).expect("valid JSON");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{responses:?}");
    let swaps = reply.get("result").and_then(|r| r.get("swaps")).and_then(Json::as_u64);
    assert_eq!(swaps, Some(0), "{responses:?}");
}

#[test]
fn oversized_aod_dim_is_rejected_before_any_allocation() {
    // 2^40 AOD lines would ask the array for terabytes and abort the whole
    // process; the submission must be refused as a structured error, both
    // as a submit and as a sweep, and the server must keep compiling.
    let server = test_server();
    let addr = server.addr();
    let cases: &[&[u8]] = &[
        b"{\"cmd\":\"submit\",\"workload\":\"ADD\",\"quick\":true,\"aod_dim\":1099511627776}\n",
        b"{\"cmd\":\"submit-sweep\",\"workload\":\"QAOA\",\"aod_dim\":1099511627776,\"params\":[[0.5]]}\n",
    ];
    for &case in cases {
        let responses = raw_exchange(addr, case);
        assert_eq!(responses.len(), 1, "case {case:?} -> {responses:?}");
        assert_structured_error(&responses[0]);
        assert!(responses[0].contains("'aod_dim'"), "{responses:?}");
    }
    assert_still_serving(addr);
}

#[test]
fn malformed_sweeps_are_rejected_without_casualties() {
    let server = test_server();
    let addr = server.addr();

    // Every malformed sweep is a single structured error line — the server
    // must not start compiling (or worse, panic binding) a bad parameter
    // set. JSON cannot spell NaN, so the non-finite arm rides in on the
    // parser's permissive `1e999` -> infinity mapping: the *protocol*
    // accepts the number, the server's bind validation rejects it.
    let cases: &[(&[u8], &str)] = &[
        (b"{\"cmd\":\"submit-sweep\",\"workload\":\"QFT\"}\n", "params"),
        (b"{\"cmd\":\"submit-sweep\",\"workload\":\"QFT\",\"params\":[]}\n", "empty sweep"),
        (b"{\"cmd\":\"submit-sweep\",\"workload\":\"QFT\",\"params\":7}\n", "params"),
        (b"{\"cmd\":\"submit-sweep\",\"workload\":\"QFT\",\"params\":[7]}\n", "array of numbers"),
        (b"{\"cmd\":\"submit-sweep\",\"workload\":\"QFT\",\"params\":[[\"x\"]]}\n", "number"),
        (
            b"{\"cmd\":\"submit-sweep\",\"workload\":\"QFT\",\"params\":[[0.5]]}\n",
            "parameter count mismatch",
        ),
    ];
    for &(wire, needle) in cases {
        let responses = raw_exchange(addr, wire);
        assert_eq!(responses.len(), 1, "case {:?} -> {responses:?}", String::from_utf8_lossy(wire));
        assert_structured_error(&responses[0]);
        assert!(
            responses[0].contains(needle),
            "error for {:?} must mention {needle:?}: {}",
            String::from_utf8_lossy(wire),
            responses[0]
        );
    }

    // Arity is validated before finiteness, so `[[1e999]]` alone rejects
    // as a count mismatch; spell a correct-arity point with one infinity
    // to pin the non-finite rejection.
    let request = parallax_service::SubmitRequest {
        source: parallax_service::SubmitSource::Workload("QFT".into()),
        quick: true,
        ..Default::default()
    };
    let circuit = request.resolve_circuit().expect("workload resolves");
    let slots = parallax_circuit::CircuitTemplate::from_circuit(&circuit).num_params();
    assert!(slots > 0, "QFT must carry U3 slots");
    let mut point = vec!["0.1".to_string(); slots];
    point[slots / 2] = "1e999".into();
    let wire = format!(
        "{{\"cmd\":\"submit-sweep\",\"workload\":\"QFT\",\"quick\":true,\"params\":[[{}]]}}\n",
        point.join(",")
    );
    let responses = raw_exchange(addr, wire.as_bytes());
    assert_eq!(responses.len(), 1, "{responses:?}");
    assert_structured_error(&responses[0]);
    assert!(responses[0].contains("not finite"), "{responses:?}");

    // The typed client cannot transport Inf/NaN at all: the canonical
    // encoder maps non-finite to `null`, which the parser refuses as a
    // non-number — also a structured error, never a compile.
    let mut client = ServiceClient::connect(addr).expect("connect");
    let mut params = vec![vec![0.1f64; slots]];
    params[0][0] = f64::NAN;
    let err = client
        .submit_sweep(parallax_service::SweepRequest { submit: request, params })
        .expect_err("a NaN sweep point must be refused");
    assert!(err.to_string().contains("must be a number"), "{err}");

    // An oversized sweep line (4x the request-line cap) is the transport
    // layer's problem: structured error, resync, and the server lives on.
    let mut giant = Vec::from(&b"{\"cmd\":\"submit-sweep\",\"workload\":\"QFT\",\"params\":[["[..]);
    while giant.len() < 256 * 1024 {
        giant.extend_from_slice(b"0.125,");
    }
    giant.extend_from_slice(b"0.125]]}\n{\"cmd\":\"ping\"}\n");
    let responses = raw_exchange(addr, &giant);
    assert_eq!(responses.len(), 2, "{responses:?}");
    assert_structured_error(&responses[0]);
    assert!(responses[0].contains("exceeds"), "{responses:?}");
    assert!(responses[1].contains("\"pong\":true"), "resync failed: {responses:?}");

    assert_still_serving(addr);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Random garbage lines (newline-free byte soup, printable or not):
    /// every line gets exactly one structured error response, and the
    /// server survives to compile another day.
    #[test]
    fn random_garbage_never_kills_the_server(
        lines in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 1..200),
            1..4,
        )
    ) {
        // One shared server across cases would hide per-case crashes less
        // well than it saves time; still, binding is cheap enough per case.
        let server = test_server();
        let addr = server.addr();
        let mut wire = Vec::new();
        let mut expected = 0usize;
        for line in &lines {
            let cleaned: Vec<u8> =
                line.iter().copied().filter(|&b| b != b'\n' && b != b'\r').collect();
            if std::str::from_utf8(&cleaned).is_ok_and(|s| s.trim().is_empty()) {
                // Exactly the server's skip rule: a valid-UTF-8 line that
                // trims to nothing (str::trim is Unicode-aware — 0x0B
                // counts) gets no response by design; invalid UTF-8 is
                // always answered.
                continue;
            }
            wire.extend_from_slice(&cleaned);
            wire.push(b'\n');
            expected += 1;
        }
        let responses = raw_exchange(addr, &wire);
        prop_assert_eq!(responses.len(), expected, "one response per line");
        for r in &responses {
            let v = parallax_service::json::parse(r)
                .map_err(|e| TestCaseError::fail(format!("bad response {r:?}: {e}")))?;
            // Random bytes cannot spell a valid request, which always has
            // a lowercase `cmd` — every response is a structured error.
            prop_assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
            prop_assert!(v.get("error").and_then(Json::as_str).is_some());
        }
        assert_still_serving(addr);
    }
}
