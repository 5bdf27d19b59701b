//! Pins the `STATS` response shape against a golden file.
//!
//! The metrics backing `STATS` moved into the unified observability
//! registry; this test is the backward-compatibility contract proving the
//! re-sourcing changed nothing a client could observe: every key path, in
//! order, exactly as before. A failure means the wire shape drifted —
//! regenerate deliberately with `UPDATE_GOLDEN=1 cargo test -p
//! parallax-service --test stats_golden` and flag the break for clients.

use parallax_service::{Json, Metrics};

/// Flatten a JSON value into its ordered key paths (`a.b`, `arr[].k`).
/// Arrays descend into their first element only: element shape is
/// homogeneous, element *count* is data, not shape.
fn paths(prefix: &str, v: &Json, out: &mut Vec<String>) {
    match v {
        Json::Obj(pairs) => {
            for (k, val) in pairs {
                let p = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                out.push(p.clone());
                paths(&p, val, out);
            }
        }
        Json::Arr(items) => {
            if let Some(first) = items.first() {
                paths(&format!("{prefix}[]"), first, out);
            }
        }
        _ => {}
    }
}

#[test]
fn stats_json_shape_is_pinned() {
    let m = Metrics::default();
    m.latency.record(123);
    // Mirrors the server's `cache_json()` shape: the byte-budget gauges.
    let cache = Json::obj(vec![
        ("len", Json::Int(0)),
        ("capacity", Json::Int(8)),
        ("weight", Json::Int(0)),
        ("hits", Json::Int(0)),
        ("misses", Json::Int(0)),
        ("evictions", Json::Int(0)),
    ]);
    let stats = m.to_json(0, 8, cache);
    let mut got = Vec::new();
    paths("", &stats, &mut got);
    let got = got.join("\n") + "\n";

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/stats_shape.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "STATS key paths changed — clients pin this shape; if the change is \
         deliberate, regenerate with UPDATE_GOLDEN=1 and call it out in the PR"
    );
}
