//! End-to-end tests: a real `parallax-serve` instance on an ephemeral
//! port, hammered by concurrent TCP clients, checked for byte-identical
//! results against direct in-process compilation, cache behaviour,
//! backpressure, and lossless drain on shutdown.

use parallax_service::{
    compile_payload, start, ClientError, Json, ServerConfig, ServiceClient, SubmitRequest,
    SubmitSource, SweepRequest,
};
use std::time::Duration;

/// Small Table III workloads that compile in milliseconds with the quick
/// placement preset.
const WORKLOADS: [&str; 4] = ["ADD", "MLT", "QAOA", "HLF"];

fn submit_for(workload: &str, seed: u64) -> SubmitRequest {
    SubmitRequest {
        source: SubmitSource::Workload(workload.to_string()),
        seed,
        quick: true,
        ..Default::default()
    }
}

/// The payload a direct in-process compilation produces for `req` —
/// computed through the same protocol helpers the server uses, so the
/// comparison is exact (byte-identical canonical encodings).
fn direct_payload(req: &SubmitRequest) -> String {
    let compiler = req.build_compiler().expect("valid machine");
    let circuit = req.resolve_circuit().expect("valid workload");
    compile_payload(&compiler.compile(&circuit)).encode()
}

fn test_config() -> ServerConfig {
    ServerConfig { queue_capacity: 64, cache_capacity: 1 << 20, ..Default::default() }
}

#[test]
fn eight_concurrent_clients_get_byte_identical_index_stable_results() {
    let server = start(test_config()).expect("bind");
    let addr = server.addr();

    // Expected payloads, computed in-process before any serving happens.
    let expected: Vec<(SubmitRequest, String)> = WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let req = submit_for(w, i as u64);
            let payload = direct_payload(&req);
            (req, payload)
        })
        .collect();

    let clients: Vec<_> = (0..8)
        .map(|c| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                // Two passes so every client also exercises repeat
                // submissions; interleave order per client.
                for pass in 0..2 {
                    for (i, (req, want)) in expected.iter().enumerate() {
                        let idx = (i + c) % expected.len();
                        let (req, want) = if pass == 0 {
                            (req.clone(), want)
                        } else {
                            (expected[idx].0.clone(), &expected[idx].1)
                        };
                        let id = (c * 1000 + pass * 100 + i) as u64;
                        let reply = client
                            .submit(SubmitRequest { id: Some(id), ..req })
                            .expect("submit succeeds");
                        assert_eq!(reply.id, Some(id), "responses must be index-stable");
                        assert_eq!(
                            reply.result.encode(),
                            *want,
                            "served result must be byte-identical to direct compilation"
                        );
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // 8 clients × 2 passes × 4 workloads = 64 submissions of 4 distinct
    // jobs: the cache must have served the overwhelming majority.
    let mut client = ServiceClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    let hits = stats.get("cache_hits").and_then(Json::as_u64).unwrap();
    let misses = stats.get("cache_misses").and_then(Json::as_u64).unwrap();
    assert_eq!(hits + misses, 64, "every submission is a hit or a miss");
    assert!(hits >= 32, "expected many cache hits, got {hits}");
    let completed = stats.get("completed").and_then(Json::as_u64).unwrap();
    let submitted = stats.get("submitted").and_then(Json::as_u64).unwrap();
    assert_eq!(completed, submitted, "no accepted job may be lost");
    assert!(
        stats.get("latency").and_then(|l| l.get("count")).and_then(Json::as_u64).unwrap() >= 64
    );
}

#[test]
fn repeat_submission_is_a_cache_hit_and_byte_pressure_evicts_lru() {
    // The cache budget is payload *bytes*: size it so the first two
    // payloads fit together but adding the third forces out exactly the
    // least-recently-used entry.
    let a = submit_for("ADD", 1);
    let b = submit_for("ADD", 2);
    let m = submit_for("MLT", 1);
    let (pa, pb, pm) =
        (direct_payload(&a).len(), direct_payload(&b).len(), direct_payload(&m).len());
    let budget = pa + pb + pm - 1;
    let mut server = start(ServerConfig { cache_capacity: budget, ..test_config() }).expect("bind");
    let mut client = ServiceClient::connect(server.addr()).expect("connect");

    let first = client.submit(a.clone()).expect("first ADD");
    assert!(!first.cached);
    let second = client.submit(a.clone()).expect("second ADD");
    assert!(second.cached, "identical resubmission must hit the cache");
    assert_eq!(first.result.encode(), second.result.encode());

    // Same circuit, different seed → different fingerprint → miss.
    let reseeded = client.submit(b).expect("reseeded ADD");
    assert!(!reseeded.cached, "a different seed must not hit");

    // Weight pa+pb; inserting pm overshoots the budget by exactly one
    // byte, so the LRU entry (ADD#1) — and only it — is evicted.
    client.submit(m).expect("MLT");
    let evicted = client.submit(a).expect("ADD after eviction");
    assert!(!evicted.cached, "LRU entry must have been evicted by byte pressure");
    assert_eq!(evicted.result.encode(), first.result.encode(), "recompute matches");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(1));
    let cache = stats.get("cache").expect("cache sub-object");
    let g = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap();
    // MLT's insert evicted ADD#1; re-inserting ADD#1 evicted ADD#2.
    assert_eq!(g("evictions"), 2, "one eviction per over-budget insert");
    assert_eq!(g("capacity"), budget as u64);
    assert!(g("weight") <= g("capacity"), "weight must respect the byte budget");
    server.shutdown();
}

#[test]
fn near_miss_hits_the_layout_cache_and_returns_faster_than_cold() {
    let server = start(test_config()).expect("bind");
    let mut client = ServiceClient::connect(server.addr()).expect("connect");

    // Unique seed → unique placement fingerprint, so this test's layout
    // keys cannot collide with other tests sharing the process-global
    // cache; every cache assertion is delta-based for the same reason.
    // The circuit is many-qubit but gate-sparse (96 qubits, one short CX
    // chain) at full placement fidelity: the anneal's cost grows with
    // qubit count (O(q²) pair terms per probe) while scheduling only
    // sees 100 cheap gates, so the cold compile is >100x the shared
    // post-placement work and the cold-vs-warm timing comparison below
    // holds even when sibling tests saturate the machine's cores.
    let seed = 990_017;
    let mut qasm = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[96];\n");
    for i in 0..96 {
        qasm.push_str(&format!("h q[{i}];\n"));
    }
    for i in 0..4 {
        qasm.push_str(&format!("cx q[{i}],q[{}];\n", i + 1));
    }
    let cold_req = SubmitRequest {
        source: SubmitSource::Qasm(qasm),
        seed,
        quick: false,
        ..Default::default()
    };
    // A near miss: same circuit, same machine, same placement knobs —
    // only the *scheduling* config differs.
    let warm_req = SubmitRequest { return_home: false, ..cold_req.clone() };

    let lc = |s: &Json, k: &str| {
        s.get("layout_cache").and_then(|c| c.get(k)).and_then(Json::as_u64).unwrap()
    };
    let before = client.stats().expect("stats");

    let cold = client.submit(cold_req.clone()).expect("cold compile");
    assert!(!cold.cached);
    let mid = client.stats().expect("stats");
    assert!(lc(&mid, "misses") > lc(&before, "misses"), "cold compile must miss the layout cache");

    let warm = client.submit(warm_req.clone()).expect("near-miss compile");
    assert!(!warm.cached, "a different scheduling config must miss the result cache");
    let after = client.stats().expect("stats");
    assert!(
        lc(&after, "hits") > lc(&mid, "hits"),
        "near miss must hit the layout cache: {} -> {}",
        lc(&mid, "hits"),
        lc(&after, "hits")
    );

    // The scheduling knob really changed the compilation…
    assert_ne!(cold.result.encode(), warm.result.encode());
    // …while skipping the placement anneal, so the near miss answers
    // faster than the cold compile it shares a layout with.
    assert!(
        warm.total_us < cold.total_us,
        "near miss took {} µs, cold compile {} µs",
        warm.total_us,
        cold.total_us
    );

    // Layout-cache hits are bit-identical to fresh anneals: a direct
    // in-process compile (which now takes the hit path) reproduces both
    // served payloads byte for byte.
    assert_eq!(cold.result.encode(), direct_payload(&cold_req));
    assert_eq!(warm.result.encode(), direct_payload(&warm_req));
}

#[test]
fn repeat_traffic_on_a_fresh_server_instance_recompiles_byte_identically() {
    // The layout cache is process-wide, the result cache per-server: a
    // fresh server instance receiving traffic another instance already
    // compiled misses its result cache and re-schedules on the cached
    // layout. TFIM is movement-heavy (every Trotter step re-plans the same
    // long-range moves), so the recompile exercises the movement planner
    // again from a fresh per-compile memo; the payload must not change.
    let req = submit_for("TFIM", 990_041);

    let first_instance = start(test_config()).expect("bind");
    let mut client = ServiceClient::connect(first_instance.addr()).expect("connect");
    let cold = client.submit(req.clone()).expect("cold compile");
    assert!(!cold.cached);
    drop(client);
    drop(first_instance);

    let second_instance = start(test_config()).expect("bind");
    let mut client = ServiceClient::connect(second_instance.addr()).expect("connect");
    let warm = client.submit(req).expect("repeat on a fresh instance");
    assert!(!warm.cached, "a fresh server has a fresh result cache");
    assert_eq!(
        warm.result.encode(),
        cold.result.encode(),
        "a recompile on a fresh instance must stay byte-identical"
    );
}

#[test]
fn hundred_point_qaoa_sweep_rebinds_from_one_template() {
    let server = start(test_config()).expect("bind");
    let mut client = ServiceClient::connect(server.addr()).expect("connect");

    // Unique seed → this test's (structural hash, fingerprint) key cannot
    // collide with sibling tests in the process-global template cache, so
    // the hit-count assertions are exact rather than delta-based.
    let req = submit_for("QAOA", 990_077);
    let circuit = req.resolve_circuit().expect("workload resolves");
    let template = parallax_circuit::CircuitTemplate::from_circuit(&circuit);
    let slots = template.num_params();
    assert!(slots > 0, "QAOA must carry U3 angle slots");

    // A deterministic 100-point angle grid, every point distinct.
    let params: Vec<Vec<f64>> = (0..100)
        .map(|p| (0..slots).map(|s| ((p * slots + s) % 571) as f64 * 0.011 - 3.1).collect())
        .collect();

    let before = client.stats().expect("stats");
    let reply = client
        .submit_sweep(SweepRequest { submit: req.clone(), params: params.clone() })
        .expect("sweep succeeds");

    // One template: the first point compiles, all 99 others rebind.
    assert_eq!(reply.points.len(), 100);
    assert_eq!(reply.params_per_point, slots as u64);
    assert_eq!(reply.template_cache_hits, 99, "one miss, then 99 structural hits");
    assert!(!reply.points[0].cached && reply.points[1..].iter().all(|p| p.cached));

    // Every point shares the structure's payload byte-for-byte — the same
    // payload a direct in-process compile of the submission produces —
    // while the per-point bound_hash attests the angle materialization.
    let want = direct_payload(&req);
    let mut seen = std::collections::HashSet::new();
    for (i, point) in reply.points.iter().enumerate() {
        assert_eq!(point.point, i as u64, "points stream in order");
        assert_eq!(point.result.encode(), want, "point {i} must share the template payload");
        let bound = template.bind(&params[i]).expect("grid angles bind");
        assert_eq!(
            point.bound_hash,
            format!("{:016x}", parallax_circuit::circuit_bits_hash(&bound)),
            "point {i} must attest its bound circuit"
        );
        assert!(seen.insert(point.bound_hash.clone()), "distinct angles, distinct hashes");
        if point.cached {
            assert!(point.rebind_ns > 0, "hits report their rebind time");
        }
    }

    // A repeat sweep is all hits; STATS carries the running counters.
    let again =
        client.submit_sweep(SweepRequest { submit: req, params }).expect("repeat sweep succeeds");
    assert_eq!(again.template_cache_hits, 100, "repeat sweep rebinds every point");
    let stats = client.stats().expect("stats");
    let delta = |k: &str| {
        stats.get(k).and_then(Json::as_u64).unwrap() - before.get(k).and_then(Json::as_u64).unwrap()
    };
    assert_eq!(delta("sweep_points"), 200);
    assert_eq!(delta("template_cache_hits"), 199);
    assert!(delta("rebind_ns") > 0);
}

#[test]
fn full_queue_pushes_back_instead_of_accepting_silently() {
    // One worker, one queue slot, immediate rejection: occupy the worker
    // with the heaviest workload (TFIM, 128 qubits — its movement-heavy
    // schedule takes ~hundreds of ms even with the quick placement
    // preset and warm caches), fill the single slot, then watch further
    // submissions bounce with a `queue full` error.
    let server = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        enqueue_timeout_ms: 0,
        ..test_config()
    })
    .expect("bind");
    let addr = server.addr();

    let slow = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(addr).expect("connect");
        c.submit(submit_for("TFIM", 1)).expect("slow job completes")
    });
    // Wait until the worker has actually claimed the slow job.
    let mut c = ServiceClient::connect(addr).expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let stats = c.stats().expect("stats");
        let submitted = stats.get("submitted").and_then(Json::as_u64).unwrap();
        let depth = stats.get("queue_depth").and_then(Json::as_u64).unwrap();
        if submitted == 1 && depth == 0 {
            break; // worker busy, queue empty
        }
        assert!(std::time::Instant::now() < deadline, "slow job never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Fill the single queue slot…
    let queued = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(addr).expect("connect");
        c.submit(submit_for("MLT", 7)).expect("queued job completes")
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let stats = c.stats().expect("stats");
        if stats.get("queue_depth").and_then(Json::as_u64).unwrap() == 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "second job never queued");
        std::thread::sleep(Duration::from_millis(2));
    }

    // …then the next distinct submission must be refused with backpressure.
    match c.submit(submit_for("QAOA", 3)) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("queue full"), "unexpected error: {msg}")
        }
        other => panic!("expected a queue-full rejection, got {other:?}"),
    }
    let stats = c.stats().expect("stats");
    assert_eq!(stats.get("rejected_full").and_then(Json::as_u64), Some(1));

    // Backpressure is not loss: both accepted jobs still complete.
    slow.join().expect("slow client");
    queued.join().expect("queued client");
}

#[test]
fn shutdown_drains_accepted_jobs_without_dropping_any() {
    let server = start(ServerConfig { workers: 2, ..test_config() }).expect("bind");
    let addr = server.addr();

    // Six clients submit continuously until the server starts refusing.
    let clients: Vec<_> = (0..6)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                let mut completed = 0u64;
                for round in 0..100u64 {
                    let w = WORKLOADS[(c + round as usize) % WORKLOADS.len()];
                    // Distinct seeds defeat the cache so jobs really queue.
                    let req = submit_for(w, 1000 + c as u64 * 100 + round);
                    match client.submit(req) {
                        Ok(reply) => {
                            assert!(reply.result.get("digest").is_some());
                            completed += 1;
                        }
                        Err(ClientError::Server(msg)) => {
                            assert!(
                                msg.contains("shutting down"),
                                "only shutdown refusals expected, got: {msg}"
                            );
                            break;
                        }
                        Err(other) => panic!("unexpected failure: {other}"),
                    }
                }
                completed
            })
        })
        .collect();

    // Let work pile up, then drain from a separate control connection.
    std::thread::sleep(Duration::from_millis(150));
    let mut control = ServiceClient::connect(addr).expect("connect");
    let drained = control.shutdown().expect("shutdown acks after drain");
    assert_eq!(drained.get("drained").and_then(Json::as_bool), Some(true));

    let client_completed: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();

    // After the drain ack, every accepted job must have completed and been
    // answered; the books must balance exactly.
    let stats = control.stats().expect("stats still served while drained");
    let submitted = stats.get("submitted").and_then(Json::as_u64).unwrap();
    let completed = stats.get("completed").and_then(Json::as_u64).unwrap();
    let hits = stats.get("cache_hits").and_then(Json::as_u64).unwrap();
    assert_eq!(submitted, completed, "drain must not drop accepted jobs");
    assert_eq!(stats.get("queue_depth").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("failed").and_then(Json::as_u64), Some(0));
    assert_eq!(
        client_completed,
        completed + hits,
        "every ok response maps to a completed job or a cache hit"
    );
    assert!(client_completed > 0, "some jobs must have completed before the drain");
}

#[test]
fn metrics_and_trace_ops_work_over_the_wire() {
    let server = start(test_config()).expect("bind");
    let mut client = ServiceClient::connect(server.addr()).expect("connect");

    // Tag the submission with a client-side correlation id and check the
    // echo, live over TCP.
    let reply = client
        .submit(SubmitRequest { trace: Some("e2e-tag-1".into()), ..submit_for("ADD", 41) })
        .expect("submit");
    assert_eq!(reply.trace_id, "e2e-tag-1");
    // Untagged: the server mints a 16-hex id.
    let minted = client.submit(submit_for("MLT", 41)).expect("submit").trace_id;
    assert_eq!(minted.len(), 16, "minted trace id must be 16 hex chars: {minted}");
    assert!(minted.chars().all(|c| c.is_ascii_hexdigit()));

    // The Prometheus exposition reflects the live server's registry. This
    // server's own counters carry a fresh `instance` label, so its series
    // start from exactly the two submissions above.
    let text = client.metrics().expect("metrics op");
    assert!(
        text.contains("# TYPE parallax_service_events_total counter"),
        "missing service counter family:\n{text}"
    );
    assert!(text.contains("# TYPE parallax_service_latency_us histogram"), "{text}");
    assert!(text.contains("parallax_compile_stat_total"), "{text}");
    assert!(text.contains("parallax_cache_entries"), "{text}");
    let events: Vec<&str> =
        text.lines().filter(|l| l.starts_with("parallax_service_events_total")).collect();
    assert!(!events.is_empty(), "no event series rendered:\n{text}");

    // The TRACE op always answers; span trees appear only when tracing is
    // enabled, and the `enabled` flag tells the client which case holds.
    let trace = client.trace(8).expect("trace op");
    assert_eq!(trace.get("ok").and_then(Json::as_bool), Some(true));
    assert!(trace.get("enabled").and_then(Json::as_bool).is_some());
    assert!(matches!(trace.get("traces"), Some(Json::Arr(_))));

    // Stats responses carry a wrapper-level trace id; the pinned `stats`
    // object stays untouched.
    let wrapper = client.stats_response().expect("stats");
    assert!(wrapper.get("trace_id").and_then(Json::as_str).is_some());
    assert!(wrapper.get("stats").and_then(|s| s.get("trace_id")).is_none());

    // Sweep headers carry the id too (echoed when client-supplied). QAOA
    // has U3 slots; one zero vector of the right arity is enough.
    let submit = SubmitRequest { trace: Some("e2e-sweep-7".into()), ..submit_for("QAOA", 41) };
    let slots = parallax_circuit::CircuitTemplate::from_circuit(
        &submit.resolve_circuit().expect("workload"),
    )
    .num_params();
    let sweep = client
        .submit_sweep(SweepRequest { submit, params: vec![vec![0.0; slots]] })
        .expect("one-point sweep");
    assert_eq!(sweep.trace_id, "e2e-sweep-7");
}
