//! Observability never changes compile output — the tentpole contract of
//! the tracing layer, proven by byte-diffing payloads.
//!
//! Every test here drives the full pipeline twice over the same input —
//! once with span tracing enabled, once disabled — and asserts that the
//! canonically encoded result payload (the exact bytes the service caches
//! and serves) is identical. Spans only read clocks and write into a side
//! ring buffer; metrics only bump atomics; neither may influence
//! placement, discretization, AOD selection, or scheduling.
//!
//! The Chrome-export tests double as the structural check behind the CI
//! smoke run: exported JSON must parse, and spans must nest properly
//! (every child contained in its parent, depth = parent depth + 1).

use parallax_core::{CompilerConfig, ParallaxCompiler};
use parallax_hardware::MachineSpec;
use parallax_service::{compile_payload, json};
use parallax_trace as trace;
use std::sync::Mutex;

/// The enable flag is process-global, so tests that flip it must not
/// interleave; a poisoned lock (failed sibling) must not cascade.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn machines() -> [MachineSpec; 2] {
    [MachineSpec::quera_aquila_256(), MachineSpec::atom_1225()]
}

/// One full compile of `workload` at `seed`, returning the canonical
/// service payload bytes, with tracing flipped to `traced` for the call.
fn payload(machine: &MachineSpec, workload: &str, seed: u64, traced: bool) -> String {
    trace::set_enabled(traced);
    let circuit = parallax_workloads::benchmark(workload).expect(workload).circuit(seed);
    let compiler = ParallaxCompiler::new(*machine, CompilerConfig::quick(seed));
    let result = compiler.compile(&circuit);
    trace::set_enabled(false);
    compile_payload(&result).encode()
}

#[test]
fn traced_compiles_are_byte_identical_to_untraced() {
    let _lock = trace_lock();
    for machine in &machines() {
        for seed in 0..3u64 {
            // Alternate which mode runs first so both cold-cache and
            // warm-cache compiles execute with tracing enabled.
            let (first_traced, second_traced) = (seed % 2 == 0, seed % 2 != 0);
            let a = payload(machine, "ADD", seed, first_traced);
            let b = payload(machine, "ADD", seed, second_traced);
            assert_eq!(a, b, "tracing changed the compiled payload ({} seed {seed})", machine.name);
        }
    }
}

#[test]
fn traced_sweep_payloads_are_byte_identical() {
    let _lock = trace_lock();
    let machine = MachineSpec::quera_aquila_256();
    let circuit = parallax_workloads::benchmark("TFIM").expect("TFIM").circuit(0);
    let compiler = ParallaxCompiler::new(machine, CompilerConfig::quick(0));
    let key = parallax_core::template_key(&compiler, &circuit);

    trace::set_enabled(false);
    let (untraced, _) = parallax_core::compiled_template_keyed(key, &compiler, &circuit);
    let untraced = compile_payload(untraced.result()).encode();

    trace::set_enabled(true);
    let (traced, _) = parallax_core::compiled_template_keyed(key, &compiler, &circuit);
    let traced = compile_payload(traced.result()).encode();
    trace::set_enabled(false);

    assert_eq!(untraced, traced, "tracing changed the template fast path's payload");
}

#[test]
fn chrome_export_parses_and_spans_nest() {
    let _lock = trace_lock();
    trace::set_enabled(true);
    let circuit = parallax_workloads::benchmark("QFT").expect("QFT").circuit(1);
    let compiler = ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(1));
    let _guard = trace::trace_id_scope(trace::next_trace_id());
    let _ = compiler.compile(&circuit);
    drop(_guard);
    trace::set_enabled(false);

    let events = trace::snapshot_events();
    assert!(!events.is_empty(), "a traced compile must record spans");
    trace::validate_nesting(&events).expect("spans must nest");

    let exported = json::parse(&trace::export_chrome(&events)).expect("valid JSON");
    let arr = match exported.get("traceEvents") {
        Some(parallax_service::Json::Arr(a)) => a,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert_eq!(arr.len(), events.len());
    let names: Vec<&str> =
        arr.iter().filter_map(|e| e.get("name").and_then(parallax_service::Json::as_str)).collect();
    // The acceptance chain: pipeline root, its stages, the scheduler's
    // sub-stages, and a cache probe all appear in one export.
    for required in
        ["compile", "stage.placement", "stage.schedule", "schedule.frontier", "schedule.movement"]
    {
        assert!(names.contains(&required), "span '{required}' missing from {names:?}");
    }
    for e in arr {
        assert_eq!(e.get("ph").and_then(parallax_service::Json::as_str), Some("X"));
        assert!(e.get("ts").is_some() && e.get("dur").is_some());
    }
}

#[test]
fn recent_traces_group_spans_by_request() {
    let _lock = trace_lock();
    trace::set_enabled(true);
    let circuit = parallax_workloads::benchmark("HLF").expect("HLF").circuit(2);
    let compiler = ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(2));
    let id_a = trace::next_trace_id();
    {
        let _g = trace::trace_id_scope(id_a);
        let _ = compiler.compile(&circuit);
    }
    trace::set_enabled(false);

    let trees = trace::recent_traces(64);
    let tree = trees
        .iter()
        .find(|t| t.trace_id == id_a)
        .expect("the tagged compile's trace tree is retrievable");
    assert!(tree.events.iter().any(|e| e.name == "compile"));
    assert!(tree.events.iter().all(|e| e.trace_id == id_a));
}

/// One timer per interval: with tracing on, each stage's `parallax_stage_*`
/// counters move by exactly what the ring recorded for that stage's span —
/// one call per span, and the summed span durations to the nanosecond.
#[test]
fn stage_counters_are_a_view_over_the_span_clock() {
    let _lock = trace_lock();
    let stages = [
        ("placement", "stage.placement"),
        ("discretize", "stage.discretize"),
        ("aod_select", "stage.aod_select"),
        ("schedule", "stage.schedule"),
        ("frontier", "schedule.frontier"),
        ("movement", "schedule.movement"),
        ("blockade", "schedule.blockade"),
        ("return", "schedule.return"),
    ];
    let read = |stage: &str| {
        let labels = [("stage", stage)];
        let calls = trace::counter("parallax_stage_calls_total", &labels).get();
        (calls, trace::counter("parallax_stage_time_ns_total", &labels).get())
    };
    let before: Vec<(u64, u64)> = stages.iter().map(|&(stage, _)| read(stage)).collect();

    trace::set_enabled(true);
    let id = trace::next_trace_id();
    {
        let _scope = trace::trace_id_scope(id);
        let circuit = parallax_workloads::benchmark("QFT").expect("QFT").circuit(3);
        let config = CompilerConfig::quick(3);
        let _ = ParallaxCompiler::new(MachineSpec::quera_aquila_256(), config).compile(&circuit);
    }
    trace::set_enabled(false);

    let events: Vec<_> =
        trace::snapshot_events().into_iter().filter(|e| e.trace_id == id).collect();
    for (&(stage, span), (calls, ns)) in stages.iter().zip(before) {
        let spans: Vec<u64> = events.iter().filter(|e| e.name == span).map(|e| e.dur_ns).collect();
        assert!(!spans.is_empty(), "no '{span}' spans recorded");
        let (calls_after, ns_after) = read(stage);
        assert_eq!(calls_after - calls, spans.len() as u64, "{stage}: calls vs '{span}' spans");
        assert_eq!(ns_after - ns, spans.iter().sum::<u64>(), "{stage}: time vs '{span}' spans");
    }
}
