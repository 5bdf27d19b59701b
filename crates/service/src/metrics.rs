//! Live service metrics: job counters, latency histogram, cache and queue
//! gauges — everything the `STATS` command reports.
//!
//! Counters live in the process-wide `parallax-trace` metrics registry
//! (family `parallax_service_events_total`, one series per event kind),
//! so the same numbers back both the JSON `STATS` snapshot and the
//! Prometheus `METRICS` exposition. Each [`Metrics`] instance gets its own
//! `instance` label: servers in the same process (tests run several) keep
//! independent counts, exactly as the old per-struct atomics did, while a
//! production process exposes its single instance's series. The hot path
//! is unchanged — a registered counter is one relaxed `fetch_add`.
//! Snapshots are encoded with the canonical [`crate::json`] encoder.

use crate::json::Json;
use parallax_core::CacheStats;
pub use parallax_trace::Counter;
use parallax_trace::Histogram;

/// Upper bounds (µs, inclusive) of the latency histogram buckets; the last
/// bucket is unbounded. Spans 100 µs to 100 s in decades.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 7] =
    [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// A fixed-bucket log-scale latency histogram (a [`parallax_trace::Histogram`]
/// with the service's decade bounds and the `STATS` JSON shape).
#[derive(Debug)]
pub struct LatencyHistogram {
    inner: Histogram,
}

impl Default for LatencyHistogram {
    /// A detached histogram (not in the registry) — unit tests and other
    /// standalone uses. Service instances are built registered via
    /// [`Metrics::new`].
    fn default() -> Self {
        Self { inner: Histogram::detached(&LATENCY_BUCKET_BOUNDS_US) }
    }
}

impl LatencyHistogram {
    fn registered(instance: &str) -> Self {
        Self {
            inner: parallax_trace::histogram(
                "parallax_service_latency_us",
                &[("instance", instance)],
                &LATENCY_BUCKET_BOUNDS_US,
            ),
        }
    }

    /// Record one latency observation.
    pub fn record(&self, micros: u64) {
        self.inner.record(micros);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.inner.mean()
    }

    /// Snapshot as JSON: bucket upper bounds and counts, plus summary.
    pub fn to_json(&self) -> Json {
        let counts: Vec<Json> = self.inner.bucket_counts().into_iter().map(Json::Int).collect();
        let mut bounds: Vec<Json> =
            LATENCY_BUCKET_BOUNDS_US.iter().map(|&b| Json::Int(b)).collect();
        bounds.push(Json::Null); // the overflow bucket has no upper bound
        Json::obj(vec![
            ("bounds_us", Json::Arr(bounds)),
            ("counts", Json::Arr(counts)),
            ("count", Json::Int(self.count())),
            ("mean_us", Json::Int(self.mean_us())),
            ("max_us", Json::Int(self.inner.max())),
        ])
    }
}

/// All service counters, shared by reference across threads. Each field is
/// a registry handle; the struct itself is just the instance's view.
#[derive(Debug)]
pub struct Metrics {
    /// Jobs accepted into the queue (excludes cache hits and rejections).
    pub submitted: Counter,
    /// Jobs compiled to completion.
    pub completed: Counter,
    /// Jobs whose compilation panicked.
    pub failed: Counter,
    /// Submissions refused because the queue was full (backpressure).
    pub rejected_full: Counter,
    /// Submissions refused because the server was draining.
    pub rejected_shutdown: Counter,
    /// Submissions answered straight from the result cache.
    pub cache_hits: Counter,
    /// Submissions that had to compile (cache misses).
    pub cache_misses: Counter,
    /// Malformed or invalid request lines.
    pub bad_requests: Counter,
    /// Parameter points served through `submit-sweep`.
    pub sweep_points: Counter,
    /// Sweep points answered by the process-wide template cache (a rebind,
    /// no compile).
    pub template_cache_hits: Counter,
    /// Sweep points that had to compile their structure's template.
    pub template_cache_misses: Counter,
    /// Cumulative nanoseconds spent on the rebind fast path (template-hit
    /// sweep points only, so `rebind_ns / template_cache_hits` is the mean
    /// cost of serving one warm sweep point).
    pub rebind_ns: Counter,
    /// End-to-end submit latency (arrival to response encode), µs.
    pub latency: LatencyHistogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Create this server's registry-backed counters under a fresh
    /// `instance` label.
    pub fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let instance = INSTANCE.fetch_add(1, Ordering::Relaxed).to_string();
        let event = |event: &str| {
            parallax_trace::counter(
                "parallax_service_events_total",
                &[("event", event), ("instance", &instance)],
            )
        };
        Self {
            submitted: event("submitted"),
            completed: event("completed"),
            failed: event("failed"),
            rejected_full: event("rejected_full"),
            rejected_shutdown: event("rejected_shutdown"),
            cache_hits: event("cache_hit"),
            cache_misses: event("cache_miss"),
            bad_requests: event("bad_request"),
            sweep_points: event("sweep_point"),
            template_cache_hits: event("template_cache_hit"),
            template_cache_misses: event("template_cache_miss"),
            rebind_ns: parallax_trace::counter(
                "parallax_service_rebind_ns_total",
                &[("instance", &instance)],
            ),
            latency: LatencyHistogram::registered(&instance),
        }
    }

    /// Snapshot every counter (plus the caller-supplied queue gauges) as
    /// the `STATS` payload. `cache` is the per-server result cache; the
    /// process-wide sub-objects (`layout_cache`, `template_cache`,
    /// `profile`) are snapshotted here — they are global
    /// to the process, so there is nothing server-specific to inject.
    pub fn to_json(&self, queue_depth: usize, queue_capacity: usize, cache: Json) -> Json {
        let layout_cache = Json::obj(cache_fields(parallax_core::layout_cache_stats()));
        let template_cache = Json::obj(cache_fields(parallax_core::template_cache_stats()));
        let profile = Self::profile_json();
        let multi_mover = Self::multi_mover_json();
        let load = |c: &Counter| Json::Int(c.get());
        Json::obj(vec![
            ("submitted", load(&self.submitted)),
            ("completed", load(&self.completed)),
            ("failed", load(&self.failed)),
            ("rejected_full", load(&self.rejected_full)),
            ("rejected_shutdown", load(&self.rejected_shutdown)),
            ("cache_hits", load(&self.cache_hits)),
            ("cache_misses", load(&self.cache_misses)),
            ("bad_requests", load(&self.bad_requests)),
            ("sweep_points", load(&self.sweep_points)),
            ("template_cache_hits", load(&self.template_cache_hits)),
            ("template_cache_misses", load(&self.template_cache_misses)),
            ("rebind_ns", load(&self.rebind_ns)),
            ("queue_depth", Json::Int(queue_depth as u64)),
            ("queue_capacity", Json::Int(queue_capacity as u64)),
            ("cache", cache),
            ("layout_cache", layout_cache),
            ("template_cache", template_cache),
            ("profile", profile),
            ("multi_mover", multi_mover),
            ("latency", self.latency.to_json()),
        ])
    }

    /// The process-wide multi-mover scheduling counters as a `STATS`
    /// sub-object, read back from the compile-stat registry family
    /// (`parallax_compile_stat_total{stat="multi_mover_*"}`). All zero
    /// until a compile runs with `"scheduling":"multi-mover"` — the
    /// ablation is off by default, and this sub-object is how an operator
    /// confirms whether a fleet is exercising it.
    pub fn multi_mover_json() -> Json {
        let stat = |stat: &str| {
            Json::Int(
                parallax_trace::counter("parallax_compile_stat_total", &[("stat", stat)]).get(),
            )
        };
        Json::obj(vec![
            ("compiles", stat("multi_mover_compiles")),
            ("multi_layers", stat("multi_mover_multi_layers")),
            ("layers_saved", stat("multi_mover_layers_saved")),
            ("conflicts", stat("multi_mover_conflicts")),
            ("home_return_skips", stat("home_return_skips")),
        ])
    }

    /// The per-stage counters as a `STATS` sub-object. The pipeline stages
    /// always count; the scheduler sub-stages count only compiles that ran
    /// under span tracing (zeros otherwise).
    pub fn profile_json() -> Json {
        let stages = parallax_core::profile::snapshot()
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("stage", Json::Str(s.stage.to_string())),
                    ("calls", Json::Int(s.calls)),
                    ("total_us", Json::Int(s.total_us)),
                ])
            })
            .collect();
        Json::obj(vec![("stages", Json::Arr(stages))])
    }
}

/// The six `STATS` fields every cache sub-object (`cache`, `layout_cache`,
/// `template_cache`) reports. `capacity` and `weight` are in the layer's
/// unit: payload bytes for the result cache, qubit-units for the core
/// caches (a template is charged its qubit count plus its scheduled gate
/// and move volume).
pub fn cache_fields(s: CacheStats) -> Vec<(&'static str, Json)> {
    vec![
        ("len", Json::Int(s.len as u64)),
        ("capacity", Json::Int(s.capacity as u64)),
        ("weight", Json::Int(s.weight as u64)),
        ("hits", Json::Int(s.hits)),
        ("misses", Json::Int(s.misses)),
        ("evictions", Json::Int(s.evictions)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_decade() {
        let h = LatencyHistogram::default();
        h.record(50); // bucket 0 (<=100µs)
        h.record(100); // bucket 0 (inclusive bound)
        h.record(500); // bucket 1
        h.record(2_000_000); // bucket 5 (<=10s)
        h.record(u64::MAX); // overflow bucket
        let j = h.to_json();
        let counts = match j.get("counts") {
            Some(Json::Arr(v)) => v.iter().map(|c| c.as_u64().unwrap()).collect::<Vec<_>>(),
            _ => panic!("no counts"),
        };
        assert_eq!(counts.len(), 8);
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[5], 1);
        assert_eq!(counts[7], 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn mean_and_max_track_observations() {
        let h = LatencyHistogram::default();
        assert_eq!(h.mean_us(), 0);
        h.record(10);
        h.record(30);
        assert_eq!(h.mean_us(), 20);
        assert_eq!(h.to_json().get("max_us").and_then(Json::as_u64), Some(30));
    }

    #[test]
    fn stats_snapshot_includes_gauges() {
        let m = Metrics::default();
        m.submitted.inc();
        m.cache_hits.inc();
        let j = m.to_json(3, 64, Json::obj(vec![("len", Json::Num(1.0))]));
        assert_eq!(j.get("submitted").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("cache_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("queue_depth").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("queue_capacity").and_then(Json::as_u64), Some(64));
        assert_eq!(j.get("cache").and_then(|c| c.get("len")).and_then(Json::as_u64), Some(1));
        // Sweep counters ride along (zero until a submit-sweep is served).
        assert_eq!(j.get("sweep_points").and_then(Json::as_u64), Some(0));
        assert_eq!(j.get("template_cache_hits").and_then(Json::as_u64), Some(0));
        assert_eq!(j.get("rebind_ns").and_then(Json::as_u64), Some(0));
        // Every process-wide cache layer is part of every snapshot.
        for layer in ["layout_cache", "template_cache"] {
            let lc = j.get(layer).unwrap_or_else(|| panic!("{layer} sub-object"));
            for key in ["len", "capacity", "weight", "hits", "misses", "evictions"] {
                assert!(lc.get(key).and_then(Json::as_u64).is_some(), "missing {layer}.{key}");
            }
        }
        let mm = j.get("multi_mover").expect("multi_mover sub-object");
        for key in ["compiles", "multi_layers", "layers_saved", "conflicts", "home_return_skips"] {
            assert!(mm.get(key).and_then(Json::as_u64).is_some(), "missing multi_mover.{key}");
        }
        let profile = j.get("profile").expect("profile sub-object");
        // The four pipeline stages plus the scheduler's four sub-stages.
        let Some(Json::Arr(stages)) = profile.get("stages") else { panic!("profile.stages") };
        assert_eq!(stages.len(), 8);
    }

    #[test]
    fn instances_are_independent_and_exposed() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.submitted.inc();
        a.submitted.inc();
        b.submitted.inc();
        assert_eq!(a.submitted.get(), 2);
        assert_eq!(b.submitted.get(), 1);
        a.latency.record(42);
        // Both instances appear in the process-wide exposition.
        let text = parallax_trace::render_prometheus_filtered("parallax_service_");
        assert!(text.contains("# TYPE parallax_service_events_total counter"), "{text}");
        assert!(text.contains("parallax_service_latency_us_count"), "{text}");
    }
}
