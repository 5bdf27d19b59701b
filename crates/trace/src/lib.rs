//! Observability layer for the Parallax stack.
//!
//! Three pieces, all std-only with zero dependencies so every crate in the
//! workspace can depend on this one:
//!
//! - [`ring`] / [`span!`]: lock-free structured span tracing — nested,
//!   timestamped spans recorded into a bounded ring buffer, tagged with
//!   per-request trace ids, costing one relaxed atomic load when disabled.
//! - [`registry`]: the unified metrics registry — named, labeled counters,
//!   gauges, and fixed-bucket histograms with Prometheus text exposition,
//!   absorbing the stage timers, service counters, and cache statistics
//!   that used to live in scattered per-crate atomics.
//! - [`chrome`]: Chrome trace-event JSON export of ring contents, loadable
//!   in `chrome://tracing` / Perfetto.
//!
//! The cardinal rule: **observability never changes compile output.** Spans
//! only read clocks and write to side buffers; metrics only bump atomics.
//! The umbrella crate's differential tests byte-diff traced vs untraced
//! compile payloads to enforce this.

pub mod chrome;
pub mod registry;
pub mod ring;

pub use chrome::{export_chrome, validate_nesting};
pub use registry::{
    counter, gauge, histogram, register_collector, render_prometheus, render_prometheus_filtered,
    Collector, Counter, Gauge, Histogram, Sample, SampleKind,
};
pub use ring::{
    current_trace_id, dropped_events, enabled, intern, next_trace_id, now_ns, recent_traces,
    set_enabled, snapshot_events, trace_id_scope, Span, TraceEvent, TraceIdScope, TraceTree,
};
