//! Pipeline stage timing: one guard per timed interval.
//!
//! [`stage`] opens the stage's span (`stage.*` / `schedule.*`, the names
//! the trace ring and Chrome exports show) and, when profiling is on, adds
//! the interval to the stage counters on drop. `PARALLAX_PROFILE=1` is a
//! view over the span clock, not a second timer: with tracing on as well,
//! the counters receive exactly the duration the span writes to the ring.
//! With both off, a guard costs one relaxed load and one cached-boolean
//! branch — no clock reads, no atomics.
//!
//! Counters live in the process-wide `parallax-trace` metrics registry
//! (families `parallax_stage_calls_total`, `parallax_stage_time_ns_total`,
//! `parallax_stage_allocs_total`, one series per `stage` label), which lets
//! every surface report them: the compile service embeds [`snapshot`] in
//! its `STATS` response (rendered by `parallax-client stats`), the same
//! numbers appear in the `METRICS` Prometheus exposition, and the
//! `experiments` binary prints the table after a profiled run.

use parallax_trace::{Counter, Span};
use std::sync::OnceLock;

/// The profiled pipeline stages, in pipeline order. The `Schedule*`
/// entries are sub-stages of `Schedule`: they partition the scheduler's
/// per-layer loop (frontier build / movement resolution / blockade pass /
/// home return), so the scheduler's own bottleneck is visible without a
/// sampling profiler. Sub-stage times nest inside the `schedule` total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// GRAPHINE annealed placement (or a layout-cache lookup).
    Placement,
    /// Grid discretization.
    Discretize,
    /// AOD qubit selection.
    AodSelect,
    /// Gate/movement scheduling.
    Schedule,
    /// Scheduler sub-stage: dependency-frontier maintenance.
    ScheduleFrontier,
    /// Scheduler sub-stage: AOD movement planning and commits.
    ScheduleMovement,
    /// Scheduler sub-stage: Rydberg-blockade interference pass.
    ScheduleBlockade,
    /// Scheduler sub-stage: returning moved atoms home.
    ScheduleReturn,
}

/// Display names, indexed by `Stage as usize`.
pub const STAGE_NAMES: [&str; 8] = [
    "placement",
    "discretize",
    "aod_select",
    "schedule",
    "  frontier",
    "  movement",
    "  blockade",
    "  return",
];

struct StageCounters {
    calls: Counter,
    time_ns: Counter,
    allocs: Counter,
}

// Registry handles resolve once; afterwards a stage record is three
// relaxed fetch_adds, same as the pre-registry static table. Sub-stage
// display names carry a two-space indent for the text table; the metric
// label is the trimmed name.
fn table() -> &'static [StageCounters; 8] {
    static TABLE: OnceLock<[StageCounters; 8]> = OnceLock::new();
    TABLE.get_or_init(|| {
        STAGE_NAMES.map(|name| {
            let labels = [("stage", name.trim_start())];
            StageCounters {
                calls: parallax_trace::counter("parallax_stage_calls_total", &labels),
                time_ns: parallax_trace::counter("parallax_stage_time_ns_total", &labels),
                allocs: parallax_trace::counter("parallax_stage_allocs_total", &labels),
            }
        })
    })
}

static ENABLED: OnceLock<bool> = OnceLock::new();

/// Whether profiling is on (`PARALLAX_PROFILE=1`; read once per process).
pub fn enabled() -> bool {
    *ENABLED.get_or_init(|| std::env::var("PARALLAX_PROFILE").is_ok_and(|v| v == "1"))
}

/// Turn profiling on programmatically (the `profile_stages` example). Must
/// run before the first [`enabled`] call to take effect — the flag is
/// latched on first read so the hot path stays one branch on a cached bool.
pub fn force_enable() {
    let _ = ENABLED.set(true);
}

/// Span names, indexed by `Stage as usize`.
const SPAN_NAMES: [&str; 8] = [
    "stage.placement",
    "stage.discretize",
    "stage.aod_select",
    "stage.schedule",
    "schedule.frontier",
    "schedule.movement",
    "schedule.blockade",
    "schedule.return",
];

/// An open stage interval; see [`stage`].
pub struct StageGuard {
    stage: Stage,
    span: Span,
    /// Whether the interval feeds the stage counters (profiling latched on).
    profiled: bool,
    /// Own start reading, taken only when profiling without a live span.
    start_ns: u64,
    allocs: u64,
}

impl StageGuard {
    /// Heap allocations to report for this interval (placement: the
    /// annealer's; blockade: the bucket scratch's growth).
    pub fn set_allocs(&mut self, allocs: u64) {
        self.allocs = allocs;
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let traced = self.span.close();
        if self.profiled {
            let ns =
                traced.unwrap_or_else(|| parallax_trace::now_ns().saturating_sub(self.start_ns));
            record_raw(self.stage, ns, self.allocs);
        }
    }
}

/// Time `stage` until the returned guard drops: its span when tracing is
/// on, its counters when profiling is on, both from the same clock reads.
#[inline]
#[must_use = "the stage is timed until the guard drops"]
pub fn stage(stage: Stage) -> StageGuard {
    static NAME_IDS: [OnceLock<u32>; 8] = [const { OnceLock::new() }; 8];
    let i = stage as usize;
    let span = Span::enter_interned(&NAME_IDS[i], SPAN_NAMES[i]);
    let profiled = enabled();
    let start_ns = if profiled && !span.is_active() { parallax_trace::now_ns() } else { 0 };
    StageGuard { stage, span, profiled, start_ns, allocs: 0 }
}

/// Record a stage observation directly (used by [`StageGuard`] and by
/// tests, which cannot set the environment variable process-wide).
pub fn record_raw(stage: Stage, time_ns: u64, allocs: u64) {
    let c = &table()[stage as usize];
    c.calls.inc();
    c.time_ns.add(time_ns);
    c.allocs.add(allocs);
}

/// One stage's accumulated counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stage display name.
    pub stage: &'static str,
    /// Completed calls.
    pub calls: u64,
    /// Cumulative wall-clock time, µs.
    pub total_us: u64,
    /// Cumulative annealer heap allocations (placement stage only).
    pub allocs: u64,
}

/// Snapshot every stage (zeros when profiling never ran).
pub fn snapshot() -> Vec<StageSnapshot> {
    table()
        .iter()
        .zip(STAGE_NAMES)
        .map(|(c, stage)| StageSnapshot {
            stage,
            calls: c.calls.get(),
            total_us: c.time_ns.get() / 1_000,
            allocs: c.allocs.get(),
        })
        .collect()
}

/// Render the snapshot as an aligned text table (the `experiments` binary
/// prints this after a `PARALLAX_PROFILE=1` run).
pub fn render() -> String {
    let snap = snapshot();
    let mut out = String::from("stage        calls     total_ms      allocs\n");
    for s in &snap {
        out.push_str(&format!(
            "{:<12} {:>6} {:>12.3} {:>11}\n",
            s.stage,
            s.calls,
            s.total_us as f64 / 1e3,
            s.allocs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Touches the shared global table; keep every assertion delta-based so
    // concurrently running compiles can only add.
    #[test]
    fn records_accumulate_and_render() {
        let before = snapshot();
        record_raw(Stage::Placement, 2_500, 7);
        record_raw(Stage::Placement, 1_500, 3);
        record_raw(Stage::Schedule, 9_000, 0);
        let after = snapshot();
        let d = |i: usize| {
            (
                after[i].calls - before[i].calls,
                after[i].total_us - before[i].total_us,
                after[i].allocs - before[i].allocs,
            )
        };
        let (calls, us, allocs) = d(Stage::Placement as usize);
        assert!(calls >= 2 && us >= 4 && allocs >= 10, "{calls} {us} {allocs}");
        let (calls, us, _) = d(Stage::Schedule as usize);
        assert!(calls >= 1 && us >= 9);
        let table = render();
        assert!(table.contains("placement") && table.contains("schedule"));
    }

    #[test]
    fn unprofiled_guard_records_nothing() {
        // The test environment never sets PARALLAX_PROFILE (and nothing in
        // this crate forces it on), so a guard must not touch the counters.
        if !enabled() {
            let before = snapshot()[Stage::ScheduleReturn as usize];
            let mut guard = stage(Stage::ScheduleReturn);
            guard.set_allocs(5);
            drop(guard);
            assert_eq!(snapshot()[Stage::ScheduleReturn as usize], before);
        }
    }
}
