//! Pipeline stage timing: one guard per timed interval.
//!
//! [`stage`] opens the stage's span (`stage.*` / `schedule.*`, the names
//! the trace ring and Chrome exports show) and adds the interval to the
//! stage counters on drop. The counters are a view over the span clock,
//! not a second timer, and follow one fixed rule:
//!
//! * The four pipeline stages (`placement` … `schedule`) always count.
//!   With tracing on they receive exactly the duration their span writes
//!   to the ring; with tracing off the guard takes its own two clock
//!   reads.
//! * The four per-layer scheduler sub-stages count only what their span
//!   measured. With tracing off such a guard costs one relaxed load and a
//!   branch — no clock reads, no atomics — because a compile opens
//!   thousands of them.
//!
//! Each stage keeps two counters, completed calls and accumulated time,
//! in the process-wide `parallax-trace` metrics registry (families
//! `parallax_stage_calls_total` and `parallax_stage_time_ns_total`, one
//! series per `stage` label), which lets every surface report them: the
//! compile service embeds [`snapshot`] in its `STATS` response (rendered
//! by `parallax-client stats`), the same numbers appear in the `METRICS`
//! Prometheus exposition, and the `experiments` binary prints the table to
//! stderr after every run.

use parallax_trace::{Counter, Span};
use std::sync::OnceLock;

/// The timed pipeline stages, in pipeline order. The `Schedule*`
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
}

// Registry handles resolve once; afterwards a stage record is two
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
            }
        })
    })
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
    /// Own start reading, taken only by a pipeline stage without a live span.
    start_ns: u64,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let ns = match self.span.close() {
            Some(ns) => ns,
            None if is_pipeline(self.stage) => {
                parallax_trace::now_ns().saturating_sub(self.start_ns)
            }
            None => return,
        };
        record_raw(self.stage, ns);
    }
}

/// Whether `stage` is one of the four pipeline stages, which count with
/// tracing off too (the sub-stages count only through their spans).
fn is_pipeline(stage: Stage) -> bool {
    stage as usize <= Stage::Schedule as usize
}

/// Time `stage` until the returned guard drops: its span when tracing is
/// on, and its counters by the rule in the module docs, both from the same
/// clock reads.
#[inline]
#[must_use = "the stage is timed until the guard drops"]
pub fn stage(stage: Stage) -> StageGuard {
    static NAME_IDS: [OnceLock<u32>; 8] = [const { OnceLock::new() }; 8];
    let i = stage as usize;
    let span = Span::enter_interned(&NAME_IDS[i], SPAN_NAMES[i]);
    let start_ns =
        if is_pipeline(stage) && !span.is_active() { parallax_trace::now_ns() } else { 0 };
    StageGuard { stage, span, start_ns }
}

/// Add one observation to `stage`'s counters.
fn record_raw(stage: Stage, time_ns: u64) {
    let c = &table()[stage as usize];
    c.calls.inc();
    c.time_ns.add(time_ns);
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
}

/// Snapshot every stage (zeros for a stage that never ran).
pub fn snapshot() -> Vec<StageSnapshot> {
    table()
        .iter()
        .zip(STAGE_NAMES)
        .map(|(c, stage)| StageSnapshot {
            stage,
            calls: c.calls.get(),
            total_us: c.time_ns.get() / 1_000,
        })
        .collect()
}

/// Render the snapshot as an aligned text table (the `experiments` binary
/// prints this to stderr after every run).
pub fn render() -> String {
    let snap = snapshot();
    let mut out = String::from("stage        calls     total_ms\n");
    for s in &snap {
        out.push_str(&format!(
            "{:<12} {:>6} {:>12.3}\n",
            s.stage,
            s.calls,
            s.total_us as f64 / 1e3
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
        record_raw(Stage::Placement, 2_500);
        record_raw(Stage::Placement, 1_500);
        record_raw(Stage::Schedule, 9_000);
        let after = snapshot();
        let d =
            |i: usize| (after[i].calls - before[i].calls, after[i].total_us - before[i].total_us);
        let (calls, us) = d(Stage::Placement as usize);
        assert!(calls >= 2 && us >= 4, "{calls} {us}");
        let (calls, us) = d(Stage::Schedule as usize);
        assert!(calls >= 1 && us >= 9);
        let table = render();
        assert!(table.contains("placement") && table.contains("schedule"));
    }

    #[test]
    fn untraced_guards_count_pipeline_stages_only() {
        // Nothing in this crate's tests turns tracing on (only the
        // `PARALLAX_TRACE` env var could), so this is the default path: a
        // pipeline-stage guard adds a call from its own clock reads, a
        // sub-stage guard adds nothing. Concurrent compiles can add
        // pipeline calls but, untraced, no sub-stage calls either.
        if !parallax_trace::enabled() {
            let before = snapshot();
            drop(stage(Stage::Schedule));
            drop(stage(Stage::ScheduleReturn));
            let after = snapshot();
            let (s, r) = (Stage::Schedule as usize, Stage::ScheduleReturn as usize);
            assert!(after[s].calls > before[s].calls);
            assert_eq!(after[r], before[r]);
        }
    }
}
