//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer,
//! kept in memory, and written out once at the end as a Chrome trace.
//! A span's self time is its duration minus the time covered by its
//! children.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    trace: u64,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
    child_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), trace: 0 }
    }

    /// Tag every span recorded from now on with `trace` (one pass, or one
    /// request, shares an id).
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    /// Record `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    /// Open a span that [`Tracer::close`] ends; for spans whose body needs
    /// `&mut self` itself (children recorded inside).
    pub fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            trace: self.trace,
            parent: self.open.last().copied(),
            start_ns: (Instant::now() - self.epoch).as_nanos() as u64,
            dur_ns: 0,
            child_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    pub fn close(&mut self, idx: usize) {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        let now = (Instant::now() - self.epoch).as_nanos() as u64;
        let dur_ns = now - self.spans[idx].start_ns;
        self.spans[idx].dur_ns = dur_ns;
        if let Some(p) = self.spans[idx].parent {
            self.spans[p].child_ns += dur_ns;
        }
    }

    /// Spans recorded so far; a mark for [`Tracer::self_ms_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time of the spans named in `names` recorded since `mark`, ms.
    pub fn self_ms_since(&self, mark: usize, names: &[&str]) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| (s.dur_ns - s.child_ns) as f64 / 1e6)
            .sum()
    }

    /// Self time per span name, in ms, summed over spans of `trace`.
    pub fn self_ms_by_name(&self, trace: u64) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.trace == trace) {
            *out.entry(s.name).or_insert(0.0) += (s.dur_ns - s.child_ns) as f64 / 1e6;
        }
        out
    }

    /// Total duration of the spans named `name` in `trace`, ms.
    pub fn total_ms(&self, trace: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.trace == trace && s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .sum()
    }

    /// Every duration recorded under `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64 / 1e3).collect()
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"trace\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.trace,
                (s.dur_ns - s.child_ns) as f64 / 1e3
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_trace(1);
        let root = t.open("root");
        t.time("child", || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.close(root);
        let by = t.self_ms_by_name(1);
        assert!(by["child"] >= 5.0);
        assert!(by["root"] < by["child"]);
        assert!(t.chrome_json().contains("\"name\":\"child\""));
    }
}
