//! The compile worker pool.
//!
//! Workers pop jobs off the shared [`JobQueue`] (highest priority first),
//! drive [`ParallaxCompiler::compile`], publish the canonical payload into
//! the result cache, and hand the outcome back to the submitting
//! connection over the job's reply channel. A panicking compilation is
//! caught and surfaced as a per-job failure — one poisoned circuit cannot
//! take a worker (or the server) down.

use crate::cache::{insert_payload, CacheKey};
use crate::metrics::Metrics;
use crate::protocol::compile_payload;
use crate::queue::JobQueue;
use crate::ServiceShared;
use parallax_circuit::Circuit;
use parallax_core::ParallaxCompiler;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One accepted compile job.
pub struct Job {
    /// The optimized circuit to compile.
    pub circuit: Circuit,
    /// Compiler for the requested (machine, config).
    pub compiler: ParallaxCompiler,
    /// Content address for the result cache.
    pub key: CacheKey,
    /// Numeric trace id of the originating request: the worker tags every
    /// span of this job's compile with it, so the service `TRACE` op can
    /// slice the ring buffer per request.
    pub trace_id: u64,
    /// Where the submitting connection waits for the outcome.
    pub reply: mpsc::Sender<JobOutcome>,
}

/// What a worker sends back for one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Compilation succeeded; `payload` is the canonical encoded result.
    Done {
        /// Canonical result payload (also inserted into the cache).
        payload: String,
        /// Pure compile time, µs.
        compile_us: u64,
    },
    /// Compilation panicked.
    Failed {
        /// The panic message.
        error: String,
    },
}

/// Number of workers to start for `requested` (0 = available CPUs).
pub fn effective_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Spawn `count` workers draining `shared.queue` until it is closed and
/// empty. Joining the returned handles therefore waits for every accepted
/// job to finish — the graceful-shutdown drain.
pub fn spawn_workers(count: usize, shared: Arc<ServiceShared>) -> Vec<JoinHandle<()>> {
    (0..count.max(1))
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("parallax-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker thread")
        })
        .collect()
}

fn worker_loop(shared: &ServiceShared) {
    while let Some(job) = shared.queue.pop() {
        let outcome = run_job(&job, &shared.metrics, |key, payload| {
            // Write-through: the disk tier gets every compiled payload, so
            // a restarted process answers this key without recompiling.
            if let Some(disk) = &shared.disk {
                disk.store(&key, &payload);
            }
            insert_payload(&mut shared.cache.lock().expect("cache lock"), key, payload);
        });
        // A dropped receiver (client went away mid-compile) is fine; the
        // result is already cached for the next submission.
        let _ = job.reply.send(outcome);
    }
}

/// Compile one job, record metrics, and publish via `publish` on success.
fn run_job(job: &Job, metrics: &Metrics, publish: impl FnOnce(CacheKey, String)) -> JobOutcome {
    // Tag every span the compile records with the request's trace id; the
    // guard sits outside catch_unwind, so the previous id is restored even
    // when the compile panics.
    let _trace = parallax_trace::trace_id_scope(job.trace_id);
    let started = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| job.compiler.compile(&job.circuit))) {
        Ok(result) => {
            let payload = compile_payload(&result).encode();
            publish(job.key, payload.clone());
            Metrics::inc(&metrics.completed);
            JobOutcome::Done { payload, compile_us: started.elapsed().as_micros() as u64 }
        }
        Err(panic) => {
            Metrics::inc(&metrics.failed);
            JobOutcome::Failed { error: parallax_core::panic_message(panic) }
        }
    }
}

/// Queue type alias used across the service.
pub type ServiceQueue = JobQueue<Job>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::circuit_content_hash;
    use parallax_circuit::CircuitBuilder;
    use parallax_core::CompilerConfig;
    use parallax_hardware::MachineSpec;

    fn job(reply: mpsc::Sender<JobOutcome>) -> Job {
        let mut b = CircuitBuilder::new(3);
        b.h(0).cx(0, 1).cx(1, 2);
        let circuit = b.build();
        let compiler =
            ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(1));
        let key =
            CacheKey { circuit: circuit_content_hash(&circuit), compiler: compiler.fingerprint() };
        Job { circuit, compiler, key, trace_id: parallax_trace::next_trace_id(), reply }
    }

    #[test]
    fn run_job_compiles_and_publishes() {
        let (tx, _rx) = mpsc::channel();
        let j = job(tx);
        let metrics = Metrics::default();
        let mut published = None;
        let outcome = run_job(&j, &metrics, |k, p| published = Some((k, p)));
        match outcome {
            JobOutcome::Done { payload, .. } => {
                let (k, p) = published.expect("published");
                assert_eq!(k, j.key);
                assert_eq!(p, payload);
                assert!(payload.contains("\"digest\""));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(metrics.completed.get(), 1);
    }

    #[test]
    fn panicking_compile_is_isolated() {
        // 9 qubits on a 2x2-site machine: the discretizer's site-assignment
        // `expect` fires, exercising the worker's catch_unwind path.
        let mut b = CircuitBuilder::new(9);
        for i in 0..8u32 {
            b.cx(i, i + 1);
        }
        let circuit = b.build();
        let tiny = MachineSpec { grid_dim: 2, ..MachineSpec::quera_aquila_256() };
        let compiler = ParallaxCompiler::new(tiny, CompilerConfig::quick(1));
        let key = CacheKey { circuit: 0, compiler: 0 };
        let (tx, _rx) = mpsc::channel();
        let j = Job { circuit, compiler, key, trace_id: 0, reply: tx };
        let metrics = Metrics::default();
        let outcome = run_job(&j, &metrics, |_, _| panic!("must not publish"));
        assert!(matches!(outcome, JobOutcome::Failed { .. }), "got {outcome:?}");
        assert_eq!(metrics.failed.get(), 1);
    }
}
