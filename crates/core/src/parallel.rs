//! Parallel batch compilation.
//!
//! The paper highlights Parallax's "open-source and parallel
//! implementation". Compilations of independent circuits (or of ablation
//! configurations of the same circuit) are embarrassingly parallel and
//! fully deterministic per seed, so workers claim job indices from a shared
//! atomic counter; results return in input order regardless of thread
//! count.
//!
//! A panicking job is isolated to its slot: the worker catches the unwind,
//! reports a per-job [`BatchJobError`], and moves on to the next job, so
//! one poisoned circuit can neither hang the batch nor abort the process
//! ([`try_compile_batch`]). The infallible [`compile_batch`] wrapper keeps
//! the original signature and re-raises the first job error as a panic
//! that names the failing job.

use crate::compiler::{CompilationResult, ParallaxCompiler};
use crate::config::CompilerConfig;
use parallax_circuit::Circuit;
use parallax_hardware::MachineSpec;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One job of a batch failed (its compile panicked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchJobError {
    /// Index of the failing job in the input slice.
    pub index: usize,
    /// The panic message, if it carried one.
    pub message: String,
}

impl fmt::Display for BatchJobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for BatchJobError {}

/// Render a `catch_unwind` payload as text (panics carry `&str` or
/// `String` in practice). Shared with the compile service's worker pool,
/// which isolates panics the same way.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `jobs` indices through `run` on up to `threads` workers, catching
/// per-job panics. Generic over the job body so the panic-isolation
/// machinery is testable without a panicking compiler.
///
/// Workers claim indices from one atomic counter, so each index runs
/// exactly once, and the results are slotted back by index.
fn run_batch<T, F>(num_jobs: usize, threads: usize, run: F) -> Vec<Result<T, BatchJobError>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let guarded = |i: usize| {
        catch_unwind(AssertUnwindSafe(|| run(i)))
            .map_err(|payload| BatchJobError { index: i, message: panic_message(payload) })
    };

    if threads <= 1 || num_jobs <= 1 {
        return (0..num_jobs).map(guarded).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<T, BatchJobError>>> = (0..num_jobs).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter publishes no data; results
                        // come back through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= num_jobs {
                            return done;
                        }
                        done.push((i, guarded(i)));
                    }
                })
            })
            .collect();
        for worker in workers {
            // Every job panic is caught inside `guarded`, so joins succeed.
            for (i, r) in worker.join().expect("batch worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every batch index is claimed once")).collect()
}

fn effective_threads(requested: usize, num_jobs: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    };
    t.min(num_jobs.max(1))
}

/// Compile every circuit in `jobs` on `machine` with `config`, using up to
/// `threads` worker threads (0 = number of available CPUs). The output
/// vector is index-aligned with `jobs`; a job whose compilation panics
/// yields `Err` in its slot while every other job still completes.
pub fn try_compile_batch(
    jobs: &[Circuit],
    machine: MachineSpec,
    config: &CompilerConfig,
    threads: usize,
) -> Vec<Result<CompilationResult, BatchJobError>> {
    let compiler = ParallaxCompiler::shared(machine, config.clone());
    run_batch(jobs.len(), effective_threads(threads, jobs.len()), move |i| {
        compiler.compile(&jobs[i])
    })
}

/// Infallible façade over [`try_compile_batch`]: identical scheduling, but
/// a failed job re-raises its [`BatchJobError`] as a panic naming the job
/// index (after all other jobs have finished).
///
/// # Panics
/// Panics if any job's compilation panicked.
pub fn compile_batch(
    jobs: &[Circuit],
    machine: MachineSpec,
    config: &CompilerConfig,
    threads: usize,
) -> Vec<CompilationResult> {
    try_compile_batch(jobs, machine, config, threads)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_circuit::CircuitBuilder;

    fn chain(n: usize) -> Circuit {
        let mut b = CircuitBuilder::new(n);
        for i in 0..(n as u32 - 1) {
            b.cx(i, i + 1);
        }
        b.build()
    }

    #[test]
    fn batch_matches_sequential() {
        let jobs = vec![chain(3), chain(4), chain(5), chain(6)];
        let cfg = CompilerConfig::quick(1);
        let spec = MachineSpec::quera_aquila_256();
        let seq = compile_batch(&jobs, spec, &cfg, 1);
        let par = compile_batch(&jobs, spec, &cfg, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.schedule.gate_order(), b.schedule.gate_order());
            assert_eq!(a.home_positions, b.home_positions);
        }
    }

    #[test]
    fn results_are_input_ordered() {
        let jobs = vec![chain(6), chain(2), chain(4)];
        let out =
            compile_batch(&jobs, MachineSpec::quera_aquila_256(), &CompilerConfig::quick(2), 3);
        assert_eq!(out[0].num_qubits, 6);
        assert_eq!(out[1].num_qubits, 2);
        assert_eq!(out[2].num_qubits, 4);
    }

    #[test]
    fn empty_batch() {
        let out = compile_batch(&[], MachineSpec::quera_aquila_256(), &CompilerConfig::quick(0), 4);
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_job_does_not_poison_the_batch() {
        // Jobs 1 and 3 panic; the rest must still complete, index-aligned,
        // at every thread count (including the sequential path).
        for threads in [1usize, 2, 4] {
            let out = run_batch(5, threads, |i| {
                if i % 2 == 1 {
                    panic!("boom on job {i}");
                }
                i * 10
            });
            assert_eq!(out.len(), 5);
            for (i, r) in out.iter().enumerate() {
                if i % 2 == 1 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, i);
                    assert_eq!(e.message, format!("boom on job {i}"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn try_compile_batch_succeeds_on_well_formed_jobs() {
        let jobs = vec![chain(3), chain(4)];
        let out =
            try_compile_batch(&jobs, MachineSpec::quera_aquila_256(), &CompilerConfig::quick(3), 2);
        assert!(out.iter().all(Result::is_ok));
    }

    #[test]
    #[should_panic(expected = "batch job 2 panicked")]
    fn compile_batch_names_the_failing_job() {
        let results = run_batch(4, 2, |i| {
            if i == 2 {
                panic!("injected failure");
            }
            i
        });
        for r in results {
            let _ = r.unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn batch_job_error_formats_with_index_and_message() {
        let e = BatchJobError { index: 7, message: "overflow".into() };
        assert_eq!(e.to_string(), "batch job 7 panicked: overflow");
    }
}
