//! The annealer's inner loops never touch the heap.
//!
//! A counting global allocator tallies the allocation calls made on the
//! calling thread, so a run at a small evaluation budget and one at a
//! budget a thousand times larger must allocate equally often: every
//! allocation is setup, none is per probe or per visiting step. The tally
//! is thread-local (and this file holds a single test), so the test
//! harness's own threads cannot perturb it.

use parallax_anneal::{dual_annealing, pattern_search, AnnealParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static HEAP_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A const-initialised `Cell` has no destructor, so the slot outlives
    // every allocation a thread makes; `try_with` only guards teardown.
    let _ = HEAP_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the allocation calls it made.
fn heap_calls<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = HEAP_CALLS.with(Cell::get);
    let out = f();
    (HEAP_CALLS.with(Cell::get) - before, out)
}

#[test]
fn inner_loops_allocate_nothing_per_evaluation() {
    let bowl = |x: &[f64]| x[0] * x[0];
    let bounds = [(-1.0, 1.0)];
    let (short_calls, short) = heap_calls(|| pattern_search(bowl, &[0.9], &bounds, 8));
    let (long_calls, long) = heap_calls(|| pattern_search(bowl, &[0.9], &bounds, 8_000));
    assert!(long.evals > short.evals, "{} vs {} evals", long.evals, short.evals);
    assert_eq!(short_calls, long_calls, "pattern_search allocates per probe");

    let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
    let bounds = [(-2.0, 2.0); 3];
    let anneal = |max_iter| {
        let params =
            AnnealParams { max_iter, local_search_evals: 0, seed: 5, ..Default::default() };
        heap_calls(|| dual_annealing(sphere, &bounds, &params))
    };
    let (short_calls, short) = anneal(50);
    let (long_calls, long) = anneal(5_000);
    assert!(long.evals > short.evals, "{} vs {} evals", long.evals, short.evals);
    assert_eq!(short_calls, long_calls, "dual_annealing allocates per visiting step");
}
