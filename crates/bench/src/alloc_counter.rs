//! A counting global allocator for the bench binaries and tests.
//!
//! Wraps the system allocator with one thread-local increment per
//! `alloc`/`realloc`, so the `obs_overhead` gate can require *measured*
//! zero allocations per packet (the steady-state claim is checked, not
//! asserted on faith). The counter costs nanoseconds per
//! event and nothing when no allocation happens — which is the point.
//!
//! Counts are per thread: a measurement sees only the allocations of the
//! thread it runs on, so concurrently running tests (libtest's default)
//! cannot leak into each other's counts. The measured engine paths
//! (`FrameWorkspace::run_packet`/`run_packets`) run on the calling
//! thread, so nothing they do is missed.
//!
//! The allocator is process-global: linking `acorn-bench` installs it in
//! every bench binary. Library consumers elsewhere in the workspace are
//! unaffected (they don't link this crate).

// The one spot in the workspace that needs `unsafe`: a GlobalAlloc impl
// is an unsafe trait by definition. Everything else stays forbidden.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation events on this thread. Const-initialised and free of
    /// destructors, so touching it from inside the allocator never
    /// allocates (no lazy initialisation, no destructor registration).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` rather than `with`: an allocation while the thread is
    // being torn down must not panic inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// System allocator plus a per-thread allocation counter.
pub struct CountingAllocator;

// SAFETY: defers every operation verbatim to `System`, which upholds the
// GlobalAlloc contract; the counter has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocation events (alloc + realloc) on this thread since it
/// started.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocation events that happen on this thread while `f` runs. Work `f`
/// hands to other threads is not counted, so measure single-threaded
/// paths (or pin `ACORN_THREADS=1`) for exact counts.
pub fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocation_count();
    let out = f();
    (allocation_count() - before, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_observes_heap_activity() {
        let (n, v) = allocations_during(|| vec![1u8; 4096]);
        assert!(n >= 1, "a fresh Vec must allocate (counted {n})");
        drop(v);
        let (n, _) = allocations_during(|| 1 + 1);
        assert_eq!(n, 0, "pure arithmetic must not allocate");
    }

    #[test]
    fn other_threads_allocations_are_not_counted() {
        let (n, _) = allocations_during(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let v: Vec<Vec<u8>> = (0..64).map(|i| vec![0u8; 64 + i]).collect();
                    v.len()
                });
            })
        });
        // Spawning itself allocates on this thread (the thread handle and
        // its bookkeeping), but far fewer than the worker's 65.
        assert!(
            n < 65,
            "counted {n}: another thread's allocations leaked in"
        );
    }
}
