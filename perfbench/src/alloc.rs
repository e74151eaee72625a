//! A counting global allocator, local to the benchmark.
//!
//! Every allocation (and reallocation, which may move) bumps a process-wide
//! counter and a per-thread counter. The process-wide count gives
//! `serve.allocs_per_req`; the per-thread count, read before and after one
//! call on the benchmark thread, gives the per-call counts
//! `core.recommend_allocs` and `core.online_step_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Counting;

static PROCESS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` initialisation and a `Cell` with no destructor: safe to touch
    // from inside the allocator, including during thread teardown (where
    // `try_with` simply skips the count).
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count() {
    // Relaxed: a statistic that publishes no other data.
    PROCESS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the counting
// touches only an atomic and a destructor-free thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations made by the whole process so far.
pub fn process_allocs() -> u64 {
    PROCESS.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    THREAD.with(|c| c.get())
}
