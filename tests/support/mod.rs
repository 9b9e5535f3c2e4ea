//! A counting `#[global_allocator]` for the allocation tests
//! (`exec_alloc`, `infer_alloc`, `sketch_alloc`): the system allocator, counting the
//! requests made while armed. A test binary that declares
//! `mod support;` runs on it.
//!
//! Only the thread that armed the counter counts. Other threads would
//! allocate into it at any time: a second test, and the test harness
//! itself, whose "has been running for over 60 seconds" notice
//! allocates. The totals are still process-wide, so such a binary holds
//! one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations at or above this size are the ones that page-fault when
/// they come back from the operating system.
pub const LARGE_BYTES: usize = 64 << 10;

thread_local! {
    // Const-initialized and without a destructor: reading it from inside
    // the allocator never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting requests while armed.
struct Counting;

fn note(size: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if size >= LARGE_BYTES {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and a thread-local flag, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What was requested while armed: allocations and reallocations of any
/// size, and those of [`LARGE_BYTES`] or more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counted {
    pub allocs: u64,
    pub large: u64,
}

/// Runs `f` with the counter armed and returns what it counted.
pub fn counting<R>(f: impl FnOnce() -> R) -> (R, Counted) {
    ALLOCS.store(0, Ordering::Relaxed);
    LARGE_ALLOCS.store(0, Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    let counted = Counted {
        allocs: ALLOCS.load(Ordering::Relaxed),
        large: LARGE_ALLOCS.load(Ordering::Relaxed),
    };
    (out, counted)
}
