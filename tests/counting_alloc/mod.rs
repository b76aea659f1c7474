//! A counting global allocator for the allocation-budget tests.
//!
//! A process has one allocator hook, so each budget lives in a test
//! file of its own that installs this allocator:
//!
//! ```ignore
//! mod counting_alloc;
//! #[global_allocator]
//! static ALLOCATOR: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;
//! ```
//!
//! and measures with [`count_calls`]. Only the measuring thread's calls
//! are counted, so the harness's own threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Calls that obtain memory (`alloc`, `alloc_zeroed`, `realloc`) made
/// on a thread while its `COUNTING` flag is up.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator neither allocates nor registers a dtor.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` and returns its result with the allocator calls it made.
pub fn count_calls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOC_CALLS.load(Ordering::Relaxed) - before)
}

pub struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        if COUNTING.with(Cell::get) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches only
// an atomic and a const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}
