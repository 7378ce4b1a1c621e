//! A counting global allocator for allocation-regression tests.
//!
//! The engine's allocation diet (no per-event action clones on the pick
//! path, interned node names, entry-API duplicate tracking) is easy to
//! regress silently: a stray `clone()` in the hot loop costs one heap
//! allocation per event and no test fails. Installing [`CountingAlloc`]
//! as the `#[global_allocator]` of a test binary makes the cost visible:
//! the test runs a deterministic workload, divides the observed
//! allocation count by the event count, and pins the quotient against
//! the pre-diet baseline.
//!
//! The tally is per thread: `cargo test` runs the tests of one binary on
//! parallel harness threads, and a process-wide counter would charge each
//! test with the others' allocations. A measured region runs on one
//! thread, so its before/after difference is exact whatever else the
//! process is doing.

// The one sanctioned use of `unsafe` in this crate: `GlobalAlloc` is an
// unsafe trait, and this impl delegates verbatim to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls made by this thread. Const-initialized and without
    /// a destructor, so touching it from inside the allocator never
    /// allocates or registers anything.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: a thread may still allocate while its locals are torn
    // down; those calls belong to no measured region.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// A `#[global_allocator]` that delegates to [`System`] and counts
/// allocation calls per thread (`alloc` + `realloc`; frees are not counted
/// — the diet is about how often we *ask* for memory).
pub struct CountingAlloc;

impl CountingAlloc {
    /// The allocator, usable in `static` position.
    #[must_use]
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }

    /// Allocation calls the calling thread has made so far.
    #[must_use]
    pub fn allocations(&self) -> u64 {
        THREAD_ALLOCS.with(Cell::get)
    }

    /// Allocation calls performed by `f` on the calling thread, measured
    /// as a before/after difference of its tally.
    pub fn count<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let before = self.allocations();
        let out = f();
        (out, self.allocations() - before)
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

// SAFETY: delegates verbatim to `System`; the tally has no effect on the
// returned memory and does not itself allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
