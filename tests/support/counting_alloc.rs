//! A per-thread counting global allocator for zero-allocation tests.
//!
//! A test binary includes this file as a module:
//!
//! ```ignore
//! #[path = "../../../tests/support/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! and measures a closure with [`count_allocs`]. Only allocations made
//! by the calling thread while the closure runs are counted: the armed
//! flag and the counter are both thread-local, so tests running in
//! parallel in the same binary, and the harness's own threads, cannot
//! pollute each other's counts. Work the closure hands to other threads
//! is not counted either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized without a destructor, so the first access from
    // inside the allocator hook never allocates itself.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract is `System`'s; the counting beside
// it touches only const-initialized thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result together with the number of heap
/// allocations (`alloc`, `alloc_zeroed`, `realloc`) the calling thread
/// made while it ran.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let was_armed = ARMED.with(|a| a.replace(true));
    let out = f();
    ARMED.with(|a| a.set(was_armed));
    (out, ALLOCS.with(Cell::get) - before)
}
