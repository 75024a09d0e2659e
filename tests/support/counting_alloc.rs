//! The counting global allocator behind every `no_alloc` test.
//!
//! Each test binary includes this file as a module
//! (`#[path = "…/tests/support/counting_alloc.rs"] mod counting_alloc;`),
//! which installs [`CountingAlloc`] as that binary's global allocator.
//! Cargo builds only `tests/*.rs` as test targets, so this file is never
//! a target of its own.
//!
//! The counters are per thread. libtest runs tests on parallel threads
//! and allocates on its own, so a process-wide count let a neighbour's
//! set-up land inside a measuring window and read as a leak. A test
//! reads only what its own thread allocated, which needs no lock and
//! holds as long as no `no_alloc` test spawns a thread of its own.

#![allow(unsafe_code, reason = "GlobalAlloc is an unsafe trait")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so touching them
    // allocates nothing and never fails, even while the thread exits.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Heap allocations (including reallocations) made by this thread since
/// it started.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread has allocated and not freed (requested sizes,
/// allocator overhead excluded; a block freed on another thread stays
/// counted here).
#[allow(dead_code, reason = "only some no_alloc tests bound live bytes")]
pub fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn count(allocs: u64, bytes: i64) {
    ALLOCS.with(|a| a.set(a.get() + allocs));
    LIVE.with(|l| l.set(l.get() + bytes));
}

/// [`System`], counting every allocation into the calling thread's
/// [`allocs`] and [`live`].
pub struct CountingAlloc;

// SAFETY: every method passes its caller's arguments unchanged to the
// same method of `System`, so `System`'s contract holds; the counters
// are statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;
