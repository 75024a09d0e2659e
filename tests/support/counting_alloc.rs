//! The counting global allocator behind every `no_alloc` test.
//!
//! Each test binary includes this file as a module
//! (`#[path = "…/tests/support/counting_alloc.rs"] mod counting_alloc;`),
//! which installs [`CountingAlloc`] as that binary's global allocator.
//! Cargo builds only `tests/*.rs` as test targets, so this file is never
//! a target of its own.

#![allow(unsafe_code, reason = "GlobalAlloc is an unsafe trait")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Heap allocations (including reallocations) since the process started.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated (requested sizes, allocator overhead
/// excluded).
pub static LIVE: AtomicI64 = AtomicI64::new(0);

/// [`System`], counting every allocation into [`ALLOCS`] and [`LIVE`].
pub struct CountingAlloc;

// SAFETY: every method passes its caller's arguments unchanged to the
// same method of `System`, so `System`'s contract holds; the counters
// are statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// The counters are process-wide and libtest runs tests on parallel
/// threads, so a test holds this while it measures: a neighbour's set-up
/// landing inside every trial window would otherwise read as a leak
/// (it did, in ~4 % of whole-binary runs of the CM's test).
static MEASURING: Mutex<()> = Mutex::new(());

/// Takes the measuring turn (see [`MEASURING`]). A poisoned lock is
/// still a valid turn: the mutex guards no data.
#[allow(
    dead_code,
    reason = "tests that take the minimum over trials measure without it"
)]
pub fn measuring() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}
