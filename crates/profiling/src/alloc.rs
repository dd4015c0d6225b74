//! Heap-allocation counting for allocation-budget checks.
//!
//! A binary makes a "no steady-state allocation" claim measurable by
//! installing [`CountingAllocator`] as its global allocator and reading the
//! [`allocation_count`] delta around the code under test (the service's
//! ingest pin, `tests/service_alloc.rs`, does exactly this):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: profiling::CountingAllocator = profiling::CountingAllocator::new();
//!
//! let before = profiling::allocation_count();
//! run_pass();
//! println!("{} allocations", profiling::allocation_count() - before);
//! ```
//!
//! The counter is a single relaxed atomic increment per `alloc` /
//! `alloc_zeroed` / `realloc` call (frees are not counted), cheap enough to
//! leave enabled in measurement binaries; library crates never install it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATION_COUNT: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed global allocator that counts every allocation
/// (including zeroed allocations and reallocations). Install with
/// `#[global_allocator]` in a measurement binary and read the running total
/// with [`allocation_count`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAllocator;

impl CountingAllocator {
    /// The allocator value to place in a `#[global_allocator]` static.
    pub const fn new() -> Self {
        Self
    }
}

// SAFETY: every call is forwarded verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter increment has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Number of heap allocations performed since process start **when
/// [`CountingAllocator`] is installed as the global allocator**; stays 0
/// otherwise. Subtract two readings to count the allocations of a region.
pub fn allocation_count() -> u64 {
    ALLOCATION_COUNT.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so the counter only
    // moves if some other binary-level harness installed it; both behaviors
    // are monotone.
    #[test]
    fn counter_is_monotone() {
        let a = allocation_count();
        let _v: Vec<u64> = (0..1024).collect();
        let b = allocation_count();
        assert!(b >= a);
    }

    #[test]
    fn allocator_forwards_to_system() {
        // Exercise the GlobalAlloc impl directly (without installing it).
        let alloc = CountingAllocator::new();
        let before = allocation_count();
        let layout = Layout::from_size_align(64, 8).unwrap();
        unsafe {
            let p = alloc.alloc(layout);
            assert!(!p.is_null());
            let p = alloc.realloc(p, layout, 128);
            assert!(!p.is_null());
            alloc.dealloc(p, Layout::from_size_align(128, 8).unwrap());
            let z = alloc.alloc_zeroed(layout);
            assert!(!z.is_null());
            assert_eq!(*z, 0);
            alloc.dealloc(z, layout);
        }
        assert!(allocation_count() >= before + 3);
    }
}
