//! A counting global allocator. Every call that hands out memory
//! (`alloc`, `alloc_zeroed`, `realloc`) bumps one counter, and live heap
//! bytes are tracked with their high-water mark, so heap allocations per
//! simulated event and peak heap size are exact, machine-independent
//! numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counted.
pub struct Counting;

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters have no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

/// Allocation calls made so far by the whole process.
pub fn count() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

/// The most heap bytes the process has held live at once.
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Relaxed)
}
