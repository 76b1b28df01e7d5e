//! Counting global allocator: the benchmark's only source of allocation
//! counts and heap high-water marks.
//!
//! Every allocation (including each `realloc`) bumps a counter, and live
//! bytes are tracked so the true heap peak is known. A [`Phase`] resets
//! the peak to the current live size at its start, so the peak it reports
//! is the high-water mark *during* that phase, with whatever the earlier
//! phases left alive included. The counters are statistics that publish
//! no other data, so `Relaxed` ordering suffices; at one thread the counts
//! are exact and repeat run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The counting allocator; installed as `#[global_allocator]` in `main`.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters afterwards, so `System`'s guarantees
// carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// What one phase allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Usage {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Heap high-water mark during the phase, in bytes.
    pub peak_bytes: usize,
}

/// An open phase; [`Phase::end`] reports its [`Usage`].
pub struct Phase {
    allocs_at_start: u64,
}

/// Start a phase: the peak restarts from the bytes live right now.
pub fn begin() -> Phase {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    Phase {
        allocs_at_start: ALLOCS.load(Relaxed),
    }
}

impl Phase {
    /// Close the phase.
    pub fn end(self) -> Usage {
        Usage {
            allocs: ALLOCS.load(Relaxed) - self.allocs_at_start,
            peak_bytes: PEAK.load(Relaxed),
        }
    }
}

/// Run `f` as one phase.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Usage) {
    let phase = begin();
    let out = f();
    (out, phase.end())
}
