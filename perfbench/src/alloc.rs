//! A counting global allocator, active only in the traced pass.
//!
//! Every allocation (and every `realloc`, which may move the block) adds to
//! a call count and a requested-bytes total while counting is on. Off, the
//! cost is one relaxed load per call. On, each thread writes a slot of its
//! own, so counting adds no cache-line traffic between the simulation's
//! workers. Two shared `fetch_add` counters instead made the traced
//! `quick-wire` simulation (≈210 M allocations on 2 workers, 2-vCPU Xeon)
//! take 16.2–17.1 s against 10.1–10.4 s with the slots, and
//! `trace.overhead_s` 6.4–7.3 s against 0.8–1.4 s. The totals are
//! process-wide: a span's delta covers the worker threads the spanned call
//! starts (they are joined before it returns).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);

/// One thread's counts, alone on its cache line.
#[repr(align(64))]
struct Slot {
    calls: AtomicU64,
    bytes: AtomicU64,
}

const SLOTS: usize = 4096;
#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    calls: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static TABLE: [Slot; SLOTS] = [EMPTY; SLOTS];
/// Slots handed out so far; threads past the table share the last slot.
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn count(size: usize) {
    if !ON.load(Relaxed) {
        return;
    }
    let slot = MY_SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(CLAIMED.fetch_add(1, Relaxed).min(SLOTS - 1));
        }
        s.get()
    });
    let t = &TABLE[slot];
    if slot < SLOTS - 1 {
        // Only this thread writes its slot, so a plain load and store
        // cannot lose an update.
        t.calls.store(t.calls.load(Relaxed) + 1, Relaxed);
        t.bytes.store(t.bytes.load(Relaxed) + size as u64, Relaxed);
    } else {
        t.calls.fetch_add(1, Relaxed);
        t.bytes.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting only reads the
// layout and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Relaxed);
}

/// `(allocation calls, requested bytes)` counted so far, over all threads.
/// Exact for threads that have been joined or are the caller.
pub fn totals() -> (u64, u64) {
    let used = CLAIMED.load(Relaxed).min(SLOTS);
    TABLE[..used].iter().fold((0, 0), |(c, b), s| {
        (c + s.calls.load(Relaxed), b + s.bytes.load(Relaxed))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_on_every_thread() {
        set_counting(true);
        let (c0, b0) = totals();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..100 {
                        std::hint::black_box(vec![0u8; 1000]);
                    }
                });
            }
        });
        let (c1, b1) = totals();
        set_counting(false);
        assert!(c1 - c0 >= 300, "{} calls", c1 - c0);
        assert!(b1 - b0 >= 300_000, "{} bytes", b1 - b0);
    }
}
