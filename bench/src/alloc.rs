//! Counting global allocator: exact heap allocations and bytes requested
//! per thread, for `bench.allocs_per_op` / `bench.alloc_bytes_per_op`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and `Cell<u64>` (no destructor): touching these
    // from inside the allocator never allocates and never runs TLS drop.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus two thread-local counters.
pub struct Counting;

#[inline]
fn count(size: usize) {
    // `try_with`: a thread being torn down may free after its TLS is gone.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain thread-local integers and do not touch
// the heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` made by the calling thread so far.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations() {
        let (a0, b0) = snapshot();
        let v: Vec<u8> = Vec::with_capacity(1000);
        let (a1, b1) = snapshot();
        drop(v);
        assert_eq!(a1 - a0, 1);
        assert_eq!(b1 - b0, 1000);
    }

    #[test]
    fn counters_are_per_thread() {
        let (a0, b0) = snapshot();
        let inner = std::thread::spawn(|| {
            let (a, b) = snapshot();
            let v = vec![0u8; 1 << 20];
            let (a2, b2) = snapshot();
            drop(v);
            (a2 - a, b2 - b)
        })
        .join()
        .expect("helper thread");
        assert_eq!(inner, (1, 1 << 20));
        // The helper's megabyte never shows up on this thread.
        let (a1, b1) = snapshot();
        assert!(a1 >= a0);
        assert!(b1 - b0 < 1 << 20);
    }
}
