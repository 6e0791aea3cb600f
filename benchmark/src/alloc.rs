//! A counting allocator: every allocation bumps two thread-local counters.
//!
//! It is always linked, so the traced and the untraced run execute one
//! binary; only the traced run reads it, around the feeder thread's
//! `Switch::process` calls, to report allocations per packet exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`] and counts allocations on the calling thread.
pub struct Counting;

fn count(bytes: usize) {
    // `try_with`: a thread that allocates while its locals are torn down is
    // simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method hands its arguments to `System` unchanged and returns
// what `System` returns, so `System`'s own guarantees are this allocator's.
// The added work touches only thread-local `Cell<u64>`s with `const`
// initialisers and no destructor: reading them never allocates, so the
// allocator cannot re-enter itself, and it never unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` by the calling thread so far. A
/// `realloc` counts as one allocation of its new size.
pub fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_vec_growth() {
        let (a0, b0) = counts();
        let mut v: Vec<u64> = Vec::with_capacity(4);
        for i in 0..5 {
            v.push(std::hint::black_box(i));
        }
        let (a1, b1) = counts();
        // One allocation of 4 × 8 bytes, one growth to 8 × 8 bytes.
        assert_eq!(v.capacity(), 8);
        assert_eq!(a1 - a0, 2);
        assert_eq!(b1 - b0, 32 + 64);
    }

    #[test]
    fn other_threads_do_not_count_here() {
        const BIG: usize = 1 << 20;
        let (_, b0) = counts();
        std::thread::spawn(|| drop(std::hint::black_box(vec![0u8; BIG])))
            .join()
            .expect("allocating thread");
        let (_, b1) = counts();
        // Spawning allocates a little on this thread; the buffer does not.
        assert!(b1 - b0 < BIG as u64);
    }
}
