//! A counting global allocator for this binary only: exact allocation
//! counts per layer call, which repeat run to run and so can be gated
//! where wall-clock time cannot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocation calls and requested bytes on the calling thread,
/// then defers to the system allocator.
pub struct Counting;

thread_local! {
    static COUNTS: Cell<Allocs> = const { Cell::new(Allocs { calls: 0, bytes: 0 }) };
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) and the bytes
/// they requested (a `realloc` counts its new size).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    pub calls: u64,
    pub bytes: u64,
}

impl Allocs {
    /// What the current thread allocated since `self` was taken.
    pub fn since(self) -> Allocs {
        let now = current();
        Allocs {
            calls: now.calls - self.calls,
            bytes: now.bytes - self.bytes,
        }
    }
}

/// The current thread's running totals.
pub fn current() -> Allocs {
    COUNTS.try_with(Cell::get).unwrap_or_default()
}

fn count(bytes: usize) {
    // `try_with`: a thread's last frees and allocations can run after
    // its thread-locals are gone; those go uncounted.
    let _ = COUNTS.try_with(|c| {
        let a = c.get();
        c.set(Allocs {
            calls: a.calls + 1,
            bytes: a.bytes + bytes as u64,
        });
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update
// neither allocates nor touches the memory handed out.
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

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}
