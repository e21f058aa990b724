//! A counting global allocator for the peak-memory tests: [`measure`]
//! reports the largest block and the total bytes one call allocated.
//! Only allocations made by the measuring thread are counted, so tests
//! may run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if TRACKING.with(Cell::get) {
        LARGEST.with(|l| l.set(l.get().max(size)));
        BYTES.with(|b| b.set(b.get() + size));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What one measured call allocated: its largest block and its total
/// bytes (a `realloc` counts its new size).
#[derive(Debug)]
pub struct Allocs {
    pub largest: usize,
    pub bytes: usize,
}

pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
    LARGEST.with(|l| l.set(0));
    BYTES.with(|b| b.set(0));
    TRACKING.with(|t| t.set(true));
    let r = f();
    TRACKING.with(|t| t.set(false));
    let allocs = Allocs {
        largest: LARGEST.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    };
    (r, allocs)
}
