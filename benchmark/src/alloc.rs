//! A counting global allocator: how many heap allocations, and how many
//! bytes, the whole stack makes per operation (`host.allocs_per_op`,
//! `host.alloc_bytes_per_op`).
//!
//! Counting is off unless the traced repeat turns it on, so the untraced
//! repeats that give the end-to-end numbers pay one relaxed load per
//! allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Counter banks; threads spread over them so that two clients counting at
/// once do not bounce one cache line between cores.
const BANKS: usize = 8;

#[repr(align(64))]
struct Bank {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

pub struct Counting {
    on: AtomicBool,
    next_bank: AtomicUsize,
    banks: [Bank; BANKS],
}

thread_local! {
    /// This thread's bank, `usize::MAX` until first use. A `const`-initialised
    /// `Cell` without a destructor needs no allocation and no registration,
    /// so reading it inside the allocator cannot recurse.
    static BANK: Cell<usize> = const { Cell::new(usize::MAX) };
}

impl Counting {
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        Self {
            on: AtomicBool::new(false),
            next_bank: AtomicUsize::new(0),
            banks: [const { Bank { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) } }; BANKS],
        }
    }

    pub fn set_counting(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// `(allocations, bytes)` counted so far.
    pub fn totals(&self) -> (u64, u64) {
        self.banks.iter().fold((0, 0), |(a, b), bank| {
            (a + bank.allocs.load(Ordering::Relaxed), b + bank.bytes.load(Ordering::Relaxed))
        })
    }

    fn count(&self, size: usize) {
        // `try_with`: a thread being torn down may free and allocate after
        // its thread-locals are gone; those few calls count in bank 0.
        let bank = BANK
            .try_with(|slot| {
                if slot.get() == usize::MAX {
                    slot.set(self.next_bank.fetch_add(1, Ordering::Relaxed) % BANKS);
                }
                slot.get()
            })
            .unwrap_or(0);
        self.banks[bank].allocs.fetch_add(1, Ordering::Relaxed);
        self.banks[bank].bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged, so `System`'s guarantees carry
// over; the counting in between touches only atomics and a thread-local
// `Cell<usize>` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if self.on.load(Ordering::Relaxed) {
            self.count(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if self.on.load(Ordering::Relaxed) {
            self.count(layout.size());
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if self.on.load(Ordering::Relaxed) {
            self.count(new_size);
        }
        // SAFETY: the caller guarantees `ptr` came from this allocator (hence
        // from `System`) with `layout`, and that `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator (hence
        // from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
