//! # bc-testkit — a counting global allocator for allocation proofs
//!
//! Test binaries that prove a code path allocation-free install
//! [`CountingAlloc`] as their global allocator and measure with
//! [`count_allocs`]:
//!
//! ```
//! #[global_allocator]
//! static GLOBAL: bc_testkit::CountingAlloc = bc_testkit::CountingAlloc;
//!
//! let (allocs, sum) = bc_testkit::count_allocs(|| (1..=10u64).sum::<u64>());
//! assert_eq!((allocs, sum), (0, 55));
//! let (allocs, _v) = bc_testkit::count_allocs(|| vec![0u8; 16]);
//! assert_eq!(allocs, 1);
//! ```
//!
//! Both the counter and the on/off switch are **thread-local**. `cargo
//! test` runs a binary's tests concurrently on separate threads, so a
//! process-wide switch would let one test turn counting off in the middle
//! of another's measurement — and a "zero allocations" proof would then
//! pass without checking anything. Here each test counts only its own
//! thread, and nothing another thread does can stop or inflate that
//! count. Work a measured region hands to other threads is not counted;
//! proofs that cover pooled work must run it inline on one worker.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-init with no destructor: reading these from inside `alloc`
    // can neither allocate, recurse, nor fail during thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// A [`System`]-backed global allocator that counts the allocations and
/// reallocations made on the current thread while [`count_allocs`] is
/// measuring it.
pub struct CountingAlloc;

fn note_alloc() {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with counting switched on for the current thread and returns
/// the number of allocations plus reallocations it made on this thread,
/// with `f`'s result. Nested calls each see their own region's count.
///
/// Panics if [`CountingAlloc`] is not the binary's global allocator: a
/// proof measured with no counter installed would pass vacuously.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let was = COUNTING.replace(true);
    let probe_before = ALLOCS.get();
    drop(std::hint::black_box(Box::new(0u8)));
    assert_eq!(
        ALLOCS.get() - probe_before,
        1,
        "bc_testkit::CountingAlloc is not this binary's #[global_allocator]"
    );
    let before = ALLOCS.get();
    let out = f();
    let allocs = ALLOCS.get() - before;
    COUNTING.set(was);
    (allocs, out)
}
