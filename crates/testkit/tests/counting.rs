//! The counter's own proofs: it sees allocations in the measured region,
//! and a sibling thread switching its own counting on and off neither
//! stops nor inflates this thread's count.

use bc_testkit::{count_allocs, CountingAlloc};
use std::hint::black_box;
use std::sync::{Arc, Barrier};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocate(n: usize) {
    for i in 0..n {
        black_box(vec![i as u8; 1 + i % 7]);
    }
}

#[test]
fn counts_exactly_the_region() {
    allocate(3);
    let (allocs, ()) = count_allocs(|| allocate(25));
    assert_eq!(allocs, 25);
    let (none, sum) = count_allocs(|| black_box(2u64) + 2);
    assert_eq!((none, sum), (0, 4));
}

#[test]
fn reallocation_counts() {
    let mut v: Vec<u64> = Vec::with_capacity(1);
    v.push(1);
    let (allocs, ()) = count_allocs(|| {
        v.reserve_exact(64);
        black_box(&v);
    });
    assert_eq!(allocs, 1);
}

#[test]
fn nested_regions_count_independently() {
    let (outer, inner) = count_allocs(|| {
        allocate(2);
        let (inner, ()) = count_allocs(|| allocate(5));
        allocate(1);
        inner
    });
    assert_eq!(inner, 5);
    // The outer region sees everything, including the inner region and
    // the inner call's one installation probe.
    assert_eq!(outer, 2 + 5 + 1 + 1);
}

/// The regression this crate exists for: while this thread measures, a
/// sibling opens and closes its own counted regions (forced to
/// interleave by barriers). With one process-wide switch, the sibling's
/// region ending would turn counting off here and the count would read
/// short; thread-local switching keeps it exact.
#[test]
fn sibling_threads_cannot_switch_this_count_off() {
    let gate = Arc::new(Barrier::new(2));
    let sibling_gate = Arc::clone(&gate);
    let sibling = std::thread::spawn(move || {
        sibling_gate.wait(); // main is inside its region
        let (theirs, ()) = count_allocs(|| allocate(40));
        sibling_gate.wait(); // sibling's region has closed
        theirs
    });
    let (ours, ()) = count_allocs(|| {
        allocate(10);
        gate.wait();
        gate.wait();
        allocate(10);
    });
    let theirs = sibling.join().expect("sibling thread panicked");
    assert_eq!(ours, 20, "sibling's switching leaked into this thread");
    assert_eq!(theirs, 40);
}
