//! The onset scan's allocation proof: with a big-tier (bignum) optimal
//! rate, `detect_onset` allocates only for the one-off
//! `Rational::to_f64` behind its `RateThreshold`, never per window — so
//! its allocation count is the same at 1,000 and 10,000 completions.

use bc_metrics::{detect_onset, OnsetConfig, RateThreshold};
use bc_rational::{BigInt, BigUint, Rational};
use bc_testkit::{count_allocs, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A big-tier rate a hair above 1/3: `1/3 + 1/(3 · 2^100)`. Every window
/// of [`jittered_run`] lies far enough below it that the float filter
/// decides alone (no tie reaches the exact path), and none reaches it,
/// so the scan visits every window past the threshold.
fn big_rate() -> Rational {
    let r = Rational::new(1, 3).add_ref(&Rational::from_parts(
        BigInt::one(),
        BigUint::from_u64(3).shl(100),
    ));
    assert!(!r.is_small());
    r
}

/// One completion every 3 steps plus a slow drift: past window 300 each
/// window spans at least `3x + 4` steps, so its rate sits clearly below
/// 1/3 in `f64` too.
fn jittered_run(n: u64) -> Vec<u64> {
    (1..=n).map(|k| 3 * k + k / 64 + 1).collect()
}

fn scan_allocs(n: u64, per_window_probe: bool) -> u64 {
    let times = jittered_run(n);
    let rate = big_rate();
    let (allocs, onset) = count_allocs(|| {
        if per_window_probe {
            // What the scan would cost if it still materialized one value
            // per window: allocations that grow with the run.
            for _ in 0..n / 2 {
                black_box(Box::new(0u64));
            }
        }
        detect_onset(black_box(&times), &rate, OnsetConfig::default())
    });
    assert_eq!(onset, None, "the run must never reach the rate");
    allocs
}

#[test]
fn onset_scan_allocations_do_not_grow_with_completions() {
    // Premise: the rate's one-off float conversion is the allocation the
    // scan is allowed, so a big-tier threshold does allocate to build.
    let rate = big_rate();
    let (setup, _) = count_allocs(|| RateThreshold::new(&rate));
    assert!(setup > 0, "expected the big-tier threshold to allocate");

    let small = scan_allocs(1_000, false);
    let large = scan_allocs(10_000, false);
    assert_eq!(
        small, large,
        "detect_onset allocations grew with completions: {small} at 1,000 vs {large} at 10,000"
    );
}

/// The proof can fail: the same measurement with one deliberate
/// allocation per window tells the two run lengths apart.
#[test]
fn probe_allocation_trips_the_scan_proof() {
    let small = scan_allocs(1_000, true);
    let large = scan_allocs(10_000, true);
    assert!(
        large > small,
        "counter missed per-window allocations: {small} vs {large}"
    );
}
