//! The paper's empirical onset-of-optimal-steady-state detector (§4.1):
//!
//! > "We arbitrarily say that the tree has reached optimal steady state if
//! > its rate goes over the optimal steady-state rate twice after window
//! > 300. We say that the onset of optimal steady state occurs when the
//! > rate goes over the optimal steady-state rate for the second time
//! > after window 300."

use crate::windows::{windows_from, RateThreshold};
use bc_rational::Rational;

/// Parameters of the onset heuristic. Defaults are the paper's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OnsetConfig {
    /// Windows at or below this index are ignored (startup noise).
    pub window_threshold: u64,
    /// The n-th crossing after the threshold marks the onset.
    pub crossings: u32,
}

impl Default for OnsetConfig {
    fn default() -> Self {
        OnsetConfig {
            window_threshold: 300,
            crossings: 2,
        }
    }
}

/// Returns the window index at which the onset occurred, or `None` if the
/// tree never (detectably) reached its optimal steady-state rate.
///
/// The returned index is the Fig 4 x-coordinate ("number of tasks
/// completed at the beginning of the window").
///
/// Only the windows past `cfg.window_threshold` are computed, one at a
/// time, and each is tested with a [`RateThreshold`] built once per call:
/// the scan allocates nothing per window (see [`RateThreshold`] for why
/// its float filter never changes a verdict).
pub fn detect_onset(completions: &[u64], optimal: &Rational, cfg: OnsetConfig) -> Option<u64> {
    let mut windows = windows_from(completions, cfg.window_threshold.saturating_add(1)).peekable();
    // No window past the threshold: skip the rate's float conversion.
    windows.peek()?;
    let threshold = RateThreshold::new(optimal);
    let mut seen = 0u32;
    for w in windows {
        if threshold.met_by(w.tasks, w.span) {
            seen += 1;
            if seen >= cfg.crossings {
                return Some(w.window);
            }
        }
    }
    None
}

/// Convenience: did the run reach optimal steady state at all?
pub fn reached_optimal(completions: &[u64], optimal: &Rational, cfg: OnsetConfig) -> bool {
    detect_onset(completions, optimal, cfg).is_some()
}

/// Builds the Fig 4 style cumulative curve: for each probe `x`, the
/// fraction of runs whose onset window is ≤ `x` (runs that never reach
/// the optimum count toward no probe).
pub fn onset_cdf(onsets: &[Option<u64>], probes: &[u64]) -> Vec<(u64, f64)> {
    let n = onsets.len().max(1) as f64;
    probes
        .iter()
        .map(|&x| {
            let reached = onsets.iter().filter(|o| o.is_some_and(|w| w <= x)).count();
            (x, reached as f64 / n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windows::window_rates;
    use bc_rational::{BigInt, BigUint};
    use proptest::prelude::*;

    /// Completion times at exactly `rate = 1/period` per step.
    fn steady(n: u64, period: u64) -> Vec<u64> {
        (1..=n).map(|k| k * period).collect()
    }

    #[test]
    fn steady_run_at_optimal_is_detected() {
        let times = steady(1000, 3);
        let onset = detect_onset(&times, &Rational::new(1, 3), OnsetConfig::default());
        // First two qualifying windows after 300 are 301 and 302.
        assert_eq!(onset, Some(302));
    }

    #[test]
    fn sub_optimal_run_is_rejected() {
        let times = steady(1000, 4); // rate 1/4 < optimal 1/3
        assert_eq!(
            detect_onset(&times, &Rational::new(1, 3), OnsetConfig::default()),
            None
        );
    }

    #[test]
    fn startup_spikes_before_threshold_ignored() {
        // A burst start (100 instant tasks) then a slow tail: early
        // windows are far above optimal but must not count.
        let mut times = vec![1u64; 100];
        let mut t = 1;
        for _ in 0..900u64 {
            t += 100; // far below optimal afterwards
            times.push(t);
        }
        assert_eq!(
            detect_onset(&times, &Rational::new(1, 3), OnsetConfig::default()),
            None
        );
    }

    #[test]
    fn threshold_and_crossings_are_configurable() {
        let times = steady(100, 3);
        let cfg = OnsetConfig {
            window_threshold: 10,
            crossings: 2,
        };
        assert_eq!(detect_onset(&times, &Rational::new(1, 3), cfg), Some(12));
        let one = OnsetConfig {
            window_threshold: 10,
            crossings: 1,
        };
        assert_eq!(detect_onset(&times, &Rational::new(1, 3), one), Some(11));
    }

    #[test]
    fn short_run_cannot_cross_threshold() {
        // N = 400 → windows up to 200 only; threshold 300 unreachable.
        let times = steady(400, 3);
        assert!(!reached_optimal(
            &times,
            &Rational::new(1, 3),
            OnsetConfig::default()
        ));
    }

    #[test]
    fn cdf_counts_cumulatively() {
        let onsets = vec![Some(310), Some(500), None, Some(2000)];
        let curve = onset_cdf(&onsets, &[300, 400, 1000, 3000]);
        assert_eq!(curve[0], (300, 0.0));
        assert_eq!(curve[1], (400, 0.25));
        assert_eq!(curve[2], (1000, 0.5));
        assert_eq!(curve[3], (3000, 0.75));
    }

    #[test]
    fn cdf_of_empty_input_is_zero() {
        assert_eq!(onset_cdf(&[], &[100])[0], (100, 0.0));
    }

    /// The scan as it stood before [`RateThreshold`]: materialize every
    /// window, skip those at or below the threshold, and test the rest
    /// with the exact product `tasks ≥ optimal · span`. The reference
    /// [`detect_onset`] is proven against.
    fn reference_onset(completions: &[u64], optimal: &Rational, cfg: OnsetConfig) -> Option<u64> {
        let mut seen = 0u32;
        for w in window_rates(completions) {
            if w.window <= cfg.window_threshold {
                continue;
            }
            let lhs = Rational::from_integer(w.tasks as i128);
            let rhs = optimal.mul_ref(&Rational::from_integer(w.span as i128));
            if w.span == 0 || lhs >= rhs {
                seen += 1;
                if seen >= cfg.crossings {
                    return Some(w.window);
                }
            }
        }
        None
    }

    /// Completion times from per-task gaps (non-decreasing, zero gaps
    /// allowed).
    fn times_from_gaps(gaps: &[u64]) -> Vec<u64> {
        gaps.iter()
            .scan(0u64, |t, g| {
                *t += g;
                Some(*t)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        #[test]
        fn lazy_scan_matches_reference_scan(
            gaps in prop::collection::vec(0u64..9, 0..600),
            pick in any::<u64>(),
            nudge in 0u64..6,
            q in 1u64..1 << 16,
            threshold_kind in 0u64..6,
            threshold_raw in any::<u64>(),
            crossings in 0u32..4,
        ) {
            let times = times_from_gaps(&gaps);
            let windows = window_rates(&times);
            prop_assume!(!windows.is_empty());
            // Anchor the rate on one window's own rate so the scan meets
            // exact ties and near-ties, not only clear verdicts.
            let w = windows[(pick % windows.len() as u64) as usize];
            let (t, s) = (w.tasks as i128, w.span.max(1) as i128);
            let optimal = match nudge {
                0 => Rational::new(t, s),
                1 => Rational::new(t + 1, s),
                2 => Rational::new(t, s + 1),
                3 => Rational::new(2 * t - 1, 2 * s),
                // Big tier: within 2^-80 of the anchor, either side.
                _ => Rational::new(t, s).add_ref(&Rational::from_parts(
                    BigInt::from_i128(if nudge == 4 { 1 } else { -1 }),
                    BigUint::from_u128(q as u128).shl(80),
                )),
            };
            let half = windows.len() as u64;
            let window_threshold = match threshold_kind {
                0 => 0,
                1 => u64::MAX,
                2 => half,
                3 => half.saturating_sub(1),
                _ => threshold_raw % (half + 1),
            };
            let cfg = OnsetConfig { window_threshold, crossings };
            prop_assert_eq!(
                detect_onset(&times, &optimal, cfg),
                reference_onset(&times, &optimal, cfg),
                "rate {} cfg {:?}", optimal, cfg
            );
        }
    }

    #[test]
    fn lazy_scan_matches_reference_scan_on_paper_configs() {
        // Runs long enough to pass window 300: one whose every window ties
        // 1/3 exactly, one jittered around it. The big-tier rates sit a
        // hair above and below 1/3, so the tied run reaches one and
        // never the other (a full scan of every window).
        let tied: Vec<u64> = (1..=2000u64).map(|k| 3 * k).collect();
        let jittered: Vec<u64> = (1..=2000u64).map(|k| 3 * k + (k * 7919) % 5).collect();
        let third = Rational::new(1, 3);
        let eps = Rational::from_parts(BigInt::one(), BigUint::one().shl(90));
        let mut outcomes = Vec::new();
        for times in [&tied, &jittered] {
            for rate in [third.clone(), third.add_ref(&eps), third.sub_ref(&eps)] {
                for cfg in [
                    OnsetConfig::default(),
                    OnsetConfig {
                        window_threshold: 0,
                        crossings: 1,
                    },
                    OnsetConfig {
                        window_threshold: u64::MAX,
                        crossings: 2,
                    },
                ] {
                    let onset = detect_onset(times, &rate, cfg);
                    assert_eq!(onset, reference_onset(times, &rate, cfg), "{rate} {cfg:?}");
                    outcomes.push(onset);
                }
            }
        }
        assert!(outcomes.contains(&Some(302)) && outcomes.contains(&None));
        assert_eq!(
            detect_onset(&tied, &third.add_ref(&eps), OnsetConfig::default()),
            None
        );
    }
}
