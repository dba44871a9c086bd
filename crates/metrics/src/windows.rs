//! The sliding growing window of §4.1.
//!
//! > "the y-axis value at point x on the x-axis represents the average
//! > rate between the time t_x when task x is completed and time t_2x
//! > when task 2x is completed. Thus, it is (2x − x)/(t_2x − t_x)."
//!
//! Rates are kept as exact integer pairs (tasks, span) so the comparison
//! against the exact optimal rate is never a float tolerance. Every such
//! comparison in this crate goes through one [`RateThreshold`].

use bc_rational::Rational;

/// One window's measured throughput: `tasks / span` tasks per timestep,
/// over the completion interval `[t_x, t_2x]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowRate {
    /// The window index `x` (tasks completed at the window's start).
    pub window: u64,
    /// Numerator: tasks completed inside the window (= `x`).
    pub tasks: u64,
    /// Denominator: `t_2x − t_x` timesteps (can be 0 when many tasks
    /// complete at one instant; such a window trivially exceeds any
    /// finite rate).
    pub span: u64,
}

impl WindowRate {
    /// True if this window's rate is at least `rate` ("goes over" in the
    /// paper's onset heuristic; meeting the optimum exactly counts, since
    /// no window can exceed a rate it only asymptotically approaches).
    ///
    /// One-off convenience over [`RateThreshold::met_by`]; code testing
    /// many windows against one rate should build the threshold once.
    pub fn reaches(&self, rate: &Rational) -> bool {
        RateThreshold::new(rate).met_by(self.tasks, self.span)
    }

    /// The rate as a float (plotting only).
    pub fn as_f64(&self) -> f64 {
        if self.span == 0 {
            f64::INFINITY
        } else {
            self.tasks as f64 / self.span as f64
        }
    }

    /// The rate normalized by `optimal` (plotting only).
    pub fn normalized(&self, optimal: &Rational) -> f64 {
        self.as_f64() / optimal.to_f64()
    }
}

/// Largest integer every `f64` holds exactly (2^53).
const F64_EXACT_INT: u64 = 1 << 53;

/// The exact test `tasks / span ≥ rate` against one fixed rate, with a
/// float filter that settles all but near-tie cases without touching
/// `Rational` arithmetic.
///
/// Built once per rate (the only cost is one `Rational::to_f64`, which
/// allocates for a big-tier rate); every [`met_by`](Self::met_by) after
/// that is allocation-free unless the filter defers to the exact path.
///
/// # Why the filter is exact
///
/// Let `RN` be IEEE round-to-nearest onto `f64`. `RN` is monotone:
/// `x ≤ y ⇒ RN(x) ≤ RN(y)`, so `RN(x) < RN(y) ⇒ x < y` and
/// `RN(x) > RN(y) ⇒ x > y`. Both floats compared here are `RN` of their
/// exact values, each from one correctly-rounded step:
///
/// * `f = tasks as f64 / span as f64` with `tasks, span ≤ 2^53`: both
///   conversions are exact, and IEEE division rounds the true quotient
///   once, so `f = RN(tasks / span)`;
/// * `approx = rate.to_f64()`, which is round-to-nearest (half-even) of
///   the exact rational; the filter is armed only when `approx` lies in
///   `[2^-1000, 2^1000]`, far from the subnormal and overflow ranges, so
///   `approx = RN(rate)` without caveat.
///
/// Hence `f > approx` proves `tasks / span > rate` and `f < approx`
/// proves `tasks / span < rate`. When `f == approx` (an exact tie, or two
/// values within one rounding of each other), when either operand
/// exceeds 2^53, or when the filter is unarmed, the answer comes from
/// the exact comparison `tasks ≥ rate · span` in `Rational`s.
#[derive(Clone, Copy, Debug)]
pub struct RateThreshold<'a> {
    rate: &'a Rational,
    /// `RN(rate)`, or NaN when the filter is unarmed (every comparison
    /// with NaN is false, so each test falls through to the exact path).
    approx: f64,
}

impl<'a> RateThreshold<'a> {
    /// Precomputes the filter for `rate`.
    pub fn new(rate: &'a Rational) -> Self {
        let approx = rate.to_f64();
        let armed = (2f64.powi(-1000)..=2f64.powi(1000)).contains(&approx.abs());
        RateThreshold {
            rate,
            approx: if armed { approx } else { f64::NAN },
        }
    }

    /// True if `tasks / span ≥ rate`; a zero span meets every rate.
    pub fn met_by(&self, tasks: u64, span: u64) -> bool {
        if span == 0 {
            return true;
        }
        if tasks <= F64_EXACT_INT && span <= F64_EXACT_INT {
            let f = tasks as f64 / span as f64;
            if f > self.approx {
                return true;
            }
            if f < self.approx {
                return false;
            }
        }
        self.met_by_exact(tasks, span)
    }

    /// The exact comparison: `tasks ≥ rate · span` (both sides exact).
    fn met_by_exact(&self, tasks: u64, span: u64) -> bool {
        let lhs = Rational::from_integer(tasks as i128);
        let rhs = self.rate.mul_ref(&Rational::from_integer(span as i128));
        lhs >= rhs
    }
}

/// Windows `x = max(from, 1) ..= N/2`, computed lazily from the global
/// completion-time sequence (`completions[k]` = time of the `(k+1)`-th
/// completion).
pub(crate) fn windows_from(
    completions: &[u64],
    from: u64,
) -> impl Iterator<Item = WindowRate> + '_ {
    let first = usize::try_from(from.max(1)).unwrap_or(usize::MAX);
    (first..=completions.len() / 2).map(|x| WindowRate {
        window: x as u64,
        tasks: x as u64,
        span: completions[2 * x - 1] - completions[x - 1],
    })
}

/// Computes every window `x = 1 ..= N/2` from the global completion-time
/// sequence (`completions[k]` = time of the `(k+1)`-th completion).
pub fn window_rates(completions: &[u64]) -> Vec<WindowRate> {
    windows_from(completions, 1).collect()
}

/// Normalized rate curve for plotting (Fig 3): `(window, rate/optimal)`.
pub fn normalized_curve(completions: &[u64], optimal: &Rational) -> Vec<(u64, f64)> {
    window_rates(completions)
        .iter()
        .map(|w| (w.window, w.normalized(optimal)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_rational::{BigInt, BigUint, Sign};
    use proptest::prelude::*;

    #[test]
    fn uniform_completions_give_uniform_rate() {
        // One task every 4 timesteps.
        let times: Vec<u64> = (1..=20).map(|k| 4 * k).collect();
        let rates = window_rates(&times);
        assert_eq!(rates.len(), 10);
        for w in &rates {
            assert_eq!(w.tasks, w.window);
            assert_eq!(w.span, 4 * w.window);
            assert!(w.reaches(&Rational::new(1, 4)));
            assert!(!w.reaches(&Rational::new(1, 3)));
            assert!((w.as_f64() - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn window_bounds_match_paper_definition() {
        let times = vec![10, 20, 40, 80];
        let rates = window_rates(&times);
        // x=1: [t_1, t_2] = [10, 20] → 1 task / 10 steps.
        assert_eq!(
            rates[0],
            WindowRate {
                window: 1,
                tasks: 1,
                span: 10
            }
        );
        // x=2: [t_2, t_4] = [20, 80] → 2 tasks / 60 steps.
        assert_eq!(
            rates[1],
            WindowRate {
                window: 2,
                tasks: 2,
                span: 60
            }
        );
    }

    #[test]
    fn zero_span_window_reaches_everything() {
        let w = WindowRate {
            window: 3,
            tasks: 3,
            span: 0,
        };
        assert!(w.reaches(&Rational::from_integer(1_000_000)));
        assert!(w.as_f64().is_infinite());
    }

    #[test]
    fn exact_equality_counts_as_reaching() {
        let w = WindowRate {
            window: 5,
            tasks: 5,
            span: 10,
        };
        assert!(w.reaches(&Rational::new(1, 2)));
        assert!(!w.reaches(&Rational::new(51, 100)));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(window_rates(&[]).is_empty());
        assert!(window_rates(&[5]).is_empty());
        assert_eq!(window_rates(&[5, 9]).len(), 1);
    }

    #[test]
    fn normalized_curve_is_one_at_optimal() {
        let times: Vec<u64> = (1..=100).map(|k| 2 * k).collect();
        let curve = normalized_curve(&times, &Rational::new(1, 2));
        for (_, v) in curve {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    /// Exact-tie and unarmed-filter corners of [`RateThreshold`] that
    /// random sampling would rarely hit.
    #[test]
    fn threshold_corners_match_exact_ordering() {
        let pow2 = |e: i32| {
            let p = BigUint::one().shl(e.unsigned_abs() as usize);
            if e >= 0 {
                Rational::from_parts(BigInt::from_sign_mag(Sign::Positive, p), BigUint::one())
            } else {
                Rational::from_parts(BigInt::one(), p)
            }
        };
        let rates = [
            Rational::zero(),
            Rational::new(-7, 3),
            Rational::new(1, 3),
            Rational::from_integer(1 << 60),
            pow2(-1100), // below the armed band
            pow2(-200),
            pow2(200),
            pow2(1100), // above the armed band
        ];
        let pairs = [
            (0, 1),
            (1, 1),
            (1, 3),
            (u64::MAX, 1),
            (1, u64::MAX),
            (F64_EXACT_INT, F64_EXACT_INT + 1),
            (F64_EXACT_INT + 1, F64_EXACT_INT),
            (u64::MAX, u64::MAX - 1),
        ];
        for rate in &rates {
            let t = RateThreshold::new(rate);
            assert!(t.met_by(0, 0) && t.met_by(u64::MAX, 0));
            for &(tasks, span) in &pairs {
                assert_eq!(
                    t.met_by(tasks, span),
                    exact_met(tasks, span, rate),
                    "{tasks}/{span} vs {rate}"
                );
            }
        }
    }

    /// The oracle: exact `Rational` ordering of `tasks/span` against
    /// `rate`, computed independently of [`RateThreshold`].
    fn exact_met(tasks: u64, span: u64, rate: &Rational) -> bool {
        span == 0 || Rational::new(tasks as i128, span as i128) >= *rate
    }

    /// A big-tier rate `tasks/span + sign · 1/(2^80 · q)`.
    fn nudged(tasks: u64, span: u64, q: u64, up: bool) -> Rational {
        let delta = Rational::from_parts(
            BigInt::from_i128(if up { 1 } else { -1 }),
            BigUint::from_u128(q as u128).shl(80),
        );
        Rational::new(tasks as i128, span as i128).add_ref(&delta)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn threshold_matches_exact_ordering_on_random_inputs(
            tasks in 0u64..1 << 20,
            span in 0u64..1 << 22,
            num in 0i128..1 << 20,
            den in 1i128..1 << 22,
            delta_num in any::<i64>(),
            delta_den in 1u128 << 100..u128::MAX,
        ) {
            let small = Rational::new(num, den);
            prop_assert_eq!(RateThreshold::new(&small).met_by(tasks, span), exact_met(tasks, span, &small));
            // A big-tier rate within 2^-37 of the small one.
            let delta = Rational::from_parts(BigInt::from_i128(delta_num as i128), BigUint::from_u128(delta_den));
            let big = small.add_ref(&delta);
            prop_assert_eq!(RateThreshold::new(&big).met_by(tasks, span), exact_met(tasks, span, &big));
        }

        #[test]
        fn threshold_matches_exact_ordering_on_near_ties(
            tasks in 1u64..1 << 40,
            span in 2u64..1 << 40,
            q in 1u64..1 << 20,
            up in any::<bool>(),
        ) {
            let candidates = [
                Rational::new(tasks as i128, span as i128),       // exact tie
                Rational::new(tasks as i128 + 1, span as i128),   // one unit off
                Rational::new(tasks as i128 - 1, span as i128),
                Rational::new(tasks as i128, span as i128 + 1),
                Rational::new(tasks as i128, span as i128 - 1),
                nudged(tasks, span, q, up),                       // within 2^-80
            ];
            for rate in &candidates {
                let t = RateThreshold::new(rate);
                prop_assert_eq!(t.met_by(tasks, span), exact_met(tasks, span, rate), "{}/{} vs {}", tasks, span, rate);
                prop_assert!(t.met_by(tasks, 0));
            }
            prop_assert!(!nudged(tasks, span, q, true).is_small());
        }

        #[test]
        fn threshold_matches_exact_ordering_above_2_pow_53(
            tasks in F64_EXACT_INT - 2..u64::MAX,
            span in F64_EXACT_INT - 2..u64::MAX,
            q in 1u64..1 << 20,
            up in any::<bool>(),
        ) {
            for rate in [
                Rational::new(tasks as i128, span as i128),
                Rational::new(tasks as i128 + 1, span as i128),
                Rational::new(tasks as i128, span as i128 + 1),
                nudged(tasks, span, q, up),
            ] {
                let t = RateThreshold::new(&rate);
                prop_assert_eq!(t.met_by(tasks, span), exact_met(tasks, span, &rate));
                prop_assert_eq!(t.met_by(tasks, 3), exact_met(tasks, 3, &rate));
                prop_assert_eq!(t.met_by(3, span), exact_met(3, span, &rate));
            }
        }
    }
}
