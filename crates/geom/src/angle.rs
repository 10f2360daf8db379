//! Angle wrapping and conversion utilities.
//!
//! Phase values reported by an RFID reader are defined modulo `2π`; bearing
//! angles in the paper live in `[0, 2π)`; phase *differences* are most useful
//! wrapped to `(-π, π]`. This module provides the three canonical wrap
//! operations plus degree conversions, all total (no panics, NaN passes
//! through as NaN).

use std::f64::consts::{PI, TAU};

/// Wrap an angle to the half-open interval `[0, 2π)`.
///
/// ```
/// use tagspin_geom::angle::wrap_tau;
/// use std::f64::consts::{PI, TAU};
/// assert!((wrap_tau(-PI) - PI).abs() < 1e-12);
/// assert_eq!(wrap_tau(0.0), 0.0);
/// assert!(wrap_tau(TAU) < 1e-12);
/// ```
#[inline]
pub fn wrap_tau(theta: f64) -> f64 {
    // `rem_euclid` is `θ % TAU` — exactly ±(|θ| − k·TAU), signed like θ, so
    // a negative multiple of TAU gives -0.0 — plus TAU when negative. For
    // k ≤ 2 the subtraction is exact too (Sterbenz; TAU and 2·TAU are exact
    // floats), so |θ| < 3·TAU gets the same bits without the libm `fmod`.
    // The k = 2 result is below TAU exactly when |θ| < 3·TAU.
    let a = theta.abs();
    let k_tau = if a < TAU {
        0.0
    } else if a < 2.0 * TAU {
        TAU
    } else {
        2.0 * TAU
    };
    let r = a - k_tau;
    // The one blessed raw wrap (for |θ| ≥ 3·TAU, NaN and ±∞): every other
    // call site routes through here.
    #[allow(clippy::disallowed_methods)]
    let w = if r < TAU {
        let rem = r.copysign(theta);
        if rem < 0.0 {
            rem + TAU
        } else {
            rem
        }
    } else {
        theta.rem_euclid(TAU)
    };
    // rem_euclid can return TAU itself for inputs like -1e-17 due to rounding.
    if w >= TAU {
        0.0
    } else {
        w
    }
}

/// Wrap an angle to the half-open interval `(-π, π]`.
///
/// This is the canonical representation for phase *differences*: the wrapped
/// value is the signed difference of smallest magnitude.
///
/// ```
/// use tagspin_geom::angle::wrap_pi;
/// use std::f64::consts::PI;
/// assert!((wrap_pi(3.0 * PI) - PI).abs() < 1e-12);
/// assert!((wrap_pi(-PI) - PI).abs() < 1e-12); // -π maps to +π
/// assert_eq!(wrap_pi(0.3), 0.3);
/// ```
#[inline]
pub fn wrap_pi(theta: f64) -> f64 {
    let w = wrap_tau(theta);
    if w > PI {
        w - TAU
    } else {
        w
    }
}

/// Signed smallest difference `a - b`, wrapped to `(-π, π]`.
///
/// ```
/// use tagspin_geom::angle::diff;
/// use std::f64::consts::PI;
/// assert!((diff(0.1, 2.0 * PI - 0.1) - 0.2).abs() < 1e-12);
/// ```
#[inline]
pub fn diff(a: f64, b: f64) -> f64 {
    wrap_pi(a - b)
}

/// Absolute smallest separation between two angles, in `[0, π]`.
///
/// ```
/// use tagspin_geom::angle::separation;
/// use std::f64::consts::PI;
/// assert!((separation(0.0, PI) - PI).abs() < 1e-12);
/// assert!((separation(0.1, 6.2) - (0.1 + (std::f64::consts::TAU - 6.2))).abs() < 1e-9);
/// ```
#[inline]
pub fn separation(a: f64, b: f64) -> f64 {
    diff(a, b).abs()
}

/// Convert degrees to radians.
///
/// ```
/// assert!((tagspin_geom::angle::from_degrees(180.0) - std::f64::consts::PI).abs() < 1e-12);
/// ```
#[inline]
pub fn from_degrees(deg: f64) -> f64 {
    deg.to_radians()
}

/// Convert radians to degrees.
///
/// ```
/// assert!((tagspin_geom::angle::to_degrees(std::f64::consts::PI) - 180.0).abs() < 1e-12);
/// ```
#[inline]
pub fn to_degrees(rad: f64) -> f64 {
    rad.to_degrees()
}

/// Linear interpolation between two angles along the shortest arc.
///
/// `t = 0` yields `a` (wrapped), `t = 1` yields `b` (wrapped). Useful for
/// refining spectrum peaks between grid points.
///
/// ```
/// use tagspin_geom::angle::{lerp, wrap_tau};
/// use std::f64::consts::PI;
/// let mid = lerp(0.1, 2.0 * PI - 0.1, 0.5);
/// assert!(wrap_tau(mid) < 1e-12 || (wrap_tau(mid) - 2.0 * PI).abs() < 1e-12);
/// ```
#[inline]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    wrap_tau(a + diff(b, a) * t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hint::black_box;

    /// The `fmod`-for-every-input formula `wrap_tau` must reproduce bit
    /// for bit.
    fn wrap_tau_oracle(theta: f64) -> f64 {
        #[allow(clippy::disallowed_methods)]
        let w = theta.rem_euclid(TAU);
        if w >= TAU {
            0.0
        } else {
            w
        }
    }

    fn assert_wrap_tau_exact(x: f64) {
        let x = black_box(x);
        let (fast, oracle) = (wrap_tau(x), wrap_tau_oracle(x));
        assert_eq!(
            fast.to_bits(),
            oracle.to_bits(),
            "wrap_tau({x:e} = {:#x}) = {fast:e}, rem_euclid gives {oracle:e}",
            x.to_bits()
        );
    }

    #[test]
    fn wrap_tau_is_exact_near_multiples_of_tau() {
        // ±k·TAU ± 64 ulps for |k| ≤ 4: every fast-path branch boundary
        // (TAU, 2·TAU, 3·TAU) and the first fall-through band, both signs.
        for k in -4i32..=4 {
            let base = f64::from(k) * TAU;
            let (mut up, mut down) = (base, base);
            for _ in 0..=64 {
                assert_wrap_tau_exact(up);
                assert_wrap_tau_exact(down);
                assert_wrap_tau_exact(-up);
                assert_wrap_tau_exact(-down);
                up = up.next_up();
                down = down.next_down();
            }
        }
    }

    #[test]
    fn wrap_tau_is_exact_on_special_values() {
        let specials = [
            0.0,
            -0.0,
            PI,
            -PI,
            TAU,
            -TAU,
            2.0 * TAU,
            -2.0 * TAU,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            -f64::MIN_POSITIVE / 4.0,
            f64::EPSILON,
            -1e-17,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for x in specials {
            assert_wrap_tau_exact(x);
        }
        // A negative multiple of TAU keeps fmod's sign: -0.0, not +0.0.
        assert_eq!(wrap_tau(black_box(-TAU)).to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            wrap_tau(black_box(-2.0 * TAU)).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    proptest! {
        /// Arbitrary bit patterns: every sign, exponent, subnormal, NaN
        /// payload and infinity.
        #[test]
        fn wrap_tau_is_exact_on_random_bit_patterns(
            bits in collection::vec(proptest::num::u64::ANY, 1024)
        ) {
            for b in bits {
                let x = f64::from_bits(b);
                prop_assert_eq!(wrap_tau(x).to_bits(), wrap_tau_oracle(x).to_bits(), "x = {:#x}", b);
            }
        }

        /// Dense values across the fast path and the start of the
        /// fall-through, (−5·TAU, 5·TAU).
        #[test]
        fn wrap_tau_is_exact_on_dense_values(
            xs in collection::vec(-5.0 * TAU..5.0 * TAU, 1024)
        ) {
            for x in xs {
                prop_assert_eq!(wrap_tau(x).to_bits(), wrap_tau_oracle(x).to_bits(), "x = {:e}", x);
            }
        }
    }

    #[test]
    fn wrap_tau_range() {
        for &x in &[-10.0, -TAU, -PI, -0.0, 0.0, 1.0, PI, TAU, 10.0, 1e6, -1e6] {
            let w = wrap_tau(x);
            assert!((0.0..TAU).contains(&w), "wrap_tau({x}) = {w} out of range");
        }
    }

    #[test]
    fn wrap_pi_range() {
        for &x in &[-10.0, -TAU, -PI, 0.0, 1.0, PI, TAU, 10.0, 123.456] {
            let w = wrap_pi(x);
            assert!(
                w > -PI - 1e-15 && w <= PI + 1e-15,
                "wrap_pi({x}) = {w} out of range"
            );
        }
    }

    #[test]
    fn wrap_is_idempotent() {
        for i in 0..100 {
            let x = (i as f64) * 0.37 - 18.0;
            assert!((wrap_tau(wrap_tau(x)) - wrap_tau(x)).abs() < 1e-12);
            assert!((wrap_pi(wrap_pi(x)) - wrap_pi(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn diff_antisymmetric_mod_tau() {
        let a = 1.2;
        let b = 5.9;
        assert!((diff(a, b) + diff(b, a)).abs() < 1e-12);
    }

    #[test]
    fn nan_passes_through() {
        assert!(wrap_tau(f64::NAN).is_nan());
        assert!(wrap_pi(f64::NAN).is_nan());
    }

    #[test]
    fn lerp_endpoints() {
        let a = 0.3;
        let b = 5.7;
        assert!(separation(lerp(a, b, 0.0), a) < 1e-12);
        assert!(separation(lerp(a, b, 1.0), b) < 1e-12);
    }

    #[test]
    fn degrees_roundtrip() {
        for d in [-720.0, -90.0, 0.0, 45.0, 360.0] {
            assert!((to_degrees(from_degrees(d)) - d).abs() < 1e-9);
        }
    }
}
