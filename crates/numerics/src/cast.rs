//! Checked numeric conversions for cycle/byte counter arithmetic.
//!
//! The serving simulator accumulates cycle counts, KV byte volumes and page
//! counters across million-request runs; a silently wrapping `as` cast on
//! any of these would corrupt the accounting long before a test noticed. The
//! helpers here are the sanctioned replacements clippy's cast lints
//! (`cast_possible_truncation`, `cast_sign_loss`, `cast_possible_wrap`)
//! steer bare `as` casts toward in the hot-path modules: each one
//! is a plain conversion on the happy path — bit-identical to the `as` cast
//! it replaces for every in-range value — and panics loudly on the
//! out-of-range values `as` would truncate, saturate or wrap.
//!
//! All helpers are `#[inline]` and compile to no-ops (or a compare-and-trap)
//! on 64-bit targets, so they are safe to use in the hot path.

/// Largest `u64` a `f64` can represent exactly (2^53): beyond it, integer
/// counters lose precision when routed through a float.
pub const MAX_EXACT_F64_INT: u64 = 1 << 53;

/// `u64` → `usize` without silent truncation (a no-op on 64-bit targets).
///
/// # Panics
/// Panics if `x` does not fit a `usize` (only possible on 32-bit targets).
#[inline]
pub fn usize_from_u64(x: u64) -> usize {
    usize::try_from(x).expect("u64 counter exceeds usize on this target")
}

/// `usize` → `u64` (infallible on every supported target, but proven by
/// `try_from` rather than assumed by `as`).
///
/// # Panics
/// Panics if `usize` is wider than 64 bits (no supported target).
#[inline]
pub fn u64_from_usize(x: usize) -> u64 {
    u64::try_from(x).expect("usize wider than 64 bits")
}

/// `usize` → `u32` without silent truncation.
///
/// # Panics
/// Panics if `x` does not fit a `u32`.
#[inline]
pub fn u32_from_usize(x: usize) -> u32 {
    u32::try_from(x).expect("counter exceeds u32")
}

/// `u32` → `usize` (infallible on every supported target, but proven by
/// `try_from` rather than assumed by `as`).
///
/// # Panics
/// Panics if `usize` is narrower than 32 bits (no supported target).
#[inline]
pub fn usize_from_u32(x: u32) -> usize {
    usize::try_from(x).expect("usize narrower than 32 bits")
}

/// `f64` → `u64` for a value that must already be an exact non-negative
/// integer in the `f64`-exact range (e.g. the output of `round`/`ceil` on a
/// bounded quantity). Unlike `as`, which saturates and maps NaN to zero,
/// this panics on anything out of range.
///
/// # Panics
/// Panics if `x` is NaN, negative, or above 2^53.
#[inline]
pub fn u64_from_f64(x: f64) -> u64 {
    assert!(
        x >= 0.0 && x <= MAX_EXACT_F64_INT as f64,
        "float {x} out of exact u64 range (NaN, negative, or above 2^53)"
    );
    x as u64
}

/// `f64` → `usize` with the same contract as [`u64_from_f64`].
///
/// # Panics
/// Panics if `x` is NaN, negative, above 2^53, or above `usize::MAX`.
#[inline]
pub fn usize_from_f64(x: f64) -> usize {
    usize_from_u64(u64_from_f64(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_match_the_as_cast_they_replace() {
        for v in [0u64, 1, 4096, u32::MAX as u64, MAX_EXACT_F64_INT] {
            assert_eq!(usize_from_u64(v), v as usize);
            assert_eq!(u64_from_usize(v as usize), v);
        }
        for f in [0.0f64, 1.0, 2.5f64.round(), 1e15f64.ceil()] {
            assert_eq!(u64_from_f64(f), f as u64);
            assert_eq!(usize_from_f64(f), f as usize);
        }
        assert_eq!(u32_from_usize(123), 123);
        assert_eq!(usize_from_u32(u32::MAX), u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "out of exact u64 range")]
    fn negative_float_panics_instead_of_saturating() {
        u64_from_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "out of exact u64 range")]
    fn nan_panics_instead_of_becoming_zero() {
        u64_from_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "out of exact u64 range")]
    fn beyond_exact_range_panics() {
        u64_from_f64(2.0 * MAX_EXACT_F64_INT as f64);
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn u32_narrowing_panics() {
        u32_from_usize(usize::try_from(u64::from(u32::MAX) + 1).unwrap());
    }
}
