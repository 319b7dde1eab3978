//! Signed 4-bit integers.
//!
//! Mugi maps INT4 weights / KV-cache entries to the array rows (Section 4.2).
//! The format here is a plain two's-complement signed 4-bit integer in
//! `[-8, 7]`.

use std::fmt;

/// A signed 4-bit integer value in `[-8, 7]`.
///
/// ```
/// use mugi_numerics::int4::Int4;
/// let x = Int4::new(-5).unwrap();
/// assert_eq!(x.value(), -5);
/// assert_eq!(Int4::saturating_from_i32(99).value(), 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Int4(i8);

impl Int4 {
    /// Minimum representable value.
    pub const MIN: Int4 = Int4(-8);
    /// Maximum representable value.
    pub const MAX: Int4 = Int4(7);
    /// Zero.
    pub const ZERO: Int4 = Int4(0);

    /// Creates an `Int4`, returning `None` if the value is out of range.
    pub const fn new(value: i8) -> Option<Self> {
        if value >= -8 && value <= 7 {
            Some(Int4(value))
        } else {
            None
        }
    }

    /// Creates an `Int4`, clamping out-of-range values to the representable
    /// extremes.
    pub fn saturating_from_i32(value: i32) -> Self {
        Int4(value.clamp(-8, 7) as i8)
    }

    /// Creates an `Int4` by rounding an `f32` to the nearest integer and
    /// clamping (this is the quantization kernel used by WOQ/KVQ).
    pub fn from_f32_saturating(value: f32) -> Self {
        if value.is_nan() {
            return Int4::ZERO;
        }
        Self::saturating_from_i32(value.round() as i32)
    }

    /// The contained value.
    pub const fn value(self) -> i8 {
        self.0
    }

    /// The value as `f32`.
    pub const fn to_f32(self) -> f32 {
        self.0 as f32
    }

    /// The magnitude (0..=8).
    pub const fn magnitude(self) -> u8 {
        self.0.unsigned_abs()
    }

    /// Two's-complement 4-bit encoding (0..=15).
    pub const fn to_nibble(self) -> u8 {
        (self.0 as u8) & 0x0F
    }

    /// Decodes a two's-complement nibble.
    pub const fn from_nibble(nibble: u8) -> Self {
        let n = nibble & 0x0F;
        if n >= 8 {
            Int4(n as i8 - 16)
        } else {
            Int4(n as i8)
        }
    }
}

impl fmt::Debug for Int4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Int4({})", self.0)
    }
}

impl fmt::Display for Int4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Int4> for i8 {
    fn from(value: Int4) -> Self {
        value.value()
    }
}

impl From<Int4> for f32 {
    fn from(value: Int4) -> Self {
        value.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_bounds() {
        assert_eq!(Int4::new(7).unwrap().value(), 7);
        assert_eq!(Int4::new(-8).unwrap().value(), -8);
        assert!(Int4::new(8).is_none());
        assert!(Int4::new(-9).is_none());
    }

    #[test]
    fn saturation() {
        assert_eq!(Int4::saturating_from_i32(100).value(), 7);
        assert_eq!(Int4::saturating_from_i32(-100).value(), -8);
        assert_eq!(Int4::from_f32_saturating(3.6).value(), 4);
        assert_eq!(Int4::from_f32_saturating(-3.6).value(), -4);
        assert_eq!(Int4::from_f32_saturating(f32::NAN).value(), 0);
    }

    #[test]
    fn nibble_round_trip() {
        for v in -8..=7i8 {
            let x = Int4::new(v).unwrap();
            assert_eq!(Int4::from_nibble(x.to_nibble()), x);
        }
    }

    #[test]
    fn magnitude_and_sign() {
        assert_eq!(Int4::new(-8).unwrap().magnitude(), 8);
        assert_eq!(Int4::new(-3).unwrap().magnitude(), Int4::new(3).unwrap().magnitude());
    }
}
