//! Software implementation of the bfloat16 (BF16) format.
//!
//! BF16 is the activation / query format the paper assumes for LLM inference
//! (Section 2.3.2): 1 sign bit, 8 exponent bits, 7 mantissa bits — i.e. the top
//! 16 bits of an IEEE-754 `f32`. The Mugi architecture splits a BF16 input into
//! its sign/mantissa/exponent fields (see [`crate::fields`]) and rounds the
//! mantissa down to 3 bits before temporal coding.

use std::cmp::Ordering;
use std::fmt;

/// Number of mantissa bits kept by BF16.
pub const MANTISSA_BITS: u32 = 7;
/// Exponent bias of BF16 (same as `f32`).
pub const EXPONENT_BIAS: i32 = 127;

/// A bfloat16 value stored as its 16 raw bits.
///
/// The representation is exactly the upper half of the corresponding `f32`
/// bit pattern, so conversion to `f32` is lossless while conversion from `f32`
/// rounds to nearest-even.
///
/// ```
/// use mugi_numerics::bf16::Bf16;
/// let x = Bf16::from_f32(3.1415926);
/// assert!((x.to_f32() - 3.140625).abs() < 1e-6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bf16(u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0x0000);
    /// Positive infinity.
    pub const INFINITY: Bf16 = Bf16(0x7F80);
    /// Negative infinity.
    pub const NEG_INFINITY: Bf16 = Bf16(0xFF80);
    /// A canonical quiet NaN.
    pub const NAN: Bf16 = Bf16(0x7FC0);
    /// Largest finite BF16 value.
    pub const MAX: Bf16 = Bf16(0x7F7F);
    /// Smallest finite BF16 value (most negative).
    pub const MIN: Bf16 = Bf16(0xFF7F);

    /// Creates a BF16 from its raw 16-bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        Bf16(bits)
    }

    /// Returns the raw 16-bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to BF16 with round-to-nearest-even.
    ///
    /// NaNs are canonicalised to a quiet NaN so that the payload never leaks
    /// into hashing or equality.
    pub fn from_f32(value: f32) -> Self {
        if value.is_nan() {
            return Self::NAN;
        }
        let bits = value.to_bits();
        // Round to nearest even: add half of the truncated LSB weight plus the
        // parity of the bit that will become the new LSB.
        let round_bit = (bits >> 16) & 1;
        let rounded = bits.wrapping_add(0x7FFF + round_bit);
        Bf16((rounded >> 16) as u16)
    }

    /// Converts a BF16 to `f32` exactly.
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Sign bit: `true` if negative.
    #[inline]
    pub const fn sign(self) -> bool {
        self.0 >> 15 == 1
    }

    /// Raw biased exponent field (0..=255).
    #[inline]
    pub const fn biased_exponent(self) -> u8 {
        ((self.0 >> MANTISSA_BITS) & 0xFF) as u8
    }

    /// Unbiased exponent. Subnormals report the minimum exponent `-126`.
    #[inline]
    pub fn unbiased_exponent(self) -> i32 {
        let e = self.biased_exponent() as i32;
        if e == 0 {
            1 - EXPONENT_BIAS
        } else {
            e - EXPONENT_BIAS
        }
    }

    /// Raw 7-bit mantissa field (without the implicit leading one).
    #[inline]
    pub const fn mantissa(self) -> u8 {
        (self.0 & 0x7F) as u8
    }

    /// Whether the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.biased_exponent() == 0xFF && self.mantissa() != 0
    }

    /// Whether the value is +/- infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.biased_exponent() == 0xFF && self.mantissa() == 0
    }

    /// Whether the value is finite (neither NaN nor infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.biased_exponent() != 0xFF
    }

    /// Whether the value is +0 or -0.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 & 0x7FFF == 0
    }

    /// Absolute value.
    #[inline]
    pub const fn abs(self) -> Self {
        Bf16(self.0 & 0x7FFF)
    }

    /// Negation.
    #[inline]
    pub const fn neg(self) -> Self {
        Bf16(self.0 ^ 0x8000)
    }

    /// Rounds the mantissa to `bits` magnitude bits (round to nearest, ties away
    /// from zero), keeping the exponent and sign.
    ///
    /// This is the *input approximation* of Section 3.2: the paper rounds the
    /// 7-bit BF16 mantissa to 3 bits so that the temporal signal lasts at most
    /// `2^3 = 8` cycles. If rounding overflows the mantissa field the exponent
    /// is incremented (the value rounds up to the next binade).
    ///
    /// # Panics
    /// Panics if `bits > 7`.
    pub fn round_mantissa(self, bits: u32) -> Self {
        assert!(bits <= MANTISSA_BITS, "cannot keep more than 7 mantissa bits");
        if !self.is_finite() || self.is_zero() || bits == MANTISSA_BITS {
            return self;
        }
        let drop = MANTISSA_BITS - bits;
        let mantissa = self.mantissa() as u16;
        let exponent = self.biased_exponent() as u16;
        let sign = (self.0 >> 15) & 1;
        let half = 1u16 << (drop - 1).min(15);
        let rounded = if drop == 0 { mantissa } else { mantissa + half };
        let (mantissa, exponent) = if rounded >> MANTISSA_BITS != 0 {
            // Mantissa overflowed into the implicit bit: bump the exponent.
            (0, (exponent + 1).min(0xFE))
        } else {
            ((rounded >> drop) << drop, exponent)
        };
        Bf16((sign << 15) | (exponent << MANTISSA_BITS) | (mantissa & 0x7F))
    }

    /// Total ordering usable for max-reduction (NaN sorts lowest).
    pub fn total_cmp(self, other: Self) -> Ordering {
        self.to_f32().partial_cmp(&other.to_f32()).unwrap_or_else(|| {
            if self.is_nan() && other.is_nan() {
                Ordering::Equal
            } else if self.is_nan() {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        })
    }
}

impl fmt::Debug for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bf16({})", self.to_f32())
    }
}

impl fmt::Display for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<f32> for Bf16 {
    fn from(value: f32) -> Self {
        Bf16::from_f32(value)
    }
}

impl From<Bf16> for f32 {
    fn from(value: Bf16) -> Self {
        value.to_f32()
    }
}

impl PartialOrd for Bf16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_exact_for_representable() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, -3.25, 1024.0, -0.0078125] {
            assert_eq!(Bf16::from_f32(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn rounds_to_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between 1.0 and the next BF16; ties to
        // even keeps 1.0.
        let halfway = 1.0 + 2f32.powi(-8);
        assert_eq!(Bf16::from_f32(halfway).to_f32(), 1.0);
        // Slightly above the halfway point rounds up.
        let above = 1.0 + 2f32.powi(-8) + 2f32.powi(-12);
        assert_eq!(Bf16::from_f32(above).to_f32(), 1.0 + 2f32.powi(-7));
    }

    #[test]
    fn special_values() {
        assert!(Bf16::from_f32(f32::NAN).is_nan());
        assert!(Bf16::from_f32(f32::INFINITY).is_infinite());
        assert!(Bf16::from_f32(f32::NEG_INFINITY).is_infinite());
        assert!(Bf16::from_f32(f32::NEG_INFINITY).sign());
        assert!(Bf16::ZERO.is_zero());
        assert!(Bf16::from_f32(-0.0).is_zero());
        assert!(Bf16::MAX.is_finite());
    }

    #[test]
    fn field_extraction() {
        let x = Bf16::from_f32(-6.5); // -1.625 * 2^2
        assert!(x.sign());
        assert_eq!(x.unbiased_exponent(), 2);
        assert_eq!(x.mantissa(), 0b101_0000);
    }

    #[test]
    fn mantissa_rounding_to_three_bits() {
        // 1.0101101b * 2^0 = 1.3515625 rounds to 1.011b * 2^0 = 1.375 with 3 bits.
        let x = Bf16::from_f32(1.3515625);
        let r = x.round_mantissa(3);
        assert_eq!(r.to_f32(), 1.375);
        // Rounding is monotone and keeps the exponent unless it overflows.
        let y = Bf16::from_f32(1.9921875); // close to 2.0
        assert_eq!(y.round_mantissa(3).to_f32(), 2.0);
    }

    #[test]
    fn mantissa_rounding_identity_when_keeping_all_bits() {
        for v in [-std::f32::consts::E, 0.1, 7.5, 1e-3] {
            let x = Bf16::from_f32(v);
            assert_eq!(x.round_mantissa(7), x);
        }
    }

    #[test]
    fn abs_and_neg() {
        let x = Bf16::from_f32(-2.5);
        assert_eq!(x.abs().to_f32(), 2.5);
        assert_eq!(x.neg().to_f32(), 2.5);
        assert_eq!(x.neg().neg(), x);
    }

    #[test]
    #[should_panic(expected = "cannot keep more than 7 mantissa bits")]
    fn round_mantissa_rejects_too_many_bits() {
        Bf16::from_f32(1.0).round_mantissa(8);
    }
}
