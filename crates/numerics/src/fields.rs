//! Sign / mantissa / exponent field split used by VLP approximation.
//!
//! Section 3.1 of the paper splits a floating-point input `i` into `S-M-E`
//! (sign, mantissa, exponent). The mantissa (rounded to a small number of
//! bits) selects the LUT *row* via a temporal spike, and the exponent selects
//! the element *within* the row via a second temporal spike. This module
//! provides that split plus the clamping behaviour of the `E-proc` block
//! (Section 4, phase 1): exponents below the sliding window underflow to the
//! lowest stored entry, exponents above it saturate in an op-dependent way.

use crate::bf16::{Bf16, EXPONENT_BIAS, MANTISSA_BITS};

/// The decomposed representation of a BF16 value used by the VLP datapath.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FloatFields {
    /// Sign bit (`true` = negative).
    pub sign: bool,
    /// Rounded mantissa magnitude (the `M` field), in `[0, 2^mantissa_bits)`.
    pub mantissa: u8,
    /// Number of mantissa bits retained after input approximation.
    pub mantissa_bits: u8,
    /// Unbiased exponent (the `E` field).
    pub exponent: i32,
    /// Whether the source value was exactly zero.
    pub is_zero: bool,
    /// Whether the source value was an IEEE special (NaN / infinity).
    pub special: Option<Special>,
}

/// IEEE special values that the post-processing (PP) block must emit directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Special {
    /// Not-a-number.
    Nan,
    /// Positive or negative infinity (sign carried in [`FloatFields::sign`]).
    Infinity,
}

impl FloatFields {
    /// Splits a BF16 value into S-M-E fields, rounding the mantissa to
    /// `mantissa_bits` bits (Section 3.2 input approximation).
    ///
    /// The split works on the 16 raw bits: half an ulp at the kept width is
    /// added to the 15-bit magnitude (round to nearest, ties away from zero),
    /// so a carry out of the mantissa bumps the exponent; the biased exponent
    /// then saturates at `0xFE` (the largest finite binade). Subnormals
    /// report the minimum exponent `-126`.
    ///
    /// # Panics
    /// Panics if `mantissa_bits` is zero or greater than 7.
    #[inline]
    pub fn split(value: Bf16, mantissa_bits: u8) -> Self {
        assert!(
            (1..=7).contains(&mantissa_bits),
            "mantissa_bits must be in 1..=7, got {mantissa_bits}"
        );
        let bits = value.to_bits();
        let magnitude = bits & 0x7FFF;
        let mut fields = FloatFields {
            sign: bits >> 15 == 1,
            mantissa: 0,
            mantissa_bits,
            exponent: 0,
            is_zero: magnitude == 0,
            special: None,
        };
        if magnitude >= 0x7F80 {
            fields.special =
                Some(if magnitude == 0x7F80 { Special::Infinity } else { Special::Nan });
            return fields;
        }
        if fields.is_zero {
            return fields;
        }
        let drop = (MANTISSA_BITS - u32::from(mantissa_bits)) as u16;
        let rounded = magnitude + ((1 << drop) >> 1);
        let biased = (rounded >> MANTISSA_BITS).min(0xFE);
        fields.mantissa = ((rounded & 0x7F) >> drop) as u8;
        fields.exponent = i32::from(biased.max(1)) - EXPONENT_BIAS;
        fields
    }

    /// Splits an `f32` by first quantizing it to BF16.
    pub fn split_f32(value: f32, mantissa_bits: u8) -> Self {
        Self::split(Bf16::from_f32(value), mantissa_bits)
    }

    /// Reconstructs the (approximated) value represented by these fields.
    ///
    /// This is the value the VLP LUT is actually indexed with, i.e. the
    /// *input approximation* of the paper: `(-1)^S * (1 + M/2^bits) * 2^E`.
    pub fn reconstruct(&self) -> f32 {
        if let Some(special) = self.special {
            return match special {
                Special::Nan => f32::NAN,
                Special::Infinity => {
                    if self.sign {
                        f32::NEG_INFINITY
                    } else {
                        f32::INFINITY
                    }
                }
            };
        }
        if self.is_zero {
            return if self.sign { -0.0 } else { 0.0 };
        }
        let frac = 1.0 + self.mantissa as f32 / (1u32 << self.mantissa_bits) as f32;
        let mag = frac * 2f32.powi(self.exponent);
        if self.sign {
            -mag
        } else {
            mag
        }
    }

    /// Clamps the exponent into a LUT window `[lo, hi]` following the
    /// `E-proc` rules of Section 4 phase 1: values below the window underflow
    /// to `lo`; values above saturate to `hi` when `saturate_high` is set
    /// (softmax) or pass through unchanged otherwise (SiLU / GELU, where the
    /// post-processing block reproduces the identity-like tail).
    pub fn clamp_exponent(&self, lo: i32, hi: i32, saturate_high: bool) -> ClampedExponent {
        assert!(lo <= hi, "invalid window [{lo}, {hi}]");
        if self.exponent < lo {
            ClampedExponent { exponent: lo, underflowed: true, overflowed: false }
        } else if self.exponent > hi {
            if saturate_high {
                ClampedExponent { exponent: hi, underflowed: false, overflowed: true }
            } else {
                ClampedExponent { exponent: self.exponent, underflowed: false, overflowed: true }
            }
        } else {
            ClampedExponent { exponent: self.exponent, underflowed: false, overflowed: false }
        }
    }
}

/// Result of clamping an exponent into the LUT sliding window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClampedExponent {
    /// The exponent after clamping.
    pub exponent: i32,
    /// Whether the original exponent fell below the window.
    pub underflowed: bool,
    /// Whether the original exponent fell above the window.
    pub overflowed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_positive_value() {
        // 6.5 = 1.625 * 2^2 -> with 3 mantissa bits: 1.101b, M = 5, E = 2.
        let f = FloatFields::split_f32(6.5, 3);
        assert!(!f.sign);
        assert_eq!(f.mantissa, 5);
        assert_eq!(f.exponent, 2);
        assert_eq!(f.reconstruct(), 6.5);
    }

    #[test]
    fn split_negative_value() {
        let f = FloatFields::split_f32(-0.375, 3); // -1.5 * 2^-2
        assert!(f.sign);
        assert_eq!(f.mantissa, 4);
        assert_eq!(f.exponent, -2);
        assert_eq!(f.reconstruct(), -0.375);
    }

    #[test]
    fn reconstruction_error_is_bounded_by_rounding() {
        for &v in &[0.1f32, 0.77, 1.3, 2.9, 5.11, 100.3, -0.02, -9.9] {
            let f = FloatFields::split_f32(v, 3);
            let r = f.reconstruct();
            // 3-bit mantissa: relative error at most 2^-4 plus BF16 error.
            assert!(((r - v) / v).abs() <= 0.07, "value {v} reconstructed as {r}");
        }
    }

    #[test]
    fn zero_and_specials() {
        assert!(FloatFields::split_f32(0.0, 3).is_zero);
        assert_eq!(FloatFields::split_f32(f32::INFINITY, 3).special, Some(Special::Infinity));
        assert_eq!(FloatFields::split_f32(f32::NAN, 3).special, Some(Special::Nan));
        assert!(FloatFields::split_f32(f32::NAN, 3).reconstruct().is_nan());
        assert_eq!(FloatFields::split_f32(f32::NEG_INFINITY, 3).reconstruct(), f32::NEG_INFINITY);
    }

    #[test]
    fn clamping_rules() {
        let f = FloatFields::split_f32(2f32.powi(10), 3); // exponent 10
        let c = f.clamp_exponent(-3, 4, true);
        assert_eq!(c.exponent, 4);
        assert!(c.overflowed);
        let c = f.clamp_exponent(-3, 4, false);
        assert_eq!(c.exponent, 10);
        assert!(c.overflowed);
        let g = FloatFields::split_f32(2f32.powi(-9), 3);
        let c = g.clamp_exponent(-3, 4, true);
        assert_eq!(c.exponent, -3);
        assert!(c.underflowed);
        let inside = FloatFields::split_f32(2.0, 3).clamp_exponent(-3, 4, true);
        assert!(!inside.underflowed && !inside.overflowed);
    }

    /// The split as it was written before the integer rewrite: specials
    /// and zero by predicate, then `Bf16::round_mantissa` on the value and
    /// the fields read back from the rounded BF16.
    fn split_oracle(value: Bf16, mantissa_bits: u8) -> FloatFields {
        let fields = |mantissa, exponent, is_zero, special| FloatFields {
            sign: value.sign(),
            mantissa,
            mantissa_bits,
            exponent,
            is_zero,
            special,
        };
        if value.is_nan() {
            return fields(0, 0, false, Some(Special::Nan));
        }
        if value.is_infinite() {
            return fields(0, 0, false, Some(Special::Infinity));
        }
        if value.is_zero() {
            return fields(0, 0, true, None);
        }
        let rounded = round_mantissa_oracle(value, mantissa_bits as u32);
        fields(rounded.mantissa() >> (7 - mantissa_bits), rounded.unbiased_exponent(), false, None)
    }

    /// A copy of `Bf16::round_mantissa` for a finite, non-zero value.
    fn round_mantissa_oracle(value: Bf16, bits: u32) -> Bf16 {
        if bits == MANTISSA_BITS {
            return value;
        }
        let drop = MANTISSA_BITS - bits;
        let rounded = value.mantissa() as u16 + (1u16 << (drop - 1));
        let (mantissa, exponent) = if rounded >> MANTISSA_BITS != 0 {
            (0, (value.biased_exponent() as u16 + 1).min(0xFE))
        } else {
            ((rounded >> drop) << drop, value.biased_exponent() as u16)
        };
        let sign = value.to_bits() & 0x8000;
        Bf16::from_bits(sign | (exponent << MANTISSA_BITS) | (mantissa & 0x7F))
    }

    #[test]
    fn split_matches_the_rounding_oracle_on_every_bf16_pattern() {
        for bits in 0..=u16::MAX {
            let value = Bf16::from_bits(bits);
            for mantissa_bits in 1..=7 {
                assert_eq!(
                    FloatFields::split(value, mantissa_bits),
                    split_oracle(value, mantissa_bits),
                    "bits {bits:#06x}, mantissa_bits {mantissa_bits}"
                );
            }
        }
    }

    #[test]
    fn split_f32_matches_the_rounding_oracle_across_bf16_boundaries() {
        // The low half of each f32 sits on, just below or just above the
        // BF16 rounding point, or anywhere, so `from_f32` rounds both ways
        // (and carries into the exponent, up to infinity).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200_000 {
            let word = next();
            let high = (word >> 16) as u32 & 0xFFFF_0000;
            let low = match word & 3 {
                0 => 0x7FFF,
                1 => 0x8000,
                2 => 0x8001,
                _ => word as u32 & 0xFFFF,
            };
            let value = f32::from_bits(high | low);
            for mantissa_bits in 1..=7 {
                assert_eq!(
                    FloatFields::split_f32(value, mantissa_bits),
                    split_oracle(Bf16::from_f32(value), mantissa_bits),
                    "value {value:e} ({:#010x}), mantissa_bits {mantissa_bits}",
                    value.to_bits()
                );
            }
        }
    }

    #[test]
    fn carry_out_of_the_largest_binade_saturates_at_0xfe() {
        // 0x7F7F is the largest finite BF16 (1.1111111b * 2^127): rounding
        // to fewer bits carries, and the exponent stays at 127, not infinity.
        for mantissa_bits in 1..=6 {
            let f = FloatFields::split(Bf16::MAX, mantissa_bits);
            assert_eq!((f.mantissa, f.exponent, f.special), (0, 127, None));
            let f = FloatFields::split(Bf16::MIN, mantissa_bits);
            assert_eq!((f.sign, f.mantissa, f.exponent), (true, 0, 127));
        }
        let f = FloatFields::split(Bf16::MAX, 7);
        assert_eq!((f.mantissa, f.exponent), (0x7F, 127));
        // The smallest subnormal and the largest subnormal both report -126;
        // the largest carries into the smallest normal's mantissa 0.
        assert_eq!(FloatFields::split(Bf16::from_bits(0x0001), 3).exponent, -126);
        let f = FloatFields::split(Bf16::from_bits(0x007F), 3);
        assert_eq!((f.mantissa, f.exponent), (0, -126));
    }

    #[test]
    #[should_panic(expected = "mantissa_bits must be in 1..=7")]
    fn rejects_invalid_mantissa_bits() {
        FloatFields::split_f32(1.0, 0);
    }
}
