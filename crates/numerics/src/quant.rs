//! Weight-only quantization (WOQ) and KV-cache quantization (KVQ).
//!
//! Section 2.3.2/2.3.3 of the paper: LLM weights and KV-cache entries are
//! quantized to INT4 with per-group scales while activations / query tokens
//! stay in BF16, producing the asymmetric BF16–INT4 GEMM that Mugi's array is
//! customised for. This module implements both quantizers plus dequantization
//! (the paper performs dequantization in the vector array after the GEMM).

use crate::bf16::Bf16;
use crate::int4::Int4;
use crate::tensor::Matrix;

/// How the zero point is chosen when quantizing a group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QuantScheme {
    /// Symmetric quantization: zero maps to zero, scale = max|x| / 7.
    Symmetric,
    /// Asymmetric quantization: full `[min, max]` range mapped onto `[-8, 7]`.
    Asymmetric,
}

/// A group of INT4 values with its dequantization parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantGroup {
    /// Quantized values.
    pub values: Vec<Int4>,
    /// Scale factor (BF16-representable, as stored by real WOQ kernels).
    pub scale: f32,
    /// Zero point in the *real* domain: `x ≈ scale * q + zero_point`.
    pub zero_point: f32,
}

impl QuantGroup {
    /// Dequantizes the group back to `f32`.
    pub fn dequantize(&self) -> Vec<f32> {
        self.values.iter().map(|q| self.scale * q.to_f32() + self.zero_point).collect()
    }
}

/// A matrix quantized group-wise along its rows (each group covers
/// `group_size` consecutive elements within a row).
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    group_size: usize,
    scheme: QuantScheme,
    groups: Vec<QuantGroup>,
}

impl QuantizedMatrix {
    /// Quantizes `matrix` with per-row groups of `group_size` elements.
    ///
    /// # Panics
    /// Panics if `group_size` is zero.
    pub fn quantize(matrix: &Matrix, group_size: usize, scheme: QuantScheme) -> Self {
        assert!(group_size > 0, "group_size must be non-zero");
        let mut groups = Vec::new();
        for r in 0..matrix.rows() {
            let row = matrix.row(r);
            for chunk in row.chunks(group_size) {
                groups.push(quantize_group(chunk, scheme));
            }
        }
        QuantizedMatrix { rows: matrix.rows(), cols: matrix.cols(), group_size, scheme, groups }
    }

    /// Number of rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Group size used at quantization time.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Quantization scheme used.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// All quantization groups in row-major order.
    pub fn groups(&self) -> &[QuantGroup] {
        &self.groups
    }

    /// Reconstructs the dequantized matrix.
    pub fn dequantize(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for group in &self.groups {
            data.extend(group.dequantize());
        }
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

fn quantize_group(values: &[f32], scheme: QuantScheme) -> QuantGroup {
    match scheme {
        QuantScheme::Symmetric => {
            let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let scale = if max_abs == 0.0 { 1.0 } else { max_abs / 7.0 };
            let scale = Bf16::from_f32(scale).to_f32();
            let q = values.iter().map(|&v| Int4::from_f32_saturating(v / scale)).collect();
            QuantGroup { values: q, scale, zero_point: 0.0 }
        }
        QuantScheme::Asymmetric => {
            let min = values.iter().cloned().fold(f32::INFINITY, f32::min);
            let max = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let (min, max) =
                if min.is_finite() && max.is_finite() { (min, max) } else { (0.0, 0.0) };
            let range = (max - min).max(f32::MIN_POSITIVE);
            let scale = Bf16::from_f32(range / 15.0).to_f32();
            // q in [-8, 7]; x = scale*q + zero_point with zero_point chosen so
            // q=-8 maps to min.
            let zero_point = Bf16::from_f32(min + 8.0 * scale).to_f32();
            let q = values
                .iter()
                .map(|&v| Int4::from_f32_saturating((v - zero_point) / scale))
                .collect();
            QuantGroup { values: q, scale, zero_point }
        }
    }
}

/// Weight-only quantization with the group size commonly used by GPTQ/AWQ-style
/// kernels (128) unless overridden. Weights are quantized symmetrically.
pub fn weight_only_quantize(weights: &Matrix, group_size: usize) -> QuantizedMatrix {
    QuantizedMatrix::quantize(weights, group_size, QuantScheme::Symmetric)
}

/// KV-cache quantization: each token's key/value vector is a group, quantized
/// asymmetrically (KV caches have strong per-channel offsets).
pub fn kv_cache_quantize(kv: &Matrix, group_size: usize) -> QuantizedMatrix {
    QuantizedMatrix::quantize(kv, group_size, QuantScheme::Asymmetric)
}

/// Root-mean-square quantization error of a quantized matrix against its
/// source, used by the accuracy experiments and tests.
pub fn quantization_rmse(original: &Matrix, quantized: &QuantizedMatrix) -> f32 {
    let deq = quantized.dequantize();
    let mut acc = 0.0f64;
    for (a, b) in original.data().iter().zip(deq.data()) {
        acc += ((a - b) as f64).powi(2);
    }
    (acc / original.data().len() as f64).sqrt() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::pseudo_random_matrix;

    #[test]
    fn symmetric_round_trip_of_exact_grid() {
        // Values already on the INT4 grid with scale 1 round-trip exactly.
        let m = Matrix::from_rows(&[&[-8.0, -3.0, 0.0, 7.0]]);
        let q = QuantizedMatrix::quantize(&m, 4, QuantScheme::Symmetric);
        // scale = 8/7 here so not exact; use a grid scaled by 7 instead.
        let m = Matrix::from_rows(&[&[-7.0, -3.0, 0.0, 7.0]]);
        let q2 = QuantizedMatrix::quantize(&m, 4, QuantScheme::Symmetric);
        assert_eq!(q2.dequantize(), m);
        assert_eq!(q.rows(), 1);
    }

    #[test]
    fn symmetric_error_bounded_by_half_scale() {
        let m = pseudo_random_matrix(8, 64, 1, 2.5);
        let q = weight_only_quantize(&m, 32);
        let deq = q.dequantize();
        for (group_idx, group) in q.groups().iter().enumerate() {
            for (i, _) in group.values.iter().enumerate() {
                let flat = group_idx * 32 + i;
                let (r, c) = (flat / 64, flat % 64);
                let err = (m[(r, c)] - deq[(r, c)]).abs();
                assert!(
                    err <= group.scale * 0.51 + 1e-4,
                    "error {err} exceeds half scale {}",
                    group.scale
                );
            }
        }
    }

    #[test]
    fn asymmetric_handles_offset_distributions() {
        // A distribution centred far from zero (like a KV cache channel).
        let m = Matrix::from_fn(4, 32, |_, c| 10.0 + 0.05 * c as f32);
        let sym = QuantizedMatrix::quantize(&m, 32, QuantScheme::Symmetric);
        let asym = kv_cache_quantize(&m, 32);
        assert!(
            quantization_rmse(&m, &asym) < quantization_rmse(&m, &sym),
            "asymmetric must beat symmetric on offset data"
        );
    }

    #[test]
    fn constant_group_quantizes_losslessly_symmetric_zero() {
        let m = Matrix::from_rows(&[&[0.0, 0.0, 0.0, 0.0]]);
        let q = weight_only_quantize(&m, 4);
        assert_eq!(q.dequantize(), m);
    }

    #[test]
    fn dequantized_shape_matches() {
        let m = pseudo_random_matrix(5, 37, 9, 1.0);
        let q = weight_only_quantize(&m, 8);
        let d = q.dequantize();
        assert_eq!(d.rows(), 5);
        assert_eq!(d.cols(), 37);
        assert_eq!(q.group_size(), 8);
        assert_eq!(q.scheme(), QuantScheme::Symmetric);
    }

    #[test]
    #[should_panic(expected = "group_size must be non-zero")]
    fn zero_group_size_rejected() {
        let m = Matrix::zeros(1, 4);
        let _ = QuantizedMatrix::quantize(&m, 0, QuantScheme::Symmetric);
    }
}
