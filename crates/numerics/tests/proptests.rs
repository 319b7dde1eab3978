//! Property-based tests for the numeric substrate.

use mugi_numerics::bf16::Bf16;
use mugi_numerics::fields::FloatFields;
use mugi_numerics::int4::Int4;
use mugi_numerics::nonlinear::{gelu_erf, gelu_tanh, sigmoid, silu, softmax};
use mugi_numerics::quant::{kv_cache_quantize, quantization_rmse, weight_only_quantize};
use mugi_numerics::tensor::{pseudo_random_matrix, Matrix};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    prop_oneof![-1e4f32..1e4f32, -1.0f32..1.0f32, -1e-3f32..1e-3f32,]
}

proptest! {
    #[test]
    fn bf16_round_trip_error_is_bounded(x in finite_f32()) {
        let y = Bf16::from_f32(x).to_f32();
        // BF16 has 8 mantissa bits of precision including the hidden bit:
        // relative error <= 2^-8.
        if x != 0.0 {
            prop_assert!(((y - x) / x).abs() <= 2f32.powi(-8) + 1e-7);
        } else {
            prop_assert_eq!(y, 0.0);
        }
    }

    #[test]
    fn bf16_to_f32_is_exact_round_trip(bits in any::<u16>()) {
        let x = Bf16::from_bits(bits);
        if !x.is_nan() {
            prop_assert_eq!(Bf16::from_f32(x.to_f32()), x);
        }
    }

    #[test]
    fn bf16_ordering_matches_f32(a in finite_f32(), b in finite_f32()) {
        let (qa, qb) = (Bf16::from_f32(a), Bf16::from_f32(b));
        if qa.to_f32() < qb.to_f32() {
            prop_assert!(qa < qb);
        }
    }

    #[test]
    fn mantissa_rounding_relative_error_bound(x in finite_f32(), bits in 1u32..=7u32) {
        prop_assume!(x != 0.0);
        let r = Bf16::from_f32(x).round_mantissa(bits).to_f32();
        // Rounding to `bits` mantissa bits gives relative error <= 2^-(bits+1),
        // plus the BF16 conversion error.
        let bound = 2f32.powi(-(bits as i32 + 1)) + 2f32.powi(-8) + 1e-6;
        prop_assert!(((r - x) / x).abs() <= bound, "x={x} r={r} bits={bits}");
    }

    #[test]
    fn field_split_reconstruction_matches_rounded_value(x in finite_f32(), bits in 1u8..=7u8) {
        prop_assume!(x != 0.0);
        let fields = FloatFields::split_f32(x, bits);
        let direct = Bf16::from_f32(x).round_mantissa(bits as u32).to_f32();
        prop_assert_eq!(fields.reconstruct(), direct);
    }

    #[test]
    fn int4_nibble_round_trip(v in -8i8..=7i8) {
        let x = Int4::new(v).unwrap();
        prop_assert_eq!(Int4::from_nibble(x.to_nibble()), x);
    }

    #[test]
    fn softmax_is_a_distribution(values in prop::collection::vec(-50.0f32..50.0f32, 1..64)) {
        let probs = softmax(&values);
        let sum: f32 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(probs.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
    }

    #[test]
    fn softmax_is_shift_invariant(values in prop::collection::vec(-20.0f32..20.0f32, 1..32), shift in -100.0f32..100.0f32) {
        let a = softmax(&values);
        let shifted: Vec<f32> = values.iter().map(|v| v + shift).collect();
        let b = softmax(&shifted);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn silu_and_sigmoid_relation(x in -30.0f32..30.0f32) {
        prop_assert!((silu(x) - x * sigmoid(x)).abs() < 1e-6);
    }

    #[test]
    fn gelu_tanh_close_to_erf_form(x in -6.0f32..6.0f32) {
        prop_assert!((gelu_tanh(x) - gelu_erf(x)).abs() < 6e-3);
    }

    #[test]
    fn woq_error_bounded_by_scale(seed in 0u64..1000, group in prop::sample::select(vec![16usize, 32, 64, 128])) {
        let m = pseudo_random_matrix(4, 128, seed, 3.0);
        let q = weight_only_quantize(&m, group);
        let err = quantization_rmse(&m, &q);
        // RMSE cannot exceed half the largest scale.
        let max_scale = q.groups().iter().map(|g| g.scale).fold(0.0f32, f32::max);
        prop_assert!(err <= max_scale * 0.51 + 1e-5);
    }

    #[test]
    fn kvq_dequantize_shape_preserved(seed in 0u64..1000) {
        let m = pseudo_random_matrix(8, 64, seed, 1.0);
        let q = kv_cache_quantize(&m, 64);
        let d = q.dequantize();
        prop_assert_eq!(d.rows(), 8);
        prop_assert_eq!(d.cols(), 64);
    }

    #[test]
    fn matmul_is_linear_in_first_argument(seed in 0u64..500, alpha in -2.0f32..2.0f32) {
        let a = pseudo_random_matrix(3, 4, seed, 1.0);
        let b = pseudo_random_matrix(4, 5, seed + 1, 1.0);
        let left = a.scale(alpha).matmul(&b);
        let right = a.matmul(&b).scale(alpha);
        prop_assert!(left.max_abs_diff(&right) < 1e-4);
    }

    #[test]
    fn matmul_transpose_identity(seed in 0u64..500) {
        // (A B)^T == B^T A^T
        let a = pseudo_random_matrix(3, 4, seed, 1.0);
        let b = pseudo_random_matrix(4, 2, seed + 7, 1.0);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-5);
    }

    #[test]
    fn blocked_parallel_matmul_is_bit_identical_to_naive(
        seed in 0u64..500,
        m in 1usize..24,
        k in 1usize..160,
        n in 1usize..24,
    ) {
        let mut a = pseudo_random_matrix(m, k, seed, 2.0);
        // Plant exact zeros so the zero-skip path must agree too.
        if m * k >= 4 {
            a.data_mut()[(seed as usize) % (m * k)] = 0.0;
        }
        let b = pseudo_random_matrix(k, n, seed + 1, 2.0);
        let reference = mugi_numerics::tensor::matmul_naive(&a, &b);
        let got = a.matmul(&b);
        for (x, y) in got.data().iter().zip(reference.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn matrix_identity_is_multiplicative_unit() {
    let a = pseudo_random_matrix(7, 7, 99, 1.0);
    assert_eq!(a.matmul(&Matrix::identity(7)), a);
}
