//! Value-reuse primitives: multiplier-free scalar×vector products and outer
//! products built from temporal subscription.
//!
//! A shared accumulator adds the broadcast operand `w` once per cycle, so at
//! cycle `c` it holds `c·w`. Every lane watches the accumulator and latches
//! ("subscribes to") the running value when its own temporal spike fires,
//! yielding `i·w` for its private `i` — no multiplier anywhere (Figure 2 of
//! the paper). The *value reuse* is the fact that lanes with equal `i`
//! subscribe to the same accumulated value in the same cycle.

use crate::temporal::{encode_all, sweep_cycles};
use serde::{Deserialize, Serialize};

/// Cycle accounting for a value-reuse operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseStats {
    /// Total clock cycles spent sweeping counters.
    pub cycles: u64,
    /// Number of additions performed by shared accumulators.
    pub accumulations: u64,
    /// Number of subscription (latch) events.
    pub subscriptions: u64,
    /// Number of multiplications a conventional datapath would have used.
    pub multiplications_avoided: u64,
}

/// Multiplies every element of `values` (small non-negative magnitudes, at
/// most `bits` wide) by the broadcast scalar `weight` using temporal
/// subscription. Returns the products and the cycle accounting.
///
/// The simulation is cycle-faithful: the accumulator really is advanced once
/// per counter step and each lane latches it at its spike cycle, so the result
/// is exact by construction (the property the paper relies on: VLP is *not*
/// an approximation for GEMM).
///
/// # Panics
/// Panics if a value does not fit in `bits`.
pub fn scalar_vector_multiply(values: &[u32], weight: f32, bits: u32) -> (Vec<f32>, ReuseStats) {
    let signals = encode_all(values, bits);
    let sweep = sweep_cycles(bits);
    let mut outputs = vec![0.0f32; values.len()];
    let mut accumulator = 0.0f32;
    let mut subscriptions = 0u64;
    for cycle in 0..sweep as u32 {
        // Lanes whose spike fires this cycle subscribe to the current value.
        for (lane, signal) in signals.iter().enumerate() {
            if signal.is_asserted_at(cycle) {
                outputs[lane] = accumulator;
                subscriptions += 1;
            }
        }
        accumulator += weight;
    }
    let stats = ReuseStats {
        cycles: sweep,
        accumulations: sweep,
        subscriptions,
        multiplications_avoided: values.len() as u64,
    };
    (outputs, stats)
}

/// Multiplies signed small integers by a scalar: magnitudes are temporally
/// coded, signs are applied at the post-processing stage (XOR of signs), as in
/// the Mugi PE (Section 4, SC block).
pub fn signed_scalar_vector_multiply(
    values: &[i32],
    weight: f32,
    magnitude_bits: u32,
) -> (Vec<f32>, ReuseStats) {
    let magnitudes: Vec<u32> = values.iter().map(|v| v.unsigned_abs()).collect();
    let (mut products, stats) = scalar_vector_multiply(&magnitudes, weight.abs(), magnitude_bits);
    let weight_negative = weight < 0.0;
    for (p, &v) in products.iter_mut().zip(values) {
        let negative = (v < 0) ^ weight_negative;
        if negative {
            *p = -*p;
        }
    }
    (products, stats)
}

/// Computes the outer product `column ⊗ row` where `column` holds the
/// temporally-coded magnitudes (one per array row) and `row` holds the
/// broadcast operands (one per array column). Output is row-major
/// `column.len() × row.len()`. This is one K-step of an output-stationary
/// VLP GEMM.
pub fn outer_product(column: &[i32], row: &[f32], magnitude_bits: u32) -> (Vec<f32>, ReuseStats) {
    let mut out = vec![0.0f32; column.len() * row.len()];
    let mut total = ReuseStats::default();
    // Each array column has its own accumulator fed by its broadcast operand;
    // they all share the same counter sweep, so the cycle cost is one sweep,
    // not one sweep per column.
    for (c, &w) in row.iter().enumerate() {
        let (products, stats) = signed_scalar_vector_multiply(column, w, magnitude_bits);
        for (r, p) in products.into_iter().enumerate() {
            out[r * row.len() + c] = p;
        }
        total.accumulations += stats.accumulations;
        total.multiplications_avoided += stats.multiplications_avoided;
    }
    // One temporal spike per coded lane per sweep: the spike is shared by
    // every broadcast column (that sharing is the value-level parallelism),
    // so subscriptions scale with the temporally-coded dimension only.
    total.subscriptions = column.len() as u64;
    total.cycles = sweep_cycles(magnitude_bits);
    (out, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_vector_matches_multiplication() {
        let values = [0u32, 1, 3, 7, 5];
        let (products, stats) = scalar_vector_multiply(&values, 2.5, 3);
        for (&v, &p) in values.iter().zip(&products) {
            assert!((p - v as f32 * 2.5).abs() < 1e-6);
        }
        assert_eq!(stats.cycles, 8);
        assert_eq!(stats.subscriptions, 5);
        assert_eq!(stats.multiplications_avoided, 5);
    }

    #[test]
    fn value_reuse_shares_subscription_cycles() {
        // Two lanes with the same value subscribe at the same cycle and get
        // identical products.
        let (products, _) = scalar_vector_multiply(&[4, 4], 1.25, 3);
        assert_eq!(products[0], products[1]);
    }

    #[test]
    fn signed_multiplication_applies_sign_at_post_processing() {
        let (products, _) = signed_scalar_vector_multiply(&[-3, 3, -7, 0], 2.0, 3);
        assert_eq!(products, vec![-6.0, 6.0, -14.0, 0.0]);
        let (products, _) = signed_scalar_vector_multiply(&[-3, 3], -2.0, 3);
        assert_eq!(products, vec![6.0, -6.0]);
    }

    #[test]
    fn outer_product_matches_reference() {
        let column = [1i32, -2, 3];
        let row = [0.5f32, -1.0, 2.0, 4.0];
        let (out, stats) = outer_product(&column, &row, 3);
        for (r, &cv) in column.iter().enumerate() {
            for (c, &rv) in row.iter().enumerate() {
                assert!((out[r * row.len() + c] - cv as f32 * rv).abs() < 1e-6);
            }
        }
        // One temporal sweep regardless of the number of columns, and one
        // subscription per coded lane (the spike is shared by all columns).
        assert_eq!(stats.cycles, 8);
        assert_eq!(stats.multiplications_avoided, 12);
        assert_eq!(stats.subscriptions, 3);
        assert!(stats.subscriptions < stats.multiplications_avoided);
    }

    #[test]
    fn zero_values_produce_zero_products() {
        let (products, _) = scalar_vector_multiply(&[0, 0, 0], 123.0, 3);
        assert!(products.iter().all(|&p| p == 0.0));
    }
}
