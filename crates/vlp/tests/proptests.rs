//! Property-based tests for the VLP approximation engine.

use mugi_numerics::nonlinear::{softmax, NonlinearOp};
use mugi_vlp::approx::{select_window, VlpApproxConfig, VlpNonlinear, WindowStrategy};
use proptest::prelude::*;

proptest! {
    #[test]
    fn sliding_window_always_inside_lut(exps in prop::collection::vec(-30i32..30, 0..64)) {
        let cfg = VlpApproxConfig::recommended_for(NonlinearOp::Softmax);
        let w = select_window(&cfg, &exps);
        prop_assert!(w.lo >= cfg.lut_min_exp);
        prop_assert!(w.hi <= cfg.lut_max_exp);
        prop_assert_eq!(w.len(), cfg.window_size);
    }

    #[test]
    fn window_anchor_max_covers_largest_in_range_exponent(exps in prop::collection::vec(-6i32..=5, 1..32)) {
        let cfg = VlpApproxConfig::recommended_for(NonlinearOp::Softmax);
        let w = select_window(&cfg, &exps);
        let max = *exps.iter().max().unwrap();
        prop_assert!(w.contains(max));
    }

    #[test]
    fn exp_approximation_relative_error_bound_in_window(x in -7.9f32..-0.01f32) {
        // Inside the recommended window the only error source is the 3-bit
        // mantissa rounding of the *input*: |exp(x~) - exp(x)| / exp(x)
        // = |exp(x~ - x) - 1| <= exp(|x| * 2^-4) - 1.
        let engine = VlpNonlinear::new(
            NonlinearOp::Exp,
            VlpApproxConfig::recommended_for(NonlinearOp::Exp),
        );
        let (approx, _) = engine.apply(&[x]);
        let exact = x.exp();
        let input_rel = 2f32.powi(-4) + 2f32.powi(-8);
        let bound = (x.abs() * input_rel).exp() - 1.0 + 1e-3;
        prop_assert!(
            ((approx[0] - exact) / exact).abs() <= bound,
            "x={x} approx={} exact={exact} bound={bound}", approx[0]
        );
    }

    #[test]
    fn softmax_approximation_is_a_distribution(logits in prop::collection::vec(-30.0f32..30.0, 1..64)) {
        let engine = VlpNonlinear::new(
            NonlinearOp::Softmax,
            VlpApproxConfig::recommended_for(NonlinearOp::Softmax),
        );
        let (probs, _) = engine.softmax(&logits);
        let sum: f32 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-3);
        prop_assert!(probs.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn softmax_approximation_close_to_exact(logits in prop::collection::vec(-8.0f32..8.0, 2..32)) {
        let engine = VlpNonlinear::new(
            NonlinearOp::Softmax,
            VlpApproxConfig::recommended_for(NonlinearOp::Softmax),
        );
        let (probs, _) = engine.softmax(&logits);
        let exact = softmax(&logits);
        for (p, e) in probs.iter().zip(&exact) {
            prop_assert!((p - e).abs() < 0.08, "p={p} e={e}");
        }
    }

    #[test]
    fn silu_approximation_bounded_error(x in -16.0f32..16.0f32) {
        let engine = VlpNonlinear::new(
            NonlinearOp::Silu,
            VlpApproxConfig::recommended_for(NonlinearOp::Silu),
        );
        let (approx, _) = engine.apply(&[x]);
        let exact = mugi_numerics::nonlinear::silu(x);
        // Absolute error stays bounded by a fraction of |x| plus a constant.
        prop_assert!((approx[0] - exact).abs() <= 0.08 * x.abs() + 0.15,
            "x={x} approx={} exact={exact}", approx[0]);
    }

    #[test]
    fn fixed_window_strategy_is_honoured(anchor in -6i32..=-2) {
        let cfg = VlpApproxConfig {
            strategy: WindowStrategy::Fixed(anchor),
            ..VlpApproxConfig::recommended_for(NonlinearOp::Softmax)
        };
        let w = select_window(&cfg, &[0, 1, 2]);
        prop_assert_eq!(w.lo, anchor);
    }
}
