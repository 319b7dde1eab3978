//! Property-based tests for the baseline approximators.

use mugi_approx::lut_direct::DirectLutConfig;
use mugi_approx::pwl::PwlConfig;
use mugi_approx::taylor::TaylorConfig;
use mugi_approx::{Approximator, DirectLut, PartialApprox, PiecewiseLinear, TaylorSeries};
use mugi_numerics::nonlinear::{silu, NonlinearOp};
use proptest::prelude::*;

proptest! {
    #[test]
    fn pwl_error_bounded_inside_range(x in -7.9f32..7.9f32) {
        let pwl = PiecewiseLinear::new(
            NonlinearOp::Silu,
            PwlConfig { segments: 22, segment_range: 8.0 },
        );
        // Chord interpolation error of a smooth function over 22 segments of
        // a 16-wide range is comfortably below 0.1.
        prop_assert!((pwl.eval(x) - silu(x)).abs() < 0.1);
    }

    #[test]
    fn pwl_softmax_is_distribution(logits in prop::collection::vec(-20.0f32..20.0, 1..32)) {
        let pwl = PiecewiseLinear::new(NonlinearOp::Softmax, PwlConfig::default());
        let probs = pwl.softmax(&logits);
        let sum: f32 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-3);
        prop_assert!(probs.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn taylor_exp_monotone_decreasing_error_with_degree(x in -3.0f32..0.0f32) {
        let low = TaylorSeries::new(NonlinearOp::Exp, TaylorConfig { degree: 3, center: -1.5 });
        let high = TaylorSeries::new(NonlinearOp::Exp, TaylorConfig { degree: 11, center: -1.5 });
        let exact = x.exp();
        prop_assert!((high.eval(x) - exact).abs() <= (low.eval(x) - exact).abs() + 1e-5);
    }

    #[test]
    fn taylor_exp_never_negative(x in -20.0f32..5.0f32, degree in 1usize..=9) {
        let t = TaylorSeries::new(NonlinearOp::Exp, TaylorConfig { degree, center: -1.0 });
        prop_assert!(t.eval(x) >= 0.0);
    }

    #[test]
    fn direct_lut_error_bounded_by_bin_width(x in -15.9f32..15.9f32) {
        let cfg = DirectLutConfig { entries: 2048, min_input: -16.0, max_input: 16.0, lanes_per_lut: 8 };
        let lut = DirectLut::new(NonlinearOp::Silu, cfg);
        // Bin width is 32/2048 = 1/64; SiLU has derivative magnitude <= ~1.1,
        // so error per bin is below ~0.02.
        prop_assert!((lut.eval(x) - silu(x)).abs() < 0.03);
    }

    #[test]
    fn partial_approx_sign_behaviour(x in -50.0f32..50.0f32) {
        let pa = PartialApprox::new(NonlinearOp::Silu);
        let y = pa.eval(x);
        // SiLU-like output is >= some small negative bound and follows x for
        // large positive x.
        prop_assert!(y >= -1.0);
        if x > 3.0 {
            prop_assert_eq!(y, x);
        }
        if x < -3.0 {
            prop_assert_eq!(y, 0.0);
        }
    }

}

#[test]
fn eval_slice_matches_eval() {
    let pwl = PiecewiseLinear::new(NonlinearOp::Gelu, PwlConfig::default());
    let xs = vec![-2.0, -0.5, 0.0, 1.0, 3.0];
    let batch = pwl.eval_slice(&xs);
    for (x, y) in xs.iter().zip(&batch) {
        assert_eq!(pwl.eval(*x), *y);
    }
}
