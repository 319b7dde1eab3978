//! Error metrics used throughout the accuracy experiments (Figures 6–8).

/// Maximum absolute error between two slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn max_abs_error(reference: &[f32], approx: &[f32]) -> f32 {
    assert_eq!(reference.len(), approx.len(), "length mismatch");
    reference.iter().zip(approx).map(|(r, a)| (r - a).abs()).fold(0.0, f32::max)
}

/// Mean absolute error between two slices.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn mean_abs_error(reference: &[f32], approx: &[f32]) -> f32 {
    assert_eq!(reference.len(), approx.len(), "length mismatch");
    assert!(!reference.is_empty(), "empty input");
    let sum: f64 = reference.iter().zip(approx).map(|(r, a)| (r - a).abs() as f64).sum();
    (sum / reference.len() as f64) as f32
}

/// Root-mean-square error.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn rmse(reference: &[f32], approx: &[f32]) -> f32 {
    assert_eq!(reference.len(), approx.len(), "length mismatch");
    assert!(!reference.is_empty(), "empty input");
    let sum: f64 = reference.iter().zip(approx).map(|(r, a)| ((r - a) as f64).powi(2)).sum();
    ((sum / reference.len() as f64).sqrt()) as f32
}

/// Mean relative error magnitude across a slice (ignoring zero references).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mean_relative_error(reference: &[f32], approx: &[f32]) -> f32 {
    assert_eq!(reference.len(), approx.len(), "length mismatch");
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for (&r, &a) in reference.iter().zip(approx) {
        if r != 0.0 {
            sum += ((a - r) / r).abs() as f64;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        (sum / count as f64) as f32
    }
}

/// Perplexity from an average cross-entropy (nats per token).
pub fn perplexity_from_nats(mean_cross_entropy_nats: f32) -> f32 {
    mean_cross_entropy_nats.exp()
}

/// Aggregate error statistics for a reference/approximation pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorSummary {
    /// Maximum absolute error.
    pub max_abs: f32,
    /// Mean absolute error.
    pub mean_abs: f32,
    /// Root-mean-square error.
    pub rmse: f32,
    /// Mean relative error magnitude (zero references skipped).
    pub mean_rel: f32,
}

impl ErrorSummary {
    /// Computes all summary statistics at once.
    ///
    /// # Panics
    /// Panics if the slices have different lengths or are empty.
    pub fn compare(reference: &[f32], approx: &[f32]) -> Self {
        ErrorSummary {
            max_abs: max_abs_error(reference, approx),
            mean_abs: mean_abs_error(reference, approx),
            rmse: rmse(reference, approx),
            mean_rel: mean_relative_error(reference, approx),
        }
    }
}

impl std::fmt::Display for ErrorSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "max_abs={:.4e} mean_abs={:.4e} rmse={:.4e} mean_rel={:.3}%",
            self.max_abs,
            self.mean_abs,
            self.rmse,
            self.mean_rel * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_error_for_identical_slices() {
        let x = vec![1.0, -2.0, 3.5];
        assert_eq!(max_abs_error(&x, &x), 0.0);
        assert_eq!(mean_abs_error(&x, &x), 0.0);
        assert_eq!(rmse(&x, &x), 0.0);
        assert_eq!(mean_relative_error(&x, &x), 0.0);
    }

    #[test]
    fn known_errors() {
        let r = vec![1.0, 2.0, 4.0];
        let a = vec![1.5, 2.0, 3.0];
        assert!((max_abs_error(&r, &a) - 1.0).abs() < 1e-6);
        assert!((mean_abs_error(&r, &a) - 0.5).abs() < 1e-6);
        let expected_rmse = ((0.25 + 0.0 + 1.0f32) / 3.0).sqrt();
        assert!((rmse(&r, &a) - expected_rmse).abs() < 1e-6);
    }

    #[test]
    fn perplexity_identity() {
        assert!((perplexity_from_nats(0.0) - 1.0).abs() < 1e-6);
        assert!((perplexity_from_nats(std::f32::consts::LN_2) - 2.0).abs() < 1e-5);
    }

    #[test]
    fn summary_display_and_fields() {
        let r = vec![1.0, 2.0];
        let a = vec![1.1, 1.9];
        let s = ErrorSummary::compare(&r, &a);
        assert!(s.max_abs > 0.0 && s.rmse > 0.0 && s.mean_rel > 0.0);
        let text = s.to_string();
        assert!(text.contains("rmse"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        max_abs_error(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn empty_input_rejected() {
        mean_abs_error(&[], &[]);
    }
}
