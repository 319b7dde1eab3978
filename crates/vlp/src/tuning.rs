//! Per-layer LUT window tuning (Figure 7 of the paper).
//!
//! Some models (notably Llama 2) have softmax input distributions that drift
//! across layers, so a single sliding-window anchor is not optimal for every
//! layer. The paper tunes the LUT range layer by layer, progressively: layer
//! `l` is tuned while layers `< l` keep their already-tuned windows and layers
//! `> l` keep the default. This module implements that greedy progressive
//! search against an arbitrary layer-quality oracle.

use crate::approx::{VlpApproxConfig, WindowStrategy};

/// One candidate window anchor (the `Fixed` strategy's low exponent).
pub type WindowAnchor = i32;

/// The result of tuning one layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerTuning {
    /// Layer index.
    pub layer: usize,
    /// Chosen window anchor (lowest exponent of the sliding window).
    pub anchor: WindowAnchor,
    /// Quality metric (lower is better, e.g. proxy perplexity) after fixing
    /// this layer's anchor.
    pub quality: f32,
}

/// The full per-layer tuning trace, mirroring the progressive curve the paper
/// plots in Figure 7.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuningTrace {
    /// Per-layer decisions in tuning order.
    pub layers: Vec<LayerTuning>,
}

impl TuningTrace {
    /// The final quality metric after all layers are tuned.
    pub fn final_quality(&self) -> Option<f32> {
        self.layers.last().map(|l| l.quality)
    }

    /// The chosen anchors, indexed by layer.
    pub fn anchors(&self) -> Vec<WindowAnchor> {
        let mut anchors = vec![0; self.layers.len()];
        for l in &self.layers {
            anchors[l.layer] = l.anchor;
        }
        anchors
    }
}

/// Greedy progressive per-layer tuning.
///
/// * `num_layers` — number of layers to tune.
/// * `candidates` — window anchors to consider for each layer.
/// * `default_anchor` — anchor used for not-yet-tuned layers.
/// * `score` — per-layer quality oracle: `score(layer, trials)` returns the
///   model-level quality metric (lower is better) of each trial, in order.
///   Trial `c` is the current per-layer anchors with `layer` set to
///   `candidates[c]`, so the trials of one layer agree on every other layer
///   and a scorer may share their common work or score them concurrently.
///   In the paper the metric is the end-to-end perplexity; in the
///   reproduction it is the proxy perplexity from `mugi-workloads`.
///
/// Each layer keeps its lowest-quality candidate; of equal qualities, the
/// earliest in `candidates` wins.
///
/// Returns the tuning trace; the caller turns anchors into
/// [`VlpApproxConfig`]s with [`config_for_anchor`].
///
/// # Panics
/// Panics if `candidates` is empty, `num_layers` is zero, or `score` does
/// not return one quality per trial.
pub fn tune_layers(
    num_layers: usize,
    candidates: &[WindowAnchor],
    default_anchor: WindowAnchor,
    mut score: impl FnMut(usize, &[Vec<WindowAnchor>]) -> Vec<f32>,
) -> TuningTrace {
    assert!(num_layers > 0, "num_layers must be non-zero");
    assert!(!candidates.is_empty(), "candidates must not be empty");
    let mut anchors = vec![default_anchor; num_layers];
    let mut trace = TuningTrace::default();
    for layer in 0..num_layers {
        let trials: Vec<Vec<WindowAnchor>> = candidates
            .iter()
            .map(|&candidate| {
                let mut trial = anchors.clone();
                trial[layer] = candidate;
                trial
            })
            .collect();
        let qualities = score(layer, &trials);
        assert_eq!(qualities.len(), trials.len(), "score must return one quality per trial");
        let mut best_anchor = anchors[layer];
        let mut best_quality = f32::INFINITY;
        for (&candidate, quality) in candidates.iter().zip(qualities) {
            if quality < best_quality {
                best_quality = quality;
                best_anchor = candidate;
            }
        }
        anchors[layer] = best_anchor;
        trace.layers.push(LayerTuning { layer, anchor: best_anchor, quality: best_quality });
    }
    trace
}

/// Builds a per-layer configuration from a base config and a tuned anchor.
pub fn config_for_anchor(base: &VlpApproxConfig, anchor: WindowAnchor) -> VlpApproxConfig {
    VlpApproxConfig { strategy: WindowStrategy::Fixed(anchor), ..*base }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi_numerics::exec::ExecutionContext;
    use mugi_numerics::nonlinear::NonlinearOp;

    /// Scores every trial with `oracle`, one trial at a time.
    fn each(
        oracle: impl Fn(&[WindowAnchor]) -> f32,
    ) -> impl FnMut(usize, &[Vec<WindowAnchor>]) -> Vec<f32> {
        move |_, trials| trials.iter().map(|trial| oracle(trial)).collect()
    }

    #[test]
    fn tuning_finds_known_optimum() {
        // Synthetic oracle: each layer l has an ideal anchor of -(l as i32),
        // quality is the summed squared distance from the ideal.
        let ideal = |l: usize| -(l as i32);
        let oracle = |anchors: &[WindowAnchor]| -> f32 {
            anchors.iter().enumerate().map(|(l, &a)| ((a - ideal(l)) as f32).powi(2)).sum()
        };
        let candidates: Vec<i32> = (-5..=1).collect();
        let trace = tune_layers(4, &candidates, 0, each(oracle));
        assert_eq!(trace.anchors(), vec![0, -1, -2, -3]);
        assert_eq!(trace.final_quality(), Some(0.0));
        // Quality must be monotonically non-increasing across the progressive
        // tuning curve (each step only improves or keeps the metric).
        for pair in trace.layers.windows(2) {
            assert!(pair[1].quality <= pair[0].quality + 1e-6);
        }
    }

    #[test]
    fn tuning_trace_is_complete() {
        let trace = tune_layers(3, &[-2, -1, 0], -1, each(|_| 1.0));
        assert_eq!(trace.layers.len(), 3);
        assert!(trace.layers.iter().enumerate().all(|(i, l)| l.layer == i));
    }

    /// A rugged oracle: every layer's anchor interacts with every other's,
    /// and the cost of an evaluation varies with its anchors.
    fn rugged(anchors: &[WindowAnchor]) -> f32 {
        let mut acc = 0.0f32;
        for (l, &a) in anchors.iter().enumerate() {
            for _ in 0..(a.unsigned_abs() as usize * 300) {
                acc = (acc * 0.999 + 1e-3).sin().abs();
            }
            acc += ((a * (l as i32 + 3)) as f32 * 0.37).sin() * (1.0 + anchors[0] as f32 * 0.1);
        }
        acc
    }

    #[test]
    fn trace_is_the_same_at_one_and_four_threads() {
        let candidates: Vec<i32> = (-6..=1).collect();
        // The scorer maps each layer's trials on the context's workers.
        let on = |ctx: ExecutionContext| {
            move |_: usize, trials: &[Vec<WindowAnchor>]| ctx.map(trials, |trial| rugged(trial))
        };
        let one = tune_layers(5, &candidates, -2, on(ExecutionContext::single_threaded()));
        let four = tune_layers(5, &candidates, -2, on(ExecutionContext::with_threads(4)));
        assert_eq!(one.anchors(), four.anchors());
        let bits =
            |t: &TuningTrace| t.layers.iter().map(|l| l.quality.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&one), bits(&four));
        // The oracle is not trivial: tuning moved some layer off the default.
        assert!(one.anchors().iter().any(|&a| a != -2), "{:?}", one.anchors());
    }

    #[test]
    fn ties_keep_the_earliest_candidate_at_four_threads() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Anchors -3 and 1 tie for the best quality. Scoring -3 waits until 1
        // has been scored, so the later tied candidate always finishes first.
        let scored_one = AtomicBool::new(false);
        let oracle = |anchors: &[WindowAnchor]| -> f32 {
            match anchors[0] {
                -3 => {
                    while !scored_one.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    0.0
                }
                1 => {
                    scored_one.store(true, Ordering::Release);
                    0.0
                }
                _ => 1.0,
            }
        };
        let candidates = [0, -3, 2, 1, -1];
        let ctx = ExecutionContext::with_threads(4);
        let trace = tune_layers(1, &candidates, 0, |_, trials| ctx.map(trials, |t| oracle(t)));
        assert_eq!(trace.anchors(), vec![-3]);
        assert_eq!(trace.final_quality(), Some(0.0));
    }

    #[test]
    fn scorer_sees_each_layer_once_with_its_trials() {
        let mut seen = Vec::new();
        let trace = tune_layers(3, &[-1, 0, 1], 5, |layer, trials| {
            seen.push((layer, trials.to_vec()));
            trials
                .iter()
                .map(|t| t.iter().map(|&a| (a - layer as i32).abs() as f32).sum())
                .collect()
        });
        assert_eq!(trace.anchors(), vec![0, 1, 1]);
        assert_eq!(seen.len(), 3);
        // Trial c is the anchors chosen so far, the default beyond, and
        // candidate c at the layer being tuned.
        assert_eq!(seen[0], (0, vec![vec![-1, 5, 5], vec![0, 5, 5], vec![1, 5, 5]]));
        assert_eq!(seen[1], (1, vec![vec![0, -1, 5], vec![0, 0, 5], vec![0, 1, 5]]));
        assert_eq!(seen[2], (2, vec![vec![0, 1, -1], vec![0, 1, 0], vec![0, 1, 1]]));
    }

    #[test]
    #[should_panic(expected = "score must return one quality per trial")]
    fn short_score_rejected() {
        tune_layers(1, &[0, 1], 0, |_, _| vec![0.0]);
    }

    #[test]
    fn config_for_anchor_sets_fixed_strategy() {
        let base = VlpApproxConfig::recommended_for(NonlinearOp::Softmax);
        let cfg = config_for_anchor(&base, -3);
        assert_eq!(cfg.strategy, WindowStrategy::Fixed(-3));
        assert_eq!(cfg.mantissa_bits, base.mantissa_bits);
    }

    #[test]
    #[should_panic(expected = "candidates must not be empty")]
    fn empty_candidates_rejected() {
        tune_layers(1, &[], 0, each(|_| 0.0));
    }

    #[test]
    #[should_panic(expected = "num_layers must be non-zero")]
    fn zero_layers_rejected() {
        tune_layers(0, &[0], 0, each(|_| 0.0));
    }
}
