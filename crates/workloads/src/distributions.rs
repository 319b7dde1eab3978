//! Synthetic activation-distribution generators (substitute for the paper's
//! GPU profiling, Figure 4).
//!
//! The paper profiles the inputs of softmax, SiLU and GELU across models,
//! layers and sequence lengths, and observes that:
//!
//! * softmax inputs (after max subtraction) are non-positive and their
//!   *exponents* cluster in a narrow band (roughly `[-3, 4]`), even when the
//!   values themselves are spread out; later layers drift toward more
//!   negative values (around −10 for deep Llama 2 layers);
//! * SiLU / GELU inputs cluster tightly around zero across all models;
//! * Llama 2 is the outlier whose softmax distribution varies strongly across
//!   layers, which is what motivates per-layer tuning (Figure 7).
//!
//! We encode those observations as parameterised generators. Every accuracy
//! experiment downstream consumes only these distributions, so matching their
//! shape preserves the behaviour the paper measures.

use crate::models::{ModelFamily, ModelId};
use mugi_numerics::bf16::Bf16;
use mugi_numerics::nonlinear::NonlinearOp;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Parameters of the synthetic input distribution for one (model, op, layer).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistributionProfile {
    /// The nonlinear op whose inputs are modelled.
    pub op: NonlinearOp,
    /// Mean of the underlying Gaussian component.
    pub mean: f32,
    /// Standard deviation of the Gaussian component.
    pub std_dev: f32,
    /// Fraction of heavy-tail samples drawn from a wider Gaussian (models the
    /// outliers visible in the value histograms of Figure 4).
    pub tail_fraction: f32,
    /// Scale multiplier of the heavy tail.
    pub tail_scale: f32,
    /// Whether samples are clamped to be non-positive (softmax inputs after
    /// max subtraction).
    pub non_positive: bool,
}

impl DistributionProfile {
    /// Profile of the nonlinear inputs of `model` at relative layer depth
    /// `depth` in `[0, 1]` (0 = first layer, 1 = last layer).
    pub fn for_model(model: ModelId, op: NonlinearOp, depth: f32) -> Self {
        let depth = depth.clamp(0.0, 1.0);
        let family = model.config().family;
        match op {
            NonlinearOp::Softmax | NonlinearOp::Exp => {
                // Softmax inputs: non-positive, concentrated near zero in early
                // layers, drifting negative with depth. Llama drifts the most
                // (down to about -10 in deep layers); vision models much less.
                let drift = match family {
                    ModelFamily::Llama2 => 10.0,
                    ModelFamily::Whisper => 5.0,
                    ModelFamily::SwinV2 => 4.0,
                    ModelFamily::ViViT => 6.0,
                };
                DistributionProfile {
                    op,
                    mean: -1.5 - drift * depth,
                    std_dev: 2.0 + 1.5 * depth,
                    tail_fraction: 0.05,
                    tail_scale: 3.0,
                    non_positive: true,
                }
            }
            NonlinearOp::Silu | NonlinearOp::Gelu => {
                // FFN activation inputs: centred at (or slightly below) zero,
                // standard deviation of a few units, consistent across layers.
                let spread = match family {
                    ModelFamily::Llama2 => 1.5,
                    ModelFamily::Whisper => 2.5,
                    ModelFamily::SwinV2 => 2.0,
                    ModelFamily::ViViT => 2.0,
                };
                DistributionProfile {
                    op,
                    mean: -0.2,
                    std_dev: spread + 0.3 * depth,
                    tail_fraction: 0.02,
                    tail_scale: 4.0,
                    non_positive: false,
                }
            }
        }
    }

    /// Draws `count` samples from the profile: [`draws`] shaped by
    /// [`DistributionProfile::shape`].
    pub fn sample(&self, count: usize, seed: u64) -> Vec<f32> {
        draws(count, seed).map(|d| self.shape(d)).collect()
    }

    /// Shapes one draw `(u, g)` of [`draws`] into a sample of the profile:
    /// `u` picks the heavy tail when it falls below `tail_fraction`, and the
    /// standard normal `g` is scaled and shifted.
    pub fn shape(&self, (u, g): (f32, f32)) -> f32 {
        let scale =
            if u < self.tail_fraction { self.std_dev * self.tail_scale } else { self.std_dev };
        let x = self.mean + g * scale;
        if self.non_positive {
            // Softmax inputs are x_i - max(x), hence <= 0.
            -(x - self.mean).abs() + self.mean.min(0.0)
        } else {
            x
        }
    }
}

/// The profile-independent random stream behind every sample: `count`
/// pairs `(u, g)` of a tail-selecting uniform `u` in `[0, 1)` and a standard
/// normal `g`, drawn in that order from a ChaCha8 stream seeded with `seed`.
/// Profiles sharing a seed see the same draws, so one stream can feed
/// several of them.
pub fn draws(count: usize, seed: u64) -> impl Iterator<Item = (f32, f32)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count).map(move |_| {
        let u = rng.gen::<f32>();
        (u, gaussian(&mut rng))
    })
}

/// Standard normal sample via Box–Muller.
fn gaussian<R: Rng>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Lowest unbiased BF16 exponent: normals start there, and subnormals
/// report it too. NaN, infinities and values that quantize to BF16 zero
/// report exponent 0.
const MIN_EXPONENT: i32 = -126;

/// Bins of the exponent histogram, one per unbiased BF16 exponent from
/// [`MIN_EXPONENT`] to 127.
const EXPONENT_BINS: usize = 254;

/// A histogram over BF16 exponents, the panel behind the paper's Figure 4
/// exponent-concentration observation.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileHistogram {
    /// Exponent histogram: (exponent, fraction of samples), ascending.
    pub exponent_density: Vec<(i32, f32)>,
    /// Fraction of exactly-zero samples (which have no exponent).
    pub zero_fraction: f32,
}

impl ProfileHistogram {
    /// The exponent window `[lo, lo + size)` with the highest mass, as
    /// `(lo, mass)`; ties keep the lowest `lo`. Candidate windows start at
    /// every exponent from the lowest to the highest present. `None` when
    /// there are no non-zero samples or `size` is zero.
    pub fn best_exponent_window(&self, size: usize) -> Option<(i32, f32)> {
        if size == 0 {
            return None;
        }
        let min_exp = self.exponent_density.first().map(|&(e, _)| e)?;
        let max_exp = self.exponent_density.last().map(|&(e, _)| e)?;
        let mut best: Option<(i32, f32)> = None;
        for lo in min_exp..=max_exp {
            let hi = lo + size as i32 - 1;
            let mass: f32 = self
                .exponent_density
                .iter()
                .filter(|&&(e, _)| e >= lo && e <= hi)
                .map(|&(_, f)| f)
                .sum();
            if best.is_none_or(|(_, m)| mass > m) {
                best = Some((lo, mass));
            }
        }
        best
    }
}

/// Builds a [`ProfileHistogram`] one value at a time, so a sample stream is
/// binned as it is drawn, without buffering it.
#[derive(Clone, Debug)]
pub struct HistogramAccumulator {
    /// Count per unbiased exponent, offset by [`MIN_EXPONENT`].
    exponents: [usize; EXPONENT_BINS],
    /// Exactly-zero values.
    zeros: usize,
    /// All values pushed.
    count: usize,
}

impl Default for HistogramAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramAccumulator {
    /// An accumulator that has seen no values.
    pub fn new() -> Self {
        HistogramAccumulator { exponents: [0; EXPONENT_BINS], zeros: 0, count: 0 }
    }

    /// Counts `x`: exact zeros (either sign) apart, by the exponent of `x`
    /// quantized to BF16. BF16 subnormals count as −126; NaN,
    /// infinities and non-zero values that round to BF16 zero count as 0.
    pub fn push(&mut self, x: f32) {
        self.count += 1;
        if x == 0.0 {
            self.zeros += 1;
            return;
        }
        let b = Bf16::from_f32(x);
        let exponent = if b.is_finite() && !b.is_zero() { b.unbiased_exponent() } else { 0 };
        self.exponents[(exponent - MIN_EXPONENT) as usize] += 1;
    }

    /// The histogram of every value pushed so far.
    ///
    /// # Panics
    /// Panics if no value was pushed.
    pub fn finish(&self) -> ProfileHistogram {
        assert!(self.count > 0, "samples must not be empty");
        let n = self.count as f32;
        let exponent_density = (MIN_EXPONENT..)
            .zip(self.exponents)
            .filter(|&(_, c)| c > 0)
            .map(|(e, c)| (e, c as f32 / n))
            .collect();
        ProfileHistogram { exponent_density, zero_fraction: self.zeros as f32 / n }
    }
}

/// Profiles several ops of one (model, layer-depth) from a single draw
/// stream: each op's profile shapes the same [`draws`] and bins them as they
/// are drawn. Returns one Figure-4-style histogram per op, in `ops` order,
/// each equal to [`profile`] of that op with the same `samples` and `seed`.
pub fn profiles(
    model: ModelId,
    ops: &[NonlinearOp],
    depth: f32,
    samples: usize,
    seed: u64,
) -> Vec<ProfileHistogram> {
    let dists: Vec<DistributionProfile> =
        ops.iter().map(|&op| DistributionProfile::for_model(model, op, depth)).collect();
    let mut accs = vec![HistogramAccumulator::new(); ops.len()];
    for d in draws(samples, seed) {
        for (dist, acc) in dists.iter().zip(&mut accs) {
            acc.push(dist.shape(d));
        }
    }
    accs.iter().map(HistogramAccumulator::finish).collect()
}

/// Profiles one (model, op, layer-depth) combination: draws samples and
/// builds the Figure-4-style histogram.
pub fn profile(
    model: ModelId,
    op: NonlinearOp,
    depth: f32,
    samples: usize,
    seed: u64,
) -> ProfileHistogram {
    profiles(model, &[op], depth, samples, seed).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi_numerics::fields::FloatFields;

    #[test]
    fn softmax_samples_are_non_positive() {
        let profile = DistributionProfile::for_model(ModelId::Llama2_7b, NonlinearOp::Softmax, 0.0);
        let samples = profile.sample(2000, 1);
        assert!(samples.iter().all(|&x| x <= 0.0));
    }

    #[test]
    fn activation_samples_cluster_near_zero() {
        let profile = DistributionProfile::for_model(ModelId::WhisperLarge, NonlinearOp::Gelu, 0.5);
        let samples = profile.sample(4000, 2);
        let mean: f32 = samples.iter().sum::<f32>() / samples.len() as f32;
        assert!(mean.abs() < 1.0, "mean {mean}");
        let within_8: usize = samples.iter().filter(|x| x.abs() < 8.0).count();
        assert!(within_8 as f32 / samples.len() as f32 > 0.9);
    }

    #[test]
    fn llama_drifts_more_than_vision_models_with_depth() {
        let llama_late =
            DistributionProfile::for_model(ModelId::Llama2_7b, NonlinearOp::Softmax, 1.0);
        let swin_late =
            DistributionProfile::for_model(ModelId::Swinv2Large, NonlinearOp::Softmax, 1.0);
        assert!(llama_late.mean < swin_late.mean);
        let llama_early =
            DistributionProfile::for_model(ModelId::Llama2_7b, NonlinearOp::Softmax, 0.0);
        assert!(llama_late.mean < llama_early.mean);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let p = DistributionProfile::for_model(ModelId::VivitBase, NonlinearOp::Gelu, 0.3);
        assert_eq!(p.sample(100, 42), p.sample(100, 42));
        assert_ne!(p.sample(100, 42), p.sample(100, 43));
    }

    #[test]
    fn histogram_densities_sum_to_one() {
        let h = profile(ModelId::Llama2_7b, NonlinearOp::Softmax, 0.0, 5000, 7);
        let exp_sum: f32 = h.exponent_density.iter().map(|&(_, f)| f).sum();
        assert!((exp_sum + h.zero_fraction - 1.0).abs() < 1e-3);
    }

    #[test]
    fn exponents_cluster_in_a_narrow_window() {
        // The observation that motivates the value-centric LUT: a window of 8
        // exponents covers the overwhelming majority of softmax inputs.
        let h = profile(ModelId::Llama2_7b, NonlinearOp::Softmax, 0.0, 20000, 11);
        let (lo, mass) = h.best_exponent_window(8).unwrap();
        assert!(mass > 0.9, "window starting at {lo} covers only {mass}");
        // SiLU likewise.
        let h = profile(ModelId::Llama2_7b, NonlinearOp::Silu, 0.5, 20000, 12);
        let (_, mass) = h.best_exponent_window(8).unwrap();
        assert!(mass > 0.85);
    }

    #[test]
    fn deeper_layers_shift_the_best_window() {
        let early = profile(ModelId::Llama2_7b, NonlinearOp::Softmax, 0.0, 20000, 21);
        let late = profile(ModelId::Llama2_7b, NonlinearOp::Softmax, 1.0, 20000, 22);
        let (lo_early, _) = early.best_exponent_window(8).unwrap();
        let (lo_late, _) = late.best_exponent_window(8).unwrap();
        // Later layers have larger-magnitude (more negative) inputs, hence
        // larger exponents of |x|; the window moves up or stays, it must not
        // move down.
        assert!(lo_late >= lo_early, "early {lo_early} late {lo_late}");
    }

    /// The exponent histogram built the direct way, with an ordered map.
    fn map_exponent_density(samples: &[f32]) -> Vec<(i32, f32)> {
        let mut counts = std::collections::BTreeMap::new();
        for &s in samples.iter().filter(|&&s| s != 0.0) {
            *counts.entry(FloatFields::split_f32(s, 7).exponent).or_insert(0usize) += 1;
        }
        let n = samples.len() as f32;
        counts.into_iter().map(|(e, c)| (e, c as f32 / n)).collect()
    }

    #[test]
    fn exponent_histogram_matches_an_ordered_map_on_edge_inputs() {
        let edges = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            // f32 subnormals that quantize to BF16 zero, but are not zero.
            f32::from_bits(1),
            -f32::from_bits(0x7FFF),
            // A subnormal BF16 keeps the lowest exponent.
            f32::from_bits(0x0040_0000),
            // Values that round up to BF16 infinity.
            f32::MAX,
            -f32::MAX,
            // Smallest and largest normal exponents.
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            2f32.powi(127),
            0.0,
            -0.0,
            1.0,
            -0.75,
        ];
        let expected = map_exponent_density(&edges);
        let exponents: Vec<i32> = expected.iter().map(|&(e, _)| e).collect();
        assert_eq!(exponents, [-126, -1, 0, 127]);
        let mut acc = HistogramAccumulator::new();
        edges.iter().for_each(|&x| acc.push(x));
        let h = acc.finish();
        assert_eq!(h.exponent_density, expected);
        assert_eq!(h.zero_fraction, 2.0 / edges.len() as f32);

        let mut mixed = DistributionProfile::for_model(ModelId::Llama2_7b, NonlinearOp::Silu, 0.5)
            .sample(3000, 31);
        mixed.extend_from_slice(&edges);
        let mut acc = HistogramAccumulator::new();
        mixed.iter().for_each(|&x| acc.push(x));
        assert_eq!(acc.finish().exponent_density, map_exponent_density(&mixed));
    }

    #[test]
    #[should_panic(expected = "samples must not be empty")]
    fn empty_samples_rejected() {
        HistogramAccumulator::new().finish();
    }

    #[test]
    fn sample_is_draws_shaped_by_the_profile() {
        for model in ModelId::all() {
            for op in [NonlinearOp::Exp, NonlinearOp::Softmax, NonlinearOp::Silu, NonlinearOp::Gelu]
            {
                let p = DistributionProfile::for_model(model, op, 0.7);
                let shaped: Vec<f32> = draws(500, 5).map(|d| p.shape(d)).collect();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&p.sample(500, 5)), bits(&shaped), "{model:?} {op:?}");
            }
        }
    }

    fn density_bits(h: &ProfileHistogram) -> (Vec<(i32, u32)>, u32) {
        let density = h.exponent_density.iter().map(|&(e, f)| (e, f.to_bits())).collect();
        (density, h.zero_fraction.to_bits())
    }

    #[test]
    fn shared_profiles_equal_separate_profile_calls() {
        for model in [ModelId::Llama2_7b, ModelId::WhisperTiny, ModelId::Swinv2Large] {
            for (a, b) in [
                (NonlinearOp::Softmax, NonlinearOp::Silu),
                (NonlinearOp::Gelu, NonlinearOp::Softmax),
                (NonlinearOp::Exp, NonlinearOp::Exp),
            ] {
                let shared = profiles(model, &[a, b], 0.5, 3000, 17);
                assert_eq!(shared.len(), 2);
                for (h, op) in shared.iter().zip([a, b]) {
                    let alone = profile(model, op, 0.5, 3000, 17);
                    assert_eq!(density_bits(h), density_bits(&alone), "{model:?} {op:?}");
                }
            }
        }
    }

    #[test]
    fn llama_silu_and_gelu_profiles_differ_only_in_op() {
        // Figure 8 feeds the Llama SiLU inputs to GELU as well; that is the
        // same data only while the two profiles agree in every other field.
        for depth in [0.0, 0.3, 0.5, 1.0] {
            let silu = DistributionProfile::for_model(ModelId::Llama2_7b, NonlinearOp::Silu, depth);
            let gelu = DistributionProfile::for_model(ModelId::Llama2_7b, NonlinearOp::Gelu, depth);
            assert_eq!(
                DistributionProfile { op: NonlinearOp::Gelu, ..silu },
                gelu,
                "depth {depth}"
            );
        }
    }
}
