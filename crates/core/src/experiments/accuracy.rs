//! Accuracy-side experiments: Figures 4, 6, 7 and 8.

use crate::experiments::Preset;
use crate::report::{fmt_num, TextTable};
use mugi_approx::lut_direct::DirectLutConfig;
use mugi_approx::pwl::PwlConfig;
use mugi_approx::taylor::TaylorConfig;
use mugi_approx::{Approximator, DirectLut, PartialApprox, PiecewiseLinear, TaylorSeries};
use mugi_numerics::error::{perplexity_from_nats, ErrorSummary};
use mugi_numerics::exec::ExecutionContext;
use mugi_numerics::nonlinear::NonlinearOp;
use mugi_numerics::tensor::Matrix;
use mugi_vlp::approx::{VlpApproxConfig, VlpNonlinear, WindowStrategy};
use mugi_vlp::tuning::{config_for_anchor, tune_layers, TuningTrace, WindowAnchor};
use mugi_workloads::distributions::{profiles, DistributionProfile};
use mugi_workloads::models::{ModelFamily, ModelId};
use mugi_workloads::reference::{
    HookedBackend, NonlinearBackend, ProxyTargets, ReferenceConfig, ReferenceModel,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

// ---------------------------------------------------------------------------
// Figure 4: input exponent distributions
// ---------------------------------------------------------------------------

/// One profiled (model, op, layer-depth) combination.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfilingRow {
    /// Which model.
    pub model: ModelId,
    /// Which nonlinear op.
    pub op: NonlinearOp,
    /// Relative layer depth in `[0, 1]`.
    pub depth: f32,
    /// Best 8-exponent window (lowest exponent) and the probability mass it
    /// covers.
    pub best_window_lo: i32,
    /// Mass covered by that window.
    pub window_mass: f32,
    /// Fraction of exactly-zero inputs.
    pub zero_fraction: f32,
}

/// Figure 4: profiles every studied model's nonlinear inputs and reports how
/// concentrated their exponents are (the observation that motivates the
/// value-centric LUT window). Both ops of one (model, depth) share a seed,
/// so each point draws its stream once and bins it for both ops as it is
/// drawn. The points are independent, so they run on every core. Rows come
/// in (model, op, depth) order.
pub fn fig04_profiling(preset: Preset) -> Vec<ProfilingRow> {
    const DEPTHS: [f32; 3] = [0.0, 0.5, 1.0];
    let samples = preset.profile_samples();
    let models: Vec<ModelId> = match preset {
        Preset::Quick => vec![ModelId::Llama2_7b, ModelId::WhisperTiny],
        Preset::Full => ModelId::all().to_vec(),
    };
    let points: Vec<(ModelId, f32, u64)> = models
        .iter()
        .enumerate()
        .flat_map(|(mi, &model)| {
            DEPTHS
                .into_iter()
                .enumerate()
                .map(move |(di, depth)| (model, depth, (mi * 10 + di) as u64 + 1))
        })
        .collect();
    let hists = ExecutionContext::host_parallel().map(&points, |&(model, depth, seed)| {
        profiles(model, &fig04_ops(model), depth, samples, seed)
    });
    let mut rows = Vec::with_capacity(2 * points.len());
    for (&model, model_hists) in models.iter().zip(hists.chunks(DEPTHS.len())) {
        for (oi, op) in fig04_ops(model).into_iter().enumerate() {
            for (depth, point_hists) in DEPTHS.into_iter().zip(model_hists) {
                let hist = &point_hists[oi];
                let (lo, mass) = hist.best_exponent_window(8).unwrap_or((0, 0.0));
                rows.push(ProfilingRow {
                    model,
                    op,
                    depth,
                    best_window_lo: lo,
                    window_mass: mass,
                    zero_fraction: hist.zero_fraction,
                });
            }
        }
    }
    rows
}

/// The two nonlinear ops Figure 4 profiles for `model`: softmax, then its
/// FFN activation.
fn fig04_ops(model: ModelId) -> [NonlinearOp; 2] {
    match model.config().family {
        ModelFamily::Llama2 => [NonlinearOp::Softmax, NonlinearOp::Silu],
        _ => [NonlinearOp::Softmax, NonlinearOp::Gelu],
    }
}

/// Renders Figure 4 rows as a text table.
pub fn fig04_table(rows: &[ProfilingRow]) -> TextTable {
    let mut t = TextTable::new(
        "Figure 4 — nonlinear input exponent concentration (8-exponent window coverage)",
        &["model", "op", "depth", "window lo", "mass", "zero frac"],
    );
    for r in rows {
        t.add_row(vec![
            r.model.name().to_string(),
            r.op.label().to_string(),
            format!("{:.1}", r.depth),
            r.best_window_lo.to_string(),
            format!("{:.3}", r.window_mass),
            format!("{:.3}", r.zero_fraction),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 6: accuracy sweep (proxy perplexity) per approximation method
// ---------------------------------------------------------------------------

/// Which approximation method a sweep point uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Exact software reference.
    Exact,
    /// VLP approximation (this paper).
    Vlp,
    /// Piecewise-linear baseline.
    Pwl,
    /// Taylor-series baseline.
    Taylor,
}

impl Method {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Method::Exact => "Exact",
            Method::Vlp => "VLP",
            Method::Pwl => "PWL",
            Method::Taylor => "Taylor",
        }
    }
}

/// One point of the Figure 6 sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AccuracyRow {
    /// Which model family the reference model mimics.
    pub model: ModelId,
    /// Approximation method.
    pub method: Method,
    /// Method-specific configuration description (window anchor, segment
    /// range, Taylor centre, ...).
    pub config: String,
    /// Proxy perplexity (lower is better; Exact is the floor).
    pub proxy_perplexity: f32,
}

fn vlp_backend(softmax_cfg: VlpApproxConfig, act_cfg: VlpApproxConfig) -> impl NonlinearBackend {
    let sm = VlpNonlinear::new(NonlinearOp::Softmax, softmax_cfg);
    let silu = VlpNonlinear::new(NonlinearOp::Silu, act_cfg);
    let gelu = VlpNonlinear::new(NonlinearOp::Gelu, act_cfg);
    HookedBackend::new(
        "VLP",
        move |op, xs: &[f32]| match op {
            NonlinearOp::Silu => silu.apply(xs).0,
            NonlinearOp::Gelu => gelu.apply(xs).0,
            _ => xs.iter().map(|&x| op.eval(x)).collect(),
        },
        move |data, cols| sm.softmax_rows(data, cols).0,
    )
}

fn approximator_backend(
    name: &str,
    softmax: Box<dyn Approximator + Send + Sync>,
    silu: Box<dyn Approximator + Send + Sync>,
    gelu: Box<dyn Approximator + Send + Sync>,
) -> impl NonlinearBackend {
    HookedBackend::new(
        name.to_string(),
        move |op, xs: &[f32]| match op {
            NonlinearOp::Silu => silu.eval_slice(xs),
            NonlinearOp::Gelu => gelu.eval_slice(xs),
            _ => xs.iter().map(|&x| op.eval(x)).collect(),
        },
        move |data, cols| {
            let mut out = Vec::with_capacity(data.len());
            for row in data.chunks(cols) {
                out.extend(softmax.softmax(row));
            }
            out
        },
    )
}

/// One configuration of the Figure 6 sweep.
#[derive(Clone, Copy)]
enum SweepPoint {
    Exact,
    /// VLP with the adaptive AnchorMax window.
    VlpAdaptive,
    /// VLP with a fixed sliding-window anchor.
    VlpFixed(i32),
    /// PWL with a segment range.
    Pwl(f32),
    /// Taylor series with a degree and (softmax) centre.
    Taylor(usize, f32),
}

/// Figure 6: sweeps approximation configurations per method and reports the
/// proxy perplexity of each on a reference model mimicking `model`'s family.
/// The exact point is read off the targets, whose forwards already ran
/// ([`ProxyTargets::exact_cross_entropy`]). The other points are
/// independent, so they are scored on every core.
pub fn fig06_accuracy_sweep(preset: Preset, model: ModelId) -> Vec<AccuracyRow> {
    let reference = ReferenceModel::new(ReferenceConfig::scaled_from(model, 17));
    let targets = reference.proxy_targets(preset.eval_sequences());

    // The exact floor, then VLP's adaptive default and its fixed anchors,
    // then PWL's segment ranges, then Taylor's degrees / centres.
    let (anchors, ranges, degrees) = match preset {
        Preset::Quick => (vec![-4, -2], vec![8.0, 20.0], vec![(9, -1.0)]),
        Preset::Full => (
            vec![-6, -5, -4, -3, -2, -1, 0],
            vec![4.0, 8.0, 12.0, 16.0, 20.0, 24.0],
            vec![(5, -1.0), (7, -1.0), (9, -1.0), (9, -3.0), (9, -5.0)],
        ),
    };
    let points: Vec<SweepPoint> = [SweepPoint::Exact, SweepPoint::VlpAdaptive]
        .into_iter()
        .chain(anchors.into_iter().map(SweepPoint::VlpFixed))
        .chain(ranges.into_iter().map(SweepPoint::Pwl))
        .chain(degrees.into_iter().map(|(degree, center)| SweepPoint::Taylor(degree, center)))
        .collect();

    let base_sm = VlpApproxConfig::recommended_for(NonlinearOp::Softmax);
    let base_act = VlpApproxConfig::recommended_for(NonlinearOp::Silu);
    ExecutionContext::host_parallel().map(&points, |&point| {
        let (method, config, proxy_perplexity) = match point {
            SweepPoint::Exact => (
                Method::Exact,
                "-".to_string(),
                perplexity_from_nats(targets.exact_cross_entropy()),
            ),
            SweepPoint::VlpAdaptive => (
                Method::Vlp,
                "adaptive (AnchorMax)".to_string(),
                reference.proxy_perplexity(&vlp_backend(base_sm, base_act), &targets),
            ),
            SweepPoint::VlpFixed(anchor) => {
                let sm = VlpApproxConfig { strategy: WindowStrategy::Fixed(anchor), ..base_sm };
                let act = VlpApproxConfig { strategy: WindowStrategy::Fixed(anchor), ..base_act };
                (
                    Method::Vlp,
                    format!("window lo = {anchor}"),
                    reference.proxy_perplexity(&vlp_backend(sm, act), &targets),
                )
            }
            SweepPoint::Pwl(segment_range) => {
                let pwl = |op| {
                    Box::new(PiecewiseLinear::new(op, PwlConfig { segments: 22, segment_range }))
                };
                let backend = approximator_backend(
                    "PWL",
                    pwl(NonlinearOp::Softmax),
                    pwl(NonlinearOp::Silu),
                    pwl(NonlinearOp::Gelu),
                );
                (
                    Method::Pwl,
                    format!("22 segments, range {segment_range}"),
                    reference.proxy_perplexity(&backend, &targets),
                )
            }
            SweepPoint::Taylor(degree, center) => {
                let backend = approximator_backend(
                    "Taylor",
                    Box::new(TaylorSeries::new(NonlinearOp::Exp, TaylorConfig { degree, center })),
                    Box::new(TaylorSeries::new(
                        NonlinearOp::Silu,
                        TaylorConfig { degree, center: 0.0 },
                    )),
                    Box::new(TaylorSeries::new(
                        NonlinearOp::Gelu,
                        TaylorConfig { degree, center: 0.0 },
                    )),
                );
                (
                    Method::Taylor,
                    format!("degree {degree}, center {center}"),
                    reference.proxy_perplexity(&backend, &targets),
                )
            }
        };
        AccuracyRow { model, method, config, proxy_perplexity }
    })
}

/// Renders Figure 6 rows as a text table.
pub fn fig06_table(rows: &[AccuracyRow]) -> TextTable {
    let mut t = TextTable::new(
        "Figure 6 — proxy perplexity per approximation method and configuration",
        &["model", "method", "config", "proxy PPL"],
    );
    for r in rows {
        t.add_row(vec![
            r.model.name().to_string(),
            r.method.label().to_string(),
            r.config.clone(),
            format!("{:.4}", r.proxy_perplexity),
        ]);
    }
    t
}

/// Best (lowest) proxy perplexity of a method within a Figure 6 sweep.
pub fn best_perplexity(rows: &[AccuracyRow], method: Method) -> Option<f32> {
    rows.iter()
        .filter(|r| r.method == method)
        .map(|r| r.proxy_perplexity)
        .min_by(|a, b| a.partial_cmp(b).unwrap())
}

// ---------------------------------------------------------------------------
// Figure 7: per-layer tuning
// ---------------------------------------------------------------------------

/// Figure 7: progressive per-layer tuning of the softmax LUT window on a
/// Llama-like reference model. Returns the tuning trace (quality = proxy
/// perplexity after fixing each layer). Each layer's candidates share the
/// layers before it, so every sequence's forward runs that shared prefix
/// once; the candidates then run the rest on every core.
pub fn fig07_per_layer_tuning(preset: Preset, model: ModelId) -> TuningTrace {
    let reference = ReferenceModel::new(ReferenceConfig::scaled_from(model, 29));
    let targets = reference.proxy_targets(preset.eval_sequences());
    let candidates: Vec<WindowAnchor> = match preset {
        Preset::Quick => vec![-4, -2],
        Preset::Full => vec![-6, -4, -3, -2, -1, 0],
    };
    let backends = fig07_backends(&candidates);
    let ctx = ExecutionContext::host_parallel();
    let mut scorer = PrefixScorer::new(&ctx, &reference, &targets, &backends, layer_anchors);
    let layers = reference.config().layers;
    tune_layers(layers, &candidates, FIG07_DEFAULT_ANCHOR, |_, trials| scorer.score(trials))
}

/// The anchor every layer starts from, before it is tuned.
const FIG07_DEFAULT_ANCHOR: WindowAnchor = -2;

/// One VLP backend per anchor that Figure 7 can run (every candidate and
/// the default): softmax on that anchor's fixed window, activations on the
/// recommended configuration.
fn fig07_backends(
    candidates: &[WindowAnchor],
) -> Vec<(WindowAnchor, impl NonlinearBackend + Sync)> {
    let base_sm = VlpApproxConfig::recommended_for(NonlinearOp::Softmax);
    let base_act = VlpApproxConfig::recommended_for(NonlinearOp::Silu);
    let mut anchors = candidates.to_vec();
    anchors.push(FIG07_DEFAULT_ANCHOR);
    anchors.sort_unstable();
    anchors.dedup();
    anchors
        .into_iter()
        .map(|a| (a, vlp_backend(config_for_anchor(&base_sm, a), base_act)))
        .collect()
}

/// Which anchor each layer of one sequence runs with when a trial (one
/// anchor per layer) is scored.
type Schedule = fn(usize, &[WindowAnchor]) -> Vec<WindowAnchor>;

/// Figure 7's [`Schedule`]. Known defect, kept because the full-preset table
/// digest pins it: the softmax hook this replaces counted calls across all
/// of an evaluation's sequences and never reset, so only sequence 0 runs
/// layer `j` with `trial[j]`, and every later sequence runs all layers with
/// the last layer's anchor `trial[L − 1]`. The quick preset scores one
/// sequence, which hides it. The fix is to return `trial` for every sequence
/// and re-pin the full `fig07` digest.
fn layer_anchors(sequence: usize, trial: &[WindowAnchor]) -> Vec<WindowAnchor> {
    if sequence == 0 {
        trial.to_vec()
    } else {
        vec![trial[trial.len() - 1]; trial.len()]
    }
}

/// The backend of `anchor` in a list built by [`fig07_backends`].
fn backend_of<B>(backends: &[(WindowAnchor, B)], anchor: WindowAnchor) -> &B {
    let (_, backend) = backends
        .iter()
        .find(|(a, _)| *a == anchor)
        .unwrap_or_else(|| panic!("no backend for anchor {anchor}"));
    backend
}

/// Transformer-layer and LM-head passes run by a [`PrefixScorer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Passes {
    layers: usize,
    logits: usize,
}

impl Passes {
    fn add(self, other: Passes) -> Passes {
        Passes { layers: self.layers + other.layers, logits: self.logits + other.logits }
    }
}

/// One sequence's cached forward: the anchors of the layers run so far, the
/// hidden state after them and, once every layer has run, the logits.
#[derive(Clone)]
struct Prefix {
    anchors: Vec<WindowAnchor>,
    hidden: Matrix,
    logits: Option<Matrix>,
}

/// Extends `cached` (or, if its anchors are not a prefix of `shared`, a
/// fresh embedding of `tokens`) through the layers of `shared`, and runs the
/// LM head once `shared` covers every layer.
fn extend_prefix<B: NonlinearBackend>(
    reference: &ReferenceModel,
    tokens: &[usize],
    cached: Option<&Prefix>,
    shared: &[WindowAnchor],
    backends: &[(WindowAnchor, B)],
) -> (Prefix, Passes) {
    let mut prefix = match cached {
        Some(p) if shared.starts_with(&p.anchors) => p.clone(),
        _ => Prefix { anchors: Vec::new(), hidden: reference.embed(tokens), logits: None },
    };
    let mut passes = Passes::default();
    for &anchor in &shared[prefix.anchors.len()..] {
        let j = prefix.anchors.len();
        prefix.hidden = reference.layer(j, &prefix.hidden, backend_of(backends, anchor));
        prefix.anchors.push(anchor);
        passes.layers += 1;
    }
    if prefix.anchors.len() == reference.config().layers && prefix.logits.is_none() {
        prefix.logits = Some(reference.logits(&prefix.hidden));
        passes.logits += 1;
    }
    (prefix, passes)
}

/// The length of the longest prefix that every schedule shares.
fn shared_len(schedules: &[Vec<WindowAnchor>]) -> usize {
    let first = &schedules[0];
    schedules[1..]
        .iter()
        .map(|other| first.iter().zip(other).take_while(|(a, b)| a == b).count())
        .fold(first.len(), usize::min)
}

/// A [`tune_layers`] scorer that keeps each sequence's forward between
/// calls, bit-identical to a full forward per trial and sequence. Each call
/// first extends every sequence's cached forward to the longest prefix of
/// its `schedule` that all trials share (one `map` over sequences); then
/// each trial runs only the layers after it (one `map` over trials).
struct PrefixScorer<'a, B> {
    ctx: &'a ExecutionContext,
    reference: &'a ReferenceModel,
    targets: &'a ProxyTargets,
    backends: &'a [(WindowAnchor, B)],
    schedule: Schedule,
    tokens: Vec<&'a [usize]>,
    sequences: Vec<usize>,
    prefixes: Vec<Option<Prefix>>,
    passes: Passes,
}

impl<'a, B: NonlinearBackend + Sync> PrefixScorer<'a, B> {
    fn new(
        ctx: &'a ExecutionContext,
        reference: &'a ReferenceModel,
        targets: &'a ProxyTargets,
        backends: &'a [(WindowAnchor, B)],
        schedule: Schedule,
    ) -> Self {
        let tokens: Vec<&[usize]> = targets.tokens().collect();
        PrefixScorer {
            ctx,
            reference,
            targets,
            backends,
            schedule,
            sequences: (0..tokens.len()).collect(),
            prefixes: vec![None; tokens.len()],
            tokens,
            passes: Passes::default(),
        }
    }

    /// The proxy perplexity of each trial.
    fn score(&mut self, trials: &[Vec<WindowAnchor>]) -> Vec<f32> {
        let PrefixScorer { ctx, reference, targets, backends, schedule, .. } = *self;
        let extended = ctx.map(&self.sequences, |&s| {
            let schedules: Vec<_> = trials.iter().map(|trial| schedule(s, trial)).collect();
            let shared = &schedules[0][..shared_len(&schedules)];
            extend_prefix(reference, self.tokens[s], self.prefixes[s].as_ref(), shared, backends)
        });
        let (cached, work): (Vec<Prefix>, Vec<Passes>) = extended.into_iter().unzip();
        let scored = ctx.map(trials, |trial| {
            let mut work = Passes::default();
            let nats = reference.proxy_cross_entropy_of(targets, |s, _| {
                let prefix = &cached[s];
                if let Some(logits) = &prefix.logits {
                    return Cow::Borrowed(logits);
                }
                let anchors = schedule(s, trial);
                let mut hidden = Cow::Borrowed(&prefix.hidden);
                for (j, &anchor) in anchors.iter().enumerate().skip(prefix.anchors.len()) {
                    hidden = Cow::Owned(reference.layer(j, &hidden, backend_of(backends, anchor)));
                    work.layers += 1;
                }
                work.logits += 1;
                Cow::Owned(reference.logits(&hidden))
            });
            (perplexity_from_nats(nats), work)
        });
        let (qualities, scoring): (Vec<f32>, Vec<Passes>) = scored.into_iter().unzip();
        self.passes = work.into_iter().chain(scoring).fold(self.passes, Passes::add);
        self.prefixes = cached.into_iter().map(Some).collect();
        qualities
    }
}

/// Renders a tuning trace as a text table.
pub fn fig07_table(trace: &TuningTrace) -> TextTable {
    let mut t = TextTable::new(
        "Figure 7 — progressive per-layer LUT window tuning",
        &["layer", "chosen anchor", "proxy PPL"],
    );
    for l in &trace.layers {
        t.add_row(vec![l.layer.to_string(), l.anchor.to_string(), format!("{:.4}", l.quality)]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 8: relative error of each approximation against software
// ---------------------------------------------------------------------------

/// One approximation's error summary on a realistic input distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct RelativeErrorRow {
    /// Nonlinear op.
    pub op: NonlinearOp,
    /// Method label.
    pub method: String,
    /// Error summary over the sampled inputs.
    pub summary: ErrorSummary,
    /// Mean relative error restricted to the "important" inputs (|x| <= 0.5
    /// for activations, x >= -2 for exp), the region Figure 8 zooms into.
    pub important_region_error: f32,
}

/// Figure 8: evaluates each approximation's error against the exact reference
/// on inputs drawn from the profiled distributions, reporting both the global
/// error and the error on the paper's "important" input region.
pub fn fig08_relative_error(preset: Preset) -> Vec<RelativeErrorRow> {
    let samples = preset.profile_samples();
    let mut rows = Vec::new();
    let mut inputs = Vec::new();
    for op in [NonlinearOp::Exp, NonlinearOp::Silu, NonlinearOp::Gelu] {
        // The Llama SiLU and GELU profiles differ only in `op` and every op
        // draws seed 101, so GELU's inputs are SiLU's: reuse them.
        if op != NonlinearOp::Gelu {
            let dist_op = if op == NonlinearOp::Exp { NonlinearOp::Softmax } else { op };
            let dist = DistributionProfile::for_model(ModelId::Llama2_7b, dist_op, 0.3);
            inputs = dist.sample(samples, 101);
        }
        let exact: Vec<f32> = inputs.iter().map(|&x| op.eval(x)).collect();
        let important: Vec<usize> = inputs
            .iter()
            .enumerate()
            .filter(|(_, &x)| if op == NonlinearOp::Exp { x >= -2.0 } else { x.abs() <= 0.5 })
            .map(|(i, _)| i)
            .collect();

        let mut add = |method: &str, approx: Vec<f32>| {
            let summary = ErrorSummary::compare(&exact, &approx);
            let important_err = if important.is_empty() {
                0.0
            } else {
                important
                    .iter()
                    .map(|&i| {
                        if exact[i] == 0.0 {
                            0.0
                        } else {
                            ((approx[i] - exact[i]) / exact[i]).abs()
                        }
                    })
                    .sum::<f32>()
                    / important.len() as f32
            };
            rows.push(RelativeErrorRow {
                op,
                method: method.to_string(),
                summary,
                important_region_error: important_err,
            });
        };

        // VLP (best configuration from Figure 6's recommendation).
        let vlp = VlpNonlinear::new(op, VlpApproxConfig::recommended_for(op));
        add("VLP", vlp.apply(&inputs).0);
        // PWL.
        let pwl = PiecewiseLinear::new(
            op,
            PwlConfig {
                segments: 22,
                segment_range: if op == NonlinearOp::Exp { 16.0 } else { 8.0 },
            },
        );
        add("PWL", pwl.eval_slice(&inputs));
        // Taylor (only softmax/exp in the paper's Figure 8, but we report all).
        let taylor_cfg = if op == NonlinearOp::Exp {
            TaylorConfig { degree: 9, center: -1.0 }
        } else {
            TaylorConfig { degree: 7, center: 0.0 }
        };
        let taylor = TaylorSeries::new(op, taylor_cfg);
        add("Taylor", taylor.eval_slice(&inputs));
        // Partial approximation, activations only.
        if matches!(op, NonlinearOp::Silu | NonlinearOp::Gelu) {
            let pa = PartialApprox::new(op);
            add("PA", pa.eval_slice(&inputs));
        }
        // Direct LUT (Mugi-L).
        let lut = DirectLut::new(op, DirectLutConfig::default());
        add("DirectLUT", lut.eval_slice(&inputs));
    }
    rows
}

/// Renders Figure 8 rows as a text table.
pub fn fig08_table(rows: &[RelativeErrorRow]) -> TextTable {
    let mut t = TextTable::new(
        "Figure 8 — approximation error vs software reference (profiled input distributions)",
        &["op", "method", "rmse", "mean rel", "important-region rel"],
    );
    for r in rows {
        t.add_row(vec![
            r.op.label().to_string(),
            r.method.clone(),
            fmt_num(r.summary.rmse as f64),
            format!("{:.3}%", r.summary.mean_rel * 100.0),
            format!("{:.3}%", r.important_region_error * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi_numerics::fields::FloatFields;
    use mugi_workloads::distributions::ProfileHistogram;
    use mugi_workloads::reference::ExactBackend;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fig04_quick_covers_models_and_finds_concentrated_windows() {
        let rows = fig04_profiling(Preset::Quick);
        assert!(!rows.is_empty());
        // Most profiles should concentrate >70% of mass in an 8-exponent window.
        let concentrated = rows.iter().filter(|r| r.window_mass > 0.7).count();
        assert!(concentrated * 2 > rows.len(), "{concentrated}/{}", rows.len());
        let table = fig04_table(&rows);
        assert_eq!(table.len(), rows.len());
    }

    /// Figure 4 the brute-force way: every (model, op, depth) point draws
    /// its own sample vector and bins it in a dense `FloatFields` histogram.
    fn fig04_brute_force(preset: Preset) -> Vec<ProfilingRow> {
        let models = match preset {
            Preset::Quick => vec![ModelId::Llama2_7b, ModelId::WhisperTiny],
            Preset::Full => ModelId::all().to_vec(),
        };
        let n = preset.profile_samples();
        let mut rows = Vec::new();
        for (mi, &model) in models.iter().enumerate() {
            let activation = match model.config().family {
                ModelFamily::Llama2 => NonlinearOp::Silu,
                _ => NonlinearOp::Gelu,
            };
            for op in [NonlinearOp::Softmax, activation] {
                for (di, depth) in [0.0f32, 0.5, 1.0].into_iter().enumerate() {
                    let seed = (mi * 10 + di) as u64 + 1;
                    let samples = DistributionProfile::for_model(model, op, depth).sample(n, seed);
                    let mut counts = [0usize; 254];
                    let mut zeros = 0usize;
                    for &x in &samples {
                        if x == 0.0 {
                            zeros += 1;
                        } else {
                            counts[(FloatFields::split_f32(x, 7).exponent + 126) as usize] += 1;
                        }
                    }
                    let hist = ProfileHistogram {
                        exponent_density: (-126..)
                            .zip(counts)
                            .filter(|&(_, c)| c > 0)
                            .map(|(e, c)| (e, c as f32 / n as f32))
                            .collect(),
                        zero_fraction: zeros as f32 / n as f32,
                    };
                    let (lo, mass) = hist.best_exponent_window(8).unwrap();
                    rows.push(ProfilingRow {
                        model,
                        op,
                        depth,
                        best_window_lo: lo,
                        window_mass: mass,
                        zero_fraction: hist.zero_fraction,
                    });
                }
            }
        }
        rows
    }

    /// Checks Figure 4 against [`fig04_brute_force`] bit for bit and returns
    /// the number of rows.
    fn fig04_rows_matching_brute_force(preset: Preset) -> usize {
        let key = |r: &ProfilingRow| {
            (
                r.model,
                r.op,
                r.depth.to_bits(),
                r.best_window_lo,
                r.window_mass.to_bits(),
                r.zero_fraction.to_bits(),
            )
        };
        let fast: Vec<_> = fig04_profiling(preset).iter().map(key).collect();
        let slow: Vec<_> = fig04_brute_force(preset).iter().map(key).collect();
        assert_eq!(fast, slow);
        fast.len()
    }

    #[test]
    fn fig04_shared_streams_match_brute_force() {
        assert_eq!(fig04_rows_matching_brute_force(Preset::Quick), 12);
    }

    /// All 48 full-preset points at 50 000 samples each. Run it in release
    /// mode: `cargo test --release -p mugi --lib -- --ignored full_preset_fig04`.
    #[test]
    #[ignore = "full Figure 4 preset, brute force included; run in release mode"]
    fn full_preset_fig04_shared_streams_match_brute_force() {
        assert_eq!(fig04_rows_matching_brute_force(Preset::Full), 48);
    }

    #[test]
    fn fig06_quick_exact_is_floor_and_vlp_competitive() {
        let rows = fig06_accuracy_sweep(Preset::Quick, ModelId::Llama2_7b);
        let exact = best_perplexity(&rows, Method::Exact).unwrap();
        let vlp = best_perplexity(&rows, Method::Vlp).unwrap();
        let pwl = best_perplexity(&rows, Method::Pwl).unwrap();
        let taylor = best_perplexity(&rows, Method::Taylor).unwrap();
        assert!(exact <= vlp + 1e-4);
        assert!(exact <= pwl + 1e-4);
        assert!(exact <= taylor + 1e-4);
        // VLP's best configuration is competitive with the best baseline
        // (within 20% of the better of PWL / Taylor on the proxy metric).
        let best_baseline = pwl.min(taylor);
        assert!(vlp <= best_baseline * 1.2, "vlp {vlp} baseline {best_baseline}");
        assert!(!fig06_table(&rows).is_empty());
    }

    #[test]
    fn exact_point_from_targets_equals_the_exact_forwards() {
        for config in
            [ReferenceConfig::small(17), ReferenceConfig::scaled_from(ModelId::Llama2_7b, 17)]
        {
            let reference = ReferenceModel::new(config);
            for sequences in [1, Preset::Full.eval_sequences()] {
                let targets = reference.proxy_targets(sequences);
                let forwards = reference.proxy_cross_entropy(&ExactBackend, &targets);
                let read_off = targets.exact_cross_entropy();
                assert_eq!(read_off.to_bits(), forwards.to_bits(), "{config:?} × {sequences}");
            }
        }
    }

    /// Figure 7's schedule once its pinned defect is fixed: every sequence
    /// runs layer `j` with `trial[j]`.
    fn per_layer(_: usize, trial: &[WindowAnchor]) -> Vec<WindowAnchor> {
        trial.to_vec()
    }

    /// Counts the layer passes of the backend it wraps: each layer calls
    /// its activation exactly once.
    struct Counting<'a, B> {
        inner: B,
        layers: &'a AtomicUsize,
    }

    impl<B: NonlinearBackend> NonlinearBackend for Counting<'_, B> {
        fn activation(&self, op: NonlinearOp, values: &[f32]) -> Vec<f32> {
            self.layers.fetch_add(1, Ordering::Relaxed);
            self.inner.activation(op, values)
        }

        fn softmax_rows(&self, data: &[f32], cols: usize) -> Vec<f32> {
            self.inner.softmax_rows(data, cols)
        }

        fn label(&self) -> String {
            self.inner.label()
        }
    }

    fn counting<B>(
        backends: Vec<(WindowAnchor, B)>,
        layers: &AtomicUsize,
    ) -> Vec<(WindowAnchor, Counting<'_, B>)> {
        backends.into_iter().map(|(a, inner)| (a, Counting { inner, layers })).collect()
    }

    /// Proxy perplexity of one trial the brute-force way: a full forward of
    /// every sequence under its schedule.
    fn scheduled_perplexity<B: NonlinearBackend>(
        reference: &ReferenceModel,
        targets: &ProxyTargets,
        backends: &[(WindowAnchor, B)],
        schedule: Schedule,
        trial: &[WindowAnchor],
    ) -> f32 {
        perplexity_from_nats(reference.proxy_cross_entropy_of(targets, |s, tokens| {
            let mut hidden = reference.embed(tokens);
            for (j, &anchor) in schedule(s, trial).iter().enumerate() {
                hidden = reference.layer(j, &hidden, backend_of(backends, anchor));
            }
            reference.logits(&hidden)
        }))
    }

    fn quality_bits(trace: &TuningTrace) -> Vec<u32> {
        trace.layers.iter().map(|l| l.quality.to_bits()).collect()
    }

    /// Tunes `reference` under `schedule` from cached prefixes and by brute
    /// force. Asserts that every trial scores the same bits both ways and
    /// that the traces agree, checks the scorer's layer passes against a
    /// counting backend, and returns the passes of the prefix path.
    fn prefixes_match_brute_force(
        reference: &ReferenceModel,
        sequences: usize,
        candidates: &[WindowAnchor],
        schedule: Schedule,
    ) -> Passes {
        let layers = reference.config().layers;
        let targets = reference.proxy_targets(sequences);
        let backends = fig07_backends(candidates);
        let brute_force = |trials: &[Vec<WindowAnchor>]| -> Vec<f32> {
            trials
                .iter()
                .map(|t| scheduled_perplexity(reference, &targets, &backends, schedule, t))
                .collect()
        };
        let brute =
            tune_layers(layers, candidates, FIG07_DEFAULT_ANCHOR, |_, trials| brute_force(trials));
        let counter = AtomicUsize::new(0);
        let counted = counting(fig07_backends(candidates), &counter);
        let ctx = ExecutionContext::with_threads(2);
        let mut scorer = PrefixScorer::new(&ctx, reference, &targets, &counted, schedule);
        let trace = tune_layers(layers, candidates, FIG07_DEFAULT_ANCHOR, |layer, trials| {
            let qualities = scorer.score(trials);
            let bits = |q: &[f32]| q.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&qualities), bits(&brute_force(trials)), "layer {layer}");
            qualities
        });
        assert_eq!(trace.anchors(), brute.anchors());
        assert_eq!(quality_bits(&trace), quality_bits(&brute));
        assert_eq!(counter.load(Ordering::Relaxed), scorer.passes.layers);
        scorer.passes
    }

    /// Three layers, three candidates, three sequences.
    fn small_reference() -> ReferenceModel {
        ReferenceModel::new(ReferenceConfig { layers: 3, ..ReferenceConfig::small(31) })
    }

    #[test]
    fn prefix_reuse_matches_brute_force_under_the_pinned_schedule() {
        let passes = prefixes_match_brute_force(&small_reference(), 3, &[-4, -2, 0], layer_anchors);
        // Sequence 0: layer l extends its prefix by one layer (l > 0) and
        // each of the 3 candidates runs the 3 − l layers after it: 2 + 3 ×
        // (3 + 2 + 1) = 20 layer passes and 9 logits. Sequences 1 and 2 share
        // their whole schedule until the last layer (3 layers, 1 logits),
        // then every candidate runs all 3 layers (9 layers, 3 logits). Brute
        // force runs 3 × 3 × 3 × 3 = 81 layer passes and 27 logits.
        assert_eq!(passes, Passes { layers: 20 + 2 * (3 + 9), logits: 9 + 2 * (1 + 3) });
    }

    #[test]
    fn prefix_reuse_matches_brute_force_under_the_per_layer_schedule() {
        let passes = prefixes_match_brute_force(&small_reference(), 3, &[-4, -2, 0], per_layer);
        // Every sequence runs as sequence 0 does under the pinned schedule.
        assert_eq!(passes, Passes { layers: 3 * 20, logits: 3 * 9 });
    }

    #[test]
    fn pinned_schedule_reproduces_the_call_counting_hook() {
        // The hook Figure 7 used to build per evaluation: it maps softmax
        // call `c` to layer `c / heads` and never resets between sequences.
        let reference = small_reference();
        let targets = reference.proxy_targets(3);
        let base_sm = VlpApproxConfig::recommended_for(NonlinearOp::Softmax);
        let base_act = VlpApproxConfig::recommended_for(NonlinearOp::Silu);
        let call_counting = |anchors: &[WindowAnchor]| {
            let engines: Vec<VlpNonlinear> = anchors
                .iter()
                .map(|&a| VlpNonlinear::new(NonlinearOp::Softmax, config_for_anchor(&base_sm, a)))
                .collect();
            let act = VlpNonlinear::new(NonlinearOp::Silu, base_act);
            let gelu = VlpNonlinear::new(NonlinearOp::Gelu, base_act);
            let call_counter = std::cell::Cell::new(0usize);
            let heads = reference.config().heads;
            let layer_count = anchors.len();
            let backend = HookedBackend::new(
                "per-layer VLP",
                move |op, xs: &[f32]| match op {
                    NonlinearOp::Silu => act.apply(xs).0,
                    NonlinearOp::Gelu => gelu.apply(xs).0,
                    _ => xs.iter().map(|&x| op.eval(x)).collect(),
                },
                move |data, cols| {
                    let call = call_counter.get();
                    call_counter.set(call + 1);
                    let layer = (call / heads).min(layer_count - 1);
                    engines[layer].softmax_rows(data, cols).0
                },
            );
            reference.proxy_perplexity(&backend, &targets)
        };
        let candidates = [-4, -2, 0];
        let backends = fig07_backends(&candidates);
        let mut fixed_differs = false;
        let trace = tune_layers(3, &candidates, FIG07_DEFAULT_ANCHOR, |_, trials| {
            trials
                .iter()
                .map(|trial| {
                    let hook = call_counting(trial);
                    let pinned =
                        scheduled_perplexity(&reference, &targets, &backends, layer_anchors, trial);
                    assert_eq!(hook.to_bits(), pinned.to_bits(), "trial {trial:?}");
                    let fixed =
                        scheduled_perplexity(&reference, &targets, &backends, per_layer, trial);
                    fixed_differs |= fixed.to_bits() != hook.to_bits();
                    hook
                })
                .collect()
        });
        assert_eq!(trace.layers.len(), 3);
        // The schedules differ observably, so this test would catch a
        // change of schedule.
        assert!(fixed_differs);
    }

    #[test]
    fn full_preset_shape_runs_fewer_passes_than_brute_force() {
        // Figure 7's full shape: 4 layers, 6 candidates, 4 sequences. Brute
        // force runs 6 × 4 × 4 × 4 = 384 layer passes and 96 logits. The
        // passes do not depend on the backend's values, so an exact backend
        // per anchor counts them.
        let reference = ReferenceModel::new(ReferenceConfig::scaled_from(ModelId::Llama2_7b, 29));
        assert_eq!(reference.config().layers, 4);
        let targets = reference.proxy_targets(Preset::Full.eval_sequences());
        let candidates = [-6, -4, -3, -2, -1, 0];
        let ctx = ExecutionContext::with_threads(2);
        for (schedule, expected) in [
            (layer_anchors as Schedule, Passes { layers: 147, logits: 45 }),
            (per_layer, Passes { layers: 252, logits: 96 }),
        ] {
            let counter = AtomicUsize::new(0);
            let exact = candidates.iter().map(|&a| (a, ExactBackend)).collect();
            let backends = counting(exact, &counter);
            let mut scorer = PrefixScorer::new(&ctx, &reference, &targets, &backends, schedule);
            tune_layers(4, &candidates, FIG07_DEFAULT_ANCHOR, |_, trials| scorer.score(trials));
            assert_eq!(scorer.passes, expected);
            assert_eq!(counter.load(Ordering::Relaxed), expected.layers);
        }
    }

    /// The equivalence at Figure 7's full shape, with its VLP backends.
    /// Run it in release mode:
    /// `cargo test --release -p mugi --lib -- --ignored full_shape`.
    #[test]
    #[ignore = "full Figure 7 shape, brute force included; run in release mode"]
    fn full_shape_prefix_reuse_matches_brute_force_under_both_schedules() {
        let reference = ReferenceModel::new(ReferenceConfig::scaled_from(ModelId::Llama2_7b, 29));
        let candidates = [-6, -4, -3, -2, -1, 0];
        let pinned = prefixes_match_brute_force(&reference, 4, &candidates, layer_anchors);
        assert_eq!(pinned, Passes { layers: 147, logits: 45 });
        let fixed = prefixes_match_brute_force(&reference, 4, &candidates, per_layer);
        assert_eq!(fixed, Passes { layers: 252, logits: 96 });
    }

    #[test]
    fn fig08_vlp_wins_in_important_region_for_activations() {
        let rows = fig08_relative_error(Preset::Quick);
        let get = |op: NonlinearOp, method: &str| {
            rows.iter()
                .find(|r| r.op == op && r.method == method)
                .map(|r| r.important_region_error)
                .unwrap()
        };
        for op in [NonlinearOp::Silu, NonlinearOp::Gelu] {
            let vlp = get(op, "VLP");
            let pwl = get(op, "PWL");
            // VLP is more accurate than piecewise-linear approximation in the
            // dense near-zero region, and its error there is small in absolute
            // terms, matching Figure 8's zoomed panels.
            assert!(vlp < pwl, "{op:?}: vlp {vlp} pwl {pwl}");
            assert!(vlp < 0.25, "{op:?}: vlp important-region error {vlp}");
        }
        assert!(!fig08_table(&rows).is_empty());
    }
}
