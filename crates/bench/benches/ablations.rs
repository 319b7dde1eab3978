//! Ablation benches for Mugi's design choices:
//! value-centric sliding window, mantissa rounding width, buffer organisation
//! and the batch/GQA utilisation lever.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mugi_arch::cost::CostModel;
use mugi_arch::modules::FifoBank;
use mugi_numerics::error::rmse;
use mugi_numerics::nonlinear::NonlinearOp;
use mugi_vlp::approx::{VlpApproxConfig, VlpNonlinear, WindowStrategy};
use mugi_workloads::distributions::DistributionProfile;
use mugi_workloads::models::ModelId;
use std::hint::black_box;

/// Ablation: adaptive sliding window vs fixed anchors vs a wide LUT window —
/// measures both runtime and reports accuracy as a side effect.
fn bench_window_ablation(c: &mut Criterion) {
    let inputs = DistributionProfile::for_model(ModelId::Llama2_7b, NonlinearOp::Softmax, 0.5)
        .sample(8192, 9);
    let exact: Vec<f32> = inputs.iter().map(|&x| x.exp()).collect();
    let mut group = c.benchmark_group("ablation_window");
    group.sample_size(20);
    let configs = [
        ("adaptive_anchor_max", VlpApproxConfig::recommended_for(NonlinearOp::Exp)),
        (
            "fixed_minus_4",
            VlpApproxConfig {
                strategy: WindowStrategy::Fixed(-4),
                ..VlpApproxConfig::recommended_for(NonlinearOp::Exp)
            },
        ),
        (
            "fixed_minus_8_window",
            VlpApproxConfig {
                lut_min_exp: -12,
                lut_max_exp: -5,
                strategy: WindowStrategy::Fixed(-12),
                ..VlpApproxConfig::recommended_for(NonlinearOp::Exp)
            },
        ),
    ];
    for (label, cfg) in configs {
        let engine = VlpNonlinear::new(NonlinearOp::Exp, cfg);
        let (approx, _) = engine.apply(&inputs);
        // The accuracy side of the ablation is printed once so the bench log
        // records it next to the runtime.
        println!("ablation_window/{label}: rmse vs exact = {:.4e}", rmse(&exact, &approx));
        group.bench_function(label, |b| b.iter(|| black_box(engine.apply(black_box(&inputs)))));
    }
    group.finish();
}

/// Ablation: mantissa rounding width (2 / 3 / 4 bits) — the paper fixes 3 bits
/// to match the 8-column array; this shows the accuracy/latency trade-off.
fn bench_mantissa_ablation(c: &mut Criterion) {
    let inputs =
        DistributionProfile::for_model(ModelId::Llama2_7b, NonlinearOp::Silu, 0.5).sample(8192, 11);
    let exact: Vec<f32> = inputs.iter().map(|&x| mugi_numerics::nonlinear::silu(x)).collect();
    let mut group = c.benchmark_group("ablation_mantissa_bits");
    group.sample_size(20);
    for bits in [2u8, 3, 4] {
        let cfg = VlpApproxConfig {
            mantissa_bits: bits,
            ..VlpApproxConfig::recommended_for(NonlinearOp::Silu)
        };
        let engine = VlpNonlinear::new(NonlinearOp::Silu, cfg);
        let (approx, stats) = engine.apply(&inputs);
        println!(
            "ablation_mantissa/{bits} bits: rmse {:.4e}, sweep {} cycles",
            rmse(&exact, &approx),
            stats.cycles_per_mapping
        );
        group.bench_with_input(BenchmarkId::from_parameter(bits), &inputs, |b, i| {
            b.iter(|| black_box(engine.apply(black_box(i))))
        });
    }
    group.finish();
}

/// Ablation: Carat-style vs Mugi-style buffer organisation (area model only,
/// Figure 13's FIFO bars).
fn bench_buffer_ablation(c: &mut Criterion) {
    let cost = CostModel::default_45nm();
    let mut group = c.benchmark_group("ablation_buffers");
    group.sample_size(50);
    for height in [64usize, 128, 256] {
        group.bench_with_input(BenchmarkId::new("carat_style", height), &height, |b, &h| {
            b.iter(|| black_box(FifoBank::carat_style(h, 8, 16).area_mm2(&cost)))
        });
        group.bench_with_input(BenchmarkId::new("mugi_style", height), &height, |b, &h| {
            b.iter(|| black_box(FifoBank::mugi_style(h, 8, 16).area_mm2(&cost)))
        });
        println!(
            "ablation_buffers/height {height}: carat {:.4} mm^2, mugi {:.4} mm^2",
            FifoBank::carat_style(height, 8, 16).area_mm2(&cost),
            FifoBank::mugi_style(height, 8, 16).area_mm2(&cost)
        );
    }
    group.finish();
}

criterion_group!(benches, bench_window_ablation, bench_mantissa_ablation, bench_buffer_ablation);
criterion_main!(benches);
