//! Criterion benches for the serving simulator's per-step hot path:
//! `estimate_micro_batch_noc` on a cold and a warm slice memo, and one full
//! `Executor::run_stream_folded` serve, so regressions in slice pricing,
//! the slice memo or the stepping loop are measurable in isolation.
//!
//! Set `MUGI_BENCH_QUICK=1` to shrink sample counts and the folded serve —
//! the CI perf smoke, which only asserts that the hot path executes, not
//! how fast.

use criterion::{criterion_group, criterion_main, Criterion};
use mugi::arch::noc::NocConfig;
use mugi::MugiAccelerator;
use mugi_runtime::{Executor, Scheduler, SchedulerConfig, WorkloadSpec, WorkloadStream};
use mugi_workloads::models::ModelId;
use mugi_workloads::ops::BatchSlice;
use std::hint::black_box;

fn quick() -> bool {
    std::env::var_os("MUGI_BENCH_QUICK").is_some()
}

/// A steady-state decode micro-batch shape: a few bucketed contexts plus one
/// chunked prefill slice, like the scheduler emits mid-stream.
fn shape() -> Vec<BatchSlice> {
    vec![
        BatchSlice::decode(6, 128),
        BatchSlice::decode(2, 256),
        BatchSlice::prefill(1, 24).with_kv_len(128),
    ]
}

/// Cold vs hot estimate: the cold case builds a fresh accelerator every
/// iteration and prices each slice's ops from scratch before folding them;
/// the hot case folds the slices' memoized op costs — what the serving loop
/// pays whenever the executor's front memo misses on a known slice mix.
fn bench_estimate(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimate_hot_path");
    group.sample_size(if quick() { 10 } else { 30 });
    let slices = shape();
    let noc = NocConfig::single();
    group.bench_function("estimate_micro_batch_noc_cold", |b| {
        b.iter(|| {
            let accel = MugiAccelerator::new(64);
            black_box(accel.estimate_micro_batch_noc(ModelId::Llama2_7b, black_box(&slices), noc))
        })
    });
    let accel = MugiAccelerator::new(64);
    accel.estimate_micro_batch_noc(ModelId::Llama2_7b, &slices, noc);
    group.bench_function("estimate_micro_batch_noc_hot", |b| {
        b.iter(|| {
            black_box(accel.estimate_micro_batch_noc(ModelId::Llama2_7b, black_box(&slices), noc))
        })
    });
    group.finish();
}

/// One full folded serve over a seeded open-loop stream — the
/// scale_sweep inner loop at microbench size, covering scheduling, the
/// memoized estimates and stats folding end to end.
fn bench_step_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimate_hot_path");
    group.sample_size(10);
    let requests = if quick() { 200 } else { 2_000 };
    let spec = WorkloadSpec { prompt_tokens: (8, 24), output_tokens: (1, 4), ..Default::default() }
        .with_poisson_arrivals(3_000_000_000);
    group.bench_function("run_stream_folded", |b| {
        b.iter(|| {
            let mut ex =
                Executor::new(MugiAccelerator::new(64), Scheduler::new(SchedulerConfig::default()));
            let report = ex.run_stream_folded(
                WorkloadStream::new(4242, &[ModelId::Llama2_7b], spec).take(requests),
            );
            black_box(report)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_estimate, bench_step_loop);
criterion_main!(benches);
