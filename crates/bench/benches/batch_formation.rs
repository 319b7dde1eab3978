//! Criterion benches for bounded-KV micro-batch formation: the scheduler's
//! per-step form/complete cycle against a paged KV pool, cold (fresh
//! scheduler, first admissions faulting their pages in) and hot (a warmed
//! steady state of decoding sessions growing KV until the pool churns).
//! Regressions in the zero-rehash queues, the extent allocator or the
//! preemption planner show up here in isolation from the accelerator model.
//!
//! Set `MUGI_BENCH_QUICK=1` to shrink sample counts — the CI perf smoke,
//! which only asserts that the formation path executes, not how fast.

use criterion::{criterion_group, criterion_main, Criterion};
use mugi_runtime::{KvConfig, PhaseFilter, Request, Scheduler, SchedulerConfig};
use mugi_workloads::models::ModelId;
use std::hint::black_box;

fn quick() -> bool {
    std::env::var_os("MUGI_BENCH_QUICK").is_some()
}

/// The scale-sweep bounded pool: 128-token pages, 48 of them.
fn bounded() -> KvConfig {
    KvConfig::bounded(128, 48)
}

/// Cold formation: a fresh scheduler admits a burst of requests and forms
/// its first micro-batch — construction, queue setup, first-touch
/// page-table growth and the admission bookkeeping all on the line, like
/// the first step of every serve.
fn bench_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_formation");
    group.sample_size(if quick() { 10 } else { 30 });
    group.bench_function("bounded_cold_first_batch", |b| {
        b.iter(|| {
            let mut sched = Scheduler::with_kv(SchedulerConfig::default(), bounded());
            for _ in 0..16 {
                sched.submit(Request::new(ModelId::Llama2_7b, 16, 4));
            }
            black_box(sched.next_micro_batch(0, 0, PhaseFilter::Both))
        })
    });
    group.finish();
}

/// Hot formation: eight long-generation sessions decode in steady state,
/// each form/complete cycle growing their KV by one entry — page allocation
/// every `page_tokens` steps and, once the 48-page pool runs dry,
/// youngest-first preemption with recompute re-prefills. This is the
/// bounded serving loop the scale sweep runs a million times, minus the
/// accelerator estimate.
fn bench_hot(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_formation");
    group.sample_size(if quick() { 10 } else { 30 });
    let mut sched = Scheduler::with_kv(SchedulerConfig::default(), bounded());
    // 16 + 4096 tokens projects to 33 pages — admissible against the
    // 48-page pool, and eight such sessions oversubscribe it 5×, so the
    // loop reaches page-churn steady state.
    let request = || Request::new(ModelId::Llama2_7b, 16, 4096);
    for _ in 0..8 {
        sched.submit(request());
    }
    // Warm up past the initial prefills so the timed loop starts decoding.
    for _ in 0..8 {
        if let Some(batch) = sched.next_micro_batch(0, 0, PhaseFilter::Both) {
            sched.complete(&batch, 0);
        }
    }
    group.bench_function("bounded_hot_form_complete", |b| {
        b.iter(|| {
            match sched.next_micro_batch(0, 0, PhaseFilter::Both) {
                Some(batch) => {
                    sched.complete(&batch, 0);
                    black_box(batch.items.len());
                }
                // The cohort finished: admit the next one so every
                // iteration keeps forming real batches.
                None => {
                    for _ in 0..8 {
                        let _ = sched.try_submit(request());
                    }
                }
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cold, bench_hot);
criterion_main!(benches);
