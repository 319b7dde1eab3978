//! Hasher-seed independence of scheduler batch formation.
//!
//! `std::collections::HashMap`/`HashSet` draw a fresh `RandomState` per
//! instance, so two maps built in the same process already iterate in
//! different orders — the per-process seed does not need to change for
//! order sensitivity to show. The scheduler therefore keeps its session
//! bookkeeping in ordered collections (enforced by clippy's
//! `disallowed_types` ban on both, configured in the root `clippy.toml`),
//! and this test pins the observable
//! consequence: two independently constructed schedulers fed the identical
//! workload must form byte-for-byte identical micro-batch sequences.

use mugi_runtime::{synthetic_requests, PoolRole, Scheduler, SchedulerConfig, WorkloadSpec};
use mugi_workloads::models::ModelId;
use mugi_workloads::ops::Phase;

const MODELS: [ModelId; 2] = [ModelId::Llama2_7b, ModelId::Llama2_70b];

/// Every formed micro-batch as `(cycle, model, [(id, phase, tokens)])`.
type BatchTrace = Vec<(u64, ModelId, Vec<(u64, Phase, usize)>)>;

/// Drives `sched` to completion with a fixed completion latency, recording
/// every formed micro-batch.
fn batch_trace(mut sched: Scheduler) -> BatchTrace {
    for r in synthetic_requests(11, 96, &MODELS, WorkloadSpec::default()) {
        sched.submit(r);
    }
    let mut trace = Vec::new();
    let mut now = 0;
    while !sched.all_finished() {
        if let Some(batch) = sched.next_micro_batch(now, 0, PoolRole::Colocated) {
            trace.push((
                now,
                batch.model,
                batch.items.iter().map(|i| (i.id.0, i.phase, i.tokens)).collect(),
            ));
            now += 100;
            sched.complete(&batch, now);
        } else {
            now += 100;
        }
        assert!(now < 10_000_000, "scheduler failed to drain the workload");
    }
    trace
}

#[test]
fn batch_formation_is_identical_across_scheduler_instances() {
    // Each instance would own distinct `RandomState` seeds if any hash
    // collection influenced formation order; ordered collections make the
    // traces structurally equal instead of merely statistically similar.
    let first = batch_trace(Scheduler::new(SchedulerConfig::default()));
    let second = batch_trace(Scheduler::new(SchedulerConfig::default()));
    assert!(!first.is_empty(), "the workload must form at least one batch");
    assert_eq!(first, second, "batch formation depends on hasher state");
}
