//! End-to-end serving integration: 64 concurrent requests across two models
//! through the scheduler → executor → accelerator pipeline.

use mugi::arch::noc::NocConfig;
use mugi::MugiAccelerator;
use mugi_runtime::{
    synthetic_requests, Executor, ExecutorConfig, Placement, Scheduler, SchedulerConfig,
    SchedulingPolicy, WorkloadSpec,
};
use mugi_workloads::models::ModelId;

const MODELS: [ModelId; 2] = [ModelId::Llama2_7b, ModelId::Llama2_70b];

fn run_with(policy: SchedulingPolicy) -> mugi_runtime::RuntimeReport {
    let requests = synthetic_requests(7, 64, &MODELS, WorkloadSpec::default());
    let mut engine = Executor::new(
        MugiAccelerator::new(256),
        Scheduler::new(SchedulerConfig { policy, ..SchedulerConfig::default() }),
    );
    for r in &requests {
        engine.submit(*r);
    }
    engine.run()
}

#[test]
fn serves_64_concurrent_requests_across_two_models() {
    let requests = synthetic_requests(7, 64, &MODELS, WorkloadSpec::default());
    let report = run_with(SchedulingPolicy::Fcfs);
    assert_eq!(report.requests.len(), 64, "every request must finish");
    for (stats, request) in report.requests.iter().zip(&requests) {
        assert_eq!(stats.output_tokens, request.output_tokens);
        assert_eq!(stats.prompt_tokens, request.prompt_tokens);
        assert!(stats.ttft_s > 0.0);
        assert!(stats.e2e_s >= stats.ttft_s);
        assert!(stats.energy_uj > 0.0);
        assert!(stats.micro_batches > 0);
    }
    assert_eq!(report.for_model(ModelId::Llama2_7b).len(), 32);
    assert_eq!(report.for_model(ModelId::Llama2_70b).len(), 32);
    assert!(report.throughput_tokens_per_s > 0.0);
    assert!(report.ttft.p50 > 0.0 && report.ttft.p99 >= report.ttft.p50);
    assert!(report.tpot.p50 > 0.0 && report.tpot.p99 >= report.tpot.p50);
    let total: u64 = requests.iter().map(|r| r.output_tokens as u64).sum();
    assert_eq!(report.total_output_tokens, total);
}

#[test]
fn both_policies_generate_the_same_tokens() {
    let fcfs = run_with(SchedulingPolicy::Fcfs);
    let spf = run_with(SchedulingPolicy::ShortestPrefillFirst);
    assert_eq!(fcfs.total_output_tokens, spf.total_output_tokens);
    assert_eq!(fcfs.requests.len(), spf.requests.len());
    assert!(spf.ttft.p50 > 0.0);
}

#[test]
fn sharded_mesh_serves_the_same_workload_much_faster() {
    let requests = synthetic_requests(7, 64, &MODELS, WorkloadSpec::default());
    let run = |placement: Placement| {
        let mut engine = Executor::with_placement(
            MugiAccelerator::new(256),
            Scheduler::new(SchedulerConfig::default()),
            ExecutorConfig::default(),
            placement,
        );
        for r in &requests {
            engine.submit(*r);
        }
        engine.run()
    };
    let single = run(Placement::single_node());
    let mesh = run(Placement::sharded(NocConfig::mesh_4x4()));
    // Same tokens, same finished requests, near-linear throughput scaling.
    assert_eq!(mesh.total_output_tokens, single.total_output_tokens);
    assert_eq!(mesh.requests.len(), single.requests.len());
    let speedup = mesh.throughput_tokens_per_s / single.throughput_tokens_per_s;
    assert!(speedup > 12.0 && speedup <= 16.0, "4x4 serving speedup {speedup}");
    // The NoC transfer model charges every request for inter-node movement.
    assert_eq!(single.noc_energy_uj, 0.0);
    assert!(mesh.noc_energy_uj > 0.0);
    assert!(mesh.requests.iter().all(|r| r.noc_energy_uj > 0.0));
    // Latency milestones stay ordered under overlapped execution.
    for r in &mesh.requests {
        assert!(r.ttft_s > 0.0 && r.e2e_s >= r.ttft_s);
    }
    // Every node of the gang was busy for the same cycles.
    assert_eq!(mesh.node_busy_cycles.len(), 16);
    assert!(mesh.node_busy_cycles.windows(2).all(|w| w[0] == w[1]));
}

/// Runs a small seeded `serve_mixed_dp`-shaped stream on `accel`: 64
/// requests of Llama 2 7B/13B/70B on a 2×2 data-parallel mesh.
fn run_mixed_dp(accel: MugiAccelerator) -> (Executor, mugi_runtime::ScaleReport) {
    use mugi_runtime::WorkloadStream;
    let models = [ModelId::Llama2_7b, ModelId::Llama2_13b, ModelId::Llama2_70b];
    let spec = WorkloadSpec {
        prompt_tokens: (32, 2048),
        output_tokens: (4, 64),
        ..WorkloadSpec::default()
    }
    .with_poisson_arrivals(400_000_000_000);
    let mut ex = Executor::with_placement(
        accel,
        Scheduler::new(SchedulerConfig::default()),
        ExecutorConfig::default(),
        Placement::data_parallel(NocConfig { rows: 2, cols: 2 }),
    );
    let report = ex.run_stream_folded(WorkloadStream::new(7, &models, spec).take(64));
    (ex, report)
}

/// The decode-run work counters of [`run_mixed_dp`]'s stream. The runs and
/// their forced steps are those of the step-at-a-time runs that segments
/// replaced; the segments are the bulk advances.
#[test]
fn decode_runs_advance_in_fewer_segments_than_steps() {
    let (ex, report) = run_mixed_dp(MugiAccelerator::new(64));
    let (runs, run_steps, segments) = ex.run_counters();
    assert_eq!((runs, run_steps, segments, report.micro_batches), (93, 1683, 108, 2088));
    assert!(segments < run_steps);
}

/// The slice-memo work counters of [`run_mixed_dp`]'s stream, read through
/// a clone of the executor's accelerator (clones share the memo). Every
/// miss inserts one entry and the cap is far off, so nothing is evicted.
#[test]
fn slice_memo_counts_its_hits_misses_and_evictions() {
    let accel = MugiAccelerator::new(64);
    run_mixed_dp(accel.clone());
    let stats = accel.slice_memo_stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions, stats.entries), (7, 112, 0, 112));
    assert_eq!(stats.misses, stats.evictions + stats.entries as u64);
}
