//! Serving-runtime sweep: continuous-batching throughput and latency across
//! scheduling policies, batch caps and token budgets on a fixed 64-request
//! two-model workload. The numbers behind the serving section of
//! EXPERIMENTS.md.
//!
//! Run with: `cargo run --release -p mugi-bench --bin serving_sweep`
//! (pass `--quick` for a reduced sweep).

use mugi::report::TextTable;
use mugi::MugiAccelerator;
use mugi_runtime::{
    synthetic_requests, Executor, Scheduler, SchedulerConfig, SchedulingPolicy, WorkloadSpec,
};
use mugi_workloads::models::ModelId;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let models = [ModelId::Llama2_7b, ModelId::Llama2_70b];
    let requests = synthetic_requests(7, 64, &models, WorkloadSpec::default());
    let batches: &[usize] = if quick { &[8] } else { &[4, 8, 16, 32] };
    let budgets: &[usize] = if quick { &[1024] } else { &[512, 1024, 2048] };

    let mut table = TextTable::new(
        "Serving sweep: 64 requests, Llama 2 7B + 70B, one Mugi(256) node",
        &[
            "policy",
            "max_batch",
            "budget",
            "tokens/s",
            "TTFT p50 (s)",
            "TTFT p99 (s)",
            "TPOT p50 (s)",
            "steps",
        ],
    );
    for policy in [SchedulingPolicy::Fcfs, SchedulingPolicy::ShortestPrefillFirst] {
        for &max_batch in batches {
            for &token_budget in budgets {
                let mut engine = Executor::new(
                    MugiAccelerator::new(256),
                    Scheduler::new(SchedulerConfig {
                        max_batch,
                        token_budget,
                        prefill_chunk: 512,
                        policy,
                        ..SchedulerConfig::default()
                    }),
                );
                for r in &requests {
                    engine.submit(*r);
                }
                let report = engine.run();
                table.add_row(vec![
                    format!("{policy:?}"),
                    max_batch.to_string(),
                    token_budget.to_string(),
                    format!("{:.3}", report.throughput_tokens_per_s),
                    format!("{:.1}", report.ttft.p50),
                    format!("{:.1}", report.ttft.p99),
                    format!("{:.2}", report.tpot.p50),
                    report.micro_batches.to_string(),
                ]);
            }
        }
    }
    println!("{}", table.render());
}
