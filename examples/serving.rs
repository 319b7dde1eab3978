//! Serving: a continuous-batching engine over the Mugi accelerator model.
//!
//! Submits 72 concurrent requests across three models (Llama 2 7B / 13B /
//! 70B), runs the FCFS and shortest-prefill-first schedulers to completion,
//! and prints per-request TTFT/TPOT statistics plus aggregate percentiles.
//! Then serves a decode-heavy workload against a *bounded* paged KV pool
//! (2 GiB budget) to show recompute-style preemption: sessions are evicted
//! under pressure, re-prefill, and still all finish.
//!
//! Run with: `cargo run --release --example serving`

use mugi_runtime::{
    synthetic_requests, ConfigError, KvConfig, Scenario, SchedulerConfig, SchedulingPolicy,
    WorkloadSpec,
};
use mugi_workloads::models::ModelId;

fn main() -> Result<(), ConfigError> {
    // 72 concurrent requests (single burst) across three models.
    let models = [ModelId::Llama2_7b, ModelId::Llama2_13b, ModelId::Llama2_70b];
    let requests = synthetic_requests(2026, 72, &models, WorkloadSpec::default());
    println!(
        "workload: {} requests across {} models, prompts 32-512 tokens, outputs 4-48 tokens",
        requests.len(),
        models.len()
    );

    for policy in [SchedulingPolicy::Fcfs, SchedulingPolicy::ShortestPrefillFirst] {
        let scheduler = SchedulerConfig { policy, ..SchedulerConfig::default() };
        let mut engine = Scenario { scheduler, ..Scenario::new(256) }.build()?;
        for request in &requests {
            engine.submit(*request);
        }
        let report = engine.run();
        println!("\n=== policy: {policy:?} ===");
        println!("{report}");
        println!(
            "\n{:>4} {:>12} {:>7} {:>7} {:>10} {:>10} {:>10} {:>11}",
            "id", "model", "prompt", "output", "ttft s", "tpot s", "e2e s", "energy J"
        );
        for r in report.requests.iter().take(8) {
            println!(
                "{:>4} {:>12} {:>7} {:>7} {:>10.2} {:>10.3} {:>10.2} {:>11.3}",
                r.id.to_string(),
                format!("{:?}", r.model),
                r.prompt_tokens,
                r.output_tokens,
                r.ttft_s,
                r.tpot_s,
                r.e2e_s,
                r.energy_uj * 1e-6,
            );
        }
        println!("  ... ({} more requests)", report.requests.len() - 8);
        for model in models {
            let rs = report.for_model(model);
            let tokens: usize = rs.iter().map(|r| r.output_tokens).sum();
            println!("  {model:?}: {} requests, {tokens} output tokens", rs.len());
        }
        assert_eq!(report.requests.len(), requests.len(), "every request must finish");
        assert!(report.requests.iter().all(|r| r.ttft_s > 0.0));
    }

    // The same engine with a *bounded* paged KV pool: a 2 GiB-per-node
    // budget for the 7B model. Preempted sessions drop their pages,
    // re-prefill and still finish — the report's KV line shows the cost.
    let kv = KvConfig::for_budget(ModelId::Llama2_7b, 2 << 30, 128);
    println!("\n=== paged KV: {} pages of 128 tokens (2 GiB budget) ===", kv.node_pages.unwrap());
    let mut engine = Scenario { kv, ..Scenario::new(256) }.build()?;
    let pressured =
        synthetic_requests(2026, 24, &[ModelId::Llama2_7b], WorkloadSpec::kv_pressure());
    for request in &pressured {
        engine.submit(*request);
    }
    let report = engine.run();
    println!("{report}");
    assert_eq!(report.requests.len(), pressured.len(), "preemption never drops a request");
    Ok(())
}
