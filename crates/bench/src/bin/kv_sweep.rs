//! Paged-KV pressure sweep: serving throughput, tail latency, preemption
//! and rejection rates across KV pool sizes and workload pressures — the
//! numbers behind the "KV pressure sweep" section of EXPERIMENTS.md.
//!
//! Every admitted request must still complete (preemption is recompute, not
//! abandonment), so the interesting outputs are the *rates*: how often the
//! pool evicts, how much re-prefill debt that creates, and how many
//! submissions the queue-depth admission bound rejects. The admission bound
//! scales with the pool (half a page-pair per live session), so the
//! rejection rate must fall monotonically as the pool grows — asserted at
//! the bottom, per the acceptance criterion.
//!
//! Run with: `cargo run --release -p mugi-bench --bin kv_sweep`
//! (pass `--quick` for a reduced sweep).

use mugi::report::TextTable;
use mugi::MugiAccelerator;
use mugi_runtime::{
    pages_for, synthetic_requests, Executor, ExecutorConfig, KvConfig, Placement, Request,
    Scheduler, SchedulerConfig, WorkloadSpec,
};
use mugi_workloads::models::ModelId;

const PAGE_TOKENS: usize = 128;
const MODEL: ModelId = ModelId::Llama2_7b;

struct Outcome {
    admitted: usize,
    rejected: usize,
    report: mugi_runtime::RuntimeReport,
}

fn run(requests: &[Request], pool_pages: Option<usize>) -> Outcome {
    let kv = match pool_pages {
        None => KvConfig::unbounded(),
        Some(pages) => {
            // Queue-depth admission scaled to the pool: one live session per
            // page. Requests of this workload peak at 2–3 pages, so the
            // admitted population oversubscribes the pool ~2× and the
            // eviction path gets real exercise, while submissions beyond the
            // bound push back on the generator.
            KvConfig::bounded(PAGE_TOKENS, pages).with_max_live_sessions(pages)
        }
    };
    let mut engine = Executor::with_placement(
        MugiAccelerator::new(128),
        Scheduler::with_kv(SchedulerConfig::default(), kv),
        ExecutorConfig { kv_bucket: PAGE_TOKENS, ..ExecutorConfig::default() },
        Placement::single_node(),
    );
    let mut admitted = 0;
    let mut rejected = 0;
    for r in requests {
        match engine.try_submit(*r) {
            Ok(_) => admitted += 1,
            Err(_) => rejected += 1,
        }
    }
    Outcome { admitted, rejected, report: engine.run() }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let pressures: &[usize] = if quick { &[24] } else { &[24, 48] };
    let pools: &[Option<usize>] = if quick {
        &[Some(4), Some(16), None]
    } else {
        &[Some(4), Some(8), Some(16), Some(32), Some(64), None]
    };
    let page_gib =
        MODEL.config().kv_cache_bytes(PAGE_TOKENS, 16) as f64 / (1024.0 * 1024.0 * 1024.0);

    let mut table = TextTable::new(
        format!(
            "KV pressure sweep: Llama 2 7B, {PAGE_TOKENS}-token pages ({page_gib:.3} GiB each), \
             one Mugi(128) node"
        ),
        &[
            "requests",
            "pool pages",
            "pool GiB",
            "admitted",
            "rejected",
            "reject %",
            "tokens/s",
            "TTFT p99 (s)",
            "preempt",
            "preempt/req",
            "re-prefill tok",
            "peak occ",
        ],
    );
    for &pressure in pressures {
        let requests = synthetic_requests(11, pressure, &[MODEL], WorkloadSpec::kv_pressure());
        let max_need = requests
            .iter()
            .map(|r| pages_for(r.prompt_tokens + r.output_tokens, PAGE_TOKENS))
            .max()
            .unwrap();
        let mut last_reject_rate = f64::INFINITY;
        for &pool in pools {
            if let Some(pages) = pool {
                assert!(pages >= max_need, "pool must fit the largest single request");
            }
            let out = run(&requests, pool);
            let kv = &out.report.kv;
            assert_eq!(
                out.report.requests.len(),
                out.admitted,
                "every admitted request must complete"
            );
            let reject_rate = out.rejected as f64 / requests.len() as f64;
            assert!(
                reject_rate <= last_reject_rate,
                "rejection rate must fall monotonically as the pool grows: \
                 {reject_rate} after {last_reject_rate}"
            );
            last_reject_rate = reject_rate;
            if pool.is_none() {
                assert_eq!(kv.preemptions, 0, "unbounded pools never preempt");
                assert_eq!(out.rejected, 0, "unbounded pools never reject");
            }
            table.add_row(vec![
                pressure.to_string(),
                pool.map_or("unbounded".to_string(), |p| p.to_string()),
                pool.map_or("-".to_string(), |p| format!("{:.2}", p as f64 * page_gib)),
                out.admitted.to_string(),
                out.rejected.to_string(),
                format!("{:.0}%", reject_rate * 100.0),
                format!("{:.3}", out.report.throughput_tokens_per_s),
                format!("{:.1}", out.report.ttft.p99),
                kv.preemptions.to_string(),
                format!("{:.2}", kv.preemptions as f64 / out.admitted.max(1) as f64),
                kv.reprefill_tokens.to_string(),
                kv.peak_occupancy().map_or("-".to_string(), |o| format!("{o:.2}")),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "admission bound = one live session per pool page; preemption = recompute-style \
         eviction (evicted sessions re-prefill and still finish)"
    );
}
