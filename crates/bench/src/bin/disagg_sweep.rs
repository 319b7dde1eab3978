//! Prefill/decode disaggregation sweep: decode-tail latency and KV-transfer
//! cost across mesh splits, against the colocated baselines, plus
//! recompute-style versus swap-style preemption under KV pressure — the
//! numbers behind the "Prefill/decode disaggregation" section of
//! EXPERIMENTS.md.
//!
//! Two tables:
//!
//! 1. **Placement sweep** — a mixed long-prefill stream (768–2048-token
//!    prompts arriving throughout the run) over one 4×4 mesh: colocated
//!    data-parallel versus several prefill/decode splits. Colocated batches
//!    mix 512-token prefill chunks into nearly every decode step, so decode
//!    TPOT carries prefill latency; the disaggregated splits keep decode
//!    steps pure and pay an itemized KV-migration cost instead. The
//!    acceptance assertion at the bottom requires the split to beat the
//!    colocated decode TPOT p95.
//! 2. **Preemption sweep** — the same stream through tight per-node KV
//!    pools: recompute preemption (drop + re-prefill) versus swap
//!    preemption (page out over the NoC, page back in later), with the
//!    re-prefill tokens and transfer bytes each mode pays.
//!
//! Run with: `cargo run --release -p mugi-bench --bin disagg_sweep`
//! (pass `--quick` for a reduced sweep).

use mugi::arch::noc::NocConfig;
use mugi::report::TextTable;
use mugi::MugiAccelerator;
use mugi_runtime::{
    pages_for, synthetic_requests, Executor, ExecutorConfig, KvConfig, Placement, Request,
    RuntimeReport, Scheduler, SchedulerConfig, WorkloadSpec,
};
use mugi_workloads::models::ModelId;

const MODEL: ModelId = ModelId::Llama2_7b;

fn run(requests: &[Request], placement: Placement, kv: KvConfig) -> RuntimeReport {
    let mut engine = Executor::with_placement(
        MugiAccelerator::new(128),
        Scheduler::with_kv(SchedulerConfig::default(), kv),
        ExecutorConfig { kv_bucket: kv.page_tokens, ..ExecutorConfig::default() },
        placement,
    );
    for r in requests {
        engine.submit(*r);
    }
    engine.run()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let count = if quick { 24 } else { 48 };
    let requests =
        synthetic_requests(13, count, &[MODEL], WorkloadSpec::mixed_long_prefill(40_000_000));
    let noc = NocConfig::mesh_4x4();

    // Table 1: colocated vs disaggregated splits, unbounded KV.
    let mut table = TextTable::new(
        format!(
            "Disaggregation sweep: {count} mixed long-prefill requests (768-2048-token \
             prompts), Llama 2 7B, Mugi(128) nodes on a 4x4 mesh"
        ),
        &[
            "placement",
            "TTFT p50 (s)",
            "TTFT p95 (s)",
            "TPOT p50 (s)",
            "TPOT p95 (s)",
            "tokens/s",
            "migrations",
            "KV moved (MiB)",
            "transfer (µJ)",
            "xfer stalls (kcyc)",
        ],
    );
    let splits: &[usize] = if quick { &[8] } else { &[4, 8, 12] };
    let colocated = run(&requests, Placement::data_parallel(noc), KvConfig::unbounded());
    let mut best_disagg_tpot_p95 = f64::INFINITY;
    let mut row = |label: String, report: &RuntimeReport| {
        table.add_row(vec![
            label,
            format!("{:.1}", report.ttft.p50),
            format!("{:.1}", report.ttft.p95),
            format!("{:.3}", report.tpot.p50),
            format!("{:.3}", report.tpot.p95),
            format!("{:.3}", report.throughput_tokens_per_s),
            report.kv.migrations.to_string(),
            format!("{:.0}", report.kv.transfer_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.3}", report.kv.transfer_energy_uj),
            format!("{:.1}", report.kv.transfer_stall_cycles as f64 / 1000.0),
        ]);
    };
    row("4x4 data-parallel (colocated)".to_string(), &colocated);
    for &prefill_nodes in splits {
        let placement = Placement::disaggregated(noc, prefill_nodes);
        let report = run(&requests, placement, KvConfig::unbounded());
        assert_eq!(
            report.total_output_tokens, colocated.total_output_tokens,
            "disaggregation must conserve tokens"
        );
        assert!(report.kv.migrations > 0, "completed prefills must migrate, not recompute");
        best_disagg_tpot_p95 = best_disagg_tpot_p95.min(report.tpot.p95);
        row(placement.label(), &report);
    }
    println!("{}", table.render());
    println!(
        "decode TPOT p95: colocated {:.3} s vs best disaggregated {:.3} s ({:.2}x)",
        colocated.tpot.p95,
        best_disagg_tpot_p95,
        colocated.tpot.p95 / best_disagg_tpot_p95,
    );
    assert!(
        best_disagg_tpot_p95 < colocated.tpot.p95,
        "disaggregated placement must improve decode TPOT p95 over colocated: {best_disagg_tpot_p95} vs {}",
        colocated.tpot.p95
    );

    // Table 2: recompute vs swap preemption under decode-side KV pressure.
    // Long generations on fine-grained pages make the decode pool the
    // contended resource: sessions arrive small after their handoff and
    // keep growing, so decode growth — not prefill admission — is what
    // preempts, which is exactly where swap and recompute diverge.
    let page_tokens = 32;
    let pressure_count = if quick { 16 } else { 32 };
    let pressure = synthetic_requests(11, pressure_count, &[MODEL], WorkloadSpec::kv_pressure());
    let max_need = pressure
        .iter()
        .map(|r| pages_for(r.prompt_tokens + r.output_tokens, page_tokens))
        .max()
        .unwrap();
    let placement = Placement::disaggregated(NocConfig { rows: 2, cols: 2 }, 2);
    let mut table = TextTable::new(
        format!(
            "Preemption under pressure: {pressure_count} decode-heavy requests (48-96 output \
             tokens), {}-page pools ({page_tokens}-token pages), {}",
            max_need + 2,
            placement.label()
        ),
        &[
            "preemption",
            "preempt",
            "re-prefill tok",
            "swap-outs",
            "KV moved (MiB)",
            "TPOT p95 (s)",
            "tokens/s",
            "makespan (s)",
        ],
    );
    let bounded = KvConfig::bounded(page_tokens, max_need + 2);
    let recompute = run(&pressure, placement, bounded);
    let swap = run(&pressure, placement, bounded.with_swap_preemption());
    for (label, report) in [("recompute", &recompute), ("swap", &swap)] {
        table.add_row(vec![
            label.to_string(),
            report.kv.preemptions.to_string(),
            report.kv.reprefill_tokens.to_string(),
            report.kv.swap_outs.to_string(),
            format!("{:.0}", report.kv.transfer_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.3}", report.tpot.p95),
            format!("{:.3}", report.throughput_tokens_per_s),
            format!("{:.1}", report.makespan_s),
        ]);
    }
    println!("{}", table.render());
    assert_eq!(recompute.total_output_tokens, swap.total_output_tokens);
    assert!(swap.kv.swap_outs > 0, "decode-pool pressure must trigger swap-outs");
    assert!(
        swap.kv.reprefill_tokens < recompute.kv.reprefill_tokens,
        "swapping must owe less recompute than recomputing: {} vs {}",
        swap.kv.reprefill_tokens,
        recompute.kv.reprefill_tokens
    );
    println!(
        "swap preemption trades {} re-prefill tokens for {:.0} MiB of NoC traffic",
        recompute.kv.reprefill_tokens - swap.kv.reprefill_tokens,
        (swap.kv.transfer_bytes.saturating_sub(recompute.kv.transfer_bytes)) as f64
            / (1024.0 * 1024.0),
    );
}
