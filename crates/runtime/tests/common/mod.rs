//! Shared by the integration suites: a digest of a whole [`RuntimeReport`],
//! the peak KV demand of a workload, and a pre-submitted run.

#![allow(dead_code, reason = "each suite compiles its own copy and uses a subset")]

use mugi_runtime::{pages_for, Executor, Request, RuntimeReport, Scenario};

/// The most KV pages any one of `requests` holds at its peak (its whole
/// prompt plus every output token), at `page_tokens` entries per page.
pub fn peak_pages(requests: &[Request], page_tokens: usize) -> usize {
    let need = |r: &Request| pages_for(r.prompt_tokens + r.output_tokens, page_tokens);
    requests.iter().map(need).max().expect("a workload has at least one request")
}

/// Builds `scenario`'s engine, submits every request up front and runs it
/// to completion.
pub fn run_presubmitted(scenario: &Scenario, requests: &[Request]) -> (Executor, RuntimeReport) {
    let mut ex = scenario.build().unwrap();
    for r in requests {
        ex.submit(*r);
    }
    let report = ex.run();
    (ex, report)
}

/// FNV-1a over every field of `report`, every float via `to_bits`: any
/// perturbation of any per-request statistic, percentile or KV counter —
/// however small — changes the digest.
pub fn report_digest(report: &RuntimeReport) -> u64 {
    let mut words = vec![
        report.makespan_s.to_bits(),
        report.total_output_tokens,
        report.throughput_tokens_per_s.to_bits(),
        report.micro_batches,
        report.ttft.p50.to_bits(),
        report.ttft.p95.to_bits(),
        report.ttft.p99.to_bits(),
        report.tpot.p50.to_bits(),
        report.tpot.p95.to_bits(),
        report.tpot.p99.to_bits(),
        report.nodes as u64,
        report.noc_energy_uj.to_bits(),
    ];
    words.extend(report.noc.bytes().map(u64::from));
    words.extend(&report.node_busy_cycles);
    let kv = &report.kv;
    words.extend([
        kv.page_tokens as u64,
        kv.capacity_pages.map_or(u64::MAX, |c| c),
        kv.peak_used_pages,
        kv.preemptions,
        kv.reprefill_tokens,
        kv.evicted_pages,
        kv.rejected_requests,
        kv.fault_stall_cycles,
        kv.migrations,
        kv.migrated_pages,
        kv.swap_outs,
        kv.swapped_pages,
        kv.transfer_bytes,
        kv.transfer_energy_uj.to_bits(),
        kv.transfer_stall_cycles,
        kv.role_rerolls,
        kv.calibration_samples,
        kv.calibrated_cycles_per_prefill_token.map_or(u64::MAX, |c| c),
    ]);
    for r in &report.requests {
        words.extend([
            r.id.0,
            r.model as u64,
            r.prompt_tokens as u64,
            r.output_tokens as u64,
            r.ttft_s.to_bits(),
            r.tpot_s.to_bits(),
            r.e2e_s.to_bits(),
            r.tokens_per_s.to_bits(),
            r.energy_uj.to_bits(),
            r.noc_energy_uj.to_bits(),
            r.kv_transfer_bytes,
            r.kv_transfer_energy_uj.to_bits(),
            r.micro_batches,
        ]);
    }
    fnv(&words)
}

/// FNV-1a over the little-endian bytes of `words`.
pub fn fnv(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        word.to_le_bytes()
            .iter()
            .fold(hash, |h, &byte| (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
    })
}
