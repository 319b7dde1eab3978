//! Prefill/decode disaggregation integration tests: bit-identity of
//! colocated placements against pre-refactor golden outputs, hand-computed
//! KV-migration transfer energy/stall counters, swap-style versus
//! recompute-style preemption, and folded session retirement.

mod common;

use common::{peak_pages, run_presubmitted};
use mugi::arch::noc::NocConfig;
use mugi_runtime::{
    synthetic_requests, DecodeOrder, KvConfig, Placement, Request, RuntimeReport, Scenario,
    SchedulerConfig, StatsFold, WorkloadSpec, KV_BITS,
};
use mugi_workloads::models::ModelId;

const MODEL: ModelId = ModelId::Llama2_7b;

/// 64-lane nodes on `placement` with the pre-refactor FCFS decode order —
/// the exact scheduler the golden values below were captured from.
fn fcfs(kv: KvConfig, placement: Placement) -> Scenario {
    let scheduler =
        SchedulerConfig { decode_order: DecodeOrder::Fcfs, ..SchedulerConfig::default() };
    Scenario { scheduler, kv, placement, ..Scenario::new(64) }
}

/// 64-lane nodes with default scheduling over `kv` on `placement`.
fn on(kv: KvConfig, placement: Placement) -> Scenario {
    Scenario { kv, placement, ..Scenario::new(64) }
}

/// Collapses a report to the bit patterns the golden test pins: every float
/// is compared via `to_bits`, so any perturbation — however small — fails.
fn fingerprint(report: &RuntimeReport) -> Vec<u64> {
    let energy_sum: f64 = report.requests.iter().map(|r| r.energy_uj).sum();
    let noc_sum: f64 = report.requests.iter().map(|r| r.noc_energy_uj).sum();
    let ttft_sum: f64 = report.requests.iter().map(|r| r.ttft_s).sum();
    vec![
        report.makespan_s.to_bits(),
        report.throughput_tokens_per_s.to_bits(),
        report.ttft.p50.to_bits(),
        report.ttft.p99.to_bits(),
        report.tpot.p50.to_bits(),
        report.tpot.p95.to_bits(),
        energy_sum.to_bits(),
        noc_sum.to_bits(),
        ttft_sum.to_bits(),
        report.micro_batches,
        report.total_output_tokens,
        report.kv.peak_used_pages,
        report.kv.preemptions,
        report.kv.reprefill_tokens,
        report.kv.evicted_pages,
        report.kv.fault_stall_cycles,
    ]
}

#[test]
fn colocated_placements_match_pre_refactor_goldens_bit_for_bit() {
    // The values below were captured from the pre-disaggregation build
    // (commit d77bc82) running the exact same scenarios. With the FCFS
    // decode order pinned, the refactored runtime must reproduce every
    // float bit for bit on every colocated placement — proof that the
    // pool-role / migration plumbing is inert unless a disaggregated
    // placement switches it on. The ttft/tpot percentile
    // entries were re-captured when `Percentiles::of` moved to true
    // nearest-rank (the p50 — and at n = 16 the p95 — rank legitimately
    // shifts one element); every simulation entry is the original capture.

    // Scenario A: single node, unbounded pool, 24 one-model requests so the
    // decode population (24) exceeds max_batch (16) and decode ordering
    // genuinely binds.
    let requests = synthetic_requests(11, 24, &[MODEL], WorkloadSpec::kv_pressure());
    let scenario = fcfs(KvConfig::unbounded(), Placement::single_node());
    assert_eq!(
        fingerprint(&run_presubmitted(&scenario, &requests).1),
        vec![
            0x409bd459ab6d00b4,
            0x3fef3e6bbf0c9c77,
            0x4080578aee301ed7,
            0x40959b8d927a408e,
            0x40231ca0b1e245ae,
            0x402699c304633574,
            0x4185921485d0f8bb,
            0x0,
            0x40d135bd3b3f1b49,
            157,
            1739,
            0,
            0,
            0,
            0,
            0,
        ],
        "single-node colocated run diverged from the pre-refactor golden"
    );

    // Scenario B: data-parallel 2x2 with a bounded pool under real
    // preemption pressure, two models.
    let page_tokens = 32;
    let models = [ModelId::Llama2_7b, ModelId::Llama2_13b];
    let requests = synthetic_requests(7, 20, &models, WorkloadSpec::kv_pressure());
    let max_need = peak_pages(&requests, page_tokens);
    let scenario = fcfs(
        KvConfig::bounded(page_tokens, max_need + 2),
        Placement::data_parallel(NocConfig { rows: 2, cols: 2 }),
    );
    assert_eq!(
        fingerprint(&run_presubmitted(&scenario, &requests).1),
        vec![
            0x409c992e107ed345,
            0x3fea666e015ae7c3,
            0x40799899afe9e811,
            0x40937856a4bce34b,
            0x40183ff03f7bbe1a,
            0x40242ff3a1d5c336,
            0x41a446a0db83dafa,
            0x4062508ce04db30f,
            0x40c582e40ed5b0cc,
            1174,
            1510,
            52,
            12,
            1887,
            64,
            16384,
        ],
        "bounded data-parallel run diverged from the pre-refactor golden"
    );

    // Scenario C: sharded 2x2, unbounded.
    let requests = synthetic_requests(3, 16, &models, WorkloadSpec::default());
    let scenario = fcfs(KvConfig::unbounded(), Placement::sharded(NocConfig { rows: 2, cols: 2 }));
    assert_eq!(
        fingerprint(&run_presubmitted(&scenario, &requests).1),
        vec![
            0x40839f2c5cc57dce,
            0x3fe0832435b68b66,
            0x407912637818c06b,
            0x407e5f0f76425189,
            0x40256107ef9f7c4f,
            0x40524bb95b236fcf,
            0x418b36d3aa16905e,
            0x40dae5d8a1ed2532,
            0x40b389c73cc52d46,
            81,
            324,
            0,
            0,
            0,
            0,
            0,
        ],
        "sharded run diverged from the pre-refactor golden"
    );
}

#[test]
fn prefill_completion_migrates_kv_with_hand_computed_transfer_costs() {
    // One prefill node, one decode node, unbounded pool. Session a
    // (prompt 100, output 4) completes its prefill in one chunk, emits its
    // first token and must migrate kv_len = 101 entries to the decode node;
    // session b (prompt 50, output 1) finishes *at* prefill completion and
    // must not migrate at all.
    let noc = NocConfig { rows: 2, cols: 1 };
    let mut ex = on(KvConfig::unbounded(), Placement::disaggregated(noc, 1)).build().unwrap();
    let a = ex.submit(Request::new(MODEL, 100, 4));
    let b = ex.submit(Request::new(MODEL, 50, 1));
    let report = ex.run();

    assert_eq!(report.requests.len(), 2);
    assert_eq!(report.total_output_tokens, 5, "token conservation across the handoff");

    // Exactly one migration: a's 101-entry KV in one 128-token page.
    let bytes = MODEL.config().kv_cache_bytes(101, KV_BITS);
    assert_eq!(report.kv.migrations, 1);
    assert_eq!(report.kv.migrated_pages, 1, "101 entries fit one 128-token page");
    assert_eq!(report.kv.transfer_bytes, bytes);
    assert_eq!(report.kv.transfer_stall_cycles, noc.transfer_cycles(bytes));
    assert_eq!(report.kv.swap_outs, 0);
    let cost = ex.accelerator().cost_model();
    let expected_uj = noc.transfer_energy_pj(bytes, &cost) * 1e-6;
    assert!((report.kv.transfer_energy_uj - expected_uj).abs() < 1e-12);

    // The transfer is itemized per request: a pays, b does not.
    let ra = &report.requests[a.0 as usize];
    let rb = &report.requests[b.0 as usize];
    assert_eq!(ra.kv_transfer_bytes, bytes);
    assert!((ra.kv_transfer_energy_uj - expected_uj).abs() < 1e-12);
    assert_eq!(rb.kv_transfer_bytes, 0);
    assert_eq!(rb.kv_transfer_energy_uj, 0.0);
    assert_eq!(ra.migrations, 1);
    assert_eq!(rb.migrations, 0);
    assert_eq!(ex.pending_migration_count(), 0, "no migration may be left behind");
}

/// Runs the hand-traceable two-request overload on a 1-prefill/1-decode
/// mesh with 4-token pages and 4-page pools.
fn run_two_request_disagg(kv: KvConfig) -> RuntimeReport {
    let scheduler = SchedulerConfig {
        max_batch: 2,
        token_budget: 8,
        prefill_chunk: 4,
        ..SchedulerConfig::default()
    };
    let placement = Placement::disaggregated(NocConfig { rows: 2, cols: 1 }, 1);
    let scenario = Scenario { scheduler, kv, placement, ..Scenario::new(64) };
    run_presubmitted(&scenario, &[Request::new(MODEL, 4, 8); 2]).1
}

#[test]
fn swap_preemption_trades_recompute_for_hand_computed_transfers() {
    // Both requests prefill together on the prefill node (2 pages each,
    // kv = 5 after the emitted first token), migrate to the decode node and
    // decode in lockstep until r0's KV crosses 8 entries and needs a third
    // page from the dry decode pool.
    //
    // Under recompute preemption r1 is evicted: it drops its 2 pages,
    // re-prefills its whole 8-entry KV on the prefill node and migrates a
    // second time. Under swap preemption r1's 2 pages are paged *out* to
    // the prefill pool instead (8 KV entries over the NoC), kept intact,
    // and paged back in once r0 finishes — no re-prefill at all.
    let bytes5 = MODEL.config().kv_cache_bytes(5, KV_BITS);
    let bytes8 = MODEL.config().kv_cache_bytes(8, KV_BITS);

    let recompute = run_two_request_disagg(KvConfig::bounded(4, 4));
    assert_eq!(recompute.total_output_tokens, 16);
    assert_eq!(recompute.kv.preemptions, 1);
    assert_eq!(recompute.kv.evicted_pages, 2);
    assert_eq!(recompute.kv.reprefill_tokens, 8);
    assert_eq!(recompute.kv.swap_outs, 0);
    // Handoffs: r0 and r1 at kv 5, plus r1 again at kv 8 after recompute.
    assert_eq!(recompute.kv.migrations, 3);
    assert_eq!(recompute.kv.migrated_pages, 6);
    assert_eq!(recompute.kv.transfer_bytes, 2 * bytes5 + bytes8);
    let r = &recompute.requests;
    assert_eq!(r[0].preemptions, 0, "the oldest session is never evicted");
    assert_eq!(r[1].preemptions, 1);
    assert_eq!((r[0].migrations, r[1].migrations), (1, 2));

    let swap = run_two_request_disagg(KvConfig::bounded(4, 4).with_swap_preemption());
    assert_eq!(swap.total_output_tokens, 16);
    assert_eq!(swap.kv.preemptions, 0, "swap replaces every recompute eviction here");
    assert_eq!(swap.kv.evicted_pages, 0);
    assert_eq!(swap.kv.reprefill_tokens, 0);
    assert_eq!(swap.kv.fault_stall_cycles, 0);
    assert_eq!(swap.kv.swap_outs, 1);
    assert_eq!(swap.kv.swapped_pages, 2);
    // Handoffs: r0 and r1 at kv 5, r1's swap-in at kv 8; plus the swap-out
    // itself at kv 8.
    assert_eq!(swap.kv.migrations, 3);
    assert_eq!(swap.kv.transfer_bytes, 2 * bytes5 + 2 * bytes8);
    let noc = NocConfig { rows: 2, cols: 1 };
    let expected_stalls = noc.transfer_cycles(bytes5) * 2 // handoffs
        + noc.transfer_cycles(bytes8)                     // swap-out
        + noc.transfer_cycles(bytes8); // swap-in
    assert_eq!(swap.kv.transfer_stall_cycles, expected_stalls);
    let r = &swap.requests;
    assert_eq!(r[1].swap_outs, 1);
    assert_eq!(r[1].preemptions, 0);
    assert_eq!((r[0].migrations, r[1].migrations), (1, 2));

    // The whole point: swapping pays bytes instead of recomputed tokens.
    assert!(swap.kv.reprefill_tokens < recompute.kv.reprefill_tokens);
    assert!(swap.kv.transfer_bytes > recompute.kv.transfer_bytes);
}

#[test]
fn disaggregation_beats_colocated_decode_tpot_under_long_prefills() {
    // A mixed long-prefill stream: under colocated data-parallel placement
    // nearly every micro-batch mixes a 512-token prefill chunk in with the
    // decode slots, so every decode token pays a prefill-sized step. The
    // disaggregated split keeps decode steps pure and must cut decode TPOT
    // p95 by a wide margin on the same mesh.
    let requests =
        synthetic_requests(13, 24, &[MODEL], WorkloadSpec::mixed_long_prefill(40_000_000));
    let run = |placement| run_presubmitted(&on(KvConfig::unbounded(), placement), &requests).1;
    let noc = NocConfig { rows: 2, cols: 2 };
    let colocated = run(Placement::data_parallel(noc));
    let disagg = run(Placement::disaggregated(noc, 2));
    assert_eq!(disagg.total_output_tokens, colocated.total_output_tokens);
    assert!(
        disagg.tpot.p95 < colocated.tpot.p95,
        "disaggregation must improve decode TPOT p95: {} vs {}",
        disagg.tpot.p95,
        colocated.tpot.p95
    );
    assert!(disagg.kv.migrations > 0, "handoffs must actually happen");
    assert_eq!(colocated.kv.migrations, 0, "colocated runs never migrate");
}

#[test]
fn incremental_retirement_matches_the_unretired_report() {
    // Both paths retire each session as it finishes; folding its statistics
    // into a `StatsFold` instead of keeping them changes no value: the
    // folded run of a disaggregated workload equals the fold of the full
    // report of the same run, and both empty the scheduler's session window
    // instead of growing it with every submission.
    let requests = synthetic_requests(9, 32, &[MODEL], WorkloadSpec::default());
    let scenario =
        on(KvConfig::unbounded(), Placement::disaggregated(NocConfig { rows: 2, cols: 2 }, 2));
    let build = || scenario.build().unwrap();
    let mut keep = build();
    let full = keep.run_stream(requests.iter().copied());
    let mut retire = build();
    let folded = retire.run_stream_folded(requests.iter().copied());
    assert_eq!(folded.fold, StatsFold::of_report(&full), "retirement must not perturb any stat");
    assert_eq!(folded.micro_batches, full.micro_batches);
    assert_eq!(folded.makespan_s.to_bits(), full.makespan_s.to_bits());
    assert_eq!(folded.kv, full.kv);
    assert!(full.kv.migrations > 0, "the workload must exercise the handoff");
    assert_eq!(full.requests.len(), requests.len());
    for sched in [keep.scheduler(), retire.scheduler()] {
        assert_eq!(sched.sessions().len(), 0, "both paths retire every finished session");
        assert_eq!(sched.retired_session_count(), requests.len());
        assert_eq!(sched.submitted_count(), requests.len());
        assert!(sched.all_finished());
    }
}

#[test]
fn disaggregated_bounded_pools_conserve_tokens_and_pages() {
    // A decode-heavy overload across a 2-prefill/2-decode mesh with tight
    // per-node pools: every request must finish whichever preemption mode
    // is in force, and every page must come home.
    let page_tokens = 32;
    let requests = synthetic_requests(11, 16, &[MODEL], WorkloadSpec::kv_pressure());
    let max_need = peak_pages(&requests, page_tokens);
    let expected: u64 = requests.iter().map(|r| r.output_tokens as u64).sum();
    for swap in [false, true] {
        let kv = if swap {
            KvConfig::bounded(page_tokens, max_need + 1).with_swap_preemption()
        } else {
            KvConfig::bounded(page_tokens, max_need + 1)
        };
        let placement = Placement::disaggregated(NocConfig { rows: 2, cols: 2 }, 2);
        let (ex, report) = run_presubmitted(&on(kv, placement), &requests);
        let label = if swap { "swap" } else { "recompute" };
        assert_eq!(report.requests.len(), requests.len(), "{label}");
        assert_eq!(report.total_output_tokens, expected, "{label}");
        assert_eq!(ex.scheduler().kv_used_pages(), 0, "{label}: leaked pages");
        assert_eq!(ex.pending_migration_count(), 0, "{label}: stranded migration");
        assert!(report.kv.migrations >= requests.len() as u64, "{label}: every prefill hands off");
        assert!(report.kv.transfer_bytes > 0, "{label}");
    }
}
