//! KV-pressure integration tests: a deterministic overload of a tiny paged
//! KV pool must preempt sessions — yet every request still completes with
//! exact token accounting, and the report's rejection/preemption counters
//! match hand-computed values.
//!
//! The `soak_*` test is `#[ignore]`d: it runs many pool sizes × policies ×
//! placements and is meant for the CI `--include-ignored` pass, not the
//! default tier-1 loop.

mod common;

use common::{peak_pages, run_presubmitted};
use mugi::arch::noc::NocConfig;
use mugi_runtime::{
    synthetic_requests, Executor, KvConfig, KvFreePages, Placement, Request, Scenario,
    SchedulerConfig, SchedulingPolicy, WorkloadSpec,
};
use mugi_workloads::models::ModelId;

/// A 64-lane engine over `kv` on `placement`.
fn engine_on(kv: KvConfig, placement: Placement) -> Executor {
    Scenario { kv, placement, ..Scenario::new(64) }.build().unwrap()
}

#[test]
fn deterministic_overload_preempts_and_every_request_completes() {
    // 16 decode-heavy requests (prompts 64–256, outputs 48–96) in one burst
    // against a 12-page × 32-token pool: the peak demand of a single
    // request is pages_for(256 + 96) = 11 pages, so the whole population
    // fights over a pool that barely fits one of them.
    let page_tokens = 32;
    let requests = synthetic_requests(11, 16, &[ModelId::Llama2_7b], WorkloadSpec::kv_pressure());
    let max_need = peak_pages(&requests, page_tokens);
    let mut engine =
        engine_on(KvConfig::bounded(page_tokens, max_need + 1), Placement::single_node());
    for r in &requests {
        engine.submit(*r);
    }
    // Each session's final prefill target, read while the session is live:
    // only a preemption sets it, and a preempted session stays live at
    // least until its recompute prefill runs.
    let mut prefill_targets = vec![0; requests.len()];
    while engine.step() {
        for s in engine.scheduler().sessions() {
            prefill_targets[s.id.0 as usize] = s.prefill_target;
        }
    }
    let report = engine.report();
    assert!(engine.scheduler().sessions().is_empty(), "every session retired");

    // Pressure really happened…
    assert!(report.kv.preemptions > 0, "a pool this tight must preempt");
    assert!(report.kv.reprefill_tokens > 0);
    assert!(report.kv.evicted_pages > 0);
    assert_eq!(
        report.kv.fault_stall_cycles,
        report.kv.evicted_pages * Executor::FAULT_STALL_CYCLES,
        "stall cycles are charged per evicted page, nothing else"
    );
    assert_eq!(report.kv.capacity_pages, Some(max_need as u64 + 1));
    assert!(report.kv.peak_used_pages <= max_need as u64 + 1);
    assert!(report.kv.peak_occupancy().unwrap() > 0.9, "the pool ran essentially full");

    // …and yet every request completed with exact token accounting.
    assert_eq!(report.requests.len(), requests.len(), "every request must finish");
    let expected: u64 = requests.iter().map(|r| r.output_tokens as u64).sum();
    assert_eq!(report.total_output_tokens, expected);
    for (stats, request) in report.requests.iter().zip(&requests) {
        assert_eq!(stats.output_tokens, request.output_tokens);
        assert_eq!(stats.prompt_tokens, request.prompt_tokens);
        assert!(stats.ttft_s > 0.0 && stats.e2e_s >= stats.ttft_s);
    }
    // All pages came home.
    assert_eq!(engine.scheduler().kv_used_pages(), 0);
    assert_eq!(engine.kv_free_pages(0).pages(), Some(max_need + 1));
    // Per-request preemption counters sum to the report's, and preempted
    // sessions really did extra prefill work (their final prefill target
    // grew past the plain prompt by the generated entries they rebuilt).
    let preemptions: u64 = report.requests.iter().map(|r| u64::from(r.preemptions)).sum();
    assert_eq!(preemptions, report.kv.preemptions);
    let prompt_total: u64 = requests.iter().map(|r| r.prompt_tokens as u64).sum();
    let prefilled_total: u64 = prefill_targets.iter().map(|&t| t as u64).sum();
    assert!(
        prefilled_total > prompt_total,
        "decode-phase evictions must leave visible re-prefill work"
    );
}

#[test]
fn rejection_count_matches_hand_computed_backpressure() {
    // Queue-depth admission: with a live-session bound of 6 and all 16
    // submissions arriving before the run starts (no session can finish in
    // between), exactly the first 6 are admitted and the remaining 10 are
    // rejected — a value the workload generator can compute by hand.
    let page_tokens = 32;
    let requests = synthetic_requests(5, 16, &[ModelId::Llama2_7b], WorkloadSpec::kv_pressure());
    let bound = 6;
    let kv = KvConfig::bounded(page_tokens, 16).with_max_live_sessions(bound);
    let mut engine = engine_on(kv, Placement::single_node());
    let mut admitted = 0usize;
    let mut rejected = 0usize;
    for r in &requests {
        match engine.try_submit(*r) {
            Ok(_) => admitted += 1,
            Err(e) => {
                rejected += 1;
                assert!(e.to_string().contains("queue full"), "{e}");
            }
        }
    }
    assert_eq!(admitted, bound);
    assert_eq!(rejected, requests.len() - bound);
    let report = engine.run();
    assert_eq!(report.kv.rejected_requests, rejected as u64);
    assert_eq!(report.requests.len(), bound, "every admitted request completes");
}

#[test]
fn hand_computed_preemption_counters() {
    // The fully hand-traceable scenario (same arithmetic as the scheduler
    // unit test, here end-to-end through the executor with stall charging).
    // Pool: 4 pages × 4 tokens. Two requests r0/r1, prompt 4, output 8,
    // max_batch 2, budget 8, chunk 4:
    //
    // * both prefill together (2 pages each: 4-token prompt + the emitted
    //   first token), pool full;
    // * both decode in lockstep while their KV grows 5 → 8 entries inside
    //   the two pages;
    // * at KV 8→9 the older r0 needs a third page: the pool is dry, so the
    //   younger holder r1 is evicted — 1 preemption, 2 pages, and its full
    //   8-entry KV (prompt 4 + 4 generated) becomes re-prefill debt;
    // * r1 re-prefills in 4-token chunks as pages free up and still
    //   finishes all 8 tokens.
    let fault = Executor::FAULT_STALL_CYCLES;
    let scheduler = SchedulerConfig {
        max_batch: 2,
        token_budget: 8,
        prefill_chunk: 4,
        policy: SchedulingPolicy::Fcfs,
        ..SchedulerConfig::default()
    };
    let scenario = Scenario { scheduler, kv: KvConfig::bounded(4, 4), ..Scenario::new(64) };
    let report = run_presubmitted(&scenario, &[Request::new(ModelId::Llama2_7b, 4, 8); 2]).1;
    assert_eq!(report.kv.preemptions, 1);
    assert_eq!(report.kv.evicted_pages, 2);
    assert_eq!(report.kv.reprefill_tokens, 8);
    assert_eq!(report.kv.rejected_requests, 0);
    assert_eq!(report.kv.fault_stall_cycles, 2 * fault);
    assert_eq!(report.total_output_tokens, 16, "token accounting is exact");
    let requests = &report.requests;
    assert_eq!(requests[0].preemptions, 0, "the oldest session is never evicted");
    assert_eq!(requests[1].preemptions, 1);
}

#[test]
fn pressure_costs_latency_but_not_tokens() {
    // The same workload through a tight pool and an unbounded one: identical
    // tokens out, strictly larger makespan under pressure (re-prefill work
    // plus fault stalls are pure overhead).
    let page_tokens = 32;
    let requests = synthetic_requests(11, 12, &[ModelId::Llama2_7b], WorkloadSpec::kv_pressure());
    let max_need = peak_pages(&requests, page_tokens);
    let run = |kv| run_presubmitted(&Scenario { kv, ..Scenario::new(64) }, &requests).1;
    let tight = run(KvConfig::bounded(page_tokens, max_need));
    let roomy = run(KvConfig { page_tokens, ..KvConfig::unbounded() });
    assert!(tight.kv.preemptions > 0);
    assert_eq!(roomy.kv.preemptions, 0);
    assert_eq!(tight.total_output_tokens, roomy.total_output_tokens);
    assert!(
        tight.makespan_s > roomy.makespan_s,
        "pressure must cost simulated time: {} vs {}",
        tight.makespan_s,
        roomy.makespan_s
    );
}

#[test]
#[ignore = "slow soak; run with --include-ignored (CI does)"]
fn soak_pool_sizes_policies_and_placements_all_drain() {
    // A broad invariant sweep: several pool sizes under both scheduling
    // policies and all placement flavours must drain a 32-request two-model
    // workload with exact accounting and zero leaked pages.
    let page_tokens = 64;
    let models = [ModelId::Llama2_7b, ModelId::Llama2_13b];
    let requests = synthetic_requests(7, 32, &models, WorkloadSpec::kv_pressure());
    let max_need = peak_pages(&requests, page_tokens);
    let expected: u64 = requests.iter().map(|r| r.output_tokens as u64).sum();
    let placements = [
        Placement::single_node(),
        Placement::data_parallel(NocConfig { rows: 2, cols: 2 }),
        Placement::sharded(NocConfig { rows: 2, cols: 2 }),
    ];
    for policy in [SchedulingPolicy::Fcfs, SchedulingPolicy::ShortestPrefillFirst] {
        for extra in [0, 2, 8, 64] {
            for placement in placements {
                let scenario = Scenario {
                    scheduler: SchedulerConfig { policy, ..SchedulerConfig::default() },
                    kv: KvConfig::bounded(page_tokens, max_need + extra),
                    placement,
                    ..Scenario::new(64)
                };
                let (engine, report) = run_presubmitted(&scenario, &requests);
                let label = format!("{policy:?} +{extra} pages {}", placement.label());
                assert_eq!(report.requests.len(), requests.len(), "{label}");
                assert_eq!(report.total_output_tokens, expected, "{label}");
                assert_eq!(engine.scheduler().kv_used_pages(), 0, "{label}: leaked pages");
                assert!(
                    report.kv.peak_used_pages <= report.kv.capacity_pages.unwrap(),
                    "{label}: over capacity"
                );
            }
        }
    }
}

/// Regression for the `unwrap_or(usize::MAX)` placement bug: both engines'
/// idle-node sorts rank nodes by `Executor::kv_free_pages`, which used to
/// answer `None` for an out-of-range pool index — indistinguishable from an
/// unbounded pool, so an indexing bug would silently rank the broken node
/// as infinitely free. Valid indices must answer with the real headroom on
/// every node of a bounded multi-pool placement.
#[test]
fn idle_sort_headroom_is_bounded_on_every_valid_node() {
    let dp = Placement::data_parallel(NocConfig { rows: 2, cols: 2 });
    let mut ex = engine_on(KvConfig::bounded(32, 8), dp);
    ex.submit(Request::new(ModelId::Llama2_7b, 16, 1));
    for node in 0..4 {
        assert_eq!(
            ex.kv_free_pages(node),
            KvFreePages::Pages(8),
            "node {node} must report its own bounded pool"
        );
    }
    // Unbounded configurations keep the explicit unbounded state instead.
    let unb = engine_on(KvConfig::unbounded(), dp);
    assert_eq!(unb.kv_free_pages(3), KvFreePages::Unbounded);
}

/// The other half of the regression: an out-of-range node→pool mapping now
/// fails loudly at the shared accessor both idle sorts go through.
#[test]
#[should_panic(expected = "out of range")]
fn idle_sort_headroom_panics_past_the_last_bounded_pool() {
    let ex = engine_on(
        KvConfig::bounded(32, 8),
        Placement::data_parallel(NocConfig { rows: 2, cols: 2 }),
    );
    let _ = ex.kv_free_pages(4); // one past the 2x2 mesh
}
