//! Serving-loop equivalence suite: golden bit-identity tests captured from
//! the pre-refactor per-step runtime (commit e0e057f), a streaming-workload
//! determinism test, streamed runs that end on a rejected arrival, and the
//! 1M-request soak proving memory stays bounded.
//!
//! The golden fingerprints below were captured by running the per-step
//! `Executor` at commit e0e057f on the exact scenarios in this file: every
//! float is pinned via `to_bits`, so any perturbation — however small —
//! fails. The executor must keep reproducing each one exactly (FP-sum order
//! preserved), which proves that reorganizing the serving loop changes
//! *how* the simulation is driven, never *what* it computes.

mod common;

use common::{peak_pages, report_digest, run_presubmitted};
use mugi::arch::noc::NocConfig;
use mugi_runtime::{
    synthetic_requests, KvConfig, Placement, Request, RuntimeReport, Scenario, SloConfig,
    StatsFold, WorkloadSpec, WorkloadStream,
};
use mugi_workloads::models::ModelId;

const MODEL: ModelId = ModelId::Llama2_7b;

/// Collapses a report to the bit patterns the golden tests pin: every float
/// is compared via `to_bits`, so any perturbation — however small — fails.
fn fingerprint(report: &RuntimeReport) -> Vec<u64> {
    let energy_sum: f64 = report.requests.iter().map(|r| r.energy_uj).sum();
    let noc_sum: f64 = report.requests.iter().map(|r| r.noc_energy_uj).sum();
    let ttft_sum: f64 = report.requests.iter().map(|r| r.ttft_s).sum();
    let kv_energy_sum: f64 = report.requests.iter().map(|r| r.kv_transfer_energy_uj).sum();
    vec![
        report.requests.len() as u64,
        report.makespan_s.to_bits(),
        report.throughput_tokens_per_s.to_bits(),
        report.ttft.p50.to_bits(),
        report.ttft.p95.to_bits(),
        report.ttft.p99.to_bits(),
        report.tpot.p50.to_bits(),
        report.tpot.p95.to_bits(),
        report.tpot.p99.to_bits(),
        energy_sum.to_bits(),
        noc_sum.to_bits(),
        ttft_sum.to_bits(),
        kv_energy_sum.to_bits(),
        report.noc_energy_uj.to_bits(),
        report.micro_batches,
        report.total_output_tokens,
        report.kv.peak_used_pages,
        report.kv.preemptions,
        report.kv.reprefill_tokens,
        report.kv.evicted_pages,
        report.kv.fault_stall_cycles,
        report.kv.migrations,
        report.kv.migrated_pages,
        report.kv.swap_outs,
        report.kv.swapped_pages,
        report.kv.transfer_bytes,
        report.kv.transfer_energy_uj.to_bits(),
        report.kv.transfer_stall_cycles,
    ]
}

/// One golden case: a workload plus the engine it runs on, of 64-lane
/// nodes.
struct Golden {
    name: &'static str,
    requests: Vec<Request>,
    scenario: Scenario,
}

/// The four golden cases, one per placement policy family. Each is
/// deliberately overloaded enough that its policy's machinery genuinely
/// binds (decode rotation, preemption, tiling, migration + swap).
fn scenarios() -> Vec<Golden> {
    let mut out = Vec::new();
    let on = |placement, kv| Scenario { kv, placement, ..Scenario::new(64) };

    // A: single node, unbounded pool, 24 one-model requests so the decode
    // population (24) exceeds max_batch (16) and decode rotation binds.
    out.push(Golden {
        name: "single-node",
        requests: synthetic_requests(21, 24, &[MODEL], WorkloadSpec::kv_pressure()),
        scenario: Scenario::new(64),
    });

    // B: data-parallel 2x2 with bounded per-node pools under real
    // preemption pressure, two models.
    let page_tokens = 32;
    let models = [ModelId::Llama2_7b, ModelId::Llama2_13b];
    let requests = synthetic_requests(7, 20, &models, WorkloadSpec::kv_pressure());
    let max_need = peak_pages(&requests, page_tokens);
    out.push(Golden {
        name: "dp-bounded-kv",
        requests,
        scenario: on(
            Placement::data_parallel(NocConfig { rows: 2, cols: 2 }),
            KvConfig::bounded(page_tokens, max_need + 2),
        ),
    });

    // C: sharded 2x2, unbounded, staggered arrivals.
    out.push(Golden {
        name: "sharded",
        requests: synthetic_requests(
            3,
            16,
            &models,
            WorkloadSpec { arrival_spread_cycles: 30_000_000, ..WorkloadSpec::default() },
        ),
        scenario: on(Placement::sharded(NocConfig { rows: 2, cols: 2 }), KvConfig::unbounded()),
    });

    // D: disaggregated 2p2d on a 2x2 mesh, bounded pools, swap-style
    // preemption — migrations, swap-outs and swap-ins all exercised.
    let requests = synthetic_requests(11, 16, &[MODEL], WorkloadSpec::kv_pressure());
    let max_need = peak_pages(&requests, page_tokens);
    out.push(Golden {
        name: "disagg-swap",
        requests,
        scenario: on(
            Placement::disaggregated(NocConfig { rows: 2, cols: 2 }, 2),
            KvConfig::bounded(page_tokens, max_need + 1).with_swap_preemption(),
        ),
    });

    out
}

/// Golden fingerprints captured from the per-step executor at commit
/// e0e057f, in `scenarios()` order. The six percentile entries (indices
/// 3–8) were re-captured when `Percentiles::of` was fixed to true
/// nearest-rank: at these population sizes the p50 rank (and, at n = 16,
/// the p95 rank) legitimately moves one element. Every simulation entry —
/// makespan, throughput, energy and NoC sums, all KV counters — is
/// untouched from the e0e057f capture, which is what pins the simulation
/// itself as bit-identical.
fn golden(name: &str) -> Vec<u64> {
    match name {
        "single-node" => vec![
            0x0000000000000018,
            0x409aa32e019b0ab3,
            0x3ff00a1a6ece3a00,
            0x40805771ebaab372,
            0x409546d8dfaa9ffc,
            0x40962f40748f4909,
            0x40234d64cc0da2b7,
            0x4027c1481a5955eb,
            0x4027d24d39ba03be,
            0x41846d170ce08724,
            0x0000000000000000,
            0x40d1955e1e15bfb0,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000095,
            0x00000000000006ad,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
        "dp-bounded-kv" => vec![
            0x0000000000000014,
            0x409bb4c9fe7109ad,
            0x3feb400dd8ffa8f1,
            0x40799899afe9e811,
            0x409293f292af19b4,
            0x40932dcb38c34006,
            0x40192f19fcc7a70e,
            0x40231328267217eb,
            0x402727530d406f2b,
            0x41a4b2640bc58018,
            0x40636303db56d349,
            0x40c543a4f6b62a4a,
            0x0000000000000000,
            0x40636303db56d348,
            0x000000000000048e,
            0x00000000000005e6,
            0x0000000000000034,
            0x000000000000000e,
            0x00000000000008bc,
            0x000000000000004c,
            0x0000000000004c00,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
        "sharded" => vec![
            0x0000000000000010,
            0x40817918445ea9af,
            0x3fe5762ec5028bcb,
            0x40703f4f3484c1f1,
            0x407a286edcb29df7,
            0x407a286edcb29df7,
            0x401a801861ddc461,
            0x404757f3b6c7ac8f,
            0x404757f3b6c7ac8f,
            0x41888eb9b9cc285f,
            0x40d781923bd746a1,
            0x40b32b6a2891fa3e,
            0x0000000000000000,
            0x40d781923bd746a2,
            0x000000000000005a,
            0x0000000000000177,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
        "disagg-swap" => vec![
            0x0000000000000010,
            0x40937bb0fb2bafdc,
            0x3fee8a07a7ebec33,
            0x4063c24027e348e5,
            0x40867b61b7af0363,
            0x40867b61b7af0363,
            0x4012678ae4fa9a3a,
            0x401d5777f264f847,
            0x401d5777f264f847,
            0x419308f76b77a1a7,
            0x405331a08bfc2216,
            0x40b6ed9f721ce86e,
            0x40a8fbe4e84c8514,
            0x405331a08bfc2218,
            0x0000000000000386,
            0x00000000000004a6,
            0x000000000000002c,
            0x0000000000000003,
            0x00000000000001db,
            0x0000000000000010,
            0x0000000000001000,
            0x000000000000001b,
            0x0000000000000087,
            0x0000000000000008,
            0x0000000000000027,
            0x000000009ed80000,
            0x40a8fbe4e84c8512,
            0x0000000000d3cafc,
        ],
        _ => panic!("no golden recorded for scenario {name}"),
    }
}

/// Full-report digests ([`report_digest`]: every per-request statistic,
/// every float via `to_bits`) of the per-step executor's run of each
/// scenario, captured before the serving loop was merged into one.
fn per_step_report_digest(name: &str) -> u64 {
    match name {
        "single-node" => 0x0c137db3559e7454,
        "dp-bounded-kv" => 0x1839a0b6d6ebc271,
        "sharded" => 0xf95a8664577f1d3f,
        "disagg-swap" => 0x25389c1e2d8e9580,
        _ => panic!("no digest recorded for scenario {name}"),
    }
}

/// Regeneration helper, not a check: prints every scenario's fingerprint in
/// the hex layout of [`golden`], then its full-report digest as recorded in
/// [`per_step_report_digest`]. Run it when a golden legitimately moves
/// (`cargo test -p mugi-runtime --test event_engine print_fingerprints -- \
/// --ignored --nocapture`), then audit the diff entry by entry before
/// pasting — only entries a deliberate change explains may differ.
#[test]
#[ignore = "golden regeneration helper; prints, asserts nothing"]
fn print_fingerprints() {
    for s in scenarios() {
        println!("        \"{}\" => vec![", s.name);
        for word in fingerprint(&run_presubmitted(&s.scenario, &s.requests).1) {
            println!("            0x{word:016x},");
        }
        println!("        ],");
    }
    for s in scenarios() {
        println!(
            "        \"{}\" => 0x{:016x},",
            s.name,
            report_digest(&run_presubmitted(&s.scenario, &s.requests).1)
        );
    }
}

/// The executor reproduces every golden scenario — every placement policy,
/// preemption mode and migration path — bit for bit, floats included.
#[test]
fn event_engine_matches_goldens() {
    for s in scenarios() {
        let (ex, report) = run_presubmitted(&s.scenario, &s.requests);
        assert_eq!(fingerprint(&report), golden(s.name), "fingerprint drifted for {}", s.name);
        // Every dispatched batch raised exactly one completion event.
        assert_eq!(ex.queue().pop_count(), report.micro_batches, "{}", s.name);
        assert_eq!(ex.queue().arrival_time_regressions(), 0, "{}", s.name);
    }
}

/// Beyond the golden words: the *entire* reports — every per-request stat,
/// every float — must equal the per-step executor's reports as captured
/// before the merge.
#[test]
fn event_engine_reports_equal_per_step_reports_exactly() {
    for s in scenarios() {
        let report = run_presubmitted(&s.scenario, &s.requests).1;
        assert_eq!(
            report_digest(&report),
            per_step_report_digest(s.name),
            "full-report divergence for {}",
            s.name
        );
    }
}

/// Completion events must pop in nondecreasing time order wherever the
/// theory says they do: always on single-pool placements (one shared KV
/// pool means no cross-clock page liberation), and empirically on the
/// golden multi-pool scenarios too.
#[test]
fn event_queue_completion_pops_are_monotone() {
    for s in scenarios() {
        let single_pool = matches!(s.name, "single-node" | "sharded");
        let ex = run_presubmitted(&s.scenario, &s.requests).0;
        let regressions = ex.queue().completion_time_regressions();
        if single_pool {
            assert_eq!(regressions, 0, "single-pool {} must pop monotonically", s.name);
        } else {
            // Multi-pool bounded configs *may* legally regress (a lagging
            // node can batch in the past with pages freed in the future);
            // these two goldens happen not to — pin that.
            assert_eq!(regressions, 0, "{} regressed unexpectedly", s.name);
        }
    }
}

/// Streaming determinism: serving a sorted (Poisson) workload
/// lazily from a `WorkloadStream` must produce the exact report of
/// pre-submitting the materialized trace — on a multi-node placement, with
/// arrivals landing mid-flight.
#[test]
fn streamed_poisson_run_matches_presubmitted() {
    let spec = WorkloadSpec::kv_pressure().with_poisson_arrivals(3_000_000);
    let models = [ModelId::Llama2_7b, ModelId::Llama2_13b];
    let placement = Placement::data_parallel(NocConfig { rows: 2, cols: 2 });
    let scenario = Scenario { placement, ..Scenario::new(64) };

    let trace = synthetic_requests(97, 40, &models, spec);
    let presubmitted = run_presubmitted(&scenario, &trace).1;

    let mut streaming = scenario.build().unwrap();
    let streamed = streaming.run_stream(WorkloadStream::new(97, &models, spec).take(40));

    assert_eq!(presubmitted, streamed, "lazy submission must not perturb the report");
    assert_eq!(streaming.queue().arrival_time_regressions(), 0);
    // 40 arrival events + one completion per micro-batch.
    assert_eq!(streaming.queue().pop_count(), 40 + streamed.micro_batches);
}

/// A streamed run whose every request is rejected by SLO admission must end
/// cleanly. The config is a burst of equal 1024-token prompts whose
/// projected TTFT (1024 tokens × 4·10⁶ cycles) exceeds the 3·10⁹-cycle
/// target even with an empty backlog. It once panicked "unfinished sessions
/// but no runnable work" after landing the last rejected arrival.
#[test]
fn streamed_run_with_every_request_slo_rejected_terminates() {
    const COUNT: usize = 12;
    let spec = WorkloadSpec { prompt_tokens: (1024, 1024), ..WorkloadSpec::default() }
        .with_poisson_arrivals(1);
    let slo = SloConfig { target_ttft_cycles: 3_000_000_000, cycles_per_prefill_token: 4_000_000 };
    let noc = NocConfig { rows: 2, cols: 2 };
    let kv = KvConfig { slo: Some(slo), ..KvConfig::bounded(32, 64) };
    for placement in
        [Placement::single_node(), Placement::data_parallel(noc), Placement::sharded(noc)]
    {
        let build = || Scenario { kv, placement, ..Scenario::new(64) }.build().unwrap();
        let stream = || WorkloadStream::new(6, &[MODEL], spec).take(COUNT);
        let report = build().run_stream(stream());
        assert_eq!(report.kv.rejected_requests, COUNT as u64, "{}", placement.label());
        assert!(report.requests.is_empty());
        assert_eq!(report.micro_batches, 0);
        let folded = build().run_stream_folded(stream());
        assert_eq!(folded.kv.rejected_requests, COUNT as u64, "{}", placement.label());
        assert_eq!(folded.fold.requests, 0);
    }
}

/// A streamed run whose only rejected request is a late tail, arriving after
/// everything else has finished, must end cleanly with that one rejection.
/// With an empty backlog the tail's 2000-token prompt alone projects past
/// the SLO target, while the short prompts before it fit.
#[test]
fn streamed_run_ending_on_a_rejected_tail_arrival_terminates() {
    let slo = SloConfig { target_ttft_cycles: 1_000_000, cycles_per_prefill_token: 1_000 };
    let mut requests: Vec<Request> =
        (0..6).map(|i| Request::new(MODEL, 64, 4).arriving_at(i * 1_000_000_000)).collect();
    let tail = Request::new(MODEL, 2_000, 4).arriving_at(1 << 50);
    requests.push(tail);
    for placement in
        [Placement::single_node(), Placement::data_parallel(NocConfig { rows: 2, cols: 2 })]
    {
        let kv = KvConfig { slo: Some(slo), ..KvConfig::unbounded() };
        let build = || Scenario { kv, placement, ..Scenario::new(64) }.build().unwrap();
        let mut ex = build();
        let report = ex.run_stream(requests.iter().copied());
        assert_eq!(report.kv.rejected_requests, 1, "{}", placement.label());
        assert_eq!(report.requests.len(), requests.len() - 1);
        assert!(ex.clock_cycles() < tail.arrival_cycle, "the others finished before the tail");
        let folded = build().run_stream_folded(requests.iter().copied());
        assert_eq!(folded.kv.rejected_requests, 1, "{}", placement.label());
        assert_eq!(folded.fold.requests, requests.len() as u64 - 1);
    }
}

/// The identity checksum the soak and the benchmark check against is plain
/// FNV-1a, byte at a time, over each request's `(id, prompt, output)`
/// words: an oracle independent of `StatsFold::fold_identity`.
#[test]
fn identity_checksum_is_fnv_over_the_identity_words() {
    let spec =
        WorkloadSpec { prompt_tokens: (8, 24), output_tokens: (1, 4), ..WorkloadSpec::default() }
            .with_poisson_arrivals(3_000_000_000);
    let requests = synthetic_requests(4242, 10_000, &[MODEL], spec);
    let words: Vec<u64> = (0u64..)
        .zip(&requests)
        .flat_map(|(id, r)| [id, r.prompt_tokens as u64, r.output_tokens as u64])
        .collect();
    assert_eq!(StatsFold::identity_checksum_of(0, &requests), common::fnv(&words));
}

/// The 1M-request soak (ignored in the default tier; CI runs it with
/// `--include-ignored`). Proves the two scale claims end to end:
///
/// * **Memory stays O(live sessions):** the peak live-session count is
///   bounded by the arrival/service equilibrium (thousands), not by the
///   million-request horizon, and the event queue never holds more than
///   one event per node plus the staged arrival.
/// * **Nothing is lost or reordered:** the fold's order-sensitive identity
///   checksum over every retired request matches the checksum computed
///   independently from a second pass of the same seeded stream.
#[test]
#[ignore = "1M-request soak; run with --include-ignored"]
fn soak_one_million_requests_in_bounded_memory() {
    const COUNT: usize = 1_000_000;
    let spec =
        WorkloadSpec { prompt_tokens: (8, 24), output_tokens: (1, 4), ..WorkloadSpec::default() }
            // ~0.6x the batched service rate (~1.8e9 cycles/request on the 64-lane
            // node), so the arrival/service equilibrium settles at a few dozen live
            // sessions — open-loop load, not an instantaneous burst.
            .with_poisson_arrivals(3_000_000_000);
    let models = [MODEL];

    let mut engine = Scenario::new(64).build().unwrap();
    let report = engine.run_stream_folded(WorkloadStream::new(4242, &models, spec).take(COUNT));

    assert_eq!(report.fold.requests, COUNT as u64, "every request must retire");

    // Independent single-pass ground truth from a fresh stream.
    let mut checksum = 0u64;
    let mut output_tokens = 0u64;
    let mut prompt_tokens = 0u64;
    for (id, r) in WorkloadStream::new(4242, &models, spec).take(COUNT).enumerate() {
        checksum = StatsFold::fold_identity(checksum, id as u64, r.prompt_tokens, r.output_tokens);
        prompt_tokens += r.prompt_tokens as u64;
        output_tokens += r.output_tokens as u64;
    }
    assert_eq!(report.fold.identity_checksum, checksum, "identity checksum must match");
    assert_eq!(report.fold.prompt_tokens, prompt_tokens);
    assert_eq!(report.fold.output_tokens, output_tokens);

    // O(live sessions), not O(total requests).
    assert!(
        report.peak_live_sessions < COUNT / 100,
        "peak live sessions {} is not bounded by the arrival/service equilibrium",
        report.peak_live_sessions
    );
    assert!(
        report.peak_event_queue <= report.nodes + 1,
        "event queue grew past one completion per node plus the staged arrival: {}",
        report.peak_event_queue
    );
    assert_eq!(engine.queue().arrival_time_regressions(), 0);
    assert!(report.throughput_tokens_per_s > 0.0);
}
