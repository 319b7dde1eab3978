//! Property tests for the continuous-batching scheduler, the multi-node
//! placement layer, the paged KV cache and the discrete-event engine,
//! through the public API: liveness (no request starves, even under
//! preemption), the micro-batch caps (token budget, max batch), exact
//! output-token accounting, the placement invariants (token conservation,
//! per-node clocks bounded by the makespan, 1×1 placement bit-identical to
//! the single-node executor), an unbounded pool bit-identical to a
//! never-full bounded one, and the serving-loop invariants (token and page
//! conservation, causality and one completion per batch across every
//! placement policy, streamed runs equal to pre-submitted ones). The page
//! allocator's, session arena's and SLO calibrator's own properties are
//! unit tests in `kv.rs`, `request.rs` and `control.rs`.

mod common;

use common::{peak_pages, run_presubmitted};
use mugi::arch::noc::NocConfig;
use mugi_runtime::{
    pages_for, ControlConfig, Executor, KvConfig, Placement, PoolRole, Request, RuntimeReport,
    Scenario, Scheduler, SchedulerConfig, SchedulingPolicy, KV_BITS,
};
use mugi_workloads::models::ModelId;
use proptest::prelude::*;

/// Every request of a completed pre-submitted run retired whole: the
/// scheduler holds no session, and the report lists each request once, in
/// submission order, with its prompt and exactly its output tokens.
/// Retirement itself debug-asserts the rest of a finished session's
/// invariants (prefill target fully prefilled, no KV page mapped, first
/// token no earlier than arrival).
fn every_request_retired_whole(
    ex: &Executor,
    report: &RuntimeReport,
    requests: &[Request],
) -> Result<(), TestCaseError> {
    prop_assert!(ex.scheduler().sessions().is_empty(), "a session never retired");
    prop_assert_eq!(ex.scheduler().retired_session_count(), requests.len());
    prop_assert_eq!(report.requests.len(), requests.len());
    for (i, (r, request)) in report.requests.iter().zip(requests).enumerate() {
        prop_assert_eq!(r.id.0, i as u64);
        prop_assert_eq!(r.prompt_tokens, request.prompt_tokens);
        prop_assert_eq!(r.output_tokens, request.output_tokens);
    }
    Ok(())
}

prop_compose! {
    fn request_strategy()(
        model_idx in 0usize..3,
        prompt in 1usize..300,
        output in 1usize..24,
        arrival in 0u64..500,
    ) -> Request {
        let models = [ModelId::Llama2_7b, ModelId::Llama2_13b, ModelId::Llama2_70b];
        Request::new(models[model_idx], prompt, output).arriving_at(arrival)
    }
}

// Small workloads for the end-to-end placement properties, which run a full
// executor simulation per case.
prop_compose! {
    fn small_request_strategy()(
        model_idx in 0usize..2,
        prompt in 1usize..120,
        output in 1usize..8,
        arrival in 0u64..200,
    ) -> Request {
        let models = [ModelId::Llama2_7b, ModelId::Llama2_13b];
        Request::new(models[model_idx], prompt, output).arriving_at(arrival)
    }
}

prop_compose! {
    fn config_strategy()(
        max_batch in 1usize..17,
        token_budget in 1usize..512,
        prefill_chunk in 1usize..128,
        spf in any::<bool>(),
    ) -> SchedulerConfig {
        SchedulerConfig {
            max_batch,
            token_budget,
            prefill_chunk,
            policy: if spf {
                SchedulingPolicy::ShortestPrefillFirst
            } else {
                SchedulingPolicy::Fcfs
            },
            ..SchedulerConfig::default()
        }
    }
}

// One placement drawn from every policy family, over a 2×2 mesh.
prop_compose! {
    fn placement_strategy()(
        kind in 0usize..4,
        prefill_nodes in 1usize..4,
    ) -> Placement {
        let noc = NocConfig { rows: 2, cols: 2 };
        match kind {
            0 => Placement::single_node(),
            1 => Placement::data_parallel(noc),
            2 => Placement::sharded(noc),
            _ => Placement::disaggregated(noc, prefill_nodes),
        }
    }
}

proptest! {
    #[test]
    fn scheduler_drains_every_workload_within_its_caps(
        requests in prop::collection::vec(request_strategy(), 1..40),
        config in config_strategy(),
    ) {
        let mut sched = Scheduler::new(config);
        for r in &requests {
            sched.submit(*r);
        }
        // Every emitted micro-batch advances at least one token of total
        // work, and the clock only jumps when a future arrival is the sole
        // remaining work, so the loop must drain within this bound — a
        // starving request would blow it.
        let total_work: usize =
            requests.iter().map(|r| r.prompt_tokens + r.output_tokens).sum();
        let cap = total_work + requests.len() + 10;
        let mut now = 0u64;
        let mut steps = 0usize;
        while !sched.all_finished() {
            steps += 1;
            prop_assert!(steps <= cap, "scheduler made no progress (starvation)");
            if let Some(batch) = sched.next_micro_batch(now, 0, PoolRole::Colocated) {
                // The hard caps hold for every micro-batch.
                prop_assert!(batch.items.len() <= config.max_batch);
                prop_assert!(batch.total_tokens() <= config.token_budget);
                for item in &batch.items {
                    prop_assert!(item.tokens >= 1);
                    prop_assert!(item.tokens <= config.prefill_chunk.max(1));
                    prop_assert_eq!(
                        sched.session(item.id).request.model, batch.model,
                        "micro-batches are per-model"
                    );
                }
                now += 1;
                sched.complete(&batch, now);
            } else {
                let next = sched.next_arrival_after(now);
                prop_assert!(next.is_some(), "unfinished work but nothing runnable");
                now = next.unwrap();
            }
        }
        // Exact accounting: every request generated exactly what it asked
        // for, prefilled its whole prompt, and its milestones are ordered.
        for s in sched.sessions() {
            prop_assert!(s.is_finished());
            prop_assert_eq!(s.generated_tokens, s.request.output_tokens);
            prop_assert_eq!(s.prefilled_tokens, s.request.prompt_tokens);
            let first = s.first_token_cycle.unwrap();
            let finish = s.finish_cycle.unwrap();
            prop_assert!(first >= s.request.arrival_cycle);
            prop_assert!(finish >= first);
        }
    }

    #[test]
    fn multi_node_placement_conserves_tokens_and_respects_the_makespan(
        requests in prop::collection::vec(small_request_strategy(), 1..10),
        sharded in any::<bool>(),
        rows in 1usize..3,
        cols in 1usize..3,
    ) {
        let noc = NocConfig { rows, cols };
        let placement =
            if sharded { Placement::sharded(noc) } else { Placement::data_parallel(noc) };
        let (ex, report) = run_presubmitted(&Scenario { placement, ..Scenario::new(64) }, &requests);
        // Sharded / data-parallel execution conserves the workload exactly.
        let expected: u64 = requests.iter().map(|r| r.output_tokens as u64).sum();
        prop_assert_eq!(report.total_output_tokens, expected);
        every_request_retired_whole(&ex, &report, &requests)?;
        // Nothing is preempted, so each prefill target is the prompt.
        prop_assert!(report.requests.iter().all(|r| r.preemptions == 0));
        // No node's clock or busy time ever exceeds the makespan.
        let makespan = ex.clock_cycles();
        prop_assert_eq!(report.node_busy_cycles.len(), noc.nodes());
        for &clock in ex.node_clocks() {
            prop_assert!(clock <= makespan, "node clock {clock} > makespan {makespan}");
        }
        for &busy in &report.node_busy_cycles {
            prop_assert!(busy <= makespan, "node busy {busy} > makespan {makespan}");
        }
        // NoC energy flows exactly when the mesh is real.
        if noc.nodes() == 1 {
            prop_assert_eq!(report.noc_energy_uj, 0.0);
        } else {
            prop_assert!(report.noc_energy_uj > 0.0);
        }
    }

    #[test]
    fn single_node_placements_are_bit_identical(
        requests in prop::collection::vec(small_request_strategy(), 1..8),
        spf in any::<bool>(),
    ) {
        let policy =
            if spf { SchedulingPolicy::ShortestPrefillFirst } else { SchedulingPolicy::Fcfs };
        let scheduler = SchedulerConfig { policy, ..SchedulerConfig::default() };
        let run = |placement| {
            run_presubmitted(&Scenario { scheduler, placement, ..Scenario::new(64) }, &requests).1
        };
        // Both 1×1 placements must agree bit for bit, down to every
        // per-request float.
        let one_by_one = run(Placement::single_node());
        let sharded = run(Placement::sharded(NocConfig::single()));
        prop_assert_eq!(&one_by_one, &sharded);
    }

    #[test]
    fn bounded_kv_pools_preempt_but_every_request_still_finishes(
        requests in prop::collection::vec(small_request_strategy(), 1..10),
        headroom in 0usize..3,
        sharded in any::<bool>(),
        rows in 1usize..3,
        cols in 1usize..3,
    ) {
        // Liveness under maximum KV pressure: the per-node pool is sized to
        // the single largest request (plus 0–2 pages of headroom), so the
        // workload constantly preempts — yet every request must finish with
        // exact token accounting and every page must come home.
        let page_tokens = 32;
        let max_need = peak_pages(&requests, page_tokens);
        let kv = KvConfig::bounded(page_tokens, max_need + headroom);
        let noc = NocConfig { rows, cols };
        let placement =
            if sharded { Placement::sharded(noc) } else { Placement::data_parallel(noc) };
        let (ex, report) =
            run_presubmitted(&Scenario { kv, placement, ..Scenario::new(64) }, &requests);
        let expected: u64 = requests.iter().map(|r| r.output_tokens as u64).sum();
        prop_assert_eq!(report.total_output_tokens, expected);
        every_request_retired_whole(&ex, &report, &requests)?;
        prop_assert_eq!(ex.scheduler().kv_used_pages(), 0, "pages leaked");
        let capacity = report.kv.capacity_pages.unwrap();
        prop_assert!(report.kv.peak_used_pages <= capacity);
        // Stall accounting is exact: a fixed fault cost per evicted page.
        prop_assert_eq!(
            report.kv.fault_stall_cycles,
            report.kv.evicted_pages * Executor::FAULT_STALL_CYCLES
        );
        // Preemption implies recompute debt and vice versa.
        prop_assert_eq!(report.kv.preemptions > 0, report.kv.reprefill_tokens > 0);
    }

    #[test]
    fn pending_prefill_total_matches_the_backlog_scan(
        requests in prop::collection::vec(small_request_strategy(), 1..10),
        headroom in 0usize..3,
        disagg in any::<bool>(),
    ) {
        // The running pending-prefill total must equal the live-session
        // backlog scan at *every* step — including mid-run, with evictions
        // re-crediting recompute debt and chunked prefills debiting it,
        // which is exactly where an incremental counter would drift if any
        // mutation site were missed. The disaggregated case re-rolls node
        // roles, so drain sweeps recompute-evict too.
        let page_tokens = 32;
        let max_need = peak_pages(&requests, page_tokens);
        let kv = KvConfig::bounded(page_tokens, max_need + headroom);
        let noc = NocConfig { rows: 2, cols: 2 };
        let (placement, control, prefill_chunk) = if disagg {
            // Short chunks leave prompts part-prefilled on a prefill node
            // when it drains, and those residents are recompute-evicted.
            let control = ControlConfig {
                reassign_roles: true,
                min_flip_interval_cycles: 1,
                min_demand_tokens: 1,
                ..ControlConfig::default()
            };
            (Placement::disaggregated(noc, 2), control, 16)
        } else {
            (Placement::data_parallel(noc), ControlConfig::default(), 512)
        };
        let scheduler = SchedulerConfig { prefill_chunk, ..SchedulerConfig::default() };
        let mut ex =
            Scenario { scheduler, kv, control, placement, ..Scenario::new(64) }.build().unwrap();
        for r in &requests {
            ex.submit(*r);
        }
        loop {
            prop_assert_eq!(
                ex.scheduler().prefill_backlog_at(u64::MAX),
                ex.scheduler().pending_prefill_total()
            );
            if !ex.step() {
                break;
            }
        }
        prop_assert_eq!(ex.scheduler().pending_prefill_total(), 0, "drained runs owe nothing");
    }

    #[test]
    fn unbounded_pool_is_bit_identical_to_a_never_full_bounded_one(
        requests in prop::collection::vec(small_request_strategy(), 1..8),
        spf in any::<bool>(),
    ) {
        // The regression oracle for the whole paging layer: with capacity
        // that never binds, every per-request statistic (TTFT, TPOT, energy,
        // micro-batch counts) and every aggregate must match the unbounded
        // (pre-paging) executor bit for bit — the bookkeeping may not
        // perturb scheduling at all.
        let policy =
            if spf { SchedulingPolicy::ShortestPrefillFirst } else { SchedulingPolicy::Fcfs };
        let scheduler = SchedulerConfig { policy, ..SchedulerConfig::default() };
        let run = |kv| run_presubmitted(&Scenario { scheduler, kv, ..Scenario::new(64) }, &requests).1;
        let unbounded = run(KvConfig::unbounded());
        let bounded = run(KvConfig::bounded(128, 1 << 20));
        prop_assert_eq!(bounded.kv.preemptions, 0);
        prop_assert_eq!(bounded.kv.fault_stall_cycles, 0);
        prop_assert!(bounded.kv.peak_used_pages > 0, "the bounded run did page its KV");
        // Identical modulo the KV bookkeeping block itself.
        let mut bounded_sans_kv = bounded.clone();
        bounded_sans_kv.kv = unbounded.kv;
        prop_assert_eq!(&unbounded, &bounded_sans_kv);
    }

    #[test]
    fn disaggregated_pools_conserve_tokens_across_handoffs(
        requests in prop::collection::vec(small_request_strategy(), 1..10),
        prefill_nodes in 1usize..4,
        swap in any::<bool>(),
        bounded in any::<bool>(),
        headroom in 0usize..3,
    ) {
        // Token conservation and liveness across prefill→decode pool
        // handoffs: whatever the split of a 2×2 mesh, the preemption mode
        // and the pool pressure, every request finishes with exact token
        // accounting, every page comes home and no migration is stranded.
        let page_tokens = 32;
        let noc = NocConfig { rows: 2, cols: 2 };
        let kv = if bounded {
            let max_need = peak_pages(&requests, page_tokens);
            let kv = KvConfig::bounded(page_tokens, max_need + headroom);
            if swap { kv.with_swap_preemption() } else { kv }
        } else {
            KvConfig { page_tokens, ..KvConfig::unbounded() }
        };
        let placement = Placement::disaggregated(noc, prefill_nodes);
        let (ex, report) =
            run_presubmitted(&Scenario { kv, placement, ..Scenario::new(64) }, &requests);
        let expected: u64 = requests.iter().map(|r| r.output_tokens as u64).sum();
        prop_assert_eq!(report.total_output_tokens, expected);
        every_request_retired_whole(&ex, &report, &requests)?;
        prop_assert_eq!(ex.scheduler().kv_used_pages(), 0, "pages leaked");
        prop_assert_eq!(ex.pending_migration_count(), 0, "a migration was stranded");
        // Transfers flow exactly when KV moves; swaps never appear without
        // the swap mode, and swap-outs and recompute evictions are the only
        // extra migration sources.
        prop_assert_eq!(report.kv.migrations > 0, report.kv.transfer_bytes > 0);
        if !swap || !bounded {
            prop_assert_eq!(report.kv.swap_outs, 0);
        }
        if report.kv.preemptions == 0 && report.kv.swap_outs == 0 {
            // Every multi-token session migrates exactly once: at its one
            // and only prefill completion. Single-token sessions finish at
            // prefill completion and never migrate.
            let multi = requests.iter().filter(|r| r.output_tokens >= 2).count() as u64;
            prop_assert_eq!(report.kv.migrations, multi);
        }
    }

    #[test]
    fn unbounded_disaggregation_migrates_once_per_prefill_completion(
        requests in prop::collection::vec(small_request_strategy(), 1..10),
        prefill_nodes in 1usize..4,
    ) {
        // With an unbounded pool nothing is ever preempted, so the
        // migrated-page count is exactly the page equivalent of each
        // multi-token session's prompt-plus-first-token KV at handoff time.
        let noc = NocConfig { rows: 2, cols: 2 };
        let placement = Placement::disaggregated(noc, prefill_nodes);
        let (ex, report) = run_presubmitted(&Scenario { placement, ..Scenario::new(64) }, &requests);
        let page_tokens = ex.scheduler().kv_config().page_tokens;
        let multi: Vec<&Request> =
            requests.iter().filter(|r| r.output_tokens >= 2).collect();
        prop_assert_eq!(report.kv.migrations, multi.len() as u64);
        let expected_pages: u64 =
            multi.iter().map(|r| pages_for(r.prompt_tokens + 1, page_tokens) as u64).sum();
        prop_assert_eq!(report.kv.migrated_pages, expected_pages);
        let expected_bytes: u64 = multi
            .iter()
            .map(|r| r.model.config().kv_cache_bytes(r.prompt_tokens + 1, KV_BITS))
            .sum();
        prop_assert_eq!(report.kv.transfer_bytes, expected_bytes);
        every_request_retired_whole(&ex, &report, &requests)?;
        for (r, request) in report.requests.iter().zip(&requests) {
            prop_assert_eq!(u64::from(r.migrations), u64::from(request.output_tokens >= 2));
        }
    }

    #[test]
    fn swap_mode_is_inert_on_colocated_placements(
        requests in prop::collection::vec(small_request_strategy(), 1..8),
        headroom in 0usize..2,
        sharded in any::<bool>(),
    ) {
        // Swap-style preemption needs a prefill pool to page into; colocated
        // placements have none, so the mode must fall back to recompute and
        // reproduce the recompute run bit for bit even under heavy
        // preemption pressure.
        let page_tokens = 32;
        let max_need = peak_pages(&requests, page_tokens);
        let noc = NocConfig { rows: 2, cols: 2 };
        let placement =
            if sharded { Placement::sharded(noc) } else { Placement::data_parallel(noc) };
        let run = |kv| run_presubmitted(&Scenario { kv, placement, ..Scenario::new(64) }, &requests).1;
        let kv = KvConfig::bounded(page_tokens, max_need + headroom);
        let recompute = run(kv);
        let swap = run(kv.with_swap_preemption());
        prop_assert_eq!(swap.kv.swap_outs, 0, "no prefill pool exists to swap into");
        prop_assert_eq!(&recompute, &swap);
    }

    #[test]
    fn decode_slots_never_outnumber_in_flight_sessions(
        requests in prop::collection::vec(request_strategy(), 1..20),
        config in config_strategy(),
    ) {
        let mut sched = Scheduler::new(config);
        for r in &requests {
            sched.submit(*r);
        }
        let mut now = 0u64;
        for _ in 0..2000 {
            if sched.all_finished() {
                break;
            }
            match sched.next_micro_batch(now, 0, PoolRole::Colocated) {
                Some(batch) => {
                    prop_assert!(batch.decode_slots() <= requests.len());
                    // A session appears at most once per micro-batch.
                    let mut ids: Vec<_> = batch.items.iter().map(|i| i.id).collect();
                    ids.sort();
                    ids.dedup();
                    prop_assert_eq!(ids.len(), batch.items.len());
                    now += 1;
                    sched.complete(&batch, now);
                }
                None => match sched.next_arrival_after(now) {
                    Some(next) => now = next,
                    None => break,
                },
            }
        }
    }

    #[test]
    fn event_engine_runs_keep_the_serving_invariants(
        requests in prop::collection::vec(small_request_strategy(), 1..10),
        placement in placement_strategy(),
        bounded in any::<bool>(),
        swap in any::<bool>(),
        headroom in 0usize..3,
    ) {
        // On any workload, any placement policy and any KV regime —
        // unbounded, bounded with recompute preemption, bounded with swap
        // preemption — every request finishes with exact token accounting,
        // every page comes home, no migration is stranded, no node clock
        // passes the makespan and every dispatched batch completes exactly
        // once. (Bit-identity to the pre-merge engines is pinned by the
        // fingerprint corpus.)
        let page_tokens = 32;
        let kv = if bounded {
            let max_need = peak_pages(&requests, page_tokens);
            let kv = KvConfig::bounded(page_tokens, max_need + headroom);
            if swap { kv.with_swap_preemption() } else { kv }
        } else {
            KvConfig { page_tokens, ..KvConfig::unbounded() }
        };
        let (ex, report) =
            run_presubmitted(&Scenario { kv, placement, ..Scenario::new(64) }, &requests);
        let expected: u64 = requests.iter().map(|r| r.output_tokens as u64).sum();
        prop_assert_eq!(report.total_output_tokens, expected);
        every_request_retired_whole(&ex, &report, &requests)?;
        prop_assert_eq!(ex.scheduler().kv_used_pages(), 0, "pages leaked");
        prop_assert_eq!(ex.pending_migration_count(), 0, "a migration was stranded");
        let makespan = ex.clock_cycles();
        for (&clock, &busy) in ex.node_clocks().iter().zip(&report.node_busy_cycles) {
            prop_assert!(clock <= makespan && busy <= makespan);
        }
        // Pre-submitted runs land exactly one completion per batch.
        prop_assert_eq!(ex.queue().pop_count(), report.micro_batches);
        prop_assert_eq!(ex.queue().arrival_time_regressions(), 0);
    }

    #[test]
    fn lazily_streamed_sorted_workloads_match_presubmitted_runs(
        mut requests in prop::collection::vec(small_request_strategy(), 1..10),
        placement in placement_strategy(),
    ) {
        // Streaming equivalence on any placement: submitting each request
        // at its arrival event must reproduce the pre-submitted run bit for
        // bit, provided arrivals are nondecreasing (the stable sort keeps
        // same-cycle requests in generation order, preserving ids).
        requests.sort_by_key(|r| r.arrival_cycle);
        let scenario = Scenario { placement, ..Scenario::new(64) };
        let presubmitted = run_presubmitted(&scenario, &requests).1;
        let mut streaming = scenario.build().unwrap();
        let streamed = streaming.run_stream(requests.iter().copied());
        prop_assert_eq!(&presubmitted, &streamed);
        prop_assert_eq!(streaming.queue().arrival_time_regressions(), 0);
        prop_assert_eq!(
            streaming.queue().pop_count(),
            requests.len() as u64 + streamed.micro_batches
        );
    }
}
