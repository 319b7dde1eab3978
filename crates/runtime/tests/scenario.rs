//! Fuzz of the run description: random [`Scenario`]s, zeros allowed in
//! every count, over 1×1, 1×2, 2×2 and 0×N meshes, with disaggregated
//! splits both from `Placement::disaggregated` and as literal values that
//! bypass it, bounded and unbounded KV, swap preemption, SLO admission and
//! every controller knob.
//!
//! `Scenario::build` must never panic, and must fail exactly when the rules
//! restated in [`broken_rule`] say it should. Every valid scenario then
//! serves a small stream to completion with its output tokens conserved.
//! The vendored proptest does not shrink, so every failure prints its
//! scenario with `{:?}`, which replays it.

use mugi::arch::noc::NocConfig;
use mugi_runtime::{
    ControlConfig, KvConfig, Placement, PlacementPolicy, PreemptionMode, Request, Scenario,
    SchedulerConfig, SchedulingPolicy, SloConfig,
};
use mugi_workloads::models::ModelId;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

prop_compose! {
    fn scenario_strategy()(
        lanes in prop::sample::select(vec![0, 1, 16, 64, 64, 256]),
        max_batch in 0usize..9,
        token_budget in 0usize..300,
        prefill_chunk in 0usize..130,
        spf in any::<bool>(),
        page_tokens in 0usize..40,
        node_pages in prop::sample::select(vec![None, Some(0), Some(3), Some(6), Some(23)]),
        max_live_sessions in prop::sample::select(vec![None, None, Some(0), Some(1), Some(2)]),
        swap in any::<bool>(),
        slo in prop::sample::select(vec![None, None, None, Some((0, 1)), Some((1, 0)),
            Some((1, 1)), Some((1_000_000_000, 1_000_000)), Some((1_000_000_000_000, 1))]),
        flags in 0u8..8,
        min_flip_interval_cycles in 0u64..3_000_000,
        min_demand_tokens in 0u64..700,
        (rows, cols) in prop::sample::select(vec![(1, 1), (1, 2), (2, 2), (0, 1), (0, 3)]),
        kind in 0usize..4,
        prefill_nodes in 0usize..5,
        decode_nodes in 0usize..5,
    ) -> Scenario {
        let noc = NocConfig { rows, cols };
        let placement = match kind {
            0 => Placement::data_parallel(noc),
            1 => Placement::sharded(noc),
            2 => Placement::disaggregated(noc, prefill_nodes),
            _ => Placement {
                noc,
                policy: PlacementPolicy::Disaggregated { prefill_nodes, decode_nodes },
            },
        };
        let policy =
            if spf { SchedulingPolicy::ShortestPrefillFirst } else { SchedulingPolicy::Fcfs };
        Scenario {
            lanes,
            scheduler: SchedulerConfig {
                max_batch,
                token_budget,
                prefill_chunk,
                policy,
                ..SchedulerConfig::default()
            },
            kv: KvConfig {
                page_tokens,
                node_pages,
                max_live_sessions,
                preemption: if swap { PreemptionMode::Swap } else { PreemptionMode::Recompute },
                slo: slo.map(|(target_ttft_cycles, cycles_per_prefill_token)| SloConfig {
                    target_ttft_cycles,
                    cycles_per_prefill_token,
                }),
            },
            control: ControlConfig {
                reassign_roles: flags & 1 != 0,
                calibrate_slo: flags & 2 != 0,
                load_aware_migration: flags & 4 != 0,
                min_flip_interval_cycles,
                min_demand_tokens,
            },
            placement,
        }
    }
}

prop_compose! {
    fn request_strategy()(
        model in prop::sample::select(vec![ModelId::Llama2_7b, ModelId::Llama2_13b]),
        prompt in 1usize..120,
        output in 1usize..8,
        arrival in 0u64..200,
    ) -> Request {
        Request::new(model, prompt, output).arriving_at(arrival)
    }
}

/// The first configuration rule `s` breaks, if any, restated from the
/// rules the runtime documents rather than read from its validation.
fn broken_rule(s: &Scenario) -> Option<&'static str> {
    let (sched, kv, noc) = (&s.scheduler, &s.kv, s.placement.noc);
    let nodes = noc.rows * noc.cols;
    let bad_split = match s.placement.policy {
        PlacementPolicy::Disaggregated { prefill_nodes: p, decode_nodes: d } => {
            p == 0 || d == 0 || p + d != nodes
        }
        _ => false,
    };
    [
        ("zero lanes", s.lanes == 0),
        ("zero max_batch", sched.max_batch == 0),
        ("zero token_budget", sched.token_budget == 0),
        ("zero prefill_chunk", sched.prefill_chunk == 0),
        ("zero page_tokens", kv.page_tokens == 0),
        ("zero node_pages", kv.node_pages == Some(0)),
        ("zero max_live_sessions", kv.max_live_sessions == Some(0)),
        ("zero SLO target", kv.slo.is_some_and(|slo| slo.target_ttft_cycles == 0)),
        ("zero SLO rate", kv.slo.is_some_and(|slo| slo.cycles_per_prefill_token == 0)),
        ("empty mesh", nodes == 0),
        ("split that does not partition the mesh", bad_split),
    ]
    .into_iter()
    .find_map(|(rule, broken)| broken.then_some(rule))
}

proptest! {
    #[test]
    fn scenarios_build_exactly_when_valid_and_then_serve_to_completion(
        scenario in scenario_strategy(),
        mut requests in prop::collection::vec(request_strategy(), 1..9),
    ) {
        let built = catch_unwind(AssertUnwindSafe(|| scenario.build()));
        prop_assert!(built.is_ok(), "build panicked on {scenario:?}");
        let Ok(built) = built else { unreachable!() };
        let (err, rule) = (built.as_ref().err(), broken_rule(&scenario));
        prop_assert_eq!(err.is_some(), rule.is_some(), "{:?} vs {:?}: {:?}", err, rule, scenario);
        let Ok(mut ex) = built else { return Ok(()) };
        requests.sort_by_key(|r| r.arrival_cycle);
        let run = catch_unwind(AssertUnwindSafe(|| ex.run_stream(requests.iter().copied())));
        prop_assert!(run.is_ok(), "run panicked on {scenario:?} with {requests:?}");
        let Ok(report) = run else { unreachable!() };
        // Every request is served or rejected at admission; each served one
        // (listed in admission order) emits exactly the tokens it asked for.
        let rejected = report.kv.rejected_requests;
        prop_assert_eq!(report.requests.len() as u64 + rejected, requests.len() as u64);
        let mut pending = requests.iter();
        for stats in &report.requests {
            let matched = pending.any(|r| {
                (r.model, r.prompt_tokens, r.output_tokens)
                    == (stats.model, stats.prompt_tokens, stats.output_tokens)
            });
            prop_assert!(matched, "{stats:?} serves no request in order: {scenario:?}");
        }
        let served: u64 = report.requests.iter().map(|r| r.output_tokens as u64).sum();
        prop_assert_eq!(report.total_output_tokens, served, "{:?}", scenario);
        prop_assert!(ex.scheduler().sessions().is_empty(), "a session never retired: {scenario:?}");
        prop_assert_eq!(ex.scheduler().kv_used_pages(), 0, "pages leaked: {:?}", scenario);
        prop_assert_eq!(ex.pending_migration_count(), 0, "stranded migration: {:?}", scenario);
    }
}

/// Regression, found by the fuzz above: under shortest-prefill-first, a
/// young session that could not get its pages deferred every session
/// behind it in policy order, older ones included. Here every page ends up
/// held by part-prefilled sessions queued behind such a blocker in both
/// models' queues — among them the oldest session, the one that may always
/// reclaim pages — and the run panicked with nothing runnable. An older
/// session now still runs behind a younger blocker.
#[test]
fn shortest_prefill_first_never_parks_the_oldest_session_behind_a_younger_one() {
    use ModelId::{Llama2_13b as M13, Llama2_7b as M7};
    let scheduler = SchedulerConfig {
        max_batch: 4,
        token_budget: 208,
        prefill_chunk: 6,
        policy: SchedulingPolicy::ShortestPrefillFirst,
        ..SchedulerConfig::default()
    };
    let scenario = Scenario { scheduler, kv: KvConfig::bounded(31, 6), ..Scenario::new(64) };
    let requests = [(M13, 82, 6, 38), (M7, 86, 1, 42), (M7, 81, 1, 64), (M7, 73, 7, 69)]
        .into_iter()
        .chain([(M13, 31, 2, 107), (M7, 106, 6, 114)])
        .map(|(model, prompt, output, at)| Request::new(model, prompt, output).arriving_at(at));
    let mut ex = scenario.build().unwrap();
    let report = ex.run_stream(requests);
    assert_eq!(report.requests.len(), 6);
    assert_eq!(report.total_output_tokens, 6 + 1 + 1 + 7 + 2 + 6);
    assert_eq!(ex.scheduler().kv_used_pages(), 0);
}
