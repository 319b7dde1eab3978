//! Adaptive control-plane suite: bit-inertness of a disabled controller,
//! pinned bit-identity with the controller enabled, quiescent-handoff
//! safety under bounded KV, and online SLO calibration behaviour.
//!
//! The quiescence guarantee is pinned two ways: the scheduler's
//! `set_pool_role` asserts its pool is empty at every flip (so any
//! non-quiescent handoff aborts the run), and the stepwise test below
//! additionally checks the externally visible invariants — at most one
//! draining node, both roles always represented, tokens conserved across
//! every re-roll.

mod common;

use common::{report_digest, run_presubmitted};
use mugi::arch::noc::NocConfig;
use mugi_runtime::{
    phased_requests, ControlConfig, KvConfig, Placement, PoolRole, Request, RuntimeReport,
    Scenario, SloConfig, WorkloadSpec,
};
use mugi_workloads::models::ModelId;

const MODEL: ModelId = ModelId::Llama2_7b;

/// Collapses a report to the bit patterns the identity tests compare: every
/// float via `to_bits`, so any perturbation — however small — fails.
fn fingerprint(report: &RuntimeReport) -> Vec<u64> {
    let energy_sum: f64 = report.requests.iter().map(|r| r.energy_uj).sum();
    let noc_sum: f64 = report.requests.iter().map(|r| r.noc_energy_uj).sum();
    let ttft_sum: f64 = report.requests.iter().map(|r| r.ttft_s).sum();
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
        report.micro_batches,
        report.total_output_tokens,
        report.kv.peak_used_pages,
        report.kv.preemptions,
        report.kv.reprefill_tokens,
        report.kv.evicted_pages,
        report.kv.migrations,
        report.kv.migrated_pages,
        report.kv.transfer_bytes,
        report.kv.transfer_stall_cycles,
    ]
}

/// A prefill-heavy opening followed by a wide decode tail: the demand shift
/// the role controller exists to chase.
fn shifting_mix(prefills: usize, decodes: usize) -> Vec<Request> {
    let prefill_heavy = WorkloadSpec {
        prompt_tokens: (768, 2048),
        output_tokens: (1, 4),
        arrival_spread_cycles: 10_000_000,
        ..WorkloadSpec::default()
    };
    let decode_heavy = WorkloadSpec {
        prompt_tokens: (32, 96),
        output_tokens: (96, 192),
        arrival_spread_cycles: 10_000_000,
        ..WorkloadSpec::default()
    };
    phased_requests(
        17,
        &[MODEL],
        &[(prefill_heavy, 0, prefills), (decode_heavy, 60_000_000, decodes)],
    )
}

/// The controller configuration the adaptive tests run under: every feature
/// on, with a cooldown short enough for this workload scale to re-roll.
fn adaptive() -> ControlConfig {
    ControlConfig {
        reassign_roles: true,
        load_aware_migration: true,
        calibrate_slo: true,
        min_flip_interval_cycles: 1_000_000,
        min_demand_tokens: 64,
    }
}

/// 128-lane nodes over `kv` under `control`, on a 4×4 mesh with 8
/// prefill and 8 decode nodes.
fn mesh(kv: KvConfig, control: ControlConfig) -> Scenario {
    let placement = Placement::disaggregated(NocConfig::mesh_4x4(), 8);
    Scenario { kv, control, placement, ..Scenario::new(128) }
}

fn run_executor(requests: &[Request], control: ControlConfig) -> (RuntimeReport, u64) {
    let (engine, report) = run_presubmitted(&mesh(KvConfig::unbounded(), control), requests);
    (report, engine.role_reroll_count())
}

/// Controller knobs without any enabled feature must be bit-inert: tuning
/// cooldowns or dead-bands while every feature flag is off cannot perturb a
/// single output bit relative to the default config.
#[test]
fn disabled_controller_knobs_are_bit_inert() {
    let requests = shifting_mix(8, 24);
    let knobbed = ControlConfig {
        min_flip_interval_cycles: 1,
        min_demand_tokens: 1,
        ..ControlConfig::default()
    };
    assert!(!knobbed.reassign_roles && !knobbed.calibrate_slo && !knobbed.load_aware_migration);
    let (baseline, base_rerolls) = run_executor(&requests, ControlConfig::default());
    let (tuned, tuned_rerolls) = run_executor(&requests, knobbed);
    assert_eq!(base_rerolls, 0);
    assert_eq!(tuned_rerolls, 0);
    assert_eq!(baseline.kv.role_rerolls, 0);
    assert_eq!(baseline.kv.calibration_samples, 0);
    assert_eq!(baseline.kv.calibrated_cycles_per_prefill_token, None);
    assert_eq!(fingerprint(&baseline), fingerprint(&tuned));
}

/// With the controller fully enabled, the executor must reproduce its
/// report as captured before the serving loop was merged into one, every float via `to_bits`: the controller's
/// integer decisions — drains, flips, calibration samples — replay
/// identically.
#[test]
fn adaptive_engines_agree_bit_for_bit() {
    let requests = shifting_mix(12, 36);
    let (ex, report) = run_presubmitted(&mesh(KvConfig::unbounded(), adaptive()), &requests);
    assert_eq!(ex.role_reroll_count(), 31, "this mix must exercise the controller");
    assert_eq!(report_digest(&report), 0x15e78c831e1d6cec);
}

/// Stepwise safety under bounded KV: at most one draining node at a time,
/// both roles always represented (the desired-split clamp), roles only
/// change through a drain, and every token survives the re-rolls. The
/// scheduler's own `set_pool_role` assertion aborts the run if any flip
/// happens on a non-empty pool.
#[test]
fn bounded_rerolls_stay_quiescent_and_conserve_tokens() {
    let requests = shifting_mix(8, 24);
    let kv = KvConfig { node_pages: Some(48), ..KvConfig::default() };
    let mut engine = mesh(kv, adaptive()).build().unwrap();
    for r in &requests {
        engine.submit(*r);
    }
    let mut last_roles = engine.node_roles().to_vec();
    let mut observed_flips = 0u64;
    while engine.step() {
        let roles = engine.node_roles();
        assert_eq!(roles.len(), last_roles.len());
        assert!(
            roles.iter().any(|r| matches!(r, PoolRole::Prefill))
                && roles.iter().any(|r| matches!(r, PoolRole::Decode)),
            "the desired-split clamp must keep both roles populated"
        );
        if let Some(d) = engine.draining_node() {
            assert!(d < roles.len());
        }
        observed_flips +=
            roles.iter().zip(last_roles.iter()).filter(|(now, before)| now != before).count()
                as u64;
        last_roles = roles.to_vec();
    }
    // The terminating step can still flip an already-quiescent node.
    observed_flips += engine
        .node_roles()
        .iter()
        .zip(last_roles.iter())
        .filter(|(now, before)| now != before)
        .count() as u64;
    let report = engine.report();
    let expected: u64 = requests.iter().map(|r| r.output_tokens as u64).sum();
    assert_eq!(report.total_output_tokens, expected, "re-rolls must conserve tokens");
    assert!(engine.role_reroll_count() > 0, "bounded pressure must still re-roll");
    assert_eq!(observed_flips, engine.role_reroll_count());
    assert_eq!(report.kv.role_rerolls, engine.role_reroll_count());
}

/// Online calibration on a streamed workload: the stale optimistic guess
/// admits everything; the calibrated gate measures the true per-batch rate,
/// publishes a corrected estimate orders of magnitude above the guess, and
/// sheds the arrivals whose projected TTFT cannot make the target.
#[test]
fn calibration_tightens_streamed_admission() {
    let spec = WorkloadSpec {
        prompt_tokens: (768, 2048),
        output_tokens: (4, 8),
        arrival_spread_cycles: 300_000_000_000,
        ..WorkloadSpec::default()
    };
    let mut requests = phased_requests(23, &[MODEL], &[(spec, 0, 24)]);
    requests.sort_by_key(|r| r.arrival_cycle);
    let guess = 500;
    let mut results = Vec::new();
    for calibrate in [false, true] {
        let slo =
            SloConfig { target_ttft_cycles: 600_000_000_000, cycles_per_prefill_token: guess };
        let mut engine = mesh(
            KvConfig { slo: Some(slo), ..KvConfig::default() },
            ControlConfig { calibrate_slo: calibrate, ..ControlConfig::default() },
        )
        .build()
        .unwrap();
        results.push(engine.run_stream(requests.iter().copied()));
    }
    let (stale, calibrated) = (&results[0], &results[1]);
    assert_eq!(stale.kv.rejected_requests, 0, "the stale guess admits the whole stream");
    assert_eq!(stale.kv.calibration_samples, 0);
    assert_eq!(stale.kv.calibrated_cycles_per_prefill_token, None);
    assert!(calibrated.kv.rejected_requests > 0, "the calibrated gate must shed load");
    assert!(calibrated.kv.calibration_samples > 0);
    let rate = calibrated
        .kv
        .calibrated_cycles_per_prefill_token
        .expect("a warmed calibrator publishes its rate");
    assert!(rate > guess, "calibration must correct an optimistic guess upward: {rate}");
    assert!(
        calibrated.requests.len() < stale.requests.len(),
        "shedding must show up as fewer served requests"
    );
    assert_eq!(
        calibrated.requests.len() as u64 + calibrated.kv.rejected_requests,
        stale.requests.len() as u64,
        "every request is either served or counted rejected"
    );
}
