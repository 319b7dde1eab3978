//! Adaptive control-plane sweep: dynamic role reassignment against every
//! static prefill:decode split on a workload whose mix shifts mid-run, plus
//! online SLO calibration against a stale static admission rate — the
//! numbers behind the "Adaptive control plane" section of EXPERIMENTS.md.
//!
//! Two tables:
//!
//! 1. **Shifting-mix placement sweep** — a two-phase trace over a 4×4 mesh:
//!    a prefill-heavy opening (long 768–2048-token prompts, short outputs)
//!    followed by a decode-heavy tail (short prompts, 96–192-token
//!    generations). Any static split is wrong for one of the phases: many
//!    prefill nodes starve the decode tail, few prefill nodes strangle the
//!    opening. The adaptive run starts from the same middling split and
//!    re-rolls node roles as the backlog shifts — the acceptance assertion
//!    requires it to finish at least as fast as every static split.
//! 2. **SLO calibration** — streamed long-prefill arrivals admitted under a
//!    projected-TTFT SLO whose configured service-rate guess is wildly
//!    optimistic. The static guess admits the whole stream into a queue it
//!    cannot serve within the target; the calibrated run measures the true
//!    rate from completed prefill batches (conservatively — the estimate
//!    never dips below the cumulative measured mean) and sheds the arrivals
//!    that cannot make the target, pulling admitted-request TTFT back down.
//!
//! Run with: `cargo run --release -p mugi-bench --bin adaptive_sweep`
//! (pass `--quick` for a reduced sweep).

use mugi::arch::noc::NocConfig;
use mugi::report::TextTable;
use mugi::MugiAccelerator;
use mugi_runtime::{
    phased_requests, ControlConfig, Executor, ExecutorConfig, KvConfig, Placement, Request,
    RuntimeReport, Scheduler, SchedulerConfig, SloConfig, WorkloadSpec,
};
use mugi_workloads::models::ModelId;

const MODEL: ModelId = ModelId::Llama2_7b;

fn run(requests: &[Request], placement: Placement, control: ControlConfig) -> (RuntimeReport, u64) {
    // A tight decode batch cap makes decode-node count a real resource:
    // a pool holding more than `max_batch` decoding sessions pays an extra
    // micro-batch round per generated token. Prefill is token_budget-bound
    // (2048/512 = 4 chunks per batch) so the cap leaves it untouched.
    let config = SchedulerConfig { max_batch: 4, ..SchedulerConfig::default() };
    let mut engine = Executor::with_placement(
        MugiAccelerator::new(128),
        Scheduler::new(config),
        ExecutorConfig { control, ..ExecutorConfig::default() },
        placement,
    );
    for r in requests {
        engine.submit(*r);
    }
    let report = engine.run();
    let rerolls = engine.role_reroll_count();
    (report, rerolls)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (prefill_count, decode_count) = if quick { (12, 48) } else { (24, 96) };
    // Phase 1 bursts long prefills with one-token tails: pure prefill
    // demand, served fastest by a prefill-heavy split. Phase 2 is a wide
    // decode tail — short prompts, long generations, and enough concurrent
    // sessions that a decode-light split exceeds `max_batch` per pool and
    // pays extra micro-batch rounds per token. A static split can only be
    // right for one of them.
    let prefill_heavy = WorkloadSpec {
        prompt_tokens: (768, 2048),
        output_tokens: (1, 4),
        arrival_spread_cycles: 10_000_000,
        ..WorkloadSpec::default()
    };
    let decode_heavy = WorkloadSpec {
        prompt_tokens: (32, 96),
        output_tokens: (256, 512),
        arrival_spread_cycles: 10_000_000,
        ..WorkloadSpec::default()
    };
    let requests = phased_requests(
        17,
        &[MODEL],
        &[(prefill_heavy, 0, prefill_count), (decode_heavy, 60_000_000, decode_count)],
    );
    let noc = NocConfig::mesh_4x4();

    let mut table = TextTable::new(
        format!(
            "Adaptive role reassignment: {} requests, prefill-heavy opening then decode-heavy \
             tail, Llama 2 7B, Mugi(128) nodes on a 4x4 mesh",
            requests.len()
        ),
        &[
            "placement",
            "role re-rolls",
            "TTFT p95 (s)",
            "TPOT p95 (s)",
            "tokens/s",
            "makespan (s)",
            "migrations",
        ],
    );
    let splits: &[usize] = if quick { &[8] } else { &[4, 8, 12] };
    let mut best_static_throughput = 0.0f64;
    let mut row = |label: String, rerolls: u64, report: &RuntimeReport| {
        table.add_row(vec![
            label,
            rerolls.to_string(),
            format!("{:.2}", report.ttft.p95),
            format!("{:.4}", report.tpot.p95),
            format!("{:.3}", report.throughput_tokens_per_s),
            format!("{:.2}", report.makespan_s),
            report.kv.migrations.to_string(),
        ]);
    };
    let expected_tokens: u64 = requests.iter().map(|r| r.output_tokens as u64).sum();
    for &prefill_nodes in splits {
        let placement = Placement::disaggregated(noc, prefill_nodes);
        let (report, rerolls) = run(&requests, placement, ControlConfig::default());
        assert_eq!(rerolls, 0, "a disabled controller must not re-roll");
        assert_eq!(report.total_output_tokens, expected_tokens);
        best_static_throughput = best_static_throughput.max(report.throughput_tokens_per_s);
        row(format!("static {}", placement.policy.label()), rerolls, &report);
    }
    // The adaptive run starts from the middling 8p8d split; the controller
    // re-rolls one node per quiescent drain toward the live demand.
    let control = ControlConfig {
        reassign_roles: true,
        load_aware_migration: true,
        min_flip_interval_cycles: 1_000_000,
        min_demand_tokens: 64,
        ..ControlConfig::default()
    };
    let (adaptive, rerolls) = run(&requests, Placement::disaggregated(noc, 8), control);
    assert_eq!(adaptive.total_output_tokens, expected_tokens);
    row("adaptive (from disagg-8p8d)".to_string(), rerolls, &adaptive);
    println!("{}", table.render());
    println!(
        "throughput: adaptive {:.3} tokens/s vs best static {:.3} tokens/s ({:.2}x), {} re-rolls",
        adaptive.throughput_tokens_per_s,
        best_static_throughput,
        adaptive.throughput_tokens_per_s / best_static_throughput,
        rerolls,
    );
    assert!(rerolls > 0, "a shifting mix must trigger role re-rolls");
    assert_eq!(adaptive.kv.role_rerolls, rerolls, "the report must carry the controller counters");
    assert!(
        adaptive.throughput_tokens_per_s >= best_static_throughput,
        "adaptive reassignment must match or beat every static split: {} vs {}",
        adaptive.throughput_tokens_per_s,
        best_static_throughput,
    );

    // Table 2: online SLO calibration. Long prefills stream in over ~300 s
    // against a projected-TTFT admission gate whose configured service-rate
    // guess is wildly stale (500 cycles/token; the true per-batch rate at
    // this shape is tens of millions). The static guess projects every
    // arrival as nearly free and admits the whole stream into a queue it
    // cannot serve within the target; the calibrated run measures the real
    // rate from the first completed prefill batches and starts rejecting
    // arrivals whose projected TTFT exceeds the target. Requests are
    // admitted at their arrival *event* (the event engine's streamed path),
    // so later arrivals see a warmed-up calibrator.
    const GUESS: u64 = 500;
    const TARGET_TTFT_CYCLES: u64 = 600_000_000_000;
    let mut slo_requests = phased_requests(
        23,
        &[MODEL],
        &[(
            WorkloadSpec {
                output_tokens: (4, 8),
                arrival_spread_cycles: 300_000_000_000,
                ..prefill_heavy
            },
            0,
            2 * prefill_count,
        )],
    );
    slo_requests.sort_by_key(|r| r.arrival_cycle);
    let mut table = TextTable::new(
        format!(
            "Online SLO calibration: {} streamed long-prefill requests under a projected-TTFT \
             SLO (target {} s), configured service-rate guess {GUESS} cycles/token",
            slo_requests.len(),
            TARGET_TTFT_CYCLES / 1_000_000_000,
        ),
        &["admission", "admitted", "rejected", "TTFT p95 (s)", "samples", "rate (cyc/tok)"],
    );
    let mut calibrated_rate = None;
    let mut ttft = [0.0f64; 2];
    let mut rejected = [0u64; 2];
    for calibrate in [false, true] {
        let mut engine = Executor::with_placement(
            MugiAccelerator::new(128),
            Scheduler::with_kv(
                SchedulerConfig::default(),
                KvConfig {
                    slo: Some(SloConfig {
                        target_ttft_cycles: TARGET_TTFT_CYCLES,
                        cycles_per_prefill_token: GUESS,
                    }),
                    ..KvConfig::default()
                },
            ),
            ExecutorConfig {
                control: ControlConfig { calibrate_slo: calibrate, ..ControlConfig::default() },
                ..ExecutorConfig::default()
            },
            Placement::disaggregated(noc, 8),
        );
        let report = engine.run_stream(slo_requests.iter().copied());
        let label = if calibrate { "calibrated" } else { "static guess" };
        let rate = report
            .kv
            .calibrated_cycles_per_prefill_token
            .map_or(format!("{GUESS} (configured)"), |r| r.to_string());
        table.add_row(vec![
            label.to_string(),
            report.requests.len().to_string(),
            report.kv.rejected_requests.to_string(),
            format!("{:.1}", report.ttft.p95),
            report.kv.calibration_samples.to_string(),
            rate,
        ]);
        ttft[usize::from(calibrate)] = report.ttft.p95;
        rejected[usize::from(calibrate)] = report.kv.rejected_requests;
        if calibrate {
            calibrated_rate = report.kv.calibrated_cycles_per_prefill_token;
            assert!(report.kv.calibration_samples > 0, "calibration must observe slices");
        } else {
            assert_eq!(report.kv.calibration_samples, 0);
        }
    }
    println!("{}", table.render());
    let rate = calibrated_rate.expect("the calibrated run must publish a rate");
    println!(
        "calibrated admission rate: {rate} cycles/token (configured guess: {GUESS}); \
         admitted-request TTFT p95 {:.1} s vs {:.1} s under the static guess",
        ttft[1], ttft[0],
    );
    assert!(
        rate > GUESS,
        "calibration must correct an optimistic guess upward, got {rate} cycles/token"
    );
    assert_eq!(rejected[0], 0, "the stale guess must admit the whole stream");
    assert!(rejected[1] > 0, "the calibrated gate must shed load the guess admits");
    assert!(
        ttft[1] < ttft[0],
        "shedding load must improve admitted-request TTFT: {} vs {}",
        ttft[1],
        ttft[0],
    );
}
