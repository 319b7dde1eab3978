//! The serving sweeps: the `mugi-runtime` counterparts of the paper's
//! scaling and end-to-end studies, and the numbers behind the serving
//! sections of EXPERIMENTS.md.
//!
//! Each sweep returns exactly the text its binary prints and checks its own
//! claims with `assert!`, so running it at either preset is also a test.
//! Every engine is built from one [`Scenario`].

use std::fmt::Write as _;
use std::time::Instant;

use mugi::arch::noc::NocConfig;
use mugi::experiments::Preset;
use mugi::report::TextTable;
use mugi::MugiAccelerator;
use mugi_runtime::{
    pages_for, phased_requests, synthetic_requests, ControlConfig, KvConfig, Placement,
    PlacementPolicy, Request, RuntimeReport, Scenario, SchedulerConfig, SchedulingPolicy,
    SloConfig, StatsFold, WorkloadSpec, WorkloadStream,
};
use mugi_workloads::models::ModelId;

const MODEL: ModelId = ModelId::Llama2_7b;
const MIB: f64 = 1024.0 * 1024.0;

/// What one [`serve`] run produced.
#[derive(Debug)]
pub(crate) struct Served {
    /// The run's report.
    pub report: RuntimeReport,
    /// Requests admission control accepted at submission.
    pub admitted: usize,
    /// Requests admission control rejected at submission.
    pub rejected: usize,
    /// The executor's own count of role re-rolls.
    pub role_rerolls: u64,
}

/// Submits every request up front, through admission control, and serves
/// the admitted ones to completion on `scenario`'s engine.
pub(crate) fn serve(scenario: &Scenario, requests: &[Request]) -> Served {
    let mut engine = scenario.build().expect("every swept scenario is valid");
    let mut admitted = 0;
    for &r in requests {
        admitted += usize::from(engine.try_submit(r).is_ok());
    }
    let report = engine.run();
    Served {
        report,
        admitted,
        rejected: requests.len() - admitted,
        role_rerolls: engine.role_reroll_count(),
    }
}

/// Serves `requests` as a stream on `scenario`'s engine: each is submitted,
/// through admission control, when simulated time reaches its arrival
/// ([`Executor::run_stream`](mugi_runtime::Executor::run_stream)).
pub(crate) fn serve_stream(scenario: &Scenario, requests: &[Request]) -> RuntimeReport {
    scenario.build().expect("every swept scenario is valid").run_stream(requests.iter().copied())
}

/// A table from rows of `(header, cell)` pairs, so each column's header
/// sits beside the code that fills it. The first row supplies the header.
fn table_from(title: impl Into<String>, rows: Vec<Vec<(&str, String)>>) -> TextTable {
    let header: Vec<&str> = rows.first().map_or(Vec::new(), |r| r.iter().map(|c| c.0).collect());
    let mut table = TextTable::new(title, &header);
    for row in rows {
        assert!(row.iter().map(|c| c.0).eq(header.iter().copied()), "every row has the header");
        table.add_row(row.into_iter().map(|c| c.1).collect());
    }
    table
}

/// The most pages any one of `requests` can hold: its whole prompt plus
/// every generated token.
fn max_pages(requests: &[Request], page_tokens: usize) -> usize {
    requests
        .iter()
        .map(|r| pages_for(r.prompt_tokens + r.output_tokens, page_tokens))
        .max()
        .expect("a sweep serves at least one request")
}

/// Serving-runtime sweep: continuous-batching throughput and latency across
/// scheduling policies, batch caps and token budgets on a fixed 64-request
/// two-model workload. The numbers behind the serving section of
/// EXPERIMENTS.md.
pub fn serving_sweep(preset: Preset) -> String {
    let quick = preset == Preset::Quick;
    let models = [ModelId::Llama2_7b, ModelId::Llama2_70b];
    let requests = synthetic_requests(7, 64, &models, WorkloadSpec::default());
    let batches: &[usize] = if quick { &[8] } else { &[4, 8, 16, 32] };
    let budgets: &[usize] = if quick { &[1024] } else { &[512, 1024, 2048] };

    let mut rows = Vec::new();
    for policy in [SchedulingPolicy::Fcfs, SchedulingPolicy::ShortestPrefillFirst] {
        for &max_batch in batches {
            for &token_budget in budgets {
                let scheduler = SchedulerConfig {
                    max_batch,
                    token_budget,
                    prefill_chunk: 512,
                    policy,
                    ..SchedulerConfig::default()
                };
                let report = serve(&Scenario { scheduler, ..Scenario::new(256) }, &requests).report;
                rows.push(vec![
                    ("policy", format!("{policy:?}")),
                    ("max_batch", max_batch.to_string()),
                    ("budget", token_budget.to_string()),
                    ("tokens/s", format!("{:.3}", report.throughput_tokens_per_s)),
                    ("TTFT p50 (s)", format!("{:.1}", report.ttft.p50)),
                    ("TTFT p99 (s)", format!("{:.1}", report.ttft.p99)),
                    ("TPOT p50 (s)", format!("{:.2}", report.tpot.p50)),
                    ("steps", report.micro_batches.to_string()),
                ]);
            }
        }
    }
    let table =
        table_from("Serving sweep: 64 requests, Llama 2 7B + 70B, one Mugi(256) node", rows);
    format!("{table}\n")
}

/// Multi-node serving sweep: continuous-batching throughput across NoC mesh
/// sizes and placement policies on a fixed two-model workload — the
/// serving-level counterpart of the paper's Section 6.3.3 scaling study and
/// the numbers behind the multi-node section of EXPERIMENTS.md.
///
/// For every mesh the sweep reports the serving-throughput multiplier over
/// the 1×1 baseline, the latency percentiles, and the NoC transfer energy —
/// nonzero on every real mesh, zero on one node.
pub fn noc_sweep(preset: Preset) -> String {
    let quick = preset == Preset::Quick;
    let models = [ModelId::Llama2_7b, ModelId::Llama2_70b];
    let count = if quick { 32 } else { 64 };
    let requests = synthetic_requests(7, count, &models, WorkloadSpec::default());
    let sides: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };

    let mut rows = Vec::new();
    let frequency_hz = MugiAccelerator::new(256).frequency_hz();
    let baseline = serve(&Scenario::new(256), &requests).report;
    let mut sharded_4x4_multiplier = 0.0;
    for &side in sides {
        let mesh = NocConfig { rows: side, cols: side };
        let policies: &[PlacementPolicy] = if mesh.nodes() == 1 {
            &[PlacementPolicy::DataParallel]
        } else {
            &[PlacementPolicy::DataParallel, PlacementPolicy::Sharded]
        };
        for &policy in policies {
            let placement = Placement { noc: mesh, policy };
            let report = if mesh.nodes() == 1 {
                baseline.clone()
            } else {
                serve(&Scenario { placement, ..Scenario::new(256) }, &requests).report
            };
            let multiplier = report.throughput_tokens_per_s / baseline.throughput_tokens_per_s;
            if mesh.nodes() == 16 && policy == PlacementPolicy::Sharded {
                sharded_4x4_multiplier = multiplier;
            }
            let util = report.node_utilization(frequency_hz);
            let mean_util = util.iter().sum::<f64>() / util.len() as f64;
            assert!(
                (mesh.nodes() == 1) == (report.noc_energy_uj == 0.0),
                "NoC transfer energy must be charged exactly on real meshes"
            );
            let placement =
                if mesh.nodes() == 1 { "single".to_string() } else { policy.label().to_string() };
            rows.push(vec![
                ("mesh", mesh.label()),
                ("placement", placement),
                ("nodes", mesh.nodes().to_string()),
                ("tokens/s", format!("{:.3}", report.throughput_tokens_per_s)),
                ("multiplier", format!("{multiplier:.2}x")),
                ("TTFT p50 (s)", format!("{:.1}", report.ttft.p50)),
                ("TPOT p50 (s)", format!("{:.2}", report.tpot.p50)),
                ("NoC energy (µJ)", format!("{:.1}", report.noc_energy_uj)),
                ("mean node util", format!("{mean_util:.2}")),
            ]);
        }
    }
    assert!(
        sharded_4x4_multiplier >= 12.0,
        "sharded 4x4 placement must deliver near-linear serving scaling, got \
         {sharded_4x4_multiplier:.2}x"
    );
    let table = table_from(
        format!("NoC serving sweep: {count} requests, Llama 2 7B + 70B, Mugi(256) nodes"),
        rows,
    );
    format!(
        "{table}\nsharded 4x4 serving-throughput multiplier: {sharded_4x4_multiplier:.2}x \
         (NoC model predicts {:.2}x)\n",
        NocConfig::mesh_4x4().throughput_multiplier()
    )
}

/// Paged-KV pressure sweep: serving throughput, tail latency, preemption
/// and rejection rates across KV pool sizes and workload pressures — the
/// numbers behind the "KV pressure sweep" section of EXPERIMENTS.md.
///
/// Every admitted request must still complete (preemption is recompute, not
/// abandonment), so the interesting outputs are the *rates*: how often the
/// pool evicts, how much re-prefill debt that creates, and how many
/// submissions the queue-depth admission bound rejects. The admission bound
/// scales with the pool (half a page-pair per live session), so the
/// rejection rate must fall monotonically as the pool grows — asserted
/// below.
pub fn kv_sweep(preset: Preset) -> String {
    const PAGE_TOKENS: usize = 128;
    let quick = preset == Preset::Quick;
    let pressures: &[usize] = if quick { &[24] } else { &[24, 48] };
    let pools: &[Option<usize>] = if quick {
        &[Some(4), Some(16), None]
    } else {
        &[Some(4), Some(8), Some(16), Some(32), Some(64), None]
    };
    let page_gib =
        MODEL.config().kv_cache_bytes(PAGE_TOKENS, 16) as f64 / (1024.0 * 1024.0 * 1024.0);

    let mut rows = Vec::new();
    for &pressure in pressures {
        let requests = synthetic_requests(11, pressure, &[MODEL], WorkloadSpec::kv_pressure());
        let max_need = max_pages(&requests, PAGE_TOKENS);
        let mut last_reject_rate = f64::INFINITY;
        for &pool in pools {
            let kv = match pool {
                None => KvConfig::unbounded(),
                Some(pages) => {
                    assert!(pages >= max_need, "pool must fit the largest single request");
                    // Queue-depth admission scaled to the pool: one live
                    // session per page. Requests of this workload peak at
                    // 2–3 pages, so the admitted population oversubscribes
                    // the pool ~2× and the eviction path gets real
                    // exercise, while submissions beyond the bound push
                    // back on the generator.
                    KvConfig::bounded(PAGE_TOKENS, pages).with_max_live_sessions(pages)
                }
            };
            let out = serve(&Scenario { kv, ..Scenario::new(128) }, &requests);
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
            rows.push(vec![
                ("requests", pressure.to_string()),
                ("pool pages", pool.map_or("unbounded".to_string(), |p| p.to_string())),
                (
                    "pool GiB",
                    pool.map_or("-".to_string(), |p| format!("{:.2}", p as f64 * page_gib)),
                ),
                ("admitted", out.admitted.to_string()),
                ("rejected", out.rejected.to_string()),
                ("reject %", format!("{:.0}%", reject_rate * 100.0)),
                ("tokens/s", format!("{:.3}", out.report.throughput_tokens_per_s)),
                ("TTFT p99 (s)", format!("{:.1}", out.report.ttft.p99)),
                ("preempt", kv.preemptions.to_string()),
                (
                    "preempt/req",
                    format!("{:.2}", kv.preemptions as f64 / out.admitted.max(1) as f64),
                ),
                ("re-prefill tok", kv.reprefill_tokens.to_string()),
                ("peak occ", kv.peak_occupancy().map_or("-".to_string(), |o| format!("{o:.2}"))),
            ]);
        }
    }
    let table = table_from(
        format!(
            "KV pressure sweep: Llama 2 7B, {PAGE_TOKENS}-token pages ({page_gib:.3} GiB each), \
             one Mugi(128) node"
        ),
        rows,
    );
    format!(
        "{table}\nadmission bound = one live session per pool page; preemption = recompute-style \
         eviction (evicted sessions re-prefill and still finish)\n"
    )
}

/// Prefill/decode disaggregation sweep: decode-tail latency and KV-transfer
/// cost across mesh splits, against the colocated baselines, plus
/// recompute-style versus swap-style preemption under KV pressure — the
/// numbers behind the "Prefill/decode disaggregation" section of
/// EXPERIMENTS.md.
///
/// Two tables:
///
/// 1. **Placement sweep** — a mixed long-prefill stream (768–2048-token
///    prompts arriving throughout the run) over one 4×4 mesh: colocated
///    data-parallel versus several prefill/decode splits. Colocated batches
///    mix 512-token prefill chunks into nearly every decode step, so decode
///    TPOT carries prefill latency; the disaggregated splits keep decode
///    steps pure and pay an itemized KV-migration cost instead. The
///    acceptance assertion requires the split to beat the colocated decode
///    TPOT p95.
/// 2. **Preemption sweep** — the same stream through tight per-node KV
///    pools: recompute preemption (drop + re-prefill) versus swap
///    preemption (page out over the NoC, page back in later), with the
///    re-prefill tokens and transfer bytes each mode pays.
pub fn disagg_sweep(preset: Preset) -> String {
    let quick = preset == Preset::Quick;
    let count = if quick { 24 } else { 48 };
    let requests =
        synthetic_requests(13, count, &[MODEL], WorkloadSpec::mixed_long_prefill(40_000_000));
    let noc = NocConfig::mesh_4x4();
    let run = |placement: Placement, kv: KvConfig, requests: &[Request]| {
        serve(&Scenario { kv, placement, ..Scenario::new(128) }, requests).report
    };

    // Table 1: colocated vs disaggregated splits, unbounded KV.
    let splits: &[usize] = if quick { &[8] } else { &[4, 8, 12] };
    let colocated = run(Placement::data_parallel(noc), KvConfig::unbounded(), &requests);
    let mut best_disagg_tpot_p95 = f64::INFINITY;
    let mut rows = Vec::new();
    let mut row = |label: String, report: &RuntimeReport| {
        rows.push(vec![
            ("placement", label),
            ("TTFT p50 (s)", format!("{:.1}", report.ttft.p50)),
            ("TTFT p95 (s)", format!("{:.1}", report.ttft.p95)),
            ("TPOT p50 (s)", format!("{:.3}", report.tpot.p50)),
            ("TPOT p95 (s)", format!("{:.3}", report.tpot.p95)),
            ("tokens/s", format!("{:.3}", report.throughput_tokens_per_s)),
            ("migrations", report.kv.migrations.to_string()),
            ("KV moved (MiB)", format!("{:.0}", report.kv.transfer_bytes as f64 / MIB)),
            ("transfer (µJ)", format!("{:.3}", report.kv.transfer_energy_uj)),
            (
                "xfer stalls (kcyc)",
                format!("{:.1}", report.kv.transfer_stall_cycles as f64 / 1000.0),
            ),
        ]);
    };
    row("4x4 data-parallel (colocated)".to_string(), &colocated);
    for &prefill_nodes in splits {
        let placement = Placement::disaggregated(noc, prefill_nodes);
        let report = run(placement, KvConfig::unbounded(), &requests);
        assert_eq!(
            report.total_output_tokens, colocated.total_output_tokens,
            "disaggregation must conserve tokens"
        );
        assert!(report.kv.migrations > 0, "completed prefills must migrate, not recompute");
        best_disagg_tpot_p95 = best_disagg_tpot_p95.min(report.tpot.p95);
        row(placement.label(), &report);
    }
    assert!(
        best_disagg_tpot_p95 < colocated.tpot.p95,
        "disaggregated placement must improve decode TPOT p95 over colocated: {best_disagg_tpot_p95} vs {}",
        colocated.tpot.p95
    );
    let table = table_from(
        format!(
            "Disaggregation sweep: {count} mixed long-prefill requests (768-2048-token \
             prompts), Llama 2 7B, Mugi(128) nodes on a 4x4 mesh"
        ),
        rows,
    );
    let mut out = format!(
        "{table}\ndecode TPOT p95: colocated {:.3} s vs best disaggregated {:.3} s ({:.2}x)\n",
        colocated.tpot.p95,
        best_disagg_tpot_p95,
        colocated.tpot.p95 / best_disagg_tpot_p95,
    );

    // Table 2: recompute vs swap preemption under decode-side KV pressure.
    // Long generations on fine-grained pages make the decode pool the
    // contended resource: sessions arrive small after their handoff and
    // keep growing, so decode growth — not prefill admission — is what
    // preempts, which is exactly where swap and recompute diverge.
    let page_tokens = 32;
    let pressure_count = if quick { 16 } else { 32 };
    let pressure = synthetic_requests(11, pressure_count, &[MODEL], WorkloadSpec::kv_pressure());
    let pool_pages = max_pages(&pressure, page_tokens) + 2;
    let placement = Placement::disaggregated(NocConfig { rows: 2, cols: 2 }, 2);
    let bounded = KvConfig::bounded(page_tokens, pool_pages);
    let recompute = run(placement, bounded, &pressure);
    let swap = run(placement, bounded.with_swap_preemption(), &pressure);
    let mut rows = Vec::new();
    for (label, report) in [("recompute", &recompute), ("swap", &swap)] {
        rows.push(vec![
            ("preemption", label.to_string()),
            ("preempt", report.kv.preemptions.to_string()),
            ("re-prefill tok", report.kv.reprefill_tokens.to_string()),
            ("swap-outs", report.kv.swap_outs.to_string()),
            ("KV moved (MiB)", format!("{:.0}", report.kv.transfer_bytes as f64 / MIB)),
            ("TPOT p95 (s)", format!("{:.3}", report.tpot.p95)),
            ("tokens/s", format!("{:.3}", report.throughput_tokens_per_s)),
            ("makespan (s)", format!("{:.1}", report.makespan_s)),
        ]);
    }
    assert_eq!(recompute.total_output_tokens, swap.total_output_tokens);
    assert!(swap.kv.swap_outs > 0, "decode-pool pressure must trigger swap-outs");
    assert!(
        swap.kv.reprefill_tokens < recompute.kv.reprefill_tokens,
        "swapping must owe less recompute than recomputing: {} vs {}",
        swap.kv.reprefill_tokens,
        recompute.kv.reprefill_tokens
    );
    let table = table_from(
        format!(
            "Preemption under pressure: {pressure_count} decode-heavy requests (48-96 output \
             tokens), {pool_pages}-page pools ({page_tokens}-token pages), {}",
            placement.label()
        ),
        rows,
    );
    let _ = writeln!(
        out,
        "{table}\nswap preemption trades {} re-prefill tokens for {:.0} MiB of NoC traffic",
        recompute.kv.reprefill_tokens - swap.kv.reprefill_tokens,
        (swap.kv.transfer_bytes.saturating_sub(recompute.kv.transfer_bytes)) as f64 / MIB,
    );
    out
}

/// Adaptive control-plane sweep: dynamic role reassignment against every
/// static prefill:decode split on a workload whose mix shifts mid-run, plus
/// online SLO calibration against a stale static admission rate — the
/// numbers behind the "Adaptive control plane" section of EXPERIMENTS.md.
///
/// Two tables:
///
/// 1. **Shifting-mix placement sweep** — a two-phase trace over a 4×4 mesh:
///    a prefill-heavy opening (long 768–2048-token prompts, short outputs)
///    followed by a decode-heavy tail (short prompts, 96–192-token
///    generations). Any static split is wrong for one of the phases: many
///    prefill nodes starve the decode tail, few prefill nodes strangle the
///    opening. The adaptive run starts from the same middling split and
///    re-rolls node roles as the backlog shifts — the acceptance assertion
///    requires it to finish at least as fast as every static split.
/// 2. **SLO calibration** — streamed long-prefill arrivals admitted under a
///    projected-TTFT SLO whose configured service-rate guess is wildly
///    optimistic. The static guess admits the whole stream into a queue it
///    cannot serve within the target; the calibrated run measures the true
///    rate from completed prefill batches (conservatively — the estimate
///    never dips below the cumulative measured mean) and sheds the arrivals
///    that cannot make the target, pulling admitted-request TTFT back down.
pub fn adaptive_sweep(preset: Preset) -> String {
    let quick = preset == Preset::Quick;
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
    // A tight decode batch cap makes decode-node count a real resource:
    // a pool holding more than `max_batch` decoding sessions pays an extra
    // micro-batch round per generated token. Prefill is token_budget-bound
    // (2048/512 = 4 chunks per batch) so the cap leaves it untouched.
    let scheduler = SchedulerConfig { max_batch: 4, ..SchedulerConfig::default() };
    let run = |placement: Placement, control: ControlConfig| {
        serve(&Scenario { scheduler, control, placement, ..Scenario::new(128) }, &requests)
    };

    let splits: &[usize] = if quick { &[8] } else { &[4, 8, 12] };
    let mut best_static_throughput = 0.0f64;
    let mut rows = Vec::new();
    let mut row = |label: String, served: &Served| {
        let report = &served.report;
        rows.push(vec![
            ("placement", label),
            ("role re-rolls", served.role_rerolls.to_string()),
            ("TTFT p95 (s)", format!("{:.2}", report.ttft.p95)),
            ("TPOT p95 (s)", format!("{:.4}", report.tpot.p95)),
            ("tokens/s", format!("{:.3}", report.throughput_tokens_per_s)),
            ("makespan (s)", format!("{:.2}", report.makespan_s)),
            ("migrations", report.kv.migrations.to_string()),
        ]);
    };
    let expected_tokens: u64 = requests.iter().map(|r| r.output_tokens as u64).sum();
    for &prefill_nodes in splits {
        let placement = Placement::disaggregated(noc, prefill_nodes);
        let served = run(placement, ControlConfig::default());
        assert_eq!(served.role_rerolls, 0, "a disabled controller must not re-roll");
        assert_eq!(served.report.total_output_tokens, expected_tokens);
        best_static_throughput = best_static_throughput.max(served.report.throughput_tokens_per_s);
        row(format!("static {}", placement.policy.label()), &served);
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
    let served = run(Placement::disaggregated(noc, 8), control);
    let (adaptive, rerolls) = (&served.report, served.role_rerolls);
    assert_eq!(adaptive.total_output_tokens, expected_tokens);
    row("adaptive (from disagg-8p8d)".to_string(), &served);
    assert!(rerolls > 0, "a shifting mix must trigger role re-rolls");
    assert_eq!(adaptive.kv.role_rerolls, rerolls, "the report must carry the controller counters");
    assert!(
        adaptive.throughput_tokens_per_s >= best_static_throughput,
        "adaptive reassignment must match or beat every static split: {} vs {}",
        adaptive.throughput_tokens_per_s,
        best_static_throughput,
    );
    let table = table_from(
        format!(
            "Adaptive role reassignment: {} requests, prefill-heavy opening then decode-heavy \
             tail, Llama 2 7B, Mugi(128) nodes on a 4x4 mesh",
            requests.len()
        ),
        rows,
    );
    let mut out = format!(
        "{table}\nthroughput: adaptive {:.3} tokens/s vs best static {:.3} tokens/s ({:.2}x), {} \
         re-rolls\n",
        adaptive.throughput_tokens_per_s,
        best_static_throughput,
        adaptive.throughput_tokens_per_s / best_static_throughput,
        rerolls,
    );

    // Table 2: online SLO calibration. Long prefills stream in over ~300 s
    // against a projected-TTFT admission gate whose configured service-rate
    // guess is wildly stale (500 cycles/token; the true per-batch rate at
    // this shape is tens of millions). The static guess projects every
    // arrival as nearly free and admits the whole stream into a queue it
    // cannot serve within the target; the calibrated run measures the real
    // rate from the first completed prefill batches and starts rejecting
    // arrivals whose projected TTFT exceeds the target. Requests are
    // admitted at their arrival *event* (the streamed path), so later
    // arrivals see a warmed-up calibrator.
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
    let slo = SloConfig { target_ttft_cycles: TARGET_TTFT_CYCLES, cycles_per_prefill_token: GUESS };
    let [guess, calibrated] = [false, true].map(|calibrate| {
        let scenario = Scenario {
            kv: KvConfig { slo: Some(slo), ..KvConfig::default() },
            control: ControlConfig { calibrate_slo: calibrate, ..ControlConfig::default() },
            placement: Placement::disaggregated(noc, 8),
            ..Scenario::new(128)
        };
        serve_stream(&scenario, &slo_requests)
    });
    let mut rows = Vec::new();
    for (label, report) in [("static guess", &guess), ("calibrated", &calibrated)] {
        let rate = report
            .kv
            .calibrated_cycles_per_prefill_token
            .map_or(format!("{GUESS} (configured)"), |r| r.to_string());
        rows.push(vec![
            ("admission", label.to_string()),
            ("admitted", report.requests.len().to_string()),
            ("rejected", report.kv.rejected_requests.to_string()),
            ("TTFT p95 (s)", format!("{:.1}", report.ttft.p95)),
            ("samples", report.kv.calibration_samples.to_string()),
            ("rate (cyc/tok)", rate),
        ]);
    }
    assert_eq!(guess.kv.calibration_samples, 0);
    assert!(calibrated.kv.calibration_samples > 0, "calibration must observe slices");
    let rate = calibrated
        .kv
        .calibrated_cycles_per_prefill_token
        .expect("the calibrated run must publish a rate");
    assert!(
        rate > GUESS,
        "calibration must correct an optimistic guess upward, got {rate} cycles/token"
    );
    assert_eq!(guess.kv.rejected_requests, 0, "the stale guess must admit the whole stream");
    assert!(
        calibrated.kv.rejected_requests > 0,
        "the calibrated gate must shed load the guess admits"
    );
    let (ttft_guess, ttft_calibrated) = (guess.ttft.p95, calibrated.ttft.p95);
    assert!(
        ttft_calibrated < ttft_guess,
        "shedding load must improve admitted-request TTFT: {ttft_calibrated} vs {ttft_guess}"
    );
    let table = table_from(
        format!(
            "Online SLO calibration: {} streamed long-prefill requests under a projected-TTFT \
             SLO (target {} s), configured service-rate guess {GUESS} cycles/token",
            slo_requests.len(),
            TARGET_TTFT_CYCLES / 1_000_000_000,
        ),
        rows,
    );
    let _ = writeln!(
        out,
        "{table}\ncalibrated admission rate: {rate} cycles/token (configured guess: {GUESS}); \
         admitted-request TTFT p95 {ttft_calibrated:.1} s vs {ttft_guess:.1} s under the static \
         guess",
    );
    out
}

const SCALE_SEED: u64 = 4242;

/// One swept serving regime of [`scale_sweep`]: a workload shape plus the
/// engine it runs on.
struct ScaleConfig {
    name: &'static str,
    spec: WorkloadSpec,
    scenario: Scenario,
    counts_full: &'static [usize],
    counts_quick: &'static [usize],
}

/// Tiny open-loop Poisson requests. The mean inter-arrival gap is tuned per
/// config so the live population equilibrates at a few dozen sessions
/// however long the stream runs.
fn poisson(
    prompt_tokens: (usize, usize),
    output_tokens: (usize, usize),
    mean_gap_cycles: u64,
) -> WorkloadSpec {
    WorkloadSpec { prompt_tokens, output_tokens, ..WorkloadSpec::default() }
        .with_poisson_arrivals(mean_gap_cycles)
}

/// The three swept configurations, each on 64-lane nodes.
fn scale_configs() -> [ScaleConfig; 3] {
    [
        // The historical unbounded-KV configuration: open-loop tiny requests
        // at ~0.6x the batched service rate of the 64-lane node. Counts and
        // workload are unchanged from the original sweep so the trajectory
        // stays comparable.
        ScaleConfig {
            name: "unbounded",
            spec: poisson((8, 24), (1, 4), 3_000_000_000),
            scenario: Scenario { kv: KvConfig::unbounded(), ..Scenario::new(64) },
            counts_full: &[10_000, 100_000, 1_000_000],
            counts_quick: &[10_000, 100_000],
        },
        // The same tiny workload under a bounded 48-page pool: every
        // admission check, page-table growth and release now runs the
        // allocator, so the req/s delta against `unbounded` is the paging
        // bookkeeping itself. This is the 10⁶-request configuration the
        // extent-allocator work is measured on.
        ScaleConfig {
            name: "bounded",
            spec: poisson((8, 24), (1, 4), 3_000_000_000),
            scenario: Scenario { kv: KvConfig::bounded(128, 48), ..Scenario::new(64) },
            counts_full: &[100_000, 1_000_000],
            counts_quick: &[10_000],
        },
        // Mid-size prompts on a 2×2 mesh split 2 prefill / 2 decode, bounded
        // KV with swap preemption: every request's KV pages migrate
        // prefill→decode over the NoC, so page-table migration and the swap
        // path are on the measured hot loop.
        ScaleConfig {
            name: "disagg",
            spec: poisson((32, 128), (2, 12), 6_000_000_000),
            scenario: Scenario {
                kv: KvConfig::bounded(128, 64).with_swap_preemption(),
                placement: Placement::disaggregated(NocConfig { rows: 2, cols: 2 }, 2),
                ..Scenario::new(64)
            },
            counts_full: &[100_000],
            counts_quick: &[5_000],
        },
    ]
}

/// Peak resident set of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Marks the start of a per-row RSS measurement window. Resets the
/// kernel's high-water mark (`echo 5 > /proc/self/clear_refs`) so the next
/// `VmHWM` read is this row's own peak; returns a fallback baseline to
/// delta against where the reset is unavailable (non-Linux, locked-down
/// procfs).
fn begin_rss_window() -> Option<f64> {
    if std::fs::write("/proc/self/clear_refs", "5").is_ok() {
        None
    } else {
        peak_rss_mib()
    }
}

/// Peak RSS attributable to the row whose window `baseline` opened.
fn end_rss_window(baseline: Option<f64>) -> Option<f64> {
    let peak = peak_rss_mib()?;
    Some(match baseline {
        None => peak,
        Some(base) => (peak - base).max(0.0),
    })
}

struct ScaleRow {
    engine: &'static str,
    wall_s: f64,
    fold: StatsFold,
    peak_live: usize,
    peak_queue: usize,
    /// Peak RSS during this row alone (see [`begin_rss_window`]).
    rss_mib: Option<f64>,
    /// Adaptive control-plane counters — pinned at zero here (the scale
    /// path runs with the controller off), tracked in the JSON so any
    /// accidental activation shows up in the perf trajectory.
    role_rerolls: u64,
    calibration_samples: u64,
}

fn run_per_step(cfg: &ScaleConfig, count: usize) -> ScaleRow {
    let rss = begin_rss_window();
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock timing of the host run; measures the simulator, never feeds simulated state"
    )]
    let t0 = Instant::now();
    let requests: Vec<Request> =
        WorkloadStream::new(SCALE_SEED, &[MODEL], cfg.spec).take(count).collect();
    let report = serve(&cfg.scenario, &requests).report;
    ScaleRow {
        engine: "per-step",
        wall_s: t0.elapsed().as_secs_f64(),
        fold: StatsFold::of_report(&report),
        peak_live: count, // every session is submitted before the first retires
        peak_queue: 0,
        rss_mib: end_rss_window(rss),
        role_rerolls: report.kv.role_rerolls,
        calibration_samples: report.kv.calibration_samples,
    }
}

fn run_event_folded(cfg: &ScaleConfig, count: usize) -> ScaleRow {
    let rss = begin_rss_window();
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock timing of the host run; measures the simulator, never feeds simulated state"
    )]
    let t0 = Instant::now();
    let mut ex = cfg.scenario.build().expect("every swept scenario is valid");
    let report =
        ex.run_stream_folded(WorkloadStream::new(SCALE_SEED, &[MODEL], cfg.spec).take(count));
    ScaleRow {
        engine: "event-folded",
        wall_s: t0.elapsed().as_secs_f64(),
        fold: report.fold,
        peak_live: report.peak_live_sessions,
        peak_queue: report.peak_event_queue,
        rss_mib: end_rss_window(rss),
        role_rerolls: ex.role_reroll_count(),
        calibration_samples: ex.scheduler().calibration_samples(),
    }
}

/// One `BENCH_scale.json` row, formatted by hand (the repo vendors no JSON
/// serializer). `peak_rss_mib` is `null` off Linux.
fn json_row(cfg: &ScaleConfig, count: usize, row: &ScaleRow, mode: &str) -> String {
    let req_per_s = count as f64 / row.wall_s.max(1e-9);
    let rss = row.rss_mib.map_or("null".to_string(), |m| format!("{m:.1}"));
    format!(
        "  {{\"config\": \"{}\", \"requests\": {count}, \"engine\": \"{}\", \
         \"wall_s\": {:.6}, \"req_per_s\": {:.0}, \"peak_live\": {}, \"peak_queue\": {}, \
         \"peak_rss_mib\": {rss}, \"role_rerolls\": {}, \
         \"calibration_samples\": {}, \"mode\": \"{mode}\"}}",
        cfg.name,
        row.engine,
        row.wall_s,
        req_per_s,
        row.peak_live,
        row.peak_queue,
        row.role_rerolls,
        row.calibration_samples
    )
}

/// Simulator-scale sweep: how fast and in how much memory the runtime
/// itself serves 10⁴ → 10⁶ requests — the numbers behind the "Scale & the
/// event engine" section of EXPERIMENTS.md.
///
/// Three KV configurations are swept, because the paging regime is where
/// the simulator's own hot-path cost lives:
///
/// * `unbounded` — the historical default: no paging bookkeeping at all;
/// * `bounded` — the same tiny workload under a bounded per-node pool, so
///   every admission, growth and release goes through the page allocator
///   (the delta against `unbounded` is pure paging overhead);
/// * `disagg` — bounded KV with swap preemption on a 2×2 mesh split into
///   prefill and decode nodes, so every request's pages migrate over the
///   NoC (the Mugi mesh-serving regime).
///
/// Two runs of the `Executor` serve the same seeded open-loop Poisson
/// workload at each request count, and must agree bit for bit (asserted):
///
/// * `per-step` — the whole trace materialized and pre-submitted
///   (`Executor::run`): every session is live before the first one
///   finishes, and the run keeps one `RequestStats` record per request for
///   its report, so memory is O(trace) (skipped past 10⁴ requests at the
///   quick preset and 10⁵ at the full one; that growth is exactly the
///   curve this sweep exists to show);
/// * `event-folded` — fed lazily from a `WorkloadStream`
///   (`Executor::run_stream_folded`), folding every retired session into a
///   `StatsFold` instead of keeping its record, so memory is O(live
///   sessions) regardless of the horizon.
///
/// Both runs retire each session as it finishes, through the same code.
///
/// Reported per row: simulator wall-clock, requests simulated per second of
/// wall-clock, peak live sessions, peak event-queue length and the
/// process's peak RSS *during that row*. The kernel's `VmHWM` high-water
/// mark is reset via `/proc/self/clear_refs` before each engine run, so a
/// row's figure is its own peak, not an inherited maximum from earlier
/// rows; where the reset is unavailable the row falls back to the (clamped)
/// delta from a baseline sampled at row start.
///
/// With `json` set the rows are also written to `BENCH_scale.json` in the
/// working directory, so the perf trajectory is tracked across changes.
pub fn scale_sweep(preset: Preset, json: bool) -> String {
    let quick = preset == Preset::Quick;
    let mut rows = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();
    let mode = if quick { "quick" } else { "full" };
    // The per-step oracle's O(total) memory and stat records make it the
    // contrast curve, not the scale path; cap how far it is driven.
    let per_step_cap = if quick { 10_000 } else { 100_000 };

    for cfg in &scale_configs() {
        let counts = if quick { cfg.counts_quick } else { cfg.counts_full };
        for &count in counts {
            let per_step = (count <= per_step_cap).then(|| run_per_step(cfg, count));
            let folded = run_event_folded(cfg, count);
            assert_eq!(folded.fold.requests, count as u64, "every generated request must retire");
            // The fold's order-sensitive identity checksum must match a
            // second pass of the same seeded stream: nothing lost, nothing
            // reordered.
            let mut checksum = 0u64;
            let stream = WorkloadStream::new(SCALE_SEED, &[MODEL], cfg.spec).take(count);
            for (id, r) in stream.enumerate() {
                checksum =
                    StatsFold::fold_identity(checksum, id as u64, r.prompt_tokens, r.output_tokens);
            }
            assert_eq!(folded.fold.identity_checksum, checksum, "identity checksum drifted");
            assert!(
                folded.peak_live * 100 < count.max(10_000),
                "live population {} is not O(live sessions) at count {count} ({})",
                folded.peak_live,
                cfg.name
            );
            // Both engines serve the same count and must agree bit for bit.
            if let Some(per_step) = &per_step {
                assert_eq!(
                    per_step.fold, folded.fold,
                    "{} diverged from the per-step oracle at count {count} ({})",
                    folded.engine, cfg.name
                );
            }
            for row in per_step.iter().chain([&folded]) {
                rows.push(vec![
                    ("config", cfg.name.to_string()),
                    ("requests", count.to_string()),
                    ("engine", row.engine.to_string()),
                    ("wall s", format!("{:.3}", row.wall_s)),
                    ("req/s (sim)", format!("{:.0}", count as f64 / row.wall_s.max(1e-9))),
                    ("peak live", row.peak_live.to_string()),
                    ("peak queue", row.peak_queue.to_string()),
                    ("row RSS MiB", row.rss_mib.map_or("-".to_string(), |m| format!("{m:.0}"))),
                ]);
                json_rows.push(json_row(cfg, count, row, mode));
            }
        }
    }

    let table = table_from(
        "Simulator scale sweep (open-loop Poisson; unbounded / bounded / disaggregated KV)",
        rows,
    );
    let mut out = format!(
        "{table}\nengines on one row serve the identical seeded workload and are asserted \
         bit-identical; row RSS is the process peak during that row alone \
         (high-water mark reset per row via /proc/self/clear_refs)\n"
    );
    if json {
        let path = "BENCH_scale.json";
        let body = format!("[\n{}\n]\n", json_rows.join(",\n"));
        std::fs::write(path, body).expect("writing BENCH_scale.json");
        let _ = writeln!(out, "wrote {path}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each sweep asserts its own claims, so running it is the test.

    #[test]
    fn deterministic_sweeps_hold_at_both_presets() {
        let sweeps: [fn(Preset) -> String; 5] =
            [serving_sweep, noc_sweep, kv_sweep, disagg_sweep, adaptive_sweep];
        for sweep in sweeps {
            for preset in [Preset::Quick, Preset::Full] {
                assert!(sweep(preset).starts_with("## "), "every sweep prints a table");
            }
        }
    }

    #[test]
    fn quick_scale_sweep_holds_without_writing_json() {
        let out = scale_sweep(Preset::Quick, false);
        assert!(out.contains("event-folded") && !out.contains("wrote"));
    }
}
