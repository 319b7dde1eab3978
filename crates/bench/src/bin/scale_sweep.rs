//! Simulator-scale sweep: how fast and in how much memory the runtime
//! itself serves 10⁴ → 10⁶ requests — the numbers behind the "Scale & the
//! event engine" section of EXPERIMENTS.md.
//!
//! Three KV configurations are swept, because the paging regime is where
//! the simulator's own hot-path cost lives:
//!
//! * `unbounded` — the historical default: no paging bookkeeping at all;
//! * `bounded` — the same tiny workload under a bounded per-node pool, so
//!   every admission, growth and release goes through the page allocator
//!   (the delta against `unbounded` is pure paging overhead);
//! * `disagg` — bounded KV with swap preemption on a 2×2 mesh split into
//!   prefill and decode nodes, so every request's pages migrate over the
//!   NoC (the Mugi mesh-serving regime).
//!
//! Two runs of the `Executor` serve the same seeded open-loop Poisson
//! workload at each request count, and must agree bit for bit (asserted):
//!
//! * `per-step` — the whole trace materialized and pre-submitted (skipped
//!   at 10⁶, where holding a million sessions plus a million stat records
//!   is exactly the curve this sweep exists to show);
//! * `event-folded` — fed lazily from a `WorkloadStream`
//!   (`Executor::run_stream_folded`), folding every retired session into a
//!   `StatsFold`, so memory is O(live sessions) regardless of the horizon.
//!
//! Reported per row: simulator wall-clock, requests simulated per second of
//! wall-clock, peak live sessions, peak event-queue length and the
//! process's peak RSS *during that row*. The kernel's `VmHWM` high-water
//! mark is reset via `/proc/self/clear_refs` before each engine run, so a
//! row's figure is its own peak, not an inherited maximum from earlier
//! rows; where the reset is unavailable the row falls back to the (clamped)
//! delta from a baseline sampled at row start.
//!
//! Run with: `cargo run --release -p mugi-bench --bin scale_sweep`
//! (pass `--quick` for a reduced sweep, `--json` to also write the rows to
//! `BENCH_scale.json` so the perf trajectory is tracked across changes).

use mugi::arch::noc::NocConfig;
use mugi::report::TextTable;
use mugi::MugiAccelerator;
use mugi_runtime::{
    Executor, ExecutorConfig, KvConfig, Placement, ScaleReport, Scheduler, SchedulerConfig,
    StatsFold, WorkloadSpec, WorkloadStream,
};
use mugi_workloads::models::ModelId;
use std::time::Instant;

const SEED: u64 = 4242;
const MODEL: ModelId = ModelId::Llama2_7b;

/// One swept serving regime: a workload shape plus the KV/placement
/// configuration it runs under.
struct SweepConfig {
    name: &'static str,
    prompt_tokens: (usize, usize),
    output_tokens: (usize, usize),
    /// Mean Poisson inter-arrival gap, tuned per config so the live
    /// population equilibrates at a few dozen sessions however long the
    /// stream runs.
    mean_gap_cycles: u64,
    kv: KvConfig,
    /// `false` = single 64-lane node; `true` = 2×2 mesh, two prefill and
    /// two decode nodes, every request migrated over the NoC.
    disagg: bool,
    counts_full: &'static [usize],
    counts_quick: &'static [usize],
    /// The per-step oracle's O(total) memory and stat records make it the
    /// contrast curve, not the scale path; cap how far it is driven.
    per_step_cap_full: usize,
    per_step_cap_quick: usize,
}

/// The historical unbounded-KV configuration: open-loop tiny requests at
/// ~0.6x the batched service rate of the 64-lane node. Counts and workload
/// are unchanged from the original sweep so the trajectory stays
/// comparable.
fn unbounded_config() -> SweepConfig {
    SweepConfig {
        name: "unbounded",
        prompt_tokens: (8, 24),
        output_tokens: (1, 4),
        mean_gap_cycles: 3_000_000_000,
        kv: KvConfig::unbounded(),
        disagg: false,
        counts_full: &[10_000, 100_000, 1_000_000],
        counts_quick: &[10_000, 100_000],
        per_step_cap_full: 100_000,
        per_step_cap_quick: 10_000,
    }
}

/// The same tiny workload under a bounded 48-page pool: every admission
/// check, page-table growth and release now runs the allocator, so the
/// req/s delta against `unbounded` is the paging bookkeeping itself. This
/// is the 10⁶-request configuration the extent-allocator work is measured
/// on.
fn bounded_config() -> SweepConfig {
    SweepConfig {
        name: "bounded",
        prompt_tokens: (8, 24),
        output_tokens: (1, 4),
        mean_gap_cycles: 3_000_000_000,
        kv: KvConfig::bounded(128, 48),
        disagg: false,
        counts_full: &[100_000, 1_000_000],
        counts_quick: &[10_000],
        per_step_cap_full: 100_000,
        per_step_cap_quick: 10_000,
    }
}

/// Mid-size prompts on a 2×2 mesh split 2 prefill / 2 decode, bounded KV
/// with swap preemption: every request's KV pages migrate prefill→decode
/// over the NoC, so page-table migration and the swap path are on the
/// measured hot loop.
fn disagg_config() -> SweepConfig {
    SweepConfig {
        name: "disagg",
        prompt_tokens: (32, 128),
        output_tokens: (2, 12),
        mean_gap_cycles: 6_000_000_000,
        kv: KvConfig::bounded(128, 64).with_swap_preemption(),
        disagg: true,
        counts_full: &[100_000],
        counts_quick: &[5_000],
        per_step_cap_full: 100_000,
        per_step_cap_quick: 10_000,
    }
}

impl SweepConfig {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            prompt_tokens: self.prompt_tokens,
            output_tokens: self.output_tokens,
            ..WorkloadSpec::default()
        }
        .with_poisson_arrivals(self.mean_gap_cycles)
    }

    fn placement(&self) -> Placement {
        if self.disagg {
            Placement::disaggregated(NocConfig { rows: 2, cols: 2 }, 2)
        } else {
            Placement::single_node()
        }
    }

    fn executor_config(&self) -> ExecutorConfig {
        // The trace-bucketing granularity must equal the pool's page size
        // (128 for every swept config, matching the historical default).
        ExecutorConfig { kv_bucket: self.kv.page_tokens, ..ExecutorConfig::default() }
    }

    fn executor(&self) -> Executor {
        Executor::with_placement(
            MugiAccelerator::new(64),
            Scheduler::with_kv(SchedulerConfig::default(), self.kv),
            self.executor_config(),
            self.placement(),
        )
    }
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

struct Row {
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

fn run_per_step(cfg: &SweepConfig, count: usize) -> Row {
    let rss = begin_rss_window();
    // mugi-lint: allow(ambient-nondeterminism, "wall-clock timing of the host run; measures the simulator, never feeds simulated state")
    let t0 = Instant::now();
    let mut ex = cfg.executor();
    for r in WorkloadStream::new(SEED, &[MODEL], cfg.spec()).take(count) {
        ex.submit(r);
    }
    let report = ex.run();
    Row {
        engine: "per-step",
        wall_s: t0.elapsed().as_secs_f64(),
        fold: StatsFold::of_report(&report),
        peak_live: count, // everything is materialized and live at once
        peak_queue: 0,
        rss_mib: end_rss_window(rss),
        role_rerolls: report.kv.role_rerolls,
        calibration_samples: report.kv.calibration_samples,
    }
}

fn run_event_folded(cfg: &SweepConfig, count: usize) -> (Row, ScaleReport) {
    let rss = begin_rss_window();
    // mugi-lint: allow(ambient-nondeterminism, "wall-clock timing of the host run; measures the simulator, never feeds simulated state")
    let t0 = Instant::now();
    let mut ex = cfg.executor();
    let report = ex.run_stream_folded(WorkloadStream::new(SEED, &[MODEL], cfg.spec()).take(count));
    let row = Row {
        engine: "event-folded",
        wall_s: t0.elapsed().as_secs_f64(),
        fold: report.fold,
        peak_live: report.peak_live_sessions,
        peak_queue: report.peak_event_queue,
        rss_mib: end_rss_window(rss),
        role_rerolls: ex.role_reroll_count(),
        calibration_samples: ex.scheduler().calibration_samples(),
    };
    (row, report)
}

/// One `BENCH_scale.json` row, formatted by hand (the repo vendors no JSON
/// serializer). `peak_rss_mib` is `null` off Linux.
fn json_row(cfg: &SweepConfig, count: usize, row: &Row, mode: &str) -> String {
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

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = std::env::args().any(|a| a == "--json");
    let configs = [unbounded_config(), bounded_config(), disagg_config()];

    let mut table = TextTable::new(
        "Simulator scale sweep (open-loop Poisson; unbounded / bounded / disaggregated KV)",
        &[
            "config",
            "requests",
            "engine",
            "wall s",
            "req/s (sim)",
            "peak live",
            "peak queue",
            "row RSS MiB",
        ],
    );

    let mut json_rows: Vec<String> = Vec::new();
    let mode = if quick { "quick" } else { "full" };

    for cfg in &configs {
        let counts = if quick { cfg.counts_quick } else { cfg.counts_full };
        let per_step_cap = if quick { cfg.per_step_cap_quick } else { cfg.per_step_cap_full };
        for &count in counts {
            let mut rows: Vec<Row> = Vec::new();
            let mut reference: Option<StatsFold> = None;
            if count <= per_step_cap {
                rows.push(run_per_step(cfg, count));
            }
            let (folded, report) = run_event_folded(cfg, count);
            assert_eq!(folded.fold.requests, count as u64, "every generated request must retire");
            // The fold's order-sensitive identity checksum must match a
            // second pass of the same seeded stream: nothing lost, nothing
            // reordered.
            let mut checksum = 0u64;
            for (id, r) in WorkloadStream::new(SEED, &[MODEL], cfg.spec()).take(count).enumerate() {
                checksum =
                    StatsFold::fold_identity(checksum, id as u64, r.prompt_tokens, r.output_tokens);
            }
            assert_eq!(folded.fold.identity_checksum, checksum, "identity checksum drifted");
            assert!(
                report.peak_live_sessions * 100 < count.max(10_000),
                "live population {} is not O(live sessions) at count {count} ({})",
                report.peak_live_sessions,
                cfg.name
            );
            rows.push(folded);

            for row in rows {
                // Every engine that ran the same count must agree bit for
                // bit.
                match &reference {
                    None => reference = Some(row.fold),
                    Some(golden) => assert_eq!(
                        golden, &row.fold,
                        "{} diverged from the per-step oracle at count {count} ({})",
                        row.engine, cfg.name
                    ),
                }
                table.add_row(vec![
                    cfg.name.to_string(),
                    count.to_string(),
                    row.engine.to_string(),
                    format!("{:.3}", row.wall_s),
                    format!("{:.0}", count as f64 / row.wall_s.max(1e-9)),
                    row.peak_live.to_string(),
                    row.peak_queue.to_string(),
                    row.rss_mib.map_or("-".to_string(), |m| format!("{m:.0}")),
                ]);
                json_rows.push(json_row(cfg, count, &row, mode));
            }
        }
    }

    println!("{}", table.render());
    println!(
        "engines on one row serve the identical seeded workload and are asserted \
         bit-identical; row RSS is the process peak during that row alone \
         (high-water mark reset per row via /proc/self/clear_refs)"
    );

    if json {
        let path = "BENCH_scale.json";
        let body = format!("[\n{}\n]\n", json_rows.join(",\n"));
        std::fs::write(path, body).expect("writing BENCH_scale.json");
        println!("wrote {path}");
    }
}
