//! The repository benchmark of the Mugi reproduction.
//!
//! One run drives one named workload for a fixed host-time budget and
//! reports either the end-to-end metrics (tracing off) or the per-layer
//! ledger (tracing on), after checking that every output is correct:
//!
//! * three serving workloads run open-loop Poisson request streams through
//!   [`EventEngine::run_stream_folded`](mugi_runtime::EventEngine), each
//!   pass on a freshly built accelerator and engine ([`serve`]);
//! * `paper_pipeline` runs the twelve figure/table drivers of the paper's
//!   evaluation in process ([`paper`]).
//!
//! Every layer is measured from outside: by timing calls into public
//! functions and reading public counters. Nothing here changes the
//! simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fingerprint;
pub mod paper;
pub mod reference;
pub mod serve;
pub mod stats;

use stats::Quartiles;
use std::time::{Duration, Instant};

/// The seed the benchmark's fingerprints were first pinned at.
pub const DEFAULT_SEED: u64 = 4242;

/// Fewest timed passes a run makes, however short its time budget: enough
/// for a median and for the cross-pass determinism check.
pub const MIN_PASSES: usize = 3;

/// Rounds of the traced run. Each round serves one untraced and one traced
/// pass back to back (and, on `serve_bounded`, the traced unbounded-KV
/// twin), so each comparison is between passes that met the same host
/// load; the ledger reports each metric's median over the rounds.
pub const TRACED_ROUNDS: usize = 5;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One 64-lane node, tiny requests, a bounded KV pool: the scale path.
    ServeBounded,
    /// A 2×2 mesh split into prefill and decode nodes: every request's KV
    /// migrates.
    ServeDisagg,
    /// A 2×2 data-parallel mesh serving three model sizes, unbounded KV.
    ServeMixedDp,
    /// The twelve figure/table drivers of the paper's evaluation.
    PaperPipeline,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ServeBounded,
        Workload::ServeDisagg,
        Workload::ServeMixedDp,
        Workload::PaperPipeline,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeBounded => "serve_bounded",
            Workload::ServeDisagg => "serve_disagg",
            Workload::ServeMixedDp => "serve_mixed_dp",
            Workload::PaperPipeline => "paper_pipeline",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one pass does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A small pass for the benchmark's own tests.
    Reduced,
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload to drive.
    pub workload: Workload,
    /// Seed of the generated requests.
    pub seed: u64,
    /// Host seconds of timed passes (at least [`MIN_PASSES`] run).
    pub seconds: f64,
    /// Whether to make the traced run and report the per-layer ledger
    /// instead of the end-to-end metrics.
    pub trace: bool,
    /// Pass size.
    pub size: Size,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The end-to-end metrics, measured with tracing off. Timings are
/// normalised to the reference host speed ([`reference`]).
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Normalised host seconds per timed pass.
    pub norm_wall_s: Quartiles,
    /// Operations per normalised host second: simulated requests retired
    /// (serving) or figure/table drivers completed (paper pipeline).
    pub norm_ops_per_s: Quartiles,
    /// Peak resident set of the process in MiB.
    pub peak_rss_mib: f64,
    /// Normalised host seconds to set up one pass.
    pub setup_s: Quartiles,
}

impl EndToEnd {
    /// The end-to-end metrics by name: medians over the run's passes.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("norm_wall_s", "s", self.norm_wall_s.median),
            metric("norm_ops_per_s", "1/s", self.norm_ops_per_s.median),
            metric("peak_rss_mib", "MiB", self.peak_rss_mib),
            metric("setup_s", "s", self.setup_s.median),
        ]
    }
}

/// One line per timing: median, quartiles and sample count.
fn quartiles_note(name: &str, q: &Quartiles) -> String {
    format!(
        "{name}: median {:.6} (q1 {:.6}, q3 {:.6}) over {} samples",
        q.median, q.q1, q.q3, q.samples
    )
}

/// The host times of a run's timed passes and set-ups, each with the
/// reference kernel timed around it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Timings {
    walls: Vec<Duration>,
    setups: Vec<Duration>,
    references: Vec<Duration>,
}

impl Timings {
    /// Times the reference kernel once, after the last recorded pass.
    pub(crate) fn time_reference(&mut self, checks: &mut Checks) {
        let (took, ok) = reference::time();
        checks.expect(ok, || "the reference kernel returned a wrong checksum".to_string());
        self.references.push(took);
    }

    /// Records one set-up and the pass after it, then times the reference
    /// kernel again. The first pass needs a [`Timings::time_reference`]
    /// before it.
    pub(crate) fn record(&mut self, setup: Duration, wall: Duration, checks: &mut Checks) {
        self.setups.push(setup);
        self.walls.push(wall);
        self.time_reference(checks);
    }

    /// The timed passes' host times.
    pub(crate) fn walls(&self) -> &[Duration] {
        &self.walls
    }

    /// Each pass's factor to the reference speed, from the kernel runs
    /// before and after it.
    fn scales(&self) -> impl Iterator<Item = f64> + '_ {
        self.references.windows(2).map(|w| reference::scale(w[0], w[1]))
    }

    /// `times` normalised, each by its pass's factor.
    fn normalised(&self, times: &[Duration]) -> Vec<f64> {
        times.iter().zip(self.scales()).map(|(t, k)| t.as_secs_f64() * k).collect()
    }
}

/// The per-layer ledger, from the traced run. Every workload reports every
/// entry; a layer the workload bypasses reads zero.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[allow(missing_docs)]
pub struct Ledger {
    // Modelled design, from the fold: deterministic per seed.
    pub sim_ttft_mean_s: f64,
    pub sim_ttft_max_s: f64,
    pub sim_e2e_mean_s: f64,
    pub sim_energy_uj_per_token: f64,
    // runtime::workload
    pub gen_ns_per_req: f64,
    // runtime::event and runtime::executor
    pub req_ns_p50: f64,
    pub req_ns_p99: f64,
    pub req_ns_p999: f64,
    pub pops_per_req: f64,
    pub peak_queue: f64,
    pub peak_live: f64,
    pub batches_per_req: f64,
    pub ns_per_batch: f64,
    // The estimate path: executor PerfFront, shared perf memo, trace cache.
    pub front_hit_ratio: f64,
    pub front_misses: f64,
    pub perf_entries: f64,
    pub trace_entries: f64,
    pub cold_intervals: f64,
    pub cold_interval_ns: f64,
    pub warm_interval_ns: f64,
    pub cold_share: f64,
    // runtime::kv
    pub kv_peak_used_pages: f64,
    pub kv_preemptions: f64,
    pub kv_evicted_pages: f64,
    pub kv_rejected: f64,
    pub kv_paging_ns_per_req: f64,
    pub kv_twin_valid: f64,
    // runtime::placement (migration)
    pub migrations: f64,
    pub migrated_pages: f64,
    pub swap_outs: f64,
    pub transfer_stall_cycles: f64,
    // core::experiments
    pub fig04_s: f64,
    pub fig06_s: f64,
    pub fig07_s: f64,
    pub fig08_s: f64,
    pub arch_s: f64,
    // The traced pass against the untraced median.
    pub trace_overhead_share: f64,
}

impl Ledger {
    /// The ledger by name.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("sim_ttft_mean_s", "s", self.sim_ttft_mean_s),
            metric("sim_ttft_max_s", "s", self.sim_ttft_max_s),
            metric("sim_e2e_mean_s", "s", self.sim_e2e_mean_s),
            metric("sim_energy_uj_per_token", "uJ/token", self.sim_energy_uj_per_token),
            metric("workload.gen_ns_per_req", "ns", self.gen_ns_per_req),
            metric("event.req_ns_p50", "ns", self.req_ns_p50),
            metric("event.req_ns_p99", "ns", self.req_ns_p99),
            metric("event.req_ns_p999", "ns", self.req_ns_p999),
            metric("event.pops_per_req", "count", self.pops_per_req),
            metric("event.peak_queue", "count", self.peak_queue),
            metric("event.peak_live", "count", self.peak_live),
            metric("executor.batches_per_req", "count", self.batches_per_req),
            metric("executor.ns_per_batch", "ns", self.ns_per_batch),
            metric("estimate.front_hit_ratio", "ratio", self.front_hit_ratio),
            metric("estimate.front_misses", "count", self.front_misses),
            metric("estimate.perf_entries", "count", self.perf_entries),
            metric("estimate.trace_entries", "count", self.trace_entries),
            metric("estimate.cold_intervals", "count", self.cold_intervals),
            metric("estimate.cold_interval_ns", "ns", self.cold_interval_ns),
            metric("estimate.warm_interval_ns", "ns", self.warm_interval_ns),
            metric("estimate.cold_share", "ratio", self.cold_share),
            metric("kv.peak_used_pages", "count", self.kv_peak_used_pages),
            metric("kv.preemptions", "count", self.kv_preemptions),
            metric("kv.evicted_pages", "count", self.kv_evicted_pages),
            metric("kv.rejected", "count", self.kv_rejected),
            metric("kv.paging_ns_per_req", "ns", self.kv_paging_ns_per_req),
            metric("kv.twin_valid", "count", self.kv_twin_valid),
            metric("placement.migrations", "count", self.migrations),
            metric("placement.migrated_pages", "count", self.migrated_pages),
            metric("placement.swap_outs", "count", self.swap_outs),
            metric("placement.transfer_stall_cycles", "cycles", self.transfer_stall_cycles),
            metric("paper.fig04_s", "s", self.fig04_s),
            metric("paper.fig06_s", "s", self.fig06_s),
            metric("paper.fig07_s", "s", self.fig07_s),
            metric("paper.fig08_s", "s", self.fig08_s),
            metric("paper.arch_s", "s", self.arch_s),
            metric("trace.overhead_share", "ratio", self.trace_overhead_share),
        ]
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Each metric's median over rounds that report the same metrics in the
/// same order.
pub(crate) fn median_per_metric(rounds: &[Vec<Metric>]) -> Vec<Metric> {
    rounds[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = rounds.iter().map(|r| r[i].value).collect();
            Metric { value: Quartiles::of(&values).median, ..m.clone() }
        })
        .collect()
}

/// Collects the checks of a run: every failed check leaves one line.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    problems: Vec<String>,
}

impl Checks {
    /// Records `problem` unless `ok` holds (each distinct problem once).
    pub fn expect(&mut self, ok: bool, problem: impl FnOnce() -> String) -> bool {
        if !ok {
            let problem = problem();
            if !self.problems.contains(&problem) {
                self.problems.push(problem);
            }
        }
        ok
    }

    /// The failed checks.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }
}

/// Everything one run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations that failed: rejected or never retired, or part of a
    /// pass whose check failed.
    pub failed: u64,
    /// The run's checks.
    pub checks: Checks,
    /// The reported metrics: end-to-end with tracing off, the ledger with
    /// tracing on.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The run's deterministic counters: they repeat exactly across passes
    /// and runs of one seed.
    pub counters: Vec<u64>,
    /// The traced run's spans, tab-separated with a header (empty with
    /// tracing off).
    pub spans: String,
}

impl Outcome {
    /// Reports the end-to-end metrics of a run from its passes' and
    /// set-ups' host times; every pass did `ops_per_pass` operations.
    pub(crate) fn end_to_end(mut self, timings: &Timings, ops_per_pass: f64) -> Self {
        let norm_wall_s = Quartiles::of(&timings.normalised(&timings.walls));
        let e2e = EndToEnd {
            norm_wall_s,
            norm_ops_per_s: norm_wall_s.map(|w| ops_per_pass / w),
            peak_rss_mib: peak_rss_mib().unwrap_or(0.0),
            setup_s: Quartiles::of(&timings.normalised(&timings.setups)),
        };
        self.metrics = e2e.metrics();
        let scales: Vec<f64> = timings.scales().collect();
        self.notes.extend([
            quartiles_note("norm_wall_s", &e2e.norm_wall_s),
            quartiles_note("norm_ops_per_s", &e2e.norm_ops_per_s),
            quartiles_note("setup_s (normalised)", &e2e.setup_s),
            quartiles_note("wall_s (host)", &Quartiles::of_secs(&timings.walls)),
            quartiles_note("setup_s (host)", &Quartiles::of_secs(&timings.setups)),
            quartiles_note("reference kernel s (host)", &Quartiles::of_secs(&timings.references)),
            quartiles_note("factor to reference speed", &Quartiles::of(&scales)),
            format!("peak_rss_mib: {:.1}", e2e.peak_rss_mib),
            format!("failed_share: {}", self.failed as f64 / self.attempted as f64),
        ]);
        self
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.problems().is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Values print in full precision.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The serving workload `workload` names, or `None` for the paper
/// pipeline.
pub fn serve_spec(workload: Workload) -> Option<serve::ServeSpec> {
    match workload {
        Workload::ServeBounded => Some(serve::ServeSpec::bounded()),
        Workload::ServeDisagg => Some(serve::ServeSpec::disagg()),
        Workload::ServeMixedDp => Some(serve::ServeSpec::mixed_dp()),
        Workload::PaperPipeline => None,
    }
}

/// One set-up: everything a run does before its first timed pass. The
/// command times it in fresh processes, so `setup_s` includes process
/// start-up.
pub fn set_up(opts: &Options) {
    match serve_spec(opts.workload) {
        Some(spec) => serve::set_up(&spec, opts),
        None => paper::set_up(opts),
    }
}

/// Runs one benchmark run. Before every timed pass it calls `time_set_up`,
/// which makes one separate set-up and returns its host time; their median,
/// normalised to the reference speed, is `setup_s`.
pub fn run(opts: &Options, time_set_up: &mut dyn FnMut() -> Duration) -> Outcome {
    match serve_spec(opts.workload) {
        Some(spec) => serve::run(&spec, opts, time_set_up),
        None => paper::run(opts, time_set_up),
    }
}

/// Times one [`set_up`] in this process (the command times it in a fresh
/// process instead).
pub fn time_set_up_in_process(opts: &Options) -> Duration {
    let start = now();
    set_up(opts);
    start.elapsed()
}

/// The host clock every benchmark timing reads.
pub fn now() -> Instant {
    // mugi-lint: allow(ambient-nondeterminism, "host-time measurement of the benchmark; never feeds simulated state")
    Instant::now()
}

/// Whether a run that started its timed passes at `start` and has made
/// `passes` of them should make another.
pub(crate) fn keep_going(start: Instant, passes: usize, seconds: f64) -> bool {
    passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// procfs does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
