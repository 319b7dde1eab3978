//! The serving workloads: seeded open-loop Poisson request streams served
//! by [`EventEngine::run_stream_folded`].
//!
//! Arrivals live in simulated time, so the generator is never late: an
//! arrival is due at its simulated cycle, and the engine submits it when
//! simulated time reaches it, however long the host takes.
//!
//! Every timed pass builds a fresh accelerator and engine, so each pass
//! pays the cold estimate caches as every sweep process does. Building is
//! left out of the pass's time; it is part of each set-up, which
//! `setup_s` times separately.

use crate::stats::{nearest_rank, Quartiles};
use crate::{
    fingerprint, keep_going, median_per_metric, now, Checks, Ledger, Options, Outcome, Size,
    Timings, TRACED_ROUNDS,
};
use mugi::arch::noc::NocConfig;
use mugi::MugiAccelerator;
use mugi_runtime::{
    EventEngine, ExecutorConfig, KvConfig, Placement, Request, ScaleReport, Scheduler,
    SchedulerConfig, StatsFold, WorkloadSpec, WorkloadStream,
};
use mugi_workloads::models::ModelId;
use std::time::{Duration, Instant};

/// How the nodes are placed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mesh {
    /// One node.
    Single,
    /// A 2×2 data-parallel mesh.
    DataParallel2x2,
    /// A 2×2 mesh, two prefill and two decode nodes.
    Disaggregated2x2,
}

/// One serving workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Lanes of each accelerator node.
    pub lanes: usize,
    /// Models, round-robin over the requests.
    pub models: &'static [ModelId],
    /// Inclusive prompt-length range.
    pub prompt_tokens: (usize, usize),
    /// Inclusive output-length range.
    pub output_tokens: (usize, usize),
    /// Mean Poisson inter-arrival gap in simulated cycles.
    pub mean_gap_cycles: u64,
    /// KV pool configuration.
    pub kv: KvConfig,
    /// Node placement.
    pub mesh: Mesh,
    /// Requests per pass at [`Size::Full`].
    pub requests: usize,
    /// Requests per pass at [`Size::Reduced`].
    pub reduced_requests: usize,
}

impl ServeSpec {
    /// `serve_bounded`: the cheapest requests on one 64-lane node under a
    /// bounded 48×128-token pool, so generation, the event queue, batch
    /// formation, KV extents and the estimate memo dominate.
    pub fn bounded() -> Self {
        ServeSpec {
            name: "serve_bounded",
            lanes: 64,
            models: &[ModelId::Llama2_7b],
            prompt_tokens: (8, 24),
            output_tokens: (1, 4),
            mean_gap_cycles: 3_000_000_000,
            kv: KvConfig::bounded(128, 48),
            mesh: Mesh::Single,
            requests: 200_000,
            reduced_requests: 2_000,
        }
    }

    /// `serve_disagg`: a 2×2 mesh split two prefill / two decode, bounded
    /// 64-page pools with swap preemption, so every request migrates once.
    pub fn disagg() -> Self {
        ServeSpec {
            name: "serve_disagg",
            lanes: 64,
            models: &[ModelId::Llama2_7b],
            prompt_tokens: (32, 128),
            output_tokens: (2, 12),
            mean_gap_cycles: 6_000_000_000,
            kv: KvConfig::bounded(128, 64).with_swap_preemption(),
            mesh: Mesh::Disaggregated2x2,
            requests: 60_000,
            reduced_requests: 1_000,
        }
    }

    /// `serve_mixed_dp`: a 2×2 data-parallel mesh serving Llama 2
    /// 7B/13B/70B round-robin, long and varied shapes, unbounded KV, below
    /// saturation.
    pub fn mixed_dp() -> Self {
        ServeSpec {
            name: "serve_mixed_dp",
            lanes: 64,
            models: &[ModelId::Llama2_7b, ModelId::Llama2_13b, ModelId::Llama2_70b],
            prompt_tokens: (32, 2048),
            output_tokens: (4, 64),
            mean_gap_cycles: 400_000_000_000,
            kv: KvConfig::unbounded(),
            mesh: Mesh::DataParallel2x2,
            requests: 30_000,
            reduced_requests: 500,
        }
    }

    /// Whether the traced run also serves the stream under unbounded KV, so
    /// the difference is the host cost of paging: only a bounded pool pages,
    /// and under disaggregation unbounded KV would change the migrations.
    pub fn has_paging_twin(&self) -> bool {
        self.kv.node_pages.is_some() && self.mesh != Mesh::Disaggregated2x2
    }

    /// Requests per pass at `size`.
    pub fn requests_at(&self, size: Size) -> usize {
        match size {
            Size::Full => self.requests,
            Size::Reduced => self.reduced_requests,
        }
    }

    /// The request stream of one pass, before `take`.
    pub fn stream(&self, seed: u64) -> WorkloadStream {
        let spec = WorkloadSpec {
            prompt_tokens: self.prompt_tokens,
            output_tokens: self.output_tokens,
            ..WorkloadSpec::default()
        }
        .with_poisson_arrivals(self.mean_gap_cycles);
        WorkloadStream::new(seed, self.models, spec)
    }

    fn placement(&self) -> Placement {
        let mesh = NocConfig { rows: 2, cols: 2 };
        match self.mesh {
            Mesh::Single => Placement::single_node(),
            Mesh::DataParallel2x2 => Placement::data_parallel(mesh),
            Mesh::Disaggregated2x2 => Placement::disaggregated(mesh, 2),
        }
    }

    /// A fresh engine under `kv`, plus a clone of its accelerator: clones
    /// share the estimate memo and trace cache, so the clone reads their
    /// sizes while the engine runs.
    pub fn build(&self, kv: KvConfig) -> (EventEngine, MugiAccelerator) {
        let accel = MugiAccelerator::new(self.lanes);
        let memo = accel.clone();
        let engine = EventEngine::with_placement(
            accel,
            Scheduler::with_kv(SchedulerConfig::default(), kv),
            ExecutorConfig { kv_bucket: kv.page_tokens, ..ExecutorConfig::default() },
            self.placement(),
        );
        (engine, memo)
    }
}

/// What one pass produced: the folded report and the counters read after
/// it.
#[derive(Clone, Debug)]
pub struct Pass {
    /// The folded report.
    pub report: ScaleReport,
    /// Events the engine's queue popped.
    pub pops: u64,
    /// Executor `PerfFront` hits, misses and resident shapes.
    pub front: (u64, u64, usize),
    /// Entries of the shared perf memo.
    pub perf_entries: usize,
    /// Entries of the shared trace cache.
    pub trace_entries: usize,
}

impl Pass {
    fn observe(report: ScaleReport, engine: &EventEngine, memo: &MugiAccelerator) -> Self {
        Pass {
            report,
            pops: engine.queue().pop_count(),
            front: engine.executor().perf_front_stats(),
            perf_entries: memo.perf_cache_entries(),
            trace_entries: memo.trace_cache_entries(),
        }
    }

    /// The pass's deterministic counters: the report digest first.
    pub fn counters(&self) -> Vec<u64> {
        vec![
            fingerprint::scale_report(&self.report),
            self.pops,
            self.front.0,
            self.front.1,
            self.front.2 as u64,
            self.perf_entries as u64,
            self.trace_entries as u64,
        ]
    }
}

/// What a correct pass must retire, from an independent pass over the
/// stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Expected {
    identity_checksum: u64,
    prompt_tokens: u64,
    output_tokens: u64,
}

impl Expected {
    fn of(spec: &ServeSpec, seed: u64, requests: usize) -> Self {
        let mut e = Expected { identity_checksum: 0, prompt_tokens: 0, output_tokens: 0 };
        for (id, r) in spec.stream(seed).take(requests).enumerate() {
            e.identity_checksum = StatsFold::fold_identity(
                e.identity_checksum,
                id as u64,
                r.prompt_tokens,
                r.output_tokens,
            );
            e.prompt_tokens += r.prompt_tokens as u64;
            e.output_tokens += r.output_tokens as u64;
        }
        e
    }
}

/// Serves one pass on a freshly built engine; building is not timed.
/// Returns the pass and its serving host time.
pub fn timed_pass(spec: &ServeSpec, seed: u64, requests: usize) -> (Pass, Duration) {
    let (mut engine, memo) = spec.build(spec.kv);
    let stream = spec.stream(seed).take(requests);
    let start = now();
    let report = engine.run_stream_folded(stream);
    let wall = start.elapsed();
    (Pass::observe(report, &engine, &memo), wall)
}

/// One pull of the traced stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Span {
    /// Host ns of engine work since the previous pull returned.
    pub interval_ns: u64,
    /// Host ns inside `WorkloadStream::next`.
    pub next_ns: u64,
    /// Entries of the shared perf memo at this pull.
    pub perf_entries: u64,
}

/// A request stream that records a [`Span`] at every pull.
struct TracedStream<'a> {
    inner: WorkloadStream,
    remaining: usize,
    memo: &'a MugiAccelerator,
    last_exit: Instant,
    spans: &'a mut Vec<Span>,
}

impl Iterator for TracedStream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let entry = now();
        let perf_entries = self.memo.perf_cache_entries() as u64;
        let start = now();
        let request = self.inner.next();
        let exit = now();
        self.spans.push(Span {
            interval_ns: (entry - self.last_exit).as_nanos() as u64,
            next_ns: (exit - start).as_nanos() as u64,
            perf_entries,
        });
        self.last_exit = exit;
        request
    }
}

/// Serves one pass through a [`TracedStream`] under `kv`. Returns the pass,
/// its spans and its host time.
pub(crate) fn traced_pass(
    spec: &ServeSpec,
    kv: KvConfig,
    seed: u64,
    requests: usize,
) -> (Pass, Vec<Span>, Duration) {
    let (mut engine, memo) = spec.build(kv);
    let mut spans = Vec::with_capacity(requests);
    let start = now();
    let stream = TracedStream {
        inner: spec.stream(seed),
        remaining: requests,
        memo: &memo,
        last_exit: start,
        spans: &mut spans,
    };
    let report = engine.run_stream_folded(stream);
    let wall = start.elapsed();
    (Pass::observe(report, &engine, &memo), spans, wall)
}

/// Checks one pass; returns its failed operations.
fn check_pass(
    pass: &Pass,
    expected: &Expected,
    pinned: Option<u64>,
    first: Option<&[u64]>,
    requests: usize,
    checks: &mut Checks,
) -> u64 {
    let fold = &pass.report.fold;
    let n = requests as u64;
    let mut ok = checks.expect(fold.requests == n && pass.report.kv.rejected_requests == 0, || {
        format!(
            "{} of {n} requests retired, {} rejected",
            fold.requests, pass.report.kv.rejected_requests
        )
    });
    ok &= checks.expect(fold.identity_checksum == expected.identity_checksum, || {
        "identity checksum differs from a second pass over the stream".to_string()
    });
    ok &= checks.expect(
        (fold.prompt_tokens, fold.output_tokens)
            == (expected.prompt_tokens, expected.output_tokens),
        || {
            format!(
                "tokens not conserved: retired {}/{} prompt/output, generated {}/{}",
                fold.prompt_tokens,
                fold.output_tokens,
                expected.prompt_tokens,
                expected.output_tokens
            )
        },
    );
    let digest = fingerprint::scale_report(&pass.report);
    if let Some(pinned) = pinned {
        ok &= checks.expect(digest == pinned, || {
            format!("report digest {digest:#018x} differs from the pinned {pinned:#018x}")
        });
    }
    if let Some(first) = first {
        ok &= checks.expect(pass.counters() == first, || {
            "deterministic counters differ between passes".to_string()
        });
    }
    if ok {
        n.saturating_sub(fold.requests)
    } else {
        n
    }
}

/// Everything a run prepares before its first timed pass, except the
/// per-pass engine.
struct Prepared {
    requests: usize,
    expected: Expected,
    pinned: Option<u64>,
}

impl Prepared {
    fn new(spec: &ServeSpec, opts: &Options) -> Self {
        let requests = spec.requests_at(opts.size);
        Prepared {
            requests,
            expected: Expected::of(spec, opts.seed, requests),
            pinned: fingerprint::pinned_serve(spec.name, requests, opts.seed),
        }
    }
}

/// One set-up of `spec`: the run's preparation plus one engine, as the
/// first timed pass finds them.
pub fn set_up(spec: &ServeSpec, opts: &Options) {
    std::hint::black_box(Prepared::new(spec, opts).expected);
    std::hint::black_box(spec.build(spec.kv));
}

/// Runs `spec` as one benchmark run (see [`crate::run`]).
pub fn run(spec: &ServeSpec, opts: &Options, time_set_up: &mut dyn FnMut() -> Duration) -> Outcome {
    let Prepared { requests, expected, pinned } = Prepared::new(spec, opts);
    let mut out = Outcome::default();
    let mut timings = Timings::default();
    let mut reference: Option<Vec<u64>> = None;

    let start = now();
    timings.time_reference(&mut out.checks);
    while keep_going(start, timings.walls().len(), opts.seconds) {
        let setup = time_set_up();
        let (pass, wall) = timed_pass(spec, opts.seed, requests);
        timings.record(setup, wall, &mut out.checks);
        out.attempted += requests as u64;
        out.failed +=
            check_pass(&pass, &expected, pinned, reference.as_deref(), requests, &mut out.checks);
        reference.get_or_insert_with(|| pass.counters());
    }
    let reference = reference.expect("at least one pass ran");
    out.counters.clone_from(&reference);
    let median_wall_s = Quartiles::of_secs(timings.walls()).median;
    out.notes.push(match pinned {
        Some(_) => format!("fingerprint: pinned for {requests} requests at seed {}", opts.seed),
        None => format!(
            "fingerprint: not pinned for {requests} requests at seed {}; identity, token and \
             cross-pass checks only",
            opts.seed
        ),
    });

    if !opts.trace {
        return out.end_to_end(&timings, requests as f64);
    }

    let mut cold_intervals = None;
    let mut rounds = Vec::with_capacity(TRACED_ROUNDS);
    let mut twin_valid = true;
    for round in 0..TRACED_ROUNDS {
        let (plain, plain_wall) = timed_pass(spec, opts.seed, requests);
        out.attempted += requests as u64;
        out.failed +=
            check_pass(&plain, &expected, pinned, Some(&reference), requests, &mut out.checks);
        let (traced, spans, traced_wall) = traced_pass(spec, spec.kv, opts.seed, requests);
        out.checks.expect(traced.counters() == reference, || {
            "the traced pass differs from the timed passes".to_string()
        });
        let mut ledger = ledger(&traced, &spans, requests, traced_wall);
        ledger.ns_per_batch = median_wall_s * 1e9 / traced.report.micro_batches.max(1) as f64;
        ledger.trace_overhead_share = traced_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0;
        if spec.has_paging_twin() {
            let (twin, _, twin_wall) =
                traced_pass(spec, KvConfig::unbounded(), opts.seed, requests);
            let (a, b) = (&traced.report, &twin.report);
            let valid = a.fold == b.fold
                && a.makespan_s.to_bits() == b.makespan_s.to_bits()
                && a.micro_batches == b.micro_batches;
            twin_valid &= valid;
            ledger.kv_twin_valid = f64::from(u8::from(valid));
            if valid {
                ledger.kv_paging_ns_per_req =
                    (traced_wall.as_nanos() as f64 - twin_wall.as_nanos() as f64) / requests as f64;
            }
        }
        let cold = *cold_intervals.get_or_insert(ledger.cold_intervals);
        out.checks.expect(ledger.cold_intervals == cold, || {
            "cold intervals differ between traced passes".to_string()
        });
        if round == 0 {
            out.spans = render_spans(&spans);
        }
        rounds.push(ledger.metrics());
    }
    out.counters.extend(cold_intervals.map(|c| c as u64));
    if spec.has_paging_twin() {
        out.notes.push(format!(
            "paging twin (unbounded KV): {}",
            if twin_valid {
                "bit-equal fold, paging cost reported"
            } else {
                "fold differs, no paging cost"
            }
        ));
    }
    out.metrics = median_per_metric(&rounds);
    out
}

/// The per-layer ledger of a serving workload from one traced pass (the
/// caller adds what needs other passes).
fn ledger(traced: &Pass, spans: &[Span], requests: usize, traced_wall: Duration) -> Ledger {
    let n = requests as f64;
    let report = &traced.report;
    let fold = &report.fold;
    let retired = fold.requests.max(1) as f64;
    let mean = |sum: u64, count: u64| if count == 0 { 0.0 } else { sum as f64 / count as f64 };

    let mut intervals: Vec<u64> = spans.iter().map(|s| s.interval_ns).collect();
    intervals.sort_unstable();
    let (mut cold_sum, mut cold_count, mut warm_sum, mut warm_count) = (0u64, 0u64, 0u64, 0u64);
    let mut previous = 0;
    for span in spans {
        if span.perf_entries != previous {
            cold_sum += span.interval_ns;
            cold_count += 1;
        } else {
            warm_sum += span.interval_ns;
            warm_count += 1;
        }
        previous = span.perf_entries;
    }
    let (cold_ns, warm_ns) = (mean(cold_sum, cold_count), mean(warm_sum, warm_count));
    let traced_ns = traced_wall.as_nanos() as f64;
    let (hits, misses, _) = traced.front;
    let kv = &report.kv;

    Ledger {
        sim_ttft_mean_s: fold.ttft_sum_s / retired,
        sim_ttft_max_s: fold.max_ttft_s,
        sim_e2e_mean_s: fold.e2e_sum_s / retired,
        sim_energy_uj_per_token: (fold.energy_uj + fold.noc_energy_uj + fold.kv_transfer_energy_uj)
            / fold.output_tokens.max(1) as f64,
        gen_ns_per_req: spans.iter().map(|s| s.next_ns).sum::<u64>() as f64 / n,
        req_ns_p50: nearest_rank(&intervals, 500) as f64,
        req_ns_p99: nearest_rank(&intervals, 990) as f64,
        req_ns_p999: nearest_rank(&intervals, 999) as f64,
        pops_per_req: traced.pops as f64 / n,
        peak_queue: report.peak_event_queue as f64,
        peak_live: report.peak_live_sessions as f64,
        batches_per_req: report.micro_batches as f64 / n,
        front_hit_ratio: mean(hits, hits + misses),
        front_misses: misses as f64,
        perf_entries: traced.perf_entries as f64,
        trace_entries: traced.trace_entries as f64,
        cold_intervals: cold_count as f64,
        cold_interval_ns: cold_ns,
        warm_interval_ns: warm_ns,
        cold_share: (cold_ns - warm_ns) * cold_count as f64 / traced_ns,
        kv_peak_used_pages: kv.peak_used_pages as f64,
        kv_preemptions: kv.preemptions as f64,
        kv_evicted_pages: kv.evicted_pages as f64,
        kv_rejected: kv.rejected_requests as f64,
        migrations: kv.migrations as f64,
        migrated_pages: kv.migrated_pages as f64,
        swap_outs: kv.swap_outs as f64,
        transfer_stall_cycles: kv.transfer_stall_cycles as f64,
        ..Ledger::default()
    }
}

fn render_spans(spans: &[Span]) -> String {
    let mut text = String::from("pull\tinterval_ns\tnext_ns\tperf_entries\n");
    for (i, s) in spans.iter().enumerate() {
        text.push_str(&format!("{i}\t{}\t{}\t{}\n", s.interval_ns, s.next_ns, s.perf_entries));
    }
    text
}
