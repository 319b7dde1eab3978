//! The discrete-event serving engine: an [`Executor`] fed a lazily
//! streamed request sequence instead of a pre-submitted trace.
//!
//! There is one decision loop, [`Executor::step`]'s round; the engine runs
//! it with a stream. Instead of materializing a whole trace into the
//! scheduler up front, it stages one arrival at a time from a
//! [`WorkloadStream`](crate::workload::WorkloadStream) (or any request
//! iterator) and submits it when simulated time reaches it. Completions
//! and the staged arrival land in `(time, seq)` order, `seq` drawn from one
//! counter at staging and at dispatch. Combined with retiring every
//! finished session into a [`StatsFold`], memory stays O(live sessions)
//! however long the stream runs.
//!
//! Migration retries and swap-in barriers ride inside completions rather
//! than as events of their own: KV pages are freed exclusively by
//! completion effects, and servicing a migration at any other instant could
//! pick a different target pool for no modeling gain.
//!
//! Submission is passive (admission control aside, submitting a request
//! affects nothing until a batch forms at or after its arrival), so lazy
//! submission is equivalent to a pre-submitted trace for every
//! state-independent admission configuration. The stateful admission checks
//! (`max_live_sessions` backpressure, SLO projection) evaluate against the
//! population *at submission time*, which under lazy submission is the
//! arrival instant — the more realistic reading, but a divergence from
//! pre-submitted runs; equivalence tests therefore exercise them with those
//! bounds unset.

use crate::executor::Executor;
use crate::kv::AdmissionError;
use crate::request::{Request, RequestId};
use crate::stats::{RuntimeReport, ScaleReport, StatsFold};

/// The engine's pending arrival and its observability counters. Pending
/// completions are the executor's in-flight batches, so the queue proper is
/// at most one batch per node plus the staged arrival — the stream's next
/// request, so unbounded request streams occupy O(1) queue memory.
///
/// The counters: events landed, the high-water mark of in-flight batches
/// plus the staged arrival, and per-kind time regressions (an event landing
/// earlier than the previous one of its kind). Arrivals are monotone
/// whenever the stream's arrivals are sorted; completions are monotone
/// except in one documented artifact — a node with a lagging clock may form
/// a batch *in the past* using KV pages freed by a completion that landed
/// at a later cycle (bounded multi-pool placement only).
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    /// The staged arrival and its sequence number.
    pub(crate) staged: Option<(u64, Request)>,
    next_seq: u64,
    pops: u64,
    pub(crate) peak_len: usize,
    last_completion_pop: u64,
    last_arrival_pop: u64,
    completion_regressions: u64,
    arrival_regressions: u64,
}

impl EventQueue {
    /// The next sequence number, the tie-break between events at one cycle.
    pub(crate) fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Counts one landed event at `time`, and a regression when it lands
    /// before the previous event of its kind.
    pub(crate) fn count_pop(&mut self, time: u64, arrival: bool) {
        let (last, regressions) = if arrival {
            (&mut self.last_arrival_pop, &mut self.arrival_regressions)
        } else {
            (&mut self.last_completion_pop, &mut self.completion_regressions)
        };
        if time < *last {
            *regressions += 1;
        }
        *last = time;
        self.pops += 1;
    }

    /// Events landed so far.
    pub fn pop_count(&self) -> u64 {
        self.pops
    }

    /// Queue-length high-water mark.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Completions that landed back in time (see the type docs; zero on
    /// every single-pool or unbounded configuration).
    pub fn completion_time_regressions(&self) -> u64 {
        self.completion_regressions
    }

    /// Arrivals that landed back in time (zero whenever the stream's
    /// arrivals are nondecreasing).
    pub fn arrival_time_regressions(&self) -> u64 {
        self.arrival_regressions
    }
}

/// The discrete-event serving engine. Construction mirrors [`Executor`];
/// the run paths add lazy request streaming ([`EventEngine::run_stream`])
/// and an O(live-sessions)-memory folded mode
/// ([`EventEngine::run_stream_folded`]).
#[derive(Clone, Debug)]
pub struct EventEngine {
    ex: Executor,
}

impl EventEngine {
    /// Creates a single-node event engine (cf. [`Executor::new`]).
    pub fn new(accel: mugi::MugiAccelerator, scheduler: crate::scheduler::Scheduler) -> Self {
        EventEngine { ex: Executor::new(accel, scheduler) }
    }

    /// Creates an event engine dispatching onto a NoC mesh under
    /// `placement` (cf. [`Executor::with_placement`]).
    ///
    /// # Panics
    /// Panics under the same configuration errors as
    /// [`Executor::with_placement`].
    pub fn with_placement(
        accel: mugi::MugiAccelerator,
        scheduler: crate::scheduler::Scheduler,
        config: crate::executor::ExecutorConfig,
        placement: crate::placement::Placement,
    ) -> Self {
        EventEngine { ex: Executor::with_placement(accel, scheduler, config, placement) }
    }

    /// Submits a request up front (the materialized-trace path shared with
    /// the per-step executor).
    ///
    /// # Panics
    /// Panics if admission control rejects the request.
    pub fn submit(&mut self, request: Request) -> RequestId {
        self.ex.submit(request)
    }

    /// Submits a request unless admission control rejects it.
    pub fn try_submit(&mut self, request: Request) -> Result<RequestId, AdmissionError> {
        self.ex.try_submit(request)
    }

    /// The underlying executor state (scheduler, clocks, placement).
    pub fn executor(&self) -> &Executor {
        &self.ex
    }

    /// The event queue's observability counters.
    pub fn queue(&self) -> &EventQueue {
        &self.ex.queue
    }

    /// Runs every pre-submitted request to completion and reports, exactly
    /// like [`Executor::run`].
    pub fn run(&mut self) -> RuntimeReport {
        self.run_stream(std::iter::empty())
    }

    /// Serves `stream` lazily to completion: each request is submitted at
    /// its arrival, not up front. Requests the admission control rejects
    /// are counted in the report's KV statistics and dropped, as with
    /// [`Executor::try_submit`]. The stream's arrivals must be
    /// nondecreasing (true for Poisson and single-burst
    /// [`WorkloadStream`](crate::workload::WorkloadStream)s) and no later
    /// than any pre-[`submit`](EventEngine::submit)ted request still
    /// outstanding.
    pub fn run_stream<I>(&mut self, stream: I) -> RuntimeReport
    where
        I: IntoIterator<Item = Request>,
    {
        let mut stream = stream.into_iter();
        self.ex.stage_next(&mut stream);
        while self.ex.round(&mut stream, &mut None) {}
        self.ex.report()
    }

    /// Serves `stream` lazily like [`EventEngine::run_stream`], but retires
    /// every finished session into a [`StatsFold`] instead of keeping its
    /// statistics, so memory stays O(live sessions) for arbitrarily long
    /// streams and the report is the O(1) [`ScaleReport`].
    pub fn run_stream_folded<I>(&mut self, stream: I) -> ScaleReport
    where
        I: IntoIterator<Item = Request>,
    {
        let mut stream = stream.into_iter();
        self.ex.stage_next(&mut stream);
        let mut fold = Some(StatsFold::default());
        while self.ex.round(&mut stream, &mut fold) {}
        let mut fold = fold.unwrap_or_default();
        self.ex.retire_finished_with(|stats| fold.add(&stats));
        self.scale_report(fold)
    }

    /// Builds the folded report for the completed run.
    fn scale_report(&self, fold: StatsFold) -> ScaleReport {
        let freq = self.ex.cost.frequency_hz;
        let makespan_s = self.ex.clock_cycles() as f64 / freq;
        let throughput_tokens_per_s =
            if makespan_s > 0.0 { fold.output_tokens as f64 / makespan_s } else { 0.0 };
        ScaleReport {
            fold,
            makespan_s,
            throughput_tokens_per_s,
            micro_batches: self.ex.steps(),
            nodes: self.ex.node_clocks().len(),
            peak_live_sessions: self.ex.scheduler().peak_live_sessions(),
            peak_event_queue: self.ex.queue.peak_len(),
            kv: self.ex.kv_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Scheduler, SchedulerConfig};
    use mugi::MugiAccelerator;
    use mugi_workloads::models::ModelId;

    #[test]
    fn single_request_event_run_matches_per_step() {
        let request = Request::new(ModelId::Llama2_7b, 200, 5);
        let mut ex = crate::executor::Executor::new(
            MugiAccelerator::new(128),
            Scheduler::new(SchedulerConfig::default()),
        );
        ex.submit(request);
        let mut ev =
            EventEngine::new(MugiAccelerator::new(128), Scheduler::new(SchedulerConfig::default()));
        ev.submit(request);
        assert_eq!(ex.run(), ev.run());
    }

    #[test]
    fn streamed_and_presubmitted_runs_agree() {
        let requests: Vec<Request> = (0..8)
            .map(|i| {
                Request::new(ModelId::Llama2_7b, 64 + i * 16, 4).arriving_at(i as u64 * 500_000)
            })
            .collect();
        let mut pre =
            EventEngine::new(MugiAccelerator::new(128), Scheduler::new(SchedulerConfig::default()));
        for r in &requests {
            pre.submit(*r);
        }
        let streamed =
            EventEngine::new(MugiAccelerator::new(128), Scheduler::new(SchedulerConfig::default()))
                .run_stream(requests.clone());
        assert_eq!(pre.run(), streamed);
    }

    #[test]
    fn folded_run_matches_the_full_report() {
        let requests: Vec<Request> =
            (0..12).map(|i| Request::new(ModelId::Llama2_7b, 100 + i * 8, 6)).collect();
        let full =
            EventEngine::new(MugiAccelerator::new(128), Scheduler::new(SchedulerConfig::default()))
                .run_stream(requests.clone());
        let folded =
            EventEngine::new(MugiAccelerator::new(128), Scheduler::new(SchedulerConfig::default()))
                .run_stream_folded(requests.clone());
        assert_eq!(folded.fold, StatsFold::of_report(&full), "folded stats must be bit-identical");
        assert_eq!(folded.micro_batches, full.micro_batches);
        assert_eq!(folded.makespan_s.to_bits(), full.makespan_s.to_bits());
        assert_eq!(folded.fold.identity_checksum, StatsFold::identity_checksum_of(0, &requests));
        assert!(folded.peak_event_queue >= 1);
        assert!(folded.peak_live_sessions <= requests.len());
    }
}
