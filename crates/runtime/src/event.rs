//! The event queue of the serving loop, and the benchmark's engine shim.
//!
//! [`Executor::run_stream`] stages one arrival at a time from a
//! [`WorkloadStream`](crate::workload::WorkloadStream) (or any request
//! iterator) and submits it when simulated time reaches it. Completions
//! and the staged arrival land in `(time, seq)` order, `seq` drawn from one
//! counter at staging and at dispatch; [`EventQueue`] holds the staged
//! arrival and counts what landed.
//!
//! Migration retries and swap-in barriers ride inside completions rather
//! than as events of their own: KV pages are freed exclusively by
//! completion effects, and servicing a migration at any other instant could
//! pick a different target pool for no modeling gain.

use crate::executor::{Executor, ExecutorConfig};
use crate::placement::Placement;
use crate::request::Request;
use crate::scheduler::Scheduler;
use crate::stats::ScaleReport;
use mugi::MugiAccelerator;

/// The serving loop's pending arrival and its observability counters.
/// Pending completions are the executor's in-flight batches, so the queue is
/// at most one batch per node plus the staged arrival — the stream's next
/// request, so unbounded request streams occupy O(1) queue memory.
///
/// The counters: events landed, the high-water mark of in-flight batches
/// plus the staged arrival, and per-kind time regressions (an event landing
/// earlier than the previous one of its kind). Arrivals are monotone
/// whenever the stream's arrivals are sorted. Completions are not, on any
/// multi-node placement: when an idle node finds nothing runnable at its
/// clock, the round finishes the earliest in-flight batch even if that
/// batch ends later than the node's clock (the one clock advance that can
/// unlock work), so a completion can land before an earlier one on another
/// node. Under bounded multi-pool placement a lagging node may also form a
/// batch *in the past* using KV pages freed by a completion that landed at
/// a later cycle. A single node lands its completions in order.
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
    /// Draws the next `n ≥ 1` sequence numbers, the tie-break between
    /// events at one cycle, and returns the last. A decode-run segment
    /// draws one per step; only its last step's completion is queued.
    pub(crate) fn next_seqs(&mut self, n: u64) -> u64 {
        self.next_seq += n;
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

    /// Counts the `steps ≥ 1` completions of a decode-run segment, landing
    /// at strictly increasing times from `first` to `last`: only the first
    /// can land before the previous completion.
    pub(crate) fn count_segment_pops(&mut self, first: u64, last: u64, steps: u64) {
        debug_assert!(steps >= 1 && first <= last, "a segment has at least one step");
        self.count_pop(first, false);
        self.last_completion_pop = last;
        self.pops += steps - 1;
    }

    /// Events landed so far.
    pub fn pop_count(&self) -> u64 {
        self.pops
    }

    /// Queue-length high-water mark.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Completions that landed back in time (see the type docs; zero on a
    /// single node, commonly nonzero on a multi-node mesh whatever its KV
    /// pools).
    pub fn completion_time_regressions(&self) -> u64 {
        self.completion_regressions
    }

    /// Arrivals that landed back in time (zero whenever the stream's
    /// arrivals are nondecreasing).
    pub fn arrival_time_regressions(&self) -> u64 {
        self.arrival_regressions
    }
}

/// A forwarding wrapper over [`Executor`]. It stays only because the
/// benchmark (`perfbench/`) builds its serving workloads through it; every
/// other caller builds an [`Executor`] from a [`Scenario`](crate::Scenario).
#[doc(hidden)]
#[derive(Clone, Debug)]
pub struct EventEngine {
    ex: Executor,
}

impl EventEngine {
    /// Builds the engine by hand: the same checks and the same construction
    /// as [`Scenario::build`](crate::Scenario::build).
    ///
    /// # Panics
    /// Panics if `config.kv_bucket` differs from the KV pool's
    /// `page_tokens`, or with the [`ConfigError`](crate::ConfigError) text
    /// if the configuration breaks a rule.
    pub fn with_placement(
        accel: MugiAccelerator,
        scheduler: Scheduler,
        config: ExecutorConfig,
        placement: Placement,
    ) -> Self {
        EventEngine { ex: Executor::with_placement(accel, scheduler, config, placement) }
    }

    /// [`Executor::run_stream_folded`].
    pub fn run_stream_folded<I>(&mut self, stream: I) -> ScaleReport
    where
        I: IntoIterator<Item = Request>,
    {
        self.ex.run_stream_folded(stream)
    }

    /// [`Executor::queue`].
    pub fn queue(&self) -> &EventQueue {
        self.ex.queue()
    }

    /// The wrapped executor.
    pub fn executor(&self) -> &Executor {
        &self.ex
    }
}

#[cfg(test)]
mod tests {
    use crate::executor::Executor;
    use crate::placement::Placement;
    use crate::request::Request;
    use crate::scenario::Scenario;
    use crate::stats::StatsFold;
    use mugi::arch::noc::NocConfig;
    use mugi_workloads::models::ModelId;

    fn executor() -> Executor {
        Scenario::new(128).build().unwrap()
    }

    #[test]
    fn streamed_and_presubmitted_runs_agree() {
        let requests: Vec<Request> = (0..8)
            .map(|i| {
                Request::new(ModelId::Llama2_7b, 64 + i * 16, 4).arriving_at(i as u64 * 500_000)
            })
            .collect();
        let mut pre = executor();
        for r in &requests {
            pre.submit(*r);
        }
        let streamed = executor().run_stream(requests.clone());
        assert_eq!(pre.run(), streamed);
    }

    #[test]
    fn unbounded_data_parallel_runs_count_completion_regressions() {
        // Two of four nodes take the two prefills and the other two find
        // nothing runnable at cycle 0: the round finishes the 7B prefill
        // for one of them and the 70B session's first 512-token chunk for
        // the other, long before the 7B session's decode steps, which then
        // land earlier than that chunk.
        let placement = Placement::data_parallel(NocConfig { rows: 2, cols: 2 });
        let mut ex = Scenario { placement, ..Scenario::new(128) }.build().unwrap();
        ex.run_stream([
            Request::new(ModelId::Llama2_7b, 32, 40),
            Request::new(ModelId::Llama2_70b, 2048, 2),
        ]);
        assert!(ex.queue().completion_time_regressions() > 0);
        assert_eq!(ex.queue().arrival_time_regressions(), 0);
    }

    #[test]
    fn folded_run_matches_the_full_report() {
        let requests: Vec<Request> =
            (0..12).map(|i| Request::new(ModelId::Llama2_7b, 100 + i * 8, 6)).collect();
        let full = executor().run_stream(requests.clone());
        let folded = executor().run_stream_folded(requests.clone());
        assert_eq!(folded.fold, StatsFold::of_report(&full), "folded stats must be bit-identical");
        assert_eq!(folded.micro_batches, full.micro_batches);
        assert_eq!(folded.makespan_s.to_bits(), full.makespan_s.to_bits());
        assert_eq!(folded.fold.identity_checksum, StatsFold::identity_checksum_of(0, &requests));
        assert!(folded.peak_event_queue >= 1);
        assert!(folded.peak_live_sessions <= requests.len());
    }
}
