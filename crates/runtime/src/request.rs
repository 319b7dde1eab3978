//! Requests and sessions: the unit of work the serving engine schedules.
//!
//! A [`Request`] is what a client submits — a model, a prompt length and a
//! requested output length. The scheduler wraps each admitted request in a
//! [`Session`] that tracks its per-session KV-cache state (how much of the
//! prompt has been prefilled, how many tokens have been generated) and the
//! latency milestones (first token, completion) the report is built from.

use crate::kv::PageTable;
use mugi_numerics::cast::usize_from_u64;
use mugi_workloads::models::ModelId;
use std::fmt;

/// Identifier of one request, assigned by the scheduler at submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One inference request: generate `output_tokens` tokens for a
/// `prompt_tokens`-token prompt on `model`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Request {
    /// The model the request targets.
    pub model: ModelId,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Requested completion length in tokens (the first one is produced by
    /// the prefill step, as in every continuous-batching server).
    pub output_tokens: usize,
    /// Simulated cycle at which the request arrives; the scheduler will not
    /// run it earlier.
    pub arrival_cycle: u64,
}

impl Request {
    /// A request arriving at cycle zero.
    ///
    /// # Panics
    /// Panics if `prompt_tokens` or `output_tokens` is zero.
    pub fn new(model: ModelId, prompt_tokens: usize, output_tokens: usize) -> Self {
        assert!(prompt_tokens > 0, "prompt_tokens must be non-zero");
        assert!(output_tokens > 0, "output_tokens must be non-zero");
        Request { model, prompt_tokens, output_tokens, arrival_cycle: 0 }
    }

    /// Sets the simulated arrival cycle.
    pub fn arriving_at(mut self, cycle: u64) -> Self {
        self.arrival_cycle = cycle;
        self
    }
}

/// Lifecycle phase of a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SessionState {
    /// Admitted, prompt not yet (fully) prefilled.
    Prefilling,
    /// Prompt prefilled; generating output tokens one decode step at a time.
    Decoding,
    /// All requested output tokens generated.
    Finished,
}

/// A scheduled request plus its per-session KV-cache and progress state.
#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    /// Identifier assigned at submission (submission order defines FCFS).
    pub id: RequestId,
    /// The underlying request.
    pub request: Request,
    /// Lifecycle phase.
    pub state: SessionState,
    /// Prompt tokens whose KV entries are already cached (chunked prefill
    /// advances this by one chunk per micro-batch).
    pub prefilled_tokens: usize,
    /// Tokens the session must prefill before it can (re)enter decoding.
    /// Starts at `prompt_tokens`; a KV preemption raises it to the evicted
    /// KV length, because the dropped prompt *and* generated-token entries
    /// must all be recomputed (recompute-style preemption).
    pub prefill_target: usize,
    /// Generated tokens whose KV entries are folded into `prefill_target`
    /// after an eviction, so [`Session::kv_len`] does not double-count them
    /// during and after the recompute prefill.
    pub(crate) recomputed_tokens: usize,
    /// Times this session was preempted (evicted from a full KV pool). Under
    /// swap-style preemption the eviction is a page-out, not a recompute,
    /// and is counted in [`Session::swap_outs`] instead.
    pub(crate) preemptions: u32,
    /// Times this session's KV pages migrated into a decode pool over the
    /// NoC (prefill→decode handoffs plus swap-ins); zero under colocated
    /// placement.
    pub(crate) migrations: u32,
    /// Times this session was paged out of a decode pool into a prefill pool
    /// (swap-style preemption); zero under recompute preemption.
    pub(crate) swap_outs: u32,
    /// Map from this session's KV entries to physical pages of the KV pool
    /// its cache lives on. Stays empty under an unbounded
    /// [`KvConfig`](crate::kv::KvConfig), where no paging is modelled.
    pub(crate) page_table: PageTable,
    /// Output tokens generated so far (the prefill completion produces the
    /// first one).
    pub generated_tokens: usize,
    /// Cycle at which the first output token became available.
    pub first_token_cycle: Option<u64>,
    /// Cycle at which the last output token became available.
    pub finish_cycle: Option<u64>,
    /// Earliest cycle at which the session may next be scheduled: the arrival
    /// cycle until the session first runs, then the completion cycle of its
    /// latest micro-batch. Keeps multi-node executors causal — a decode step
    /// cannot start on one node before the step that produced its input
    /// token finished on another.
    pub(crate) ready_cycle: u64,
    /// Whether the session sits inside an emitted-but-not-yet-completed
    /// micro-batch. Set by the scheduler at batch formation, cleared at
    /// completion: a per-session flag in the arena replaces the old
    /// `BTreeSet` membership probe, so the scheduler's hottest check is one
    /// load from a session already in cache. Transient scheduling state
    /// (always `false` between runs).
    pub(crate) in_flight: bool,
}

impl Session {
    /// Wraps a request in a fresh session.
    pub(crate) fn new(id: RequestId, request: Request) -> Self {
        Session {
            id,
            request,
            state: SessionState::Prefilling,
            prefilled_tokens: 0,
            prefill_target: request.prompt_tokens,
            recomputed_tokens: 0,
            preemptions: 0,
            migrations: 0,
            swap_outs: 0,
            page_table: PageTable::new(),
            first_token_cycle: None,
            finish_cycle: None,
            generated_tokens: 0,
            ready_cycle: request.arrival_cycle,
            in_flight: false,
        }
    }

    /// KV-cache entries this session currently holds: the prefilled prefix
    /// plus the generated tokens not already folded into a recompute prefill
    /// target.
    pub(crate) fn kv_len(&self) -> usize {
        self.prefilled_tokens + self.generated_tokens - self.recomputed_tokens
    }

    /// Tokens still waiting to be prefilled (the prompt, plus — after a
    /// preemption — the evicted generated-token entries being recomputed).
    pub(crate) fn remaining_prefill(&self) -> usize {
        self.prefill_target - self.prefilled_tokens
    }

    /// Applies a KV preemption to the session's progress state: the cached
    /// KV is gone, so the session re-enters the prefilling phase with the
    /// full logical cache — prompt plus every token generated so far — as
    /// its target, *not* just whatever was cached at eviction time: a
    /// session evicted again mid-restore still owes the whole recompute.
    /// Generated tokens already emitted stay emitted — only their cache
    /// entries must be recomputed — so token accounting is unaffected. The
    /// caller is responsible for releasing the page table and requeueing
    /// the session.
    pub(crate) fn preempt(&mut self) {
        debug_assert!(!self.is_finished(), "finished sessions hold no KV to evict");
        self.prefill_target = self.request.prompt_tokens + self.generated_tokens;
        self.recomputed_tokens = self.generated_tokens;
        self.prefilled_tokens = 0;
        self.preemptions += 1;
        self.state = SessionState::Prefilling;
    }

    /// Whether the session has produced all requested tokens.
    pub fn is_finished(&self) -> bool {
        self.state == SessionState::Finished
    }

    /// Whether the session has schedulable work at `now` (arrived, not mid
    /// micro-batch on another node, and either still prefilling or still
    /// decoding).
    pub(crate) fn is_runnable(&self, now: u64) -> bool {
        !self.is_finished() && self.ready_cycle <= now
    }
}

/// Flat session storage keyed by dense [`RequestId`]s: every session ever
/// admitted occupies the slot `id - retired_count()` of the live window, in
/// submission order. Retirement advances a head index instead of shifting
/// the vector, and the next push compacts the retired prefix away once it
/// outgrows the live tail — so retirement is amortized O(1), a run with no
/// further submissions moves nothing, the backing vector holds ~2× the
/// live sessions at a push, and
/// [`SessionArena::live`] stays a plain contiguous `&[Session]` for the
/// scheduler's index arithmetic.
#[derive(Clone, Debug, Default)]
pub(crate) struct SessionArena {
    /// Backing slots: `slots[head..]` is the live window in id order.
    slots: Vec<Session>,
    /// Retired slots below this index await compaction.
    head: usize,
    /// Total sessions ever retired (monotone; `head` resets at compaction,
    /// this never does).
    retired: usize,
    /// High-water mark of the live window.
    peak_live: usize,
}

/// Retired slots are compacted once the dead prefix exceeds both this floor
/// and the live tail, bounding both the compaction frequency and the memory
/// overhead.
pub(crate) const ARENA_COMPACT_FLOOR: usize = 64;

impl SessionArena {
    /// An empty arena.
    pub(crate) fn new() -> Self {
        SessionArena::default()
    }

    /// Appends a session to the live window, first compacting the retired
    /// prefix away if it outgrew the live tail. The caller assigns ids
    /// densely in submission order, so `session.id` must equal
    /// `retired_count() + live().len()`.
    pub(crate) fn push(&mut self, session: Session) {
        debug_assert_eq!(
            usize_from_u64(session.id.0),
            self.retired + self.live().len(),
            "arena ids must stay dense and in submission order"
        );
        if self.head > ARENA_COMPACT_FLOOR && self.head >= self.len() {
            self.slots.drain(..self.head);
            self.head = 0;
        }
        self.slots.push(session);
        self.peak_live = self.peak_live.max(self.live().len());
    }

    /// The live (unretired) sessions in submission order.
    pub(crate) fn live(&self) -> &[Session] {
        self.slots.get(self.head..).unwrap_or_default()
    }

    /// Number of live sessions.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.head
    }

    /// Whether no live session exists.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sessions ever retired from the front of the window.
    pub(crate) fn retired_count(&self) -> usize {
        self.retired
    }

    /// High-water mark of the live-session population.
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Iterates over the live sessions in submission order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Session> {
        self.live().iter()
    }

    /// Retires the first `n` live sessions (they must all be finished); the
    /// next [`SessionArena::push`] compacts them away.
    ///
    /// # Panics
    /// Debug-asserts that every retired session is finished.
    pub(crate) fn retire_prefix(&mut self, n: usize) {
        debug_assert!(self.live().iter().take(n).all(Session::is_finished));
        self.head += n;
        self.retired += n;
    }

    /// Checks the arena's structural invariants: live ids are dense,
    /// ascending and never alias a retired id.
    ///
    /// # Panics
    /// Panics on any violation.
    #[cfg(test)]
    pub(crate) fn assert_invariants(&self) {
        assert!(self.head <= self.slots.len(), "head may not pass the end");
        for (i, s) in self.live().iter().enumerate() {
            assert_eq!(
                usize_from_u64(s.id.0),
                self.retired + i,
                "live slot {i} aliases the wrong id"
            );
        }
    }
}

impl std::ops::Index<usize> for SessionArena {
    type Output = Session;

    /// Indexes the live window (position `id - retired_count()`).
    #[expect(
        clippy::indexing_slicing,
        reason = "`Index` panics out of range by contract; the scheduler maps only live dense ids here"
    )]
    fn index(&self, i: usize) -> &Session {
        &self.slots[self.head + i]
    }
}

impl std::ops::IndexMut<usize> for SessionArena {
    #[expect(
        clippy::indexing_slicing,
        reason = "`IndexMut` panics out of range by contract; the scheduler maps only live dense ids here"
    )]
    fn index_mut(&mut self, i: usize) -> &mut Session {
        &mut self.slots[self.head + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_construction_and_arrival() {
        let r = Request::new(ModelId::Llama2_7b, 128, 16).arriving_at(500);
        assert_eq!(r.prompt_tokens, 128);
        assert_eq!(r.output_tokens, 16);
        assert_eq!(r.arrival_cycle, 500);
        assert_eq!(format!("{}", RequestId(3)), "r3");
    }

    #[test]
    fn session_progress_accounting() {
        let mut s = Session::new(RequestId(0), Request::new(ModelId::Llama2_7b, 100, 4));
        assert_eq!(s.remaining_prefill(), 100);
        assert_eq!(s.kv_len(), 0);
        assert!(s.is_runnable(0));
        s.prefilled_tokens = 60;
        assert_eq!(s.remaining_prefill(), 40);
        s.prefilled_tokens = 100;
        s.generated_tokens = 2;
        assert_eq!(s.kv_len(), 102);
        s.state = SessionState::Finished;
        assert!(s.is_finished());
        assert!(!s.is_runnable(0));
    }

    #[test]
    fn preemption_resets_kv_but_not_emitted_tokens() {
        let mut s = Session::new(RequestId(2), Request::new(ModelId::Llama2_7b, 100, 8));
        s.prefilled_tokens = 100;
        s.generated_tokens = 3;
        s.state = SessionState::Decoding;
        s.first_token_cycle = Some(40);
        assert_eq!(s.kv_len(), 103);
        s.preempt();
        // The whole evicted KV (prompt + 3 generated entries) must be
        // recomputed, but the 3 emitted tokens stay emitted.
        assert_eq!(s.state, SessionState::Prefilling);
        assert_eq!(s.remaining_prefill(), 103);
        assert_eq!(s.generated_tokens, 3);
        assert_eq!(s.kv_len(), 0, "no KV survives an eviction");
        assert_eq!(s.preemptions, 1);
        // Recompute prefill restores the cache without re-emitting tokens.
        s.prefilled_tokens = 103;
        assert_eq!(s.remaining_prefill(), 0);
        assert_eq!(s.kv_len(), 103);
        // A second eviction mid-decode folds the newly generated tokens too.
        s.state = SessionState::Decoding;
        s.generated_tokens = 5;
        assert_eq!(s.kv_len(), 105);
        s.preempt();
        assert_eq!(s.remaining_prefill(), 105);
        assert_eq!(s.kv_len(), 0);
        assert_eq!(s.preemptions, 2);
    }

    #[test]
    fn mid_prefill_preemption_restarts_the_prompt() {
        let mut s = Session::new(RequestId(3), Request::new(ModelId::Llama2_7b, 64, 2));
        s.prefilled_tokens = 32;
        s.preempt();
        assert_eq!(s.remaining_prefill(), 64, "partial prefill restarts from zero");
        assert_eq!(s.kv_len(), 0);
    }

    #[test]
    fn mid_restore_preemption_keeps_the_full_recompute_target() {
        // Regression: a session evicted *again* halfway through its
        // recompute prefill still owes the whole prompt + generated cache,
        // not just the entries it had rebuilt so far.
        let mut s = Session::new(RequestId(4), Request::new(ModelId::Llama2_7b, 4, 8));
        s.prefilled_tokens = 4;
        s.generated_tokens = 4;
        s.state = SessionState::Decoding;
        s.first_token_cycle = Some(10);
        s.preempt();
        assert_eq!(s.remaining_prefill(), 8);
        s.prefilled_tokens = 2; // restore interrupted after one chunk…
        s.preempt(); // …by a second eviction
        assert_eq!(s.remaining_prefill(), 8, "the restore target must not shrink");
        assert_eq!(s.kv_len(), 0);
        s.prefilled_tokens = 8;
        assert_eq!(s.kv_len(), 8, "full restore rebuilds prompt + generated entries");
        assert_eq!(s.preemptions, 2);
    }

    #[test]
    fn future_arrivals_are_not_runnable() {
        let s = Session::new(RequestId(1), Request::new(ModelId::Llama2_7b, 8, 1).arriving_at(10));
        assert!(!s.is_runnable(9));
        assert!(s.is_runnable(10));
    }

    #[test]
    #[should_panic(expected = "prompt_tokens must be non-zero")]
    fn zero_prompt_rejected() {
        Request::new(ModelId::Llama2_7b, 0, 1);
    }

    #[test]
    #[should_panic(expected = "output_tokens must be non-zero")]
    fn zero_output_rejected() {
        Request::new(ModelId::Llama2_7b, 1, 0);
    }

    fn finished_session(id: u64) -> Session {
        let mut s = Session::new(RequestId(id), Request::new(ModelId::Llama2_7b, 8, 1));
        s.state = SessionState::Finished;
        s
    }

    #[test]
    fn arena_retires_in_amortized_constant_space() {
        let mut arena = SessionArena::new();
        // Push/retire far more sessions than the compaction floor: the
        // backing vector must stay bounded by the floor, not the total.
        for id in 0..10_000u64 {
            arena.push(finished_session(id));
            if id % 3 == 2 {
                arena.retire_prefix(3);
            }
            arena.assert_invariants();
        }
        arena.retire_prefix(arena.len());
        assert_eq!(arena.retired_count(), 10_000);
        assert_eq!(arena.len(), 0);
        assert!(arena.is_empty());
        // Peak live population: at most the 3-session retirement cadence.
        assert!(arena.peak_live() <= 3, "peak {}", arena.peak_live());
    }

    #[test]
    fn arena_indexes_the_live_window() {
        let mut arena = SessionArena::new();
        for id in 0..6u64 {
            arena.push(finished_session(id));
        }
        arena.retire_prefix(2);
        assert_eq!(arena.len(), 4);
        assert_eq!(arena[0].id, RequestId(2), "index 0 is the oldest live session");
        assert_eq!(arena.live().len(), 4);
        assert_eq!(arena.iter().count(), 4);
        arena[1].generated_tokens = 7;
        assert_eq!(arena.live()[1].generated_tokens, 7);
        arena.assert_invariants();
        assert_eq!(arena.peak_live(), 6);
    }

    #[test]
    #[should_panic(expected = "aliases the wrong id")]
    fn arena_invariant_check_catches_aliased_slots() {
        let mut arena = SessionArena::new();
        arena.push(finished_session(0));
        arena[0].id = RequestId(9); // corrupt the slot
        arena.assert_invariants();
    }

    // One arena operation: push up to four sessions, then retire up to four.
    prop_compose! {
        fn arena_op_strategy()(
            pushes in 0usize..5,
            retires in 0usize..5,
        ) -> (usize, usize) {
            (pushes, retires)
        }
    }

    proptest! {
        #[test]
        fn session_arena_slots_are_never_aliased_while_live(
            ops in prop::collection::vec(arena_op_strategy(), 1..60),
        ) {
            // Random push/retire interleavings: live ids stay dense and
            // ascending (no slot ever aliases another session), the live window
            // indexes correctly through compactions, and the peak-live
            // high-water mark matches a reference model.
            let mut arena = SessionArena::new();
            let mut next_id = 0u64;
            let mut model_peak = 0usize;
            for (pushes, retires) in ops {
                for _ in 0..pushes {
                    let req = Request::new(ModelId::Llama2_7b, 1, 1);
                    arena.push(Session::new(RequestId(next_id), req));
                    next_id += 1;
                }
                model_peak = model_peak.max(arena.len());
                let n = retires.min(arena.len());
                for i in 0..n {
                    arena[i].state = SessionState::Finished;
                }
                arena.retire_prefix(n);
                arena.assert_invariants();
                prop_assert_eq!(
                    arena.retired_count() + arena.len(),
                    next_id as usize,
                    "sessions were lost or duplicated"
                );
                for (i, s) in arena.live().iter().enumerate() {
                    prop_assert_eq!(s.id, arena[i].id, "index and live window disagree");
                    prop_assert_eq!(s.id.0 as usize, arena.retired_count() + i);
                }
            }
            prop_assert_eq!(arena.peak_live(), model_peak);
        }
    }
}
