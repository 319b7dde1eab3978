//! The continuous-batching scheduler: turns a population of sessions into a
//! stream of micro-batches.
//!
//! Each call to [`Scheduler::next_micro_batch`] assembles one micro-batch for
//! one model under two hard caps — at most `max_batch` requests and at most
//! `token_budget` tokens — interleaving the two phases the way production
//! LLM servers do:
//!
//! 1. **Decode first.** Every in-flight (decoding) session of the chosen
//!    model gets a one-token decode slot, so ongoing generations are never
//!    stalled behind new prompts.
//! 2. **Prefill with the leftover budget.** Waiting prompts are admitted in
//!    policy order ([`SchedulingPolicy::Fcfs`] or
//!    [`SchedulingPolicy::ShortestPrefillFirst`]) as *chunks* of at most
//!    `prefill_chunk` tokens, so one long prompt cannot monopolise a step
//!    (chunked prefill).
//!
//! When several models have runnable work the scheduler serves the
//! least-recently-served one, which bounds every model's wait by the number
//! of active models even as models join and leave the runnable set between
//! calls (a modulo round-robin over that shifting set could skip a model
//! indefinitely).
//!
//! Internally the scheduler keeps per-model queues of *released* unfinished
//! sessions plus a retired counter, so each call touches only in-flight
//! work — not every session ever submitted. Sessions scheduled into a
//! micro-batch are marked in flight until the batch completes, which lets a
//! multi-node executor overlap several micro-batches safely.
//!
//! # Paged KV admission and preemption
//!
//! Under a bounded [`KvConfig`] the scheduler also owns the physical
//! [`KvPool`]s (one per data-parallel node, or one aggregate pool under
//! sharded placement) and every micro-batch formation is a paging
//! transaction against the pool passed to [`Scheduler::next_micro_batch`]:
//!
//! * a **decode slot** needs its session's table to cover `kv_len + 1`
//!   entries; when the pool is short, the scheduler *preempts* — it evicts
//!   the most-recently-admitted page holders (strictly younger than the
//!   requester, which makes the oldest session unpreemptable and the whole
//!   scheme starvation-free), moves them back to the waiting queue and
//!   charges them a recompute prefill;
//! * a **prefill chunk** from a session already holding pages may preempt
//!   the same way (its work is sunk cost); a *fresh* admission never
//!   preempts — when free pages fall short of its projected need the
//!   prefill queue is deferred wholesale (strict policy order, no
//!   head-of-line bypass), which is the admission-control half of the
//!   design;
//! * sessions are pinned to the pool holding their pages (`PageTable::home`),
//!   so a data-parallel executor can only schedule them on their home node.
//!
//! With the default unbounded [`KvConfig`] none of this bookkeeping runs and
//! the scheduler is bit-identical to the pre-paging implementation
//! (property-tested in `tests/proptests.rs`).
//!
//! # Prefill/decode disaggregation
//!
//! A disaggregated executor partitions the mesh into prefill and decode
//! pools ([`PoolRole`]) and forms *pure* micro-batches through
//! [`Scheduler::next_micro_batch`], which reads the node's role: a
//! [`PoolRole::Prefill`] batch admits and advances prompts on a prefill
//! pool, a [`PoolRole::Decode`] batch runs decode slots on a decode pool.
//! Completed prefills hand their KV pages over via
//! [`Scheduler::migrate_session`] (driven by the executor, which charges the
//! NoC transfer) instead of recomputing them on the decode side; under
//! [`PreemptionMode::Swap`] a decode-pool eviction pages the victim *out* to
//! a prefill pool the same way ([`MicroBatch::swapped_out`]) rather than
//! dropping its cache. Colocated nodes ([`PoolRole::Colocated`]) run both
//! phases and take exactly the pre-disaggregation code path.
//!
//! # Decode fairness
//!
//! Within a model, decode slots rotate round-robin
//! ([`DecodeOrder::RoundRobin`], the default): each batch starts with the
//! oldest session *after* the last one served, so under `max_batch` or
//! token-budget pressure the newest generations no longer starve behind the
//! oldest ones. When every decoding session fits the batch the rotation
//! degenerates to submission order, i.e. to [`DecodeOrder::Fcfs`] — the
//! pre-rotation behaviour kept as an explicit opt-out (and as the oracle for
//! the bit-identity regression tests).

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    reason = "panics here enforce documented API contracts (submit after finish, retired-session access) and scheduler invariants (dense ids via sidx(), page-table/pool consistency); a deterministic simulator must abort on corrupt state rather than guess"
)]

use crate::control::SloCalibrator;
use crate::kv::{
    pages_for, AdmissionError, KvConfig, KvFreePages, KvPool, PreemptionMode, SloConfig, KV_BITS,
};
use crate::placement::PoolRole;
use crate::request::{Request, RequestId, Session, SessionArena, SessionState};
use mugi_numerics::cast::{u64_from_usize, usize_from_u64};
use mugi_workloads::models::ModelId;
use mugi_workloads::ops::{BatchSlice, Phase};
use std::collections::VecDeque;

/// Order in which waiting prompts are admitted to the prefill share of a
/// micro-batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// First come, first served (submission order).
    Fcfs,
    /// Shortest remaining prefill first (ties broken by submission order).
    /// Lowers mean time-to-first-token for short prompts at the cost of
    /// delaying long ones while shorter work keeps arriving.
    ShortestPrefillFirst,
}

/// Order in which decoding sessions of one model receive their decode slots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DecodeOrder {
    /// Oldest generation first (submission order) — the pre-rotation
    /// behaviour. Under `max_batch` pressure the newest generations wait
    /// behind every older one, potentially forever.
    Fcfs,
    /// Round-robin rotation: each batch starts with the oldest session
    /// strictly after the last one served (wrapping), so every decoding
    /// session is served within one rotation even when only a fraction fit
    /// a batch. Identical to [`DecodeOrder::Fcfs`] whenever all decoding
    /// sessions fit.
    #[default]
    RoundRobin,
}

/// Static scheduler configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SchedulerConfig {
    /// Maximum requests per micro-batch (decode slots plus prefill chunks).
    pub max_batch: usize,
    /// Maximum tokens per micro-batch: each decode slot costs one token, a
    /// prefill chunk costs its length.
    pub token_budget: usize,
    /// Maximum prompt tokens one request may prefill in a single micro-batch.
    pub prefill_chunk: usize,
    /// Prefill admission order.
    pub policy: SchedulingPolicy,
    /// Decode-slot order within a model.
    pub decode_order: DecodeOrder,
}

impl SchedulerConfig {
    /// Validates the caps.
    ///
    /// # Panics
    /// Panics if any cap is zero.
    fn validate(&self) {
        assert!(self.max_batch > 0, "max_batch must be non-zero");
        assert!(self.token_budget > 0, "token_budget must be non-zero");
        assert!(self.prefill_chunk > 0, "prefill_chunk must be non-zero");
    }
}

impl Default for SchedulerConfig {
    /// Sixteen requests, a 2048-token budget, 512-token prefill chunks, FCFS
    /// prefill admission, round-robin decode slots.
    fn default() -> Self {
        SchedulerConfig {
            max_batch: 16,
            token_budget: 2048,
            prefill_chunk: 512,
            policy: SchedulingPolicy::Fcfs,
            decode_order: DecodeOrder::RoundRobin,
        }
    }
}

/// One request's share of a micro-batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchItem {
    /// The session the work belongs to.
    pub id: RequestId,
    /// Prefill chunk or decode slot.
    pub phase: Phase,
    /// Tokens this item processes (chunk length for prefill, 1 for decode).
    pub tokens: usize,
    /// KV-cache entries the item attends to after this step (cached prefix
    /// plus the chunk for prefill; current cache length for decode).
    pub context_len: usize,
}

/// One session paged out of a decode pool over the NoC while a micro-batch
/// was being formed (swap-style preemption). The executor charges the
/// transfer energy for `bytes` and stalls the batch while the pages stream
/// out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwapOut {
    /// The paged-out session.
    pub id: RequestId,
    /// The prefill pool (node) the pages landed on; the executor stalls its
    /// receive path while the transfer streams.
    pub to_pool: usize,
    /// KV pages moved to the prefill pool.
    pub pages: usize,
    /// KV-cache bytes shipped over the NoC.
    pub bytes: u64,
}

/// A scheduled micro-batch: work for one model, one step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MicroBatch {
    /// The model every item runs on.
    pub model: ModelId,
    /// The scheduled items (decode slots first, then prefill chunks).
    pub items: Vec<BatchItem>,
    /// KV pages evicted (sessions recompute-preempted) to make room for this
    /// batch; always zero under an unbounded pool. The executor charges
    /// page-fault stall cycles per evicted page.
    pub evicted_pages: usize,
    /// Sessions paged out over the NoC to make room for this batch
    /// (swap-style preemption); empty except on a disaggregated decode pool
    /// under [`PreemptionMode::Swap`]. The executor charges the transfer
    /// energy and latency.
    pub swapped_out: Vec<SwapOut>,
}

impl MicroBatch {
    /// Total tokens across all items (bounded by the scheduler's budget).
    pub fn total_tokens(&self) -> usize {
        self.items.iter().map(|i| i.tokens).sum()
    }

    /// Number of decode slots.
    pub fn decode_slots(&self) -> usize {
        self.items.iter().filter(|i| i.phase == Phase::Decode).count()
    }

    /// Converts the batch into the workload slices
    /// [`MugiAccelerator::estimate_micro_batch`](mugi::MugiAccelerator::estimate_micro_batch)
    /// prices.
    ///
    /// Decode slots are grouped by their context length rounded up to
    /// `kv_bucket` (the paged-KV page-granularity view of the cache), which
    /// keeps the number of distinct slices — and therefore the size of the
    /// accelerator's slice memo — small. Prefill chunks become one
    /// slice each, with the attended KV length bucketed the same way.
    ///
    /// The rounding is [`pages_for`]`(len) * kv_bucket` — the same page
    /// count the KV pool charges the session — so a zero-context decode
    /// occupies exactly one page (`kv_bucket` entries), never more: the page
    /// count saturates at one *before* multiplying by the page size, pinning
    /// the `context_len == 0` boundary to the `1..=kv_bucket` bucket.
    ///
    /// # Panics
    /// Panics if `kv_bucket` is zero.
    pub fn slices(&self, kv_bucket: usize) -> Vec<BatchSlice> {
        let mut slices = Vec::new();
        self.slices_into(kv_bucket, &mut slices);
        slices
    }

    /// [`slices`](Self::slices), writing into a caller-owned buffer so the
    /// executor's per-step estimate reuses one allocation for the whole run.
    /// `out` is cleared first; the slice list produced is identical to
    /// [`slices`](Self::slices).
    ///
    /// # Panics
    /// Panics if `kv_bucket` is zero.
    pub fn slices_into(&self, kv_bucket: usize, out: &mut Vec<BatchSlice>) {
        assert!(kv_bucket > 0, "kv_bucket must be non-zero");
        out.clear();
        let bucket = |len: usize| pages_for(len, kv_bucket) * kv_bucket;
        // Group decode slots by bucketed context length, maintained as a
        // sorted prefix of `out` (ascending context), so equal batches always
        // produce identical slice lists.
        for item in self.items.iter().filter(|i| i.phase == Phase::Decode) {
            let ctx = bucket(item.context_len);
            match out.binary_search_by_key(&ctx, |s| s.kv_len) {
                Ok(pos) => out[pos].batch += 1,
                Err(pos) => out.insert(pos, BatchSlice::decode(1, ctx)),
            }
        }
        for item in self.items.iter().filter(|i| i.phase == Phase::Prefill) {
            out.push(BatchSlice::prefill(1, item.tokens).with_kv_len(bucket(item.context_len)));
        }
    }
}

/// Per-model queues of *released* (arrived) unfinished sessions. Keeping
/// membership incremental means each scheduling decision touches only the
/// model's in-flight sessions, not every session ever submitted.
#[derive(Clone, Debug)]
struct ModelQueue {
    model: ModelId,
    /// Sessions still prefilling, sorted by id (submission order = FCFS).
    waiting: Vec<RequestId>,
    /// Sessions decoding, sorted by id (oldest generation first).
    decoding: Vec<RequestId>,
    /// Serve-counter value when this model last headed a micro-batch
    /// (0 = never served). The scheduler picks the least-recently-served
    /// runnable model, which is starvation-free even as the runnable set
    /// grows and shrinks between calls.
    last_served: u64,
    /// Last session granted a decode slot *per KV pool*, driving the
    /// [`DecodeOrder::RoundRobin`] rotation: the next batch formed for that
    /// pool starts with the oldest eligible session strictly after the
    /// cursor (wrapping). The cursor must be per-pool — sessions are pinned
    /// to the pool holding their pages, so a cursor shared across pools
    /// would let interleaved per-pool formations rotate past another pool's
    /// sessions and starve them. A dense pool-indexed vector (grown lazily
    /// to the highest pool that formed a decode batch) so the per-formation
    /// cursor probe is one bounds-checked load, with no tree walk and no
    /// hasher state that could ever leak into iteration order.
    last_decode: Vec<Option<RequestId>>,
}

impl ModelQueue {
    fn new(model: ModelId) -> Self {
        ModelQueue {
            model,
            waiting: Vec::new(),
            decoding: Vec::new(),
            last_served: 0,
            last_decode: Vec::new(),
        }
    }
}

/// Inserts `id` into a vec kept sorted ascending, ignoring duplicates.
fn sorted_insert(ids: &mut Vec<RequestId>, id: RequestId) {
    if let Err(pos) = ids.binary_search(&id) {
        ids.insert(pos, id);
    }
}

/// Removes `id` from a sorted vec if present.
fn sorted_remove(ids: &mut Vec<RequestId>, id: RequestId) {
    if let Ok(pos) = ids.binary_search(&id) {
        ids.remove(pos);
    }
}

/// The continuous-batching scheduler.
#[derive(Clone, Debug)]
pub struct Scheduler {
    config: SchedulerConfig,
    kv: KvConfig,
    /// Physical KV pools, empty under an unbounded [`KvConfig`]. One pool
    /// per data-parallel node, or a single aggregate pool under sharded
    /// placement (see [`Scheduler::configure_kv_pools`]).
    pools: Vec<KvPool>,
    /// Scheduling role of each pool (parallel to `pools`): all
    /// [`PoolRole::Colocated`] except under disaggregated placement.
    pool_roles: Vec<PoolRole>,
    /// Sessions not yet retired, in a flat arena keyed by dense ids: session
    /// `id` lives at live index `id - sessions.retired_count()`. Retirement
    /// (always zero retired unless the executor opts in) advances the
    /// arena's head in amortized O(1) instead of shifting a vector.
    sessions: SessionArena,
    /// Per-model queues of released unfinished sessions, in first-submission
    /// order of their models.
    queues: Vec<ModelQueue>,
    /// `(arrival_cycle, id)` of submitted sessions not yet released into the
    /// queues, sorted ascending by arrival: in-order submissions (the normal
    /// case) append in O(1) and each release pops from the front.
    future: VecDeque<(u64, RequestId)>,
    /// Sessions inside an emitted-but-not-yet-completed micro-batch. A
    /// multi-node executor overlaps several micro-batches; their sessions
    /// must not be scheduled twice. Membership lives on the sessions
    /// themselves ([`Session::in_flight`] in the arena); this counter only
    /// answers [`Scheduler::in_flight_count`] in O(1).
    in_flight_count: usize,
    /// Prefill tokens still owed across every live session (two integer ops
    /// per event), so the control plane's demand split stays O(1).
    pending_prefill_total: u64,
    /// Output tokens promised but not yet emitted across every live session
    /// — the decode-side demand counter the control plane weighs against
    /// `pending_prefill_total`. Credited at admission, debited per emitted
    /// token; maintained unconditionally (two integer ops per event).
    pending_decode_tokens: u64,
    /// The online SLO calibrator, present only when the executor's control
    /// plane enabled calibration. While warming up (or absent) the
    /// admission check uses the configured static rate.
    calibrator: Option<SloCalibrator>,
    /// Pool being drained for a control-plane role flip: excluded as a
    /// swap-out target so new residents cannot trickle in while it empties.
    drain_pool: Option<usize>,
    /// Sessions that have finished (retired from the queues). `all_finished`
    /// is a counter comparison, not a scan.
    retired: usize,
    /// Monotone counter driving the least-recently-served model rotation.
    serve_counter: u64,
    /// Sessions evicted from a full KV pool so far.
    preempted: u64,
    /// KV entries dropped by evictions that must be prefilled again (the
    /// recompute cost of preemption, in tokens).
    reprefill_tokens: u64,
    /// Pages released by evictions (the executor charges fault stalls per
    /// page).
    evicted_pages: u64,
    /// Submissions rejected by admission control.
    rejected: u64,
    /// KV-page migrations between pools (prefill→decode handoffs plus
    /// swap-ins), driven by the executor via [`Scheduler::migrate_session`].
    migrations: u64,
    /// Pages moved by those migrations.
    migrated_pages: u64,
    /// Sessions paged out of a decode pool under swap-style preemption.
    swap_outs: u64,
    /// Pages moved by those swap-outs.
    swapped_pages: u64,
    /// Reusable model-ranking buffer for [`Scheduler::next_micro_batch`], so
    /// steady-state formation allocates nothing.
    scratch_candidates: Vec<(u64, RequestId, usize)>,
    /// Reusable eligible-session buffer for [`Scheduler::try_form`] (filled
    /// for the decode pass, then refilled for the prefill pass).
    scratch_ids: Vec<RequestId>,
    /// Reusable eviction-candidate buffer for
    /// [`Scheduler::reserve_pages`]'s reclaim planning, so formations under
    /// KV pressure allocate nothing either.
    scratch_evict: Vec<RequestId>,
    /// Reusable committed-victim buffer for [`Scheduler::reserve_pages`].
    scratch_victims: Vec<RequestId>,
    /// Item vectors of retired micro-batches handed back via
    /// [`Scheduler::recycle`], reused by the next formation.
    spare_items: Vec<Vec<BatchItem>>,
}

/// Outcome of one KV-page migration ([`Scheduler::migrate_session`]): what
/// moved, so the executor can charge the NoC transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// Pages that changed pools (under an unbounded pool: the page
    /// equivalent of the session's KV length).
    pub pages: usize,
    /// KV-cache bytes shipped over the NoC.
    pub bytes: u64,
}

impl Scheduler {
    /// Creates an empty scheduler with an unbounded KV pool (no paging).
    ///
    /// # Panics
    /// Panics if any configured cap is zero.
    pub fn new(config: SchedulerConfig) -> Self {
        Scheduler::with_kv(config, KvConfig::default())
    }

    /// Creates an empty scheduler managing a paged KV cache. A bounded
    /// `kv` starts with a single pool of `kv.node_pages` pages; an executor
    /// repartitions it per placement via [`Scheduler::configure_kv_pools`].
    ///
    /// # Panics
    /// Panics if any configured cap is zero.
    pub fn with_kv(config: SchedulerConfig, kv: KvConfig) -> Self {
        config.validate();
        assert!(kv.page_tokens > 0, "page_tokens must be non-zero");
        let pools = match kv.node_pages {
            Some(pages) => vec![KvPool::bounded(pages)],
            None => Vec::new(),
        };
        let pool_roles = vec![PoolRole::Colocated; pools.len()];
        Scheduler {
            config,
            kv,
            pools,
            pool_roles,
            sessions: SessionArena::new(),
            queues: Vec::new(),
            future: VecDeque::new(),
            in_flight_count: 0,
            pending_prefill_total: 0,
            pending_decode_tokens: 0,
            calibrator: None,
            drain_pool: None,
            retired: 0,
            serve_counter: 0,
            preempted: 0,
            reprefill_tokens: 0,
            evicted_pages: 0,
            rejected: 0,
            migrations: 0,
            migrated_pages: 0,
            swap_outs: 0,
            swapped_pages: 0,
            scratch_candidates: Vec::new(),
            scratch_ids: Vec::new(),
            scratch_evict: Vec::new(),
            scratch_victims: Vec::new(),
            spare_items: Vec::new(),
        }
    }

    /// Index of session `id` in the unretired window.
    ///
    /// # Panics
    /// Panics if the session was retired (or `id` was never issued).
    fn sidx(&self, id: RequestId) -> usize {
        usize_from_u64(id.0)
            .checked_sub(self.sessions.retired_count())
            .expect("session was retired from the scheduler")
    }

    /// The configuration the scheduler runs under.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The KV-cache configuration the scheduler pages under.
    pub fn kv_config(&self) -> &KvConfig {
        &self.kv
    }

    /// Repartitions the bounded KV capacity into one pool per entry of
    /// `roles`, each of `kv.node_pages * capacity_scale` pages, pool `i`
    /// taking scheduling role `roles[i]`. The executor calls this at
    /// construction with its nodes' roles: one pool per node under
    /// data-parallel (all [`PoolRole::Colocated`]) and disaggregated
    /// (prefill and decode) placement, scale 1; one aggregate colocated
    /// pool under sharded placement, scaled by the node count (the KV being
    /// tiled across the mesh). No-op when the configuration is unbounded
    /// (arguments are not even validated — there are no pools to
    /// configure).
    ///
    /// # Panics
    /// Under a bounded configuration, panics if `roles` is empty or
    /// `capacity_scale` is zero, or if any session already holds pages
    /// (pools cannot be repartitioned mid-run).
    pub fn configure_kv_pools(&mut self, roles: &[PoolRole], capacity_scale: usize) {
        let Some(node_pages) = self.kv.node_pages else { return };
        assert!(!roles.is_empty(), "at least one KV pool is required");
        assert!(capacity_scale > 0, "capacity_scale must be non-zero");
        assert!(
            self.sessions.iter().all(|s| s.page_table.mapped_pages() == 0),
            "cannot repartition KV pools once pages are mapped"
        );
        self.pools = roles.iter().map(|_| KvPool::bounded(node_pages * capacity_scale)).collect();
        self.pool_roles = roles.to_vec();
    }

    /// The scheduling role of pool `pool` (`Colocated` under an unbounded
    /// configuration, where no pools exist).
    pub fn pool_role(&self, pool: usize) -> PoolRole {
        self.pool_roles.get(pool).copied().unwrap_or(PoolRole::Colocated)
    }

    /// Submits a request, returning its id. Submission order defines FCFS.
    ///
    /// # Panics
    /// Panics if admission control rejects the request (only possible with
    /// a bounded [`KvConfig`] or an [`SloConfig`] set); use
    /// [`Scheduler::try_submit`] to handle rejection as backpressure
    /// instead.
    pub fn submit(&mut self, request: Request) -> RequestId {
        self.try_submit(request)
            .unwrap_or_else(|e| panic!("request rejected: {e}; use try_submit to handle this"))
    }

    /// Submits a request unless admission control rejects it: the live
    /// session population is at [`KvConfig::max_live_sessions`] (backpressure
    /// — retry later), the projected TTFT exceeds a configured
    /// [`SloConfig`] target ([`AdmissionError::SloViolation`]), or the
    /// request alone could never fit *one node's*
    /// pool of [`KvConfig::node_pages`] pages (admitting it would deadlock
    /// that pool). The fit check deliberately uses the per-node capacity
    /// rather than the current pool partition, so acceptance does not depend
    /// on whether the request is submitted before or after an executor
    /// repartitions the pools (a sharded executor merges them into a larger
    /// aggregate, which only relaxes the true constraint). Rejections are
    /// counted in the runtime report.
    pub fn try_submit(&mut self, request: Request) -> Result<RequestId, AdmissionError> {
        if let Some(bound) = self.kv.max_live_sessions {
            let live = self.sessions.retired_count() + self.sessions.len() - self.retired;
            if live >= bound {
                self.rejected += 1;
                return Err(AdmissionError::QueueFull { live, bound });
            }
        }
        if let Some(capacity) = self.kv.node_pages {
            // Peak demand: the whole prompt plus every generated token.
            let needed =
                pages_for(request.prompt_tokens + request.output_tokens, self.kv.page_tokens);
            if needed > capacity {
                self.rejected += 1;
                return Err(AdmissionError::NeverFits {
                    needed_pages: needed,
                    capacity_pages: capacity,
                });
            }
        }
        if let Some(SloConfig { target_ttft_cycles, cycles_per_prefill_token }) = self.kv.slo {
            // Projected TTFT: the prefill backlog queued ahead of this
            // prompt *at its arrival* — sessions arriving later cannot delay
            // it, so a pre-submitted spread-arrival stream is not spuriously
            // rejected — plus the prompt itself, at the configured
            // service-rate estimate. Deliberately ignores decode
            // interference and drainage between now and the arrival — it is
            // a bound on *queued work*, not a simulation.
            let backlog = self.prefill_backlog_at(request.arrival_cycle);
            // The calibrated service rate replaces the configured guess
            // once the calibrator (if the control plane enabled one) has
            // warmed up. Calibrated rates are conservative by construction
            // (floored at the cumulative measured mean), so this can only
            // tighten admission relative to the true measured rate.
            let rate = self
                .calibrator
                .as_ref()
                .and_then(SloCalibrator::rate)
                .unwrap_or(cycles_per_prefill_token);
            let projected = (backlog + u64_from_usize(request.prompt_tokens)) * rate;
            if projected > target_ttft_cycles {
                self.rejected += 1;
                return Err(AdmissionError::SloViolation {
                    projected_cycles: projected,
                    target_cycles: target_ttft_cycles,
                });
            }
        }
        let id = RequestId(u64_from_usize(self.sessions.retired_count() + self.sessions.len()));
        self.sessions.push(Session::new(id, request));
        let arrival = request.arrival_cycle;
        self.pending_prefill_total += u64_from_usize(request.prompt_tokens);
        self.pending_decode_tokens += u64_from_usize(request.output_tokens);
        if self.future.back().is_none_or(|&(a, _)| a <= arrival) {
            self.future.push_back((arrival, id));
        } else {
            let pos = self.future.partition_point(|&(a, _)| a <= arrival);
            self.future.insert(pos, (arrival, id));
        }
        Ok(id)
    }

    /// All unretired sessions in submission order (every session ever
    /// submitted, unless the executor opted into incremental retirement).
    pub fn sessions(&self) -> &[Session] {
        self.sessions.live()
    }

    /// Number of ids retired from the front of the session window (zero
    /// without incremental retirement).
    pub fn retired_session_count(&self) -> usize {
        self.sessions.retired_count()
    }

    /// Total sessions ever submitted (retired or not).
    pub fn submitted_count(&self) -> usize {
        self.sessions.retired_count() + self.sessions.len()
    }

    /// High-water mark of the live (unretired) session population. Under
    /// incremental retirement this is what the scheduler's memory scales
    /// with, however long the request stream.
    pub fn peak_live_sessions(&self) -> usize {
        self.sessions.peak_live()
    }

    /// Looks up one session.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this scheduler or was retired.
    pub fn session(&self, id: RequestId) -> &Session {
        &self.sessions[self.sidx(id)]
    }

    /// Drops every *finished* session at the front of the session window,
    /// returning how many were dropped. The executor calls this after
    /// folding their statistics into a `StatsFold`, so `sessions` stops growing
    /// without bound on long request streams; ids keep working because only
    /// a contiguous finished prefix ever retires.
    pub fn retire_finished_prefix(&mut self) -> usize {
        let n = self.sessions.iter().take_while(|s| s.is_finished()).count();
        if n > 0 {
            self.sessions.retire_prefix(n);
        }
        n
    }

    /// Whether every submitted session has finished.
    pub fn all_finished(&self) -> bool {
        self.retired == self.sessions.retired_count() + self.sessions.len()
    }

    /// Number of sessions currently inside an emitted-but-not-completed
    /// micro-batch.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight_count
    }

    /// Prefill tokens still owed by sessions that arrived at or before
    /// `arrival_cycle` — the backlog the SLO admission check charges a new
    /// arrival with. A scan of the live sessions, O(live sessions).
    pub fn prefill_backlog_at(&self, arrival_cycle: u64) -> u64 {
        self.sessions
            .iter()
            .filter(|s| !s.is_finished() && s.request.arrival_cycle <= arrival_cycle)
            .map(|s| u64_from_usize(s.remaining_prefill()))
            .sum()
    }

    /// Total prefill tokens still owed across every live session, whatever
    /// their arrival cycle — an O(1) running sum. The control plane reads
    /// this (together with [`Scheduler::pending_decode_tokens`]) to split
    /// nodes between roles by outstanding demand.
    pub fn pending_prefill_total(&self) -> u64 {
        self.pending_prefill_total
    }

    /// Output tokens promised but not yet emitted across every live session
    /// — the decode-side demand the control plane weighs against
    /// [`Scheduler::pending_prefill_total`] when re-rolling node roles.
    pub fn pending_decode_tokens(&self) -> u64 {
        self.pending_decode_tokens
    }

    /// Installs an online SLO calibrator (see
    /// [`SloCalibrator`]): once it has
    /// observed `warmup_tokens` prefill tokens, its measured rate replaces
    /// the configured [`SloConfig::cycles_per_prefill_token`] in the
    /// admission check. Called by the executor when the control plane's
    /// calibration is enabled; idempotent state-wise (re-enabling resets
    /// the calibrator).
    pub fn enable_slo_calibration(&mut self, warmup_tokens: u64, ewma_shift: u32) {
        self.calibrator = Some(SloCalibrator::new(warmup_tokens, ewma_shift));
    }

    /// Feeds the calibrator one completed micro-batch that served `tokens`
    /// prefill tokens in `cycles` cycles. No-op when calibration is off.
    pub fn observe_prefill_service(&mut self, tokens: u64, cycles: u64) {
        if let Some(c) = &mut self.calibrator {
            c.observe(tokens, cycles);
        }
    }

    /// The calibrated cycles-per-prefill-token estimate currently steering
    /// admission, or `None` when calibration is off or still warming up.
    pub fn calibrated_rate(&self) -> Option<u64> {
        self.calibrator.as_ref().and_then(SloCalibrator::rate)
    }

    /// Prefill slices the calibrator has observed (zero when calibration is
    /// off).
    pub fn calibration_samples(&self) -> u64 {
        self.calibrator.as_ref().map_or(0, SloCalibrator::samples)
    }

    /// Re-rolls pool `pool`'s scheduling role — the commit point of a
    /// control-plane quiescent handoff.
    ///
    /// # Panics
    /// Panics if the pool still holds pages: roles may only change on an
    /// empty pool (the executor drains it first).
    pub fn set_pool_role(&mut self, pool: usize, role: PoolRole) {
        assert_eq!(
            self.pools[pool].used_pages(),
            0,
            "a pool must be drained empty before its role changes"
        );
        self.pool_roles[pool] = role;
    }

    /// Marks `pool` as draining for a role flip (or clears the mark with
    /// `None`): a draining pool is never picked as a swap-out target, so no
    /// new residents trickle in while the executor empties it.
    pub fn set_drain_pool(&mut self, pool: Option<usize>) {
        self.drain_pool = pool;
    }

    /// Pages currently mapped in pool `pool` (zero under an unbounded
    /// configuration, where no pools exist).
    pub fn kv_pool_used_pages(&self, pool: usize) -> usize {
        self.pools.get(pool).map_or(0, KvPool::used_pages)
    }

    /// Projected decode load of pool `pool`: the remaining output tokens of
    /// its resident decoding sessions — exactly the KV growth still to be
    /// written there. A lazy O(decoding residents) scan, taken only at
    /// migration-target selection under the control plane's load-aware
    /// placement.
    pub fn pool_decode_load(&self, pool: usize) -> u64 {
        self.queues
            .iter()
            .flat_map(|q| q.decoding.iter())
            .map(|&id| &self.sessions[self.sidx(id)])
            .filter(|s| s.page_table.home() == Some(pool))
            .map(|s| u64_from_usize(s.request.output_tokens - s.generated_tokens))
            .sum()
    }

    /// Recompute-preempts every resident of pool `pool` that can legally be
    /// dropped — not finished, not decoding (those migrate out instead, KV
    /// intact) and not inside an in-flight batch — returning the pages
    /// released. The executor's drain sweep calls this until the pool
    /// empties; each victim takes the same recompute eviction as a capacity
    /// eviction during formation.
    pub fn preempt_pool_residents(&mut self, pool: usize) -> u64 {
        let victims: Vec<RequestId> = self
            .queues
            .iter()
            .flat_map(|q| q.waiting.iter())
            .copied()
            .filter(|&v| {
                let s = &self.sessions[self.sidx(v)];
                s.page_table.home() == Some(pool)
                    && s.state != SessionState::Decoding
                    && !s.in_flight
            })
            .collect();
        let released: usize = victims.into_iter().map(|v| self.evict_for_recompute(v, pool)).sum();
        u64_from_usize(released)
    }

    /// Recompute-evicts `victim` from pool `pool`: releases its pages,
    /// resets it to prefill its whole cache again, re-credits the owed
    /// prefill total with that debt and moves it back to its model's waiting
    /// queue. Charges the preemption, re-prefill and evicted-page counters
    /// and returns the pages released.
    fn evict_for_recompute(&mut self, victim: RequestId, pool: usize) -> usize {
        let vi = self.sidx(victim);
        let s = &mut self.sessions[vi];
        let lost_tokens = u64_from_usize(s.kv_len());
        let mut table = std::mem::take(&mut s.page_table);
        let released = table.release_all(&mut self.pools[pool]);
        let prev_owed = u64_from_usize(s.remaining_prefill());
        s.preempt();
        // Re-credit the recompute debt: the eviction reset the session's
        // prefill target to prompt + generated.
        let owed = u64_from_usize(s.remaining_prefill());
        self.pending_prefill_total = self.pending_prefill_total - prev_owed + owed;
        let model = s.request.model;
        let queue = self
            .queues
            .iter_mut()
            .find(|q| q.model == model)
            .expect("page holders live in a model queue");
        sorted_remove(&mut queue.decoding, victim);
        sorted_insert(&mut queue.waiting, victim);
        self.preempted += 1;
        self.reprefill_tokens += lost_tokens;
        self.evicted_pages += u64_from_usize(released);
        released
    }

    /// Number of KV pools (zero under an unbounded configuration).
    pub fn kv_pool_count(&self) -> usize {
        self.pools.len()
    }

    /// Free-page headroom of pool `pool`: [`KvFreePages::Unbounded`] under
    /// an unbounded configuration, the bounded free count otherwise.
    ///
    /// # Panics
    /// Panics when pools are bounded and `pool` is out of range — an
    /// indexing bug must fail loudly, not read as infinite headroom and win
    /// every placement decision.
    pub fn kv_free_pages(&self, pool: usize) -> KvFreePages {
        if self.pools.is_empty() {
            return KvFreePages::Unbounded;
        }
        assert!(
            pool < self.pools.len(),
            "pool index {pool} out of range for {} bounded pools",
            self.pools.len()
        );
        KvFreePages::Pages(self.pools[pool].free_pages())
    }

    /// Total page capacity across all pools (`None` = unbounded).
    pub fn kv_capacity_pages(&self) -> Option<u64> {
        if self.pools.is_empty() {
            None
        } else {
            Some(self.pools.iter().map(|p| p.capacity() as u64).sum())
        }
    }

    /// Pages currently mapped across all pools.
    pub fn kv_used_pages(&self) -> u64 {
        self.pools.iter().map(|p| u64_from_usize(p.used_pages())).sum()
    }

    /// High-water mark of mapped pages, summed across pools.
    pub fn kv_peak_used_pages(&self) -> u64 {
        self.pools.iter().map(|p| u64_from_usize(p.peak_used_pages())).sum()
    }

    /// Sessions evicted from a full KV pool so far.
    pub fn preemption_count(&self) -> u64 {
        self.preempted
    }

    /// KV entries dropped by evictions that had to be prefilled again.
    pub fn reprefill_token_count(&self) -> u64 {
        self.reprefill_tokens
    }

    /// Pages released by evictions so far.
    pub fn evicted_page_count(&self) -> u64 {
        self.evicted_pages
    }

    /// Submissions rejected by admission control so far.
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }

    /// KV-page migrations between pools so far (prefill→decode handoffs plus
    /// swap-ins).
    pub fn migration_count(&self) -> u64 {
        self.migrations
    }

    /// Pages moved by migrations so far.
    pub fn migrated_page_count(&self) -> u64 {
        self.migrated_pages
    }

    /// Sessions paged out of a decode pool (swap-style preemption) so far.
    pub fn swap_out_count(&self) -> u64 {
        self.swap_outs
    }

    /// Pages moved by swap-outs so far.
    pub fn swapped_page_count(&self) -> u64 {
        self.swapped_pages
    }

    /// Earliest cycle strictly after `now` at which an unfinished session
    /// becomes schedulable: a future arrival, or the `ready_cycle` a session
    /// was stamped with when its latest micro-batch completed. The executor
    /// jumps an idle node's clock there when nothing is runnable yet.
    /// Sessions inside a dispatched-but-uncompleted batch are *not* visible
    /// here — their next ready time is only known once
    /// [`Scheduler::complete`] runs, so an executor must drain pending
    /// completions before relying on this.
    pub fn next_arrival_after(&self, now: u64) -> Option<u64> {
        // Unreleased sessions become ready at their arrival. `future` is
        // sorted ascending, so scan from the front (smallest arrival) past
        // any entries at or before `now`.
        let pending =
            self.future.iter().map(|&(arrival, _)| arrival).find(|&arrival| arrival > now);
        // Released sessions become ready at their `ready_cycle`.
        let queued = self.queued().map(|s| s.ready_cycle).filter(|&ready| ready > now).min();
        pending.into_iter().chain(queued).min()
    }

    /// The earliest cycle at which a session outside every in-flight batch
    /// can next be scheduled: the earliest unreleased arrival, or the
    /// earliest `ready_cycle` of a released unfinished session that is not
    /// in flight — whether or not that cycle has passed. The executor's
    /// decode runs stop there, since such a session could join or displace
    /// the run's batch. The scan returns the first cycle it finds at or
    /// before `t`, since the caller stops there anyway; `None` when every
    /// unfinished session is in flight.
    pub(crate) fn earliest_ready_not_in_flight(&self, t: u64) -> Option<u64> {
        let mut earliest = self.future.front().map(|&(arrival, _)| arrival);
        for s in self.queued().filter(|s| !s.in_flight) {
            if s.ready_cycle <= t {
                return Some(s.ready_cycle);
            }
            earliest = Some(earliest.map_or(s.ready_cycle, |e| e.min(s.ready_cycle)));
        }
        earliest
    }

    /// Every released unfinished session (the model queues hold only
    /// those, so this is in-flight-sized, not history-sized).
    fn queued(&self) -> impl Iterator<Item = &Session> {
        self.queues
            .iter()
            .flat_map(|q| q.waiting.iter().chain(q.decoding.iter()))
            .map(|&id| &self.sessions[self.sidx(id)])
    }

    /// Moves every submitted session whose arrival is at or before `now`
    /// into its model queue.
    fn release_arrivals(&mut self, now: u64) {
        while let Some(&(arrival, id)) = self.future.front() {
            if arrival > now {
                break;
            }
            self.future.pop_front();
            let model = self.sessions[self.sidx(id)].request.model;
            let queue = match self.queues.iter_mut().find(|q| q.model == model) {
                Some(queue) => queue,
                None => {
                    self.queues.push(ModelQueue::new(model));
                    self.queues.last_mut().expect("queue just pushed")
                }
            };
            sorted_insert(&mut queue.waiting, id);
        }
    }

    /// Whether `id` may be scheduled at `now`.
    fn schedulable(&self, id: RequestId, now: u64) -> bool {
        let s = &self.sessions[self.sidx(id)];
        !s.in_flight && s.is_runnable(now)
    }

    /// Whether `id` may be scheduled at `now` out of KV pool `pool`: it must
    /// be schedulable and — under a bounded configuration — either homeless
    /// (fresh admission) or already homed to `pool`.
    fn eligible_on(&self, id: RequestId, now: u64, pool: usize) -> bool {
        self.schedulable(id, now)
            && (self.pools.is_empty()
                || self.sessions[self.sidx(id)].page_table.admissible_on(pool))
    }

    /// Assembles the next micro-batch at simulated cycle `now` for the node
    /// whose KV lives in pool `pool`, restricted to the phases of the node's
    /// `role`: a disaggregated executor forms prefill-only batches on
    /// [`PoolRole::Prefill`] nodes and decode-only batches on
    /// [`PoolRole::Decode`] nodes; [`PoolRole::Colocated`] runs both phases
    /// (pool 0 with both phases is the single-node and sharded view).
    /// Scheduled sessions are marked in flight until [`Scheduler::complete`]
    /// is called for the batch, so overlapping micro-batches on different
    /// nodes never share a session. Returns `None` when no session has
    /// runnable work (all finished, everything runnable already in flight,
    /// blocked on KV pages, or only future arrivals remain).
    ///
    /// Under a bounded [`KvConfig`] the formation is a paging transaction:
    /// decode growth and prefill chunks allocate pages from `pool`,
    /// preempting most-recently-admitted page holders when it runs dry (see
    /// the module docs). Models whose eligible sessions are all blocked on
    /// pages are skipped in favour of the next least-recently-served one.
    pub fn next_micro_batch(
        &mut self,
        now: u64,
        pool: usize,
        role: PoolRole,
    ) -> Option<MicroBatch> {
        self.release_arrivals(now);
        // Single-model fast path: with one queue there is nothing to rank,
        // and `try_form` re-checks eligibility itself (an attempt with no
        // eligible session forms nothing and changes nothing observable),
        // so the candidate pass below would only duplicate its scans.
        if self.queues.len() == 1 {
            return self.form_from(now, pool, 0, role);
        }
        // Rank models by least-recently-served; ties (e.g. never-served
        // models) go to the oldest eligible session. Tracking actual service
        // instead of an index into the ever-shifting runnable set means a
        // model that stays runnable is served within one rotation, whatever
        // joins or leaves in between. Under KV pressure a model may have
        // eligible-but-unformable work (everything blocked on pages), so the
        // ranking is a preference order, not a single pick.
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        candidates.extend(self.queues.iter().enumerate().filter_map(|(qi, q)| {
            // Each queue is sorted ascending, so the oldest eligible session
            // is the *first* eligible one per queue — `find` short-circuits
            // there, instead of probing eligibility across the whole
            // decode/waiting population like the old chained `min` did. In
            // steady state (front of each queue runnable) this is O(1) per
            // queue.
            let dec = if role != PoolRole::Prefill {
                q.decoding.iter().copied().find(|&id| self.eligible_on(id, now, pool))
            } else {
                None
            };
            let wait = if role != PoolRole::Decode {
                q.waiting.iter().copied().find(|&id| self.eligible_on(id, now, pool))
            } else {
                None
            };
            let oldest = match (dec, wait) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            oldest.map(|oldest| (q.last_served, oldest, qi))
        }));
        candidates.sort();
        let mut formed = None;
        for &(_, _, qi) in &candidates {
            formed = self.form_from(now, pool, qi, role);
            if formed.is_some() {
                break;
            }
        }
        self.scratch_candidates = candidates;
        formed
    }

    /// One formation attempt against queue `qi`: on success, bumps the
    /// serve rotation and marks every scheduled session in flight.
    fn form_from(
        &mut self,
        now: u64,
        pool: usize,
        qi: usize,
        role: PoolRole,
    ) -> Option<MicroBatch> {
        let (items, evicted_pages, swapped_out) = self.try_form(now, pool, qi, role);
        if items.is_empty() {
            return None;
        }
        self.serve_counter += 1;
        self.queues[qi].last_served = self.serve_counter;
        for item in &items {
            let i = self.sidx(item.id);
            self.sessions[i].in_flight = true;
        }
        self.in_flight_count += items.len();
        Some(MicroBatch { model: self.queues[qi].model, items, evicted_pages, swapped_out })
    }

    /// Tries to form a micro-batch for the model of queue `qi` out of KV
    /// pool `pool`, restricted to the phases of `role`, returning the items, the pages
    /// evicted to make room and the sessions swapped out over the NoC
    /// (empty items = everything eligible is blocked on pages).
    fn try_form(
        &mut self,
        now: u64,
        pool: usize,
        qi: usize,
        role: PoolRole,
    ) -> (Vec<BatchItem>, usize, Vec<SwapOut>) {
        let SchedulerConfig { max_batch, token_budget, prefill_chunk, policy, decode_order } =
            self.config;
        let KvConfig { page_tokens, .. } = self.kv;
        let paged = !self.pools.is_empty();
        // Batch membership ("in_batch") is a linear scan over `items` — at
        // most `max_batch` entries — instead of a freshly allocated hash
        // set; the items vector itself comes from the recycle free list.
        let mut items: Vec<BatchItem> = self.spare_items.pop().unwrap_or_default();
        items.clear();
        let mut tokens = 0usize;
        let mut evicted_pages = 0usize;
        let mut swapped_out: Vec<SwapOut> = Vec::new();

        // 1. Decode slots for every in-flight generation — oldest first, or
        // rotated round-robin after the last session served. A slot needs
        // the session's table to cover one more KV entry; when the pool is
        // short the session preempts strictly-younger page holders, and a
        // session that cannot reclaim enough simply skips this step (the
        // oldest session can always reclaim, so no one starves).
        if role != PoolRole::Prefill {
            let mut decoding = std::mem::take(&mut self.scratch_ids);
            decoding.clear();
            decoding.extend(
                self.queues[qi]
                    .decoding
                    .iter()
                    .copied()
                    .filter(|&id| self.eligible_on(id, now, pool)),
            );
            if decode_order == DecodeOrder::RoundRobin && !decoding.is_empty() {
                if let Some(last) = self.queues[qi].last_decode.get(pool).copied().flatten() {
                    // Start with the oldest session strictly after the last
                    // one served; `split == len` wraps to the front, which
                    // makes the rotation identical to FCFS whenever every
                    // decoding session was served last time.
                    let split = decoding.partition_point(|&id| id <= last);
                    if split < decoding.len() {
                        decoding.rotate_left(split);
                    }
                }
            }
            let mut last_granted = None;
            for &id in &decoding {
                if items.len() >= max_batch || tokens >= token_budget {
                    break;
                }
                let s = &self.sessions[self.sidx(id)];
                if s.state != SessionState::Decoding {
                    continue; // recompute-evicted earlier in this very formation
                }
                if paged && !s.page_table.admissible_on(pool) {
                    continue; // swapped out earlier in this very formation
                }
                let context_len = s.kv_len();
                if paged {
                    let need = pages_for(context_len + 1, page_tokens);
                    if !self.reserve_pages(
                        pool,
                        id,
                        need,
                        &items,
                        &mut evicted_pages,
                        &mut swapped_out,
                    ) {
                        continue;
                    }
                }
                items.push(BatchItem { id, phase: Phase::Decode, tokens: 1, context_len });
                last_granted = Some(id);
                tokens += 1;
            }
            self.scratch_ids = decoding;
            if let Some(last) = last_granted {
                let cursors = &mut self.queues[qi].last_decode;
                if cursors.len() <= pool {
                    cursors.resize(pool + 1, None);
                }
                cursors[pool] = Some(last);
            }
        }

        // 2. Prefill chunks with the remaining budget, in policy order. A
        // chunk from a page-holding session (sunk recompute cost) may
        // preempt like a decode slot; a fresh admission defers instead when
        // free pages fall short of its projected need — and defers the rest
        // of the queue with it, so admission keeps strict policy order.
        if role != PoolRole::Decode {
            let mut waiting = std::mem::take(&mut self.scratch_ids);
            waiting.clear();
            waiting.extend(
                self.queues[qi]
                    .waiting
                    .iter()
                    .copied()
                    .filter(|&id| self.eligible_on(id, now, pool)),
            );
            if policy == SchedulingPolicy::ShortestPrefillFirst {
                waiting.sort_by_key(|&id| (self.sessions[self.sidx(id)].remaining_prefill(), id));
            }
            for &id in &waiting {
                if items.len() >= max_batch || tokens >= token_budget {
                    break;
                }
                if items.iter().any(|it| it.id == id) {
                    continue;
                }
                let s = &self.sessions[self.sidx(id)];
                let room = token_budget - tokens;
                let chunk = s.remaining_prefill().min(prefill_chunk).min(room);
                let context_len = s.prefilled_tokens + chunk;
                if paged {
                    // The chunk that completes the prefill also emits the
                    // first output token, whose KV entry lands in the same
                    // table.
                    let completes = chunk == s.remaining_prefill();
                    let emits = completes && s.first_token_cycle.is_none();
                    let need = pages_for(context_len + usize::from(emits), page_tokens);
                    if s.page_table.mapped_pages() == 0 {
                        // Fresh admission: defer (never preempt) when free
                        // pages fall short of the projected need.
                        if self.pools[pool].free_pages() < need {
                            break;
                        }
                        let i = self.sidx(id);
                        let grown =
                            self.sessions[i].page_table.grow(pool, &mut self.pools[pool], need);
                        debug_assert!(grown, "free pages were just checked");
                    } else if !self.reserve_pages(
                        pool,
                        id,
                        need,
                        &items,
                        &mut evicted_pages,
                        &mut swapped_out,
                    ) {
                        break;
                    }
                }
                items.push(BatchItem { id, phase: Phase::Prefill, tokens: chunk, context_len });
                tokens += chunk;
            }
            self.scratch_ids = waiting;
        }

        debug_assert!(tokens <= token_budget, "token budget exceeded");
        if items.is_empty() {
            // Nothing formed: hand the (possibly warm) vector straight back
            // to the free list instead of dropping its capacity.
            self.spare_items.push(items);
            return (Vec::new(), evicted_pages, swapped_out);
        }
        (items, evicted_pages, swapped_out)
    }

    /// Grows `id`'s page table to `need` pages out of `pool`, preempting
    /// strictly-younger page holders (most recently admitted first) when the
    /// free list is short. Returns `false` — with nothing evicted and
    /// nothing allocated — if even evicting every eligible victim would not
    /// free enough pages. Victims are planned first and only then committed,
    /// so a failed reclaim has no side effects.
    ///
    /// Under [`PreemptionMode::Swap`] on a [`PoolRole::Decode`] pool each
    /// victim is paged *out* over the NoC into the prefill pool with the
    /// most free pages instead of dropping its cache: the session keeps its
    /// KV (no recompute debt) and is paged back in by the executor's
    /// migration path once the decode pool has room again. A victim no
    /// prefill pool can hold falls back to a recompute eviction.
    fn reserve_pages(
        &mut self,
        pool: usize,
        id: RequestId,
        need: usize,
        in_batch: &[BatchItem],
        evicted_pages: &mut usize,
        swapped_out: &mut Vec<SwapOut>,
    ) -> bool {
        let growth = need.saturating_sub(self.sessions[self.sidx(id)].page_table.mapped_pages());
        if growth == 0 {
            return true;
        }
        let mut reclaimable = self.pools[pool].free_pages();
        let mut victims = std::mem::take(&mut self.scratch_victims);
        victims.clear();
        if reclaimable < growth {
            // Most-recently-admitted first: the newest page holders pay,
            // which keeps the oldest session unpreemptable (liveness). Only
            // sessions strictly younger than the requester, not in flight
            // and not already in the forming batch may be evicted. Every
            // page holder is an unfinished, released session, so the model
            // queues enumerate exactly the candidate set — an
            // in-flight-sized scan, not one over every session ever
            // submitted.
            let mut candidates = std::mem::take(&mut self.scratch_evict);
            candidates.clear();
            candidates.extend(
                self.queues
                    .iter()
                    .flat_map(|q| q.waiting.iter().chain(q.decoding.iter()))
                    .copied()
                    .filter(|&v| {
                        let s = &self.sessions[self.sidx(v)];
                        s.page_table.home() == Some(pool)
                            && v > id
                            && !s.in_flight
                            && !in_batch.iter().any(|it| it.id == v)
                    }),
            );
            candidates.sort_unstable_by(|a, b| b.cmp(a));
            for &victim in &candidates {
                if reclaimable >= growth {
                    break;
                }
                reclaimable += self.sessions[self.sidx(victim)].page_table.mapped_pages();
                victims.push(victim);
            }
            self.scratch_evict = candidates;
            if reclaimable < growth {
                victims.clear();
                self.scratch_victims = victims;
                return false;
            }
        }
        let swap_eligible =
            self.kv.preemption == PreemptionMode::Swap && self.pool_role(pool) == PoolRole::Decode;
        for &victim in &victims {
            let vi = self.sidx(victim);
            let victim_pages = self.sessions[vi].page_table.mapped_pages();
            let swap_target = if swap_eligible && self.sessions[vi].state == SessionState::Decoding
            {
                self.swap_target(victim_pages)
            } else {
                None
            };
            if let Some(dst) = swap_target {
                // Swap-out: page the victim's KV over the NoC into a prefill
                // pool. It stays in the decoding queue with its cache intact
                // and swaps back in through the executor's migration path.
                let mut table = std::mem::take(&mut self.sessions[vi].page_table);
                let (from, to) = self.pool_pair_mut(pool, dst);
                let moved = table.migrate(from, dst, to).expect("free pages were just checked");
                let s = &mut self.sessions[vi];
                s.page_table = table;
                s.swap_outs += 1;
                let bytes = s.request.model.config().kv_cache_bytes(s.kv_len(), KV_BITS);
                self.swap_outs += 1;
                self.swapped_pages += u64_from_usize(moved);
                swapped_out.push(SwapOut { id: victim, to_pool: dst, pages: moved, bytes });
            } else {
                *evicted_pages += self.evict_for_recompute(victim, pool);
            }
        }
        victims.clear();
        self.scratch_victims = victims;
        let i = self.sidx(id);
        let grown = self.sessions[i].page_table.grow(pool, &mut self.pools[pool], need);
        debug_assert!(grown, "reclaim guaranteed the free pages");
        true
    }

    /// The prefill pool with the most free pages that can hold `pages`
    /// (ties to the lowest index), or `None` if no prefill pool has room.
    /// A pool draining for a control-plane role flip never qualifies.
    fn swap_target(&self, pages: usize) -> Option<usize> {
        self.pool_roles
            .iter()
            .enumerate()
            .filter(|&(i, role)| {
                *role == PoolRole::Prefill
                    && Some(i) != self.drain_pool
                    && self.pools[i].free_pages() >= pages
            })
            .max_by_key(|&(i, _)| (self.pools[i].free_pages(), std::cmp::Reverse(i)))
            .map(|(i, _)| i)
    }

    /// Mutable references to two distinct pools.
    fn pool_pair_mut(&mut self, a: usize, b: usize) -> (&mut KvPool, &mut KvPool) {
        assert_ne!(a, b, "a pool pair needs two distinct pools");
        if a < b {
            let (left, right) = self.pools.split_at_mut(b);
            (&mut left[a], &mut right[0])
        } else {
            let (left, right) = self.pools.split_at_mut(a);
            (&mut right[0], &mut left[b])
        }
    }

    /// Migrates session `id`'s KV pages into pool `to_pool` — the
    /// prefill→decode handoff (or swap-in) of disaggregated serving, driven
    /// by the executor, which charges the NoC transfer energy and latency
    /// for the returned byte count. Under an unbounded configuration no
    /// physical pages exist, so the call only computes the transfer size
    /// (`to_pool` is ignored) and counts the migration.
    ///
    /// Returns `None` — nothing moved — when `to_pool` lacks the free pages;
    /// the executor retries after the next completion frees some.
    ///
    /// # Panics
    /// Panics if the session is finished, holds no pages while a bounded
    /// pool is configured, or is already homed on `to_pool`.
    pub fn migrate_session(&mut self, id: RequestId, to_pool: usize) -> Option<Migration> {
        let i = self.sidx(id);
        assert!(!self.sessions[i].is_finished(), "finished sessions have no KV to migrate");
        if self.pools.is_empty() {
            let s = &mut self.sessions[i];
            let pages = pages_for(s.kv_len(), self.kv.page_tokens);
            let bytes = s.request.model.config().kv_cache_bytes(s.kv_len(), KV_BITS);
            s.migrations += 1;
            self.migrations += 1;
            self.migrated_pages += pages as u64;
            return Some(Migration { pages, bytes });
        }
        let needed = self.sessions[i].page_table.mapped_pages();
        assert!(needed > 0, "a migrating session must hold pages");
        let from_pool = self.sessions[i].page_table.home().expect("mapped pages imply a home");
        if self.pools[to_pool].free_pages() < needed {
            return None;
        }
        let mut table = std::mem::take(&mut self.sessions[i].page_table);
        let (from, to) = self.pool_pair_mut(from_pool, to_pool);
        let moved = table.migrate(from, to_pool, to).expect("free pages were just checked");
        let s = &mut self.sessions[i];
        s.page_table = table;
        s.migrations += 1;
        let bytes = s.request.model.config().kv_cache_bytes(s.kv_len(), KV_BITS);
        self.migrations += 1;
        self.migrated_pages += u64_from_usize(moved);
        Some(Migration { pages: moved, bytes })
    }

    /// Raises session `id`'s ready cycle to at least `cycle` — how the
    /// executor keeps a migrated session causal: its next decode step cannot
    /// start before its KV pages have finished streaming over the NoC.
    pub fn stall_session_until(&mut self, id: RequestId, cycle: u64) {
        let i = self.sidx(id);
        let s = &mut self.sessions[i];
        s.ready_cycle = s.ready_cycle.max(cycle);
    }

    /// How many times in a row [`Scheduler::complete_and_reform`] may
    /// re-form `batch`: zero unless it is decode-only, else the fewest
    /// steps before an item emits its last output token (that item would
    /// finish and leave the batch) or — under a bounded pool — before an
    /// item's next step needs a new page (formation could then allocate or
    /// evict). Step `j` (from 0) completes the batch with `kv_len + j + 1`
    /// entries per item, so it is forced while `generated + j + 1 <
    /// output` and `kv_len + j + 2` entries fit the mapped pages.
    pub(crate) fn forced_steps(&self, batch: &MicroBatch) -> usize {
        let paged = !self.pools.is_empty();
        let page_tokens = self.kv.page_tokens;
        if batch.items.iter().any(|item| item.phase != Phase::Decode) {
            return 0;
        }
        batch
            .items
            .iter()
            .map(|item| {
                let s = &self.sessions[self.sidx(item.id)];
                let tokens = s.request.output_tokens.saturating_sub(s.generated_tokens + 1);
                if paged {
                    let entries = s.page_table.mapped_pages() * page_tokens;
                    tokens.min(entries.saturating_sub(s.kv_len() + 1))
                } else {
                    tokens
                }
            })
            .min()
            .unwrap_or(0)
    }

    /// Completes the decode-only `batch` `steps` times in a row, the last
    /// time at `end_cycle`, re-forming it in place after each completion:
    /// the same items in the same order, each attending `steps` more KV
    /// entries. When nothing outside the batch is schedulable in between
    /// (which the executor guarantees), this is exactly `steps` rounds of
    /// [`Scheduler::complete`] followed by a [`Scheduler::next_micro_batch`]
    /// that re-forms the batch on its pool: every item emits `steps` tokens
    /// and becomes ready at `end_cycle` at the latest, the batch's model is
    /// served `steps` more times, and the in-flight marks and the decode
    /// rotation cursor end where they were.
    ///
    /// `steps` must not exceed [`Scheduler::forced_steps`] (checked in debug
    /// builds).
    pub(crate) fn complete_and_reform(
        &mut self,
        batch: &mut MicroBatch,
        steps: usize,
        end_cycle: u64,
    ) {
        debug_assert!(steps <= self.forced_steps(batch), "re-formed past a forced step");
        for item in &mut batch.items {
            let i = self.sidx(item.id);
            let s = &mut self.sessions[i];
            s.generated_tokens += steps;
            s.ready_cycle = s.ready_cycle.max(end_cycle);
            item.context_len = s.kv_len();
        }
        self.pending_decode_tokens -= u64_from_usize(batch.items.len() * steps);
        self.serve_counter += u64_from_usize(steps);
        let queue = self
            .queues
            .iter_mut()
            .find(|q| q.model == batch.model)
            .expect("a formed batch's model has a queue");
        queue.last_served = self.serve_counter;
        batch.evicted_pages = 0;
        batch.swapped_out.clear();
    }

    /// Hands a completed micro-batch's allocations back for reuse: the next
    /// formation pops its items vector off a free list instead of
    /// allocating. Purely an optimization — dropping the batch instead is
    /// always correct. The free list is capped at the executor's plausible
    /// in-flight depth so a burst never pins memory.
    pub fn recycle(&mut self, batch: MicroBatch) {
        const SPARE_CAP: usize = 64;
        if self.spare_items.len() < SPARE_CAP {
            let mut items = batch.items;
            items.clear();
            self.spare_items.push(items);
        }
    }

    /// Applies the effects of an executed micro-batch at simulated cycle
    /// `end_cycle`: prefill chunks advance the cached prefix (a completed
    /// *first* prefill emits the first output token; a completed recompute
    /// prefill after a preemption just restores the cache and resumes
    /// decoding), decode slots emit one token each, and sessions that reach
    /// their requested output length finish, retire from their model queue
    /// and release their KV pages. Every session of the batch leaves the
    /// in-flight set and becomes schedulable again at `end_cycle`.
    ///
    /// # Panics
    /// Panics if the batch references an id this scheduler did not issue.
    pub fn complete(&mut self, batch: &MicroBatch, end_cycle: u64) {
        // One queue serves the whole batch: resolve it once, not per item.
        let qi = self
            .queues
            .iter()
            .position(|q| q.model == batch.model)
            .expect("completed batch's model has a queue");
        for item in &batch.items {
            let i = self.sidx(item.id);
            let s = &mut self.sessions[i];
            match item.phase {
                Phase::Prefill => {
                    self.pending_prefill_total -= u64_from_usize(item.tokens);
                    s.prefilled_tokens += item.tokens;
                    debug_assert!(s.prefilled_tokens <= s.prefill_target);
                    if s.remaining_prefill() == 0 {
                        if s.first_token_cycle.is_none() {
                            // The prefill step produces the first output
                            // token.
                            s.generated_tokens = 1;
                            self.pending_decode_tokens -= 1;
                            s.first_token_cycle = Some(end_cycle);
                            if s.generated_tokens >= s.request.output_tokens {
                                s.state = SessionState::Finished;
                                s.finish_cycle = Some(end_cycle);
                            } else {
                                s.state = SessionState::Decoding;
                            }
                        } else {
                            // Recompute prefill after a preemption: the
                            // cache is restored, decoding resumes, no new
                            // token is emitted.
                            s.state = SessionState::Decoding;
                        }
                    }
                }
                Phase::Decode => {
                    s.generated_tokens += 1;
                    self.pending_decode_tokens -= 1;
                    if s.generated_tokens >= s.request.output_tokens {
                        s.state = SessionState::Finished;
                        s.finish_cycle = Some(end_cycle);
                    }
                }
            }
            s.ready_cycle = s.ready_cycle.max(end_cycle);
            s.in_flight = false;
            let state = s.state;
            if state == SessionState::Finished {
                if let Some(home) = s.page_table.home() {
                    let mut table = std::mem::take(&mut s.page_table);
                    table.release_all(&mut self.pools[home]);
                }
            }
            self.in_flight_count -= 1;
            let queue = &mut self.queues[qi];
            match state {
                SessionState::Prefilling => {}
                SessionState::Decoding => {
                    if item.phase == Phase::Prefill {
                        // Prefill just completed: move to the decode queue.
                        sorted_remove(&mut queue.waiting, item.id);
                        sorted_insert(&mut queue.decoding, item.id);
                    }
                }
                SessionState::Finished => {
                    sorted_remove(&mut queue.waiting, item.id);
                    sorted_remove(&mut queue.decoding, item.id);
                    self.retired += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(model: ModelId, prompt: usize, output: usize) -> Request {
        Request::new(model, prompt, output)
    }

    #[test]
    fn decode_slots_come_before_prefill_and_budget_is_respected() {
        let mut sched = Scheduler::new(SchedulerConfig {
            max_batch: 8,
            token_budget: 64,
            prefill_chunk: 32,
            policy: SchedulingPolicy::Fcfs,
            ..SchedulerConfig::default()
        });
        let a = sched.submit(request(ModelId::Llama2_7b, 100, 4));
        let b = sched.submit(request(ModelId::Llama2_7b, 40, 4));
        // First batch: no decodes yet, two prefill chunks (32 + 32 = 64).
        let batch = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        assert_eq!(batch.items.len(), 2);
        assert_eq!(batch.total_tokens(), 64);
        assert!(batch.items.iter().all(|i| i.phase == Phase::Prefill));
        assert_eq!(batch.items[0].id, a);
        assert_eq!(batch.items[0].tokens, 32);
        assert_eq!(batch.items[1].id, b);
        assert_eq!(batch.items[1].tokens, 32);
        sched.complete(&batch, 10);
        // b finished its prompt? 40 > 32, so both still prefilling. Second
        // batch continues the chunks.
        let batch2 = sched.next_micro_batch(10, 0, PoolRole::Colocated).unwrap();
        assert_eq!(batch2.items[0].tokens, 32); // a: 100 - 32 = 68 left, next 32
        assert_eq!(batch2.items[1].tokens, 8); // b: 40 - 32 = 8 left
        sched.complete(&batch2, 20);
        // b's prefill completed: it now holds a decode slot ahead of a's
        // remaining prefill.
        let batch3 = sched.next_micro_batch(20, 0, PoolRole::Colocated).unwrap();
        assert_eq!(batch3.items[0].id, b);
        assert_eq!(batch3.items[0].phase, Phase::Decode);
        assert_eq!(batch3.items[1].id, a);
        assert_eq!(batch3.items[1].phase, Phase::Prefill);
    }

    #[test]
    fn no_model_starves_while_the_runnable_set_shifts() {
        // Regression for the round-robin starvation bug: the old
        // `round_robin % models.len()` indexed into a runnable-model list
        // whose size and order changed between calls, so a model could be
        // skipped repeatedly. Least-recently-served selection must serve
        // every continuously-runnable model within one rotation, even as
        // late arrivals reshuffle the set.
        let models = [ModelId::Llama2_7b, ModelId::Llama2_13b, ModelId::Llama2_70b];
        let mut sched = Scheduler::new(SchedulerConfig::default());
        for (i, &m) in models.iter().enumerate() {
            sched.submit(request(m, 64, 40));
            // Staggered extra arrivals keep the runnable set shifting.
            sched.submit(Request::new(m, 64, 40).arriving_at(50 * (i as u64 + 1)));
        }
        let mut since_served = vec![0usize; models.len()];
        let mut now = 0;
        for _ in 0..60 {
            let Some(batch) = sched.next_micro_batch(now, 0, PoolRole::Colocated) else { break };
            for (mi, m) in models.iter().enumerate() {
                if *m == batch.model {
                    since_served[mi] = 0;
                } else {
                    since_served[mi] += 1;
                }
            }
            assert!(
                since_served.iter().all(|&gap| gap <= models.len()),
                "a runnable model waited longer than one rotation: {since_served:?}"
            );
            now += 1;
            sched.complete(&batch, now);
        }
    }

    #[test]
    fn in_flight_sessions_are_not_rescheduled_until_completed() {
        // Two overlapping micro-batches (as a multi-node executor would
        // form) must never share a session; completion frees it again.
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let a = sched.submit(request(ModelId::Llama2_7b, 64, 8));
        let b = sched.submit(request(ModelId::Llama2_7b, 64, 8));
        let first = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        assert_eq!(first.items.len(), 2, "both prompts fit one batch");
        assert_eq!(sched.in_flight_count(), 2);
        assert!(
            sched.next_micro_batch(0, 0, PoolRole::Colocated).is_none(),
            "everything runnable is in flight"
        );
        sched.complete(&first, 10);
        assert_eq!(sched.in_flight_count(), 0);
        let second = sched.next_micro_batch(10, 0, PoolRole::Colocated).unwrap();
        let ids: Vec<RequestId> = second.items.iter().map(|i| i.id).collect();
        assert!(ids.contains(&a) && ids.contains(&b), "completion frees the sessions");
    }

    #[test]
    fn sessions_only_become_runnable_after_their_last_batch_completes() {
        // Causality across nodes: a decode continuation may not be scheduled
        // at a cycle earlier than the completion of the step that produced
        // its input token.
        let mut sched = Scheduler::new(SchedulerConfig::default());
        sched.submit(request(ModelId::Llama2_7b, 64, 4));
        let prefill = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        sched.complete(&prefill, 500);
        assert!(
            sched.next_micro_batch(100, 0, PoolRole::Colocated).is_none(),
            "token only exists at cycle 500"
        );
        assert_eq!(sched.next_arrival_after(100), Some(500));
        assert!(sched.next_micro_batch(500, 0, PoolRole::Colocated).is_some());
    }

    #[test]
    fn shortest_prefill_first_reorders_waiting_prompts() {
        let mut sched = Scheduler::new(SchedulerConfig {
            max_batch: 2,
            token_budget: 1024,
            prefill_chunk: 512,
            policy: SchedulingPolicy::ShortestPrefillFirst,
            ..SchedulerConfig::default()
        });
        sched.submit(request(ModelId::Llama2_7b, 400, 2));
        let short = sched.submit(request(ModelId::Llama2_7b, 50, 2));
        let batch = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        assert_eq!(batch.items[0].id, short, "shortest prompt admitted first");
    }

    #[test]
    fn models_round_robin_across_micro_batches() {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        sched.submit(request(ModelId::Llama2_7b, 64, 8));
        sched.submit(request(ModelId::Llama2_70b, 64, 8));
        let first = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        let second = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        assert_ne!(first.model, second.model);
    }

    #[test]
    fn prefill_completion_emits_first_token_and_transitions_to_decode() {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let id = sched.submit(request(ModelId::Llama2_7b, 64, 3));
        let batch = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        sched.complete(&batch, 100);
        let s = sched.session(id);
        assert_eq!(s.state, SessionState::Decoding);
        assert_eq!(s.generated_tokens, 1);
        assert_eq!(s.first_token_cycle, Some(100));
        // Two decode steps finish the request.
        for t in [200, 300] {
            let b = sched.next_micro_batch(t - 100, 0, PoolRole::Colocated).unwrap();
            assert_eq!(b.items[0].phase, Phase::Decode);
            sched.complete(&b, t);
        }
        let s = sched.session(id);
        assert!(s.is_finished());
        assert_eq!(s.generated_tokens, 3);
        assert_eq!(s.finish_cycle, Some(300));
        assert!(sched.all_finished());
        assert!(sched.next_micro_batch(400, 0, PoolRole::Colocated).is_none());
    }

    #[test]
    fn future_arrivals_wait_and_are_reported() {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        sched.submit(request(ModelId::Llama2_7b, 16, 1).arriving_at(1000));
        assert!(sched.next_micro_batch(0, 0, PoolRole::Colocated).is_none());
        assert_eq!(sched.next_arrival_after(0), Some(1000));
        assert!(sched.next_micro_batch(1000, 0, PoolRole::Colocated).is_some());
    }

    #[test]
    fn slices_bucket_decode_contexts_and_keep_prefill_chunks() {
        let batch = MicroBatch {
            model: ModelId::Llama2_7b,
            items: vec![
                BatchItem { id: RequestId(0), phase: Phase::Decode, tokens: 1, context_len: 70 },
                BatchItem { id: RequestId(1), phase: Phase::Decode, tokens: 1, context_len: 100 },
                BatchItem { id: RequestId(2), phase: Phase::Decode, tokens: 1, context_len: 300 },
                BatchItem { id: RequestId(3), phase: Phase::Prefill, tokens: 96, context_len: 224 },
            ],
            evicted_pages: 0,
            swapped_out: Vec::new(),
        };
        let slices = batch.slices(128);
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0], BatchSlice::decode(2, 128));
        assert_eq!(slices[1], BatchSlice::decode(1, 384));
        assert_eq!(slices[2], BatchSlice::prefill(1, 96).with_kv_len(256));
    }

    #[test]
    fn zero_context_decode_buckets_to_exactly_one_page() {
        // Regression for the bucketing boundary: the page count must
        // saturate at one *before* scaling by the page size, so a
        // zero-context decode occupies exactly one `kv_bucket`-entry page —
        // the same bucket as contexts 1..=kv_bucket — and `kv_bucket + 1`
        // spills into the second page.
        let decode = |context_len| MicroBatch {
            model: ModelId::Llama2_7b,
            items: vec![BatchItem {
                id: RequestId(0),
                phase: Phase::Decode,
                tokens: 1,
                context_len,
            }],
            evicted_pages: 0,
            swapped_out: Vec::new(),
        };
        let kv_bucket = 128;
        for (context_len, pages) in [(0, 1), (1, 1), (kv_bucket, 1), (kv_bucket + 1, 2)] {
            let slices = decode(context_len).slices(kv_bucket);
            assert_eq!(
                slices,
                vec![BatchSlice::decode(1, pages * kv_bucket)],
                "context {context_len} must map to {pages} page(s)"
            );
            assert_eq!(crate::kv::pages_for(context_len, kv_bucket), pages);
        }
        // The boundary also holds for prefill KV bucketing.
        let prefill = MicroBatch {
            model: ModelId::Llama2_7b,
            items: vec![BatchItem {
                id: RequestId(0),
                phase: Phase::Prefill,
                tokens: 1,
                context_len: 0,
            }],
            evicted_pages: 0,
            swapped_out: Vec::new(),
        };
        assert_eq!(
            prefill.slices(kv_bucket),
            vec![BatchSlice::prefill(1, 1).with_kv_len(kv_bucket)]
        );
    }

    #[test]
    #[should_panic(expected = "token_budget must be non-zero")]
    fn zero_budget_rejected() {
        Scheduler::new(SchedulerConfig {
            max_batch: 1,
            token_budget: 0,
            prefill_chunk: 1,
            policy: SchedulingPolicy::Fcfs,
            ..SchedulerConfig::default()
        });
    }

    use crate::kv::{AdmissionError, KvConfig};

    /// Drives the scheduler to completion on one pool, checking page
    /// conservation after every step, and returns the number of steps.
    fn drain(sched: &mut Scheduler) -> usize {
        let capacity = sched.kv_capacity_pages();
        let mut now = 0u64;
        let mut steps = 0usize;
        while !sched.all_finished() {
            steps += 1;
            assert!(steps < 10_000, "scheduler failed to drain (livelock)");
            if let Some(batch) = sched.next_micro_batch(now, 0, PoolRole::Colocated) {
                now += 1;
                sched.complete(&batch, now);
            } else {
                now = sched.next_arrival_after(now).expect("blocked with nothing runnable");
            }
            if let Some(capacity) = capacity {
                let mapped: u64 =
                    sched.sessions().iter().map(|s| s.page_table.mapped_pages() as u64).sum();
                assert_eq!(
                    sched.kv_free_pages(0).pages().unwrap() as u64 + mapped,
                    capacity,
                    "free + mapped must equal capacity after every step"
                );
            }
        }
        steps
    }

    #[test]
    fn decode_growth_preempts_the_most_recently_admitted_holder() {
        // Pool of 4 four-token pages. Two equal requests (prompt 4, output
        // 8) prefill together (2 pages each: context 5 after the emitted
        // first token). Both decode in lockstep until their KV crosses 8
        // entries: the older session (r0) then needs a third page, the pool
        // is dry, and the younger holder (r1) must be evicted, re-prefill
        // its whole 8-entry KV and still finish.
        let mut sched = Scheduler::with_kv(
            SchedulerConfig {
                max_batch: 2,
                token_budget: 8,
                prefill_chunk: 4,
                policy: SchedulingPolicy::Fcfs,
                ..SchedulerConfig::default()
            },
            KvConfig::bounded(4, 4),
        );
        let a = sched.submit(request(ModelId::Llama2_7b, 4, 8));
        let b = sched.submit(request(ModelId::Llama2_7b, 4, 8));
        drain(&mut sched);
        assert!(sched.all_finished());
        assert_eq!(sched.session(a).preemptions, 0, "the oldest session is unpreemptable");
        assert_eq!(sched.session(b).preemptions, 1);
        assert_eq!(sched.preemption_count(), 1);
        assert_eq!(sched.evicted_page_count(), 2, "the victim held two pages");
        assert_eq!(
            sched.reprefill_token_count(),
            8,
            "prompt 4 + 4 generated KV entries recomputed"
        );
        // Token accounting stays exact through the eviction.
        for s in sched.sessions() {
            assert_eq!(s.generated_tokens, s.request.output_tokens);
            assert_eq!(s.page_table.mapped_pages(), 0, "finished sessions hold no pages");
        }
        assert_eq!(sched.kv_free_pages(0).pages(), Some(4), "all pages return to the pool");
    }

    #[test]
    fn kv_free_pages_distinguishes_unbounded_from_a_bad_index() {
        // Unbounded: every index reads as the explicit unbounded state —
        // there is no pool an index could be "out of range" of.
        let sched = Scheduler::new(SchedulerConfig::default());
        assert_eq!(sched.kv_free_pages(0), KvFreePages::Unbounded);
        assert_eq!(sched.kv_free_pages(17), KvFreePages::Unbounded);
        // Bounded: valid indices answer with a real count.
        let sched = Scheduler::with_kv(SchedulerConfig::default(), KvConfig::bounded(4, 4));
        assert_eq!(sched.kv_free_pages(0), KvFreePages::Pages(4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn kv_free_pages_panics_on_an_out_of_range_bounded_index() {
        // Regression: this used to return `None`, which placement call
        // sites folded to usize::MAX free pages — an indexing bug would
        // silently win every placement decision instead of failing.
        let sched = Scheduler::with_kv(SchedulerConfig::default(), KvConfig::bounded(4, 4));
        let _ = sched.kv_free_pages(1);
    }

    #[test]
    fn fresh_prefills_defer_until_pages_free_up() {
        // One page-hungry session (needs 3 of 4 pages at its peak) runs
        // while a second one waits: the second's first chunk must be
        // deferred while free pages fall short of its projected need, and
        // admitted later without any preemption.
        let mut sched = Scheduler::with_kv(
            SchedulerConfig {
                max_batch: 4,
                token_budget: 16,
                prefill_chunk: 8,
                policy: SchedulingPolicy::Fcfs,
                ..SchedulerConfig::default()
            },
            KvConfig::bounded(4, 4),
        );
        sched.submit(request(ModelId::Llama2_7b, 8, 5)); // peak: pages_for(13) = 4 pages
        let late = sched.submit(request(ModelId::Llama2_7b, 8, 2));
        let first = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        // Only the first prompt fits: 8 + 1 emitted token = 3 pages, leaving
        // one free page — short of the second prompt's 3-page need.
        assert_eq!(first.items.len(), 1, "the second prefill must be deferred");
        assert_eq!(first.evicted_pages, 0, "fresh admissions never preempt");
        sched.complete(&first, 1);
        assert_eq!(sched.session(late).prefilled_tokens, 0);
        drain(&mut sched);
        assert!(sched.all_finished());
        assert_eq!(sched.preemption_count(), 0, "deferral suffices for this workload");
    }

    #[test]
    fn try_submit_rejects_on_queue_depth_and_impossible_fits() {
        let mut sched = Scheduler::with_kv(
            SchedulerConfig::default(),
            KvConfig::bounded(4, 8).with_max_live_sessions(2),
        );
        assert!(sched.try_submit(request(ModelId::Llama2_7b, 4, 4)).is_ok());
        assert!(sched.try_submit(request(ModelId::Llama2_7b, 4, 4)).is_ok());
        // Third live session exceeds the depth bound.
        assert_eq!(
            sched.try_submit(request(ModelId::Llama2_7b, 4, 4)),
            Err(AdmissionError::QueueFull { live: 2, bound: 2 })
        );
        // A request that could never fit the pool is rejected outright:
        // pages_for(60 + 8) = 17 > 8.
        let mut roomy = Scheduler::with_kv(SchedulerConfig::default(), KvConfig::bounded(4, 8));
        assert_eq!(
            roomy.try_submit(request(ModelId::Llama2_7b, 60, 8)),
            Err(AdmissionError::NeverFits { needed_pages: 17, capacity_pages: 8 })
        );
        assert_eq!(sched.rejected_count(), 1);
        assert_eq!(roomy.rejected_count(), 1);
        // Unbounded schedulers never reject.
        let mut unbounded = Scheduler::new(SchedulerConfig::default());
        assert!(unbounded.try_submit(request(ModelId::Llama2_7b, 100_000, 1000)).is_ok());
    }

    #[test]
    fn never_fits_is_judged_per_node_regardless_of_pool_partition() {
        // Admission must not depend on whether a request is submitted
        // before or after an executor repartitions the pools: the fit check
        // always uses the per-node capacity, so a sharded 4-node aggregate
        // (32 pages) still rejects what one node (8 pages) cannot hold.
        let mut sched = Scheduler::with_kv(SchedulerConfig::default(), KvConfig::bounded(4, 8));
        sched.configure_kv_pools(&[PoolRole::Colocated], 4);
        assert_eq!(sched.kv_capacity_pages(), Some(32));
        assert_eq!(
            sched.try_submit(request(ModelId::Llama2_7b, 60, 8)),
            Err(AdmissionError::NeverFits { needed_pages: 17, capacity_pages: 8 })
        );
    }

    #[test]
    #[should_panic(expected = "request rejected")]
    fn infallible_submit_panics_on_rejection() {
        let mut sched = Scheduler::with_kv(
            SchedulerConfig::default(),
            KvConfig::bounded(4, 8).with_max_live_sessions(1),
        );
        sched.submit(request(ModelId::Llama2_7b, 4, 4));
        sched.submit(request(ModelId::Llama2_7b, 4, 4));
    }

    #[test]
    fn pool_repartitioning_scales_capacity_and_guards_mapped_pages() {
        let mut sched = Scheduler::with_kv(SchedulerConfig::default(), KvConfig::bounded(16, 8));
        assert_eq!(sched.kv_pool_count(), 1);
        sched.configure_kv_pools(&[PoolRole::Colocated; 4], 1); // data-parallel over 4 nodes
        assert_eq!(sched.kv_pool_count(), 4);
        assert_eq!(sched.kv_capacity_pages(), Some(32));
        sched.configure_kv_pools(&[PoolRole::Colocated], 4); // sharded across 4 nodes
        assert_eq!(sched.kv_pool_count(), 1);
        assert_eq!(sched.kv_capacity_pages(), Some(32));
        // Unbounded schedulers ignore repartitioning entirely.
        let mut unbounded = Scheduler::new(SchedulerConfig::default());
        unbounded.configure_kv_pools(&[PoolRole::Colocated; 4], 1);
        assert_eq!(unbounded.kv_pool_count(), 0);
        assert_eq!(unbounded.kv_capacity_pages(), None);
    }

    #[test]
    fn sessions_stay_on_their_home_pool() {
        // Two pools of 4 pages. A session prefilled out of pool 0 must not
        // be schedulable on pool 1, and a fresh session is admissible on
        // either.
        let mut sched = Scheduler::with_kv(SchedulerConfig::default(), KvConfig::bounded(4, 4));
        sched.configure_kv_pools(&[PoolRole::Colocated; 2], 1);
        let a = sched.submit(request(ModelId::Llama2_7b, 4, 4));
        let b = sched.submit(request(ModelId::Llama2_7b, 4, 4));
        let on_zero = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        assert_eq!(on_zero.items.len(), 2, "both prompts fit pool 0");
        sched.complete(&on_zero, 1);
        assert_eq!(sched.session(a).page_table.home(), Some(0));
        assert_eq!(sched.session(b).page_table.home(), Some(0));
        assert!(
            sched.next_micro_batch(1, 1, PoolRole::Colocated).is_none(),
            "homed sessions are not eligible on another node's pool"
        );
        let again = sched.next_micro_batch(1, 0, PoolRole::Colocated).unwrap();
        assert_eq!(again.decode_slots(), 2);
    }

    use crate::kv::SloConfig;

    /// The ids of a batch in scheduling order.
    fn ids(batch: &MicroBatch) -> Vec<RequestId> {
        batch.items.iter().map(|i| i.id).collect()
    }

    #[test]
    fn round_robin_decode_slots_rotate_by_hand_computed_pattern() {
        // Three decoding sessions, two decode slots per batch (overlapping
        // prefill batches — as a multi-node executor forms — get all three
        // decoding before any decode slot is granted). Round-robin must then
        // serve {a,b}, {c,a}, {b,c}, {a,b}, … — each batch starting with the
        // oldest session strictly after the last one served — so every
        // session gets two slots out of every three batches.
        let mut sched = Scheduler::new(SchedulerConfig {
            max_batch: 2,
            token_budget: 12,
            prefill_chunk: 4,
            ..SchedulerConfig::default()
        });
        let a = sched.submit(request(ModelId::Llama2_7b, 4, 6));
        let b = sched.submit(request(ModelId::Llama2_7b, 4, 6));
        let c = sched.submit(request(ModelId::Llama2_7b, 4, 6));
        let p1 = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        assert_eq!(ids(&p1), vec![a, b]);
        let p2 = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        assert_eq!(ids(&p2), vec![c], "overlapping batch picks up the third prompt");
        sched.complete(&p1, 1);
        sched.complete(&p2, 1);
        // All three decode now; the hand-computed rotation:
        let expected = [vec![a, b], vec![c, a], vec![b, c], vec![a, b], vec![c, a]];
        let mut now = 1;
        for want in expected {
            let batch = sched.next_micro_batch(now, 0, PoolRole::Colocated).unwrap();
            assert_eq!(ids(&batch), want, "rotation diverged at cycle {now}");
            assert!(batch.items.iter().all(|i| i.phase == Phase::Decode));
            now += 1;
            sched.complete(&batch, now);
        }
    }

    #[test]
    fn fcfs_decode_order_starves_the_newest_generation() {
        // The regression round-robin fixes: under the pre-rotation FCFS
        // order the same three-session workload gives c no decode slot at
        // all while a and b are alive.
        let mut sched = Scheduler::new(SchedulerConfig {
            max_batch: 2,
            token_budget: 12,
            prefill_chunk: 4,
            decode_order: DecodeOrder::Fcfs,
            ..SchedulerConfig::default()
        });
        let a = sched.submit(request(ModelId::Llama2_7b, 4, 6));
        let b = sched.submit(request(ModelId::Llama2_7b, 4, 6));
        let c = sched.submit(request(ModelId::Llama2_7b, 4, 6));
        let p1 = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        let p2 = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        sched.complete(&p1, 1);
        sched.complete(&p2, 1);
        let mut now = 1;
        // a and b need five decode slots each; every batch is [a, b].
        for _ in 0..5 {
            let batch = sched.next_micro_batch(now, 0, PoolRole::Colocated).unwrap();
            assert_eq!(ids(&batch), vec![a, b]);
            now += 1;
            sched.complete(&batch, now);
        }
        assert!(sched.session(a).is_finished() && sched.session(b).is_finished());
        assert_eq!(sched.session(c).generated_tokens, 1, "c decoded nothing so far");
    }

    #[test]
    fn phase_filters_route_prefill_and_decode_separately() {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        sched.submit(request(ModelId::Llama2_7b, 64, 3));
        assert!(
            sched.next_micro_batch(0, 0, PoolRole::Decode).is_none(),
            "a waiting prompt is not decode work"
        );
        let prefill = sched.next_micro_batch(0, 0, PoolRole::Prefill).unwrap();
        assert!(prefill.items.iter().all(|i| i.phase == Phase::Prefill));
        sched.complete(&prefill, 1);
        assert!(
            sched.next_micro_batch(1, 0, PoolRole::Prefill).is_none(),
            "a decoding session is not prefill work"
        );
        let decode = sched.next_micro_batch(1, 0, PoolRole::Decode).unwrap();
        assert!(decode.items.iter().all(|i| i.phase == Phase::Decode));
    }

    #[test]
    fn slo_admission_rejects_exactly_past_the_projected_ttft_boundary() {
        // Target 1000 cycles at 10 cycles per prefill token: a 100-token
        // prompt on an empty scheduler projects to exactly the target
        // (admitted — the bound is not-greater-than), and a single further
        // token of backlog pushes any prompt past it.
        let slo = SloConfig { target_ttft_cycles: 1_000, cycles_per_prefill_token: 10 };
        let kv = KvConfig::unbounded().with_slo(slo);
        let mut sched = Scheduler::with_kv(SchedulerConfig::default(), kv);
        let first = sched.try_submit(request(ModelId::Llama2_7b, 100, 2));
        assert!(first.is_ok(), "projected == target must be admitted");
        // Backlog is now 100 unprefilled tokens: even a 1-token prompt
        // projects to 1010 > 1000.
        assert_eq!(
            sched.try_submit(request(ModelId::Llama2_7b, 1, 2)),
            Err(AdmissionError::SloViolation { projected_cycles: 1_010, target_cycles: 1_000 })
        );
        assert_eq!(sched.rejected_count(), 1);
        // Once the prompt prefills, the backlog drains and admission opens
        // again (decoding sessions carry no prefill backlog).
        let batch = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        sched.complete(&batch, 1);
        assert!(sched.try_submit(request(ModelId::Llama2_7b, 100, 2)).is_ok());
        // A 101-token prompt alone projects to 1010: rejected on arrival.
        let mut fresh = Scheduler::with_kv(SchedulerConfig::default(), kv);
        assert_eq!(
            fresh.try_submit(request(ModelId::Llama2_7b, 101, 2)),
            Err(AdmissionError::SloViolation { projected_cycles: 1_010, target_cycles: 1_000 })
        );
    }

    #[test]
    fn slo_admission_only_counts_backlog_arriving_no_later() {
        // Pre-submitted spread-arrival streams must not be spuriously
        // rejected: a request arriving *before* the queued backlog does not
        // wait behind it, so only sessions with arrival_cycle at or before
        // the new request's count toward its projection.
        let slo = SloConfig { target_ttft_cycles: 1_000, cycles_per_prefill_token: 10 };
        let kv = KvConfig::unbounded().with_slo(slo);
        let mut sched = Scheduler::with_kv(SchedulerConfig::default(), kv);
        // 90 tokens of backlog arriving late.
        assert!(sched
            .try_submit(Request::new(ModelId::Llama2_7b, 90, 2).arriving_at(5_000))
            .is_ok());
        // An earlier-arriving 80-token prompt sees none of it: 800 <= 1000.
        assert!(sched.try_submit(Request::new(ModelId::Llama2_7b, 80, 2)).is_ok());
        // A prompt arriving alongside the late one sees both: (90 + 80 + 50)
        // * 10 = 2200 > 1000.
        assert_eq!(
            sched.try_submit(Request::new(ModelId::Llama2_7b, 50, 2).arriving_at(5_000)),
            Err(AdmissionError::SloViolation { projected_cycles: 2_200, target_cycles: 1_000 })
        );
    }

    #[test]
    fn retire_finished_prefix_drops_only_the_finished_prefix() {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let a = sched.submit(request(ModelId::Llama2_7b, 8, 1));
        let b = sched.submit(request(ModelId::Llama2_7b, 600, 1));
        // a finishes in one chunk; b still has prefill left.
        let batch = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        sched.complete(&batch, 1);
        assert!(sched.session(a).is_finished());
        assert!(!sched.session(b).is_finished());
        assert_eq!(sched.retire_finished_prefix(), 1);
        assert_eq!(sched.retired_session_count(), 1);
        assert_eq!(sched.submitted_count(), 2);
        assert_eq!(sched.sessions().len(), 1, "only the finished prefix retires");
        assert_eq!(sched.session(b).id, b, "ids keep resolving after retirement");
        assert_eq!(sched.retire_finished_prefix(), 0, "b is unfinished, nothing to retire");
        // The rest of the run drains normally.
        let mut now = 1;
        while !sched.all_finished() {
            let batch = sched.next_micro_batch(now, 0, PoolRole::Colocated).unwrap();
            now += 1;
            sched.complete(&batch, now);
        }
        assert_eq!(sched.retire_finished_prefix(), 1);
        assert_eq!(sched.sessions().len(), 0);
        assert!(sched.all_finished());
    }

    /// Everything [`Scheduler::complete_and_reform`] may touch.
    #[allow(clippy::type_complexity)]
    fn reform_state(
        sched: &Scheduler,
    ) -> (Vec<Session>, u64, Vec<(u64, Vec<Option<RequestId>>)>, usize, u64) {
        let queues = sched.queues.iter().map(|q| (q.last_served, q.last_decode.clone())).collect();
        (
            sched.sessions().to_vec(),
            sched.serve_counter,
            queues,
            sched.in_flight_count,
            sched.pending_decode_tokens,
        )
    }

    /// Sessions `[a, c]` (or `[c, a]` under round-robin) in one decode
    /// batch formed at cycle 300, with `b` kept busy elsewhere, so that
    /// under round-robin the batch rotates past the cursor at `b`.
    fn rotated_decode_batch(decode_order: DecodeOrder) -> (Scheduler, MicroBatch) {
        let mut sched =
            Scheduler::new(SchedulerConfig { decode_order, ..SchedulerConfig::default() });
        let [a, b, c] = [0, 1, 2].map(|_| sched.submit(request(ModelId::Llama2_7b, 64, 10)));
        let prefill = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        sched.complete(&prefill, 100);
        // Serve a and b while c waits, then keep b busy elsewhere.
        sched.stall_session_until(c, 250);
        let first = sched.next_micro_batch(100, 0, PoolRole::Colocated).unwrap();
        assert_eq!(first.items.iter().map(|i| i.id).collect::<Vec<_>>(), [a, b]);
        sched.complete(&first, 200);
        sched.stall_session_until(b, u64::MAX);
        let batch = sched.next_micro_batch(300, 0, PoolRole::Colocated).unwrap();
        let expected = match decode_order {
            DecodeOrder::Fcfs => [a, c],
            DecodeOrder::RoundRobin => [c, a],
        };
        assert_eq!(batch.items.iter().map(|i| i.id).collect::<Vec<_>>(), expected);
        (sched, batch)
    }

    #[test]
    fn complete_and_reform_equals_complete_then_form() {
        for decode_order in [DecodeOrder::Fcfs, DecodeOrder::RoundRobin] {
            let (mut sched, batch) = rotated_decode_batch(decode_order);
            let end = 400;
            let mut generic = sched.clone();
            generic.complete(&batch, end);
            let formed = generic.next_micro_batch(end, 0, PoolRole::Colocated).unwrap();
            let mut reformed = batch.clone();
            assert!(sched.forced_steps(&batch) >= 1);
            sched.complete_and_reform(&mut reformed, 1, end);
            assert_eq!(reformed, formed, "{decode_order:?}: items, context lengths included");
            assert_eq!(reform_state(&sched), reform_state(&generic), "{decode_order:?}");
            assert_eq!(sched.in_flight_count(), 2);
        }
    }

    #[test]
    fn complete_and_reform_of_k_steps_equals_k_rounds_of_complete_then_form() {
        for decode_order in [DecodeOrder::Fcfs, DecodeOrder::RoundRobin] {
            let (mut sched, batch) = rotated_decode_batch(decode_order);
            // a has emitted 2 of its 10 tokens and c 1: a's last token
            // comes 7 steps after this one, and that step is not forced.
            let steps = sched.forced_steps(&batch);
            assert_eq!(steps, 7, "{decode_order:?}");
            let mut generic = sched.clone();
            let mut formed = batch.clone();
            for j in 0..steps {
                let end = 400 + 100 * u64_from_usize(j);
                generic.complete(&formed, end);
                formed = generic.next_micro_batch(end, 0, PoolRole::Colocated).unwrap();
            }
            let mut reformed = batch.clone();
            sched.complete_and_reform(&mut reformed, steps, 400 + 100 * u64_from_usize(steps - 1));
            assert_eq!(reformed, formed, "{decode_order:?}: items, context lengths included");
            assert_eq!(reform_state(&sched), reform_state(&generic), "{decode_order:?}");
            assert_eq!(sched.forced_steps(&reformed), 0, "{decode_order:?}");
        }
    }

    #[test]
    fn complete_and_reform_changes_nothing_when_the_next_step_is_not_forced() {
        // A 14-token prompt emits its first token into a one-page table
        // (15 entries); the first decode fills the page, so the step after
        // it needs a second page: no step is forced.
        let mut sched = Scheduler::with_kv(SchedulerConfig::default(), KvConfig::bounded(16, 8));
        let id = sched.submit(request(ModelId::Llama2_7b, 14, 10));
        let prefill = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        sched.complete(&prefill, 100);
        let batch = sched.next_micro_batch(100, 0, PoolRole::Colocated).unwrap();
        assert_eq!(sched.session(id).page_table.mapped_pages(), 1);
        assert_eq!(sched.forced_steps(&batch), 0, "page boundary");
        // A 4-token prompt's page has room for ten more forced steps, but
        // six steps in, the next one emits its 8th and last output token.
        let mut sched = Scheduler::with_kv(SchedulerConfig::default(), KvConfig::bounded(16, 8));
        sched.submit(request(ModelId::Llama2_7b, 4, 8));
        let prefill = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        sched.complete(&prefill, 100);
        let batch = sched.next_micro_batch(100, 0, PoolRole::Colocated).unwrap();
        assert_eq!(sched.forced_steps(&batch), 6, "output tokens, not pages, bound the run");
        // A session about to emit its last token leaves the batch instead.
        let mut sched = Scheduler::new(SchedulerConfig::default());
        sched.submit(request(ModelId::Llama2_7b, 14, 2));
        let prefill = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        sched.complete(&prefill, 100);
        let batch = sched.next_micro_batch(100, 0, PoolRole::Colocated).unwrap();
        assert_eq!(sched.forced_steps(&batch), 0, "last output token");
        // A prefill chunk is never re-formed.
        let mut sched = Scheduler::new(SchedulerConfig::default());
        sched.submit(request(ModelId::Llama2_7b, 14, 8));
        let prefill = sched.next_micro_batch(0, 0, PoolRole::Colocated).unwrap();
        assert_eq!(sched.forced_steps(&prefill), 0, "prefill");
    }
}
