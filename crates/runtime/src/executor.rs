//! The executor: drives a [`MugiAccelerator`] over scheduler-emitted
//! micro-batches — on one node or across a NoC mesh — and aggregates
//! per-request cycle/energy statistics. Every executor is built by
//! [`Scenario::build`], which checks the configuration first.
//!
//! Each dispatch asks the scheduler for one micro-batch, converts it into
//! workload slices (decode contexts bucketed at paged-KV granularity) and
//! prices them on the accelerator's performance model — `MugiAccelerator`
//! memoizes op costs per slice and folds them per micro-batch. Where the
//! batch runs depends on the [`Placement`]:
//!
//! * **data-parallel** — the batch runs whole on the idle node with the
//!   earliest clock; other nodes keep executing their own batches, so
//!   independent micro-batches overlap in simulated time. The NoC charges
//!   transfer energy for moving the batch's token activations to its node
//!   and the results back.
//! * **sharded** — the batch's GEMM trace is tiled across every node
//!   (inter-node accumulation): the step takes `1 / throughput_multiplier`
//!   of its single-node cycles while the NoC transfer model charges the
//!   activation and partial-sum movement between nodes.
//! * **disaggregated** — the mesh splits into prefill and decode pools:
//!   every batch is pure (one phase per node role), and when a prefill
//!   completes the executor *migrates* the session's KV pages to a decode
//!   node — charging `NocConfig::transfer_energy_pj` for the cache bytes
//!   and stalling the receiving node for `NocConfig::transfer_cycles` —
//!   instead of recomputing the prefill on the decode side. `ready_cycle`
//!   keeps the handoff causal: the first decode step cannot start before
//!   the pages land. Swap-style preemption rides the same machinery in
//!   reverse.
//!
//! Completion effects are applied at the batch's end cycle and sessions
//! become schedulable again only then, so overlapping execution stays
//! causal. Step energy is attributed to requests by their token share,
//! except the attention share of the dynamic energy, which is weighted by
//! attended KV as well — a 4096-context decode slot costs more than a
//! 64-context one.
//!
//! One decision loop serves every run. Each round of [`Executor::step`]
//! lands the events due at the earliest idle node's clock — completions of
//! in-flight batches (one slot per node; a sharded batch sits in slot 0 and
//! occupies every node) and, when [`Executor::run_stream`] streams requests
//! in, the one staged arrival — in `(time, seq)` order, then dispatches one
//! micro-batch. Each completion retires the finished prefix of the session
//! window into the run's sink: the report's records, or a `StatsFold`.
//!
//! When the dispatched batch is decode-only, the round keeps advancing it
//! in place for as long as its next step is forced — a *decode run* — with
//! every output bit-identical to deciding each step afresh. A run advances
//! in *segments*, stretches of steps at one price: per segment it computes
//! in closed form how many steps come before the first stopping rule and
//! applies their bookkeeping at once. Only each item's energy adds stay
//! per step, in step order, since floating-point sums depend on it. A run
//! of no further step is the general case.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "unwrap/expect/indexing here assert documented invariants — dense session ids validated by aidx(), placements that exist for every admitted request, stats present for live sessions; violating them means the simulation state is corrupt and continuing would silently skew results"
)]

use crate::control::{desired_prefill_nodes, ControlConfig, Drain};
use crate::event::EventQueue;
use crate::kv::{pages_for, AdmissionError, KvFreePages};
use crate::placement::{NodePool, Placement, PlacementPolicy, PoolRole};
use crate::request::{Request, RequestId, Session, SessionState, ARENA_COMPACT_FLOOR};
use crate::scenario::Scenario;
use crate::scheduler::{BatchItem, MicroBatch, Scheduler};
use crate::stats::{KvStats, Percentiles, RequestStats, RuntimeReport, ScaleReport, StatsFold};
use mugi::arch::cost::CostModel;
use mugi::MugiAccelerator;
use mugi_numerics::cast::{u64_from_usize, usize_from_u64};
use mugi_workloads::models::ModelId;
use mugi_workloads::ops::{BatchSlice, Phase};

/// The benchmark's way to build an engine by hand, kept for
/// `EventEngine::with_placement`: build engines from a
/// [`Scenario`](crate::Scenario) instead, which has no bucket to set.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExecutorConfig {
    /// Must equal the KV pool's `page_tokens`: decode contexts are bucketed
    /// at the page size.
    pub kv_bucket: usize,
    /// The adaptive control plane.
    pub control: ControlConfig,
}

impl Default for ExecutorConfig {
    /// 128-entry KV pages, controller off.
    fn default() -> Self {
        ExecutorConfig { kv_bucket: 128, control: ControlConfig::default() }
    }
}

/// Per-request accounting accumulated while the request is in flight.
#[derive(Clone, Copy, Debug, Default)]
struct Accounting {
    energy_pj: f64,
    noc_energy_pj: f64,
    micro_batches: u64,
    kv_transfer_bytes: u64,
    kv_transfer_energy_pj: f64,
}

/// A dispatched micro-batch whose completion effects are still pending.
#[derive(Clone, Debug)]
struct InFlight {
    batch: MicroBatch,
    /// Cycle at which the batch started executing (the SLO calibrator
    /// measures service rate over `end - start`).
    start: u64,
    /// Cycle at which the batch finishes and its effects apply.
    end: u64,
    /// Drawn at dispatch from the counter staged arrivals draw from too, so
    /// `(end, seq)` orders completions among themselves in dispatch order
    /// and against an arrival at the same cycle in the order they were
    /// scheduled.
    seq: u64,
}

/// What [`Executor::occupy`] charges per step of one micro-batch: the
/// accelerator estimate's step cycles, node compute energy and attention
/// share of the dynamic energy, and the step's NoC energy (the estimate's
/// under sharded placement; the batch's activation transfer otherwise).
#[derive(Clone, Copy, Debug)]
struct Price {
    step_cycles: u64,
    compute_energy_pj: f64,
    noc_energy_pj: f64,
    attention_energy_pj: f64,
}

/// Slices a [`FrontKey`] stores inline. A micro-batch of more slices is
/// not cached by the [`PerfFront`]; it is priced from the slice memo on
/// every dispatch, which gives the same bits.
const FRONT_SLICES: usize = 4;

/// The exact `(model, slices)` shape of one [`PerfFront`] entry, stored
/// inline. Each slice packs losslessly into one `u64`: its phase in the top
/// bit, then `batch`, `seq_len` and `kv_len` in [`FrontKey::FIELD_BITS`]
/// bits each. A shape with a field that does not fit, or with more than
/// [`FRONT_SLICES`] slices, has no key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FrontKey {
    model: ModelId,
    len: u8,
    slices: [u64; FRONT_SLICES],
}

impl FrontKey {
    /// Bits per packed count: three of them and the phase bit fill a `u64`.
    const FIELD_BITS: u32 = 21;

    /// The key of `(model, slices)`, or `None` when the shape does not pack.
    fn pack(model: ModelId, slices: &[BatchSlice]) -> Option<FrontKey> {
        let len = u8::try_from(slices.len()).ok().filter(|&n| usize::from(n) <= FRONT_SLICES)?;
        let mut packed = [0; FRONT_SLICES];
        for (word, s) in packed.iter_mut().zip(slices) {
            *word = match s.phase {
                Phase::Prefill => 0,
                Phase::Decode => 1,
            };
            for field in [s.batch, s.seq_len, s.kv_len] {
                let v = u64::try_from(field).ok().filter(|&v| v < 1 << Self::FIELD_BITS)?;
                *word = *word << Self::FIELD_BITS | v;
            }
        }
        Some(FrontKey { model, len, slices: packed })
    }
}

/// One memoized estimate in the executor's [`PerfFront`].
#[derive(Clone, Copy, Debug)]
struct FrontEntry {
    key: FrontKey,
    price: Price,
}

/// One set of the [`PerfFront`]: the full shape hash of each way, in an
/// array of its own so a probe compares the tags before touching an entry,
/// and the entries, most recently used first. Empty ways sit after every resident
/// one, so the last way is always the one to evict.
#[derive(Clone, Debug, Default)]
struct FrontSet {
    tags: [u64; PerfFront::WAYS],
    entries: [Option<FrontEntry>; PerfFront::WAYS],
}

impl FrontSet {
    /// The price of `key` under `hash`, moving its entry to the front.
    fn promote(&mut self, hash: u64, key: &FrontKey) -> Option<Price> {
        let way = self.tags.iter().zip(&self.entries).position(|(&tag, entry)| {
            tag == hash && entry.as_ref().is_some_and(|e| e.key == *key)
        })?;
        self.tags[..=way].rotate_right(1);
        self.entries[..=way].rotate_right(1);
        self.entries[0].map(|e| e.price)
    }

    /// Puts `entry` at the front, evicting the least-recently-used way.
    fn push(&mut self, hash: u64, entry: FrontEntry) {
        self.tags.rotate_right(1);
        self.entries.rotate_right(1);
        self.tags[0] = hash;
        self.entries[0] = Some(entry);
    }
}

/// A set-associative memo of whole micro-batch estimates, sitting in front
/// of the accelerator's shared per-slice cost memo. Steady-state serving
/// re-dispatches the same micro-batch shapes over and over, and for those
/// this skips a memo lock and probe per slice, the in-order fold of every
/// op cost and the NoC scaling — a hit is one hash of the shape, a scan of
/// one set's tags and one inline key comparison, returning exactly the
/// [`Price`] `occupy` uses. (A decode run probes once per segment: its
/// steps share their slices.) It pays for itself: fresh pricing from the
/// slice memo costs ~450 ns, and dropping this front doubled the host time
/// of a decode-heavy 2×2 data-parallel stream. The placement policy and
/// NoC are fixed for an executor's lifetime, so `(model, slices)` fully
/// determines the estimate; cached values are bit-copies of the
/// pure-function result, the hash only picks the set and a hit needs the
/// exact key, so a hit is bit-identical to fresh pricing.
///
/// Entries hold no heap allocation: a shape without a [`FrontKey`] is not
/// cached. The whole table is one allocation of [`PerfFront::SLOTS`]
/// entries (80 bytes each with its tag), made on the first insert.
#[derive(Clone, Debug, Default)]
struct PerfFront {
    /// `SLOTS / WAYS` sets, allocated on the first insert; the shape
    /// hash's low bits pick the set, which evicts its least-recently-used
    /// way.
    sets: Vec<FrontSet>,
    hits: u64,
    misses: u64,
}

impl PerfFront {
    /// Entries in the table. Long-stream workloads touch several thousand
    /// distinct shapes; the size and associativity were picked by replaying
    /// the full-size serving passes' probes (EXPERIMENTS.md, "Front memo").
    const SLOTS: usize = 4096;
    /// Ways per set.
    const WAYS: usize = 4;
    /// Sets in the table (a power of two — the hash's low bits index it).
    const SETS: usize = Self::SLOTS / Self::WAYS;

    /// The set for `hash`: exactly the low bits that index `SETS`, so the
    /// mask keeps the value in `usize` range by construction.
    fn set_of(hash: u64) -> usize {
        usize_from_u64(hash & u64_from_usize(Self::SETS - 1))
    }

    /// The cached estimate for `key` under `hash`. A shape without a key,
    /// and a probe of the still-unallocated table, is a miss like any
    /// other.
    fn get(&mut self, hash: u64, key: Option<&FrontKey>) -> Option<Price> {
        let hit = key.and_then(|key| self.sets.get_mut(Self::set_of(hash))?.promote(hash, key));
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Caches a freshly computed estimate for a shape that just missed.
    fn insert(&mut self, hash: u64, key: FrontKey, price: Price) {
        if self.sets.is_empty() {
            self.sets = vec![FrontSet::default(); Self::SETS];
        }
        self.sets[Self::set_of(hash)].push(hash, FrontEntry { key, price });
    }

    /// Shapes resident in the table.
    fn resident(&self) -> usize {
        self.sets.iter().map(|s| s.entries.iter().flatten().count()).sum()
    }
}

/// A simulated serving engine: one scheduler feeding a pool of accelerator
/// nodes (a single node by default).
#[derive(Clone, Debug)]
pub struct Executor {
    accel: MugiAccelerator,
    scheduler: Scheduler,
    /// The adaptive control plane (see [`crate::control`]).
    control: ControlConfig,
    placement: Placement,
    cost: CostModel,
    pool: NodePool,
    /// One slot per node holding the batch it executes; a sharded batch
    /// occupies every node and sits in slot 0.
    in_flight: Vec<Option<InFlight>>,
    /// `(end, seq, slot)` of the earliest-finishing in-flight batch: the
    /// minimum over the occupied slots, kept current by `dispatch` and
    /// `finish` (the only writers of `in_flight`) because every decision
    /// round asks for it once per idle node.
    next_completion: Option<(u64, u64, usize)>,
    /// The stream's staged arrival plus the event counters.
    queue: EventQueue,
    clock_cycles: u64,
    steps: u64,
    /// Per-session accounting in id order, retired in lockstep with the
    /// scheduler's sessions: live session `i` (from the oldest unretired
    /// one) sits at `acct_head + i`; the slots before it await compaction.
    accounting: Vec<Accounting>,
    acct_head: usize,
    /// NoC energy of the retired accounting slots, summed in id order.
    retired_noc_pj: f64,
    /// Statistics of the sessions retired outside a folded run, in id order.
    retired: Vec<RequestStats>,
    /// Whether each node has its own KV pool (bounded data-parallel
    /// placement): dispatch must then consider every idle node, since a
    /// session may only run where its pages live.
    multi_pool: bool,
    /// Whether the placement disaggregates prefill from decode: dispatch
    /// restricts every node to its role's phase and completed prefills
    /// migrate their KV pages to a decode node.
    disagg: bool,
    /// Sessions whose KV pages are waiting to move into a decode pool —
    /// completed prefills plus swapped-out victims. Retried after every
    /// completion (completions are what free decode-pool pages).
    pending_migrations: Vec<RequestId>,
    /// The live scheduling role of each node. Initialized from the static
    /// placement and identical to it forever unless the control plane's
    /// role reassignment is on, in which case quiescent handoffs re-roll
    /// entries (mirrored into the scheduler's pool roles for bounded KV).
    node_roles: Vec<PoolRole>,
    /// The role re-roll in progress, if any (at most one node drains at a
    /// time; see [`crate::control`]).
    draining: Option<Drain>,
    /// Cycle the last re-roll *started* (drains begin here, so the cooldown
    /// bounds the rate of disruption, not just of completed flips).
    last_flip_cycle: u64,
    /// Completed role re-rolls.
    role_rerolls: u64,
    /// Page-fault stall cycles charged so far.
    fault_stall_cycles: u64,
    /// KV bytes moved between pools over the NoC so far.
    transfer_bytes: u64,
    /// NoC energy spent on those transfers, in pJ.
    transfer_energy_pj: f64,
    /// Stall cycles spent streaming KV transfers.
    transfer_stall_cycles: u64,
    /// Reusable workload-slice buffer for [`Executor::dispatch`], so the
    /// per-step estimate does not allocate in steady state.
    slice_scratch: Vec<BatchSlice>,
    /// Reusable idle-node buffer, re-derived every decision round, so the
    /// round allocates nothing.
    idle_scratch: Vec<usize>,
    /// Executor-local set-associative memo over the accelerator's
    /// estimates: a steady-state dispatch hashes its shape once and probes
    /// one four-way set, skipping the shared slice memo's mutex and
    /// per-slice probes.
    perf_front: PerfFront,
    /// Decode runs that took at least one forced step, their forced steps
    /// and their segments (see [`Executor::run_counters`]).
    run_counters: (u64, u64, u64),
}

impl Executor {
    /// Stall cycles charged per KV page evicted to form a micro-batch: the
    /// pool-manipulation overhead of a preemption (tearing down the victim's
    /// table and faulting the requester's growth in). The victim's much
    /// larger recompute cost is paid separately, by actually re-executing
    /// its prefill. Zero evictions — in particular any unbounded pool —
    /// charge nothing.
    pub const FAULT_STALL_CYCLES: u64 = 256;

    /// Builds an engine by hand, as the benchmark does through
    /// `EventEngine::with_placement`: the same checks and the same
    /// construction as [`Scenario::build`], which every other caller uses.
    ///
    /// # Panics
    /// Panics if `config.kv_bucket` differs from the KV pool's
    /// `page_tokens`, or with the [`ConfigError`](crate::ConfigError) text
    /// if the configuration breaks a rule.
    #[expect(clippy::panic, reason = "this entry point reports a broken configuration as a panic")]
    pub(crate) fn with_placement(
        accel: MugiAccelerator,
        scheduler: Scheduler,
        config: ExecutorConfig,
        placement: Placement,
    ) -> Self {
        let kv = *scheduler.kv_config();
        assert_eq!(
            config.kv_bucket, kv.page_tokens,
            "the executor's kv_bucket must equal the KV pool's page_tokens: a page and a \
             decode-context bucket are the same granularity"
        );
        let scenario = Scenario {
            lanes: accel.design_config().height,
            scheduler: *scheduler.config(),
            kv,
            control: config.control,
            placement,
        };
        if let Err(e) = scenario.validate() {
            panic!("{e}");
        }
        Self::assemble(accel, scheduler, config.control, placement)
    }

    /// Builds the engine of a validated configuration. One `accel` instance
    /// models every (identical) node of the pool, so all nodes share its
    /// slice memo. With a 1×1 mesh the executor behaves exactly like a
    /// single node, whatever the policy.
    pub(crate) fn assemble(
        accel: MugiAccelerator,
        mut scheduler: Scheduler,
        control: ControlConfig,
        placement: Placement,
    ) -> Self {
        let bounded = scheduler.kv_config().is_bounded();
        let node_roles: Vec<PoolRole> =
            (0..placement.nodes()).map(|i| placement.node_role(i)).collect();
        // Partition the bounded KV capacity to match the placement: each
        // data-parallel or disaggregated node owns its pages (prefill /
        // decode roles marking the disaggregated split); a sharded mesh
        // tiles every session's KV across all nodes, so it forms one
        // aggregate pool.
        if placement.policy == PlacementPolicy::Sharded {
            scheduler.configure_kv_pools(&[PoolRole::Colocated], placement.nodes());
        } else {
            scheduler.configure_kv_pools(&node_roles, 1);
        }
        let disagg = matches!(placement.policy, PlacementPolicy::Disaggregated { .. });
        let multi_pool =
            bounded && placement.policy == PlacementPolicy::DataParallel && placement.nodes() > 1;
        if control.calibrate_slo {
            scheduler.enable_slo_calibration();
        }
        // The scheduler may already hold sessions submitted before the
        // executor was constructed; give each one an accounting slot.
        let accounting = vec![Accounting::default(); scheduler.sessions().len()];
        let cost = accel.cost_model();
        let pool = NodePool::new(placement.nodes());
        Executor {
            accel,
            scheduler,
            control,
            placement,
            cost,
            pool,
            in_flight: vec![None; placement.nodes()],
            next_completion: None,
            queue: EventQueue::default(),
            clock_cycles: 0,
            steps: 0,
            accounting,
            acct_head: 0,
            retired_noc_pj: 0.0,
            retired: Vec::new(),
            multi_pool,
            disagg,
            pending_migrations: Vec::new(),
            node_roles,
            draining: None,
            last_flip_cycle: 0,
            role_rerolls: 0,
            fault_stall_cycles: 0,
            transfer_bytes: 0,
            transfer_energy_pj: 0.0,
            transfer_stall_cycles: 0,
            slice_scratch: Vec::new(),
            idle_scratch: Vec::new(),
            perf_front: PerfFront::default(),
            run_counters: (0, 0, 0),
        }
    }

    /// Submits a request to the underlying scheduler.
    ///
    /// # Panics
    /// Panics if admission control rejects the request (only possible with
    /// a bounded [`KvConfig`](crate::kv::KvConfig) or an SLO bound set); use
    /// [`Executor::try_submit`] to treat rejection as backpressure.
    pub fn submit(&mut self, request: Request) -> RequestId {
        let id = self.scheduler.submit(request);
        self.open_account();
        id
    }

    /// Submits a request unless the scheduler's admission control rejects
    /// it (queue depth bound reached, projected TTFT past a configured SLO
    /// target, or the request could never fit the KV pool). Rejections are
    /// counted in the report's KV statistics.
    pub fn try_submit(&mut self, request: Request) -> Result<RequestId, AdmissionError> {
        let id = self.scheduler.try_submit(request)?;
        self.open_account();
        Ok(id)
    }

    /// Opens a new session's accounting slot, first compacting retired ones.
    fn open_account(&mut self) {
        if self.acct_head > ARENA_COMPACT_FLOOR.max(self.scheduler.sessions().len()) {
            self.accounting.drain(..self.acct_head);
            self.acct_head = 0;
        }
        self.accounting.push(Accounting::default());
    }

    /// The scheduler (sessions, progress, configuration).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The accelerator that prices every node's batches; its clones share
    /// the slice memo.
    pub fn accelerator(&self) -> &MugiAccelerator {
        &self.accel
    }

    /// Diagnostic counters of the dispatch-side estimate memo: `(hits,
    /// misses, resident shapes)`. Every priced micro-batch is one hit or one
    /// miss; a shape without an inline key (more than four slices, or a
    /// count of 2^21 or more), which the memo never caches, is always a
    /// miss. A healthy steady state hits well over 90% — a low
    /// rate means the workload's shape population outgrew the front memo's
    /// 4,096 entries and dispatch is paying the shared-cache path (mutex +
    /// probe + fold) per batch.
    pub fn perf_front_stats(&self) -> (u64, u64, usize) {
        (self.perf_front.hits, self.perf_front.misses, self.perf_front.resident())
    }

    /// Work counters of the decode runs: `(runs, run steps, segments)`. A
    /// run is counted when it takes at least one forced step past its
    /// dispatch; run steps are those forced steps; a segment is one bulk
    /// advance of a run at one price, so `segments ≤ run steps`, and the
    /// dispatched steps are [`Executor::steps`] minus the run steps.
    pub fn run_counters(&self) -> (u64, u64, u64) {
        self.run_counters
    }

    /// Per-node clocks (when each node becomes free).
    pub fn node_clocks(&self) -> &[u64] {
        self.pool.clocks()
    }

    /// Current simulated makespan in cycles (end of the latest completed
    /// micro-batch).
    pub fn clock_cycles(&self) -> u64 {
        self.clock_cycles
    }

    /// Micro-batches dispatched so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Sessions whose KV pages are still waiting for room in a decode pool.
    pub fn pending_migration_count(&self) -> usize {
        self.pending_migrations.len()
    }

    /// Free-page headroom of the pool node `i` allocates from:
    /// [`KvFreePages::Unbounded`] under an unbounded configuration, the
    /// bounded free count otherwise. Panics (via the scheduler) if a bug
    /// maps `i` to a nonexistent bounded pool.
    pub fn kv_free_pages(&self, i: usize) -> KvFreePages {
        self.scheduler.kv_free_pages(self.slot_of(i))
    }

    /// Node `i`'s KV pool and in-flight slot: its own under data-parallel
    /// and disaggregated placement; under sharded placement every node
    /// shares the single aggregate pool and slot 0, since a sharded batch
    /// occupies the whole mesh.
    fn slot_of(&self, i: usize) -> usize {
        match self.placement.policy {
            PlacementPolicy::DataParallel | PlacementPolicy::Disaggregated { .. } => i,
            PlacementPolicy::Sharded => 0,
        }
    }

    /// The live role node `i` forms batches for: colocated on every
    /// colocated policy, split under disaggregation — and `None` while the
    /// control plane drains the node for a role flip, during which it forms
    /// no new batches at all.
    fn role_for(&self, i: usize) -> Option<PoolRole> {
        if self.draining.is_some_and(|d| d.node == i) {
            return None;
        }
        Some(self.node_roles[i])
    }

    /// The live scheduling role of each node: the static placement roles
    /// unless the control plane's role reassignment has re-rolled some.
    pub fn node_roles(&self) -> &[PoolRole] {
        &self.node_roles
    }

    /// The node currently draining for a role flip, if any.
    pub fn draining_node(&self) -> Option<usize> {
        self.draining.map(|d| d.node)
    }

    /// Completed control-plane role re-rolls.
    pub fn role_reroll_count(&self) -> u64 {
        self.role_rerolls
    }

    /// Whether node `i` currently executes an in-flight batch.
    fn occupied(&self, i: usize) -> bool {
        self.in_flight[self.slot_of(i)].is_some()
    }

    /// Accounting slot of session `id`.
    fn aidx(&self, id: RequestId) -> usize {
        let live = usize_from_u64(id.0).checked_sub(self.scheduler.retired_session_count());
        self.acct_head + live.expect("accounting slot was retired")
    }

    /// Applies the completion effects of the batch in `slot`, then retires
    /// what finished into `retire`. Under disaggregated
    /// placement this is also where KV handoffs happen: freshly completed
    /// prefills queue for migration, and every pending migration is retried
    /// (a completion is exactly what frees decode-pool pages or produces new
    /// movable KV).
    fn finish(&mut self, slot: usize, retire: &mut impl FnMut(RequestStats)) {
        let Some(pending) = self.in_flight[slot].take() else { return };
        let slots = self.in_flight.iter().enumerate();
        self.next_completion =
            slots.filter_map(|(slot, f)| f.as_ref().map(|f| (f.end, f.seq, slot))).min();
        self.queue.count_pop(pending.end, false);
        self.scheduler.complete(&pending.batch, pending.end);
        self.clock_cycles = self.clock_cycles.max(pending.end);
        if self.control.calibrate_slo {
            let prefill_tokens: u64 = pending
                .batch
                .items
                .iter()
                .filter(|i| i.phase == Phase::Prefill)
                .map(|i| u64_from_usize(i.tokens))
                .sum();
            if prefill_tokens > 0 {
                self.scheduler.observe_prefill_service(prefill_tokens, pending.end - pending.start);
            }
        }
        if self.disagg {
            for item in &pending.batch.items {
                if item.phase != Phase::Prefill {
                    continue;
                }
                let s = self.scheduler.session(item.id);
                if s.state == SessionState::Decoding && !self.pending_migrations.contains(&item.id)
                {
                    self.pending_migrations.push(item.id);
                }
            }
            self.service_migrations(pending.end);
            if self.control.reassign_roles {
                self.role_tick(pending.end);
            }
        }
        // The batch is fully applied: hand its allocations back so the next
        // formation reuses them.
        self.scheduler.recycle(pending.batch);
        self.retire_finished_with(retire);
    }

    /// Retries every queued KV migration at simulated cycle `now`, oldest
    /// first: a session still awaiting a decode pool keeps its place in the
    /// queue; a session that finished first (single-token outputs) or was
    /// recompute-evicted while waiting is dropped. A session whose
    /// `ready_cycle` lies in the future keeps waiting too — a swap-out
    /// victim's outbound transfer must finish streaming before the pages
    /// can turn around and swap back in.
    fn service_migrations(&mut self, now: u64) {
        let bounded = self.scheduler.kv_config().is_bounded();
        // A draining node's residents must leave even though its pool may
        // still be rolled Decode (decode→decode evacuation), so its pool is
        // exempt from the role half of the staleness check.
        let drain_home = self.draining.map(|d| self.slot_of(d.node));
        let mut i = 0;
        while i < self.pending_migrations.len() {
            let id = self.pending_migrations[i];
            let s = self.scheduler.session(id);
            let stale = s.is_finished()
                || s.state != SessionState::Decoding
                || (bounded
                    && !matches!(
                        s.page_table.home(),
                        Some(p) if self.scheduler.pool_role(p) == PoolRole::Prefill
                            || Some(p) == drain_home
                    ));
            if stale {
                self.pending_migrations.remove(i);
                continue;
            }
            if s.ready_cycle > now {
                i += 1; // pages still in flight outbound; retry later
                continue;
            }
            let pages = s.page_table.mapped_pages();
            let Some(node) = self.migration_target(pages, bounded) else {
                i += 1; // no decode pool has room yet; retry next completion
                continue;
            };
            let Some(migration) = self.scheduler.migrate_session(id, self.slot_of(node)) else {
                i += 1;
                continue;
            };
            // The pages stream over the NoC: the session cannot decode, and
            // the receiving node cannot start new work, until they land.
            let cycles = self.placement.noc.transfer_cycles(migration.bytes);
            let energy = self.placement.noc.transfer_energy_pj(migration.bytes, &self.cost);
            let landed = steps_end(now, cycles, 1);
            self.scheduler.stall_session_until(id, landed);
            self.pool.wait_until(node, landed);
            let slot = self.aidx(id);
            let acct = &mut self.accounting[slot];
            acct.kv_transfer_bytes += migration.bytes;
            acct.kv_transfer_energy_pj += energy;
            self.transfer_bytes += migration.bytes;
            self.transfer_energy_pj += energy;
            self.transfer_stall_cycles += cycles;
            self.pending_migrations.remove(i);
        }
    }

    /// The decode node to migrate `pages` KV pages onto. With per-node
    /// pools: the one with the most free pages that fits them (ties to the
    /// lowest index) — or, under the control plane's load-aware placement,
    /// the *least decode-loaded* one that fits (projected load being the
    /// residents' remaining output tokens, i.e. their future KV growth;
    /// free pages then lowest index break ties). With an unbounded pool:
    /// the one with the earliest clock. A node draining for a role flip is
    /// never a target.
    fn migration_target(&self, pages: usize, bounded: bool) -> Option<usize> {
        let draining = self.draining.map(|d| d.node);
        let decode_nodes = (0..self.pool.len())
            .filter(|&i| self.node_roles[i] == PoolRole::Decode && Some(i) != draining);
        if !bounded {
            return self.pool.earliest(decode_nodes);
        }
        let fitting =
            decode_nodes.filter(|&i| self.scheduler.kv_free_pages(self.slot_of(i)).fits(pages));
        if self.control.load_aware_migration {
            fitting.min_by_key(|&i| {
                let pool = self.slot_of(i);
                let free = self.scheduler.kv_free_pages(pool).ranking();
                (self.scheduler.pool_decode_load(pool), std::cmp::Reverse(free), i)
            })
        } else {
            fitting.max_by_key(|&i| {
                (self.scheduler.kv_free_pages(self.slot_of(i)).ranking(), std::cmp::Reverse(i))
            })
        }
    }

    /// One control-plane sample, taken at a completion boundary (from
    /// [`Executor::finish`], in `(end, seq)` completion order). Advances an
    /// in-progress drain toward its quiescent flip, or — demand split
    /// allowing and cooldown expired — starts a new one.
    fn role_tick(&mut self, now: u64) {
        if let Some(drain) = self.draining {
            let pool = self.slot_of(drain.node);
            // Residents that were mid-batch at drain start become evictable
            // only as their batches complete; keep sweeping.
            self.drain_sweep(drain, now);
            let quiescent = !self.occupied(drain.node)
                && (!self.scheduler.kv_config().is_bounded()
                    || self.scheduler.kv_pool_used_pages(pool) == 0);
            if quiescent {
                self.node_roles[drain.node] = drain.target;
                if self.scheduler.kv_config().is_bounded() {
                    self.scheduler.set_pool_role(pool, drain.target);
                }
                self.scheduler.set_drain_pool(None);
                self.draining = None;
                self.role_rerolls += 1;
            }
            return;
        }
        if now.saturating_sub(self.last_flip_cycle) < self.control.min_flip_interval_cycles {
            return;
        }
        let prefill_demand = self.scheduler.pending_prefill_total();
        let decode_demand = self.scheduler.pending_decode_tokens();
        if prefill_demand + decode_demand < self.control.min_demand_tokens {
            return;
        }
        let current = self.node_roles.iter().filter(|&&r| r == PoolRole::Prefill).count();
        let target = desired_prefill_nodes(self.pool.len(), current, prefill_demand, decode_demand);
        if target == current {
            return;
        }
        // Re-roll one node per drain, toward the target: growing the
        // prefill side converts the least-loaded decode node (fewest used
        // pages — least resident KV to evacuate), shrinking it converts the
        // least-loaded prefill node. Ties to the highest index, keeping the
        // stable low-index nodes in their original roles.
        let (from_role, to_role) = if target > current {
            (PoolRole::Decode, PoolRole::Prefill)
        } else {
            (PoolRole::Prefill, PoolRole::Decode)
        };
        let node =
            (0..self.pool.len()).filter(|&i| self.node_roles[i] == from_role).min_by_key(|&i| {
                (self.scheduler.kv_pool_used_pages(self.slot_of(i)), std::cmp::Reverse(i))
            });
        let Some(node) = node else { return };
        let drain = Drain { node, target: to_role };
        self.draining = Some(drain);
        self.last_flip_cycle = now;
        self.scheduler.set_drain_pool(Some(self.slot_of(node)));
        // Sweep immediately — and flip in this same tick if the node was
        // already quiescent (common when converting an idle empty node).
        self.role_tick(now);
    }

    /// One evacuation sweep over a draining node: recompute-preempts every
    /// resident the pool can legally drop (not in flight, not decoding) and
    /// queues the decoding residents for migration to another pool, then
    /// retries the migration queue. Unbounded configurations home no pages,
    /// so only the migration retry applies.
    fn drain_sweep(&mut self, drain: Drain, now: u64) {
        if self.scheduler.kv_config().is_bounded() {
            let pool = self.slot_of(drain.node);
            let released = self.scheduler.preempt_pool_residents(pool);
            if released > 0 {
                // Teardown is charged like any other eviction: fault stalls
                // per released page, paid by the draining node.
                let stall = steps_end(0, Self::FAULT_STALL_CYCLES, released);
                self.fault_stall_cycles += stall;
                self.pool.wait_until(drain.node, steps_end(now, stall, 1));
            }
            for s in self.scheduler.sessions() {
                if s.state == SessionState::Decoding
                    && s.page_table.home() == Some(pool)
                    && !self.pending_migrations.contains(&s.id)
                {
                    self.pending_migrations.push(s.id);
                }
            }
        }
        self.service_migrations(now);
    }

    /// Retires every finished session at the front of the session window:
    /// streams its statistics into `retire` in id order, adds its NoC energy
    /// to the retired sum and drops it; the next submission compacts it away.
    fn retire_finished_with(&mut self, retire: &mut impl FnMut(RequestStats)) {
        let live = self.scheduler.sessions().iter().zip(&self.accounting[self.acct_head..]);
        for (s, acct) in live.take_while(|(s, _)| s.is_finished()) {
            retire(self.session_stats(s, acct));
            self.retired_noc_pj += acct.noc_energy_pj;
        }
        if self.scheduler.sessions().first().is_some_and(Session::is_finished) {
            self.acct_head += self.scheduler.retire_finished_prefix();
        }
    }

    /// Makes one scheduling decision: dispatches one micro-batch and, when
    /// that batch is decode-only and its following steps are forced,
    /// advances it through a decode run of k ≥ 1 steps (see the module
    /// docs), so [`Executor::steps`] may grow by more than one per call.
    /// Returns `false` once every submitted request has finished and every
    /// pending completion has been applied; when the only remaining work
    /// lies in the future (an arrival, or a batch still executing on another
    /// node), the idle node's clock jumps forward and execution continues.
    ///
    /// This is one decision round without a request stream;
    /// [`Executor::run_stream`] runs the same round with one. Sessions retire
    /// as they finish, their statistics kept for [`Executor::report`].
    pub fn step(&mut self) -> bool {
        self.kept_round(&mut std::iter::empty())
    }

    /// One decision round that keeps each retired session's statistics.
    fn kept_round(&mut self, stream: &mut impl Iterator<Item = Request>) -> bool {
        let mut retired = std::mem::take(&mut self.retired);
        let stepped = self.round(stream, &mut |s| retired.push(s));
        self.retired = retired;
        stepped
    }

    /// One decision round, the only serving loop: lands due events, then
    /// dispatches one micro-batch (and any decode run it starts). Events land in `(time, seq)` order —
    /// completions of in-flight batches, and the staged arrival, which is
    /// submitted when simulated time reaches it while the next request is
    /// staged from `stream`. Each completion retires the finished prefix of
    /// the session window into `retire`.
    ///
    /// With per-node KV pools (bounded data-parallel placement) dispatch
    /// considers every idle node, earliest clock first and — on equal
    /// clocks — most free pages first: a session pinned to a node's pool
    /// can only run there, so a node needs both clock headroom *and* free
    /// pages to win a batch. With an unbounded pool (or a single pool) only
    /// the earliest idle node is consulted, which is exactly the pre-paging
    /// behaviour.
    ///
    /// The round ends with `false` once every submitted request has
    /// finished, nothing is in flight and nothing is staged — also when the
    /// round itself landed the stream's last arrival and admission rejected
    /// it.
    ///
    /// # Panics
    /// Panics if unfinished sessions exist but neither runnable work, nor an
    /// executing batch, nor a future arrival does (a scheduler invariant
    /// violation).
    fn round(
        &mut self,
        stream: &mut impl Iterator<Item = Request>,
        retire: &mut impl FnMut(RequestStats),
    ) -> bool {
        let mut idle = std::mem::take(&mut self.idle_scratch);
        let stepped = 'outer: loop {
            if self.scheduler.all_finished()
                && self.queue.staged.is_none()
                && self.next_completion.is_none()
            {
                break false;
            }
            idle.clear();
            idle.extend((0..self.pool.len()).filter(|&i| !self.occupied(i)));
            if idle.is_empty() {
                // Every node is busy: land events up to the earliest
                // completion (an earlier staged arrival is passive, so
                // submitting it first changes nothing).
                self.land_due(u64::MAX, stream, retire);
                continue;
            }
            idle.sort_by_key(|&i| {
                let free = self.kv_free_pages(i).ranking();
                (self.pool.free_at(i), std::cmp::Reverse(free), i)
            });
            let primary = idle[0];
            let now = self.pool.free_at(primary);
            // Events at or before this node's clock must land first so the
            // batch formed at `now` sees their effects.
            if self.land_due(now, stream, retire) {
                continue;
            }
            // Disaggregated nodes differ by phase even with a shared or
            // unbounded pool, so every idle node must be tried there too.
            let tries = if self.multi_pool || self.disagg { idle.len() } else { 1 };
            for &node in &idle[..tries] {
                let node_now = self.pool.free_at(node);
                // Later idle nodes have later clocks; events in between
                // must land before a batch forms at that clock.
                if self.land_due(node_now, stream, retire) {
                    continue 'outer;
                }
                // A draining node has no role: it forms no new batches
                // until its role flip completes.
                let Some(role) = self.role_for(node) else { continue };
                if let Some(batch) =
                    self.scheduler.next_micro_batch(node_now, self.slot_of(node), role)
                {
                    self.dispatch(node, batch, node_now);
                    break 'outer true;
                }
            }
            // Nothing runnable on any idle node's clock: wait for the next
            // completion (which may unlock decode work or free pages) —
            // even one later than the staged arrival — or jump to the next
            // arrival.
            if let Some((end, _, slot)) = self.next_completion {
                self.finish(slot, retire);
                self.pool.wait_until(primary, end);
                continue;
            }
            let staged = self.queue.staged.as_ref().map(|(_, r)| r.arrival_cycle);
            let Some(next) =
                [self.scheduler.next_arrival_after(now), staged].into_iter().flatten().min()
            else {
                // Nothing in flight, staged or arriving: this round landed
                // the stream's last arrival and admission rejected it.
                assert!(
                    self.scheduler.all_finished(),
                    "unfinished sessions but no runnable work and no future arrival"
                );
                break false;
            };
            // With nothing in flight, `next` is the minimum ready time after
            // the earliest idle clock, so no node can dispatch before it:
            // advance every earlier node in one pass instead of re-scanning
            // the scheduler once per node.
            self.pool.wait_all_until(next);
        };
        self.idle_scratch = idle;
        stepped
    }

    /// Lands every event due at or before `t` in `(time, seq)` order. A
    /// staged arrival is submitted (rejections are the scheduler's to
    /// count) and the stream's next request staged; the first completion
    /// ends the call with `true`, because the caller must re-derive its idle
    /// set.
    fn land_due(
        &mut self,
        t: u64,
        stream: &mut impl Iterator<Item = Request>,
        retire: &mut impl FnMut(RequestStats),
    ) -> bool {
        loop {
            let arrival = self.queue.staged.as_ref().map(|(seq, r)| (r.arrival_cycle, *seq));
            match (self.next_completion, arrival) {
                (c, Some(a)) if a.0 <= t && c.is_none_or(|(end, seq, _)| a < (end, seq)) => {
                    if let Some((_, request)) = self.queue.staged.take() {
                        self.queue.count_pop(request.arrival_cycle, true);
                        let _ = self.try_submit(request);
                        self.stage_next(stream);
                    }
                }
                (Some((end, _, slot)), _) if end <= t => {
                    self.finish(slot, retire);
                    return true;
                }
                _ => return false,
            }
        }
    }

    /// Stages the stream's next request as the pending arrival.
    fn stage_next(&mut self, stream: &mut impl Iterator<Item = Request>) {
        if let Some(request) = stream.next() {
            let seq = self.queue.next_seqs(1);
            self.queue.staged = Some((seq, request));
            self.count_queued();
        }
    }

    /// Feeds the event queue's high-water mark: in-flight batches plus the
    /// staged arrival.
    fn count_queued(&mut self) {
        let queued =
            self.in_flight.iter().flatten().count() + usize::from(self.queue.staged.is_some());
        self.queue.peak_len = self.queue.peak_len.max(queued);
    }

    /// Evaluates one micro-batch on the accelerator model, occupies its
    /// node(s) and queues the completion — then, while the batch's next step
    /// is forced, advances it through that step too (see
    /// [`Executor::advance_run`]).
    fn dispatch(&mut self, node: usize, batch: MicroBatch, start: u64) {
        let price = self.price(&batch);
        self.occupy(node, batch, start, price, 1);
        self.advance_run(node, price);
    }

    /// Prices `batch` through the [`PerfFront`], pricing a missing shape
    /// from the accelerator's slice memo.
    fn price(&mut self, batch: &MicroBatch) -> Price {
        let mut slices = std::mem::take(&mut self.slice_scratch);
        batch.slices_into(self.scheduler.kv_config().page_tokens, &mut slices);
        let front_key = FrontKey::pack(batch.model, &slices);
        let front_hash = mugi::shape_hash(&(batch.model, slices.as_slice()));
        let price = match self.perf_front.get(front_hash, front_key.as_ref()) {
            Some(hit) => hit,
            None => {
                let price = match self.placement.policy {
                    PlacementPolicy::DataParallel | PlacementPolicy::Disaggregated { .. } => {
                        let perf = self.accel.estimate_micro_batch(batch.model, &slices);
                        // The front end ships the batch's BF16 token
                        // activations to the executing node and the
                        // produced activations ride the same links back
                        // (the slices fix the token count).
                        let hidden_dim = batch.model.config().hidden_dim;
                        let bytes = 2 * (batch.total_tokens() * hidden_dim * 2);
                        Price {
                            step_cycles: perf.node.total_cycles.max(1),
                            compute_energy_pj: perf.node.dynamic_energy_pj
                                + perf.node.hbm_energy_pj
                                + perf.node.leakage_energy_pj,
                            noc_energy_pj: self
                                .placement
                                .noc
                                .transfer_energy_pj(u64_from_usize(bytes), &self.cost),
                            attention_energy_pj: perf.node.energy_breakdown.attention,
                        }
                    }
                    PlacementPolicy::Sharded => {
                        let noc = self.placement.noc;
                        let perf = self.accel.estimate_micro_batch_noc(batch.model, &slices, noc);
                        Price {
                            step_cycles: perf.effective_cycles.max(1),
                            compute_energy_pj: perf.total_energy_pj - perf.noc_energy_pj,
                            noc_energy_pj: perf.noc_energy_pj,
                            attention_energy_pj: perf.node.energy_breakdown.attention,
                        }
                    }
                };
                if let Some(key) = front_key {
                    self.perf_front.insert(front_hash, key, price);
                }
                price
            }
        };
        slices.clear();
        self.slice_scratch = slices;
        price
    }

    /// Occupies `node` (every node, when sharded) with `steps` back-to-back
    /// steps of `batch` from `start` at `price`: charges stalls and energy
    /// and queues the last step's completion. A decode-run segment passes
    /// its batch as re-formed for its last step; its earlier steps attend
    /// one KV entry less per step back, and never stall.
    fn occupy(&mut self, node: usize, batch: MicroBatch, start: u64, price: Price, steps: u64) {
        let noc = self.placement.noc;
        // Preemptions stall the step while the pool is reshuffled: a fixed
        // fault cost per evicted page, on top of the victims' much larger
        // recompute cost (paid when their prefills re-execute). Unbounded
        // pools never evict, so this is exactly zero there.
        let stall_cycles =
            steps_end(0, Self::FAULT_STALL_CYCLES, u64_from_usize(batch.evicted_pages));
        self.fault_stall_cycles += stall_cycles;
        // Swap-outs stall the step while the victims' KV streams out over
        // the NoC; each victim is charged the transfer energy and queued to
        // swap back in. The transfers share the outbound window
        // `[start, start + swap_stall_cycles)`: until it closes, the victim
        // may not swap back in (`ready_cycle`, enforced by
        // `service_migrations`) and the receiving prefill node may not start
        // new work.
        let swap_bytes: u64 = batch.swapped_out.iter().map(|s| s.bytes).sum();
        let swap_stall_cycles = noc.transfer_cycles(swap_bytes);
        let swapped_out = steps_end(start, swap_stall_cycles, 1);
        for swap in &batch.swapped_out {
            let energy = noc.transfer_energy_pj(swap.bytes, &self.cost);
            let slot = self.aidx(swap.id);
            let acct = &mut self.accounting[slot];
            acct.kv_transfer_bytes += swap.bytes;
            acct.kv_transfer_energy_pj += energy;
            self.transfer_bytes += swap.bytes;
            self.transfer_energy_pj += energy;
            self.scheduler.stall_session_until(swap.id, swapped_out);
            self.pool.wait_until(swap.to_pool, swapped_out);
            debug_assert!(!self.pending_migrations.contains(&swap.id));
            self.pending_migrations.push(swap.id);
        }
        self.transfer_stall_cycles += swap_stall_cycles;
        let step_cycles =
            steps_end(steps_end(price.step_cycles, stall_cycles, 1), swap_stall_cycles, 1);
        debug_assert!(steps == 1 || step_cycles == price.step_cycles, "a run step stalled");
        let end = steps_end(start, step_cycles, steps);
        match self.placement.policy {
            PlacementPolicy::DataParallel | PlacementPolicy::Disaggregated { .. } => {
                self.pool.dispatch_steps(node, start, end, steps)
            }
            PlacementPolicy::Sharded => self.pool.dispatch_all(start, end),
        }
        self.steps += steps;
        // Each item's energy is added once per step, in step order.
        let split =
            EnergySplit::new(&batch.items, price.compute_energy_pj, price.attention_energy_pj);
        let total_tokens = batch.total_tokens().max(1) as f64;
        for item in &batch.items {
            let rest_share = split.rest_share(item);
            let noc_share = price.noc_energy_pj * item.tokens as f64 / total_tokens;
            let slot = self.aidx(item.id);
            let acct = &mut self.accounting[slot];
            for back in (0..usize_from_u64(steps)).rev() {
                acct.energy_pj += split.share(item, rest_share, back);
                acct.noc_energy_pj += noc_share;
            }
            acct.micro_batches += steps;
        }
        let slot = self.slot_of(node);
        let seq = self.queue.next_seqs(steps);
        let start = end - step_cycles;
        self.in_flight[slot] = Some(InFlight { batch, start, end, seq });
        let key = (end, seq, slot);
        self.next_completion = Some(self.next_completion.map_or(key, |next| next.min(key)));
        self.count_queued();
    }

    /// Advances the decode batch just dispatched on `node` through every
    /// further step that is *forced* — where the rounds in between could
    /// only land its completion and re-form the same batch on the same node
    /// — with exactly the effects those rounds would have had. This is a
    /// *decode run*; a run of no further step is the general case.
    ///
    /// Let `t` be a step's start (the end of the batch in flight). The step
    /// is forced when all of these hold:
    ///
    /// * the placement is data-parallel (single node included) with an
    ///   unbounded or a single KV pool — disaggregated, sharded and bounded
    ///   multi-pool runs never extend;
    /// * the batch is decode-only, no item emits its last output token at
    ///   `t`, and under a bounded pool no item needs a new page for the next
    ///   step (formation could evict). [`Scheduler::forced_steps`] counts
    ///   these steps once per run;
    /// * `t` lies before the horizon: every other in-flight batch's end, the
    ///   staged arrival, the scheduler's earliest unreleased arrival or
    ///   not-in-flight session ready time, and the clock of every idle node
    ///   with a lower index (which would win `t`'s formation). Nothing else
    ///   happens during a run, so the horizon is computed once;
    /// * when another node is busy, at most one idle node other than `node`
    ///   lags behind `t`: with two lagging, the round's "nothing runnable"
    ///   branch would land that later completion early. Idle clocks do not
    ///   move during a run, so `t` may not pass the second-smallest one.
    ///
    /// The run advances in *segments*. A segment's steps share one price,
    /// since no item's context crosses a KV page boundary inside it, so
    /// they start at `t, t + c, …` for the price's step cycles `c`, and
    /// [`segment_steps`] gives their number in closed form. One bulk
    /// [`Scheduler::complete_and_reform`] and one [`Executor::occupy`] then
    /// apply them. A step whose slices cross a bucket opens the next
    /// segment, re-priced through the [`PerfFront`].
    ///
    /// The rounds a run replaces raise each lagging idle node to every
    /// step's start; the run raises them once, to its last step's start.
    fn advance_run(&mut self, node: usize, mut price: Price) {
        if self.placement.policy != PlacementPolicy::DataParallel || self.multi_pool {
            return;
        }
        let forced = |f: &InFlight| self.scheduler.forced_steps(&f.batch);
        let mut forced = u64_from_usize(self.in_flight[node].as_ref().map_or(0, forced));
        if forced == 0 {
            return;
        }
        // One pass over the other nodes (data-parallel: node `i` is slot
        // `i`): the earliest other completion, the clocks of lower-index
        // idle nodes, and the two smallest idle clocks.
        let mut others = None;
        let mut horizon = self.queue.staged.as_ref().map_or(u64::MAX, |(_, r)| r.arrival_cycle);
        let mut idle_clocks: (Option<u64>, Option<u64>) = (None, None);
        for (i, f) in self.in_flight.iter().enumerate().filter(|&(i, _)| i != node) {
            if let Some(f) = f {
                let key = (f.end, f.seq, i);
                others = Some(others.map_or(key, |o: (u64, u64, usize)| o.min(key)));
                horizon = horizon.min(f.end);
                continue;
            }
            let clock = self.pool.free_at(i);
            if i < node {
                horizon = horizon.min(clock);
            }
            idle_clocks = match idle_clocks {
                (Some(first), second) if clock >= first => {
                    (Some(first), Some(second.map_or(clock, |s| s.min(clock))))
                }
                (first, _) => (Some(clock), first),
            };
        }
        let t = self.in_flight[node].as_ref().expect("the run's batch is in flight").end;
        // The session scan is the one costly part of the horizon: skip it
        // when the cheap part already ends the run.
        if t < horizon {
            let ready = self.scheduler.earliest_ready_not_in_flight(t);
            horizon = ready.map_or(horizon, |r| horizon.min(r));
        }
        let lag_limit = others.and(idle_clocks.1);
        let page_tokens = self.scheduler.kv_config().page_tokens;
        let bucket = |len: usize| pages_for(len, page_tokens);
        let mut last_start = None;
        loop {
            let t = self.in_flight[node].as_ref().expect("the run's batch is in flight").end;
            // The step at `t` is taken under `segment_steps`' rules for a
            // first step, which depend neither on its price nor on buckets.
            if forced == 0 || t >= horizon || lag_limit.is_some_and(|l| l < t) {
                break;
            }
            let mut f = self.in_flight[node].take().expect("the run's batch is in flight");
            // Step j (from 0) re-forms each item at `context_len + j + 1`
            // entries; its slices differ from step j - 1's exactly where an
            // item's bucket changes, the first time at j = `same_bucket`.
            let items = &f.batch.items;
            let rebucket = items.iter().any(|i| bucket(i.context_len) != bucket(i.context_len + 1));
            let same_bucket = items
                .iter()
                .map(|i| bucket(i.context_len + 1) * page_tokens - i.context_len)
                .min()
                .map_or(0, u64_from_usize);
            if rebucket {
                // Price the batch as re-formed for step 0; the bulk re-form
                // below sets every context from its session anyway.
                for item in &mut f.batch.items {
                    item.context_len += 1;
                }
                price = self.price(&f.batch);
            }
            let c = price.step_cycles;
            let k = segment_steps(t, c, horizon, lag_limit, forced.min(same_bucket));
            debug_assert!(k > 0, "the step at t is taken");
            let last = t + (k - 1) * c;
            self.scheduler.complete_and_reform(&mut f.batch, usize_from_u64(k), last);
            self.next_completion = others;
            self.queue.count_segment_pops(t, last, k);
            self.clock_cycles = self.clock_cycles.max(last);
            self.occupy(node, f.batch, t, price, k);
            forced -= k;
            last_start = Some(last);
            self.run_counters.1 += k;
            self.run_counters.2 += 1;
        }
        if let Some(start) = last_start {
            self.run_counters.0 += 1;
            for i in 0..self.pool.len() {
                if i != node && !self.occupied(i) {
                    self.pool.wait_until(i, start);
                }
            }
        }
    }

    /// Runs until every submitted request has finished, retiring each
    /// session as it finishes, then reports.
    pub fn run(&mut self) -> RuntimeReport {
        self.run_stream(std::iter::empty())
    }

    /// Serves `stream` lazily to completion, alongside any pre-submitted
    /// requests: each streamed request is staged as the one pending arrival
    /// and submitted when simulated time reaches it, not up front. Requests
    /// the admission control rejects are counted in the report's KV
    /// statistics and dropped, as with [`Executor::try_submit`]. The
    /// stream's arrivals must be nondecreasing (true for Poisson and
    /// single-burst [`WorkloadStream`](crate::workload::WorkloadStream)s)
    /// and no later than any pre-[`submit`](Executor::submit)ted request
    /// still outstanding.
    ///
    /// Submission is passive (admission control aside, a submitted request
    /// affects nothing until a batch forms at or after its arrival), so a
    /// streamed run equals the pre-submitted run of the same trace under
    /// every state-independent admission configuration. The stateful checks
    /// (`max_live_sessions` backpressure, SLO projection) see the population
    /// at the arrival instant instead of at up-front submission — the more
    /// realistic reading, and a divergence from pre-submitted runs.
    pub fn run_stream<I>(&mut self, stream: I) -> RuntimeReport
    where
        I: IntoIterator<Item = Request>,
    {
        let mut stream = stream.into_iter();
        self.stage_next(&mut stream);
        self.retired.reserve(self.scheduler.sessions().len());
        while self.kept_round(&mut stream) {}
        let requests = std::mem::take(&mut self.retired);
        self.report_of(requests)
    }

    /// Serves `stream` lazily like [`Executor::run_stream`], but folds each
    /// retiring session into a [`StatsFold`] instead of keeping its
    /// statistics, so memory stays O(live sessions) for arbitrarily long
    /// streams and the report is the O(1) [`ScaleReport`]. Sessions retired
    /// by earlier calls are not in the fold.
    pub fn run_stream_folded<I>(&mut self, stream: I) -> ScaleReport
    where
        I: IntoIterator<Item = Request>,
    {
        let mut stream = stream.into_iter();
        self.stage_next(&mut stream);
        let mut fold = StatsFold::default();
        while self.round(&mut stream, &mut |s| fold.add(&s)) {}
        let makespan_s = self.clock_cycles as f64 / self.cost.frequency_hz;
        let throughput_tokens_per_s =
            if makespan_s > 0.0 { fold.output_tokens as f64 / makespan_s } else { 0.0 };
        ScaleReport {
            fold,
            makespan_s,
            throughput_tokens_per_s,
            micro_batches: self.steps,
            nodes: self.pool.len(),
            peak_live_sessions: self.scheduler.peak_live_sessions(),
            peak_event_queue: self.queue.peak_len(),
            kv: self.kv_stats(),
        }
    }

    /// The event queue's observability counters: events landed, the
    /// high-water mark and per-kind time regressions.
    pub fn queue(&self) -> &EventQueue {
        &self.queue
    }

    /// The statistics of one finished session with accounting `acct`.
    fn session_stats(&self, s: &Session, acct: &Accounting) -> RequestStats {
        // The cached cost model's frequency is the exact value
        // `accel.frequency_hz()` would rebuild a `Design` to compute — this
        // runs once per retired session, so it must not.
        let freq = self.cost.frequency_hz;
        let to_s = |cycles: u64| cycles as f64 / freq;
        let first = s.first_token_cycle.expect("a finished session emitted its first token");
        let finish = s.finish_cycle.expect("a finished session has a finish cycle");
        let arrival = s.request.arrival_cycle;
        let outputs = s.generated_tokens;
        let tpot_s = if outputs > 1 { to_s(finish - first) / (outputs - 1) as f64 } else { 0.0 };
        let e2e_s = to_s(finish - arrival);
        RequestStats {
            id: s.id,
            model: s.request.model,
            prompt_tokens: s.request.prompt_tokens,
            output_tokens: outputs,
            ttft_s: to_s(first - arrival),
            tpot_s,
            e2e_s,
            tokens_per_s: if e2e_s > 0.0 { outputs as f64 / e2e_s } else { 0.0 },
            energy_uj: acct.energy_pj * 1e-6,
            noc_energy_uj: acct.noc_energy_pj * 1e-6,
            kv_transfer_bytes: acct.kv_transfer_bytes,
            kv_transfer_energy_uj: acct.kv_transfer_energy_pj * 1e-6,
            micro_batches: acct.micro_batches,
            preemptions: s.preemptions,
            migrations: s.migrations,
            swap_outs: s.swap_outs,
        }
    }

    /// Builds the report for the work completed so far. `requests`, and the
    /// figures built from it, list the retired sessions in id order: a
    /// session that finished behind an older unfinished one joins once every
    /// older session has finished. A completed [`Executor::run`] or
    /// [`Executor::run_stream`] hands these records to the report it returns,
    /// so a later `report()` lists only sessions retired after that.
    /// `noc_energy_uj` covers every session, retired or live, in id order.
    pub fn report(&self) -> RuntimeReport {
        self.report_of(self.retired.clone())
    }

    /// The report listing `requests`.
    fn report_of(&self, requests: Vec<RequestStats>) -> RuntimeReport {
        let freq = self.cost.frequency_hz;
        let to_s = |cycles: u64| cycles as f64 / freq;
        let live = &self.accounting[self.acct_head..];
        let total_output_tokens: u64 =
            requests.iter().map(|r| u64_from_usize(r.output_tokens)).sum();
        let makespan_s = to_s(self.clock_cycles);
        let ttft = Percentiles::of(&requests.iter().map(|r| r.ttft_s).collect::<Vec<_>>());
        let tpot = Percentiles::of(
            &requests.iter().filter(|r| r.output_tokens > 1).map(|r| r.tpot_s).collect::<Vec<_>>(),
        );
        RuntimeReport {
            requests,
            makespan_s,
            total_output_tokens,
            throughput_tokens_per_s: if makespan_s > 0.0 {
                total_output_tokens as f64 / makespan_s
            } else {
                0.0
            },
            micro_batches: self.steps,
            ttft,
            tpot,
            nodes: self.pool.len(),
            noc: self.placement.noc.label(),
            noc_energy_uj: live.iter().fold(self.retired_noc_pj, |pj, a| pj + a.noc_energy_pj)
                * 1e-6,
            node_busy_cycles: self.pool.busy().to_vec(),
            kv: self.kv_stats(),
        }
    }

    /// The run's paged-KV statistics so far (shared by [`Executor::report`]
    /// and [`Executor::run_stream_folded`]'s report).
    fn kv_stats(&self) -> KvStats {
        KvStats {
            fault_stall_cycles: self.fault_stall_cycles,
            transfer_bytes: self.transfer_bytes,
            transfer_energy_uj: self.transfer_energy_pj * 1e-6,
            transfer_stall_cycles: self.transfer_stall_cycles,
            role_rerolls: self.role_rerolls,
            ..self.scheduler.kv_stats()
        }
    }
}

/// How one step's compute energy splits across the batch items: the
/// attention share of the dynamic energy is weighted by `tokens × attended
/// KV` (long contexts read and score more cache), everything else
/// (projections, FFN, nonlinear, HBM, leakage) by token share alone.
///
/// The weights are integers far below 2^53, so their f64 sums are exact:
/// a decode-run segment's earlier steps, each item attending one KV entry
/// less per step back, weigh exactly `tokens` less per step back.
#[derive(Clone, Copy, Debug)]
struct EnergySplit {
    attention_pj: f64,
    rest_pj: f64,
    tokens: usize,
    kv_weight: usize,
}

impl EnergySplit {
    fn new(items: &[BatchItem], compute_energy_pj: f64, attention_energy_pj: f64) -> Self {
        let attention_pj = attention_energy_pj.min(compute_energy_pj);
        let kv_weight = items.iter().map(|i| i.tokens * i.context_len.max(1)).sum();
        debug_assert!(kv_weight < 1 << 53, "KV weights must stay exact in f64");
        EnergySplit {
            attention_pj,
            rest_pj: compute_energy_pj - attention_pj,
            tokens: items.iter().map(|i| i.tokens).sum(),
            kv_weight,
        }
    }

    /// The non-attention energy `item` is charged per step.
    fn rest_share(&self, item: &BatchItem) -> f64 {
        let share = if self.tokens > 0 { item.tokens as f64 / self.tokens as f64 } else { 0.0 };
        self.rest_pj * share
    }

    /// The energy `item` is charged for the step `back` steps before the
    /// one its batch describes: its `rest_share` plus its share of the
    /// attention energy.
    fn share(&self, item: &BatchItem, rest_share: f64, back: usize) -> f64 {
        let total_kv_weight = (self.kv_weight - self.tokens * back) as f64;
        let kv_share = if total_kv_weight > 0.0 {
            item.tokens as f64 * (item.context_len - back).max(1) as f64 / total_kv_weight
        } else {
            0.0
        };
        rest_share + self.attention_pj * kv_share
    }
}

/// The number of back-to-back steps of `cycles ≥ 1` each, the first
/// starting at `t`, that one decode-run segment takes: at most `max_steps`,
/// every step starting before `horizon` and, with a `lag_limit`, at or
/// before it. One division at most, none when `max_steps` fit.
///
/// # Panics
/// Panics if the last step's end, `t + k · cycles`, does not fit in a
/// `u64` (see [`steps_end`]).
fn segment_steps(t: u64, cycles: u64, horizon: u64, lag_limit: Option<u64>, max_steps: u64) -> u64 {
    // The latest cycle a step may start at.
    let Some(latest) = horizon.checked_sub(1) else { return 0 };
    let latest = lag_limit.map_or(latest, |l| latest.min(l));
    if max_steps == 0 || t > latest {
        return 0;
    }
    let span = latest - t;
    let k = match (max_steps - 1).checked_mul(cycles) {
        Some(needed) if needed <= span => max_steps,
        _ => span / cycles + 1,
    };
    steps_end(t, cycles, k);
    k
}

/// The end of `steps` back-to-back steps of `cycles` each from `start`. The
/// executor's one checked cycle sum: a stall or transfer landing after
/// `start` is one step of its length, and `n` page faults are `n` steps of
/// [`Executor::FAULT_STALL_CYCLES`] from cycle 0.
///
/// # Panics
/// Panics when `start + steps · cycles` overflows a `u64` cycle count,
/// rather than wrapping (release builds do not check overflow).
#[expect(
    clippy::panic,
    reason = "a wrapped simulated clock would silently corrupt every later event"
)]
fn steps_end(start: u64, cycles: u64, steps: u64) -> u64 {
    cycles.checked_mul(steps).and_then(|span| start.checked_add(span)).unwrap_or_else(|| {
        panic!("cycle overflow: {steps} steps of {cycles} cycles from cycle {start} pass u64::MAX")
    })
}

/// Each item's share of one step's compute energy (test convenience).
#[cfg(test)]
fn attribute_step_energy(
    items: &[BatchItem],
    compute_energy_pj: f64,
    attention_energy_pj: f64,
) -> Vec<f64> {
    let split = EnergySplit::new(items, compute_energy_pj, attention_energy_pj);
    items.iter().map(|i| split.share(i, split.rest_share(i), 0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvConfig;
    use crate::scheduler::SchedulerConfig;
    use mugi::arch::noc::NocConfig;
    use mugi_workloads::models::ModelId;
    use mugi_workloads::ops::Phase;

    fn executor(placement: Placement) -> Executor {
        Scenario { placement, ..Scenario::new(128) }.build().unwrap()
    }

    #[test]
    fn single_request_runs_to_completion_with_sane_stats() {
        let mut ex = executor(Placement::single_node());
        let id = ex.submit(Request::new(ModelId::Llama2_7b, 200, 5));
        let report = ex.run();
        assert_eq!(report.requests.len(), 1);
        let r = &report.requests[0];
        assert_eq!(r.id, id);
        assert_eq!(r.output_tokens, 5);
        assert!(r.ttft_s > 0.0);
        assert!(r.tpot_s > 0.0);
        assert!(r.e2e_s >= r.ttft_s);
        assert!(r.energy_uj > 0.0);
        assert_eq!(r.noc_energy_uj, 0.0, "one node moves nothing over the NoC");
        // One prefill step plus four decode steps.
        assert_eq!(r.micro_batches, 5);
        assert!(report.throughput_tokens_per_s > 0.0);
        assert_eq!(report.nodes, 1);
        assert_eq!(report.noc_energy_uj, 0.0);
        assert_eq!(report.node_busy_cycles.len(), 1);
        assert!(ex.scheduler().all_finished());
    }

    #[test]
    fn first_front_probe_counts_as_a_miss() {
        // The first probe finds the slot table still unsized; it must be
        // counted like any later miss.
        let mut ex = executor(Placement::single_node());
        ex.submit(Request::new(ModelId::Llama2_7b, 64, 1));
        ex.run();
        assert_eq!(ex.perf_front_stats(), (0, 1, 1));
    }

    fn front_key(model: ModelId, slices: &[BatchSlice]) -> FrontKey {
        FrontKey::pack(model, slices).expect("the shape packs")
    }

    fn priced(step_cycles: u64) -> Price {
        Price { step_cycles, compute_energy_pj: 1.0, noc_energy_pj: 0.0, attention_energy_pj: 0.5 }
    }

    /// A price's fields as bits, so `-0.0` and `0.0` differ.
    fn price_bits(p: Price) -> (u64, u64, u64, u64) {
        (
            p.step_cycles,
            p.compute_energy_pj.to_bits(),
            p.noc_energy_pj.to_bits(),
            p.attention_energy_pj.to_bits(),
        )
    }

    #[test]
    fn front_entries_are_eighty_bytes_with_their_tags() {
        assert_eq!(std::mem::size_of::<FrontSet>(), PerfFront::WAYS * 80);
    }

    #[test]
    fn front_keys_pack_every_field_that_fits_and_nothing_else() {
        let max = (1 << FrontKey::FIELD_BITS) - 1;
        let m = ModelId::Llama2_7b;
        let base = BatchSlice::prefill(max, max).with_kv_len(max);
        let bumped = [
            BatchSlice { batch: max + 1, ..base },
            BatchSlice { seq_len: max + 1, ..base },
            BatchSlice { kv_len: max + 1, ..base },
        ];
        for s in bumped {
            assert_eq!(FrontKey::pack(m, &[s]), None, "{s:?}");
        }
        assert_eq!(FrontKey::pack(m, &[base; FRONT_SLICES + 1]), None);
        // Lossless: changing any one field at its extreme changes the key.
        let key = front_key(m, &[base; FRONT_SLICES]);
        let changed = [
            front_key(ModelId::Llama2_13b, &[base; FRONT_SLICES]),
            front_key(m, &[base; FRONT_SLICES - 1]),
            front_key(m, &[BatchSlice { phase: Phase::Decode, ..base }; FRONT_SLICES]),
            front_key(m, &[BatchSlice { batch: max - 1, ..base }; FRONT_SLICES]),
            front_key(m, &[BatchSlice { seq_len: max - 1, ..base }; FRONT_SLICES]),
            front_key(m, &[BatchSlice { kv_len: max - 1, ..base }; FRONT_SLICES]),
        ];
        for other in changed {
            assert_ne!(other, key);
        }
    }

    #[test]
    fn front_shapes_with_one_hash_miss_each_other() {
        let slices = [BatchSlice::decode(1, 64)];
        let a = front_key(ModelId::Llama2_7b, &slices);
        let b = front_key(ModelId::Llama2_13b, &slices);
        let c = front_key(ModelId::Llama2_7b, &[BatchSlice::decode(2, 64)]);
        let hash = 0x5eed;
        let mut front = PerfFront::default();
        front.insert(hash, a, priced(1));
        assert!(front.get(hash, Some(&b)).is_none());
        assert!(front.get(hash, Some(&c)).is_none());
        front.insert(hash, b, priced(2));
        assert_eq!(front.get(hash, Some(&a)).map(|p| p.step_cycles), Some(1));
        assert_eq!(front.get(hash, Some(&b)).map(|p| p.step_cycles), Some(2));
        // The tag is the whole hash: another hash of the same set misses.
        let same_set = hash + u64_from_usize(PerfFront::SETS);
        assert_eq!(PerfFront::set_of(same_set), PerfFront::set_of(hash));
        assert!(front.get(same_set, Some(&a)).is_none());
        assert_eq!((front.hits, front.misses, front.resident()), (2, 3, 2));
    }

    #[test]
    fn a_full_front_set_evicts_its_least_recently_used_way() {
        let keys: Vec<FrontKey> = (1..=PerfFront::WAYS + 1)
            .map(|b| front_key(ModelId::Llama2_7b, &[BatchSlice::decode(b, 64)]))
            .collect();
        // Every hash below picks set 3.
        let hash = |i: usize| u64_from_usize(3 + i * PerfFront::SETS);
        let mut front = PerfFront::default();
        for (i, key) in keys.iter().take(PerfFront::WAYS).enumerate() {
            front.insert(hash(i), *key, priced(u64_from_usize(i)));
        }
        // Touch the oldest way: the second-inserted is now the LRU one.
        assert!(front.get(hash(0), Some(&keys[0])).is_some());
        let last = PerfFront::WAYS;
        front.insert(hash(last), keys[last], priced(u64_from_usize(last)));
        assert!(front.get(hash(1), Some(&keys[1])).is_none());
        for i in [0, 2, 3, last] {
            assert_eq!(
                front.get(hash(i), Some(&keys[i])).map(|p| p.step_cycles),
                Some(u64_from_usize(i))
            );
        }
        assert_eq!(front.resident(), PerfFront::WAYS);
    }

    #[test]
    fn shapes_without_a_front_key_are_priced_through_the_slice_memo_every_time() {
        let decode = |id, context_len| BatchItem {
            id: RequestId(id),
            phase: Phase::Decode,
            tokens: 1,
            context_len,
        };
        let batch = |items| MicroBatch {
            model: ModelId::Llama2_7b,
            items,
            evicted_pages: 0,
            swapped_out: Vec::new(),
        };
        // Five contexts in five KV buckets make one slice more than a key
        // holds; a 2^21-entry context overflows its packed field.
        let long = batch((0..5).map(|i| decode(i, 100 + 200 * usize_from_u64(i))).collect());
        let wide = batch(vec![decode(0, 1 << FrontKey::FIELD_BITS)]);
        let executor = || executor(Placement::data_parallel(NocConfig { rows: 2, cols: 2 }));
        let mut ex = executor();
        let accel = ex.accelerator().clone();
        for b in [&long, &wide] {
            let mut slices = Vec::new();
            b.slices_into(ex.scheduler.kv_config().page_tokens, &mut slices);
            assert_eq!(FrontKey::pack(b.model, &slices), None);
            let fresh = executor().price(b);
            let misses = accel.slice_memo_stats().misses;
            assert_eq!(price_bits(ex.price(b)), price_bits(fresh));
            assert_eq!(accel.slice_memo_stats().misses - misses, u64_from_usize(slices.len()));
            let memo_hits = accel.slice_memo_stats().hits;
            assert_eq!(price_bits(ex.price(b)), price_bits(fresh));
            assert_eq!(accel.slice_memo_stats().hits - memo_hits, u64_from_usize(slices.len()));
        }
        assert_eq!(ex.perf_front_stats(), (0, 4, 0));
    }

    #[test]
    fn sessions_submitted_before_executor_construction_are_accounted() {
        // Regression: the executor must allocate accounting slots for
        // sessions already living in the scheduler it is handed.
        let mut sched = Scheduler::new(SchedulerConfig::default());
        sched.submit(Request::new(ModelId::Llama2_7b, 50, 2));
        let mut ex = Executor::with_placement(
            MugiAccelerator::new(128),
            sched,
            ExecutorConfig::default(),
            Placement::single_node(),
        );
        let late = ex.submit(Request::new(ModelId::Llama2_7b, 50, 2));
        let report = ex.run();
        assert_eq!(report.requests.len(), 2);
        assert!(report.requests.iter().all(|r| r.energy_uj > 0.0 && r.micro_batches > 0));
        assert_eq!(report.requests[1].id, late);
    }

    #[test]
    #[should_panic(expected = "kv_bucket must equal the KV pool's page_tokens")]
    fn hand_built_engines_bucket_at_the_page_size() {
        let kv = KvConfig { page_tokens: 32, ..KvConfig::unbounded() };
        Executor::with_placement(
            MugiAccelerator::new(64),
            Scheduler::with_kv(SchedulerConfig::default(), kv),
            ExecutorConfig::default(),
            Placement::single_node(),
        );
    }

    #[test]
    fn report_between_steps_lists_only_the_retired_prefix() {
        // r1 decodes 16 tokens while r2 stops at 3: r2 finishes behind the
        // unfinished r1 and is not listed until r1 finishes too. The NoC
        // energy covers every session, retired or live, with the bits the
        // report had when it summed every session's accounting in id order.
        let placement = Placement::data_parallel(NocConfig { rows: 2, cols: 1 });
        let mut ex = Scenario { placement, ..Scenario::new(64) }.build().unwrap();
        for (prompt, output) in [(32, 2), (64, 16), (48, 3)] {
            ex.submit(Request::new(ModelId::Llama2_7b, prompt, output));
        }
        let observe = |ex: &Executor| {
            let report = ex.report();
            let ids: Vec<u64> = report.requests.iter().map(|r| r.id.0).collect();
            let live: Vec<(u64, bool)> =
                ex.scheduler().sessions().iter().map(|s| (s.id.0, s.is_finished())).collect();
            (ex.steps(), ids, live, report.noc_energy_uj.to_bits())
        };
        let mut seen = Vec::new();
        while ex.step() {
            seen.push(observe(&ex));
        }
        seen.push(observe(&ex));
        let expected = [
            (1, vec![], vec![(0, false), (1, false), (2, false)], 0x4000fca785eb66eb),
            (2, vec![], vec![(0, false), (1, false), (2, false)], 0x4001574058b5a3bb),
            (3, vec![0], vec![(1, false), (2, false)], 0x400193a63a91cc45),
            (16, vec![0], vec![(1, false), (2, true)], 0x40031c3c76a8d3c9),
            (16, vec![0, 1, 2], vec![], 0x40031c3c76a8d3c9),
        ];
        assert_eq!(seen, expected);
    }

    #[test]
    fn staggered_arrival_jumps_the_clock() {
        let mut ex = executor(Placement::single_node());
        ex.submit(Request::new(ModelId::Llama2_7b, 32, 1).arriving_at(1_000_000));
        let report = ex.run();
        assert!(ex.clock_cycles() > 1_000_000);
        // TTFT is measured from arrival, not from cycle zero.
        assert!(report.requests[0].ttft_s < report.makespan_s);
    }

    #[test]
    fn decode_steps_reuse_cached_traces() {
        let mut ex = executor(Placement::single_node());
        ex.submit(Request::new(ModelId::Llama2_7b, 100, 40));
        let report = ex.run();
        // 1 prefill + 39 decode micro-batches, but the bucketed decode
        // context means only a handful of distinct slices to price.
        assert_eq!(report.micro_batches, 40);
        let slices = ex.accel.perf_cache_entries();
        assert!(slices < 8, "expected few memoized slices, got {slices}");
    }

    #[test]
    fn segment_steps_stop_at_the_first_rule_that_binds() {
        // Steps start at 100, 110, 120, …: a horizon on a step start ends
        // the segment before that step, a lag limit on one takes it.
        assert_eq!(segment_steps(100, 10, 130, None, 50), 3);
        assert_eq!(segment_steps(100, 10, 131, None, 50), 4);
        assert_eq!(segment_steps(100, 10, 100, None, 50), 0, "t == horizon");
        assert_eq!(segment_steps(100, 10, u64::MAX, Some(130), 50), 4);
        assert_eq!(segment_steps(100, 10, u64::MAX, Some(129), 50), 3);
        assert_eq!(segment_steps(100, 10, u64::MAX, Some(99), 50), 0, "already lagging");
        assert_eq!(segment_steps(100, 10, u64::MAX, None, 7), 7, "max_steps");
        assert_eq!(segment_steps(100, 10, u64::MAX, Some(u64::MAX), 7), 7);
        // One-cycle steps: every cycle before the horizon starts a step.
        assert_eq!(segment_steps(0, 1, 5, None, u64::MAX), 5);
        assert_eq!(segment_steps(0, 1, u64::MAX, Some(u64::MAX), u64::MAX), u64::MAX);
        // The last step may end exactly at the largest cycle.
        assert_eq!(segment_steps(u64::MAX - 20, 10, u64::MAX, None, 2), 2);
        assert_eq!(steps_end(u64::MAX - 20, 10, 2), u64::MAX);
        // Stalls and transfers are single steps; page faults are steps of
        // the fault cost from cycle 0.
        assert_eq!(steps_end(u64::MAX - 1, 1, 1), u64::MAX);
        assert_eq!(steps_end(0, Executor::FAULT_STALL_CYCLES, u64::MAX / 256), u64::MAX - 255);
    }

    #[test]
    #[should_panic(
        expected = "cycle overflow: 1 steps of 1 cycles from cycle 18446744073709551615"
    )]
    fn cycle_sums_panic_one_past_u64_max() {
        steps_end(u64::MAX, 1, 1);
    }

    #[test]
    #[should_panic(expected = "cycle overflow: 72057594037927936 steps of 256 cycles from cycle 0")]
    fn fault_stalls_panic_instead_of_wrapping() {
        steps_end(0, Executor::FAULT_STALL_CYCLES, u64::MAX / 256 + 1);
    }

    #[test]
    #[should_panic(expected = "cycle overflow: 1 steps of 10 cycles from cycle")]
    fn segment_steps_panic_instead_of_wrapping_the_clock() {
        // The step starts before the horizon but would end past u64::MAX.
        segment_steps(u64::MAX - 5, 10, u64::MAX, None, 3);
    }

    #[test]
    fn long_context_decodes_are_charged_more_energy() {
        // Two decode slots in the same step: the 4096-entry context must be
        // charged more than the 64-entry one, and the split must conserve
        // the step energy.
        let items = [
            BatchItem { id: RequestId(0), phase: Phase::Decode, tokens: 1, context_len: 64 },
            BatchItem { id: RequestId(1), phase: Phase::Decode, tokens: 1, context_len: 4096 },
        ];
        let shares = attribute_step_energy(&items, 1000.0, 400.0);
        assert!(shares[1] > shares[0], "long context must pay more: {shares:?}");
        assert!((shares.iter().sum::<f64>() - 1000.0).abs() < 1e-9, "energy is conserved");
        // Token-share still governs the non-attention pool: with no
        // attention energy the charges are equal.
        let flat = attribute_step_energy(&items, 1000.0, 0.0);
        assert!((flat[0] - flat[1]).abs() < 1e-9);
    }

    #[test]
    fn sharded_mesh_accelerates_the_run_and_charges_noc_energy() {
        let requests: Vec<Request> =
            (0..8).map(|i| Request::new(ModelId::Llama2_7b, 100 + i * 40, 6)).collect();
        let run = |placement: Placement| {
            let mut ex = executor(placement);
            for r in &requests {
                ex.submit(*r);
            }
            ex.run()
        };
        let single = run(Placement::single_node());
        let mesh = run(Placement::sharded(NocConfig::mesh_4x4()));
        let speedup = mesh.throughput_tokens_per_s / single.throughput_tokens_per_s;
        assert!(speedup > 12.0, "sharded 4x4 speedup {speedup}");
        assert_eq!(single.noc_energy_uj, 0.0);
        assert!(mesh.noc_energy_uj > 0.0, "sharded execution must charge NoC transfers");
        assert!(mesh.requests.iter().all(|r| r.noc_energy_uj > 0.0));
        assert_eq!(mesh.nodes, 16);
        assert_eq!(mesh.total_output_tokens, single.total_output_tokens);
    }

    #[test]
    fn data_parallel_mesh_overlaps_independent_batches() {
        // Two models' micro-batches cannot share a step on one node, but a
        // data-parallel pool runs them concurrently.
        let requests: Vec<Request> = (0..12)
            .map(|i| {
                let model = if i % 2 == 0 { ModelId::Llama2_7b } else { ModelId::Llama2_13b };
                Request::new(model, 200, 8)
            })
            .collect();
        let run = |placement: Placement| {
            let mut ex = executor(placement);
            for r in &requests {
                ex.submit(*r);
            }
            ex.run()
        };
        let single = run(Placement::single_node());
        let dp = run(Placement::data_parallel(NocConfig { rows: 2, cols: 1 }));
        assert!(
            dp.throughput_tokens_per_s > single.throughput_tokens_per_s * 1.5,
            "two models on two nodes should overlap: {} vs {}",
            dp.throughput_tokens_per_s,
            single.throughput_tokens_per_s
        );
        assert!(dp.noc_energy_uj > 0.0, "shipping batches to nodes crosses the mesh");
        assert_eq!(dp.total_output_tokens, single.total_output_tokens);
        // Both nodes did real work.
        assert!(dp.node_busy_cycles.iter().all(|&b| b > 0), "{:?}", dp.node_busy_cycles);
    }
}
