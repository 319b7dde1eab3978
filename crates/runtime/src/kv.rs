//! Paged KV-cache management: the pool of physical pages each node owns and
//! the per-session page tables that map onto it.
//!
//! The serving claims of the paper rest on the KV cache being a first-class,
//! finite resource. This module models it the way PagedAttention-style
//! servers do:
//!
//! * a [`KvPool`] holds a bounded number of physical *pages*, each covering
//!   [`KvConfig::page_tokens`] KV entries (the same granularity the executor
//!   buckets decode contexts at for estimate memoization);
//! * every admitted session owns a [`PageTable`] of page handles; prefill
//!   chunks and decode growth allocate pages from the pool of the node the
//!   session's KV lives on;
//! * when the pool runs dry the scheduler *preempts*: the most recently
//!   admitted page-holder is evicted, drops its pages, re-enters the waiting
//!   queue and pays re-prefill on readmission (recompute-style preemption) —
//!   or, under [`PreemptionMode::Swap`] with disaggregated placement, its
//!   pages are paged out over the NoC into a prefill pool instead
//!   ([`PageTable::migrate`]) and paged back in later, trading re-prefill
//!   compute for transfer energy and latency;
//! * under disaggregated placement a completed prefill's pages *migrate*
//!   from their prefill pool to a decode pool ([`PageTable::migrate`]),
//!   which the executor charges as a NoC transfer, rather than being
//!   recomputed on the decode side.
//!
//! An **unbounded** configuration ([`KvConfig::unbounded`], the default)
//! disables all bookkeeping: no pages are tracked, no session is ever
//! rejected, deferred or preempted, and the runtime behaves bit-identically
//! to a world without KV accounting. That makes the bounded path a pure
//! opt-in and gives the property tests a regression oracle.
//!
//! Physically, pages live in a two-level free bitmap per pool and are
//! handed out as [`Extent`]s — maximal runs of contiguous pages, lowest
//! address first — so a session's table is a short extent list, decode
//! growth is usually an in-place extension of its last extent, and
//! release/migration move extents rather than pages. None of this is
//! observable in the simulation: all accounting is in page *counts* and
//! bytes, allocation succeeds exactly when `free >= n`, and the pre-extent
//! free-list allocator is retained in the test-only `oracle` module as the
//! property-test reference.
//!
//! Pool invariants (property-tested in this module's unit tests):
//!
//! * a page is mapped by at most one table at a time (never double-mapped);
//! * `free + Σ mapped == capacity` after any sequence of operations;
//! * a table always maps at least [`pages_for`]`(kv_len)` pages while its
//!   session is live;
//! * the extent allocator maps the same page *set* as `oracle` under
//!   identical operation sequences.

#![expect(
    clippy::indexing_slicing,
    clippy::panic,
    reason = "bitmap word/summary indices are derived from page ids bounded by the pool capacity, and panics enforce allocator invariants (exhausted-pool scan, double map/free); a deterministic simulator must abort on corrupt pool state rather than guess"
)]

use mugi_numerics::cast::{u32_from_usize, usize_from_u32, usize_from_u64};
use mugi_workloads::models::ModelId;
use std::fmt;

/// KV-cache precision in bits per value (BF16), used to convert a session's
/// KV length into NoC transfer bytes when pages migrate between pools.
pub const KV_BITS: usize = 16;

/// Pages needed to hold `tokens` KV entries at `page_tokens` granularity.
/// Zero tokens still occupy one page — a session's table is never empty
/// while the session is live, so a zero-context decode maps to exactly one
/// page (see the boundary regression test in `scheduler.rs`).
///
/// # Panics
/// Panics if `page_tokens` is zero.
pub fn pages_for(tokens: usize, page_tokens: usize) -> usize {
    assert!(page_tokens > 0, "page_tokens must be non-zero");
    tokens.div_ceil(page_tokens).max(1)
}

/// What happens to a session evicted from a full KV pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PreemptionMode {
    /// Drop the victim's pages; the victim re-enters the waiting queue and
    /// recomputes its whole KV by prefilling again (the pre-disaggregation
    /// behaviour, and the only possible one under colocated placement).
    #[default]
    Recompute,
    /// Page the victim's KV out over the NoC into a prefill pool instead of
    /// dropping it: the victim keeps its cache and is paged back into a
    /// decode pool later (swap-style preemption). Only possible under
    /// disaggregated placement when a prefill pool has room; falls back to
    /// [`PreemptionMode::Recompute`] otherwise.
    Swap,
}

/// Projected-TTFT admission bound: reject a submission when the prefill
/// backlog queued ahead of it at its arrival cycle (plus the new prompt)
/// projects past the target.
///
/// The projection is deliberately crude — backlog tokens × a static
/// cycles-per-prefill-token service-rate estimate, counting only sessions
/// that arrive no later than the new request — but unlike the blunt
/// queue-depth bound it scales with *work*, so a few long prompts and many
/// short ones are treated alike.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SloConfig {
    /// Maximum acceptable projected TTFT in cycles.
    pub target_ttft_cycles: u64,
    /// Service-rate estimate: cycles one prefill token costs end to end.
    pub cycles_per_prefill_token: u64,
}

/// Static configuration of the paged KV cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KvConfig {
    /// KV entries per page, and the granularity the executor buckets
    /// decode contexts at for its estimates, so the paged view and the
    /// estimate view of a context agree.
    pub page_tokens: usize,
    /// Physical pages per node, or `None` for an unbounded pool (no
    /// bookkeeping at all — the pre-paging behaviour).
    pub node_pages: Option<usize>,
    /// Maximum concurrently live (admitted, unfinished) sessions; further
    /// [`Executor::try_submit`](crate::Executor::try_submit) calls are
    /// rejected — the backpressure signal a workload generator sees. `None`
    /// admits everything.
    pub max_live_sessions: Option<usize>,
    /// What eviction from a full pool costs the victim: recompute (default)
    /// or a NoC swap-out to a prefill pool (disaggregated placement only).
    pub preemption: PreemptionMode,
    /// Optional projected-TTFT admission bound (off by default).
    pub slo: Option<SloConfig>,
}

impl Default for KvConfig {
    /// Unbounded pool, 128-token pages, no admission bound.
    fn default() -> Self {
        KvConfig::unbounded()
    }
}

impl KvConfig {
    /// No capacity limit and no admission bound: bit-identical to a runtime
    /// without KV accounting.
    pub fn unbounded() -> Self {
        KvConfig {
            page_tokens: 128,
            node_pages: None,
            max_live_sessions: None,
            preemption: PreemptionMode::Recompute,
            slo: None,
        }
    }

    /// A bounded pool of `node_pages` pages of `page_tokens` KV entries on
    /// every node. Both must be non-zero for a [`Scenario`](crate::Scenario)
    /// to build.
    pub fn bounded(page_tokens: usize, node_pages: usize) -> Self {
        KvConfig { page_tokens, node_pages: Some(node_pages), ..KvConfig::unbounded() }
    }

    /// Sizes a bounded pool from a per-node KV-byte budget and the dominant
    /// model's dimensions: `node_pages = budget / bytes-per-page`, where one
    /// page holds `page_tokens` BF16 KV entries across all layers and KV
    /// heads of `model`. A budget smaller than one page gives a pool of
    /// zero pages, which a [`Scenario`](crate::Scenario) rejects.
    pub fn for_budget(model: ModelId, node_kv_bytes: u64, page_tokens: usize) -> Self {
        let page_bytes = model.config().kv_cache_bytes(page_tokens, KV_BITS).max(1);
        let pages = node_kv_bytes / page_bytes;
        KvConfig::bounded(page_tokens, usize_from_u64(pages))
    }

    /// Sets the admission bound on concurrently live sessions (non-zero
    /// for a [`Scenario`](crate::Scenario) to build).
    pub fn with_max_live_sessions(mut self, bound: usize) -> Self {
        self.max_live_sessions = Some(bound);
        self
    }

    /// Switches preemption to swap-style page-out over the NoC
    /// ([`PreemptionMode::Swap`]); meaningful only under disaggregated
    /// placement, where prefill pools exist to swap into.
    pub fn with_swap_preemption(mut self) -> Self {
        self.preemption = PreemptionMode::Swap;
        self
    }

    /// Enables the projected-TTFT admission bound (both parameters
    /// non-zero for a [`Scenario`](crate::Scenario) to build).
    #[cfg(test)]
    pub(crate) fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Whether the pool has a capacity limit.
    pub(crate) fn is_bounded(&self) -> bool {
        self.node_pages.is_some()
    }
}

/// Why a submission was rejected by admission control.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AdmissionError {
    /// The live-session queue is at its configured depth bound; retry after
    /// some sessions finish.
    QueueFull {
        /// Sessions currently live (admitted, unfinished).
        live: usize,
        /// The configured bound.
        bound: usize,
    },
    /// The request can never fit: even alone it needs more pages than one
    /// node's pool holds, so admitting it would deadlock that pool.
    NeverFits {
        /// Pages the request needs at its peak (`prompt + output` tokens).
        needed_pages: usize,
        /// Pages a single node's pool holds ([`KvConfig::node_pages`]).
        capacity_pages: usize,
    },
    /// The projected TTFT — the queued prefill backlog plus this prompt,
    /// scaled by the [`SloConfig`] service-rate estimate — exceeds the
    /// configured target; admitting the request would miss its deadline.
    SloViolation {
        /// Projected TTFT of the request in cycles.
        projected_cycles: u64,
        /// The configured bound ([`SloConfig::target_ttft_cycles`]).
        target_cycles: u64,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { live, bound } => {
                write!(f, "admission queue full ({live} live sessions at bound {bound})")
            }
            AdmissionError::NeverFits { needed_pages, capacity_pages } => write!(
                f,
                "request needs {needed_pages} KV pages but the pool holds only {capacity_pages}"
            ),
            AdmissionError::SloViolation { projected_cycles, target_cycles } => write!(
                f,
                "projected TTFT of {projected_cycles} cycles exceeds the {target_cycles}-cycle \
                 SLO target"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Free-page headroom of one scheduler pool, as placement logic sees it.
///
/// An unbounded configuration models no pages at all, so its headroom is a
/// distinct *unbounded* state — not a `None` an out-of-range pool index
/// could alias. Keeping the two apart matters: placement ranks nodes by
/// headroom, and a silent indexing bug that read as "infinitely free" would
/// win every placement decision instead of failing loudly (the scheduler
/// asserts the index whenever pools are bounded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvFreePages {
    /// The configuration is unbounded: no pool exists and nothing can run
    /// out of pages.
    Unbounded,
    /// A bounded pool with this many pages currently free.
    Pages(usize),
}

impl KvFreePages {
    /// Free-page count for placement ranking: an unbounded pool outranks
    /// every bounded one.
    pub(crate) fn ranking(self) -> usize {
        match self {
            KvFreePages::Unbounded => usize::MAX,
            KvFreePages::Pages(free) => free,
        }
    }

    /// Whether `pages` more pages can be allocated right now.
    pub(crate) fn fits(self, pages: usize) -> bool {
        match self {
            KvFreePages::Unbounded => true,
            KvFreePages::Pages(free) => free >= pages,
        }
    }

    /// The bounded free-page count, or `None` for an unbounded pool.
    pub fn pages(self) -> Option<usize> {
        match self {
            KvFreePages::Unbounded => None,
            KvFreePages::Pages(free) => Some(free),
        }
    }
}

/// A run of `len` physically contiguous KV pages starting at page `start` —
/// the unit the extent allocator hands out and reclaims. A session's whole
/// context is typically one or two extents, so releasing, migrating or
/// hashing a table is O(extents), not O(pages).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Extent {
    /// First page of the run.
    pub start: u32,
    /// Pages in the run (never zero for a mapped extent).
    pub len: u32,
}

impl Extent {
    /// One past the last page of the run.
    pub(crate) fn end(self) -> u32 {
        self.start + self.len
    }
}

/// Bits per free-bitmap word.
const WORD_BITS: usize = 64;

/// A contiguous bit mask of `len` bits starting at bit `lo` (`lo + len` must
/// not exceed the word).
fn bit_mask(lo: usize, len: usize) -> u64 {
    debug_assert!(len >= 1 && lo + len <= WORD_BITS);
    (u64::MAX >> (WORD_BITS - len)) << lo
}

/// A bounded pool of physical KV pages (one per node under data-parallel
/// placement; one aggregate pool under sharded placement).
///
/// Free pages are tracked in a two-level bitmap: `words[w]` holds one bit
/// per page (set = free) and `summary` holds one bit per word (set = the
/// word has a free page), so finding the lowest free page is two word scans
/// plus two `trailing_zeros`, and allocation hands out *extents* — maximal
/// runs of contiguous free pages, lowest address first. Allocation is
/// deterministic, never fails while `free_pages() >= n` (fragmentation
/// yields more extents, never a refusal), and a page is never mapped twice:
/// `free + Σ mapped == capacity` is property-tested against the retained
/// pre-extent free-list implementation (`oracle`).
#[derive(Clone, Debug)]
pub(crate) struct KvPool {
    capacity: usize,
    /// Count of set bits across `words`.
    free: usize,
    /// One bit per page; set = free.
    words: Vec<u64>,
    /// One bit per word of `words`; set = that word is non-zero.
    summary: Vec<u64>,
    peak_used: usize,
}

impl KvPool {
    /// A pool of `capacity` free pages.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub(crate) fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "a KV pool needs at least one page");
        let _ = u32_from_usize(capacity); // page ids must stay u32-addressable
        let n_words = capacity.div_ceil(WORD_BITS);
        let mut words = vec![u64::MAX; n_words];
        let tail = capacity % WORD_BITS;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last = bit_mask(0, tail);
            }
        }
        let mut summary = vec![0u64; n_words.div_ceil(WORD_BITS)];
        for (w, word) in words.iter().enumerate() {
            if *word != 0 {
                if let Some(s) = summary.get_mut(w / WORD_BITS) {
                    *s |= 1 << (w % WORD_BITS);
                }
            }
        }
        KvPool { capacity, free: capacity, words, summary, peak_used: 0 }
    }

    /// Total pages the pool holds.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently unmapped.
    pub(crate) fn free_pages(&self) -> usize {
        self.free
    }

    /// Pages currently mapped by some table.
    pub(crate) fn used_pages(&self) -> usize {
        self.capacity - self.free
    }

    /// High-water mark of mapped pages.
    pub(crate) fn peak_used_pages(&self) -> usize {
        self.peak_used
    }

    /// The lowest free page, via the summary level then the word level.
    ///
    /// # Panics
    /// Panics if no page is free (callers check `free` first).
    fn lowest_free_page(&self) -> u32 {
        for (sw, &bits) in self.summary.iter().enumerate() {
            if bits != 0 {
                let w = sw * WORD_BITS + usize_from_u32(bits.trailing_zeros());
                let word = self.words[w];
                return u32_from_usize(w * WORD_BITS) + word.trailing_zeros();
            }
        }
        panic!("lowest_free_page on an exhausted pool");
    }

    /// Length of the run of free pages starting exactly at `start`, capped
    /// at `cap` (zero when `start` itself is not free).
    fn free_run_len(&self, start: u32, cap: u32) -> u32 {
        let mut len = 0u32;
        let mut w = start as usize / WORD_BITS;
        let mut b = start % u32_from_usize(WORD_BITS);
        while len < cap && w < self.words.len() {
            // Shifting in zeros from the top means `trailing_zeros` of the
            // complement never over-counts past the word's remaining bits.
            let run = (!(self.words[w] >> b)).trailing_zeros();
            len += run;
            if run < u32_from_usize(WORD_BITS) - b {
                break;
            }
            w += 1;
            b = 0;
        }
        len.min(cap)
    }

    /// Flips the `len` bits from `page` on: `set` marks them free, `!set`
    /// marks them used. Keeps `summary` coherent. Debug-asserts the bits
    /// were all in the opposite state (double-free / double-map detection).
    fn flip_range(&mut self, page: u32, len: u32, set: bool) {
        let mut at = page as usize;
        let end = at + len as usize;
        debug_assert!(end <= self.capacity, "page run beyond pool capacity");
        while at < end {
            let w = at / WORD_BITS;
            let b = at % WORD_BITS;
            let take = (WORD_BITS - b).min(end - at);
            let mask = bit_mask(b, take);
            if set {
                debug_assert_eq!(self.words[w] & mask, 0, "freeing a page that is already free");
                self.words[w] |= mask;
                self.summary[w / WORD_BITS] |= 1 << (w % WORD_BITS);
            } else {
                debug_assert_eq!(self.words[w] & mask, mask, "mapping a page that is not free");
                self.words[w] &= !mask;
                if self.words[w] == 0 {
                    self.summary[w / WORD_BITS] &= !(1 << (w % WORD_BITS));
                }
            }
            at += take;
        }
    }

    /// Allocates exactly `n` pages as lowest-address-first extents appended
    /// to `out`, or returns `false` (pool and `out` unchanged) if fewer than
    /// `n` pages are free. Fragmentation costs extra extents, never a
    /// spurious failure — the success condition is `free_pages() >= n`,
    /// exactly as with the pre-extent free list.
    pub(crate) fn alloc_extents(&mut self, n: usize, out: &mut Vec<Extent>) -> bool {
        if self.free < n {
            return false;
        }
        let mut remaining = u32_from_usize(n);
        while remaining > 0 {
            let start = self.lowest_free_page();
            let len = self.free_run_len(start, remaining);
            self.flip_range(start, len, false);
            out.push(Extent { start, len });
            remaining -= len;
        }
        self.free -= n;
        self.peak_used = self.peak_used.max(self.used_pages());
        true
    }

    /// Extends an allocation in place: takes up to `want` free pages
    /// starting exactly at page `at`, returning how many were taken (zero if
    /// `at` is used or past the end). The O(1)-ish decode-growth path: when
    /// the pages right after a table's last extent are still free, growth
    /// lengthens that extent instead of adding one.
    pub(crate) fn extend_at(&mut self, at: u32, want: u32) -> u32 {
        if at as usize >= self.capacity {
            return 0;
        }
        let got = self.free_run_len(at, want);
        if got > 0 {
            self.flip_range(at, got, false);
            self.free -= usize_from_u32(got);
            self.peak_used = self.peak_used.max(self.used_pages());
        }
        got
    }

    /// Returns an extent's pages to the pool.
    ///
    /// # Panics
    /// Panics (in debug builds) if any page of the run is already free —
    /// a sign a page was double-mapped or released twice.
    pub(crate) fn release_run(&mut self, extent: Extent) {
        self.flip_range(extent.start, extent.len, true);
        self.free += extent.len as usize;
        debug_assert!(self.free <= self.capacity, "released more pages than the pool holds");
    }
}

/// The per-session map from a session's KV entries to the physical pages of
/// the pool its KV lives on — a compact list of [`Extent`]s plus a cached
/// page count, so growth is usually an in-place extension of the last
/// extent and release/migration walk extents, not pages.
///
/// `home` pins the session to one pool once its first page is allocated:
/// under data-parallel placement a session's KV physically lives on one
/// node, so only micro-batches formed for that node may schedule it. The
/// table forgets its home when it releases all pages (eviction or finish).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct PageTable {
    extents: Vec<Extent>,
    pages: usize,
    home: Option<usize>,
}

impl PageTable {
    /// An empty, homeless table.
    pub(crate) fn new() -> Self {
        PageTable::default()
    }

    /// Pages currently mapped.
    pub(crate) fn mapped_pages(&self) -> usize {
        self.pages
    }

    /// The mapped extents, in allocation order.
    #[cfg(test)]
    pub(crate) fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// Every mapped page handle, in extent order.
    #[cfg(test)]
    pub(crate) fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.extents.iter().flat_map(|e| (e.start..e.end()).map(PageId))
    }

    /// Pool index the session's KV lives on, or `None` while no page is
    /// mapped.
    pub(crate) fn home(&self) -> Option<usize> {
        self.home
    }

    /// Whether the table may allocate from pool `pool` (homeless, or already
    /// homed there).
    pub(crate) fn admissible_on(&self, pool: usize) -> bool {
        self.home.is_none_or(|h| h == pool)
    }

    /// Grows the table to `target_pages` mapped pages out of `pool`
    /// (pool index `pool_id`). No-op if the table already maps that many.
    /// Returns `false` (nothing allocated) if the pool lacks free pages.
    ///
    /// Growth first tries to lengthen the table's last extent in place
    /// (the common decode step: the adjacent pages are usually still free),
    /// and only then asks the pool for fresh extents.
    ///
    /// # Panics
    /// Panics if the table is homed to a different pool.
    pub(crate) fn grow(&mut self, pool_id: usize, pool: &mut KvPool, target_pages: usize) -> bool {
        assert!(self.admissible_on(pool_id), "page table homed to a different pool");
        let needed = target_pages.saturating_sub(self.pages);
        if needed == 0 {
            return true;
        }
        if pool.free_pages() < needed {
            return false;
        }
        let mut remaining = u32_from_usize(needed);
        if let Some(last) = self.extents.last_mut() {
            let got = pool.extend_at(last.end(), remaining);
            last.len += got;
            remaining -= got;
        }
        if remaining > 0 {
            let ok = pool.alloc_extents(usize_from_u32(remaining), &mut self.extents);
            debug_assert!(ok, "free pages were checked before growing");
        }
        self.pages = target_pages;
        self.home = Some(pool_id);
        true
    }

    /// Releases every mapped page back into `pool` and forgets the home.
    /// Returns how many pages were released.
    pub(crate) fn release_all(&mut self, pool: &mut KvPool) -> usize {
        for e in self.extents.drain(..) {
            pool.release_run(e);
        }
        let released = self.pages;
        self.pages = 0;
        self.home = None;
        released
    }

    /// Moves every mapped page from `from` (the current home) into `to`
    /// (pool index `to_id`), re-homing the table — the paged-KV half of a
    /// prefill→decode handoff or a swap-out, the physical movement being
    /// charged separately as a NoC transfer. Returns the number of pages
    /// migrated, or `None` — with both pools and the table unchanged — if
    /// `to` lacks the free pages.
    ///
    /// # Panics
    /// Panics if the table maps no pages (nothing to migrate) or if `to_id`
    /// is the table's current home (a self-migration is a bug).
    pub(crate) fn migrate(
        &mut self,
        from: &mut KvPool,
        to_id: usize,
        to: &mut KvPool,
    ) -> Option<usize> {
        assert!(!self.extents.is_empty(), "an empty table has nothing to migrate");
        assert_ne!(self.home, Some(to_id), "migration target is already the home pool");
        let count = self.pages;
        if to.free_pages() < count {
            return None;
        }
        for e in self.extents.drain(..) {
            from.release_run(e);
        }
        let ok = to.alloc_extents(count, &mut self.extents);
        debug_assert!(ok, "free pages were checked before migrating");
        self.home = Some(to_id);
        Some(count)
    }
}

#[cfg(test)]
/// Handle of one physical KV page inside a [`KvPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct PageId(pub u32);

#[cfg(test)]
impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
/// The pre-extent page allocator — a LIFO `Vec<PageId>` free list and
/// per-page tables — retained verbatim as the reference implementation the
/// extent allocator is property-tested against (the tests below drive both
/// on identical operation sequences and compare mapped page *sets* and every
/// count). Not used on any serving path.
mod oracle {
    use super::{u32_from_usize, PageId};

    /// Pre-extent [`KvPool`](super::KvPool): an explicit LIFO free list.
    #[derive(Clone, Debug)]
    pub(crate) struct Pool {
        capacity: usize,
        free: Vec<PageId>,
        peak_used: usize,
    }

    impl Pool {
        /// A pool of `capacity` free pages.
        ///
        /// # Panics
        /// Panics if `capacity` is zero.
        pub(crate) fn bounded(capacity: usize) -> Self {
            assert!(capacity > 0, "a KV pool needs at least one page");
            // Reversed so page p0 is handed out first (LIFO free list).
            let free = (0..u32_from_usize(capacity)).rev().map(PageId).collect();
            Pool { capacity, free, peak_used: 0 }
        }

        /// Pages currently unmapped.
        pub(crate) fn free_pages(&self) -> usize {
            self.free.len()
        }

        /// Pages currently mapped by some table.
        pub(crate) fn used_pages(&self) -> usize {
            self.capacity - self.free.len()
        }

        /// High-water mark of mapped pages.
        pub(crate) fn peak_used_pages(&self) -> usize {
            self.peak_used
        }

        /// Takes `n` pages from the free list, or `None` (pool unchanged)
        /// if fewer than `n` are free.
        pub(crate) fn alloc(&mut self, n: usize) -> Option<Vec<PageId>> {
            if self.free.len() < n {
                return None;
            }
            let pages = self.free.split_off(self.free.len() - n);
            self.peak_used = self.peak_used.max(self.used_pages());
            Some(pages)
        }

        /// Returns pages to the free list.
        pub(crate) fn release(&mut self, pages: Vec<PageId>) {
            debug_assert!(
                self.free.len() + pages.len() <= self.capacity,
                "released more pages than the pool holds"
            );
            self.free.extend(pages);
        }
    }

    /// Pre-extent [`PageTable`](super::PageTable): one handle per page.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub(crate) struct Table {
        pages: Vec<PageId>,
        home: Option<usize>,
    }

    impl Table {
        /// An empty, homeless table.
        pub(crate) fn new() -> Self {
            Table::default()
        }

        /// Pages currently mapped.
        pub(crate) fn mapped_pages(&self) -> usize {
            self.pages.len()
        }

        /// Pool index the session's KV lives on, or `None` while no page
        /// is mapped.
        pub(crate) fn home(&self) -> Option<usize> {
            self.home
        }

        /// Whether the table may allocate from pool `pool`.
        pub(crate) fn admissible_on(&self, pool: usize) -> bool {
            self.home.is_none_or(|h| h == pool)
        }

        /// Grows the table to `target_pages` mapped pages out of `pool`.
        ///
        /// # Panics
        /// Panics if the table is homed to a different pool.
        pub(crate) fn grow(
            &mut self,
            pool_id: usize,
            pool: &mut Pool,
            target_pages: usize,
        ) -> bool {
            assert!(self.admissible_on(pool_id), "page table homed to a different pool");
            let needed = target_pages.saturating_sub(self.pages.len());
            if needed == 0 {
                return true;
            }
            let Some(mut fresh) = pool.alloc(needed) else {
                return false;
            };
            self.pages.append(&mut fresh);
            self.home = Some(pool_id);
            true
        }

        /// Releases every mapped page back into `pool` and forgets the
        /// home. Returns how many pages were released.
        pub(crate) fn release_all(&mut self, pool: &mut Pool) -> usize {
            let released = self.pages.len();
            pool.release(std::mem::take(&mut self.pages));
            self.home = None;
            released
        }

        /// Moves every mapped page from `from` into `to` (pool index
        /// `to_id`), re-homing the table.
        ///
        /// # Panics
        /// Panics if the table maps no pages or `to_id` is already home.
        pub(crate) fn migrate(
            &mut self,
            from: &mut Pool,
            to_id: usize,
            to: &mut Pool,
        ) -> Option<usize> {
            assert!(!self.pages.is_empty(), "an empty table has nothing to migrate");
            assert_ne!(self.home, Some(to_id), "migration target is already the home pool");
            let count = self.pages.len();
            let fresh = to.alloc(count)?;
            from.release(std::mem::replace(&mut self.pages, fresh));
            self.home = Some(to_id);
            Some(count)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle as kv_oracle;
    use super::*;
    use crate::scenario::{ConfigError, Scenario};
    use proptest::prelude::*;

    #[test]
    fn pages_for_rounds_up_and_never_returns_zero() {
        assert_eq!(pages_for(0, 128), 1, "an empty context still owns one page");
        assert_eq!(pages_for(1, 128), 1);
        assert_eq!(pages_for(128, 128), 1);
        assert_eq!(pages_for(129, 128), 2);
        assert_eq!(pages_for(4096, 128), 32);
    }

    #[test]
    fn pool_alloc_release_round_trips_and_tracks_peak() {
        let mut pool = KvPool::bounded(4);
        assert_eq!((pool.capacity(), pool.free_pages(), pool.used_pages()), (4, 4, 0));
        let mut a = Vec::new();
        assert!(pool.alloc_extents(3, &mut a));
        assert_eq!(a, vec![Extent { start: 0, len: 3 }], "lowest-address-first, one run");
        assert_eq!((pool.free_pages(), pool.used_pages()), (1, 3));
        let mut b = Vec::new();
        assert!(!pool.alloc_extents(2, &mut b), "over-allocation must fail");
        assert!(b.is_empty());
        assert_eq!(pool.free_pages(), 1, "failed alloc leaves the pool unchanged");
        for e in a {
            pool.release_run(e);
        }
        assert_eq!((pool.free_pages(), pool.used_pages()), (4, 0));
        assert_eq!(pool.peak_used_pages(), 3);
    }

    #[test]
    fn fragmented_pool_hands_out_multiple_extents_but_never_refuses() {
        let mut pool = KvPool::bounded(8);
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        assert!(pool.alloc_extents(3, &mut a)); // pages 0..3
        assert!(pool.alloc_extents(2, &mut b)); // pages 3..5
        assert!(pool.alloc_extents(3, &mut c)); // pages 5..8
                                                // Free the two outer allocations: holes at 0..3 and 5..8.
        for e in a.drain(..).chain(c.drain(..)) {
            pool.release_run(e);
        }
        assert_eq!(pool.free_pages(), 6);
        // Six pages are free but no contiguous run of six exists: the
        // allocation must still succeed, as two extents.
        let mut d = Vec::new();
        assert!(pool.alloc_extents(6, &mut d), "free >= n must always succeed");
        assert_eq!(d, vec![Extent { start: 0, len: 3 }, Extent { start: 5, len: 3 }]);
        assert_eq!(pool.free_pages(), 0);
    }

    #[test]
    fn extent_runs_cross_bitmap_word_boundaries() {
        // 130 pages spans three bitmap words; one allocation must come back
        // as a single extent crossing both boundaries.
        let mut pool = KvPool::bounded(130);
        let mut a = Vec::new();
        assert!(pool.alloc_extents(130, &mut a));
        assert_eq!(a, vec![Extent { start: 0, len: 130 }]);
        assert_eq!((pool.free_pages(), pool.used_pages()), (0, 130));
        for e in a {
            pool.release_run(e);
        }
        assert_eq!(pool.free_pages(), 130);
        // After a release the summary level must see the words again.
        let mut b = Vec::new();
        assert!(pool.alloc_extents(65, &mut b));
        assert_eq!(b, vec![Extent { start: 0, len: 65 }]);
    }

    #[test]
    fn decode_growth_extends_the_last_extent_in_place() {
        let mut pool = KvPool::bounded(8);
        let mut table = PageTable::new();
        assert!(table.grow(0, &mut pool, 1));
        assert_eq!(table.extents(), &[Extent { start: 0, len: 1 }]);
        // The adjacent page is free: growth lengthens the extent, O(1).
        assert!(table.grow(0, &mut pool, 2));
        assert_eq!(table.extents(), &[Extent { start: 0, len: 2 }]);
        // A neighbour claims the next page; further growth needs a second
        // extent past the hole.
        let mut other = PageTable::new();
        assert!(other.grow(0, &mut pool, 1));
        assert_eq!(other.extents(), &[Extent { start: 2, len: 1 }]);
        assert!(table.grow(0, &mut pool, 4));
        assert_eq!(table.extents(), &[Extent { start: 0, len: 2 }, Extent { start: 3, len: 2 }]);
        assert_eq!(table.mapped_pages(), 4);
        assert_eq!(
            table.page_ids().collect::<Vec<_>>(),
            vec![PageId(0), PageId(1), PageId(3), PageId(4)]
        );
    }

    #[test]
    fn page_table_grows_homes_and_releases() {
        let mut pool = KvPool::bounded(8);
        let mut table = PageTable::new();
        assert_eq!(table.home(), None);
        assert!(table.admissible_on(0) && table.admissible_on(5));
        assert!(table.grow(2, &mut pool, 3));
        assert_eq!(table.mapped_pages(), 3);
        assert_eq!(table.home(), Some(2));
        assert!(table.admissible_on(2) && !table.admissible_on(0));
        // Growing to a smaller or equal target is a no-op.
        assert!(table.grow(2, &mut pool, 2));
        assert_eq!(table.mapped_pages(), 3);
        // Insufficient pool: table unchanged.
        assert!(!table.grow(2, &mut pool, 9));
        assert_eq!(table.mapped_pages(), 3);
        assert_eq!(pool.used_pages(), 3);
        assert_eq!(table.release_all(&mut pool), 3);
        assert_eq!(table.home(), None);
        assert_eq!(pool.free_pages(), 8);
    }

    #[test]
    fn migration_moves_pages_between_pools() {
        let mut src = KvPool::bounded(4);
        let mut dst = KvPool::bounded(3);
        let mut table = PageTable::new();
        assert!(table.grow(0, &mut src, 3));
        assert_eq!(table.migrate(&mut src, 1, &mut dst), Some(3));
        assert_eq!(table.home(), Some(1));
        assert_eq!((src.free_pages(), dst.free_pages()), (4, 0));
        assert_eq!(table.mapped_pages(), 3);
        // A destination without room leaves everything untouched.
        let mut tiny = KvPool::bounded(2);
        assert_eq!(table.migrate(&mut dst, 2, &mut tiny), None);
        assert_eq!(table.home(), Some(1));
        assert_eq!((dst.free_pages(), tiny.free_pages()), (0, 2));
        // Migrated pages release cleanly into the new home.
        assert_eq!(table.release_all(&mut dst), 3);
        assert_eq!(dst.free_pages(), 3);
    }

    #[test]
    #[should_panic(expected = "nothing to migrate")]
    fn empty_table_migration_rejected() {
        let mut a = KvPool::bounded(2);
        let mut b = KvPool::bounded(2);
        PageTable::new().migrate(&mut a, 1, &mut b);
    }

    #[test]
    #[should_panic(expected = "already the home pool")]
    fn self_migration_rejected() {
        let mut a = KvPool::bounded(2);
        let mut b = KvPool::bounded(2);
        let mut table = PageTable::new();
        table.grow(1, &mut a, 1);
        table.migrate(&mut a, 1, &mut b);
    }

    #[test]
    fn preemption_mode_and_slo_builders() {
        let kv = KvConfig::bounded(64, 32);
        assert_eq!(kv.preemption, PreemptionMode::Recompute, "recompute is the default");
        assert!(kv.slo.is_none(), "the SLO bound is off by default");
        let swap = kv.with_swap_preemption();
        assert_eq!(swap.preemption, PreemptionMode::Swap);
        let slo = SloConfig { target_ttft_cycles: 1_000, cycles_per_prefill_token: 10 };
        assert_eq!(kv.with_slo(slo).slo, Some(slo));
        let e = AdmissionError::SloViolation { projected_cycles: 1_200, target_cycles: 1_000 };
        assert!(e.to_string().contains("1200 cycles"), "{e}");
    }

    #[test]
    fn zero_slo_target_rejected() {
        let kv = KvConfig::unbounded()
            .with_slo(SloConfig { target_ttft_cycles: 0, cycles_per_prefill_token: 1 });
        let err = Scenario { kv, ..Scenario::new(64) }.build().err();
        assert_eq!(err, Some(ConfigError::Zero("kv.slo.target_ttft_cycles")));
        assert!(err.unwrap().to_string().contains("target_ttft_cycles must be non-zero"));
    }

    #[test]
    #[should_panic(expected = "homed to a different pool")]
    fn cross_pool_growth_rejected() {
        let mut pool = KvPool::bounded(2);
        let mut table = PageTable::new();
        table.grow(0, &mut pool, 1);
        table.grow(1, &mut pool, 2);
    }

    #[test]
    fn config_constructors_and_budget_sizing() {
        let unbounded = KvConfig::default();
        assert!(!unbounded.is_bounded());
        assert_eq!(unbounded.page_tokens, 128);
        let bounded = KvConfig::bounded(64, 512).with_max_live_sessions(32);
        assert!(bounded.is_bounded());
        assert_eq!(bounded.node_pages, Some(512));
        assert_eq!(bounded.max_live_sessions, Some(32));
        // Llama 2 7B: one 128-token page is 128 × 2 × 32 × 128 × 32 layers
        // × 2 B (BF16) = 64 MiB of KV; a 1 GiB budget holds 16 pages.
        let page_bytes = ModelId::Llama2_7b.config().kv_cache_bytes(128, 16);
        let budget = KvConfig::for_budget(ModelId::Llama2_7b, 16 * page_bytes, 128);
        assert_eq!(budget.node_pages, Some(16));
    }

    #[test]
    fn budget_below_one_page_rejected() {
        let kv = KvConfig::for_budget(ModelId::Llama2_7b, 1024, 128);
        assert_eq!(kv.node_pages, Some(0), "1 KiB holds less than one page");
        let err = Scenario { kv, ..Scenario::new(64) }.build().err();
        assert_eq!(err, Some(ConfigError::Zero("kv.node_pages")));
    }

    #[test]
    fn admission_errors_render() {
        let q = AdmissionError::QueueFull { live: 8, bound: 8 };
        assert!(q.to_string().contains("8 live sessions"));
        let f = AdmissionError::NeverFits { needed_pages: 40, capacity_pages: 16 };
        assert!(f.to_string().contains("40 KV pages"));
    }

    #[test]
    fn free_page_headroom_keeps_unbounded_distinct_from_bounded() {
        // Regression for the `unwrap_or(usize::MAX)` placement bug: the
        // unbounded state is a real variant, not an absent count, so a
        // bounded answer can never be confused with it.
        let unbounded = KvFreePages::Unbounded;
        assert_eq!(unbounded.ranking(), usize::MAX);
        assert!(unbounded.fits(usize::MAX));
        assert_eq!(unbounded.pages(), None);
        let bounded = KvFreePages::Pages(3);
        assert_eq!(bounded.ranking(), 3);
        assert!(bounded.fits(3));
        assert!(!bounded.fits(4));
        assert_eq!(bounded.pages(), Some(3));
        assert_ne!(unbounded, KvFreePages::Pages(usize::MAX), "MAX free is still bounded");
    }

    // One paging operation against a shared pool: table index plus a token
    // target (0 = release every page of that table).
    prop_compose! {
        fn kv_op_strategy()(
            table in 0usize..6,
            tokens in 0usize..600,
        ) -> (usize, usize) {
            (table, tokens)
        }
    }

    // One two-pool paging operation: table index, action (0 = grow, 1 = release
    // everything, 2 = migrate to the other pool) and a token target.
    prop_compose! {
        fn kv_migration_op_strategy()(
            table in 0usize..4,
            action in 0usize..3,
            tokens in 1usize..400,
        ) -> (usize, usize, usize) {
            (table, action, tokens)
        }
    }

    proptest! {
        #[test]
        fn kv_pool_never_double_maps_and_conserves_pages(
            capacity in 1usize..48,
            ops in prop::collection::vec(kv_op_strategy(), 1..80),
        ) {
            // Random grow/release sequences over six tables sharing one pool,
            // driven in lockstep against the retained pre-extent free-list
            // allocator (`kv::oracle`): every operation must have the same
            // outcome on both, every observable count must agree, and on the
            // extent side the free bitmap plus all mapped pages must equal the
            // capacity exactly with no page ever mapped by two tables at once.
            let page_tokens = 16;
            let mut pool = KvPool::bounded(capacity);
            let mut reference = kv_oracle::Pool::bounded(capacity);
            let mut tables: Vec<PageTable> = (0..6).map(|_| PageTable::new()).collect();
            let mut ref_tables: Vec<kv_oracle::Table> =
                (0..6).map(|_| kv_oracle::Table::new()).collect();
            for (t, tokens) in ops {
                if tokens == 0 {
                    let released = tables[t].release_all(&mut pool);
                    let ref_released = ref_tables[t].release_all(&mut reference);
                    prop_assert_eq!(released, ref_released, "release count diverged");
                } else {
                    let target = pages_for(tokens, page_tokens);
                    let grew = tables[t].grow(0, &mut pool, target);
                    let ref_grew = ref_tables[t].grow(0, &mut reference, target);
                    prop_assert_eq!(grew, ref_grew, "grow outcome diverged from the oracle");
                    prop_assert_eq!(grew, tables[t].mapped_pages() >= target);
                }
                // Every count the scheduler can observe agrees with the oracle.
                prop_assert_eq!(pool.free_pages(), reference.free_pages());
                prop_assert_eq!(pool.used_pages(), reference.used_pages());
                prop_assert_eq!(pool.peak_used_pages(), reference.peak_used_pages());
                for (a, b) in tables.iter().zip(&ref_tables) {
                    prop_assert_eq!(a.mapped_pages(), b.mapped_pages(), "table size diverged");
                    prop_assert_eq!(a.home(), b.home(), "table home diverged");
                }
                let mapped: usize = tables.iter().map(PageTable::mapped_pages).sum();
                prop_assert_eq!(pool.free_pages() + mapped, capacity, "page leak or double-count");
                let mut all: Vec<PageId> = tables.iter().flat_map(PageTable::page_ids).collect();
                let total = all.len();
                all.sort_unstable();
                all.dedup();
                prop_assert_eq!(all.len(), total, "a page is mapped by two tables");
                prop_assert!(all.iter().all(|p| (p.0 as usize) < capacity), "page id out of range");
                for table in &tables {
                    let from_extents: usize = table.extents().iter().map(|e| e.len as usize).sum();
                    prop_assert_eq!(
                        from_extents,
                        table.mapped_pages(),
                        "extent list disagrees with the cached page count"
                    );
                    prop_assert!(
                        table.extents().iter().all(|e| e.len > 0),
                        "a mapped extent may never be empty"
                    );
                }
            }
        }

        #[test]
        fn kv_migration_matches_the_pre_extent_oracle(
            cap_a in 1usize..24,
            cap_b in 1usize..24,
            ops in prop::collection::vec(kv_migration_op_strategy(), 1..60),
        ) {
            // Grow/release/migrate sequences over two pools, extent allocator
            // and pre-extent oracle in lockstep: migration outcomes (including
            // refusals when the target lacks room), page counts and homes must
            // never diverge, and pages must be conserved across both pools.
            let page_tokens = 16;
            let caps = [cap_a, cap_b];
            let mut pools = [KvPool::bounded(cap_a), KvPool::bounded(cap_b)];
            let mut refs = [kv_oracle::Pool::bounded(cap_a), kv_oracle::Pool::bounded(cap_b)];
            let mut tables: Vec<PageTable> = (0..4).map(|_| PageTable::new()).collect();
            let mut ref_tables: Vec<kv_oracle::Table> =
                (0..4).map(|_| kv_oracle::Table::new()).collect();
            for (t, action, tokens) in ops {
                let home = tables[t].home();
                prop_assert_eq!(home, ref_tables[t].home());
                match action {
                    // Grow on the current home (or pool 0 while homeless).
                    0 => {
                        let pool = home.unwrap_or(0);
                        let target = pages_for(tokens, page_tokens);
                        let grew = tables[t].grow(pool, &mut pools[pool], target);
                        let ref_grew = ref_tables[t].grow(pool, &mut refs[pool], target);
                        prop_assert_eq!(grew, ref_grew, "grow outcome diverged");
                    }
                    // Release everything.
                    1 => {
                        if let Some(pool) = home {
                            let a = tables[t].release_all(&mut pools[pool]);
                            let b = ref_tables[t].release_all(&mut refs[pool]);
                            prop_assert_eq!(a, b, "release count diverged");
                        }
                    }
                    // Migrate to the other pool (only legal with pages mapped).
                    _ => {
                        if let Some(from) = home {
                            let (a, b) = if from == 0 {
                                let [p0, p1] = &mut pools;
                                let [r0, r1] = &mut refs;
                                (tables[t].migrate(p0, 1, p1), ref_tables[t].migrate(r0, 1, r1))
                            } else {
                                let [p0, p1] = &mut pools;
                                let [r0, r1] = &mut refs;
                                (tables[t].migrate(p1, 0, p0), ref_tables[t].migrate(r1, 0, r0))
                            };
                            prop_assert_eq!(a, b, "migration outcome diverged");
                        }
                    }
                }
                for pool in 0..2 {
                    prop_assert_eq!(pools[pool].free_pages(), refs[pool].free_pages());
                    prop_assert_eq!(pools[pool].peak_used_pages(), refs[pool].peak_used_pages());
                    let mapped: usize = tables
                        .iter()
                        .filter(|tb| tb.home() == Some(pool))
                        .map(PageTable::mapped_pages)
                        .sum();
                    prop_assert_eq!(
                        pools[pool].free_pages() + mapped,
                        caps[pool],
                        "page leak or double-count in pool {}",
                        pool
                    );
                }
                for (a, b) in tables.iter().zip(&ref_tables) {
                    prop_assert_eq!(a.mapped_pages(), b.mapped_pages());
                    prop_assert_eq!(a.home(), b.home());
                }
            }
        }
    }
}
