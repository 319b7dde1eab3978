//! A shape-keyed memo cache with borrowed two-phase lookup and
//! segmented-LRU eviction.
//!
//! The per-accelerator slice memo keys the op costs of one micro-batch
//! slice by the slice plus a handful of `Copy` flags. The serving hot path
//! looks slices up on every estimate the executor's front memo misses, so
//! two properties matter:
//!
//! * **Hits must not allocate.** The caller hashes its key first
//!   ([`ShapeCache::get`] takes the precomputed hash plus an equality
//!   predicate), so a steady-state lookup is a hash, a bucket probe and a
//!   key comparison; only a miss builds an owned key
//!   ([`ShapeCache::insert`]).
//! * **Eviction must keep hot shapes.** A full cache evicts its
//!   least-recently-used *half* (a segmented-LRU sweep) instead of clearing
//!   wholesale, so the steady-state decode shapes that hit every step
//!   survive a flood of cold one-off shapes.

#![expect(
    clippy::disallowed_types,
    reason = "the one HashMap of the workspace: its keys are precomputed deterministic hashes, its \
              lookups never depend on visit order, and every visit of its entries carries its own \
              reasoned expect"
)]
#![cfg_attr(
    not(test),
    warn(
        clippy::iter_over_hash_type,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use mugi_numerics::cast::u64_from_usize;
use std::hash::{BuildHasher, Hash, Hasher};

/// Deterministic multiply–rotate hasher (Fx-style) for shape keys: one
/// multiply per written word instead of SipHash's per-byte rounds. The
/// serving hot path hashes a micro-batch shape once per scheduler step, so
/// hashing cost is first-order; collision quality only costs an extra
/// equality-predicate probe (entries chain per bucket), and there is no
/// per-process seed, so hashes — like everything else in the simulator —
/// are process-deterministic.
#[derive(Clone, Debug, Default)]
struct ShapeHasher(u64);

/// Odd multiplier from the golden ratio (the Firefox/rustc hash constant).
const SHAPE_HASH_K: u64 = 0x517c_c1b7_2722_0a95;

impl ShapeHasher {
    #[inline]
    fn round(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(SHAPE_HASH_K);
    }
}

impl Hasher for ShapeHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold the well-mixed high bits into the low bits: multiply-based
        // hashes propagate entropy upward, while the bucket map indexes by
        // the low bits.
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            #[expect(
                clippy::indexing_slicing,
                reason = "chunks(8) yields slices of at most 8 bytes, so the range is always in bounds"
            )]
            word[..chunk.len()].copy_from_slice(chunk);
            self.round(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.round(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.round(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.round(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.round(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.round(v as u64);
    }
}

/// Build-hasher for the bucket map, whose keys *are* precomputed 64-bit
/// shape hashes: pass them through instead of re-hashing (the default
/// `HashMap` state would SipHash every already-hashed key again on each
/// probe).
#[derive(Clone, Debug, Default)]
struct Prehashed(u64);

impl BuildHasher for Prehashed {
    type Hasher = Prehashed;

    #[inline]
    fn build_hasher(&self) -> Prehashed {
        Prehashed(0)
    }
}

impl Hasher for Prehashed {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Unused by `u64` keys (which write through `write_u64`); fold
        // bytes anyway so the hasher stays total.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(SHAPE_HASH_K);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// One cached entry: the owned key, the value and the last-use tick that
/// drives eviction.
#[derive(Clone, Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    last_use: u64,
}

/// The hash-indexed buckets behind [`ShapeCache`], in a module of their
/// own so the map stays private to it. Clippy cannot see a `HashMap`
/// consumed by value (`into_iter`, `extend`), so the map offers no
/// iteration at all beyond this module: `ShapeCache` can only look up, push
/// and evict, and a by-value visit of the map there does not compile.
mod bucket_map {
    use super::{Prehashed, Slot};
    use std::collections::HashMap;

    /// Entries chained per precomputed hash, with their total count.
    #[derive(Clone, Debug)]
    pub(super) struct BucketMap<K, V> {
        /// Hash-indexed buckets; collisions chain in the bucket's `Vec`.
        /// The map's keys are already hashes, so the state passes them
        /// through.
        buckets: HashMap<u64, Vec<Slot<K, V>>, Prehashed>,
        /// Total entries across buckets.
        len: usize,
    }

    impl<K, V> BucketMap<K, V> {
        pub(super) fn new() -> Self {
            BucketMap { buckets: HashMap::default(), len: 0 }
        }

        /// Number of entries across buckets.
        pub(super) fn len(&self) -> usize {
            self.len
        }

        /// The entry with `hash` whose key satisfies `matches`.
        pub(super) fn get_mut(
            &mut self,
            hash: u64,
            matches: impl Fn(&K) -> bool,
        ) -> Option<&mut Slot<K, V>> {
            self.buckets.get_mut(&hash)?.iter_mut().find(|s| matches(&s.key))
        }

        /// Appends `slot` to the bucket of `hash`, creating the bucket if
        /// it is new.
        pub(super) fn push(&mut self, hash: u64, slot: Slot<K, V>) {
            // Almost every bucket holds a single entry, so size new buckets
            // for one instead of `Vec`'s default first growth to four.
            self.buckets.entry(hash).or_insert_with(|| Vec::with_capacity(1)).push(slot);
            self.len += 1;
        }

        /// Evicts the least-recently-used half of the entries (ties
        /// impossible: the tick is strictly monotone) and returns how many
        /// went. The recently-hit half — the hot steady-state shapes —
        /// survives.
        pub(super) fn evict_lru_half(&mut self) -> usize {
            #[expect(
                clippy::disallowed_methods,
                reason = "select_nth_unstable finds the median tick; any visit order yields the same threshold"
            )]
            let mut ticks: Vec<u64> = self
                .buckets
                .values()
                .flat_map(|bucket| bucket.iter().map(|s| s.last_use))
                .collect();
            let mid = ticks.len() / 2;
            let (_, &mut threshold, _) = ticks.select_nth_unstable(mid);
            #[expect(
                clippy::disallowed_methods,
                reason = "retain applies a pure per-entry predicate; the surviving set is order-independent"
            )]
            self.buckets.retain(|_, bucket| {
                bucket.retain(|s| s.last_use >= threshold);
                !bucket.is_empty()
            });
            #[expect(
                clippy::disallowed_methods,
                reason = "commutative usize sum over bucket lengths"
            )]
            let len = self.buckets.values().map(Vec::len).sum();
            let evicted = self.len - len;
            self.len = len;
            evicted
        }

        /// The length and capacity of the bucket of `hash`.
        #[cfg(test)]
        pub(super) fn bucket_shape(&mut self, hash: u64) -> Option<(usize, usize)> {
            self.buckets.get_mut(&hash).map(|bucket| (bucket.len(), bucket.capacity()))
        }
    }
}

/// Work counters of a shape cache (the accelerator's slice memo), read
/// beside its entry count.
///
/// Every lookup is a hit or a miss; a miss is normally followed by one
/// insert, so `misses == entries + evictions` unless two racing misses
/// inserted the same key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found their entry.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries dropped by LRU-half sweeps.
    pub evictions: u64,
    /// Entries resident now.
    pub entries: usize,
}

/// A capacity-capped cache keyed by a precomputed hash plus a caller-side
/// equality predicate, so lookups never materialize an owned key.
#[derive(Clone, Debug)]
pub(crate) struct ShapeCache<K, V> {
    /// The entries, reachable only through lookup, push and eviction.
    slots: bucket_map::BucketMap<K, V>,
    /// Entry cap: an insert at the cap evicts the LRU half first.
    cap: usize,
    /// Monotone access clock; every hit and insert stamps the entry.
    tick: u64,
    /// Hits, misses and evictions so far (`entries` is filled on read).
    stats: CacheStats,
}

impl<K, V: Clone> ShapeCache<K, V> {
    /// An empty cache holding at most `cap` entries.
    pub(crate) fn with_cap(cap: usize) -> Self {
        assert!(cap >= 2, "a capped cache needs room for at least two entries");
        ShapeCache {
            slots: bucket_map::BucketMap::new(),
            cap,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of cached entries.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The work counters so far, with the current entry count.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats { entries: self.slots.len(), ..self.stats }
    }

    /// Shrinks the cap so tests can exercise eviction without flooding
    /// thousands of real entries.
    #[cfg(test)]
    pub(crate) fn set_cap(&mut self, cap: usize) {
        assert!(cap >= 2, "a capped cache needs room for at least two entries");
        self.cap = cap;
    }

    /// Looks up the entry with `hash` whose key satisfies `matches`,
    /// bumping its last-use tick. The caller hashes the borrowed shape via
    /// [`shape_hash`]-style helpers, so hits allocate nothing.
    pub(crate) fn get(&mut self, hash: u64, matches: impl Fn(&K) -> bool) -> Option<V> {
        let Some(slot) = self.slots.get_mut(hash, matches) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.tick += 1;
        slot.last_use = self.tick;
        Some(slot.value.clone())
    }

    /// Inserts `value` under `(hash, key)`, replacing an existing entry
    /// whose key satisfies `matches` (two racing misses on one shape insert
    /// the same pure-function result twice; the second write wins
    /// harmlessly). At the cap the least-recently-used half is evicted
    /// first.
    pub(crate) fn insert(&mut self, hash: u64, key: K, value: V, matches: impl Fn(&K) -> bool) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.slots.get_mut(hash, matches) {
            slot.value = value;
            slot.last_use = tick;
            return;
        }
        if self.slots.len() >= self.cap {
            self.stats.evictions += u64_from_usize(self.slots.evict_lru_half());
        }
        self.slots.push(hash, Slot { key, value, last_use: tick });
    }
}

/// Hashes a borrowed shape with the process-deterministic `ShapeHasher`.
/// The slice memo keys on this, so a hit costs one multiply-per-word pass
/// over the key — never a SipHash round. Public so front-side memos (the
/// runtime executor's dispatch cache) can index by the same deterministic
/// hash.
pub fn shape_hash(parts: &impl Hash) -> u64 {
    let mut hasher = ShapeHasher::default();
    parts.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert(cache: &mut ShapeCache<u64, u64>, key: u64) {
        cache.insert(shape_hash(&key), key, key * 10, |&k| k == key);
    }

    fn get(cache: &mut ShapeCache<u64, u64>, key: u64) -> Option<u64> {
        cache.get(shape_hash(&key), |&k| k == key)
    }

    #[test]
    fn hit_miss_and_replace() {
        let mut cache = ShapeCache::with_cap(8);
        assert_eq!(get(&mut cache, 1), None);
        insert(&mut cache, 1);
        assert_eq!(get(&mut cache, 1), Some(10));
        assert_eq!(cache.len(), 1);
        // Re-inserting the same key replaces, never duplicates.
        cache.insert(shape_hash(&1u64), 1, 99, |&k| k == 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(get(&mut cache, 1), Some(99));
    }

    #[test]
    fn eviction_keeps_the_recently_used_half() {
        let mut cache = ShapeCache::with_cap(8);
        for key in 0..8 {
            insert(&mut cache, key);
        }
        assert_eq!(cache.len(), 8);
        // Touch the "hot" upper half, then overflow: the untouched lower
        // half must be the one evicted.
        for key in 4..8 {
            assert!(get(&mut cache, key).is_some());
        }
        insert(&mut cache, 100);
        assert!(cache.len() <= 5, "eviction must drop about half, kept {}", cache.len());
        for key in 4..8 {
            assert!(get(&mut cache, key).is_some(), "recently-used key {key} was evicted");
        }
        assert_eq!(get(&mut cache, 100), Some(1000), "the triggering insert must land");
        for key in 0..4 {
            assert_eq!(get(&mut cache, key), None, "cold key {key} should have been evicted");
        }
    }

    #[test]
    fn hottest_key_survives_sustained_cold_floods() {
        // The regression the segmented sweep exists for: a hot steady-state
        // key touched between cold inserts must survive arbitrarily many
        // eviction rounds (the old wholesale clear() dropped it).
        let mut cache = ShapeCache::with_cap(16);
        insert(&mut cache, 7777);
        for cold in 0..10_000u64 {
            insert(&mut cache, 10_000 + cold);
            if cold % 4 == 0 {
                assert!(get(&mut cache, 7777).is_some(), "hot key evicted after {cold} inserts");
            }
        }
        assert!(get(&mut cache, 7777).is_some());
        assert!(cache.len() <= 16);
    }

    #[test]
    fn stats_count_hits_misses_and_evicted_entries() {
        let mut cache = ShapeCache::with_cap(4);
        for key in 0..4 {
            assert_eq!(get(&mut cache, key), None);
            insert(&mut cache, key);
        }
        assert!(get(&mut cache, 3).is_some());
        // The fifth key finds the cache full: the two oldest entries go.
        assert_eq!(get(&mut cache, 4), None);
        insert(&mut cache, 4);
        let stats = cache.stats();
        assert_eq!(stats, CacheStats { hits: 1, misses: 5, evictions: 2, entries: 3 });
        assert_eq!(stats.misses, stats.evictions + stats.entries as u64);
    }

    #[test]
    fn a_single_insert_sizes_its_bucket_for_one_entry() {
        let mut cache = ShapeCache::with_cap(8);
        insert(&mut cache, 1);
        assert_eq!(cache.slots.bucket_shape(shape_hash(&1u64)), Some((1, 1)));
    }

    #[test]
    fn hash_collisions_chain_within_a_bucket() {
        // Force two distinct keys into one bucket by lying about the hash:
        // the equality predicate must disambiguate them.
        let mut cache: ShapeCache<u64, u64> = ShapeCache::with_cap(8);
        cache.insert(42, 1, 10, |&k| k == 1);
        cache.insert(42, 2, 20, |&k| k == 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(42, |&k| k == 1), Some(10));
        assert_eq!(cache.get(42, |&k| k == 2), Some(20));
        assert_eq!(cache.get(42, |&k| k == 3), None);
    }
}
