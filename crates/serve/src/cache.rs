//! The sharded LRU result cache.
//!
//! Keyed by a content fingerprint of the canonical request — method +
//! fully resolved scenario spec in [`fastvg_wire::Json::canonical`] form
//! — so semantically identical requests (`{"benchmark": 3}` vs the same
//! device spelled out field by field) share one entry. Values are the
//! *serialized* result documents, which is what makes cache-hit
//! responses byte-identical to the cold run that populated them: the
//! daemon replays stored bytes, it never re-serializes.
//!
//! Sharding keeps the daemon's connection workers from serializing on
//! one mutex: each fingerprint maps to one of `shards` independently
//! locked LRU maps. Eviction is per shard, least-recently-used first.
//! FNV-64 fingerprints can collide in principle, so every entry stores
//! its full canonical key and a hit requires an exact key match — a
//! collision costs a miss, never a wrong answer.

use fastvg_wire::mix64;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total entries across all shards (`0` disables caching).
    pub capacity: usize,
    /// Number of independently locked shards (≥ 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 1024,
            shards: 8,
        }
    }
}

/// What the cache stores per request: the serialized result document
/// plus its outcome flag (kept structurally, never re-derived from the
/// bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult {
    /// The result document bytes, replayed verbatim on hit.
    pub body: Vec<u8>,
    /// Whether the document reports `"ok": true`.
    pub ok: bool,
}

impl From<SharedResult> for CachedResult {
    fn from(shared: SharedResult) -> Self {
        Self {
            body: shared.body.to_vec(),
            ok: shared.ok,
        }
    }
}

/// [`CachedResult`] with its body shared instead of copied: the daemon's
/// job table, `?wait` completions and the cache all hold one allocation
/// of each result document.
#[derive(Debug, Clone)]
pub(crate) struct SharedResult {
    pub(crate) body: Arc<[u8]>,
    pub(crate) ok: bool,
}

impl From<CachedResult> for SharedResult {
    fn from(result: CachedResult) -> Self {
        Self {
            body: result.body.into(),
            ok: result.ok,
        }
    }
}

#[derive(Debug)]
struct Entry {
    /// Full canonical key, verified on hit (fingerprints may collide).
    key: String,
    result: SharedResult,
    /// Last-touch tick for LRU ordering.
    touched: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<u64, Entry>,
}

/// A sharded, fingerprint-keyed LRU map from canonical requests to
/// serialized result documents.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    clock: AtomicU64,
}

impl ResultCache {
    /// An empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: config.capacity.div_ceil(shards),
            clock: AtomicU64::new(0),
        }
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<Shard> {
        // The fingerprint is raw FNV-1a, whose low bits correlate with
        // the last bytes hashed; `fnv % n` would pile structured key
        // families (same suffix, e.g. a shared backend tail) onto one
        // shard. Mix first so the reduction sees avalanche-quality bits.
        &self.shards[(mix64(fingerprint) as usize) % self.shards.len()]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up the stored result for `(fingerprint, key)`, refreshing
    /// its LRU position on hit.
    pub fn get(&self, fingerprint: u64, key: &str) -> Option<CachedResult> {
        self.get_shared(fingerprint, key).map(CachedResult::from)
    }

    /// [`ResultCache::get`] sharing the stored body instead of copying it.
    pub(crate) fn get_shared(&self, fingerprint: u64, key: &str) -> Option<SharedResult> {
        if self.per_shard_capacity == 0 {
            return None;
        }
        let tick = self.tick();
        let mut shard = self.shard(fingerprint).lock().expect("cache poisoned");
        let entry = shard.entries.get_mut(&fingerprint)?;
        if entry.key != key {
            return None; // fingerprint collision: treat as a miss
        }
        entry.touched = tick;
        Some(entry.result.clone())
    }

    /// Looks up whatever is stored under `fingerprint` alone, returning
    /// the entry's full canonical key alongside its result so the caller
    /// can do (or skip) its own collision check. This is the cache-peer
    /// lookup: a sibling probing `GET /cache/<fingerprint>` without the
    /// canonical key gets the entry plus the key that owns it.
    /// Refreshes the LRU position like [`ResultCache::get`].
    pub(crate) fn peek(&self, fingerprint: u64) -> Option<(String, SharedResult)> {
        if self.per_shard_capacity == 0 {
            return None;
        }
        let tick = self.tick();
        let mut shard = self.shard(fingerprint).lock().expect("cache poisoned");
        let entry = shard.entries.get_mut(&fingerprint)?;
        entry.touched = tick;
        Some((entry.key.clone(), entry.result.clone()))
    }

    /// Stores a result under `(fingerprint, key)`, evicting the shard's
    /// least-recently-used entry when over capacity.
    pub fn insert(&self, fingerprint: u64, key: &str, result: CachedResult) {
        self.insert_shared(fingerprint, key, result.into());
    }

    /// [`ResultCache::insert`] of a body the caller keeps sharing.
    pub(crate) fn insert_shared(&self, fingerprint: u64, key: &str, result: SharedResult) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let tick = self.tick();
        let mut shard = self.shard(fingerprint).lock().expect("cache poisoned");
        shard.entries.insert(
            fingerprint,
            Entry {
                key: key.to_string(),
                result,
                touched: tick,
            },
        );
        while shard.entries.len() > self.per_shard_capacity {
            let oldest = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(&fp, _)| fp)
                .expect("non-empty over capacity");
            shard.entries.remove(&oldest);
        }
    }

    /// Total live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache poisoned").entries.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize, shards: usize) -> ResultCache {
        ResultCache::new(CacheConfig { capacity, shards })
    }

    fn ok(body: &[u8]) -> CachedResult {
        CachedResult {
            body: body.to_vec(),
            ok: true,
        }
    }

    #[test]
    fn stores_and_replays_bytes_with_outcome() {
        let c = cache(8, 2);
        assert!(c.get(1, "k1").is_none());
        c.insert(1, "k1", ok(b"body-1"));
        assert_eq!(c.get(1, "k1"), Some(ok(b"body-1")));
        c.insert(
            2,
            "k2",
            CachedResult {
                body: b"failure".to_vec(),
                ok: false,
            },
        );
        assert!(!c.get(2, "k2").unwrap().ok, "outcome flag is structural");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn collisions_miss_instead_of_lying() {
        let c = cache(8, 1);
        c.insert(42, "key-a", ok(b"a"));
        assert!(c.get(42, "key-b").is_none(), "same fingerprint, other key");
        assert!(c.get(42, "key-a").is_some());
    }

    #[test]
    fn evicts_least_recently_used_per_shard() {
        let c = cache(2, 1);
        c.insert(1, "k1", ok(b"1"));
        c.insert(2, "k2", ok(b"2"));
        assert!(c.get(1, "k1").is_some()); // refresh k1; k2 is now LRU
        c.insert(3, "k3", ok(b"3"));
        assert_eq!(c.len(), 2);
        assert!(c.get(2, "k2").is_none(), "LRU entry evicted");
        assert!(c.get(1, "k1").is_some());
        assert!(c.get(3, "k3").is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let c = cache(0, 4);
        c.insert(1, "k", ok(b"x"));
        assert!(c.get(1, "k").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn shards_partition_the_key_space() {
        // Headroom over 64 entries: the mixed shard assignment is not a
        // perfectly even split, so a tight capacity would evict.
        let c = cache(256, 8);
        for fp in 0..64u64 {
            c.insert(fp, &format!("k{fp}"), ok(&[fp as u8]));
        }
        assert_eq!(c.len(), 64);
        for fp in 0..64u64 {
            assert_eq!(c.get(fp, &format!("k{fp}")), Some(ok(&[fp as u8])));
        }
    }

    #[test]
    fn peek_returns_key_and_result_without_verification() {
        let c = cache(8, 2);
        assert!(c.peek(7).is_none());
        c.insert(7, "canonical-7", ok(b"body-7"));
        let (key, result) = c.peek(7).expect("entry present");
        assert_eq!(key, "canonical-7");
        assert_eq!(CachedResult::from(result), ok(b"body-7"));
    }

    #[test]
    fn structured_fingerprints_spread_across_shards() {
        // Fingerprints sharing their low 32 bits (zero) — the family a
        // raw `fnv % shards` reduction would pile onto shard 0. With the
        // mixed reduction every shard must see a fair share.
        let shards = 8;
        let c = cache(4096, shards);
        let n = 1024u64;
        for i in 0..n {
            c.insert(i << 32, &format!("k{i}"), ok(&[1]));
        }
        assert_eq!(c.len(), n as usize, "no collisions among test keys");
        let per_shard: Vec<usize> = c
            .shards
            .iter()
            .map(|s| s.lock().unwrap().entries.len())
            .collect();
        let expected = n as usize / shards;
        for (i, &count) in per_shard.iter().enumerate() {
            assert!(
                count > expected / 2 && count < expected * 2,
                "shard {i} holds {count} of {n} entries (expected ~{expected}): {per_shard:?}"
            );
        }
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = std::sync::Arc::new(cache(128, 8));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..200u64 {
                        let fp = (t * 1000 + i) % 96;
                        let key = format!("k{fp}");
                        c.insert(fp, &key, ok(key.as_bytes()));
                        if let Some(result) = c.get(fp, &key) {
                            assert_eq!(result.body, key.as_bytes());
                        }
                    }
                });
            }
        });
        assert!(c.len() <= 128);
    }
}
