//! A sharded TTL cache driven by the simulation clock — the Rails
//! in-memory-cache analog on the dashboard's server side.

use crate::stats::CacheStats;
use hpcdash_simtime::{SharedClock, Timestamp};
use parking_lot::RwLock;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const SHARDS: usize = 16;

/// The most entries one shard holds.
const SHARD_CAP: usize = 256;

/// The most entries the whole cache holds.
pub const MAX_ENTRIES: usize = SHARDS * SHARD_CAP;

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    stored_at: Timestamp,
    ttl_secs: u64,
}

impl<V> Entry<V> {
    fn expired(&self, now: Timestamp) -> bool {
        now.since(self.stored_at) >= self.ttl_secs
    }
}

/// A thread-safe string-keyed cache with per-entry TTLs.
///
/// Sharded so that widget routes refreshing different data sources do not
/// contend on one lock (the hpc-parallel guides' standard remedy for hot
/// shared maps). Expired entries stay readable as serve-stale copies until
/// a shard is full (256 entries): a new key arriving at a full shard first
/// drops that shard's expired entries, then its oldest (earliest stored,
/// ties broken by key).
pub struct TtlCache<V> {
    shards: Vec<RwLock<HashMap<String, Entry<V>>>>,
    clock: SharedClock,
    stats: Arc<CacheStats>,
}

impl<V: Clone> TtlCache<V> {
    pub fn new(clock: SharedClock) -> TtlCache<V> {
        TtlCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            clock,
            stats: Arc::new(CacheStats::new()),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, Entry<V>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Fresh value for `key`, if present and unexpired.
    pub fn get(&self, key: &str) -> Option<V> {
        self.get_with_age(key).map(|(v, _)| v)
    }

    /// Fresh value plus its age in seconds.
    pub fn get_with_age(&self, key: &str) -> Option<(V, u64)> {
        let now = self.clock.now();
        let shard = self.shard(key).read();
        match shard.get(key) {
            Some(e) if !e.expired(now) => {
                self.stats.hit();
                Some((e.value.clone(), now.since(e.stored_at)))
            }
            Some(_) => {
                self.stats.miss();
                self.stats.expiration();
                None
            }
            None => {
                self.stats.miss();
                None
            }
        }
    }

    /// The value even if expired, with its age in seconds and freshness —
    /// the serve-stale-on-error read: when a refresh fails, the caller
    /// returns this last-known-good value labelled "from N seconds ago".
    /// No stats side effects; the caller records the outcome it chose.
    pub fn get_stale_with_age(&self, key: &str) -> Option<(V, u64, bool)> {
        let now = self.clock.now();
        let shard = self.shard(key).read();
        shard
            .get(key)
            .map(|e| (e.value.clone(), now.since(e.stored_at), !e.expired(now)))
    }

    pub fn insert(&self, key: impl Into<String>, value: V, ttl_secs: u64) {
        let key = key.into();
        let now = self.clock.now();
        let mut shard = self.shard(&key).write();
        if shard.len() >= SHARD_CAP && !shard.contains_key(&key) {
            shard.retain(|_, e| !e.expired(now));
            if shard.len() >= SHARD_CAP {
                let oldest = shard
                    .iter()
                    .min_by_key(|&(k, e)| (e.stored_at, k))
                    .map(|(k, _)| k.clone());
                if let Some(k) = oldest {
                    shard.remove(&k);
                }
            }
        }
        let entry = Entry {
            value,
            stored_at: now,
            ttl_secs,
        };
        shard.insert(key, entry);
        self.stats.insert();
    }

    pub fn invalidate(&self, key: &str) -> bool {
        self.shard(key).write().remove(key).is_some()
    }

    /// Drop every expired entry; returns how many were removed.
    pub fn purge_expired(&self) -> usize {
        let now = self.clock.now();
        let mut removed = 0;
        for shard in &self.shards {
            let mut map = shard.write();
            let before = map.len();
            map.retain(|_, e| !e.expired(now));
            removed += before - map.len();
        }
        removed
    }

    /// Entries currently stored (fresh or stale).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    pub fn stats(&self) -> &Arc<CacheStats> {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::SimClock;

    fn cache() -> (TtlCache<String>, SimClock) {
        let clock = SimClock::new(Timestamp(0));
        (TtlCache::new(clock.shared()), clock)
    }

    #[test]
    fn basic_get_insert() {
        let (c, _clock) = cache();
        assert_eq!(c.get("k"), None);
        c.insert("k", "v".to_string(), 30);
        assert_eq!(c.get("k"), Some("v".to_string()));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn entries_expire_with_sim_time() {
        let (c, clock) = cache();
        c.insert("squeue:alice", "jobs".to_string(), 30);
        clock.advance(29);
        assert!(c.get("squeue:alice").is_some());
        clock.advance(1);
        assert_eq!(c.get("squeue:alice"), None, "expired exactly at ttl");
        // Still present as stale.
        assert_eq!(
            c.get_stale_with_age("squeue:alice"),
            Some(("jobs".to_string(), 30, false))
        );
    }

    #[test]
    fn age_is_tracked() {
        let (c, clock) = cache();
        c.insert("k", "v".to_string(), 100);
        clock.advance(42);
        assert_eq!(c.get_with_age("k"), Some(("v".to_string(), 42)));
    }

    #[test]
    fn per_entry_ttls_are_independent() {
        let (c, clock) = cache();
        c.insert("fast", "a".to_string(), 30); // squeue-style
        c.insert("slow", "b".to_string(), 3_600); // announcements-style
        clock.advance(60);
        assert_eq!(c.get("fast"), None);
        assert_eq!(c.get("slow"), Some("b".to_string()));
    }

    #[test]
    fn reinsert_refreshes() {
        let (c, clock) = cache();
        c.insert("k", "v1".to_string(), 30);
        clock.advance(29);
        c.insert("k", "v2".to_string(), 30);
        clock.advance(29);
        assert_eq!(c.get("k"), Some("v2".to_string()));
    }

    #[test]
    fn purge_and_invalidate() {
        let (c, clock) = cache();
        for i in 0..20 {
            c.insert(
                format!("k{i}"),
                "v".to_string(),
                if i % 2 == 0 { 10 } else { 100 },
            );
        }
        clock.advance(50);
        assert_eq!(c.purge_expired(), 10);
        assert_eq!(c.len(), 10);
        assert!(c.invalidate("k1"));
        assert!(!c.invalidate("k1"));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn full_shard_drops_expired_then_oldest() {
        let (c, clock) = cache();
        // Keys that all land in one shard.
        let target = c.shard("k0");
        let keys: Vec<String> = (0..)
            .map(|i| format!("k{i}"))
            .filter(|k| std::ptr::eq(c.shard(k), target))
            .take(SHARD_CAP + 11)
            .collect();
        // Fill the shard a second apart; the first ten live five seconds.
        for (i, k) in keys[..SHARD_CAP].iter().enumerate() {
            c.insert(k.clone(), i.to_string(), if i < 10 { 5 } else { 10_000 });
            clock.advance(1);
        }
        assert_eq!(c.len(), SHARD_CAP);
        assert!(
            c.get_stale_with_age(&keys[0]).is_some(),
            "below the cap, expired copies stay for serve-stale"
        );
        // Rewriting a present key at the cap evicts nothing.
        c.insert(keys[20].clone(), "again".to_string(), 10_000);
        assert_eq!(c.len(), SHARD_CAP);
        // A new key at the cap drops the shard's expired entries first...
        c.insert(keys[SHARD_CAP].clone(), "new".to_string(), 10_000);
        assert_eq!(c.len(), SHARD_CAP - 9);
        assert!(keys[..10].iter().all(|k| c.get_stale_with_age(k).is_none()));
        // ...and once none are expired, the oldest stored entry.
        for k in &keys[SHARD_CAP + 1..] {
            clock.advance(1);
            c.insert(k.clone(), "new".to_string(), 10_000);
        }
        assert_eq!(c.len(), SHARD_CAP, "the cap holds");
        assert!(c.get_stale_with_age(&keys[10]).is_none(), "oldest evicted");
        assert!(c.get_stale_with_age(&keys[11]).is_some());
        assert!(
            c.get_stale_with_age(&keys[20]).is_some(),
            "rewrite made it young"
        );
    }

    #[test]
    fn key_flood_stays_under_the_cap() {
        let (c, _clock) = cache();
        for i in 0..20_000 {
            c.insert(format!("myjobs:alice:p{i}"), i.to_string(), 120);
        }
        assert!(c.len() <= MAX_ENTRIES, "{} entries", c.len());
        assert!(
            c.get("myjobs:alice:p19999").is_some(),
            "the newest insert survives"
        );
    }

    #[test]
    fn stats_track_hits_misses_expirations() {
        let (c, clock) = cache();
        c.insert("k", "v".to_string(), 10);
        c.get("k");
        c.get("nope");
        clock.advance(11);
        c.get("k");
        let snap = c.stats().snapshot();
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.misses, 2);
        assert_eq!(snap.expirations, 1);
        assert_eq!(snap.inserts, 1);
    }

    #[test]
    fn concurrent_access() {
        let clock = SimClock::new(Timestamp(0));
        let c = Arc::new(TtlCache::<u64>::new(clock.shared()));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    let key = format!("k{}", (t * 1_000 + i) % 64);
                    c.insert(key.clone(), i, 60);
                    let _ = c.get(&key);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 64);
        assert!(c.stats().snapshot().hits > 0);
    }
}
