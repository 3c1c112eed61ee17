//! The byte cache: pre-serialized responses keyed by view.
//!
//! One type serves two instances. The router's caches the rendered bytes of
//! every route registered with [`crate::Router::get_cached`]; the
//! `/slurm/v0` family keeps its own for serialized snapshot bodies. A
//! repeat request becomes a hash lookup plus an `Arc` clone.
//!
//! Validity is the intersection of two signals: the publisher's version
//! (snapshot seq; mismatch = the world changed) and an optional TTL on the
//! *simulation* clock. Widget routes set a TTL that mirrors the widget
//! cache's, so a render can never outlive the data layer beneath it;
//! `/slurm/v0` bodies are valid for exactly one version
//! ([`CacheDecision::versioned`]).
//!
//! Entries outlive their validity on purpose: [`RenderCache::last_any`] is
//! the serve-stale fallback when a source fails, and
//! [`RenderCache::purge_below`] drops dead epochs after a crash recovery.
//! Memory is bounded by a constant entry count: a put of a new key into a
//! full cache first evicts the least recently written entry. The router
//! derives a strong ETag from the bytes it stores; other callers store
//! none, so a large `/slurm/v0` body is never hashed.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The most entries one cache holds. Keys name real views (route, path,
/// identity, scopes) and never query parameters, so normal traffic stays
/// far below it.
pub(crate) const MAX_ENTRIES: usize = 4_096;

/// A route's answer to "may this request be served from cached bytes?"
#[derive(Debug, Clone)]
pub struct CacheDecision {
    /// Full identity of the view: route | subject | scope fingerprint
    /// (anything that changes the bytes must be in here).
    pub key: String,
    /// Publisher version (cluster snapshot seq) the entry must match.
    pub version: u64,
    /// Max age on the sim clock; `u64::MAX` means no TTL.
    pub ttl_secs: u64,
    /// Current sim time, for the age check.
    pub now_secs: u64,
}

impl CacheDecision {
    /// A decision valid for as long as `version` is current, with no TTL.
    pub fn versioned(key: String, version: u64) -> CacheDecision {
        CacheDecision {
            key,
            version,
            ttl_secs: u64::MAX,
            now_secs: 0,
        }
    }
}

/// One cached body.
#[derive(Clone)]
pub struct CachedRender {
    pub body: Arc<[u8]>,
    pub content_type: String,
    /// Strong validator the router stores with its renders; `None` for
    /// callers that send no ETag.
    pub etag: Option<Arc<str>>,
    /// The publisher version the body was built from.
    pub version: u64,
    born_secs: u64,
    /// Write order, for eviction.
    written: u64,
}

#[derive(Default)]
struct Entries {
    map: HashMap<String, CachedRender>,
    writes: u64,
}

/// Version-checked, TTL-aware, bounded byte store.
#[derive(Default)]
pub struct RenderCache {
    entries: Mutex<Entries>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RenderCache {
    pub fn new() -> RenderCache {
        RenderCache::default()
    }

    /// The entry for `d.key`, if it is still valid under `d` (same
    /// publisher version *and* younger than the TTL).
    pub fn get(&self, d: &CacheDecision) -> Option<CachedRender> {
        let entries = self.entries.lock();
        match entries.map.get(&d.key) {
            Some(e)
                if e.version == d.version
                    && d.now_secs.saturating_sub(e.born_secs) < d.ttl_secs =>
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.clone())
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store `body` for `d.key`. A new key arriving at the entry bound
    /// evicts the least recently written entry first.
    pub fn put(
        &self,
        d: &CacheDecision,
        body: Arc<[u8]>,
        content_type: &str,
        etag: Option<Arc<str>>,
    ) {
        let mut entries = self.entries.lock();
        entries.writes += 1;
        let entry = CachedRender {
            body,
            content_type: content_type.to_string(),
            etag,
            version: d.version,
            born_secs: d.now_secs,
            written: entries.writes,
        };
        if entries.map.len() >= MAX_ENTRIES && !entries.map.contains_key(&d.key) {
            let oldest = entries
                .map
                .iter()
                .min_by_key(|(_, e)| e.written)
                .map(|(k, _)| k.clone());
            if let Some(k) = oldest {
                entries.map.remove(&k);
            }
        }
        entries.map.insert(d.key.clone(), entry);
    }

    /// The last entry stored for `key`, whatever its version or age — the
    /// stale fallback when the source is failing. Counts neither a hit nor
    /// a miss.
    pub fn last_any(&self, key: &str) -> Option<CachedRender> {
        self.entries.lock().map.get(key).cloned()
    }

    /// Drop every entry built from a publisher version below `version`.
    /// Called after a daemon crash-recovery: pre-crash epochs are dead and
    /// their bytes may describe rolled-back state, so not even
    /// [`RenderCache::last_any`] may return them. Returns how many entries
    /// were purged.
    pub fn purge_below(&self, version: u64) -> usize {
        let mut entries = self.entries.lock();
        let before = entries.map.len();
        entries.map.retain(|_, e| e.version >= version);
        before - entries.map.len()
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.entries.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Strong ETag for a body: quoted FNV-1a/64 of the content. Content-hashed
/// (not seq-prefixed) so byte-identical renders across epochs revalidate.
pub(crate) fn etag_for(body: &[u8]) -> Arc<str> {
    Arc::from(format!("\"{:016x}\"", fnv64(body)))
}

/// FNV-1a, 64-bit — tiny, dependency-free, and plenty for cache validators
/// (collisions only risk an extra render, never wrong bytes).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(key: &str, version: u64, now: u64) -> CacheDecision {
        CacheDecision {
            key: key.to_string(),
            version,
            ttl_secs: 30,
            now_secs: now,
        }
    }

    fn put(cache: &RenderCache, d: &CacheDecision, body: &str) {
        cache.put(d, Arc::from(body.as_bytes()), "application/json", None);
    }

    #[test]
    fn version_and_ttl_both_gate_validity() {
        let cache = RenderCache::new();
        let decision = d("jobs|alice", 5, 100);
        assert!(cache.get(&decision).is_none());
        put(&cache, &decision, "{\"a\":1}");

        // Same version, inside TTL: hit.
        let hit = cache.get(&d("jobs|alice", 5, 129)).unwrap();
        assert_eq!(&*hit.body, b"{\"a\":1}");

        // Same version, TTL lapsed: miss (the data layer would refetch).
        assert!(cache.get(&d("jobs|alice", 5, 130)).is_none());

        // New version inside TTL: miss (the world changed).
        assert!(cache.get(&d("jobs|alice", 6, 101)).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn purge_drops_dead_epoch_renders() {
        let cache = RenderCache::new();
        put(&cache, &d("old", 5, 0), "dead");
        put(&cache, &d("new", 9, 0), "live");
        assert_eq!(cache.purge_below(9), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&d("new", 9, 10)).is_some());
    }

    #[test]
    fn etags_are_content_derived() {
        assert_eq!(
            etag_for(b"same-bytes"),
            etag_for(b"same-bytes"),
            "identical bytes across epochs keep the ETag (cross-epoch 304s)"
        );
        assert_ne!(etag_for(b"same-bytes"), etag_for(b"other"));
        let etag = etag_for(b"same-bytes");
        assert!(
            etag.starts_with('"') && etag.ends_with('"'),
            "strong quoted ETag"
        );
    }

    #[test]
    fn versioned_decisions_have_no_ttl_and_keep_a_stale_fallback() {
        let cache = RenderCache::new();
        let v1 = CacheDecision::versioned("jobs|alice".to_string(), 1);
        assert!(cache.get(&v1).is_none());
        put(&cache, &v1, "{\"v\":1}");
        assert_eq!(&*cache.get(&v1).unwrap().body, b"{\"v\":1}");
        // New epoch: miss, but the old body is still reachable as stale.
        let v2 = CacheDecision::versioned("jobs|alice".to_string(), 2);
        assert!(cache.get(&v2).is_none());
        let stale = cache.last_any("jobs|alice").unwrap();
        assert_eq!((stale.version, &*stale.body), (1, &b"{\"v\":1}"[..]));
        assert!(stale.etag.is_none(), "no ETag was computed for it");
        put(&cache, &v2, "{\"v\":2}");
        assert_eq!(&*cache.get(&v2).unwrap().body, b"{\"v\":2}");
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn purge_below_kills_dead_epochs_even_for_stale_fallback() {
        let cache = RenderCache::new();
        put(
            &cache,
            &CacheDecision::versioned("jobs|alice".into(), 3),
            "{}",
        );
        put(
            &cache,
            &CacheDecision::versioned("nodes|root".into(), 7),
            "{}",
        );
        // Crash recovery republished at epoch 7: everything older is from a
        // dead epoch and may describe rolled-back state.
        assert_eq!(cache.purge_below(7), 1);
        assert!(
            cache.last_any("jobs|alice").is_none(),
            "dead-epoch bytes must not survive as a stale fallback"
        );
        assert!(cache.last_any("nodes|root").is_some());
    }

    #[test]
    fn bound_evicts_the_least_recently_written_entry() {
        let cache = RenderCache::new();
        for i in 0..MAX_ENTRIES {
            put(&cache, &d(&format!("k{i}"), 1, 0), "x");
        }
        assert_eq!(cache.len(), MAX_ENTRIES);
        // Rewriting the oldest key refreshes it without evicting anything.
        put(&cache, &d("k0", 2, 0), "x");
        assert_eq!(cache.len(), MAX_ENTRIES);
        for i in 0..100 {
            put(&cache, &d(&format!("new{i}"), 1, 0), "x");
            assert_eq!(cache.len(), MAX_ENTRIES, "the bound holds");
        }
        // The 100 least recently written keys went, in write order: k1..k100.
        for i in 1..=100 {
            assert!(cache.last_any(&format!("k{i}")).is_none(), "k{i} evicted");
        }
        assert!(cache.last_any("k101").is_some());
        assert!(cache.last_any("k0").is_some(), "rewritten key survived");
        assert!(cache.last_any("new99").is_some());
    }
}
