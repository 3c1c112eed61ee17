//! [`CachedFetcher`]: the server-side caching front door used by every
//! dashboard API route — TTL cache + single-flight in one call.

use crate::singleflight::SingleFlight;
use crate::stats::CacheStatsSnapshot;
use crate::ttl::TtlCache;
use hpcdash_simtime::SharedClock;

/// Cache-or-load with request coalescing.
///
/// ```
/// use hpcdash_cache::{CachedFetcher, GraceOutcome};
/// use hpcdash_simtime::{SimClock, Timestamp};
///
/// let clock = SimClock::new(Timestamp(0));
/// let fetcher: CachedFetcher<String> = CachedFetcher::new(clock.shared());
/// let v = fetcher.get_or_fetch_grace("squeue:alice", 30, || Some("two jobs".to_string()));
/// assert_eq!(v, GraceOutcome::Loaded { value: "two jobs".to_string(), coalesced: false });
/// // Within the TTL the loader is not called again.
/// let v2 = fetcher.get_or_fetch_grace("squeue:alice", 30, || unreachable!());
/// assert_eq!(v2, GraceOutcome::Hit("two jobs".to_string()));
/// ```
pub struct CachedFetcher<V> {
    cache: TtlCache<V>,
    /// Coalesces loads; the in-flight value is `None` when the load failed.
    flight: SingleFlight<Option<V>>,
}

/// How [`CachedFetcher::get_or_fetch_grace`] answered.
#[derive(Debug, Clone, PartialEq)]
pub enum GraceOutcome<V> {
    /// Served from a fresh cache entry; the loader did not run.
    Hit(V),
    /// The loader ran and succeeded (`coalesced`: this caller joined
    /// another thread's in-flight load instead of running its own).
    Loaded { value: V, coalesced: bool },
    /// The loader failed; the last-known-good value is served with its age
    /// in seconds. The failure is *not* cached and the entry is kept.
    Stale { value: V, age_secs: u64 },
    /// The loader failed and there is no last-known-good value to serve.
    Miss,
}

impl<V: Clone> CachedFetcher<V> {
    pub fn new(clock: SharedClock) -> CachedFetcher<V> {
        CachedFetcher {
            cache: TtlCache::new(clock),
            flight: SingleFlight::new(),
        }
    }

    /// The serve-stale-on-error front door: return the fresh cached value
    /// if there is one, otherwise run `load` (coalesced across threads).
    /// On success the value is cached for `ttl_secs`; on failure (`None`)
    /// the last-known-good value — even an expired one — is served with
    /// its age, and nothing is invalidated, so one bad refresh can never
    /// destroy the copy that keeps the widget rendering.
    pub fn get_or_fetch_grace(
        &self,
        key: &str,
        ttl_secs: u64,
        load: impl FnOnce() -> Option<V>,
    ) -> GraceOutcome<V> {
        // Records hit (fresh) or miss/expiration stats as usual.
        if let Some((v, _age)) = self.cache.get_with_age(key) {
            return GraceOutcome::Hit(v);
        }
        let (result, leader) = self.flight.work(key, || {
            let fresh = load();
            if let Some(v) = &fresh {
                self.cache.insert(key.to_string(), v.clone(), ttl_secs);
            }
            fresh
        });
        if !leader {
            self.cache.stats().coalesce();
        }
        match result {
            Some(value) => GraceOutcome::Loaded {
                value,
                coalesced: !leader,
            },
            None => match self.cache.get_stale_with_age(key) {
                Some((value, age_secs, _fresh)) => {
                    self.cache.stats().stale_serve();
                    GraceOutcome::Stale { value, age_secs }
                }
                None => GraceOutcome::Miss,
            },
        }
    }

    pub fn invalidate(&self, key: &str) -> bool {
        self.cache.invalidate(key)
    }

    pub fn clear(&self) {
        self.cache.clear();
    }

    pub fn stats(&self) -> CacheStatsSnapshot {
        self.cache.stats().snapshot()
    }

    pub fn reset_stats(&self) {
        self.cache.stats().reset();
    }

    pub fn cache(&self) -> &TtlCache<V> {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::{SimClock, Timestamp};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn fetcher() -> (Arc<CachedFetcher<u64>>, SimClock) {
        let clock = SimClock::new(Timestamp(0));
        (Arc::new(CachedFetcher::new(clock.shared())), clock)
    }

    #[test]
    fn loads_once_within_ttl() {
        let (f, clock) = fetcher();
        let loads = AtomicU64::new(0);
        let load = |v| {
            loads.fetch_add(1, Ordering::SeqCst);
            Some(v)
        };
        for _ in 0..10 {
            f.get_or_fetch_grace("k", 30, || load(99));
        }
        assert_eq!(
            f.get_or_fetch_grace("k", 30, || None),
            GraceOutcome::Hit(99)
        );
        assert_eq!(loads.load(Ordering::SeqCst), 1);
        clock.advance(31);
        f.get_or_fetch_grace("k", 30, || load(100));
        assert_eq!(loads.load(Ordering::SeqCst), 2, "reloaded after expiry");
    }

    #[test]
    fn invalidate_forces_reload() {
        let (f, _clock) = fetcher();
        f.get_or_fetch_grace("k", 1_000, || Some(1));
        assert!(f.invalidate("k"));
        assert_eq!(
            f.get_or_fetch_grace("k", 1_000, || Some(2)),
            GraceOutcome::Loaded {
                value: 2,
                coalesced: false
            }
        );
    }

    #[test]
    fn grace_path_serves_stale_on_failure() {
        let (f, clock) = fetcher();
        // Cold miss + failing loader: nothing to fall back to.
        assert_eq!(f.get_or_fetch_grace("k", 10, || None), GraceOutcome::Miss);
        // Successful load caches the value...
        assert_eq!(
            f.get_or_fetch_grace("k", 10, || Some(1)),
            GraceOutcome::Loaded {
                value: 1,
                coalesced: false
            }
        );
        // ...which serves as a fresh hit without running the loader...
        assert_eq!(
            f.get_or_fetch_grace("k", 10, || unreachable!()),
            GraceOutcome::Hit(1)
        );
        clock.advance(11);
        // ...and survives a failed refresh as a stale serve, with age.
        assert_eq!(
            f.get_or_fetch_grace("k", 10, || None),
            GraceOutcome::Stale {
                value: 1,
                age_secs: 11
            }
        );
        assert!(f.stats().stale_serves >= 1);
        clock.advance(100);
        assert_eq!(
            f.get_or_fetch_grace("k", 10, || None),
            GraceOutcome::Stale {
                value: 1,
                age_secs: 111
            },
            "repeated failures never invalidate the last-known-good copy"
        );
        // A later successful refresh replaces it.
        assert_eq!(
            f.get_or_fetch_grace("k", 10, || Some(2)),
            GraceOutcome::Loaded {
                value: 2,
                coalesced: false
            }
        );
    }

    #[test]
    fn grace_failures_are_never_cached() {
        let (f, clock) = fetcher();
        f.get_or_fetch_grace("k", 10, || Some(1));
        clock.advance(11);
        let loads = AtomicU64::new(0);
        for _ in 0..5 {
            f.get_or_fetch_grace("k", 10, || {
                loads.fetch_add(1, Ordering::SeqCst);
                None
            });
        }
        assert_eq!(
            loads.load(Ordering::SeqCst),
            5,
            "each request retried the backend; the failure was not cached"
        );
    }

    #[test]
    fn grace_storm_coalesces_to_one_load() {
        let clock = SimClock::new(Timestamp(0));
        let f = Arc::new(CachedFetcher::<u64>::new(clock.shared()));
        let loads = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(16));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let f = f.clone();
            let loads = loads.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                f.get_or_fetch_grace("squeue", 30, || {
                    loads.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Some(5)
                })
            }));
        }
        let mut coalesced = 0;
        for h in handles {
            match h.join().unwrap() {
                GraceOutcome::Loaded {
                    value,
                    coalesced: c,
                } => {
                    assert_eq!(value, 5);
                    coalesced += c as u32;
                }
                GraceOutcome::Hit(v) => assert_eq!(v, 5),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(loads.load(Ordering::SeqCst), 1);
        assert!(coalesced >= 1);
    }
}
