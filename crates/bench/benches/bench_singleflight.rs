//! Ablation — request coalescing (DESIGN.md design choice):
//! the TTL cache alone does not protect the backend at the moment of
//! expiry: every thread that misses starts its own backend query (the
//! thundering herd). Single-flight collapses the herd to one query.

use criterion::Criterion;
use hpcdash_bench::banner;
use hpcdash_cache::{CachedFetcher, GraceOutcome, TtlCache};
use hpcdash_simtime::{SimClock, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Simulate an expensive backend query.
fn backend_query(loads: &AtomicU64) -> u64 {
    loads.fetch_add(1, Ordering::SeqCst);
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(2) {
        std::hint::spin_loop();
    }
    42
}

/// Herd of `threads` all missing the same key at once, WITHOUT coalescing.
fn herd_plain(threads: usize) -> (u64, Duration) {
    let clock = SimClock::new(Timestamp(0));
    let cache = Arc::new(TtlCache::<u64>::new(clock.shared()));
    let loads = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(threads));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let cache = cache.clone();
            let loads = loads.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                if let Some(v) = cache.get("k") {
                    return v;
                }
                let v = backend_query(&loads);
                cache.insert("k", v, 60);
                v
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 42);
    }
    (loads.load(Ordering::SeqCst), t0.elapsed())
}

/// The same herd WITH single-flight (the shipped `CachedFetcher`).
fn herd_coalesced(threads: usize) -> (u64, Duration) {
    let clock = SimClock::new(Timestamp(0));
    let fetcher = Arc::new(CachedFetcher::<u64>::new(clock.shared()));
    let loads = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(threads));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let fetcher = fetcher.clone();
            let loads = loads.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                match fetcher.get_or_fetch_grace("k", 60, || Some(backend_query(&loads))) {
                    GraceOutcome::Hit(v) | GraceOutcome::Loaded { value: v, .. } => v,
                    other => panic!("backend query never fails: {other:?}"),
                }
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 42);
    }
    (loads.load(Ordering::SeqCst), t0.elapsed())
}

fn main() {
    banner(
        "ABL-1",
        "single-flight ablation: thundering herd on a cold cache key (2ms backend)",
    );
    println!(
        "{:>8} | {:>18} {:>12} | {:>18} {:>12}",
        "threads", "plain: backend", "wall", "coalesced: backend", "wall"
    );
    println!("{}", "-".repeat(78));
    for threads in [2usize, 8, 32] {
        // Average over a few rounds; thread scheduling is noisy.
        let mut plain_loads = 0;
        let mut co_loads = 0;
        let mut plain_wall = Duration::ZERO;
        let mut co_wall = Duration::ZERO;
        const ROUNDS: u64 = 5;
        for _ in 0..ROUNDS {
            let (l, w) = herd_plain(threads);
            plain_loads += l;
            plain_wall += w;
            let (l, w) = herd_coalesced(threads);
            co_loads += l;
            co_wall += w;
        }
        println!(
            "{threads:>8} | {:>18.1} {:>12.1?} | {:>18.1} {:>12.1?}",
            plain_loads as f64 / ROUNDS as f64,
            plain_wall / ROUNDS as u32,
            co_loads as f64 / ROUNDS as f64,
            co_wall / ROUNDS as u32,
        );
        assert_eq!(
            co_loads, ROUNDS,
            "coalesced herd runs exactly one load per round"
        );
    }
    println!("\nshape: without coalescing the backend absorbs up to one query per");
    println!("concurrent browser at every expiry; with it, exactly one — the property");
    println!("the paper relies on to keep slurmctld healthy when many users share a TTL.");

    let mut c = Criterion::default().configure_from_args().sample_size(30);
    {
        let clock = SimClock::new(Timestamp(0));
        let fetcher = CachedFetcher::<u64>::new(clock.shared());
        fetcher.get_or_fetch_grace("hot", 3_600, || Some(7));
        let mut group = c.benchmark_group("singleflight_overhead");
        group.bench_function("hit_via_fetcher", |b| {
            b.iter(|| fetcher.get_or_fetch_grace("hot", 3_600, || unreachable!()))
        });
        let cache = TtlCache::<u64>::new(SimClock::new(Timestamp(0)).shared());
        cache.insert("hot", 7, 3_600);
        group.bench_function("hit_via_plain_cache", |b| b.iter(|| cache.get("hot")));
        group.finish();
    }
    c.final_summary();
}
