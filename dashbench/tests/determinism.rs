//! A short run of each workload repeats exactly under the same seed, and a
//! different seed gives a different schedule. The run is the traced replay:
//! one request at a time with churn steps between requests, so its counts
//! do not depend on thread timing.
//!
//! Run with `cargo test --release --manifest-path dashbench/Cargo.toml`.

use dashbench::counters::Light;
use dashbench::traced;
use dashbench::workload::{schedule, Page, Site, Workload};

/// Everything a run counts that must repeat exactly.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    requests: u64,
    failed: u64,
    not_modified: u64,
    render_hits: u64,
    render_misses: u64,
    ctld_rpcs: u64,
    dbd_rpcs: u64,
    parse_calls: u64,
    churn_steps: usize,
}

fn run(w: Workload, seed: u64) -> (Vec<Page>, Counts) {
    let site = Site::setup(w);
    // Three churn steps' worth of requests; every page has at least one.
    let requests = 3 * w.churn_every() as usize;
    let pages = schedule(&site, seed, requests);
    let before = Light::read(&site);
    let tr = traced::run(&site, &pages, requests, w.churn_every());
    let (b, a) = (before, Light::read(&site));
    site.shutdown();
    let counts = Counts {
        requests: tr.requests,
        failed: tr.failed,
        not_modified: tr.not_modified,
        render_hits: a.render_hits - b.render_hits,
        render_misses: a.render_misses - b.render_misses,
        ctld_rpcs: a.ctld_rpcs - b.ctld_rpcs,
        dbd_rpcs: a.dbd_rpcs - b.dbd_rpcs,
        parse_calls: a.parse_calls - b.parse_calls,
        churn_steps: tr.collect_ns.len(),
    };
    (pages, counts)
}

// One test, so no other test moves the process-wide parse counter while a
// run reads it.
#[test]
fn same_seed_repeats_and_another_seed_differs() {
    for w in Workload::ALL {
        let (pages1, counts1) = run(w, 11);
        let (pages2, counts2) = run(w, 11);
        let (pages3, _) = run(w, 12);
        assert_eq!(counts1.failed, 0, "{}: {counts1:?}", w.name());
        assert_eq!(counts1.churn_steps, 3, "{}: churn ran", w.name());
        assert_eq!(pages1, pages2, "{}: same seed, same schedule", w.name());
        assert_eq!(counts1, counts2, "{}: same seed, same counts", w.name());
        assert_ne!(
            pages1,
            pages3,
            "{}: another seed, another schedule",
            w.name()
        );
    }
}
