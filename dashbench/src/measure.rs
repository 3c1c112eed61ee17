//! From raw runs to named metrics.

use crate::check::Served;
use crate::report::{mean, median, quantile, ratio, Metrics};
use crate::traced::{Traced, LAYERS};
use crate::wire::Outcome;
use crate::workload::{Route, MODULES};
use std::collections::BTreeMap;

/// ctld RPC kinds reported per kind (the dashboard's reads, then churn's).
pub const CTLD_KINDS: [&str; 7] = [
    "squeue",
    "scontrol_job",
    "scontrol_node",
    "sinfo",
    "scontrol_assoc",
    "sched_tick",
    "submit",
];

/// RPC kinds the churn itself issues; not dashboard load.
const CHURN_KINDS: [&str; 2] = ["sched_tick", "submit"];

/// Phases of `Slurmctld::tick` (its `PhaseProfiler`).
pub const TICK_PHASES: [&str; 5] = [
    "sched_pass",
    "joblog_write",
    "dbd_record",
    "dbd_sync",
    "checkpoint",
];

/// The traced run is reconciled within this many percent: the layer self
/// times of every traced request must add up to its measured time, and no
/// more than this share of the time its children were given from outside
/// the handler (`slurmcli` re-runs, `restapi` prices) may run past the
/// handler span they were laid into.
pub const RECONCILE_MARGIN_PCT: f64 = 10.0;

/// Generator-caused send delay (p99) past which a run is flagged.
pub const GENERATOR_LAG_LIMIT_MS: f64 = 2.0;

const NS_PER_MS: f64 = 1e6;
const NS_PER_US: f64 = 1e3;

/// Latency of every open-phase request from its due time, in ns; a failed
/// request counts as infinitely late.
pub fn request_latencies(out: &Outcome) -> Vec<f64> {
    out.open
        .iter()
        .map(|r| match r.served {
            Some(_) => (r.done - r.due) as f64,
            None => f64::INFINITY,
        })
        .collect()
}

/// Latency of every page view, from its due time to the last byte of its
/// last request; a page with a failed request counts as infinitely late.
pub fn page_latencies(out: &Outcome) -> Vec<f64> {
    let mut pages: BTreeMap<u32, (u64, u64, bool)> = BTreeMap::new();
    for r in &out.open {
        let e = pages.entry(r.page).or_insert((r.due, 0, true));
        e.1 = e.1.max(r.done);
        e.2 &= r.served.is_some();
    }
    pages
        .values()
        .map(|&(due, done, ok)| {
            if ok {
                (done - due) as f64
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

fn served_count(out: &Outcome, what: Option<Served>) -> f64 {
    out.open.iter().filter(|r| r.served == what).count() as f64
}

/// Dashboard-caused ctld RPCs over the open phase.
fn ctld_dashboard_rpcs(out: &Outcome) -> f64 {
    let all = (out.after.light.ctld_rpcs - out.before.light.ctld_rpcs) as f64;
    let churn: u64 = CHURN_KINDS
        .iter()
        .map(|k| out.after.kind_delta(&out.before, k).0)
        .sum();
    all - churn as f64
}

/// The end-to-end metrics of an untraced run: the ones whose spread and
/// drift stay within a bound on a shared 2-vCPU host. Timings and CPU
/// time there swing with the host's speed, so they are per-layer metrics
/// (see [`per_layer`]).
pub fn end_to_end(out: &Outcome, setup_s: f64, peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    let n = out.open.len() as f64;
    m.set(
        "ctld_rpcs_per_kreq",
        ratio(ctld_dashboard_rpcs(out), n / 1e3),
        "count",
    );
    let ok = served_count(out, Some(Served::Fresh)) + served_count(out, Some(Served::NotModified));
    m.set("served_ok_ratio", ratio(ok, n), "ratio");
    m.set("peak_rss_mb", peak_rss_mb, "MB");
    m.set("setup_s", setup_s, "s");
    m
}

/// Whether the traced run's metrics reconcile (see
/// [`RECONCILE_MARGIN_PCT`]); the reason when they do not.
pub fn reconciled(m: &Metrics) -> Result<(), String> {
    let sum = m.get("bench.trace_reconcile_pct").unwrap_or(0.0);
    let overrun = m.get("bench.price_overrun_pct").unwrap_or(0.0);
    if sum.abs() > RECONCILE_MARGIN_PCT {
        return Err(format!(
            "layer self times miss the measured request time by {sum:.1}%"
        ));
    }
    if overrun > RECONCILE_MARGIN_PCT {
        return Err(format!(
            "{overrun:.1}% of the slurmcli/restapi time given from outside overruns its handler span"
        ));
    }
    Ok(())
}

/// Failure and stale-serve shares of the open phase.
pub fn fail_and_degraded(out: &Outcome) -> (f64, f64) {
    let n = out.open.len() as f64;
    (
        ratio(served_count(out, None), n),
        ratio(served_count(out, Some(Served::Degraded)), n),
    )
}

/// Generator validity: p99 of how late sends ran behind their due time,
/// and p99 of the part of that delay the generator itself caused (the
/// connection was free, yet the send still ran late).
pub fn generator_lag_ms(out: &Outcome) -> (f64, f64) {
    let mut late: Vec<f64> = out.open.iter().map(|r| (r.sent - r.due) as f64).collect();
    let mut own: Vec<f64> = out
        .open
        .iter()
        .map(|r| r.sent.saturating_sub(r.free) as f64)
        .collect();
    (
        quantile(&mut late, 0.99) / NS_PER_MS,
        quantile(&mut own, 0.99) / NS_PER_MS,
    )
}

/// Per-layer metrics: counters and gauges from the wire run `out`, span
/// timings from the traced replay `tr` of the same schedule.
pub fn per_layer(out: &Outcome, tr: &Traced) -> Metrics {
    let mut m = Metrics::default();
    let (b, a) = (&out.before, &out.after);
    let n = out.open.len() as f64;
    let kreq = n / 1e3;
    let secs = out.open.iter().map(|r| r.done).max().unwrap_or(0) as f64 / 1e9;
    // What the user sees, timed over the wire.
    let mut req = request_latencies(out);
    let mut page = page_latencies(out);
    m.set("req_p50_us", median(&mut req) / NS_PER_US, "us");
    m.set("req_p99_us", quantile(&mut req, 0.99) / NS_PER_US, "us");
    m.set("page_p50_ms", median(&mut page) / NS_PER_MS, "ms");
    m.set("page_p99_ms", quantile(&mut page, 0.99) / NS_PER_MS, "ms");
    m.set(
        "capacity_rps",
        ratio(out.closed_ok as f64, out.closed_secs),
        "1/s",
    );
    let mut ticks: Vec<f64> = out.steps.iter().map(|s| s.tick.as_nanos() as f64).collect();
    m.set("sched_pass_p50_ms", median(&mut ticks) / NS_PER_MS, "ms");
    let cpu = (a.server_cpu_ns - b.server_cpu_ns) as f64;
    m.set("server_cpu_us_per_req", ratio(cpu, n) / NS_PER_US, "us");
    let (fail, degraded) = fail_and_degraded(out);
    m.set("fail_ratio", fail, "ratio");
    let dbd = (a.light.dbd_rpcs - b.light.dbd_rpcs) as f64;
    m.set("dbd_rpcs_per_kreq", ratio(dbd, kreq), "count");
    m.set("degraded_ratio", degraded, "ratio");

    // http
    let mut wire: Vec<f64> = out
        .open
        .iter()
        .filter(|r| r.served.is_some())
        .map(|r| (r.done - r.sent) as f64)
        .collect();
    let mut untraced = tr.untraced_ns.clone();
    let wire_p50 = median(&mut wire);
    let inproc_p50 = median(&mut untraced);
    let transport = (wire_p50 - inproc_p50).max(0.0);
    m.set("http.parse_ns_p50", median(&mut tr.parse_ns.clone()), "ns");
    m.set(
        "http.dispatch_us_p50",
        median(&mut tr.dispatch_ns.clone()) / NS_PER_US,
        "us",
    );
    m.set(
        "http.serialize_ns_p50",
        median(&mut tr.serialize_ns.clone()),
        "ns",
    );
    m.set("http.transport_us_p50", transport / NS_PER_US, "us");
    m.set(
        "http.not_modified_ratio",
        ratio(served_count(out, Some(Served::NotModified)), n),
        "ratio",
    );
    let (rh, rm) = (
        (a.light.render_hits - b.light.render_hits) as f64,
        (a.light.render_misses - b.light.render_misses) as f64,
    );
    m.set("http.render_hit_ratio", ratio(rh, rh + rm), "ratio");
    m.set("http.render_entries", a.render_entries as f64, "count");
    m.set(
        "http.resp_bytes_per_req",
        mean(&out.open.iter().map(|r| r.bytes as f64).collect::<Vec<_>>()),
        "B",
    );
    m.set(
        "http.worker_queue_depth_max",
        out.worker_queue_max as f64,
        "count",
    );
    m.set(
        "http.reactor_lag_us_max",
        out.reactor_lag_us_max as f64,
        "us",
    );

    // core
    m.set(
        "core.hit_dispatch_us_p50",
        median(&mut tr.hit_dispatch_ns.clone()) / NS_PER_US,
        "us",
    );
    m.set(
        "core.miss_dispatch_us_p50",
        median(&mut tr.miss_dispatch_ns.clone()) / NS_PER_US,
        "us",
    );
    for module in MODULES {
        let mut xs = tr
            .route_dispatch_ns
            .get(module)
            .cloned()
            .unwrap_or_default();
        m.set(
            format!("route.{module}.p50_us"),
            median(&mut xs) / NS_PER_US,
            "us",
        );
    }

    // cache
    let (wh, wm) = (
        (a.light.widget_hits - b.light.widget_hits) as f64,
        (a.light.widget_misses - b.light.widget_misses) as f64,
    );
    m.set("cache.widget_hit_ratio", ratio(wh, wh + wm), "ratio");
    m.set(
        "cache.coalesced_per_kreq",
        ratio((a.widget_coalesced - b.widget_coalesced) as f64, kreq),
        "count",
    );
    m.set(
        "cache.stale_serves",
        (a.widget_stale_serves - b.widget_stale_serves) as f64,
        "count",
    );
    m.set(
        "cache.retries",
        a.reg_delta(b, "hpcdash_retry_attempts_total"),
        "count",
    );

    // slurmcli
    m.set(
        "slurmcli.render_us_p50",
        median(&mut tr.cli_render_ns.clone()) / NS_PER_US,
        "us",
    );
    m.set(
        "slurmcli.parse_us_p50",
        median(&mut tr.cli_parse_ns.clone()) / NS_PER_US,
        "us",
    );
    m.set(
        "slurmcli.parses_per_kreq",
        ratio((a.light.parse_calls - b.light.parse_calls) as f64, kreq),
        "count",
    );
    m.set(
        "slurmcli.text_kb_per_call",
        mean(&tr.cli_text_bytes) / 1024.0,
        "KiB",
    );

    // slurm
    let per_s = |ns: u64| ratio(ns as f64 / NS_PER_MS, secs);
    m.set(
        "slurm.ctld_busy_ms_per_s",
        per_s(a.light.ctld_busy_ns - b.light.ctld_busy_ns),
        "ms/s",
    );
    m.set(
        "slurm.ctld_lock_wait_ms_per_s",
        per_s(a.ctld_lock_wait_ns - b.ctld_lock_wait_ns),
        "ms/s",
    );
    m.set(
        "slurm.dbd_busy_ms_per_s",
        per_s(a.light.dbd_busy_ns - b.light.dbd_busy_ns),
        "ms/s",
    );
    for kind in CTLD_KINDS {
        m.set(
            format!("slurm.ctld_rpc_mean_us.{kind}"),
            a.kind_delta(b, kind).1,
            "us",
        );
    }
    let ticks = a.kind_delta(b, "sched_tick").0 as f64;
    for phase in TICK_PHASES {
        let (_, n1) = a.tick_phases.get(phase).copied().unwrap_or_default();
        let (_, n0) = b.tick_phases.get(phase).copied().unwrap_or_default();
        m.set(
            format!("slurm.tick_phase_ms.{phase}"),
            ratio((n1 - n0) as f64 / NS_PER_MS, ticks),
            "ms",
        );
    }
    m.set(
        "slurm.state_locks_per_kreq",
        ratio((a.ctld_state_locks - b.ctld_state_locks) as f64, kreq),
        "count",
    );

    // restapi
    m.set(
        "restapi.serialize_us_p50",
        median(&mut tr.rest_jobs_ns.clone()) / NS_PER_US,
        "us",
    );
    let (qh, qm) = (
        (a.light.rest_hits - b.light.rest_hits) as f64,
        (a.light.rest_misses - b.light.rest_misses) as f64,
    );
    m.set("restapi.cache_hit_ratio", ratio(qh, qh + qm), "ratio");
    m.set(
        "restapi.token_denied",
        a.reg_delta(b, "hpcdash_api_token_denied_total"),
        "count",
    );

    // push
    let polls = out
        .open
        .iter()
        .filter(|r| r.route == Route::Updates)
        .count() as f64;
    m.set(
        "push.delivered_per_poll",
        ratio(a.reg_delta(b, "hpcdash_push_events_delivered_total"), polls),
        "count",
    );
    m.set(
        "push.resyncs",
        a.reg_delta(b, "hpcdash_push_resyncs_total"),
        "count",
    );
    m.set(
        "push.fanout_lag_us",
        a.summary_p50_ns
            .get("hpcdash_push_fanout_lag")
            .copied()
            .unwrap_or(0) as f64
            / NS_PER_US,
        "us",
    );

    // telemetry
    m.set(
        "telemetry.collect_ms_p50",
        median(&mut tr.collect_ns.clone()) / NS_PER_MS,
        "ms",
    );
    m.set(
        "telemetry.points_scanned_per_query",
        ratio(
            (a.telemetry_scanned - b.telemetry_scanned) as f64,
            (a.telemetry_queries - b.telemetry_queries) as f64,
        ),
        "count",
    );

    // obs
    m.set(
        "obs.sink_dropped",
        a.reg_delta(b, "hpcdash_trace_spans_dropped_total"),
        "count",
    );
    m.set(
        "obs.trace_store_size",
        a.registry
            .get("hpcdash_trace_store_size")
            .copied()
            .unwrap_or(0) as f64,
        "count",
    );
    m.set(
        "obs.expo_us_p50",
        median(&mut tr.expo_ns.clone()) / NS_PER_US,
        "us",
    );

    // Layer self time of the median traced request, and the reconciliation
    // of every traced request's self times with its measured time.
    let split = tr.median_split();
    let (mut total, mut selfs) = (0.0, 0.0);
    for (t, layers) in &tr.per_request {
        total += *t as f64;
        selfs += layers.iter().sum::<u64>() as f64;
    }
    for (layer, ns) in LAYERS.iter().zip(split) {
        m.set(format!("layer.{layer}.self_us"), ns / NS_PER_US, "us");
    }
    for (layer, ns) in LAYERS.iter().zip(tr.mean_split()) {
        m.set(format!("layer.{layer}.mean_self_us"), ns / NS_PER_US, "us");
    }
    m.set(
        "bench.trace_reconcile_pct",
        ratio(100.0 * (selfs - total), total),
        "%",
    );
    m.set(
        "bench.price_overrun_pct",
        ratio(100.0 * tr.overrun_ns, tr.priced_ns),
        "%",
    );
    m.set("bench.trace_overhead_pct", tr.overhead_pct(), "%");
    let (late, own) = generator_lag_ms(out);
    m.set("bench.lag_ms_p99", late, "ms");
    m.set("bench.generator_lag_ms_p99", own, "ms");
    m.set(
        "bench.generator_behind",
        f64::from(u8::from(own > GENERATOR_LAG_LIMIT_MS)),
        "count",
    );
    m.set(
        "bench.churn_behind_max",
        out.churn_behind_max as f64,
        "count",
    );
    m.set("bench.connections", out.connections_opened as f64, "count");
    m
}
