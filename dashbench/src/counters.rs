//! Before/after reads of the counters the program's crates already expose.
//! [`Light`] is a handful of atomic loads, cheap enough to take around
//! every traced request; [`Full`] also scrapes the metrics registry and is
//! taken at phase boundaries.

use crate::workload::Site;
use hpcdash_obs::SampleValue;
use std::collections::BTreeMap;

/// Counters read around each traced request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Light {
    pub ctld_rpcs: u64,
    pub ctld_busy_ns: u64,
    pub dbd_rpcs: u64,
    pub dbd_busy_ns: u64,
    pub telemetry_busy_ns: u64,
    pub parse_calls: u64,
    pub render_hits: u64,
    pub render_misses: u64,
    pub rest_hits: u64,
    pub rest_misses: u64,
    pub widget_hits: u64,
    pub widget_misses: u64,
}

impl Light {
    pub fn read(site: &Site) -> Light {
        let s = &site.sim.scenario;
        let ctx = site.sim.ctx();
        let render = site.sim.dashboard.router();
        let widget = ctx.cache.stats();
        Light {
            ctld_rpcs: s.ctld.stats().total_rpcs(),
            ctld_busy_ns: s.ctld.stats().total_busy().as_nanos() as u64,
            dbd_rpcs: s.dbd.stats().total_rpcs(),
            dbd_busy_ns: s.dbd.stats().total_busy().as_nanos() as u64,
            telemetry_busy_ns: s.telemetry.stats().total_busy().as_nanos() as u64,
            parse_calls: hpcdash::slurmcli::parse_call_count(),
            render_hits: render.render_cache().hits(),
            render_misses: render.render_cache().misses(),
            rest_hits: ctx.rest_cache.hits(),
            rest_misses: ctx.rest_cache.misses(),
            widget_hits: widget.hits,
            widget_misses: widget.misses,
        }
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Light) -> Light {
        Light {
            ctld_rpcs: self.ctld_rpcs - before.ctld_rpcs,
            ctld_busy_ns: self.ctld_busy_ns - before.ctld_busy_ns,
            dbd_rpcs: self.dbd_rpcs - before.dbd_rpcs,
            dbd_busy_ns: self.dbd_busy_ns - before.dbd_busy_ns,
            telemetry_busy_ns: self.telemetry_busy_ns - before.telemetry_busy_ns,
            parse_calls: self.parse_calls - before.parse_calls,
            render_hits: self.render_hits - before.render_hits,
            render_misses: self.render_misses - before.render_misses,
            rest_hits: self.rest_hits - before.rest_hits,
            rest_misses: self.rest_misses - before.rest_misses,
            widget_hits: self.widget_hits - before.widget_hits,
            widget_misses: self.widget_misses - before.widget_misses,
        }
    }
}

/// Per-kind daemon RPC accounting: `(count, total_ns)`.
pub type Kinds = BTreeMap<&'static str, (u64, u64)>;

/// Everything read at a phase boundary.
#[derive(Debug, Clone, Default)]
pub struct Full {
    pub light: Light,
    pub ctld_lock_wait_ns: u64,
    pub ctld_state_locks: u64,
    pub ctld_kinds: Kinds,
    /// Scheduler tick phases: `(runs, total_ns)`.
    pub tick_phases: BTreeMap<&'static str, (u64, u64)>,
    pub widget_coalesced: u64,
    pub widget_stale_serves: u64,
    pub render_entries: u64,
    pub telemetry_queries: u64,
    pub telemetry_scanned: u64,
    /// Registry counters and gauges by name, summed over labels.
    pub registry: BTreeMap<String, i128>,
    /// Registry summaries by name: `p50_ns`.
    pub summary_p50_ns: BTreeMap<String, u64>,
    /// CPU time the server's reactor and worker threads have used.
    pub server_cpu_ns: u64,
}

impl Full {
    pub fn read(site: &Site) -> Full {
        let s = &site.sim.scenario;
        let ctx = site.sim.ctx();
        let rpc = s.ctld.stats().snapshot();
        let mut registry: BTreeMap<String, i128> = BTreeMap::new();
        let mut summary_p50_ns = BTreeMap::new();
        for sample in ctx.obs.gather() {
            match sample.value {
                SampleValue::Counter(v) => *registry.entry(sample.name).or_default() += v as i128,
                SampleValue::Gauge(v) => *registry.entry(sample.name).or_default() += v as i128,
                SampleValue::Summary(h) => {
                    summary_p50_ns.insert(sample.name, h.p50_ns);
                }
            }
        }
        let tstats = s.telemetry.store().stats();
        let widget = ctx.cache.stats();
        Full {
            light: Light::read(site),
            ctld_lock_wait_ns: rpc.total_lock_wait.as_nanos() as u64,
            ctld_state_locks: s.ctld.stats().state_lock_count(),
            ctld_kinds: rpc
                .per_kind
                .iter()
                .map(|(k, v)| (*k, (v.count, v.total_ns)))
                .collect(),
            tick_phases: s
                .ctld
                .phase_profile()
                .snapshot()
                .into_iter()
                .map(|(p, agg)| (p, (agg.count, agg.total_ns)))
                .collect(),
            widget_coalesced: widget.coalesced,
            widget_stale_serves: widget.stale_serves,
            render_entries: site.sim.dashboard.router().render_cache().len() as u64,
            telemetry_queries: tstats.queries,
            telemetry_scanned: tstats.scanned.iter().sum(),
            registry,
            summary_p50_ns,
            server_cpu_ns: server_cpu_ns(),
        }
    }

    /// A registry value's change since `before` (0 when absent).
    pub fn reg_delta(&self, before: &Full, name: &str) -> f64 {
        let now = self.registry.get(name).copied().unwrap_or(0);
        let then = before.registry.get(name).copied().unwrap_or(0);
        (now - then) as f64
    }

    /// The count and mean µs of ctld RPCs of `kind` since `before`.
    pub fn kind_delta(&self, before: &Full, kind: &str) -> (u64, f64) {
        let (c1, n1) = self.ctld_kinds.get(kind).copied().unwrap_or_default();
        let (c0, n0) = before.ctld_kinds.get(kind).copied().unwrap_or_default();
        let count = c1 - c0;
        let mean_us = if count == 0 {
            0.0
        } else {
            (n1 - n0) as f64 / count as f64 / 1e3
        };
        (count, mean_us)
    }
}

/// User plus system CPU time of this process's `http-reactor-*` and
/// `http-worker-*` threads, from `/proc/self/task/*/stat`.
pub fn server_cpu_ns() -> u64 {
    const NS_PER_TICK: u64 = 10_000_000; // USER_HZ = 100
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut ticks = 0;
    for task in tasks.flatten() {
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else {
            continue;
        };
        // `pid (comm) state ...`: comm may hold spaces, so split after `)`.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        if !stat[open + 1..close].starts_with("http-") {
            continue;
        }
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        // utime and stime are fields 14 and 15 of the line, 12 and 13 after comm.
        let field = |i: usize| {
            fields
                .get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        ticks += field(11) + field(12);
    }
    ticks * NS_PER_TICK
}
