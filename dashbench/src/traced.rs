//! The traced run: the same seeded schedule replayed in-process, one
//! request at a time, with benchmark-side spans around each layer's public
//! calls and counter reads around each request.
//!
//! Per request: `http` spans around `Request::parse_buf` and
//! `Response::serialize_into`, a `core` span around `Dashboard::handle`.
//! Work inside the handler is attributed from counters the crates keep:
//! daemon busy time (`RpcStats`) becomes a `slurm` or `telemetry` child;
//! when the handler parsed command text (`parse_call_count`), the same
//! commands are run again right after it on the same state and their time
//! outside the daemon RPC becomes a `slurmcli` child; `RestCache` misses
//! become a `restapi` child priced at the serializer's measured cost per
//! byte for that endpoint. The push feed and the metrics scrape are owned by `push` and `obs`.
//! Children that claim more time than the handler span holds show up in
//! `bench.price_overrun_pct`.
//!
//! Per churn step: spans around `submit`, `Slurmctld::tick` and
//! `collect_now`, then probes of the calls the next interval's misses will
//! make — `squeue`/`sinfo`/`sacct` and their parsers, the `/slurm/v0`
//! serializers and the metrics exposition — on the live state.
//!
//! Every other page is replayed without spans or counter reads; the two
//! halves' medians give the tracing overhead.

use crate::check::{check, Answer, Served};
use crate::counters::Light;
use crate::report::{mean, median, ratio};
use crate::workload::{request_bytes, ClientState, Page, Req, Route, Site};
use hpcdash::http::{ParseStatus, Request};
use hpcdash::restapi::serialize;
use hpcdash::simtime::Clock;
use hpcdash::slurm::job::JobId;
use hpcdash::slurmcli::{self, SacctArgs, SqueueArgs};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The layers, named after the workspace crates.
pub const LAYERS: [&str; 8] = [
    "http",
    "core",
    "slurmcli",
    "slurm",
    "restapi",
    "push",
    "telemetry",
    "obs",
];

fn layer_ix(name: &str) -> usize {
    LAYERS
        .iter()
        .position(|l| *l == name)
        .expect("a known layer")
}

/// One recorded span. Times are ns from the run's start.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// The traced request this span belongs to; `None` for churn spans.
    pub request: Option<u32>,
}

/// In-memory span store, written out (summarised) when the run ends.
#[derive(Debug, Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    fn push(&mut self, span: Span) -> usize {
        self.0.push(span);
        self.0.len() - 1
    }

    /// Self time of each span from `first` on: its duration minus the
    /// union of its children's intervals. Spans from `first` on must have
    /// no parent before `first` (a request's spans are pushed together).
    pub fn self_times(&self, first: usize) -> Vec<u64> {
        let spans = &self.0[first..];
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p - first].push((s.start, s.end));
            }
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach).min(s.end), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }
}

/// What the traced run hands back.
#[derive(Debug, Default)]
pub struct Traced {
    pub requests: u64,
    pub failed: u64,
    /// Answers that were a 304 to the validator sent.
    pub not_modified: u64,
    pub spans: Spans,
    /// Per traced request: total ns and self ns per layer.
    pub per_request: Vec<(u64, [u64; LAYERS.len()])>,
    /// ns of work timed outside the handler (`slurmcli` re-runs, priced
    /// `restapi` serialization) laid into traced handler spans, and the
    /// part of it that ran past the measured end of the handler: time the
    /// children claim but the handler never spent.
    pub priced_ns: f64,
    pub overrun_ns: f64,
    pub parse_ns: Vec<f64>,
    pub dispatch_ns: Vec<f64>,
    pub serialize_ns: Vec<f64>,
    pub hit_dispatch_ns: Vec<f64>,
    pub miss_dispatch_ns: Vec<f64>,
    pub route_dispatch_ns: BTreeMap<&'static str, Vec<f64>>,
    /// parse + dispatch + serialize of untraced requests.
    pub untraced_ns: Vec<f64>,
    /// The same per route module, traced and untraced.
    pub route_total_ns: BTreeMap<&'static str, Vec<f64>>,
    pub untraced_route_ns: BTreeMap<&'static str, Vec<f64>>,
    pub cli_render_ns: Vec<f64>,
    pub cli_parse_ns: Vec<f64>,
    pub cli_text_bytes: Vec<f64>,
    pub rest_jobs_ns: Vec<f64>,
    pub expo_ns: Vec<f64>,
    pub collect_ns: Vec<f64>,
    pub failures: Vec<String>,
}

impl Traced {
    /// Mean per-layer self times of the twentieth of traced requests
    /// nearest the traced median.
    pub fn median_split(&self) -> [f64; LAYERS.len()] {
        let mut totals: Vec<f64> = self.per_request.iter().map(|(t, _)| *t as f64).collect();
        let med = median(&mut totals);
        let mut near: Vec<&(u64, [u64; LAYERS.len()])> = self.per_request.iter().collect();
        near.sort_by(|x, y| {
            (x.0 as f64 - med)
                .abs()
                .total_cmp(&(y.0 as f64 - med).abs())
        });
        near.truncate((near.len() / 20).max(1));
        let mut split = [0.0; LAYERS.len()];
        for (i, s) in split.iter_mut().enumerate() {
            *s = mean(&near.iter().map(|(_, l)| l[i] as f64).collect::<Vec<_>>());
        }
        split
    }

    /// Tracing overhead in percent: traced against untraced in-process
    /// medians, route by route (so the two halves' different route mixes
    /// cancel out), weighted by each route's request count.
    pub fn overhead_pct(&self) -> f64 {
        let (mut traced, mut untraced) = (0.0, 0.0);
        for (module, t) in &self.route_total_ns {
            let Some(u) = self.untraced_route_ns.get(module) else {
                continue;
            };
            let weight = (t.len() + u.len()) as f64;
            traced += weight * median(&mut t.clone());
            untraced += weight * median(&mut u.clone());
        }
        ratio(100.0 * (traced - untraced), untraced)
    }

    /// Mean self time per traced request, by layer.
    pub fn mean_split(&self) -> [f64; LAYERS.len()] {
        let mut split = [0.0; LAYERS.len()];
        for (i, s) in split.iter_mut().enumerate() {
            let xs: Vec<f64> = self.per_request.iter().map(|(_, l)| l[i] as f64).collect();
            *s = mean(&xs);
        }
        split
    }
}

/// Replay the first `requests` requests of `pages` against `site`,
/// running a churn step every `churn_every` requests.
pub fn run(site: &Site, pages: &[Page], requests: usize, churn_every: u64) -> Traced {
    let t0 = Instant::now();
    let ns = |t: Instant| t.duration_since(t0).as_nanos() as u64;
    let mut out = Traced::default();
    let mut state = ClientState {
        etags: site.warm_etags.clone(),
        ..ClientState::default()
    };
    // ns of `restapi` serialization per body byte by route, from the
    // latest probe.
    let mut rest_per_byte = probe(site, &mut out, 0, ns);
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut n = 0usize;
    'pages: for (k, page) in pages.iter().enumerate() {
        let traced = k % 2 == 0;
        for req in &page.reqs {
            if n == requests {
                break 'pages;
            }
            let (path, etag) = state.prepare(req);
            let bytes = request_bytes(site, req, &path, etag.as_deref());
            let before = if traced {
                Light::read(site)
            } else {
                Light::default()
            };
            let a = Instant::now();
            let parsed = match Request::parse_buf(&bytes) {
                ParseStatus::Complete { req, .. } => req,
                _ => panic!("the benchmark's own request failed to parse: {path}"),
            };
            let b = Instant::now();
            let resp = site.sim.dashboard.handle(&parsed);
            let c = Instant::now();
            buf.clear();
            resp.serialize_into(&mut buf, true, false);
            let d = Instant::now();
            let after = if traced {
                Light::read(site)
            } else {
                Light::default()
            };

            let ident = &site.idents[req.who as usize];
            let answer = Answer {
                status: resp.status,
                etag: resp.header("ETag"),
                stale_header: resp.header("X-Hpcdash-Stale").is_some(),
                body: resp.body.as_slice(),
            };
            out.requests += 1;
            match check(req.route, ident, etag.as_deref(), &answer) {
                Ok(v) => {
                    out.not_modified += u64::from(v.served == Served::NotModified);
                    state.remember(req, answer.etag, v.latest_seq);
                }
                Err(e) => {
                    out.failed += 1;
                    if out.failures.len() < 8 {
                        out.failures.push(format!("{path} as {}: {e}", ident.name));
                    }
                }
            }
            let served_body = resp.body.as_slice().len() as u64;
            if traced {
                let delta = after.since(&before);
                let cli_ns = if delta.parse_calls > 0 {
                    rerun_commands(site, req, delta.parse_calls)
                } else {
                    0.0
                };
                let rest_ns = match rest_per_byte.get(&req.route) {
                    Some(price) if delta.rest_misses > 0 => price * served_body as f64,
                    _ => 0.0,
                };
                record(
                    &mut out,
                    req.route,
                    [ns(a), ns(b), ns(c), ns(d)],
                    &delta,
                    cli_ns,
                    rest_ns,
                );
            } else {
                let total = (d - a).as_nanos() as f64;
                out.untraced_ns.push(total);
                out.untraced_route_ns
                    .entry(req.route.module())
                    .or_default()
                    .push(total);
            }
            n += 1;
            if (n as u64).is_multiple_of(churn_every) {
                let s = Instant::now();
                let times = site.churn_step();
                // Lay the step's parts end to end from its start.
                let start = ns(s);
                let parts = [
                    ("submit", "slurm", times.submit),
                    ("tick", "slurm", times.tick),
                    ("collect_now", "telemetry", times.collect),
                ];
                let mut at = start;
                for (name, layer, d) in parts {
                    let end = at + d.as_nanos() as u64;
                    out.spans.push(Span {
                        name,
                        layer,
                        start: at,
                        end,
                        parent: None,
                        request: None,
                    });
                    at = end;
                }
                out.collect_ns.push(times.collect.as_nanos() as f64);
                rest_per_byte = probe(site, &mut out, n as u64 / churn_every, ns);
            }
        }
    }
    out
}

/// Record one traced request's spans and per-layer self times.
fn record(
    out: &mut Traced,
    route: Route,
    [a, b, c, d]: [u64; 4],
    delta: &Light,
    cli_ns: f64,
    rest_ns: f64,
) {
    let id = Some(out.per_request.len() as u32);
    let span = |name, layer, start, end, parent| Span {
        name,
        layer,
        start,
        end,
        parent,
        request: id,
    };
    let first = out.spans.0.len();
    let root = out.spans.push(span("request", "http", a, d, None));
    out.spans.push(span("parse_buf", "http", a, b, Some(root)));
    let dispatch_layer = match route {
        Route::Updates => "push",
        Route::Metrics => "obs",
        _ => "core",
    };
    let dispatch = out
        .spans
        .push(span("Dashboard::handle", dispatch_layer, b, c, Some(root)));
    out.spans
        .push(span("serialize_into", "http", c, d, Some(root)));

    // Counted work inside the handler, laid end to end from its start.
    let inner = [
        (
            "rpc",
            "slurm",
            (delta.ctld_busy_ns + delta.dbd_busy_ns) as f64,
        ),
        ("tsdb", "telemetry", delta.telemetry_busy_ns as f64),
        ("text", "slurmcli", cli_ns),
        ("serialize", "restapi", rest_ns),
    ];
    let priced = cli_ns + rest_ns;
    let counted: f64 = inner.iter().map(|(_, _, dur)| dur).sum();
    out.priced_ns += priced;
    out.overrun_ns += (counted - (c - b) as f64).clamp(0.0, priced);
    let mut at = b;
    for (name, layer, dur) in inner {
        if dur > 0.0 {
            let end = at + dur as u64;
            out.spans.push(span(name, layer, at, end, Some(dispatch)));
            at = end;
        }
    }

    let selfs = out.spans.self_times(first);
    let mut layers = [0u64; LAYERS.len()];
    for (s, t) in out.spans.0[first..].iter().zip(selfs) {
        layers[layer_ix(s.layer)] += t;
    }
    out.per_request.push((d - a, layers));
    out.parse_ns.push((b - a) as f64);
    out.dispatch_ns.push((c - b) as f64);
    out.serialize_ns.push((d - c) as f64);
    if delta.widget_misses > 0 {
        out.miss_dispatch_ns.push((c - b) as f64);
    } else {
        out.hit_dispatch_ns.push((c - b) as f64);
    }
    out.route_dispatch_ns
        .entry(route.module())
        .or_default()
        .push((c - b) as f64);
    out.route_total_ns
        .entry(route.module())
        .or_default()
        .push((d - a) as f64);
}

/// Run again the command-boundary calls the handler of `req` just made
/// (mirroring the route loaders' commands and arguments), on the same
/// state, and return their time outside the daemon RPCs in ns, scaled to
/// the `parses` parse calls the handler made.
fn rerun_commands(site: &Site, req: &Req, parses: u64) -> f64 {
    let s = &site.sim.scenario;
    let ident = &site.idents[req.who as usize];
    let user = Some(ident.name.clone());
    let week = Some(s.clock.now().minus(7 * 86_400));
    let parses0 = slurmcli::parse_call_count();
    let mut cli_ns = 0.0;
    let mut run = |render: &dyn Fn() -> Result<String, String>, parse: &dyn Fn(&str) -> bool| {
        let busy0 = s.ctld.stats().total_busy() + s.dbd.stats().total_busy();
        let a = Instant::now();
        let text = render().expect("a healthy daemon answers");
        assert!(parse(&text), "{} output parses", req.path);
        let total = a.elapsed();
        let busy = (s.ctld.stats().total_busy() + s.dbd.stats().total_busy()) - busy0;
        cli_ns += total.saturating_sub(busy).as_nanos() as f64;
    };
    let own = SqueueArgs {
        user: user.clone(),
        ..SqueueArgs::default()
    };
    let sacct = |args: SacctArgs| move || slurmcli::sacct(&s.dbd, &args, s.clock.now());
    match req.route {
        Route::RecentJobs => run(&|| slurmcli::squeue_long(&s.ctld, &own), &|t| {
            slurmcli::parse_squeue_long(t).is_ok()
        }),
        Route::ActiveJobs => run(&|| slurmcli::squeue(&s.ctld, &own), &|t| {
            slurmcli::parse_squeue(t).is_ok()
        }),
        Route::SystemStatus => run(&|| slurmcli::sinfo_usage(&s.ctld), &|t| {
            slurmcli::parse_sinfo_usage(t).is_ok()
        }),
        Route::Accounts => run(&|| slurmcli::show_assoc(&s.ctld, Some(&ident.name)), &|t| {
            slurmcli::parse_show_assoc(t).is_ok()
        }),
        Route::ClusterStatus => run(&|| slurmcli::show_node(&s.ctld, None), &|t| {
            slurmcli::parse_show_node(t).is_ok()
        }),
        Route::NodeOverview => {
            let name = req.path.trim_start_matches("/api/nodes/");
            run(&|| slurmcli::show_node(&s.ctld, Some(name)), &|t| {
                slurmcli::parse_show_node(t).is_ok()
            })
        }
        Route::MyJobs => {
            let accounts = ident.accounts.clone();
            run(
                &sacct(SacctArgs {
                    user: user.clone(),
                    accounts: accounts.clone(),
                    since: week,
                    ..SacctArgs::default()
                }),
                &|t| slurmcli::parse_sacct(t).is_ok(),
            );
            let args = SqueueArgs {
                user: user.clone(),
                accounts,
                partition: None,
            };
            run(&|| slurmcli::squeue_long(&s.ctld, &args), &|t| {
                slurmcli::parse_squeue_long(t).is_ok()
            });
        }
        Route::JobMetrics => run(
            &sacct(SacctArgs {
                user: user.clone(),
                since: week,
                ..SacctArgs::default()
            }),
            &|t| slurmcli::parse_sacct(t).is_ok(),
        ),
        Route::JobOverview => {
            // Plain ids parse; array tasks are looked up while still live.
            let display = req.path.trim_start_matches("/api/jobs/");
            let id = display.parse().ok().map(JobId).or_else(|| {
                let snap = s.ctld.snapshot();
                let job = snap.jobs.iter().find(|j| j.display_id() == display);
                job.map(|j| j.id)
            });
            if let Some(id) = id {
                run(
                    &sacct(SacctArgs {
                        job_ids: Some(vec![id]),
                        ..SacctArgs::default()
                    }),
                    &|t| slurmcli::parse_sacct(t).is_ok(),
                );
            }
        }
        _ => {}
    }
    let rerun = slurmcli::parse_call_count() - parses0;
    ratio(cli_ns * parses as f64, rerun as f64)
}

/// Probe the command boundary, the REST serializers and the exposition on
/// the live state (churn step `step`), recording churn spans, and return
/// the `restapi` price per body byte of each `/slurm/v0` route for the next
/// interval's misses.
fn probe(
    site: &Site,
    out: &mut Traced,
    step: u64,
    ns: impl Fn(Instant) -> u64,
) -> HashMap<Route, f64> {
    let s = &site.sim.scenario;
    let users = &s.population.users;
    let user = &users[step as usize % users.len()];
    let accounts = s.population.accounts_of(user);
    let now = s.clock.now();

    let mut cli_span = |name: &'static str,
                        render: &dyn Fn() -> Result<String, String>,
                        parse: &dyn Fn(&str) -> bool| {
        let busy0 = s.ctld.stats().total_busy() + s.dbd.stats().total_busy();
        let a = Instant::now();
        let text = render().expect("a healthy daemon answers");
        let b = Instant::now();
        let busy = (s.ctld.stats().total_busy() + s.dbd.stats().total_busy()) - busy0;
        assert!(parse(&text), "{name} output parses");
        let c = Instant::now();
        let root = out.spans.push(Span {
            name,
            layer: "slurmcli",
            start: ns(a),
            end: ns(c),
            parent: None,
            request: None,
        });
        let rpc_end = ns(a) + (busy.as_nanos() as u64).min(ns(b) - ns(a));
        out.spans.push(Span {
            name: "rpc",
            layer: "slurm",
            start: ns(a),
            end: rpc_end,
            parent: Some(root),
            request: None,
        });
        out.cli_render_ns.push((b - a).as_nanos() as f64);
        out.cli_parse_ns.push((c - b).as_nanos() as f64);
        out.cli_text_bytes.push(text.len() as f64);
    };
    let squeue_args = SqueueArgs {
        user: Some(user.clone()),
        accounts: accounts.clone(),
        partition: None,
    };
    cli_span(
        "squeue",
        &|| slurmcli::squeue_long(&s.ctld, &squeue_args),
        &|t| slurmcli::parse_squeue_long(t).is_ok(),
    );
    cli_span("sinfo", &|| slurmcli::sinfo_usage(&s.ctld), &|t| {
        slurmcli::parse_sinfo_usage(t).is_ok()
    });
    let sacct_args = SacctArgs {
        user: Some(user.clone()),
        accounts,
        since: Some(now.minus(7 * 86_400)),
        ..SacctArgs::default()
    };
    cli_span(
        "sacct",
        &|| slurmcli::sacct(&s.dbd, &sacct_args, now),
        &|t| slurmcli::parse_sacct(t).is_ok(),
    );

    // The `/slurm/v0` serializers over the read-cluster view.
    let snap = s.ctld.snapshot();
    let positions: Vec<u32> = (0..snap.jobs.len() as u32).collect();
    let parts: Vec<usize> = (0..snap.partitions.len()).collect();
    let assoc: Vec<usize> = (0..snap.assoc.len()).collect();
    let mut prices = HashMap::new();
    for (name, route, f) in [
        (
            "jobs_body",
            Route::V0Jobs,
            &(|| serialize::jobs_body(&snap, &positions)) as &dyn Fn() -> String,
        ),
        ("nodes_body", Route::V0Nodes, &|| {
            serialize::nodes_body(&snap, None)
        }),
        ("partitions_body", Route::V0Partitions, &|| {
            serialize::partitions_body(&snap, &parts)
        }),
        ("assoc_body", Route::V0Assoc, &|| {
            serialize::assoc_body(&snap, &assoc)
        }),
    ] {
        let a = Instant::now();
        let body = std::hint::black_box(f());
        let b = Instant::now();
        out.spans.push(Span {
            name,
            layer: "restapi",
            start: ns(a),
            end: ns(b),
            parent: None,
            request: None,
        });
        if name == "jobs_body" {
            out.rest_jobs_ns.push((b - a).as_nanos() as f64);
        }
        prices.insert(route, ratio((b - a).as_nanos() as f64, body.len() as f64));
    }

    let a = Instant::now();
    std::hint::black_box(hpcdash_obs::expo::scrape_text(&site.sim.ctx().obs));
    let b = Instant::now();
    out.spans.push(Span {
        name: "scrape_text",
        layer: "obs",
        start: ns(a),
        end: ns(b),
        parent: None,
        request: None,
    });
    out.expo_ns.push((b - a).as_nanos() as f64);
    prices
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer: "core",
            start,
            end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = Spans(vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(90, 150, Some(0)),
            span(15, 20, Some(1)),
        ]);
        // Children cover 10..60 and 90..100 of the root.
        assert_eq!(spans.self_times(0), vec![40, 25, 30, 60, 5]);
        // A later request's spans, read from where they start.
        let spans = Spans(vec![
            span(0, 10, None),
            span(0, 5, Some(0)),
            span(20, 30, None),
            span(22, 25, Some(2)),
        ]);
        assert_eq!(spans.self_times(2), vec![7, 3]);
    }
}
