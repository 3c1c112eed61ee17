//! The three traffic mixes, the site each runs on, and the seeded request
//! schedule the generator replays.
//!
//! The site (scenario seed, warm-up, tokens) is the same for every
//! `--seed`; only the schedule — who asks for what, in which order — comes
//! from the workload seed. The program sees nothing but the requests.

use crate::Rng;
use hpcdash::http::{HttpClient, Method, Request, Server};
use hpcdash::workload::{ScenarioConfig, SimDriver};
use hpcdash::SimSite;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Simulated seconds of cluster traffic before the first request.
pub const WARM_SECS: u64 = 3_600;
/// Simulated seconds of job trace loaded beyond the warm-up: more than
/// any run's churn steps can consume.
pub const TRACE_HORIZON_SECS: u64 = 48 * 3_600;
/// One churn step: `SimDriver::advance` over one scheduler tick.
pub const STEP_SECS: u64 = 30;
/// The administrator identity of `DashboardConfig::purdue_like()`.
pub const ADMIN: &str = "root";

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    HomepagePoll,
    JobsChurn,
    ApiScripts,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HomepagePoll,
        Workload::JobsChurn,
        Workload::ApiScripts,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HomepagePoll => "homepage_poll",
            Workload::JobsChurn => "jobs_churn",
            Workload::ApiScripts => "api_scripts",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn scenario(self) -> ScenarioConfig {
        match self {
            Workload::HomepagePoll => ScenarioConfig::campus(),
            Workload::JobsChurn | Workload::ApiScripts => large_site(),
        }
    }

    /// Offered load of the open-loop phase, in requests per second. Fixed
    /// once at about a quarter of the closed-loop capacity measured on a
    /// 2-vCPU machine, and never derived per run, so two commits under
    /// comparison receive the same load. At half capacity the host's slow
    /// spells pushed some runs into growing queues and not others.
    pub fn offered_rps(self) -> f64 {
        match self {
            Workload::HomepagePoll => 1_200.0,
            Workload::JobsChurn => 85.0,
            Workload::ApiScripts => 120.0,
        }
    }

    /// Dashboard requests completed per churn step (one scheduler tick of
    /// simulated time). Churn follows the request count, not the wall
    /// clock, so a faster server does the same miss and epoch work per
    /// request.
    pub fn churn_every(self) -> u64 {
        match self {
            Workload::HomepagePoll => 600,
            Workload::JobsChurn => 40,
            Workload::ApiScripts => 120,
        }
    }
}

/// The larger site of `jobs_churn` and `api_scripts`: about 4x campus's
/// users and 5-10x its queue, small enough that set-up stays a few seconds.
pub fn large_site() -> ScenarioConfig {
    ScenarioConfig::named("anvil-large")
        .cpu(128, 128, 257_000)
        .gpu(16, 128, 512_000, 4)
        .accounts(45, 3, 8)
        .arrivals_per_hour(900.0)
        .diurnal()
        .seed(42)
        .realistic_costs()
}

/// Every route the mixes request. `module` names the `hpcdash_core::api`
/// module (or `pages`) that serves it, for per-route metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    Shell,
    Announcements,
    RecentJobs,
    SystemStatus,
    Accounts,
    Storage,
    MyJobs,
    JobMetrics,
    ActiveJobs,
    JobOverview,
    JobTelemetry,
    LiveTelemetry,
    ClusterStatus,
    NodeOverview,
    Updates,
    Metrics,
    V0Jobs,
    V0Nodes,
    V0Partitions,
    V0Assoc,
}

/// Route modules, in the order per-route metrics are reported.
pub const MODULES: [&str; 16] = [
    "pages",
    "announcements",
    "recent_jobs",
    "system_status",
    "accounts",
    "storage",
    "myjobs",
    "jobmetrics",
    "activejobs",
    "joboverview",
    "jobtelemetry",
    "clusterstatus",
    "nodeoverview",
    "updates",
    "metrics",
    "slurmrest",
];

impl Route {
    pub fn module(self) -> &'static str {
        match self {
            Route::Shell => "pages",
            Route::Announcements => "announcements",
            Route::RecentJobs => "recent_jobs",
            Route::SystemStatus => "system_status",
            Route::Accounts => "accounts",
            Route::Storage => "storage",
            Route::MyJobs => "myjobs",
            Route::JobMetrics => "jobmetrics",
            Route::ActiveJobs => "activejobs",
            Route::JobOverview => "joboverview",
            Route::JobTelemetry | Route::LiveTelemetry => "jobtelemetry",
            Route::ClusterStatus => "clusterstatus",
            Route::NodeOverview => "nodeoverview",
            Route::Updates => "updates",
            Route::Metrics => "metrics",
            Route::V0Jobs | Route::V0Nodes | Route::V0Partitions | Route::V0Assoc => "slurmrest",
        }
    }

    /// Top-level keys every 200 body of the route must carry. Empty for
    /// the two non-JSON routes (the HTML shell and the Prometheus text).
    pub fn keys(self) -> &'static [&'static str] {
        match self {
            Route::Shell | Route::Metrics => &[],
            Route::Announcements => &["all_news_url", "items"],
            Route::RecentJobs => &["jobs"],
            Route::SystemStatus => &["details_url", "partitions"],
            Route::Accounts => &["accounts", "user_guide_url"],
            Route::Storage => &["disks"],
            Route::MyJobs => &["charts", "jobs", "range"],
            Route::JobMetrics => &["live_jobs", "metrics", "range"],
            Route::ActiveJobs => &["jobs"],
            Route::JobOverview => &["header", "timeline", "cards"],
            Route::JobTelemetry => &["id", "state", "telemetry"],
            Route::LiveTelemetry => &["jobs", "window_secs"],
            Route::ClusterStatus => &["nodes"],
            Route::NodeOverview => &["status_card", "resource_card"],
            Route::Updates => &["events", "latest_seq", "resync_required", "sub"],
            Route::V0Jobs => &["meta", "jobs"],
            Route::V0Nodes => &["meta", "nodes"],
            Route::V0Partitions => &["meta", "partitions"],
            Route::V0Assoc => &["meta", "associations"],
        }
    }
}

/// One request of the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// Index into [`Site::idents`].
    pub who: u32,
    /// Authenticate with the identity's bearer token instead of the
    /// front proxy's `X-Remote-User`.
    pub bearer: bool,
    pub route: Route,
    /// Path and query. `Route::Updates` gets `&since=<n>` appended at send
    /// time from the identity's last answer, as a live tab would.
    pub path: String,
}

/// One page view: requests due together, done when the last one is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    pub who: u32,
    pub reqs: Vec<Req>,
}

/// Wall time of one churn step's parts.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimes {
    /// Job submissions due in the step.
    pub submit: Duration,
    /// `Slurmctld::tick`: the scheduler pass and snapshot publication.
    pub tick: Duration,
    /// `TelemetryD::collect_now`.
    pub collect: Duration,
}

/// An identity the generator speaks for.
#[derive(Debug, Clone)]
pub struct Ident {
    pub name: String,
    /// The accounts the identity belongs to (its group visibility).
    pub accounts: Vec<String>,
    /// Bearer secret, minted at set-up (`api_scripts` only).
    pub secret: Option<String>,
    /// The token holds only `read-own-jobs`: its job listings must contain
    /// nothing but the subject's jobs.
    pub own_jobs_only: bool,
}

/// A built, warmed and serving site.
pub struct Site {
    pub workload: Workload,
    pub sim: SimSite,
    pub server: Server,
    /// The cluster's driver, advanced by [`Site::churn_step`].
    pub driver: Mutex<SimDriver>,
    pub idents: Vec<Ident>,
    /// Per user (same index as `idents`): display ids of their jobs.
    pub jobs_of: Vec<Vec<String>>,
    pub nodes: Vec<String>,
    /// `(who, path) -> ETag` left by the set-up's warming pass.
    pub warm_etags: HashMap<(u32, String), String>,
}

impl Site {
    /// Build the site, run the warm-up, start the server, mint tokens and
    /// warm the caches. This is exactly what `setup_s` measures.
    pub fn setup(workload: Workload) -> Site {
        let sim = SimSite::build(workload.scenario());
        let mut driver = sim.driver(WARM_SECS + TRACE_HORIZON_SECS);
        driver.advance(WARM_SECS);
        let server = sim.serve().expect("bind the dashboard on loopback");

        let snap = sim.scenario.ctld.snapshot();
        let users = &sim.scenario.population.users;
        let mut jobs_of: Vec<Vec<String>> = vec![Vec::new(); users.len()];
        let index: HashMap<&str, usize> = users
            .iter()
            .enumerate()
            .map(|(i, u)| (u.as_str(), i))
            .collect();
        for job in snap.jobs.iter() {
            if let Some(&i) = index.get(job.req.user.as_str()) {
                jobs_of[i].push(job.display_id());
            }
        }
        let nodes = snap.nodes.iter().map(|n| n.name.clone()).collect();

        let mut idents: Vec<Ident> = users
            .iter()
            .map(|u| Ident {
                name: u.clone(),
                accounts: sim.scenario.population.accounts_of(u),
                secret: None,
                own_jobs_only: false,
            })
            .chain(std::iter::once(Ident {
                name: ADMIN.to_string(),
                accounts: Vec::new(),
                secret: None,
                own_jobs_only: false,
            }))
            .collect();
        if workload == Workload::ApiScripts {
            mint_tokens(&server, &mut idents);
        }

        let mut site = Site {
            workload,
            sim,
            server,
            driver: Mutex::new(driver),
            idents,
            jobs_of,
            nodes,
            warm_etags: HashMap::new(),
        };
        if workload == Workload::HomepagePoll {
            site.warm_homepages();
        }
        site
    }

    /// One churn step: job submissions, `Slurmctld::tick` and
    /// `TelemetryD::collect_now` through `SimDriver::advance`, timed by what
    /// the daemons record per RPC kind (no one else issues these kinds).
    pub fn churn_step(&self) -> StepTimes {
        let s = &self.sim.scenario;
        let read = || {
            let ctld = s.ctld.stats().snapshot().per_kind;
            let kind_ns = |k| ctld.get(k).map_or(0, |v| v.total_ns);
            let collect = s.telemetry.stats().snapshot().per_kind;
            [
                kind_ns("submit"),
                kind_ns("sched_tick"),
                collect.get("collect").map_or(0, |v| v.total_ns),
            ]
        };
        let before = read();
        self.driver
            .lock()
            .expect("driver poisoned")
            .advance(STEP_SECS);
        let after = read();
        let part = |i: usize| Duration::from_nanos(after[i] - before[i]);
        StepTimes {
            submit: part(0),
            tick: part(1),
            collect: part(2),
        }
    }

    pub fn user_count(&self) -> usize {
        self.idents.len() - 1
    }

    pub fn admin(&self) -> u32 {
        (self.idents.len() - 1) as u32
    }

    /// Every user opens the homepage once, so the measured phase starts
    /// from the paper's steady state of open tabs holding validators.
    fn warm_homepages(&mut self) {
        for who in 0..self.user_count() as u32 {
            for req in home_page(who) {
                let resp = self.sim.dashboard.handle(
                    &Request::new(Method::Get, &req.path)
                        .with_header("X-Remote-User", &self.idents[who as usize].name),
                );
                if let Some(etag) = resp.header("ETag") {
                    self.warm_etags.insert((who, req.path), etag.to_string());
                }
            }
        }
    }

    /// Stop serving and wait for the event loop to wind down.
    pub fn shutdown(&self) {
        self.server.shutdown();
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.server.connection_count() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Mint a `read-own-jobs` token per user and a `read-cluster` token for
/// the wall displays (the administrator), through the admin route so
/// mint-time narrowing applies.
fn mint_tokens(server: &Server, idents: &mut [Ident]) {
    let client = HttpClient::keep_alive();
    let url = format!("{}/slurm/v0/admin/tokens", server.base_url());
    let last = idents.len() - 1;
    for (i, ident) in idents.iter_mut().enumerate() {
        let scope = if i == last {
            "read-cluster"
        } else {
            "read-own-jobs"
        };
        let body = format!(
            "{{\"subject\":\"{}\",\"scopes\":[\"{scope}\"]}}",
            ident.name
        );
        let resp = client
            .post(&url, &[("X-Remote-User", ADMIN)], body.into_bytes())
            .expect("mint a token over loopback");
        assert_eq!(resp.status, 200, "minting {scope} for {}", ident.name);
        let v = resp.json().expect("mint answers JSON");
        ident.secret = Some(
            v["secret"]
                .as_str()
                .expect("mint answers a secret")
                .to_string(),
        );
        ident.own_jobs_only = i != last;
    }
    drop(client);
}

fn req(who: u32, route: Route, path: impl Into<String>) -> Req {
    Req {
        who,
        bearer: false,
        route,
        path: path.into(),
    }
}

fn bearer(who: u32, route: Route, path: &str) -> Req {
    Req {
        who,
        bearer: true,
        route,
        path: path.to_string(),
    }
}

/// The homepage: the shell plus its five widgets.
pub fn home_page(who: u32) -> Vec<Req> {
    vec![
        req(who, Route::Shell, "/"),
        req(who, Route::Announcements, "/api/announcements"),
        req(who, Route::RecentJobs, "/api/recent_jobs"),
        req(who, Route::SystemStatus, "/api/system_status"),
        req(who, Route::Accounts, "/api/accounts"),
        req(who, Route::Storage, "/api/storage"),
    ]
}

const UPDATES: &str = "/api/updates/stream?wait_ms=0&sub=tab";

/// Pick an index by integer weights.
fn weighted(rng: &mut Rng, weights: &[usize]) -> usize {
    let mut x = rng.below(weights.iter().sum());
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    unreachable!("x is below the weight sum")
}

/// The seeded page sequence: `pages` page views of `site`'s workload.
pub fn schedule(site: &Site, seed: u64, pages: usize) -> Vec<Page> {
    let mut rng = Rng::new(seed);
    let users = site.user_count();
    let admin = site.admin();
    (0..pages)
        .map(|k| {
            let who = rng.below(users) as u32;
            let reqs = match site.workload {
                Workload::HomepagePoll => home_page(who),
                Workload::JobsChurn => jobs_page(site, &mut rng, who),
                Workload::ApiScripts => {
                    // A unique cache-buster per request, as jQuery's
                    // `cache: false` appends.
                    let bust = |n: usize| format!("?_={}", 1_000_000 + 4 * k + n);
                    match weighted(&mut rng, &[2, 5, 4, 1]) {
                        0 => vec![
                            bearer(admin, Route::V0Jobs, "/slurm/v0/jobs"),
                            bearer(admin, Route::V0Nodes, "/slurm/v0/nodes"),
                            bearer(admin, Route::V0Partitions, "/slurm/v0/partitions"),
                        ],
                        1 => vec![
                            bearer(who, Route::V0Jobs, "/slurm/v0/jobs"),
                            bearer(who, Route::V0Assoc, "/slurm/v0/associations"),
                        ],
                        2 => vec![
                            req(
                                who,
                                Route::SystemStatus,
                                format!("/api/system_status{}", bust(0)),
                            ),
                            req(
                                who,
                                Route::RecentJobs,
                                format!("/api/recent_jobs{}", bust(1)),
                            ),
                        ],
                        _ => vec![req(admin, Route::Metrics, "/api/metrics")],
                    }
                }
            };
            let who = reqs[0].who;
            Page { who, reqs }
        })
        .collect()
}

fn jobs_page(site: &Site, rng: &mut Rng, who: u32) -> Vec<Req> {
    let jobs = &site.jobs_of[who as usize];
    let mut kind = weighted(rng, &[3, 3, 2, 2, 2, 1]);
    if kind == 1 && jobs.is_empty() {
        kind = 0;
    }
    match kind {
        0 => vec![
            req(who, Route::MyJobs, "/api/myjobs"),
            req(who, Route::JobMetrics, "/api/jobmetrics"),
        ],
        1 => {
            let id = &jobs[rng.below(jobs.len())];
            vec![
                req(who, Route::JobOverview, format!("/api/jobs/{id}")),
                req(
                    who,
                    Route::JobTelemetry,
                    format!("/api/jobs/{id}/telemetry"),
                ),
            ]
        }
        2 => vec![
            req(who, Route::ActiveJobs, "/api/activejobs"),
            req(who, Route::Updates, UPDATES),
        ],
        3 => {
            let node = &site.nodes[rng.below(site.nodes.len())];
            vec![
                req(who, Route::ClusterStatus, "/api/clusterstatus"),
                req(who, Route::NodeOverview, format!("/api/nodes/{node}")),
            ]
        }
        4 => vec![
            req(who, Route::LiveTelemetry, "/api/jobtelemetry"),
            req(who, Route::Updates, UPDATES),
        ],
        _ => vec![
            req(who, Route::RecentJobs, "/api/recent_jobs"),
            req(who, Route::Updates, UPDATES),
        ],
    }
}

/// Client-side state of one simulated browser population: the last ETag
/// per `(identity, path)` and the last push sequence per identity.
#[derive(Debug, Default, Clone)]
pub struct ClientState {
    pub etags: HashMap<(u32, String), String>,
    pub since: HashMap<u32, u64>,
}

impl ClientState {
    /// The wire path and validator for `req`.
    pub fn prepare(&self, req: &Req) -> (String, Option<String>) {
        let path = if req.route == Route::Updates {
            let since = self.since.get(&req.who).copied().unwrap_or(0);
            format!("{}&since={since}", req.path)
        } else {
            req.path.clone()
        };
        let etag = self.etags.get(&(req.who, req.path.clone())).cloned();
        (path, etag)
    }

    pub fn remember(&mut self, req: &Req, etag: Option<&str>, latest_seq: Option<u64>) {
        if let Some(etag) = etag {
            self.etags
                .insert((req.who, req.path.clone()), etag.to_string());
        }
        if let Some(seq) = latest_seq {
            self.since.insert(req.who, seq);
        }
    }
}

/// The identity and validator headers of `req`: the front proxy's
/// `X-Remote-User` or a bearer token, plus `If-None-Match` when the
/// identity holds a validator for the path.
pub fn headers(site: &Site, req: &Req, etag: Option<&str>) -> Vec<(&'static str, String)> {
    let ident = &site.idents[req.who as usize];
    let mut out = Vec::with_capacity(2);
    if req.bearer {
        let secret = ident
            .secret
            .as_deref()
            .expect("bearer requests have tokens");
        out.push(("Authorization", format!("Bearer {secret}")));
    } else {
        out.push(("X-Remote-User", ident.name.clone()));
    }
    if let Some(etag) = etag {
        out.push(("If-None-Match", etag.to_string()));
    }
    out
}

/// The request bytes the keep-alive client writes for `req`: what the
/// traced run hands to the server's parser.
pub fn request_bytes(site: &Site, req: &Req, path: &str, etag: Option<&str>) -> Vec<u8> {
    let mut out = format!(
        "GET {path} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n",
        site.server.addr()
    );
    for (k, v) in headers(site, req, etag) {
        out.push_str(&format!("{k}: {v}\r\n"));
    }
    out.push_str("\r\n");
    out.into_bytes()
}
