//! The untraced run: the real event-loop server over loopback sockets.
//!
//! At most `nproc` generator threads, each owning one keep-alive
//! connection, multiplex the simulated users as OOD's front proxy does:
//! page views alternate between the connections. The open-loop phase sends
//! each page view at its due time, whatever the server's pace, and times
//! every request from that due time. The closed-loop phase that follows
//! sends back to back and measures capacity. A churn thread advances the
//! cluster one tick per `churn_every` completed requests in both phases.

use crate::check::{check, Answer, Served};
use crate::counters::Full;
use crate::workload::{headers, ClientState, Page, Req, Route, Site, StepTimes};
use hpcdash::http::{ClientResponse, HttpClient};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Churn steps the churn thread may lag the request count before the
/// generators wait for it.
pub const MAX_CHURN_BEHIND: u64 = 2;

/// How one wire run is shaped.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Generator threads, one keep-alive connection each.
    pub conns: usize,
    pub open: Duration,
    /// The closed-loop (capacity) phase; zero skips it.
    pub closed: Duration,
    /// Offered requests per second in the open phase.
    pub rps: f64,
    pub churn_every: u64,
}

/// One request as the generator saw it. Times are ns from the open
/// phase's start.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub page: u32,
    pub route: Route,
    /// When the request was due (open phase only).
    pub due: u64,
    /// When the connection was free to send it.
    pub free: u64,
    pub sent: u64,
    pub done: u64,
    pub bytes: u64,
    /// `None`: the request failed (transport error or a failed check).
    pub served: Option<Served>,
}

#[derive(Debug, Default)]
pub struct Outcome {
    /// Open-phase requests, in page order.
    pub open: Vec<Rec>,
    /// Closed-phase requests that passed their checks, and that failed.
    pub closed_ok: u64,
    pub closed_failed: u64,
    pub closed_secs: f64,
    /// Churn steps run during the open phase.
    pub steps: Vec<StepTimes>,
    /// Largest number of churn steps the churn thread was behind.
    pub churn_behind_max: u64,
    pub worker_queue_max: i64,
    pub reactor_lag_us_max: i64,
    pub connections_opened: u64,
    pub threads: usize,
    /// Program counters around the open phase.
    pub before: Full,
    pub after: Full,
    /// Answers that failed their checks (both phases).
    pub check_failed: u64,
    /// The first few failure messages, for the log.
    pub failures: Vec<String>,
}

/// How many leading pages make up an open phase of `plan`: the offered
/// rate times the phase length, in requests.
pub fn open_pages(pages: &[Page], plan: &Plan) -> usize {
    let want = (plan.rps * plan.open.as_secs_f64()).ceil() as usize;
    let mut reqs = 0;
    for (i, p) in pages.iter().enumerate() {
        if reqs >= want {
            return i;
        }
        reqs += p.reqs.len();
    }
    pages.len()
}

struct Shared<'a> {
    site: &'a Site,
    plan: Plan,
    pages: &'a [Page],
    open_pages: usize,
    /// Page spacing in the open phase.
    interval_ns: f64,
    t0: Instant,
    completed: AtomicU64,
    closed_phase: AtomicBool,
    stop: AtomicBool,
    phase_gate: Barrier,
    failures: Mutex<Vec<String>>,
    check_failed: AtomicU64,
    /// Churn steps finished.
    steps_done: AtomicU64,
    /// Every simulated browser's validators and push cursors.
    state: Mutex<ClientState>,
    closed_start: OnceLock<Instant>,
}

struct ThreadOut {
    open: Vec<Rec>,
    closed_ok: u64,
    closed_failed: u64,
    opened: u64,
}

/// Run `pages` against `site` under `plan`.
pub fn run(site: &Site, pages: &[Page], plan: Plan) -> Outcome {
    let open_pages = open_pages(pages, &plan);
    let shared = Shared {
        site,
        plan,
        pages,
        open_pages,
        interval_ns: plan.open.as_nanos() as f64 / open_pages.max(1) as f64,
        t0: Instant::now() + Duration::from_millis(20),
        completed: AtomicU64::new(0),
        closed_phase: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        // Generators plus this coordinating thread.
        phase_gate: Barrier::new(plan.conns + 1),
        failures: Mutex::new(Vec::new()),
        check_failed: AtomicU64::new(0),
        steps_done: AtomicU64::new(0),
        state: Mutex::new(ClientState {
            etags: site.warm_etags.clone(),
            ..ClientState::default()
        }),
        closed_start: OnceLock::new(),
    };
    let before = Full::read(site);
    let mut out = Outcome {
        threads: plan.conns,
        closed_secs: plan.closed.as_secs_f64(),
        before,
        ..Outcome::default()
    };
    std::thread::scope(|scope| {
        let generators: Vec<_> = (0..plan.conns)
            .map(|i| {
                let shared = &shared;
                scope.spawn(move || generate(shared, i))
            })
            .collect();
        let churner = scope.spawn(|| churn_loop(&shared));

        // Between the phases: read the counters while every generator
        // waits, then release them into the closed loop.
        shared.phase_gate.wait();
        out.after = Full::read(site);
        shared.closed_phase.store(true, Ordering::SeqCst);
        shared
            .closed_start
            .set(Instant::now())
            .expect("the closed phase starts once");
        shared.phase_gate.wait();

        for g in generators {
            let t = g.join().expect("generator thread panicked");
            out.open.extend(t.open);
            out.closed_ok += t.closed_ok;
            out.closed_failed += t.closed_failed;
            out.connections_opened += t.opened;
        }
        shared.stop.store(true, Ordering::SeqCst);
        let (steps, behind, queue, lag) = churner.join().expect("churn thread panicked");
        out.steps = steps;
        out.churn_behind_max = behind;
        out.worker_queue_max = queue;
        out.reactor_lag_us_max = lag;
    });
    out.open.sort_by_key(|r| (r.page, r.sent));
    out.check_failed = shared.check_failed.load(Ordering::SeqCst);
    out.failures = shared.failures.into_inner().expect("failure log poisoned");
    out
}

fn ns_since(t0: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(t0).as_nanos() as u64
}

fn generate(sh: &Shared, me: usize) -> ThreadOut {
    let client = HttpClient::keep_alive();
    let base = sh.site.server.base_url();
    let mut out = ThreadOut {
        open: Vec::new(),
        closed_ok: 0,
        closed_failed: 0,
        opened: 0,
    };
    let mine = |k: &usize| *k % sh.plan.conns == me;
    let mut free = sh.t0;
    // Open-phase answers wait here for their checks, which run in the
    // slack before the next send when they fit, so checking does not delay
    // a due request. What never fits is checked after the phase.
    let mut unchecked: Vec<(usize, Reply)> = Vec::new();
    let mut check_ns_per_byte = 20.0;

    for k in (0..sh.open_pages).filter(mine) {
        let due = sh.t0 + Duration::from_nanos((k as f64 * sh.interval_ns) as u64);
        for req in &sh.pages[k].reqs {
            while let Some(slack) = due.checked_duration_since(Instant::now()) {
                let fits = unchecked.last().is_some_and(|(_, r)| {
                    r.body_len() as f64 * check_ns_per_byte < slack.as_nanos() as f64
                });
                if !fits {
                    std::thread::sleep(slack);
                    break;
                }
                let (i, reply) = unchecked.pop().expect("checked above");
                let (len, t) = (reply.body_len(), Instant::now());
                settle_open(sh, &mut out.open[i], reply);
                // Small bodies cost their fixed overhead, not bytes.
                if len >= 4096 {
                    let per_byte = t.elapsed().as_nanos() as f64 / len as f64;
                    check_ns_per_byte = 0.8 * check_ns_per_byte + 0.2 * per_byte;
                }
            }
            keep_pace_with_churn(sh);
            let free_at = free.max(due);
            let sent = Instant::now();
            let reply = send(sh, &client, &base, req);
            let done = Instant::now();
            free = done;
            out.open.push(Rec {
                page: k as u32,
                route: req.route,
                due: ns_since(sh.t0, due),
                free: ns_since(sh.t0, free_at),
                sent: ns_since(sh.t0, sent),
                done: ns_since(sh.t0, done),
                bytes: 0,
                served: None,
            });
            // The push cursor must be read before this user's next poll.
            if req.route == Route::Updates {
                settle_open(sh, out.open.last_mut().expect("just pushed"), reply);
            } else {
                unchecked.push((out.open.len() - 1, reply));
            }
            sh.completed.fetch_add(1, Ordering::SeqCst);
        }
    }
    for (i, reply) in unchecked {
        settle_open(sh, &mut out.open[i], reply);
    }

    sh.phase_gate.wait();
    sh.phase_gate.wait();
    if !sh.plan.closed.is_zero() {
        let start = *sh.closed_start.get().expect("set before the gate opens");
        let deadline = start + sh.plan.closed;
        'closed: for k in (sh.open_pages..sh.pages.len()).filter(mine) {
            for req in &sh.pages[k].reqs {
                keep_pace_with_churn(sh);
                if Instant::now() >= deadline {
                    break 'closed;
                }
                let reply = send(sh, &client, &base, req);
                match settle(sh, reply) {
                    Some(_) => out.closed_ok += 1,
                    None => out.closed_failed += 1,
                }
                sh.completed.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    out.opened = client.connection_stats().0;
    out
}

/// Hold the next send while the churn thread is more than
/// [`MAX_CHURN_BEHIND`] steps behind the request count, so every run does
/// the same churn per request whatever the machine's speed. In the open
/// phase the wait counts toward the request's latency.
fn keep_pace_with_churn(sh: &Shared) {
    while sh.completed.load(Ordering::SeqCst) / sh.plan.churn_every
        > sh.steps_done.load(Ordering::SeqCst) + MAX_CHURN_BEHIND
    {
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// An answer received and not yet checked.
struct Reply<'p> {
    req: &'p Req,
    path: String,
    /// The validator sent as `If-None-Match`.
    sent_etag: Option<String>,
    resp: Result<ClientResponse, String>,
}

impl Reply<'_> {
    fn body_len(&self) -> usize {
        self.resp.as_ref().map_or(0, |r| r.body.len())
    }
}

/// Send `req` and keep the answer's validator for the user's next request.
fn send<'p>(sh: &Shared, client: &HttpClient, base: &str, req: &'p Req) -> Reply<'p> {
    let (path, sent_etag) = sh.state.lock().expect("client state poisoned").prepare(req);
    let hdrs = headers(sh.site, req, sent_etag.as_deref());
    let hdrs: Vec<(&str, &str)> = hdrs.iter().map(|(k, v)| (*k, v.as_str())).collect();
    let resp = client
        .get(&format!("{base}{path}"), &hdrs)
        .map_err(|e| format!("{path}: {e}"));
    if let Ok(etag) = resp.as_ref().map(|r| r.header("etag")) {
        sh.state
            .lock()
            .expect("client state poisoned")
            .remember(req, etag, None);
    }
    Reply {
        req,
        path,
        sent_etag,
        resp,
    }
}

/// Check an answer; a failed one is logged and yields `None`.
fn settle(sh: &Shared, reply: Reply) -> Option<(u64, Served)> {
    let ident = &sh.site.idents[reply.req.who as usize];
    let failure = match &reply.resp {
        Err(e) => e.clone(),
        Ok(resp) => {
            let answer = Answer {
                status: resp.status,
                etag: resp.header("etag"),
                stale_header: resp.header("x-hpcdash-stale").is_some(),
                body: &resp.body,
            };
            match check(reply.req.route, ident, reply.sent_etag.as_deref(), &answer) {
                Ok(verdict) => {
                    if verdict.latest_seq.is_some() {
                        sh.state.lock().expect("client state poisoned").remember(
                            reply.req,
                            None,
                            verdict.latest_seq,
                        );
                    }
                    return Some((resp.body.len() as u64, verdict.served));
                }
                Err(e) => {
                    sh.check_failed.fetch_add(1, Ordering::Relaxed);
                    format!("{} as {}: {e}", reply.path, ident.name)
                }
            }
        }
    };
    let mut log = sh.failures.lock().expect("failure log poisoned");
    if log.len() < 8 {
        log.push(failure);
    }
    None
}

fn settle_open(sh: &Shared, rec: &mut Rec, reply: Reply) {
    if let Some((bytes, served)) = settle(sh, reply) {
        rec.bytes = bytes;
        rec.served = Some(served);
    }
}

/// The churn thread: one step per `churn_every` completed requests, and
/// between steps a sample of the server's queue and loop-lag gauges.
fn churn_loop(sh: &Shared) -> (Vec<StepTimes>, u64, i64, i64) {
    let obs = &sh.site.sim.ctx().obs;
    let queue = obs.gauge("hpcdash_http_worker_queue_depth", &[]);
    let lags: Vec<_> = (0..2)
        .map(|i| {
            obs.gauge(
                "hpcdash_http_reactor_loop_lag_us",
                &[("reactor", &i.to_string())],
            )
        })
        .collect();
    let (mut steps, mut done, mut behind_max) = (Vec::new(), 0u64, 0u64);
    let (mut queue_max, mut lag_max) = (0i64, 0i64);
    while !sh.stop.load(Ordering::SeqCst) {
        let due = sh.completed.load(Ordering::SeqCst) / sh.plan.churn_every;
        if due > done {
            behind_max = behind_max.max(due - done);
            let times = sh.site.churn_step();
            if !sh.closed_phase.load(Ordering::SeqCst) {
                steps.push(times);
            }
            done += 1;
            sh.steps_done.store(done, Ordering::SeqCst);
            continue;
        }
        queue_max = queue_max.max(queue.get());
        for lag in &lags {
            lag_max = lag_max.max(lag.get());
        }
        std::thread::sleep(Duration::from_micros(250));
    }
    (steps, behind_max, queue_max, lag_max)
}
