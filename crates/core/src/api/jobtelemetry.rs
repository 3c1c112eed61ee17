//! Job telemetry API (beyond Table 1): per-job utilization sparklines
//! backed by the telemetry collectors' embedded time-series store.
//!
//! Two routes: `/api/jobtelemetry` returns the current user's running jobs
//! with their recent CPU/memory/GPU series (the live-sparkline strip on the
//! Job Performance Metrics page), and `/api/jobs/:id/telemetry` returns the
//! full-lifetime series for one job (the sparkline card on Job Overview).
//! Both are privacy-filtered exactly like the job routes they decorate, and
//! cached under the dedicated `cache.telemetry` TTL (squeue tier — the
//! series sit next to live queue state; see DESIGN.md §3).

use crate::auth::CurrentUser;
use crate::ctx::DashboardContext;
use hpcdash_http::{Request, Response, Router};
use hpcdash_slurm::ctld::JobQuery;
use hpcdash_slurm::job::{Job, JobState};
use hpcdash_telemetry::keys;
use serde_json::{json, Value};

pub const FEATURE: &str = "Job Telemetry";
pub const ROUTES: &[&str] = &["/api/jobtelemetry", "/api/jobs/:id/telemetry"];
pub const SOURCES: &[&str] = &[
    "squeue (slurmctld)",
    "scontrol show job (slurmctld)",
    "sacct (slurmdbd)",
    "telemetryd (metrics collector)",
];

/// The source label collector-backed series report under — shared with the
/// Table-1 features that embed them (Job Overview, Job Performance Metrics).
pub const TELEMETRY_SOURCE: &str = "telemetryd (metrics collector)";

/// Live sparklines cover the collector's raw tier: the last 30 minutes at
/// tick resolution.
const LIVE_WINDOW_SECS: i64 = 1_800;
const LIVE_RESOLUTION_SECS: i64 = 30;
/// Per-job series are capped near this many points; the resolution widens
/// with the job's runtime so long jobs land on the rollup tiers.
const MAX_POINTS: i64 = 120;

pub fn register(router: &mut Router, ctx: DashboardContext) {
    let ctx_job = ctx.clone();
    router.get(ROUTES[0], move |req| handle_live(&ctx, req));
    router.get(ROUTES[1], move |req| handle_job(&ctx_job, req));
}

fn round4(x: f64) -> f64 {
    (x * 10_000.0).round() / 10_000.0
}

fn pairs(points: &[hpcdash_telemetry::RangePoint]) -> Value {
    Value::Array(
        points
            .iter()
            .map(|p| json!([p.t, round4(p.mean)]))
            .collect(),
    )
}

/// The sparkline series for one job over `[start, end]` at `resolution`.
fn series_block(ctx: &DashboardContext, job: &Job, start: i64, end: i64, resolution: i64) -> Value {
    let (cpu, tier) = ctx
        .telemetry
        .query_range(&keys::job_cpu(job.id), start, end, resolution);
    let (mem, _) = ctx
        .telemetry
        .query_range(&keys::job_mem(job.id), start, end, resolution);
    let gpu = if job.req.gpus_per_node > 0 {
        let (g, _) = ctx
            .telemetry
            .query_range(&keys::job_gpu(job.id), start, end, resolution);
        pairs(&g)
    } else {
        Value::Null
    };
    json!({
        "start": start,
        "end": end,
        "resolution_secs": resolution,
        "tier": tier.label(),
        "cpu": pairs(&cpu),
        "mem": pairs(&mem),
        "gpu": gpu,
    })
}

/// Full-lifetime series payload for one job, for embedding in the Job
/// Overview response. `Null` when the job has not started (no series yet).
pub(crate) fn job_series_payload(ctx: &DashboardContext, feature: &str, job: &Job) -> Value {
    ctx.note_source(feature, TELEMETRY_SOURCE);
    let Some(start) = job.start_time else {
        return Value::Null;
    };
    let start = start.as_secs() as i64;
    let end = job
        .end_time
        .map(|t| t.as_secs() as i64)
        .unwrap_or_else(|| ctx.now().as_secs() as i64);
    let window = (end - start).max(1);
    let resolution = (window / MAX_POINTS).max(LIVE_RESOLUTION_SECS);
    // `end + 1`: series timestamps are inclusive tick times.
    series_block(ctx, job, start, end + 1, resolution)
}

/// Mean collector-measured GPU utilization over the job's lifetime, for the
/// efficiency report. `None` for non-GPU jobs, unstarted jobs, or when the
/// series has aged out of retention — callers fall back to the
/// approximation.
pub(crate) fn collector_gpu_mean(ctx: &DashboardContext, job: &Job) -> Option<f64> {
    if job.req.gpus_per_node == 0 {
        return None;
    }
    let start = job.start_time?.as_secs() as i64;
    let end = job
        .end_time
        .map(|t| t.as_secs() as i64)
        .unwrap_or_else(|| ctx.now().as_secs() as i64);
    ctx.telemetry
        .series_mean(&keys::job_gpu(job.id), start, end + 1)
}

/// The current user's running jobs with their recent series — the live
/// strip on the Job Performance Metrics page. Notes its sources under the
/// calling feature so the Table-1 harness sees the embed.
pub(crate) fn live_jobs_payload(ctx: &DashboardContext, feature: &str, user: &str) -> Value {
    ctx.note_source(feature, "squeue (slurmctld)");
    ctx.note_source(feature, TELEMETRY_SOURCE);
    let now = ctx.now().as_secs() as i64;
    let mut jobs = Vec::new();
    for job in ctx.ctld.query_jobs(&JobQuery::for_user(user)) {
        if job.state != JobState::Running {
            continue;
        }
        let Some(start) = job.start_time else {
            continue;
        };
        let start = (now - LIVE_WINDOW_SECS).max(start.as_secs() as i64);
        let series = series_block(ctx, &job, start, now + 1, LIVE_RESOLUTION_SECS);
        jobs.push(json!({
            "id": job.display_id(),
            "name": job.req.name,
            "overview_url": format!("/jobs/{}", job.display_id()),
            "series": series,
        }));
    }
    json!({
        "window_secs": LIVE_WINDOW_SECS,
        "jobs": jobs,
    })
}

fn handle_live(ctx: &DashboardContext, req: &Request) -> Response {
    let user = match CurrentUser::from_request(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let key = format!("telemetry:live:{}", user.username);
    let outcome = ctx.cached_resilient(&key, ctx.cfg.cache.telemetry, || {
        Ok(live_jobs_payload(ctx, FEATURE, &user.username))
    });
    super::respond(outcome)
}

fn handle_job(ctx: &DashboardContext, req: &Request) -> Response {
    let user = match CurrentUser::from_request(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let Some(id) = req.param("id") else {
        return Response::bad_request("missing job id");
    };
    let Some(job) = super::joboverview::resolve_job(ctx, FEATURE, id) else {
        return Response::not_found(&format!("job {id} not found"));
    };
    if !user.may_view_job_of(&job.req.user, &job.req.account, ctx) {
        return Response::forbidden("this job belongs to another group");
    }
    let key = format!("telemetry:job:{}", job.display_id());
    let outcome = ctx.cached_resilient(&key, ctx.cfg.cache.telemetry, || {
        Ok(json!({
            "id": job.display_id(),
            "state": job.state.to_slurm(),
            "telemetry": job_series_payload(ctx, FEATURE, &job),
        }))
    });
    super::respond(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx_clocked;
    use hpcdash_http::Method;
    use hpcdash_simtime::SimClock;
    use hpcdash_slurm::job::{JobRequest, UsageProfile};

    fn request(path: &str, user: &str) -> Request {
        Request::new(Method::Get, path).with_header("X-Remote-User", user)
    }

    fn job_request(path: &str, id: &str, user: &str) -> Request {
        let mut r = request(path, user);
        r.params.insert("id".to_string(), id.to_string());
        r
    }

    /// Submit a job, run it a while, and collect telemetry each tick.
    fn run_job_with_telemetry(ctx: &DashboardContext, clock: &SimClock, ticks: u32) -> String {
        let mut req = JobRequest::simple("alice", "physics", "cpu", 4);
        req.usage = UsageProfile::batch(24 * 3_600);
        let ids = ctx.ctld.submit(req).unwrap();
        ctx.ctld.tick();
        for _ in 0..ticks {
            clock.advance(30);
            ctx.ctld.tick();
            ctx.telemetry.collect_now();
        }
        ids[0].to_string()
    }

    #[test]
    fn live_route_returns_running_jobs_with_series() {
        let (ctx, clock) = test_ctx_clocked();
        run_job_with_telemetry(&ctx, &clock, 10);
        let resp = handle_live(&ctx, &request("/api/jobtelemetry", "alice"));
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        let body = resp.body_json().unwrap();
        let jobs = body["jobs"].as_array().unwrap();
        assert_eq!(jobs.len(), 1);
        let series = &jobs[0]["series"];
        assert_eq!(series["tier"], "raw");
        let cpu = series["cpu"].as_array().unwrap();
        assert_eq!(cpu.len(), 10, "one point per collected tick");
        for p in cpu {
            let v = p[1].as_f64().unwrap();
            assert!((0.0..=1.0).contains(&v), "utilization fraction: {v}");
        }
        assert!(
            series["gpu"].is_null(),
            "cpu-partition job has no gpu series"
        );
    }

    #[test]
    fn per_job_route_covers_the_job_window() {
        let (ctx, clock) = test_ctx_clocked();
        let id = run_job_with_telemetry(&ctx, &clock, 6);
        let resp = handle_job(
            &ctx,
            &job_request(&format!("/api/jobs/{id}/telemetry"), &id, "alice"),
        );
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        let body = resp.body_json().unwrap();
        assert_eq!(body["id"], id);
        let mem = body["telemetry"]["mem"].as_array().unwrap();
        assert_eq!(mem.len(), 6);
    }

    #[test]
    fn other_users_jobs_are_forbidden() {
        let (ctx, clock) = test_ctx_clocked();
        let id = run_job_with_telemetry(&ctx, &clock, 2);
        let resp = handle_job(
            &ctx,
            &job_request(&format!("/api/jobs/{id}/telemetry"), &id, "mallory"),
        );
        assert_eq!(resp.status, 403);
        // And the live route only lists the caller's own jobs.
        let resp = handle_live(&ctx, &request("/api/jobtelemetry", "mallory"));
        assert_eq!(resp.status, 200);
        assert!(resp.body_json().unwrap()["jobs"]
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn missing_job_is_404() {
        let (ctx, _clock) = test_ctx_clocked();
        let resp = handle_job(
            &ctx,
            &job_request("/api/jobs/999/telemetry", "999", "alice"),
        );
        assert_eq!(resp.status, 404);
    }
}
