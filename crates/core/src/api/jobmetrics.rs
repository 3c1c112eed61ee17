//! Job Performance Metrics API (paper §5): aggregate job statistics over a
//! selectable time range, including a custom date range.

use crate::auth::CurrentUser;
use crate::ctx::DashboardContext;
use crate::metrics::{JobMetrics, TimeRange};
use hpcdash_http::{Request, Response, Router};
use hpcdash_slurmcli::{parse_sacct, sacct, SacctArgs};
use serde_json::json;

pub const FEATURE: &str = "Job Performance Metrics";
pub const ROUTES: &[&str] = &["/api/jobmetrics"];
pub const SOURCES: &[&str] = &[
    "sacct (slurmdbd)",
    "squeue (slurmctld)",
    "telemetryd (metrics collector)",
];

pub fn register(router: &mut Router, ctx: DashboardContext) {
    router.get(ROUTES[0], move |req| handle(&ctx, req));
}

fn handle(ctx: &DashboardContext, req: &Request) -> Response {
    let user = match CurrentUser::from_request(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let Some(range) = TimeRange::from_query(
        req.query_param("range"),
        req.query_param("start"),
        req.query_param("end"),
    ) else {
        return Response::bad_request("invalid range");
    };
    let now = ctx.now();
    let key = format!("jobmetrics:{}:{:?}", user.username, range);
    let outcome = ctx.cached_resilient(&key, ctx.cfg.cache.jobmetrics, || {
        ctx.note_source(FEATURE, "sacct (slurmdbd)");
        let (since, until) = range.window(now);
        let text = sacct(
            &ctx.dbd,
            &SacctArgs {
                user: Some(user.username.clone()),
                // Metrics are personal: only the user's own jobs.
                accounts: Vec::new(),
                states: None,
                since,
                until,
                job_ids: None,
            },
            now,
        )?;
        let records = parse_sacct(&text).map_err(|e| format!("sacct parse: {e}"))?;
        let metrics = JobMetrics::aggregate(&records);
        Ok(json!({
            "range": range.label(),
            "metrics": metrics.to_json(),
        }))
    });
    // The live strip: running jobs with their recent collector series,
    // cached on the faster telemetry (squeue-tier) TTL so the sparklines
    // track the queue rather than the metrics range.
    // The sparkline strip is a bonus column: if telemetry is down, the
    // metrics page still renders, just without live series.
    let live = ctx
        .cached_resilient(
            &format!("telemetry:live:{}", user.username),
            ctx.cfg.cache.telemetry,
            || {
                Ok(crate::api::jobtelemetry::live_jobs_payload(
                    ctx,
                    FEATURE,
                    &user.username,
                ))
            },
        )
        .ok_value()
        .unwrap_or_else(|| json!({"window_secs": 0, "jobs": []}));
    super::respond(match outcome {
        crate::ctx::SourceOutcome::Fresh(mut v) => {
            v["live_jobs"] = live;
            crate::ctx::SourceOutcome::Fresh(v)
        }
        crate::ctx::SourceOutcome::Stale {
            mut value,
            age_secs,
            error,
        } => {
            value["live_jobs"] = live;
            crate::ctx::SourceOutcome::Stale {
                value,
                age_secs,
                error,
            }
        }
        failed => failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;
    use hpcdash_slurm::job::{JobRequest, UsageProfile};

    fn request(path: &str) -> Request {
        Request::new(Method::Get, path).with_header("X-Remote-User", "alice")
    }

    #[test]
    fn aggregates_user_jobs() {
        let ctx = test_ctx();
        let mut r = JobRequest::simple("alice", "physics", "cpu", 4);
        r.usage = UsageProfile::batch(300);
        ctx.ctld.submit(r).unwrap();
        ctx.ctld.tick();
        let resp = handle(&ctx, &request("/api/jobmetrics?range=7d"));
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        assert_eq!(body["range"], "Last 7 days");
        assert_eq!(body["metrics"]["total_jobs"], 1);
        assert_eq!(body["metrics"]["by_state"]["RUNNING"], 1);
        let live = body["live_jobs"]["jobs"].as_array().unwrap();
        assert_eq!(live.len(), 1, "running job appears in the live strip");
        assert!(live[0]["series"]["cpu"].is_array());
    }

    #[test]
    fn custom_range_parses() {
        let ctx = test_ctx();
        let resp = handle(
            &ctx,
            &request(
                "/api/jobmetrics?range=custom&start=1970-01-01T00:00:00&end=2030-01-01T00:00:00",
            ),
        );
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_json().unwrap()["metrics"]["total_jobs"], 0);
        assert_eq!(
            handle(&ctx, &request("/api/jobmetrics?range=custom")).status,
            400
        );
    }
}
