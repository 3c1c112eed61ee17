//! Response checks. Every answer the benchmark receives, over the wire or
//! in-process, goes through [`check`]; a failed check counts as a failed
//! request.

use crate::workload::{Ident, Route};
use serde_json::Value;

/// How a request was answered, when the answer passed its checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// 200 with fresh data.
    Fresh,
    /// 304 to the validator the generator sent.
    NotModified,
    /// 200 with data served stale (`"degraded": true` or the REST API's
    /// `X-Hpcdash-Stale`).
    Degraded,
}

/// What the client keeps from a passing answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub served: Served,
    /// The push feed's `latest_seq`, for the next poll's `since`.
    pub latest_seq: Option<u64>,
}

/// One received answer, transport-neutral.
pub struct Answer<'a> {
    pub status: u16,
    pub etag: Option<&'a str>,
    pub stale_header: bool,
    pub body: &'a [u8],
}

/// Check `answer` to a request for `route` by `who`, who sent `sent_etag`
/// as `If-None-Match`.
pub fn check(
    route: Route,
    who: &Ident,
    sent_etag: Option<&str>,
    answer: &Answer,
) -> Result<Verdict, String> {
    match answer.status {
        304 => {
            let Some(sent) = sent_etag else {
                return Err("304 without If-None-Match".to_string());
            };
            if answer.etag.is_some_and(|e| e != sent) {
                return Err(format!("304 with ETag {:?}, sent {sent}", answer.etag));
            }
            if !answer.body.is_empty() {
                return Err("304 with a body".to_string());
            }
            return Ok(Verdict {
                served: Served::NotModified,
                latest_seq: None,
            });
        }
        200 => {}
        other => return Err(format!("status {other}")),
    }
    let fresh = |served| Verdict {
        served,
        latest_seq: None,
    };
    match route {
        Route::Shell => {
            let html = std::str::from_utf8(answer.body).map_err(|_| "shell is not utf-8")?;
            if !html.contains("<html") || !html.contains("</html>") {
                return Err("shell is not an HTML document".to_string());
            }
            Ok(fresh(Served::Fresh))
        }
        Route::Metrics => {
            let text = std::str::from_utf8(answer.body).map_err(|_| "scrape is not utf-8")?;
            if !text.contains("# TYPE hpcdash_") {
                return Err("scrape lacks hpcdash_ series".to_string());
            }
            Ok(fresh(Served::Fresh))
        }
        _ => {
            let v: Value = serde_json::from_slice(answer.body)
                .map_err(|e| format!("body is not JSON: {e}"))?;
            let obj = v.as_object().ok_or("body is not a JSON object")?;
            for key in route.keys() {
                if !obj.contains_key(*key) {
                    return Err(format!("missing key {key:?}"));
                }
            }
            match route {
                // My Jobs follows the dashboard's group-visibility rule:
                // the requester's own jobs and their accounts' jobs.
                Route::MyJobs => visible_only(&v["jobs"], "user", who, &who.accounts)?,
                Route::V0Jobs if who.own_jobs_only => {
                    visible_only(&v["jobs"], "user_name", who, &[])?
                }
                _ => {}
            }
            let degraded = answer.stale_header || v["degraded"].as_bool() == Some(true);
            Ok(Verdict {
                served: if degraded {
                    Served::Degraded
                } else {
                    Served::Fresh
                },
                latest_seq: v["latest_seq"].as_u64(),
            })
        }
    }
}

/// Every row of `rows` must be the requester's own job (its `field` names
/// them) or belong to one of `accounts`.
fn visible_only(rows: &Value, field: &str, who: &Ident, accounts: &[String]) -> Result<(), String> {
    let rows = rows.as_array().ok_or("jobs is not a list")?;
    let visible = |r: &Value| {
        r[field].as_str() == Some(who.name.as_str())
            || r["account"]
                .as_str()
                .is_some_and(|a| accounts.iter().any(|x| x == a))
    };
    match rows.iter().find(|r| !visible(r)) {
        Some(r) => Err(format!(
            "{} was shown a job of {} in {}",
            who.name, r[field], r["account"]
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(name: &str, own_jobs_only: bool) -> Ident {
        Ident {
            name: name.to_string(),
            accounts: vec!["lab".to_string()],
            secret: None,
            own_jobs_only,
        }
    }

    fn answer(status: u16, etag: Option<&'static str>, body: &'static str) -> Answer<'static> {
        Answer {
            status,
            etag,
            stale_header: false,
            body: body.as_bytes(),
        }
    }

    #[test]
    fn not_modified_must_answer_the_sent_validator() {
        let a = answer(304, Some("\"x\""), "");
        assert!(check(Route::RecentJobs, &ident("u", false), None, &a).is_err());
        assert!(check(Route::RecentJobs, &ident("u", false), Some("\"y\""), &a).is_err());
        let ok = check(Route::RecentJobs, &ident("u", false), Some("\"x\""), &a).unwrap();
        assert_eq!(ok.served, Served::NotModified);
    }

    #[test]
    fn bodies_need_their_route_keys() {
        let a = answer(200, None, r#"{"jobs": []}"#);
        assert!(check(Route::RecentJobs, &ident("u", false), None, &a).is_ok());
        assert!(check(Route::Storage, &ident("u", false), None, &a).is_err());
        assert!(check(
            Route::Storage,
            &ident("u", false),
            None,
            &answer(200, None, "{")
        )
        .is_err());
        assert!(check(
            Route::Storage,
            &ident("u", false),
            None,
            &answer(503, None, "{}")
        )
        .is_err());
    }

    #[test]
    fn job_listings_hold_only_visible_jobs() {
        let mine = answer(
            200,
            None,
            r#"{"charts":0,"range":0,"jobs":[{"user":"ann","account":"x"}]}"#,
        );
        let group = answer(
            200,
            None,
            r#"{"charts":0,"range":0,"jobs":[{"user":"ann","account":"lab"}]}"#,
        );
        assert!(check(Route::MyJobs, &ident("bob", false), None, &group).is_ok());
        assert!(check(Route::MyJobs, &ident("ann", false), None, &mine).is_ok());
        assert!(check(Route::MyJobs, &ident("bob", false), None, &mine).is_err());
        let v0 = answer(
            200,
            None,
            r#"{"meta":{},"jobs":[{"user_name":"ann","account":"lab"}]}"#,
        );
        assert!(check(Route::V0Jobs, &ident("bob", true), None, &v0).is_err());
        assert!(check(Route::V0Jobs, &ident("bob", false), None, &v0).is_ok());
    }

    #[test]
    fn degraded_payloads_are_told_apart() {
        let a = answer(200, None, r#"{"disks": [], "degraded": true}"#);
        let v = check(Route::Storage, &ident("u", false), None, &a).unwrap();
        assert_eq!(v.served, Served::Degraded);
    }
}
