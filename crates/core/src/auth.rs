//! Identity and the privacy filter (paper §2.4, "Privacy").
//!
//! Open OnDemand authenticates at the reverse proxy and hands the app the
//! username; this dashboard reads it from `X-Remote-User`. Every route then
//! restricts data to "the user, or allocations/groups the user is a part
//! of". Admins (behind the `admin_view` feature flag) may act as others via
//! `X-Act-As`, the permission-based-accounting extension from §9 — every
//! identity switch is audited in `hpcdash_act_as_total{admin,target}`.
//!
//! Since the `/slurm/v0` token family landed, the privacy filter is no
//! longer its own code path: a viewer's rights are expressed as the same
//! [`ScopeSet`] tokens carry ([`CurrentUser::scope_profile`]), and
//! [`CurrentUser::may_view_job_of`] just evaluates that profile. A token
//! can never see more than the widget routes would show its subject,
//! because both answer through one predicate.
//!
//! Which accounts a viewer belongs to comes from one shared [`Membership`]
//! table on the context, not from a `scontrol show assoc` per request.

use crate::ctx::DashboardContext;
use hpcdash_http::{Request, Response};
use hpcdash_restapi::ScopeSet;
use hpcdash_simtime::{SharedClock, Timestamp};
use hpcdash_slurm::ctld::Slurmctld;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The authenticated viewer.
#[derive(Debug, Clone)]
pub struct CurrentUser {
    pub username: String,
    pub is_admin: bool,
    /// This viewer's row of the membership table, looked up once per
    /// request — satellite routes call `visible_accounts` several times
    /// while building one response.
    accounts: OnceLock<Arc<[String]>>,
}

impl PartialEq for CurrentUser {
    fn eq(&self, other: &CurrentUser) -> bool {
        self.username == other.username && self.is_admin == other.is_admin
    }
}

impl Eq for CurrentUser {}

impl CurrentUser {
    pub fn new(username: impl Into<String>, is_admin: bool) -> CurrentUser {
        CurrentUser {
            username: username.into(),
            is_admin,
            accounts: OnceLock::new(),
        }
    }

    /// Resolve identity from a request, or produce the HTTP error to send.
    pub fn from_request(ctx: &DashboardContext, req: &Request) -> Result<CurrentUser, Response> {
        let Some(remote) = req.remote_user() else {
            return Err(Response::unauthorized("missing X-Remote-User"));
        };
        if remote.is_empty() {
            return Err(Response::unauthorized("empty X-Remote-User"));
        }
        let is_admin = ctx.cfg.is_admin(remote);
        // Admins may view as another user; everyone else is themselves.
        let username = match (is_admin, req.header("x-act-as")) {
            (true, Some(other)) if !other.is_empty() => {
                if other != remote {
                    note_act_as(ctx, remote, other);
                }
                other.to_string()
            }
            _ => remote.to_string(),
        };
        Ok(CurrentUser::new(username, is_admin))
    }

    /// The accounts this user may see (their own allocations), from the
    /// context's shared [`Membership`] table.
    pub fn visible_accounts(&self, ctx: &DashboardContext) -> &[String] {
        self.accounts.get_or_init(|| {
            // A controller recovery must reload the table before anyone
            // reads it again; the check is two atomic loads.
            ctx.observe_recoveries();
            ctx.membership.accounts_of(&self.username)
        })
    }

    /// This viewer's rights as the scope vocabulary the `/slurm/v0` token
    /// family uses: own jobs, one `read-account` per allocation, and the
    /// cluster-wide scopes for admins. Minted tokens are validated against
    /// this same profile, which is what makes token visibility provably a
    /// subset of widget visibility.
    pub fn scope_profile(&self, ctx: &DashboardContext) -> ScopeSet {
        ScopeSet::profile_for(self.visible_accounts(ctx), self.is_admin)
    }

    /// May this user inspect `job_user`'s job details?
    pub fn may_view_job_of(
        &self,
        job_user: &str,
        job_account: &str,
        ctx: &DashboardContext,
    ) -> bool {
        self.scope_profile(ctx)
            .allows_job(&self.username, job_user, job_account, "")
    }
}

/// Every user's accounts, in `query_assoc(Some(user))` order, from one
/// cluster-wide association query.
///
/// The privacy filter ("the user, or allocations the user is part of")
/// runs on nearly every request, and so does the push hub's subscriber
/// filter; both read this table. It is rebuilt by inverting one
/// `query_assoc(None)` when it is older than `cache.accounts` in sim time,
/// or after a controller crash recovery ([`Membership::invalidate`]).
/// Only users named in the association table have a row, so a user with no
/// accounts — or any number of `X-Act-As` targets — gets the empty set
/// without an RPC and without growing it.
pub struct Membership {
    ctld: Arc<Slurmctld>,
    clock: SharedClock,
    ttl_secs: u64,
    current: Mutex<Option<Arc<MembershipTable>>>,
    /// Held while rebuilding, so requests that find the table stale at the
    /// same moment wait for one rebuild instead of each querying the
    /// controller.
    rebuild: Mutex<()>,
}

struct MembershipTable {
    loaded_at: Timestamp,
    by_user: HashMap<String, Arc<[String]>>,
    none: Arc<[String]>,
}

impl Membership {
    pub fn new(ctld: Arc<Slurmctld>, clock: SharedClock, ttl_secs: u64) -> Membership {
        Membership {
            ctld,
            clock,
            ttl_secs,
            current: Mutex::new(None),
            rebuild: Mutex::new(()),
        }
    }

    /// `user`'s accounts. The same `Arc` comes back until the table is
    /// rebuilt, so a caller can tell a changed answer by pointer.
    pub fn accounts_of(&self, user: &str) -> Arc<[String]> {
        let table = self.table();
        table.by_user.get(user).unwrap_or(&table.none).clone()
    }

    /// Drop the table; the next lookup rebuilds it. Waits for a rebuild in
    /// progress, so no table loaded before the call survives it.
    pub fn invalidate(&self) {
        let _rebuild = self.rebuild.lock();
        *self.current.lock() = None;
    }

    /// Users with a row in the current table (0 before the first lookup).
    pub fn len(&self) -> usize {
        self.current.lock().as_ref().map_or(0, |t| t.by_user.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn table(&self) -> Arc<MembershipTable> {
        if let Some(table) = self.fresh() {
            return table;
        }
        let _rebuild = self.rebuild.lock();
        // Whoever held the lock before us may have rebuilt it already.
        if let Some(table) = self.fresh() {
            return table;
        }
        let table = Arc::new(self.load());
        *self.current.lock() = Some(table.clone());
        table
    }

    fn fresh(&self) -> Option<Arc<MembershipTable>> {
        let now = self.clock.now();
        self.current
            .lock()
            .as_ref()
            .filter(|t| now.0.saturating_sub(t.loaded_at.0) < self.ttl_secs)
            .cloned()
    }

    fn load(&self) -> MembershipTable {
        let loaded_at = self.clock.now();
        let mut by_user: HashMap<String, Vec<String>> = HashMap::new();
        for record in self.ctld.query_assoc(None) {
            for member in record.members {
                by_user
                    .entry(member)
                    .or_default()
                    .push(record.account.name.clone());
            }
        }
        MembershipTable {
            loaded_at,
            by_user: by_user
                .into_iter()
                .map(|(user, accounts)| (user, Arc::from(accounts)))
                .collect(),
            none: Arc::from(Vec::new()),
        }
    }
}

/// Audit an admin viewing as somebody else, wherever the switch came from
/// (the `X-Act-As` header or an `admin-act-as` token scope). Surfaced on
/// `/observatory`.
pub(crate) fn note_act_as(ctx: &DashboardContext, admin: &str, target: &str) {
    ctx.obs
        .counter(
            "hpcdash_act_as_total",
            &[("admin", admin), ("target", target)],
        )
        .inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::{test_ctx, test_ctx_clocked};
    use hpcdash_http::Method;
    use hpcdash_simtime::Clock;
    use hpcdash_slurm::job::JobRequest;

    #[test]
    fn requires_remote_user() {
        let ctx = test_ctx();
        let req = Request::new(Method::Get, "/api/x");
        let err = CurrentUser::from_request(&ctx, &req).unwrap_err();
        assert_eq!(err.status, 401);
        let req = Request::new(Method::Get, "/api/x").with_header("X-Remote-User", "");
        assert!(CurrentUser::from_request(&ctx, &req).is_err());
    }

    #[test]
    fn plain_user_resolves() {
        let ctx = test_ctx();
        let req = Request::new(Method::Get, "/x").with_header("X-Remote-User", "alice");
        let user = CurrentUser::from_request(&ctx, &req).unwrap();
        assert_eq!(user.username, "alice");
        assert!(!user.is_admin);
    }

    #[test]
    fn act_as_requires_admin() {
        let ctx = test_ctx();
        // alice is not an admin: X-Act-As ignored, and no audit line.
        let req = Request::new(Method::Get, "/x")
            .with_header("X-Remote-User", "alice")
            .with_header("X-Act-As", "bob");
        let user = CurrentUser::from_request(&ctx, &req).unwrap();
        assert_eq!(user.username, "alice");
        assert_eq!(
            ctx.obs
                .counter(
                    "hpcdash_act_as_total",
                    &[("admin", "alice"), ("target", "bob")]
                )
                .get(),
            0
        );
    }

    #[test]
    fn act_as_switch_is_audited() {
        let mut cfg = crate::config::DashboardConfig::generic("Test");
        cfg.admins = vec!["root".to_string()];
        cfg.features.admin_view = true;
        let ctx = crate::ctx::tests::test_ctx_with(cfg);
        let req = Request::new(Method::Get, "/x")
            .with_header("X-Remote-User", "root")
            .with_header("X-Act-As", "alice");
        let user = CurrentUser::from_request(&ctx, &req).unwrap();
        assert_eq!(user.username, "alice");
        assert!(user.is_admin);
        assert_eq!(
            ctx.obs
                .counter(
                    "hpcdash_act_as_total",
                    &[("admin", "root"), ("target", "alice")]
                )
                .get(),
            1
        );
        // Acting as yourself is not a switch.
        let req = Request::new(Method::Get, "/x")
            .with_header("X-Remote-User", "root")
            .with_header("X-Act-As", "root");
        CurrentUser::from_request(&ctx, &req).unwrap();
        assert_eq!(
            ctx.obs
                .counter(
                    "hpcdash_act_as_total",
                    &[("admin", "root"), ("target", "root")]
                )
                .get(),
            0
        );
    }

    #[test]
    fn visible_accounts_filter() {
        let ctx = test_ctx();
        let alice = CurrentUser::new("alice", false);
        assert_eq!(alice.visible_accounts(&ctx), ["physics".to_string()]);
        let stranger = CurrentUser::new("mallory", false);
        assert!(stranger.visible_accounts(&ctx).is_empty());
    }

    #[test]
    fn visible_accounts_resolve_once_per_accounts_window() {
        let (ctx, clock) = test_ctx_clocked();
        let assoc_rpcs = || ctx.ctld.stats().count_of("scontrol_assoc");
        let before = assoc_rpcs();
        let alice = CurrentUser::new("alice", false);
        alice.visible_accounts(&ctx);
        alice.may_view_job_of("bob", "physics", &ctx);
        alice.may_view_job_of("carol", "chem", &ctx);
        assert_eq!(assoc_rpcs() - before, 1, "one association query");

        // Three users over the four membership-reading job and update
        // routes: the whole burst shares that one query.
        let id = ctx
            .ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 2))
            .unwrap()[0];
        ctx.ctld.tick();
        let dash = crate::app::Dashboard::new(ctx.clone());
        let paths = [
            format!("/api/jobs/{id}"),
            format!("/api/jobs/{id}/telemetry"),
            "/api/updates".to_string(),
            "/api/updates/stream?sub=tab".to_string(),
        ];
        let burst = || {
            for _ in 0..5 {
                for user in ["alice", "bob", "mallory"] {
                    for path in &paths {
                        let req =
                            Request::new(Method::Get, path).with_header("X-Remote-User", user);
                        let status = dash.handle(&req).status;
                        assert!(status == 200 || status == 403, "{path} as {user}: {status}");
                    }
                }
            }
        };
        burst();
        assert_eq!(assoc_rpcs() - before, 1, "60 requests, one query");
        // Once `cache.accounts` has passed in sim time the table is rebuilt,
        // once.
        clock.advance(ctx.cfg.cache.accounts);
        burst();
        assert_eq!(assoc_rpcs() - before, 2, "one more query per window");
    }

    #[test]
    fn controller_recovery_rebuilds_the_table() {
        let (ctx, clock) = test_ctx_clocked();
        let alice = ctx.membership.accounts_of("alice");
        assert!(Arc::ptr_eq(&alice, &ctx.membership.accounts_of("alice")));
        let now = clock.now();
        ctx.ctld.faults().install(
            Arc::new(hpcdash_faults::FaultPlan::new(7).rule(
                hpcdash_faults::FaultRule::crash("slurmctld", 30).during(now, Timestamp(now.0 + 1)),
            )),
            clock.shared(),
        );
        ctx.ctld.tick();
        clock.advance(31);
        ctx.ctld.tick();
        assert_eq!(ctx.ctld.restart_count(), 1);
        let before = ctx.ctld.stats().count_of("scontrol_assoc");
        // Well inside the accounts window, the first lookup after the
        // recovery reloads the table.
        let viewer = CurrentUser::new("alice", false);
        assert_eq!(viewer.visible_accounts(&ctx), ["physics".to_string()]);
        assert_eq!(ctx.ctld.stats().count_of("scontrol_assoc") - before, 1);
        assert!(!Arc::ptr_eq(&alice, &ctx.membership.accounts_of("alice")));
    }

    #[test]
    fn job_visibility_rules() {
        let ctx = test_ctx();
        let alice = CurrentUser::new("alice", false);
        assert!(alice.may_view_job_of("alice", "physics", &ctx), "own job");
        assert!(alice.may_view_job_of("bob", "physics", &ctx), "group job");
        assert!(
            !alice.may_view_job_of("mallory", "secret", &ctx),
            "unrelated job"
        );
        let admin = CurrentUser::new("root", true);
        assert!(admin.may_view_job_of("anyone", "anything", &ctx));
    }

    #[test]
    fn scope_profile_mirrors_privacy_filter() {
        let ctx = test_ctx();
        let alice = CurrentUser::new("alice", false);
        let profile = alice.scope_profile(&ctx);
        assert!(profile.allows_job("alice", "alice", "physics", ""));
        assert!(profile.allows_job("alice", "bob", "physics", ""));
        assert!(!profile.allows_job("alice", "mallory", "secret", ""));
        assert!(!profile.has_cluster());
        let admin = CurrentUser::new("root", true);
        assert!(admin.scope_profile(&ctx).has_cluster());
        assert!(admin.scope_profile(&ctx).has_act_as());
    }
}
