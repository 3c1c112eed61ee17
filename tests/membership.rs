//! The shared membership table (who belongs to which account) checked
//! against per-user association queries, and held to its size bound when
//! an admin acts as thousands of distinct users.

use hpcdash::SimSite;
use hpcdash_core::DashboardConfig;
use hpcdash_http::{Method, Request};
use hpcdash_workload::ScenarioConfig;
use std::collections::BTreeSet;

#[test]
fn table_matches_per_user_assoc_queries_for_the_campus_population() {
    let site = SimSite::build(ScenarioConfig::campus());
    let ctld = &site.scenario.ctld;
    let mut multi_account_users = 0;
    for user in &site.scenario.population.users {
        let oracle: Vec<String> = ctld
            .query_assoc(Some(user))
            .into_iter()
            .map(|r| r.account.name)
            .collect();
        let table = site.ctx().membership.accounts_of(user);
        assert_eq!(&*table, oracle.as_slice(), "accounts of {user}");
        multi_account_users += usize::from(oracle.len() > 1);
    }
    assert!(
        multi_account_users > 0,
        "the population has users in two accounts, so order is checked"
    );
}

#[test]
fn act_as_flood_leaves_the_table_at_the_association_members() {
    let mut cfg = DashboardConfig::purdue_like();
    cfg.admins = vec!["root".to_string()];
    cfg.features.admin_view = true;
    let site = SimSite::build_with(ScenarioConfig::small(), cfg);
    let ctld = &site.scenario.ctld;
    let members: BTreeSet<String> = ctld
        .query_assoc(None)
        .into_iter()
        .flat_map(|r| r.members)
        .collect();
    let head = ctld.events().latest_seq();
    let before = ctld.stats().count_of("scontrol_assoc");
    for i in 0..20_000 {
        let req = Request::new(Method::Get, &format!("/api/updates?since={head}"))
            .with_header("X-Remote-User", "root")
            .with_header("X-Act-As", &format!("target{i}"));
        assert_eq!(site.dashboard.handle(&req).status, 200);
    }
    let rows = site.ctx().membership.len();
    assert!(
        rows <= members.len(),
        "{rows} rows for {} association members",
        members.len()
    );
    assert!(
        ctld.stats().count_of("scontrol_assoc") - before <= 1,
        "no association query per act-as target"
    );
}
