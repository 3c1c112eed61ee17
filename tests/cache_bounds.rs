//! Size bounds on the server-side caches: one authenticated user flooding
//! distinct URLs must not grow server memory without limit.

use hpcdash::SimSite;
use hpcdash_http::{Method, Request, Response};
use hpcdash_workload::ScenarioConfig;

fn get(site: &SimSite, user: &str, path: &str) -> Response {
    site.dashboard
        .handle(&Request::new(Method::Get, path).with_header("X-Remote-User", user))
}

#[test]
fn query_string_flood_leaves_one_render_per_view() {
    let site = SimSite::build(ScenarioConfig::small());
    let user = site.scenario.population.users[0].clone();
    let miss = get(&site, &user, "/api/system_status");
    assert_eq!(miss.status, 200);
    let cache = site.dashboard.router().render_cache().clone();
    assert!(
        std::sync::Arc::ptr_eq(&cache, &site.ctx().render_cache),
        "the context owns the router's cache, so a recovery can purge it"
    );
    let hits0 = cache.hits();
    for i in 0..20_000 {
        let hit = get(&site, &user, &format!("/api/system_status?junk={i}"));
        assert_eq!(hit.body, miss.body, "hit bytes equal the miss bytes");
    }
    assert_eq!(cache.len(), 1, "query parameters never mint entries");
    assert_eq!(cache.hits() - hits0, 20_000);
}

#[test]
fn filter_flood_keeps_the_widget_cache_under_its_cap() {
    let site = SimSite::build(ScenarioConfig::small());
    let user = site.scenario.population.users[0].clone();
    for i in 0..20_000 {
        let resp = get(&site, &user, &format!("/api/myjobs?partition=p{i}"));
        assert_eq!(resp.status, 200);
    }
    let entries = site.ctx().cache.cache().len();
    assert!(
        entries <= hpcdash_cache::ttl::MAX_ENTRIES,
        "{entries} widget-cache entries"
    );
}
