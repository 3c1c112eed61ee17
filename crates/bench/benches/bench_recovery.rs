//! Experiment P14 — crash recovery: how fast a restarted daemon gets the
//! dashboard back to fresh data, and what the durability machinery costs.
//!
//! Three measurements:
//!
//! 1. **Time-to-first-fresh-snapshot.** The controller crashes mid-run and
//!    stays down for five simulated minutes while a user keeps refreshing
//!    the homepage. Every outage round must serve (stale, honestly
//!    labelled) — availability through the crash is 100% or the bench
//!    fails. After the restart tick the first all-fresh round must land
//!    within one polling round of `down_until`: recovery is replay, not a
//!    slow warm-up.
//!
//! 2. **Rebuild cost.** The in-line state rebuild (decode checkpoint +
//!    replay WAL suffix + republish snapshot) runs inside the restart tick;
//!    its wall time comes straight off the `RecoveryReport` and is bounded.
//!
//! 3. **Checkpoint cost.** The periodic checkpoint serializes the full
//!    cluster state; it runs on the tick path, so it must stay cheap enough
//!    to hide inside a scheduling pass.

use hpcdash_bench::{banner, BenchSite};
use hpcdash_core::pages::homepage::WIDGETS;
use hpcdash_core::DashboardConfig;
use hpcdash_faults::{FaultPlan, FaultRule};
use hpcdash_simtime::{Clock, Timestamp};
use hpcdash_workload::ScenarioConfig;
use std::sync::Arc;
use std::time::Instant;

/// Absolute gates: the recorded rebuild (0.6–1.0 ms) and checkpoint
/// (0.27–0.37 ms) on a 2-vCPU host, with about 50x headroom for slow hosts.
const REBUILD_LIMIT_MICROS: u64 = 50_000;
const CHECKPOINT_LIMIT_MICROS: u64 = 25_000;

const DOWN_SECS: u64 = 300;
const ROUND_SECS: u64 = 61;

fn main() {
    banner(
        "P14",
        "crash recovery: 5-minute controller outage, serve-stale bridge, replay rebuild",
    );

    let site = BenchSite::build(ScenarioConfig::small(), DashboardConfig::purdue_like());
    site.warm_up(600);
    let user = site.user();
    for (_, path) in WIDGETS {
        assert_eq!(site.get(path, &user).status, 200, "warm fetch of {path}");
    }

    // Crash at the next tick, down for DOWN_SECS of sim time.
    let ctld = &site.scenario.ctld;
    let clock = &site.scenario.clock;
    let crash_after = clock.now();
    ctld.faults().install(
        Arc::new(
            FaultPlan::new(0x14).rule(FaultRule::crash("slurmctld", DOWN_SECS).during(
                Timestamp(crash_after.0 + 1),
                Timestamp(crash_after.0 + 1 + ROUND_SECS),
            )),
        ),
        clock.shared(),
    );

    let (mut fresh, mut degraded, mut failed) = (0u64, 0u64, 0u64);
    let mut crashed_at: Option<u64> = None;
    let mut first_fresh_after: Option<u64> = None;
    for _ in 0..10 {
        clock.advance(ROUND_SECS);
        ctld.tick();
        if ctld.is_down() && crashed_at.is_none() {
            crashed_at = Some(clock.now().as_secs());
        }
        let mut round_fresh = true;
        for (_, path) in WIDGETS {
            let resp = site.get(path, &user);
            let body = resp.body_json().unwrap_or(serde_json::Value::Null);
            match (resp.status, body["degraded"].as_bool().unwrap_or(false)) {
                (200, false) => fresh += 1,
                (200, true) => {
                    degraded += 1;
                    round_fresh = false;
                }
                _ => {
                    failed += 1;
                    round_fresh = false;
                }
            }
        }
        if round_fresh && crashed_at.is_some() && first_fresh_after.is_none() {
            first_fresh_after = Some(clock.now().as_secs());
        }
    }

    let crashed_at = crashed_at.expect("the scripted crash fired");
    let report = ctld.last_recovery().expect("the controller recovered");
    let down_until = report.recovered_at.as_secs();
    let first_fresh = first_fresh_after.expect("a fresh round after recovery");
    let fresh_lag = first_fresh.saturating_sub(down_until);

    // Checkpoint cost: serialize the recovered cluster state repeatedly.
    let reps = 20u32;
    let cp_start = Instant::now();
    for _ in 0..reps {
        ctld.checkpoint_now();
    }
    let cp_micros = cp_start.elapsed().as_micros() as u64 / reps as u64;

    println!("{:>38} | {:>12}", "measure", "value");
    println!("{}", "-".repeat(55));
    for (name, value) in [
        (
            "outage rounds fresh/degraded/failed",
            format!("{fresh}/{degraded}/{failed}"),
        ),
        ("crash observed at (sim s)", format!("{crashed_at}")),
        ("restart due at (sim s)", format!("{down_until}")),
        ("first all-fresh round (sim s)", format!("{first_fresh}")),
        ("fresh lag past restart (sim s)", format!("{fresh_lag}")),
        (
            "wal replayed / lost (records)",
            format!("{}/{}", report.wal_replayed, report.wal_lost),
        ),
        (
            "epoch before -> after",
            format!("{} -> {}", report.epoch_before, report.epoch_after),
        ),
        (
            "state rebuild (wall µs)",
            format!("{}", report.duration_micros),
        ),
        ("checkpoint (wall µs, mean of 20)", format!("{cp_micros}")),
    ] {
        println!("{name:>38} | {value:>12}");
    }

    assert_eq!(
        failed, 0,
        "serve-stale must keep every widget available through the outage"
    );
    assert!(
        degraded > 0,
        "the crash never bit — the bench measured nothing"
    );
    assert!(
        fresh_lag <= ROUND_SECS + 1,
        "first fresh round came {fresh_lag}s after restart; recovery must \
         complete within one polling round"
    );
    assert!(
        report.epoch_after > report.epoch_before,
        "recovery must republish at a strictly newer epoch"
    );
    assert!(
        report.duration_micros < REBUILD_LIMIT_MICROS,
        "state rebuild took {}µs; replaying checkpoint+WAL must stay under \
         {REBUILD_LIMIT_MICROS}µs",
        report.duration_micros
    );
    assert!(
        cp_micros < CHECKPOINT_LIMIT_MICROS,
        "checkpoint took {cp_micros}µs; it runs on the tick path and must \
         stay under {CHECKPOINT_LIMIT_MICROS}µs to hide inside a scheduling pass"
    );
    println!("\nok: 100% widget availability through the crash; fresh within one round of restart");
}
