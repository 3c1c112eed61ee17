//! `dashbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's environment as a `#` comment line, then, as the last
//! line, the result object: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`.

use dashbench::measure::{self, GENERATOR_LAG_LIMIT_MS};
use dashbench::report::median;
use dashbench::wire::{self, Plan};
use dashbench::workload::{schedule, Site, Workload};
use dashbench::{nproc, traced};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is the median of their CPU times.
const SETUPS: usize = 3;
/// Share of `--seconds` spent in the open-loop phase; the rest measures
/// capacity in the closed loop.
const OPEN_SHARE: f64 = 0.75;
/// At most this many generator connections, and never more than `nproc`.
const MAX_CONNS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let num = |flag: &str, v: String| v.parse::<u64>().map_err(|_| format!("bad {flag} {v:?}"));
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` when there is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.trim().is_empty() => head.trim().to_string(),
        None => "unknown".to_string(),
    }
}

/// CPU time this process has used (all threads), from
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
fn process_cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant one.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!("{}Z", hpcdash::simtime::Timestamp(secs).to_slurm())
}

/// Enough pages for the open phase plus a closed phase at up to four times
/// the offered rate.
fn pages_needed(w: Workload, plan: &Plan) -> usize {
    let secs = plan.open.as_secs_f64() + 4.0 * plan.closed.as_secs_f64();
    (w.offered_rps() * secs) as usize + 64
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dashbench: {e}");
            eprintln!("usage: dashbench --workload <homepage_poll|jobs_churn|api_scripts> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let conns = nproc().min(MAX_CONNS);
    let total = Duration::from_secs(args.seconds);
    let plan = Plan {
        conns,
        open: total.mul_f64(OPEN_SHARE),
        closed: total.mul_f64(1.0 - OPEN_SHARE),
        rps: w.offered_rps(),
        churn_every: w.churn_every(),
    };
    println!(
        "# env {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"connections\": {conns}, \"offered_rps\": {}, \"date\": \"{}\", \"git_rev\": \"{}\"}}",
        w.name(),
        args.seed,
        nproc(),
        w.offered_rps(),
        utc_now(),
        git_rev()
    );

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_secs = Vec::new();
    let mut site = None;
    for _ in 0..setups {
        if let Some(old) = site.take() {
            Site::shutdown(&old);
        }
        // CPU time, not wall time: on a shared host, wall time also counts
        // the moments the CPU was given to someone else.
        let (t, cpu) = (Instant::now(), process_cpu_secs());
        site = Some(Site::setup(w));
        let cpu = process_cpu_secs() - cpu;
        eprintln!(
            "dashbench: set-up {cpu:.3} s CPU, {:.3} s wall",
            t.elapsed().as_secs_f64()
        );
        setup_secs.push(cpu);
    }
    let site = site.expect("at least one set-up");
    let pages = schedule(&site, args.seed, pages_needed(w, &plan));
    let out = wire::run(&site, &pages, plan);
    site.shutdown();

    assert!(
        out.threads <= nproc() && out.connections_opened <= conns as u64,
        "generator exceeded nproc: {} threads, {} connections",
        out.threads,
        out.connections_opened
    );
    for f in &out.failures {
        eprintln!("dashbench: failed: {f}");
    }
    let (fail, degraded) = measure::fail_and_degraded(&out);
    let (late, own) = measure::generator_lag_ms(&out);
    eprintln!(
        "dashbench: {} open requests, fail_ratio {fail}, degraded_ratio {degraded}, send lag p99 {late:.3} ms (generator's own {own:.3} ms), churn behind max {}",
        out.open.len(),
        out.churn_behind_max
    );
    if own > GENERATOR_LAG_LIMIT_MS {
        eprintln!("dashbench: WARNING: the generator, not the server, fell behind");
    }
    let mut attempted = out.open.len() as u64 + out.closed_ok + out.closed_failed;
    let mut failed =
        out.open.iter().filter(|r| r.served.is_none()).count() as u64 + out.closed_failed;
    let mut check_failed = out.check_failed;
    let mut reconciled = true;

    let metrics = if args.trace {
        let replay_site = Site::setup(w);
        let tr = traced::run(&replay_site, &pages, out.open.len(), w.churn_every());
        replay_site.shutdown();
        for f in &tr.failures {
            eprintln!("dashbench: traced failed: {f}");
        }
        attempted += tr.requests;
        failed += tr.failed;
        check_failed += tr.failed;
        let m = measure::per_layer(&out, &tr);
        if let Err(e) = measure::reconciled(&m) {
            eprintln!("dashbench: the traced run does not reconcile: {e}");
            reconciled = false;
        }
        m
    } else {
        measure::end_to_end(&out, median(&mut setup_secs), peak_rss_mb())
    };
    println!(
        "{}",
        metrics.result_line(check_failed == 0 && reconciled, attempted, failed)
    );
    ExitCode::SUCCESS
}
