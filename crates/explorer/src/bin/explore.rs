//! Campaign driver: runs seeded fault-injection campaigns against the
//! scenario catalog, runs the planted-bug canary suite, and reports
//! coverage and falsification metrics.
//!
//! ```text
//! psync-explorer [--cases N] [--seed S] [--scenario all|<name>]
//!                [--canaries all|<name>[,<name>...]]
//!                [--max-entries N] [--jobs N] [--online]
//!                [--bug-extra-ns N]
//!                [--metrics-out PATH] [--report-out PATH]
//! ```
//!
//! `--jobs N` runs each campaign's cases on `N` worker threads (default:
//! `PSYNC_JOBS` or the machine's available parallelism). The report —
//! stats, kind coverage, artifacts, metrics, exit code — is bit-identical
//! for every `N` (CI diffs stdout across job counts); `--jobs 1` is the
//! plain sequential loop.
//!
//! `--online` judges heartbeat-family cases *while they run*: stream
//! oracles ride the engine's observer hooks and a case stops the moment
//! a violation is certain, so failing cases cost events-to-violation
//! instead of the horizon. Scenario kinds without stream oracles fall
//! back to the post-hoc judge. Online reports are deterministic and
//! jobs-invariant, but not comparable to offline reports (fewer events
//! on short-circuited cases), so the flag is off by default.
//!
//! `--canaries` additionally runs one campaign per selected planted bug
//! (see `psync_explorer::canary`) and reports the **mutation score**:
//! canaries whose expected oracle caught them, over canaries planted.
//! The driver exits non-zero if the score is below 1.0 — an oracle that
//! cannot refind a bug planted for it has silently stopped working.
//!
//! `--bug-extra-ns N` plants the demonstration bug (a boundary delay
//! spike delivered `N` ns after `d₂`) in the heartbeat channel — the
//! explorer is then expected to find it, shrink it, and print the
//! replay artifact. Only the `heartbeat` scenario carries the bug, so the
//! flag is rejected when `--scenario` selects anything else.
//!
//! `--metrics-out PATH` writes the observer metrics aggregated over the
//! scenario campaigns, not the canary ones (counters and histograms,
//! deterministic for fixed flags), as a JSON snapshot CI uploads.
//!
//! `--report-out PATH` writes the campaign telemetry — per-scenario
//! coverage (events, fault points hit vs. catalog, per-oracle violation
//! density), per-canary verdicts, the mutation score, and the measured
//! events/second — as JSON. The throughput figure is computed *here*,
//! from wall-clock time, and lives only in this file's output: the
//! library's `CampaignReport` stays a pure function of the seeds.
//!
//! Exits non-zero iff any non-canary campaign found a violation or any
//! canary went uncaught; each failure is printed as a full replay
//! artifact so it can be reproduced verbatim.

use std::process::ExitCode;
use std::time::Instant;

use psync_explorer::json::Json;
use psync_explorer::{
    default_jobs, mutation_score, run_campaign_jobs, run_canary_suite, CampaignConfig,
    CampaignReport, CanaryKind, CanaryOutcome, ScenarioConfig, ScenarioKind,
};
use psync_obs::MetricsSnapshot;

#[cfg_attr(test, derive(Debug))]
struct Args {
    campaign: CampaignConfig,
    scenarios: Vec<ScenarioKind>,
    canaries: Vec<CanaryKind>,
    jobs: usize,
    bug_extra_ns: i64,
    metrics_out: Option<String>,
    report_out: Option<String>,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|e| format!("bad seed {s:?}: {e}"))
}

const USAGE: &str = "usage: psync-explorer [--cases N] [--seed S] \
     [--scenario all|<name>] [--canaries all|<name>[,<name>...]] \
     [--max-entries N] [--jobs N] [--online] [--bug-extra-ns N] \
     [--metrics-out PATH] [--report-out PATH]";

/// Parses the command line; `Ok(None)` means `--help` was asked for.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut campaign = CampaignConfig::default();
    let mut scenarios = ScenarioKind::all().to_vec();
    let mut canaries = Vec::new();
    let mut jobs = default_jobs();
    let mut bug_extra_ns = 0i64;
    let mut metrics_out = None;
    let mut report_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--cases" => {
                campaign.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("bad --cases: {e}"))?
            }
            "--seed" => campaign.seed = parse_seed(value("--seed")?)?,
            "--max-entries" => {
                campaign.max_entries = value("--max-entries")?
                    .parse()
                    .map_err(|e| format!("bad --max-entries: {e}"))?;
            }
            "--scenario" => {
                let v = value("--scenario")?;
                scenarios = if v == "all" {
                    ScenarioKind::all().to_vec()
                } else {
                    vec![ScenarioKind::from_name(v)?]
                };
            }
            "--canaries" => {
                let v = value("--canaries")?;
                canaries = if v == "all" {
                    CanaryKind::all().to_vec()
                } else {
                    v.split(',')
                        .map(CanaryKind::from_name)
                        .collect::<Result<Vec<_>, _>>()?
                };
            }
            "--jobs" => {
                jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--bug-extra-ns" => {
                bug_extra_ns = value("--bug-extra-ns")?
                    .parse()
                    .map_err(|e| format!("bad --bug-extra-ns: {e}"))?;
            }
            "--online" => campaign.online = true,
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?.clone()),
            "--report-out" => report_out = Some(value("--report-out")?.clone()),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if campaign.max_entries == 0 {
        return Err("--max-entries must be at least 1".to_string());
    }
    // Checked after the loop so flag order doesn't matter. The
    // demonstration bug lives in the heartbeat channel alone; accepting
    // the flag for any other selection would silently plant nothing.
    if bug_extra_ns != 0 && !scenarios.contains(&ScenarioKind::Heartbeat) {
        return Err(
            "--bug-extra-ns plants its bug in the heartbeat scenario only; \
             the selected --scenario would ignore it"
                .to_string(),
        );
    }
    Ok(Some(Args {
        campaign,
        scenarios,
        canaries,
        jobs,
        bug_extra_ns,
        metrics_out,
        report_out,
    }))
}

fn scenario_config(kind: ScenarioKind, bug_extra_ns: i64) -> ScenarioConfig {
    let cfg = ScenarioConfig::default_for(kind);
    // The demonstration bug lives in the heartbeat channel.
    if bug_extra_ns > 0 && kind == ScenarioKind::Heartbeat {
        cfg.with_bug(bug_extra_ns)
    } else {
        cfg
    }
}

fn print_failures(report: &CampaignReport) -> usize {
    for failure in &report.failures {
        let plan = &failure.artifact.plan;
        println!(
            "  VIOLATION in case {} (plan shrank {} -> {} entries):",
            failure.case_index,
            failure.original_entries,
            plan.len(),
        );
        if let Some((oracle, detail)) = &failure.artifact.violation {
            println!("    {oracle}: {detail}");
        }
        println!("--- replay artifact ---");
        println!("{}", failure.artifact.to_json());
        println!("--- end artifact ---");
    }
    report.failures.len()
}

fn scenario_json(report: &CampaignReport) -> Json {
    let s = &report.stats;
    Json::obj([
        ("scenario", Json::str(report.scenario.kind.name())),
        ("cases", Json::num(s.cases)),
        ("entries", Json::num(s.entries)),
        ("events", Json::num(s.events)),
        ("failures", Json::num(report.failures.len() as u64)),
        ("shrink_probes", Json::num(s.shrink_probes)),
        (
            "violations_by_oracle",
            Json::Obj(
                s.violations_by_oracle
                    .iter()
                    .map(|(k, n)| (k.clone(), Json::num(*n)))
                    .collect(),
            ),
        ),
        (
            "fault_points_hit",
            Json::num(s.fault_points_hit.len() as u64),
        ),
        ("fault_points_total", Json::num(s.fault_points_total)),
    ])
}

fn canary_json(outcome: &CanaryOutcome) -> Json {
    let verdict = outcome.report.canary.as_ref();
    Json::obj([
        ("canary", Json::str(outcome.kind.name())),
        ("scenario", Json::str(outcome.kind.base_kind().name())),
        ("expected_oracle", Json::str(outcome.kind.expected_oracle())),
        ("caught", Json::Bool(outcome.caught())),
        (
            "caught_cases",
            Json::num(verdict.map_or(0, |v| v.caught_cases)),
        ),
        (
            "min_shrunk_entries",
            verdict
                .and_then(|v| v.min_shrunk_entries)
                .map_or(Json::Null, Json::num),
        ),
    ])
}

/// Wall-clock throughput, rounded to the nearest event/sec. Computed
/// from fractional seconds: the old `as_millis()` division truncated
/// sub-millisecond runs to a zero divisor (reported as 0 events/sec)
/// and understated every short CI run by up to a full millisecond of
/// rounding.
#[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
#[allow(clippy::cast_sign_loss)]
fn events_per_sec(total_events: u64, elapsed: std::time::Duration) -> u64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return 0;
    }
    (total_events as f64 / secs).round() as u64
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let started = Instant::now();
    let mut total_failures = 0usize;
    let mut total_events = 0u64;
    let mut all_metrics = MetricsSnapshot::default();
    let mut scenario_reports = Vec::new();
    for kind in &args.scenarios {
        let scenario = scenario_config(*kind, args.bug_extra_ns);
        let report = run_campaign_jobs(&args.campaign, &scenario, args.jobs);
        all_metrics.absorb(&report.metrics);
        let s = &report.stats;
        println!(
            "[{}] {} cases, {} fault entries, {} events, {} clock requests clamped, \
             {} shrink probes, {}/{} fault points",
            kind.name(),
            s.cases,
            s.entries,
            s.events,
            s.rejected_clock_requests,
            s.shrink_probes,
            s.fault_points_hit.len(),
            s.fault_points_total,
        );
        for (k, n) in &s.entries_by_kind {
            println!("  {k:>20}: {n}");
        }
        for (oracle, n) in &s.violations_by_oracle {
            println!("  violations[{oracle}]: {n} of {} cases", s.cases);
        }
        total_events += s.events;
        total_failures += print_failures(&report);
        scenario_reports.push(scenario_json(&report));
    }

    let outcomes = run_canary_suite(&args.canaries, &args.campaign, args.jobs);
    let (caught, planted) = mutation_score(&outcomes);
    let mut canary_reports = Vec::new();
    for outcome in &outcomes {
        let status = if outcome.caught() { "CAUGHT" } else { "MISSED" };
        let verdict = outcome.report.canary.as_ref();
        println!(
            "[canary {}] {}: {} case(s) via {:?}, min shrunk plan {:?}",
            outcome.kind.name(),
            status,
            verdict.map_or(0, |v| v.caught_cases),
            outcome.kind.expected_oracle(),
            verdict.and_then(|v| v.min_shrunk_entries),
        );
        total_events += outcome.report.stats.events;
        canary_reports.push(canary_json(outcome));
    }
    if planted > 0 {
        println!("mutation score: {caught}/{planted}");
    }

    // Wall-clock throughput lives only here: the library reports stay
    // pure functions of the seeds. It goes to stderr so stdout stays
    // bit-identical across runs (CI diffs it between job counts).
    let elapsed = started.elapsed();
    let events_per_sec = events_per_sec(total_events, elapsed);
    eprintln!(
        "{total_events} events in {:.3}s ({events_per_sec} events/sec)",
        elapsed.as_secs_f64()
    );

    if let Some(path) = &args.report_out {
        let report = Json::obj([
            ("cases_per_campaign", Json::num(args.campaign.cases)),
            ("seed", Json::num(args.campaign.seed)),
            ("jobs", Json::num(args.jobs as u64)),
            ("scenarios", Json::Arr(scenario_reports)),
            ("canaries", Json::Arr(canary_reports)),
            (
                "mutation_score",
                Json::obj([
                    ("caught", Json::num(caught)),
                    ("planted", Json::num(planted)),
                ]),
            ),
            ("events_total", Json::num(total_events)),
            ("elapsed_ms", Json::num(elapsed.as_millis() as u64)),
            ("events_per_sec", Json::num(events_per_sec)),
        ]);
        if let Err(e) = std::fs::write(path, report.pretty() + "\n") {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("campaign report written to {path}");
    }

    if let Some(path) = &args.metrics_out {
        if let Err(e) = std::fs::write(path, all_metrics.to_json() + "\n") {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("metrics written to {path}");
    }

    let mut failed = false;
    if total_failures == 0 {
        println!("ok: no violations in regular campaigns");
    } else {
        println!("{total_failures} violation(s) found");
        failed = true;
    }
    if caught < planted {
        println!(
            "mutation score below 1.0: {} canary/ies went uncaught",
            planted - caught
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn help_is_a_request_not_an_error() {
        for flag in ["--help", "-h"] {
            let parsed = parse_args(&argv(&["--cases", "3", flag])).expect("help is not an error");
            assert!(parsed.is_none(), "{flag} must ask main for the usage text");
        }
        assert!(parse_args(&argv(&["--cases", "3"])).unwrap().is_some());
    }

    #[test]
    fn bug_extra_ns_without_the_heartbeat_scenario_is_rejected() {
        // Order must not matter: the check runs after the parse loop.
        for order in [
            &["--scenario", "register", "--bug-extra-ns", "1"][..],
            &["--bug-extra-ns", "1", "--scenario", "register"][..],
        ] {
            let err = parse_args(&argv(order))
                .expect_err("the bug would be planted nowhere; must not be silently ignored");
            assert!(err.contains("heartbeat scenario only"), "unhelpful: {err}");
        }
        // Heartbeat selected (explicitly or by the `all` default), or no
        // bug asked for: accepted.
        for ok in [
            &["--bug-extra-ns", "1"][..],
            &["--scenario", "heartbeat", "--bug-extra-ns", "1"][..],
            &["--scenario", "register", "--bug-extra-ns", "0"][..],
        ] {
            assert!(parse_args(&argv(ok)).is_ok(), "{ok:?} must parse");
        }
    }

    #[test]
    fn events_per_sec_is_honest_for_short_runs() {
        // 100 events in 500µs is 200k events/sec; the old
        // `as_millis()`-based division saw a zero divisor and reported 0.
        assert_eq!(events_per_sec(100, Duration::from_micros(500)), 200_000);
        // 1.5ms used to truncate to 1ms, overstating by 50%.
        assert_eq!(events_per_sec(3000, Duration::from_micros(1500)), 2_000_000);
        // Plain cases and the degenerate zero-duration case.
        assert_eq!(events_per_sec(10_000, Duration::from_secs(2)), 5_000);
        assert_eq!(events_per_sec(42, Duration::ZERO), 0);
        assert_eq!(events_per_sec(0, Duration::from_secs(1)), 0);
    }
}
