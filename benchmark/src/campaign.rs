//! `campaign_fleet` and `campaign_canary`: the explorer's campaigns — the
//! engine used the other way round, thousands of short runs where
//! building, plan generation, per-case judging and (for canaries)
//! shrinking dominate.

use psync_explorer::{
    mutation_score, run_campaign_with_telemetry, CampaignConfig, CampaignReport, CampaignTelemetry,
    CanaryKind, CanaryOutcome, ScenarioConfig, ScenarioKind,
};

use crate::common::{iterate, median, sub_seed, Outcome, RunArgs};
use crate::spans::Tracer;

/// Which campaign family a workload runs, and at what size.
#[derive(Debug, Clone, Copy)]
pub enum CampaignWorkload {
    /// Every `ScenarioKind`, clean: no case may fail.
    Fleet {
        /// Cases per kind per iteration.
        cases: u64,
    },
    /// Every `CanaryKind`: each planted bug must be caught and shrunk.
    Canary {
        /// Cases per canary per iteration.
        cases: u64,
    },
}

/// One campaign of an iteration: its metric-name suffix, scenario and the
/// canary it carries.
struct Member {
    name: &'static str,
    scenario: ScenarioConfig,
    canary: Option<CanaryKind>,
}

impl CampaignWorkload {
    fn stream(&self) -> u64 {
        match self {
            CampaignWorkload::Fleet { .. } => 4,
            CampaignWorkload::Canary { .. } => 5,
        }
    }

    fn cases(&self) -> u64 {
        match *self {
            CampaignWorkload::Fleet { cases } | CampaignWorkload::Canary { cases } => cases,
        }
    }

    fn metric_prefix(&self) -> &'static str {
        match self {
            CampaignWorkload::Fleet { .. } => "explorer.kind_s.",
            CampaignWorkload::Canary { .. } => "explorer.canary_s.",
        }
    }

    fn members(&self) -> Vec<Member> {
        match self {
            CampaignWorkload::Fleet { .. } => ScenarioKind::all()
                .into_iter()
                .map(|kind| Member {
                    name: kind.name(),
                    scenario: ScenarioConfig::default_for(kind),
                    canary: None,
                })
                .collect(),
            CampaignWorkload::Canary { .. } => CanaryKind::all()
                .into_iter()
                .map(|kind| Member {
                    name: kind.name(),
                    scenario: kind.scenario(),
                    canary: Some(kind),
                })
                .collect(),
        }
    }
}

/// Cases of `report` that count as failed: every failure of a clean
/// campaign; for a canary, failures the expected oracle did not report,
/// and every case if the canary was never caught.
fn failed_cases(member: &Member, report: &CampaignReport) -> u64 {
    let Some(canary) = member.canary else {
        return report.failures.len() as u64;
    };
    let caught = report.canary.as_ref().map_or(0, |v| v.caught_cases);
    if caught == 0 {
        return report.stats.cases;
    }
    let expected = canary.expected_oracle();
    report
        .failures
        .iter()
        .filter(|f| {
            !f.artifact
                .violation
                .as_ref()
                .is_some_and(|(oracle, _)| oracle.starts_with(expected))
        })
        .count() as u64
}

/// One pass over every member at `jobs` workers; returns the reports with
/// their telemetry and host seconds, in member order.
fn one_pass(
    members: &[Member],
    campaign: &CampaignConfig,
    jobs: usize,
    tracer: &Tracer,
) -> Vec<(CampaignReport, CampaignTelemetry, f64)> {
    members
        .iter()
        .enumerate()
        .map(|(k, member)| {
            let campaign = CampaignConfig {
                seed: sub_seed(campaign.seed, 1, k as u64),
                ..campaign.clone()
            };
            let ((report, telemetry), secs) = tracer.span(member.name, || {
                run_campaign_with_telemetry(&campaign, &member.scenario, jobs)
            });
            (report, telemetry, secs)
        })
        .collect()
}

/// Runs the workload for `args.seconds`. Single-threaded (`jobs = 1`)
/// except for the one extra pass at `jobs = nproc` the traced run makes to
/// report `explorer.jobs_nproc_speedup`.
#[must_use]
pub fn run(workload: &CampaignWorkload, args: &RunArgs, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::new();
    let members = workload.members();
    let campaign = CampaignConfig {
        cases: workload.cases(),
        seed: sub_seed(args.seed, workload.stream(), 0),
        ..CampaignConfig::default()
    };

    // Set-up: the configurations above plus a warm-up campaign of four
    // cases per member, so lazy initialisation and cold caches are paid
    // before timing starts. Repeated on fresh case seeds, because it is
    // short and what one small campaign costs depends on its cases.
    for rep in 1..=9 {
        let ((), secs) = tracer.span("setup", || {
            let warm = CampaignConfig {
                cases: 4,
                seed: sub_seed(args.seed, workload.stream(), rep),
                ..campaign.clone()
            };
            let _ = std::hint::black_box(one_pass(&workload.members(), &warm, 1, tracer));
        });
        out.setup_s.push(secs);
    }

    let mut member_s = vec![0.0; members.len()];
    let mut pass_s = Vec::new();
    let mut cases_total = 0u64;
    let mut first: Vec<(CampaignReport, CampaignTelemetry, f64)> = Vec::new();
    out.iterations = iterate(1, args.seconds, |_, first_cycle| {
        let (pass, secs) = tracer.span("campaign", || one_pass(&members, &campaign, 1, tracer));
        let cases: u64 = pass.iter().map(|(r, _, _)| r.stats.cases).sum();
        let events: u64 = pass.iter().map(|(r, _, _)| r.stats.events).sum();
        out.attempted += cases;
        cases_total += cases;
        for (member, (report, _, _)) in members.iter().zip(&pass) {
            out.failed += failed_cases(member, report);
        }
        for (total, (_, _, secs)) in member_s.iter_mut().zip(&pass) {
            *total += secs;
        }
        out.events_per_s.push(events as f64 / secs);
        pass_s.push(secs);
        if first_cycle {
            first = pass;
        }
    });

    let mut telemetry = CampaignTelemetry::default();
    let (mut events, mut probes, mut failures, mut fingerprint) = (0u64, 0u64, 0u64, 0u64);
    for (member, (report, t, _)) in members.iter().zip(&first) {
        telemetry.absorb(t);
        events += report.stats.events;
        probes += report.stats.shrink_probes;
        failures += report.failures.len() as u64;
        // The report is a pure function of the case seeds; fold what
        // identifies it into one number two commits can be compared by.
        for value in [
            report.stats.events,
            report.stats.entries,
            report.stats.shrink_probes,
            report.failures.len() as u64,
            report.metrics.counter("engine.steps"),
        ] {
            fingerprint = crate::common::splitmix64(fingerprint ^ value);
        }
        if report.stats.cases != workload.cases() {
            out.correct = false;
            out.notes
                .push(format!("{}: ran {} cases", member.name, report.stats.cases));
        }
        for failure in &report.failures {
            if member.canary.is_none() {
                out.notes.push(format!(
                    "{} case {}: {:?}",
                    member.name, failure.case_index, failure.artifact.violation
                ));
            }
        }
    }
    let outcomes: Vec<CanaryOutcome> = members
        .iter()
        .zip(first)
        .filter_map(|(member, (report, _, _))| {
            member.canary.map(|kind| CanaryOutcome { kind, report })
        })
        .collect();
    let (caught, planted) = mutation_score(&outcomes);
    if caught < planted {
        out.correct = false;
        for o in outcomes.iter().filter(|o| !o.caught()) {
            out.notes
                .push(format!("canary {} was not caught", o.kind.name()));
        }
    }

    out.exact("explorer.events", events);
    out.exact("explorer.shrink_probes", probes);
    out.exact("explorer.shrink_events", telemetry.shrink_events);
    out.exact("explorer.recording_runs", telemetry.recording_runs);
    out.exact("explorer.checkpoints", telemetry.checkpoints);
    out.exact("explorer.cache_hits", telemetry.cache_hits);
    out.exact("explorer.failures", failures);
    out.exact("explorer.canaries_caught", caught);
    out.exact.push(("fingerprint".to_string(), fingerprint));

    if tracer.enabled() {
        for (member, total) in members.iter().zip(&member_s) {
            out.set(
                &format!("{}{}", workload.metric_prefix(), member.name),
                total / out.iterations as f64,
            );
        }
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let ((), parallel_s) = tracer.span("campaign.jobs_nproc", || {
            let _ = std::hint::black_box(one_pass(&members, &campaign, cores, tracer));
        });
        out.set(
            "explorer.cases_per_s",
            cases_total as f64 / pass_s.iter().sum::<f64>(),
        );
        out.set("explorer.host_cores", cores as f64);
        out.set("explorer.jobs_nproc_speedup", median(&pass_s) / parallel_s);
    }
    out
}
