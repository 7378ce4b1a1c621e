//! The seeded exploration loop: generate → validate → run → judge →
//! shrink → dump.
//!
//! A campaign is a pure function of `(CampaignConfig, ScenarioConfig)`:
//! case `i` derives its seed from the campaign seed by splitmix, its plan
//! from that case seed and the scenario's admissibility envelope, and its
//! verdict from a full deterministic run. On failure the plan is shrunk
//! by the cached ddmin driver in [`crate::shrink`] — each probe is a full
//! re-run of the case under a candidate sub-plan — and packaged as a
//! replay [`Artifact`]. The shrink phase's cost is reported next to the
//! report, as [`CampaignTelemetry`].
//!
//! # Parallel campaigns stay bit-identical
//!
//! [`run_campaign_jobs`] runs the cases on a worker pool, and the report
//! is **bit-identical** to the sequential one, by construction:
//!
//! 1. *Seeding is independent of execution order.* All case seeds are
//!    drawn from the campaign's splitmix `Chain` up front, so case `i`'s
//!    seed is the same no matter which worker runs it or when.
//! 2. *Cases are isolated.* A case builds its own engine and observers
//!    from `(scenario, plan, seed)` and shares nothing mutable; its
//!    entire contribution is captured in a per-case record.
//! 3. *Merging replays the sequential op order.* Records are merged in
//!    ascending `case_index` order, performing the same stat updates,
//!    `absorb` calls and failure pushes, in the same order, as the
//!    sequential loop — so even order-sensitive state (first-seen kind
//!    ordering, metric absorption) comes out identical.
//!
//! Workers claim case indices from an atomic counter (dynamic load
//! balancing — a case that shrinks a counterexample can be 100× the cost
//! of a clean one) and publish records into per-case slots; the merge
//! only starts after every slot is filled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use psync_obs::MetricsSnapshot;

use crate::artifact::{Artifact, ARTIFACT_VERSION};
use crate::canary::CanaryKind;
use crate::plan::{Chain, FaultEntry, FaultEnvelope, FaultPlan};
use crate::scenario::ScenarioConfig;
use crate::shrink::{run_shrinkable_case, CampaignTelemetry};

/// Knobs of one exploration campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of seeded cases to run.
    pub cases: u64,
    /// Campaign seed; case `i` uses `splitmix(seed ^ i)`.
    pub seed: u64,
    /// Maximum entries per generated plan.
    pub max_entries: usize,
    /// Judge heartbeat-family cases *online*: stream oracles ride the
    /// engine's observer hooks and the run stops the moment a violation
    /// is certain, so failing cases cost events-to-first-violation
    /// instead of the horizon. Kinds without stream oracles fall back to
    /// the post-hoc judge. Off by default: a short-circuited case
    /// records fewer events (and only the certain violation), so online
    /// reports are *not* comparable to offline reports — the mode is
    /// still bit-identical across `--jobs` and replays of itself.
    pub online: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            cases: 64,
            seed: 0x0C1A_551C,
            max_entries: 6,
            online: false,
        }
    }
}

/// One failure found by a campaign, already shrunk and packaged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Index of the case within the campaign.
    pub case_index: u64,
    /// Entries in the plan as generated, before shrinking.
    pub original_entries: usize,
    /// The replayable reproduction (carries the shrunk plan).
    pub artifact: Artifact,
}

/// Aggregate statistics of a campaign, for coverage reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Cases run.
    pub cases: u64,
    /// Total fault entries across all generated plans.
    pub entries: u64,
    /// Generated entries by kind keyword (sorted by keyword).
    pub entries_by_kind: Vec<(&'static str, u64)>,
    /// Total recorded events across all (non-probe) case runs.
    pub events: u64,
    /// Clock-script requests clamped by the C1–C4 guard across all runs.
    pub rejected_clock_requests: u64,
    /// True case executions spent probing during shrinks: every probe is
    /// counted exactly once (repeat candidates are served from a cache,
    /// and the final shrunk plan's outcome is read from it too).
    pub shrink_probes: u64,
    /// Primary-run violations by oracle name (sorted by name) — the
    /// per-oracle violation density's numerators; the denominator is
    /// `cases`.
    pub violations_by_oracle: Vec<(String, u64)>,
    /// Distinct fault points (injection sites, see
    /// [`FaultEntry::fault_point`]) the generated plans exercised, sorted.
    pub fault_points_hit: Vec<String>,
    /// Size of the scenario envelope's fault-point catalog — the
    /// denominator of the fault-point-coverage ratio
    /// `fault_points_hit.len() / fault_points_total`.
    pub fault_points_total: u64,
}

impl CampaignStats {
    fn count_kind(&mut self, kind: &'static str) {
        match self.entries_by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => {
                self.entries_by_kind.push((kind, 1));
                self.entries_by_kind.sort_unstable_by_key(|(k, _)| *k);
            }
        }
    }

    fn count_oracle(&mut self, oracle: &str) {
        match self
            .violations_by_oracle
            .iter_mut()
            .find(|(k, _)| k == oracle)
        {
            Some((_, n)) => *n += 1,
            None => {
                self.violations_by_oracle.push((oracle.to_string(), 1));
                self.violations_by_oracle.sort_unstable();
            }
        }
    }

    fn hit_fault_point(&mut self, point: &str) {
        if let Err(i) = self
            .fault_points_hit
            .binary_search_by(|p| p.as_str().cmp(point))
        {
            self.fault_points_hit.insert(i, point.to_string());
        }
    }
}

/// The campaign's verdict on a planted canary: did the expected oracle
/// catch the bug, and how small did the caught cases shrink?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanaryVerdict {
    /// The planted bug the campaign's scenario carried.
    pub canary: CanaryKind,
    /// Name prefix of the oracle expected to report it.
    pub expected_oracle: String,
    /// Failing cases whose primary violation came from that oracle.
    pub caught_cases: u64,
    /// Smallest shrunk-plan length among those cases (`None` when none
    /// caught) — the canary regression gate asserts this stays tiny.
    pub min_shrunk_entries: Option<u64>,
}

/// The result of [`run_campaign`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Scenario the campaign targeted.
    pub scenario: ScenarioConfig,
    /// Coverage statistics.
    pub stats: CampaignStats,
    /// Observer metrics aggregated over the campaign's primary case runs
    /// (shrink probes are excluded, so the totals stay a pure function of
    /// `cases` seeds).
    pub metrics: MetricsSnapshot,
    /// Shrunk, replayable failures (empty on a clean campaign).
    pub failures: Vec<Failure>,
    /// The canary verdict, when the scenario carried a planted bug.
    pub canary: Option<CanaryVerdict>,
}

/// Everything one case contributes to a report, captured so that cases
/// can execute in any order (or concurrently) and still be merged in
/// strict `case_index` order.
#[derive(Debug)]
struct CaseRecord {
    /// Kind keyword of each generated fault entry, in plan order —
    /// preserves the sequential loop's first-seen kind ordering when
    /// merged.
    entry_kinds: Vec<&'static str>,
    /// Fault point of each generated entry, in plan order.
    entry_points: Vec<String>,
    /// Oracle names of the primary run's violations, in oracle order.
    violation_oracles: Vec<String>,
    /// Recorded events of the primary run.
    events: u64,
    /// Clock-script requests clamped during the primary run.
    rejected_clock_requests: u64,
    /// Observer metrics of the primary run.
    metrics: MetricsSnapshot,
    /// True case executions spent probing during the shrink (0 for a
    /// passing case).
    shrink_probes: u64,
    /// Shrink-phase cost counters (all zero for a passing case).
    telemetry: CampaignTelemetry,
    /// The shrunk, packaged failure, when the case found a violation.
    failure: Option<Failure>,
}

/// Runs case `case_index` of a campaign: generate → run → judge → shrink.
///
/// Pure function of its arguments — no shared mutable state — which is
/// what makes the worker pool in [`run_campaign_jobs`] deterministic.
fn run_one_case(
    campaign: &CampaignConfig,
    scenario: &ScenarioConfig,
    envelope: &FaultEnvelope,
    case_index: u64,
    case_seed: u64,
) -> CaseRecord {
    let plan = FaultPlan::generate(case_seed, envelope, campaign.max_entries);
    debug_assert!(
        plan.validate(envelope).is_ok(),
        "generator escaped the envelope"
    );
    let entry_kinds: Vec<&'static str> = plan.entries.iter().map(FaultEntry::kind).collect();
    let entry_points: Vec<String> = plan.entries.iter().map(FaultEntry::fault_point).collect();
    // Run the primary and, if it fails, shrink it: each probe is a
    // deterministic execution of the case under a candidate sub-plan
    // ("fails" = any oracle violation).
    let mut telemetry = CampaignTelemetry::default();
    let (outcome, shrunk) =
        run_shrinkable_case(scenario, &plan, case_seed, campaign.online, &mut telemetry);
    let mut record = CaseRecord {
        entry_kinds,
        entry_points,
        violation_oracles: outcome
            .violations
            .iter()
            .map(|(oracle, _)| oracle.clone())
            .collect(),
        events: outcome.events as u64,
        rejected_clock_requests: outcome.rejected_clock_requests,
        metrics: outcome.metrics.clone(),
        shrink_probes: 0,
        telemetry,
        failure: None,
    };
    let Some(shrunk) = shrunk else {
        return record;
    };
    record.shrink_probes = shrunk.probes;
    let violation = shrunk
        .outcome
        .violations
        .first()
        .or_else(|| outcome.violations.first())
        .cloned();
    record.failure = Some(Failure {
        case_index,
        original_entries: plan.len(),
        artifact: Artifact {
            version: ARTIFACT_VERSION,
            config: scenario.clone(),
            seed: case_seed,
            plan: shrunk.plan,
            violation,
        },
    });
    record
}

/// Folds per-case records — in ascending case order — into the report,
/// performing the same updates in the same order as a sequential loop.
fn merge_records(
    scenario: &ScenarioConfig,
    records: impl IntoIterator<Item = CaseRecord>,
) -> (CampaignReport, CampaignTelemetry) {
    let mut stats = CampaignStats {
        fault_points_total: scenario.envelope().fault_points().len() as u64,
        ..CampaignStats::default()
    };
    let mut metrics = MetricsSnapshot::default();
    let mut telemetry = CampaignTelemetry::default();
    let mut failures = Vec::new();
    for record in records {
        stats.cases += 1;
        stats.entries += record.entry_kinds.len() as u64;
        for kind in record.entry_kinds {
            stats.count_kind(kind);
        }
        for point in &record.entry_points {
            stats.hit_fault_point(point);
        }
        for oracle in &record.violation_oracles {
            stats.count_oracle(oracle);
        }
        stats.events += record.events;
        stats.rejected_clock_requests += record.rejected_clock_requests;
        metrics.absorb(&record.metrics);
        stats.shrink_probes += record.shrink_probes;
        telemetry.absorb(&record.telemetry);
        if let Some(failure) = record.failure {
            failures.push(failure);
        }
    }
    let canary = scenario.canary.map(|canary| {
        let expected = canary.expected_oracle();
        let caught: Vec<&Failure> = failures
            .iter()
            .filter(|f| {
                f.artifact
                    .violation
                    .as_ref()
                    .is_some_and(|(oracle, _)| oracle.starts_with(expected))
            })
            .collect();
        CanaryVerdict {
            canary,
            expected_oracle: expected.to_string(),
            caught_cases: caught.len() as u64,
            min_shrunk_entries: caught.iter().map(|f| f.artifact.plan.len() as u64).min(),
        }
    });
    let report = CampaignReport {
        scenario: scenario.clone(),
        stats,
        metrics,
        failures,
        canary,
    };
    (report, telemetry)
}

/// The worker count [`run_campaign`] uses: `PSYNC_JOBS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`]
/// (1 if even that is unavailable).
#[must_use]
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("PSYNC_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs one seeded campaign against one scenario on `jobs` workers,
/// additionally returning the shrink-phase cost telemetry. The
/// [`CampaignReport`] half is what [`run_campaign_jobs`] returns.
#[must_use]
pub fn run_campaign_with_telemetry(
    campaign: &CampaignConfig,
    scenario: &ScenarioConfig,
    jobs: usize,
) -> (CampaignReport, CampaignTelemetry) {
    let envelope = scenario.envelope();
    // All case seeds are drawn up front from the sequential chain, so the
    // mapping case → seed never depends on worker scheduling.
    let mut seeder = Chain::new(campaign.seed);
    let seeds: Vec<u64> = (0..campaign.cases).map(|_| seeder.next()).collect();

    if jobs <= 1 || seeds.len() <= 1 {
        let records = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| run_one_case(campaign, scenario, &envelope, i as u64, seed));
        return merge_records(scenario, records);
    }

    let workers = jobs.min(seeds.len());
    let next = AtomicU64::new(0);
    let slots: Vec<OnceLock<CaseRecord>> = seeds.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Dynamic claiming: whichever worker is free takes the
                // next unclaimed case, so one expensive shrink does not
                // stall a statically assigned stripe of cases.
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(&seed) = seeds.get(i) else {
                    break;
                };
                let record = run_one_case(campaign, scenario, &envelope, i as u64, seed);
                assert!(slots[i].set(record).is_ok(), "case {i} claimed twice");
            });
        }
    });
    let records = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("worker pool filled every slot"));
    merge_records(scenario, records)
}

/// Runs one seeded campaign against one scenario on `jobs` workers.
///
/// The report is bit-identical for every `jobs` value (see the module
/// docs for the argument); `jobs = 1` runs the cases inline on the
/// calling thread with no pool at all.
#[must_use]
pub fn run_campaign_jobs(
    campaign: &CampaignConfig,
    scenario: &ScenarioConfig,
    jobs: usize,
) -> CampaignReport {
    run_campaign_with_telemetry(campaign, scenario, jobs).0
}

/// Runs one seeded campaign against one scenario, on [`default_jobs`]
/// workers. Determinism is unaffected by the worker count: the report is
/// bit-identical to `run_campaign_jobs(campaign, scenario, 1)`.
#[must_use]
pub fn run_campaign(campaign: &CampaignConfig, scenario: &ScenarioConfig) -> CampaignReport {
    run_campaign_jobs(campaign, scenario, default_jobs())
}

/// Convenience: first failure of a campaign, if any — what most tests
/// want.
#[must_use]
pub fn first_failure(campaign: &CampaignConfig, scenario: &ScenarioConfig) -> Option<Failure> {
    run_campaign(campaign, scenario).failures.into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_campaigns_are_deterministic() {
        let campaign = CampaignConfig {
            cases: 6,
            ..CampaignConfig::default()
        };
        let scenario = ScenarioConfig::clockfleet_default();
        let a = run_campaign(&campaign, &scenario);
        let b = run_campaign(&campaign, &scenario);
        assert_eq!(a.stats.entries, b.stats.entries);
        assert_eq!(a.stats.events, b.stats.events);
        assert_eq!(a.failures.len(), b.failures.len());
        // The aggregated observer metrics are part of the determinism
        // contract, and they cross-check the stats the loop keeps itself.
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.metrics.counter("engine.steps"), a.stats.events);
        assert_eq!(
            a.metrics.counter("clock.rejected_requests"),
            a.stats.rejected_clock_requests
        );
    }

    #[test]
    fn campaign_reports_kind_coverage() {
        let campaign = CampaignConfig {
            cases: 12,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&campaign, &ScenarioConfig::heartbeat_default());
        assert_eq!(report.stats.cases, 12);
        assert!(report.stats.entries > 0);
        assert!(!report.stats.entries_by_kind.is_empty());
        let counted: u64 = report.stats.entries_by_kind.iter().map(|(_, n)| n).sum();
        assert_eq!(counted, report.stats.entries);
    }
}
