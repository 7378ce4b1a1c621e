//! Counterexample shrinking by delta debugging.
//!
//! The explorer's plans are *sets* of independent fault entries, which is
//! exactly the shape ddmin (Zeller & Hildebrandt's minimizing delta
//! debugging) was designed for: try dropping chunks of entries, keep any
//! subset that still fails, and refine the granularity until no single
//! entry can be removed. Because every probe is a full deterministic
//! re-run of the case, the shrunk plan is guaranteed to still fail — the
//! shrinker never reasons about *why* a plan fails, only *whether*.
//!
//! The result is 1-minimal: removing any one remaining entry makes the
//! failure disappear. 1-minimality also makes the shrinker idempotent
//! (shrinking a shrunk plan is a no-op), which the property tests pin.
//!
//! The campaign loop drives ddmin through a probe cache
//! (`shrink_with_cache`): every evaluated candidate's outcome is
//! memoised, the final plan's outcome is read from the cache instead of a
//! confirmation re-run, and `shrink_probes` therefore counts true case
//! executions.

use crate::plan::FaultPlan;
use crate::scenario::{run_case, CaseOutcome, ScenarioConfig};

/// Execution-cost counters of a campaign's shrink phase, reported next
/// to (never inside) the [`crate::CampaignReport`] — the report stays a
/// pure function of the case seeds, while the telemetry measures how
/// much work shrinking actually spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignTelemetry {
    /// Events executed by shrink probes. (Primary case runs are case
    /// executions, not shrink work, and are counted in the campaign
    /// stats instead.)
    pub shrink_events: u64,
    /// Primary case runs that recorded a checkpoint ladder. Always 0:
    /// probes re-run from scratch, so nothing is recorded.
    pub recording_runs: u64,
    /// Engine checkpoints captured for shrinking. Always 0, as above.
    pub checkpoints: u64,
    /// Probes answered from the outcome cache with no execution at all.
    pub cache_hits: u64,
}

impl CampaignTelemetry {
    /// Folds another telemetry record into this one.
    pub fn absorb(&mut self, other: &CampaignTelemetry) {
        self.shrink_events += other.shrink_events;
        self.recording_runs += other.recording_runs;
        self.checkpoints += other.checkpoints;
        self.cache_hits += other.cache_hits;
    }
}

/// The shrink phase's result for one failing case.
#[derive(Debug, Clone)]
pub(crate) struct ShrinkResult {
    /// The 1-minimal failing plan ddmin settled on.
    pub(crate) plan: FaultPlan,
    /// That plan's full outcome, read from the probe cache (no
    /// confirmation re-run).
    pub(crate) outcome: CaseOutcome,
    /// True case executions spent probing (cache misses).
    pub(crate) probes: u64,
}

/// Shrinks `plan` to a 1-minimal failing sub-plan under `fails`.
///
/// `fails` must be deterministic (same plan → same answer); the explorer
/// satisfies this by re-running the whole case per probe. If the input
/// plan does not fail at all, the empty plan is returned immediately —
/// there is no counterexample to preserve.
pub fn shrink_entries(plan: &FaultPlan, fails: &mut dyn FnMut(&FaultPlan) -> bool) -> FaultPlan {
    if !fails(plan) {
        return FaultPlan::empty();
    }
    let mut current = plan.entries.clone();
    // Fast path: many real counterexamples are a single entry.
    for entry in &current {
        let candidate = FaultPlan {
            entries: vec![entry.clone()],
        };
        if fails(&candidate) {
            current = candidate.entries;
            break;
        }
    }
    let mut granularity = 2usize.min(current.len().max(1));
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            // The complement: everything except current[start..end].
            let mut candidate_entries = Vec::with_capacity(current.len() - (end - start));
            candidate_entries.extend_from_slice(&current[..start]);
            candidate_entries.extend_from_slice(&current[end..]);
            let candidate = FaultPlan {
                entries: candidate_entries,
            };
            if fails(&candidate) {
                current = candidate.entries;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    // Final 1-minimality pass: drop single entries until a fixpoint.
    loop {
        let mut removed = false;
        for i in 0..current.len() {
            let mut candidate_entries = current.clone();
            candidate_entries.remove(i);
            let candidate = FaultPlan {
                entries: candidate_entries,
            };
            if fails(&candidate) {
                current = candidate.entries;
                removed = true;
                break;
            }
        }
        if !removed {
            break;
        }
    }
    FaultPlan { entries: current }
}

/// The cached ddmin driver: memoises every evaluated candidate, counts
/// only cache misses as probes, and reads the final plan's outcome from
/// the cache — no confirmation re-run. The second return is the number
/// of cache hits (probes avoided).
fn shrink_with_cache(
    plan: &FaultPlan,
    primary: &CaseOutcome,
    probe: &mut dyn FnMut(&FaultPlan) -> CaseOutcome,
) -> (ShrinkResult, u64) {
    let mut cache: Vec<(FaultPlan, CaseOutcome)> = vec![(plan.clone(), primary.clone())];
    let mut probes = 0u64;
    let mut hits = 0u64;
    let shrunk = shrink_entries(plan, &mut |candidate| {
        if let Some((_, cached)) = cache.iter().find(|(p, _)| p == candidate) {
            hits += 1;
            return !cached.violations.is_empty();
        }
        probes += 1;
        let outcome = probe(candidate);
        let failing = !outcome.violations.is_empty();
        cache.push((candidate.clone(), outcome));
        failing
    });
    let outcome = cache
        .iter()
        .find(|(p, _)| *p == shrunk)
        .map(|(_, o)| o.clone())
        .expect("ddmin returns the seeded plan or an evaluated candidate");
    (
        ShrinkResult {
            plan: shrunk,
            outcome,
            probes,
        },
        hits,
    )
}

/// Runs one case and, if it fails, shrinks it with the cached ddmin
/// driver. The primary and every probe go through the same closure with
/// the same `online` flag, so the shrink predicate is self-consistent
/// with the verdict that failed the case.
pub(crate) fn run_shrinkable_case(
    scenario: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    online: bool,
    telemetry: &mut CampaignTelemetry,
) -> (CaseOutcome, Option<ShrinkResult>) {
    let run = |p: &FaultPlan| run_case(scenario, p, seed, online);
    let outcome = run(plan);
    if outcome.violations.is_empty() {
        return (outcome, None);
    }
    let (result, hits) = shrink_with_cache(plan, &outcome, &mut |candidate| {
        let probe = run(candidate);
        telemetry.shrink_events += probe.events as u64;
        probe
    });
    telemetry.cache_hits += hits;
    (outcome, Some(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultEntry;

    fn outcome(violations: Vec<(String, String)>, events: usize) -> CaseOutcome {
        CaseOutcome {
            violations,
            events,
            rejected_clock_requests: 0,
            fingerprint: events as u64,
            metrics: psync_obs::MetricsSnapshot::default(),
        }
    }

    fn drop_entry(seq: u32) -> FaultEntry {
        FaultEntry::Drop {
            src: 0,
            dst: 1,
            seq,
        }
    }

    fn plan_of(seqs: &[u32]) -> FaultPlan {
        FaultPlan {
            entries: seqs.iter().map(|&s| drop_entry(s)).collect(),
        }
    }

    #[test]
    fn passing_plan_shrinks_to_empty() {
        let mut fails = |_: &FaultPlan| false;
        let shrunk = shrink_entries(&plan_of(&[1, 2, 3]), &mut fails);
        assert!(shrunk.is_empty());
    }

    #[test]
    fn single_culprit_is_isolated() {
        // Fails iff the plan contains Drop seq 7.
        let mut fails = |p: &FaultPlan| {
            p.entries
                .iter()
                .any(|e| matches!(e, FaultEntry::Drop { seq: 7, .. }))
        };
        let shrunk = shrink_entries(&plan_of(&[1, 9, 7, 3, 5, 2, 8]), &mut fails);
        assert_eq!(shrunk, plan_of(&[7]));
    }

    #[test]
    fn conjunction_of_two_culprits_is_preserved() {
        // Fails iff the plan contains both seq 2 and seq 6.
        let mut fails = |p: &FaultPlan| {
            let has = |want: u32| {
                p.entries
                    .iter()
                    .any(|e| matches!(e, FaultEntry::Drop { seq, .. } if *seq == want))
            };
            has(2) && has(6)
        };
        let shrunk = shrink_entries(&plan_of(&[1, 2, 3, 4, 5, 6, 7, 8]), &mut fails);
        assert_eq!(shrunk.len(), 2);
        assert!(fails(&shrunk));
    }

    #[test]
    fn shrinking_is_idempotent() {
        let mut fails = |p: &FaultPlan| {
            p.entries
                .iter()
                .filter(|e| matches!(e, FaultEntry::Drop { seq, .. } if seq % 2 == 0))
                .count()
                >= 2
        };
        let once = shrink_entries(&plan_of(&[0, 1, 2, 3, 4, 5, 6]), &mut fails);
        let twice = shrink_entries(&once, &mut fails);
        assert_eq!(once, twice);
        assert!(fails(&once));
        assert_eq!(once.len(), 2);
    }

    /// `shrink_probes` counts true case executions — the driver never
    /// re-probes a cached plan, and in particular never re-runs the
    /// final shrunk plan to fetch its outcome.
    #[test]
    fn cached_driver_probes_each_plan_at_most_once() {
        let plan = plan_of(&[1, 2, 3, 4]);
        // "Fails" iff the plan still contains drop seq 3.
        let failing = |p: &FaultPlan| {
            p.entries
                .iter()
                .any(|e| matches!(e, FaultEntry::Drop { seq: 3, .. }))
        };
        let primary = outcome(vec![("o".into(), "v".into())], 10);
        let mut evaluated: Vec<FaultPlan> = Vec::new();
        let (result, _hits) = shrink_with_cache(&plan, &primary, &mut |candidate| {
            assert!(
                !evaluated.contains(candidate),
                "candidate probed twice: {candidate:?}"
            );
            evaluated.push(candidate.clone());
            if failing(candidate) {
                outcome(vec![("o".into(), "v".into())], 5)
            } else {
                outcome(vec![], 5)
            }
        });
        assert_eq!(result.plan, plan_of(&[3]));
        assert!(!result.outcome.violations.is_empty());
        assert_eq!(result.probes, evaluated.len() as u64);
        // The original plan's outcome was seeded, never re-probed.
        assert!(!evaluated.contains(&plan));
    }

    /// The final outcome comes from the cache even when ddmin's last
    /// evaluation of the winning plan happened many probes earlier.
    #[test]
    fn final_outcome_is_served_from_the_cache() {
        let plan = plan_of(&[7]);
        let primary = outcome(vec![("o".into(), "only".into())], 3);
        let (result, _hits) = shrink_with_cache(&plan, &primary, &mut |candidate| {
            assert!(candidate.is_empty(), "only the empty sub-plan is probed");
            outcome(vec![], 1)
        });
        // A single entry that still fails: ddmin keeps it, and its
        // outcome is the seeded primary — zero extra executions.
        assert_eq!(result.plan, plan);
        assert_eq!(result.outcome, primary);
        assert_eq!(result.probes, 1);
    }
}
