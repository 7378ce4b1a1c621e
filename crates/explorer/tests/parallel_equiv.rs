//! Differential test: parallel campaigns are bit-identical to sequential.
//!
//! `run_campaign_jobs` promises the full [`CampaignReport`] — stats,
//! first-seen kind coverage, aggregated metrics, and every shrunk failure
//! artifact — is independent of the worker count. This test holds it to
//! that promise by comparing whole reports with `==` (all report types
//! derive `PartialEq`/`Eq`) across `jobs ∈ {1, 2, 4}`:
//!
//! - a fixed sweep of seeds over every catalog scenario, passing
//!   campaigns only (broad coverage of the merge path);
//! - the planted-bug heartbeat scenario, so the comparison also covers
//!   failing cases end to end: shrinking, probe accounting, artifacts;
//! - the paused-and-resumed restart scenario, clean and with a planted
//!   bug;
//! - a property test over random `CampaignConfig`s (cases, seed,
//!   max_entries) and scenarios.
//!
//! Note: the vendored proptest stub replays deterministically from the
//! test name and performs no shrinking of its own, so it persists no
//! `*.proptest-regressions` files.

use proptest::prelude::*;
use psync_explorer::{run_campaign_jobs, CampaignConfig, ScenarioConfig, ScenarioKind};

const JOBS: [usize; 2] = [2, 4];

/// Runs the campaign sequentially, then re-runs on each worker count and
/// requires the whole report to compare equal.
fn assert_jobs_invariant(campaign: &CampaignConfig, config: &ScenarioConfig) {
    let sequential = run_campaign_jobs(campaign, config, 1);
    for jobs in JOBS {
        let parallel = run_campaign_jobs(campaign, config, jobs);
        assert_eq!(
            sequential, parallel,
            "report diverged at jobs={jobs} (campaign {campaign:?})"
        );
    }
}

#[test]
fn all_scenarios_reports_identical_across_job_counts() {
    for kind in ScenarioKind::all() {
        let config = ScenarioConfig::default_for(kind);
        for seed in [0x0C1A_551C, 1, 0xDEAD_BEEF] {
            let campaign = CampaignConfig {
                cases: 8,
                seed,
                max_entries: 5,
                ..CampaignConfig::default()
            };
            assert_jobs_invariant(&campaign, &config);
        }
    }
}

#[test]
fn failing_campaign_reports_identical_across_job_counts() {
    // The planted boundary bug makes the heartbeat campaign find real
    // violations, so the equality covers shrinking and artifacts too.
    let config = ScenarioConfig::heartbeat_default().with_bug(40);
    let campaign = CampaignConfig {
        cases: 24,
        seed: 0x0C1A_551C,
        max_entries: 6,
        ..CampaignConfig::default()
    };
    let report = run_campaign_jobs(&campaign, &config, 1);
    assert!(
        !report.failures.is_empty(),
        "planted bug should produce failures for this comparison to be meaningful"
    );
    assert_jobs_invariant(&campaign, &config);
}

/// The pause seam is the trickiest place for worker-count divergence:
/// the restart scenario pauses mid-case and resumes the same engine
/// across the seam. Pin the whole report as bit-identical over
/// `jobs ∈ {1, 2, 4}`, for a clean crash campaign and a failing
/// (planted-bug) one.
#[test]
fn crash_scenario_reports_identical_across_jobs() {
    for (config, cases) in [
        (
            ScenarioConfig::default_for(ScenarioKind::HeartbeatRestart),
            12,
        ),
        (
            ScenarioConfig::default_for(ScenarioKind::HeartbeatRestart).with_bug(1),
            16,
        ),
    ] {
        let campaign = CampaignConfig {
            cases,
            seed: 0x0C1A_551C,
            max_entries: 6,
            ..CampaignConfig::default()
        };
        assert_jobs_invariant(&campaign, &config);
        if config.bug_extra_ns > 0 {
            let report = run_campaign_jobs(&campaign, &config, 1);
            assert!(
                !report.failures.is_empty(),
                "planted bug should fail crash-scenario cases"
            );
        }
    }
}

#[test]
fn degenerate_campaigns_run_on_any_job_count() {
    let config = ScenarioConfig::register_default();
    for cases in [0, 1] {
        let campaign = CampaignConfig {
            cases,
            seed: 7,
            max_entries: 3,
            ..CampaignConfig::default()
        };
        assert_jobs_invariant(&campaign, &config);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Job-count invariance over random campaign shapes and scenarios.
    #[test]
    fn random_campaigns_identical_across_job_counts(
        cases in 1u64..8,
        seed in 0u64..1_000_000,
        max_entries in 1usize..8,
        kind_ix in 0usize..ScenarioKind::all().len(),
    ) {
        let config = ScenarioConfig::default_for(ScenarioKind::all()[kind_ix]);
        let campaign = CampaignConfig { cases, seed, max_entries, ..CampaignConfig::default() };
        let sequential = run_campaign_jobs(&campaign, &config, 1);
        for jobs in JOBS {
            let parallel = run_campaign_jobs(&campaign, &config, jobs);
            prop_assert_eq!(
                &sequential, &parallel,
                "report diverged at jobs={} (campaign {:?})", jobs, campaign
            );
        }
    }
}
