//! Integration pins for online campaigns:
//!
//! - they are deterministic and worker-count invariant, exactly like
//!   offline ones;
//! - they still catch planted bugs, blaming the same streamable oracle
//!   the offline judge blames.

use psync_explorer::{run_campaign_jobs, CampaignConfig, CanaryKind, ScenarioConfig, ScenarioKind};

#[test]
fn online_campaigns_are_deterministic_and_jobs_invariant() {
    let scenario = ScenarioConfig::heartbeat_default().with_bug(40);
    let campaign = CampaignConfig {
        cases: 16,
        online: true,
        ..CampaignConfig::default()
    };
    let sequential = run_campaign_jobs(&campaign, &scenario, 1);
    assert!(
        !sequential.failures.is_empty(),
        "planted bug should fail online cases"
    );
    // The envelope bug is a streamable violation; the online judge
    // blames the same oracle the offline judge would.
    for failure in &sequential.failures {
        let (oracle, _) = failure
            .artifact
            .violation
            .as_ref()
            .expect("failing artifact carries its violation");
        assert_eq!(oracle, "delivery envelope");
    }
    for jobs in [2, 4] {
        let parallel = run_campaign_jobs(&campaign, &scenario, jobs);
        assert_eq!(
            sequential, parallel,
            "online report diverged at jobs={jobs}"
        );
    }
    let replay = run_campaign_jobs(&campaign, &scenario, 1);
    assert_eq!(sequential, replay, "online report is not replayable");
}

#[test]
fn online_campaigns_short_circuit_failing_cases() {
    // Same campaign, online vs offline, over the duplicate-delivery
    // canary on a stretched horizon: every case trips the envelope
    // oracle within the first few heartbeats, so the online run must
    // spend far fewer recorded events on its primary runs.
    let scenario = ScenarioConfig {
        canary: Some(CanaryKind::DuplicateDelivery),
        horizon_ns: 1_200_000_000,
        ..ScenarioConfig::heartbeat_default()
    };
    let offline = run_campaign_jobs(
        &CampaignConfig {
            cases: 16,
            ..CampaignConfig::default()
        },
        &scenario,
        1,
    );
    let online = run_campaign_jobs(
        &CampaignConfig {
            cases: 16,
            online: true,
            ..CampaignConfig::default()
        },
        &scenario,
        1,
    );
    assert!(!online.failures.is_empty());
    assert!(
        online.stats.events < offline.stats.events,
        "online judging saved no events: {} vs {}",
        online.stats.events,
        offline.stats.events
    );
    assert!(online.metrics.counter("monitor.short_circuits") > 0);
    // Clean campaigns, by contrast, judge every event and agree with the
    // offline mode on everything but the judge bookkeeping.
    let clean = ScenarioConfig::heartbeat_default();
    let off = run_campaign_jobs(
        &CampaignConfig {
            cases: 8,
            ..CampaignConfig::default()
        },
        &clean,
        1,
    );
    let on = run_campaign_jobs(
        &CampaignConfig {
            cases: 8,
            online: true,
            ..CampaignConfig::default()
        },
        &clean,
        1,
    );
    assert!(off.failures.is_empty() && on.failures.is_empty());
    assert_eq!(off.stats.events, on.stats.events);
    assert_eq!(on.metrics.counter("monitor.short_circuits"), 0);
}

#[test]
fn online_mode_falls_back_to_posthoc_for_other_kinds() {
    // Kinds without stream oracles must produce byte-identical reports
    // with the flag on or off.
    for kind in [
        ScenarioKind::HeartbeatRestart,
        ScenarioKind::ClockFleet,
        ScenarioKind::Register,
    ] {
        let scenario = ScenarioConfig::default_for(kind);
        let offline = run_campaign_jobs(
            &CampaignConfig {
                cases: 6,
                ..CampaignConfig::default()
            },
            &scenario,
            1,
        );
        let online = run_campaign_jobs(
            &CampaignConfig {
                cases: 6,
                online: true,
                ..CampaignConfig::default()
            },
            &scenario,
            1,
        );
        assert_eq!(offline, online, "fallback diverged for {kind:?}");
    }
}
