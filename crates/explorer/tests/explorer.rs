//! End-to-end explorer tests: the seeded-bug acceptance case, envelope
//! boundary values, backward-jump rejection, and artifact round-trips.

mod common;

use common::fingerprinted;
use psync_explorer::{
    replay_artifact, run_campaign, run_campaign_with_telemetry, run_case, run_scenario, Artifact,
    CampaignConfig, CampaignTelemetry, FaultEntry, FaultPlan, HeartbeatFamily, Inadmissible,
    ScenarioConfig, ScenarioKind, ARTIFACT_VERSION,
};

/// The acceptance scenario: a channel bug that delivers a boundary delay
/// spike one tick *after* `d₂`. The explorer must find it, shrink the
/// counterexample to at most three entries, and produce an artifact that
/// replays bit-identically.
#[test]
fn seeded_late_delivery_bug_is_found_shrunk_and_replayed() {
    let cfg = ScenarioConfig::heartbeat_default().with_bug(1);
    let campaign = CampaignConfig {
        cases: 64,
        seed: 0xC1A551C,
        max_entries: 6,
        ..CampaignConfig::default()
    };
    let report = run_campaign(&campaign, &cfg);
    assert!(
        !report.failures.is_empty(),
        "the seeded d2+1 bug was not found in {} cases",
        campaign.cases
    );

    let failure = report
        .failures
        .iter()
        .find(|f| {
            f.artifact
                .violation
                .as_ref()
                .is_some_and(|(oracle, _)| oracle == "delivery envelope")
        })
        .expect("at least one failure must be a delivery-envelope violation");

    // Shrinking must isolate the trigger: a boundary delay spike at
    // exactly d2, which the buggy channel stretches to d2 + 1ns.
    let plan = &failure.artifact.plan;
    assert!(
        plan.len() <= 3,
        "shrunk plan still has {} entries: {plan:?}",
        plan.len()
    );
    assert!(
        plan.entries.iter().any(
            |e| matches!(e, FaultEntry::DelaySpike { delay_ns, .. } if *delay_ns == cfg.d2_ns)
        ),
        "shrunk plan lost the boundary spike: {plan:?}"
    );
    let (_, detail) = failure.artifact.violation.as_ref().unwrap();
    assert!(
        detail.contains("outside"),
        "violation should describe an out-of-envelope delivery: {detail}"
    );

    // The artifact is self-contained: JSON round-trips exactly...
    let text = failure.artifact.to_json();
    let parsed = Artifact::from_json(&text).expect("artifact JSON parses");
    assert_eq!(parsed, failure.artifact);

    // ...and replaying it re-executes the identical case: same verdicts,
    // same event count, same metrics, same execution fingerprint, twice
    // over.
    let first = replay_artifact(&parsed).expect("artifact replays");
    let second = replay_artifact(&parsed).expect("artifact replays");
    assert_eq!(first, second);
    let (replayed, hash) = fingerprinted(&parsed.config, &parsed.plan, parsed.seed);
    assert_eq!(replayed, first);
    assert_eq!(
        fingerprinted(&parsed.config, &parsed.plan, parsed.seed).1,
        hash
    );
    assert!(!first.violations.is_empty());
    assert_eq!(first.violations[0].0, "delivery envelope");

    // Strongest form: the whole recorded executions are equal (Arc-backed
    // Execution equality) — and so are the observer metrics.
    let a = run_scenario::<HeartbeatFamily>(&cfg, plan, failure.artifact.seed, false);
    let b = run_scenario::<HeartbeatFamily>(&cfg, plan, failure.artifact.seed, false);
    let run_a = a.run.expect("case runs");
    let run_b = b.run.expect("case runs");
    assert_eq!(run_a.execution, run_b.execution);
    assert_eq!(a.violations, b.violations);
    assert!(!a.violations.is_empty());
    assert_eq!(a.metrics, b.metrics);
}

/// Without the bug, the same campaigns are clean: every generated plan is
/// admissible and no oracle fires. (This is what makes the CI smoke run
/// meaningful — a non-zero exit is always a real find.)
#[test]
fn clean_campaigns_find_no_violations() {
    for (scenario, cases) in [
        (ScenarioConfig::heartbeat_default(), 24),
        (ScenarioConfig::clockfleet_default(), 24),
        (ScenarioConfig::register_default(), 8),
    ] {
        let campaign = CampaignConfig {
            cases,
            seed: 0xC1A551C,
            max_entries: 6,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&campaign, &scenario);
        assert!(
            report.failures.is_empty(),
            "[{:?}] unexpected violations: {:?}",
            scenario.kind,
            report
                .failures
                .iter()
                .map(|f| &f.artifact.violation)
                .collect::<Vec<_>>()
        );
        assert!(report.stats.entries > 0, "campaign generated no faults");
    }
}

/// `shrink_probes` counts true case executions: the cached driver never
/// re-probes a plan it has already evaluated (ddmin revisits its seeded
/// plan and adopted bases; those answers are tallied as cache hits), and
/// the recording-run and checkpoint tallies stay 0. A clean campaign of any
/// kind never shrinks, so it spends nothing at all.
#[test]
fn shrink_probe_counts_are_true_executions() {
    let campaign = CampaignConfig {
        cases: 24,
        ..CampaignConfig::default()
    };
    let scenario = ScenarioConfig::heartbeat_default().with_bug(1);
    let (report, cost) = run_campaign_with_telemetry(&campaign, &scenario, 1);
    assert!(!report.failures.is_empty(), "planted bug was not found");
    assert!(report.stats.shrink_probes > 0);
    assert!(cost.shrink_events > 0);
    assert!(cost.cache_hits > 0);
    assert_eq!((cost.recording_runs, cost.checkpoints), (0, 0));

    let clean = CampaignConfig {
        cases: 6,
        ..CampaignConfig::default()
    };
    for kind in ScenarioKind::all() {
        let (report, cost) =
            run_campaign_with_telemetry(&clean, &ScenarioConfig::default_for(kind), 1);
        assert!(report.failures.is_empty(), "[{kind:?}] unexpected failures");
        assert_eq!(cost, CampaignTelemetry::default(), "[{kind:?}] shrink cost");
    }
}

/// A clock skew of exactly `ε` is admissible and the run passes every
/// oracle: the system is specified to tolerate the full envelope.
#[test]
fn skew_of_exactly_eps_is_admissible_and_survives() {
    let cfg = ScenarioConfig::clockfleet_default();
    let env = cfg.envelope();
    for offset in [cfg.eps_ns, -cfg.eps_ns] {
        let plan = FaultPlan {
            entries: vec![FaultEntry::ClockSkew {
                node: 0,
                at_ns: 50_000_000,
                offset_ns: offset,
            }],
        };
        plan.validate(&env).expect("|offset| = eps is admissible");
        let out = run_case(&cfg, &plan, 7, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }
}

/// One tick beyond `ε` is rejected *before execution* as an inadmissible
/// adversary — not reported as an algorithm bug.
#[test]
fn skew_one_tick_beyond_eps_is_inadmissible_before_execution() {
    let cfg = ScenarioConfig::clockfleet_default();
    let env = cfg.envelope();
    for offset in [cfg.eps_ns + 1, -(cfg.eps_ns + 1)] {
        let plan = FaultPlan {
            entries: vec![FaultEntry::ClockSkew {
                node: 0,
                at_ns: 50_000_000,
                offset_ns: offset,
            }],
        };
        match plan.validate(&env) {
            Err(Inadmissible::SkewBeyondEps {
                offset_ns, eps_ns, ..
            }) => {
                assert_eq!(offset_ns, offset);
                assert_eq!(eps_ns, cfg.eps_ns);
            }
            other => panic!("expected SkewBeyondEps, got {other:?}"),
        }
    }
}

/// Delay spikes at exactly `d₁` and exactly `d₂` are admissible and pass
/// (the paper's channel may legally choose either bound).
#[test]
fn delays_at_exactly_d1_and_d2_are_admissible_and_survive() {
    let cfg = ScenarioConfig::heartbeat_default();
    let env = cfg.envelope();
    for delay in [cfg.d1_ns, cfg.d2_ns] {
        let plan = FaultPlan {
            entries: vec![FaultEntry::DelaySpike {
                src: 0,
                dst: 1,
                seq: 4,
                delay_ns: delay,
            }],
        };
        plan.validate(&env).expect("boundary delay is admissible");
        let out = run_case(&cfg, &plan, 11, false);
        assert!(
            out.violations.is_empty(),
            "delay {delay}: {:?}",
            out.violations
        );
    }
}

/// One tick outside `[d₁, d₂]` in either direction is inadmissible
/// before execution.
#[test]
fn delay_one_tick_outside_bounds_is_inadmissible() {
    let cfg = ScenarioConfig::heartbeat_default();
    let env = cfg.envelope();
    for delay in [cfg.d1_ns - 1, cfg.d2_ns + 1] {
        let plan = FaultPlan {
            entries: vec![FaultEntry::DelaySpike {
                src: 0,
                dst: 1,
                seq: 4,
                delay_ns: delay,
            }],
        };
        match plan.validate(&env) {
            Err(Inadmissible::DelayOutOfBounds {
                delay_ns,
                d1_ns,
                d2_ns,
                ..
            }) => {
                assert_eq!(delay_ns, delay);
                assert_eq!((d1_ns, d2_ns), (cfg.d1_ns, cfg.d2_ns));
            }
            other => panic!("expected DelayOutOfBounds, got {other:?}"),
        }
    }
}

/// An *attempted* backward clock jump is an admissible thing to try —
/// and the C1–C4 guard must clamp it at run time (counted as a rejected
/// clock request) while every oracle still holds.
#[test]
fn attempted_backward_jump_is_rejected_by_the_guard_not_the_oracles() {
    let cfg = ScenarioConfig::clockfleet_default();
    let env = cfg.envelope();
    let plan = FaultPlan {
        entries: vec![FaultEntry::ClockBackwardJump {
            node: 0,
            at_ns: 100_000_000,
            // Far beyond ε: every post-jump request is off-envelope and
            // must be clamped back inside C_ε.
            jump_ns: cfg.eps_ns * 2 + 5_000_000,
        }],
    };
    plan.validate(&env)
        .expect("attempting a backward jump is admissible");
    let out = run_case(&cfg, &plan, 13, false);
    assert!(
        out.rejected_clock_requests > 0,
        "the guard should have clamped the scripted backward jump"
    );
    assert!(out.violations.is_empty(), "{:?}", out.violations);
}

/// Regression: a hand-written artifact with a nontrivial plan round-trips
/// through JSON and replays to the same outcome as a direct run.
#[test]
fn artifact_round_trip_matches_direct_execution() {
    let cfg = ScenarioConfig::heartbeat_default();
    let plan = FaultPlan {
        entries: vec![
            FaultEntry::Drop {
                src: 0,
                dst: 1,
                seq: 2,
            },
            FaultEntry::Duplicate {
                src: 0,
                dst: 1,
                seq: 6,
                delay_ns: 2_500_000,
            },
            FaultEntry::DelaySpike {
                src: 0,
                dst: 1,
                seq: 9,
                delay_ns: 4_000_000,
            },
            FaultEntry::SchedulerBias { pick: 11 },
        ],
    };
    plan.validate(&cfg.envelope()).expect("admissible");
    let seed = 0xD15C_0B01;
    let (direct, direct_hash) = fingerprinted(&cfg, &plan, seed);
    assert!(direct.violations.is_empty(), "{:?}", direct.violations);

    let artifact = Artifact {
        version: ARTIFACT_VERSION,
        config: cfg,
        seed,
        plan,
        violation: None,
    };
    let parsed = Artifact::from_json(&artifact.to_json()).expect("parses");
    assert_eq!(parsed, artifact);
    let replayed = replay_artifact(&parsed).expect("replays");
    assert_eq!(replayed, direct);
    // ...and the parsed inputs record the identical execution.
    let (_, replayed_hash) = fingerprinted(&parsed.config, &parsed.plan, parsed.seed);
    assert_eq!(replayed_hash, direct_hash);

    // The metric snapshot is part of the outcome equality above; pin the
    // interesting invariants explicitly so a regression reads clearly.
    assert_eq!(replayed.metrics, direct.metrics);
    assert_eq!(replayed.metrics.to_json(), direct.metrics.to_json());
    assert_eq!(direct.metrics.counter("engine.steps"), direct.events as u64);
    assert_eq!(
        direct.metrics.counter("channel.dropped"),
        1,
        "the planned drop must show up in the channel fault counters"
    );
    assert_eq!(direct.metrics.counter("channel.duplicated"), 1);
    // PlanChannelFault never defers to the base policy (deferring would
    // surrender control to the channel's internal — possibly widened —
    // bounds), so every non-drop, non-duplicate send counts as a
    // single-copy delay override.
    assert_eq!(
        direct.metrics.counter("channel.spiked"),
        direct.metrics.counter("channel.sends")
            - direct.metrics.counter("channel.dropped")
            - direct.metrics.counter("channel.duplicated")
    );
    assert_eq!(
        direct.metrics.counter("engine.deliveries"),
        direct.metrics.counter("channel.delivered"),
        "engine-side RECVMSG count and channel-side delivery count agree"
    );
    let delays = direct
        .metrics
        .histogram("channel.delay_ns.n0->n1")
        .expect("per-channel delay histogram was recorded");
    assert_eq!(delays.count(), direct.metrics.counter("channel.delivered"));
}

/// An artifact whose plan violates its own envelope is refused by
/// `replay_artifact` (inadmissible, not executed).
#[test]
fn inadmissible_artifact_is_refused() {
    let cfg = ScenarioConfig::heartbeat_default();
    let artifact = Artifact {
        version: ARTIFACT_VERSION,
        seed: 1,
        plan: FaultPlan {
            entries: vec![FaultEntry::DelaySpike {
                src: 0,
                dst: 1,
                seq: 0,
                delay_ns: cfg.d2_ns + 1,
            }],
        },
        config: cfg,
        violation: None,
    };
    let err = replay_artifact(&artifact).unwrap_err();
    assert!(err.contains("inadmissible"), "{err}");
}

/// A replay artifact is input from outside the program: a config the
/// factories would assert on, divide by or index with is refused by
/// `replay_artifact`, not run into a panic.
#[test]
fn malformed_artifact_configs_are_refused() {
    let refused = |config: ScenarioConfig| {
        let artifact = Artifact {
            version: ARTIFACT_VERSION,
            config,
            seed: 1,
            plan: FaultPlan::empty(),
            violation: None,
        };
        let parsed = Artifact::from_json(&artifact.to_json()).expect("well-formed JSON");
        replay_artifact(&parsed).expect_err("an out-of-range config must not run")
    };
    let mut unordered = ScenarioConfig::heartbeat_default();
    (unordered.d1_ns, unordered.d2_ns) = (unordered.d2_ns, unordered.d1_ns);
    assert!(refused(unordered).contains("d1_ns <= d2_ns"));
    let mut empty_fleet = ScenarioConfig::default_for(ScenarioKind::SyncProbe);
    empty_fleet.nodes = 0;
    assert!(refused(empty_fleet).contains("node count"));
    let mut never_beats = ScenarioConfig::heartbeat_default();
    never_beats.period_ns = 0;
    assert!(refused(never_beats).contains("period_ns > 0"));
    let mut seam_past_horizon = ScenarioConfig::default_for(ScenarioKind::Heartbeat);
    seam_past_horizon.restart_at_ns = Some(seam_past_horizon.horizon_ns + 1_000_000);
    assert!(refused(seam_past_horizon).contains("restart_at_ns < horizon_ns"));

    // Every catalog config, and every canary's, is in range.
    for kind in ScenarioKind::all() {
        ScenarioConfig::default_for(kind)
            .validate()
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    }
    for canary in psync_explorer::CanaryKind::all() {
        canary
            .scenario()
            .validate()
            .expect("canary configs are in range");
    }
}

/// The seam is the runner's, not the heartbeat family's: pause any
/// kind's case anywhere, resume the same engine, and the pasted execution
/// is the straight one (Lemma 2.1). (The metrics also count the extra
/// stop at the seam, so they match only where the run visits that instant
/// anyway, as the catalog's heartbeat-tick seam does.)
#[test]
fn a_seam_in_any_family_pastes_to_the_same_execution() {
    for kind in ScenarioKind::all() {
        let straight = ScenarioConfig {
            restart_at_ns: None,
            ..ScenarioConfig::default_for(kind)
        };
        let seamed = ScenarioConfig {
            restart_at_ns: Some(straight.horizon_ns / 3 + 1),
            ..straight.clone()
        };
        let plan = FaultPlan::generate(7, &straight.envelope(), 6);
        let (a, a_hash) = fingerprinted(&seamed, &plan, 7);
        let (b, b_hash) = fingerprinted(&straight, &plan, 7);
        assert_eq!(
            (a.events, a_hash, a.violations),
            (b.events, b_hash, b.violations),
            "{kind:?}"
        );
    }
}
