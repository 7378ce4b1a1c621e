//! Deterministic fault-injection explorer for the psync workspace.
//!
//! The paper's algorithms are proved correct against an *admissible*
//! adversary: clocks may drift anywhere inside the `C_ε` envelope
//! (axioms C1–C4), and channels may choose any delay inside `[d₁, d₂]`,
//! drop, duplicate or reorder. Unit tests exercise hand-picked
//! adversaries; this crate searches the admissible space mechanically.
//!
//! The pipeline, end to end:
//!
//! 1. **[`plan`]** — a [`FaultPlan`] is a list of declarative fault
//!    entries (clock-skew ramps, attempted backward jumps, drops,
//!    duplicates, delay spikes, scheduler bias). An envelope derived from
//!    the scenario validates plans *before execution*: a skew of exactly
//!    `ε` or a spike of exactly `d₂` is admissible; one tick beyond is
//!    rejected as [`Inadmissible`] — testing the adversary at the
//!    boundary the theorems are tight against, without confusing an
//!    illegal adversary for an algorithm bug.
//! 2. **[`faults`]** — adapters inject an admissible plan into the
//!    existing engines: a [`ChannelFault`](psync_net::ChannelFault) for
//!    the timed channel, a `DelayPolicy` for clock channels, a scripted
//!    [`ClockStrategy`](psync_executor::ClockStrategy) whose off-envelope
//!    requests are *clamped and counted* by the C1–C4 guard, and a
//!    tie-breaking scheduler bias.
//! 3. **[`scenario`]** — the systems under test, one [`Scenario`] impl per
//!    family: heartbeat failure detection (timed model), a clock-node
//!    beeper fleet, time-division mutual exclusion, Algorithm S in `D_C`,
//!    the generalized-object counter, and probe/echo clock
//!    synchronization. [`run_scenario`] is the one pipeline that builds,
//!    drives and judges a case — with [`Oracle`](psync_verify::Oracle)s:
//!    linearizability, the `C_ε` axiom probes, delivery envelopes,
//!    failure-detector accuracy/completeness, and Lemma 2.1 replays —
//!    and [`run_case`] maps each of the sixteen catalog kinds to its
//!    family.
//! 4. **[`explore`]** — the seeded campaign loop; every case is a pure
//!    function of its seed.
//! 5. **[`shrink`]** — failing plans are reduced by ddmin to a 1-minimal
//!    counterexample; every probe is a full re-run of the case, and a
//!    probe cache keeps any candidate from being run twice.
//! 6. **[`artifact`]** — failures serialize to self-contained JSON that
//!    [`replay_artifact`] re-executes bit-identically.

pub mod artifact;
pub mod canary;
pub mod explore;
pub mod faults;
pub mod json;
pub mod online;
pub mod plan;
pub mod scenario;
pub mod shrink;

pub use artifact::{replay_artifact, Artifact, ARTIFACT_VERSION};
pub use canary::{mutation_score, run_canary_suite, CanaryKind, CanaryOutcome};
pub use explore::{
    default_jobs, first_failure, run_campaign, run_campaign_jobs, run_campaign_with_telemetry,
    CampaignConfig, CampaignReport, CampaignStats, CanaryVerdict, Failure,
};
pub use faults::{scripted_clock_for, seq_of, BiasedScheduler, PlanChannelFault, PlanDelayPolicy};
pub use plan::{at_ns, ns, FaultEntry, FaultEnvelope, FaultPlan, Inadmissible};
pub use scenario::{
    fingerprint, register_oracles, run_case, run_scenario, CaseOutcome, CaseParts,
    ClockFleetFamily, CounterFamily, HeartbeatFamily, HeartbeatRelay, Judged, MutexFamily,
    RegisterFamily, Scenario, ScenarioConfig, ScenarioKind, SyncFamily,
};
pub use shrink::{shrink_entries, CampaignTelemetry};
