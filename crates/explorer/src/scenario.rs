//! Scenarios: the systems a fault plan perturbs, the oracles that judge
//! each run, and the one pipeline that runs a case of any of them.
//!
//! The catalog covers the workspace's three model layers with sixteen
//! [`ScenarioKind`]s in six families. A family is one [`Scenario`] impl —
//! how the system is built, which properties it streams, which oracles
//! judge it whole — and [`run_scenario`] is the only code that builds,
//! drives, judges and accounts a case, for every family alike: straight,
//! across a checkpoint seam, or under an online judge. Adding a family is
//! that impl, its `CATALOG` rows and its arm in [`run_case`]; nothing in
//! the shrinker, the artifact reader or the campaign binary changes.
//!
//! * [`HeartbeatFamily`] — the timed model: failure detection over
//!   plan-driven fault channels, in seven topologies and fault flavours.
//! * [`ClockFleetFamily`] — the clock model in isolation: scripted clocks
//!   driving clock-time beepers.
//! * [`MutexFamily`] — Section 7's time-division mutual exclusion under
//!   `C(A, ε)`.
//! * [`RegisterFamily`] — the full `D_C` assembly of Section 6
//!   (Algorithm S through Simulation 1), two or three nodes.
//! * [`CounterFamily`] — the generalized-object extension in `D_C`.
//! * [`SyncFamily`] — clock synchronization that *achieves* ε̂.
//!
//! Every [`Scenario`] item is a pure function of `(config, plan, seed)` —
//! the entire contents of a replay artifact — which is what makes replays
//! bit-identical. Planted-bug canaries ([`CanaryKind`]) mutate one
//! factory knob each; the config carries the tag so artifacts of caught
//! canaries replay the mutant faithfully.

use core::cell::Cell;
use std::fmt::Debug;
use std::hash::Hash;
use std::rc::Rc;

use psync_apps::heartbeat::{FdAction, FdOp, FdParams, Heartbeat, Heartbeater, Monitor};
use psync_apps::mutex::{MutexAction, MutexOp, SlotUser};
use psync_automata::toys::{BeepAction, ClockBeeper};
use psync_automata::{Action, ActionKind, Execution, TimedComponent, Verdict};
use psync_core::{app_trace, build_dc, ClockSim, NodeSpec};
use psync_executor::{
    ClockNode, ClockStrategy, DriftClock, Engine, EngineBuilder, OffsetClock, Run, StopReason,
};
use psync_net::{
    Envelope, FaultChannel, FaultStats, MaxDelay, MsgId, NodeId, Script, SysAction, Topology,
};
use psync_obs::{check_all_sharded, CEpsOracle, MetricsHub, MetricsSnapshot, OnlineJudge};
use psync_register::object::Counter;
use psync_register::{
    AlgorithmS, AlgorithmSObj, ClosedLoopWorkload, ObjAction, ObjWorkload, RegAction,
    RegisterParams, Value,
};
use psync_sync::{
    drift_rates, predicted_eps_hat, rho_max, EpsHatOracle, MeasuredEps, ProbeSync, RoundSync,
    SyncAction, SyncParams,
};
use psync_time::{DelayBounds, Duration, Time};
use psync_verify::replay::{replay_clock, replay_timed, ReplayError};
use psync_verify::{
    fold, FnOracle, LinearizableRegister, ObjectLinearizableOracle, Oracle, ProblemOracle,
    StreamOracle,
};

use crate::canary::CanaryKind;
use crate::faults::{
    scripted_clock_for, seq_of, BiasedScheduler, PlanChannelFault, PlanDelayPolicy,
};
use crate::json::Json;
use crate::online::{heartbeat_stream_oracles, ONLINE_CHUNK};
use crate::plan::{at_ns, ns, FaultEnvelope, FaultPlan};

/// Which system a case runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Timed-model failure detector over a faultable channel.
    Heartbeat,
    /// Heartbeat with a scripted crash of the monitored node.
    HeartbeatCrash,
    /// Heartbeat with a crash *and* a checkpoint/restore seam: the run is
    /// paused mid-flight, snapshotted, restored into a fresh engine, and
    /// driven to the horizon — the oracles must hold across the seam
    /// (Lemma 2.1 as a crash-recovery test).
    HeartbeatRestart,
    /// Heartbeat over a gray channel: periodically, sends are pinned to
    /// the worst admissible delay `d₂`.
    HeartbeatGray,
    /// Two nodes monitoring each other over two independent channels.
    HeartbeatBidi,
    /// Three-node line: heartbeats are forwarded by a deduplicating relay
    /// and monitored two hops downstream.
    Relay,
    /// Four nodes in two disjoint pairs; one pair's beater crashes.
    Partition,
    /// Clock-model beeper fleet with scripted clocks.
    ClockFleet,
    /// A larger, faster, more skewed beeper fleet.
    ClockFleetLarge,
    /// Time-division mutual exclusion (`SlotUser` under `C(A, ε)`).
    Mutex,
    /// Mutual exclusion with more nodes and tighter slots.
    MutexContended,
    /// Algorithm S in `D_C` (Section 6) under plan adversaries.
    Register,
    /// Algorithm S with three nodes.
    RegisterTriple,
    /// The generalized-object counter (`AlgorithmSObj<Counter>`).
    Counter,
    /// Probe/echo clock synchronization certifying the achieved ε̂
    /// ([`psync_sync::ProbeSync`] on drifting clocks).
    SyncProbe,
    /// Fault-resistant round-based sync ([`psync_sync::RoundSync`]):
    /// more nodes, drops and duplicates in scope, grace budgeted for
    /// the drop allowance.
    SyncRounds,
}

/// The catalog: every kind beside its stable keyword, in the order
/// campaigns, reports and `--scenario all` walk it. Adding a kind is one
/// row here (plus its defaults and its arm in [`run_case`]).
const CATALOG: [(ScenarioKind, &str); 16] = [
    (ScenarioKind::Heartbeat, "heartbeat"),
    (ScenarioKind::HeartbeatCrash, "heartbeat_crash"),
    (ScenarioKind::HeartbeatRestart, "heartbeat_restart"),
    (ScenarioKind::HeartbeatGray, "heartbeat_gray"),
    (ScenarioKind::HeartbeatBidi, "heartbeat_bidi"),
    (ScenarioKind::Relay, "relay"),
    (ScenarioKind::Partition, "partition"),
    (ScenarioKind::ClockFleet, "clockfleet"),
    (ScenarioKind::ClockFleetLarge, "clockfleet_large"),
    (ScenarioKind::Mutex, "mutex"),
    (ScenarioKind::MutexContended, "mutex_contended"),
    (ScenarioKind::Register, "register"),
    (ScenarioKind::RegisterTriple, "register_triple"),
    (ScenarioKind::Counter, "counter"),
    (ScenarioKind::SyncProbe, "sync_probe"),
    (ScenarioKind::SyncRounds, "sync_rounds"),
];

impl ScenarioKind {
    /// Stable keyword (artifact `scenario` field, CLI `--scenario`).
    #[must_use]
    pub fn name(self) -> &'static str {
        CATALOG
            .iter()
            .find(|(kind, _)| *kind == self)
            .expect("every kind has a CATALOG row")
            .1
    }

    /// Parses a keyword.
    ///
    /// # Errors
    ///
    /// Unknown keyword.
    pub fn from_name(s: &str) -> Result<ScenarioKind, String> {
        CATALOG
            .iter()
            .find(|(_, name)| *name == s)
            .map(|(kind, _)| *kind)
            .ok_or_else(|| format!("unknown scenario {s:?}"))
    }

    /// All scenario kinds, in catalog order.
    #[must_use]
    pub fn all() -> [ScenarioKind; 16] {
        CATALOG.map(|(kind, _)| kind)
    }

    /// Does this kind belong to the heartbeat (timed-model) family?
    #[must_use]
    pub fn is_heartbeat(self) -> bool {
        matches!(
            self,
            ScenarioKind::Heartbeat
                | ScenarioKind::HeartbeatCrash
                | ScenarioKind::HeartbeatRestart
                | ScenarioKind::HeartbeatGray
                | ScenarioKind::HeartbeatBidi
                | ScenarioKind::Relay
                | ScenarioKind::Partition
        )
    }

    /// Does this kind belong to the clock-synchronization family?
    #[must_use]
    pub fn is_sync(self) -> bool {
        matches!(self, ScenarioKind::SyncProbe | ScenarioKind::SyncRounds)
    }
}

/// Everything needed to rebuild a scenario's engine: the config half of a
/// replay artifact (the other half is the plan and the seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// System family.
    pub kind: ScenarioKind,
    /// Node count.
    pub nodes: u32,
    /// Declared minimum delay `d₁`, nanoseconds.
    pub d1_ns: i64,
    /// Declared maximum delay `d₂`, nanoseconds.
    pub d2_ns: i64,
    /// Skew bound `ε`, nanoseconds.
    pub eps_ns: i64,
    /// Run horizon, nanoseconds.
    pub horizon_ns: i64,
    /// Heartbeat/beep period, or the mutex slot width, nanoseconds.
    pub period_ns: i64,
    /// Drop budget per edge (heartbeat family only).
    pub max_drops: u32,
    /// Closed-loop operations per node (register/counter), mutex rounds
    /// per node, or the per-peer probe burst (sync family).
    pub ops_per_node: u32,
    /// Base hardware drift rate in parts per million (sync family):
    /// node `i` drifts at `drift_rates(nodes, drift_ppm)[i]`. Zero for
    /// every other family.
    pub drift_ppm: i64,
    /// Scripted crash time (heartbeat family only), nanoseconds.
    pub crash_at_ns: Option<i64>,
    /// Checkpoint/restore seam time ([`ScenarioKind::HeartbeatRestart`]
    /// only), nanoseconds.
    pub restart_at_ns: Option<i64>,
    /// The planted-bug canary mutating this scenario, if any.
    pub canary: Option<CanaryKind>,
    /// The seeded bug: extra nanoseconds a boundary delay spike is allowed
    /// to overshoot `d₂` by. Zero = correct channel.
    pub bug_extra_ns: i64,
}

impl ScenarioConfig {
    /// The default heartbeat scenario.
    #[must_use]
    pub fn heartbeat_default() -> ScenarioConfig {
        ScenarioConfig::default_for(ScenarioKind::Heartbeat)
    }

    /// The default clock-fleet scenario.
    #[must_use]
    pub fn clockfleet_default() -> ScenarioConfig {
        ScenarioConfig::default_for(ScenarioKind::ClockFleet)
    }

    /// The default register scenario.
    #[must_use]
    pub fn register_default() -> ScenarioConfig {
        ScenarioConfig::default_for(ScenarioKind::Register)
    }

    /// The catalog default for any scenario kind: the plain heartbeat
    /// pair, with what each kind changes.
    #[must_use]
    pub fn default_for(kind: ScenarioKind) -> ScenarioConfig {
        let base = ScenarioConfig {
            kind,
            nodes: 2,
            d1_ns: 1_000_000,
            d2_ns: 4_000_000,
            eps_ns: 0,
            horizon_ns: 300_000_000,
            period_ns: 10_000_000,
            max_drops: 2,
            ops_per_node: 0,
            drift_ppm: 0,
            crash_at_ns: None,
            restart_at_ns: None,
            canary: None,
            bug_extra_ns: 0,
        };
        // The clock-model families run no channels: no delays, no drops.
        let clock_model = ScenarioConfig {
            nodes: 3,
            d1_ns: 0,
            d2_ns: 0,
            eps_ns: 2_000_000,
            max_drops: 0,
            ..base.clone()
        };
        match kind {
            ScenarioKind::Heartbeat | ScenarioKind::HeartbeatGray | ScenarioKind::HeartbeatBidi => {
                base
            }
            ScenarioKind::HeartbeatCrash => ScenarioConfig {
                crash_at_ns: Some(150_000_000),
                ..base
            },
            ScenarioKind::HeartbeatRestart => ScenarioConfig {
                crash_at_ns: Some(150_000_000),
                restart_at_ns: Some(110_000_000),
                ..base
            },
            ScenarioKind::Relay => ScenarioConfig { nodes: 3, ..base },
            ScenarioKind::Partition => ScenarioConfig {
                nodes: 4,
                crash_at_ns: Some(150_000_000),
                ..base
            },
            ScenarioKind::ClockFleet => ScenarioConfig {
                horizon_ns: 250_000_000,
                period_ns: 9_000_000,
                ..clock_model
            },
            ScenarioKind::ClockFleetLarge => ScenarioConfig {
                nodes: 6,
                eps_ns: 3_000_000,
                horizon_ns: 200_000_000,
                period_ns: 7_000_000,
                ..clock_model
            },
            ScenarioKind::Mutex => ScenarioConfig {
                horizon_ns: 200_000_000,
                ops_per_node: 4,
                ..clock_model
            },
            ScenarioKind::MutexContended => ScenarioConfig {
                nodes: 4,
                horizon_ns: 160_000_000,
                period_ns: 8_000_000,
                ops_per_node: 3,
                ..clock_model
            },
            // The register horizon is the liveness bound, and also the
            // window fault plans are drawn over: the closed loop drains in
            // tens of milliseconds, so a tight horizon keeps generated
            // clock skews landing while operations are still racing.
            ScenarioKind::Register => ScenarioConfig {
                eps_ns: 1_000_000,
                horizon_ns: 400_000_000,
                period_ns: 0,
                max_drops: 0,
                ops_per_node: 3,
                ..base
            },
            ScenarioKind::RegisterTriple | ScenarioKind::Counter => ScenarioConfig {
                kind,
                nodes: 3,
                ops_per_node: 2,
                ..ScenarioConfig::default_for(ScenarioKind::Register)
            },
            // Three drifting nodes probing each other over faultable
            // `[1, 3] ms` channels, a 20 ms round, and the same `ε = 2 ms`
            // envelope the clockfleet assumes — which the certified ε̂ must
            // then beat.
            ScenarioKind::SyncProbe => ScenarioConfig {
                nodes: 3,
                d2_ns: 3_000_000,
                eps_ns: 2_000_000,
                period_ns: 20_000_000,
                max_drops: 0,
                ops_per_node: 2,
                drift_ppm: 200,
                ..base
            },
            ScenarioKind::SyncRounds => ScenarioConfig {
                kind,
                nodes: 4,
                max_drops: 2,
                ..ScenarioConfig::default_for(ScenarioKind::SyncProbe)
            },
        }
    }

    /// The same scenario with the late-delivery bug planted: a delay
    /// spike requesting exactly `d₂` is let through at `d₂ + extra_ns`.
    #[must_use]
    pub fn with_bug(mut self, extra_ns: i64) -> ScenarioConfig {
        assert!(extra_ns > 0, "the bug must overshoot by at least one tick");
        self.bug_extra_ns = extra_ns;
        self
    }

    /// The admissibility envelope this scenario grants to fault plans.
    #[must_use]
    pub fn envelope(&self) -> FaultEnvelope {
        let beats = u32::try_from(self.horizon_ns / self.period_ns.max(1))
            .unwrap_or(u32::MAX)
            .saturating_add(1);
        let (allow_clock, allow_drop, allow_dup, allow_spike, edges, max_seq) = match self.kind {
            kind if kind.is_heartbeat() => (false, true, true, true, hb_shape(kind).edges, beats),
            ScenarioKind::ClockFleet
            | ScenarioKind::ClockFleetLarge
            | ScenarioKind::Mutex
            | ScenarioKind::MutexContended => (true, false, false, false, vec![], 0),
            // Sync nodes run *drifting* clocks, not plan-scripted ones, so
            // clock faults are out of scope; the adversary owns the
            // channels instead. Drops and duplicates are granted only to
            // the fault-resistant rounds variant — the plain probe
            // scenario's grace budget does not tolerate losses. Each
            // node's shared id counter covers its probes *and* echoes: per
            // round, `burst` probes to each peer plus up to as many echoes
            // back.
            ScenarioKind::SyncProbe | ScenarioKind::SyncRounds => {
                let lossy = self.kind == ScenarioKind::SyncRounds;
                let per_round =
                    (2 * self.ops_per_node).saturating_mul(self.nodes.saturating_sub(1));
                let edges = complete_edges(self.nodes);
                (
                    false,
                    lossy,
                    lossy,
                    true,
                    edges,
                    beats.saturating_mul(per_round),
                )
            }
            // Clock channels (`build_dc`) expose a delay policy but not
            // drops/duplicates; the paper's reliable-channel model stands,
            // so only spikes and clock faults are in scope.
            _ => {
                let max_seq = self.ops_per_node.saturating_mul(2).saturating_add(2);
                (
                    true,
                    false,
                    false,
                    true,
                    complete_edges(self.nodes),
                    max_seq,
                )
            }
        };
        FaultEnvelope {
            nodes: self.nodes,
            eps_ns: self.eps_ns,
            d1_ns: self.d1_ns,
            d2_ns: self.d2_ns,
            horizon_ns: self.horizon_ns,
            edges,
            max_seq,
            max_drops: self.max_drops,
            allow_clock,
            allow_drop,
            allow_dup,
            allow_spike,
        }
    }

    /// Range-checks a config that came from outside the program (a replay
    /// artifact): what the factories would otherwise assert, divide by,
    /// index with or overflow on.
    ///
    /// # Errors
    ///
    /// The first condition found broken.
    pub fn validate(&self) -> Result<(), String> {
        /// One hour, and a count that keeps a time × count product in `i64`.
        const MAX_NS: i64 = 3_600_000_000_000;
        const MAX_COUNT: i64 = 1_000_000;
        let need = |ok: bool, what: &str| {
            ok.then_some(())
                .ok_or_else(|| format!("scenario config out of range: need {what}"))
        };
        for (field, value, max) in [
            ("d1_ns", self.d1_ns, MAX_NS),
            ("d2_ns", self.d2_ns, MAX_NS),
            ("eps_ns", self.eps_ns, MAX_NS),
            ("horizon_ns", self.horizon_ns, MAX_NS),
            ("period_ns", self.period_ns, MAX_NS),
            ("bug_extra_ns", self.bug_extra_ns, MAX_NS),
            ("crash_at_ns", self.crash_at_ns.unwrap_or(0), MAX_NS),
            ("restart_at_ns", self.restart_at_ns.unwrap_or(0), MAX_NS),
            ("max_drops", i64::from(self.max_drops), MAX_COUNT),
            ("ops_per_node", i64::from(self.ops_per_node), MAX_COUNT),
            ("drift_ppm", self.drift_ppm, MAX_COUNT),
        ] {
            need(
                (0..=max).contains(&value),
                &format!("0 <= {field} <= {max}"),
            )?;
        }
        need(self.d1_ns <= self.d2_ns, "d1_ns <= d2_ns")?;
        need(self.horizon_ns > 0, "horizon_ns > 0")?;
        // Per family: the node count its topology indexes, and whether a
        // beater, beeper, slot or round runs off `period_ns` (`D_C`'s
        // closed loop paces itself).
        let (nodes_ok, periodic) = match self.kind {
            kind if kind.is_heartbeat() => (self.nodes == hb_shape(kind).nodes(), true),
            ScenarioKind::ClockFleet | ScenarioKind::ClockFleetLarge => (self.nodes >= 1, true),
            ScenarioKind::Mutex | ScenarioKind::MutexContended => {
                need(
                    self.period_ns > 2 * self.eps_ns,
                    "period_ns > 2 * eps_ns (a slot wider than its guards)",
                )?;
                (self.nodes >= 1, true)
            }
            ScenarioKind::SyncProbe | ScenarioKind::SyncRounds => {
                need(self.eps_ns > 0, "eps_ns > 0")?;
                need(
                    self.ops_per_node >= 1,
                    "ops_per_node >= 1 (the probe burst)",
                )?;
                need(
                    ns(self.period_ns) > sync_params(self, 0).timeout(),
                    "period_ns above the certification timeout 2*d2 + 4*eps + 1 ms",
                )?;
                (self.nodes >= 2, true)
            }
            _ => (self.nodes >= 2, false),
        };
        need(
            nodes_ok && self.nodes <= MAX_NODES,
            &format!("a node count the kind's topology admits (at most {MAX_NODES})"),
        )?;
        need(!periodic || self.period_ns > 0, "period_ns > 0")
    }

    /// The declared delay bounds `[d₁, d₂]`.
    #[must_use]
    pub fn bounds(&self) -> DelayBounds {
        DelayBounds::new(ns(self.d1_ns), ns(self.d2_ns)).expect("config bounds are ordered")
    }

    /// Monitor parameters budgeted for the plan envelope: the timeout
    /// tolerates `max_drops` consecutive losses plus full delay jitter,
    /// so any false suspicion is a real bug, not a mistuned test.
    #[must_use]
    pub fn fd_params(&self) -> FdParams {
        let period = ns(self.period_ns);
        let jitter = ns(self.d2_ns - self.d1_ns);
        let slack = Duration::from_millis(2);
        FdParams {
            period,
            timeout: period * (i64::from(self.max_drops) + 1) + jitter + slack,
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::str(self.kind.name())),
            ("nodes", Json::num(self.nodes)),
            ("d1_ns", Json::num(self.d1_ns)),
            ("d2_ns", Json::num(self.d2_ns)),
            ("eps_ns", Json::num(self.eps_ns)),
            ("horizon_ns", Json::num(self.horizon_ns)),
            ("period_ns", Json::num(self.period_ns)),
            ("max_drops", Json::num(self.max_drops)),
            ("ops_per_node", Json::num(self.ops_per_node)),
            ("drift_ppm", Json::num(self.drift_ppm)),
            (
                "crash_at_ns",
                self.crash_at_ns.map_or(Json::Null, Json::num),
            ),
            (
                "restart_at_ns",
                self.restart_at_ns.map_or(Json::Null, Json::num),
            ),
            (
                "canary",
                self.canary.map_or(Json::Null, |c| Json::str(c.name())),
            ),
            ("bug_extra_ns", Json::num(self.bug_extra_ns)),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<ScenarioConfig, String> {
        let i64_field = |name: &str| -> Result<i64, String> {
            v.get(name)
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("config missing {name}"))
        };
        let u32_field = |name: &str| -> Result<u32, String> {
            v.get(name)
                .and_then(Json::as_u32)
                .ok_or_else(|| format!("config missing {name}"))
        };
        // New fields are nullable *and* optional, so pre-catalog artifacts
        // (version 1, no restart/canary keys) stay replayable.
        let opt_i64 = |name: &str| -> Result<Option<i64>, String> {
            match v.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(t) => Ok(Some(t.as_i64().ok_or(format!("bad {name}"))?)),
            }
        };
        Ok(ScenarioConfig {
            kind: ScenarioKind::from_name(
                v.get("kind")
                    .and_then(Json::as_str)
                    .ok_or("config missing kind")?,
            )?,
            nodes: u32_field("nodes")?,
            d1_ns: i64_field("d1_ns")?,
            d2_ns: i64_field("d2_ns")?,
            eps_ns: i64_field("eps_ns")?,
            horizon_ns: i64_field("horizon_ns")?,
            period_ns: i64_field("period_ns")?,
            max_drops: u32_field("max_drops")?,
            ops_per_node: u32_field("ops_per_node")?,
            // Pre-sync artifacts carry no drift; missing means zero.
            drift_ppm: opt_i64("drift_ppm")?.unwrap_or(0),
            crash_at_ns: opt_i64("crash_at_ns")?,
            restart_at_ns: opt_i64("restart_at_ns")?,
            canary: match v.get("canary") {
                None | Some(Json::Null) => None,
                Some(t) => Some(CanaryKind::from_name(t.as_str().ok_or("bad canary")?)?),
            },
            bug_extra_ns: i64_field("bug_extra_ns")?,
        })
    }
}

/// The judged result of one case: what the oracles said, a fingerprint of
/// the recorded execution for replay-identity checks, and the metrics the
/// attached observers collected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseOutcome {
    /// `(oracle name, violation)` pairs; empty = the run passed.
    pub violations: Vec<(String, String)>,
    /// Recorded event count.
    pub events: usize,
    /// Clock-script requests the C1–C4 guard clamped (attempted backward
    /// jumps / over-ε readings that were rejected at run time).
    pub rejected_clock_requests: u64,
    /// Order-sensitive hash of `(action, now, clock)` over all events.
    pub fingerprint: u64,
    /// Observer metrics of the run (deterministic: replaying the case
    /// reproduces this snapshot bit-for-bit, `==` included).
    pub metrics: MetricsSnapshot,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-sensitive fingerprint of a recorded execution.
#[must_use]
pub fn fingerprint<A: Action>(exec: &Execution<A>) -> u64 {
    let mut h = 0xC1A5_51C0_DE00_0001u64;
    for e in exec.events() {
        let line = format!("{:?}@{}@{:?}", e.action, e.now.as_nanos(), e.clock);
        for b in line.bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h = splitmix64(h);
    }
    h
}

const CASE_MAX_EVENTS: usize = 250_000;

/// The widest topology a config may ask for: complete graphs cost `n²`
/// channels, and the counter's payloads are `10^node`.
const MAX_NODES: u32 = 16;

/// [`run_scenario`]'s result: the raw engine run (or its error), the
/// oracles' `(name, violation)` verdicts, the number of clock-script
/// requests the C1–C4 guard clamped (always 0 for the timed-model
/// scenario), and the metrics collected by the attached observers.
#[derive(Debug)]
pub struct Judged<A: Action> {
    /// The engine run, or the engine error rendered as a string.
    pub run: Result<Run<A>, String>,
    /// `(oracle name, violation)` pairs; empty = the run passed.
    pub violations: Vec<(String, String)>,
    /// Clock-script requests the C1–C4 guard clamped.
    pub rejected_clock_requests: u64,
    /// Observer metrics of the run.
    pub metrics: MetricsSnapshot,
}

/// Collapses a typed result into the kind-erased [`CaseOutcome`] the
/// exploration loop stores and compares.
impl<A: Action> From<Judged<A>> for CaseOutcome {
    fn from(judged: Judged<A>) -> CaseOutcome {
        let (events, fingerprint) = match &judged.run {
            Ok(r) => (r.execution.len(), fingerprint(&r.execution)),
            Err(_) => (0, 0),
        };
        CaseOutcome {
            violations: judged.violations,
            events,
            rejected_clock_requests: judged.rejected_clock_requests,
            fingerprint,
            metrics: judged.metrics,
        }
    }
}

/// What a family hands [`run_scenario`] to run: the system's components
/// on a builder, plus what observes and counts the run from outside the
/// engine.
pub struct CaseParts<A: Action> {
    /// Every component of the system under test. The runner adds the
    /// engine observer, the scheduler, the horizon and the event cap.
    pub builder: EngineBuilder<A>,
    /// The case's metrics. A family attaches what only it can (the
    /// per-channel delay observer exists for `SysAction` systems alone).
    pub hub: MetricsHub,
    /// The fault channels' counters, one per edge, in wiring order.
    pub fault_stats: Vec<FaultStats>,
    /// Scripted-clock rejection handles, one per plan-scripted clock.
    pub rejections: Vec<Rc<Cell<u64>>>,
}

impl<A: Action> CaseParts<A> {
    /// Parts with a fresh hub and no outside counters.
    #[must_use]
    pub fn new(builder: EngineBuilder<A>) -> Self {
        CaseParts {
            builder,
            hub: MetricsHub::new(),
            fault_stats: Vec::new(),
            rejections: Vec::new(),
        }
    }
}

/// One scenario family: how its system is built from the contents of a
/// replay artifact, and which oracles judge a run of it. Every item is a
/// pure function of `(config, plan, seed)`; [`run_scenario`] is the one
/// pipeline that runs a family, so a new family is this impl, its
/// `CATALOG` rows and its arm in [`run_case`].
pub trait Scenario {
    /// The system's action alphabet.
    type Action: Action + Send + Sync;

    /// The run must go quiescent before the horizon (a closed-loop
    /// workload that has to drain); if it does not, the case reports a
    /// `liveness` violation ahead of the oracles' verdicts.
    const MUST_DRAIN: bool = false;

    /// Decorrelates the tie-breaking scheduler's stream from a family's
    /// other users of the case seed.
    const SCHEDULER_SALT: u64 = 0;

    /// The system under test.
    fn parts(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> CaseParts<Self::Action>;

    /// The properties with an incremental form, written once: fed by an
    /// [`OnlineJudge`] while the case runs, or folded over the recorded
    /// execution afterwards. Their verdicts come first.
    fn stream_oracles(
        _cfg: &ScenarioConfig,
        _plan: &FaultPlan,
    ) -> Vec<Box<dyn StreamOracle<Self::Action>>> {
        Vec::new()
    }

    /// The whole-execution oracles (linearizability, `C_ε`, Lemma 2.1
    /// replays, …), judged post-hoc only.
    fn oracles(cfg: &ScenarioConfig, seed: u64) -> Vec<Box<dyn Oracle<Self::Action>>>;

    /// Publishes what the family measures on a finished run into `hub`.
    fn publish(_cfg: &ScenarioConfig, _exec: &Execution<Self::Action>, _hub: &MetricsHub) {}
}

/// A case's engine plus the observation handles the post-run accounting
/// needs. The engine observer is attached with checkpoint counters
/// suppressed, so a run across the restart seam has metrics bit-identical
/// to a straight run's.
pub(crate) struct BuiltCase<A: Action> {
    pub(crate) engine: Engine<A>,
    pub(crate) hub: MetricsHub,
    fault_stats: Vec<FaultStats>,
    rejections: Vec<Rc<Cell<u64>>>,
}

/// Builds a family's case engine (without running it): its parts, the
/// engine observer, optionally an [`OnlineJudge`]'s observer — read-only
/// like every other observer, so attaching it never changes the produced
/// execution — then the plan's scheduler, the horizon and the event cap.
pub(crate) fn assemble<S: Scenario>(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    judge: Option<&OnlineJudge<S::Action>>,
) -> BuiltCase<S::Action> {
    let parts = S::parts(cfg, plan, seed);
    let mut builder = parts
        .builder
        .observer(parts.hub.engine_observer().without_checkpoint_counters());
    if let Some(judge) = judge {
        builder = builder.observer(judge.observer());
    }
    let engine = builder
        .scheduler(BiasedScheduler::new(plan, seed ^ S::SCHEDULER_SALT))
        .horizon(at_ns(cfg.horizon_ns))
        .max_events(CASE_MAX_EVENTS)
        .build();
    BuiltCase {
        engine,
        hub: parts.hub,
        fault_stats: parts.fault_stats,
        rejections: parts.rejections,
    }
}

/// Runs one case of family `S` and judges it — the one pipeline every
/// kind takes: build, drive, judge, account.
///
/// *Drive.* Straight to the horizon; or, where the config carries a
/// `restart_at_ns` seam, to the seam, through [`Engine::checkpoint`] into
/// a freshly built engine, and on to the horizon — by Lemma 2.1 (pasting)
/// the recorded execution, and therefore every verdict and the
/// fingerprint, is bit-identical to an uninterrupted run, and so are the
/// metrics when the seam is an instant the run stops at anyway (the
/// catalog's is a heartbeat tick); or, where `online` is set, the family
/// has stream oracles and there is no seam, in `ONLINE_CHUNK`-event steps
/// under an [`OnlineJudge`], stopping the moment a violation is certain.
/// Every other `online` case is judged post-hoc: this is where the
/// fallback lives.
///
/// *Judge.* A short-circuited case reports its one certain violation
/// (and bumps `monitor.short_circuits`); an online case that reaches its
/// natural stop reports the stream verdicts. A post-hoc case folds the
/// same stream oracles over the recorded slice, then checks the
/// whole-execution oracles, and a [`Scenario::MUST_DRAIN`] family's
/// `liveness` verdict goes in front. An engine error is the single
/// `engine` violation.
///
/// *Account.* The judging work (`monitor.checks`, `monitor.violations`),
/// the fault-channel counters and the clamped clock requests go into the
/// case's hub, whose snapshot — ordered by name — is the case's metrics.
pub fn run_scenario<S: Scenario>(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    online: bool,
) -> Judged<S::Action> {
    let mut streams = S::stream_oracles(cfg, plan);
    let stream_checks = streams.len() as u64;
    let judge = (online && cfg.restart_at_ns.is_none() && !streams.is_empty())
        .then(|| OnlineJudge::new(std::mem::take(&mut streams)));
    let mut case = assemble::<S>(cfg, plan, seed, judge.as_ref());

    let driven = if let Some(judge) = &judge {
        let mut pause_at = ONLINE_CHUNK;
        loop {
            match case.engine.run_until_events(pause_at) {
                Ok(run) if run.stop == StopReason::Paused && judge.certain().is_none() => {
                    pause_at = run.execution.len() + ONLINE_CHUNK;
                }
                stopped => break stopped,
            }
        }
    } else if let Some(seam) = cfg.restart_at_ns {
        match case.engine.run_until(at_ns(seam)) {
            Ok(reached) if reached.stop == StopReason::Horizon => {
                // The "restarted process": a fresh engine built from the
                // same artifact inputs, with the snapshot — and the
                // counters that live outside the engine — poured back in.
                // restore() also restores the captured horizon (the
                // seam), so the final horizon is re-armed explicitly.
                let mut before = case;
                case = assemble::<S>(cfg, plan, seed, None);
                case.engine.restore(&before.engine.checkpoint());
                case.hub.restore(&before.hub.snapshot());
                for (stats, old) in case.fault_stats.iter().zip(&before.fault_stats) {
                    stats.set_values(old.values());
                }
                for (count, old) in case.rejections.iter().zip(&before.rejections) {
                    count.set(old.get());
                }
                case.engine.run_until(at_ns(cfg.horizon_ns))
            }
            // Stopped before the seam (quiescent or capped): nothing to
            // restart; judge what was recorded.
            stopped_early => stopped_early,
        }
    } else {
        case.engine.run()
    };
    let run = driven.map_err(|e| e.to_string());

    let mut violations = Vec::new();
    match &run {
        Err(e) => violations.push(("engine".to_string(), e.clone())),
        Ok(run) => {
            S::publish(cfg, &run.execution, &case.hub);
            match &judge {
                Some(judge) if run.stop == StopReason::Paused => {
                    case.hub.add("monitor.short_circuits", 1);
                    violations.push(
                        judge
                            .certain()
                            .expect("the online driver only pauses on a certain violation"),
                    );
                }
                Some(judge) => violations = judge.finish(at_ns(cfg.horizon_ns)),
                None => {
                    for stream in &mut streams {
                        if let Verdict::Violated(why) = fold(&mut **stream, &run.execution) {
                            violations.push((stream.name(), why));
                        }
                    }
                }
            }
            case.hub.add("monitor.checks", stream_checks);
            case.hub.add("monitor.violations", violations.len() as u64);
            if judge.is_none() {
                let (whole, judging) = check_all_sharded(&S::oracles(cfg, seed), &run.execution, 1);
                violations.extend(whole);
                case.hub.absorb(&judging);
                if S::MUST_DRAIN && run.stop != StopReason::Quiescent {
                    let why = format!("workload did not finish by the horizon ({:?})", run.stop);
                    violations.insert(0, ("liveness".to_string(), why));
                }
            }
        }
    }

    for stats in &case.fault_stats {
        case.hub.add("channel.sends", stats.sends());
        case.hub.add("channel.delivered", stats.delivered());
        case.hub.add("channel.dropped", stats.dropped());
        case.hub.add("channel.duplicated", stats.duplicated());
        case.hub.add("channel.spiked", stats.spiked());
    }
    let rejected: u64 = case.rejections.iter().map(|h| h.get()).sum();
    if !case.rejections.is_empty() {
        case.hub.add("clock.rejected_requests", rejected);
    }
    Judged {
        run,
        violations,
        rejected_clock_requests: rejected,
        metrics: case.hub.snapshot(),
    }
}

/// One Lemma 2.1 replay oracle: `replay` re-runs a rebuilt component
/// against the recorded execution (`replay_timed` / `replay_clock`), and
/// a divergence is reported under `failed`.
fn replay_oracle<A: Action>(
    name: impl Into<String>,
    failed: &'static str,
    replay: impl Fn(&Execution<A>) -> Result<usize, ReplayError> + Send + Sync + 'static,
) -> Box<dyn Oracle<A>> {
    Box::new(FnOracle::new(
        name,
        move |exec: &Execution<A>| match replay(exec) {
            Ok(_) => Verdict::Holds,
            Err(e) => Verdict::violated(format!("{failed}: {e}")),
        },
    ))
}

const TIMED_REPLAY_FAILED: &str = "Lemma 2.1 replay failed";
const CLOCK_REPLAY_FAILED: &str = "Lemma 2.1 clock replay failed";

/// Every directed pair of `0..n`, the edge set of a complete graph.
fn complete_edges(n: u32) -> Vec<(u32, u32)> {
    (0..n)
        .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
        .collect()
}

/// Wires one plan-driven [`FaultChannel`] per edge onto `builder`, each
/// fault first passed through `adjust`: parts whose hub records
/// per-channel delivery delays and whose `fault_stats` are the channels'
/// counters in edge order. The seeded bug widens the channels' *internal*
/// bounds so the stretch passes the channel's own assert; the oracles
/// keep judging against the declared envelope, which is exactly how they
/// catch it.
fn plan_channels<M, O>(
    builder: EngineBuilder<SysAction<M, O>>,
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    edges: &[(u32, u32)],
    adjust: impl Fn(PlanChannelFault) -> PlanChannelFault,
) -> CaseParts<SysAction<M, O>>
where
    M: Clone + Eq + Hash + Debug + 'static,
    O: Action,
{
    let declared = cfg.bounds();
    let bug = ns(cfg.bug_extra_ns);
    let actual = DelayBounds::new(declared.min(), declared.max() + bug)
        .expect("widened bounds stay ordered");
    let mut parts = CaseParts::new(builder);
    for &(src, dst) in edges {
        let fault = adjust(PlanChannelFault::new(plan, src, dst, seed, declared, bug));
        let channel = FaultChannel::<M, O>::new(
            NodeId(src as usize),
            NodeId(dst as usize),
            actual,
            MaxDelay,
            fault,
        );
        parts.fault_stats.push(channel.stats());
        parts.builder = parts.builder.timed(channel);
    }
    parts.builder = parts.builder.observer(parts.hub.channel_delay_observer());
    parts
}

/// Topology of one heartbeat-family scenario: which channels exist, who
/// beats toward whom, who monitors whom, whether node 1 relays, and who
/// a scripted crash hits.
pub(crate) struct HbShape {
    /// Faultable channels, as `(src, dst)` edges.
    pub(crate) edges: Vec<(u32, u32)>,
    /// Heartbeaters, as `(node, monitor)` pairs.
    pub(crate) beaters: Vec<(u32, u32)>,
    /// Monitors, as `(node, target)` pairs.
    pub(crate) monitors: Vec<(u32, u32)>,
    /// The deduplicating relay, as `(me, to)`.
    pub(crate) relay: Option<(u32, u32)>,
    /// Which node a scripted crash (if the config has one) hits.
    pub(crate) crash_node: u32,
}

impl HbShape {
    /// The node count the topology spans.
    fn nodes(&self) -> u32 {
        1 + self.edges.iter().map(|&(s, d)| s.max(d)).max().unwrap_or(0)
    }
}

pub(crate) fn hb_shape(kind: ScenarioKind) -> HbShape {
    match kind {
        ScenarioKind::Heartbeat
        | ScenarioKind::HeartbeatCrash
        | ScenarioKind::HeartbeatRestart
        | ScenarioKind::HeartbeatGray => HbShape {
            edges: vec![(0, 1)],
            beaters: vec![(0, 1)],
            monitors: vec![(1, 0)],
            relay: None,
            crash_node: 0,
        },
        ScenarioKind::HeartbeatBidi => HbShape {
            edges: vec![(0, 1), (1, 0)],
            beaters: vec![(0, 1), (1, 0)],
            monitors: vec![(1, 0), (0, 1)],
            relay: None,
            crash_node: 0,
        },
        ScenarioKind::Relay => HbShape {
            edges: vec![(0, 1), (1, 2)],
            beaters: vec![(0, 1)],
            monitors: vec![(2, 1)],
            relay: Some((1, 2)),
            crash_node: 0,
        },
        ScenarioKind::Partition => HbShape {
            edges: vec![(0, 1), (2, 3)],
            beaters: vec![(0, 1), (2, 3)],
            monitors: vec![(1, 0), (3, 2)],
            relay: None,
            crash_node: 2,
        },
        _ => unreachable!("hb_shape called on a non-heartbeat kind"),
    }
}

/// Monitor parameters actually deployed: the drop budget doubles behind
/// a relay (each hop may drop `max_drops`), and the
/// [`CanaryKind::FdTimeoutUnderbudget`] canary plants the classic bug of
/// budgeting for jitter but not for drops.
pub(crate) fn monitor_params(cfg: &ScenarioConfig, relayed: bool) -> FdParams {
    let period = ns(cfg.period_ns);
    let jitter = ns(cfg.d2_ns - cfg.d1_ns);
    let slack = Duration::from_millis(2);
    if cfg.canary == Some(CanaryKind::FdTimeoutUnderbudget) {
        return FdParams {
            period,
            timeout: period + jitter + slack,
        };
    }
    if relayed {
        FdParams {
            period,
            timeout: period * (2 * i64::from(cfg.max_drops) + 1) + jitter * 2 + slack,
        }
    } else {
        cfg.fd_params()
    }
}

/// The relay's scripted stall window (nanoseconds), used by the
/// [`CanaryKind::RelayLifoHeal`] canary: heartbeats arriving inside the
/// window are buffered until it closes, then flushed LIFO.
const RELAY_STALL_NS: (i64, i64) = (95_000_000, 130_000_000);

/// State of a [`HeartbeatRelay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayState {
    /// Sequence numbers ever received (the dedup filter).
    seen: Vec<u32>,
    /// Buffered sequence numbers with their earliest forward time.
    pending: Vec<(u32, Time)>,
}

/// A store-and-forward heartbeat relay: deduplicates incoming heartbeats
/// and forwards each exactly once (re-stamped with its own source id).
/// With a stall window configured, arrivals inside the window are held
/// until it closes and then flushed newest-first — the planted LIFO-heal
/// bug the per-edge FIFO oracle must catch.
#[derive(Debug, Clone)]
pub struct HeartbeatRelay {
    me: NodeId,
    to: NodeId,
    stall: Option<(Time, Time)>,
}

impl HeartbeatRelay {
    /// A healthy relay forwarding from `me` to `to`.
    #[must_use]
    pub fn new(me: NodeId, to: NodeId) -> Self {
        HeartbeatRelay {
            me,
            to,
            stall: None,
        }
    }

    /// Plants the LIFO-heal bug: arrivals in `[from, until)` are buffered
    /// until `until` and flushed newest-first.
    #[must_use]
    pub fn with_lifo_stall(mut self, from: Time, until: Time) -> Self {
        assert!(from < until, "stall window must be non-empty");
        self.stall = Some((from, until));
        self
    }

    fn env_for(&self, seq: u32) -> Envelope<Heartbeat> {
        Envelope {
            src: self.me,
            dst: self.to,
            id: MsgId::from_parts(self.me, seq),
            payload: Heartbeat { seq },
        }
    }

    /// The sequence number forwarded next: among ready entries, the
    /// oldest — or the newest when the stall bug is planted.
    fn choice(&self, s: &RelayState, now: Time) -> Option<u32> {
        let mut ready = s.pending.iter().filter(|(_, at)| *at <= now);
        if self.stall.is_some() {
            ready.next_back().map(|(seq, _)| *seq)
        } else {
            ready.next().map(|(seq, _)| *seq)
        }
    }
}

impl TimedComponent for HeartbeatRelay {
    type Action = FdAction;
    type State = RelayState;

    fn name(&self) -> String {
        format!("relay({}->{})", self.me, self.to)
    }

    fn initial(&self) -> RelayState {
        RelayState {
            seen: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn classify(&self, a: &FdAction) -> Option<ActionKind> {
        match a {
            SysAction::Recv(env) if env.dst == self.me => Some(ActionKind::Input),
            SysAction::Send(env) if env.src == self.me => Some(ActionKind::Output),
            _ => None,
        }
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        Some(vec!["RECVMSG", "SENDMSG"])
    }

    fn step(&self, s: &RelayState, a: &FdAction, now: Time) -> Option<RelayState> {
        match a {
            SysAction::Recv(env) if env.dst == self.me => {
                let seq = seq_of(env.id);
                let mut next = s.clone();
                if !next.seen.contains(&seq) {
                    next.seen.push(seq);
                    let ready = match self.stall {
                        Some((from, until)) if now >= from && now < until => until,
                        _ => now,
                    };
                    next.pending.push((seq, ready));
                }
                Some(next)
            }
            SysAction::Send(env) if env.src == self.me => {
                let seq = seq_of(env.id);
                if self.choice(s, now) != Some(seq) || *env != self.env_for(seq) {
                    return None;
                }
                let mut next = s.clone();
                next.pending.retain(|(q, _)| *q != seq);
                Some(next)
            }
            _ => None,
        }
    }

    fn enabled(&self, s: &RelayState, now: Time) -> Vec<FdAction> {
        match self.choice(s, now) {
            Some(seq) => vec![SysAction::Send(self.env_for(seq))],
            None => Vec::new(),
        }
    }

    fn deadline(&self, s: &RelayState, _now: Time) -> Option<Time> {
        s.pending.iter().map(|(_, at)| *at).min()
    }
}

/// The heartbeaters, relay and monitors a config deploys — and its
/// Lemma 2.1 replays rebuild — each beside the node it runs on.
type HbComponents = (
    Vec<(u32, Heartbeater)>,
    Option<HeartbeatRelay>,
    Vec<(u32, Monitor)>,
);

fn hb_components(cfg: &ScenarioConfig, shape: &HbShape) -> HbComponents {
    let node = |i: u32| NodeId(i as usize);
    let period = ns(cfg.period_ns);
    let params = monitor_params(cfg, shape.relay.is_some());
    (
        shape
            .beaters
            .iter()
            .map(|&(src, dst)| (src, Heartbeater::new(node(src), node(dst), period)))
            .collect(),
        shape.relay.map(|(me, to)| {
            let relay = HeartbeatRelay::new(node(me), node(to));
            if cfg.canary == Some(CanaryKind::RelayLifoHeal) {
                relay.with_lifo_stall(at_ns(RELAY_STALL_NS.0), at_ns(RELAY_STALL_NS.1))
            } else {
                relay
            }
        }),
        shape
            .monitors
            .iter()
            .map(|&(me, target)| (me, Monitor::new(node(me), node(target), params)))
            .collect(),
    )
}

/// The heartbeat family — the timed model: heartbeaters, plan-driven
/// [`FaultChannel`]s, monitors, and (optionally) scripted crashes, in the
/// topology `hb_shape` gives the kind. Variants add a crash
/// ([`ScenarioKind::HeartbeatCrash`]), a crash-recovery seam replayed
/// through `Engine::checkpoint`/`restore`
/// ([`ScenarioKind::HeartbeatRestart`], Lemma 2.1 as an executable test),
/// an intermittently slow gray channel ([`ScenarioKind::HeartbeatGray`]),
/// a symmetric two-way pair ([`ScenarioKind::HeartbeatBidi`]), a
/// three-node relay line ([`ScenarioKind::Relay`]), and a partitioned
/// four-node topology ([`ScenarioKind::Partition`]).
pub struct HeartbeatFamily;

impl Scenario for HeartbeatFamily {
    type Action = FdAction;

    fn parts(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> CaseParts<FdAction> {
        let shape = hb_shape(cfg.kind);
        let (beaters, relay, monitors) = hb_components(cfg, &shape);
        let mut builder = Engine::builder();
        for (_, beater) in beaters {
            builder = builder.timed(beater);
        }
        if let Some(relay) = relay {
            builder = builder.timed(relay);
        }
        let period = ns(cfg.period_ns);
        let mut parts = plan_channels(builder, cfg, plan, seed, &shape.edges, |mut fault| {
            if cfg.kind == ScenarioKind::HeartbeatGray {
                fault = fault.with_gray_windows(period * 4, period * 2);
            }
            if cfg.canary == Some(CanaryKind::DuplicateDelivery) {
                fault = fault.with_duplicate_all();
            }
            fault
        });
        for (_, monitor) in monitors {
            parts.builder = parts.builder.timed(monitor);
        }
        if let Some(crash) = cfg.crash_at_ns {
            parts.builder = parts.builder.timed(Script::<Heartbeat, FdOp>::new(
                [(
                    at_ns(crash),
                    FdOp::Crash {
                        node: NodeId(shape.crash_node as usize),
                    },
                )],
                |_| false,
            ));
        }
        parts
    }

    /// The `[d₁, d₂]` delivery envelope, per-edge FIFO order, and
    /// per-pair failure-detector accuracy and completeness (hop-aware
    /// detection bounds).
    fn stream_oracles(
        cfg: &ScenarioConfig,
        plan: &FaultPlan,
    ) -> Vec<Box<dyn StreamOracle<FdAction>>> {
        heartbeat_stream_oracles(cfg, plan)
    }

    /// Lemma 2.1 replays of every monitor, heartbeater and the relay.
    fn oracles(cfg: &ScenarioConfig, _seed: u64) -> Vec<Box<dyn Oracle<FdAction>>> {
        fn replayed<C>(name: String, component: C) -> Box<dyn Oracle<FdAction>>
        where
            C: TimedComponent<Action = FdAction> + Clone + Send + Sync + 'static,
        {
            replay_oracle(name, TIMED_REPLAY_FAILED, move |exec| {
                replay_timed(component.clone(), exec)
            })
        }
        let (beaters, relay, monitors) = hb_components(cfg, &hb_shape(cfg.kind));
        let monitors = monitors
            .into_iter()
            .map(|(node, monitor)| replayed(format!("replay(monitor {node})"), monitor));
        let beaters = beaters
            .into_iter()
            .map(|(node, beater)| replayed(format!("replay(heartbeater {node})"), beater));
        let relay = relay.map(|relay| replayed("replay(relay)".to_string(), relay));
        monitors.chain(beaters).chain(relay).collect()
    }
}

/// Per-node beep period of the clock fleet (staggered so the fleet's
/// interleavings are non-trivial).
fn fleet_period(cfg: &ScenarioConfig, node: u32) -> Duration {
    ns(cfg.period_ns + i64::from(node) * 1_000_000)
}

/// Per-node clock monotonicity and exact clock-time cadence: beep k of
/// node i must carry clock reading (k+1)·period_i even under scripted
/// skew — the deadline clamp in the C1–C4 guard guarantees it.
fn check_cadence(exec: &Execution<BeepAction>, periods: &[(u32, Duration)]) -> Verdict {
    for (node, period) in periods {
        let mut last: Option<Time> = None;
        let mut expected_seq = 0u64;
        for (i, e) in exec.events().iter().enumerate() {
            let BeepAction::Beep { src, seq } = &e.action;
            if src != node {
                continue;
            }
            let clock = match e.clock {
                Some(c) => c,
                None => {
                    return Verdict::violated(format!(
                        "event {i}: beep of node {node} recorded without a clock reading"
                    ))
                }
            };
            if let Some(prev) = last {
                if clock <= prev {
                    return Verdict::violated(format!(
                        "event {i}: node {node} clock moved {prev} → {clock} (C3 broken)"
                    ));
                }
            }
            last = Some(clock);
            if *seq != expected_seq {
                return Verdict::violated(format!(
                    "event {i}: node {node} beeped seq {seq}, expected {expected_seq}"
                ));
            }
            expected_seq += 1;
            let due = Time::ZERO + *period * (*seq as i64 + 1);
            if clock != due {
                return Verdict::violated(format!(
                    "event {i}: node {node} beep {seq} at clock {clock}, expected {due}"
                ));
            }
        }
    }
    Verdict::Holds
}

/// The clockfleet family — the clock model in isolation: `n` clock nodes
/// with plan-scripted clocks driving periodic clock-time beepers.
pub struct ClockFleetFamily;

impl Scenario for ClockFleetFamily {
    type Action = BeepAction;

    fn parts(cfg: &ScenarioConfig, plan: &FaultPlan, _seed: u64) -> CaseParts<BeepAction> {
        let eps = ns(cfg.eps_ns);
        let mut builder = Engine::builder();
        let mut rejections = Vec::new();
        for i in 0..cfg.nodes {
            let period = if cfg.canary == Some(CanaryKind::CadenceRush) && i == 0 {
                fleet_period(cfg, 0) - Duration::from_millis(1)
            } else {
                fleet_period(cfg, i)
            };
            if cfg.canary == Some(CanaryKind::SkewBeyondEps) && i == 0 {
                // The planted bug: node 0's clock runs 1 ms beyond the
                // declared ε. Its ClockNode is registered with a widened
                // envelope so the engine guard lets the readings through —
                // the C_ε oracle still judges against the declared ε.
                let widened = eps + Duration::from_millis(2);
                builder = builder.clock_node(
                    ClockNode::new(
                        "n0".to_string(),
                        widened,
                        OffsetClock::new(eps + Duration::from_millis(1), widened),
                    )
                    .with(ClockBeeper::with_src(period, 0)),
                );
                continue;
            }
            let clock = scripted_clock_for(plan, i);
            rejections.push(clock.rejections());
            builder = builder.clock_node(
                ClockNode::new(format!("n{i}"), eps, clock).with(ClockBeeper::with_src(period, i)),
            );
        }
        CaseParts {
            rejections,
            ..CaseParts::new(builder)
        }
    }

    /// `C_ε` on every recorded reading, per-node clock monotonicity and
    /// exact clock-time cadence, and Lemma 2.1 clock replays.
    fn oracles(cfg: &ScenarioConfig, _seed: u64) -> Vec<Box<dyn Oracle<BeepAction>>> {
        let eps = ns(cfg.eps_ns);
        let mut oracles: Vec<Box<dyn Oracle<BeepAction>>> = vec![Box::new(CEpsOracle::new(eps))];

        let periods: Vec<(u32, Duration)> =
            (0..cfg.nodes).map(|i| (i, fleet_period(cfg, i))).collect();
        oracles.push(Box::new(FnOracle::new(
            "clock cadence",
            move |exec: &Execution<BeepAction>| check_cadence(exec, &periods),
        )));
        for i in 0..cfg.nodes {
            let period = fleet_period(cfg, i);
            oracles.push(replay_oracle(
                format!("replay(beeper {i})"),
                CLOCK_REPLAY_FAILED,
                move |exec| replay_clock(ClockBeeper::with_src(period, i), exec),
            ));
        }
        oracles
    }
}

/// The slot user node `i` runs, as deployed and as its replay rebuilds.
/// The guard band is `ε` — zero under the [`CanaryKind::MutexGuardZero`]
/// canary (the paper's Section 7 failure mode: an unguarded schedule is
/// exclusive in the timed model but not under any non-trivial clock
/// skew).
fn slot_user(cfg: &ScenarioConfig, i: u32) -> ClockSim<MutexAction> {
    let guard = if cfg.canary == Some(CanaryKind::MutexGuardZero) {
        Duration::ZERO
    } else {
        ns(cfg.eps_ns)
    };
    ClockSim::new(SlotUser::guarded(
        NodeId(i as usize),
        cfg.nodes as usize,
        ns(cfg.period_ns),
        guard,
        u64::from(cfg.ops_per_node),
    ))
}

/// Interval-based mutual exclusion over real time: occupancies of
/// *different* nodes must not strictly overlap (touching at a boundary
/// instant is allowed — with `guard = ε` the transformed schedule is
/// exactly edge-to-edge in the worst case).
fn check_mutual_exclusion(exec: &Execution<MutexAction>, n: usize) -> Verdict {
    let mut open: Vec<Option<(u64, Time)>> = vec![None; n];
    let mut intervals: Vec<(usize, u64, Time, Time)> = Vec::new();
    let mut end = Time::ZERO;
    for (i, e) in exec.events().iter().enumerate() {
        end = end.max(e.now);
        let SysAction::App(op) = &e.action else {
            continue;
        };
        match op {
            MutexOp::Enter { node, round } => {
                if open[node.0].is_some() {
                    return Verdict::violated(format!(
                        "event {i}: {node} re-entered while already inside"
                    ));
                }
                open[node.0] = Some((*round, e.now));
            }
            MutexOp::Exit { node, round } => match open[node.0].take() {
                Some((r, entered)) if r == *round => {
                    intervals.push((node.0, r, entered, e.now));
                }
                other => {
                    return Verdict::violated(format!(
                        "event {i}: {node} exited round {round} without a matching entry \
                         (open: {other:?})"
                    ))
                }
            },
        }
    }
    for (node, slot) in open.iter().enumerate() {
        if let Some((r, entered)) = slot {
            intervals.push((node, *r, *entered, end));
        }
    }
    for (i, a) in intervals.iter().enumerate() {
        for b in &intervals[i + 1..] {
            if a.0 == b.0 {
                continue;
            }
            let start = a.2.max(b.2);
            let finish = a.3.min(b.3);
            if start < finish {
                return Verdict::violated(format!(
                    "node {} round {} [{}, {}] overlaps node {} round {} [{}, {}]",
                    a.0, a.1, a.2, a.3, b.0, b.1, b.2, b.3
                ));
            }
        }
    }
    Verdict::Holds
}

/// The mutex family — the paper's time-division mutual exclusion
/// (Section 7's design techniques): `n` clock nodes, each running
/// `C(SlotUser, ε)` with `guard = ε` edges against a plan-scripted clock.
pub struct MutexFamily;

impl Scenario for MutexFamily {
    type Action = MutexAction;

    fn parts(cfg: &ScenarioConfig, plan: &FaultPlan, _seed: u64) -> CaseParts<MutexAction> {
        let eps = ns(cfg.eps_ns);
        let mut builder = Engine::builder();
        let mut rejections = Vec::new();
        for i in 0..cfg.nodes {
            let clock = scripted_clock_for(plan, i);
            rejections.push(clock.rejections());
            builder = builder
                .clock_node(ClockNode::new(format!("n{i}"), eps, clock).with(slot_user(cfg, i)));
        }
        CaseParts {
            rejections,
            ..CaseParts::new(builder)
        }
    }

    /// Interval-based mutual exclusion, per-node liveness (every round
    /// entered), `C_ε`, and clock replays of each slot user.
    fn oracles(cfg: &ScenarioConfig, _seed: u64) -> Vec<Box<dyn Oracle<MutexAction>>> {
        let n = cfg.nodes as usize;
        let rounds = u64::from(cfg.ops_per_node);
        let exclusion = FnOracle::new("mutual exclusion", move |exec: &Execution<MutexAction>| {
            check_mutual_exclusion(exec, n)
        });
        let liveness = FnOracle::new("mutex liveness", move |exec: &Execution<MutexAction>| {
            let mut enters = vec![0u64; n];
            for e in exec.events() {
                if let SysAction::App(MutexOp::Enter { node, .. }) = &e.action {
                    enters[node.0] += 1;
                }
            }
            for (node, &count) in enters.iter().enumerate() {
                if count != rounds {
                    return Verdict::violated(format!(
                        "node {node} entered {count} times, expected {rounds}"
                    ));
                }
            }
            Verdict::Holds
        });
        let mut oracles: Vec<Box<dyn Oracle<MutexAction>>> = vec![
            Box::new(exclusion),
            Box::new(liveness),
            Box::new(CEpsOracle::new(ns(cfg.eps_ns))),
        ];
        for i in 0..cfg.nodes {
            let cfg = cfg.clone();
            oracles.push(replay_oracle(
                format!("replay(slot-user {i})"),
                CLOCK_REPLAY_FAILED,
                move |exec| replay_clock(slot_user(&cfg, i), exec),
            ));
        }
        oracles
    }
}

/// The closed-loop workloads' think-time bounds.
fn think_bounds() -> DelayBounds {
    DelayBounds::new(Duration::from_millis(1), Duration::from_millis(6)).expect("valid")
}

/// Builds a `D_C` case (Section 6: the node algorithm through
/// Simulation 1, on plan-delayed clock channels) around `algorithm` and
/// its closed-loop `workload`. `sign_flip` is the family's canary:
///
/// * its mutant skips the `2ε` read wait (`read_slack = 0`), the exact
///   slack Lemma 6.4 needs, and
/// * its nodes 0 and 1 run at fixed *admissible* worst-case offsets
///   (`+ε` / `−ε`) instead of plan-scripted clocks. The skew itself is
///   legal (`C_ε` holds throughout), but the missing slack turns any
///   node-1 read racing just behind a node-0 write ack into a stale,
///   non-linearizable return — the paper's own argument for why
///   Algorithm L does not survive the clock transformation
///   (Section 6.2).
fn dc_parts<M, O, G, W>(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    sign_flip: CanaryKind,
    algorithm: impl Fn(NodeId, RegisterParams) -> G,
    workload: W,
) -> CaseParts<SysAction<M, O>>
where
    M: Clone + Eq + Hash + Debug + 'static,
    O: Action,
    G: TimedComponent<Action = SysAction<M, O>>,
    W: TimedComponent<Action = SysAction<M, O>>,
{
    let topo = Topology::complete(cfg.nodes as usize);
    let eps = ns(cfg.eps_ns);
    let flipped = cfg.canary == Some(sign_flip);
    let mut params = RegisterParams::for_clock_model(
        &topo,
        cfg.bounds(),
        eps,
        ns(cfg.d2_ns / 2),
        Duration::from_micros(100),
    );
    if flipped {
        params.read_slack = Duration::ZERO;
    }
    let algorithms = topo
        .nodes()
        .map(|i| NodeSpec::new(i, algorithm(i, params.clone())))
        .collect();
    let mut rejections = Vec::new();
    let strategies = (0..cfg.nodes)
        .map(|i| -> Box<dyn ClockStrategy> {
            if flipped && i < 2 {
                return Box::new(OffsetClock::new(if i == 0 { eps } else { -eps }, eps));
            }
            let clock = scripted_clock_for(plan, i);
            rejections.push(clock.rejections());
            Box::new(clock)
        })
        .collect();
    let policy_plan = plan.clone();
    let builder = build_dc(
        &topo,
        cfg.bounds(),
        eps,
        algorithms,
        strategies,
        move |_, _| Box::new(PlanDelayPolicy::new(&policy_plan, seed)),
    )
    .timed(workload);
    CaseParts {
        rejections,
        ..CaseParts::new(builder)
    }
}

/// The scheduler salt of the `D_C` families, whose delay policy already
/// draws from the bare case seed.
const DC_SCHEDULER_SALT: u64 = 0x5C4E_D01E;

/// The register workload a case deploys and its replay rebuilds
/// (`ClosedLoopWorkload` is not `Clone`).
fn register_workload(cfg: &ScenarioConfig, seed: u64) -> ClosedLoopWorkload {
    let topo = Topology::complete(cfg.nodes as usize);
    ClosedLoopWorkload::new(&topo, seed, think_bounds(), cfg.ops_per_node)
}

/// The register family — the full `D_C` assembly of Section 6
/// (Algorithm S through Simulation 1).
pub struct RegisterFamily;

impl Scenario for RegisterFamily {
    type Action = RegAction;
    const MUST_DRAIN: bool = true;
    const SCHEDULER_SALT: u64 = DC_SCHEDULER_SALT;

    fn parts(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> CaseParts<RegAction> {
        dc_parts(
            cfg,
            plan,
            seed,
            CanaryKind::RegisterSignFlip,
            AlgorithmS::new,
            register_workload(cfg, seed),
        )
    }

    /// Linearizability — the *same* [`LinearizableRegister`] problem
    /// instance the conformance sweeps use, adapted through
    /// [`ProblemOracle`]: the shared-checker seam the explorer was built
    /// around — then `C_ε` and a workload replay.
    fn oracles(cfg: &ScenarioConfig, seed: u64) -> Vec<Box<dyn Oracle<RegAction>>> {
        let replayed = cfg.clone();
        vec![
            Box::new(ProblemOracle::new(
                LinearizableRegister::new(cfg.nodes as usize, Value::INITIAL),
                |e: &Execution<RegAction>| app_trace(e),
            )),
            Box::new(CEpsOracle::new(ns(cfg.eps_ns))),
            replay_oracle("replay(workload)", TIMED_REPLAY_FAILED, move |exec| {
                replay_timed(register_workload(&replayed, seed), exec)
            }),
        ]
    }
}

/// [`RegisterFamily`]'s whole-execution oracles, for judging recorded
/// register executions outside a case (the end-to-end benchmark's
/// post-hoc workload).
#[must_use]
pub fn register_oracles(cfg: &ScenarioConfig, seed: u64) -> Vec<Box<dyn Oracle<RegAction>>> {
    RegisterFamily::oracles(cfg, seed)
}

/// The counter workload a case deploys and its replay rebuilds. Update
/// payloads are powers of ten per node, so any lost or double-counted
/// increment is visible in a query's digits.
fn counter_workload(cfg: &ScenarioConfig, seed: u64) -> ObjWorkload<Counter> {
    let topo = Topology::complete(cfg.nodes as usize);
    ObjWorkload::new(
        &topo,
        seed,
        think_bounds(),
        cfg.ops_per_node,
        |node, _op| 10i64.pow(node.0 as u32),
    )
}

/// The counter family — the generalized-object extension:
/// `AlgorithmSObj` over the [`Counter`] spec in `D_C`.
pub struct CounterFamily;

impl Scenario for CounterFamily {
    type Action = ObjAction<Counter>;
    const MUST_DRAIN: bool = true;
    const SCHEDULER_SALT: u64 = DC_SCHEDULER_SALT;

    fn parts(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> CaseParts<ObjAction<Counter>> {
        dc_parts(
            cfg,
            plan,
            seed,
            CanaryKind::CounterSignFlip,
            |i, params| AlgorithmSObj::new(i, Counter, params),
            counter_workload(cfg, seed),
        )
    }

    /// Generalized-object linearizability, `C_ε`, and a workload replay.
    fn oracles(cfg: &ScenarioConfig, seed: u64) -> Vec<Box<dyn Oracle<ObjAction<Counter>>>> {
        let replayed = cfg.clone();
        vec![
            Box::new(ObjectLinearizableOracle::new(Counter, cfg.nodes as usize)),
            Box::new(CEpsOracle::new(ns(cfg.eps_ns))),
            replay_oracle("replay(workload)", TIMED_REPLAY_FAILED, move |exec| {
                replay_timed(counter_workload(&replayed, seed), exec)
            }),
        ]
    }
}

/// The probe-sync parameter set for node `i`, with the skew-burst
/// canary hook: the mutant holds every echo back by
/// `2(d₂ − d₁) + 1 ms` — an in-envelope component bug (no channel ever
/// exceeds `d₂`) that turns every offset sample contradictory, so the
/// node certifies nothing better than the `2ε` prior and never covers
/// its peers. Only the ε̂-parameterized `C_ε` oracle can see that.
fn sync_params(cfg: &ScenarioConfig, i: u32) -> SyncParams {
    let echo_hold = if cfg.canary == Some(CanaryKind::SyncSkewBurst) {
        ns(2 * (cfg.d2_ns - cfg.d1_ns)) + Duration::from_millis(1)
    } else {
        Duration::ZERO
    };
    let grace = if cfg.kind == ScenarioKind::SyncRounds {
        RoundSync::grace_for_drops(u64::from(cfg.max_drops))
    } else {
        1
    };
    SyncParams {
        me: NodeId(i as usize),
        peers: (0..cfg.nodes)
            .filter(|&j| j != i)
            .map(|j| NodeId(j as usize))
            .collect(),
        d1: ns(cfg.d1_ns),
        d2: ns(cfg.d2_ns),
        eps: ns(cfg.eps_ns),
        rho_ppm: rho_max(cfg.nodes as usize, cfg.drift_ppm),
        period: ns(cfg.period_ns),
        burst: cfg.ops_per_node,
        grace,
        echo_hold,
    }
}

/// The sync family — clock synchronization that *achieves* ε̂: `n`
/// drifting clock nodes running `psync-sync`'s probe/echo components,
/// wired over per-edge [`FaultChannel`]s that the plan may drop,
/// duplicate, or spike inside `[d₁, d₂]`, certifying a measured bound
/// each round. [`ScenarioKind::SyncRounds`] is the fault-resistant
/// configuration (drops and duplicates in scope, crashed/gray peers aged
/// out by grace).
pub struct SyncFamily;

impl Scenario for SyncFamily {
    type Action = SyncAction;

    fn parts(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> CaseParts<SyncAction> {
        let eps = ns(cfg.eps_ns);
        let rates = drift_rates(cfg.nodes as usize, cfg.drift_ppm);
        let mut builder = Engine::builder();
        for i in 0..cfg.nodes {
            let node = ClockNode::new(format!("n{i}"), eps, DriftClock::new(rates[i as usize]));
            builder = builder.clock_node(if cfg.kind == ScenarioKind::SyncRounds {
                node.with(RoundSync::new(sync_params(cfg, i)))
            } else {
                node.with(ProbeSync::new(sync_params(cfg, i)))
            });
        }
        plan_channels(
            builder,
            cfg,
            plan,
            seed,
            &complete_edges(cfg.nodes),
            |fault| fault,
        )
    }

    /// The ε̂-parameterized `C_ε` ([`EpsHatOracle`]: certificate soundness
    /// against the recorded clock readings *and* achievement of the
    /// [`predicted_eps_hat`] bound — the primary oracle), the constant-ε
    /// `C_ε` probe, and a Lemma 2.1 clock replay of every sync component. The
    /// per-edge FIFO oracle is deliberately omitted: probe bursts and
    /// held echoes are handed to independently delayed channels in the
    /// same instant, so cross-message reordering is legitimate.
    fn oracles(cfg: &ScenarioConfig, _seed: u64) -> Vec<Box<dyn Oracle<SyncAction>>> {
        let bound = predicted_eps_hat(
            ns(cfg.d1_ns),
            ns(cfg.d2_ns),
            rho_max(cfg.nodes as usize, cfg.drift_ppm),
            at_ns(cfg.horizon_ns),
        );
        let mut oracles: Vec<Box<dyn Oracle<SyncAction>>> = vec![
            Box::new(EpsHatOracle::new(cfg.nodes as usize, bound)),
            Box::new(CEpsOracle::new(ns(cfg.eps_ns))),
        ];
        for i in 0..cfg.nodes {
            let cfg = cfg.clone();
            oracles.push(replay_oracle(
                format!("replay(sync {i})"),
                CLOCK_REPLAY_FAILED,
                move |exec| {
                    if cfg.kind == ScenarioKind::SyncRounds {
                        replay_clock(RoundSync::new(sync_params(&cfg, i)), exec)
                    } else {
                        replay_clock(ProbeSync::new(sync_params(&cfg, i)), exec)
                    }
                },
            ));
        }
        oracles
    }

    /// Each node's final certified ε̂ as a `sync.eps_hat_ns.n{i}` gauge
    /// (campaign merging keeps the worst level).
    fn publish(cfg: &ScenarioConfig, exec: &Execution<SyncAction>, hub: &MetricsHub) {
        let measured = MeasuredEps::from_execution(exec);
        for i in 0..cfg.nodes {
            let node = NodeId(i as usize);
            if let Some(cert) = measured.last_for(node) {
                hub.set_gauge(&format!("sync.eps_hat_ns.{node}"), cert.eps_hat.as_nanos());
            }
        }
    }
}

/// Runs one case of any scenario kind — the kind-erased entry point
/// campaigns, `replay_artifact` and one-off callers share, and the one
/// place a kind is mapped to its family. `online` asks for the online
/// judge; [`run_scenario`] grants it where the family supports it.
#[must_use]
pub fn run_case(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64, online: bool) -> CaseOutcome {
    match cfg.kind {
        ScenarioKind::Heartbeat
        | ScenarioKind::HeartbeatCrash
        | ScenarioKind::HeartbeatRestart
        | ScenarioKind::HeartbeatGray
        | ScenarioKind::HeartbeatBidi
        | ScenarioKind::Relay
        | ScenarioKind::Partition => {
            run_scenario::<HeartbeatFamily>(cfg, plan, seed, online).into()
        }
        ScenarioKind::ClockFleet | ScenarioKind::ClockFleetLarge => {
            run_scenario::<ClockFleetFamily>(cfg, plan, seed, online).into()
        }
        ScenarioKind::Mutex | ScenarioKind::MutexContended => {
            run_scenario::<MutexFamily>(cfg, plan, seed, online).into()
        }
        ScenarioKind::Register | ScenarioKind::RegisterTriple => {
            run_scenario::<RegisterFamily>(cfg, plan, seed, online).into()
        }
        ScenarioKind::Counter => run_scenario::<CounterFamily>(cfg, plan, seed, online).into(),
        ScenarioKind::SyncProbe | ScenarioKind::SyncRounds => {
            run_scenario::<SyncFamily>(cfg, plan, seed, online).into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cases_pass_all_oracles_in_every_scenario() {
        for kind in ScenarioKind::all() {
            let cfg = ScenarioConfig::default_for(kind);
            let out = run_case(&cfg, &FaultPlan::empty(), 1, false);
            assert!(
                out.violations.is_empty(),
                "{}: {:?}",
                kind.name(),
                out.violations
            );
            assert!(out.events > 0, "{}: no events", kind.name());
        }
    }

    #[test]
    fn clean_clockfleet_case_rejects_no_clock_requests() {
        let cfg = ScenarioConfig::clockfleet_default();
        let out = run_case(&cfg, &FaultPlan::empty(), 1, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.rejected_clock_requests, 0);
    }

    #[test]
    fn crash_is_detected_within_the_bound() {
        let mut cfg = ScenarioConfig::heartbeat_default();
        cfg.crash_at_ns = Some(150_000_000);
        let out = run_case(&cfg, &FaultPlan::empty(), 3, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    /// Lemma 2.1 at the checkpoint seam: the restart scenario's outcome —
    /// violations, event count, fingerprint, metrics — is bit-identical
    /// to an uninterrupted run of the same system.
    #[test]
    fn restart_run_matches_the_uninterrupted_run() {
        let restart = ScenarioConfig::default_for(ScenarioKind::HeartbeatRestart);
        let mut straight = restart.clone();
        straight.kind = ScenarioKind::HeartbeatCrash;
        straight.restart_at_ns = None;
        for seed in [1u64, 7, 0x0C1A_551C] {
            let a = run_case(&restart, &FaultPlan::empty(), seed, false);
            let b = run_case(&straight, &FaultPlan::empty(), seed, false);
            assert_eq!(a, b, "seed {seed}: restart diverged from straight run");
        }
    }

    #[test]
    fn scenario_names_round_trip() {
        for kind in ScenarioKind::all() {
            assert_eq!(ScenarioKind::from_name(kind.name()).unwrap(), kind);
        }
        assert!(ScenarioKind::from_name("nope").is_err());
    }

    #[test]
    fn config_round_trips_through_json() {
        for kind in ScenarioKind::all() {
            let cfg = ScenarioConfig::default_for(kind);
            let back = ScenarioConfig::from_json(&cfg.to_json()).unwrap();
            assert_eq!(cfg, back);
        }
        let mut with_canary = ScenarioConfig::heartbeat_default();
        with_canary.canary = Some(crate::canary::CanaryKind::DuplicateDelivery);
        assert_eq!(
            ScenarioConfig::from_json(&with_canary.to_json()).unwrap(),
            with_canary
        );
    }

    /// Pre-catalog artifacts carry neither `restart_at_ns` nor `canary`;
    /// their configs must still parse (as `None`).
    #[test]
    fn config_json_tolerates_missing_new_fields() {
        let cfg = ScenarioConfig::heartbeat_default();
        let Json::Obj(mut fields) = cfg.to_json() else {
            panic!("config JSON is an object")
        };
        fields.retain(|(k, _)| k != "restart_at_ns" && k != "canary" && k != "drift_ppm");
        let back = ScenarioConfig::from_json(&Json::Obj(fields)).unwrap();
        assert_eq!(back, cfg);
    }
}
