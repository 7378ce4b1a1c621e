//! Online judging of heartbeat-family cases: stream oracles consume
//! events through the engine's [`Observer`](psync_executor::Observer)
//! hooks *while the case runs*, and the case runner stops the engine the
//! moment any oracle declares a violation certain — judging cost scales
//! with the distance to the first violation instead of the horizon.
//!
//! The heartbeat family's three safety properties are written once, in
//! [`StreamOracle`] form; [`run_scenario`](crate::scenario::run_scenario)
//! feeds them through an [`OnlineJudge`](psync_obs::OnlineJudge) when a
//! case is judged online and folds these same oracles over the recorded
//! events ([`psync_verify::fold`]) when it is judged post-hoc, so the two
//! modes cannot disagree on a name or a message:
//!
//! * `EnvelopeStream` — the `[d₁, d₂]` delivery envelope plus the
//!   plan's drop/duplicate ledger ("delivery envelope").
//! * [`FifoStream`] — per-edge FIFO first-delivery order ("fifo order").
//! * `FdStream` — per-pair failure-detector accuracy and completeness
//!   ("failure detector"). Accuracy violations are certain the instant
//!   the offending suspicion (or its absence past the detection bound)
//!   is observed; completeness is only *decidable* at the horizon, but
//!   becomes certain mid-run once the bound has silently expired —
//!   every continuation then violates either completeness or the bound.
//!
//! What the two modes can still differ in is where the event indices
//! come from (engine observer hooks here, the recorded slice post-hoc);
//! this module's tests pin that an attached judge driven to the natural
//! stop finishes to exactly the post-hoc verdicts. A short-circuited
//! run instead reports the single certain violation; its message
//! describes the truncated prefix, which is precisely what a failing
//! case's artifact wants. The Lemma 2.1 replay oracles stay post-hoc
//! only — replay is a whole-execution property with no incremental
//! form, and a certain safety violation makes a replay verdict moot.

use psync_apps::heartbeat::{FdAction, FdOp};
use psync_automata::{TimedEvent, Verdict};
use psync_net::SysAction;
use psync_time::{DelayBounds, Duration, Time};
use psync_verify::{FifoStream, StreamOracle};

use crate::faults::seq_of;
use crate::plan::{at_ns, ns, FaultEntry, FaultPlan};
use crate::scenario::{hb_shape, monitor_params, ScenarioConfig};

/// Events between judge polls: an online case's engine pauses every this
/// many events so the runner can check for a certain violation. Small
/// enough that a short-circuit saves nearly the whole tail even on the
/// catalog's short default horizons, large enough that the pause
/// bookkeeping is noise (a pause is just an early return from the step
/// loop).
pub(crate) const ONLINE_CHUNK: usize = 32;

/// The "delivery envelope" oracle: every `Recv` must match a prior
/// `Send`, land inside the declared `[d₁, d₂]` window, not resurrect a
/// planned drop, and not exceed its duplicate budget. Every violation
/// here is existential, hence certain on sight.
struct EnvelopeStream {
    declared: DelayBounds,
    dropped: Vec<(u32, u32, u32)>,
    duplicated: Vec<(u32, u32, u32)>,
    sends: Vec<(u64, Time)>,
    copies: Vec<(u64, u32)>,
    violation: Option<String>,
}

impl StreamOracle<FdAction> for EnvelopeStream {
    fn name(&self) -> String {
        "delivery envelope".to_string()
    }

    fn observe_event(&mut self, i: usize, e: &TimedEvent<FdAction>) {
        if self.violation.is_some() {
            return;
        }
        match &e.action {
            SysAction::Send(env) => self.sends.push((env.id.0, e.now)),
            SysAction::Recv(env) => {
                let Some((_, sent)) = self.sends.iter().find(|(id, _)| *id == env.id.0) else {
                    self.violation = Some(format!(
                        "event {i}: received message {} that was never sent",
                        env.id.0
                    ));
                    return;
                };
                let latency = e.now - *sent;
                if latency < self.declared.min() || latency > self.declared.max() {
                    self.violation = Some(format!(
                        "event {i}: message {} delivered after {latency}, outside [{}, {}]",
                        env.id.0,
                        self.declared.min(),
                        self.declared.max()
                    ));
                    return;
                }
                let seq = seq_of(env.id);
                let edge_seq = (env.src.0 as u32, env.dst.0 as u32, seq);
                if self.dropped.contains(&edge_seq) {
                    self.violation = Some(format!(
                        "event {i}: message {seq} was delivered despite a planned drop"
                    ));
                    return;
                }
                match self.copies.iter_mut().find(|(id, _)| *id == env.id.0) {
                    Some((_, n)) => *n += 1,
                    None => self.copies.push((env.id.0, 1)),
                }
                let n = self
                    .copies
                    .iter()
                    .find(|(id, _)| *id == env.id.0)
                    .map_or(0, |(_, n)| *n);
                // Only a *planned* duplicate may arrive twice: a
                // channel that duplicates on its own (the
                // duplicate-delivery canary) is exactly what this
                // oracle exists to catch.
                let allowed = if self.duplicated.contains(&edge_seq) {
                    2
                } else {
                    1
                };
                if n > allowed {
                    self.violation = Some(format!(
                        "event {i}: message {seq} delivered {n} times (plan allows {allowed})"
                    ));
                }
            }
            _ => {}
        }
    }

    fn violation(&self) -> Option<String> {
        self.violation.clone()
    }

    fn finish(&mut self, _end: Time) -> Verdict {
        match &self.violation {
            Some(why) => Verdict::Violated(why.clone()),
            None => Verdict::Holds,
        }
    }
}

/// The "failure detector" oracle: per monitored pair, the first crash
/// of the target and the first suspicion by the monitor decide accuracy
/// (no false or late suspicions) and completeness (a crash inside the
/// horizon must be suspected within the detection bound).
struct FdStream {
    /// `(monitor, target)` pairs, in the shape's order.
    pairs: Vec<(u32, u32)>,
    detection: Duration,
    /// The *configured* horizon — completeness judges against it, not
    /// against wherever the run actually stopped.
    horizon: Time,
    /// Per pair: first crash of the target, first suspicion by the
    /// monitor.
    observed: Vec<(Option<Time>, Option<Time>)>,
    /// Time of the latest event seen (event times are non-decreasing).
    latest: Time,
}

impl FdStream {
    /// The accuracy verdict for pair `k` from what has been observed so
    /// far; `None` = nothing wrong yet.
    fn pair_verdict(&self, k: usize) -> Option<String> {
        let (m, t) = self.pairs[k];
        match self.observed[k] {
            (None, Some(s)) => Some(format!(
                "monitor {m}: false suspicion of {t} at {s} (no crash ever happened)"
            )),
            (Some(c), Some(s)) if s < c => Some(format!(
                "monitor {m}: false suspicion of {t} at {s}, before the crash at {c}"
            )),
            (Some(c), Some(s)) if s - c > self.detection => Some(format!(
                "monitor {m}: suspicion at {s} exceeds the detection bound {} \
                 after the crash at {c}",
                self.detection
            )),
            _ => None,
        }
    }

    /// The completeness violation for pair `k`, decided against `cut`:
    /// the crash happened early enough that the detection bound expired
    /// before `cut`, and no suspicion ever arrived.
    fn completeness(&self, k: usize, cut: Time) -> Option<String> {
        let (m, t) = self.pairs[k];
        match self.observed[k] {
            (Some(c), None) if c + self.detection < cut => Some(format!(
                "monitor {m}: crash of {t} at {c} never suspected within {} \
                 (completeness)",
                self.detection
            )),
            _ => None,
        }
    }
}

impl StreamOracle<FdAction> for FdStream {
    fn name(&self) -> String {
        "failure detector".to_string()
    }

    fn observe_event(&mut self, _i: usize, e: &TimedEvent<FdAction>) {
        self.latest = e.now;
        match &e.action {
            SysAction::App(FdOp::Crash { node }) => {
                for (k, &(_, t)) in self.pairs.iter().enumerate() {
                    if node.0 == t as usize && self.observed[k].0.is_none() {
                        self.observed[k].0 = Some(e.now);
                    }
                }
            }
            SysAction::App(FdOp::Suspect { monitor, target }) => {
                for (k, &(m, t)) in self.pairs.iter().enumerate() {
                    if monitor.0 == m as usize
                        && target.0 == t as usize
                        && self.observed[k].1.is_none()
                    {
                        self.observed[k].1 = Some(e.now);
                    }
                }
            }
            _ => {}
        }
    }

    fn violation(&self) -> Option<String> {
        for k in 0..self.pairs.len() {
            if let Some(why) = self.pair_verdict(k) {
                return Some(why);
            }
            // Once the detection bound has silently expired (and would
            // have expired before the horizon), every continuation
            // violates: a suspicion now would be late, silence forever
            // is incompleteness. Report the incompleteness reading of
            // the prefix.
            if self.latest > self.observed[k].0.map_or(Time::MAX, |c| c + self.detection) {
                if let Some(why) = self.completeness(k, self.horizon) {
                    return Some(why);
                }
            }
        }
        None
    }

    fn finish(&mut self, _end: Time) -> Verdict {
        for k in 0..self.pairs.len() {
            if let Some(why) = self.pair_verdict(k) {
                return Verdict::Violated(why);
            }
            if let Some(why) = self.completeness(k, self.horizon) {
                return Verdict::Violated(why);
            }
        }
        Verdict::Holds
    }
}

/// The heartbeat family's stream-oracle set: "delivery envelope",
/// "fifo order" and "failure detector", in that order — fed by the
/// online judge during a run, or folded over the recorded execution
/// afterwards. The Lemma 2.1 replay oracles have no streaming form and
/// stay post-hoc.
pub(crate) fn heartbeat_stream_oracles(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
) -> Vec<Box<dyn StreamOracle<FdAction>>> {
    let shape = hb_shape(cfg.kind);
    let dropped: Vec<(u32, u32, u32)> = plan
        .entries
        .iter()
        .filter_map(|e| match *e {
            FaultEntry::Drop { src, dst, seq } => Some((src, dst, seq)),
            _ => None,
        })
        .collect();
    let duplicated: Vec<(u32, u32, u32)> = plan
        .entries
        .iter()
        .filter_map(|e| match *e {
            FaultEntry::Duplicate { src, dst, seq, .. } => Some((src, dst, seq)),
            _ => None,
        })
        .collect();
    let relayed = shape.relay.is_some();
    let params = monitor_params(cfg, relayed);
    let hops = if relayed { 2 } else { 1 };
    let detection = ns(cfg.d2_ns) * hops + params.timeout + Duration::from_millis(1);
    vec![
        Box::new(EnvelopeStream {
            declared: cfg.bounds(),
            dropped,
            duplicated,
            sends: Vec::new(),
            copies: Vec::new(),
            violation: None,
        }),
        Box::new(FifoStream::new("fifo order")),
        Box::new(FdStream {
            observed: vec![(None, None); shape.monitors.len()],
            pairs: shape.monitors,
            detection,
            horizon: at_ns(cfg.horizon_ns),
            latest: Time::ZERO,
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canary::CanaryKind;
    use crate::scenario::{
        assemble, run_case, run_scenario, HeartbeatFamily, Scenario, ScenarioKind,
    };
    use psync_obs::OnlineJudge;

    #[test]
    fn stream_oracles_match_posthoc_on_clean_and_failing_runs() {
        // Clean runs across the family's topologies, then planted bugs
        // aimed at each stream oracle: a widened delay (envelope), the
        // LIFO-healing relay (fifo), and an underbudgeted timeout with a
        // crash (failure detector).
        let mut cases: Vec<ScenarioConfig> = vec![
            ScenarioConfig::default_for(ScenarioKind::Heartbeat),
            ScenarioConfig::default_for(ScenarioKind::HeartbeatCrash),
            ScenarioConfig::default_for(ScenarioKind::HeartbeatBidi),
            ScenarioConfig::default_for(ScenarioKind::Relay),
            ScenarioConfig::default_for(ScenarioKind::Partition),
        ];
        cases.push(ScenarioConfig {
            bug_extra_ns: 40_000_000,
            ..ScenarioConfig::default_for(ScenarioKind::Heartbeat)
        });
        cases.push(ScenarioConfig {
            canary: Some(CanaryKind::RelayLifoHeal),
            ..ScenarioConfig::default_for(ScenarioKind::Relay)
        });
        cases.push(ScenarioConfig {
            canary: Some(CanaryKind::FdTimeoutUnderbudget),
            ..ScenarioConfig::default_for(ScenarioKind::HeartbeatGray)
        });
        // Under the empty plan only the relay canary of those three
        // fires (the other two need a delay or drop entry to bite), and
        // its message carries no event index; the self-duplicating
        // channel trips the envelope, whose message does.
        cases.push(ScenarioConfig {
            canary: Some(CanaryKind::DuplicateDelivery),
            ..ScenarioConfig::default_for(ScenarioKind::Heartbeat)
        });
        let plan = FaultPlan::default();
        let mut indexed = 0;
        for cfg in &cases {
            // Online: the oracles see events through the engine's
            // observer hooks; no `certain()` polling, so the run reaches
            // its natural stop.
            let streams = HeartbeatFamily::stream_oracles(cfg, &plan);
            let streamable: Vec<String> = streams.iter().map(|s| s.name()).collect();
            let judge = OnlineJudge::new(streams);
            let mut built = assemble::<HeartbeatFamily>(cfg, &plan, 7, Some(&judge));
            built.engine.run().expect("run succeeded");
            let online = judge.finish(at_ns(cfg.horizon_ns));
            // Post-hoc: the same oracles folded over the recorded slice.
            let posthoc: Vec<(String, String)> =
                run_scenario::<HeartbeatFamily>(cfg, &plan, 7, false)
                    .violations
                    .into_iter()
                    .filter(|(name, _)| streamable.contains(name))
                    .collect();
            assert_eq!(online, posthoc, "indices drifted for {:?}", cfg.kind);
            indexed += online
                .iter()
                .filter(|(_, why)| why.starts_with("event "))
                .count();
        }
        assert!(indexed > 0, "no verdict compared carried an event index");
    }

    #[test]
    fn online_run_matches_offline_verdicts_on_a_clean_case() {
        let cfg = ScenarioConfig::default_for(ScenarioKind::Heartbeat);
        let plan = FaultPlan::default();
        let offline = run_scenario::<HeartbeatFamily>(&cfg, &plan, 3, false);
        let online = run_scenario::<HeartbeatFamily>(&cfg, &plan, 3, true);
        assert!(offline.violations.is_empty());
        assert!(online.violations.is_empty());
        // Same execution: attaching the judge observer never perturbs
        // the run, and a clean case is never short-circuited.
        assert_eq!(
            offline.run.as_ref().unwrap().execution.len(),
            online.run.as_ref().unwrap().execution.len()
        );
    }

    #[test]
    fn online_run_short_circuits_a_planted_violation() {
        // The duplicate-delivery canary dupes every message; the second
        // copy of heartbeat 1 arrives early in the run, so the online
        // driver should stop long before the (stretched) offline
        // horizon.
        let cfg = ScenarioConfig {
            canary: Some(CanaryKind::DuplicateDelivery),
            horizon_ns: 1_200_000_000,
            ..ScenarioConfig::default_for(ScenarioKind::Heartbeat)
        };
        let plan = FaultPlan::default();
        let offline = run_scenario::<HeartbeatFamily>(&cfg, &plan, 5, false);
        let online = run_scenario::<HeartbeatFamily>(&cfg, &plan, 5, true);
        let offline_events = offline.run.as_ref().unwrap().execution.len();
        let online_events = online.run.as_ref().unwrap().execution.len();
        assert!(
            online_events < offline_events,
            "short-circuit saved nothing: {online_events} vs {offline_events}"
        );
        assert_eq!(online.violations.len(), 1);
        assert_eq!(online.violations[0].0, "delivery envelope");
        assert_eq!(online.metrics.counter("monitor.short_circuits"), 1);
        // The offline judge blames the same oracle.
        assert!(offline
            .violations
            .iter()
            .any(|(name, _)| name == "delivery envelope"));
    }

    #[test]
    fn online_runs_are_deterministic() {
        let cfg = ScenarioConfig {
            canary: Some(CanaryKind::FdTimeoutUnderbudget),
            ..ScenarioConfig::default_for(ScenarioKind::HeartbeatGray)
        };
        let plan = FaultPlan::default();
        assert_eq!(
            run_case(&cfg, &plan, 11, true),
            run_case(&cfg, &plan, 11, true)
        );
    }

    /// Where the online judge is declined — the nine kinds without stream
    /// oracles, and the restart kind, whose checkpoint seam needs the
    /// post-hoc path — the flag changes nothing at all. Where it is
    /// granted, a clean case runs the identical execution to its natural
    /// stop; only the judge bookkeeping differs (the replays are
    /// post-hoc only).
    #[test]
    fn online_declines_non_heartbeat_kinds() {
        let plan = FaultPlan::default();
        for kind in ScenarioKind::all() {
            let cfg = ScenarioConfig::default_for(kind);
            let offline = run_case(&cfg, &plan, 1, false);
            let online = run_case(&cfg, &plan, 1, true);
            if kind.is_heartbeat() && kind != ScenarioKind::HeartbeatRestart {
                assert_eq!(online.events, offline.events, "{kind:?}");
                assert_eq!(online.fingerprint, offline.fingerprint, "{kind:?}");
                assert!(online.violations.is_empty(), "{kind:?}");
                assert_ne!(
                    online.metrics.counter("monitor.checks"),
                    offline.metrics.counter("monitor.checks"),
                    "{kind:?} was not judged online"
                );
            } else {
                assert_eq!(online, offline, "{kind:?}");
            }
        }
    }
}
