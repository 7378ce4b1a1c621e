//! The engine's model-error catalogue: every [`EngineError`] variant is
//! reachable exactly when a component (or strategy) breaks its contract,
//! and never on well-formed compositions. A broken routing hint is a bug
//! the run cannot report, so debug builds panic on it instead.

use psync_automata::toys::BeepAction;
use psync_automata::{Action, ActionKind, ClockComponent, TimedComponent};
use psync_executor::{AdvanceCtx, ClockNode, ClockStrategy, Engine, EngineError, PerfectClock};
use psync_time::{Duration, Time};

fn ms(n: i64) -> Duration {
    Duration::from_millis(n)
}

fn at(n: i64) -> Time {
    Time::ZERO + ms(n)
}

/// Demands an action at 5 ms but never enables one: stops time.
#[derive(Debug, Clone)]
struct TimeStopper;

impl TimedComponent for TimeStopper {
    type Action = BeepAction;
    type State = ();

    fn name(&self) -> String {
        "time-stopper".into()
    }
    fn initial(&self) {}
    fn classify(&self, _: &BeepAction) -> Option<ActionKind> {
        Some(ActionKind::Output)
    }
    fn step(&self, _: &(), _: &BeepAction, _: Time) -> Option<()> {
        None
    }
    fn enabled(&self, _: &(), _: Time) -> Vec<BeepAction> {
        Vec::new()
    }
    fn deadline(&self, _: &(), _: Time) -> Option<Time> {
        Some(at(5))
    }
}

#[test]
fn stopped_time_is_diagnosed() {
    let mut engine = Engine::builder().timed(TimeStopper).build();
    let err = engine.run().unwrap_err();
    match err {
        EngineError::TimeStopped {
            component,
            deadline,
            ..
        } => {
            assert_eq!(component, "time-stopper");
            assert_eq!(deadline, at(5));
        }
        other => panic!("expected TimeStopped, got {other}"),
    }
}

/// Claims an enabled output but refuses to perform it.
#[derive(Debug, Clone)]
struct Refuser;

impl TimedComponent for Refuser {
    type Action = BeepAction;
    type State = ();

    fn name(&self) -> String {
        "refuser".into()
    }
    fn initial(&self) {}
    fn classify(&self, _: &BeepAction) -> Option<ActionKind> {
        Some(ActionKind::Output)
    }
    fn step(&self, _: &(), _: &BeepAction, _: Time) -> Option<()> {
        None
    }
    fn enabled(&self, _: &(), _: Time) -> Vec<BeepAction> {
        vec![BeepAction::Beep { src: 0, seq: 0 }]
    }
    fn deadline(&self, _: &(), _: Time) -> Option<Time> {
        None
    }
}

#[test]
fn enabled_but_refused_is_diagnosed() {
    let mut engine = Engine::builder().timed(Refuser).build();
    let err = engine.run().unwrap_err();
    assert!(
        matches!(err, EngineError::EnabledButRefused { .. }),
        "{err}"
    );
}

/// A beeper-like emitter plus a listener that is *not* input-enabled.
#[derive(Debug, Clone)]
struct Emitter;

impl TimedComponent for Emitter {
    type Action = BeepAction;
    type State = bool; // fired?

    fn name(&self) -> String {
        "emitter".into()
    }
    fn initial(&self) -> bool {
        false
    }
    fn classify(&self, a: &BeepAction) -> Option<ActionKind> {
        matches!(a, BeepAction::Beep { src: 0, .. }).then_some(ActionKind::Output)
    }
    fn step(&self, fired: &bool, _: &BeepAction, _: Time) -> Option<bool> {
        (!fired).then_some(true)
    }
    fn enabled(&self, fired: &bool, now: Time) -> Vec<BeepAction> {
        if !fired && now >= at(1) {
            vec![BeepAction::Beep { src: 0, seq: 0 }]
        } else {
            Vec::new()
        }
    }
    fn deadline(&self, fired: &bool, _: Time) -> Option<Time> {
        (!fired).then_some(at(1))
    }
}

#[derive(Debug, Clone)]
struct DeafListener;

impl TimedComponent for DeafListener {
    type Action = BeepAction;
    type State = ();

    fn name(&self) -> String {
        "deaf-listener".into()
    }
    fn initial(&self) {}
    fn classify(&self, a: &BeepAction) -> Option<ActionKind> {
        matches!(a, BeepAction::Beep { src: 0, .. }).then_some(ActionKind::Input)
    }
    fn step(&self, _: &(), _: &BeepAction, _: Time) -> Option<()> {
        None // violates input-enabledness
    }
    fn enabled(&self, _: &(), _: Time) -> Vec<BeepAction> {
        Vec::new()
    }
    fn deadline(&self, _: &(), _: Time) -> Option<Time> {
        None
    }
}

#[test]
fn input_enabledness_violation_is_diagnosed() {
    let mut engine = Engine::builder().timed(Emitter).timed(DeafListener).build();
    let err = engine.run().unwrap_err();
    match err {
        EngineError::InputNotEnabled { component, .. } => {
            assert_eq!(component, "deaf-listener");
        }
        other => panic!("expected InputNotEnabled, got {other}"),
    }
}

/// A clock strategy that freezes the clock (violates axiom C3).
struct FrozenClock;

impl ClockStrategy for FrozenClock {
    fn next_clock(&mut self, ctx: AdvanceCtx) -> Time {
        ctx.clock // not strictly increasing
    }
}

/// A clock strategy that sprints far beyond the C_ε envelope.
struct RunawayClock;

impl ClockStrategy for RunawayClock {
    fn next_clock(&mut self, ctx: AdvanceCtx) -> Time {
        ctx.target + ctx.eps + ms(10)
    }
}

#[derive(Debug, Clone)]
struct ClockIdler;

impl ClockComponent for ClockIdler {
    type Action = BeepAction;
    type State = u64;

    fn name(&self) -> String {
        "clock-idler".into()
    }
    fn initial(&self) -> u64 {
        0
    }
    fn classify(&self, _: &BeepAction) -> Option<ActionKind> {
        Some(ActionKind::Output)
    }
    fn step(&self, s: &u64, a: &BeepAction, _: Time) -> Option<u64> {
        match a {
            BeepAction::Beep { seq, .. } if *seq == *s => Some(s + 1),
            _ => None,
        }
    }
    fn enabled(&self, s: &u64, clock: Time) -> Vec<BeepAction> {
        if clock >= Time::ZERO + ms(10) * ((*s as i64) + 1) {
            vec![BeepAction::Beep { src: 0, seq: *s }]
        } else {
            Vec::new()
        }
    }
    fn clock_deadline(&self, s: &u64, _: Time) -> Option<Time> {
        Some(Time::ZERO + ms(10) * ((*s as i64) + 1))
    }
}

#[test]
fn frozen_clock_strategy_is_diagnosed() {
    let node = ClockNode::new("n", ms(1), FrozenClock).with(ClockIdler);
    let mut engine = Engine::builder().clock_node(node).horizon(at(50)).build();
    let err = engine.run().unwrap_err();
    match err {
        EngineError::StrategyViolation { node, reason } => {
            assert_eq!(node, "n");
            assert!(reason.contains("C3"), "reason: {reason}");
        }
        other => panic!("expected StrategyViolation, got {other}"),
    }
}

#[test]
fn runaway_clock_strategy_is_diagnosed() {
    let node = ClockNode::new("n", ms(1), RunawayClock).with(ClockIdler);
    let mut engine = Engine::builder().clock_node(node).horizon(at(50)).build();
    let err = engine.run().unwrap_err();
    assert!(
        matches!(err, EngineError::StrategyViolation { .. }),
        "{err}"
    );
}

#[test]
fn well_formed_clock_node_runs_clean() {
    // Control: the same component with a lawful strategy completes.
    let node = ClockNode::new("n", ms(1), PerfectClock).with(ClockIdler);
    let mut engine = Engine::builder().clock_node(node).horizon(at(35)).build();
    let run = engine.run().unwrap();
    assert_eq!(run.execution.len(), 3); // beeps at clock 10, 20, 30
}

mod incremental {
    use psync_automata::toys::{BeepAction, Beeper};
    use psync_executor::{Engine, StopReason};
    use psync_time::{Duration, Time};

    fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn run_until_is_equivalent_to_one_shot() {
        let one_shot = {
            let mut e = Engine::builder()
                .timed(Beeper::new(ms(7)))
                .horizon(Time::ZERO + ms(50))
                .build();
            e.run().unwrap().execution
        };
        let incremental = {
            let mut e = Engine::builder().timed(Beeper::new(ms(7))).build();
            for step in [10i64, 23, 36, 50] {
                let run = e.run_until(Time::ZERO + ms(step)).unwrap();
                assert_eq!(run.stop, StopReason::Horizon);
                assert_eq!(e.now(), Time::ZERO + ms(step));
            }
            e.run_until(Time::ZERO + ms(50)).unwrap().execution
        };
        assert_eq!(one_shot.t_trace(), incremental.t_trace());
        assert_eq!(one_shot.ltime(), incremental.ltime());
    }

    #[test]
    fn run_until_observes_partial_prefix() {
        let mut e = Engine::builder().timed(Beeper::new(ms(7))).build();
        let first = e.run_until(Time::ZERO + ms(10)).unwrap();
        assert_eq!(first.execution.len(), 1); // only the 7 ms beep
        let second = e.run_until(Time::ZERO + ms(20)).unwrap();
        assert_eq!(second.execution.len(), 2); // 7 and 14 ms
        assert!(matches!(
            second.execution.events()[1].action,
            BeepAction::Beep { seq: 1, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn run_until_rejects_time_travel() {
        let mut e = Engine::builder().timed(Beeper::new(ms(7))).build();
        let _ = e.run_until(Time::ZERO + ms(20)).unwrap();
        let _ = e.run_until(Time::ZERO + ms(10));
    }
}

/// A part that declares a `signature_key` its actions do not carry is
/// skipped when the key first fires; debug builds re-derive that visit
/// list by asking the whole name list and stop the run.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "route_key contract broken")]
fn a_wrong_signature_key_is_caught_at_first_fire() {
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Keyed(u64);
    impl Action for Keyed {
        fn name(&self) -> &'static str {
            "KEYED"
        }
        fn route_key(&self) -> Option<u64> {
            Some(self.0)
        }
    }
    /// Offers `Keyed(1)` once, or takes every `Keyed` as an input while
    /// declaring that its actions carry key 2.
    struct Part {
        emits: bool,
    }
    impl TimedComponent for Part {
        type Action = Keyed;
        type State = bool;
        fn name(&self) -> String {
            format!("part(emits={})", self.emits)
        }
        fn initial(&self) -> bool {
            false
        }
        fn classify(&self, _a: &Keyed) -> Option<ActionKind> {
            Some(if self.emits {
                ActionKind::Output
            } else {
                ActionKind::Input
            })
        }
        fn action_names(&self) -> Option<Vec<&'static str>> {
            Some(vec!["KEYED"])
        }
        fn signature_key(&self) -> Option<u64> {
            (!self.emits).then_some(2)
        }
        fn step(&self, fired: &bool, _a: &Keyed, _now: Time) -> Option<bool> {
            (!self.emits || !fired).then_some(true)
        }
        fn enabled(&self, fired: &bool, _now: Time) -> Vec<Keyed> {
            if self.emits && !fired {
                vec![Keyed(1)]
            } else {
                Vec::new()
            }
        }
        fn deadline(&self, fired: &bool, _now: Time) -> Option<Time> {
            (self.emits && !fired).then_some(Time::ZERO)
        }
    }
    let mut engine = Engine::builder()
        .timed(Part { emits: true })
        .timed(Part { emits: false })
        .build();
    let _ = engine.run();
}
