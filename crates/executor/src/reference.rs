//! The reference interpreter: the original scan-everything engine,
//! preserved verbatim as an executable specification.
//!
//! [`ReferenceEngine`] re-derives every decision from scratch each
//! iteration: it polls every component for enabled actions, runs the
//! pairwise controller-compatibility check over all candidates, broadcasts
//! every fired action to every component, and polls every deadline on
//! every idle advance. That makes it slow — O(components) per step with an
//! O(candidates²) scan — but *obviously* faithful to the composition
//! semantics of Definition 2.2, which is exactly what an oracle should be.
//!
//! Two uses:
//!
//! * **Differential testing** — `tests/engine_equiv.rs` asserts that the
//!   incremental [`Engine`](crate::Engine) reproduces this interpreter's
//!   executions event-for-event across seeded schedulers.
//! * **Benchmark baseline** — `psync-bench`'s `engine_scaling_heap` bench
//!   measures the incremental engine's speedup against it.
//!
//! Keep this module dumb. Optimizations belong in `engine.rs`; any change
//! here weakens the oracle.

use psync_automata::{
    Action, ArenaSnapshot, ClockComponentBox, ClockPredicate, ComponentBox, DynState, EventArena,
    Execution, TimedComponent, TimedEvent,
};
use psync_time::{Duration, Time};

use std::sync::Arc;

use crate::clock_driver::{AdvanceCtx, ClockStrategy};
use crate::engine::{ClockNode, EngineCheckpoint, Run, StopReason};
use crate::error::EngineError;
use crate::observer::{ClockRead, Observer};
use crate::scheduler::{FifoScheduler, Scheduler};

/// Default cap on recorded events, guarding against Zeno compositions.
const DEFAULT_MAX_EVENTS: usize = 1_000_000;

/// After this many consecutive estimate-guided advances with no event, the
/// engine falls back to the `Dc + ε` hard cap to guarantee progress.
const IDLE_ADVANCE_FALLBACK: u32 = 8;

struct TimedRuntime<A: Action> {
    comp: ComponentBox<A>,
    state: DynState,
}

struct NodeRuntime<A: Action> {
    name: String,
    comps: Vec<(ClockComponentBox<A>, DynState)>,
    clock: Time,
    strategy: Box<dyn ClockStrategy>,
    pred: ClockPredicate,
}

/// Builds a [`ReferenceEngine`]; mirrors [`EngineBuilder`](crate::EngineBuilder).
pub struct ReferenceEngineBuilder<A: Action> {
    timed: Vec<ComponentBox<A>>,
    nodes: Vec<ClockNode<A>>,
    scheduler: Box<dyn Scheduler<A>>,
    horizon: Option<Time>,
    max_events: usize,
    observers: Vec<Box<dyn Observer<A>>>,
}

impl<A: Action> Default for ReferenceEngineBuilder<A> {
    fn default() -> Self {
        ReferenceEngineBuilder {
            timed: Vec::new(),
            nodes: Vec::new(),
            scheduler: Box::new(FifoScheduler),
            horizon: None,
            max_events: DEFAULT_MAX_EVENTS,
            observers: Vec::new(),
        }
    }
}

impl<A: Action> ReferenceEngineBuilder<A> {
    /// Adds a timed component.
    #[must_use]
    pub fn timed<C: TimedComponent<Action = A>>(mut self, comp: C) -> Self {
        self.timed.push(ComponentBox::new(comp));
        self
    }

    /// Adds an already-boxed timed component.
    #[must_use]
    pub fn timed_boxed(mut self, comp: ComponentBox<A>) -> Self {
        self.timed.push(comp);
        self
    }

    /// Adds a clock node.
    #[must_use]
    pub fn clock_node(mut self, node: ClockNode<A>) -> Self {
        self.nodes.push(node);
        self
    }

    /// Sets the scheduler (default: [`FifoScheduler`]).
    #[must_use]
    pub fn scheduler(mut self, s: impl Scheduler<A> + 'static) -> Self {
        self.scheduler = Box::new(s);
        self
    }

    /// Stops the run when real time reaches `horizon`.
    #[must_use]
    pub fn horizon(mut self, horizon: Time) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Caps the number of recorded events.
    #[must_use]
    pub fn max_events(mut self, max: usize) -> Self {
        self.max_events = max;
        self
    }

    /// Attaches an [`Observer`], notified at the same points, in the same
    /// order, as [`Engine`](crate::Engine) notifies its observers.
    #[must_use]
    pub fn observer(mut self, obs: impl Observer<A> + 'static) -> Self {
        self.observers.push(Box::new(obs));
        self
    }

    /// Attaches an already-boxed observer.
    #[must_use]
    pub fn observer_boxed(mut self, obs: Box<dyn Observer<A>>) -> Self {
        self.observers.push(obs);
        self
    }

    /// Builds the engine with all components in their start states and
    /// `now = clock = 0` (axioms S1 and C1).
    #[must_use]
    pub fn build(self) -> ReferenceEngine<A> {
        let timed = self
            .timed
            .into_iter()
            .map(|comp| {
                let state = comp.initial();
                TimedRuntime { comp, state }
            })
            .collect();
        let nodes = self
            .nodes
            .into_iter()
            .map(|n| NodeRuntime {
                name: n.name,
                comps: n
                    .comps
                    .into_iter()
                    .map(|c| {
                        let s = c.initial();
                        (c, s)
                    })
                    .collect(),
                clock: Time::ZERO,
                strategy: n.strategy,
                pred: ClockPredicate::skew(n.eps),
            })
            .collect();
        ReferenceEngine {
            timed,
            nodes,
            now: Time::ZERO,
            scheduler: self.scheduler,
            events: Vec::new(),
            horizon: self.horizon,
            max_events: self.max_events,
            idle_advances: 0,
            observers: self.observers,
        }
    }
}

/// Where an enabled action came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Timed(usize),
    Node(usize, usize),
}

/// The original naive engine: semantically identical to
/// [`Engine`](crate::Engine), re-scanning everything on every iteration.
///
/// See the module docs (`reference.rs`) for why it is kept.
pub struct ReferenceEngine<A: Action> {
    timed: Vec<TimedRuntime<A>>,
    nodes: Vec<NodeRuntime<A>>,
    now: Time,
    scheduler: Box<dyn Scheduler<A>>,
    events: Vec<TimedEvent<A>>,
    horizon: Option<Time>,
    max_events: usize,
    idle_advances: u32,
    observers: Vec<Box<dyn Observer<A>>>,
}

impl<A: Action> ReferenceEngine<A> {
    /// Starts building a reference engine.
    #[must_use]
    pub fn builder() -> ReferenceEngineBuilder<A> {
        ReferenceEngineBuilder::default()
    }

    /// The current real time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The events recorded so far.
    #[must_use]
    pub fn events(&self) -> &[TimedEvent<A>] {
        &self.events
    }

    /// Extends (or sets) the horizon and continues the run.
    ///
    /// # Errors
    ///
    /// As for [`ReferenceEngine::run`].
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is earlier than the current time.
    pub fn run_until(&mut self, horizon: Time) -> Result<Run<A>, EngineError> {
        assert!(
            horizon >= self.now,
            "horizon {horizon} is before the current time {}",
            self.now
        );
        self.horizon = Some(horizon);
        self.run()
    }

    /// Runs to quiescence or the horizon.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] when the composition is ill-formed.
    pub fn run(&mut self) -> Result<Run<A>, EngineError> {
        self.run_inner(None)
    }

    /// Runs until the execution holds at least `pause_at` events, then
    /// pauses ([`StopReason::Paused`]); mirrors
    /// [`Engine::run_until_events`](crate::Engine::run_until_events) so the
    /// differential tests can pause both engines at the same grain.
    ///
    /// # Errors
    ///
    /// As for [`ReferenceEngine::run`].
    pub fn run_until_events(&mut self, pause_at: usize) -> Result<Run<A>, EngineError> {
        self.run_inner(Some(pause_at))
    }

    /// Captures a detached snapshot of the current run state — the same
    /// [`EngineCheckpoint`] type [`Engine`](crate::Engine) produces, so
    /// snapshots are interchangeable between the two engines in the
    /// differential tests.
    #[must_use = "a checkpoint is only useful if restored or inspected"]
    pub fn checkpoint(&mut self) -> EngineCheckpoint<A> {
        let cp = EngineCheckpoint {
            now: self.now,
            timed_states: self.timed.iter().map(|rt| rt.state.clone()).collect(),
            node_clocks: self.nodes.iter().map(|n| n.clock).collect(),
            node_states: self
                .nodes
                .iter()
                .map(|n| n.comps.iter().map(|(_, s)| s.clone()).collect())
                .collect(),
            clock_states: self.nodes.iter().map(|n| n.strategy.checkpoint()).collect(),
            scheduler_state: self.scheduler.checkpoint(),
            events: ArenaSnapshot::full(Arc::new(EventArena::from_events(self.events.clone()))),
            idle_advances: self.idle_advances,
            horizon: self.horizon,
        };
        let count = cp.events.len();
        for obs in &mut self.observers {
            obs.on_checkpoint(count);
        }
        cp
    }

    /// Restores the run state captured in `checkpoint`; mirrors
    /// [`Engine::restore`](crate::Engine::restore), including the observer
    /// notification.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's shape (component counts) does not match
    /// this engine.
    pub fn restore(&mut self, checkpoint: &EngineCheckpoint<A>) {
        assert_eq!(
            self.timed.len(),
            checkpoint.timed_states.len(),
            "checkpoint shape mismatch: timed component count"
        );
        assert_eq!(
            self.nodes.len(),
            checkpoint.node_clocks.len(),
            "checkpoint shape mismatch: node count"
        );
        self.now = checkpoint.now;
        for (rt, state) in self.timed.iter_mut().zip(&checkpoint.timed_states) {
            rt.state = state.clone();
        }
        for (n, node) in self.nodes.iter_mut().enumerate() {
            node.clock = checkpoint.node_clocks[n];
            let states = &checkpoint.node_states[n];
            assert_eq!(
                node.comps.len(),
                states.len(),
                "checkpoint shape mismatch: components of node {n}"
            );
            for ((_, state), snap) in node.comps.iter_mut().zip(states) {
                *state = snap.clone();
            }
            node.strategy.restore(&checkpoint.clock_states[n]);
        }
        self.scheduler.restore(&checkpoint.scheduler_state);
        self.events = checkpoint.events.events().to_vec();
        self.idle_advances = checkpoint.idle_advances;
        self.horizon = checkpoint.horizon;
        for obs in &mut self.observers {
            obs.on_restore(checkpoint.events.events());
        }
    }

    fn run_inner(&mut self, pause_at: Option<usize>) -> Result<Run<A>, EngineError> {
        loop {
            if let Some(p) = pause_at {
                if self.events.len() >= p {
                    let now = self.now;
                    return Ok(self.finish(StopReason::Paused, now));
                }
            }
            if self.events.len() >= self.max_events {
                return Err(EngineError::EventLimitExceeded {
                    limit: self.max_events,
                    now: self.now,
                });
            }
            if let Some(h) = self.horizon {
                if self.now >= h {
                    return Ok(self.finish(StopReason::Horizon, h));
                }
            }

            let candidates = self.candidates()?;
            if !candidates.is_empty() {
                let (now, depth) = (self.now, candidates.len());
                for obs in &mut self.observers {
                    obs.on_candidates(now, depth);
                }
                let actions: Vec<A> = candidates.iter().map(|(a, _, _)| a.clone()).collect();
                let origins: Vec<usize> = candidates.iter().map(|(_, _, id)| *id).collect();
                let idx = self
                    .scheduler
                    .pick_with_origins(self.now, &actions, &origins);
                assert!(
                    idx < candidates.len(),
                    "scheduler returned out-of-range index"
                );
                let (action, origin, _) = candidates.into_iter().nth(idx).expect("index checked");
                self.fire(&action, origin)?;
                self.idle_advances = 0;
                continue;
            }

            match self.compute_target(self.idle_advances >= IDLE_ADVANCE_FALLBACK)? {
                None => {
                    let ltime = self.horizon.unwrap_or(self.now).max(self.now);
                    return Ok(self.finish(StopReason::Quiescent, ltime));
                }
                Some(target) => {
                    debug_assert!(target > self.now);
                    let capped = match self.horizon {
                        Some(h) if target > h => h,
                        _ => target,
                    };
                    if capped > self.now {
                        self.advance_to(capped)?;
                        self.idle_advances += 1;
                    }
                    if Some(capped) == self.horizon && capped < target {
                        return Ok(self.finish(StopReason::Horizon, capped));
                    }
                }
            }
        }
    }

    fn finish(&mut self, stop: StopReason, ltime: Time) -> Run<A> {
        Run {
            execution: Execution::new(self.events.clone(), ltime.max(self.now)),
            stop,
        }
    }

    /// Collects all enabled locally controlled actions with their origins
    /// and flat component ids.
    ///
    /// The flat id numbers components in insertion order — timed
    /// components first, then each clock node's components — matching the
    /// scheme [`Engine`](crate::Engine) feeds to
    /// [`Scheduler::pick_with_origins`], so origin-aware schedulers (e.g.
    /// round-robin) make identical choices on both engines.
    #[allow(clippy::type_complexity)]
    fn candidates(&self) -> Result<Vec<(A, Origin, usize)>, EngineError> {
        let mut out: Vec<(A, Origin, usize)> = Vec::new();
        let mut flat = 0;
        for (i, rt) in self.timed.iter().enumerate() {
            for a in rt.comp.enabled(&rt.state, self.now) {
                out.push((a, Origin::Timed(i), flat));
            }
            flat += 1;
        }
        for (n, node) in self.nodes.iter().enumerate() {
            for (j, (comp, state)) in node.comps.iter().enumerate() {
                for a in comp.enabled(state, node.clock) {
                    out.push((a, Origin::Node(n, j), flat));
                }
                flat += 1;
            }
        }
        // Two distinct components offering the same action means two
        // controllers: the composition is incompatible (Definition 2.2).
        for (i, (a, o1, _)) in out.iter().enumerate() {
            for (b, o2, _) in out.iter().skip(i + 1) {
                if a == b && o1 != o2 {
                    return Err(EngineError::IncompatibleControllers {
                        first: self.origin_name(*o1),
                        second: self.origin_name(*o2),
                        action: format!("{a:?}"),
                    });
                }
            }
        }
        Ok(out)
    }

    fn origin_name(&self, o: Origin) -> String {
        match o {
            Origin::Timed(i) => self.timed[i].comp.name().to_string(),
            Origin::Node(n, j) => {
                format!("{}/{}", self.nodes[n].name, self.nodes[n].comps[j].0.name())
            }
        }
    }

    /// Applies `action` to every component having it in signature.
    fn fire(&mut self, action: &A, origin: Origin) -> Result<(), EngineError> {
        let kind = match origin {
            Origin::Timed(i) => self.timed[i].comp.classify(action),
            Origin::Node(n, j) => self.nodes[n].comps[j].0.classify(action),
        }
        .expect("origin component must have the action in its signature");
        debug_assert!(kind.is_locally_controlled());

        let mut event_clock: Option<(usize, Time)> = None;

        let now = self.now;
        for (i, rt) in self.timed.iter_mut().enumerate() {
            let Some(k) = rt.comp.classify(action) else {
                continue;
            };
            if k.is_locally_controlled() && Origin::Timed(i) != origin {
                return Err(EngineError::IncompatibleControllers {
                    first: rt.comp.name().to_string(),
                    second: String::from("<origin>"),
                    action: format!("{action:?}"),
                });
            }
            match rt.comp.step(&rt.state, action, now) {
                Some(next) => rt.state = next,
                None if Origin::Timed(i) == origin => {
                    return Err(EngineError::EnabledButRefused {
                        component: rt.comp.name().to_string(),
                        action: format!("{action:?}"),
                        now,
                    })
                }
                None => {
                    return Err(EngineError::InputNotEnabled {
                        component: rt.comp.name().to_string(),
                        action: format!("{action:?}"),
                        now,
                    })
                }
            }
        }

        for (n, node) in self.nodes.iter_mut().enumerate() {
            let clock = node.clock;
            let mut touched = false;
            for (j, (comp, state)) in node.comps.iter_mut().enumerate() {
                let Some(k) = comp.classify(action) else {
                    continue;
                };
                touched = true;
                if k.is_locally_controlled() && Origin::Node(n, j) != origin {
                    return Err(EngineError::IncompatibleControllers {
                        first: format!("{}/{}", node.name, comp.name()),
                        second: String::from("<origin>"),
                        action: format!("{action:?}"),
                    });
                }
                match comp.step(state, action, clock) {
                    Some(next) => *state = next,
                    None if Origin::Node(n, j) == origin => {
                        return Err(EngineError::EnabledButRefused {
                            component: format!("{}/{}", node.name, comp.name()),
                            action: format!("{action:?}"),
                            now,
                        })
                    }
                    None => {
                        return Err(EngineError::InputNotEnabled {
                            component: format!("{}/{}", node.name, comp.name()),
                            action: format!("{action:?}"),
                            now,
                        })
                    }
                }
            }
            if touched && event_clock.is_none() {
                event_clock = Some((n, clock));
            }
        }

        // The reference engine stays dumb on purpose: it allocates a fresh
        // `Arc<str>` per event rather than interning names. `Arc<str>`
        // compares by content, so the differential tests still pin the two
        // engines' executions bit-identical.
        let event = TimedEvent {
            action: action.clone(),
            kind,
            now,
            clock: event_clock.map(|(_, c)| c),
            node: event_clock.map(|(n, _)| std::sync::Arc::from(self.nodes[n].name.as_str())),
        };
        if !self.observers.is_empty() {
            if let Some((n, clock)) = event_clock {
                let eps = self.nodes[n].pred.eps();
                for obs in &mut self.observers {
                    obs.on_clock_read(ClockRead {
                        node: n,
                        now,
                        clock,
                        eps,
                    });
                }
            }
            let index = self.events.len();
            for obs in &mut self.observers {
                obs.on_event(index, &event);
            }
        }
        self.events.push(event);
        Ok(())
    }

    /// The earliest time any component forces an action, or `None` when
    /// time may pass forever.
    fn compute_target(&self, pessimistic: bool) -> Result<Option<Time>, EngineError> {
        let mut target: Option<(Time, String)> = None;
        let mut consider = |t: Time, who: String| match &target {
            Some((best, _)) if *best <= t => {}
            _ => target = Some((t, who)),
        };
        for rt in &self.timed {
            if let Some(d) = rt.comp.deadline(&rt.state, self.now) {
                if d <= self.now {
                    return Err(EngineError::TimeStopped {
                        component: rt.comp.name().to_string(),
                        now: self.now,
                        deadline: d,
                    });
                }
                consider(d, rt.comp.name().to_string());
            }
        }
        for node in &self.nodes {
            for (comp, state) in &node.comps {
                if let Some(dc) = comp.clock_deadline(state, node.clock) {
                    let cap = node.pred.latest_now_for(dc);
                    if cap <= self.now {
                        return Err(EngineError::TimeStopped {
                            component: format!("{}/{}", node.name, comp.name()),
                            now: self.now,
                            deadline: cap,
                        });
                    }
                    let aim = if pessimistic {
                        cap
                    } else {
                        node.strategy
                            .when_reaches(self.now, node.clock, dc)
                            .max(self.now + Duration::NANOSECOND)
                            .min(cap)
                    };
                    consider(aim, format!("{}/{}", node.name, comp.name()));
                }
            }
        }
        Ok(target.map(|(t, _)| t))
    }

    /// Performs `ν` for every component, moving real time to `target` and
    /// each node clock along its strategy.
    fn advance_to(&mut self, target: Time) -> Result<(), EngineError> {
        debug_assert!(target > self.now);
        let now = self.now;
        for obs in &mut self.observers {
            obs.on_advance(now, target);
        }
        for rt in &mut self.timed {
            match rt.comp.advance(&rt.state, self.now, target) {
                Some(next) => rt.state = next,
                None => {
                    return Err(EngineError::AdvanceRefused {
                        component: rt.comp.name().to_string(),
                        now: self.now,
                        target,
                    })
                }
            }
        }
        let observers = &mut self.observers;
        for (n, node) in self.nodes.iter_mut().enumerate() {
            let max_clock = node
                .comps
                .iter()
                .filter_map(|(c, s)| c.clock_deadline(s, node.clock))
                .min();
            if let Some(mc) = max_clock {
                if mc <= node.clock {
                    return Err(EngineError::TimeStopped {
                        component: node.name.to_string(),
                        now: self.now,
                        deadline: node.pred.latest_now_for(mc),
                    });
                }
            }
            let ctx = AdvanceCtx {
                now: self.now,
                clock: node.clock,
                target,
                max_clock,
                eps: node.pred.eps(),
            };
            let next_clock = node.strategy.next_clock(ctx);
            if next_clock <= node.clock {
                return Err(EngineError::StrategyViolation {
                    node: node.name.to_string(),
                    reason: format!(
                        "clock moved from {} to {next_clock}: axiom C3 requires strict increase",
                        node.clock
                    ),
                });
            }
            if !node.pred.holds(target, next_clock) {
                return Err(EngineError::StrategyViolation {
                    node: node.name.to_string(),
                    reason: format!(
                        "clock {next_clock} at real time {target} violates C_ε (ε = {})",
                        node.pred.eps()
                    ),
                });
            }
            if let Some(mc) = max_clock {
                if next_clock > mc {
                    return Err(EngineError::StrategyViolation {
                        node: node.name.to_string(),
                        reason: format!("clock {next_clock} passed the deadline {mc}"),
                    });
                }
            }
            for (comp, state) in &mut node.comps {
                match comp.advance(state, node.clock, next_clock) {
                    Some(next) => *state = next,
                    None => {
                        return Err(EngineError::AdvanceRefused {
                            component: format!("{}/{}", node.name, comp.name()),
                            now,
                            target,
                        })
                    }
                }
            }
            for obs in observers.iter_mut() {
                obs.on_clock_read(ClockRead {
                    node: n,
                    now: target,
                    clock: next_clock,
                    eps: node.pred.eps(),
                });
            }
            node.clock = next_clock;
        }
        self.now = target;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock_driver::PerfectClock;
    use psync_automata::toys::{BeepAction, Beeper, ClockBeeper};

    fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    fn at(n: i64) -> Time {
        Time::ZERO + ms(n)
    }

    #[test]
    fn reference_beeper_fires_at_exact_times() {
        let mut engine = ReferenceEngine::builder()
            .timed(Beeper::new(ms(10)))
            .horizon(at(35))
            .build();
        let run = engine.run().unwrap();
        assert_eq!(run.stop, StopReason::Horizon);
        assert_eq!(
            run.execution.t_trace().as_slice(),
            &[
                (BeepAction::Beep { src: 0, seq: 0 }, at(10)),
                (BeepAction::Beep { src: 0, seq: 1 }, at(20)),
                (BeepAction::Beep { src: 0, seq: 2 }, at(30)),
            ]
        );
    }

    #[test]
    fn reference_clock_node_records_clock_readings() {
        let node = ClockNode::new("n0", ms(2), PerfectClock).with(ClockBeeper::new(ms(10)));
        let mut engine = ReferenceEngine::builder()
            .clock_node(node)
            .horizon(at(25))
            .build();
        let run = engine.run().unwrap();
        assert_eq!(run.execution.len(), 2);
        assert_eq!(run.execution.events()[0].clock, Some(at(10)));
    }
}
