//! Hot-path layer accounting: delegating wrappers that count calls and
//! busy nanoseconds per layer, from outside the program under test.
//!
//! A [`Spanned`] value forwards every trait method to the value it wraps
//! and charges the elapsed time to one [`Layer`]. Wrappers nest (the
//! algorithm runs inside `C(A, ε)`), so the tally keeps *self* time: a
//! wrapper's elapsed time minus the elapsed time of the wrappers that ran
//! inside it. The sum of all layers' self time is therefore the time spent
//! below the engine, and `engine.run` wall minus that sum is the engine's
//! own time.
//!
//! Reading the clock twice per call is not free, and at tens of millions
//! of calls per run it would swamp the engine's own time. The traced pass
//! therefore also runs the plain system on the same seed: the difference
//! in wall time, divided by the number of wrapped calls, is what timing
//! one call cost ([`CallCost`]), and [`LayerTotals`] takes it out again —
//! the part inside the measured interval from the layer itself, the part
//! outside it from whoever called (the enclosing layer, or the engine).
//! The corrected layer times then add up to the plain run's wall time.
//!
//! The tally is thread-local: the simulated workloads are single-threaded,
//! and the live workload is not wrapped at all (its nodes are assembled
//! inside `LiveRegister`).

use std::cell::Cell;
use std::time::Instant;

use psync_automata::{Action, ActionKind, ClockComponent, TimedComponent, TimedEvent, WakeHint};
use psync_executor::{
    AdvanceCtx, ClockCheckpoint, ClockRead, ClockStrategy, Observer, Scheduler, SchedulerCheckpoint,
};
use psync_time::Time;

/// The wrapped layers, named after the crate and part they time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `executor`: the scheduler's pick among enabled actions.
    Scheduler,
    /// `executor`: the per-node clock strategies.
    ClockStrategy,
    /// `register`: Algorithm S, inside `C(A, ε)`.
    Algorithm,
    /// `register`: the closed-loop workload component.
    Workload,
    /// `core`: `hide(C(A, ε))`, self time (the algorithm is a child).
    ClockSim,
    /// `core`: the send buffers `S_{ij,ε}`.
    SendBuffer,
    /// `core`: the receive buffers `hide(R_{ji,ε})`.
    RecvBuffer,
    /// `net`: the clock channels.
    Channel,
    /// `obs`: the `EngineMetrics` observer.
    Observer,
}

const LAYERS: usize = 9;

struct Tally {
    /// Every call, timed or only counted.
    calls: [Cell<u64>; LAYERS],
    /// Calls that were timed (all but `classify`).
    timed_calls: [Cell<u64>; LAYERS],
    /// Wrapped calls that completed directly inside a call of the layer.
    child_calls: [Cell<u64>; LAYERS],
    self_ns: [Cell<u64>; LAYERS],
    /// Elapsed time and count of the wrappers that completed inside the
    /// one currently running.
    children: Cell<(u64, u64)>,
}

thread_local! {
    static TALLY: Tally = const {
        Tally {
            calls: [const { Cell::new(0) }; LAYERS],
            timed_calls: [const { Cell::new(0) }; LAYERS],
            child_calls: [const { Cell::new(0) }; LAYERS],
            self_ns: [const { Cell::new(0) }; LAYERS],
            children: Cell::new((0, 0)),
        }
    };
}

fn charge<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    TALLY.with(|t| {
        let (outer_ns, outer_calls) = t.children.replace((0, 0));
        let start = Instant::now();
        let result = f();
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let (child_ns, child_calls) = t.children.get();
        let i = layer as usize;
        t.calls[i].set(t.calls[i].get() + 1);
        t.timed_calls[i].set(t.timed_calls[i].get() + 1);
        t.child_calls[i].set(t.child_calls[i].get() + child_calls);
        t.self_ns[i].set(t.self_ns[i].get() + elapsed.saturating_sub(child_ns));
        t.children.set((outer_ns + elapsed, outer_calls + 1));
        result
    })
}

/// Counts a call without timing it. `classify` is the engine's routing
/// predicate: a few nanoseconds of work, called on every component that
/// shares the action's name, tens of millions of times a run. A 50 ns
/// timer cannot resolve it and would drown the run, so its time stays
/// with the caller — the engine, whose routing decides how often it runs.
fn count(layer: Layer) {
    TALLY.with(|t| {
        let i = layer as usize;
        t.calls[i].set(t.calls[i].get() + 1);
    });
}

/// What timing one wrapped call costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallCost {
    /// Nanoseconds that fall inside the call's own measured interval.
    pub inside_ns: f64,
    /// Nanoseconds that fall outside it, on the caller.
    pub outside_ns: f64,
}

impl CallCost {
    /// The cost per call given what timing `calls` calls added to a run
    /// in all (`overhead_s`: the wrapped run's wall minus the plain run's,
    /// same seed), split inside/outside in the proportion an empty wrapped
    /// call shows on this thread. Resets the tally.
    #[must_use]
    pub fn from_overhead(overhead_s: f64, calls: u64) -> CallCost {
        const PROBES: u32 = 200_000;
        let _ = take();
        let start = Instant::now();
        for _ in 0..PROBES {
            charge(Layer::Scheduler, || std::hint::black_box(()));
        }
        let total_ns = start.elapsed().as_nanos() as f64;
        let inside_share = take().self_ns[Layer::Scheduler as usize] as f64 / total_ns.max(1.0);
        let per_call_ns = overhead_s.max(0.0) * 1e9 / calls.max(1) as f64;
        CallCost {
            inside_ns: per_call_ns * inside_share,
            outside_ns: per_call_ns * (1.0 - inside_share),
        }
    }
}

/// Calls and self time per layer, as read by [`take`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    calls: [u64; LAYERS],
    timed_calls: [u64; LAYERS],
    child_calls: [u64; LAYERS],
    self_ns: [u64; LAYERS],
}

impl LayerTotals {
    /// Calls charged to `layer`.
    #[must_use]
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Timed calls of all layers together.
    #[must_use]
    pub fn timed_calls(&self) -> u64 {
        self.timed_calls.iter().sum()
    }

    /// Self seconds of `layer`, with the cost of timing taken out: its own
    /// calls' inside part and its children's outside part.
    #[must_use]
    pub fn seconds(&self, layer: Layer, cost: CallCost) -> f64 {
        let i = layer as usize;
        let timing = self.timed_calls[i] as f64 * cost.inside_ns
            + self.child_calls[i] as f64 * cost.outside_ns;
        (self.self_ns[i] as f64 - timing).max(0.0) / 1e9
    }

    /// Seconds of an `engine.run` that took `run_s` which no wrapped layer
    /// accounts for — the engine's own time — with the outside part of
    /// every call the engine made taken out.
    #[must_use]
    pub fn engine_self_seconds(&self, run_s: f64, cost: CallCost) -> f64 {
        let wrapped_ns = self.self_ns.iter().sum::<u64>() as f64;
        let top_level_calls = self.timed_calls() - self.child_calls.iter().sum::<u64>();
        (run_s - (wrapped_ns + top_level_calls as f64 * cost.outside_ns) / 1e9).max(0.0)
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &LayerTotals) {
        for i in 0..LAYERS {
            self.calls[i] += other.calls[i];
            self.timed_calls[i] += other.timed_calls[i];
            self.child_calls[i] += other.child_calls[i];
            self.self_ns[i] += other.self_ns[i];
        }
    }
}

/// Reads this thread's tally and resets it to zero.
#[must_use]
pub fn take() -> LayerTotals {
    TALLY.with(|t| {
        t.children.set((0, 0));
        let mut totals = LayerTotals::default();
        for i in 0..LAYERS {
            totals.calls[i] = t.calls[i].replace(0);
            totals.timed_calls[i] = t.timed_calls[i].replace(0);
            totals.child_calls[i] = t.child_calls[i].replace(0);
            totals.self_ns[i] = t.self_ns[i].replace(0);
        }
        totals
    })
}

/// A delegating wrapper charging every call to one [`Layer`]. It keeps the
/// wrapped value's name, state type and every hint, so a system assembled
/// from wrapped parts records the execution the plain system records.
pub struct Spanned<T> {
    inner: T,
    layer: Layer,
}

impl<T> Spanned<T> {
    /// Wraps `inner`, charging its calls to `layer`.
    pub fn new(inner: T, layer: Layer) -> Self {
        Spanned { inner, layer }
    }
}

impl<C: TimedComponent> TimedComponent for Spanned<C> {
    type Action = C::Action;
    type State = C::State;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn initial(&self) -> C::State {
        self.inner.initial()
    }

    fn classify(&self, a: &C::Action) -> Option<ActionKind> {
        count(self.layer);
        self.inner.classify(a)
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        self.inner.action_names()
    }

    fn step(&self, s: &C::State, a: &C::Action, now: Time) -> Option<C::State> {
        charge(self.layer, || self.inner.step(s, a, now))
    }

    fn enabled(&self, s: &C::State, now: Time) -> Vec<C::Action> {
        charge(self.layer, || self.inner.enabled(s, now))
    }

    fn deadline(&self, s: &C::State, now: Time) -> Option<Time> {
        charge(self.layer, || self.inner.deadline(s, now))
    }

    fn advance(&self, s: &C::State, now: Time, target: Time) -> Option<C::State> {
        charge(self.layer, || self.inner.advance(s, now, target))
    }

    fn wake_hint(&self, s: &C::State, now: Time) -> WakeHint {
        charge(self.layer, || self.inner.wake_hint(s, now))
    }
}

impl<C: ClockComponent> ClockComponent for Spanned<C> {
    type Action = C::Action;
    type State = C::State;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn initial(&self) -> C::State {
        self.inner.initial()
    }

    fn classify(&self, a: &C::Action) -> Option<ActionKind> {
        count(self.layer);
        self.inner.classify(a)
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        self.inner.action_names()
    }

    fn step(&self, s: &C::State, a: &C::Action, clock: Time) -> Option<C::State> {
        charge(self.layer, || self.inner.step(s, a, clock))
    }

    fn enabled(&self, s: &C::State, clock: Time) -> Vec<C::Action> {
        charge(self.layer, || self.inner.enabled(s, clock))
    }

    fn clock_deadline(&self, s: &C::State, clock: Time) -> Option<Time> {
        charge(self.layer, || self.inner.clock_deadline(s, clock))
    }

    fn advance(&self, s: &C::State, clock: Time, target: Time) -> Option<C::State> {
        charge(self.layer, || self.inner.advance(s, clock, target))
    }

    fn clock_wake(&self, s: &C::State, clock: Time) -> WakeHint {
        charge(self.layer, || self.inner.clock_wake(s, clock))
    }
}

impl<S: ClockStrategy> ClockStrategy for Spanned<S> {
    fn next_clock(&mut self, ctx: AdvanceCtx) -> Time {
        charge(self.layer, || self.inner.next_clock(ctx))
    }

    fn when_reaches(&self, now: Time, clock: Time, target_clock: Time) -> Time {
        charge(self.layer, || {
            self.inner.when_reaches(now, clock, target_clock)
        })
    }

    fn checkpoint(&self) -> ClockCheckpoint {
        self.inner.checkpoint()
    }

    fn restore(&mut self, checkpoint: &ClockCheckpoint) {
        self.inner.restore(checkpoint);
    }
}

impl<A, S: Scheduler<A>> Scheduler<A> for Spanned<S> {
    fn pick(&mut self, now: Time, candidates: &[A]) -> usize {
        charge(self.layer, || self.inner.pick(now, candidates))
    }

    fn pick_with_origins(&mut self, now: Time, candidates: &[A], origins: &[usize]) -> usize {
        charge(self.layer, || {
            self.inner.pick_with_origins(now, candidates, origins)
        })
    }

    fn checkpoint(&self) -> SchedulerCheckpoint {
        self.inner.checkpoint()
    }

    fn restore(&mut self, checkpoint: &SchedulerCheckpoint) {
        self.inner.restore(checkpoint);
    }
}

impl<A: Action, O: Observer<A>> Observer<A> for Spanned<O> {
    fn on_candidates(&mut self, now: Time, depth: usize) {
        charge(self.layer, || self.inner.on_candidates(now, depth));
    }

    fn on_clock_read(&mut self, read: ClockRead) {
        charge(self.layer, || self.inner.on_clock_read(read));
    }

    fn on_event(&mut self, index: usize, event: &TimedEvent<A>) {
        charge(self.layer, || self.inner.on_event(index, event));
    }

    fn on_advance(&mut self, from: Time, to: Time) {
        charge(self.layer, || self.inner.on_advance(from, to));
    }

    fn on_checkpoint(&mut self, events: usize) {
        self.inner.on_checkpoint(events);
    }

    fn on_restore(&mut self, events: &[TimedEvent<A>]) {
        self.inner.on_restore(events);
    }
}
