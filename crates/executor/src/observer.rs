//! Engine observation points: a zero-cost-when-detached hook trait.
//!
//! An [`Observer`] is attached at build time
//! ([`EngineBuilder::observer`](crate::EngineBuilder::observer)) and is
//! invoked by both [`Engine`](crate::Engine) and
//! [`ReferenceEngine`](crate::ReferenceEngine) at the same six points. Four
//! belong to the run loop and come in the same order on both engines:
//!
//! 1. [`on_candidates`](Observer::on_candidates) — after the candidate set
//!    is assembled and found non-empty, before the scheduler picks;
//! 2. [`on_clock_read`](Observer::on_clock_read) — whenever a node clock is
//!    read: once per fired event that touches a clock node (the `c_i(α)`
//!    reading recorded with the event), and once per node per time advance
//!    (the strategy's freshly validated clock value);
//! 3. [`on_event`](Observer::on_event) — after an action fires, with the
//!    exact [`TimedEvent`] appended to the execution and its index there;
//! 4. [`on_advance`](Observer::on_advance) — at the start of every `ν`
//!    time-passage step.
//!
//! Two belong to the checkpoint machinery and fire outside the loop:
//!
//! 5. [`on_checkpoint`](Observer::on_checkpoint) — when the engine captures
//!    a checkpoint, with the length of the prefix recorded so far;
//! 6. [`on_restore`](Observer::on_restore) — when the engine is rewound to
//!    a checkpoint, with the restored prefix, so a stateful observer can
//!    rebuild what it would have accumulated by watching that prefix.
//!
//! Observers are strictly *read-only* taps: they cannot influence
//! scheduling, component state or the recorded execution, so a run with
//! observers attached produces an [`Execution`](psync_automata::Execution)
//! bit-identical to a detached run (pinned by the `engine_equiv`
//! integration tests). With no observer attached the hook sites iterate an
//! empty vector — no allocation, no branch beyond the loop header.

use psync_automata::{Action, TimedEvent};
use psync_time::{Duration, Time};

/// One observed node-clock reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockRead {
    /// Index of the clock node (insertion order).
    pub node: usize,
    /// Real time at the moment of the reading.
    pub now: Time,
    /// The node clock's value.
    pub clock: Time,
    /// The node's skew bound `ε` (so a `C_ε` monitor is self-configuring).
    pub eps: Duration,
}

/// A read-only tap on an engine run.
///
/// All methods have empty default bodies: implement only the points you
/// care about. Hooks are called synchronously from the run loop, so keep
/// them cheap; anything heavier belongs in a post-run pass over the
/// recorded execution.
pub trait Observer<A: Action> {
    /// The candidate set was assembled and is non-empty; the scheduler is
    /// about to pick among `depth` enabled actions.
    fn on_candidates(&mut self, now: Time, depth: usize) {
        let _ = (now, depth);
    }

    /// A node clock was read (see [`ClockRead`]).
    fn on_clock_read(&mut self, read: ClockRead) {
        let _ = read;
    }

    /// An action fired; `event` is exactly what was appended to the
    /// execution (clock reading included), and `index` is its position in
    /// the arena-backed event log — both engines report the same index for
    /// the same event, so an observer can record indices instead of
    /// cloning events and resolve them against the finished execution.
    ///
    /// # Examples
    ///
    /// ```
    /// use psync_automata::toys::Beeper;
    /// use psync_automata::{Action, TimedEvent};
    /// use psync_executor::{Engine, Observer};
    /// use psync_time::{Duration, Time};
    ///
    /// /// Remembers arena indices of visible events, not the events.
    /// #[derive(Default)]
    /// struct VisibleIndices(Vec<usize>);
    /// impl<A: Action> Observer<A> for VisibleIndices {
    ///     fn on_event(&mut self, index: usize, event: &TimedEvent<A>) {
    ///         if event.kind.is_visible() {
    ///             self.0.push(index);
    ///         }
    ///     }
    /// }
    ///
    /// let ms = Duration::from_millis;
    /// let mut engine = Engine::builder()
    ///     .timed(Beeper::new(ms(5)))
    ///     .observer(VisibleIndices::default())
    ///     .horizon(Time::ZERO + ms(12))
    ///     .build();
    /// let run = engine.run()?;
    /// // An index recorded by the hook resolves into the execution:
    /// assert_eq!(run.execution.events()[0].now, Time::ZERO + ms(5));
    /// # Ok::<(), psync_executor::EngineError>(())
    /// ```
    fn on_event(&mut self, index: usize, event: &TimedEvent<A>) {
        let _ = (index, event);
    }

    /// Time is about to pass from `from` to `to` (a `ν` step).
    fn on_advance(&mut self, from: Time, to: Time) {
        let _ = (from, to);
    }

    /// The engine captured a checkpoint; `events` is the length of the
    /// execution prefix recorded so far. Like the other hooks, this is a
    /// read-only notification — checkpointing must not perturb the run.
    fn on_checkpoint(&mut self, events: usize) {
        let _ = events;
    }

    /// The engine was restored from a checkpoint whose execution prefix is
    /// `events` (every recorded event, oldest first). Stateful observers
    /// that accumulate per-run context (e.g. in-flight message maps) use
    /// the prefix to rebuild exactly the state they would have reached by
    /// observing the prefix live; counters that were externally restored
    /// should not be re-derived here.
    fn on_restore(&mut self, events: &[TimedEvent<A>]) {
        let _ = events;
    }
}

/// An observer that ignores everything — the baseline for overhead
/// measurements (`observer_overhead` bench) and a placeholder where an
/// observer slot must be filled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl<A: Action> Observer<A> for NoopObserver {}
