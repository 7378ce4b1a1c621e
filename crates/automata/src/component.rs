//! The timed automaton model (Definition 2.1).

use core::any::Any;
use core::fmt::Debug;

use psync_time::Time;

use crate::{Action, ActionKind};

/// A timed automaton (Definition 2.1 of the paper), presented as a
/// *component*: the `now` state component is owned by the execution engine
/// and passed to every call, and the time-passage action `ν` is the
/// dedicated [`advance`](TimedComponent::advance) operation.
///
/// # Relation to the paper's axioms
///
/// * **S1** (`now = 0` in start states) — the engine starts every run at
///   [`Time::ZERO`].
/// * **S2** (non-`ν` actions leave `now` unchanged) — [`step`] cannot touch
///   `now`; it only transforms the `tbasic` part of the state.
/// * **S3** (`ν` strictly increases `now`) — the engine only calls
///   [`advance`] with `target > now`.
/// * **S4/S5** (transitivity and density of time passage) — guaranteed when
///   the implementation obeys the *deadline discipline*: `advance(s, now,
///   target)` must succeed exactly when `target ≤ deadline(s, now)` and the
///   resulting state must again allow advancing to any smaller intermediate
///   time first. All library components satisfy this because their
///   time-dependent state stores *absolute* times; `psync-verify` provides
///   randomized probes for user components.
///
/// Input actions must be *input-enabled*: [`step`] on an [`ActionKind::Input`]
/// action in the component's signature must never return `None`.
///
/// [`step`]: TimedComponent::step
/// [`advance`]: TimedComponent::advance
///
/// # Examples
///
/// See [`crate::toys::Beeper`] for a complete small implementation.
pub trait TimedComponent: 'static {
    /// The action alphabet of the system this component is part of.
    type Action: Action;
    /// The `tbasic` part of the component's state (everything except `now`).
    type State: Clone + Debug + 'static;

    /// A human-readable name for diagnostics.
    fn name(&self) -> String;

    /// The start state (`start(A)`; the engine supplies `now = 0`).
    fn initial(&self) -> Self::State;

    /// Classifies `a` in this component's signature, or `None` if `a` is not
    /// an action of this component.
    fn classify(&self, a: &Self::Action) -> Option<ActionKind>;

    /// The [`Action::name`]s of every action in this component's signature,
    /// or `None` when the signature cannot be enumerated statically.
    ///
    /// This is a *routing hint*, not part of the behaviour: the execution
    /// engine uses it to consult only interested components when an action
    /// fires instead of broadcasting to everyone. The contract is
    /// one-sided — whenever `classify(a)` is `Some`, `a.name()` must appear
    /// in the returned list — but the list may safely over-approximate
    /// (contain names the component never actually takes). Returning `None`
    /// (the default) routes every action to the component, which is always
    /// correct, merely slower.
    ///
    /// Names are the coarse half of routing. The fine half sits on the
    /// action, not here: [`Action::route_key`] lets an action say *whose*
    /// it is (the edge of a `SENDMSG`, the node of a `READ`), under the
    /// contract that two actions with the same name and the same key are
    /// in the same components' signatures — so `classify` must not tell
    /// apart two actions that share both. A component (or a wrapper such
    /// as [`Hidden`]) has nothing to implement for it.
    fn action_names(&self) -> Option<Vec<&'static str>> {
        None
    }

    /// Applies the non-time-passage action `a` at time `now`, returning the
    /// successor state, or `None` if `a` is not enabled in `s`.
    ///
    /// For input actions in the signature this must always return `Some`
    /// (input-enabledness); the engine reports a model error otherwise.
    fn step(&self, s: &Self::State, a: &Self::Action, now: Time) -> Option<Self::State>;

    /// The locally controlled (output and internal) actions enabled in `s`
    /// at time `now`.
    ///
    /// Every returned action must satisfy
    /// `classify(a).is_some_and(ActionKind::is_locally_controlled)` and
    /// `step(s, a, now).is_some()`.
    fn enabled(&self, s: &Self::State, now: Time) -> Vec<Self::Action>;

    /// The latest absolute time to which `ν` may advance from `(s, now)`, or
    /// `None` when time may pass without bound.
    ///
    /// This encodes the precondition of the component's `ν` transitions —
    /// for example the channel automaton of Figure 1 refuses to let time
    /// pass beyond `t + d₂` for any undelivered message `(m, t)`.
    fn deadline(&self, s: &Self::State, now: Time) -> Option<Time>;

    /// Applies the time-passage action `ν`, advancing from `now` to `target`
    /// (`target > now`), or returns `None` if the advance is forbidden.
    ///
    /// Must succeed whenever `target ≤ deadline(s, now)`. The default
    /// implementation — correct for every component whose state stores
    /// absolute times — leaves the state unchanged when within the deadline.
    fn advance(&self, s: &Self::State, now: Time, target: Time) -> Option<Self::State> {
        debug_assert!(target > now, "ν must strictly increase now (axiom S3)");
        match self.deadline(s, now) {
            Some(d) if target > d => None,
            _ => Some(s.clone()),
        }
    }

    /// How far time may pass before this component must be re-examined — the
    /// scheduling hint behind the engine's O(log n) wake-up heap.
    ///
    /// Like [`action_names`](TimedComponent::action_names) this is a *hint*,
    /// not behaviour, but the contract is load-bearing when given:
    ///
    /// * [`WakeHint::At(t)`](WakeHint::At) promises that for every target
    ///   `v` with `now < v < t`, `advance(s, now, v)` succeeds with a state
    ///   behaviourally identical to `s`, and that `enabled`, `deadline` and
    ///   `wake_hint` evaluated at `v` return exactly what they return at
    ///   `now`. (A hint `t ≤ now` makes no promise at all, like `Always`.)
    /// * [`WakeHint::Never`] is the same promise for *every* `v > now`:
    ///   nothing about the component depends on time in its current state.
    /// * [`WakeHint::Always`] (the default) promises nothing — the engine
    ///   re-queries after every time advance, the pre-heap behaviour.
    ///
    /// Components whose time-dependent state stores absolute times (the
    /// library's channels and timers) return the earliest such stored time.
    /// A wrong hint silently desynchronizes the engine's caches, exactly
    /// like a wrong `action_names` list — when in doubt, keep the default.
    fn wake_hint(&self, s: &Self::State, now: Time) -> WakeHint {
        let _ = (s, now);
        WakeHint::Always
    }
}

/// A component's promise about its own time-dependence, returned by
/// [`TimedComponent::wake_hint`] (and, in clock time, by
/// [`ClockComponent::clock_wake`](crate::ClockComponent::clock_wake)).
///
/// See [`TimedComponent::wake_hint`] for the precise contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeHint {
    /// No promise: re-query the component after every time advance.
    Always,
    /// The component is time-independent strictly before this absolute time.
    At(Time),
    /// The component is time-independent in its current state, forever.
    Never,
}

impl WakeHint {
    /// Combines the hints of two composed parts: the composite must wake
    /// when *either* part does, so `Always` dominates, `Never` is the
    /// identity, and two wake times combine to the earlier one.
    #[must_use]
    pub fn earlier(self, other: WakeHint) -> WakeHint {
        match (self, other) {
            (WakeHint::Always, _) | (_, WakeHint::Always) => WakeHint::Always,
            (WakeHint::Never, h) | (h, WakeHint::Never) => h,
            (WakeHint::At(a), WakeHint::At(b)) => WakeHint::At(a.min(b)),
        }
    }

    /// Folds any number of hints with [`WakeHint::earlier`], starting
    /// from the identity `Never` — the composite hint of a component
    /// assembled from many independently-timed parts.
    ///
    /// ```
    /// use psync_automata::WakeHint;
    /// use psync_time::{Duration, Time};
    ///
    /// let a = Time::ZERO + Duration::from_millis(3);
    /// let b = Time::ZERO + Duration::from_millis(7);
    /// assert_eq!(
    ///     WakeHint::earliest([WakeHint::At(b), WakeHint::Never, WakeHint::At(a)]),
    ///     WakeHint::At(a)
    /// );
    /// assert_eq!(WakeHint::earliest([]), WakeHint::Never);
    /// ```
    #[must_use]
    pub fn earliest(hints: impl IntoIterator<Item = WakeHint>) -> WakeHint {
        hints.into_iter().fold(WakeHint::Never, WakeHint::earlier)
    }
}

/// Object-safe view of a [`TimedComponent`] with its state type erased, so
/// heterogeneous components over the same action alphabet can be composed.
pub(crate) trait DynTimed<A: Action> {
    fn initial_dyn(&self) -> DynState;
    fn classify_dyn(&self, a: &A) -> Option<ActionKind>;
    fn action_names_dyn(&self) -> Option<Vec<&'static str>>;
    fn step_dyn(&self, s: &DynState, a: &A, now: Time) -> Option<DynState>;
    fn enabled_dyn(&self, s: &DynState, now: Time) -> Vec<A>;
    fn deadline_dyn(&self, s: &DynState, now: Time) -> Option<Time>;
    fn advance_dyn(&self, s: &DynState, now: Time, target: Time) -> Option<DynState>;
    fn wake_hint_dyn(&self, s: &DynState, now: Time) -> WakeHint;
}

/// A type-erased component state.
///
/// Produced and consumed by [`ComponentBox`]; use
/// [`DynState::downcast_ref`] to inspect the concrete state in tests and
/// diagnostics.
#[derive(Debug)]
pub struct DynState(Box<dyn AnyState>);

impl DynState {
    /// Views the erased state as a concrete `S`, if that is its real type.
    #[must_use]
    pub fn downcast_ref<S: 'static>(&self) -> Option<&S> {
        self.0.as_any().downcast_ref::<S>()
    }

    /// Erases a concrete state value.
    pub(crate) fn of<S: Clone + Debug + 'static>(s: S) -> DynState {
        DynState(Box::new(s))
    }
}

impl Clone for DynState {
    fn clone(&self) -> Self {
        DynState(self.0.clone_box())
    }
}

trait AnyState: Any + Debug {
    fn clone_box(&self) -> Box<dyn AnyState>;
    fn as_any(&self) -> &dyn Any;
}

impl<S: Clone + Debug + 'static> AnyState for S {
    fn clone_box(&self) -> Box<dyn AnyState> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct Eraser<C>(C);

impl<A: Action, C: TimedComponent<Action = A>> DynTimed<A> for Eraser<C> {
    fn initial_dyn(&self) -> DynState {
        DynState(Box::new(self.0.initial()))
    }

    fn classify_dyn(&self, a: &A) -> Option<ActionKind> {
        self.0.classify(a)
    }

    fn action_names_dyn(&self) -> Option<Vec<&'static str>> {
        self.0.action_names()
    }

    fn step_dyn(&self, s: &DynState, a: &A, now: Time) -> Option<DynState> {
        let s = expect_state::<C>(s);
        self.0.step(s, a, now).map(|s2| DynState(Box::new(s2)))
    }

    fn enabled_dyn(&self, s: &DynState, now: Time) -> Vec<A> {
        self.0.enabled(expect_state::<C>(s), now)
    }

    fn deadline_dyn(&self, s: &DynState, now: Time) -> Option<Time> {
        self.0.deadline(expect_state::<C>(s), now)
    }

    fn advance_dyn(&self, s: &DynState, now: Time, target: Time) -> Option<DynState> {
        self.0
            .advance(expect_state::<C>(s), now, target)
            .map(|s2| DynState(Box::new(s2)))
    }

    fn wake_hint_dyn(&self, s: &DynState, now: Time) -> WakeHint {
        self.0.wake_hint(expect_state::<C>(s), now)
    }
}

fn expect_state<C: TimedComponent>(s: &DynState) -> &C::State {
    s.downcast_ref::<C::State>()
        .expect("DynState passed to a component of a different type")
}

/// A boxed, type-erased [`TimedComponent`] — the unit from which the
/// execution engine builds compositions (Definition 2.2).
///
/// # Examples
///
/// ```
/// use psync_automata::toys::Beeper;
/// use psync_automata::ComponentBox;
/// use psync_time::{Duration, Time};
///
/// let boxed = ComponentBox::new(Beeper::new(Duration::from_millis(1)));
/// let s0 = boxed.initial();
/// assert_eq!(boxed.deadline(&s0, Time::ZERO), Some(Time::ZERO + Duration::from_millis(1)));
/// ```
pub struct ComponentBox<A: Action> {
    inner: Box<dyn DynTimed<A>>,
    /// The diagnostic name, computed once at boxing time. Names are
    /// immutable, so caching them here lets [`ComponentBox::name`] hand out
    /// `&str` instead of allocating a fresh `String` per call — which
    /// matters to the execution engine, whose error and event paths read
    /// names in hot loops.
    name: std::sync::Arc<str>,
}

impl<A: Action> ComponentBox<A> {
    /// Boxes a concrete component.
    #[must_use]
    pub fn new<C: TimedComponent<Action = A>>(component: C) -> Self {
        let name = std::sync::Arc::from(component.name().as_str());
        ComponentBox {
            inner: Box::new(Eraser(component)),
            name,
        }
    }

    /// The component's diagnostic name (cached at boxing time).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cached diagnostic name as a shareable `Arc<str>` — the
    /// execution engine interns this into every emitted event without
    /// further allocation.
    #[must_use]
    pub fn name_arc(&self) -> std::sync::Arc<str> {
        std::sync::Arc::clone(&self.name)
    }

    /// The component's start state.
    #[must_use]
    pub fn initial(&self) -> DynState {
        self.inner.initial_dyn()
    }

    /// Classifies `a` in the component's signature.
    #[must_use]
    pub fn classify(&self, a: &A) -> Option<ActionKind> {
        self.inner.classify_dyn(a)
    }

    /// The signature's action names, when statically enumerable
    /// (see [`TimedComponent::action_names`]).
    #[must_use]
    pub fn action_names(&self) -> Option<Vec<&'static str>> {
        self.inner.action_names_dyn()
    }

    /// Applies a non-time-passage action.
    #[must_use]
    pub fn step(&self, s: &DynState, a: &A, now: Time) -> Option<DynState> {
        self.inner.step_dyn(s, a, now)
    }

    /// Enabled locally controlled actions.
    #[must_use]
    pub fn enabled(&self, s: &DynState, now: Time) -> Vec<A> {
        self.inner.enabled_dyn(s, now)
    }

    /// Latest time to which `ν` may advance.
    #[must_use]
    pub fn deadline(&self, s: &DynState, now: Time) -> Option<Time> {
        self.inner.deadline_dyn(s, now)
    }

    /// Applies `ν` from `now` to `target`.
    #[must_use]
    pub fn advance(&self, s: &DynState, now: Time, target: Time) -> Option<DynState> {
        self.inner.advance_dyn(s, now, target)
    }

    /// The component's time-dependence promise
    /// (see [`TimedComponent::wake_hint`]).
    #[must_use]
    pub fn wake_hint(&self, s: &DynState, now: Time) -> WakeHint {
        self.inner.wake_hint_dyn(s, now)
    }
}

/// A [`ComponentBox`] is itself a [`TimedComponent`] (over the erased
/// [`DynState`]), so adapters like [`Hidden`] and the clock/MMT
/// transformations compose over already-boxed components.
impl<A: Action> TimedComponent for ComponentBox<A> {
    type Action = A;
    type State = DynState;

    fn name(&self) -> String {
        ComponentBox::name(self).to_string()
    }

    fn initial(&self) -> DynState {
        ComponentBox::initial(self)
    }

    fn classify(&self, a: &A) -> Option<ActionKind> {
        ComponentBox::classify(self, a)
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        ComponentBox::action_names(self)
    }

    fn step(&self, s: &DynState, a: &A, now: Time) -> Option<DynState> {
        ComponentBox::step(self, s, a, now)
    }

    fn enabled(&self, s: &DynState, now: Time) -> Vec<A> {
        ComponentBox::enabled(self, s, now)
    }

    fn deadline(&self, s: &DynState, now: Time) -> Option<Time> {
        ComponentBox::deadline(self, s, now)
    }

    fn advance(&self, s: &DynState, now: Time, target: Time) -> Option<DynState> {
        ComponentBox::advance(self, s, now, target)
    }

    fn wake_hint(&self, s: &DynState, now: Time) -> WakeHint {
        ComponentBox::wake_hint(self, s, now)
    }
}

impl<A: Action> Debug for ComponentBox<A> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ComponentBox")
            .field("name", &self.name())
            .finish()
    }
}

/// The hiding operator: reclassifies selected output actions as internal
/// (Section 2.1), removing them from the component's visible traces.
///
/// The paper hides the `SENDMSG`/`RECVMSG` edge-interface actions when
/// assembling the distributed system `D_T` (Section 3.3); `psync-net` uses
/// `Hidden` for exactly that purpose.
///
/// # Examples
///
/// ```
/// use psync_automata::toys::{Beeper, BeepAction};
/// use psync_automata::{ActionKind, Hidden, TimedComponent};
/// use psync_time::Duration;
///
/// let silent = Hidden::new(Beeper::new(Duration::from_millis(1)), |a: &BeepAction| {
///     matches!(a, BeepAction::Beep { .. })
/// });
/// assert_eq!(
///     silent.classify(&BeepAction::Beep { src: 0, seq: 0 }),
///     Some(ActionKind::Internal)
/// );
/// ```
pub struct Hidden<C, F> {
    inner: C,
    hide: F,
}

impl<C, F> Hidden<C, F> {
    /// Wraps `inner`, hiding every output action for which `hide` is true.
    pub fn new(inner: C, hide: F) -> Self {
        Hidden { inner, hide }
    }
}

impl<C, F> TimedComponent for Hidden<C, F>
where
    C: TimedComponent,
    F: Fn(&C::Action) -> bool + 'static,
{
    type Action = C::Action;
    type State = C::State;

    fn name(&self) -> String {
        format!("hide({})", self.inner.name())
    }

    fn initial(&self) -> Self::State {
        self.inner.initial()
    }

    fn classify(&self, a: &Self::Action) -> Option<ActionKind> {
        match self.inner.classify(a) {
            Some(ActionKind::Output) if (self.hide)(a) => Some(ActionKind::Internal),
            other => other,
        }
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        // Hiding reclassifies actions; it never changes signature
        // membership, so the inner hint stays exact.
        self.inner.action_names()
    }

    fn step(&self, s: &Self::State, a: &Self::Action, now: Time) -> Option<Self::State> {
        self.inner.step(s, a, now)
    }

    fn enabled(&self, s: &Self::State, now: Time) -> Vec<Self::Action> {
        self.inner.enabled(s, now)
    }

    fn deadline(&self, s: &Self::State, now: Time) -> Option<Time> {
        self.inner.deadline(s, now)
    }

    fn advance(&self, s: &Self::State, now: Time, target: Time) -> Option<Self::State> {
        self.inner.advance(s, now, target)
    }

    fn wake_hint(&self, s: &Self::State, now: Time) -> WakeHint {
        // Hiding never changes timing behaviour, only visibility.
        self.inner.wake_hint(s, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toys::{BeepAction, Beeper};
    use psync_time::Duration;

    fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn component_box_round_trips_behaviour() {
        let boxed = ComponentBox::new(Beeper::new(ms(5)));
        let s0 = boxed.initial();
        assert!(boxed.enabled(&s0, Time::ZERO).is_empty());
        assert_eq!(boxed.deadline(&s0, Time::ZERO), Some(Time::ZERO + ms(5)));

        let at = Time::ZERO + ms(5);
        let s1 = boxed.advance(&s0, Time::ZERO, at).expect("within deadline");
        let beeps = boxed.enabled(&s1, at);
        assert_eq!(beeps, vec![BeepAction::Beep { src: 0, seq: 0 }]);
        let s2 = boxed.step(&s1, &beeps[0], at).expect("enabled");
        assert_eq!(boxed.deadline(&s2, at), Some(at + ms(5)));
    }

    #[test]
    fn advance_past_deadline_is_refused() {
        let boxed = ComponentBox::new(Beeper::new(ms(5)));
        let s0 = boxed.initial();
        assert!(boxed.advance(&s0, Time::ZERO, Time::ZERO + ms(6)).is_none());
    }

    #[test]
    fn dyn_state_downcast() {
        let boxed = ComponentBox::new(Beeper::new(ms(5)));
        let s0 = boxed.initial();
        assert!(s0.downcast_ref::<crate::toys::BeeperState>().is_some());
        assert!(s0.downcast_ref::<u32>().is_none());
    }

    #[test]
    fn hidden_reclassifies_only_matching_outputs() {
        let h = Hidden::new(
            Beeper::new(ms(1)),
            |a: &BeepAction| matches!(a, BeepAction::Beep { seq, .. } if seq % 2 == 0),
        );
        assert_eq!(
            h.classify(&BeepAction::Beep { src: 0, seq: 0 }),
            Some(ActionKind::Internal)
        );
        assert_eq!(
            h.classify(&BeepAction::Beep { src: 0, seq: 1 }),
            Some(ActionKind::Output)
        );
    }

    #[test]
    fn hidden_preserves_dynamics() {
        let plain = Beeper::new(ms(2));
        let hidden = Hidden::new(Beeper::new(ms(2)), |_: &BeepAction| true);
        let (s0p, s0h) = (plain.initial(), hidden.initial());
        let at = Time::ZERO + ms(2);
        assert_eq!(
            plain.deadline(&s0p, Time::ZERO),
            hidden.deadline(&s0h, Time::ZERO)
        );
        assert_eq!(plain.enabled(&s0p, at), hidden.enabled(&s0h, at));
    }
}
