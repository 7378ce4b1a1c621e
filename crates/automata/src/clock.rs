//! The clock automaton model (Definitions 2.3–2.7).

use core::fmt::Debug;

use psync_time::{Duration, Time};

use crate::component::DynState;
use crate::{Action, ActionKind, WakeHint};

/// A clock automaton (Definition 2.3): a timed automaton with an extra
/// `clock` state component, whose transitions may depend on `clock` but
/// never on `now`.
///
/// As with [`TimedComponent`](crate::TimedComponent), the `clock` component
/// is owned by the execution engine (one clock per *node*, shared by all
/// clock components composed at that node — the clock-automaton composition
/// of Definition 2.7) and passed into every call. Because the trait never
/// receives `now`, every implementation is **ε-time independent**
/// (Definition 2.6) by construction: its transition relation cannot depend
/// on real time.
///
/// # Relation to the paper's axioms
///
/// * **C1** (`clock = 0` in start states) — the engine starts node clocks at
///   [`Time::ZERO`] (strategies may immediately skew them within `C_ε`).
/// * **C2** (non-`ν` actions leave `clock` unchanged) — [`step`] cannot
///   touch the clock.
/// * **C3** (`ν` strictly increases `clock`) — the engine's clock
///   strategies always advance the clock by at least one representable
///   instant per time-passage step.
/// * **C4** (density) — as for S5, guaranteed by the deadline discipline:
///   [`advance`] must succeed exactly when `target ≤ clock_deadline(s,
///   clock)`.
///
/// [`step`]: ClockComponent::step
/// [`advance`]: ClockComponent::advance
pub trait ClockComponent: 'static {
    /// The action alphabet of the system this component is part of.
    type Action: Action;
    /// The `cbasic` part of the state (everything except `now` and `clock`).
    type State: Clone + Debug + 'static;

    /// A human-readable name for diagnostics.
    fn name(&self) -> String;

    /// The start state (`clock = 0` is supplied by the engine, axiom C1).
    fn initial(&self) -> Self::State;

    /// Classifies `a` in this component's signature.
    fn classify(&self, a: &Self::Action) -> Option<ActionKind>;

    /// The [`Action::name`]s of every action in this component's signature,
    /// or `None` when the signature cannot be enumerated statically.
    ///
    /// Same routing-hint contract as
    /// [`TimedComponent::action_names`](crate::TimedComponent::action_names):
    /// whenever `classify(a)` is `Some`, `a.name()` must appear in the
    /// list; over-approximation is safe; `None` (the default) means the
    /// engine routes every action here. The [`Action::route_key`] contract
    /// binds `classify` here exactly as it does there.
    fn action_names(&self) -> Option<Vec<&'static str>> {
        None
    }

    /// The one [`Action::route_key`] of every action in the signature, if
    /// any: the contract of
    /// [`TimedComponent::signature_key`](crate::TimedComponent::signature_key).
    fn signature_key(&self) -> Option<u64> {
        None
    }

    /// Applies the non-time-passage action `a` when the node clock reads
    /// `clock`, or `None` if `a` is not enabled.
    fn step(&self, s: &Self::State, a: &Self::Action, clock: Time) -> Option<Self::State>;

    /// The locally controlled actions enabled in `s` at clock time `clock`.
    fn enabled(&self, s: &Self::State, clock: Time) -> Vec<Self::Action>;

    /// The latest *clock* value to which `ν` may advance, or `None` if the
    /// clock may advance without bound.
    ///
    /// This is the clock-time analogue of
    /// [`TimedComponent::deadline`](crate::TimedComponent::deadline): for
    /// example the receive buffer `R_{ji,ε}` of Figure 2 refuses to let the
    /// clock pass the send-timestamp `c` of any buffered message.
    fn clock_deadline(&self, s: &Self::State, clock: Time) -> Option<Time>;

    /// Applies `ν`, advancing the node clock from `clock` to `target`
    /// (`target > clock`), or `None` if forbidden.
    ///
    /// Must succeed whenever `target ≤ clock_deadline(s, clock)`. The
    /// default implementation leaves the state unchanged within deadline.
    fn advance(&self, s: &Self::State, clock: Time, target: Time) -> Option<Self::State> {
        debug_assert!(target > clock, "ν must strictly increase clock (axiom C3)");
        match self.clock_deadline(s, clock) {
            Some(d) if target > d => None,
            _ => Some(s.clone()),
        }
    }

    /// How far the *node clock* may advance before this component must be
    /// re-examined — [`TimedComponent::wake_hint`] in local clock time.
    ///
    /// The contract is the same promise with `clock` substituted for `now`:
    /// [`WakeHint::At(t)`](WakeHint::At) says `enabled`, `clock_deadline`,
    /// `advance` and `clock_wake` are unaffected by clock values strictly
    /// below `t`. The default, [`WakeHint::Always`], promises nothing.
    ///
    /// [`TimedComponent::wake_hint`]: crate::TimedComponent::wake_hint
    fn clock_wake(&self, s: &Self::State, clock: Time) -> WakeHint {
        let _ = (s, clock);
        WakeHint::Always
    }
}

/// Object-safe erased view of a [`ClockComponent`].
pub(crate) trait DynClock<A: Action> {
    fn initial_dyn(&self) -> DynState;
    fn classify_dyn(&self, a: &A) -> Option<ActionKind>;
    fn action_names_dyn(&self) -> Option<Vec<&'static str>>;
    fn signature_key_dyn(&self) -> Option<u64>;
    fn step_dyn(&self, s: &DynState, a: &A, clock: Time) -> Option<DynState>;
    fn enabled_dyn(&self, s: &DynState, clock: Time) -> Vec<A>;
    fn clock_deadline_dyn(&self, s: &DynState, clock: Time) -> Option<Time>;
    fn advance_dyn(&self, s: &DynState, clock: Time, target: Time) -> Option<DynState>;
    fn clock_wake_dyn(&self, s: &DynState, clock: Time) -> WakeHint;
}

struct Eraser<C>(C);

impl<A: Action, C: ClockComponent<Action = A>> DynClock<A> for Eraser<C> {
    fn initial_dyn(&self) -> DynState {
        DynState::of(self.0.initial())
    }

    fn classify_dyn(&self, a: &A) -> Option<ActionKind> {
        self.0.classify(a)
    }

    fn action_names_dyn(&self) -> Option<Vec<&'static str>> {
        self.0.action_names()
    }

    fn signature_key_dyn(&self) -> Option<u64> {
        self.0.signature_key()
    }

    fn step_dyn(&self, s: &DynState, a: &A, clock: Time) -> Option<DynState> {
        self.0.step(expect::<C>(s), a, clock).map(DynState::of)
    }

    fn enabled_dyn(&self, s: &DynState, clock: Time) -> Vec<A> {
        self.0.enabled(expect::<C>(s), clock)
    }

    fn clock_deadline_dyn(&self, s: &DynState, clock: Time) -> Option<Time> {
        self.0.clock_deadline(expect::<C>(s), clock)
    }

    fn advance_dyn(&self, s: &DynState, clock: Time, target: Time) -> Option<DynState> {
        self.0
            .advance(expect::<C>(s), clock, target)
            .map(DynState::of)
    }

    fn clock_wake_dyn(&self, s: &DynState, clock: Time) -> WakeHint {
        self.0.clock_wake(expect::<C>(s), clock)
    }
}

fn expect<C: ClockComponent>(s: &DynState) -> &C::State {
    s.downcast_ref::<C::State>()
        .expect("DynState passed to a clock component of a different type")
}

/// A boxed, type-erased [`ClockComponent`] — the unit from which nodes of a
/// clock-model distributed system are composed (Definition 2.7).
pub struct ClockComponentBox<A: Action> {
    inner: Box<dyn DynClock<A>>,
    /// The diagnostic name, computed once at boxing time so
    /// [`ClockComponentBox::name`] hands out `&str` without a per-call
    /// `String` allocation (the execution engine reads names in hot loops).
    name: std::sync::Arc<str>,
}

impl<A: Action> ClockComponentBox<A> {
    /// Boxes a concrete clock component.
    #[must_use]
    pub fn new<C: ClockComponent<Action = A>>(component: C) -> Self {
        let name = std::sync::Arc::from(component.name().as_str());
        ClockComponentBox {
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
    /// (see [`ClockComponent::action_names`]).
    #[must_use]
    pub fn action_names(&self) -> Option<Vec<&'static str>> {
        self.inner.action_names_dyn()
    }

    /// Applies a non-time-passage action at clock time `clock`.
    #[must_use]
    pub fn step(&self, s: &DynState, a: &A, clock: Time) -> Option<DynState> {
        self.inner.step_dyn(s, a, clock)
    }

    /// Enabled locally controlled actions at clock time `clock`.
    #[must_use]
    pub fn enabled(&self, s: &DynState, clock: Time) -> Vec<A> {
        self.inner.enabled_dyn(s, clock)
    }

    /// Latest clock value to which `ν` may advance.
    #[must_use]
    pub fn clock_deadline(&self, s: &DynState, clock: Time) -> Option<Time> {
        self.inner.clock_deadline_dyn(s, clock)
    }

    /// Applies `ν`, advancing the clock to `target`.
    #[must_use]
    pub fn advance(&self, s: &DynState, clock: Time, target: Time) -> Option<DynState> {
        self.inner.advance_dyn(s, clock, target)
    }

    /// The component's clock-time-dependence promise
    /// (see [`ClockComponent::clock_wake`]).
    #[must_use]
    pub fn clock_wake(&self, s: &DynState, clock: Time) -> WakeHint {
        self.inner.clock_wake_dyn(s, clock)
    }
}

/// A [`ClockComponentBox`] is itself a [`ClockComponent`] (over the erased
/// [`DynState`]), so adapters like [`HiddenClock`] compose over
/// already-boxed components.
impl<A: Action> ClockComponent for ClockComponentBox<A> {
    type Action = A;
    type State = DynState;

    fn name(&self) -> String {
        ClockComponentBox::name(self).to_string()
    }

    fn initial(&self) -> DynState {
        ClockComponentBox::initial(self)
    }

    fn classify(&self, a: &A) -> Option<ActionKind> {
        ClockComponentBox::classify(self, a)
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        ClockComponentBox::action_names(self)
    }

    fn signature_key(&self) -> Option<u64> {
        self.inner.signature_key_dyn()
    }

    fn step(&self, s: &DynState, a: &A, clock: Time) -> Option<DynState> {
        ClockComponentBox::step(self, s, a, clock)
    }

    fn enabled(&self, s: &DynState, clock: Time) -> Vec<A> {
        ClockComponentBox::enabled(self, s, clock)
    }

    fn clock_deadline(&self, s: &DynState, clock: Time) -> Option<Time> {
        ClockComponentBox::clock_deadline(self, s, clock)
    }

    fn advance(&self, s: &DynState, clock: Time, target: Time) -> Option<DynState> {
        ClockComponentBox::advance(self, s, clock, target)
    }

    fn clock_wake(&self, s: &DynState, clock: Time) -> WakeHint {
        ClockComponentBox::clock_wake(self, s, clock)
    }
}

impl<A: Action> Debug for ClockComponentBox<A> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ClockComponentBox")
            .field("name", &self.name())
            .finish()
    }
}

/// The parallel composition of clock components sharing one clock — the
/// clock-automaton composition of Definition 2.7, packaged as a single
/// [`ClockComponent`].
///
/// The execution engine's `ClockNode` composes clock components itself;
/// `ClockComposite` exists for the cases where a *whole node* must be
/// treated as one clock automaton again — most importantly as the input to
/// the MMT transformation `M(A^c_{i,ε}, ℓ)` (Definition 5.1), which
/// simulates the complete node `A^c_{i,ε} = C(A_i, ε) ∥ S_{ij,ε} ∥ R_{ji,ε}`.
///
/// Compatibility (`out ∩ out = ∅`, `int ∩ acts = ∅`, Definition 2.2) is
/// checked dynamically: a shared locally-controlled action is reported at
/// step time by the engine.
pub struct ClockComposite<A: Action> {
    name: String,
    parts: Vec<ClockComponentBox<A>>,
}

/// The state of a [`ClockComposite`]: one erased state per part.
pub type CompositeState = Vec<DynState>;

impl<A: Action> ClockComposite<A> {
    /// Composes the given clock components under one name.
    #[must_use]
    pub fn new(name: impl Into<String>, parts: Vec<ClockComponentBox<A>>) -> Self {
        ClockComposite {
            name: name.into(),
            parts,
        }
    }

    /// The composed parts.
    #[must_use]
    pub fn parts(&self) -> &[ClockComponentBox<A>] {
        &self.parts
    }
}

impl<A: Action> ClockComponent for ClockComposite<A> {
    type Action = A;
    type State = CompositeState;

    fn name(&self) -> String {
        self.name.clone()
    }

    fn initial(&self) -> CompositeState {
        self.parts.iter().map(ClockComponentBox::initial).collect()
    }

    fn classify(&self, a: &A) -> Option<ActionKind> {
        // An action locally controlled by any part is controlled by the
        // composite; otherwise it is an input if any part takes it.
        let mut seen_input = false;
        for p in &self.parts {
            match p.classify(a) {
                Some(k) if k.is_locally_controlled() => return Some(k),
                Some(ActionKind::Input) => seen_input = true,
                _ => {}
            }
        }
        seen_input.then_some(ActionKind::Input)
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        // The composite's signature is the union of its parts'; one
        // unenumerable part makes the whole composite a wildcard.
        let mut names: Vec<&'static str> = Vec::new();
        for p in &self.parts {
            names.extend(p.action_names()?);
        }
        names.sort_unstable();
        names.dedup();
        Some(names)
    }

    // `signature_key` stays `None`: a union of parts has no single key.

    fn step(&self, s: &CompositeState, a: &A, clock: Time) -> Option<CompositeState> {
        let mut next = s.clone();
        let mut touched = false;
        for (i, p) in self.parts.iter().enumerate() {
            if p.classify(a).is_some() {
                touched = true;
                next[i] = p.step(&s[i], a, clock)?;
            }
        }
        touched.then_some(next)
    }

    fn enabled(&self, s: &CompositeState, clock: Time) -> Vec<A> {
        self.parts
            .iter()
            .zip(s)
            .flat_map(|(p, ps)| p.enabled(ps, clock))
            .collect()
    }

    fn clock_deadline(&self, s: &CompositeState, clock: Time) -> Option<Time> {
        self.parts
            .iter()
            .zip(s)
            .filter_map(|(p, ps)| p.clock_deadline(ps, clock))
            .min()
    }

    fn advance(&self, s: &CompositeState, clock: Time, target: Time) -> Option<CompositeState> {
        let mut next = Vec::with_capacity(s.len());
        for (p, ps) in self.parts.iter().zip(s) {
            next.push(p.advance(ps, clock, target)?);
        }
        Some(next)
    }

    fn clock_wake(&self, s: &CompositeState, clock: Time) -> WakeHint {
        // The composite wakes when any part does.
        self.parts
            .iter()
            .zip(s)
            .map(|(p, ps)| p.clock_wake(ps, clock))
            .fold(WakeHint::Never, WakeHint::earlier)
    }
}

/// The hiding operator for clock components: reclassifies selected output
/// actions as internal (Section 2.1), the clock-model counterpart of
/// [`Hidden`](crate::Hidden).
///
/// The node transformation `A^c_{i,ε}` of Section 4.2 hides the
/// `SENDMSG_i(j, m)` and `RECVMSG_i(j, m)` actions exchanged between the
/// simulated algorithm and its send/receive buffers; `psync-core` uses
/// `HiddenClock` for exactly that.
pub struct HiddenClock<C, F> {
    inner: C,
    hide: F,
}

impl<C, F> HiddenClock<C, F> {
    /// Wraps `inner`, hiding every output action for which `hide` is true.
    pub fn new(inner: C, hide: F) -> Self {
        HiddenClock { inner, hide }
    }
}

impl<C, F> ClockComponent for HiddenClock<C, F>
where
    C: ClockComponent,
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
        // Hiding reclassifies actions, never changes signature membership.
        self.inner.action_names()
    }

    fn signature_key(&self) -> Option<u64> {
        self.inner.signature_key()
    }

    fn step(&self, s: &Self::State, a: &Self::Action, clock: Time) -> Option<Self::State> {
        self.inner.step(s, a, clock)
    }

    fn enabled(&self, s: &Self::State, clock: Time) -> Vec<Self::Action> {
        self.inner.enabled(s, clock)
    }

    fn clock_deadline(&self, s: &Self::State, clock: Time) -> Option<Time> {
        self.inner.clock_deadline(s, clock)
    }

    fn advance(&self, s: &Self::State, clock: Time, target: Time) -> Option<Self::State> {
        self.inner.advance(s, clock, target)
    }

    fn clock_wake(&self, s: &Self::State, clock: Time) -> WakeHint {
        self.inner.clock_wake(s, clock)
    }
}

/// A clock predicate (Definition 2.4): a relation between `now` and `clock`
/// that every reachable state of a clock automaton must satisfy.
///
/// The paper's central instance is `C_ε` (Definition 2.5), built with
/// [`ClockPredicate::skew`]: `|now − clock| ≤ ε`.
///
/// # Examples
///
/// ```
/// use psync_automata::ClockPredicate;
/// use psync_time::{Duration, Time};
///
/// let c_eps = ClockPredicate::skew(Duration::from_millis(2));
/// let now = Time::ZERO + Duration::from_millis(10);
/// assert!(c_eps.holds(now, now + Duration::from_millis(2)));
/// assert!(!c_eps.holds(now, now + Duration::from_millis(3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockPredicate {
    eps: Duration,
}

impl ClockPredicate {
    /// The predicate `C_ε`: `(now, clock)` satisfies it iff
    /// `|now − clock| ≤ ε`.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative.
    #[must_use]
    pub fn skew(eps: Duration) -> Self {
        assert!(!eps.is_negative(), "clock skew bound must be non-negative");
        ClockPredicate { eps }
    }

    /// The skew bound `ε`.
    #[must_use]
    pub const fn eps(&self) -> Duration {
        self.eps
    }

    /// `true` iff `(now, clock) ∈ C_ε`.
    #[must_use]
    pub fn holds(&self, now: Time, clock: Time) -> bool {
        now.skew(clock) <= self.eps
    }

    /// The latest real time at which the clock can still read `clock_value`
    /// without violating the predicate: `clock_value + ε`.
    ///
    /// The engine uses this to convert *clock* deadlines into *real-time*
    /// advance limits.
    #[must_use]
    pub fn latest_now_for(&self, clock_value: Time) -> Time {
        clock_value + self.eps
    }

    /// The interval of clock readings permitted at real time `now`:
    /// `[max(now − ε, 0), now + ε]`.
    #[must_use]
    pub fn clock_range(&self, now: Time) -> (Time, Time) {
        let lo = now.checked_sub_duration(self.eps).unwrap_or(Time::ZERO);
        (lo, now + self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_time::Duration;

    fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn skew_predicate_is_symmetric_band() {
        let p = ClockPredicate::skew(ms(2));
        let now = Time::ZERO + ms(100);
        assert!(p.holds(now, now));
        assert!(p.holds(now, now + ms(2)));
        assert!(p.holds(now, now - ms(2)));
        assert!(!p.holds(now, now + ms(2) + Duration::NANOSECOND));
        assert!(!p.holds(now, now - ms(2) - Duration::NANOSECOND));
    }

    #[test]
    fn zero_skew_forces_equality() {
        let p = ClockPredicate::skew(Duration::ZERO);
        let now = Time::ZERO + ms(5);
        assert!(p.holds(now, now));
        assert!(!p.holds(now, now + Duration::NANOSECOND));
    }

    #[test]
    fn latest_now_for_clock_deadline() {
        let p = ClockPredicate::skew(ms(2));
        let d = Time::ZERO + ms(10);
        assert_eq!(p.latest_now_for(d), Time::ZERO + ms(12));
    }

    #[test]
    fn clock_range_clamps_at_zero() {
        let p = ClockPredicate::skew(ms(2));
        let (lo, hi) = p.clock_range(Time::ZERO + ms(1));
        assert_eq!(lo, Time::ZERO);
        assert_eq!(hi, Time::ZERO + ms(3));
        let (lo2, hi2) = p.clock_range(Time::ZERO + ms(10));
        assert_eq!(lo2, Time::ZERO + ms(8));
        assert_eq!(hi2, Time::ZERO + ms(12));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_eps_rejected() {
        let _ = ClockPredicate::skew(ms(-1));
    }
}
