//! The transformation `C(A_i, ε)` (Definition 4.1).

use psync_automata::{
    Action, ActionKind, ClockComponent, ComponentBox, DynState, TimedComponent, WakeHint,
};
use psync_time::Time;

/// `C(A_i, ε)`: a timed automaton reinterpreted as a clock automaton by
/// running it against the node *clock* instead of real time
/// (Definition 4.1 of the paper).
///
/// The wrapped automaton's `now` "is" the clock: wherever the inner
/// component would read `now` — in transitions, enabling conditions and
/// deadlines — it is handed the clock value instead. Nothing else changes,
/// which is the whole point of the paper's first simulation: the algorithm
/// text is reused verbatim.
///
/// The construction makes the two obligations of Definition 4.1 hold by
/// construction:
///
/// * the result satisfies clock predicate `C_ε` (Lemma 4.1) because the
///   engine's clock strategies are confined to the `C_ε` envelope, and
/// * it is ε-time independent (Lemma 4.1) because the
///   [`ClockComponent`] interface never exposes `now`.
///
/// # Examples
///
/// ```
/// use psync_automata::toys::Beeper;
/// use psync_automata::ClockComponent;
/// use psync_core::ClockSim;
/// use psync_time::{Duration, Time};
///
/// // A real-time beeper becomes a clock-time beeper.
/// let c = ClockSim::new(Beeper::new(Duration::from_millis(10)));
/// let s0 = c.initial();
/// assert_eq!(
///     c.clock_deadline(&s0, Time::ZERO),
///     Some(Time::ZERO + Duration::from_millis(10))
/// );
/// ```
pub struct ClockSim<A: Action> {
    inner: ComponentBox<A>,
}

impl<A: Action> ClockSim<A> {
    /// Transforms a timed component into a clock component.
    #[must_use]
    pub fn new<C: TimedComponent<Action = A>>(inner: C) -> Self {
        ClockSim {
            inner: ComponentBox::new(inner),
        }
    }

    /// Transforms an already-boxed timed component.
    #[must_use]
    pub fn from_box(inner: ComponentBox<A>) -> Self {
        ClockSim { inner }
    }
}

impl<A: Action> ClockComponent for ClockSim<A> {
    type Action = A;
    type State = DynState;

    fn name(&self) -> String {
        format!("C({})", self.inner.name())
    }

    fn initial(&self) -> DynState {
        self.inner.initial()
    }

    fn classify(&self, a: &A) -> Option<ActionKind> {
        self.inner.classify(a)
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        self.inner.action_names()
    }

    fn step(&self, s: &DynState, a: &A, clock: Time) -> Option<DynState> {
        // The inner automaton's `now` is the clock (Definition 4.1:
        // `(s.A_i).now = s.clock`).
        self.inner.step(s, a, clock)
    }

    fn enabled(&self, s: &DynState, clock: Time) -> Vec<A> {
        self.inner.enabled(s, clock)
    }

    fn clock_deadline(&self, s: &DynState, clock: Time) -> Option<Time> {
        self.inner.deadline(s, clock)
    }

    fn advance(&self, s: &DynState, clock: Time, target: Time) -> Option<DynState> {
        self.inner.advance(s, clock, target)
    }

    fn clock_wake(&self, s: &DynState, clock: Time) -> WakeHint {
        // The inner automaton's promise about `now` is a promise about the
        // clock, since its `now` is the clock (Definition 4.1).
        self.inner.wake_hint(s, clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_automata::toys::{BeepAction, Beeper};
    use psync_executor::{ClockNode, Engine, OffsetClock};
    use psync_time::Duration;

    fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    fn at(n: i64) -> Time {
        Time::ZERO + ms(n)
    }

    #[test]
    fn behaves_like_inner_but_in_clock_time() {
        let c = ClockSim::new(Beeper::new(ms(10)));
        let s0 = c.initial();
        assert!(c.enabled(&s0, at(9)).is_empty());
        let acts = c.enabled(&s0, at(10));
        assert_eq!(acts, vec![BeepAction::Beep { src: 0, seq: 0 }]);
        let s1 = c.step(&s0, &acts[0], at(10)).unwrap();
        assert_eq!(c.clock_deadline(&s1, at(10)), Some(at(20)));
    }

    #[test]
    fn classification_is_preserved() {
        let timed = Beeper::new(ms(10));
        let c = ClockSim::new(Beeper::new(ms(10)));
        let a = BeepAction::Beep { src: 0, seq: 3 };
        assert_eq!(
            TimedComponent::classify(&timed, &a),
            ClockComponent::classify(&c, &a)
        );
    }

    #[test]
    fn under_skewed_clock_actions_move_in_real_time() {
        // The same Beeper, transformed: with a clock slow by 2 ms it beeps
        // at real time 12 ms but clock time 10 ms — the ε perturbation of
        // Theorem 4.7 in one line.
        let node = ClockNode::new("n", ms(2), OffsetClock::new(ms(-2), ms(2)))
            .with(ClockSim::new(Beeper::new(ms(10))));
        let mut engine = Engine::builder().clock_node(node).horizon(at(15)).build();
        let run = engine.run().unwrap();
        let ev = &run.execution.events()[0];
        assert_eq!(ev.now, at(12));
        assert_eq!(ev.clock, Some(at(10)));
    }

    #[test]
    fn name_reflects_transformation() {
        let c = ClockSim::new(Beeper::new(ms(1)));
        assert!(c.name().starts_with("C("));
    }
}
