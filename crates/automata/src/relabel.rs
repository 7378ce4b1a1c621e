//! The renaming operator (Section 2.1).
//!
//! The paper renames actions to embed an automaton into a larger system's
//! alphabet — most prominently `SENDMSG → ESENDMSG` when moving from the
//! timed to the clock interface (Section 4.1). [`Relabel`] is the
//! executable form: it wraps a component whose action type is `A` and
//! presents it with action type `B`, given an embedding `A → B` and a
//! partial projection `B → Option<A>`.

use psync_time::Time;

use crate::{Action, ActionKind, TimedComponent};

/// A component over action type `A`, re-labelled to participate in a
/// system over action type `B`.
///
/// `embed` must be injective and `project` its partial inverse:
/// `project(embed(a)) == Some(a)` for every action of the inner
/// component, and `project(b) == None` for every `b` outside the image.
/// Violations are caught by a debug assertion on each enabled action.
///
/// # Examples
///
/// Embedding a toy into a `SysAction`-shaped alphabet (what `psync-net`
/// systems speak):
///
/// ```
/// use psync_automata::toys::{BeepAction, Beeper};
/// use psync_automata::{Relabel, TimedComponent};
/// use psync_time::{Duration, Time};
///
/// #[derive(Debug, Clone, PartialEq, Eq, Hash)]
/// enum Sys { Beep(BeepAction), Other }
/// impl psync_automata::Action for Sys {
///     fn name(&self) -> &'static str {
///         match self { Sys::Beep(b) => b.name(), Sys::Other => "OTHER" }
///     }
/// }
///
/// let lifted = Relabel::new(
///     Beeper::new(Duration::from_millis(5)),
///     |a: &BeepAction| Sys::Beep(a.clone()),
///     |b: &Sys| match b { Sys::Beep(a) => Some(a.clone()), Sys::Other => None },
/// );
/// let s0 = lifted.initial();
/// assert_eq!(lifted.deadline(&s0, Time::ZERO), Some(Time::ZERO + Duration::from_millis(5)));
/// assert_eq!(lifted.classify(&Sys::Other), None);
/// ```
pub struct Relabel<C, E, P> {
    inner: C,
    embed: E,
    project: P,
}

impl<C, E, P> Relabel<C, E, P> {
    /// Wraps `inner` with the given embedding and projection.
    pub fn new(inner: C, embed: E, project: P) -> Self {
        Relabel {
            inner,
            embed,
            project,
        }
    }
}

impl<C, E, P, B> TimedComponent for Relabel<C, E, P>
where
    C: TimedComponent,
    B: Action,
    E: Fn(&C::Action) -> B + 'static,
    P: Fn(&B) -> Option<C::Action> + 'static,
{
    type Action = B;
    type State = C::State;

    fn name(&self) -> String {
        format!("relabel({})", self.inner.name())
    }

    fn initial(&self) -> Self::State {
        self.inner.initial()
    }

    fn classify(&self, b: &B) -> Option<ActionKind> {
        self.inner.classify(&(self.project)(b)?)
    }

    // `signature_key` stays `None`: relabelling can change an action's key.

    fn step(&self, s: &Self::State, b: &B, now: Time) -> Option<Self::State> {
        self.inner.step(s, &(self.project)(b)?, now)
    }

    fn enabled(&self, s: &Self::State, now: Time) -> Vec<B> {
        self.inner
            .enabled(s, now)
            .into_iter()
            .map(|a| {
                let b = (self.embed)(&a);
                debug_assert_eq!(
                    (self.project)(&b).as_ref(),
                    Some(&a),
                    "Relabel: project is not a partial inverse of embed"
                );
                b
            })
            .collect()
    }

    fn deadline(&self, s: &Self::State, now: Time) -> Option<Time> {
        self.inner.deadline(s, now)
    }

    fn advance(&self, s: &Self::State, now: Time, target: Time) -> Option<Self::State> {
        self.inner.advance(s, now, target)
    }

    fn wake_hint(&self, s: &Self::State, now: Time) -> crate::WakeHint {
        // Relabelling touches the alphabet, never the timing.
        self.inner.wake_hint(s, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toys::{BeepAction, Beeper};
    use psync_time::Duration;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Wrapped {
        Beep(BeepAction),
        Unrelated,
    }

    impl Action for Wrapped {
        fn name(&self) -> &'static str {
            match self {
                Wrapped::Beep(b) => b.name(),
                Wrapped::Unrelated => "UNRELATED",
            }
        }
    }

    fn lifted() -> impl TimedComponent<Action = Wrapped, State = crate::toys::BeeperState> {
        Relabel::new(
            Beeper::new(Duration::from_millis(5)),
            |a: &BeepAction| Wrapped::Beep(a.clone()),
            |b: &Wrapped| match b {
                Wrapped::Beep(a) => Some(a.clone()),
                Wrapped::Unrelated => None,
            },
        )
    }

    #[test]
    fn behaviour_is_preserved_under_renaming() {
        let l = lifted();
        let s0 = l.initial();
        let at = Time::ZERO + Duration::from_millis(5);
        assert_eq!(l.deadline(&s0, Time::ZERO), Some(at));
        let en = l.enabled(&s0, at);
        assert_eq!(en, vec![Wrapped::Beep(BeepAction::Beep { src: 0, seq: 0 })]);
        let s1 = l.step(&s0, &en[0], at).unwrap();
        assert_eq!(l.deadline(&s1, at), Some(at + Duration::from_millis(5)));
    }

    #[test]
    fn actions_outside_the_image_are_not_in_signature() {
        let l = lifted();
        assert_eq!(l.classify(&Wrapped::Unrelated), None);
        assert!(l
            .step(&l.initial(), &Wrapped::Unrelated, Time::ZERO)
            .is_none());
    }

    #[test]
    fn classification_travels_through() {
        let l = lifted();
        assert_eq!(
            l.classify(&Wrapped::Beep(BeepAction::Beep { src: 0, seq: 0 })),
            Some(ActionKind::Output)
        );
    }
}
