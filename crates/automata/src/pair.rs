//! The binary product of two timed components — composition
//! (Definition 2.2) packaged as a single component.
//!
//! The execution engine composes whole systems itself; [`Pair`] is for the
//! cases where *one slot* must hold several automata — most commonly a
//! node that runs two protocol roles at once (say, a heartbeat emitter and
//! a monitor), which the Simulation 1 node transformation then treats as a
//! single node algorithm. Nest pairs for more than two parts.

use psync_time::Time;

use crate::{ActionKind, TimedComponent};

/// Two timed components over one action alphabet, acting as one.
///
/// Shared actions synchronize: an action in both signatures steps both
/// parts (and fails if either refuses). Classification prefers the
/// locally-controlled role, mirroring composition: if one part outputs an
/// action the other consumes, the pair classifies it as an output
/// (hide it with [`Hidden`](crate::Hidden) if it should be internal).
///
/// # Examples
///
/// ```
/// use psync_automata::toys::{Beeper, Echo};
/// use psync_automata::{Pair, TimedComponent};
/// use psync_time::{Duration, Time};
///
/// // One "node" that both beeps and echoes — two roles, one component.
/// // (The two toys have different action types in reality; pairs require a
/// // shared alphabet, so this example pairs two beepers.)
/// let node = Pair::new(
///     Beeper::with_src(Duration::from_millis(5), 0),
///     Beeper::with_src(Duration::from_millis(7), 1),
/// );
/// let s0 = node.initial();
/// assert_eq!(node.deadline(&s0, Time::ZERO), Some(Time::ZERO + Duration::from_millis(5)));
/// ```
#[derive(Debug, Clone)]
pub struct Pair<A, B> {
    a: A,
    b: B,
}

impl<A, B> Pair<A, B> {
    /// Pairs two components.
    pub fn new(a: A, b: B) -> Self {
        Pair { a, b }
    }
}

/// The state of a [`Pair`]: both parts' states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairState<SA, SB> {
    /// First part's state.
    pub a: SA,
    /// Second part's state.
    pub b: SB,
}

impl<A, B> TimedComponent for Pair<A, B>
where
    A: TimedComponent,
    B: TimedComponent<Action = A::Action>,
{
    type Action = A::Action;
    type State = PairState<A::State, B::State>;

    fn name(&self) -> String {
        format!("({} ∥ {})", self.a.name(), self.b.name())
    }

    fn initial(&self) -> Self::State {
        PairState {
            a: self.a.initial(),
            b: self.b.initial(),
        }
    }

    fn classify(&self, act: &Self::Action) -> Option<ActionKind> {
        match (self.a.classify(act), self.b.classify(act)) {
            (Some(k), _) if k.is_locally_controlled() => Some(k),
            (_, Some(k)) => Some(k),
            (k, None) => k,
        }
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        // The pair's signature is the union of the parts' signatures; if
        // either part is a wildcard the pair must be one too.
        let mut names = self.a.action_names()?;
        names.extend(self.b.action_names()?);
        names.sort_unstable();
        names.dedup();
        Some(names)
    }

    // `signature_key` stays `None`: a union of two signatures has no single key.

    fn step(&self, s: &Self::State, act: &Self::Action, now: Time) -> Option<Self::State> {
        let in_a = self.a.classify(act).is_some();
        let in_b = self.b.classify(act).is_some();
        if !in_a && !in_b {
            return None;
        }
        Some(PairState {
            a: if in_a {
                self.a.step(&s.a, act, now)?
            } else {
                s.a.clone()
            },
            b: if in_b {
                self.b.step(&s.b, act, now)?
            } else {
                s.b.clone()
            },
        })
    }

    fn enabled(&self, s: &Self::State, now: Time) -> Vec<Self::Action> {
        let mut out = self.a.enabled(&s.a, now);
        out.extend(self.b.enabled(&s.b, now));
        out
    }

    fn deadline(&self, s: &Self::State, now: Time) -> Option<Time> {
        match (self.a.deadline(&s.a, now), self.b.deadline(&s.b, now)) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, None) => x,
            (None, y) => y,
        }
    }

    fn advance(&self, s: &Self::State, now: Time, target: Time) -> Option<Self::State> {
        Some(PairState {
            a: self.a.advance(&s.a, now, target)?,
            b: self.b.advance(&s.b, now, target)?,
        })
    }

    fn wake_hint(&self, s: &Self::State, now: Time) -> crate::WakeHint {
        // The pair wakes when either part does.
        self.a
            .wake_hint(&s.a, now)
            .earlier(self.b.wake_hint(&s.b, now))
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

    fn at(n: i64) -> Time {
        Time::ZERO + ms(n)
    }

    fn pair() -> Pair<Beeper, Beeper> {
        Pair::new(Beeper::with_src(ms(5), 0), Beeper::with_src(ms(7), 1))
    }

    #[test]
    fn deadline_is_min_of_parts() {
        let p = pair();
        let s0 = p.initial();
        assert_eq!(p.deadline(&s0, Time::ZERO), Some(at(5)));
        let s1 = p
            .step(&s0, &BeepAction::Beep { src: 0, seq: 0 }, at(5))
            .unwrap();
        assert_eq!(p.deadline(&s1, at(5)), Some(at(7)));
    }

    #[test]
    fn steps_touch_only_owning_part() {
        let p = pair();
        let s0 = p.initial();
        let s1 = p
            .step(&s0, &BeepAction::Beep { src: 1, seq: 0 }, at(7))
            .unwrap();
        assert_eq!(s1.a, s0.a, "part a untouched");
        assert_ne!(s1.b, s0.b);
        assert!(p
            .step(&s0, &BeepAction::Beep { src: 9, seq: 0 }, at(7))
            .is_none());
    }

    #[test]
    fn enabled_is_union() {
        let p = pair();
        let s0 = p.initial();
        assert_eq!(p.enabled(&s0, at(4)).len(), 0);
        assert_eq!(p.enabled(&s0, at(5)).len(), 1);
        assert_eq!(p.enabled(&s0, at(7)).len(), 2);
    }

    #[test]
    fn advance_respects_both_deadlines() {
        let p = pair();
        let s0 = p.initial();
        assert!(p.advance(&s0, Time::ZERO, at(5)).is_some());
        assert!(p.advance(&s0, Time::ZERO, at(6)).is_none());
    }
}
