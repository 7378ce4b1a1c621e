//! The clock-model channel automaton `E^c_{ij,[d₁,d₂]}` (Section 4.1).

use core::fmt::Debug;
use core::hash::Hash;

use psync_automata::{Action, ActionKind, TimedComponent, WakeHint};
use psync_time::{DelayBounds, Time};

use crate::{DelayPolicy, Envelope, NodeId, SysAction};

/// One in-flight stamped message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlightStamped<M> {
    /// The message.
    pub env: Envelope<M>,
    /// Sender's clock stamp `c` — the second component of the message pair
    /// `(m, c)`.
    pub stamp: Time,
    /// Policy-chosen delivery time.
    pub due: Time,
}

/// The clock-model channel: identical to the timed channel of Figure 1
/// except that messages come from `M × ℜ⁺` (payload plus sender clock
/// stamp) and the interface actions are renamed `ESENDMSG` / `ERECVMSG`
/// (Section 4.1).
///
/// The channel itself remains a *timed* automaton — real networks do not
/// read node clocks — so delays are still measured in real time.
pub struct ClockChannel<M, A> {
    from: NodeId,
    to: NodeId,
    bounds: DelayBounds,
    policy: Box<dyn DelayPolicy>,
    _marker: core::marker::PhantomData<fn() -> (M, A)>,
}

impl<M, A> ClockChannel<M, A> {
    /// Creates the clock-model channel for edge `from → to`.
    #[must_use]
    pub fn new(from: NodeId, to: NodeId, bounds: DelayBounds, policy: impl DelayPolicy) -> Self {
        ClockChannel {
            from,
            to,
            bounds,
            policy: Box::new(policy),
            _marker: core::marker::PhantomData,
        }
    }

    /// The edge's delay bounds `[d₁, d₂]`.
    #[must_use]
    pub fn bounds(&self) -> DelayBounds {
        self.bounds
    }

    fn routes(&self, env: &Envelope<M>) -> bool {
        env.src == self.from && env.dst == self.to
    }
}

impl<M, A> TimedComponent for ClockChannel<M, A>
where
    M: Clone + Eq + Hash + Debug + 'static,
    A: Action,
{
    type Action = SysAction<M, A>;
    type State = Vec<InFlightStamped<M>>;

    fn name(&self) -> String {
        format!("clock-channel({}→{}, {})", self.from, self.to, self.bounds)
    }

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn classify(&self, a: &Self::Action) -> Option<ActionKind> {
        match a {
            SysAction::ESend(env, _) if self.routes(env) => Some(ActionKind::Input),
            SysAction::ERecv(env, _) if self.routes(env) => Some(ActionKind::Output),
            _ => None,
        }
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        Some(vec!["ESENDMSG", "ERECVMSG"])
    }

    fn step(&self, s: &Self::State, a: &Self::Action, now: Time) -> Option<Self::State> {
        match a {
            SysAction::ESend(env, stamp) if self.routes(env) => {
                let delay = self.policy.delay_for_dyn(env, now, self.bounds);
                assert!(
                    self.bounds.contains(delay),
                    "delay policy produced {delay} outside {}",
                    self.bounds
                );
                let mut next = s.clone();
                next.push(InFlightStamped {
                    env: env.clone(),
                    stamp: *stamp,
                    due: now + delay,
                });
                Some(next)
            }
            SysAction::ERecv(env, stamp) if self.routes(env) => {
                let pos = s
                    .iter()
                    .position(|f| f.env == *env && f.stamp == *stamp && f.due <= now)?;
                let mut next = s.clone();
                next.remove(pos);
                Some(next)
            }
            _ => None,
        }
    }

    fn enabled(&self, s: &Self::State, now: Time) -> Vec<Self::Action> {
        s.iter()
            .filter(|f| f.due <= now)
            .map(|f| SysAction::ERecv(f.env.clone(), f.stamp))
            .collect()
    }

    fn deadline(&self, s: &Self::State, _now: Time) -> Option<Time> {
        s.iter().map(|f| f.due).min()
    }

    fn wake_hint(&self, s: &Self::State, now: Time) -> WakeHint {
        // As for the timed channel: nothing surfaces before the earliest
        // due time, and new sends arrive through `step`.
        self.deadline(s, now).map_or(WakeHint::Never, WakeHint::At)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MaxDelay, MsgId};
    use psync_time::Duration;

    type A = SysAction<u32, &'static str>;

    fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    fn env(id: u64) -> Envelope<u32> {
        Envelope {
            src: NodeId(0),
            dst: NodeId(1),
            id: MsgId(id),
            payload: id as u32,
        }
    }

    #[test]
    fn stamp_travels_with_the_message() {
        let bounds = DelayBounds::new(ms(1), ms(3)).unwrap();
        let ch: ClockChannel<u32, &'static str> =
            ClockChannel::new(NodeId(0), NodeId(1), bounds, MaxDelay);
        let stamp = Time::ZERO + ms(99); // sender's clock, unrelated to now
        let t0 = Time::ZERO + ms(10);
        let s1 = ch
            .step(&ch.initial(), &A::ESend(env(1), stamp), t0)
            .unwrap();
        let due = t0 + ms(3);
        assert_eq!(ch.enabled(&s1, due), vec![A::ERecv(env(1), stamp)]);
        // A receive with the wrong stamp is not this message.
        assert!(ch.step(&s1, &A::ERecv(env(1), Time::ZERO), due).is_none());
        let s2 = ch.step(&s1, &A::ERecv(env(1), stamp), due).unwrap();
        assert!(s2.is_empty());
    }

    #[test]
    fn plain_send_recv_not_in_signature() {
        let bounds = DelayBounds::new(ms(1), ms(3)).unwrap();
        let ch: ClockChannel<u32, &'static str> =
            ClockChannel::new(NodeId(0), NodeId(1), bounds, MaxDelay);
        assert_eq!(ch.classify(&A::Send(env(1))), None);
        assert_eq!(ch.classify(&A::Recv(env(1))), None);
        assert_eq!(
            ch.classify(&A::ESend(env(1), Time::ZERO)),
            Some(ActionKind::Input)
        );
    }

    #[test]
    fn delay_is_measured_in_real_time_not_stamp() {
        let bounds = DelayBounds::new(ms(2), ms(2)).unwrap();
        let ch: ClockChannel<u32, &'static str> =
            ClockChannel::new(NodeId(0), NodeId(1), bounds, MaxDelay);
        let t0 = Time::ZERO + ms(5);
        let far_future_stamp = Time::ZERO + ms(1000);
        let s1 = ch
            .step(&ch.initial(), &A::ESend(env(1), far_future_stamp), t0)
            .unwrap();
        assert_eq!(ch.deadline(&s1, t0), Some(t0 + ms(2)));
    }
}
