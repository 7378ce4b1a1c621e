//! A FIFO (order-preserving) channel variant.
//!
//! Footnote 4 of the paper: "Our results also hold for the case where
//! messages cannot be reordered." This channel refines Figure 1 by
//! delivering messages in send order: each message's delivery point is
//! pushed to at least the delivery point of every earlier message, which
//! stays inside the `[d₁, d₂]` envelope because sends are time-ordered
//! (`sendₖ + d₂` dominates every earlier message's latest delivery).

use core::fmt::Debug;
use core::hash::Hash;

use psync_automata::{Action, ActionKind, TimedComponent, WakeHint};
use psync_time::{DelayBounds, Time};

use crate::{edge_route_key, DelayPolicy, Envelope, NodeId, SysAction};

/// One in-flight message of a FIFO channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoInFlight<M> {
    /// The message.
    pub env: Envelope<M>,
    /// Real send time.
    pub sent_at: Time,
    /// Effective delivery point: the policy's choice, pushed forward to
    /// respect FIFO order.
    pub due: Time,
}

/// The order-preserving channel of footnote 4: like [`Channel`](crate::Channel)
/// but `RECVMSG` is only enabled for the *oldest* undelivered message.
pub struct FifoChannel<M, A> {
    from: NodeId,
    to: NodeId,
    bounds: DelayBounds,
    policy: Box<dyn DelayPolicy>,
    _marker: core::marker::PhantomData<fn() -> (M, A)>,
}

impl<M, A> FifoChannel<M, A> {
    /// Creates the FIFO channel for edge `from → to`.
    #[must_use]
    pub fn new(from: NodeId, to: NodeId, bounds: DelayBounds, policy: impl DelayPolicy) -> Self {
        FifoChannel {
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

impl<M, A> TimedComponent for FifoChannel<M, A>
where
    M: Clone + Eq + Hash + Debug + 'static,
    A: Action,
{
    type Action = SysAction<M, A>;
    type State = Vec<FifoInFlight<M>>;

    fn name(&self) -> String {
        format!("fifo-channel({}→{}, {})", self.from, self.to, self.bounds)
    }

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn classify(&self, a: &Self::Action) -> Option<ActionKind> {
        match a {
            SysAction::Send(env) if self.routes(env) => Some(ActionKind::Input),
            SysAction::Recv(env) if self.routes(env) => Some(ActionKind::Output),
            _ => None,
        }
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        Some(vec!["SENDMSG", "RECVMSG"])
    }

    fn signature_key(&self) -> Option<u64> {
        edge_route_key(self.from, self.to)
    }

    fn step(&self, s: &Self::State, a: &Self::Action, now: Time) -> Option<Self::State> {
        match a {
            SysAction::Send(env) if self.routes(env) => {
                let delay = self.policy.delay_for_dyn(env, now, self.bounds);
                assert!(
                    self.bounds.contains(delay),
                    "delay policy produced {delay} outside {}",
                    self.bounds
                );
                // FIFO: never deliver before the message ahead of us.
                let mut due = now + delay;
                if let Some(prev) = s.last() {
                    due = due.max(prev.due);
                }
                debug_assert!(due <= now + self.bounds.max());
                let mut next = s.clone();
                next.push(FifoInFlight {
                    env: env.clone(),
                    sent_at: now,
                    due,
                });
                Some(next)
            }
            SysAction::Recv(env) if self.routes(env) => {
                let front = s.first()?;
                if front.env != *env || front.due > now {
                    return None;
                }
                Some(s[1..].to_vec())
            }
            _ => None,
        }
    }

    fn enabled(&self, s: &Self::State, now: Time) -> Vec<Self::Action> {
        match s.first() {
            Some(f) if f.due <= now => vec![SysAction::Recv(f.env.clone())],
            _ => Vec::new(),
        }
    }

    fn deadline(&self, s: &Self::State, _now: Time) -> Option<Time> {
        s.first().map(|f| f.due)
    }

    fn wake_hint(&self, s: &Self::State, _now: Time) -> WakeHint {
        // Only the head can become deliverable, and only at its due time.
        match s.first() {
            Some(head) => WakeHint::At(head.due),
            None => WakeHint::Never,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MsgId, SeededDelay};
    use psync_time::Duration;

    type A = SysAction<u32, &'static str>;

    fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    fn bounds() -> DelayBounds {
        DelayBounds::new(ms(1), ms(5)).unwrap()
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
    fn delivers_strictly_in_send_order() {
        // Find a seed where message 2 would naturally overtake message 1.
        let policy = SeededDelay::new(11);
        let ch: FifoChannel<u32, &'static str> =
            FifoChannel::new(NodeId(0), NodeId(1), bounds(), policy);
        let mut s = ch.initial();
        for id in 1..=20 {
            s = ch.step(&s, &A::Send(env(id)), Time::ZERO).unwrap();
        }
        // Dues are non-decreasing regardless of the policy's choices.
        for w in s.windows(2) {
            assert!(w[0].due <= w[1].due, "FIFO order violated");
        }
        // Only the head is ever deliverable.
        let late = Time::ZERO + ms(5);
        assert_eq!(ch.enabled(&s, late), vec![A::Recv(env(1))]);
        assert!(ch.step(&s, &A::Recv(env(2)), late).is_none());
    }

    #[test]
    fn dues_stay_inside_the_envelope() {
        let policy = SeededDelay::new(3);
        let ch: FifoChannel<u32, &'static str> =
            FifoChannel::new(NodeId(0), NodeId(1), bounds(), policy);
        let mut s = ch.initial();
        let mut t = Time::ZERO;
        for id in 1..=50 {
            t += Duration::from_micros(300);
            s = ch.step(&s, &A::Send(env(id)), t).unwrap();
        }
        for f in &s {
            assert!(f.due >= f.sent_at + ms(1));
            assert!(
                f.due <= f.sent_at + ms(5),
                "FIFO push-forward left the envelope"
            );
        }
    }

    #[test]
    fn deadline_is_head_due() {
        let ch: FifoChannel<u32, &'static str> =
            FifoChannel::new(NodeId(0), NodeId(1), bounds(), crate::MaxDelay);
        let mut s = ch.initial();
        s = ch.step(&s, &A::Send(env(1)), Time::ZERO).unwrap();
        s = ch.step(&s, &A::Send(env(2)), Time::ZERO + ms(1)).unwrap();
        assert_eq!(ch.deadline(&s, Time::ZERO), Some(Time::ZERO + ms(5)));
        let s2 = ch.step(&s, &A::Recv(env(1)), Time::ZERO + ms(5)).unwrap();
        assert_eq!(ch.deadline(&s2, Time::ZERO), Some(Time::ZERO + ms(6)));
    }
}
