//! The timed channel automaton `E_{ij,[d₁,d₂]}` (Figure 1).

use core::fmt::Debug;
use core::hash::Hash;

use psync_automata::{Action, ActionKind, TimedComponent, WakeHint};
use psync_time::{DelayBounds, Time};

use crate::{edge_route_key, DelayPolicy, Envelope, NodeId, SysAction};

/// One in-flight message: an element of the channel's buffer `b_{ij}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlight<M> {
    /// The message.
    pub env: Envelope<M>,
    /// Real time of the `SENDMSG` (the `t` stored in the buffer `b_{ij}`).
    pub sent_at: Time,
    /// Policy-chosen delivery time, in `[sent_at + d₁, sent_at + d₂]`.
    pub due: Time,
}

/// The channel automaton of Figure 1: the edge `e_{i,j}` with delay bounds
/// `[d₁, d₂]`.
///
/// * `SENDMSG_i(j, m)` (input) appends `(m, now)` to the buffer, with a
///   policy-chosen delivery point inside the delay envelope.
/// * `RECVMSG_j(i, m)` (output) is enabled once the delivery point is
///   reached (always within `[t + d₁, t + d₂]`).
/// * `ν` is blocked from passing any undelivered message's delivery point
///   (Figure 1 blocks at `t + d₂`; choosing the policy's point instead is a
///   refinement — every behavior is one the paper's channel allows).
///
/// Messages with different delivery points reorder freely, matching the
/// paper's reordering channels (Section 2.4).
pub struct Channel<M, A> {
    from: NodeId,
    to: NodeId,
    bounds: DelayBounds,
    policy: Box<dyn DelayPolicy>,
    _marker: core::marker::PhantomData<fn() -> A>,
    _marker_m: core::marker::PhantomData<fn() -> M>,
}

impl<M, A> Channel<M, A> {
    /// Creates the channel for edge `from → to` with the given delay bounds
    /// and delay adversary.
    #[must_use]
    pub fn new(from: NodeId, to: NodeId, bounds: DelayBounds, policy: impl DelayPolicy) -> Self {
        Channel {
            from,
            to,
            bounds,
            policy: Box::new(policy),
            _marker: core::marker::PhantomData,
            _marker_m: core::marker::PhantomData,
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

impl<M, A> TimedComponent for Channel<M, A>
where
    M: Clone + Eq + Hash + Debug + 'static,
    A: Action,
{
    type Action = SysAction<M, A>;
    type State = Vec<InFlight<M>>;

    fn name(&self) -> String {
        format!("channel({}→{}, {})", self.from, self.to, self.bounds)
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
                debug_assert!(
                    !s.iter().any(|f| f.env.id == env.id),
                    "message {} sent twice: the model assumes unique messages",
                    env.id
                );
                let mut next = s.clone();
                next.push(InFlight {
                    env: env.clone(),
                    sent_at: now,
                    due: now + delay,
                });
                Some(next)
            }
            SysAction::Recv(env) if self.routes(env) => {
                let pos = s.iter().position(|f| f.env == *env && f.due <= now)?;
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
            .map(|f| SysAction::Recv(f.env.clone()))
            .collect()
    }

    fn deadline(&self, s: &Self::State, _now: Time) -> Option<Time> {
        s.iter().map(|f| f.due).min()
    }

    fn wake_hint(&self, s: &Self::State, _now: Time) -> WakeHint {
        // Pure time passage cannot surface a delivery before the earliest
        // due time; new sends go through `step`, which re-dirties us.
        match s.iter().map(|f| f.due).min() {
            Some(due) => WakeHint::At(due),
            None => WakeHint::Never,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MaxDelay, MinDelay, MsgId, SeededDelay};
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
    fn send_then_recv_within_envelope() {
        let ch: Channel<u32, &'static str> = Channel::new(NodeId(0), NodeId(1), bounds(), MaxDelay);
        let t0 = Time::ZERO + ms(10);
        let s1 = ch.step(&ch.initial(), &A::Send(env(1)), t0).unwrap();
        // Not yet deliverable.
        assert!(ch.enabled(&s1, t0).is_empty());
        assert_eq!(ch.deadline(&s1, t0), Some(t0 + ms(5)));
        // At due time, the receive appears.
        let due = t0 + ms(5);
        assert_eq!(ch.enabled(&s1, due), vec![A::Recv(env(1))]);
        let s2 = ch.step(&s1, &A::Recv(env(1)), due).unwrap();
        assert!(s2.is_empty());
    }

    #[test]
    fn recv_before_due_is_refused() {
        let ch: Channel<u32, &'static str> = Channel::new(NodeId(0), NodeId(1), bounds(), MaxDelay);
        let s1 = ch
            .step(&ch.initial(), &A::Send(env(1)), Time::ZERO)
            .unwrap();
        assert!(ch.step(&s1, &A::Recv(env(1)), Time::ZERO + ms(4)).is_none());
    }

    #[test]
    fn channel_only_touches_its_own_edge() {
        let ch: Channel<u32, &'static str> = Channel::new(NodeId(0), NodeId(1), bounds(), MinDelay);
        let wrong_way = Envelope {
            src: NodeId(1),
            dst: NodeId(0),
            id: MsgId(1),
            payload: 0,
        };
        assert_eq!(ch.classify(&A::Send(wrong_way.clone())), None);
        assert_eq!(ch.classify(&A::Recv(wrong_way)), None);
        assert_eq!(ch.classify(&A::App("x")), None);
        assert_eq!(ch.classify(&A::Send(env(1))), Some(ActionKind::Input));
        assert_eq!(ch.classify(&A::Recv(env(1))), Some(ActionKind::Output));
    }

    #[test]
    fn different_delays_reorder_messages() {
        // Seed chosen arbitrarily; we just need two different delays.
        let policy = SeededDelay::new(3);
        let d1 = policy.delay(NodeId(0), NodeId(1), MsgId(1), Time::ZERO, bounds());
        let d2 = policy.delay(NodeId(0), NodeId(1), MsgId(2), Time::ZERO, bounds());
        let (first, second) = if d1 <= d2 { (1, 2) } else { (2, 1) };

        let ch: Channel<u32, &'static str> = Channel::new(NodeId(0), NodeId(1), bounds(), policy);
        let mut s = ch.initial();
        s = ch.step(&s, &A::Send(env(1)), Time::ZERO).unwrap();
        s = ch.step(&s, &A::Send(env(2)), Time::ZERO).unwrap();
        // At the later due time both are enabled; at the earlier one only
        // the earlier message.
        let early = Time::ZERO + d1.min(d2);
        let enabled = ch.enabled(&s, early);
        if d1 != d2 {
            assert_eq!(enabled, vec![A::Recv(env(first))]);
            let late = Time::ZERO + d1.max(d2);
            let s2 = ch.step(&s, &A::Recv(env(first)), early).unwrap();
            assert_eq!(ch.enabled(&s2, late), vec![A::Recv(env(second))]);
        }
    }

    #[test]
    fn deadline_is_earliest_due() {
        let ch: Channel<u32, &'static str> = Channel::new(NodeId(0), NodeId(1), bounds(), MinDelay);
        let mut s = ch.initial();
        s = ch.step(&s, &A::Send(env(1)), Time::ZERO + ms(4)).unwrap();
        s = ch.step(&s, &A::Send(env(2)), Time::ZERO + ms(2)).unwrap();
        assert_eq!(
            ch.deadline(&s, Time::ZERO + ms(4)),
            Some(Time::ZERO + ms(3))
        );
    }

    #[test]
    fn delivery_always_within_paper_bounds() {
        // Property-flavored check across many messages.
        let policy = SeededDelay::new(12345);
        let ch: Channel<u32, &'static str> = Channel::new(NodeId(0), NodeId(1), bounds(), policy);
        let mut s = ch.initial();
        let t0 = Time::ZERO + ms(7);
        for id in 0..100 {
            s = ch.step(&s, &A::Send(env(id)), t0).unwrap();
        }
        for f in &s {
            assert!(f.due >= t0 + ms(1) && f.due <= t0 + ms(5));
        }
    }
}
