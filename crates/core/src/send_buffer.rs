//! The send buffer `S_{ij,ε}` (Figure 2, left).

use core::fmt::Debug;
use core::hash::Hash;

use psync_automata::{Action, ActionKind, ClockComponent, WakeHint};
use psync_net::{Envelope, NodeId, SysAction};
use psync_time::Time;

/// State of a [`SendBuffer`]: the queue `q_ij` of `(message, clock-stamp)`
/// pairs.
pub type SendBufferState<M> = Vec<(Envelope<M>, Time)>;

/// `S_{ij,ε}`: tags each outgoing message with the clock time at which it
/// was sent (Figure 2, left, of the paper).
///
/// * `SENDMSG_i(j, m)` (input, from `C(A_i, ε)`) enqueues `(m, clock)`.
/// * `ESENDMSG_i(j, (m, c))` (output, to the channel) dequeues the front
///   pair, with the precondition `c = clock` — and the `ν` precondition
///   forbids the clock from advancing while the queue is non-empty, so the
///   tag is always the *sending* clock value and the buffer drains within
///   a single clock instant.
pub struct SendBuffer<M, A> {
    from: NodeId,
    to: NodeId,
    _marker: core::marker::PhantomData<fn() -> (M, A)>,
}

impl<M, A> SendBuffer<M, A> {
    /// Creates the send buffer for edge `from → to`.
    #[must_use]
    pub fn new(from: NodeId, to: NodeId) -> Self {
        SendBuffer {
            from,
            to,
            _marker: core::marker::PhantomData,
        }
    }

    fn routes(&self, env: &Envelope<M>) -> bool {
        env.src == self.from && env.dst == self.to
    }
}

impl<M, A> ClockComponent for SendBuffer<M, A>
where
    M: Clone + Eq + Hash + Debug + 'static,
    A: Action,
{
    type Action = SysAction<M, A>;
    type State = SendBufferState<M>;

    fn name(&self) -> String {
        format!("S({}→{})", self.from, self.to)
    }

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn classify(&self, a: &Self::Action) -> Option<ActionKind> {
        match a {
            SysAction::Send(env) if self.routes(env) => Some(ActionKind::Input),
            SysAction::ESend(env, _) if self.routes(env) => Some(ActionKind::Output),
            _ => None,
        }
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        Some(vec!["SENDMSG", "ESENDMSG"])
    }

    fn step(&self, s: &Self::State, a: &Self::Action, clock: Time) -> Option<Self::State> {
        match a {
            SysAction::Send(env) if self.routes(env) => {
                let mut next = s.clone();
                next.push((env.clone(), clock));
                Some(next)
            }
            SysAction::ESend(env, c) if self.routes(env) => {
                let (front_env, front_c) = s.first()?;
                if front_env != env || front_c != c || *c != clock {
                    return None;
                }
                Some(s[1..].to_vec())
            }
            _ => None,
        }
    }

    fn enabled(&self, s: &Self::State, clock: Time) -> Vec<Self::Action> {
        match s.first() {
            Some((env, c)) if *c == clock => vec![SysAction::ESend(env.clone(), *c)],
            _ => Vec::new(),
        }
    }

    fn clock_deadline(&self, s: &Self::State, _clock: Time) -> Option<Time> {
        // ν precondition: no queued (m, c) may have c < clock + Δc —
        // the clock cannot move past any queued stamp.
        s.iter().map(|(_, c)| *c).min()
    }

    fn clock_wake(&self, s: &Self::State, clock: Time) -> WakeHint {
        // Every clock-dependent condition compares the clock with a queued
        // stamp, so nothing changes below the earliest one; an empty queue
        // only changes by `SENDMSG`, a step.
        self.clock_deadline(s, clock)
            .map_or(WakeHint::Never, WakeHint::At)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_net::MsgId;
    use psync_time::Duration;

    type A = SysAction<u32, &'static str>;
    type Buf = SendBuffer<u32, &'static str>;

    fn at(n: i64) -> Time {
        Time::ZERO + Duration::from_millis(n)
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
    fn tags_with_send_clock_and_forwards_fifo() {
        let b = Buf::new(NodeId(0), NodeId(1));
        let clock = at(7);
        let mut s = b.initial();
        s = b.step(&s, &A::Send(env(1)), clock).unwrap();
        s = b.step(&s, &A::Send(env(2)), clock).unwrap();
        assert_eq!(b.enabled(&s, clock), vec![A::ESend(env(1), clock)]);
        s = b.step(&s, &A::ESend(env(1), clock), clock).unwrap();
        assert_eq!(b.enabled(&s, clock), vec![A::ESend(env(2), clock)]);
        s = b.step(&s, &A::ESend(env(2), clock), clock).unwrap();
        assert!(s.is_empty());
        assert_eq!(b.clock_deadline(&s, clock), None);
    }

    #[test]
    fn clock_pinned_while_nonempty() {
        let b = Buf::new(NodeId(0), NodeId(1));
        let clock = at(7);
        let s = b.step(&b.initial(), &A::Send(env(1)), clock).unwrap();
        // The ν precondition pins the clock at the queued stamp.
        assert_eq!(b.clock_deadline(&s, clock), Some(clock));
    }

    #[test]
    fn wrong_stamp_or_order_refused() {
        let b = Buf::new(NodeId(0), NodeId(1));
        let clock = at(7);
        let mut s = b.initial();
        s = b.step(&s, &A::Send(env(1)), clock).unwrap();
        s = b.step(&s, &A::Send(env(2)), clock).unwrap();
        // Not the front.
        assert!(b.step(&s, &A::ESend(env(2), clock), clock).is_none());
        // Wrong stamp.
        assert!(b.step(&s, &A::ESend(env(1), at(8)), clock).is_none());
    }

    #[test]
    fn only_own_edge_in_signature() {
        let b = Buf::new(NodeId(0), NodeId(1));
        let other = Envelope {
            src: NodeId(2),
            dst: NodeId(1),
            id: MsgId(1),
            payload: 0,
        };
        assert_eq!(b.classify(&A::Send(other)), None);
        assert_eq!(b.classify(&A::Send(env(1))), Some(ActionKind::Input));
        assert_eq!(
            b.classify(&A::ESend(env(1), at(0))),
            Some(ActionKind::Output)
        );
        assert_eq!(b.classify(&A::Recv(env(1))), None);
    }
}
