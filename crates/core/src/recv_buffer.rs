//! The receive buffer `R_{ji,ε}` (Figure 2, right).

use core::fmt::Debug;
use core::hash::Hash;

use psync_automata::{Action, ActionKind, ClockComponent, WakeHint};
use psync_net::{Envelope, NodeId, SysAction};
use psync_time::Time;

/// State of a [`RecvBuffer`]: buffered `(message, stamp, arrival-seq)`
/// triples, kept sorted by `(stamp, arrival-seq)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecvBufferState<M> {
    entries: Vec<(Envelope<M>, Time, u64)>,
    next_seq: u64,
}

impl<M> RecvBufferState<M> {
    /// Number of buffered messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// `R_{ji,ε}`: holds each incoming message until the local clock has
/// reached the clock time at which it was *sent* (Figure 2, right, of the
/// paper) — the buffering first identified by Lamport \[5\] and used by
/// Welch \[17\] and Neiger–Toueg \[13\] to ensure a message never arrives
/// at a clock time earlier than its send time.
///
/// * `ERECVMSG_i(j, (m, c))` (input, from the channel) buffers the stamped
///   message.
/// * `RECVMSG_i(j, m)` (output, to `C(A_i, ε)`) releases the front message
///   once `c ≤ clock`; the `ν` precondition forbids the clock from passing
///   any buffered stamp, so release happens at exactly `clock = c` (or
///   immediately on arrival when `c` is already past).
///
/// ## A disambiguation of Figure 2
///
/// The paper stores the buffer in a queue with `front`/`enqu`/`dequ` and
/// releases only from the front, while its `ν` precondition blocks the
/// clock at the *minimum* buffered stamp. Read as a FIFO queue this
/// deadlocks under reordering channels: a front message stamped in the
/// future would bar release while an out-of-order message stamped in the
/// past bars time passage. We therefore keep the buffer ordered by
/// `(stamp, arrival order)` — the front is always the minimum-stamp
/// message, releases happen in stamp order, and no deadlock is possible.
/// Under FIFO channels the two readings coincide.
pub struct RecvBuffer<M, A> {
    from: NodeId,
    to: NodeId,
    _marker: core::marker::PhantomData<fn() -> (M, A)>,
}

impl<M, A> RecvBuffer<M, A> {
    /// Creates the receive buffer at node `to` for messages from `from`.
    #[must_use]
    pub fn new(from: NodeId, to: NodeId) -> Self {
        RecvBuffer {
            from,
            to,
            _marker: core::marker::PhantomData,
        }
    }

    fn routes(&self, env: &Envelope<M>) -> bool {
        env.src == self.from && env.dst == self.to
    }
}

impl<M, A> ClockComponent for RecvBuffer<M, A>
where
    M: Clone + Eq + Hash + Debug + 'static,
    A: Action,
{
    type Action = SysAction<M, A>;
    type State = RecvBufferState<M>;

    fn name(&self) -> String {
        format!("R({}→{})", self.from, self.to)
    }

    fn initial(&self) -> Self::State {
        RecvBufferState {
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    fn classify(&self, a: &Self::Action) -> Option<ActionKind> {
        match a {
            SysAction::ERecv(env, _) if self.routes(env) => Some(ActionKind::Input),
            SysAction::Recv(env) if self.routes(env) => Some(ActionKind::Output),
            _ => None,
        }
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        Some(vec!["ERECVMSG", "RECVMSG"])
    }

    fn step(&self, s: &Self::State, a: &Self::Action, clock: Time) -> Option<Self::State> {
        match a {
            SysAction::ERecv(env, c) if self.routes(env) => {
                let mut next = s.clone();
                let seq = next.next_seq;
                next.next_seq += 1;
                let pos = next
                    .entries
                    .partition_point(|(_, stamp, sq)| (*stamp, *sq) <= (*c, seq));
                next.entries.insert(pos, (env.clone(), *c, seq));
                Some(next)
            }
            SysAction::Recv(env) if self.routes(env) => {
                let (front_env, stamp, _) = s.entries.first()?;
                if front_env != env || *stamp > clock {
                    return None;
                }
                let mut next = s.clone();
                next.entries.remove(0);
                Some(next)
            }
            _ => None,
        }
    }

    fn enabled(&self, s: &Self::State, clock: Time) -> Vec<Self::Action> {
        match s.entries.first() {
            Some((env, stamp, _)) if *stamp <= clock => vec![SysAction::Recv(env.clone())],
            _ => Vec::new(),
        }
    }

    fn clock_deadline(&self, s: &Self::State, _clock: Time) -> Option<Time> {
        // ν precondition: the clock may not pass any buffered stamp.
        s.entries.first().map(|(_, stamp, _)| *stamp)
    }

    fn clock_wake(&self, s: &Self::State, clock: Time) -> WakeHint {
        // The front entry carries the minimum stamp: below it nothing is
        // releasable and the deadline stands; an empty buffer only changes
        // by `ERECVMSG`, a step.
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
    type Buf = RecvBuffer<u32, &'static str>;

    fn at(n: i64) -> Time {
        Time::ZERO + Duration::from_millis(n)
    }

    fn env(id: u64) -> Envelope<u32> {
        Envelope {
            src: NodeId(1),
            dst: NodeId(0),
            id: MsgId(id),
            payload: id as u32,
        }
    }

    #[test]
    fn holds_future_stamped_message_until_clock_catches_up() {
        let b = Buf::new(NodeId(1), NodeId(0));
        let clock = at(5);
        let stamp = at(8); // sender's clock was ahead
        let s = b
            .step(&b.initial(), &A::ERecv(env(1), stamp), clock)
            .unwrap();
        // Not releasable yet; clock pinned at the stamp.
        assert!(b.enabled(&s, clock).is_empty());
        assert_eq!(b.clock_deadline(&s, clock), Some(stamp));
        // Once the clock reads the stamp, release.
        assert_eq!(b.enabled(&s, stamp), vec![A::Recv(env(1))]);
        let s2 = b.step(&s, &A::Recv(env(1)), stamp).unwrap();
        assert!(s2.is_empty());
    }

    #[test]
    fn past_stamped_message_releases_immediately() {
        let b = Buf::new(NodeId(1), NodeId(0));
        let clock = at(9);
        let s = b
            .step(&b.initial(), &A::ERecv(env(1), at(4)), clock)
            .unwrap();
        assert_eq!(b.enabled(&s, clock), vec![A::Recv(env(1))]);
    }

    #[test]
    fn reordered_arrivals_release_in_stamp_order() {
        // The scenario that deadlocks a FIFO reading of Figure 2: the
        // late-stamped message arrives first.
        let b = Buf::new(NodeId(1), NodeId(0));
        let clock = at(5);
        let mut s = b.initial();
        s = b.step(&s, &A::ERecv(env(1), at(9)), clock).unwrap(); // future stamp
        s = b.step(&s, &A::ERecv(env(2), at(3)), clock).unwrap(); // past stamp
                                                                  // The past-stamped message is the front and releases now.
        assert_eq!(b.enabled(&s, clock), vec![A::Recv(env(2))]);
        s = b.step(&s, &A::Recv(env(2)), clock).unwrap();
        // The future-stamped one pins the clock at its stamp.
        assert_eq!(b.clock_deadline(&s, clock), Some(at(9)));
        assert_eq!(b.enabled(&s, at(9)), vec![A::Recv(env(1))]);
    }

    #[test]
    fn equal_stamps_release_in_arrival_order() {
        let b = Buf::new(NodeId(1), NodeId(0));
        let clock = at(5);
        let stamp = at(7);
        let mut s = b.initial();
        s = b.step(&s, &A::ERecv(env(10), stamp), clock).unwrap();
        s = b.step(&s, &A::ERecv(env(20), stamp), clock).unwrap();
        assert_eq!(b.enabled(&s, stamp), vec![A::Recv(env(10))]);
        s = b.step(&s, &A::Recv(env(10)), stamp).unwrap();
        assert_eq!(b.enabled(&s, stamp), vec![A::Recv(env(20))]);
    }

    #[test]
    fn release_out_of_order_refused() {
        let b = Buf::new(NodeId(1), NodeId(0));
        let clock = at(10);
        let mut s = b.initial();
        s = b.step(&s, &A::ERecv(env(1), at(2)), clock).unwrap();
        s = b.step(&s, &A::ERecv(env(2), at(4)), clock).unwrap();
        // env(2) is not the front.
        assert!(b.step(&s, &A::Recv(env(2)), clock).is_none());
    }

    #[test]
    fn only_own_edge_in_signature() {
        let b = Buf::new(NodeId(1), NodeId(0));
        let other = Envelope {
            src: NodeId(2),
            dst: NodeId(0),
            id: MsgId(1),
            payload: 0,
        };
        assert_eq!(b.classify(&A::ERecv(other, at(0))), None);
        assert_eq!(
            b.classify(&A::ERecv(env(1), at(0))),
            Some(ActionKind::Input)
        );
        assert_eq!(b.classify(&A::Recv(env(1))), Some(ActionKind::Output));
        assert_eq!(b.classify(&A::Send(env(1))), None);
    }
}
