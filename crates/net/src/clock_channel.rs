//! The clock-model channel `E^c_{ij,[d₁,d₂]}` (Section 4.1): the
//! [`Channel`] automaton on the stamped wire.

use psync_automata::ActionKind;
use psync_time::Time;

use crate::{Channel, Envelope, SysAction, Wire};

/// The clock model's `ESENDMSG`/`ERECVMSG`, carrying the sender's clock
/// stamp `c` (Section 4.1).
#[derive(Debug)]
pub struct ClockWire;

impl Wire for ClockWire {
    const KIND: &'static str = "clock-";
    const ACTIONS: [&'static str; 2] = ["ESENDMSG", "ERECVMSG"];

    fn open<M, A>(a: &SysAction<M, A>) -> Option<(ActionKind, &Envelope<M>, Option<Time>)> {
        match a {
            SysAction::ESend(env, c) => Some((ActionKind::Input, env, Some(*c))),
            SysAction::ERecv(env, c) => Some((ActionKind::Output, env, Some(*c))),
            _ => None,
        }
    }

    fn deliver<M, A>(env: Envelope<M>, stamp: Time) -> SysAction<M, A> {
        SysAction::ERecv(env, stamp)
    }
}

/// The clock-model channel `E^c_{ij,[d₁,d₂]}` (Section 4.1).
pub type ClockChannel<M, A> = Channel<M, A, ClockWire>;

#[cfg(test)]
mod tests {
    use psync_automata::{ActionKind, TimedComponent};
    use psync_time::{DelayBounds, Time};

    use crate::channel::tests::{env, ms, short, A};
    use crate::{ClockChannel, MaxDelay, NodeId};

    #[test]
    fn stamp_travels_with_the_message() {
        let ch: ClockChannel<u32, &'static str> =
            ClockChannel::new(NodeId(0), NodeId(1), short(), MaxDelay);
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
        let ch: ClockChannel<u32, &'static str> =
            ClockChannel::new(NodeId(0), NodeId(1), short(), MaxDelay);
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
