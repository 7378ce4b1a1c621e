//! A plan-driven fault channel — the channel half of the fault-injection
//! explorer's admissible adversary (Section 7.3's faulty channels).
//!
//! A [`ChannelFault`] attached to a [`Channel`] decides the
//! *exact delivery dispositions* of each message: deliver once with the
//! base policy's delay, deliver several copies (duplication), deliver with
//! a specific in-bounds delay (a spike), or not at all (a drop). Every
//! disposition is a pure function of the message identity, so executions
//! stay bit-for-bit reproducible — the property the explorer's replay
//! artifacts depend on.

use core::cell::Cell;
use core::marker::PhantomData;
use std::rc::Rc;

use psync_time::{DelayBounds, Duration, Time};

use crate::{Channel, DelayPolicy, MsgId, NodeId};

/// Shared-handle fault counters for one fault-wired channel (the
/// `ScriptedClock::rejections` idiom): clone the handle out of
/// [`Channel::stats`] before moving the channel
/// into an engine, read it after the run. Counters tick inside `step`,
/// which the engines call exactly once per fired action, so the counts are
/// exact per execution.
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    sends: Rc<Cell<u64>>,
    delivered: Rc<Cell<u64>>,
    dropped: Rc<Cell<u64>>,
    duplicated: Rc<Cell<u64>>,
    spiked: Rc<Cell<u64>>,
}

impl FaultStats {
    fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }

    /// Counts one copy handed over.
    pub(crate) fn count_delivery(&self) {
        FaultStats::bump(&self.delivered);
    }

    /// Counts one send whose fault disposition was `planned`.
    pub(crate) fn count_send(&self, planned: Option<&[Duration]>) {
        FaultStats::bump(&self.sends);
        match planned {
            Some([]) => FaultStats::bump(&self.dropped),
            Some([_, _, ..]) => FaultStats::bump(&self.duplicated),
            Some([_]) => FaultStats::bump(&self.spiked),
            None => {}
        }
    }

    /// Messages accepted via `SENDMSG`.
    #[must_use]
    pub fn sends(&self) -> u64 {
        self.sends.get()
    }

    /// Copies handed over via `RECVMSG`.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// Sends the fault turned into zero deliveries.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Sends the fault turned into two or more copies.
    #[must_use]
    pub fn duplicated(&self) -> u64 {
        self.duplicated.get()
    }

    /// Sends the fault turned into exactly one copy with a delay of its
    /// own choosing (`Some([d])`), whether or not `d` differs from the base
    /// policy's. Only sends the fault defers (`None`) are not counted, so
    /// under a fault that never defers — the explorer's plan fault — this
    /// is every single-copy send, not only the delay spikes.
    #[must_use]
    pub fn spiked(&self) -> u64 {
        self.spiked.get()
    }
}

/// Decides how a fault-wired channel delivers each message. Pure
/// per-message function of the message identity, so runs stay
/// reproducible.
pub trait ChannelFault: 'static {
    /// The delivery delays for message `id` sent at `sent_at` on edge
    /// `src → dst`, or `None` to defer to the channel's base delay policy
    /// (one copy, policy-chosen delay).
    ///
    /// `Some(vec![])` drops the message; `Some(vec![d])` delivers one copy
    /// after `d`; longer vectors deliver duplicates. Every returned delay
    /// must lie within `bounds` — the channel asserts it.
    fn deliveries(
        &self,
        src: NodeId,
        dst: NodeId,
        id: MsgId,
        sent_at: Time,
        bounds: DelayBounds,
    ) -> Option<Vec<Duration>>;
}

/// No faults: every message defers to the base delay policy. A channel
/// with this fault delivers as a plain channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoChannelFaults;

impl ChannelFault for NoChannelFaults {
    fn deliveries(
        &self,
        _: NodeId,
        _: NodeId,
        _: MsgId,
        _: Time,
        _: DelayBounds,
    ) -> Option<Vec<Duration>> {
        None
    }
}

/// The plan-driven channel of the fault-injection explorer (Section 7.3):
/// a timed [`Channel`] whose drops, duplications and delay spikes a
/// [`ChannelFault`] dictates.
pub struct FaultChannel<M, A>(PhantomData<fn() -> (M, A)>);

impl<M, A> FaultChannel<M, A> {
    /// `Channel::new(from, to, bounds, delay).with_fault(fault)`: `delay`
    /// chooses delays for messages the fault defers; `fault` decides the
    /// rest.
    #[allow(clippy::new_ret_no_self)] // a constructor kept under its model name
    #[must_use]
    pub fn new(
        from: NodeId,
        to: NodeId,
        bounds: DelayBounds,
        delay: impl DelayPolicy,
        fault: impl ChannelFault,
    ) -> Channel<M, A> {
        Channel::new(from, to, bounds, delay).with_fault(fault)
    }
}

#[cfg(test)]
mod tests {
    use psync_automata::TimedComponent;

    use super::*;
    use crate::channel::tests::{env, ms, short, Ch, A};
    use crate::MaxDelay;

    struct Script;
    impl ChannelFault for Script {
        fn deliveries(
            &self,
            _: NodeId,
            _: NodeId,
            id: MsgId,
            _: Time,
            bounds: DelayBounds,
        ) -> Option<Vec<Duration>> {
            match id.0 {
                0 => Some(vec![]),                           // drop
                1 => Some(vec![bounds.min(), bounds.max()]), // duplicate
                2 => Some(vec![bounds.max()]),               // spike
                _ => None,                                   // defer to base
            }
        }
    }

    #[test]
    fn dispositions_drop_duplicate_spike_and_defer() {
        let ch: Ch = FaultChannel::new(NodeId(0), NodeId(1), short(), MaxDelay, Script);
        let mut s = ch.initial();
        for id in 0..4 {
            s = ch.step(&s, &A::Send(env(id)), Time::ZERO).unwrap();
        }
        // id 0 dropped, id 1 duplicated: 2 + 1 + 1 copies in flight.
        assert_eq!(s.len(), 4);
        // First copy of the duplicate is due at d₁.
        assert_eq!(ch.deadline(&s, Time::ZERO), Some(Time::ZERO + ms(1)));
        // At d₂ everything is deliverable; both duplicate copies appear.
        let at = Time::ZERO + ms(3);
        let recv1 = ch
            .enabled(&s, at)
            .iter()
            .filter(|a| matches!(a, A::Recv(e) if e.id == MsgId(1)))
            .count();
        assert_eq!(recv1, 2);
        // Receiving consumes one copy at a time.
        let s = ch.step(&s, &A::Recv(env(1)), at).unwrap();
        assert_eq!(s.len(), 3);
        let s = ch.step(&s, &A::Recv(env(1)), at).unwrap();
        assert_eq!(s.len(), 2);
        assert!(ch.step(&s, &A::Recv(env(1)), at).is_none());
    }

    #[test]
    fn no_faults_is_a_plain_channel() {
        let ch: Ch = FaultChannel::new(NodeId(0), NodeId(1), short(), MaxDelay, NoChannelFaults);
        let s = ch
            .step(&ch.initial(), &A::Send(env(9)), Time::ZERO)
            .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(ch.enabled(&s, Time::ZERO + ms(3)), vec![A::Recv(env(9))]);
    }

    #[test]
    fn stats_count_dispositions_and_deliveries() {
        let ch: Ch = FaultChannel::new(NodeId(0), NodeId(1), short(), MaxDelay, Script);
        let stats = ch.stats().unwrap();
        let mut s = ch.initial();
        for id in 0..4 {
            s = ch.step(&s, &A::Send(env(id)), Time::ZERO).unwrap();
        }
        assert_eq!(stats.sends(), 4);
        assert_eq!(stats.dropped(), 1); // id 0
        assert_eq!(stats.duplicated(), 1); // id 1
        assert_eq!(stats.spiked(), 1); // id 2
        assert_eq!(stats.delivered(), 0);
        let at = Time::ZERO + ms(3);
        let s = ch.step(&s, &A::Recv(env(1)), at).unwrap();
        let _ = ch.step(&s, &A::Recv(env(1)), at).unwrap();
        // A refused Recv (no copy left) must not count as a delivery.
        assert!(ch.step(&s, &A::Recv(env(0)), at).is_none());
        assert_eq!(stats.delivered(), 2);
        assert_eq!(stats.sends(), 4, "receives do not re-count sends");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_bounds_disposition_is_rejected() {
        struct Bad;
        impl ChannelFault for Bad {
            fn deliveries(
                &self,
                _: NodeId,
                _: NodeId,
                _: MsgId,
                _: Time,
                bounds: DelayBounds,
            ) -> Option<Vec<Duration>> {
                Some(vec![bounds.max() + Duration::NANOSECOND])
            }
        }
        let ch: Ch = FaultChannel::new(NodeId(0), NodeId(1), short(), MaxDelay, Bad);
        let _ = ch.step(&ch.initial(), &A::Send(env(0)), Time::ZERO);
    }
}
