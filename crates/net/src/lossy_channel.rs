//! A lossy channel — an *extension beyond the paper*.
//!
//! The paper assumes reliable channels and explicitly defers faults to
//! future work (Section 7.3). [`DropSeeded`] is the faulty-channel half of
//! that extension point: a [`ChannelFault`] that drops a seeded share of a
//! Figure 1 channel's messages. It exists so the test suite can demonstrate
//! *which* guarantees depend on reliability (the register algorithms'
//! updates are fire-and-forget, so losses break freshness — see
//! `tests/fault_extension.rs`).

use psync_time::{DelayBounds, Duration, Time};

use crate::delay::splitmix64;
use crate::{ChannelFault, MsgId, NodeId};

/// Drops each message independently with probability `percent`/100,
/// seeded and pure in the message identity; every other message defers to
/// the channel's delay policy.
#[derive(Debug, Clone, Copy)]
pub struct DropSeeded {
    seed: u64,
    percent: u8,
}

impl DropSeeded {
    /// Creates the fault.
    ///
    /// # Panics
    ///
    /// Panics if `percent > 100`.
    #[must_use]
    pub fn new(seed: u64, percent: u8) -> Self {
        assert!(percent <= 100, "drop percentage over 100");
        DropSeeded { seed, percent }
    }

    /// `true` if the message with identity `id` on `src → dst` is dropped.
    fn drops(&self, src: NodeId, dst: NodeId, id: MsgId) -> bool {
        let h = splitmix64(self.seed ^ splitmix64(id.0) ^ ((src.0 as u64) << 40) ^ dst.0 as u64);
        (h % 100) < u64::from(self.percent)
    }
}

impl ChannelFault for DropSeeded {
    fn deliveries(
        &self,
        src: NodeId,
        dst: NodeId,
        id: MsgId,
        _: Time,
        _: DelayBounds,
    ) -> Option<Vec<Duration>> {
        self.drops(src, dst, id).then(Vec::new)
    }
}

#[cfg(test)]
mod tests {
    use psync_automata::TimedComponent;

    use super::*;
    use crate::channel::tests::{env, ms, short, Ch, A};
    use crate::{FaultChannel, MaxDelay};

    #[test]
    fn drop_none_behaves_like_plain_channel() {
        let ch: Ch = FaultChannel::new(
            NodeId(0),
            NodeId(1),
            short(),
            MaxDelay,
            DropSeeded::new(1, 0),
        );
        let s = ch
            .step(&ch.initial(), &A::Send(env(1)), Time::ZERO)
            .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(ch.enabled(&s, Time::ZERO + ms(3)), vec![A::Recv(env(1))]);
    }

    #[test]
    fn dropped_messages_vanish_silently() {
        // 100% drop: every send is accepted, nothing is buffered.
        let ch: Ch = FaultChannel::new(
            NodeId(0),
            NodeId(1),
            short(),
            MaxDelay,
            DropSeeded::new(1, 100),
        );
        let mut s = ch.initial();
        for id in 0..10 {
            s = ch.step(&s, &A::Send(env(id)), Time::ZERO).unwrap();
        }
        assert!(s.is_empty());
        assert_eq!(ch.deadline(&s, Time::ZERO), None);
    }

    #[test]
    fn seeded_drop_rate_is_roughly_right_and_deterministic() {
        let policy = DropSeeded::new(42, 30);
        let dropped: Vec<bool> = (0..1000)
            .map(|i| policy.drops(NodeId(0), NodeId(1), MsgId(i)))
            .collect();
        let count = dropped.iter().filter(|d| **d).count();
        assert!(
            (200..400).contains(&count),
            "drop rate {count}/1000 far from 30%"
        );
        let again: Vec<bool> = (0..1000)
            .map(|i| policy.drops(NodeId(0), NodeId(1), MsgId(i)))
            .collect();
        assert_eq!(dropped, again);
    }

    #[test]
    #[should_panic(expected = "over 100")]
    fn over_100_percent_rejected() {
        let _ = DropSeeded::new(1, 101);
    }
}
