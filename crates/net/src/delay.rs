//! Delay adversaries: where inside `[d₁, d₂]` each message lands.
//!
//! The channel automaton of Figure 1 is nondeterministic: a message sent at
//! `t` may be delivered at any time in `[t + d₁, t + d₂]`. A [`DelayPolicy`]
//! resolves that nondeterminism per message, *deterministically*: the
//! policy is a pure function of the message's identity and send time, so a
//! run is reproducible from its seeds. Because distinct messages may be
//! assigned delays in any order, reordering (which the paper's reliable
//! channels permit, Section 2.4) arises naturally.

use psync_time::{DelayBounds, Duration, Time};

use crate::{Envelope, MsgId, NodeId};

/// Chooses the delivery delay of one message, inside the channel's bounds.
pub trait DelayPolicy: 'static {
    /// The delay for the message with identity `id` from `src` to `dst`,
    /// sent at `sent_at`. Must lie in `bounds`; the channel asserts it.
    fn delay(
        &self,
        src: NodeId,
        dst: NodeId,
        id: MsgId,
        sent_at: Time,
        bounds: DelayBounds,
    ) -> Duration;

    /// Convenience: the delay for an envelope.
    fn delay_for<M>(&self, env: &Envelope<M>, sent_at: Time, bounds: DelayBounds) -> Duration
    where
        Self: Sized,
    {
        self.delay(env.src, env.dst, env.id, sent_at, bounds)
    }
}

impl DelayPolicy for Box<dyn DelayPolicy> {
    fn delay(
        &self,
        src: NodeId,
        dst: NodeId,
        id: MsgId,
        sent_at: Time,
        bounds: DelayBounds,
    ) -> Duration {
        (**self).delay(src, dst, id, sent_at, bounds)
    }
}

/// Every message takes exactly `d₁` — the fastest network the model allows.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinDelay;

impl DelayPolicy for MinDelay {
    fn delay(&self, _: NodeId, _: NodeId, _: MsgId, _: Time, bounds: DelayBounds) -> Duration {
        bounds.min()
    }
}

/// Every message takes exactly `d₂` — the slowest network the model allows.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxDelay;

impl DelayPolicy for MaxDelay {
    fn delay(&self, _: NodeId, _: NodeId, _: MsgId, _: Time, bounds: DelayBounds) -> Duration {
        bounds.max()
    }
}

/// A seeded pseudo-random delay per message, uniform over `[d₁, d₂]` and a
/// pure function of `(seed, message id)` — reproducible jitter that also
/// exercises reordering.
#[derive(Debug, Clone, Copy)]
pub struct SeededDelay {
    seed: u64,
}

impl SeededDelay {
    /// Creates the policy from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SeededDelay { seed }
    }
}

/// SplitMix64: a small, high-quality 64-bit mixer (public domain).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DelayPolicy for SeededDelay {
    fn delay(
        &self,
        src: NodeId,
        dst: NodeId,
        id: MsgId,
        _sent_at: Time,
        bounds: DelayBounds,
    ) -> Duration {
        let width = bounds.width().as_nanos();
        if width == 0 {
            return bounds.min();
        }
        let h = splitmix64(self.seed ^ splitmix64(id.0) ^ ((src.0 as u64) << 48) ^ (dst.0 as u64));
        let offset = (h % (width as u64 + 1)) as i64;
        bounds.min() + Duration::from_nanos(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> DelayBounds {
        DelayBounds::new(Duration::from_millis(1), Duration::from_millis(5)).unwrap()
    }

    #[test]
    fn min_and_max_hit_the_extremes() {
        assert_eq!(
            MinDelay.delay(NodeId(0), NodeId(1), MsgId(1), Time::ZERO, bounds()),
            Duration::from_millis(1)
        );
        assert_eq!(
            MaxDelay.delay(NodeId(0), NodeId(1), MsgId(1), Time::ZERO, bounds()),
            Duration::from_millis(5)
        );
    }

    #[test]
    fn seeded_delay_is_in_bounds_and_deterministic() {
        let p = SeededDelay::new(99);
        for i in 0..500 {
            let d = p.delay(NodeId(0), NodeId(1), MsgId(i), Time::ZERO, bounds());
            assert!(bounds().contains(d), "delay {d} out of bounds");
            let again = p.delay(NodeId(0), NodeId(1), MsgId(i), Time::ZERO, bounds());
            assert_eq!(d, again);
        }
    }

    #[test]
    fn seeded_delay_varies_across_messages() {
        let p = SeededDelay::new(7);
        let delays: Vec<Duration> = (0..50)
            .map(|i| p.delay(NodeId(0), NodeId(1), MsgId(i), Time::ZERO, bounds()))
            .collect();
        let first = delays[0];
        assert!(
            delays.iter().any(|d| *d != first),
            "500 identical delays is not jitter"
        );
    }

    #[test]
    fn seeded_delay_on_degenerate_interval() {
        let exact = DelayBounds::exact(Duration::from_millis(3));
        let p = SeededDelay::new(1);
        assert_eq!(
            p.delay(NodeId(0), NodeId(1), MsgId(4), Time::ZERO, exact),
            Duration::from_millis(3)
        );
    }

    #[test]
    fn delay_for_uses_envelope_identity() {
        let p = SeededDelay::new(5);
        let env = Envelope {
            src: NodeId(0),
            dst: NodeId(1),
            id: MsgId(10),
            payload: (),
        };
        assert_eq!(
            p.delay_for(&env, Time::ZERO, bounds()),
            p.delay(NodeId(0), NodeId(1), MsgId(10), Time::ZERO, bounds())
        );
    }
}
