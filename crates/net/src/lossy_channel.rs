//! A lossy channel — an *extension beyond the paper*.
//!
//! The paper assumes reliable channels and explicitly defers faults to
//! future work (Section 7.3: "it appears that the results will extend to
//! cases involving faulty nodes and also faulty message channels").
//! `LossyChannel` provides the faulty-channel half of that extension
//! point: a Figure 1 channel that drops a policy-chosen subset of
//! messages. It exists so the test suite can demonstrate *which*
//! guarantees depend on reliability (the register algorithms' updates are
//! fire-and-forget, so losses break freshness — see
//! `tests/fault_extension.rs`).

use core::fmt::Debug;
use core::hash::Hash;

use psync_automata::{Action, ActionKind, TimedComponent, WakeHint};
use psync_time::{DelayBounds, Time};

use crate::channel::InFlight;
use crate::{edge_route_key, DelayPolicy, Envelope, MsgId, NodeId, SysAction};

/// Decides which messages a [`LossyChannel`] drops. Pure per-message
/// function, so runs stay reproducible.
pub trait DropPolicy: 'static {
    /// `true` to drop the message with identity `id` sent at `sent_at`.
    fn drops(&self, src: NodeId, dst: NodeId, id: MsgId, sent_at: Time) -> bool;
}

/// Drops nothing — a [`LossyChannel`] with this policy is a plain channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct DropNone;

impl DropPolicy for DropNone {
    fn drops(&self, _: NodeId, _: NodeId, _: MsgId, _: Time) -> bool {
        false
    }
}

/// Drops each message independently with probability `percent`/100,
/// seeded and pure in the message identity.
#[derive(Debug, Clone, Copy)]
pub struct DropSeeded {
    seed: u64,
    percent: u8,
}

impl DropSeeded {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `percent > 100`.
    #[must_use]
    pub fn new(seed: u64, percent: u8) -> Self {
        assert!(percent <= 100, "drop percentage over 100");
        DropSeeded { seed, percent }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DropPolicy for DropSeeded {
    fn drops(&self, src: NodeId, dst: NodeId, id: MsgId, _sent_at: Time) -> bool {
        let h = splitmix64(self.seed ^ splitmix64(id.0) ^ ((src.0 as u64) << 40) ^ dst.0 as u64);
        (h % 100) < u64::from(self.percent)
    }
}

/// A channel that silently drops a subset of its messages (extension
/// point for the paper's future-work fault model).
pub struct LossyChannel<M, A> {
    from: NodeId,
    to: NodeId,
    bounds: DelayBounds,
    delay: Box<dyn DelayPolicy>,
    drop: Box<dyn DropPolicy>,
    _marker: core::marker::PhantomData<fn() -> (M, A)>,
}

impl<M, A> LossyChannel<M, A> {
    /// Creates the lossy channel for edge `from → to`.
    #[must_use]
    pub fn new(
        from: NodeId,
        to: NodeId,
        bounds: DelayBounds,
        delay: impl DelayPolicy,
        drop: impl DropPolicy,
    ) -> Self {
        LossyChannel {
            from,
            to,
            bounds,
            delay: Box::new(delay),
            drop: Box::new(drop),
            _marker: core::marker::PhantomData,
        }
    }

    fn routes(&self, env: &Envelope<M>) -> bool {
        env.src == self.from && env.dst == self.to
    }
}

impl<M, A> TimedComponent for LossyChannel<M, A>
where
    M: Clone + Eq + Hash + Debug + 'static,
    A: Action,
{
    type Action = SysAction<M, A>;
    type State = Vec<InFlight<M>>;

    fn name(&self) -> String {
        format!("lossy-channel({}→{}, {})", self.from, self.to, self.bounds)
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
                if self.drop.drops(env.src, env.dst, env.id, now) {
                    // The message vanishes: accepted (inputs always are)
                    // but never buffered.
                    return Some(s.clone());
                }
                let delay = self.delay.delay_for_dyn(env, now, self.bounds);
                assert!(self.bounds.contains(delay));
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
        // Drops happen at send time (`step`), so in-flight contents — and
        // with them enabledness and the deadline — are frozen until the
        // earliest due time.
        match s.iter().map(|f| f.due).min() {
            Some(due) => WakeHint::At(due),
            None => WakeHint::Never,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MaxDelay;
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
            payload: 0,
        }
    }

    #[test]
    fn drop_none_behaves_like_plain_channel() {
        let bounds = DelayBounds::new(ms(1), ms(3)).unwrap();
        let ch: LossyChannel<u32, &'static str> =
            LossyChannel::new(NodeId(0), NodeId(1), bounds, MaxDelay, DropNone);
        let s = ch
            .step(&ch.initial(), &A::Send(env(1)), Time::ZERO)
            .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(ch.enabled(&s, Time::ZERO + ms(3)), vec![A::Recv(env(1))]);
    }

    #[test]
    fn dropped_messages_vanish_silently() {
        let bounds = DelayBounds::new(ms(1), ms(3)).unwrap();
        // 100% drop: every send is accepted, nothing is buffered.
        let ch: LossyChannel<u32, &'static str> = LossyChannel::new(
            NodeId(0),
            NodeId(1),
            bounds,
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
        let bounds = DelayBounds::new(ms(1), ms(3)).unwrap();
        let policy = DropSeeded::new(42, 30);
        let dropped: Vec<bool> = (0..1000)
            .map(|i| policy.drops(NodeId(0), NodeId(1), MsgId(i), Time::ZERO))
            .collect();
        let count = dropped.iter().filter(|d| **d).count();
        assert!(
            (200..400).contains(&count),
            "drop rate {count}/1000 far from 30%"
        );
        let again: Vec<bool> = (0..1000)
            .map(|i| policy.drops(NodeId(0), NodeId(1), MsgId(i), Time::ZERO))
            .collect();
        assert_eq!(dropped, again);
        let _ = bounds;
    }

    #[test]
    #[should_panic(expected = "over 100")]
    fn over_100_percent_rejected() {
        let _ = DropSeeded::new(1, 101);
    }
}
