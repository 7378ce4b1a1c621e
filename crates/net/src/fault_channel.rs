//! A plan-driven fault channel — the channel half of the fault-injection
//! explorer's admissible adversary.
//!
//! Where [`LossyChannel`](crate::LossyChannel) drops messages by a seeded
//! probability, `FaultChannel` asks a [`ChannelFault`] for the *exact
//! delivery dispositions* of each message: deliver once with the base
//! policy's delay, deliver several copies (duplication), deliver with a
//! specific in-bounds delay (a spike), or not at all (a drop). Every
//! disposition is a pure function of the message identity, so executions
//! stay bit-for-bit reproducible — the property the explorer's replay
//! artifacts depend on.
//!
//! The channel still asserts every chosen delay against its `[d₁, d₂]`
//! bounds: a fault plan cannot smuggle an out-of-envelope delivery past
//! the admissibility check (Definition 2.2's channel automaton is only a
//! Figure 1 channel while delays respect the bounds).

use core::cell::Cell;
use core::fmt::Debug;
use core::hash::Hash;
use std::rc::Rc;

use psync_automata::{Action, ActionKind, TimedComponent};
use psync_time::{DelayBounds, Duration, Time};

use crate::channel::InFlight;
use crate::{edge_route_key, DelayPolicy, Envelope, MsgId, NodeId, SysAction};

/// Shared-handle fault counters for one [`FaultChannel`] (the
/// `ScriptedClock::rejections` idiom): clone the handle out of
/// [`FaultChannel::stats`] before moving the channel into an engine, read
/// it after the run. Counters tick inside `step`, which the engines call
/// exactly once per fired action, so the counts are exact per execution.
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

    /// Sends the fault plan turned into zero deliveries.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Sends the fault plan turned into two or more copies.
    #[must_use]
    pub fn duplicated(&self) -> u64 {
        self.duplicated.get()
    }

    /// Sends where the fault plan overrode the base policy's delay for a
    /// single copy (a delay spike).
    #[must_use]
    pub fn spiked(&self) -> u64 {
        self.spiked.get()
    }
}

/// Decides how a [`FaultChannel`] delivers each message. Pure per-message
/// function of the message identity, so runs stay reproducible.
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

/// No faults: every message defers to the base delay policy. A
/// [`FaultChannel`] with this fault is a plain channel.
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

/// A channel whose drops, duplications and delay spikes are dictated by a
/// [`ChannelFault`] plan (extension point for the paper's future-work
/// fault model, Section 7.3).
pub struct FaultChannel<M, A> {
    from: NodeId,
    to: NodeId,
    bounds: DelayBounds,
    delay: Box<dyn DelayPolicy>,
    fault: Box<dyn ChannelFault>,
    stats: FaultStats,
    _marker: core::marker::PhantomData<fn() -> (M, A)>,
}

impl<M, A> FaultChannel<M, A> {
    /// Creates the fault channel for edge `from → to`. `delay` chooses
    /// delays for unfaulted messages; `fault` overrides dispositions
    /// per message.
    #[must_use]
    pub fn new(
        from: NodeId,
        to: NodeId,
        bounds: DelayBounds,
        delay: impl DelayPolicy,
        fault: impl ChannelFault,
    ) -> Self {
        FaultChannel {
            from,
            to,
            bounds,
            delay: Box::new(delay),
            fault: Box::new(fault),
            stats: FaultStats::default(),
            _marker: core::marker::PhantomData,
        }
    }

    /// A shared handle onto this channel's fault counters. Clone it before
    /// moving the channel into an engine and read it after the run.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats.clone()
    }

    fn routes(&self, env: &Envelope<M>) -> bool {
        env.src == self.from && env.dst == self.to
    }
}

impl<M, A> TimedComponent for FaultChannel<M, A>
where
    M: Clone + Eq + Hash + Debug + 'static,
    A: Action,
{
    type Action = SysAction<M, A>;
    type State = Vec<InFlight<M>>;

    fn name(&self) -> String {
        format!("fault-channel({}→{}, {})", self.from, self.to, self.bounds)
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
                let planned = self
                    .fault
                    .deliveries(env.src, env.dst, env.id, now, self.bounds);
                FaultStats::bump(&self.stats.sends);
                match planned.as_deref() {
                    Some([]) => FaultStats::bump(&self.stats.dropped),
                    Some([_, _, ..]) => FaultStats::bump(&self.stats.duplicated),
                    Some([_]) => FaultStats::bump(&self.stats.spiked),
                    None => {}
                }
                let delays = planned
                    .unwrap_or_else(|| vec![self.delay.delay_for_dyn(env, now, self.bounds)]);
                let mut next = s.clone();
                for delay in delays {
                    assert!(
                        self.bounds.contains(delay),
                        "fault plan chose delay {delay} outside {}",
                        self.bounds
                    );
                    next.push(InFlight {
                        env: env.clone(),
                        sent_at: now,
                        due: now + delay,
                    });
                }
                Some(next)
            }
            SysAction::Recv(env) if self.routes(env) => {
                let pos = s.iter().position(|f| f.env == *env && f.due <= now)?;
                FaultStats::bump(&self.stats.delivered);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MaxDelay;

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
        let bounds = DelayBounds::new(ms(1), ms(3)).unwrap();
        let ch: FaultChannel<u32, &'static str> =
            FaultChannel::new(NodeId(0), NodeId(1), bounds, MaxDelay, Script);
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
        let bounds = DelayBounds::new(ms(1), ms(3)).unwrap();
        let ch: FaultChannel<u32, &'static str> =
            FaultChannel::new(NodeId(0), NodeId(1), bounds, MaxDelay, NoChannelFaults);
        let s = ch
            .step(&ch.initial(), &A::Send(env(9)), Time::ZERO)
            .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(ch.enabled(&s, Time::ZERO + ms(3)), vec![A::Recv(env(9))]);
    }

    #[test]
    fn stats_count_dispositions_and_deliveries() {
        let bounds = DelayBounds::new(ms(1), ms(3)).unwrap();
        let ch: FaultChannel<u32, &'static str> =
            FaultChannel::new(NodeId(0), NodeId(1), bounds, MaxDelay, Script);
        let stats = ch.stats();
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
        let bounds = DelayBounds::new(ms(1), ms(3)).unwrap();
        let ch: FaultChannel<u32, &'static str> =
            FaultChannel::new(NodeId(0), NodeId(1), bounds, MaxDelay, Bad);
        let _ = ch.step(&ch.initial(), &A::Send(env(0)), Time::ZERO);
    }
}
