//! The channel automaton `E_{ij,[d₁,d₂]}` (Figure 1), one automaton for
//! every refinement: the clock-model renaming `E^c` carrying `(m, c)` pairs
//! (Section 4.1, [`ClockWire`](crate::ClockWire)), the order-preserving
//! channel of footnote 4 ([`Channel::fifo`]) and the faulty channels of
//! Section 7.3 ([`Channel::with_fault`]). The wire is chosen by type, FIFO
//! order and the fault when the channel is built.

use core::fmt::{Debug, Write};
use core::hash::Hash;
use core::marker::PhantomData;

use psync_automata::{Action, ActionKind, TimedComponent, WakeHint};
use psync_time::{DelayBounds, Time};

use crate::{edge_route_key, ChannelFault, DelayPolicy, Envelope, FaultStats, NodeId, SysAction};

/// One in-flight message: an element of the channel's buffer `b_{ij}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlight<M> {
    /// The message.
    pub env: Envelope<M>,
    /// The time the buffer keeps with the message: on a [`TimedWire`] the
    /// real time `t` of the `SENDMSG` (Figure 1's `(m, t)`), on a
    /// [`ClockWire`](crate::ClockWire) the sender's clock stamp `c` of the pair `(m, c)`.
    pub stamp: Time,
    /// Delivery time, in `[now + d₁, now + d₂]` of the send.
    pub due: Time,
}

/// The interface actions of a channel: which [`SysAction`]s send into and
/// receive from it, and whether they carry a clock stamp.
pub trait Wire: 'static {
    /// Prefix of the channel's [`name`](TimedComponent::name).
    const KIND: &'static str;
    /// The [`Action::name`]s of the send and the receive.
    const ACTIONS: [&'static str; 2];
    /// Splits `a` into its direction (`Input` for the send, `Output` for
    /// the receive), envelope and stamp, if `a` is a message action of
    /// this wire. The stamp is `None` on a wire that carries none.
    fn open<M, A>(a: &SysAction<M, A>) -> Option<(ActionKind, &Envelope<M>, Option<Time>)>;
    /// The receive delivering `env` with the stamp kept in the buffer.
    fn deliver<M, A>(env: Envelope<M>, stamp: Time) -> SysAction<M, A>;
}

/// The timed model's `SENDMSG`/`RECVMSG` (Section 3.1).
#[derive(Debug)]
pub struct TimedWire;

impl Wire for TimedWire {
    const KIND: &'static str = "";
    const ACTIONS: [&'static str; 2] = ["SENDMSG", "RECVMSG"];

    fn open<M, A>(a: &SysAction<M, A>) -> Option<(ActionKind, &Envelope<M>, Option<Time>)> {
        match a {
            SysAction::Send(env) => Some((ActionKind::Input, env, None)),
            SysAction::Recv(env) => Some((ActionKind::Output, env, None)),
            _ => None,
        }
    }

    fn deliver<M, A>(env: Envelope<M>, _stamp: Time) -> SysAction<M, A> {
        SysAction::Recv(env)
    }
}

/// The channel automaton of Figure 1: the edge `e_{i,j}` with delay bounds
/// `[d₁, d₂]`, on the wire `W`.
///
/// * The send (input) appends the message to the buffer, with a
///   policy-chosen delivery point inside the delay envelope.
/// * The receive (output) is enabled once the delivery point is reached
///   (always within `[t + d₁, t + d₂]`).
/// * `ν` is blocked from passing any undelivered message's delivery point
///   (Figure 1 blocks at `t + d₂`; choosing the policy's point instead is a
///   refinement — every behavior is one the paper's channel allows).
///
/// Messages with different delivery points reorder freely, matching the
/// paper's reordering channels (Section 2.4), unless [`fifo`](Channel::fifo)
/// keeps send order. A [`ChannelFault`] attached with
/// [`with_fault`](Channel::with_fault) decides each message's copies and
/// delays instead of the policy.
///
/// On a [`ClockWire`](crate::ClockWire) this is `E^c` (Section 4.1): messages come from
/// `M × ℜ⁺` and the actions are renamed `ESENDMSG`/`ERECVMSG`. The channel
/// itself remains a *timed* automaton — real networks do not read node
/// clocks — so delays are still measured in real time.
pub struct Channel<M, A, W = TimedWire> {
    from: NodeId,
    to: NodeId,
    bounds: DelayBounds,
    policy: Box<dyn DelayPolicy>,
    // Boxed so that the unfaulted channel, which every system but the
    // explorer's builds, stays small.
    fault: Option<Box<Fault>>,
    fifo: bool,
    _marker: PhantomData<fn() -> (M, A)>,
    _wire: PhantomData<W>,
}

/// A channel's fault and the counters it ticks.
struct Fault {
    plan: Box<dyn ChannelFault>,
    stats: FaultStats,
}

impl<M, A, W: Wire> Channel<M, A, W> {
    /// Creates the channel for edge `from → to` with the given delay bounds
    /// and delay adversary.
    #[must_use]
    pub fn new(from: NodeId, to: NodeId, bounds: DelayBounds, policy: impl DelayPolicy) -> Self {
        Channel {
            from,
            to,
            bounds,
            policy: Box::new(policy),
            fault: None,
            fifo: false,
            _marker: PhantomData,
            _wire: PhantomData,
        }
    }

    /// Lets `fault` decide every message's deliveries, counting them in
    /// [`stats`](Channel::stats). Every delay it chooses is still asserted
    /// against the bounds: a fault cannot smuggle an out-of-envelope
    /// delivery past the admissibility check.
    #[must_use]
    pub fn with_fault(mut self, fault: impl ChannelFault) -> Self {
        self.fault = Some(Box::new(Fault {
            plan: Box::new(fault),
            stats: FaultStats::default(),
        }));
        self
    }

    /// Footnote 4's order-preserving refinement: each message's delivery
    /// point is pushed to at least that of the message ahead of it, which
    /// stays inside `[d₁, d₂]` because sends are time-ordered, and only
    /// the oldest undelivered message may be received.
    #[must_use]
    pub fn fifo(mut self) -> Self {
        self.fifo = true;
        self
    }

    /// The edge's delay bounds `[d₁, d₂]`.
    #[must_use]
    pub fn bounds(&self) -> DelayBounds {
        self.bounds
    }

    /// A shared handle onto the fault counters, or `None` without a fault.
    /// Clone it before moving the channel into an engine and read it after
    /// the run.
    #[must_use]
    pub fn stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(|f| f.stats.clone())
    }

    fn open<'a>(
        &self,
        a: &'a SysAction<M, A>,
    ) -> Option<(ActionKind, &'a Envelope<M>, Option<Time>)> {
        W::open(a).filter(|(_, env, _)| env.src == self.from && env.dst == self.to)
    }

    /// The messages that may be received next: all of them, or the head of
    /// a FIFO channel.
    fn offered<'s>(&self, s: &'s [InFlight<M>]) -> &'s [InFlight<M>] {
        if self.fifo {
            &s[..s.len().min(1)]
        } else {
            s
        }
    }
}

impl<M, A, W> TimedComponent for Channel<M, A, W>
where
    M: Clone + Eq + Hash + Debug + 'static,
    A: Action,
    W: Wire,
{
    type Action = SysAction<M, A>;
    type State = Vec<InFlight<M>>;

    fn name(&self) -> String {
        // Every part is named when it is boxed, so this runs once per edge
        // while a system is built; `format!` would reserve nothing for a
        // string that opens with an argument, and grow it several times.
        let mut name = String::with_capacity(64);
        let _ = write!(
            name,
            "{}{}channel({}→{}, {})",
            match (self.fifo, self.fault.is_some()) {
                (false, false) => "",
                (true, false) => "fifo-",
                (false, true) => "fault-",
                (true, true) => "fifo-fault-",
            },
            W::KIND,
            self.from,
            self.to,
            self.bounds
        );
        name
    }

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn classify(&self, a: &Self::Action) -> Option<ActionKind> {
        self.open(a).map(|(kind, _, _)| kind)
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        Some(W::ACTIONS.to_vec())
    }

    fn signature_key(&self) -> Option<u64> {
        edge_route_key(self.from, self.to)
    }

    fn step(&self, s: &Self::State, a: &Self::Action, now: Time) -> Option<Self::State> {
        let (kind, env, stamp) = self.open(a)?;
        if kind == ActionKind::Output {
            let pos = self.offered(s).iter().position(|f| {
                f.env == *env && stamp.is_none_or(|c| f.stamp == c) && f.due <= now
            })?;
            if let Some(f) = &self.fault {
                f.stats.count_delivery();
            }
            let mut next = s.clone();
            next.remove(pos);
            return Some(next);
        }
        debug_assert!(
            !s.iter().any(|f| f.env.id == env.id),
            "message {} sent twice: the model assumes unique messages",
            env.id
        );
        let planned = self.fault.as_ref().and_then(|f| {
            let planned = f
                .plan
                .deliveries(env.src, env.dst, env.id, now, self.bounds);
            f.stats.count_send(planned.as_deref());
            planned
        });
        let base; // the unfaulted path allocates no delay list
        let delays = match &planned {
            Some(delays) => delays.as_slice(),
            None => {
                base = [self
                    .policy
                    .delay(env.src, env.dst, env.id, now, self.bounds)];
                &base[..]
            }
        };
        let stamp = stamp.unwrap_or(now);
        let mut next = s.clone();
        for &delay in delays {
            assert!(
                self.bounds.contains(delay),
                "channel chose delay {delay} outside {}",
                self.bounds
            );
            let mut due = now + delay;
            if let Some(prev) = next.last().filter(|_| self.fifo) {
                // FIFO: never deliver before the message ahead of us.
                due = due.max(prev.due);
                debug_assert!(due <= now + self.bounds.max());
            }
            next.push(InFlight {
                env: env.clone(),
                stamp,
                due,
            });
        }
        Some(next)
    }

    fn enabled(&self, s: &Self::State, now: Time) -> Vec<Self::Action> {
        self.offered(s)
            .iter()
            .filter(|f| f.due <= now)
            .map(|f| W::deliver(f.env.clone(), f.stamp))
            .collect()
    }

    fn deadline(&self, s: &Self::State, _now: Time) -> Option<Time> {
        self.offered(s).iter().map(|f| f.due).min()
    }

    fn wake_hint(&self, s: &Self::State, now: Time) -> WakeHint {
        // Pure time passage cannot surface a delivery before the earliest
        // due time (faults act at send time); new sends go through `step`,
        // which re-dirties us.
        self.deadline(s, now).map_or(WakeHint::Never, WakeHint::At)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use psync_time::Duration;

    use super::*;
    use crate::{
        ClockChannel, DropSeeded, FaultChannel, MaxDelay, MinDelay, MsgId, NoChannelFaults,
        SeededDelay,
    };

    pub(crate) type A = SysAction<u32, &'static str>;
    pub(crate) type Ch = Channel<u32, &'static str>;

    pub(crate) fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    fn bounds() -> DelayBounds {
        DelayBounds::new(ms(1), ms(5)).unwrap()
    }

    pub(crate) fn short() -> DelayBounds {
        DelayBounds::new(ms(1), ms(3)).unwrap()
    }

    pub(crate) fn env(id: u64) -> Envelope<u32> {
        Envelope {
            src: NodeId(0),
            dst: NodeId(1),
            id: MsgId(id),
            payload: id as u32,
        }
    }

    #[test]
    fn names_follow_the_construction() {
        let (i, j, b) = (NodeId(0), NodeId(1), short());
        assert_eq!(
            Ch::new(i, j, b, MaxDelay).name(),
            "channel(n0→n1, [1ms, 3ms])"
        );
        assert_eq!(
            ClockChannel::<u32, &'static str>::new(i, j, b, MaxDelay).name(),
            "clock-channel(n0→n1, [1ms, 3ms])"
        );
        assert_eq!(
            FaultChannel::<u32, &'static str>::new(i, j, b, MaxDelay, NoChannelFaults).name(),
            "fault-channel(n0→n1, [1ms, 3ms])"
        );
        assert_eq!(
            Ch::new(i, j, b, MaxDelay).fifo().name(),
            "fifo-channel(n0→n1, [1ms, 3ms])"
        );
        // A drop-only channel is a fault channel.
        assert_eq!(
            Ch::new(i, j, b, MaxDelay)
                .with_fault(DropSeeded::new(1, 30))
                .name(),
            "fault-channel(n0→n1, [1ms, 3ms])"
        );
    }

    // The timed channel of Figure 1.

    #[test]
    fn send_then_recv_within_envelope() {
        let ch: Ch = Channel::new(NodeId(0), NodeId(1), bounds(), MaxDelay);
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
        let ch: Ch = Channel::new(NodeId(0), NodeId(1), bounds(), MaxDelay);
        let s1 = ch
            .step(&ch.initial(), &A::Send(env(1)), Time::ZERO)
            .unwrap();
        assert!(ch.step(&s1, &A::Recv(env(1)), Time::ZERO + ms(4)).is_none());
    }

    #[test]
    fn channel_only_touches_its_own_edge() {
        let ch: Ch = Channel::new(NodeId(0), NodeId(1), bounds(), MinDelay);
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

        let ch: Ch = Channel::new(NodeId(0), NodeId(1), bounds(), policy);
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
        let ch: Ch = Channel::new(NodeId(0), NodeId(1), bounds(), MinDelay);
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
        let ch: Ch = Channel::new(NodeId(0), NodeId(1), bounds(), policy);
        let mut s = ch.initial();
        let t0 = Time::ZERO + ms(7);
        for id in 0..100 {
            s = ch.step(&s, &A::Send(env(id)), t0).unwrap();
        }
        for f in &s {
            assert!(f.due >= t0 + ms(1) && f.due <= t0 + ms(5));
        }
    }

    // The order-preserving channel of footnote 4.

    #[test]
    fn delivers_strictly_in_send_order() {
        // Find a seed where message 2 would naturally overtake message 1.
        let policy = SeededDelay::new(11);
        let ch = Ch::new(NodeId(0), NodeId(1), bounds(), policy).fifo();
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
        let ch = Ch::new(NodeId(0), NodeId(1), bounds(), policy).fifo();
        let mut s = ch.initial();
        let mut t = Time::ZERO;
        for id in 1..=50 {
            t += Duration::from_micros(300);
            s = ch.step(&s, &A::Send(env(id)), t).unwrap();
        }
        // On a timed wire the stamp is the send time.
        for f in &s {
            assert!(f.due >= f.stamp + ms(1));
            assert!(
                f.due <= f.stamp + ms(5),
                "FIFO push-forward left the envelope"
            );
        }
    }

    #[test]
    fn deadline_is_head_due() {
        let ch = Ch::new(NodeId(0), NodeId(1), bounds(), MaxDelay).fifo();
        let mut s = ch.initial();
        s = ch.step(&s, &A::Send(env(1)), Time::ZERO).unwrap();
        s = ch.step(&s, &A::Send(env(2)), Time::ZERO + ms(1)).unwrap();
        assert_eq!(ch.deadline(&s, Time::ZERO), Some(Time::ZERO + ms(5)));
        let s2 = ch.step(&s, &A::Recv(env(1)), Time::ZERO + ms(5)).unwrap();
        assert_eq!(ch.deadline(&s2, Time::ZERO), Some(Time::ZERO + ms(6)));
    }
}
