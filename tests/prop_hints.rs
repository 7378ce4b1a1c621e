//! The two routing/scheduling hint contracts, checked literally.
//!
//! **Wake hints.** The engine skips a component during `ν` when its
//! [`WakeHint`](psync_automata::WakeHint) says the advance cannot matter,
//! and goes on using the enabled set, deadline and hint it cached before.
//! `psync_verify::axioms::check_clock_wake` checks that promise at one
//! state; here every component that carries a hint is driven through
//! proptest-generated walks (inputs, its own enabled actions, clock
//! advances) and checked at every state on the way. Timed components are
//! checked through `C(A, ε)` ([`ClockSim`]), whose `clock_wake` *is* the
//! inner `wake_hint` (Definition 4.1), so one walker serves both bases.
//!
//! **Route keys.** Two actions with the same name and the same
//! [`Action::route_key`] must be in the signature of the same components,
//! and a component that declares a `signature_key` must take only actions
//! carrying that key. The engine asserts both on every fired action in
//! debug builds; the test below checks them over a generated action
//! alphabet against every `SysAction`-taking component of `net`, `core`
//! and `register`, and against the wrappers that forward a declaration.

use proptest::prelude::*;
use psync::prelude::*;
use psync_automata::toys::{Beeper, ClockBeeper};
use psync_automata::ClockComponentBox;
use psync_net::{ChannelFault, FaultChannel, NoChannelFaults};
use psync_sync::probe::SyncMsg;
use psync_verify::axioms::check_clock_wake;

fn ms(n: i64) -> Duration {
    Duration::from_millis(n)
}

fn us(n: u16) -> Duration {
    Duration::from_micros(i64::from(n))
}

fn bounds() -> DelayBounds {
    DelayBounds::new(ms(1), ms(5)).unwrap()
}

/// One move of a walk: `(kind, a, b)` — kind mod 3 picks an input built
/// from `(a, b)`, the `a`-th enabled action, or a clock advance of `b` µs
/// (capped at the deadline).
type Moves = Vec<(u8, u16, u16)>;

fn script() -> impl Strategy<Value = Moves> {
    prop::collection::vec((0u8..3, 0u16..8000, 0u16..8000), 1..60)
}

/// Walks `c` along `script`, checking its hint promise at every state.
/// `input(a, b, clock, k)` builds the `k`-th move's input action, if the
/// component takes any.
fn walk<C: ClockComponent>(
    c: &C,
    script: &Moves,
    input: impl Fn(u16, u16, Time, u64) -> Option<C::Action>,
) -> Result<(), TestCaseError> {
    let mut s = c.initial();
    let mut clock = Time::ZERO;
    for (k, &(kind, a, b)) in script.iter().enumerate() {
        check_clock_wake(c, &s, clock).map_err(TestCaseError::fail)?;
        match kind {
            0 => {
                if let Some(next) = input(a, b, clock, k as u64).and_then(|x| c.step(&s, &x, clock))
                {
                    s = next;
                }
            }
            1 => {
                let enabled = c.enabled(&s, clock);
                if !enabled.is_empty() {
                    let act = &enabled[usize::from(a) % enabled.len()];
                    s = c.step(&s, act, clock).expect("an enabled action steps");
                }
            }
            _ => {
                let target = match c.clock_deadline(&s, clock) {
                    Some(d) if d <= clock => continue,
                    Some(d) => (clock + us(b) + Duration::NANOSECOND).min(d),
                    None => clock + us(b) + Duration::NANOSECOND,
                };
                s = c
                    .advance(&s, clock, target)
                    .expect("advance within deadline");
                clock = target;
            }
        }
    }
    check_clock_wake(c, &s, clock).map_err(TestCaseError::fail)
}

type A = SysAction<u32, &'static str>;

fn env(src: usize, dst: usize, id: u64) -> Envelope<u32> {
    Envelope {
        src: NodeId(src),
        dst: NodeId(dst),
        id: MsgId(id),
        payload: id as u32,
    }
}

/// Drops, duplicates, spikes or defers each message by its id, so a walk
/// meets every disposition a fault-wired channel has.
struct Dispositions;

impl ChannelFault for Dispositions {
    fn deliveries(
        &self,
        _: NodeId,
        _: NodeId,
        id: MsgId,
        _: Time,
        bounds: DelayBounds,
    ) -> Option<Vec<Duration>> {
        match id.0 % 4 {
            0 => Some(vec![]),
            1 => Some(vec![bounds.max(), bounds.min()]),
            2 => Some(vec![bounds.max()]),
            _ => None,
        }
    }
}

/// A stamp up to 4 ms either side of `clock`.
fn stamp_near(clock: Time, a: u16) -> Time {
    (clock + us(a))
        .checked_sub_duration(ms(4))
        .unwrap_or(Time::ZERO)
}

fn alg_params() -> RegisterParams {
    RegisterParams::for_clock_model(
        &Topology::complete(3),
        bounds(),
        ms(1),
        ms(2),
        Duration::from_micros(100),
    )
}

/// Inputs of Algorithm S at node 0 of a 3-node system: `READ`, `WRITE`,
/// and `UPDATE` messages from either peer scheduled around the clock.
fn alg_input(a: u16, b: u16, clock: Time, k: u64) -> Option<RegAction> {
    Some(match a % 4 {
        0 => SysAction::App(RegisterOp::Read { node: NodeId(0) }),
        1 => SysAction::App(RegisterOp::Write {
            node: NodeId(0),
            value: Value(u64::from(b)),
        }),
        peer => SysAction::Recv(Envelope {
            src: NodeId(usize::from(peer) - 1),
            dst: NodeId(0),
            id: MsgId(k),
            payload: RegMsg {
                value: Value(u64::from(a)),
                base: stamp_near(clock, b),
            },
        }),
    })
}

proptest! {
    #[test]
    fn channels_keep_their_wake_hints(script in script(), seed in 0u64..1000) {
        let send = |_, _, _, k| Some(A::Send(env(0, 1, k)));
        walk(&ClockSim::new(Channel::<u32, &'static str>::new(
            NodeId(0), NodeId(1), bounds(), SeededDelay::new(seed))), &script, send)?;
        walk(&ClockSim::new(Channel::<u32, &'static str>::new(
            NodeId(0), NodeId(1), bounds(), SeededDelay::new(seed)).fifo()), &script, send)?;
        walk(&ClockSim::new(FaultChannel::<u32, &'static str>::new(
            NodeId(0), NodeId(1), bounds(), SeededDelay::new(seed), DropSeeded::new(seed, 30))),
            &script, send)?;
        walk(&ClockSim::new(FaultChannel::<u32, &'static str>::new(
            NodeId(0), NodeId(1), bounds(), SeededDelay::new(seed), Dispositions)),
            &script, send)?;
        walk(&ClockSim::new(ClockChannel::<u32, &'static str>::new(
            NodeId(0), NodeId(1), bounds(), SeededDelay::new(seed))), &script,
            |a, _, clock, k| Some(A::ESend(env(0, 1, k), stamp_near(clock, a))))?;
    }

    #[test]
    fn simulation1_buffers_keep_their_wake_hints(script in script()) {
        let send_buffer: SendBuffer<u32, &'static str> = SendBuffer::new(NodeId(0), NodeId(1));
        walk(&send_buffer, &script, |_, _, _, k| Some(A::Send(env(0, 1, k))))?;
        let arrival = |a, _, clock, k| Some(A::ERecv(env(1, 0, k), stamp_near(clock, a)));
        let recv_buffer: RecvBuffer<u32, &'static str> = RecvBuffer::new(NodeId(1), NodeId(0));
        walk(&recv_buffer, &script, arrival)?;
        // The wrappers the transformed node is assembled from pass the
        // hint through (hiding) or fold it (composition).
        let hidden = HiddenClock::new(
            RecvBuffer::<u32, &'static str>::new(NodeId(1), NodeId(0)),
            |a: &A| matches!(a, SysAction::Recv(_)),
        );
        walk(&hidden, &script, arrival)?;
        let both = ClockComposite::new("S+R", vec![
            ClockComponentBox::new(SendBuffer::<u32, &'static str>::new(NodeId(0), NodeId(1))),
            ClockComponentBox::new(RecvBuffer::<u32, &'static str>::new(NodeId(1), NodeId(0))),
        ]);
        walk(&both, &script, |a, b, clock, k| {
            if b % 2 == 0 { Some(A::Send(env(0, 1, k))) } else { arrival(a, b, clock, k) }
        })?;
    }

    #[test]
    fn clock_sim_of_algorithm_s_keeps_its_wake_hint(script in script()) {
        walk(&ClockSim::new(AlgorithmS::new(NodeId(0), alg_params())), &script, alg_input)?;
    }

    #[test]
    fn toys_and_probe_sync_keep_their_wake_hints(script in script()) {
        walk(&ClockSim::new(Beeper::new(ms(3))), &script, |_, _, _, _| None)?;
        walk(&ClockBeeper::new(ms(3)), &script, |_, _, _, _| None)?;
        let params = SyncParams {
            me: NodeId(0),
            peers: vec![NodeId(1)],
            d1: ms(1),
            d2: ms(3),
            eps: ms(2),
            rho_ppm: 200,
            period: ms(20),
            burst: 2,
            grace: 1,
            echo_hold: ms(1),
        };
        // A peer's probes queue echoes that become ready `echo_hold` later.
        let probe = |a: u16, _, clock, k: u64| Some(SysAction::Recv(Envelope {
            src: NodeId(1),
            dst: NodeId(0),
            id: MsgId(k),
            payload: SyncMsg::Probe { round: u64::from(a % 3), seq: k as u32, t1: clock },
        }));
        walk(&ProbeSync::new(params.clone()), &script, probe)?;
        walk(&RoundSync::new(params), &script, probe)?;
    }
}

/// Every message action over 3 nodes (self-loops included, two ids and
/// stamps each so that same-key pairs differ in everything else), the
/// register's application actions, and the keyless `TICK`/`TAU`.
fn alphabet() -> Vec<RegAction> {
    let mut out = Vec::new();
    for src in 0..3 {
        for dst in 0..3 {
            for id in [1u64, 2] {
                let e = Envelope {
                    src: NodeId(src),
                    dst: NodeId(dst),
                    id: MsgId(id),
                    payload: RegMsg {
                        value: Value(id),
                        base: Time::ZERO + ms(id as i64),
                    },
                };
                let stamp = Time::ZERO + ms(7 * id as i64);
                out.push(SysAction::Send(e.clone()));
                out.push(SysAction::Recv(e.clone()));
                out.push(SysAction::ESend(e.clone(), stamp));
                out.push(SysAction::ERecv(e, stamp));
            }
        }
        let node = NodeId(src);
        for v in [1, 2] {
            let (value, due) = (Value(v), Time::ZERO + ms(v as i64));
            out.push(SysAction::App(RegisterOp::Read { node }));
            out.push(SysAction::App(RegisterOp::Write { node, value }));
            out.push(SysAction::App(RegisterOp::Return { node, value }));
            out.push(SysAction::App(RegisterOp::Ack { node }));
            out.push(SysAction::App(RegisterOp::Update { node, due }));
        }
        out.push(SysAction::Tick {
            node,
            clock: Time::ZERO,
        });
        out.push(SysAction::Tau { node });
    }
    out
}

#[test]
fn route_keys_never_separate_less_than_classify() {
    type Sig = Box<dyn Fn(&RegAction) -> bool>;
    fn timed<C: TimedComponent<Action = RegAction>>(c: C) -> (String, Option<u64>, Sig) {
        (
            c.name(),
            c.signature_key(),
            Box::new(move |a| c.classify(a).is_some()),
        )
    }
    fn clock<C: ClockComponent<Action = RegAction>>(c: C) -> (String, Option<u64>, Sig) {
        (
            c.name(),
            c.signature_key(),
            Box::new(move |a| c.classify(a).is_some()),
        )
    }
    let hide_recv = |a: &RegAction| matches!(a, SysAction::Recv(_));
    let (i, j) = (NodeId(0), NodeId(2));
    let topo = Topology::complete(3);
    let think = DelayBounds::new(ms(1), ms(2)).unwrap();
    let components = vec![
        // net
        timed(Channel::<_, _>::new(i, j, bounds(), MaxDelay)),
        timed(ClockChannel::new(i, j, bounds(), MaxDelay)),
        timed(Channel::<_, _>::new(i, j, bounds(), MaxDelay).fifo()),
        timed(FaultChannel::new(
            i,
            j,
            bounds(),
            MaxDelay,
            DropSeeded::new(0, 30),
        )),
        timed(FaultChannel::new(i, j, bounds(), MaxDelay, NoChannelFaults)),
        timed(Script::<RegMsg, RegisterOp>::new([], |_| false)),
        // core
        clock(SendBuffer::new(i, j)),
        clock(RecvBuffer::new(i, j)),
        clock(HiddenClock::new(RecvBuffer::new(j, i), hide_recv)),
        clock(ClockComponentBox::new(HiddenClock::new(
            RecvBuffer::new(i, j),
            hide_recv,
        ))),
        timed(ComponentBox::new(Hidden::new(
            ClockChannel::new(j, i, bounds(), MaxDelay),
            |_: &RegAction| true,
        ))),
        clock(ClockSim::new(AlgorithmS::new(i, alg_params()))),
        // register
        timed(AlgorithmS::new(j, alg_params())),
        timed(ClosedLoopWorkload::new(&topo, 1, think, 3)),
        timed(ClosedLoopWorkload::new(&Topology::complete(2), 1, think, 3)),
        clock(BaselineRegister::new(
            i,
            BaselineParams::new(topo.nodes().collect(), ms(2), ms(6)),
        )),
    ];
    // Every per-edge part declares its edge, wrapped or not: 5 channels,
    // 2 buffers, and the hidden and boxed buffers and channel.
    let declaring = components.iter().filter(|(_, k, _)| k.is_some()).count();
    assert_eq!(declaring, 10, "a wrapper dropped a signature_key");
    let alphabet = alphabet();
    for (name, declared, in_signature) in &components {
        if declared.is_some() {
            for a in alphabet.iter().filter(|a| in_signature(a)) {
                assert_eq!(
                    a.route_key(),
                    *declared,
                    "{name}: classifies {a:?}, whose key is not its signature_key"
                );
            }
        }
        for a in &alphabet {
            let Some(key) = a.route_key() else { continue };
            for b in &alphabet {
                if b.name() == a.name() && b.route_key() == Some(key) {
                    assert_eq!(
                        in_signature(a),
                        in_signature(b),
                        "{name}: {a:?} and {b:?} share name and key but not signature"
                    );
                }
            }
        }
    }
    // The keys do narrow: a message's key is its edge, an operation's its node.
    let keys: std::collections::BTreeSet<_> = alphabet
        .iter()
        .filter_map(|a| Some((a.name(), a.route_key()?)))
        .collect();
    assert_eq!(keys.len(), 4 * 9 + 5 * 3);
}
