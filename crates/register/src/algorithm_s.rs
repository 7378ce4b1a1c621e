//! Algorithm S / Algorithm L: the timed automaton of Figure 3.

use psync_automata::{ActionKind, TimedComponent, WakeHint};
use psync_net::{Envelope, MsgId, NodeId, SysAction};
use psync_time::Time;

use crate::{RegAction, RegMsg, RegisterOp, RegisterParams, Value};

/// An in-progress write (the `write` record of Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteState {
    /// `write.send-value`.
    pub value: Value,
    /// `write.send-procs`: peers still owed an `UPDATE` message.
    pub remaining: Vec<NodeId>,
    /// `write.send-time`: the instant at which all sends occur
    /// (`None` once sending is complete).
    pub send_time: Option<Time>,
    /// `write.ack-time`: when `ACK_i` is due.
    pub ack_time: Time,
}

/// A scheduled update (an element of the `updates` record of Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateRec {
    /// `r.proc`: the writer (tie-break: larger wins).
    pub proc: NodeId,
    /// `r.value`.
    pub value: Value,
    /// `r.update-time`: the exact time the update applies (`t + δ`).
    pub due: Time,
}

/// State of an [`AlgorithmS`] node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgState {
    /// Local register copy (`value`, initially `v₀`).
    pub value: Value,
    /// Active read's scheduled return time (`read.time`), if any.
    pub read: Option<Time>,
    /// Active write, if any.
    pub write: Option<WriteState>,
    /// Scheduled updates, each with a distinct `due` (tie-broken by
    /// writer id per Figure 3's `RECVMSG` effect).
    pub updates: Vec<UpdateRec>,
    /// Counter for unique message ids.
    pub msg_seq: u32,
}

/// The timed automaton `S_i` of Figure 3 — and, with
/// [`RegisterParams::read_slack`] `= 0`, the simpler Algorithm L of
/// Section 6.1.
///
/// Behavior (all waits are *exact*, enforced by the `ν` deadline
/// `mintime`):
///
/// * `READ_i` → wait `read_slack + c + δ` → `RETURN_i(value)`, provided no
///   update is due at the very same instant (updates win ties — the `δ`
///   trick that makes same-time inputs precede outputs).
/// * `WRITE_i(v)` → immediately send `UPDATE(v, t)` with `t = now + d'₂`
///   to every peer → `ACK_i` at `now + (d'₂ − c)`.
/// * `RECVMSG_i(j, (v, t))` → schedule the update for exactly `t + δ`;
///   among updates scheduled for the same instant only the one from the
///   largest writer id survives.
/// * `UPDATE_i` (internal, at exactly `t + δ`) → `value := v`.
///
/// Because every node applies a given write's update at *exactly the same
/// time* `t + δ`, all local copies agree after every instant — the
/// linchpin of the linearizability proof (Section 6.1).
///
/// The write's "message to itself" is applied locally (scheduled directly
/// at `t + δ`) instead of travelling a self-loop channel; this is
/// behavior-identical because every receiver applies the update at the
/// same `t + δ` regardless of arrival time, and arrival always precedes
/// `t + δ` (channel delay `≤ d'₂ < d'₂ + δ`).
pub struct AlgorithmS {
    node: NodeId,
    params: RegisterParams,
}

impl AlgorithmS {
    /// Creates node `i`'s automaton.
    #[must_use]
    pub fn new(node: NodeId, params: RegisterParams) -> Self {
        AlgorithmS { node, params }
    }

    /// The parameters in force.
    #[must_use]
    pub fn params(&self) -> &RegisterParams {
        &self.params
    }

    /// Inserts `rec` into `updates` with Figure 3's tie-break: for equal
    /// `due`, the record from the larger writer id wins.
    fn schedule(updates: &mut Vec<UpdateRec>, rec: UpdateRec) {
        if let Some(existing) = updates.iter_mut().find(|r| r.due == rec.due) {
            if existing.proc < rec.proc {
                *existing = rec;
            }
        } else {
            updates.push(rec);
        }
    }

    /// The `mintime` derived variable of Figure 3.
    fn mintime(&self, s: &AlgState) -> Option<Time> {
        let mut m: Option<Time> = s.read;
        let mut consider = |t: Time| {
            m = Some(match m {
                Some(cur) => cur.min(t),
                None => t,
            });
        };
        if let Some(w) = &s.write {
            if let Some(st) = w.send_time {
                consider(st);
            }
            consider(w.ack_time);
        }
        for r in &s.updates {
            consider(r.due);
        }
        m
    }

    fn update_due_now(s: &AlgState, now: Time) -> Option<&UpdateRec> {
        s.updates.iter().find(|r| r.due == now)
    }
}

impl TimedComponent for AlgorithmS {
    type Action = RegAction;
    type State = AlgState;

    fn name(&self) -> String {
        format!("S({})", self.node)
    }

    fn initial(&self) -> AlgState {
        AlgState {
            value: Value::INITIAL,
            read: None,
            write: None,
            updates: Vec::new(),
            msg_seq: 0,
        }
    }

    fn classify(&self, a: &RegAction) -> Option<ActionKind> {
        match a {
            SysAction::App(op) if op.node() == self.node => Some(match op {
                RegisterOp::Read { .. } | RegisterOp::Write { .. } => ActionKind::Input,
                RegisterOp::Return { .. } | RegisterOp::Ack { .. } => ActionKind::Output,
                RegisterOp::Update { .. } => ActionKind::Internal,
            }),
            SysAction::Send(env) if env.src == self.node => Some(ActionKind::Output),
            SysAction::Recv(env) if env.dst == self.node => Some(ActionKind::Input),
            _ => None,
        }
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        Some(vec![
            "READ", "WRITE", "RETURN", "ACK", "UPDATE", "SENDMSG", "RECVMSG",
        ])
    }

    fn step(&self, s: &AlgState, a: &RegAction, now: Time) -> Option<AlgState> {
        match a {
            SysAction::App(RegisterOp::Read { node }) if *node == self.node => {
                // READ_i: read := (active, now + read_slack + c + δ).
                let mut next = s.clone();
                next.read = Some(now + self.params.read_slack + self.params.c + self.params.delta);
                Some(next)
            }
            SysAction::App(RegisterOp::Write { node, value }) if *node == self.node => {
                // WRITE_i(v): broadcast set, send instant, ack time; the
                // self-update is scheduled directly.
                let mut next = s.clone();
                let remaining: Vec<NodeId> = self
                    .params
                    .peers
                    .iter()
                    .copied()
                    .filter(|p| *p != self.node)
                    .collect();
                let send_time = (!remaining.is_empty()).then_some(now);
                next.write = Some(WriteState {
                    value: *value,
                    remaining,
                    send_time,
                    ack_time: now + (self.params.d2_virtual - self.params.c),
                });
                Self::schedule(
                    &mut next.updates,
                    UpdateRec {
                        proc: self.node,
                        value: *value,
                        due: now + self.params.d2_virtual + self.params.delta,
                    },
                );
                Some(next)
            }
            SysAction::App(RegisterOp::Return { node, value }) if *node == self.node => {
                // RETURN_i(v): at exactly read.time, with the current
                // value, after any same-instant updates.
                if s.read != Some(now) || s.value != *value {
                    return None;
                }
                if Self::update_due_now(s, now).is_some() {
                    return None;
                }
                let mut next = s.clone();
                next.read = None;
                Some(next)
            }
            SysAction::App(RegisterOp::Ack { node }) if *node == self.node => {
                let w = s.write.as_ref()?;
                if !w.remaining.is_empty() || w.ack_time != now {
                    return None;
                }
                let mut next = s.clone();
                next.write = None;
                Some(next)
            }
            SysAction::App(RegisterOp::Update { node, due }) if *node == self.node => {
                // UPDATE_i: apply the (unique) record due exactly now.
                if *due != now {
                    return None;
                }
                let rec = *Self::update_due_now(s, now)?;
                let mut next = s.clone();
                next.value = rec.value;
                next.updates.retain(|r| r.due != now);
                Some(next)
            }
            SysAction::Send(env) if env.src == self.node => {
                // SENDMSG_i(j, (v, t)) with t = now + d'₂, at the write
                // instant, to a peer still owed the update.
                let w = s.write.as_ref()?;
                if w.send_time != Some(now)
                    || env.payload.value != w.value
                    || env.payload.base != now + self.params.d2_virtual
                    || env.id != MsgId::from_parts(self.node, s.msg_seq)
                    || !w.remaining.contains(&env.dst)
                {
                    return None;
                }
                let mut next = s.clone();
                let nw = next.write.as_mut().expect("write checked above");
                nw.remaining.retain(|p| *p != env.dst);
                if nw.remaining.is_empty() {
                    nw.send_time = None;
                }
                next.msg_seq += 1;
                Some(next)
            }
            SysAction::Recv(env) if env.dst == self.node => {
                // RECVMSG_i(j, (v, t)): schedule at t + δ with tie-break.
                let mut next = s.clone();
                Self::schedule(
                    &mut next.updates,
                    UpdateRec {
                        proc: env.src,
                        value: env.payload.value,
                        due: env.payload.base + self.params.delta,
                    },
                );
                Some(next)
            }
            _ => None,
        }
    }

    fn enabled(&self, s: &AlgState, now: Time) -> Vec<RegAction> {
        let mut out = Vec::new();
        for r in &s.updates {
            if r.due == now {
                out.push(SysAction::App(RegisterOp::Update {
                    node: self.node,
                    due: now,
                }));
            }
        }
        if let Some(w) = &s.write {
            if w.send_time == Some(now) {
                for &j in &w.remaining {
                    out.push(SysAction::Send(Envelope {
                        src: self.node,
                        dst: j,
                        id: MsgId::from_parts(self.node, s.msg_seq),
                        payload: RegMsg {
                            value: w.value,
                            base: now + self.params.d2_virtual,
                        },
                    }));
                }
            }
            if w.remaining.is_empty() && w.ack_time == now {
                out.push(SysAction::App(RegisterOp::Ack { node: self.node }));
            }
        }
        if s.read == Some(now) && Self::update_due_now(s, now).is_none() {
            out.push(SysAction::App(RegisterOp::Return {
                node: self.node,
                value: s.value,
            }));
        }
        out
    }

    fn deadline(&self, s: &AlgState, _now: Time) -> Option<Time> {
        self.mintime(s)
    }

    fn wake_hint(&self, s: &AlgState, _now: Time) -> WakeHint {
        // Every enabling condition is `stored time == now` for one of the
        // times `mintime` ranges over, and `mintime` itself does not read
        // `now`: strictly below it nothing is enabled, the deadline stands
        // and `ν` is the identity. With no stored time at all the state
        // only changes by an input, a step.
        self.mintime(s).map_or(WakeHint::Never, WakeHint::At)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_net::Topology;
    use psync_time::{DelayBounds, Duration};

    fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    fn at(n: i64) -> Time {
        Time::ZERO + ms(n)
    }

    fn params() -> RegisterParams {
        // d'₂ = 10 ms, c = 3 ms, δ = 1 ms, L flavour.
        RegisterParams::for_timed_model(
            &Topology::complete(3),
            DelayBounds::new(ms(1), ms(10)).unwrap(),
            ms(3),
            ms(1),
        )
    }

    fn alg() -> AlgorithmS {
        AlgorithmS::new(NodeId(0), params())
    }

    fn read(n: usize) -> RegAction {
        SysAction::App(RegisterOp::Read { node: NodeId(n) })
    }

    fn write(n: usize, v: u64) -> RegAction {
        SysAction::App(RegisterOp::Write {
            node: NodeId(n),
            value: Value(v),
        })
    }

    #[test]
    fn read_returns_initial_value_after_exact_wait() {
        let a = alg();
        let s0 = a.initial();
        let s1 = a.step(&s0, &read(0), at(5)).unwrap();
        // read time = 5 + 0 + 3 + 1 = 9 ms.
        assert_eq!(s1.read, Some(at(9)));
        assert_eq!(a.deadline(&s1, at(5)), Some(at(9)));
        assert!(a.enabled(&s1, at(8)).is_empty());
        let en = a.enabled(&s1, at(9));
        assert_eq!(
            en,
            vec![SysAction::App(RegisterOp::Return {
                node: NodeId(0),
                value: Value::INITIAL
            })]
        );
        let s2 = a.step(&s1, &en[0], at(9)).unwrap();
        assert_eq!(s2.read, None);
    }

    #[test]
    fn write_sends_to_all_peers_then_acks() {
        let a = alg();
        let s0 = a.initial();
        let s1 = a.step(&s0, &write(0, 42), at(2)).unwrap();
        let w = s1.write.as_ref().unwrap();
        assert_eq!(w.remaining, vec![NodeId(1), NodeId(2)]);
        assert_eq!(w.send_time, Some(at(2)));
        assert_eq!(w.ack_time, at(2) + ms(7)); // d'₂ − c = 7
                                               // Self-update scheduled at 2 + 10 + 1 = 13 ms.
        assert_eq!(s1.updates.len(), 1);
        assert_eq!(s1.updates[0].due, at(13));

        // Both sends enabled at the write instant; ν is pinned there.
        let sends = a.enabled(&s1, at(2));
        assert_eq!(sends.len(), 2);
        assert_eq!(a.deadline(&s1, at(2)), Some(at(2)));
        let s2 = a.step(&s1, &sends[0], at(2)).unwrap();
        let s3 = a.step(&s2, &a.enabled(&s2, at(2))[0], at(2)).unwrap();
        assert!(s3.write.as_ref().unwrap().remaining.is_empty());
        assert_eq!(s3.write.as_ref().unwrap().send_time, None);
        assert_eq!(s3.msg_seq, 2);

        // ACK at exactly ack_time.
        assert!(a.enabled(&s3, at(8)).is_empty());
        let acks = a.enabled(&s3, at(9));
        assert_eq!(
            acks,
            vec![SysAction::App(RegisterOp::Ack { node: NodeId(0) })]
        );
        let s4 = a.step(&s3, &acks[0], at(9)).unwrap();
        assert!(s4.write.is_none());
    }

    #[test]
    fn sends_carry_scheduled_apply_time() {
        let a = alg();
        let s1 = a.step(&a.initial(), &write(0, 42), at(2)).unwrap();
        let sends = a.enabled(&s1, at(2));
        let SysAction::Send(env) = &sends[0] else {
            panic!("expected send")
        };
        assert_eq!(env.payload.base, at(12)); // now + d'₂
        assert_eq!(env.payload.value, Value(42));
        assert_eq!(env.src, NodeId(0));
    }

    #[test]
    fn recv_schedules_update_at_base_plus_delta() {
        let a = alg();
        let env = Envelope {
            src: NodeId(2),
            dst: NodeId(0),
            id: MsgId::from_parts(NodeId(2), 0),
            payload: RegMsg {
                value: Value(7),
                base: at(12),
            },
        };
        let s1 = a.step(&a.initial(), &SysAction::Recv(env), at(5)).unwrap();
        assert_eq!(s1.updates.len(), 1);
        assert_eq!(s1.updates[0].due, at(13));
        // The update applies at exactly 13 ms and changes the value.
        let en = a.enabled(&s1, at(13));
        assert_eq!(en.len(), 1);
        let s2 = a.step(&s1, &en[0], at(13)).unwrap();
        assert_eq!(s2.value, Value(7));
        assert!(s2.updates.is_empty());
    }

    #[test]
    fn same_instant_updates_tie_break_by_writer_id() {
        let a = alg();
        let mk = |src: usize, v: u64| {
            SysAction::Recv(Envelope {
                src: NodeId(src),
                dst: NodeId(0),
                id: MsgId::from_parts(NodeId(src), 0),
                payload: RegMsg {
                    value: Value(v),
                    base: at(12),
                },
            })
        };
        let mut s = a.initial();
        s = a.step(&s, &mk(1, 11), at(5)).unwrap();
        s = a.step(&s, &mk(2, 22), at(6)).unwrap(); // larger id wins
        assert_eq!(s.updates.len(), 1);
        assert_eq!(s.updates[0].value, Value(22));
        assert_eq!(s.updates[0].proc, NodeId(2));
        // A smaller id arriving later does not displace it.
        let s2 = a.step(&s, &mk(1, 33), at(7)).unwrap();
        assert_eq!(s2.updates[0].value, Value(22));
    }

    #[test]
    fn update_due_now_blocks_return() {
        let a = alg();
        let mut s = a.initial();
        s = a.step(&s, &read(0), at(9)).unwrap(); // returns at 13
        let env = Envelope {
            src: NodeId(2),
            dst: NodeId(0),
            id: MsgId::from_parts(NodeId(2), 0),
            payload: RegMsg {
                value: Value(7),
                base: at(12),
            },
        };
        s = a.step(&s, &SysAction::Recv(env), at(10)).unwrap(); // update due 13
                                                                // At 13 ms only the update is enabled; after it applies, the
                                                                // return sees the fresh value.
        let en = a.enabled(&s, at(13));
        assert_eq!(en.len(), 1);
        assert!(matches!(en[0], SysAction::App(RegisterOp::Update { .. })));
        s = a.step(&s, &en[0], at(13)).unwrap();
        let en2 = a.enabled(&s, at(13));
        assert_eq!(
            en2,
            vec![SysAction::App(RegisterOp::Return {
                node: NodeId(0),
                value: Value(7)
            })]
        );
    }

    #[test]
    fn s_flavour_adds_read_slack() {
        let topo = Topology::complete(2);
        let physical = DelayBounds::new(ms(1), ms(10)).unwrap();
        let p = RegisterParams::for_clock_model(&topo, physical, ms(1), ms(3), ms(1));
        let a = AlgorithmS::new(NodeId(0), p);
        let s1 = a.step(&a.initial(), &read(0), at(5)).unwrap();
        // read time = 5 + 2ε + c + δ = 5 + 2 + 3 + 1 = 11.
        assert_eq!(s1.read, Some(at(11)));
    }

    #[test]
    fn foreign_actions_not_in_signature() {
        let a = alg();
        assert_eq!(a.classify(&read(1)), None);
        assert_eq!(a.classify(&write(1, 5)), None);
        assert_eq!(a.classify(&SysAction::Tau { node: NodeId(0) }), None);
        assert_eq!(a.classify(&read(0)), Some(ActionKind::Input));
    }

    #[test]
    fn single_node_write_acks_without_sends() {
        let topo = Topology::new(1, []);
        let p = RegisterParams::for_timed_model(
            &topo,
            DelayBounds::new(ms(1), ms(10)).unwrap(),
            ms(3),
            ms(1),
        );
        let a = AlgorithmS::new(NodeId(0), p);
        let s1 = a.step(&a.initial(), &write(0, 5), at(0)).unwrap();
        let w = s1.write.as_ref().unwrap();
        assert!(w.remaining.is_empty());
        // No sends enabled; ack at d'₂ − c = 7 ms; self-update at 11 ms.
        assert_eq!(a.enabled(&s1, at(0)).len(), 0);
        assert_eq!(a.enabled(&s1, at(7)).len(), 1);
    }
}
