//! The shared action alphabet of all three system models.

use core::fmt::Debug;
use core::hash::Hash;

use psync_automata::Action;
use psync_time::Time;

use crate::{Envelope, NodeId};

/// The action alphabet of a psync distributed system, generic over the
/// message payload type `M` and the application action type `A`.
///
/// One enum serves all three models, so that a node algorithm written
/// against the timed model composes unchanged with channels, buffers, clock
/// subsystems and the MMT machinery:
///
/// * [`SysAction::App`] — algorithm-specific visible/internal actions
///   (invocations, responses, internal updates). The paper's only
///   constraint is `acts(A_i) ∩ acts(A_j) = {ν}` for `i ≠ j` (Section 3.1),
///   which the application type enforces by carrying node ids.
/// * [`SysAction::Send`] / [`SysAction::Recv`] — the `SENDMSG_i(j, m)` /
///   `RECVMSG_j(i, m)` edge interface of the timed model (Section 3.1).
/// * [`SysAction::ESend`] / [`SysAction::ERecv`] — the clock model's
///   `ESENDMSG_i(j, (m, c))` / `ERECVMSG_j(i, (m, c))` interface, carrying
///   the sender's clock stamp `c` (Section 4.1).
/// * [`SysAction::Tick`] — the MMT clock subsystem's `TICK(c)` output
///   (Section 5.2).
/// * [`SysAction::Tau`] — the MMT transformation's internal catch-up action
///   `τ` (Definition 5.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SysAction<M, A> {
    /// An application (algorithm-level) action.
    App(A),
    /// `SENDMSG_src(dst, m)` — timed-model send.
    Send(Envelope<M>),
    /// `RECVMSG_dst(src, m)` — timed-model receive.
    Recv(Envelope<M>),
    /// `ESENDMSG_src(dst, (m, c))` — clock-model send, stamped with the
    /// sender's clock.
    ESend(Envelope<M>, Time),
    /// `ERECVMSG_dst(src, (m, c))` — clock-model receive of a stamped
    /// message.
    ERecv(Envelope<M>, Time),
    /// `TICK(c)` at `node` — the MMT clock subsystem reports clock value
    /// `clock`.
    Tick {
        /// The node whose clock ticked.
        node: NodeId,
        /// The reported clock value (within `ε` of real time).
        clock: Time,
    },
    /// `τ` at `node` — the MMT transformation's internal catch-up step.
    Tau {
        /// The node performing the catch-up.
        node: NodeId,
    },
}

impl<M, A> SysAction<M, A> {
    /// The node this action belongs to (in the sense of the paper's action
    /// partition: `SENDMSG_i` belongs to `i`, `RECVMSG_j` to `j`), given a
    /// resolver for application actions.
    ///
    /// Used to build the `κ = {uacts(A_1), …, uacts(A_n)}` class map of the
    /// `=_{ε,κ}` relation (Section 4.3).
    pub fn node(&self, app_node: impl Fn(&A) -> Option<NodeId>) -> Option<NodeId> {
        match self {
            SysAction::App(a) => app_node(a),
            SysAction::Send(env) | SysAction::ESend(env, _) => Some(env.src),
            SysAction::Recv(env) | SysAction::ERecv(env, _) => Some(env.dst),
            SysAction::Tick { node, .. } | SysAction::Tau { node } => Some(*node),
        }
    }

    /// The application action inside, if any.
    pub fn as_app(&self) -> Option<&A> {
        match self {
            SysAction::App(a) => Some(a),
            _ => None,
        }
    }
}

/// The [`Action::route_key`] of every message action on edge `src → dst`,
/// and the `signature_key` of every per-edge part, so the two cannot drift
/// apart: both ids in one word, or `None` past 2³² (packing would collide;
/// routing by name alone is always correct).
#[must_use]
pub fn edge_route_key(src: NodeId, dst: NodeId) -> Option<u64> {
    let src = u32::try_from(src.0).ok()?;
    let dst = u32::try_from(dst.0).ok()?;
    Some((u64::from(src) << 32) | u64::from(dst))
}

impl<M, A> Action for SysAction<M, A>
where
    M: Clone + Eq + Hash + Debug + 'static,
    A: Action,
{
    fn name(&self) -> &'static str {
        match self {
            SysAction::App(a) => a.name(),
            SysAction::Send(_) => "SENDMSG",
            SysAction::Recv(_) => "RECVMSG",
            SysAction::ESend(_, _) => "ESENDMSG",
            SysAction::ERecv(_, _) => "ERECVMSG",
            SysAction::Tick { .. } => "TICK",
            SysAction::Tau { .. } => "TAU",
        }
    }

    /// Message actions are keyed by their edge `(src, dst)`: every
    /// component of the library takes `SENDMSG`/`RECVMSG`/`ESENDMSG`/
    /// `ERECVMSG` by source, by destination or by both, never by payload,
    /// id or stamp. Application actions defer to their own key; `TICK` and
    /// `TAU` are routed by name alone.
    fn route_key(&self) -> Option<u64> {
        match self {
            SysAction::App(a) => a.route_key(),
            SysAction::Send(env)
            | SysAction::Recv(env)
            | SysAction::ESend(env, _)
            | SysAction::ERecv(env, _) => edge_route_key(env.src, env.dst),
            SysAction::Tick { .. } | SysAction::Tau { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MsgId;
    use psync_time::Duration;

    type S = SysAction<u32, &'static str>;

    fn env() -> Envelope<u32> {
        Envelope {
            src: NodeId(1),
            dst: NodeId(2),
            id: MsgId(1),
            payload: 5,
        }
    }

    #[test]
    fn names_follow_the_paper() {
        assert_eq!(S::Send(env()).name(), "SENDMSG");
        assert_eq!(S::Recv(env()).name(), "RECVMSG");
        assert_eq!(S::ESend(env(), Time::ZERO).name(), "ESENDMSG");
        assert_eq!(S::ERecv(env(), Time::ZERO).name(), "ERECVMSG");
        assert_eq!(
            S::Tick {
                node: NodeId(0),
                clock: Time::ZERO
            }
            .name(),
            "TICK"
        );
        assert_eq!(S::Tau { node: NodeId(0) }.name(), "TAU");
        assert_eq!(S::App("READ").name(), "READ");
    }

    #[test]
    fn node_attribution() {
        let f = |_: &&'static str| Some(NodeId(9));
        assert_eq!(S::Send(env()).node(f), Some(NodeId(1)));
        assert_eq!(S::Recv(env()).node(f), Some(NodeId(2)));
        assert_eq!(
            S::ESend(env(), Time::ZERO + Duration::from_millis(1)).node(f),
            Some(NodeId(1))
        );
        assert_eq!(S::ERecv(env(), Time::ZERO).node(f), Some(NodeId(2)));
        assert_eq!(S::App("x").node(f), Some(NodeId(9)));
        assert_eq!(S::Tau { node: NodeId(4) }.node(f), Some(NodeId(4)));
    }

    #[test]
    fn as_app_projects() {
        assert_eq!(S::App("x").as_app(), Some(&"x"));
        assert_eq!(S::Send(env()).as_app(), None);
    }
}
