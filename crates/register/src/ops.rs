//! Register values, operations, and message payloads.

use core::fmt;

use psync_automata::Action;
use psync_net::NodeId;
use psync_time::Time;

/// A register value. Workloads write globally unique values, which keeps
/// the paper's proofs' structure and makes linearizability checking
/// polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(pub u64);

impl Value {
    /// The initial register value `v₀`.
    pub const INITIAL: Value = Value(0);

    /// A unique value for the `seq`-th write of `node` (bit-packed).
    #[must_use]
    pub fn unique(node: NodeId, seq: u32) -> Value {
        Value(((node.0 as u64 + 1) << 32) | u64::from(seq))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The application actions of a register node (Section 6.1/6.2):
/// invocations `READ_i` / `WRITE_i(v)` (inputs from the environment),
/// responses `RETURN_i(v)` / `ACK_i` (outputs), and the internal
/// `UPDATE_i` that applies a scheduled update to local memory.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RegisterOp {
    /// `READ_i` — read invocation at node `node`.
    Read {
        /// Invoked node.
        node: NodeId,
    },
    /// `WRITE_i(v)` — write invocation.
    Write {
        /// Invoked node.
        node: NodeId,
        /// Value to write.
        value: Value,
    },
    /// `RETURN_i(v)` — read response.
    Return {
        /// Responding node.
        node: NodeId,
        /// Value read.
        value: Value,
    },
    /// `ACK_i` — write response.
    Ack {
        /// Responding node.
        node: NodeId,
    },
    /// `UPDATE_i` — internal application of the update scheduled at
    /// `due` (disambiguates simultaneous updates in the action set).
    Update {
        /// Applying node.
        node: NodeId,
        /// The scheduled application time of the applied record.
        due: Time,
    },
}

impl RegisterOp {
    /// The node the action belongs to (the paper's action partition).
    #[must_use]
    pub fn node(&self) -> NodeId {
        match self {
            RegisterOp::Read { node }
            | RegisterOp::Write { node, .. }
            | RegisterOp::Return { node, .. }
            | RegisterOp::Ack { node }
            | RegisterOp::Update { node, .. } => *node,
        }
    }

    /// `true` for the invocation actions (`READ`, `WRITE`).
    #[must_use]
    pub fn is_invocation(&self) -> bool {
        matches!(self, RegisterOp::Read { .. } | RegisterOp::Write { .. })
    }

    /// `true` for the response actions (`RETURN`, `ACK`).
    #[must_use]
    pub fn is_response(&self) -> bool {
        matches!(self, RegisterOp::Return { .. } | RegisterOp::Ack { .. })
    }
}

impl Action for RegisterOp {
    fn name(&self) -> &'static str {
        match self {
            RegisterOp::Read { .. } => "READ",
            RegisterOp::Write { .. } => "WRITE",
            RegisterOp::Return { .. } => "RETURN",
            RegisterOp::Ack { .. } => "ACK",
            RegisterOp::Update { .. } => "UPDATE",
        }
    }

    /// Keyed by node: the register algorithms and workloads take an
    /// operation by the node it belongs to, never by value or time.
    fn route_key(&self) -> Option<u64> {
        Some(self.node().0 as u64)
    }
}

/// The message payload of the register algorithms: the `(v, t)` of
/// `UPDATE_j(v, t)` messages.
///
/// For [`AlgorithmS`](crate::AlgorithmS), `base` is the scheduled
/// application time `t = now + d'₂` (Figure 3: every receiver applies the
/// update at exactly `t + δ`). For the
/// [`BaselineRegister`](crate::BaselineRegister), `base` is the writer's
/// clock at the write (the first component of the update's ordering key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegMsg {
    /// The written value.
    pub value: Value,
    /// Algorithm-specific time base (see type docs).
    pub base: Time,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_values_are_unique() {
        let a = Value::unique(NodeId(0), 1);
        let b = Value::unique(NodeId(1), 1);
        let c = Value::unique(NodeId(0), 2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, Value::INITIAL);
        assert_ne!(Value::unique(NodeId(0), 0), Value::INITIAL);
    }

    #[test]
    fn op_classification_helpers() {
        let n = NodeId(3);
        assert!(RegisterOp::Read { node: n }.is_invocation());
        assert!(RegisterOp::Write {
            node: n,
            value: Value(1)
        }
        .is_invocation());
        assert!(RegisterOp::Return {
            node: n,
            value: Value(1)
        }
        .is_response());
        assert!(RegisterOp::Ack { node: n }.is_response());
        assert!(!RegisterOp::Update {
            node: n,
            due: Time::ZERO
        }
        .is_invocation());
        assert_eq!(RegisterOp::Ack { node: n }.node(), n);
    }

    #[test]
    fn action_names() {
        let n = NodeId(0);
        assert_eq!(RegisterOp::Read { node: n }.name(), "READ");
        assert_eq!(
            RegisterOp::Write {
                node: n,
                value: Value(1)
            }
            .name(),
            "WRITE"
        );
        assert_eq!(
            RegisterOp::Update {
                node: n,
                due: Time::ZERO
            }
            .name(),
            "UPDATE"
        );
    }

    #[test]
    fn value_display() {
        assert_eq!(Value(7).to_string(), "v7");
    }
}
