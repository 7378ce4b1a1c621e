//! `MeasuredEps`: the achieved synchronization bound, read back out of a
//! recorded execution.
//!
//! `ProbeSync` emits its bound as ordinary `CERTIFY` output actions, so
//! the measured ε̂ lives in the execution record — which is exactly what
//! a paused-and-resumed run preserves, what replays reproduce
//! bit-identically, and what oracles judge. `MeasuredEps` scans those events once and hands
//! the result to whoever wants to *parameterize* further checking: feed
//! [`final_eps_hat`](MeasuredEps::final_eps_hat) to a `C_ε` oracle or a
//! streaming `=_{ε,κ}` monitor and the downstream scenario runs on the
//! measured bound instead of an assumed constant.

use psync_automata::Execution;
use psync_net::{NodeId, SysAction};
use psync_time::{Duration, Time};

use crate::probe::{SyncAction, SyncOp};

/// One `CERTIFY` event, with its recording context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertRecord {
    /// The certifying node.
    pub node: NodeId,
    /// The certified round.
    pub round: u64,
    /// The bound the node certified.
    pub eps_hat: Duration,
    /// Peers the bound covers.
    pub peers: Vec<NodeId>,
    /// Real time of the event.
    pub now: Time,
    /// The certifying node's clock at the event.
    pub clock: Option<Time>,
}

/// All certifications of one execution, in event order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MeasuredEps {
    certs: Vec<CertRecord>,
}

impl MeasuredEps {
    /// Scans `exec` for `CERTIFY` events.
    #[must_use]
    pub fn from_execution(exec: &Execution<SyncAction>) -> MeasuredEps {
        let certs = exec
            .events()
            .iter()
            .filter_map(|e| match &e.action {
                SysAction::App(SyncOp::Certify {
                    node,
                    round,
                    eps_hat,
                    peers,
                }) => Some(CertRecord {
                    node: *node,
                    round: *round,
                    eps_hat: *eps_hat,
                    peers: peers.clone(),
                    now: e.now,
                    clock: e.clock,
                }),
                _ => None,
            })
            .collect();
        MeasuredEps { certs }
    }

    /// Every certification, in event order.
    #[must_use]
    pub fn certs(&self) -> &[CertRecord] {
        &self.certs
    }

    /// `node`'s latest certification.
    #[must_use]
    pub fn last_for(&self, node: NodeId) -> Option<&CertRecord> {
        self.certs.iter().rev().find(|c| c.node == node)
    }

    /// `node`'s `(round, ε̂)` trajectory, in round order.
    #[must_use]
    pub fn trajectory(&self, node: NodeId) -> Vec<(u64, Duration)> {
        self.certs
            .iter()
            .filter(|c| c.node == node)
            .map(|c| (c.round, c.eps_hat))
            .collect()
    }

    /// The fleet-wide achieved bound: the maximum over nodes of each
    /// node's *latest* certified ε̂. `None` when nothing certified.
    ///
    /// This is the value to hand to a `C_ε` oracle or `=_{ε,κ}` monitor
    /// when a downstream scenario should run on the measured bound.
    #[must_use]
    pub fn final_eps_hat(&self) -> Option<Duration> {
        let mut last: std::collections::BTreeMap<NodeId, Duration> =
            std::collections::BTreeMap::new();
        for c in &self.certs {
            last.insert(c.node, c.eps_hat);
        }
        last.into_values().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_automata::{ActionKind, Execution, TimedEvent};

    fn cert(node: usize, round: u64, us: i64) -> TimedEvent<SyncAction> {
        TimedEvent {
            action: SysAction::App(SyncOp::Certify {
                node: NodeId(node),
                round,
                eps_hat: Duration::from_micros(us),
                peers: vec![NodeId(1 - node)],
            }),
            kind: ActionKind::Output,
            now: Time::ZERO + Duration::from_millis(round as i64 + 1),
            clock: Some(Time::ZERO + Duration::from_millis(round as i64 + 1)),
            node: None,
        }
    }

    #[test]
    fn scan_collects_trajectories_and_the_final_bound() {
        let events = vec![cert(0, 0, 2000), cert(1, 0, 1800), cert(0, 1, 1500)];
        let ltime = Time::ZERO + Duration::from_millis(10);
        let exec = Execution::new(events, ltime);
        let m = MeasuredEps::from_execution(&exec);
        assert_eq!(m.certs().len(), 3);
        assert_eq!(
            m.trajectory(NodeId(0)),
            vec![
                (0, Duration::from_micros(2000)),
                (1, Duration::from_micros(1500))
            ]
        );
        assert_eq!(m.last_for(NodeId(1)).unwrap().round, 0);
        // max(last n0 = 1.5 ms, last n1 = 1.8 ms)
        assert_eq!(m.final_eps_hat(), Some(Duration::from_micros(1800)));
        assert_eq!(MeasuredEps::default().final_eps_hat(), None);
    }
}
