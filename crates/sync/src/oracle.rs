//! The ε̂-parameterized `C_ε` oracle: judges `CERTIFY` events against
//! the clock readings actually recorded in the execution.
//!
//! Two clauses:
//!
//! 1. **Soundness** — every certificate must be *true*: at each
//!    `CERTIFY`, the pairwise skew between the certifying node and each
//!    covered peer (reconstructed from the latest recorded
//!    `clock − now` of each node, plus a small drift slack) must not
//!    exceed the certified ε̂. A component that certifies a bound it did
//!    not achieve fails here.
//! 2. **Achievement** — the protocol must actually *deliver*: every
//!    node's last certificate must cover all of its peers and certify
//!    `ε̂ ≤ bound`, the Theorem 6.5-style prediction the caller derives
//!    from `(d₂ − d₁, ρ, horizon)` (see [`predicted_eps_hat`]). A
//!    planted bug that silently widens ε̂ — the `sync_skew_burst`
//!    canary's held echoes — fails here.
//!
//! The oracle's name starts with `C_eps`, like the constant-ε `C_ε`
//! probe it parameterizes, so campaign tooling that matches oracles by
//! prefix treats both as the same family.

use std::collections::BTreeMap;
use std::sync::Arc;

use psync_automata::{Execution, Verdict};
use psync_net::{NodeId, SysAction};
use psync_time::{Duration, Time};
use psync_verify::Oracle;

use crate::probe::{SyncAction, SyncOp};

/// The ε̂ a clean probe-sync fleet is predicted to achieve by the end of
/// a run of length `horizon`: one sample's irreducible width `d₂ − d₁`,
/// plus the drift the offsets themselves can accumulate (`|θ| ≤ 2ρT`,
/// which also bounds how far off-center the surviving interval sits),
/// plus `slack` for quantization and sample-to-cert widening.
///
/// This is the bound the differential tests pin measurements against,
/// and the Theorem 6.5 bridge: the theorem prices Algorithm S's
/// read/write times in ε, and this is the ε the protocol delivers.
#[must_use]
pub fn predicted_eps_hat(d1: Duration, d2: Duration, rho_ppm: i64, horizon: Time) -> Duration {
    (d2 - d1) + horizon.elapsed().scale_ppm(4 * rho_ppm) + Duration::from_micros(500)
}

/// The ε̂-parameterized `C_ε` oracle over a sync fleet's execution.
///
/// Assumes the fleet's clock nodes are named `n0 … n{N−1}` matching
/// `NodeId(0) … NodeId(N−1)` (the convention of every scenario factory
/// and of [`build_sync_fleet`](crate::build_sync_fleet)).
pub struct EpsHatOracle {
    nodes: usize,
    bound: Duration,
    slack: Duration,
}

impl EpsHatOracle {
    /// An oracle for an `nodes`-node fleet whose achieved ε̂ must come
    /// in under `bound`, with the default 100 µs soundness slack.
    #[must_use]
    pub fn new(nodes: usize, bound: Duration) -> EpsHatOracle {
        EpsHatOracle::with_slack(nodes, bound, Duration::from_micros(100))
    }

    /// As [`EpsHatOracle::new`] with an explicit soundness slack: the
    /// allowance for drift between a peer's latest recorded clock
    /// reading and the certification instant.
    #[must_use]
    pub fn with_slack(nodes: usize, bound: Duration, slack: Duration) -> EpsHatOracle {
        assert!(nodes >= 2, "a sync fleet needs at least two nodes");
        assert!(!slack.is_negative(), "slack must be non-negative");
        EpsHatOracle {
            nodes,
            bound,
            slack,
        }
    }
}

impl Oracle<SyncAction> for EpsHatOracle {
    fn name(&self) -> String {
        format!("C_eps(ε̂ achieved, bound {})", self.bound)
    }

    fn check(&self, exec: &Execution<SyncAction>) -> Verdict {
        // Latest clock−now offset per node name (the event's `Arc<str>`).
        let mut offsets: BTreeMap<Arc<str>, Duration> = BTreeMap::new();
        let mut last_cert: BTreeMap<usize, (Duration, Vec<NodeId>)> = BTreeMap::new();
        for (i, e) in exec.events().iter().enumerate() {
            if let (Some(clock), Some(node)) = (e.clock, e.node.as_ref()) {
                offsets.insert(Arc::clone(node), clock - e.now);
            }
            if let SysAction::App(SyncOp::Certify {
                node,
                round,
                eps_hat,
                peers,
            }) = &e.action
            {
                if let Some(mine) = offsets.get(node.to_string().as_str()) {
                    for peer in peers {
                        let Some(theirs) = offsets.get(peer.to_string().as_str()) else {
                            continue;
                        };
                        let skew = (*mine - *theirs).abs();
                        if skew > *eps_hat + self.slack {
                            return Verdict::violated(format!(
                                "event {i}: {node} certified ε̂ = {eps_hat} for round \
                                 {round}, but its skew to covered peer {peer} is {skew}"
                            ));
                        }
                    }
                }
                last_cert.insert(node.0, (*eps_hat, peers.clone()));
            }
        }
        for n in 0..self.nodes {
            let Some((eps_hat, peers)) = last_cert.get(&n) else {
                return Verdict::violated(format!("node {} never certified", NodeId(n)));
            };
            if peers.len() != self.nodes - 1 {
                return Verdict::violated(format!(
                    "node {}'s final certificate covers {}/{} peers",
                    NodeId(n),
                    peers.len(),
                    self.nodes - 1
                ));
            }
            if *eps_hat > self.bound {
                return Verdict::violated(format!(
                    "node {} achieved ε̂ = {eps_hat}, over the predicted bound {}",
                    NodeId(n),
                    self.bound
                ));
            }
        }
        Verdict::Holds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_automata::{ActionKind, TimedEvent};

    fn clocked(node: usize, ms: i64, skew_us: i64) -> TimedEvent<SyncAction> {
        let now = Time::ZERO + Duration::from_millis(ms);
        TimedEvent {
            action: SysAction::Tick {
                node: NodeId(node),
                clock: now + Duration::from_micros(skew_us),
            },
            kind: ActionKind::Internal,
            now,
            clock: Some(now + Duration::from_micros(skew_us)),
            node: Some(Arc::from(format!("n{node}").as_str())),
        }
    }

    fn cert(node: usize, ms: i64, eps_hat_us: i64, peers: Vec<usize>) -> TimedEvent<SyncAction> {
        let now = Time::ZERO + Duration::from_millis(ms);
        TimedEvent {
            action: SysAction::App(SyncOp::Certify {
                node: NodeId(node),
                round: 0,
                eps_hat: Duration::from_micros(eps_hat_us),
                peers: peers.into_iter().map(NodeId).collect(),
            }),
            kind: ActionKind::Output,
            now,
            clock: Some(now),
            node: Some(Arc::from(format!("n{node}").as_str())),
        }
    }

    fn exec(events: Vec<TimedEvent<SyncAction>>) -> Execution<SyncAction> {
        let ltime = events.last().map_or(Time::ZERO, |e| e.now);
        Execution::new(events, ltime)
    }

    #[test]
    fn clean_certificates_hold() {
        let o = EpsHatOracle::new(2, Duration::from_millis(3));
        let v = o.check(&exec(vec![
            clocked(0, 10, 40),
            clocked(1, 11, -50),
            cert(0, 15, 2000, vec![1]),
            cert(1, 16, 2000, vec![0]),
        ]));
        assert!(v.holds(), "{v}");
    }

    #[test]
    fn unsound_certificate_is_violated() {
        let o = EpsHatOracle::new(2, Duration::from_millis(3));
        // True skew 900 µs, certified 100 µs: clause 1.
        let v = o.check(&exec(vec![
            clocked(0, 10, 500),
            clocked(1, 11, -400),
            cert(0, 15, 100, vec![1]),
            cert(1, 16, 2000, vec![0]),
        ]));
        assert!(!v.holds());
    }

    #[test]
    fn overshooting_or_missing_certificates_are_violated() {
        let o = EpsHatOracle::new(2, Duration::from_millis(3));
        // ε̂ over the bound: clause 2.
        let wide = o.check(&exec(vec![
            cert(0, 15, 4000, vec![1]),
            cert(1, 16, 2000, vec![0]),
        ]));
        assert!(!wide.holds());
        // Node 1 silent: clause 2.
        let silent = o.check(&exec(vec![cert(0, 15, 2000, vec![1])]));
        assert!(!silent.holds());
        // Covered set short of the peer count: clause 2.
        let short = o.check(&exec(vec![
            cert(0, 15, 2000, vec![]),
            cert(1, 16, 2000, vec![0]),
        ]));
        assert!(!short.holds());
        // And the name keeps the C_eps family prefix campaigns match on.
        assert!(o.name().starts_with("C_eps"));
    }

    #[test]
    fn predicted_bound_grows_with_jitter_and_drift() {
        let ms = Duration::from_millis;
        let horizon = Time::ZERO + ms(300);
        let base = predicted_eps_hat(ms(1), ms(3), 0, horizon);
        assert_eq!(base, ms(2) + Duration::from_micros(500));
        let drifty = predicted_eps_hat(ms(1), ms(3), 400, horizon);
        assert!(drifty > base);
        let wider = predicted_eps_hat(ms(1), ms(4), 400, horizon);
        assert!(wider > drifty);
    }
}
