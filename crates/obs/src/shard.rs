//! Judging an oracle set with its work accounted: [`check_all_sharded`]
//! returns the violations *in oracle order* together with a
//! deterministic snapshot of the judging work (`monitor.checks`,
//! `monitor.violations`). The counters are totals over oracles, so they
//! do not depend on how the check is scheduled.
//!
//! The check runs sequentially on the calling thread. A judge-thread
//! pool used to sit behind the `shards` argument; two judge threads per
//! case measured a 19–41 % loss on campaigns (whose parallelism is
//! across cases), every caller passes `1`, and the branch is gone. The
//! argument stays for the callers' sake.

use psync_automata::{Action, Execution};
use psync_verify::{check_all, Oracle};

use crate::metrics::{MetricsSnapshot, Registry};

/// Checks every oracle against one execution, returning the violations
/// *in oracle order* ([`psync_verify::check_all`]) plus the deterministic
/// judging snapshot every judging path reports under the same names:
/// `monitor.checks` oracles checked, `monitor.violations` of them
/// violated (present, at 0, on a clean run).
///
/// `shards` is accepted and ignored: any count yields the same return
/// value.
#[must_use]
pub fn check_all_sharded<A: Action + Send + Sync>(
    oracles: &[Box<dyn Oracle<A>>],
    exec: &Execution<A>,
    _shards: usize,
) -> (Vec<(String, String)>, MetricsSnapshot) {
    let violations = check_all(oracles, exec);
    let mut registry = Registry::new();
    registry.add("monitor.checks", oracles.len() as u64);
    registry.add("monitor.violations", violations.len() as u64);
    (violations, registry.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_automata::Verdict;
    use psync_time::{Duration, Time};
    use psync_verify::FnOracle;

    #[test]
    fn check_all_sharded_is_shard_count_invariant() {
        use psync_automata::toys::BeepAction;
        let exec: Execution<BeepAction> =
            Execution::new(Vec::new(), Time::ZERO + Duration::from_millis(1));
        let oracles: Vec<Box<dyn Oracle<BeepAction>>> = (0..7)
            .map(|i| {
                Box::new(FnOracle::new(format!("o{i}"), move |_: &Execution<_>| {
                    if i % 3 == 0 {
                        Verdict::violated(format!("bad {i}"))
                    } else {
                        Verdict::Holds
                    }
                })) as Box<dyn Oracle<BeepAction>>
            })
            .collect();
        let (base_v, base_m) = check_all_sharded(&oracles, &exec, 1);
        assert_eq!(
            base_v
                .iter()
                .map(|(name, _)| name.as_str())
                .collect::<Vec<_>>(),
            ["o0", "o3", "o6"],
            "violations come back in oracle order"
        );
        assert_eq!(base_m.counter("monitor.checks"), 7);
        assert_eq!(base_m.counter("monitor.violations"), 3);
        for shards in [0, 2, 16] {
            assert_eq!(
                check_all_sharded(&oracles, &exec, shards),
                (base_v.clone(), base_m.clone())
            );
        }
    }
}
