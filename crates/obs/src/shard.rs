//! Deterministic sharded judging: parallelism that never shows in the
//! verdicts.
//!
//! [`check_all_sharded`] fans an oracle set out over worker threads with
//! a fixed merge order, so output is bit-identical for every shard
//! count: workers claim oracles from an atomic counter, verdicts land in
//! per-oracle slots and are merged *in oracle order*; each shard counts
//! its own work into a private [`Registry`] and the per-shard snapshots
//! are absorbed in shard-index order. The counters (`monitor.checks`,
//! `monitor.violations`) are totals over oracles, so they are invariant
//! under the shard count too.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use psync_automata::{Action, Execution, Verdict};
use psync_verify::Oracle;

use crate::metrics::{MetricsSnapshot, Registry};

/// The deterministic judging snapshot every judging path reports:
/// `monitor.checks` oracles checked, `monitor.violations` of them
/// violated. Shared by [`check_all_sharded`] and the explorer's online
/// judge so offline and online cases account their monitoring work under
/// the same names.
#[must_use]
pub fn monitor_snapshot(checks: u64, violations: u64) -> MetricsSnapshot {
    let mut registry = Registry::new();
    registry.add("monitor.checks", checks);
    registry.add("monitor.violations", violations);
    registry.snapshot()
}

/// Checks every oracle against one execution on `shards` worker threads,
/// returning the violations *in oracle order* (identical to
/// [`psync_verify::check_all`]) plus a deterministic metrics snapshot of
/// the judging work (`monitor.checks`, `monitor.violations`).
///
/// `shards <= 1` is the plain sequential loop; any larger count yields
/// the same return value, merely faster.
#[must_use]
pub fn check_all_sharded<A: Action + Send + Sync>(
    oracles: &[Box<dyn Oracle<A>>],
    exec: &Execution<A>,
    shards: usize,
) -> (Vec<(String, String)>, MetricsSnapshot) {
    let shards = shards.max(1).min(oracles.len().max(1));
    if shards <= 1 {
        let violations: Vec<(String, String)> = oracles
            .iter()
            .filter_map(|o| match o.check(exec) {
                Verdict::Holds => None,
                Verdict::Violated(why) => Some((o.name(), why)),
            })
            .collect();
        let metrics = monitor_snapshot(oracles.len() as u64, violations.len() as u64);
        return (violations, metrics);
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Option<(String, String)>>> =
        (0..oracles.len()).map(|_| OnceLock::new()).collect();
    let mut shard_snaps: Vec<Option<MetricsSnapshot>> = (0..shards).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shards);
        for _ in 0..shards {
            let next = &next;
            let slots = &slots;
            handles.push(scope.spawn(move || {
                let mut registry = Registry::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(oracle) = oracles.get(i) else {
                        break;
                    };
                    let verdict = match oracle.check(exec) {
                        Verdict::Holds => None,
                        Verdict::Violated(why) => Some((oracle.name(), why)),
                    };
                    registry.add("monitor.checks", 1);
                    if verdict.is_some() {
                        registry.add("monitor.violations", 1);
                    }
                    slots[i].set(verdict).expect("oracle slot claimed twice");
                }
                registry.snapshot()
            }));
        }
        for (snap, handle) in shard_snaps.iter_mut().zip(handles) {
            *snap = Some(handle.join().expect("judge shard panicked"));
        }
    });
    let violations = slots
        .into_iter()
        .filter_map(|slot| slot.into_inner().flatten())
        .collect();
    // Seed both counters at zero before absorbing the shard snapshots: a
    // clean run's shards never touch `monitor.violations`, and the merged
    // snapshot must still carry the key (at 0) to stay bit-identical to
    // the sequential path's.
    let mut metrics = monitor_snapshot(0, 0);
    for snap in shard_snaps.into_iter().flatten() {
        metrics.absorb(&snap);
    }
    (violations, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(base_v.len(), 3);
        assert_eq!(base_m.counter("monitor.checks"), 7);
        assert_eq!(base_m.counter("monitor.violations"), 3);
        for shards in [2, 3, 4, 16] {
            let (v, m) = check_all_sharded(&oracles, &exec, shards);
            assert_eq!(v, base_v, "shards={shards}");
            assert_eq!(m, base_m, "shards={shards}");
        }
    }
}
