//! What the explorer's integration tests share: a case run that also
//! hashes its recorded execution. `CaseOutcome` carries no hash (campaigns
//! never read one), so a test that pins or compares executions asks for it
//! here.

use psync_automata::{Action, Execution};
use psync_explorer::{
    fingerprint, run_case, run_scenario, CaseOutcome, ClockFleetFamily, CounterFamily, FaultPlan,
    HeartbeatFamily, MutexFamily, RegisterFamily, Scenario, ScenarioConfig, ScenarioKind,
    SyncFamily,
};

/// `run_case(cfg, plan, seed, false)` and the [`fingerprint`] of the
/// execution it recorded (0 for an engine error). The case runs through
/// its family's `run_scenario`, and the outcome is asserted equal to
/// `run_case`'s, so a kind → family map here that drifts from `run_case`'s
/// fails loudly. The streamed hash is asserted equal to
/// [`reference_fingerprint`] on every execution it sees.
pub fn fingerprinted(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> (CaseOutcome, u64) {
    fn run<S: Scenario>(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> (CaseOutcome, u64) {
        let judged = run_scenario::<S>(cfg, plan, seed, false);
        let hash = judged.run.as_ref().map_or(0, |r| {
            let hash = fingerprint(&r.execution);
            assert_eq!(
                hash,
                reference_fingerprint(&r.execution),
                "{:?}: streamed hash drifted",
                cfg.kind
            );
            hash
        });
        (judged.into(), hash)
    }
    let hashed = match cfg.kind {
        ScenarioKind::Heartbeat
        | ScenarioKind::HeartbeatCrash
        | ScenarioKind::HeartbeatRestart
        | ScenarioKind::HeartbeatGray
        | ScenarioKind::HeartbeatBidi
        | ScenarioKind::Relay
        | ScenarioKind::Partition => run::<HeartbeatFamily>(cfg, plan, seed),
        ScenarioKind::ClockFleet | ScenarioKind::ClockFleetLarge => {
            run::<ClockFleetFamily>(cfg, plan, seed)
        }
        ScenarioKind::Mutex | ScenarioKind::MutexContended => run::<MutexFamily>(cfg, plan, seed),
        ScenarioKind::Register | ScenarioKind::RegisterTriple => {
            run::<RegisterFamily>(cfg, plan, seed)
        }
        ScenarioKind::Counter => run::<CounterFamily>(cfg, plan, seed),
        ScenarioKind::SyncProbe | ScenarioKind::SyncRounds => run::<SyncFamily>(cfg, plan, seed),
    };
    assert_eq!(
        hashed.0,
        run_case(cfg, plan, seed, false),
        "{:?}: this helper's family is not run_case's",
        cfg.kind
    );
    hashed
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `psync_explorer::fingerprint` as it was written before it streamed:
/// one `format!` per event, then its bytes. The oracle for the streamed
/// form, which must hash the same bytes in the same order.
fn reference_fingerprint<A: Action>(exec: &Execution<A>) -> u64 {
    let mut h = 0xC1A5_51C0_DE00_0001u64;
    for e in exec.events() {
        let line = format!("{:?}@{}@{:?}", e.action, e.now.as_nanos(), e.clock);
        for b in line.bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h = splitmix64(h);
    }
    h
}
