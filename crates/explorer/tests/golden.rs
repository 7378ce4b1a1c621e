//! Cross-commit pin of the case pipeline: what `run_case` produced for
//! every catalog kind and every canary mutant at commit `3eee2e6`, before
//! the seven typed runners were folded into `run_scenario`. Every other
//! explorer test compares a run against another run of the same build;
//! this one compares against a previous build, so a refactor that shifts
//! every execution the same way still fails it.
//!
//! A row changes only when behaviour is meant to change (a new component
//! in a family, a new metric in a case's hub). Then the failure message
//! prints the row to paste.

mod common;

use common::fingerprinted;
use psync_explorer::{CanaryKind, FaultPlan, ScenarioConfig, ScenarioKind};

/// `(events, fingerprint(execution), violations.len(),
/// fnv1a(metrics.to_json()))`.
type Pin = (usize, u64, usize, u64);

/// Per config: the empty plan at seed 1, then
/// `FaultPlan::generate(7, &envelope, 6)` at seed 7.
const GOLDEN: [(&str, Pin, Pin); 26] = [
    (
        "heartbeat",
        (58, 10898054804039392355, 0, 2072639578275381215),
        (58, 17485330639332946400, 0, 10530219788563021784),
    ),
    (
        "heartbeat_crash",
        (30, 9157641341026497808, 0, 11904784778894214388),
        (29, 799979431308416723, 0, 18437151091975149410),
    ),
    (
        "heartbeat_restart",
        (30, 9157641341026497808, 0, 11904784778894214388),
        (29, 799979431308416723, 0, 18437151091975149410),
    ),
    (
        "heartbeat_gray",
        (58, 3060253272974607117, 0, 13691742270389686319),
        (58, 12801217203713245143, 0, 13005983502827998976),
    ),
    (
        "heartbeat_bidi",
        (116, 7175761965796021395, 0, 15357262007583090109),
        (116, 11079436838884423735, 0, 11501030700543837401),
    ),
    (
        "relay",
        (116, 3316042556183186603, 0, 12808682665109373471),
        (114, 5796312956258789527, 0, 14669042313747712113),
    ),
    (
        "partition",
        (90, 16505813584295455690, 0, 2245762437450880649),
        (89, 8752242248732866977, 0, 1645137953930816123),
    ),
    (
        "clockfleet",
        (73, 16128745506805388143, 0, 3007978977075348760),
        (73, 13343525183158746234, 0, 4647913217233766769),
    ),
    (
        "clockfleet_large",
        (127, 6464145304299367774, 0, 671738286031092794),
        (127, 5796132541798773943, 0, 13117011298453192397),
    ),
    (
        "mutex",
        (24, 14825004908183318994, 0, 1071718578196457752),
        (24, 8161721841607793702, 0, 7051568327587931923),
    ),
    (
        "mutex_contended",
        (24, 15308228930065866180, 0, 10301705210623454460),
        (24, 15308228930065866180, 0, 10301705210623454460),
    ),
    (
        "register",
        (18, 2298029971894922843, 0, 8080309901454240450),
        (36, 5995812217256063597, 0, 11800207648241284130),
    ),
    (
        "register_triple",
        (34, 16353523227819102504, 0, 4561326475750577564),
        (78, 4182815202727644358, 0, 6004331207925834239),
    ),
    (
        "counter",
        (34, 5625534481040635510, 0, 1190797940641821800),
        (78, 685917909801255247, 0, 1881370532236709107),
    ),
    (
        "sync_probe",
        (718, 8271297453783480375, 0, 14818535676437219990),
        (718, 3785224141712651516, 0, 2993530669199591313),
    ),
    (
        "sync_rounds",
        (1412, 13520017976071863582, 0, 13592204947191669167),
        (1412, 4338957424914626998, 0, 1517641507924465220),
    ),
    (
        "delay_overshoot",
        (58, 10898054804039392355, 0, 2072639578275381215),
        (58, 7479920964928096659, 1, 18234941837811717151),
    ),
    (
        "fd_timeout_underbudget",
        (58, 10898054804039392355, 0, 2072639578275381215),
        (59, 14959678037383708747, 1, 9229666967074544697),
    ),
    (
        "duplicate_delivery",
        (87, 12867870270175995679, 1, 8525433525460839537),
        (83, 7311715216825347566, 1, 15825594370558237906),
    ),
    (
        "skew_beyond_eps",
        (74, 2896833419854224188, 1, 6473545365282319058),
        (74, 1762085351253126238, 1, 6473545365282319058),
    ),
    (
        "cadence_rush",
        (77, 11094629778214128861, 2, 8121939528057087404),
        (76, 12967925240721282833, 2, 17568503593503552597),
    ),
    (
        "mutex_guard_zero",
        (24, 8462298291101329092, 0, 17526248124439321517),
        (24, 323933653271515036, 1, 7107973013074788494),
    ),
    (
        "relay_lifo_heal",
        (116, 14039521199611956421, 1, 692710995223658791),
        (114, 10136248148915280702, 1, 6727353431002962849),
    ),
    (
        "register_sign_flip",
        (18, 5005252588657980894, 0, 1580575722978696587),
        (36, 11678946350515713449, 0, 11191428638179855498),
    ),
    (
        "counter_sign_flip",
        (34, 10565985165343921630, 0, 2359731213341110474),
        (78, 7938475472615838682, 0, 2026967406836141750),
    ),
    (
        "sync_skew_burst",
        (718, 11414154894048859670, 1, 11828467158107213449),
        (718, 4953591887611169490, 1, 4360848011107140403),
    ),
];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `fingerprinted` also holds the streamed hash to the `format!`-per-event
/// reference on each of the 52 executions pinned here.
fn pin(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> Pin {
    let (out, fingerprint) = fingerprinted(cfg, plan, seed);
    (
        out.events,
        fingerprint,
        out.violations.len(),
        fnv1a(&out.metrics.to_json()),
    )
}

#[test]
fn every_kind_and_canary_matches_the_recorded_commit() {
    let kinds = ScenarioKind::all().map(|k| (k.name(), ScenarioConfig::default_for(k)));
    let canaries = CanaryKind::all().map(|c| (c.name(), c.scenario()));
    let configs: Vec<_> = kinds.into_iter().chain(canaries).collect();
    assert_eq!(configs.len(), GOLDEN.len());
    for ((name, cfg), (golden_name, clean, faulted)) in configs.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name, "catalog order changed");
        let plan = FaultPlan::generate(7, &cfg.envelope(), 6);
        let now = (pin(cfg, &FaultPlan::empty(), 1), pin(cfg, &plan, 7));
        assert_eq!(
            now,
            (clean, faulted),
            "{name} diverged from the recorded commit; the row is now\n    (\"{name}\", {:?}, {:?}),",
            now.0,
            now.1
        );
    }
}
