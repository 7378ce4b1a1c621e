//! The benchmark must not change what it measures: a system assembled
//! from wrapped parts records the execution `build_dc` records, and the
//! traced pass counts what the untraced pass counts.

use psync_benchmark::common::{sub_seed, Outcome, RunArgs};
use psync_benchmark::dc::{DcConfig, ExactCounts};
use psync_benchmark::spans::Tracer;
use psync_benchmark::{judge_posthoc, run_workload, sim_dc_small, sim_dc_wide};

fn counts(cfg: &DcConfig, seed: u64, wrapped: bool) -> ExactCounts {
    let (mut engine, hub) = if wrapped {
        cfg.build_wrapped(seed)
    } else {
        cfg.build_plain(seed)
    };
    let run = engine.run().expect("a well-formed D_C system runs");
    ExactCounts::of(&run.execution, &hub)
}

#[test]
fn wrapped_and_plain_systems_record_the_same_execution() {
    // Every system shape the benchmark runs (at smoke size, so the debug
    // build stays quick) plus one in between, on the sub-seeds the
    // workloads draw for three benchmark seeds.
    let shapes = [
        (1, sim_dc_small(true).cfg, 2),
        (2, sim_dc_wide(true).cfg, 1),
        (3, judge_posthoc(true).cfg, 2),
        (
            9,
            DcConfig {
                n: 8,
                ops_per_node: 12,
                exact_linearizability: false,
            },
            2,
        ),
    ];
    for (stream, cfg, cycle) in shapes {
        for seed in 1..=3 {
            for index in 0..cycle {
                let sub = sub_seed(seed, stream, index);
                let plain = counts(&cfg, sub, false);
                let wrapped = counts(&cfg, sub, true);
                assert!(plain.events > 0, "{cfg:?} recorded nothing");
                assert_eq!(plain, wrapped, "{cfg:?} seed {sub:#x}");
            }
        }
    }
}

fn pass(workload: &str, traced: bool) -> Outcome {
    let args = RunArgs {
        seed: 7,
        seconds: 0.0,
        smoke: true,
    };
    let out = run_workload(workload, &args, &Tracer::new(traced)).expect("a known workload");
    assert!(
        out.correct && out.failed == 0 && out.attempted > 0,
        "{workload}: {:?}",
        out.notes
    );
    out
}

#[test]
fn traced_and_untraced_passes_agree_on_every_exact_count() {
    for workload in [
        "sim_dc_small",
        "sim_dc_wide",
        "judge_posthoc",
        "campaign_fleet",
        "campaign_canary",
    ] {
        let untraced = pass(workload, false);
        let traced = pass(workload, true);
        assert!(!untraced.exact.is_empty());
        for (name, value) in &untraced.exact {
            let twin = traced.exact.iter().find(|(n, _)| n == name);
            assert_eq!(
                twin.map(|(_, v)| *v),
                Some(*value),
                "{workload}: {name} differs between the passes"
            );
        }
        // The counts are printed so two commits can be compared exactly.
        println!("{workload}: {:?}", untraced.exact);
    }
}

#[test]
fn the_live_workload_completes_and_is_judged() {
    let out = pass("live_register", true);
    assert_eq!(out.attempted, 16);
    assert!(out.layer["live.ops_sampled"] >= 16.0);
    assert!(out.layer["live.op_p50_us"] > 0.0);
}
