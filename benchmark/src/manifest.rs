//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics — and `BENCHMARK.json`, which is rendered from them
//! (`--emit-manifest`) and pinned to them by a test.

use std::fmt::Write as _;

use psync_explorer::{CanaryKind, ScenarioKind};

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 8;

/// The workloads, with why each exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "sim_dc_small",
        "D_C register n=4, 2000 ops/node, every oracle: per-event constant cost (component step, Simulation-1 buffers, channel, arena) dominates; engine O(n) work is small",
    ),
    (
        "sim_dc_wide",
        "same system at n=32, 10 ops/node, no exact linearizability: per-event cost is ~20x higher; fire() routing and the every-node advance sweep do most of the work",
    ),
    (
        "judge_posthoc",
        "32 recorded n=8, 100 ops/node executions judged by every judging path with the engine idle: verify, obs and automata::relations do all the work, executor none",
    ),
    (
        "campaign_fleet",
        "run_campaign over all 16 scenario kinds, clean cases: thousands of 30-1400-event runs where build, plan generation and per-case judging dominate",
    ),
    (
        "campaign_canary",
        "all 10 planted-bug canaries, mutation score must be 10/10: the shrink path (checkpoint, restore, fork, probe cache) does most of the work",
    ),
    (
        "live_register",
        "LiveRegister closed loop, 2 node threads + monitor, [1,20] ms wires: wall-clock backend whose cost is overhead above the Theorem 6.5 bound, not engine speed",
    ),
];

/// One metric: name, unit, which direction is better.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as printed and as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics. Every workload reports every one of them (the
/// driver's contract), so each is defined on all six; see the README table
/// for what "event" and "case" mean per workload.
#[must_use]
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        bounded("events_per_s", "1/s", "higher", 0.10),
        bounded("peak_rss_mb", "MB", "lower", 0.20),
        bounded("setup_s", "s", "lower", 0.25),
    ]
}

/// The per-layer metrics, layers named after the crates.
#[must_use]
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("executor.engine_self_s", "s", "lower"),
        def("executor.run_events_per_s", "1/s", "higher"),
        def("executor.scheduler_s", "s", "lower"),
        def("executor.scheduler_calls", "count", "lower"),
        def("executor.clock_strategy_s", "s", "lower"),
        def("executor.clock_strategy_calls", "count", "lower"),
        def("executor.build_s", "s", "lower"),
        def("executor.events", "count", "lower"),
        def("executor.advances", "count", "lower"),
        def("register.algorithm_s", "s", "lower"),
        def("register.algorithm_calls", "count", "lower"),
        def("register.workload_s", "s", "lower"),
        def("register.workload_calls", "count", "lower"),
        def("register.ops", "count", "higher"),
        def("core.clock_sim_s", "s", "lower"),
        def("core.clock_sim_calls", "count", "lower"),
        def("core.send_buffer_s", "s", "lower"),
        def("core.send_buffer_calls", "count", "lower"),
        def("core.recv_buffer_s", "s", "lower"),
        def("core.recv_buffer_calls", "count", "lower"),
        def("core.msgs", "count", "lower"),
        def("core.msgs_held", "count", "lower"),
        def("core.check_sim1_s", "s", "lower"),
        def("net.channel_s", "s", "lower"),
        def("net.channel_calls", "count", "lower"),
        def("net.msgs_delivered", "count", "higher"),
        def("obs.observer_s", "s", "lower"),
        def("obs.observer_calls", "count", "lower"),
        def("obs.ceps_oracle_s", "s", "lower"),
        def("obs.stream_eps_s", "s", "lower"),
        def("obs.check_all_sharded_s", "s", "lower"),
        def("verify.linearizable_s", "s", "lower"),
        def("verify.replay_s", "s", "lower"),
        def("verify.history_extract_s", "s", "lower"),
        def("automata.eps_offline_s", "s", "lower"),
    ];
    for kind in ScenarioKind::all() {
        defs.push(def(
            &format!("explorer.kind_s.{}", kind.name()),
            "s",
            "lower",
        ));
    }
    for canary in CanaryKind::all() {
        defs.push(def(
            &format!("explorer.canary_s.{}", canary.name()),
            "s",
            "lower",
        ));
    }
    defs.extend([
        def("explorer.cases_per_s", "1/s", "higher"),
        def("explorer.events", "count", "lower"),
        def("explorer.shrink_probes", "count", "lower"),
        def("explorer.shrink_events", "count", "lower"),
        def("explorer.recording_runs", "count", "lower"),
        def("explorer.checkpoints", "count", "lower"),
        def("explorer.cache_hits", "count", "higher"),
        def("explorer.failures", "count", "lower"),
        def("explorer.canaries_caught", "count", "higher"),
        def("explorer.jobs_nproc_speedup", "ratio", "higher"),
        def("explorer.host_cores", "count", "higher"),
        def("live.eps_hat_us", "us", "lower"),
        def("live.probe_s", "s", "lower"),
        def("live.drive_wall_s", "s", "lower"),
        def("live.op_p50_us", "us", "lower"),
        def("live.over_bound_p50_us", "us", "lower"),
        def("live.over_bound_p90_us", "us", "lower"),
        def("live.over_bound_p99_us", "us", "lower"),
        def("live.ops_sampled", "count", "higher"),
        def("live.max_delivery_delay_us", "us", "lower"),
        def("live.events", "count", "lower"),
        def("live.monitor_violations", "count", "lower"),
        def("live.posthoc_judge_s", "s", "lower"),
        def("live.closed_loop_efficiency", "ratio", "higher"),
        def("traced.events_per_s", "1/s", "higher"),
        def("traced.plain_run_s", "s", "lower"),
        def("traced.run_overhead_ratio", "ratio", "lower"),
        def("traced.timer_ns_per_call", "ns", "lower"),
    ]);
    defs
}

/// The text of `BENCHMARK.json`.
#[must_use]
pub fn render() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, m) in e2e.iter().enumerate() {
        let comma = if i + 1 == e2e.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 == layers.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_manifest_is_the_rendered_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            render(),
            "BENCHMARK.json is stale: regenerate it with `--emit-manifest`"
        );
    }

    #[test]
    fn names_fit_the_contract() {
        let ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(ok(name) && seen.insert(name.to_string()), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        let layers = per_layer();
        assert!(layers.len() <= 128);
        for m in end_to_end().iter().chain(&layers) {
            assert!(ok(&m.name) && seen.insert(m.name.clone()), "{}", m.name);
            assert!(m.unit.len() <= 16);
        }
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(end_to_end().iter().any(|m| m.name == "setup_s"));
    }
}
