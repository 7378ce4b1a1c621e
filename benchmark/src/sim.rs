//! `sim_dc_small` and `sim_dc_wide`: seeded runs of the D_C register
//! system on the logical schedule, each judged by the full oracle set.

use crate::common::{iterate, sub_seed, Outcome, RunArgs};
use crate::dc::{judge, DcConfig, ExactCounts};
use crate::layers::{self, CallCost, Layer, LayerTotals};
use crate::spans::Tracer;

/// One sim workload: the system's size and how many distinct seeded runs
/// make a cycle.
#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    /// Stream id for sub-seeds, so the two sim workloads draw apart.
    pub stream: u64,
    /// The system.
    pub cfg: DcConfig,
    /// Distinct seeded runs per cycle.
    pub cycle: usize,
}

/// Host seconds per layer summed over iterations; scaled to one cycle at
/// the end.
#[derive(Default)]
struct LayerSeconds {
    totals: LayerTotals,
    build: f64,
    run: f64,
    history_extract: f64,
    linearizable: f64,
    ceps_oracle: f64,
    replay: f64,
}

/// The traced pass's first cycle, run twice: wrapped and plain.
#[derive(Default)]
struct Twin {
    calls: LayerTotals,
    wrapped_run_s: f64,
    plain_run_s: f64,
}

/// Runs the plain system on `seed` and returns its `engine.run` seconds
/// and counts, for the wrapped run to be held against.
fn plain_twin(cfg: &DcConfig, seed: u64, tracer: &Tracer) -> Option<(f64, ExactCounts)> {
    let (mut engine, hub) = cfg.build_plain(seed);
    let (run, run_s) = tracer.span("engine.run.plain", || engine.run());
    let run = run.ok()?;
    Some((run_s, ExactCounts::of(&run.execution, &hub)))
}

/// Runs the workload for `args.seconds`. With the tracer enabled the
/// system is assembled from wrapped parts, the first cycle is also run
/// plain (to price the timers and to check the two record the same
/// execution), and the per-layer metrics are filled in.
#[must_use]
pub fn run(workload: &SimWorkload, args: &RunArgs, tracer: &Tracer) -> Outcome {
    let cfg = workload.cfg;
    let mut out = Outcome::new();
    let mut exact = ExactCounts::default();
    let mut twin = Twin::default();
    let mut secs = LayerSeconds::default();
    let mut events_total = 0u64;

    out.iterations = iterate(workload.cycle, args.seconds, |i, first_cycle| {
        let seed = sub_seed(args.seed, workload.stream, (i % workload.cycle) as u64);
        tracer.span("run", || {
            let ((mut engine, hub), setup_s) = tracer.span("setup", || {
                if tracer.enabled() {
                    cfg.build_wrapped(seed)
                } else {
                    cfg.build_plain(seed)
                }
            });
            let _ = layers::take();
            let (run, run_s) = tracer.span("engine.run", || engine.run());
            let totals = layers::take();
            out.setup_s.push(setup_s);
            out.attempted += cfg.ops();
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    out.failed += cfg.ops();
                    out.notes.push(format!("seed {seed:#x}: engine error: {e}"));
                    return;
                }
            };
            let judgement = judge(&cfg, seed, &run.execution, run.stop, tracer);
            let judge_s = judgement.seconds();
            if judgement.violations.is_empty() {
                out.failed += cfg.ops() - judgement.ops_completed;
            } else {
                out.failed += cfg.ops();
                for (oracle, why) in &judgement.violations {
                    out.notes.push(format!("seed {seed:#x}: {oracle}: {why}"));
                }
            }
            let events = run.execution.len() as f64;
            out.events_per_s.push(events / (run_s + judge_s));

            events_total += run.execution.len() as u64;
            secs.totals.absorb(&totals);
            secs.build += setup_s;
            secs.run += run_s;
            secs.history_extract += judgement.history_extract_s;
            secs.linearizable += judgement.linearizable_s;
            secs.ceps_oracle += judgement.ceps_oracle_s;
            secs.replay += judgement.replay_s;
            if !first_cycle {
                return;
            }
            // Outside every timed section: the counts two commits are
            // compared by.
            let counts = ExactCounts::of(&run.execution, &hub);
            exact.absorb(&counts);
            if tracer.enabled() {
                twin.calls.absorb(&totals);
                twin.wrapped_run_s += run_s;
                match plain_twin(&cfg, seed, tracer) {
                    Some((plain_s, plain)) => {
                        twin.plain_run_s += plain_s;
                        if plain != counts {
                            out.correct = false;
                            out.notes.push(format!(
                                "seed {seed:#x}: wrapped run {counts:?} but plain run {plain:?}"
                            ));
                        }
                    }
                    None => {
                        out.correct = false;
                        out.notes
                            .push(format!("seed {seed:#x}: the plain twin did not run"));
                    }
                }
            }
        });
    });

    out.exact("executor.events", exact.events);
    out.exact("executor.advances", exact.advances);
    out.exact("register.ops", exact.ops);
    out.exact("core.msgs", exact.msgs);
    out.exact("core.msgs_held", exact.msgs_held);
    out.exact("net.msgs_delivered", exact.msgs_delivered);
    out.exact
        .push(("fingerprint".to_string(), exact.fingerprint));

    if tracer.enabled() {
        let cost = CallCost::from_overhead(
            twin.wrapped_run_s - twin.plain_run_s,
            twin.calls.timed_calls(),
        );
        // Seconds per cycle: the mean iteration times the cycle length.
        let per_cycle = workload.cycle as f64 / out.iterations as f64;
        let t = &secs.totals;
        let layer_s = |l: Layer| t.seconds(l, cost) * per_cycle;
        out.set(
            "executor.engine_self_s",
            t.engine_self_seconds(secs.run, cost) * per_cycle,
        );
        out.set("executor.run_events_per_s", events_total as f64 / secs.run);
        out.set("executor.build_s", secs.build * per_cycle);
        out.set("executor.scheduler_s", layer_s(Layer::Scheduler));
        out.set("executor.clock_strategy_s", layer_s(Layer::ClockStrategy));
        out.set("register.algorithm_s", layer_s(Layer::Algorithm));
        out.set("register.workload_s", layer_s(Layer::Workload));
        out.set("core.clock_sim_s", layer_s(Layer::ClockSim));
        out.set("core.send_buffer_s", layer_s(Layer::SendBuffer));
        out.set("core.recv_buffer_s", layer_s(Layer::RecvBuffer));
        out.set("net.channel_s", layer_s(Layer::Channel));
        out.set("obs.observer_s", layer_s(Layer::Observer));
        out.set("verify.history_extract_s", secs.history_extract * per_cycle);
        out.set("verify.linearizable_s", secs.linearizable * per_cycle);
        out.set("verify.replay_s", secs.replay * per_cycle);
        out.set("obs.ceps_oracle_s", secs.ceps_oracle * per_cycle);
        out.set("traced.plain_run_s", twin.plain_run_s);
        out.set(
            "traced.run_overhead_ratio",
            twin.wrapped_run_s / twin.plain_run_s,
        );
        out.set("traced.timer_ns_per_call", cost.inside_ns + cost.outside_ns);
        // Calls are deterministic per seed: those of the first cycle.
        let c = &twin.calls;
        out.exact("executor.scheduler_calls", c.calls(Layer::Scheduler));
        out.exact(
            "executor.clock_strategy_calls",
            c.calls(Layer::ClockStrategy),
        );
        out.exact("register.algorithm_calls", c.calls(Layer::Algorithm));
        out.exact("register.workload_calls", c.calls(Layer::Workload));
        out.exact("core.clock_sim_calls", c.calls(Layer::ClockSim));
        out.exact("core.send_buffer_calls", c.calls(Layer::SendBuffer));
        out.exact("core.recv_buffer_calls", c.calls(Layer::RecvBuffer));
        out.exact("net.channel_calls", c.calls(Layer::Channel));
        out.exact("obs.observer_calls", c.calls(Layer::Observer));
    }
    out
}
