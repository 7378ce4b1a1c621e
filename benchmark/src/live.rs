//! `live_register`: the same transformed components on wall clocks —
//! `LiveRegister`, a closed loop of 2 clients (one per node thread, one
//! operation in flight each) plus the monitor thread, judged online by
//! `LiveMonitor` and post-hoc by `judge_live_register`.

use std::time::Instant;

use psync_core::app_trace;
use psync_executor::Driver;
use psync_live::{judge_live_register, measure_eps_hat, LiveConfig, LiveRegister, WallClock};
use psync_register::history;
use psync_time::{DelayBounds, Duration};

use crate::common::{iterate, median, percentile, sub_seed, Outcome, RunArgs};
use crate::spans::Tracer;

/// The workload's size: operations per node per iteration.
#[derive(Debug, Clone, Copy)]
pub struct LiveWorkload {
    /// Closed-loop operations per node in one `LiveRegister` run.
    pub ops_per_node: u32,
}

const STREAM: u64 = 6;
const NODES: usize = 2;

fn config(workload: &LiveWorkload, seed: u64) -> LiveConfig {
    let ms = Duration::from_millis;
    LiveConfig {
        nodes: NODES,
        bounds: DelayBounds::new(ms(1), ms(20)).expect("1 <= 20"),
        eps_floor: ms(1),
        ops_per_node: workload.ops_per_node,
        think: DelayBounds::new(ms(1), ms(3)).expect("1 <= 3"),
        quantum: std::time::Duration::from_micros(200),
        budget: std::time::Duration::from_secs(60),
        seed,
        ..LiveConfig::default()
    }
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Runs the workload for `args.seconds`: one `LiveRegister` run per
/// iteration, operation samples pooled over all of them.
#[must_use]
pub fn run(workload: &LiveWorkload, args: &RunArgs, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::new();
    let cfg = config(workload, sub_seed(args.seed, STREAM, 0));
    let requested = u64::from(cfg.ops_per_node) * NODES as u64;

    let mut latency_us = Vec::new();
    let mut over_bound_us = Vec::new();
    let mut ideal_s = 0.0;
    let (mut drive_s, mut judge_s, mut events) = (0.0, 0.0, 0u64);
    let mut eps_hat_us = Vec::new();
    let (mut max_delay_us, mut monitor_violations) = (0.0f64, 0u64);

    // Set-up, five units before the first timed run: an ε̂ probe sweep with
    // the run's own parameters, the system, and a warm-up run of one
    // operation per node. The sweep alone is a handful of thread wake-ups
    // (0.1 ms on a busy core, 0.8 ms when the other core has to be woken —
    // either, at random, from one process to the next), so alone it is no
    // steady figure; the warm-up run is paced by the algorithm's own waits.
    let mut probe_s = Vec::new();
    for _ in 0..5 {
        let ((), setup_s) = tracer.span("setup", || {
            let ((), s) = tracer.span("probe", || {
                let origin = Instant::now();
                let clocks = vec![WallClock::new(origin, Duration::ZERO); NODES];
                let _ =
                    std::hint::black_box(measure_eps_hat(&clocks, cfg.probe_rounds, cfg.eps_floor));
            });
            probe_s.push(s);
            let mut warm = LiveRegister::new(LiveConfig {
                ops_per_node: 1,
                ..cfg.clone()
            });
            if let Err(e) = warm.drive() {
                out.correct = false;
                out.notes.push(format!("live warm-up run failed: {e}"));
            }
        });
        out.setup_s.push(setup_s);
    }

    out.iterations = iterate(1, args.seconds, |_, _| {
        tracer.span("live", || {
            let mut live = LiveRegister::new(cfg.clone());
            let (run, drive_total_s) = tracer.span("drive", || live.drive());
            out.attempted += requested;
            let (run, report) = match (run, live.take_report()) {
                (Ok(run), Some(report)) => (run, report),
                (Err(e), _) => {
                    out.failed += requested;
                    out.notes.push(format!("live run failed: {e}"));
                    return;
                }
                (Ok(_), None) => unreachable!("a completed drive leaves its report"),
            };
            let (posthoc, posthoc_s) = tracer.span("judge", || {
                judge_live_register(&run.execution, NODES, report.eps_hat, cfg.bounds)
            });

            let ops = history::extract(&app_trace(&run.execution), NODES);
            let mut completed = 0u64;
            match &ops {
                Ok(ops) => {
                    for op in ops {
                        let Some(latency) = op.latency() else {
                            continue;
                        };
                        completed += 1;
                        let bound = if op.is_read() {
                            report.read_latency
                        } else {
                            report.write_latency
                        };
                        latency_us.push(micros(latency));
                        over_bound_us.push(micros(latency - bound));
                        // Think time averages the middle of its range.
                        ideal_s +=
                            (micros(bound) + micros(cfg.think.min() + cfg.think.width() / 2)) / 1e6;
                    }
                }
                Err(e) => out.notes.push(format!("live history: {e:?}")),
            }
            let violations: Vec<&(String, String)> =
                report.monitor.violations.iter().chain(&posthoc).collect();
            if violations.is_empty() && ops.is_ok() {
                out.failed += requested - completed;
            } else {
                out.failed += requested;
                for (oracle, why) in violations {
                    out.notes.push(format!("live: {oracle}: {why}"));
                }
            }

            let total_s = drive_total_s + posthoc_s;
            out.events_per_s.push(run.execution.len() as f64 / total_s);
            drive_s += report.wall_elapsed.as_secs_f64();
            judge_s += posthoc_s;
            events += run.execution.len() as u64;
            eps_hat_us.push(micros(report.eps_hat));
            max_delay_us = max_delay_us.max(micros(report.max_delivery_delay));
            monitor_violations += report.monitor.violations.len() as u64;
        });
    });

    out.exact("register.ops", requested);
    if tracer.enabled() && !latency_us.is_empty() {
        let per_iteration = 1.0 / out.iterations as f64;
        out.set("live.eps_hat_us", median(&eps_hat_us));
        out.set("live.probe_s", median(&probe_s));
        out.set("live.drive_wall_s", drive_s * per_iteration);
        out.set("live.posthoc_judge_s", judge_s * per_iteration);
        out.set("live.events", events as f64 * per_iteration);
        out.set("live.op_p50_us", median(&latency_us));
        out.set("live.over_bound_p50_us", median(&over_bound_us));
        out.set("live.over_bound_p90_us", percentile(&over_bound_us, 0.90));
        out.set("live.over_bound_p99_us", percentile(&over_bound_us, 0.99));
        out.set("live.ops_sampled", latency_us.len() as f64);
        out.set("live.max_delivery_delay_us", max_delay_us);
        out.set("live.monitor_violations", monitor_violations as f64);
        // Each node's loop would take Σ (bound + think) if nothing but the
        // algorithm's own waits and the think time cost wall time.
        out.set(
            "live.closed_loop_efficiency",
            ideal_s / NODES as f64 / drive_s,
        );
    }
    out
}
