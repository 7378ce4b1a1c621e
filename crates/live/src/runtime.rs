//! The thread-backed runtime: one OS thread per node, each driving its
//! own single-node engine against wall time.
//!
//! Engines (and the whole component stack) are deliberately
//! single-threaded, so the runtime never shares one: each node thread
//! *constructs* its node — the same `A^c_{i,ε}` composition
//! [`transform_node`] builds for the simulator — inside its own engine,
//! clocked by [`MonotonicClock`]. The thread's driving loop is:
//!
//! 1. `run_idle_until(wall)` — let the engine catch up to wall time,
//!    firing everything the node itself controls (sends, internal
//!    updates, responses);
//! 2. inject due wire deliveries and workload invocations
//!    ([`Engine::inject`]) at the current wall time;
//! 3. harvest newly recorded events: `ESENDMSG`s go onto the wire
//!    ([`crate::wire`]), responses complete the closed-loop workload,
//!    everything is streamed to the monitor thread;
//! 4. sleep one quantum.
//!
//! Wire delays are therefore *measured*: an `ERECVMSG` lands at the wall
//! time its injection ran, at least `d₁` after the send by the inbox's
//! hold-back, and within `d₂` only if the machine kept up — which the
//! envelope monitors check. When the run ends, the per-node event logs
//! merge (stably, by time then node) into one [`Execution`] that the
//! post-hoc oracles judge exactly like a simulated run's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use psync_automata::{Execution, TimedEvent};
use psync_core::{transform_node, NodeSpec};
use psync_executor::{Driver, Engine, Run, StopReason};
use psync_net::{NodeId, SysAction, Topology};
use psync_obs::{MetricsHub, MetricsSnapshot};
use psync_register::{AlgorithmS, RegAction, RegMsg, RegisterOp, RegisterParams, Value};
use psync_time::{DelayBounds, Duration, Time};

use crate::clock::{wall_time, MonotonicClock, WallClock};
use crate::monitor::{LiveMonitor, MonitorMsg, MonitorOutcome};
use crate::oracles::live_register_monitors;
use crate::probe::{measure_eps_hat, EpsHatMeasurement};
use crate::wire::{Inbox, WireMsg};

/// Configuration of a live register run.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Node (= thread) count; the topology is complete.
    pub nodes: usize,
    /// The declared wire envelope `[d₁, d₂]`: `d₁` is enforced by
    /// hold-back, `d₂` is the budget the machine must keep — monitors
    /// flag deliveries outside it.
    pub bounds: DelayBounds,
    /// Additive floor on the measured ε̂, covering what RTT probes cannot
    /// see (the driving loop's quantum, scheduling noise between clock
    /// consultations).
    pub eps_floor: Duration,
    /// Per-node clock offsets (empty = all honest). Offsets within the
    /// measured ε̂ exercise the envelope with real threads.
    pub offsets: Vec<Duration>,
    /// Closed-loop operations per node (writes and reads alternate).
    pub ops_per_node: u32,
    /// Think-time range between a response and the next invocation.
    pub think: DelayBounds,
    /// Sleep per driving-loop iteration.
    pub quantum: std::time::Duration,
    /// Hard wall-clock budget; exceeding it ends the run as `Horizon`.
    pub budget: std::time::Duration,
    /// RTT probe rounds per node for the ε̂ measurement.
    pub probe_rounds: usize,
    /// Seed for the deterministic think-time sequence.
    pub seed: u64,
    /// Per-node engine event cap.
    pub max_events: usize,
}

impl Default for LiveConfig {
    fn default() -> LiveConfig {
        LiveConfig {
            nodes: 3,
            bounds: DelayBounds::new(Duration::from_millis(1), Duration::from_millis(80))
                .expect("static bounds are valid"),
            eps_floor: Duration::from_millis(1),
            offsets: Vec::new(),
            ops_per_node: 6,
            think: DelayBounds::new(Duration::from_millis(1), Duration::from_millis(4))
                .expect("static bounds are valid"),
            quantum: std::time::Duration::from_micros(300),
            budget: std::time::Duration::from_secs(20),
            probe_rounds: 8,
            seed: 0x11FE_C10C,
            max_events: 250_000,
        }
    }
}

/// Latency percentiles over the completed operations, in model time.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyStats {
    /// Completed operations measured.
    pub count: u64,
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Worst case.
    pub max: Duration,
}

impl LatencyStats {
    fn from_samples(mut samples: Vec<Duration>) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        // Nearest-rank percentiles: the smallest sample with at least a
        // `q` fraction of the data at or below it.
        let pick = |q: f64| {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            #[allow(clippy::cast_precision_loss)]
            let rank = (samples.len() as f64 * q).ceil() as usize;
            samples[rank.clamp(1, samples.len()) - 1]
        };
        LatencyStats {
            count: samples.len() as u64,
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// Everything a live run reports beyond the captured execution.
#[derive(Debug)]
pub struct LiveReport {
    /// Node count.
    pub nodes: usize,
    /// The ε̂ the run used (measured + floor).
    pub eps_hat: Duration,
    /// The ε̂ probe sweep, including the raw per-node brackets.
    pub eps_measurement: EpsHatMeasurement,
    /// Operations completed across all nodes.
    pub ops_completed: u64,
    /// Operations requested (`nodes × ops_per_node`).
    pub ops_requested: u64,
    /// Wall-clock duration of the run phase (after probing).
    pub wall_elapsed: std::time::Duration,
    /// Completed operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Operation latency percentiles (invocation to response, model time).
    pub latency: LatencyStats,
    /// Messages delivered across all edges.
    pub deliveries: u64,
    /// Worst measured wire delay.
    pub max_delivery_delay: Duration,
    /// The online monitor's verdicts.
    pub monitor: MonitorOutcome,
    /// Per-node engine metrics snapshots, in node order.
    pub snapshots: Vec<MetricsSnapshot>,
    /// The algorithm's theoretical read latency for these parameters.
    pub read_latency: Duration,
    /// The algorithm's theoretical write latency for these parameters.
    pub write_latency: Duration,
}

/// The live register system: [`AlgorithmS`] on real threads, driven
/// through the same [`Driver`] seam as the simulator.
#[derive(Debug)]
pub struct LiveRegister {
    cfg: LiveConfig,
    report: Option<LiveReport>,
}

struct NodeOutcome {
    events: Vec<TimedEvent<RegAction>>,
    end: Time,
    latencies: Vec<Duration>,
    delays: Vec<Duration>,
    snapshot: MetricsSnapshot,
    completed: u32,
    error: Option<String>,
}

struct NodeCtx {
    id: usize,
    topo: Topology,
    params: RegisterParams,
    eps: Duration,
    clock: WallClock,
    origin: Instant,
    outs: HashMap<NodeId, Sender<WireMsg<RegMsg>>>,
    inboxes: Vec<Inbox<RegMsg>>,
    monitor: Sender<MonitorMsg<RegAction>>,
    stop: Arc<AtomicBool>,
    done_nodes: Arc<AtomicUsize>,
    finish_at: Arc<Mutex<Option<Time>>>,
    budget_deadline: Time,
    grace: Duration,
    cfg: LiveConfig,
}

impl LiveRegister {
    /// A live register system with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent: fewer than two nodes,
    /// zero probe rounds, or an offsets list of the wrong length.
    #[must_use]
    pub fn new(cfg: LiveConfig) -> LiveRegister {
        assert!(cfg.nodes >= 2, "a register system needs at least 2 nodes");
        assert!(
            cfg.offsets.is_empty() || cfg.offsets.len() == cfg.nodes,
            "offsets must be empty or one per node"
        );
        assert!(cfg.probe_rounds > 0, "at least one probe round required");
        LiveRegister { cfg, report: None }
    }

    /// The report of the last [`Driver::drive`] call, if any.
    #[must_use]
    pub fn report(&self) -> Option<&LiveReport> {
        self.report.as_ref()
    }

    /// Takes ownership of the last run's report, leaving `None` behind.
    #[must_use]
    pub fn take_report(&mut self) -> Option<LiveReport> {
        self.report.take()
    }

    /// The configuration this system runs with.
    #[must_use]
    pub fn config(&self) -> &LiveConfig {
        &self.cfg
    }

    #[allow(clippy::too_many_lines)]
    fn run_live(&mut self) -> Result<Run<RegAction>, String> {
        let cfg = self.cfg.clone();
        let topo = Topology::complete(cfg.nodes);
        let offsets: Vec<Duration> = if cfg.offsets.is_empty() {
            vec![Duration::ZERO; cfg.nodes]
        } else {
            cfg.offsets.clone()
        };

        // Probe ε̂ against throwaway clocks, then re-origin for the run so
        // model time zero is the start of the run phase, not of probing.
        let probe_origin = Instant::now();
        let probe_clocks: Vec<WallClock> = offsets
            .iter()
            .map(|&o| WallClock::new(probe_origin, o))
            .collect();
        let eps_measurement = measure_eps_hat(&probe_clocks, cfg.probe_rounds, cfg.eps_floor);
        let eps_hat = eps_measurement.eps_hat;

        let params = RegisterParams::for_clock_model(
            &topo,
            cfg.bounds,
            eps_hat,
            Duration::from_nanos(cfg.bounds.max().as_nanos() / 2),
            Duration::from_millis(1),
        );
        let grace = params.write_latency()
            + params.delta
            + eps_hat * 2
            + Duration::from_nanos(i64::try_from(cfg.quantum.as_nanos()).unwrap_or(i64::MAX) * 4)
            + Duration::from_millis(20);

        let stop = Arc::new(AtomicBool::new(false));
        let done_nodes = Arc::new(AtomicUsize::new(0));
        let finish_at = Arc::new(Mutex::new(None::<Time>));
        let completed_total = Arc::new(AtomicU64::new(0));

        let (monitor_tx, monitor) = LiveMonitor::spawn(
            cfg.nodes,
            eps_hat,
            {
                let bounds = cfg.bounds;
                move || live_register_monitors(eps_hat, bounds)
            },
            Arc::clone(&stop),
        );

        // One mpsc channel per directed edge; senders to the source
        // thread, the receiver (wrapped in a hold-back inbox) to the
        // destination thread.
        let mut outs: Vec<HashMap<NodeId, Sender<WireMsg<RegMsg>>>> =
            (0..cfg.nodes).map(|_| HashMap::new()).collect();
        let mut inboxes: Vec<Vec<Inbox<RegMsg>>> = (0..cfg.nodes).map(|_| Vec::new()).collect();
        for &(i, j) in topo.edges() {
            let (tx, rx) = mpsc::channel();
            outs[i.0].insert(j, tx);
            inboxes[j.0].push(Inbox::new(rx));
        }

        let run_origin = Instant::now();
        let budget_deadline = Time::ZERO
            + Duration::from_nanos(i64::try_from(cfg.budget.as_nanos()).unwrap_or(i64::MAX));
        let mut handles = Vec::with_capacity(cfg.nodes);
        for (id, (node_outs, node_inboxes)) in outs.into_iter().zip(inboxes).enumerate() {
            let ctx = NodeCtx {
                id,
                topo: topo.clone(),
                params: params.clone(),
                eps: eps_hat,
                clock: WallClock::new(run_origin, offsets[id]),
                origin: run_origin,
                outs: node_outs,
                inboxes: node_inboxes,
                monitor: monitor_tx.clone(),
                stop: Arc::clone(&stop),
                done_nodes: Arc::clone(&done_nodes),
                finish_at: Arc::clone(&finish_at),
                budget_deadline,
                grace,
                cfg: cfg.clone(),
            };
            let completed_total = Arc::clone(&completed_total);
            let handle = thread::Builder::new()
                .name(format!("psync-live-node-{id}"))
                .spawn(move || {
                    let outcome = drive_node(ctx);
                    completed_total.fetch_add(u64::from(outcome.completed), Ordering::Relaxed);
                    outcome
                })
                .map_err(|e| format!("spawning node thread {id}: {e}"))?;
            handles.push(handle);
        }
        drop(monitor_tx);

        let mut outcomes = Vec::with_capacity(cfg.nodes);
        for (id, handle) in handles.into_iter().enumerate() {
            outcomes.push(
                handle
                    .join()
                    .map_err(|_| format!("node thread {id} panicked"))?,
            );
        }
        let wall_elapsed = run_origin.elapsed();
        let monitor_outcome = monitor.join();

        let errors: Vec<String> = outcomes
            .iter()
            .enumerate()
            .filter_map(|(id, o)| o.error.as_ref().map(|e| format!("node {id}: {e}")))
            .collect();
        if !errors.is_empty() {
            return Err(errors.join("; "));
        }

        // Merge the per-node logs into one execution: stable by (time,
        // node), which keeps each node's own order for simultaneous
        // events.
        let mut tagged: Vec<(TimedEvent<RegAction>, usize)> = Vec::new();
        let mut end = Time::ZERO;
        for (id, outcome) in outcomes.iter().enumerate() {
            end = end.max(outcome.end);
            for event in &outcome.events {
                tagged.push((event.clone(), id));
            }
        }
        tagged.sort_by_key(|(event, id)| (event.now, *id));
        let events: Vec<TimedEvent<RegAction>> = tagged.into_iter().map(|(e, _)| e).collect();
        let execution = Execution::new(events, end);

        let ops_requested = u64::from(cfg.ops_per_node) * cfg.nodes as u64;
        let ops_completed = completed_total.load(Ordering::Relaxed);
        let mut latencies = Vec::new();
        let mut delays = Vec::new();
        let mut snapshots = Vec::with_capacity(cfg.nodes);
        for outcome in outcomes {
            latencies.extend(outcome.latencies);
            delays.extend(outcome.delays);
            snapshots.push(outcome.snapshot);
        }
        let stop_reason = if ops_completed == ops_requested {
            StopReason::Quiescent
        } else {
            StopReason::Horizon
        };
        let ops_per_sec = if wall_elapsed.as_secs_f64() > 0.0 {
            #[allow(clippy::cast_precision_loss)]
            {
                ops_completed as f64 / wall_elapsed.as_secs_f64()
            }
        } else {
            0.0
        };
        self.report = Some(LiveReport {
            nodes: cfg.nodes,
            eps_hat,
            eps_measurement,
            ops_completed,
            ops_requested,
            wall_elapsed,
            ops_per_sec,
            latency: LatencyStats::from_samples(latencies),
            deliveries: delays.len() as u64,
            max_delivery_delay: delays.iter().copied().fold(Duration::ZERO, Duration::max),
            monitor: monitor_outcome,
            snapshots,
            read_latency: params.read_latency(),
            write_latency: params.write_latency(),
        });
        Ok(Run {
            execution,
            stop: stop_reason,
        })
    }
}

impl Driver<RegAction> for LiveRegister {
    fn backend(&self) -> &'static str {
        "live"
    }

    fn drive(&mut self) -> Result<Run<RegAction>, String> {
        self.run_live()
    }
}

/// One node's thread body: build the node in-thread, then drive it
/// against wall time until the system winds down.
#[allow(clippy::too_many_lines)]
fn drive_node(mut ctx: NodeCtx) -> NodeOutcome {
    let me = NodeId(ctx.id);
    let spec = NodeSpec::new(me, AlgorithmS::new(me, ctx.params.clone()));
    let node = transform_node(spec, &ctx.topo, ctx.eps, MonotonicClock::new(ctx.clock));
    let hub = MetricsHub::new();
    let mut engine = Engine::builder()
        .clock_node(node)
        .observer(hub.engine_observer())
        .max_events(ctx.cfg.max_events)
        .build();

    let d1 = ctx.cfg.bounds.min();
    let mut harvested = 0usize;
    let mut rng = ctx.cfg.seed ^ (0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(ctx.id as u64 + 1));
    let mut latencies = Vec::new();
    let mut delays = Vec::new();
    let mut issued = 0u32;
    let mut completed = 0u32;
    let mut inflight: Option<Time> = None;
    let mut next_op_at = Time::ZERO + think(&mut rng, ctx.cfg.think);
    let mut reported_done = ctx.cfg.ops_per_node == 0;
    if reported_done {
        node_finished(&ctx, Time::ZERO);
    }
    let mut error = None;

    loop {
        let wall = wall_time(ctx.origin);
        if ctx.stop.load(Ordering::Relaxed) {
            break;
        }
        if wall >= ctx.budget_deadline {
            ctx.stop.store(true, Ordering::Relaxed);
            break;
        }

        // 1. Let the engine catch up to wall time; everything the node
        //    controls (sends, updates, responses) fires in here.
        if let Err(e) = engine.run_idle_until(wall) {
            error = Some(e.to_string());
            ctx.stop.store(true, Ordering::Relaxed);
            break;
        }

        // 2. Inject due wire deliveries at the current wall time: the
        //    measured delay is `now − sent`, at least d₁ by hold-back.
        let mut inject_err = None;
        for inbox in &mut ctx.inboxes {
            for msg in inbox.due(wall, d1) {
                delays.push(engine.now().skew(msg.sent));
                if let Err(e) = engine.inject(SysAction::ERecv(msg.env, msg.stamp)) {
                    inject_err = Some(e.to_string());
                    break;
                }
            }
        }
        // 3. Closed-loop workload: one op in flight per node, writes and
        //    reads alternating.
        if inject_err.is_none()
            && inflight.is_none()
            && issued < ctx.cfg.ops_per_node
            && wall >= next_op_at
        {
            let op = if issued.is_multiple_of(2) {
                RegisterOp::Write {
                    node: me,
                    value: Value::unique(me, issued),
                }
            } else {
                RegisterOp::Read { node: me }
            };
            match engine.inject(SysAction::App(op)) {
                Ok(()) => {
                    inflight = Some(engine.now());
                    issued += 1;
                }
                Err(e) => inject_err = Some(e.to_string()),
            }
        }
        if let Some(e) = inject_err {
            error = Some(e);
            ctx.stop.store(true, Ordering::Relaxed);
            break;
        }

        // 4. Harvest newly recorded events: sends go onto the wire,
        //    responses complete the loop, everything goes to the monitor.
        let events = engine.events();
        for event in &events[harvested..] {
            match &event.action {
                SysAction::ESend(env, stamp) => {
                    if let Some(tx) = ctx.outs.get(&env.dst) {
                        // A receiver that already wound down just drops
                        // the message; the envelope monitor never sees a
                        // delivery for it, which is fine — at-most-once
                        // is all the wire promises after shutdown.
                        let _ = tx.send(WireMsg {
                            env: env.clone(),
                            stamp: *stamp,
                            sent: event.now,
                        });
                    }
                }
                SysAction::App(op) if op.is_response() && op.node() == me => {
                    if let Some(started) = inflight.take() {
                        latencies.push(event.now.skew(started));
                        completed += 1;
                        next_op_at = event.now + think(&mut rng, ctx.cfg.think);
                        if completed == ctx.cfg.ops_per_node && !reported_done {
                            reported_done = true;
                            node_finished(&ctx, event.now);
                        }
                    }
                }
                _ => {}
            }
            let _ = ctx.monitor.send(MonitorMsg::Event {
                node: ctx.id,
                event: event.clone(),
            });
        }
        harvested = events.len();
        let _ = ctx.monitor.send(MonitorMsg::Watermark {
            node: ctx.id,
            now: engine.now(),
        });

        // 5. Wind down once every node has finished and the grace period
        //    (covering in-flight messages and trailing updates) passed.
        if let Some(finish) = *ctx.finish_at.lock().expect("finish_at lock") {
            if wall >= finish {
                break;
            }
        }
        thread::sleep(ctx.cfg.quantum);
    }

    let _ = ctx.monitor.send(MonitorMsg::Done { node: ctx.id });
    NodeOutcome {
        events: engine.events().to_vec(),
        end: engine.now(),
        latencies,
        delays,
        snapshot: hub.snapshot(),
        completed,
        error,
    }
}

/// Records that this node's workload finished; the last node to finish
/// sets the system-wide wind-down time.
fn node_finished(ctx: &NodeCtx, now: Time) {
    let finished = ctx.done_nodes.fetch_add(1, Ordering::Relaxed) + 1;
    if finished == ctx.cfg.nodes {
        let mut finish = ctx.finish_at.lock().expect("finish_at lock");
        *finish = Some(now + ctx.grace);
    }
}

/// Deterministic think-time: xorshift64* over the configured range.
fn think(state: &mut u64, range: DelayBounds) -> Duration {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    let width = range.width().as_nanos();
    if width <= 0 {
        return range.min();
    }
    #[allow(clippy::cast_possible_wrap)]
    let span = (x % (width as u64 + 1)) as i64;
    range.min() + Duration::from_nanos(span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn think_times_stay_in_range_and_are_deterministic() {
        let range = DelayBounds::new(Duration::from_millis(1), Duration::from_millis(4)).unwrap();
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..100 {
            let t = think(&mut a, range);
            assert!(t >= range.min() && t <= range.max(), "{t} out of range");
            assert_eq!(t, think(&mut b, range));
        }
    }

    #[test]
    fn latency_stats_pick_percentiles_from_sorted_samples() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let stats = LatencyStats::from_samples(samples);
        assert_eq!(stats.count, 100);
        assert_eq!(stats.p50, Duration::from_millis(50));
        assert_eq!(stats.p95, Duration::from_millis(95));
        assert_eq!(stats.p99, Duration::from_millis(99));
        assert_eq!(stats.max, Duration::from_millis(100));
    }

    #[test]
    fn a_small_live_run_completes_and_captures_an_execution() {
        let mut live = LiveRegister::new(LiveConfig {
            nodes: 2,
            ops_per_node: 2,
            ..LiveConfig::default()
        });
        assert_eq!(live.backend(), "live");
        let run = live.drive().expect("live run completes");
        let report = live.report().expect("report recorded");
        assert_eq!(report.ops_completed, 4);
        assert_eq!(run.stop, StopReason::Quiescent);
        assert!(!run.execution.is_empty());
        assert!(report.monitor.violations.is_empty(), "{:?}", report.monitor);
        assert!(report.latency.count == 4);
        assert!(report.eps_hat >= LiveConfig::default().eps_floor);
    }
}
