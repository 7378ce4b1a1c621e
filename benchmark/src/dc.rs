//! The product path under test: Algorithm S pushed through Simulation 1
//! (Theorem 4.7) on a complete graph of `[d₁,d₂]` clock channels, driven
//! by a closed-loop workload — assembled plainly through `build_dc`, or
//! from the same public parts with every part wrapped in a
//! [`Spanned`] layer timer — and the oracles that judge its executions.

use psync_automata::{ComponentBox, Execution, HiddenClock};
use psync_core::analysis::{flights, Flight};
use psync_core::{app_trace, build_dc, ClockSim, NodeSpec, RecvBuffer, SendBuffer};
use psync_executor::{
    ClockNode, ClockStrategy, DriftClock, Engine, EngineBuilder, OffsetClock, RandomScheduler,
    RandomWalkClock, StopReason,
};
use psync_net::{ClockChannel, DelayPolicy, NodeId, SeededDelay, SysAction, Topology};
use psync_obs::{CEpsOracle, MetricsHub};
use psync_register::history::{self, Operation};
use psync_register::{
    AlgorithmS, ClosedLoopWorkload, RegAction, RegMsg, RegisterOp, RegisterParams, Value,
};
use psync_time::{DelayBounds, Duration, Time};
use psync_verify::replay::replay_timed;
use psync_verify::{check_linearizable, Oracle};

use crate::layers::{Layer, Spanned};
use crate::spans::Tracer;

/// Size and parameters of one D_C register system. The timing parameters
/// are those of EXPERIMENTS.md §E9: `[d₁,d₂] = [1,5] ms`, `ε = 1 ms`,
/// `c = 2 ms`, `δ = 100 µs`, think time `[1,6] ms`.
#[derive(Debug, Clone, Copy)]
pub struct DcConfig {
    /// Node count (complete graph).
    pub n: usize,
    /// Closed-loop operations per node.
    pub ops_per_node: u32,
    /// Judge with the exact linearizability checker. It is exponential in
    /// `n` (see README, "Judge limits"), so the wide workload leaves it
    /// out.
    pub exact_linearizability: bool,
}

impl DcConfig {
    fn topo(&self) -> Topology {
        Topology::complete(self.n)
    }

    fn physical(&self) -> DelayBounds {
        DelayBounds::new(Duration::from_millis(1), Duration::from_millis(5)).expect("1 <= 5")
    }

    /// The skew bound `ε`.
    #[must_use]
    pub fn eps(&self) -> Duration {
        Duration::from_millis(1)
    }

    /// Algorithm S parameters for the clock model (Theorem 6.5).
    #[must_use]
    pub fn params(&self) -> RegisterParams {
        RegisterParams::for_clock_model(
            &self.topo(),
            self.physical(),
            self.eps(),
            Duration::from_millis(2),
            Duration::from_micros(100),
        )
    }

    /// Register operations one run attempts.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.n as u64 * u64::from(self.ops_per_node)
    }

    fn workload(&self, seed: u64) -> ClosedLoopWorkload {
        let think =
            DelayBounds::new(Duration::from_millis(1), Duration::from_millis(6)).expect("1 <= 6");
        ClosedLoopWorkload::new(&self.topo(), seed, think, self.ops_per_node)
    }

    /// The adversarial clock fleet: both corner offsets, a drifting clock
    /// and a random walk, repeated round the nodes.
    fn clocks(&self, seed: u64) -> Vec<Box<dyn ClockStrategy>> {
        let eps = self.eps();
        (0..self.n)
            .map(|i| -> Box<dyn ClockStrategy> {
                match i % 4 {
                    0 => Box::new(OffsetClock::new(eps, eps)),
                    1 => Box::new(OffsetClock::new(-eps, eps)),
                    2 => Box::new(DriftClock::new(700)),
                    _ => Box::new(RandomWalkClock::new(seed ^ i as u64, eps / 4)),
                }
            })
            .collect()
    }

    fn delay(seed: u64, i: NodeId, j: NodeId) -> Box<dyn DelayPolicy> {
        Box::new(SeededDelay::new(seed ^ ((i.0 as u64) << 8) ^ j.0 as u64))
    }

    /// An operation takes at most `d₂ + 2ε` plus 6 ms of think time; 20 ms
    /// per operation leaves the closed loop room to drain.
    fn horizon(&self) -> Time {
        Time::ZERO
            + Duration::from_millis(20) * i64::from(self.ops_per_node)
            + Duration::from_secs(1)
    }

    fn finish(
        &self,
        builder: EngineBuilder<RegAction>,
        hub: &MetricsHub,
        seed: u64,
        wrapped: bool,
    ) -> Engine<RegAction> {
        let builder = if wrapped {
            builder
                .timed(Spanned::new(self.workload(seed), Layer::Workload))
                .observer(Spanned::new(hub.engine_observer(), Layer::Observer))
                .scheduler(Spanned::new(RandomScheduler::new(seed), Layer::Scheduler))
        } else {
            builder
                .timed(self.workload(seed))
                .observer(hub.engine_observer())
                .scheduler(RandomScheduler::new(seed))
        };
        builder.horizon(self.horizon()).build()
    }

    /// Assembles the system through `build_dc`, ready to run.
    #[must_use]
    pub fn build_plain(&self, seed: u64) -> (Engine<RegAction>, MetricsHub) {
        let topo = self.topo();
        let params = self.params();
        let algorithms = topo
            .nodes()
            .map(|i| NodeSpec::new(i, AlgorithmS::new(i, params.clone())))
            .collect();
        let hub = MetricsHub::new();
        let builder = build_dc(
            &topo,
            self.physical(),
            self.eps(),
            algorithms,
            self.clocks(seed),
            |i, j| Self::delay(seed, i, j),
        );
        (self.finish(builder, &hub, seed, false), hub)
    }

    /// Assembles the same system from the public parts, exactly as
    /// `transform_node` and `build_dc` do, with every part wrapped in its
    /// layer timer. The recorded execution is the one
    /// [`DcConfig::build_plain`] records (pinned by `tests/bit_identity.rs`).
    #[must_use]
    pub fn build_wrapped(&self, seed: u64) -> (Engine<RegAction>, MetricsHub) {
        let topo = self.topo();
        let params = self.params();
        let eps = self.eps();
        let mut builder = EngineBuilder::default();
        for (i, strategy) in topo.nodes().zip(self.clocks(seed)) {
            let algorithm = ComponentBox::new(Spanned::new(
                AlgorithmS::new(i, params.clone()),
                Layer::Algorithm,
            ));
            let mut node = ClockNode::new(
                format!("A^c({i})"),
                eps,
                Spanned::new(strategy, Layer::ClockStrategy),
            )
            .with(Spanned::new(
                HiddenClock::new(ClockSim::from_box(algorithm), |a: &RegAction| {
                    matches!(a, SysAction::Send(_))
                }),
                Layer::ClockSim,
            ));
            for j in topo.out_neighbors(i) {
                node = node.with(Spanned::new(
                    SendBuffer::<RegMsg, RegisterOp>::new(i, j),
                    Layer::SendBuffer,
                ));
            }
            for j in topo.in_neighbors(i) {
                node = node.with(Spanned::new(
                    HiddenClock::new(
                        RecvBuffer::<RegMsg, RegisterOp>::new(j, i),
                        |a: &RegAction| matches!(a, SysAction::Recv(_)),
                    ),
                    Layer::RecvBuffer,
                ));
            }
            builder = builder.clock_node(node);
        }
        for &(i, j) in topo.edges() {
            builder = builder.timed(Spanned::new(
                ClockChannel::<RegMsg, RegisterOp>::new(
                    i,
                    j,
                    self.physical(),
                    Self::delay(seed, i, j),
                ),
                Layer::Channel,
            ));
        }
        let hub = MetricsHub::new();
        (self.finish(builder, &hub, seed, true), hub)
    }
}

/// Counts of one run that repeat exactly for a fixed seed: a change that
/// only speeds the simulator must leave every one identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactCounts {
    /// Recorded events.
    pub events: u64,
    /// Register operations completed.
    pub ops: u64,
    /// Messages sent (one `Flight` each).
    pub msgs: u64,
    /// Messages a receive buffer held back (hold time > 0): held ÷ msgs is
    /// the buffering ratio of Section 7.2.
    pub msgs_held: u64,
    /// Messages delivered to the algorithm.
    pub msgs_delivered: u64,
    /// Time-passage steps the engine took.
    pub advances: u64,
    /// `psync_explorer::fingerprint` of the execution.
    pub fingerprint: u64,
}

impl ExactCounts {
    /// Reads the counts off a finished run.
    #[must_use]
    pub fn of(exec: &Execution<RegAction>, hub: &MetricsHub) -> ExactCounts {
        let all = flights(exec);
        let held = all
            .values()
            .filter_map(Flight::hold_time)
            .filter(|h| h.is_positive())
            .count();
        let responses = exec
            .events()
            .iter()
            .filter(|e| matches!(&e.action, SysAction::App(op) if op.is_response()))
            .count();
        ExactCounts {
            events: exec.len() as u64,
            ops: responses as u64,
            msgs: all.len() as u64,
            msgs_held: held as u64,
            msgs_delivered: all.values().filter(|f| f.recv_real.is_some()).count() as u64,
            advances: hub.snapshot().counter("engine.advances"),
            fingerprint: psync_explorer::fingerprint(exec),
        }
    }

    /// Folds another run's counts in (the fingerprint order-sensitively).
    pub fn absorb(&mut self, other: &ExactCounts) {
        self.events += other.events;
        self.ops += other.ops;
        self.msgs += other.msgs;
        self.msgs_held += other.msgs_held;
        self.msgs_delivered += other.msgs_delivered;
        self.advances += other.advances;
        self.fingerprint = self
            .fingerprint
            .rotate_left(7)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ other.fingerprint;
    }
}

/// The verdicts on one run and what each oracle cost.
#[derive(Debug, Clone, Default)]
pub struct Judgement {
    /// `(oracle, why)` for every oracle that did not hold.
    pub violations: Vec<(String, String)>,
    /// Operations that completed.
    pub ops_completed: u64,
    /// Host seconds: extracting the operation history from the trace.
    pub history_extract_s: f64,
    /// Host seconds: the exact linearizability checker (0 when left out).
    pub linearizable_s: f64,
    /// Host seconds: `CEpsOracle`.
    pub ceps_oracle_s: f64,
    /// Host seconds: the Lemma 2.1 replay of the workload component.
    pub replay_s: f64,
    /// Host seconds: the Theorem 6.5 latency check.
    pub latency_s: f64,
}

impl Judgement {
    /// Host seconds of the whole oracle set.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.history_extract_s
            + self.linearizable_s
            + self.ceps_oracle_s
            + self.replay_s
            + self.latency_s
    }
}

/// Theorem 6.5 on a recorded history: every operation completed, every
/// read took `2ε+δ+c` and every write `d₂+2ε−c`, each within `2ε`.
fn check_latencies(cfg: &DcConfig, ops: &[Operation]) -> Result<(), String> {
    let params = cfg.params();
    let slack = cfg.eps() * 2;
    if ops.len() as u64 != cfg.ops() {
        return Err(format!("{} operations, {} expected", ops.len(), cfg.ops()));
    }
    for op in ops {
        let Some(latency) = op.latency() else {
            return Err(format!("{:?} at {} never responded", op.kind, op.invoked));
        };
        let formula = if op.is_read() {
            params.read_latency()
        } else {
            params.write_latency()
        };
        if (latency - formula).abs() > slack {
            return Err(format!(
                "{:?} took {latency}, formula {formula} ± {slack}",
                op.kind
            ));
        }
    }
    Ok(())
}

/// Judges one finished run with the sim workloads' oracle set, one span
/// per oracle: well-formed history, linearizability (when
/// `cfg.exact_linearizability`), `C_ε`, Lemma 2.1 replay of the workload,
/// and the Theorem 6.5 latencies.
#[must_use]
pub fn judge(
    cfg: &DcConfig,
    seed: u64,
    exec: &Execution<RegAction>,
    stop: StopReason,
    tracer: &Tracer,
) -> Judgement {
    let mut j = Judgement::default();
    if stop != StopReason::Quiescent {
        j.violations
            .push(("liveness".into(), format!("run ended with {stop:?}")));
    }
    let (ops, secs) = tracer.span("judge.history_extract", || {
        history::extract(&app_trace(exec), cfg.n)
    });
    j.history_extract_s = secs;
    let ops = match ops {
        Ok(ops) => ops,
        Err(e) => {
            j.violations.push(("history".into(), format!("{e:?}")));
            return j;
        }
    };
    j.ops_completed = ops.iter().filter(|op| op.responded.is_some()).count() as u64;
    if cfg.exact_linearizability {
        let (verdict, secs) = tracer.span("judge.linearizable", || {
            check_linearizable(&ops, Value::INITIAL)
        });
        j.linearizable_s = secs;
        if let psync_automata::problem::Verdict::Violated(why) = verdict {
            j.violations.push(("linearizable".into(), why));
        }
    }
    let (verdict, secs) = tracer.span("judge.ceps_oracle", || {
        Oracle::<RegAction>::check(&CEpsOracle::new(cfg.eps()), exec)
    });
    j.ceps_oracle_s = secs;
    if let psync_automata::problem::Verdict::Violated(why) = verdict {
        j.violations.push(("C_eps".into(), why));
    }
    let (replayed, secs) = tracer.span("judge.replay", || replay_timed(cfg.workload(seed), exec));
    j.replay_s = secs;
    if let Err(e) = replayed {
        j.violations
            .push(("replay(workload)".into(), e.to_string()));
    }
    let (latencies, secs) = tracer.span("judge.latency", || check_latencies(cfg, &ops));
    j.latency_s = secs;
    if let Err(why) = latencies {
        j.violations.push(("theorem 6.5 latency".into(), why));
    }
    j
}
