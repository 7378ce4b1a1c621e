//! Experiment harness: runs the scenarios behind every quantitative claim
//! of the paper and returns the rows printed by the `experiments` binary
//! (recorded in `EXPERIMENTS.md`) and timed by the criterion benches.
//!
//! Experiment index (see `DESIGN.md` §9):
//!
//! | id | claim |
//! |----|-------|
//! | E1 | read `2ε+δ+c`, write `d₂+2ε−c` in the clock model (Thm 6.5) |
//! | E2 | ours vs \[10\]: read `2ε+δ+c` vs `4u`, write `d₂+2ε−c` vs `d₂+3u` |
//! | E3 | trace distortion ≤ ε under Simulation 1 (Thm 4.6/4.7) |
//! | E4 | output shift ≤ `kℓ+2ε+3ℓ` under Simulation 2 (Thm 5.1) |
//! | E5 | clock-time delay in `[max(0,d₁−2ε), d₂+2ε]` (Lemma 4.5) |
//! | E6 | buffering never engages when `d₁ > 2ε`; holds ≤ `2ε−d₁` (§7.2) |
//! | E7 | combined read+write totals, ours vs \[10\] (§6.3) |
//! | E8 | linearizability holds across an adversary fleet; naive transfer of Algorithm L breaks (§6.2) |
//! | E9 | engineering: engine throughput, model overhead |
//! | E10 | the generalized-object extension: counters/grow-sets keep the Theorem 6.5 formulas and object-level linearizability (§6 closing remark) |

// `deny`, not `forbid`: the counting test allocator (`alloc_count`) must
// implement `GlobalAlloc`, which is an unsafe trait; that module opts in
// explicitly and everything else stays unsafe-free.
#![deny(unsafe_code)]

pub mod alloc_count;
pub mod ring;

use psync_automata::relations::eps_equivalent;
use psync_automata::{Execution, TimedTrace};
use psync_core::analysis::{duration_stats, flights, DurationStats};
use psync_core::{
    app_trace, build_dc, build_dm, node_classes, output_classes, sim1_witness, sim2_shift_bound,
    DmNodeConfig, NodeSpec,
};
use psync_executor::{
    ClockStrategy, DriftClock, Engine, EngineBuilder, OffsetClock, PerfectClock, RandomScheduler,
    RandomWalkClock, StopReason,
};
use psync_mmt::{StepPolicy, TickConfig};
use psync_net::{MaxDelay, NodeId, Script, SeededDelay, SysAction, Topology};
use psync_register::history::{self, Operation};
use psync_register::{
    build_baseline, AlgorithmS, ClosedLoopWorkload, RegAction, RegMsg, RegisterOp, RegisterParams,
    Value,
};
use psync_time::{DelayBounds, Duration, Time};
use psync_verify::check_linearizable;

/// Milliseconds, shorthand.
#[must_use]
pub fn ms(n: i64) -> Duration {
    Duration::from_millis(n)
}

/// Microseconds, shorthand.
#[must_use]
pub fn us(n: i64) -> Duration {
    Duration::from_micros(n)
}

/// A register scenario in the clock model.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Node count (complete topology).
    pub n: usize,
    /// Physical link bounds `[d₁, d₂]`.
    pub physical: DelayBounds,
    /// Clock skew bound `ε`.
    pub eps: Duration,
    /// Trade-off knob `c`.
    pub c: Duration,
    /// Settling slack `δ`.
    pub delta: Duration,
    /// Seed for workload, scheduler, delays and jittery clocks.
    pub seed: u64,
    /// Operations per node (closed loop).
    pub ops_per_node: u32,
}

impl Scenario {
    /// A sensible default scenario.
    #[must_use]
    pub fn default_with(seed: u64) -> Scenario {
        Scenario {
            n: 3,
            physical: DelayBounds::new(ms(1), ms(5)).expect("valid"),
            eps: ms(1),
            c: ms(2),
            delta: us(100),
            seed,
            ops_per_node: 10,
        }
    }

    /// Algorithm parameters for the clock model (Theorem 6.5).
    #[must_use]
    pub fn params(&self) -> RegisterParams {
        RegisterParams::for_clock_model(
            &Topology::complete(self.n),
            self.physical,
            self.eps,
            self.c,
            self.delta,
        )
    }

    fn topo(&self) -> Topology {
        Topology::complete(self.n)
    }

    /// The adversarial clock fleet: corner offsets, drift, random walk.
    #[must_use]
    pub fn adversarial_clocks(&self) -> Vec<Box<dyn ClockStrategy>> {
        let eps = self.eps;
        let seed = self.seed;
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

    fn workload(&self) -> ClosedLoopWorkload {
        ClosedLoopWorkload::new(
            &self.topo(),
            self.seed,
            DelayBounds::new(ms(1), ms(6)).expect("valid"),
            self.ops_per_node,
        )
    }

    fn delay_policy(&self) -> impl Fn(NodeId, NodeId) -> Box<dyn psync_net::DelayPolicy> {
        let seed = self.seed;
        move |i, j| Box::new(SeededDelay::new(seed ^ ((i.0 as u64) << 8) ^ j.0 as u64))
    }

    /// Runs the transformed Algorithm S in the clock model (`D_C`).
    ///
    /// # Panics
    ///
    /// Panics if the composition errors or the workload fails to finish.
    #[must_use]
    pub fn run_dc(&self) -> Execution<RegAction> {
        let params = self.params();
        self.run_dc_with_params(&params)
    }

    /// The D_C system (Algorithm S through Simulation 1, adversarial
    /// clocks, the closed-loop workload), built and ready to run — for
    /// callers that measure the run apart from the assembly.
    #[must_use]
    pub fn dc_engine(&self, params: &RegisterParams) -> Engine<RegAction> {
        self.dc_builder(params).build()
    }

    /// [`Scenario::dc_engine`] one step before `build()`, for callers that
    /// attach an observer to the same system.
    #[must_use]
    pub fn dc_builder(&self, params: &RegisterParams) -> EngineBuilder<RegAction> {
        let topo = self.topo();
        let algorithms = topo
            .nodes()
            .map(|i| NodeSpec::new(i, AlgorithmS::new(i, params.clone())))
            .collect();
        build_dc(
            &topo,
            self.physical,
            self.eps,
            algorithms,
            self.adversarial_clocks(),
            self.delay_policy(),
        )
        .timed(self.workload())
        .scheduler(RandomScheduler::new(self.seed))
        .horizon(Time::ZERO + Duration::from_secs(30))
    }

    /// As [`Scenario::run_dc`] but with explicit algorithm parameters
    /// (used by E8's naive-transfer variant).
    #[must_use]
    pub fn run_dc_with_params(&self, params: &RegisterParams) -> Execution<RegAction> {
        let mut engine = self.dc_engine(params);
        let run = engine.run().expect("well-formed D_C");
        assert_eq!(run.stop, StopReason::Quiescent, "workload must finish");
        run.execution
    }

    /// Runs the reconstructed baseline in the clock model.
    ///
    /// # Panics
    ///
    /// Panics if the composition errors or the workload fails to finish.
    #[must_use]
    pub fn run_baseline(&self) -> Execution<RegAction> {
        let topo = self.topo();
        let mut engine = build_baseline(
            &topo,
            self.physical,
            self.eps,
            self.adversarial_clocks(),
            self.delay_policy(),
        )
        .timed(self.workload())
        .scheduler(RandomScheduler::new(self.seed))
        .horizon(Time::ZERO + Duration::from_secs(30))
        .build();
        let run = engine.run().expect("well-formed baseline");
        assert_eq!(run.stop, StopReason::Quiescent, "workload must finish");
        run.execution
    }

    /// Extracts the history, asserting well-formedness.
    ///
    /// # Panics
    ///
    /// Panics on malformed traces.
    #[must_use]
    pub fn history(&self, exec: &Execution<RegAction>) -> Vec<Operation> {
        history::extract(&app_trace(exec), self.n).expect("closed loop is well-formed")
    }
}

// ───────────────────────────── E1 ─────────────────────────────

/// One row of experiment E1: measured vs formula latencies at one `c`.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// The trade-off knob.
    pub c: Duration,
    /// Paper: `2ε + δ + c`.
    pub read_formula: Duration,
    /// Measured read latencies.
    pub read_measured: DurationStats,
    /// Paper: `d₂ + 2ε − c`.
    pub write_formula: Duration,
    /// Measured write latencies.
    pub write_measured: DurationStats,
    /// Worst absolute deviation from the formulas (bounded by `2ε`).
    pub worst_deviation: Duration,
}

/// E1: sweep `c` over its legal range and measure operation latencies of
/// the transformed Algorithm S against Theorem 6.5's formulas.
///
/// # Panics
///
/// Panics if a run is malformed or produces no operations of some kind.
#[must_use]
pub fn e1_latency_sweep(base: &Scenario, c_values: &[Duration]) -> Vec<E1Row> {
    c_values
        .iter()
        .map(|&c| {
            let scenario = Scenario { c, ..base.clone() };
            let params = scenario.params();
            let exec = scenario.run_dc();
            let ops = scenario.history(&exec);
            assert!(check_linearizable(&ops, Value::INITIAL).holds());
            let (reads, writes) = history::latency_split(&ops);
            let read_measured = duration_stats(reads.iter().copied()).expect("reads present");
            let write_measured = duration_stats(writes.iter().copied()).expect("writes present");
            let worst = reads
                .iter()
                .map(|r| (*r - params.read_latency()).abs())
                .chain(writes.iter().map(|w| (*w - params.write_latency()).abs()))
                .max()
                .unwrap_or(Duration::ZERO);
            E1Row {
                c,
                read_formula: params.read_latency(),
                read_measured,
                write_formula: params.write_latency(),
                write_measured,
                worst_deviation: worst,
            }
        })
        .collect()
}

// ───────────────────────────── E2 / E7 ─────────────────────────────

/// One row of the comparison of Section 6.3 at one `c`.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// The trade-off knob of our algorithm (the baseline has none).
    pub c: Duration,
    /// Our mean read latency (formula `2ε + δ + c`).
    pub ours_read: Duration,
    /// Baseline mean read latency (formula `4u`, `u = 2ε`).
    pub base_read: Duration,
    /// Our mean write latency (formula `d₂ + 2ε − c`).
    pub ours_write: Duration,
    /// Baseline mean write latency (formula `d₂ + 3u`).
    pub base_write: Duration,
}

impl E2Row {
    /// Combined read+write total for our algorithm.
    #[must_use]
    pub fn ours_combined(&self) -> Duration {
        self.ours_read + self.ours_write
    }

    /// Combined read+write total for the baseline.
    #[must_use]
    pub fn base_combined(&self) -> Duration {
        self.base_read + self.base_write
    }
}

/// E2: both algorithms under the same adversary fleet, sweeping `c`.
///
/// # Panics
///
/// Panics if runs are malformed or non-linearizable.
#[must_use]
pub fn e2_baseline_comparison(base: &Scenario, c_values: &[Duration]) -> Vec<E2Row> {
    let mean = |v: &[Duration]| -> Duration {
        duration_stats(v.iter().copied()).map_or(Duration::ZERO, |s| s.mean)
    };
    let base_exec = base.run_baseline();
    let base_ops = base.history(&base_exec);
    assert!(check_linearizable(&base_ops, Value::INITIAL).holds());
    let (base_reads, base_writes) = history::latency_split(&base_ops);
    let (base_read, base_write) = (mean(&base_reads), mean(&base_writes));
    c_values
        .iter()
        .map(|&c| {
            let scenario = Scenario { c, ..base.clone() };
            let exec = scenario.run_dc();
            let ops = scenario.history(&exec);
            assert!(check_linearizable(&ops, Value::INITIAL).holds());
            let (reads, writes) = history::latency_split(&ops);
            E2Row {
                c,
                ours_read: mean(&reads),
                base_read,
                ours_write: mean(&writes),
                base_write,
            }
        })
        .collect()
}

/// The analytical crossover in `c` beyond which the baseline's read is
/// faster: `c* = 4u − 2ε − δ = 6ε − δ`.
#[must_use]
pub fn e2_read_crossover(eps: Duration, delta: Duration) -> Duration {
    eps * 6 - delta
}

// ───────────────────────────── E3 ─────────────────────────────

/// One row of E3: measured trace distortion at one `ε`.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// The skew bound.
    pub eps: Duration,
    /// Matched visible actions.
    pub matched: usize,
    /// Worst |real − witness| over matched actions.
    pub max_distortion: Duration,
}

/// E3: sweep `ε`, measure the distortion between the recorded `D_C` trace
/// and its `γ_α` witness (Theorem 4.6 bounds it by `ε`).
///
/// # Panics
///
/// Panics if a run is malformed or the relation fails.
#[must_use]
pub fn e3_sim1_distortion(base: &Scenario, eps_values: &[Duration]) -> Vec<E3Row> {
    eps_values
        .iter()
        .map(|&eps| {
            let scenario = Scenario {
                eps,
                ..base.clone()
            };
            let exec = scenario.run_dc();
            let witness = sim1_witness(&exec);
            let trace = app_trace(&exec);
            let classes = node_classes::<RegMsg, RegisterOp>(|op| Some(op.node()));
            let w = eps_equivalent(&witness, &trace, eps, &classes)
                .expect("Theorem 4.6 relation must hold");
            assert!(w.max_deviation <= eps);
            E3Row {
                eps,
                matched: w.matched,
                max_distortion: w.max_deviation,
            }
        })
        .collect()
}

// ───────────────────────────── E4 ─────────────────────────────

/// One row of E4: measured output shift at one `ℓ`.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Step bound `ℓ`.
    pub ell: Duration,
    /// Output-rate bound `k` used.
    pub k: i64,
    /// The bound `kℓ + 2ε + 3ℓ`.
    pub bound: Duration,
    /// Worst measured shift of any output.
    pub max_shift: Duration,
}

/// E4: the scripted `D_C` vs `D_M` comparison of Theorem 5.1, sweeping
/// `ℓ`.
///
/// # Panics
///
/// Panics if a run is malformed or the relation fails.
#[must_use]
pub fn e4_sim2_shift(n: usize, eps: Duration, ell_values: &[Duration]) -> Vec<E4Row> {
    ell_values
        .iter()
        .map(|&ell| {
            let topo = Topology::complete(n);
            let physical = DelayBounds::new(ms(1), ms(5)).expect("valid");
            let k = n as i64;
            let params = RegisterParams {
                peers: topo.nodes().collect(),
                d2_virtual: physical.widen_composed(eps, k, ell).max(),
                c: ms(2),
                delta: us(100),
                read_slack: eps * 2,
            };
            // Widely spaced script.
            let mut script = Vec::new();
            let mut t = Time::ZERO + ms(10);
            for round in 0..4u32 {
                for i in topo.nodes() {
                    let op = if (round + i.0 as u32).is_multiple_of(2) {
                        RegisterOp::Write {
                            node: i,
                            value: Value::unique(i, round),
                        }
                    } else {
                        RegisterOp::Read { node: i }
                    };
                    script.push((t, op));
                    t += ms(40);
                }
            }
            let horizon = t + ms(100);
            let algorithms = || {
                topo.nodes()
                    .map(|i| NodeSpec::new(i, AlgorithmS::new(i, params.clone())))
                    .collect::<Vec<_>>()
            };
            let workload = || Script::new(script.clone(), |op: &RegisterOp| op.is_response());

            let strategies = topo
                .nodes()
                .map(|_| Box::new(PerfectClock) as Box<dyn ClockStrategy>)
                .collect();
            let mut dc_engine = build_dc(&topo, physical, eps, algorithms(), strategies, |_, _| {
                Box::new(MaxDelay)
            })
            .timed(workload())
            .horizon(horizon)
            .build();
            let dc = app_trace(&dc_engine.run().expect("D_C").execution);

            let configs = topo
                .nodes()
                .map(|_| DmNodeConfig {
                    ell,
                    step_policy: StepPolicy::Lazy,
                    tick: TickConfig::honest(eps, ell),
                })
                .collect();
            let mut dm_engine = build_dm(&topo, physical, algorithms(), configs, |_, _| {
                Box::new(MaxDelay)
            })
            .timed(workload())
            .horizon(horizon)
            .build();
            let dm = app_trace(&dm_engine.run().expect("D_M").execution);

            let bound = sim2_shift_bound(k, eps, ell);
            let classes =
                output_classes::<RegMsg, RegisterOp>(|op| op.is_response().then(|| op.node()));
            let w = psync_core::check_sim2(&dc, &dm, bound, &classes)
                .expect("Theorem 5.1 relation must hold");
            E4Row {
                ell,
                k,
                bound,
                max_shift: w.max_deviation,
            }
        })
        .collect()
}

// ───────────────────────────── E5 ─────────────────────────────

/// One row of E5: the clock-time delay envelope at one `(d₁, d₂, ε)`.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// Physical bounds.
    pub physical: DelayBounds,
    /// Skew bound.
    pub eps: Duration,
    /// Lemma 4.5's envelope `[max(0, d₁−2ε), d₂+2ε]`.
    pub envelope: DelayBounds,
    /// Measured clock-time delays (completed messages).
    pub measured: DurationStats,
}

/// E5: measure per-message clock-time delays against Lemma 4.5.
///
/// # Panics
///
/// Panics if a run is malformed or a message violates the envelope.
#[must_use]
pub fn e5_channel_envelope(base: &Scenario, settings: &[(DelayBounds, Duration)]) -> Vec<E5Row> {
    settings
        .iter()
        .map(|&(physical, eps)| {
            let scenario = Scenario {
                physical,
                eps,
                c: Duration::ZERO,
                ..base.clone()
            };
            let exec = scenario.run_dc();
            let envelope = physical.widen_for_skew(eps);
            let delays: Vec<Duration> = flights(&exec)
                .values()
                .filter_map(psync_core::analysis::Flight::clock_delay)
                .collect();
            for d in &delays {
                assert!(
                    *d >= envelope.min() && *d <= envelope.max(),
                    "clock delay {d} outside {envelope}"
                );
            }
            E5Row {
                physical,
                eps,
                envelope,
                measured: duration_stats(delays).expect("messages flowed"),
            }
        })
        .collect()
}

// ───────────────────────────── E6 ─────────────────────────────

/// One row of E6: buffering behavior at one `d₁/ε` setting.
#[derive(Debug, Clone)]
pub struct E6Row {
    /// Minimum link delay.
    pub d1: Duration,
    /// Skew bound.
    pub eps: Duration,
    /// Messages observed.
    pub messages: usize,
    /// Messages held by the receive buffer.
    pub held: usize,
    /// Longest hold.
    pub max_hold: Duration,
    /// The analytical bound `max(0, 2ε − d₁)`.
    pub bound: Duration,
}

/// E6: sweep `d₁` against a fixed `ε` under extreme-corner clocks and the
/// fastest delay adversary; report buffering engagement (Section 7.2).
///
/// # Panics
///
/// Panics if a hold exceeds the bound or occurs past the threshold.
#[must_use]
pub fn e6_buffering(n: usize, eps: Duration, d1_values: &[Duration], seed: u64) -> Vec<E6Row> {
    d1_values
        .iter()
        .map(|&d1| {
            let topo = Topology::complete(n);
            let physical = DelayBounds::new(d1, d1 + ms(4)).expect("valid");
            let params = RegisterParams::for_clock_model(&topo, physical, eps, ms(1), us(50));
            let algorithms = topo
                .nodes()
                .map(|i| NodeSpec::new(i, AlgorithmS::new(i, params.clone())))
                .collect();
            let strategies: Vec<Box<dyn ClockStrategy>> = (0..n)
                .map(|i| -> Box<dyn ClockStrategy> {
                    if i % 2 == 0 {
                        Box::new(OffsetClock::new(eps, eps))
                    } else {
                        Box::new(OffsetClock::new(-eps, eps))
                    }
                })
                .collect();
            let workload = ClosedLoopWorkload::new(&topo, seed, DelayBounds::exact(ms(2)), 10);
            let mut engine = build_dc(&topo, physical, eps, algorithms, strategies, |_, _| {
                Box::new(psync_net::MinDelay)
            })
            .timed(workload)
            .horizon(Time::ZERO + Duration::from_secs(10))
            .build();
            let exec = engine.run().expect("well-formed").execution;

            let all = flights(&exec);
            let holds: Vec<Duration> = all
                .values()
                .filter_map(psync_core::analysis::Flight::hold_time)
                .filter(|h| h.is_positive())
                .collect();
            let bound = (eps * 2 - d1).max_zero();
            let max_hold = duration_stats(holds.iter().copied()).map_or(Duration::ZERO, |s| s.max);
            assert!(max_hold <= bound, "hold {max_hold} exceeds bound {bound}");
            if d1 > eps * 2 {
                assert!(holds.is_empty(), "buffering past the threshold");
            }
            E6Row {
                d1,
                eps,
                messages: all.len(),
                held: holds.len(),
                max_hold,
                bound,
            }
        })
        .collect()
}

// ───────────────────────────── E8 ─────────────────────────────

/// Result of the E8 adversary fleet.
#[derive(Debug, Clone)]
pub struct E8Result {
    /// Runs of the transformed Algorithm S.
    pub s_runs: usize,
    /// Linearizability violations among them (must be 0).
    pub s_violations: usize,
    /// Whether the crafted naive transfer of Algorithm L (no `2ε` read
    /// slack) produced a violation (it should: that is *why* S exists).
    pub naive_l_violated: bool,
}

/// E8: a fleet of seeded adversarial runs of the transformed Algorithm S
/// (expected: zero violations), plus a crafted demonstration that naively
/// transferring Algorithm L — without the superlinearizability slack —
/// breaks in the clock model.
///
/// # Panics
///
/// Panics if runs are malformed.
#[must_use]
pub fn e8_linearizability(base: &Scenario, fleet: usize) -> E8Result {
    let mut s_violations = 0;
    for seed in 0..fleet as u64 {
        let scenario = Scenario {
            seed: base.seed ^ (seed * 7919),
            ..base.clone()
        };
        let ops = scenario.history(&scenario.run_dc());
        if !check_linearizable(&ops, Value::INITIAL).holds() {
            s_violations += 1;
        }
    }

    E8Result {
        s_runs: fleet,
        s_violations,
        naive_l_violated: naive_l_violation_demo(),
    }
}

/// The crafted witness that Algorithm L does not survive the clock
/// transformation: a fast writer next to a slow reader, with the read
/// invoked right after the write's ACK. With read slack `0` the read
/// returns before the slow node applies the update.
fn naive_l_violation_demo() -> bool {
    let n = 2;
    let topo = Topology::complete(n);
    let physical = DelayBounds::new(ms(1), ms(5)).expect("valid");
    let eps = ms(1);
    let delta = us(100);
    // Algorithm L: read_slack = 0, designed for the widened link.
    let params = RegisterParams {
        peers: topo.nodes().collect(),
        d2_virtual: physical.widen_for_skew(eps).max(),
        c: Duration::ZERO,
        delta,
        read_slack: Duration::ZERO,
    };
    let d2v = params.d2_virtual;
    // WRITE at node 0 at 10 ms; with the fast clock (+ε) its ACK lands at
    // real 10 + (d'₂ − c) − ε... the crafted read at node 1 starts right
    // after the latest possible ACK and still returns stale.
    let write_at = Time::ZERO + ms(10);
    let ack_by = write_at + d2v; // ACK real time ≤ invocation + write-latency
    let read_at = ack_by + us(1);
    let script: Vec<(Time, RegisterOp)> = vec![
        (
            write_at,
            RegisterOp::Write {
                node: NodeId(0),
                value: Value(77),
            },
        ),
        (read_at, RegisterOp::Read { node: NodeId(1) }),
    ];
    let algorithms = topo
        .nodes()
        .map(|i| NodeSpec::new(i, AlgorithmS::new(i, params.clone())))
        .collect();
    let strategies: Vec<Box<dyn ClockStrategy>> = vec![
        Box::new(OffsetClock::new(eps, eps)),  // fast writer
        Box::new(OffsetClock::new(-eps, eps)), // slow reader
    ];
    let mut engine = build_dc(&topo, physical, eps, algorithms, strategies, |_, _| {
        Box::new(MaxDelay)
    })
    .timed(Script::new(script, |op: &RegisterOp| op.is_response()))
    .horizon(read_at + ms(50))
    .build();
    let exec = engine.run().expect("well-formed").execution;
    let ops = history::extract(&app_trace(&exec), n).expect("well-formed");
    !check_linearizable(&ops, Value::INITIAL).holds()
}

// ───────────────────────────── E9 ─────────────────────────────

/// One row of E9: engine throughput at one node count.
#[derive(Debug, Clone)]
pub struct E9Row {
    /// Node count.
    pub n: usize,
    /// Events in the run.
    pub events: usize,
    /// Wall-clock seconds.
    pub wall: f64,
    /// Events per second.
    pub events_per_sec: f64,
}

/// E9: run the D_C register scenario for growing `n` and measure engine
/// throughput.
///
/// # Panics
///
/// Panics if a run is malformed.
#[must_use]
pub fn e9_throughput(ns: &[usize], ops_per_node: u32, seed: u64) -> Vec<E9Row> {
    ns.iter()
        .map(|&n| {
            let scenario = Scenario {
                n,
                ops_per_node,
                ..Scenario::default_with(seed)
            };
            let start = std::time::Instant::now();
            let exec = scenario.run_dc();
            let wall = start.elapsed().as_secs_f64();
            let events = exec.len();
            E9Row {
                n,
                events,
                wall,
                events_per_sec: events as f64 / wall,
            }
        })
        .collect()
}

// ───────────────────────────── E10 ─────────────────────────────

/// One row of E10: a generalized object under the adversary fleet.
#[derive(Debug, Clone)]
pub struct E10Row {
    /// Object name.
    pub object: &'static str,
    /// Runs executed.
    pub runs: usize,
    /// Linearizability violations (must be 0).
    pub violations: usize,
    /// Mean query latency (formula `2ε + δ + c`).
    pub query_mean: Duration,
    /// Mean update latency (formula `d₂ + 2ε − c`).
    pub update_mean: Duration,
}

/// E10: replicated counters and grow-sets through Simulation 1 under the
/// adversary fleet — object-level linearizability plus the register's
/// latency formulas.
///
/// # Panics
///
/// Panics if a run is malformed.
#[must_use]
pub fn e10_generalized_objects(base: &Scenario, fleet: usize) -> Vec<E10Row> {
    let mut rows = Vec::new();
    for (object, per_run) in e10_generalized_objects_detail(base, fleet) {
        let violations = per_run.iter().filter(|r| !r.linearizable).count();
        let queries: Vec<Duration> = per_run.iter().flat_map(|r| r.queries.clone()).collect();
        let updates: Vec<Duration> = per_run.iter().flat_map(|r| r.updates.clone()).collect();
        rows.push(E10Row {
            object,
            runs: fleet,
            violations,
            query_mean: duration_stats(queries).map_or(Duration::ZERO, |s| s.mean),
            update_mean: duration_stats(updates).map_or(Duration::ZERO, |s| s.mean),
        });
    }
    rows
}

/// One E10 run's raw samples (see [`e10_generalized_objects_detail`]).
#[derive(Debug, Clone)]
pub struct E10RunDetail {
    /// Did the run linearize against the object's sequential spec?
    pub linearizable: bool,
    /// Per-operation query latencies, invocation order.
    pub queries: Vec<Duration>,
    /// Per-operation update latencies, invocation order.
    pub updates: Vec<Duration>,
}

/// The raw per-run samples behind [`e10_generalized_objects`] — the pooled
/// table rows above are derived from exactly these. Exposed so the E10
/// regression test can pin the latency distribution (not just the pooled
/// mean) without re-deriving the fleet seeding scheme.
///
/// # Panics
///
/// Panics if a run is malformed.
#[must_use]
pub fn e10_generalized_objects_detail(
    base: &Scenario,
    fleet: usize,
) -> Vec<(&'static str, Vec<E10RunDetail>)> {
    use psync_register::object::{Counter, GrowSet, ObjectSpec};
    use psync_register::{AlgorithmSObj, ObjAction, ObjWorkload};
    use psync_verify::{check_object_linearizable, extract_object_history, ObjOpKind};

    fn app_trace_obj<O: ObjectSpec>(exec: &Execution<ObjAction<O>>) -> TimedTrace<ObjAction<O>> {
        exec.events()
            .iter()
            .filter(|e| e.kind.is_visible() && matches!(e.action, SysAction::App(_)))
            .map(|e| (e.action.clone(), e.now))
            .collect()
    }

    fn run_one<O: ObjectSpec>(
        base: &Scenario,
        spec: O,
        seed: u64,
        gen_update: impl Fn(NodeId, u32) -> O::Update + 'static,
    ) -> (bool, Vec<Duration>, Vec<Duration>) {
        let topo = Topology::complete(base.n);
        let params = base.params();
        let algorithms = topo
            .nodes()
            .map(|i| NodeSpec::new(i, AlgorithmSObj::new(i, spec.clone(), params.clone())))
            .collect();
        let scenario = Scenario {
            seed,
            ..base.clone()
        };
        let workload = ObjWorkload::<O>::new(
            &topo,
            seed,
            DelayBounds::new(ms(1), ms(6)).expect("valid"),
            base.ops_per_node,
            gen_update,
        );
        let mut engine = build_dc(
            &topo,
            base.physical,
            base.eps,
            algorithms,
            scenario.adversarial_clocks(),
            move |i, j| Box::new(SeededDelay::new(seed ^ ((i.0 as u64) << 8) ^ j.0 as u64)),
        )
        .timed(workload)
        .scheduler(RandomScheduler::new(seed))
        .horizon(Time::ZERO + Duration::from_secs(30))
        .build();
        let run = engine.run().expect("well-formed object system");
        assert_eq!(run.stop, StopReason::Quiescent);
        let ops = extract_object_history::<O>(&app_trace_obj(&run.execution), base.n)
            .expect("well-formed");
        let ok = check_object_linearizable(&spec, &ops).holds();
        let mut queries = Vec::new();
        let mut updates = Vec::new();
        for o in &ops {
            if let Some(res) = o.responded {
                match o.kind {
                    ObjOpKind::Query(_) => queries.push(res - o.invoked),
                    ObjOpKind::Update(_) => updates.push(res - o.invoked),
                }
            }
        }
        (ok, queries, updates)
    }

    let mut out = Vec::new();
    for object in ["counter", "grow-set"] {
        let mut per_run = Vec::new();
        for k in 0..fleet as u64 {
            let seed = base.seed ^ (k * 6151);
            let (ok, queries, updates) = if object == "counter" {
                run_one(base, Counter, seed, |node, k| {
                    (node.0 as i64 + 1) * 1000 + i64::from(k)
                })
            } else {
                run_one(base, GrowSet, seed, |node, k| {
                    u8::try_from(node.0 as u32 * 32 + (k % 32)).expect("< 128")
                })
            };
            per_run.push(E10RunDetail {
                linearizable: ok,
                queries,
                updates,
            });
        }
        out.push((object, per_run));
    }
    out
}

/// Counts internal vs visible events — used by the `experiments` binary's
/// overhead table.
#[must_use]
pub fn event_mix<A: psync_automata::Action>(exec: &Execution<A>) -> (usize, usize) {
    let visible = exec.events().iter().filter(|e| e.kind.is_visible()).count();
    (visible, exec.len() - visible)
}

/// Renders an application trace compactly (debug helper for the binary).
#[must_use]
pub fn brief_trace(trace: &TimedTrace<RegAction>, limit: usize) -> String {
    let mut out = String::new();
    for (i, (a, t)) in trace.iter().enumerate() {
        if i >= limit {
            out.push('…');
            break;
        }
        if let SysAction::App(op) = a {
            out.push_str(&format!("{t} {op:?}; "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_rows_respect_formula_within_2eps() {
        let base = Scenario {
            ops_per_node: 4,
            ..Scenario::default_with(3)
        };
        let rows = e1_latency_sweep(&base, &[Duration::ZERO, ms(2)]);
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert!(r.worst_deviation <= base.eps * 2);
        }
    }

    #[test]
    fn e2_ordering_matches_paper_at_small_c() {
        let base = Scenario {
            ops_per_node: 6,
            ..Scenario::default_with(9)
        };
        let rows = e2_baseline_comparison(&base, &[ms(1)]);
        assert!(rows[0].ours_read < rows[0].base_read);
        assert!(rows[0].ours_write < rows[0].base_write);
        assert!(rows[0].ours_combined() < rows[0].base_combined());
    }

    #[test]
    fn e3_distortion_bounded_by_eps() {
        let base = Scenario {
            ops_per_node: 4,
            ..Scenario::default_with(5)
        };
        for row in e3_sim1_distortion(&base, &[ms(1), ms(2)]) {
            assert!(row.max_distortion <= row.eps);
            assert!(row.matched > 0);
        }
    }

    #[test]
    fn e4_shift_bounded() {
        for row in e4_sim2_shift(2, us(500), &[us(100), us(300)]) {
            assert!(row.max_shift <= row.bound);
        }
    }

    #[test]
    fn e6_threshold_behaviour() {
        let rows = e6_buffering(2, ms(1), &[Duration::ZERO, ms(3)], 4);
        assert!(rows[0].held > 0, "d₁ = 0 with corner clocks must buffer");
        assert_eq!(rows[1].held, 0, "d₁ > 2ε must never buffer");
    }

    #[test]
    fn e8_s_is_clean_and_naive_l_breaks() {
        let base = Scenario {
            ops_per_node: 4,
            ..Scenario::default_with(1)
        };
        let r = e8_linearizability(&base, 3);
        assert_eq!(r.s_violations, 0);
        assert!(r.naive_l_violated, "the crafted L scenario must violate");
    }

    #[test]
    fn e9_produces_throughput() {
        let rows = e9_throughput(&[2], 3, 1);
        assert!(rows[0].events_per_sec > 0.0);
    }
}
