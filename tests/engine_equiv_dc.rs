//! Product-path differential tests: the D_C register system (Algorithm S
//! through Simulation 1 on `[d₁,d₂]` clock channels — `build_dc`) must
//! record, under the incremental [`Engine`], exactly what the
//! scan-everything [`ReferenceEngine`] records: same events, clocks, stop
//! reason and observer hook stream.
//!
//! `crates/executor/tests/engine_equiv.rs` pins the same property on toy
//! and heartbeat mixes; it cannot reach this system (`psync-executor` is
//! below `core` and `register`), and this system is the one that leans on
//! every cached-hint path at once: per-node wake sets and deadline
//! holders, endpoint-keyed routing over ≈3n² components sharing four
//! message names, and the candidate list's prefix sums.
//!
//! The last test counts instead of comparing: the engine's questions to
//! the components, per recorded event, must not grow with `n`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use psync::prelude::*;
use psync_automata::{TimedEvent, WakeHint};
use psync_core::transform_node;
use psync_executor::{ClockRead, EngineBuilder, Observer, ReferenceEngine, ReferenceEngineBuilder};

const SEEDS: [u64; 6] = [1, 7, 42, 99, 1234, 987_654_321];

fn ms(n: i64) -> Duration {
    Duration::from_millis(n)
}

/// One D_C register system: its graph and closed-loop length. The timing
/// parameters are EXPERIMENTS.md §E9's.
#[derive(Clone, Copy)]
struct Shape {
    n: usize,
    line: bool,
    ops_per_node: u32,
}

impl Shape {
    fn topo(self) -> Topology {
        if self.line {
            Topology::line(self.n)
        } else {
            Topology::complete(self.n)
        }
    }

    fn physical() -> DelayBounds {
        DelayBounds::new(ms(1), ms(5)).unwrap()
    }

    fn eps() -> Duration {
        ms(1)
    }

    fn algorithms(self) -> Vec<NodeSpec<RegMsg, RegisterOp>> {
        let topo = self.topo();
        let params = RegisterParams::for_clock_model(
            &topo,
            Self::physical(),
            Self::eps(),
            ms(2),
            Duration::from_micros(100),
        );
        topo.nodes()
            .map(|i| NodeSpec::new(i, AlgorithmS::new(i, params.clone())))
            .collect()
    }

    /// Both corner offsets, a drifting clock and a random walk, repeated
    /// round the nodes.
    fn clocks(self, seed: u64) -> Vec<Box<dyn ClockStrategy>> {
        let eps = Self::eps();
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

    fn delay(seed: u64, i: NodeId, j: NodeId) -> SeededDelay {
        SeededDelay::new(seed ^ ((i.0 as u64) << 8) ^ j.0 as u64)
    }

    fn workload(self, seed: u64) -> ClosedLoopWorkload {
        let think = DelayBounds::new(ms(1), ms(6)).unwrap();
        ClosedLoopWorkload::new(&self.topo(), seed, think, self.ops_per_node)
    }

    fn horizon(self) -> Time {
        Time::ZERO + ms(20) * i64::from(self.ops_per_node) + Duration::from_secs(1)
    }

    /// The system as the product assembles it.
    fn fast(self, seed: u64) -> EngineBuilder<RegAction> {
        build_dc(
            &self.topo(),
            Self::physical(),
            Self::eps(),
            self.algorithms(),
            self.clocks(seed),
            |i, j| Box::new(Self::delay(seed, i, j)),
        )
        .timed(self.workload(seed))
        .scheduler(RandomScheduler::new(seed))
        .horizon(self.horizon())
    }

    /// The same parts in the same order, handed to the reference engine.
    fn slow(self, seed: u64) -> ReferenceEngineBuilder<RegAction> {
        let topo = self.topo();
        let mut b = ReferenceEngine::builder();
        for (spec, strategy) in self.algorithms().into_iter().zip(self.clocks(seed)) {
            b = b.clock_node(transform_node(spec, &topo, Self::eps(), strategy));
        }
        for &(i, j) in topo.edges() {
            b = b.timed(ClockChannel::<RegMsg, RegisterOp>::new(
                i,
                j,
                Self::physical(),
                Self::delay(seed, i, j),
            ));
        }
        b.timed(self.workload(seed))
            .scheduler(RandomScheduler::new(seed))
            .horizon(self.horizon())
    }
}

/// n ∈ {4, 8, 16}, complete and line; fewer operations where the
/// reference engine's O(components) per event would dominate the suite.
const SHAPES: [Shape; 6] = [
    Shape {
        n: 4,
        line: false,
        ops_per_node: 8,
    },
    Shape {
        n: 4,
        line: true,
        ops_per_node: 8,
    },
    Shape {
        n: 8,
        line: false,
        ops_per_node: 4,
    },
    Shape {
        n: 8,
        line: true,
        ops_per_node: 4,
    },
    Shape {
        n: 16,
        line: false,
        ops_per_node: 2,
    },
    Shape {
        n: 16,
        line: true,
        ops_per_node: 2,
    },
];

/// Writes every observer hook invocation into a shared log.
struct Recorder(Rc<RefCell<Vec<String>>>);

impl Observer<RegAction> for Recorder {
    fn on_candidates(&mut self, now: Time, depth: usize) {
        self.0
            .borrow_mut()
            .push(format!("candidates now={now} depth={depth}"));
    }

    fn on_clock_read(&mut self, read: ClockRead) {
        self.0.borrow_mut().push(format!(
            "read node={} now={} clock={}",
            read.node, read.now, read.clock
        ));
    }

    fn on_event(&mut self, index: usize, event: &TimedEvent<RegAction>) {
        self.0.borrow_mut().push(format!(
            "event[{index}] {:?} kind={:?} now={} clock={:?}",
            event.action, event.kind, event.now, event.clock
        ));
    }

    fn on_advance(&mut self, from: Time, to: Time) {
        self.0.borrow_mut().push(format!("advance {from} -> {to}"));
    }
}

#[test]
fn dc_register_runs_are_identical_across_engines() {
    for shape in SHAPES {
        for seed in SEEDS {
            let label = format!("n={} line={} seed={seed}", shape.n, shape.line);
            let (fast_log, slow_log) = (Rc::default(), Rc::default());
            let mut fast = shape
                .fast(seed)
                .observer(Recorder(Rc::clone(&fast_log)))
                .build();
            let mut slow = shape
                .slow(seed)
                .observer(Recorder(Rc::clone(&slow_log)))
                .build();
            let fast_run = fast
                .run()
                .unwrap_or_else(|e| panic!("{label}: engine: {e}"));
            let slow_run = slow
                .run()
                .unwrap_or_else(|e| panic!("{label}: reference: {e}"));
            assert_eq!(
                fast_run.stop, slow_run.stop,
                "{label}: stop reasons diverge"
            );
            assert_eq!(
                fast_run.execution, slow_run.execution,
                "{label}: executions diverge"
            );
            assert_eq!(
                fast_run.stop,
                StopReason::Quiescent,
                "{label}: did not drain"
            );
            let ops = fast_run
                .execution
                .events()
                .iter()
                .filter(|e| matches!(&e.action, SysAction::App(op) if op.is_response()))
                .count();
            assert_eq!(
                ops,
                shape.n * shape.ops_per_node as usize,
                "{label}: vacuous comparison — operations did not complete"
            );
            assert_eq!(
                *fast_log.borrow(),
                *slow_log.borrow(),
                "{label}: observer hook streams diverge"
            );
        }
    }
}

/// A cut between two events — every fifth of the run — then checkpoint →
/// restore into a freshly built engine → resume, and a `fork` at the same
/// cut: both continuations and the cut engine itself must finish exactly
/// like the uninterrupted run. This is `campaign_canary`'s shrink path on
/// the product system: restore rebuilds every hint cache from the restored
/// states.
#[test]
fn dc_register_checkpoint_restore_and_fork_resume_identically() {
    for shape in [SHAPES[0], SHAPES[2], SHAPES[3]] {
        for seed in [1, 42, 987_654_321] {
            let straight = shape.fast(seed).build().run().unwrap();
            let len = straight.execution.len();
            for cut in (1..5).map(|k| len * k / 5) {
                let label = format!("n={} line={} seed={seed} cut={cut}", shape.n, shape.line);
                let mut base = shape.fast(seed).build();
                let paused = base.run_until_events(cut).unwrap();
                assert_eq!(paused.stop, StopReason::Paused, "{label}");
                let cp = base.checkpoint();
                let mut restored = shape.fast(seed).build();
                restored.restore(&cp);
                let mut forked = base.fork(shape.fast(seed));
                for (who, engine) in [
                    ("restored", &mut restored),
                    ("forked", &mut forked),
                    ("base", &mut base),
                ] {
                    let run = engine.run().unwrap();
                    assert_eq!(run.stop, straight.stop, "{label}: {who} stop");
                    assert_eq!(
                        run.execution, straight.execution,
                        "{label}: {who} execution diverges"
                    );
                }
            }
        }
    }
}

/// The engine's *questions* to the components of one system: `classify`
/// on one tally; `enabled`, `deadline`/`clock_deadline` and
/// `wake_hint`/`clock_wake` on the other. (`step` and `advance` are work
/// the run needs whatever the engine does; the questions are what routing
/// and the hint caches exist to avoid.)
#[derive(Default)]
struct Questions {
    classify: Cell<u64>,
    state: Cell<u64>,
}

/// Forwards to a component, counting the questions.
struct Counted<C> {
    inner: C,
    asked: Rc<Questions>,
}

fn bump(tally: &Cell<u64>) {
    tally.set(tally.get() + 1);
}

impl<C: TimedComponent> TimedComponent for Counted<C> {
    type Action = C::Action;
    type State = C::State;

    fn name(&self) -> String {
        self.inner.name()
    }
    fn initial(&self) -> C::State {
        self.inner.initial()
    }
    fn classify(&self, a: &C::Action) -> Option<ActionKind> {
        bump(&self.asked.classify);
        self.inner.classify(a)
    }
    fn action_names(&self) -> Option<Vec<&'static str>> {
        self.inner.action_names()
    }
    fn step(&self, s: &C::State, a: &C::Action, now: Time) -> Option<C::State> {
        self.inner.step(s, a, now)
    }
    fn enabled(&self, s: &C::State, now: Time) -> Vec<C::Action> {
        bump(&self.asked.state);
        self.inner.enabled(s, now)
    }
    fn deadline(&self, s: &C::State, now: Time) -> Option<Time> {
        bump(&self.asked.state);
        self.inner.deadline(s, now)
    }
    fn advance(&self, s: &C::State, now: Time, target: Time) -> Option<C::State> {
        self.inner.advance(s, now, target)
    }
    fn wake_hint(&self, s: &C::State, now: Time) -> WakeHint {
        bump(&self.asked.state);
        self.inner.wake_hint(s, now)
    }
}

impl<C: ClockComponent> ClockComponent for Counted<C> {
    type Action = C::Action;
    type State = C::State;

    fn name(&self) -> String {
        self.inner.name()
    }
    fn initial(&self) -> C::State {
        self.inner.initial()
    }
    fn classify(&self, a: &C::Action) -> Option<ActionKind> {
        bump(&self.asked.classify);
        self.inner.classify(a)
    }
    fn action_names(&self) -> Option<Vec<&'static str>> {
        self.inner.action_names()
    }
    fn step(&self, s: &C::State, a: &C::Action, clock: Time) -> Option<C::State> {
        self.inner.step(s, a, clock)
    }
    fn enabled(&self, s: &C::State, clock: Time) -> Vec<C::Action> {
        bump(&self.asked.state);
        self.inner.enabled(s, clock)
    }
    fn clock_deadline(&self, s: &C::State, clock: Time) -> Option<Time> {
        bump(&self.asked.state);
        self.inner.clock_deadline(s, clock)
    }
    fn advance(&self, s: &C::State, clock: Time, target: Time) -> Option<C::State> {
        self.inner.advance(s, clock, target)
    }
    fn clock_wake(&self, s: &C::State, clock: Time) -> WakeHint {
        bump(&self.asked.state);
        self.inner.clock_wake(s, clock)
    }
}

/// `(classify, state)` questions per recorded event on the complete-graph
/// D_C system at `n`, assembled part by part as `transform_node` and
/// `build_dc` do, with every part counted.
///
/// The run is made twice on one engine — once from the start state, then
/// again after restoring the start state's checkpoint — and the second
/// run is the one counted: the route table is static configuration that
/// `restore` keeps, so by then every `(name, key)` the run fires has its
/// visit list and the count is the steady-state cost, free of the
/// one-time scan per key. Both runs must record what `build_dc` records.
fn questions_per_event(n: usize) -> (f64, f64) {
    let shape = Shape {
        n,
        line: false,
        ops_per_node: 4,
    };
    let seed = 7;
    let topo = shape.topo();
    let asked = Rc::new(Questions::default());
    fn counted<C>(asked: &Rc<Questions>, inner: C) -> Counted<C> {
        Counted {
            inner,
            asked: Rc::clone(asked),
        }
    }
    let mut b = EngineBuilder::default();
    for (spec, strategy) in shape.algorithms().into_iter().zip(shape.clocks(seed)) {
        let i = spec.id;
        let mut node = ClockNode::new(format!("A^c({i})"), Shape::eps(), strategy).with(counted(
            &asked,
            HiddenClock::new(ClockSim::from_box(spec.algorithm), |a: &RegAction| {
                matches!(a, SysAction::Send(_))
            }),
        ));
        for j in topo.out_neighbors(i) {
            node = node.with(counted(&asked, SendBuffer::<RegMsg, RegisterOp>::new(i, j)));
        }
        for j in topo.in_neighbors(i) {
            node = node.with(counted(
                &asked,
                HiddenClock::new(
                    RecvBuffer::<RegMsg, RegisterOp>::new(j, i),
                    |a: &RegAction| matches!(a, SysAction::Recv(_)),
                ),
            ));
        }
        b = b.clock_node(node);
    }
    for &(i, j) in topo.edges() {
        b = b.timed(counted(
            &asked,
            ClockChannel::<RegMsg, RegisterOp>::new(
                i,
                j,
                Shape::physical(),
                Shape::delay(seed, i, j),
            ),
        ));
    }
    let mut engine = b
        .timed(counted(&asked, shape.workload(seed)))
        .scheduler(RandomScheduler::new(seed))
        .horizon(shape.horizon())
        .build();
    let expected = shape.fast(seed).build().run().unwrap().execution;
    let start = engine.checkpoint();
    let cold = engine.run().unwrap();
    assert_eq!(cold.execution, expected, "n={n}: counted system, first run");
    let cold_classify = asked.classify.replace(0);
    asked.state.set(0);
    engine.restore(&start);
    let warm = engine.run().unwrap();
    assert_eq!(
        warm.execution, expected,
        "n={n}: counted system, second run"
    );
    let per_event = |tally: u64| tally as f64 / expected.len() as f64;
    let (classify, state) = (
        per_event(asked.classify.get()),
        per_event(asked.state.get()),
    );
    eprintln!(
        "n={n}: {} events; per event: classify {:.2} first run, {classify:.2} second; \
         state questions {state:.2}",
        expected.len(),
        per_event(cold_classify),
    );
    (classify, state)
}

/// Per-event engine cost that does not grow with n, as a count: what the
/// engine asks the components per recorded event at n=32 (3008 components)
/// stays within 2× of n=8 (177 components). The counts repeat exactly, so
/// there is no wall clock in this assertion. Routing by name alone asks
/// ≈2n² `classify` per message event; sweeping every component on every
/// `ν` asks ≈3n² state questions more.
///
/// A debug build re-derives every fired action's visit list by asking the
/// whole name list (the `route_key` contract check), so there the
/// `classify` tally is O(n²) per event on purpose and only the state
/// questions are held to the bound; `cargo test --release` holds both.
#[test]
fn questions_per_event_do_not_grow_with_n() {
    let (small, wide) = (questions_per_event(8), questions_per_event(32));
    assert!(
        wide.1 <= 2.0 * small.1,
        "state questions per event grow with n: {:.2} at n=32 against {:.2} at n=8",
        wide.1,
        small.1
    );
    if !cfg!(debug_assertions) {
        assert!(
            wide.0 <= 2.0 * small.0,
            "classify calls per event grow with n: {:.2} at n=32 against {:.2} at n=8",
            wide.0,
            small.0
        );
    }
}
