//! Differential tests: the incremental [`Engine`] must produce executions
//! *identical* — same events, same times, same clock readings, same stop
//! reason — to the scan-everything [`ReferenceEngine`] it replaced.
//!
//! The component mixes are chosen to exercise every piece of the
//! incremental machinery:
//!
//! * toys + clock nodes — dirty-set refresh across time advances and the
//!   per-node wake sets and deadline holders;
//! * heartbeaters over FIFO and lossy channels — the routing table with
//!   shared `SENDMSG`/`RECVMSG` names and same-instant event bursts;
//! * heartbeaters over plain reordering channels — wildcard-free routing
//!   with randomized delays.
//!
//! Every mix runs under a seeded [`RandomScheduler`] for several seeds:
//! the scheduler is consulted with the same candidate slice in the same
//! order by both engines, so any divergence in candidate collection,
//! firing order, or time advancement shows up as a differing execution.
//! Origin-aware schedulers are pinned too: both engines now feed
//! [`RoundRobinScheduler`] the candidates' flat component ids, so its
//! per-component rotation must also match pick for pick.

use std::cell::RefCell;
use std::rc::Rc;

use psync_apps::heartbeat::{FdAction, FdParams, Heartbeater, Monitor};
use psync_automata::toys::{Beeper, ClockBeeper};
use psync_automata::{Action, TimedEvent};
use psync_executor::{
    ClockNode, ClockRead, Engine, EngineBuilder, Observer, OffsetClock, PerfectClock,
    RandomScheduler, ReferenceEngine, ReferenceEngineBuilder, RoundRobinScheduler, Scheduler,
};
use psync_net::{Channel, DropSeeded, FifoChannel, LossyChannel, NodeId, SeededDelay};
use psync_time::{DelayBounds, Duration, Time};

const SEEDS: [u64; 6] = [1, 7, 42, 99, 1234, 987_654_321];

fn ms(n: i64) -> Duration {
    Duration::from_millis(n)
}

fn at(n: i64) -> Time {
    Time::ZERO + ms(n)
}

/// Builds the same system twice (the builders are separate types, so the
/// mix is described once as a pair of closures), runs both engines with
/// identically seeded schedulers, and requires identical results.
fn assert_equivalent<A: Action>(
    label: &str,
    build_new: impl Fn(EngineBuilder<A>) -> EngineBuilder<A>,
    build_ref: impl Fn(ReferenceEngineBuilder<A>) -> ReferenceEngineBuilder<A>,
) {
    assert_equivalent_sched(label, RandomScheduler::new, build_new, build_ref);
}

/// As [`assert_equivalent`], with the scheduler family chosen by the
/// caller — used to pin origin-aware schedulers as well as seeded ones.
fn assert_equivalent_sched<A: Action, S: Scheduler<A> + 'static>(
    label: &str,
    sched: impl Fn(u64) -> S,
    build_new: impl Fn(EngineBuilder<A>) -> EngineBuilder<A>,
    build_ref: impl Fn(ReferenceEngineBuilder<A>) -> ReferenceEngineBuilder<A>,
) {
    for seed in SEEDS {
        let mut fast: Engine<A> = build_new(Engine::builder()).scheduler(sched(seed)).build();
        let mut slow: ReferenceEngine<A> = build_ref(ReferenceEngine::builder())
            .scheduler(sched(seed))
            .build();
        let fast_run = fast
            .run()
            .unwrap_or_else(|e| panic!("{label}/{seed}: incremental engine failed: {e}"));
        let slow_run = slow
            .run()
            .unwrap_or_else(|e| panic!("{label}/{seed}: reference engine failed: {e}"));
        assert_eq!(
            fast_run.stop, slow_run.stop,
            "{label}/{seed}: stop reasons diverge"
        );
        assert_eq!(
            fast_run.execution, slow_run.execution,
            "{label}/{seed}: executions diverge"
        );
        assert!(
            !fast_run.execution.is_empty(),
            "{label}/{seed}: vacuous comparison — the mix produced no events"
        );
    }
}

#[test]
fn toys_and_clock_nodes_are_equivalent() {
    // Two interleaving beepers (simultaneously enabled every 35 ms) and
    // two clock nodes whose skewed clocks shift their beeps off the
    // real-time grid.
    assert_equivalent::<psync_automata::toys::BeepAction>(
        "toys",
        |b| {
            b.timed(Beeper::with_src(ms(5), 0))
                .timed(Beeper::with_src(ms(7), 1))
                .clock_node(
                    ClockNode::new("fast", ms(2), OffsetClock::new(ms(2), ms(2)))
                        .with(ClockBeeper::with_src(ms(9), 7)),
                )
                .clock_node(
                    ClockNode::new("true", ms(1), PerfectClock)
                        .with(ClockBeeper::with_src(ms(11), 8)),
                )
                .horizon(at(200))
        },
        |b| {
            b.timed(Beeper::with_src(ms(5), 0))
                .timed(Beeper::with_src(ms(7), 1))
                .clock_node(
                    ClockNode::new("fast", ms(2), OffsetClock::new(ms(2), ms(2)))
                        .with(ClockBeeper::with_src(ms(9), 7)),
                )
                .clock_node(
                    ClockNode::new("true", ms(1), PerfectClock)
                        .with(ClockBeeper::with_src(ms(11), 8)),
                )
                .horizon(at(200))
        },
    );
}

#[test]
fn heartbeats_over_fifo_and_lossy_channels_are_equivalent() {
    // Full failure-detector pair in both directions: node 0 heartbeats to
    // node 1 over a FIFO channel, node 1 heartbeats back over a lossy
    // channel that drops ~30% of messages. All four SENDMSG/RECVMSG
    // routes share action names, exercising the routing table's
    // many-components-per-name path.
    let bounds = DelayBounds::new(ms(1), ms(4)).unwrap();
    let params = FdParams {
        period: ms(10),
        timeout: ms(25),
    };
    assert_equivalent::<FdAction>(
        "fifo+lossy",
        |b| {
            b.timed(Heartbeater::new(NodeId(0), NodeId(1), ms(10)))
                .timed(FifoChannel::new(
                    NodeId(0),
                    NodeId(1),
                    bounds,
                    SeededDelay::new(5),
                ))
                .timed(Monitor::new(NodeId(1), NodeId(0), params))
                .timed(Heartbeater::new(NodeId(1), NodeId(0), ms(10)))
                .timed(LossyChannel::new(
                    NodeId(1),
                    NodeId(0),
                    bounds,
                    SeededDelay::new(6),
                    DropSeeded::new(7, 30),
                ))
                .timed(Monitor::new(NodeId(0), NodeId(1), params))
                .horizon(at(400))
        },
        |b| {
            b.timed(Heartbeater::new(NodeId(0), NodeId(1), ms(10)))
                .timed(FifoChannel::new(
                    NodeId(0),
                    NodeId(1),
                    bounds,
                    SeededDelay::new(5),
                ))
                .timed(Monitor::new(NodeId(1), NodeId(0), params))
                .timed(Heartbeater::new(NodeId(1), NodeId(0), ms(10)))
                .timed(LossyChannel::new(
                    NodeId(1),
                    NodeId(0),
                    bounds,
                    SeededDelay::new(6),
                    DropSeeded::new(7, 30),
                ))
                .timed(Monitor::new(NodeId(0), NodeId(1), params))
                .horizon(at(400))
        },
    );
}

#[test]
fn heartbeats_over_reordering_channels_are_equivalent() {
    // The plain (non-FIFO) channel with randomized delays produces many
    // simultaneously deliverable messages: large candidate sets for the
    // scheduler, and bursts of same-instant events for the dirty set.
    let bounds = DelayBounds::new(ms(0), ms(9)).unwrap();
    let params = FdParams {
        period: ms(5),
        timeout: ms(30),
    };
    assert_equivalent::<FdAction>(
        "reordering",
        |b| {
            b.timed(Heartbeater::new(NodeId(0), NodeId(1), ms(5)))
                .timed(Channel::new(
                    NodeId(0),
                    NodeId(1),
                    bounds,
                    SeededDelay::new(11),
                ))
                .timed(Monitor::new(NodeId(1), NodeId(0), params))
                .horizon(at(300))
        },
        |b| {
            b.timed(Heartbeater::new(NodeId(0), NodeId(1), ms(5)))
                .timed(Channel::new(
                    NodeId(0),
                    NodeId(1),
                    bounds,
                    SeededDelay::new(11),
                ))
                .timed(Monitor::new(NodeId(1), NodeId(0), params))
                .horizon(at(300))
        },
    );
}

#[test]
fn round_robin_toys_and_clock_nodes_are_equivalent() {
    // The rotation is keyed on flat component ids: both engines must
    // number components identically (timed first, then node components in
    // insertion order) for the cursor to land on the same candidates.
    let mix_new = |b: EngineBuilder<psync_automata::toys::BeepAction>| {
        b.timed(Beeper::with_src(ms(5), 0))
            .timed(Beeper::with_src(ms(7), 1))
            .clock_node(
                ClockNode::new("fast", ms(2), OffsetClock::new(ms(2), ms(2)))
                    .with(ClockBeeper::with_src(ms(9), 7)),
            )
            .clock_node(
                ClockNode::new("true", ms(1), PerfectClock).with(ClockBeeper::with_src(ms(11), 8)),
            )
            .horizon(at(200))
    };
    let mix_ref = |b: ReferenceEngineBuilder<psync_automata::toys::BeepAction>| {
        b.timed(Beeper::with_src(ms(5), 0))
            .timed(Beeper::with_src(ms(7), 1))
            .clock_node(
                ClockNode::new("fast", ms(2), OffsetClock::new(ms(2), ms(2)))
                    .with(ClockBeeper::with_src(ms(9), 7)),
            )
            .clock_node(
                ClockNode::new("true", ms(1), PerfectClock).with(ClockBeeper::with_src(ms(11), 8)),
            )
            .horizon(at(200))
    };
    assert_equivalent_sched("rr-toys", |_| RoundRobinScheduler::new(), mix_new, mix_ref);
}

#[test]
fn round_robin_heartbeats_over_channels_are_equivalent() {
    // Large same-instant candidate sets from the reordering channel give
    // the rotation real choices; a flat-id mismatch between the engines
    // would skew every subsequent pick.
    let bounds = DelayBounds::new(ms(0), ms(9)).unwrap();
    let params = FdParams {
        period: ms(5),
        timeout: ms(30),
    };
    assert_equivalent_sched::<FdAction, _>(
        "rr-reordering",
        |_| RoundRobinScheduler::new(),
        |b| {
            b.timed(Heartbeater::new(NodeId(0), NodeId(1), ms(5)))
                .timed(Channel::new(
                    NodeId(0),
                    NodeId(1),
                    bounds,
                    SeededDelay::new(11),
                ))
                .timed(Monitor::new(NodeId(1), NodeId(0), params))
                .horizon(at(300))
        },
        |b| {
            b.timed(Heartbeater::new(NodeId(0), NodeId(1), ms(5)))
                .timed(Channel::new(
                    NodeId(0),
                    NodeId(1),
                    bounds,
                    SeededDelay::new(11),
                ))
                .timed(Monitor::new(NodeId(1), NodeId(0), params))
                .horizon(at(300))
        },
    );
}

/// Writes every observer hook invocation into a shared log, so two
/// engines' hook streams can be compared line for line.
struct RecordingObserver {
    log: Rc<RefCell<Vec<String>>>,
}

impl RecordingObserver {
    fn new() -> (RecordingObserver, Rc<RefCell<Vec<String>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        (
            RecordingObserver {
                log: Rc::clone(&log),
            },
            log,
        )
    }
}

impl<A: Action> Observer<A> for RecordingObserver {
    fn on_candidates(&mut self, now: Time, depth: usize) {
        self.log
            .borrow_mut()
            .push(format!("candidates now={now} depth={depth}"));
    }

    fn on_clock_read(&mut self, read: ClockRead) {
        self.log.borrow_mut().push(format!(
            "read node={} now={} clock={} eps={}",
            read.node, read.now, read.clock, read.eps
        ));
    }

    fn on_event(&mut self, index: usize, event: &TimedEvent<A>) {
        self.log.borrow_mut().push(format!(
            "event[{index}] {:?} kind={:?} now={} clock={:?}",
            event.action, event.kind, event.now, event.clock
        ));
    }

    fn on_advance(&mut self, from: Time, to: Time) {
        self.log
            .borrow_mut()
            .push(format!("advance {from} -> {to}"));
    }
}

/// The toys + clock-nodes mix with an observer attached to both engines:
/// the full hook streams (candidates, clock reads, events, advances) must
/// be identical line for line — the observer contract says both engines
/// invoke the same hooks at the same points in the same order.
#[test]
fn observer_hook_streams_are_identical_across_engines() {
    type A = psync_automata::toys::BeepAction;
    let mix_new = |b: EngineBuilder<A>| {
        b.timed(Beeper::with_src(ms(5), 0))
            .clock_node(
                ClockNode::new("fast", ms(2), OffsetClock::new(ms(2), ms(2)))
                    .with(ClockBeeper::with_src(ms(9), 7)),
            )
            .clock_node(
                ClockNode::new("true", ms(1), PerfectClock).with(ClockBeeper::with_src(ms(11), 8)),
            )
            .horizon(at(150))
    };
    let mix_ref = |b: ReferenceEngineBuilder<A>| {
        b.timed(Beeper::with_src(ms(5), 0))
            .clock_node(
                ClockNode::new("fast", ms(2), OffsetClock::new(ms(2), ms(2)))
                    .with(ClockBeeper::with_src(ms(9), 7)),
            )
            .clock_node(
                ClockNode::new("true", ms(1), PerfectClock).with(ClockBeeper::with_src(ms(11), 8)),
            )
            .horizon(at(150))
    };
    for seed in SEEDS {
        let (obs_fast, log_fast) = RecordingObserver::new();
        let (obs_slow, log_slow) = RecordingObserver::new();
        let mut fast = mix_new(Engine::builder())
            .observer(obs_fast)
            .scheduler(RandomScheduler::new(seed))
            .build();
        let mut slow = mix_ref(ReferenceEngine::builder())
            .observer(obs_slow)
            .scheduler(RandomScheduler::new(seed))
            .build();
        let fast_run = fast.run().unwrap();
        let slow_run = slow.run().unwrap();
        assert_eq!(fast_run.execution, slow_run.execution);
        let log_fast = log_fast.borrow();
        let log_slow = log_slow.borrow();
        assert!(
            log_fast.iter().any(|l| l.starts_with("read")),
            "seed {seed}: clock nodes must produce clock-read hooks"
        );
        assert!(log_fast.iter().any(|l| l.starts_with("candidates")));
        assert!(log_fast.iter().any(|l| l.starts_with("advance")));
        assert_eq!(
            *log_fast, *log_slow,
            "seed {seed}: observer hook streams diverge"
        );
    }
}

/// Attaching observers must not perturb the run: the execution with a
/// recording observer attached is bit-identical to the detached run, for
/// both engines.
#[test]
fn attached_observer_leaves_execution_identical_to_detached_run() {
    let bounds = DelayBounds::new(ms(1), ms(4)).unwrap();
    let params = FdParams {
        period: ms(10),
        timeout: ms(25),
    };
    let mix = |b: EngineBuilder<FdAction>| {
        b.timed(Heartbeater::new(NodeId(0), NodeId(1), ms(10)))
            .timed(FifoChannel::new(
                NodeId(0),
                NodeId(1),
                bounds,
                SeededDelay::new(5),
            ))
            .timed(Monitor::new(NodeId(1), NodeId(0), params))
            .horizon(at(300))
    };
    let mix_ref = |b: ReferenceEngineBuilder<FdAction>| {
        b.timed(Heartbeater::new(NodeId(0), NodeId(1), ms(10)))
            .timed(FifoChannel::new(
                NodeId(0),
                NodeId(1),
                bounds,
                SeededDelay::new(5),
            ))
            .timed(Monitor::new(NodeId(1), NodeId(0), params))
            .horizon(at(300))
    };
    for seed in SEEDS {
        let detached = mix(Engine::builder())
            .scheduler(RandomScheduler::new(seed))
            .build()
            .run()
            .unwrap();
        let (observer, log) = RecordingObserver::new();
        let attached = mix(Engine::builder())
            .observer(observer)
            .scheduler(RandomScheduler::new(seed))
            .build()
            .run()
            .unwrap();
        assert_eq!(
            detached.execution, attached.execution,
            "seed {seed}: observer perturbed the incremental engine"
        );
        assert_eq!(detached.stop, attached.stop);
        assert!(!log.borrow().is_empty());

        let ref_detached = mix_ref(ReferenceEngine::builder())
            .scheduler(RandomScheduler::new(seed))
            .build()
            .run()
            .unwrap();
        let (observer, _log) = RecordingObserver::new();
        let ref_attached = mix_ref(ReferenceEngine::builder())
            .observer(observer)
            .scheduler(RandomScheduler::new(seed))
            .build()
            .run()
            .unwrap();
        assert_eq!(
            ref_detached.execution, ref_attached.execution,
            "seed {seed}: observer perturbed the reference engine"
        );
    }
}

#[test]
fn incremental_run_until_matches_single_run() {
    // Arc-backed snapshots: driving the incremental engine in four slices
    // observes the same executions a reference engine sees in one shot,
    // and earlier snapshots stay valid after the engine appends past them.
    let build = || {
        Engine::builder()
            .timed(Beeper::with_src(ms(5), 0))
            .timed(Beeper::with_src(ms(7), 1))
            .scheduler(RandomScheduler::new(3))
    };
    let mut sliced = build().build();
    let s1 = sliced.run_until(at(50)).unwrap();
    let s2 = sliced.run_until(at(100)).unwrap();
    let s3 = sliced.run_until(at(150)).unwrap();
    let s4 = sliced.run_until(at(200)).unwrap();

    let mut whole = ReferenceEngine::builder()
        .timed(Beeper::with_src(ms(5), 0))
        .timed(Beeper::with_src(ms(7), 1))
        .scheduler(RandomScheduler::new(3))
        .horizon(at(200))
        .build();
    let w = whole.run().unwrap();

    assert_eq!(s4.execution, w.execution);
    // Prefix property: each earlier snapshot is an unchanged prefix.
    for (i, s) in [&s1, &s2, &s3].into_iter().enumerate() {
        let n = s.execution.len();
        assert_eq!(
            s.execution.events(),
            &w.execution.events()[..n],
            "slice {i} is not a prefix"
        );
    }
    assert!(s1.execution.len() < s4.execution.len());
}
