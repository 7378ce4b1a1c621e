//! Metric-collecting [`Observer`]s and the streaming `C_ε` monitor.
//!
//! [`MetricsHub`] owns a shared [`Registry`] behind `Rc<RefCell<…>>` (the
//! same interior-mutability handle pattern as
//! [`ScriptedClock::rejections`](psync_executor::ScriptedClock::rejections):
//! engines are single-threaded and components step through `&self`).
//! [`MetricsHub::engine_observer`] hands out taps that feed the hub from
//! inside an engine run; the hub stays outside and takes
//! [`snapshot`](MetricsHub::snapshot)s whenever it likes.
//!
//! The taps run on every hook of every event, so they resolve each metric
//! name to a registry slot once ([`CounterId`], [`HistogramId`]) and
//! record by index afterwards; a resolved slot nothing was recorded into
//! stays invisible, so a tap's snapshot lists exactly what it observed.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use psync_automata::{Action, ActionKind, Execution, TimedEvent, Verdict};
use psync_executor::{ClockRead, Observer};
use psync_net::{MsgId, NodeId, SysAction};
use psync_time::{Duration, Time};
use psync_verify::Oracle;

use crate::metrics::{CounterId, HistogramId, MetricsSnapshot, Registry};

/// Bucket bounds for the scheduler queue-depth histogram.
pub const QUEUE_DEPTH_BOUNDS: &[i64] = &[1, 2, 4, 8, 16, 32, 64];

/// Bucket bounds (ns) for the observed `|now − clock|` drift histogram.
pub const DRIFT_NS_BOUNDS: &[i64] = &[
    1_000, 10_000, 100_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

/// Bucket bounds (ns) for time-passage step sizes.
pub const ADVANCE_NS_BOUNDS: &[i64] = &[
    10_000,
    100_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
];

/// Bucket bounds (ns) for per-channel message delays.
pub const DELAY_NS_BOUNDS: &[i64] = &[
    100_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000, 20_000_000,
];

/// Owns a shared metrics [`Registry`] and hands out engine taps feeding it.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    registry: Rc<RefCell<Registry>>,
}

impl MetricsHub {
    /// Creates a hub with an empty registry.
    #[must_use]
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// An observer recording engine-level metrics into this hub: steps by
    /// kind and action name, deliveries, queue depth, clock drift and
    /// time-passage sizes. Attach via `EngineBuilder::observer`.
    #[must_use]
    pub fn engine_observer(&self) -> EngineMetrics {
        let ids = EngineMetricIds::resolve(&mut self.registry.borrow_mut());
        EngineMetrics {
            registry: Rc::clone(&self.registry),
            ids,
            actions: Vec::new(),
            count_checkpoint_ops: true,
        }
    }

    /// An observer recording per-channel delivery delays (for
    /// `SysAction`-typed systems). Attach via `EngineBuilder::observer`.
    #[must_use]
    pub fn channel_delay_observer(&self) -> ChannelDelayObserver {
        ChannelDelayObserver {
            registry: Rc::clone(&self.registry),
            in_flight: HashMap::new(),
            channels: HashMap::new(),
        }
    }

    /// Adds `delta` to counter `name` — for merging externally collected
    /// counts (e.g. [`FaultChannel`](psync_net::FaultChannel) fault
    /// counters) into the same snapshot.
    pub fn add(&self, name: &str, delta: u64) {
        self.registry.borrow_mut().add(name, delta);
    }

    /// Sets gauge `name` to `value` — for measured levels (e.g. a node's
    /// certified `ε̂` in nanoseconds) recorded after a run completes.
    pub fn set_gauge(&self, name: &str, value: i64) {
        self.registry.borrow_mut().set_gauge(name, value);
    }

    /// A deterministic snapshot of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.borrow().snapshot()
    }

    /// Folds `snapshot` into the hub with the [`MetricsSnapshot::absorb`]
    /// algebra (counters add, gauges max, histograms merge) — how the
    /// explorer folds a sharded judging pass's deterministic snapshot
    /// into a case's metrics.
    ///
    /// # Panics
    ///
    /// Panics if a histogram shared by name has different bucket bounds.
    pub fn absorb(&self, snapshot: &MetricsSnapshot) {
        self.registry.borrow_mut().absorb(snapshot);
    }

    /// Rewinds the hub to a previously taken [`snapshot`](MetricsHub::snapshot),
    /// discarding everything recorded since. Pairs with
    /// [`Engine::restore`](psync_executor::Engine::restore): snapshot the
    /// hub when the engine checkpoints, restore both together, and the
    /// resumed run's metrics are bit-identical to an uninterrupted run's.
    pub fn restore(&self, snapshot: &MetricsSnapshot) {
        self.registry.borrow_mut().restore(snapshot);
    }

    /// The shared registry handle, for observers not predefined here.
    #[must_use]
    pub fn registry(&self) -> Rc<RefCell<Registry>> {
        Rc::clone(&self.registry)
    }
}

/// The fixed metrics of [`EngineMetrics`], resolved once per tap.
#[derive(Debug, Clone, Copy)]
struct EngineMetricIds {
    scheduling_points: CounterId,
    queue_depth: HistogramId,
    clock_reads: CounterId,
    clock_drift_ns: HistogramId,
    steps: CounterId,
    steps_input: CounterId,
    steps_output: CounterId,
    steps_internal: CounterId,
    deliveries: CounterId,
    advances: CounterId,
    advance_ns: HistogramId,
    checkpoints: CounterId,
    restores: CounterId,
}

impl EngineMetricIds {
    fn resolve(reg: &mut Registry) -> EngineMetricIds {
        EngineMetricIds {
            scheduling_points: reg.counter_id("engine.scheduling_points"),
            queue_depth: reg.histogram_id("engine.queue_depth"),
            clock_reads: reg.counter_id("engine.clock_reads"),
            clock_drift_ns: reg.histogram_id("engine.clock_drift_ns"),
            steps: reg.counter_id("engine.steps"),
            steps_input: reg.counter_id("engine.steps.input"),
            steps_output: reg.counter_id("engine.steps.output"),
            steps_internal: reg.counter_id("engine.steps.internal"),
            deliveries: reg.counter_id("engine.deliveries"),
            advances: reg.counter_id("engine.advances"),
            advance_ns: reg.histogram_id("engine.advance_ns"),
            checkpoints: reg.counter_id("engine.checkpoints"),
            restores: reg.counter_id("engine.restores"),
        }
    }
}

/// One action name this tap has seen: its `engine.action.<name>` counter
/// and whether firing it is a message delivery.
#[derive(Debug, Clone, Copy)]
struct SeenAction {
    name: &'static str,
    counter: CounterId,
    is_delivery: bool,
}

/// The engine-level metrics tap (see [`MetricsHub::engine_observer`]).
///
/// Implements [`Observer`] for *every* action type; action-specific
/// detail is limited to [`Action::name`].
#[derive(Debug)]
pub struct EngineMetrics {
    registry: Rc<RefCell<Registry>>,
    ids: EngineMetricIds,
    /// A handful of names per system, so a linear scan beats hashing.
    actions: Vec<SeenAction>,
    count_checkpoint_ops: bool,
}

impl EngineMetrics {
    /// Suppresses the `engine.checkpoints` / `engine.restores` counters.
    ///
    /// Checkpoint and restore are run *machinery*, not run *behaviour*: a
    /// consumer comparing a checkpointed-resume run against a straight-line
    /// run (the explorer's prefix-sharing shrink probes) wants the two
    /// metric snapshots bit-identical, which only holds if the machinery
    /// leaves no trace. All behavioural metrics are still recorded.
    #[must_use]
    pub fn without_checkpoint_counters(mut self) -> EngineMetrics {
        self.count_checkpoint_ops = false;
        self
    }

    /// The cached entry for action `name`, resolved on first sight.
    ///
    /// Names are matched by text, never by address: equal text can live at
    /// two addresses (one literal per crate, or per codegen unit) and must
    /// feed one counter.
    fn seen(actions: &mut Vec<SeenAction>, reg: &mut Registry, name: &'static str) -> SeenAction {
        if let Some(hit) = actions.iter().find(|a| a.name == name) {
            return *hit;
        }
        let seen = SeenAction {
            name,
            counter: reg.counter_id(&format!("engine.action.{name}")),
            is_delivery: name == "RECVMSG" || name == "ERECVMSG",
        };
        actions.push(seen);
        seen
    }
}

impl<A: Action> Observer<A> for EngineMetrics {
    fn on_candidates(&mut self, _now: Time, depth: usize) {
        let mut reg = self.registry.borrow_mut();
        reg.add_to(self.ids.scheduling_points, 1);
        reg.observe_in(self.ids.queue_depth, QUEUE_DEPTH_BOUNDS, depth as i64);
    }

    fn on_clock_read(&mut self, read: ClockRead) {
        let mut reg = self.registry.borrow_mut();
        reg.add_to(self.ids.clock_reads, 1);
        reg.observe_in(
            self.ids.clock_drift_ns,
            DRIFT_NS_BOUNDS,
            read.now.skew(read.clock).as_nanos(),
        );
    }

    fn on_event(&mut self, _index: usize, event: &TimedEvent<A>) {
        let mut reg = self.registry.borrow_mut();
        reg.add_to(self.ids.steps, 1);
        reg.add_to(
            match event.kind {
                ActionKind::Input => self.ids.steps_input,
                ActionKind::Output => self.ids.steps_output,
                ActionKind::Internal => self.ids.steps_internal,
            },
            1,
        );
        let action = Self::seen(&mut self.actions, &mut reg, event.action.name());
        reg.add_to(action.counter, 1);
        if action.is_delivery {
            reg.add_to(self.ids.deliveries, 1);
        }
    }

    fn on_advance(&mut self, from: Time, to: Time) {
        let mut reg = self.registry.borrow_mut();
        reg.add_to(self.ids.advances, 1);
        reg.observe_in(
            self.ids.advance_ns,
            ADVANCE_NS_BOUNDS,
            (to - from).as_nanos(),
        );
    }

    fn on_checkpoint(&mut self, _events: usize) {
        if self.count_checkpoint_ops {
            self.registry.borrow_mut().add_to(self.ids.checkpoints, 1);
        }
    }

    fn on_restore(&mut self, _events: &[TimedEvent<A>]) {
        if self.count_checkpoint_ops {
            self.registry.borrow_mut().add_to(self.ids.restores, 1);
        }
    }
}

/// Records the real-time delay of every delivered message into a
/// per-channel histogram `channel.delay_ns.nI->nJ`.
///
/// Send times are remembered by [`MsgId`]; because the paper assumes every
/// message id is unique per execution (Section 3), entries are never
/// evicted — a duplicate delivery finds the original send time and records
/// a second sample. Memory is O(messages sent), not O(events).
#[derive(Debug)]
pub struct ChannelDelayObserver {
    registry: Rc<RefCell<Registry>>,
    in_flight: HashMap<MsgId, Time>,
    /// The histogram of each edge that has delivered, resolved at its
    /// first delivery.
    channels: HashMap<(NodeId, NodeId), HistogramId>,
}

impl<M, AP> Observer<SysAction<M, AP>> for ChannelDelayObserver
where
    M: Clone + Eq + std::hash::Hash + std::fmt::Debug + 'static,
    AP: Action,
{
    fn on_event(&mut self, _index: usize, event: &TimedEvent<SysAction<M, AP>>) {
        match &event.action {
            SysAction::Send(env) | SysAction::ESend(env, _) => {
                self.in_flight.insert(env.id, event.now);
            }
            SysAction::Recv(env) | SysAction::ERecv(env, _) => {
                if let Some(sent) = self.in_flight.get(&env.id) {
                    let mut reg = self.registry.borrow_mut();
                    let id = *self.channels.entry((env.src, env.dst)).or_insert_with(|| {
                        reg.histogram_id(&format!("channel.delay_ns.{}->{}", env.src, env.dst))
                    });
                    reg.observe_in(id, DELAY_NS_BOUNDS, (event.now - *sent).as_nanos());
                }
            }
            _ => {}
        }
    }

    fn on_restore(&mut self, events: &[TimedEvent<SysAction<M, AP>>]) {
        // The send-time map is per-run context: rebuild it from the
        // restored prefix so post-restore deliveries of pre-restore sends
        // still find their send times. Entries are never evicted during a
        // live run, so scanning the sends reproduces the map exactly.
        self.in_flight.clear();
        for event in events {
            if let SysAction::Send(env) | SysAction::ESend(env, _) = &event.action {
                self.in_flight.insert(env.id, event.now);
            }
        }
    }
}

/// Streaming `C_ε` monitor (predicate `C_ε` of §2.2): checks
/// `|now − clock| ≤ ε` on every clock read, in O(1) memory.
///
/// As an [`Observer`] it takes `ε` from each [`ClockRead`] (every node's
/// own envelope); [`CEpsMonitor::with_eps`] pins one bound instead, for
/// monitoring against a tighter envelope than the engine enforces.
#[derive(Debug, Clone, Default)]
pub struct CEpsMonitor {
    pinned_eps: Option<Duration>,
    reads: u64,
    worst: Duration,
    violation: Option<String>,
}

impl CEpsMonitor {
    /// A monitor checking each read against the node's own `ε`.
    #[must_use]
    pub fn new() -> CEpsMonitor {
        CEpsMonitor::default()
    }

    /// A monitor checking every read against the fixed bound `eps`.
    #[must_use]
    pub fn with_eps(eps: Duration) -> CEpsMonitor {
        CEpsMonitor {
            pinned_eps: Some(eps),
            ..CEpsMonitor::default()
        }
    }

    /// Feeds one clock reading.
    pub fn observe(&mut self, read: ClockRead) {
        self.reads += 1;
        let skew = read.now.skew(read.clock);
        self.worst = self.worst.max(skew);
        let eps = self.pinned_eps.unwrap_or(read.eps);
        if skew > eps && self.violation.is_none() {
            self.violation = Some(format!(
                "node {} clock {} at real time {} violates C_ε (skew {} > ε {})",
                read.node, read.clock, read.now, skew, eps
            ));
        }
    }

    /// Number of readings observed.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// The worst `|now − clock|` observed.
    #[must_use]
    pub fn worst_skew(&self) -> Duration {
        self.worst
    }

    /// `Holds` iff every reading so far satisfied the predicate.
    #[must_use]
    pub fn verdict(&self) -> Verdict {
        match &self.violation {
            None => Verdict::Holds,
            Some(why) => Verdict::Violated(why.clone()),
        }
    }
}

impl<A: Action> Observer<A> for CEpsMonitor {
    fn on_clock_read(&mut self, read: ClockRead) {
        self.observe(read);
    }
}

/// The offline face of [`CEpsMonitor`]: an [`Oracle`] replaying a recorded
/// execution's clock readings through the same O(1) check, so explorer
/// campaigns and conformance sweeps consume it unchanged.
pub struct CEpsOracle {
    eps: Duration,
}

impl CEpsOracle {
    /// Checks every event carrying a clock reading against `eps`.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative.
    #[must_use]
    pub fn new(eps: Duration) -> CEpsOracle {
        assert!(!eps.is_negative(), "ε must be non-negative");
        CEpsOracle { eps }
    }
}

impl<A: Action> Oracle<A> for CEpsOracle {
    fn name(&self) -> String {
        format!("C_eps(ε={})", self.eps)
    }

    fn check(&self, exec: &Execution<A>) -> Verdict {
        let mut monitor = CEpsMonitor::with_eps(self.eps);
        for ev in exec.events() {
            if let Some(clock) = ev.clock {
                monitor.observe(ClockRead {
                    node: 0,
                    now: ev.now,
                    clock,
                    eps: self.eps,
                });
            }
        }
        monitor.verdict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_automata::toys::{Beeper, ClockBeeper};
    use psync_executor::{ClockNode, Engine, OffsetClock};

    fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    fn at(n: i64) -> Time {
        Time::ZERO + ms(n)
    }

    #[test]
    fn engine_metrics_count_steps_and_advances() {
        let hub = MetricsHub::new();
        let mut engine = Engine::builder()
            .timed(Beeper::new(ms(10)))
            .observer(hub.engine_observer())
            .horizon(at(35))
            .build();
        let run = engine.run().unwrap();
        let snap = hub.snapshot();
        assert_eq!(snap.counter("engine.steps"), run.execution.len() as u64);
        assert_eq!(snap.counter("engine.steps.output"), 3);
        assert_eq!(snap.counter("engine.action.BEEP"), 3);
        assert!(snap.counter("engine.advances") >= 3);
        assert!(snap.histogram("engine.queue_depth").is_some());
    }

    #[test]
    fn clock_drift_is_recorded_per_read() {
        let hub = MetricsHub::new();
        let node = ClockNode::new("n0", ms(2), OffsetClock::new(ms(-2), ms(2)))
            .with(ClockBeeper::new(ms(10)));
        let mut engine = Engine::builder()
            .clock_node(node)
            .observer(hub.engine_observer())
            .horizon(at(25))
            .build();
        engine.run().unwrap();
        let snap = hub.snapshot();
        assert!(snap.counter("engine.clock_reads") > 0);
        let drift = snap.histogram("engine.clock_drift_ns").unwrap();
        assert_eq!(drift.max(), ms(2).as_nanos());
    }

    #[test]
    fn hub_restore_rewinds_to_a_snapshot() {
        let hub = MetricsHub::new();
        hub.add("x", 3);
        let snap = hub.snapshot();
        hub.add("x", 5);
        hub.add("y", 1);
        hub.restore(&snap);
        assert_eq!(hub.snapshot(), snap);
        assert_eq!(hub.snapshot().counter("x"), 3);
        assert_eq!(hub.snapshot().counter("y"), 0);
    }

    #[test]
    fn checkpoint_counters_are_recorded_and_suppressible() {
        use psync_automata::toys::BeepAction;

        let hub = MetricsHub::new();
        let mut counting = hub.engine_observer();
        Observer::<BeepAction>::on_checkpoint(&mut counting, 4);
        Observer::<BeepAction>::on_restore(&mut counting, &[]);
        assert_eq!(hub.snapshot().counter("engine.checkpoints"), 1);
        assert_eq!(hub.snapshot().counter("engine.restores"), 1);

        let quiet_hub = MetricsHub::new();
        let mut quiet = quiet_hub.engine_observer().without_checkpoint_counters();
        Observer::<BeepAction>::on_checkpoint(&mut quiet, 4);
        Observer::<BeepAction>::on_restore(&mut quiet, &[]);
        assert_eq!(quiet_hub.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn equal_action_names_at_two_addresses_feed_one_counter() {
        let copy = || -> &'static str { Box::leak(String::from("RECVMSG").into_boxed_str()) };
        let (first, second) = (copy(), copy());
        assert!(!std::ptr::eq(first, second));

        let hub = MetricsHub::new();
        let mut tap = hub.engine_observer();
        for (index, action) in [first, second, first].into_iter().enumerate() {
            let event = TimedEvent {
                action,
                kind: ActionKind::Input,
                now: at(1),
                clock: None,
                node: None,
            };
            tap.on_event(index, &event);
        }
        let snap = hub.snapshot();
        assert_eq!(snap.counter("engine.action.RECVMSG"), 3);
        assert_eq!(snap.counter("engine.deliveries"), 3);
        assert_eq!(
            snap.counters.len(),
            4,
            "steps, steps.input and the two above"
        );
    }

    #[test]
    fn c_eps_monitor_accepts_envelope_and_rejects_beyond() {
        let mut ok = CEpsMonitor::new();
        ok.observe(ClockRead {
            node: 0,
            now: at(10),
            clock: at(12),
            eps: ms(2),
        });
        assert!(ok.verdict().holds());
        assert_eq!(ok.worst_skew(), ms(2));

        let mut bad = CEpsMonitor::with_eps(ms(1));
        bad.observe(ClockRead {
            node: 3,
            now: at(10),
            clock: at(12),
            eps: ms(2),
        });
        assert!(!bad.verdict().holds());
        assert_eq!(bad.reads(), 1);
    }

    #[test]
    fn c_eps_oracle_judges_recorded_executions() {
        let node = ClockNode::new("n0", ms(2), OffsetClock::new(ms(2), ms(2)))
            .with(ClockBeeper::new(ms(10)));
        let mut engine = Engine::builder().clock_node(node).horizon(at(25)).build();
        let exec = engine.run().unwrap().execution;
        assert!(
            Oracle::<psync_automata::toys::BeepAction>::check(&CEpsOracle::new(ms(2)), &exec)
                .holds()
        );
        assert!(
            !Oracle::<psync_automata::toys::BeepAction>::check(&CEpsOracle::new(ms(1)), &exec)
                .holds()
        );
    }
}
