//! The execution engine: composition + run loop.
//!
//! # Incremental architecture
//!
//! The engine is *incremental*: every phase of the run loop costs in
//! proportion to the components it has to touch, not to the components
//! the system has. What it keeps, and what each phase reads:
//!
//! * a per-component **enabled cache** with a dirty set — only components
//!   whose state or clock changed since the last query are re-asked for
//!   their enabled actions, and their segments of the persistent
//!   candidate list are spliced in place, each segment's start found in
//!   O(log n) by a Fenwick tree over the segment lengths;
//! * a **routing table**: per action name, the components whose
//!   [`TimedComponent::action_names`] hint lists it (built once at
//!   [`EngineBuilder::build`]); and under it, per
//!   [`Action::route_key`], the components that actually have an action
//!   of that name and key in signature (found at the key's first fire by
//!   asking the components that declared it as their
//!   [`TimedComponent::signature_key`], or declared none). `SENDMSG_i(j, m)`
//!   visits node `i`'s algorithm and edge `(i, j)`'s send buffer, not all;
//! * per component, the **wake hint and deadline** it reported when time
//!   last had to pass after it changed, indexed per *time basis* — real time for
//!   the timed components, its own clock for each node: a [`WakeSet`]
//!   (components hinting `Always`, plus a lazy min-heap of `At(t)` hints)
//!   and the deadlines (a lazy min-heap for real time, where only the
//!   earliest matters; the set of holders per node, where the strategy is
//!   asked about each). A component's [`WakeHint`] promises that time
//!   passage short of the hinted instant changes nothing about it, so
//!   these entries stay exact while the component sleeps.
//!
//! Per **event**: one routing lookup, a step of each component that
//! shares the action, and a refresh of the enabled sets of exactly those
//! components. Per **`ν`**: the components refreshed since the last `ν`
//! are asked their hint and deadline (once each, however many
//! same-instant events touched them); `compute_target` reads the cached
//! deadlines — the `Always` timed components are the only other ones
//! asked — and `advance_to` wakes, on each basis, the components whose
//! hint has come due, in deterministic `(time, component-index)` order.
//! The one term that is O(nodes) per `ν` is the clock strategies: each is
//! consulted, and its clock validated, exactly once per `ν` in node order
//! (that stream is observable). It is *not* O(components): a node never
//! reads another node's clock, so which of its components `ν` can affect
//! is decided by that node's own hints alone.
//!
//! The event log is an arena ([`EventArena`]) shared by `Arc`: run
//! snapshots and observers all view the same flat storage, so
//! snapshotting is O(1) and the engine copy-on-writes only when it
//! appends past a still-live snapshot.
//!
//! All of this is invisible in the recorded executions: the candidate
//! order, scheduler consultation and event log are bit-identical to the
//! straightforward scan-everything implementation preserved in
//! [`ReferenceEngine`](crate::ReferenceEngine) (see the `engine_equiv`
//! integration tests, and `tests/engine_equiv_dc.rs` at the workspace
//! root for the D_C register system).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use psync_automata::ClockComponent;
use psync_automata::{
    Action, ArenaSnapshot, ClockComponentBox, ClockPredicate, ComponentBox, DynState, EventArena,
    Execution, TimedComponent, TimedEvent, WakeHint,
};
use psync_time::{Duration, Time};

use crate::clock_driver::{AdvanceCtx, ClockStrategy};
use crate::error::EngineError;
use crate::fasthash::FastBuildHasher;
use crate::fenwick::SegLens;
use crate::observer::{ClockRead, Observer};
use crate::scheduler::{FifoScheduler, Scheduler};
use crate::wakeheap::{WakeHeap, WakeSet};

/// Default cap on recorded events, guarding against Zeno compositions.
const DEFAULT_MAX_EVENTS: usize = 1_000_000;

/// After this many consecutive estimate-guided advances with no event, the
/// engine falls back to the `Dc + ε` hard cap to guarantee progress.
const IDLE_ADVANCE_FALLBACK: u32 = 8;

struct TimedRuntime<A: Action> {
    comp: ComponentBox<A>,
    state: DynState,
}

struct NodeRuntime<A: Action> {
    /// Interned at `build()`: the engine shares this one allocation into
    /// every event the node performs (an `Arc` refcount bump per event,
    /// never a `String` clone).
    name: Arc<str>,
    comps: Vec<(ClockComponentBox<A>, DynState)>,
    clock: Time,
    strategy: Box<dyn ClockStrategy>,
    pred: ClockPredicate,
    /// Flat id of `comps[0]`.
    base: usize,
    /// Derived: which components an advance of this node's clock wakes
    /// (their `clock_wake` hints, indexed; see [`WakeSet`]).
    wake: WakeSet,
    /// Derived: flat ids of the components that cached a clock deadline at
    /// their last refresh, unordered (`Engine::holder_pos` finds an id's
    /// slot). A node's `ν` precondition and `compute_target`'s aim read
    /// these instead of asking every component.
    holders: Vec<usize>,
}

/// A group of clock components sharing one node clock — the clock-automaton
/// composition of Definition 2.7, plus the clock *behavior* (strategy) and
/// envelope (`ε`) that the paper's clock subsystem would provide.
///
/// # Examples
///
/// ```
/// use psync_automata::toys::ClockBeeper;
/// use psync_executor::{ClockNode, PerfectClock};
/// use psync_time::Duration;
///
/// let node = ClockNode::new("n0", Duration::from_millis(2), PerfectClock)
///     .with(ClockBeeper::new(Duration::from_millis(10)));
/// ```
pub struct ClockNode<A: Action> {
    pub(crate) name: String,
    pub(crate) eps: Duration,
    pub(crate) strategy: Box<dyn ClockStrategy>,
    pub(crate) comps: Vec<ClockComponentBox<A>>,
}

impl<A: Action> ClockNode<A> {
    /// Creates an empty node with skew bound `eps` and a clock strategy.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        eps: Duration,
        strategy: impl ClockStrategy + 'static,
    ) -> Self {
        assert!(!eps.is_negative(), "skew bound must be non-negative");
        ClockNode {
            name: name.into(),
            eps,
            strategy: Box::new(strategy),
            comps: Vec::new(),
        }
    }

    /// Adds a clock component to the node.
    #[must_use]
    pub fn with<C: ClockComponent<Action = A>>(mut self, comp: C) -> Self {
        self.comps.push(ClockComponentBox::new(comp));
        self
    }

    /// Adds an already-boxed clock component to the node.
    #[must_use]
    pub fn with_boxed(mut self, comp: ClockComponentBox<A>) -> Self {
        self.comps.push(comp);
        self
    }

    /// The node's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The time horizon was reached.
    Horizon,
    /// No component had anything left to do and no deadline was pending.
    Quiescent,
    /// An [`Engine::run_until_events`] pause point was reached. The engine
    /// state is exactly the state between two events of the uninterrupted
    /// run: calling `run` (or `run_until_events` again) continues
    /// bit-identically.
    Paused,
}

/// The result of a completed run: the recorded execution and why it ended.
#[derive(Debug, Clone)]
pub struct Run<A> {
    /// The recorded execution.
    pub execution: Execution<A>,
    /// Why the run ended.
    pub stop: StopReason,
}

/// Builds an [`Engine`] from components, nodes and policies.
pub struct EngineBuilder<A: Action> {
    timed: Vec<ComponentBox<A>>,
    nodes: Vec<ClockNode<A>>,
    scheduler: Box<dyn Scheduler<A>>,
    horizon: Option<Time>,
    max_events: usize,
    observers: Vec<Box<dyn Observer<A>>>,
}

impl<A: Action> Default for EngineBuilder<A> {
    fn default() -> Self {
        EngineBuilder {
            timed: Vec::new(),
            nodes: Vec::new(),
            scheduler: Box::new(FifoScheduler),
            horizon: None,
            max_events: DEFAULT_MAX_EVENTS,
            observers: Vec::new(),
        }
    }
}

impl<A: Action> EngineBuilder<A> {
    /// Adds a timed component (channel, environment, workload, node
    /// algorithm in the timed model…).
    #[must_use]
    pub fn timed<C: TimedComponent<Action = A>>(mut self, comp: C) -> Self {
        self.timed.push(ComponentBox::new(comp));
        self
    }

    /// Adds an already-boxed timed component.
    #[must_use]
    pub fn timed_boxed(mut self, comp: ComponentBox<A>) -> Self {
        self.timed.push(comp);
        self
    }

    /// Adds a clock node (a group of clock components sharing one clock).
    #[must_use]
    pub fn clock_node(mut self, node: ClockNode<A>) -> Self {
        self.nodes.push(node);
        self
    }

    /// Sets the scheduler (default: [`FifoScheduler`]).
    #[must_use]
    pub fn scheduler(mut self, s: impl Scheduler<A> + 'static) -> Self {
        self.scheduler = Box::new(s);
        self
    }

    /// Stops the run when real time reaches `horizon`.
    #[must_use]
    pub fn horizon(mut self, horizon: Time) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Caps the number of recorded events (default 1 000 000).
    #[must_use]
    pub fn max_events(mut self, max: usize) -> Self {
        self.max_events = max;
        self
    }

    /// Attaches an [`Observer`]; may be called several times, observers are
    /// notified in attachment order. Observers are read-only taps — the
    /// recorded execution is bit-identical with or without them.
    #[must_use]
    pub fn observer(mut self, obs: impl Observer<A> + 'static) -> Self {
        self.observers.push(Box::new(obs));
        self
    }

    /// Attaches an already-boxed observer.
    #[must_use]
    pub fn observer_boxed(mut self, obs: Box<dyn Observer<A>>) -> Self {
        self.observers.push(obs);
        self
    }

    /// Builds the engine with all components in their start states and
    /// `now = clock = 0` (axioms S1 and C1).
    ///
    /// This is also where the per-name half of the **routing table** is
    /// assembled: each component's [`TimedComponent::action_names`] hint is
    /// read once, and components are indexed by the action names they
    /// admit. Components without a hint land in the wildcard set and are
    /// visited for every action, so hint-less components behave exactly as
    /// before. The per-key half (and the declarations it reads) fills in as
    /// keys fire (`visit_list`): nothing is added to `build()` for it.
    #[must_use]
    pub fn build(self) -> Engine<A> {
        let timed: Vec<TimedRuntime<A>> = self
            .timed
            .into_iter()
            .map(|comp| {
                let state = comp.initial();
                TimedRuntime { comp, state }
            })
            .collect();
        // Flat component index space: timed components first, then each
        // node's components, all in insertion order. This is the engine's
        // canonical iteration order; everything below preserves it.
        let mut flat_origin: Vec<Origin> = (0..timed.len()).map(Origin::Timed).collect();
        let nodes: Vec<NodeRuntime<A>> = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(n, spec)| {
                let base = flat_origin.len();
                flat_origin.extend((0..spec.comps.len()).map(|j| Origin::Node(n, j)));
                NodeRuntime {
                    name: Arc::from(spec.name.as_str()),
                    comps: spec
                        .comps
                        .into_iter()
                        .map(|c| {
                            let s = c.initial();
                            (c, s)
                        })
                        .collect(),
                    clock: Time::ZERO,
                    strategy: spec.strategy,
                    pred: ClockPredicate::skew(spec.eps),
                    base,
                    wake: WakeSet::new(base..flat_origin.len()),
                    holders: Vec::new(),
                }
            })
            .collect();
        let flat_count = flat_origin.len();
        assert!(
            u32::try_from(flat_count).is_ok(),
            "component count fits u32"
        );

        let mut hinted: HashMap<&'static str, Vec<u32>> = HashMap::new();
        let mut wildcard: Vec<u32> = Vec::new();
        for (id, origin) in flat_origin.iter().enumerate() {
            let hint = match *origin {
                Origin::Timed(i) => timed[i].comp.action_names(),
                Origin::Node(n, j) => nodes[n].comps[j].0.action_names(),
            };
            let id = id as u32;
            match hint {
                None => wildcard.push(id),
                Some(names) => {
                    for name in names {
                        let ids = hinted.entry(name).or_default();
                        if ids.last() != Some(&id) {
                            ids.push(id);
                        }
                    }
                }
            }
        }
        // Merge each hinted list with the wildcard ids *once*, here: firing
        // an action then iterates a precomputed ascending visit list with no
        // per-event merge work. (A component is hinted or wildcard, never
        // both, so the merge never produces duplicates.) All lists live in
        // one pool; the per-key lists `visit_list` memoises later are
        // appended to it.
        let mut route_pool: Vec<u32> = wildcard.clone();
        let wildcard_span = Span::appended(&route_pool, 0);
        let route: HashMap<&'static str, NameRoute, FastBuildHasher> = hinted
            .into_iter()
            .map(|(name, ids)| {
                let start = route_pool.len();
                let (mut i, mut j) = (0, 0);
                while i < ids.len() && j < wildcard.len() {
                    if ids[i] < wildcard[j] {
                        route_pool.push(ids[i]);
                        i += 1;
                    } else {
                        route_pool.push(wildcard[j]);
                        j += 1;
                    }
                }
                route_pool.extend_from_slice(&ids[i..]);
                route_pool.extend_from_slice(&wildcard[j..]);
                let all = Span::appended(&route_pool, start);
                let (keyed, split) = (HashMap::default(), None);
                (name, NameRoute { all, keyed, split })
            })
            .collect();

        let timed_count = timed.len();
        // The arena is born knowing every node name: events then share the
        // interned `Arc<str>`s, and index-based consumers can resolve a
        // name without touching the events.
        let mut arena = EventArena::new();
        for node in &nodes {
            arena.intern(&node.name);
        }
        Engine {
            timed,
            nodes,
            now: Time::ZERO,
            scheduler: self.scheduler,
            events: Arc::new(arena),
            horizon: self.horizon,
            max_events: self.max_events,
            idle_advances: 0,
            observers: self.observers,
            flat_origin,
            route,
            wildcard: wildcard_span,
            route_pool,
            enabled_cache: vec![Vec::new(); flat_count],
            dirty: vec![true; flat_count],
            dirty_ids: Vec::new(),
            all_dirty: true,
            seg: SegLens::new(flat_count),
            dup_map: HashMap::default(),
            cand: Vec::new(),
            cand_origin: Vec::new(),
            wake_cached: vec![WakeHint::Always; flat_count],
            wake_flags: vec![0; flat_count],
            dl_cached: vec![None; flat_count],
            timed_wake: WakeSet::new(0..timed_count),
            dl_heap: WakeHeap::new(),
            holder_pos: vec![NOT_HOLDING; flat_count],
            unnoted: Vec::new(),
            note_due: vec![false; flat_count],
            touched_scratch: Vec::new(),
        }
    }
}

/// Where an enabled action came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Timed(usize),
    Node(usize, usize),
}

/// A visit list: `route_pool[start..start + len]`, ascending flat ids.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The list appended to the pool since it was `start` long.
    fn appended(pool: &[u32], start: usize) -> Span {
        let fits = |n: usize| u32::try_from(n).expect("route table fits u32");
        Span {
            start: fits(start),
            len: fits(pool.len() - start),
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The routes of one action name.
struct NameRoute {
    /// Every component whose `action_names` hint lists the name, merged
    /// with the wildcard components — the visit list of an action that
    /// carries no [`Action::route_key`].
    all: Span,
    /// Route key → the members of `all` that have an action of this name
    /// and key in signature, memoised by [`Engine::visit_list`] the first
    /// time the key fires. Fast-hashed: looked up once per fired event.
    keyed: HashMap<u64, Span, FastBuildHasher>,
    /// `all` split by `signature_key`, read at the name's first keyed fire.
    split: Option<Declared>,
}

/// The members of one name's `all` list, by what they declared.
struct Declared {
    /// The members that declared no key, ascending.
    undeclared: Span,
    /// The others as `(key, id)`, sorted: a key's declarers are one run.
    keyed: Box<[(u64, u32)]>,
}

/// `holder_pos` value of a component that caches no clock deadline.
const NOT_HOLDING: u32 = u32::MAX;

/// The composed system plus its run state.
///
/// See the [crate docs](crate) for the execution semantics, the
/// crate-level example for typical use, and the module docs (`engine.rs`) for
/// the incremental machinery (routing table, enabled cache, hint and
/// deadline caches) that keeps the run loop from rescanning every
/// component on every event.
pub struct Engine<A: Action> {
    timed: Vec<TimedRuntime<A>>,
    nodes: Vec<NodeRuntime<A>>,
    now: Time,
    scheduler: Box<dyn Scheduler<A>>,
    events: Arc<EventArena<A>>,
    horizon: Option<Time>,
    max_events: usize,
    idle_advances: u32,
    /// Read-only taps notified at the four observation points (see
    /// [`Observer`]); empty unless attached, in which case every hook site
    /// iterates an empty vector.
    observers: Vec<Box<dyn Observer<A>>>,

    // ---- incremental machinery (derived, never observable in traces) ----
    /// Flat component id → where it lives. Timed components first, then
    /// node components, all in insertion order.
    flat_origin: Vec<Origin>,
    /// Action name → its visit lists (see [`NameRoute`]). Fast-hashed:
    /// looked up once per fired event.
    route: HashMap<&'static str, NameRoute, FastBuildHasher>,
    /// The components without an `action_names` hint — the visit list for
    /// action names no hint mentions.
    wildcard: Span,
    /// Backing store of every visit list: the per-name lists laid down by
    /// `build()`, then undeclared members and per-key lists as first needed.
    /// `u32` ids and one allocation keep the table small — a complete graph
    /// has one key per edge and direction.
    route_pool: Vec<u32>,
    /// Per-component cached `enabled()` result; valid iff not dirty.
    enabled_cache: Vec<Vec<A>>,
    /// Components whose state or clock changed since their cache entry was
    /// last refreshed.
    dirty: Vec<bool>,
    /// The ids currently flagged in `dirty`, unordered (sorted on use);
    /// meaningless while `all_dirty` is set. Lets the refresh visit only
    /// the changed components instead of scanning every flag.
    dirty_ids: Vec<usize>,
    /// Every component is dirty (initial state, and after every time
    /// advance) — cheaper than pushing all ids into `dirty_ids`.
    all_dirty: bool,
    /// `seg.get(id)` is the number of candidates component `id`
    /// contributes to `cand` — the length of its segment in the
    /// concatenation invariant (see `refresh_candidates`) — and
    /// `seg.start(id)` where that segment begins, in O(log n).
    seg: SegLens,
    /// Currently enabled action → the flat id offering it, maintained
    /// incrementally as caches refresh. Two components claiming the same
    /// action is the Definition 2.2 incompatibility; the map detects it in
    /// O(dirty) per event instead of a pairwise scan over all candidates.
    /// Fast-hashed: every offer of every dirty component is hashed on every
    /// refresh, making this the hottest hashing site in the engine.
    dup_map: HashMap<A, usize, FastBuildHasher>,
    /// Scratch: current candidates, concatenation of the caches in flat
    /// order.
    cand: Vec<A>,
    /// Scratch: `cand_origin[i]` is the flat id that offered `cand[i]`
    /// (ascending).
    cand_origin: Vec<usize>,
    /// Component `id`'s wake hint as last noted (flat index; `wake_hint`
    /// at `now` for a timed component, `clock_wake` at the node clock for a
    /// node component). Once `settle_notes` has run the entry equals what
    /// the component would answer now: it was either noted since the last
    /// advance, or skipped by every advance since its note — which its
    /// hint promised changes nothing.
    wake_cached: Vec<WakeHint>,
    /// Per-component list-membership bits of the [`WakeSet`]s.
    wake_flags: Vec<u8>,
    /// Component `id`'s `deadline` / `clock_deadline` as of the same
    /// note, exact for the same reason. Not kept for a
    /// *timed* component hinting `Always` (its deadline is re-queried on
    /// every `compute_target`).
    dl_cached: Vec<Option<Time>>,
    /// Which timed components a real-time advance wakes.
    timed_wake: WakeSet,
    /// Lazy min-heap of `(deadline, timed id)` over the non-`Always` timed
    /// components; an entry is live iff the component still caches that
    /// deadline. Its live top is the earliest timed deadline
    /// `compute_target` needs, found without scanning.
    dl_heap: WakeHeap,
    /// Node component `id`'s slot in its node's `holders`, or
    /// [`NOT_HOLDING`].
    holder_pos: Vec<u32>,
    /// Components refreshed since their hint and deadline were last noted
    /// (`note_due[id]` iff `id` is listed); `settle_notes` empties it
    /// before time passes.
    unnoted: Vec<usize>,
    note_due: Vec<bool>,
    /// Scratch for the ids woken by one time advance.
    touched_scratch: Vec<usize>,
}

impl<A: Action> Engine<A> {
    /// Starts building an engine.
    #[must_use]
    pub fn builder() -> EngineBuilder<A> {
        EngineBuilder::default()
    }

    /// The current real time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The current clock of node `idx` (in insertion order).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn node_clock(&self, idx: usize) -> Time {
        self.nodes[idx].clock
    }

    /// Views the state of timed component `idx` as a concrete type, for
    /// tests and diagnostics.
    #[must_use]
    pub fn timed_state<S: 'static>(&self, idx: usize) -> Option<&S> {
        self.timed.get(idx)?.state.downcast_ref::<S>()
    }

    /// The events recorded so far.
    #[must_use]
    pub fn events(&self) -> &[TimedEvent<A>] {
        self.events.events()
    }

    /// Extends (or sets) the horizon and continues the run — incremental
    /// driving for interactive exploration. The returned execution always
    /// contains *all* events since the start, so a sequence of
    /// `run_until` calls observes the same execution a single `run` with
    /// the final horizon would have produced (the engine's state persists
    /// between calls).
    ///
    /// # Examples
    ///
    /// ```
    /// use psync_automata::toys::Beeper;
    /// use psync_executor::Engine;
    /// use psync_time::{Duration, Time};
    ///
    /// let ms = Duration::from_millis;
    /// let mut engine = Engine::builder().timed(Beeper::new(ms(7))).build();
    /// let first = engine.run_until(Time::ZERO + ms(10))?;
    /// assert_eq!(first.execution.len(), 1); // the 7 ms beep
    /// let second = engine.run_until(Time::ZERO + ms(20))?;
    /// assert_eq!(second.execution.len(), 2); // 7 ms and 14 ms
    /// # Ok::<(), psync_executor::EngineError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As for [`Engine::run`].
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is earlier than the current time (time cannot
    /// run backwards).
    pub fn run_until(&mut self, horizon: Time) -> Result<Run<A>, EngineError> {
        assert!(
            horizon >= self.now,
            "horizon {horizon} is before the current time {}",
            self.now
        );
        self.horizon = Some(horizon);
        self.run()
    }

    /// Runs to quiescence or the horizon, consuming the engine's current
    /// state and returning the recorded execution.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] when the composition is ill-formed (see
    /// the error type for the catalogue); the partial event history is
    /// available through [`Engine::events`] afterwards.
    pub fn run(&mut self) -> Result<Run<A>, EngineError> {
        self.run_inner(None)
    }

    /// Runs until the execution holds at least `pause_at` events, then
    /// pauses ([`StopReason::Paused`]) with the engine state exactly as it
    /// is between two events of the uninterrupted run: the pasting lemma's
    /// cut (Lemma 2.1), taken in place. If the run ends (horizon, quiescence)
    /// before reaching `pause_at` events, the natural stop reason is
    /// returned instead. A paused engine resumes with [`Engine::run`] or a
    /// further `run_until_events`, bit-identically to never having paused.
    ///
    /// Pausing is event-count-based on purpose: a time-based cut could
    /// split a `ν` advance in two, which consults the clock strategies
    /// with different targets than the uninterrupted run would.
    ///
    /// # Errors
    ///
    /// As for [`Engine::run`].
    pub fn run_until_events(&mut self, pause_at: usize) -> Result<Run<A>, EngineError> {
        self.run_inner(Some(pause_at))
    }

    /// Like [`Engine::run_until`], but guarantees `now == horizon` on a
    /// clean return: if the run goes quiescent short of the horizon, time
    /// is advanced through `ν` to the horizon anyway (possibly enabling
    /// clock-deadline work, which is then run too).
    ///
    /// [`Engine::run_until`] deliberately leaves a quiescent engine's
    /// clock where it stopped — the simulator has no use for idle time.
    /// A live runtime does: wall time passes whether or not the node has
    /// work, and an injection ([`Engine::inject`]) must be recorded at
    /// the *current wall time*, not at whenever the node last had
    /// something to do. Quiescence here is exactly the case where
    /// arbitrary delay is legal (no deadline is pending), so pushing `ν`
    /// to the horizon stays inside the model.
    ///
    /// # Errors
    ///
    /// As for [`Engine::run`].
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is earlier than the current time.
    pub fn run_idle_until(&mut self, horizon: Time) -> Result<Run<A>, EngineError> {
        loop {
            let run = self.run_until(horizon)?;
            if self.now >= horizon {
                return Ok(run);
            }
            self.advance_to(horizon)?;
        }
    }

    /// Applies an *environment-supplied* input action at the current time
    /// and records it — exactly as if an external composition partner had
    /// just fired it as its output.
    ///
    /// This is the seam a live runtime drives: an engine that holds only
    /// one node of a distributed system receives that node's message
    /// deliveries (with their *measured* wire delays) and workload
    /// invocations through `inject`, while everything the node itself
    /// controls still fires through the normal scheduling loop. Injection
    /// is synchronous and ordered: the event is appended to the log at
    /// [`Engine::now`], observers see it like any engine-fired event, and
    /// the next [`Engine::run_until`] call resumes with the components
    /// already stepped.
    ///
    /// Every interested component must classify the action as
    /// [`ActionKind::Input`](psync_automata::ActionKind) — the environment
    /// controls an injected action, so a locally-controlled claim is the
    /// same incompatibility as two composed components both claiming an
    /// output. The recorded event carries the clock of the unique node
    /// that steps on it (the `c_i(α)` of Section 4.3), like any other.
    ///
    /// # Errors
    ///
    /// [`EngineError::IncompatibleControllers`] if a component claims the
    /// action as locally controlled; [`EngineError::InputNotEnabled`] if a
    /// component has it in signature but refuses the step;
    /// [`EngineError::UnclaimedInjection`] if no component has it in
    /// signature at all (the injection would vanish without a trace, which
    /// is always a plumbing bug in the caller).
    pub fn inject(&mut self, action: A) -> Result<(), EngineError> {
        self.apply(action, None)
    }

    fn run_inner(&mut self, pause_at: Option<usize>) -> Result<Run<A>, EngineError> {
        loop {
            if let Some(p) = pause_at {
                if self.events.len() >= p {
                    let now = self.now;
                    return Ok(self.finish(StopReason::Paused, now));
                }
            }
            if self.events.len() >= self.max_events {
                return Err(EngineError::EventLimitExceeded {
                    limit: self.max_events,
                    now: self.now,
                });
            }
            if let Some(h) = self.horizon {
                if self.now >= h {
                    return Ok(self.finish(StopReason::Horizon, h));
                }
            }

            self.refresh_candidates()?;
            if !self.cand.is_empty() {
                let (now, depth) = (self.now, self.cand.len());
                for obs in &mut self.observers {
                    obs.on_candidates(now, depth);
                }
                let idx = self
                    .scheduler
                    .pick_with_origins(self.now, &self.cand, &self.cand_origin);
                assert!(
                    idx < self.cand.len(),
                    "scheduler returned out-of-range index"
                );
                // Clone exactly the picked action — the candidate list is
                // maintained in place across events (see
                // `refresh_candidates`), so the other candidates are never
                // re-cloned, and this one slot must stay intact for the
                // next splice.
                let origin = self.flat_origin[self.cand_origin[idx]];
                let action = self.cand[idx].clone();
                self.apply(action, Some(origin))?;
                self.idle_advances = 0;
                continue;
            }

            match self.compute_target(self.idle_advances >= IDLE_ADVANCE_FALLBACK)? {
                None => {
                    let ltime = self.horizon.unwrap_or(self.now).max(self.now);
                    return Ok(self.finish(StopReason::Quiescent, ltime));
                }
                Some(target) => {
                    debug_assert!(target > self.now);
                    let capped = match self.horizon {
                        Some(h) if target > h => h,
                        _ => target,
                    };
                    if capped > self.now {
                        self.advance_to(capped)?;
                        self.idle_advances += 1;
                    }
                    if Some(capped) == self.horizon && capped < target {
                        return Ok(self.finish(StopReason::Horizon, capped));
                    }
                }
            }
        }
    }

    fn finish(&mut self, stop: StopReason, ltime: Time) -> Run<A> {
        // O(1): the run keeps an arena view of the shared event log. The
        // engine copy-on-writes (`Arc::make_mut`) only if it appends again
        // while this snapshot is still alive.
        Run {
            execution: Execution::from_snapshot(
                ArenaSnapshot::full(Arc::clone(&self.events)),
                ltime.max(self.now),
            ),
            stop,
        }
    }

    /// Refreshes the enabled caches of dirty components and patches the
    /// candidate list.
    ///
    /// Invariant (holds whenever the scheduler is consulted): `cand` is
    /// the concatenation of the enabled caches in flat order — the same
    /// order the scan-everything engine produces: timed components in
    /// insertion order, then node components, each component's `enabled()`
    /// result in its own order — `cand_origin[i]` is the flat id owning
    /// `cand[i]`, and `seg_len[id]` is the length of id's segment.
    ///
    /// The list is maintained *in place*: only the dirty components'
    /// segments are spliced out and replaced (a tail memmove), instead of
    /// re-cloning every candidate of every component on every event. An
    /// event typically dirties two components out of many, so this turns
    /// the per-event cost from O(total candidates) clones into O(dirty
    /// segments) clones plus a memmove.
    ///
    /// When *everything* is dirty — the state after any time advance —
    /// per-segment splicing would pay one tail memmove per component for
    /// a list that is being wholly replaced anyway, so that case takes a
    /// flat rebuild instead: same re-queries, same duplicate-map
    /// registrations in the same id order, one append-only pass over the
    /// list. The two paths leave identical state; only the shuffling
    /// differs.
    fn refresh_candidates(&mut self) -> Result<(), EngineError> {
        if self.all_dirty {
            return self.rebuild_candidates();
        }
        // Ascending order keeps both the splice arithmetic and the
        // conflict attribution ("first" vs "second" claimant)
        // identical to a full scan in id order.
        self.dirty_ids.sort_unstable();
        // Pass 1: retire the dirty components' old offers from the
        // duplicate map. Only entries a component owns are removed — by the
        // map's invariant (a conflicting claim ends the run on the spot) an
        // entry under another id belongs to a component that still offers
        // the action.
        for k in 0..self.dirty_ids.len() {
            let id = self.dirty_ids[k];
            for a in &self.enabled_cache[id] {
                if self.dup_map.get(a) == Some(&id) {
                    self.dup_map.remove(a);
                }
            }
        }
        // Pass 2: re-query, re-register, splice. Two distinct components
        // offering the same action value means two controllers: the
        // composition is incompatible (Definition 2.2). The persistent map
        // detects a conflict the moment it first exists — the same loop
        // iteration a pairwise scan over all candidates would — in
        // O(dirty) per event.
        for k in 0..self.dirty_ids.len() {
            let id = self.dirty_ids[k];
            let fresh = match self.flat_origin[id] {
                Origin::Timed(i) => {
                    let rt = &self.timed[i];
                    rt.comp.enabled(&rt.state, self.now)
                }
                Origin::Node(n, j) => {
                    let node = &self.nodes[n];
                    let (comp, state) = &node.comps[j];
                    comp.enabled(state, node.clock)
                }
            };
            for a in &fresh {
                // Entry API: one hash lookup per action instead of a
                // `get` + `insert` pair. Pass 1 retired this component's
                // own offers, so the entry is vacant in the common case;
                // occupied-by-self only happens when a component offers
                // the same action twice, occupied-by-other is the
                // Definition 2.2 incompatibility.
                let owner = match self.dup_map.entry(a.clone()) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(v) => *v.insert(id),
                };
                if owner != id {
                    return Err(EngineError::IncompatibleControllers {
                        first: self.origin_name(self.flat_origin[owner]),
                        second: self.origin_name(self.flat_origin[id]),
                        action: format!("{a:?}"),
                    });
                }
            }
            // Replace id's segment of the candidate list. Earlier dirty
            // ids have already been spliced, so the prefix sum over the
            // segment lengths is the segment's current start.
            let start = self.seg.start(id);
            let old_len = self.seg.get(id);
            self.cand
                .splice(start..start + old_len, fresh.iter().cloned());
            self.cand_origin
                .splice(start..start + old_len, std::iter::repeat_n(id, fresh.len()));
            self.seg.set(id, fresh.len());
            self.enabled_cache[id] = fresh;
            self.dirty[id] = false;
            // Its hint and deadline are read when time next has to pass
            // (`settle_notes`) — once, however many same-instant events
            // refresh it before then.
            if !self.note_due[id] {
                self.note_due[id] = true;
                self.unnoted.push(id);
            }
        }
        self.dirty_ids.clear();
        Ok(())
    }

    /// The all-dirty refresh: re-queries every component and rebuilds the
    /// candidate list append-only. Every map entry's owner is dirty, so
    /// retiring old offers is one `clear()`; re-registration then visits
    /// ids in the same ascending order as the splice path, keeping
    /// conflict attribution identical.
    fn rebuild_candidates(&mut self) -> Result<(), EngineError> {
        self.dup_map.clear();
        self.cand.clear();
        self.cand_origin.clear();
        // Everything is re-noted below, so the wake structures restart
        // empty instead of accumulating one stale generation per rebuild.
        self.forget_notes();
        for id in 0..self.flat_origin.len() {
            let fresh = match self.flat_origin[id] {
                Origin::Timed(i) => {
                    let rt = &self.timed[i];
                    rt.comp.enabled(&rt.state, self.now)
                }
                Origin::Node(n, j) => {
                    let node = &self.nodes[n];
                    let (comp, state) = &node.comps[j];
                    comp.enabled(state, node.clock)
                }
            };
            for a in &fresh {
                let owner = match self.dup_map.entry(a.clone()) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(v) => *v.insert(id),
                };
                if owner != id {
                    return Err(EngineError::IncompatibleControllers {
                        first: self.origin_name(self.flat_origin[owner]),
                        second: self.origin_name(self.flat_origin[id]),
                        action: format!("{a:?}"),
                    });
                }
            }
            self.cand.extend(fresh.iter().cloned());
            self.cand_origin
                .extend(std::iter::repeat_n(id, fresh.len()));
            self.enabled_cache[id] = fresh;
            self.dirty[id] = false;
            self.note(id);
        }
        self.seg.set_all(self.enabled_cache.iter().map(Vec::len));
        self.all_dirty = false;
        self.dirty_ids.clear();
        Ok(())
    }

    /// Notes every component refreshed since time last passed: the
    /// time-passage phases call this first, so that the hint and deadline
    /// caches they read describe the states time will pass over. A
    /// component stepped by several events of one instant is asked once.
    fn settle_notes(&mut self) {
        let mut pending = std::mem::take(&mut self.unnoted);
        for &id in &pending {
            self.note_due[id] = false;
            self.note(id);
        }
        pending.clear();
        self.unnoted = pending;
        // The deadline heap accumulates stale duplicates; once they exceed
        // a small multiple of the component count, rebuild it exactly from
        // the (now all-fresh) caches.
        if self.dl_heap.len() > 2 * self.timed.len() + 64 {
            self.dl_heap.clear();
            for id in 0..self.timed.len() {
                if self.wake_cached[id] != WakeHint::Always {
                    if let Some(d) = self.dl_cached[id] {
                        self.dl_heap.push(d, id);
                    }
                }
            }
        }
    }

    /// Records component `id`'s wake hint and deadline as of its current
    /// state — the two facts the time-passage phases read instead of
    /// asking the component again.
    ///
    /// A timed component goes into `timed_wake` and, unless it hints
    /// `Always`, the deadline heap. A node component goes into its node's
    /// wake set and joins or leaves the node's deadline `holders`. Its
    /// deadline is kept whatever it hints: a component that promised
    /// nothing is woken — hence dirtied and re-noted — by every advance,
    /// so the entry is as fresh as the node clock whenever it is read.
    fn note(&mut self, id: usize) {
        match self.flat_origin[id] {
            Origin::Timed(i) => {
                let rt = &self.timed[i];
                let hint = rt.comp.wake_hint(&rt.state, self.now);
                self.timed_wake
                    .note(id, hint, &mut self.wake_cached, &mut self.wake_flags);
                if hint == WakeHint::Always {
                    self.dl_cached[id] = None;
                    return;
                }
                let d = rt.comp.deadline(&rt.state, self.now);
                self.dl_cached[id] = d;
                if let Some(d) = d {
                    self.dl_heap.push(d, id);
                }
            }
            Origin::Node(n, j) => {
                let node = &mut self.nodes[n];
                let (comp, state) = &node.comps[j];
                let hint = comp.clock_wake(state, node.clock);
                let d = comp.clock_deadline(state, node.clock);
                node.wake
                    .note(id, hint, &mut self.wake_cached, &mut self.wake_flags);
                self.dl_cached[id] = d;
                let pos = self.holder_pos[id];
                if d.is_some() && pos == NOT_HOLDING {
                    self.holder_pos[id] = node.holders.len() as u32;
                    node.holders.push(id);
                } else if d.is_none() && pos != NOT_HOLDING {
                    node.holders.swap_remove(pos as usize);
                    if let Some(&moved) = node.holders.get(pos as usize) {
                        self.holder_pos[moved] = pos;
                    }
                    self.holder_pos[id] = NOT_HOLDING;
                }
            }
        }
    }

    /// Empties every structure `note` fills; each component must be
    /// re-noted (by a refresh) before the next time advance.
    fn forget_notes(&mut self) {
        self.unnoted.clear();
        self.note_due.fill(false);
        self.timed_wake.clear(&mut self.wake_flags);
        self.dl_heap.clear();
        for node in &mut self.nodes {
            node.wake.clear(&mut self.wake_flags);
            node.holders.clear();
        }
        self.holder_pos.fill(NOT_HOLDING);
    }

    /// Forgets every derived cache. Called after a mid-advance error
    /// (states may be partially advanced, so nothing cached can be
    /// trusted).
    fn invalidate_caches(&mut self) {
        self.dirty.fill(true);
        self.dirty_ids.clear();
        self.all_dirty = true;
        self.forget_notes();
    }

    fn origin_name(&self, o: Origin) -> String {
        match o {
            Origin::Timed(i) => self.timed[i].comp.name().to_string(),
            Origin::Node(n, j) => {
                format!("{}/{}", self.nodes[n].name, self.nodes[n].comps[j].0.name())
            }
        }
    }

    /// The components to visit when `action` fires: ascending flat ids, a
    /// superset of the components that have it in signature.
    ///
    /// An action without a [`route_key`](Action::route_key) visits every
    /// component whose `action_names` hint lists its name, plus the
    /// wildcard components (a name no hint mentions visits the wildcard
    /// components alone). A keyed action visits only those of them that
    /// classify it, found at the pair's first fire by asking the members
    /// that declared its key as [`signature_key`](TimedComponent::signature_key)
    /// or none, and remembered: by the key contract every later action of
    /// that name and key has the same answer. Debug builds ask the whole
    /// list every time and compare.
    fn visit_list(&mut self, action: &A) -> Span {
        let Some(by_name) = self.route.get_mut(action.name()) else {
            return self.wildcard;
        };
        let Some(key) = action.route_key() else {
            return by_name.all;
        };
        let all = by_name.all;
        let (timed, nodes, flat_origin) = (&self.timed, &self.nodes, &self.flat_origin);
        let in_signature = |id: u32| match flat_origin[id as usize] {
            Origin::Timed(i) => timed[i].comp.classify(action).is_some(),
            Origin::Node(n, j) => nodes[n].comps[j].0.classify(action).is_some(),
        };
        let pool = &mut self.route_pool;
        let span = match by_name.keyed.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(v) => {
                let split = by_name.split.get_or_insert_with(|| {
                    let mut keyed = Vec::new();
                    let start = pool.len();
                    for slot in all.range() {
                        let id = pool[slot];
                        let own_key = match flat_origin[id as usize] {
                            Origin::Timed(i) => timed[i].comp.signature_key(),
                            Origin::Node(n, j) => nodes[n].comps[j].0.signature_key(),
                        };
                        match own_key {
                            Some(k) => keyed.push((k, id)),
                            None => pool.push(id),
                        }
                    }
                    keyed.sort_unstable();
                    Declared {
                        undeclared: Span::appended(pool, start),
                        keyed: keyed.into_boxed_slice(),
                    }
                });
                let first = split.keyed.partition_point(|&(k, _)| k < key);
                let run = split.keyed[first..].iter().take_while(|&&(k, _)| k == key);
                // Sorting the takers merges the two ascending lists into flat order.
                let start = pool.len();
                for slot in split.undeclared.range() {
                    let id = pool[slot];
                    if in_signature(id) {
                        pool.push(id);
                    }
                }
                pool.extend(run.map(|&(_, id)| id).filter(|&id| in_signature(id)));
                pool[start..].sort_unstable();
                *v.insert(Span::appended(pool, start))
            }
        };
        debug_assert!(
            pool[all.range()]
                .iter()
                .filter(|&&id| in_signature(id))
                .eq(&pool[span.range()]),
            "route_key contract broken: {action:?} is not taken by exactly its visit list \
             (a key shared across signature sets, or a signature_key it does not carry)"
        );
        span
    }

    /// Applies `action` to every component having it in signature and
    /// records the event — the synchronization rule of Definition 2.2.
    ///
    /// `origin` is the component that offered the action (it controls it,
    /// and the event is recorded with its classification); `None` means
    /// the environment did ([`Engine::inject`]: recorded as an input, and
    /// no component may claim control). Only the components on the
    /// action's [visit list](Engine::visit_list) are asked, in flat
    /// (insertion) order; every skipped component classifies the action as
    /// `None`, so the sequence of components actually stepped is identical
    /// to a full scan.
    fn apply(&mut self, action: A, origin: Option<Origin>) -> Result<(), EngineError> {
        let visit = self.visit_list(&action);
        let now = self.now;
        // The clock recorded with the event is the clock of the (unique)
        // node that has the action in its signature — the `c_i(α)` of
        // Section 4.3. Actions touching no clock node carry no clock.
        let mut event_clock: Option<(usize, Time)> = None;
        let mut origin_kind = None;
        let mut stepped = false;
        for k in visit.range() {
            let id = self.route_pool[k] as usize;
            let at = self.flat_origin[id];
            let is_origin = origin == Some(at);
            let classified = match at {
                Origin::Timed(i) => self.timed[i].comp.classify(&action),
                Origin::Node(n, j) => self.nodes[n].comps[j].0.classify(&action),
            };
            let Some(class) = classified else { continue };
            if let Origin::Node(n, _) = at {
                event_clock.get_or_insert((n, self.nodes[n].clock));
            }
            if is_origin {
                debug_assert!(class.is_locally_controlled());
                origin_kind = Some(class);
            } else if class.is_locally_controlled() {
                let second = if origin.is_some() {
                    "<origin>"
                } else {
                    "<injected>"
                };
                return Err(EngineError::IncompatibleControllers {
                    first: self.origin_name(at),
                    second: String::from(second),
                    action: format!("{action:?}"),
                });
            }
            let next = match at {
                Origin::Timed(i) => {
                    let rt = &self.timed[i];
                    rt.comp.step(&rt.state, &action, now)
                }
                Origin::Node(n, j) => {
                    let node = &self.nodes[n];
                    let (comp, state) = &node.comps[j];
                    comp.step(state, &action, node.clock)
                }
            };
            let Some(next) = next else {
                let (component, action) = (self.origin_name(at), format!("{action:?}"));
                return Err(if is_origin {
                    EngineError::EnabledButRefused {
                        component,
                        action,
                        now,
                    }
                } else {
                    EngineError::InputNotEnabled {
                        component,
                        action,
                        now,
                    }
                });
            };
            match at {
                Origin::Timed(i) => self.timed[i].state = next,
                Origin::Node(n, j) => self.nodes[n].comps[j].1 = next,
            }
            stepped = true;
            if !self.dirty[id] {
                self.dirty[id] = true;
                self.dirty_ids.push(id);
            }
        }
        let kind = match origin {
            Some(_) => origin_kind.expect("origin component must have the action in its signature"),
            None if stepped => psync_automata::ActionKind::Input,
            // Nothing has the action in signature: the injection would
            // vanish without a trace.
            None => {
                return Err(EngineError::UnclaimedInjection {
                    action: format!("{action:?}"),
                    now,
                })
            }
        };

        // The action moves into the event (it was handed over by value from
        // the candidate list) and the node name is the interned `Arc<str>`
        // shared by every event of that node — neither costs an allocation.
        let event = TimedEvent {
            node: event_clock.map(|(n, _)| Arc::clone(&self.nodes[n].name)),
            action,
            kind,
            now,
            clock: event_clock.map(|(_, c)| c),
        };
        if !self.observers.is_empty() {
            if let Some((n, clock)) = event_clock {
                let eps = self.nodes[n].pred.eps();
                for obs in &mut self.observers {
                    obs.on_clock_read(ClockRead {
                        node: n,
                        now,
                        clock,
                        eps,
                    });
                }
            }
            let index = self.events.len();
            for obs in &mut self.observers {
                obs.on_event(index, &event);
            }
        }
        Arc::make_mut(&mut self.events).push(event);
        Ok(())
    }

    /// The earliest time any component forces an action, or `None` when
    /// time may pass forever.
    ///
    /// Real-time deadlines are taken as-is. A *clock* deadline `Dc` forces
    /// the node clock to stop at `Dc`, which can happen no later than real
    /// time `Dc + ε` (clock predicate `C_ε`); the engine normally aims for
    /// the strategy's own estimate of when its clock reaches `Dc`, so that
    /// fast clocks really do act early. When several estimate-guided
    /// advances in a row produce no event (`pessimistic`), it falls back to
    /// the hard cap to guarantee progress.
    ///
    /// Beyond the components that changed since time last passed
    /// (`settle_notes`), no component is asked anything here except the
    /// timed components hinting `Always`: every other deadline was cached
    /// by `note` and is exact (nothing is dirty — the caller just refreshed
    /// and found no candidate). The cost is
    /// O(`Always` timed components + nodes + components holding a clock
    /// deadline), not O(components).
    ///
    /// # Errors
    ///
    /// Detects stopped time: a deadline at or before `now` with nothing
    /// enabled (the caller guarantees no candidates exist).
    fn compute_target(&mut self, pessimistic: bool) -> Result<Option<Time>, EngineError> {
        debug_assert!(!self.all_dirty && self.dirty_ids.is_empty());
        self.settle_notes();
        let mut best: Option<Time> = None;
        let consider = |t: Time, best: &mut Option<Time>| match best {
            Some(b) if *b <= t => {}
            _ => *best = Some(t),
        };
        // ---- timed components ------------------------------------------
        // `Always` components promise nothing across time passage, so
        // their deadlines are re-queried on every call. Everything else
        // cached its deadline at its last refresh; the earliest live one
        // sits at the top of the lazy heap once stale entries are popped.
        // A deadline at or before `now` is an anomaly (nothing is enabled,
        // yet something is due): `time_stopped` then names the component
        // the scan-everything engine would.
        let now = self.now;
        for &id in self.timed_wake.retain_always(&mut self.wake_flags) {
            let rt = &self.timed[id];
            if let Some(d) = rt.comp.deadline(&rt.state, now) {
                if d <= now {
                    return Err(self.time_stopped());
                }
                consider(d, &mut best);
            }
        }
        while let Some((d, id)) = self.dl_heap.peek() {
            let live = self.wake_cached[id] != WakeHint::Always && self.dl_cached[id] == Some(d);
            if !live {
                let _ = self.dl_heap.pop();
                continue;
            }
            if d <= now {
                return Err(self.time_stopped());
            }
            consider(d, &mut best);
            break;
        }
        // ---- clock nodes -----------------------------------------------
        // Only the components holding a clock deadline matter; `min` is
        // order-blind, so the unordered holder lists do. `when_reaches` is
        // asked for every holder, not just the node's earliest deadline: a
        // strategy's estimate need not be monotone in the clock value.
        for node in &self.nodes {
            for &id in &node.holders {
                let dc = self.dl_cached[id].expect("a holder caches a deadline");
                let cap = node.pred.latest_now_for(dc);
                if cap <= now {
                    return Err(self.time_stopped());
                }
                let aim = if pessimistic {
                    cap
                } else {
                    node.strategy
                        .when_reaches(now, node.clock, dc)
                        .max(now + Duration::NANOSECOND)
                        .min(cap)
                };
                consider(aim, &mut best);
            }
        }
        Ok(best)
    }

    /// The [`EngineError::TimeStopped`] for the first component, in flat
    /// order, whose deadline is at or before `now` — the attribution of
    /// the scan-everything engine. `compute_target` found *some* such
    /// component through its indexes, which are unordered; this error-path
    /// scan asks every component to find the first.
    fn time_stopped(&self) -> EngineError {
        let now = self.now;
        for rt in &self.timed {
            if let Some(deadline) = rt.comp.deadline(&rt.state, now).filter(|d| *d <= now) {
                return EngineError::TimeStopped {
                    component: rt.comp.name().to_string(),
                    now,
                    deadline,
                };
            }
        }
        for node in &self.nodes {
            for (comp, state) in &node.comps {
                let cap = comp
                    .clock_deadline(state, node.clock)
                    .map(|dc| node.pred.latest_now_for(dc));
                if let Some(deadline) = cap.filter(|cap| *cap <= now) {
                    return EngineError::TimeStopped {
                        component: format!("{}/{}", node.name, comp.name()),
                        now,
                        deadline,
                    };
                }
            }
        }
        unreachable!(
            "a cached deadline is at or before now but no component reports one: \
             some component's wake hint broke its promise"
        )
    }

    /// Performs `ν`, moving real time to `target` and each node clock
    /// along its strategy.
    ///
    /// Only the components that can be *touched* by the advance are woken:
    /// on each time basis — real time for the timed components, the node's
    /// own clock for a node's components — the components hinting `Always`
    /// plus those whose promised wake time falls inside the advance, taken
    /// from that basis's [`WakeSet`] in ascending id order. Skipped
    /// components promised — via [`TimedComponent::wake_hint`] /
    /// [`ClockComponent::clock_wake`] — that this advance is the identity
    /// on their state and that their cached enabled set, deadline and hint
    /// remain exact, so neither their state nor their caches are invalid
    /// afterwards. A node never reads another node's clock, so what `ν`
    /// can change at a node is decided by that node's own hints alone.
    ///
    /// Every node *is* visited: its strategy must be consulted and its
    /// clock validated exactly once per `ν`, in node order, whether or not
    /// any of its components wakes. That is the one O(nodes) term; the
    /// rest is O(woken · log). When the hints wake most of the system
    /// anyway, the next refresh is handed the cheaper all-dirty rebuild
    /// instead of per-segment splices.
    ///
    /// Any mid-advance error leaves partially advanced states behind, so
    /// every error path forgets all derived caches first.
    fn advance_to(&mut self, target: Time) -> Result<(), EngineError> {
        debug_assert!(target > self.now);
        // The hint and deadline caches are exact only for clean
        // components; every caller refreshes first.
        debug_assert!(!self.all_dirty && self.dirty_ids.is_empty());
        self.settle_notes();
        let now = self.now;
        for obs in &mut self.observers {
            obs.on_advance(now, target);
        }

        // ---- timed components ------------------------------------------
        // Ascending id order keeps first-refuser error attribution
        // identical to a whole-system scan: a skipped component promised
        // its advance succeeds, so the first refuser among the woken ids
        // is the first refuser outright.
        let mut touched = std::mem::take(&mut self.touched_scratch);
        self.timed_wake.due(
            target,
            &self.wake_cached,
            &mut self.wake_flags,
            &mut touched,
        );
        for &id in &touched {
            let rt = &mut self.timed[id];
            match rt.comp.advance(&rt.state, now, target) {
                Some(next) => rt.state = next,
                None => {
                    let component = rt.comp.name().to_string();
                    self.touched_scratch = touched;
                    self.invalidate_caches();
                    return Err(EngineError::AdvanceRefused {
                        component,
                        now,
                        target,
                    });
                }
            }
            if !self.dirty[id] {
                self.dirty[id] = true;
                self.dirty_ids.push(id);
            }
        }
        let mut dirtied = touched.len();

        // ---- clock nodes -----------------------------------------------
        let mut failed: Option<EngineError> = None;
        'nodes: for (n, node) in self.nodes.iter_mut().enumerate() {
            let max_clock = node
                .holders
                .iter()
                .map(|&id| self.dl_cached[id].expect("a holder caches a deadline"))
                .min();
            if let Some(mc) = max_clock {
                if mc <= node.clock {
                    // A clock deadline is due but nothing fired: the node
                    // has stopped time.
                    failed = Some(EngineError::TimeStopped {
                        component: node.name.to_string(),
                        now,
                        deadline: node.pred.latest_now_for(mc),
                    });
                    break 'nodes;
                }
            }
            let ctx = AdvanceCtx {
                now,
                clock: node.clock,
                target,
                max_clock,
                eps: node.pred.eps(),
            };
            let next_clock = node.strategy.next_clock(ctx);
            if next_clock <= node.clock {
                failed = Some(EngineError::StrategyViolation {
                    node: node.name.to_string(),
                    reason: format!(
                        "clock moved from {} to {next_clock}: axiom C3 requires strict increase",
                        node.clock
                    ),
                });
                break 'nodes;
            }
            if !node.pred.holds(target, next_clock) {
                failed = Some(EngineError::StrategyViolation {
                    node: node.name.to_string(),
                    reason: format!(
                        "clock {next_clock} at real time {target} violates C_ε (ε = {})",
                        node.pred.eps()
                    ),
                });
                break 'nodes;
            }
            if let Some(mc) = max_clock {
                if next_clock > mc {
                    failed = Some(EngineError::StrategyViolation {
                        node: node.name.to_string(),
                        reason: format!("clock {next_clock} passed the deadline {mc}"),
                    });
                    break 'nodes;
                }
            }
            node.wake.due(
                next_clock,
                &self.wake_cached,
                &mut self.wake_flags,
                &mut touched,
            );
            for &id in &touched {
                let (comp, state) = &mut node.comps[id - node.base];
                match comp.advance(state, node.clock, next_clock) {
                    Some(next) => *state = next,
                    None => {
                        failed = Some(EngineError::AdvanceRefused {
                            component: format!("{}/{}", node.name, comp.name()),
                            now,
                            target,
                        });
                        break 'nodes;
                    }
                }
                if !self.dirty[id] {
                    self.dirty[id] = true;
                    self.dirty_ids.push(id);
                }
            }
            dirtied += touched.len();
            for obs in self.observers.iter_mut() {
                obs.on_clock_read(ClockRead {
                    node: n,
                    now: target,
                    clock: next_clock,
                    eps: node.pred.eps(),
                });
            }
            node.clock = next_clock;
        }
        self.touched_scratch = touched;
        if let Some(err) = failed {
            self.invalidate_caches();
            return Err(err);
        }
        if dirtied * 2 >= self.flat_origin.len() {
            self.dirty.fill(true);
            self.dirty_ids.clear();
            self.all_dirty = true;
        }
        self.now = target;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock_driver::{OffsetClock, PerfectClock};
    use crate::scheduler::RandomScheduler;
    use psync_automata::toys::{BeepAction, Beeper, ClockBeeper, Echo, EchoAction};
    use psync_automata::ActionKind;
    use psync_automata::TimedTrace;

    fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    fn at(n: i64) -> Time {
        Time::ZERO + ms(n)
    }

    #[test]
    fn beeper_fires_at_exact_times() {
        let mut engine = Engine::builder()
            .timed(Beeper::new(ms(10)))
            .horizon(at(35))
            .build();
        let run = engine.run().unwrap();
        assert_eq!(run.stop, StopReason::Horizon);
        let trace = run.execution.t_trace();
        assert_eq!(
            trace.as_slice(),
            &[
                (BeepAction::Beep { src: 0, seq: 0 }, at(10)),
                (BeepAction::Beep { src: 0, seq: 1 }, at(20)),
                (BeepAction::Beep { src: 0, seq: 2 }, at(30)),
            ]
        );
        assert_eq!(run.execution.ltime(), at(35));
    }

    #[test]
    fn quiescent_system_stops() {
        let mut engine = Engine::builder().timed(Echo::new(ms(1))).build();
        let run = engine.run().unwrap();
        assert_eq!(run.stop, StopReason::Quiescent);
        assert!(run.execution.is_empty());
    }

    #[test]
    fn run_idle_until_advances_a_quiescent_engine_to_the_horizon() {
        let mut engine = Engine::builder().timed(Echo::new(ms(3))).build();
        let run = engine.run_idle_until(at(10)).unwrap();
        assert_eq!(engine.now(), at(10));
        assert!(run.execution.is_empty());
        // An injection lands at the pushed-forward time, and the work it
        // enables runs on the next call — the live-runtime loop shape.
        engine.inject(EchoAction::Ping { id: 7 }).unwrap();
        assert_eq!(engine.events()[0].now, at(10));
        let run = engine.run_idle_until(at(20)).unwrap();
        assert_eq!(engine.now(), at(20));
        assert_eq!(
            run.execution.t_trace().as_slice(),
            &[
                (EchoAction::Ping { id: 7 }, at(10)),
                (EchoAction::Pong { id: 7 }, at(13)),
            ]
        );
    }

    #[test]
    fn clock_beeper_with_perfect_clock_matches_real_time() {
        let node = ClockNode::new("n0", ms(2), PerfectClock).with(ClockBeeper::new(ms(10)));
        let mut engine = Engine::builder().clock_node(node).horizon(at(25)).build();
        let run = engine.run().unwrap();
        let trace = run.execution.t_trace();
        assert_eq!(
            trace.as_slice(),
            &[
                (BeepAction::Beep { src: 0, seq: 0 }, at(10)),
                (BeepAction::Beep { src: 0, seq: 1 }, at(20)),
            ]
        );
        // Events carry the node clock.
        assert_eq!(run.execution.events()[0].clock, Some(at(10)));
    }

    #[test]
    fn slow_clock_delays_beeps_by_eps() {
        // A clock slow by the full ε = 2 ms reads 10 ms only when real time
        // is 12 ms: the beep moves to 12 ms of real time but 10 ms of clock.
        let node = ClockNode::new("n0", ms(2), OffsetClock::new(ms(-2), ms(2)))
            .with(ClockBeeper::new(ms(10)));
        let mut engine = Engine::builder().clock_node(node).horizon(at(25)).build();
        let run = engine.run().unwrap();
        let ev = &run.execution.events()[0];
        assert_eq!(ev.now, at(12));
        assert_eq!(ev.clock, Some(at(10)));
    }

    #[test]
    fn fast_clock_advances_beeps_by_eps() {
        let node = ClockNode::new("n0", ms(2), OffsetClock::new(ms(2), ms(2)))
            .with(ClockBeeper::new(ms(10)));
        let mut engine = Engine::builder().clock_node(node).horizon(at(25)).build();
        let run = engine.run().unwrap();
        let ev = &run.execution.events()[0];
        assert_eq!(ev.now, at(8));
        assert_eq!(ev.clock, Some(at(10)));
    }

    #[test]
    fn clock_trace_eps_close_to_timed_trace() {
        // The clock-model beeper's trace is =_{ε} the timed beeper's trace —
        // a miniature of Theorem 4.7.
        let mut timed_engine = Engine::builder()
            .timed(Beeper::new(ms(10)))
            .horizon(at(100))
            .build();
        let timed_trace = timed_engine.run().unwrap().execution.t_trace();

        let node = ClockNode::new("n0", ms(2), OffsetClock::new(ms(-2), ms(2)))
            .with(ClockBeeper::new(ms(10)));
        let mut clock_engine = Engine::builder().clock_node(node).horizon(at(100)).build();
        let clock_trace = clock_engine.run().unwrap().execution.t_trace();

        use psync_automata::relations::{eps_equivalent, ClassMap};
        let w = eps_equivalent(&timed_trace, &clock_trace, ms(2), &ClassMap::single()).unwrap();
        assert_eq!(w.max_deviation, ms(2));
    }

    #[test]
    fn echo_round_trip_through_engine() {
        // A beeper's beeps drive nothing; pair an Echo with a driver that
        // pings at a fixed time instead.
        #[derive(Debug, Clone)]
        struct PingOnce;
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct PingState {
            fired: bool,
        }
        impl TimedComponent for PingOnce {
            type Action = EchoAction;
            type State = PingState;
            fn name(&self) -> String {
                "ping-once".into()
            }
            fn initial(&self) -> PingState {
                PingState { fired: false }
            }
            fn classify(&self, a: &EchoAction) -> Option<ActionKind> {
                match a {
                    EchoAction::Ping { .. } => Some(ActionKind::Output),
                    EchoAction::Pong { .. } => Some(ActionKind::Input),
                }
            }
            fn step(&self, s: &PingState, a: &EchoAction, now: Time) -> Option<PingState> {
                match a {
                    EchoAction::Ping { .. } if !s.fired && now >= at(5) => {
                        Some(PingState { fired: true })
                    }
                    EchoAction::Pong { .. } => Some(s.clone()),
                    _ => None,
                }
            }
            fn enabled(&self, s: &PingState, now: Time) -> Vec<EchoAction> {
                if !s.fired && now >= at(5) {
                    vec![EchoAction::Ping { id: 1 }]
                } else {
                    Vec::new()
                }
            }
            fn deadline(&self, s: &PingState, _now: Time) -> Option<Time> {
                if s.fired {
                    None
                } else {
                    Some(at(5))
                }
            }
        }

        let mut engine = Engine::builder()
            .timed(PingOnce)
            .timed(Echo::new(ms(3)))
            .build();
        let run = engine.run().unwrap();
        assert_eq!(run.stop, StopReason::Quiescent);
        let trace = run.execution.t_trace();
        assert_eq!(
            trace.as_slice(),
            &[
                (EchoAction::Ping { id: 1 }, at(5)),
                (EchoAction::Pong { id: 1 }, at(8)),
            ]
        );
    }

    #[test]
    fn random_scheduler_is_reproducible() {
        let run_with_seed = |seed: u64| -> TimedTrace<BeepAction> {
            let mut engine = Engine::builder()
                .timed(Beeper::with_src(ms(5), 0))
                .timed(Beeper::with_src(ms(5), 1))
                .scheduler(RandomScheduler::new(seed))
                .horizon(at(50))
                .build();
            engine.run().unwrap().execution.t_trace()
        };
        assert_eq!(run_with_seed(11), run_with_seed(11));
    }

    #[test]
    fn duplicate_controllers_are_rejected() {
        // Two identical beepers offer the *same* action value — an
        // incompatible composition (shared output action).
        let mut engine = Engine::builder()
            .timed(Beeper::new(ms(5)))
            .timed(Beeper::new(ms(5)))
            .horizon(at(20))
            .build();
        let err = engine.run().unwrap_err();
        assert!(matches!(err, EngineError::IncompatibleControllers { .. }));
    }

    #[test]
    fn event_limit_guards_against_zeno() {
        #[derive(Debug, Clone)]
        struct Zeno;
        impl TimedComponent for Zeno {
            type Action = BeepAction;
            type State = u64;
            fn name(&self) -> String {
                "zeno".into()
            }
            fn initial(&self) -> u64 {
                0
            }
            fn classify(&self, _a: &BeepAction) -> Option<ActionKind> {
                Some(ActionKind::Output)
            }
            fn step(&self, s: &u64, _a: &BeepAction, _now: Time) -> Option<u64> {
                Some(s + 1)
            }
            fn enabled(&self, s: &u64, _now: Time) -> Vec<BeepAction> {
                vec![BeepAction::Beep { src: 0, seq: *s }]
            }
            fn deadline(&self, _s: &u64, _now: Time) -> Option<Time> {
                None
            }
        }
        let mut engine = Engine::builder().timed(Zeno).max_events(100).build();
        let err = engine.run().unwrap_err();
        assert!(matches!(
            err,
            EngineError::EventLimitExceeded { limit: 100, .. }
        ));
    }

    #[test]
    fn horizon_before_first_event_yields_empty_run() {
        let mut engine = Engine::builder()
            .timed(Beeper::new(ms(10)))
            .horizon(at(5))
            .build();
        let run = engine.run().unwrap();
        assert_eq!(run.stop, StopReason::Horizon);
        assert!(run.execution.is_empty());
        assert_eq!(run.execution.ltime(), at(5));
    }

    #[test]
    fn two_nodes_keep_independent_clocks() {
        let n0 = ClockNode::new("n0", ms(2), OffsetClock::new(ms(2), ms(2)))
            .with(ClockBeeper::with_src(ms(10), 0));
        let n1 = ClockNode::new("n1", ms(2), OffsetClock::new(ms(-2), ms(2)))
            .with(ClockBeeper::with_src(ms(10), 1));
        let mut engine = Engine::builder()
            .clock_node(n0)
            .clock_node(n1)
            .horizon(at(15))
            .build();
        let run = engine.run().unwrap();
        let evs = run.execution.events();
        assert_eq!(evs.len(), 2);
        // Fast node beeps at real 8, slow node at real 12; both at clock 10.
        assert_eq!(evs[0].now, at(8));
        assert_eq!(evs[1].now, at(12));
        assert_eq!(evs[0].clock, Some(at(10)));
        assert_eq!(evs[1].clock, Some(at(10)));
    }

    fn pause_mix() -> EngineBuilder<BeepAction> {
        Engine::builder()
            .timed(Beeper::with_src(ms(5), 0))
            .timed(Beeper::with_src(ms(7), 1))
            .clock_node(
                ClockNode::new("fast", ms(2), OffsetClock::new(ms(2), ms(2)))
                    .with(ClockBeeper::with_src(ms(9), 7)),
            )
            .scheduler(RandomScheduler::new(3))
            .horizon(at(200))
    }

    #[test]
    fn pause_and_resume_is_bit_identical_to_straight_run() {
        let straight = pause_mix().build().run().unwrap();
        let mut paused = pause_mix().build();
        let p1 = paused.run_until_events(10).unwrap();
        assert_eq!(p1.stop, StopReason::Paused);
        assert_eq!(p1.execution.len(), 10);
        let p2 = paused.run_until_events(25).unwrap();
        assert_eq!(p2.stop, StopReason::Paused);
        let done = paused.run().unwrap();
        assert_eq!(done.stop, straight.stop);
        assert_eq!(done.execution, straight.execution);
    }

    #[test]
    fn pause_past_the_end_returns_the_natural_stop() {
        let mut engine = pause_mix().build();
        let run = engine.run_until_events(usize::MAX).unwrap();
        assert_eq!(run.stop, StopReason::Horizon);
    }
}
