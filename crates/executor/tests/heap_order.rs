//! Deterministic tie-breaking of the wake-up heap: when many components
//! share a deadline, the heap engine must wake and fire them in exactly
//! the order the scan-everything [`ReferenceEngine`] does — ties broken
//! by `(deadline, component_index)`, never by heap insertion history.
//!
//! The mixes here are chosen to flood the heap with *equal* deadlines:
//! banks of beepers sharing one period, pushed and re-pushed in varying
//! orders as the run progresses (every fire re-hints the component, so
//! the heap sees the same `(deadline, id)` pairs arrive along different
//! insertion sequences on different seeds). The `WakeHeap` unit tests
//! pin the pop order of the raw heap; these tests pin the property that
//! actually matters downstream — the *execution* is a pure function of
//! components + scheduler + seed, identical across engines and across
//! repeated runs.

use psync_automata::toys::{BeepAction, Beeper, ClockBeeper};
use psync_automata::Action;
use psync_executor::{
    ClockNode, Engine, EngineBuilder, OffsetClock, PerfectClock, RandomScheduler, ReferenceEngine,
    ReferenceEngineBuilder, RoundRobinScheduler, Scheduler,
};
use psync_time::{Duration, Time};

const SEEDS: [u64; 6] = [1, 7, 42, 99, 1234, 987_654_321];

/// Beepers sharing one period: every one of them hints `At(t)` for the
/// *same* `t`, so each advance pops a full run of equal-deadline heap
/// entries.
const TIED_BEEPERS: u32 = 6;

fn ms(n: i64) -> Duration {
    Duration::from_millis(n)
}

fn at(n: i64) -> Time {
    Time::ZERO + ms(n)
}

fn tied_mix_new(mut b: EngineBuilder<BeepAction>) -> EngineBuilder<BeepAction> {
    for src in 0..TIED_BEEPERS {
        b = b.timed(Beeper::with_src(ms(5), src));
    }
    // One off-grid beeper so the heap also holds a *distinct* smaller
    // deadline between bursts, and two clock nodes so ties on the real-time
    // basis coexist with wake-ups on the nodes' own clock bases.
    b.timed(Beeper::with_src(ms(3), 100))
        .clock_node(
            ClockNode::new("fast", ms(2), OffsetClock::new(ms(2), ms(2)))
                .with(ClockBeeper::with_src(ms(5), 200)),
        )
        .clock_node(
            ClockNode::new("true", ms(1), PerfectClock).with(ClockBeeper::with_src(ms(5), 201)),
        )
        .horizon(at(120))
}

fn tied_mix_ref(mut b: ReferenceEngineBuilder<BeepAction>) -> ReferenceEngineBuilder<BeepAction> {
    for src in 0..TIED_BEEPERS {
        b = b.timed(Beeper::with_src(ms(5), src));
    }
    b.timed(Beeper::with_src(ms(3), 100))
        .clock_node(
            ClockNode::new("fast", ms(2), OffsetClock::new(ms(2), ms(2)))
                .with(ClockBeeper::with_src(ms(5), 200)),
        )
        .clock_node(
            ClockNode::new("true", ms(1), PerfectClock).with(ClockBeeper::with_src(ms(5), 201)),
        )
        .horizon(at(120))
}

fn run_both<A: Action, S: Scheduler<A> + 'static>(
    label: &str,
    sched: impl Fn() -> S,
    build_new: impl Fn(EngineBuilder<A>) -> EngineBuilder<A>,
    build_ref: impl Fn(ReferenceEngineBuilder<A>) -> ReferenceEngineBuilder<A>,
) -> psync_executor::Run<A> {
    let mut fast: Engine<A> = build_new(Engine::builder()).scheduler(sched()).build();
    let mut slow: ReferenceEngine<A> = build_ref(ReferenceEngine::builder())
        .scheduler(sched())
        .build();
    let fast_run = fast
        .run()
        .unwrap_or_else(|e| panic!("{label}: heap engine failed: {e}"));
    let slow_run = slow
        .run()
        .unwrap_or_else(|e| panic!("{label}: reference engine failed: {e}"));
    assert_eq!(
        fast_run.stop, slow_run.stop,
        "{label}: stop reasons diverge"
    );
    assert_eq!(
        fast_run.execution, slow_run.execution,
        "{label}: executions diverge"
    );
    assert!(
        !fast_run.execution.is_empty(),
        "{label}: vacuous comparison — the mix produced no events"
    );
    fast_run
}

/// Equal-deadline bursts under a seeded scheduler: for every seed the
/// heap engine's execution is bit-identical to the reference's, and
/// running the same seed twice reproduces the same execution — the pop
/// order of tied entries depends only on `(deadline, component_index)`.
#[test]
fn tied_deadlines_match_the_reference_for_every_seed() {
    for seed in SEEDS {
        let label = format!("tied/{seed}");
        let first = run_both(
            &label,
            || RandomScheduler::new(seed),
            tied_mix_new,
            tied_mix_ref,
        );
        let again = run_both(
            &label,
            || RandomScheduler::new(seed),
            tied_mix_new,
            tied_mix_ref,
        );
        assert_eq!(
            first.execution, again.execution,
            "{label}: same seed, different execution"
        );
    }
}

/// The round-robin scheduler sees candidates in flat-component-id order,
/// so its rotation is a direct window onto tie-breaking: if the heap
/// ever surfaced tied components in a different order than the
/// reference's linear scan, the rotation would diverge pick for pick.
/// The first burst is pinned explicitly: all six tied beepers fire at
/// t = 5 ms, in ascending component-index (= src) order.
#[test]
fn round_robin_rotation_pins_the_tie_break_order() {
    let run = run_both(
        "rr-tied",
        RoundRobinScheduler::new,
        tied_mix_new,
        tied_mix_ref,
    );
    let first_burst: Vec<u32> = run
        .execution
        .events()
        .iter()
        .filter(|e| e.now == at(5))
        .filter_map(|e| match &e.action {
            BeepAction::Beep { src, .. } if *src < TIED_BEEPERS => Some(*src),
            _ => None,
        })
        .collect();
    assert_eq!(
        first_burst,
        (0..TIED_BEEPERS).collect::<Vec<_>>(),
        "tied beepers must fire in component-index order under round-robin"
    );
}

/// Tie-breaking survives heap churn: pausing and resuming (which leaves
/// the lazy heaps holding stale entries for every re-hinted component)
/// must not change how later ties resolve.
#[test]
fn ties_resolve_identically_across_pause_and_resume() {
    for seed in SEEDS {
        let mut paused: Engine<BeepAction> = tied_mix_new(Engine::builder())
            .scheduler(RandomScheduler::new(seed))
            .build();
        let mut straight: Engine<BeepAction> = tied_mix_new(Engine::builder())
            .scheduler(RandomScheduler::new(seed))
            .build();
        // Walk the paused engine forward in small steps so every burst
        // boundary is crossed with stale heap entries still queued.
        let mut target = 4usize;
        let paused_run = loop {
            let run = paused.run_until_events(target).unwrap();
            if run.stop != psync_executor::StopReason::Paused {
                break run;
            }
            target += 4;
        };
        let straight_run = straight.run().unwrap();
        assert_eq!(
            paused_run.execution, straight_run.execution,
            "seed {seed}: pausing changed tie resolution"
        );
    }
}
