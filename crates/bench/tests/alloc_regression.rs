//! Allocation-count regression test for the engine hot loop.
//!
//! Installs [`CountingAlloc`] as the global allocator of this test binary
//! and runs the deterministic ring workload (`n = 32`, ~4096 events) that
//! `engine_scaling_heap` benchmarks, in both token flavours:
//!
//! - the `String`-token ("heavy") ring, where every action clone is a real
//!   heap allocation — this pins the allocation diet: the quotient
//!   *allocations / event* must stay strictly below the pre-diet baseline,
//!   so reintroducing a per-event clone (action clone on the pick path,
//!   `String` node names, double-lookup duplicate tracking) fails this
//!   test instead of silently shifting the benchmarks;
//! - the classic `u32`-token ring, where action clones are plain copies —
//!   this is a loose sanity bound that catches gross regressions (a new
//!   per-event `String`/`Vec` allocation) without being sensitive to the
//!   diet itself.
//!
//! A third test pins the product path the ring does not touch: the D_C
//! register system (Algorithm S through Simulation 1, clock nodes, clock
//! channels) at n = 8, where every `ν` used to re-box the state of every
//! buffer and channel. A fourth runs the same system with
//! [`psync_obs::EngineMetrics`] attached, as every explorer case, the live
//! runtime and the benchmark's sim workloads run it: the attached observer
//! resolves its metric names to registry slots once and must then record
//! without allocating.
//!
//! Every engine is built *outside* the counted region: the diet targets
//! the run loop, and one-time construction (routing table, name interning)
//! is allowed to allocate freely.
//!
//! [`CountingAlloc`] tallies per thread, so the tests may run on parallel
//! harness threads: each before/after difference counts its own thread's
//! allocations alone, and is exact.

use psync_bench::alloc_count::CountingAlloc;
use psync_bench::ring::{
    build_ring_engine, build_ring_heavy_engine, ring_horizon, run_ring_heavy, run_ring_incremental,
};
use psync_bench::Scenario;
use psync_obs::MetricsHub;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Heavy-ring (`String` tokens) allocations per event measured at the
/// pre-diet seed (commit a53cf8e): ring n=32, horizon sized for 4096
/// events, run loop only (327375 allocations / 3968 events). The bulk of
/// it was the candidate list: every enabled action of every component was
/// re-cloned into the scheduler's slice on every event. The diet keeps
/// the candidate list alive across events and splices only the dirty
/// components' segments, clones exactly the one picked action, and moves
/// it into the event record, landing at 20.151 allocs/event — a 4×
/// reduction. Kept for context; the pinned bound is the ceiling below.
const PRE_DIET_HEAVY_ALLOCS_PER_EVENT: f64 = 82.504;

/// Pinned bound for the post-diet engine. The workload and the engine are
/// fully deterministic, so the measured 20.032 allocs/event is exact and
/// repeatable; the ceiling leaves ~0.85 allocs/event of headroom, which
/// still trips on a single reintroduced per-event clone (+1.0) — and
/// spectacularly on a return of per-candidate re-cloning (~80).
const HEAVY_ALLOCS_PER_EVENT_CEILING: f64 = 20.9;

/// Loose ceiling for the `u32`-token ring. Action clones are allocation
/// free here, so the diet barely moves this figure (6.311 measured; ~6.4
/// both before and after the diet); the bound only exists to catch a new
/// per-event heap allocation sneaking into the hot loop, and leaves ~0.9
/// of headroom so that one (+1.0) trips it.
const U32_ALLOCS_PER_EVENT_CEILING: f64 = 7.2;

/// Ceiling for the D_C register system at n = 8 (3596 events, 177
/// components). With every Simulation-1 part carrying a wake hint a `ν`
/// re-boxes only the states it wakes: 7.991 allocs/event, exact for the
/// seed. Before the hints every `ν` re-boxed all 177 states and the same
/// run read 90.137. The ceiling leaves ~0.9 of headroom.
const DC_N8_ALLOCS_PER_EVENT_CEILING: f64 = 8.9;

/// How many allocations per event attaching `EngineMetrics` may add to the
/// D_C n = 8 run. The tap allocates once per distinct action name (the
/// `engine.action.<name>` key) and once per histogram it first records
/// into: 0.009 allocs/event on this run. When every hook built a `String`
/// key and walked a `BTreeMap<String, _>` the same run read 23.711 attached
/// against 7.991 detached.
const OBSERVER_ALLOCS_PER_EVENT_CEILING: f64 = 0.1;

/// The D_C register system both product-path tests run (3596 events).
fn dc_n8() -> Scenario {
    Scenario {
        n: 8,
        ops_per_node: 20,
        ..Scenario::default_with(7)
    }
}

fn measured_events(events: usize) -> f64 {
    let events = events as f64;
    assert!(events > 0.0);
    events
}

#[test]
fn heavy_ring_n32_allocations_per_event_beat_pre_diet_baseline() {
    let n = 32;
    let horizon = ring_horizon(n, 4096);
    // Warm up once so lazy process-wide setup is paid before measuring.
    let warm = run_ring_heavy(n, horizon);
    let events = measured_events(warm.execution.len());

    let mut engine = build_ring_heavy_engine(n, horizon);
    let (run, allocs) = ALLOC.count(move || engine.run().expect("ring run"));
    assert_eq!(run.execution.len() as f64, events);

    let per_event = allocs as f64 / events;
    eprintln!(
        "heavy ring n={n}: {allocs} allocations / {events} events = {per_event:.3} allocs/event \
         (ceiling {HEAVY_ALLOCS_PER_EVENT_CEILING}, pre-diet baseline \
         {PRE_DIET_HEAVY_ALLOCS_PER_EVENT})"
    );
    assert!(
        per_event < HEAVY_ALLOCS_PER_EVENT_CEILING,
        "allocation diet regressed: {per_event:.3} allocs/event >= ceiling \
         {HEAVY_ALLOCS_PER_EVENT_CEILING} (pre-diet baseline was \
         {PRE_DIET_HEAVY_ALLOCS_PER_EVENT})"
    );
}

#[test]
fn u32_ring_n32_allocations_per_event_stay_bounded() {
    let n = 32;
    let horizon = ring_horizon(n, 4096);
    let warm = run_ring_incremental(n, horizon);
    let events = measured_events(warm.execution.len());

    let mut engine = build_ring_engine(n, horizon);
    let (run, allocs) = ALLOC.count(move || engine.run().expect("ring run"));
    assert_eq!(run.execution.len() as f64, events);

    let per_event = allocs as f64 / events;
    eprintln!(
        "u32 ring n={n}: {allocs} allocations / {events} events = {per_event:.3} allocs/event \
         (ceiling {U32_ALLOCS_PER_EVENT_CEILING})"
    );
    assert!(
        per_event < U32_ALLOCS_PER_EVENT_CEILING,
        "hot loop grew a per-event allocation: {per_event:.3} allocs/event >= ceiling \
         {U32_ALLOCS_PER_EVENT_CEILING}"
    );
}

#[test]
fn dc_register_n8_allocations_per_event_stay_bounded() {
    let scenario = dc_n8();
    let params = scenario.params();
    let events = measured_events(scenario.run_dc().len());

    let mut engine = scenario.dc_engine(&params);
    let (run, allocs) = ALLOC.count(move || engine.run().expect("D_C run"));
    assert_eq!(run.execution.len() as f64, events);

    let per_event = allocs as f64 / events;
    eprintln!(
        "D_C register n=8: {allocs} allocations / {events} events = {per_event:.3} allocs/event \
         (ceiling {DC_N8_ALLOCS_PER_EVENT_CEILING})"
    );
    assert!(
        per_event < DC_N8_ALLOCS_PER_EVENT_CEILING,
        "product path grew a per-event allocation: {per_event:.3} allocs/event >= ceiling \
         {DC_N8_ALLOCS_PER_EVENT_CEILING}"
    );
}

#[test]
fn dc_register_n8_attached_metrics_observer_allocates_nothing_per_event() {
    let scenario = dc_n8();
    let params = scenario.params();
    let events = measured_events(scenario.run_dc().len());

    let mut detached = scenario.dc_engine(&params);
    let (run, detached_allocs) = ALLOC.count(move || detached.run().expect("D_C run"));
    assert_eq!(run.execution.len() as f64, events);

    let hub = MetricsHub::new();
    let mut attached = scenario
        .dc_builder(&params)
        .observer(hub.engine_observer())
        .build();
    let (run, attached_allocs) = ALLOC.count(move || attached.run().expect("D_C run"));
    assert_eq!(run.execution.len() as f64, events);
    assert_eq!(hub.snapshot().counter("engine.steps") as f64, events);

    let per_event = (attached_allocs as f64 - detached_allocs as f64) / events;
    eprintln!(
        "D_C register n=8: {:.3} allocs/event detached, {:.3} with EngineMetrics attached \
         (+{per_event:.3}, ceiling +{OBSERVER_ALLOCS_PER_EVENT_CEILING})",
        detached_allocs as f64 / events,
        attached_allocs as f64 / events,
    );
    assert!(
        per_event < OBSERVER_ALLOCS_PER_EVENT_CEILING,
        "the attached metrics observer allocates per event again: +{per_event:.3} allocs/event \
         over the detached run >= ceiling +{OBSERVER_ALLOCS_PER_EVENT_CEILING}"
    );
}
