//! Criterion bench: what does attaching an observer cost?
//!
//! Three configurations of the incremental engine:
//!
//! * `detached` — no observer registered: the hook dispatch loop iterates
//!   an empty vector, the baseline;
//! * `noop` — [`NoopObserver`] attached: pays virtual dispatch for every
//!   hook invocation but does no work, isolating the cost of the hook
//!   plumbing itself;
//! * `metrics` — [`psync_obs::EngineMetrics`] attached via a
//!   [`psync_obs::MetricsHub`]: counters and histograms on every
//!   scheduling point, event, and advance — the realistic upper bound.
//!
//! on two systems: the token-ring burst workload (`psync_bench::ring`,
//! ~4096 events per run) in group `observer_overhead`, and the product
//! path — the D_C register system at n = 8 (`Scenario::dc_builder`: Algorithm
//! S through Simulation 1, clock nodes, ~3600 events, clock reads on every
//! event and advance) — in group `observer_overhead_dc`. Each iteration
//! assembles the system and runs it, in every configuration alike.
//!
//! The detached-vs-noop gap is the number quoted in `EXPERIMENTS.md` §E12
//! as the "zero-cost when detached" claim; detached-vs-metrics on the D_C
//! rows is what the attached tap costs where it is actually attached.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psync_bench::ring::{ring_horizon, run_ring_incremental, run_ring_incremental_observed};
use psync_bench::Scenario;
use psync_executor::{NoopObserver, Observer};
use psync_obs::MetricsHub;
use psync_register::RegAction;

const TARGET_EVENTS: usize = 4096;

fn bench_observer_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("observer_overhead");
    group.sample_size(10);
    for n in [8usize, 32] {
        let horizon = ring_horizon(n, TARGET_EVENTS);
        group.bench_with_input(BenchmarkId::new("detached", n), &n, |b, &n| {
            b.iter(|| {
                let run = run_ring_incremental(n, horizon);
                assert!(!run.execution.is_empty());
                run.execution.len()
            });
        });
        group.bench_with_input(BenchmarkId::new("noop", n), &n, |b, &n| {
            b.iter(|| {
                let run = run_ring_incremental_observed(n, horizon, Box::new(NoopObserver));
                assert!(!run.execution.is_empty());
                run.execution.len()
            });
        });
        group.bench_with_input(BenchmarkId::new("metrics", n), &n, |b, &n| {
            b.iter(|| {
                let hub = MetricsHub::new();
                let run =
                    run_ring_incremental_observed(n, horizon, Box::new(hub.engine_observer()));
                assert!(!run.execution.is_empty());
                let snapshot = hub.snapshot();
                assert_eq!(snapshot.counter("engine.steps"), run.execution.len() as u64);
                run.execution.len()
            });
        });
    }
    group.finish();
}

fn bench_observer_overhead_dc(c: &mut Criterion) {
    let n = 8usize;
    let scenario = Scenario {
        n,
        ops_per_node: 20,
        ..Scenario::default_with(7)
    };
    let params = scenario.params();
    let run_dc = |observer: Option<Box<dyn Observer<RegAction>>>| {
        let builder = scenario.dc_builder(&params);
        let mut engine = match observer {
            Some(observer) => builder.observer_boxed(observer),
            None => builder,
        }
        .build();
        let run = engine.run().expect("well-formed D_C");
        assert!(!run.execution.is_empty());
        run.execution.len()
    };

    let mut group = c.benchmark_group("observer_overhead_dc");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("detached", n), |b| {
        b.iter(|| run_dc(None));
    });
    group.bench_function(BenchmarkId::new("noop", n), |b| {
        b.iter(|| run_dc(Some(Box::new(NoopObserver))));
    });
    group.bench_function(BenchmarkId::new("metrics", n), |b| {
        b.iter(|| {
            let hub = MetricsHub::new();
            let events = run_dc(Some(Box::new(hub.engine_observer())));
            assert_eq!(hub.snapshot().counter("engine.steps"), events as u64);
            events
        });
    });
    group.finish();
}

criterion_group!(benches, bench_observer_overhead, bench_observer_overhead_dc);
criterion_main!(benches);
