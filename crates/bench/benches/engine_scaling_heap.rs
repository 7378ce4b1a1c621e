//! Criterion bench: the wake-up-heap engine at ring sizes the flat scan
//! could never reach.
//!
//! Pushes the heap engine to `n ∈ {32, 128, 1024, 4096}` on two
//! token-ring workloads (see `psync_bench::ring`):
//!
//! * **dense** — every node holds [`TOKENS_PER_NODE`] tokens, so each
//!   simulated millisecond is a burst of `2·n·TOKENS_PER_NODE` events;
//! * **sparse** — a single token circulates, so at any instant all but
//!   one forwarder hints `Never` and all but one channel sits idle: the
//!   workload where per-advance cost is pure scheduler overhead.
//!
//! Reported in `EXPERIMENTS.md` §E15. Besides the criterion sweep the
//! bench writes `BENCH_engine.json` (override with `PSYNC_BENCH_OUT`):
//! events-per-second tables for both engines on both workloads, with the
//! scan-everything [`ReferenceEngine`] measured on *truncated* event
//! budgets at large `n` (its O(n)-per-event loop would otherwise run for
//! minutes) — throughputs are per-event rates, so the comparison stays
//! fair. The artifact asserts the headline claim: the heap engine is at
//! least 5× the reference at `n = 1024` on the dense ring. CI uploads
//! the file as a build artifact; the committed copy at the repo root
//! records the perf trajectory at review time.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use psync_bench::ring::{
    build_ring_engine, build_ring_reference, build_sparse_ring_engine, build_sparse_ring_reference,
    ring_horizon, sparse_ring_horizon, TOKENS_PER_NODE,
};

const SIZES: [usize; 4] = [32, 128, 1024, 4096];

/// Event budget for every heap-engine measurement.
const HEAP_EVENTS: usize = 16_384;

/// Truncated reference budgets per ring size: enough events for a stable
/// per-event rate, small enough that the O(n) scan finishes promptly.
fn reference_budget(n: usize) -> usize {
    match n {
        32 => 8192,
        128 => 4096,
        1024 => 128,
        _ => 32,
    }
}

fn bench_heap_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling_heap");
    group.sample_size(10);
    for n in SIZES {
        let horizon = ring_horizon(n, HEAP_EVENTS * 2);
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, &n| {
            b.iter(|| {
                let mut engine = build_ring_engine(n, horizon);
                let run = engine.run_until_events(HEAP_EVENTS).expect("dense run");
                assert!(run.execution.len() >= HEAP_EVENTS);
                run.execution.len()
            });
        });
        let sparse_horizon = sparse_ring_horizon(HEAP_EVENTS * 2);
        group.bench_with_input(BenchmarkId::new("sparse", n), &n, |b, &n| {
            b.iter(|| {
                let mut engine = build_sparse_ring_engine(n, sparse_horizon);
                let run = engine.run_until_events(HEAP_EVENTS).expect("sparse run");
                assert!(!run.execution.is_empty());
                run.execution.len()
            });
        });
    }
    group.finish();
    write_artifact();
}

/// Median over `runs` samples of `(run-phase milliseconds, events)` —
/// engine construction happens inside `f` but outside its timed window.
fn median_run(runs: usize, mut f: impl FnMut() -> (f64, usize)) -> (f64, usize) {
    let mut samples: Vec<(f64, usize)> = (0..runs).map(|_| f()).collect();
    samples.sort_unstable_by(|a, b| f64::total_cmp(&a.0, &b.0));
    samples[samples.len() / 2]
}

fn events_per_sec(ms: f64, events: usize) -> f64 {
    events as f64 / (ms / 1e3)
}

fn row(workload: &str, engine: &str, n: usize, ms: f64, events: usize) -> String {
    format!(
        "    {{\"workload\": \"{workload}\", \"engine\": \"{engine}\", \"n\": {n}, \
         \"events\": {events}, \"median_ms\": {ms:.3}, \"events_per_sec\": {:.0}}}",
        events_per_sec(ms, events)
    )
}

fn write_artifact() {
    let mut entries = Vec::new();
    let mut dense_rate = [0.0f64; 2]; // [heap, reference] at n = 1024
    for n in SIZES {
        let budget = reference_budget(n);
        let horizon = ring_horizon(n, HEAP_EVENTS * 2);
        let (ms, events) = median_run(5, || {
            let mut engine = build_ring_engine(n, horizon);
            let t0 = Instant::now();
            let run = engine.run_until_events(HEAP_EVENTS).expect("dense heap");
            (
                t0.elapsed().as_secs_f64() * 1e3,
                black_box(run.execution.len()),
            )
        });
        entries.push(row("dense", "heap", n, ms, events));
        if n == 1024 {
            dense_rate[0] = events_per_sec(ms, events);
        }
        let (ms, events) = median_run(3, || {
            let mut engine = build_ring_reference(n, horizon);
            let t0 = Instant::now();
            let run = engine.run_until_events(budget).expect("dense reference");
            (
                t0.elapsed().as_secs_f64() * 1e3,
                black_box(run.execution.len()),
            )
        });
        entries.push(row("dense", "reference", n, ms, events));
        if n == 1024 {
            dense_rate[1] = events_per_sec(ms, events);
        }

        let sparse_horizon = sparse_ring_horizon(HEAP_EVENTS * 2);
        let (ms, events) = median_run(5, || {
            let mut engine = build_sparse_ring_engine(n, sparse_horizon);
            let t0 = Instant::now();
            let run = engine.run_until_events(HEAP_EVENTS).expect("sparse heap");
            (
                t0.elapsed().as_secs_f64() * 1e3,
                black_box(run.execution.len()),
            )
        });
        entries.push(row("sparse", "heap", n, ms, events));
        let (ms, events) = median_run(3, || {
            let mut engine = build_sparse_ring_reference(n, sparse_horizon);
            let t0 = Instant::now();
            let run = engine.run_until_events(budget).expect("sparse reference");
            (
                t0.elapsed().as_secs_f64() * 1e3,
                black_box(run.execution.len()),
            )
        });
        entries.push(row("sparse", "reference", n, ms, events));
    }
    let speedup = dense_rate[0] / dense_rate[1];
    // The runs are single-threaded; the core count is recorded so a reader
    // can tell one host's file from another's.
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        "{{\n  \"bench\": \"engine_scaling_heap\",\n  \
         \"host_parallelism\": {host_parallelism},\n  \
         \"tokens_per_node_dense\": {TOKENS_PER_NODE},\n  \
         \"heap_event_budget\": {HEAP_EVENTS},\n  \
         \"dense_speedup_n1024\": {speedup:.1},\n  \"runs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    // Benches run with the package dir as cwd; default to the workspace
    // root so the artifact lands next to the committed copy.
    let path = std::env::var("PSYNC_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("engine_scaling_heap: wrote {path}"),
        Err(e) => eprintln!("engine_scaling_heap: could not write {path}: {e}"),
    }
    assert!(
        speedup >= 5.0,
        "heap engine only {speedup:.1}x the reference at n=1024 on the dense ring"
    );
}

criterion_group!(benches, bench_heap_scaling);
criterion_main!(benches);
