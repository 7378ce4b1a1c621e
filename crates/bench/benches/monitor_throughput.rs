//! Monitor throughput: post-hoc vs streaming exact judging of
//! million-event traces (reported in `EXPERIMENTS.md` §E18).
//!
//! One workload, two judging pipelines, trace lengths up to 10⁶ events
//! (eight `κ`-classes plus eight unclassified action values, 1 µs event
//! spacing, a slowly drifting ≤ 600 µs offset between reference and
//! observed — comfortably inside ε = 2 ms, so the accept path judges
//! every event):
//!
//! - `posthoc_exact` — what explorer campaigns did before online judging:
//!   materialize the observed trace (clone every action), then run the
//!   offline `eps_equivalent` matcher;
//! - `stream_exact` — `StreamingEps` fed event by event, no observed
//!   trace resident, but the full reference is (O(|reference|) memory).
//!
//! Besides the criterion sweep this bench writes `BENCH_monitor.json`
//! (override the path with `PSYNC_BENCH_OUT`) and asserts on the spot:
//! at 10⁶ events the streaming monitor judges ≥ 3× the events/s of the
//! post-hoc mode, its witness equals the offline one, and a planted
//! violation is rejected by both. `PSYNC_BENCH_SMOKE=1` caps the sweep at
//! 10⁵ events and skips the throughput-ratio assertion (CI runners have
//! no quiet cores to promise ratios on) while keeping every correctness
//! assertion.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use psync_automata::relations::{eps_equivalent, ClassMap, RelationError, Witness};
use psync_automata::{Action, TimedTrace};
use psync_obs::StreamingEps;
use psync_time::{Duration, Time};

/// A heap-allocated event label — the realistic (cache-unfriendly) case:
/// both pipelines keep every label resident.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Evt(String);

impl Action for Evt {
    fn name(&self) -> &'static str {
        "evt"
    }
}

const EPS: Duration = Duration::from_millis(2);
const SPACING_NS: i64 = 1_000;

fn smoke() -> bool {
    std::env::var("PSYNC_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

fn lengths() -> Vec<usize> {
    if smoke() {
        vec![10_000, 100_000]
    } else {
        vec![10_000, 100_000, 1_000_000]
    }
}

/// Eight classes keyed by the first byte, everything else unclassified.
fn classes() -> ClassMap<Evt> {
    ClassMap::by(|a: &Evt| match a.0.as_bytes().first() {
        Some(c @ b'a'..=b'h') => Some(usize::from(c - b'a')),
        _ => None,
    })
}

/// The `i`-th action: every ninth event is one of eight unclassified
/// values (matched per value), the rest rotate through the classes with a
/// varying payload so action equality is not a constant-compare.
fn action(i: usize) -> Evt {
    if i % 9 == 8 {
        Evt(format!("x{}", i % 8))
    } else {
        Evt(format!("{}:{:03}", (b'a' + (i % 8) as u8) as char, i % 199))
    }
}

fn reference_time(i: usize) -> Time {
    Time::ZERO + Duration::from_nanos(i as i64 * SPACING_NS)
}

/// A triangle-wave offset in [0, 600 µs] changing by ≤ 1 µs per 1024
/// events: slow enough that observed times stay non-decreasing, small
/// enough to stay inside ε.
fn drift(i: usize) -> Duration {
    let phase = (i / 1024) % 1200;
    Duration::from_micros(phase.min(1200 - phase) as i64)
}

fn reference(n: usize) -> TimedTrace<Evt> {
    TimedTrace::from_pairs((0..n).map(|i| (action(i), reference_time(i))))
}

/// The observed event stream, as the engine would hand it to observers.
fn stream(n: usize) -> Vec<(Evt, Time)> {
    (0..n)
        .map(|i| (action(i), reference_time(i) + drift(i)))
        .collect()
}

/// The status-quo pipeline: materialize the observed trace, then run the
/// offline matcher.
fn posthoc_exact(
    reference: &TimedTrace<Evt>,
    stream: &[(Evt, Time)],
    classes: &ClassMap<Evt>,
) -> Result<Witness, RelationError<Evt>> {
    let observed = TimedTrace::from_pairs(stream.iter().map(|(a, t)| (a.clone(), *t)));
    eps_equivalent(reference, &observed, EPS, classes)
}

fn stream_exact(
    reference: &TimedTrace<Evt>,
    stream: &[(Evt, Time)],
    classes: &ClassMap<Evt>,
) -> Result<Witness, RelationError<Evt>> {
    let mut m = StreamingEps::new(reference, EPS, classes);
    for (a, t) in stream {
        m.observe(a, *t);
    }
    m.finish()
}

/// What both pipelines keep resident: the reference entries, their
/// string payloads, and one lane index per reference event.
fn exact_resident_bytes(reference: &TimedTrace<Evt>) -> usize {
    let entries = reference.len() * std::mem::size_of::<(Evt, Time)>();
    let payloads: usize = reference.iter().map(|(a, _)| a.0.len()).sum();
    let lane_indices = reference.len() * std::mem::size_of::<usize>();
    entries + payloads + lane_indices
}

/// Median wall time of `runs` executions, in milliseconds.
fn median_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The differential pins, run at every length regardless of smoke mode.
fn assert_verdicts(
    reference: &TimedTrace<Evt>,
    stream_events: &[(Evt, Time)],
    classes: &ClassMap<Evt>,
) {
    let offline = posthoc_exact(reference, stream_events, classes).expect("clean trace accepted");
    let exact = stream_exact(reference, stream_events, classes).expect("clean trace accepted");
    assert_eq!(exact, offline, "streaming and offline witnesses differ");

    // A planted violation (last event pushed ε + 2 ms late) is rejected
    // by both pipelines.
    let mut bad = stream_events.to_vec();
    let last = bad.last_mut().expect("non-empty stream");
    last.1 = last.1 + EPS + Duration::from_millis(2);
    assert!(stream_exact(reference, &bad, classes).is_err());
    assert!(posthoc_exact(reference, &bad, classes).is_err());
}

fn bench_monitor_throughput(c: &mut Criterion) {
    let classes = classes();
    let n = 100_000;
    let reference_trace = reference(n);
    let events = stream(n);
    let mut group = c.benchmark_group("monitor_throughput");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("posthoc_exact", n), &n, |b, _| {
        b.iter(|| black_box(posthoc_exact(&reference_trace, &events, &classes)));
    });
    group.bench_with_input(BenchmarkId::new("stream_exact", n), &n, |b, _| {
        b.iter(|| black_box(stream_exact(&reference_trace, &events, &classes)));
    });
    group.finish();
    write_artifact(&classes);
}

fn write_artifact(classes: &ClassMap<Evt>) {
    let smoke = smoke();
    let runs = if smoke { 3 } else { 5 };
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let mut entries = Vec::new();
    let mut peak: Option<(f64, f64)> = None; // (posthoc ms, stream ms) at max n
    for n in lengths() {
        let reference_trace = reference(n);
        let events = stream(n);
        assert_verdicts(&reference_trace, &events, classes);
        let exact_mem = exact_resident_bytes(&reference_trace);
        let mut record = |mode: &str, ms: f64| {
            let events_per_sec = (n as f64 / (ms / 1e3)) as u64;
            entries.push(format!(
                "    {{\"events\": {n}, \"mode\": \"{mode}\", \"median_ms\": {ms:.3}, \
                 \"events_per_sec\": {events_per_sec}, \"memory_bytes\": {exact_mem}}}"
            ));
            ms
        };
        let posthoc_ms = record(
            "posthoc_exact",
            median_ms(runs, || {
                black_box(posthoc_exact(&reference_trace, &events, classes)).ok();
            }),
        );
        let stream_ms = record(
            "stream_exact",
            median_ms(runs, || {
                black_box(stream_exact(&reference_trace, &events, classes)).ok();
            }),
        );
        peak = Some((posthoc_ms, stream_ms));
    }
    let (posthoc_ms, stream_ms) = peak.expect("at least one length");
    let speedup = posthoc_ms / stream_ms;
    let json = format!(
        "{{\n  \"bench\": \"monitor_throughput\",\n  \"smoke\": {smoke},\n  \
         \"host_parallelism\": {host_parallelism},\n  \"eps_ns\": {},\n  \
         \"speedup_stream_vs_posthoc_at_peak\": {speedup:.2},\n  \"runs\": [\n{}\n  ]\n}}\n",
        EPS.as_nanos(),
        entries.join(",\n")
    );
    let path = std::env::var("PSYNC_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_monitor.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("monitor_throughput: wrote {path}"),
        Err(e) => eprintln!("monitor_throughput: could not write {path}: {e}"),
    }
    if !smoke {
        assert!(
            speedup >= 3.0,
            "streaming judging is only {speedup:.2}× the post-hoc mode at 10⁶ events"
        );
    }
}

criterion_group!(benches, bench_monitor_throughput);
criterion_main!(benches);
