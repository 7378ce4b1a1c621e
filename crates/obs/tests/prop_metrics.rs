//! Property tests for the metrics merge algebra.
//!
//! Campaign aggregation folds per-case [`MetricsSnapshot`]s in whatever
//! order the worker pool finishes them, and the sharded judge folds
//! per-shard snapshots in shard order — both lean on `absorb` being a
//! commutative monoid so the bracketing never shows in the report. The
//! unit tests in `metrics.rs` pin hand-picked cases; these properties pin
//! the laws on generated snapshots with partially overlapping names,
//! covering all three metric families at once:
//!
//! - counters add,
//! - gauges max-merge (the PR 8 addition: a merged gauge reads as "no
//!   constituent certified worse than this"),
//! - histograms merge bucket-wise.
//!
//! The last property pins the registry's storage against a plain
//! `BTreeMap` model: the slot-resolved handle calls (`counter_id` /
//! `add_to`, `histogram_id` / `observe_in`) and the name-keyed calls are
//! one storage, a resolved-but-untouched slot is invisible, handles
//! outlive `restore`, and slot layout never shows.
//!
//! Note: the vendored proptest stub replays deterministically from the
//! test name and performs no shrinking, so it persists no
//! `*.proptest-regressions` files.

use std::collections::BTreeMap;

use proptest::prelude::*;
use psync_obs::{CounterId, Histogram, HistogramId, MetricsSnapshot, Registry};

/// One random registry mutation: `(family, name index, value)`. Name
/// indices are drawn from a small pool so generated snapshots overlap on
/// some names and diverge on others — the interesting merge cases.
/// Families `0..3` are the name-keyed calls ([`apply`]); `3..10` are the
/// handle calls and `snapshot` / `restore` / `absorb` ([`Harness::apply`]).
type Op = (usize, usize, i64);

const COUNTERS: usize = 4;
const HISTOGRAMS: usize = 3;
const BOUNDS: &[i64] = &[10, 100, 1_000];

fn counter_name(name: usize) -> String {
    format!("counter.{}", name % COUNTERS)
}

fn gauge_name(name: usize) -> String {
    format!("gauge.{}", name % 4)
}

fn histogram_name(name: usize) -> String {
    format!("histogram.{}", name % HISTOGRAMS)
}

fn apply(r: &mut Registry, (family, name, value): Op) {
    match family % 3 {
        0 => r.add(&counter_name(name), value.unsigned_abs()),
        // Gauges are levels and may be negative (e.g. a clock offset).
        1 => r.set_gauge(&gauge_name(name), value - 500),
        _ => r.observe(&histogram_name(name), BOUNDS, value),
    }
}

/// What a registry is specified to be: three sorted maps keyed by name,
/// an entry existing once something was recorded under it.
#[derive(Default)]
struct Model {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Model {
    fn add(&mut self, name: String, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn observe(&mut self, name: String, value: i64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::with_bounds(BOUNDS))
            .observe(value);
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone().into_iter().collect(),
            gauges: self.gauges.clone().into_iter().collect(),
            histograms: self.histograms.clone().into_iter().collect(),
        }
    }

    fn absorb(&mut self, snapshot: &MetricsSnapshot) {
        for (name, v) in &snapshot.counters {
            self.add(name.clone(), *v);
        }
        for (name, v) in &snapshot.gauges {
            let level = self.gauges.entry(name.clone()).or_insert(*v);
            *level = (*level).max(*v);
        }
        for (name, h) in &snapshot.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    fn restore(&mut self, snapshot: &MetricsSnapshot) {
        *self = Model::default();
        self.absorb(snapshot);
    }
}

/// Handles on every pool name, in slot-per-name tables.
struct Handles {
    counters: [Option<CounterId>; COUNTERS],
    histograms: [Option<HistogramId>; HISTOGRAMS],
}

/// One registry driven by the full op set, its model, and a twin registry
/// fed the same updates through handles it resolved up front in the
/// opposite order — so the two differ in slot layout and nothing else.
struct Harness {
    reg: Registry,
    /// Filled by `counter_id` / `histogram_id` ops (and by the first
    /// `add_to` / `observe_in` of a name); never cleared, so a handle
    /// taken before a `restore` is used after it.
    held: Handles,
    model: Model,
    twin: Registry,
    twin_held: Handles,
    /// The last `snapshot` op's result; `restore` and `absorb` use it.
    saved: MetricsSnapshot,
}

impl Harness {
    fn new() -> Harness {
        let mut twin = Registry::new();
        let mut twin_held = Handles {
            counters: [None; COUNTERS],
            histograms: [None; HISTOGRAMS],
        };
        for name in (0..HISTOGRAMS).rev() {
            twin_held.histograms[name] = Some(twin.histogram_id(&histogram_name(name)));
        }
        for name in (0..COUNTERS).rev() {
            twin_held.counters[name] = Some(twin.counter_id(&counter_name(name)));
        }
        Harness {
            reg: Registry::new(),
            held: Handles {
                counters: [None; COUNTERS],
                histograms: [None; HISTOGRAMS],
            },
            model: Model::default(),
            twin,
            twin_held,
            saved: MetricsSnapshot::default(),
        }
    }

    fn counter_id(&mut self, name: usize) -> CounterId {
        let name = name % COUNTERS;
        *self.held.counters[name].get_or_insert_with(|| self.reg.counter_id(&counter_name(name)))
    }

    fn histogram_id(&mut self, name: usize) -> HistogramId {
        let name = name % HISTOGRAMS;
        *self.held.histograms[name]
            .get_or_insert_with(|| self.reg.histogram_id(&histogram_name(name)))
    }

    fn apply(&mut self, op: Op) {
        let (family, name, value) = op;
        let twin_counter = self.twin_held.counters[name % COUNTERS].expect("resolved in new");
        let twin_histogram = self.twin_held.histograms[name % HISTOGRAMS].expect("resolved in new");
        match family % 10 {
            0 => {
                apply(&mut self.reg, op);
                self.model.add(counter_name(name), value.unsigned_abs());
                self.twin.add_to(twin_counter, value.unsigned_abs());
            }
            1 => {
                apply(&mut self.reg, op);
                self.model.gauges.insert(gauge_name(name), value - 500);
                apply(&mut self.twin, op);
            }
            2 => {
                apply(&mut self.reg, op);
                self.model.observe(histogram_name(name), value);
                self.twin.observe_in(twin_histogram, BOUNDS, value);
            }
            // Resolving records nothing: the model does not move.
            3 => {
                self.counter_id(name);
            }
            4 => {
                let id = self.counter_id(name);
                self.reg.add_to(id, value.unsigned_abs());
                self.model.add(counter_name(name), value.unsigned_abs());
                self.twin.add(&counter_name(name), value.unsigned_abs());
            }
            5 => {
                self.histogram_id(name);
            }
            6 => {
                let id = self.histogram_id(name);
                self.reg.observe_in(id, BOUNDS, value);
                self.model.observe(histogram_name(name), value);
                self.twin.observe(&histogram_name(name), BOUNDS, value);
            }
            7 => self.saved = self.reg.snapshot(),
            8 => {
                self.reg.restore(&self.saved);
                self.model.restore(&self.saved);
                self.twin.restore(&self.saved);
            }
            _ => {
                self.reg.absorb(&self.saved);
                self.model.absorb(&self.saved);
                self.twin.absorb(&self.saved);
            }
        }
    }

    /// Registry, twin and model report the same metrics, through every
    /// reader.
    fn check(&self) -> Result<(), TestCaseError> {
        let expected = self.model.snapshot();
        prop_assert_eq!(self.reg.snapshot(), expected.clone());
        prop_assert_eq!(self.reg.snapshot().to_json(), expected.to_json());
        prop_assert_eq!(self.twin.snapshot(), expected);
        prop_assert!(self.reg == self.twin, "slot layout showed in ==");
        for name in 0..COUNTERS {
            let name = counter_name(name);
            let want = self.model.counters.get(&name).copied().unwrap_or(0);
            prop_assert_eq!(self.reg.counter(&name), want);
        }
        for name in 0..HISTOGRAMS {
            let name = histogram_name(name);
            prop_assert_eq!(self.reg.histogram(&name), self.model.histograms.get(&name));
        }
        Ok(())
    }
}

fn snapshot_strategy() -> impl Strategy<Value = MetricsSnapshot> {
    prop::collection::vec((0usize..3, 0usize..8, 0i64..1_000), 0..16).prop_map(|ops| {
        let mut r = Registry::new();
        for op in ops {
            apply(&mut r, op);
        }
        r.snapshot()
    })
}

fn merged(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = a.clone();
    out.absorb(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `absorb` is commutative: shard finish order cannot matter.
    #[test]
    fn absorb_is_commutative(a in snapshot_strategy(), b in snapshot_strategy()) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// `absorb` is associative: any bracketing of the same snapshots —
    /// per-worker partial merges folded at the end, or one running
    /// accumulator — yields the same aggregate.
    #[test]
    fn absorb_is_associative(
        a in snapshot_strategy(),
        b in snapshot_strategy(),
        c in snapshot_strategy(),
    ) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    /// The empty snapshot is a two-sided identity.
    #[test]
    fn empty_snapshot_is_identity(a in snapshot_strategy()) {
        let empty = MetricsSnapshot::default();
        prop_assert_eq!(merged(&empty, &a), a.clone());
        prop_assert_eq!(merged(&a, &empty), a);
    }

    /// Gauge max-merge is idempotent: folding a snapshot into itself
    /// doubles every counter and histogram count but leaves every gauge
    /// level untouched — gauges are measurements, not totals.
    #[test]
    fn gauge_merge_is_idempotent(a in snapshot_strategy()) {
        let twice = merged(&a, &a);
        prop_assert_eq!(&twice.gauges, &a.gauges);
        for (name, v) in &a.counters {
            prop_assert_eq!(twice.counter(name), 2 * v);
        }
        for (name, h) in &a.histograms {
            prop_assert_eq!(
                twice.histogram(name).expect("name survives merge").count(),
                2 * h.count()
            );
        }
    }

    /// A merged gauge is the pointwise max over every constituent that
    /// set it (and only those), regardless of merge order.
    #[test]
    fn merged_gauge_is_pointwise_max(snaps in prop::collection::vec(snapshot_strategy(), 1..5)) {
        let mut total = MetricsSnapshot::default();
        for s in &snaps {
            total.absorb(s);
        }
        let mut names: Vec<&String> =
            snaps.iter().flat_map(|s| s.gauges.iter().map(|(k, _)| k)).collect();
        names.sort();
        names.dedup();
        prop_assert_eq!(total.gauges.len(), names.len());
        for name in names {
            let max = snaps.iter().filter_map(|s| s.gauge(name)).max();
            prop_assert_eq!(total.gauge(name), max);
        }
    }

    /// `Registry::absorb` (fold a snapshot into a live registry) agrees
    /// with `MetricsSnapshot::absorb` — the judge path that folds judging
    /// metrics into a case hub uses the same algebra as campaign merging.
    #[test]
    fn registry_absorb_agrees_with_snapshot_absorb(
        ops in prop::collection::vec((0usize..3, 0usize..8, 0i64..1_000), 0..16),
        b in snapshot_strategy(),
    ) {
        let mut r = Registry::new();
        for op in ops {
            apply(&mut r, op);
        }
        let via_snapshot = merged(&r.snapshot(), &b);
        r.absorb(&b);
        prop_assert_eq!(r.snapshot(), via_snapshot);
    }

    /// Random interleavings of the name-keyed calls, the handle calls and
    /// `snapshot` / `restore` / `absorb` agree with the `BTreeMap` model
    /// after every step — in the snapshot, its JSON, `counter()` and
    /// `histogram()` — and with a twin registry whose slots were laid out
    /// in the opposite order. Each case then ends on the three situations
    /// the slot storage could get wrong, so all three are drawn every
    /// time whatever the interleaving was.
    #[test]
    fn handles_and_names_are_one_storage(
        ops in prop::collection::vec((0usize..10, 0usize..8, 0i64..1_000), 0..48),
        tail in prop::collection::vec((0usize..8, 0i64..1_000), 1..8),
    ) {
        let mut h = Harness::new();
        for op in ops {
            h.apply(op);
            h.check()?;
        }

        // Resolve without add: a name outside the pool, so nothing ever
        // records under it. Invisible to every reader.
        let before = h.reg.snapshot();
        let idle = h.reg.counter_id("counter.idle");
        h.reg.histogram_id("histogram.idle");
        prop_assert_eq!(h.reg.counter_id("counter.idle"), idle);
        prop_assert_eq!(h.reg.snapshot(), before.clone());
        prop_assert_eq!(h.reg.snapshot().to_json(), before.to_json());
        prop_assert_eq!(h.reg.counter("counter.idle"), 0);
        prop_assert!(h.reg.histogram("histogram.idle").is_none());
        h.check()?;

        // Handles taken before a restore record into the same names after
        // it — every pool name's handle, whichever the ops had resolved.
        let counters: Vec<CounterId> = (0..COUNTERS).map(|name| h.counter_id(name)).collect();
        let histograms: Vec<HistogramId> =
            (0..HISTOGRAMS).map(|name| h.histogram_id(name)).collect();
        h.apply((8, 0, 0));
        prop_assert_eq!(h.reg.snapshot(), h.saved.clone());
        h.check()?;
        for (name, value) in tail {
            h.reg.add_to(counters[name % COUNTERS], value.unsigned_abs());
            h.twin.add(&counter_name(name), value.unsigned_abs());
            h.model.add(counter_name(name), value.unsigned_abs());
            h.reg.observe_in(histograms[name % HISTOGRAMS], BOUNDS, value);
            h.twin.observe(&histogram_name(name), BOUNDS, value);
            h.model.observe(histogram_name(name), value);
            h.check()?;
        }
    }
}
