//! The metrics registry: named counters and fixed-bucket histograms, with
//! deterministically ordered JSON snapshots.
//!
//! Determinism is load-bearing: the explorer's replay coverage asserts
//! that re-running a case from a JSON artifact reproduces the *same*
//! [`MetricsSnapshot`], so snapshots list metrics in sorted name order
//! (the registry's name index is a `BTreeMap`) rather than insertion, slot
//! or hash order, and derive `PartialEq`/`Eq`. The JSON writer is
//! hand-rolled in the same style as `psync-explorer`'s `json` module
//! (objects keep key order, two-space indent, integers only) so snapshots
//! parse with that module's parser.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A fixed-bucket histogram of `i64` samples (typically nanoseconds).
///
/// `bounds` are inclusive upper bucket bounds in strictly increasing
/// order; a final implicit overflow bucket catches everything above the
/// last bound, so `counts.len() == bounds.len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<i64>,
    counts: Vec<u64>,
    count: u64,
    sum: i128,
    max: i64,
}

impl Histogram {
    /// Creates an empty histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn with_bounds(bounds: &[i64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: i64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += i128::from(value);
        if self.count == 1 || value > self.max {
            self.max = value;
        }
    }

    /// The inclusive upper bucket bounds.
    #[must_use]
    pub fn bounds(&self) -> &[i64] {
        &self.bounds
    }

    /// Per-bucket sample counts (last entry is the overflow bucket).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> i128 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    #[must_use]
    pub fn max(&self) -> i64 {
        self.max
    }

    /// Folds `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ — merging is only meaningful
    /// between histograms of the same shape.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 && (self.count == other.count || other.max > self.max) {
            self.max = other.max;
        }
    }
}

/// A resolved handle on one counter of the [`Registry`] that issued it
/// ([`Registry::counter_id`]). Valid for that registry (and its clones)
/// for as long as it lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// A resolved handle on one histogram of the [`Registry`] that issued it
/// ([`Registry::histogram_id`]); same validity as [`CounterId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A registry of named counters and histograms.
///
/// Counters and histograms live in slot vectors; a sorted name → slot
/// index sits beside each. A caller on a hot path resolves a name once
/// ([`counter_id`](Registry::counter_id),
/// [`histogram_id`](Registry::histogram_id)) and then updates by index
/// ([`add_to`](Registry::add_to), [`observe_in`](Registry::observe_in)) —
/// no `String`, no map walk. The name-keyed methods are the same two steps
/// in one call.
///
/// A slot is *empty* until something is recorded into it, and an empty
/// slot is invisible: it appears in no snapshot, reads as `0` / `None`,
/// and does not take part in `==`. Resolving a handle therefore never
/// changes what a registry reports, and two registries fed the same
/// updates in *any* order — with handles resolved in any order — produce
/// equal [`MetricsSnapshot`]s, the property the explorer's replay tests
/// pin. Slots are never removed, so a handle never dangles.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Vec<Option<u64>>,
    counter_slots: BTreeMap<String, usize>,
    gauges: BTreeMap<String, i64>,
    histograms: Vec<Option<Histogram>>,
    histogram_slots: BTreeMap<String, usize>,
}

/// Metrics, not slot layout: empty slots and slot order do not count.
impl PartialEq for Registry {
    fn eq(&self, other: &Registry) -> bool {
        self.recorded_counters().eq(other.recorded_counters())
            && self.gauges == other.gauges
            && self.recorded_histograms().eq(other.recorded_histograms())
    }
}

impl Eq for Registry {}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Resolves counter `name` to its slot, reserving an empty one on
    /// first sight. Allocates only then.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        CounterId(slot_of(&mut self.counter_slots, &mut self.counters, name))
    }

    /// Resolves histogram `name` to its slot, reserving an empty one on
    /// first sight. Allocates only then.
    pub fn histogram_id(&mut self, name: &str) -> HistogramId {
        HistogramId(slot_of(
            &mut self.histogram_slots,
            &mut self.histograms,
            name,
        ))
    }

    /// Adds `delta` to the counter behind `id`, creating it at zero first.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by an unrelated registry with fewer slots.
    #[inline]
    pub fn add_to(&mut self, id: CounterId, delta: u64) {
        *self.counters[id.0].get_or_insert(0) += delta;
    }

    /// Records `value` into the histogram behind `id`, creating it with
    /// `bounds` on first use.
    ///
    /// # Panics
    ///
    /// Panics (via [`Histogram::with_bounds`]) if a new histogram is given
    /// invalid bounds, or if `id` was issued by an unrelated registry with
    /// fewer slots.
    #[inline]
    pub fn observe_in(&mut self, id: HistogramId, bounds: &[i64], value: i64) {
        self.histograms[id.0]
            .get_or_insert_with(|| Histogram::with_bounds(bounds))
            .observe(value);
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn add(&mut self, name: &str, delta: u64) {
        let id = self.counter_id(name);
        self.add_to(id, delta);
    }

    /// Sets the gauge `name` to `value` — a last-write-wins level, for
    /// quantities that are measured rather than accumulated (e.g. the
    /// certified `ε̂` per node in nanoseconds).
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records `value` into the histogram `name`, creating it with
    /// `bounds` on first use.
    ///
    /// # Panics
    ///
    /// Panics (via [`Histogram::with_bounds`]) if a new histogram is given
    /// invalid bounds.
    pub fn observe(&mut self, name: &str, bounds: &[i64], value: i64) {
        let id = self.histogram_id(name);
        self.observe_in(id, bounds, value);
    }

    /// The current value of counter `name` (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_slots
            .get(name)
            .and_then(|&slot| self.counters[slot])
            .unwrap_or(0)
    }

    /// The current value of gauge `name`, if it was ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// The histogram `name`, if any sample was recorded under it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histogram_slots
            .get(name)
            .and_then(|&slot| self.histograms[slot].as_ref())
    }

    /// `(name, value)` of every counter something was added to, ascending
    /// by name.
    fn recorded_counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_slots
            .iter()
            .filter_map(|(name, &slot)| Some((name.as_str(), self.counters[slot]?)))
    }

    /// `(name, histogram)` of every histogram with a sample, ascending by
    /// name.
    fn recorded_histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histogram_slots
            .iter()
            .filter_map(|(name, &slot)| Some((name.as_str(), self.histograms[slot].as_ref()?)))
    }

    /// An immutable, order-stable snapshot of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .recorded_counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: self
                .recorded_histograms()
                .map(|(k, h)| (k.to_string(), h.clone()))
                .collect(),
        }
    }

    /// Folds the contents of `snapshot` into the live registry with the
    /// same algebra as [`MetricsSnapshot::absorb`]: counters add, gauges
    /// keep the worst (largest) level, histograms merge bucket-wise.
    /// Used to fold a judging pass's deterministic snapshot into a case's
    /// hub without disturbing what the run itself recorded.
    ///
    /// # Panics
    ///
    /// Panics if a histogram shared by name has different bucket bounds.
    pub fn absorb(&mut self, snapshot: &MetricsSnapshot) {
        for (name, v) in &snapshot.counters {
            self.add(name, *v);
        }
        for (name, v) in &snapshot.gauges {
            self.gauges
                .entry(name.clone())
                .and_modify(|g| *g = (*g).max(*v))
                .or_insert(*v);
        }
        for (name, h) in &snapshot.histograms {
            let id = self.histogram_id(name);
            match &mut self.histograms[id.0] {
                Some(mine) => mine.merge(h),
                empty => *empty = Some(h.clone()),
            }
        }
    }
}

/// The slot `index` maps `name` to, pushing an empty one onto `slots` the
/// first time the name is seen.
fn slot_of<T>(
    index: &mut BTreeMap<String, usize>,
    slots: &mut Vec<Option<T>>,
    name: &str,
) -> usize {
    if let Some(&slot) = index.get(name) {
        return slot;
    }
    slots.push(None);
    index.insert(name.to_string(), slots.len() - 1);
    slots.len() - 1
}

/// A point-in-time copy of a [`Registry`], sorted by metric name.
///
/// Snapshots compare with `==` (the replay tests do exactly that) and
/// serialize to JSON with [`MetricsSnapshot::to_json`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, ascending by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` pairs, ascending by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// The value of counter `name` (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The value of gauge `name`, if it was ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The histogram `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// Folds `other` into `self`: counters add, histograms merge
    /// bucket-wise, names union (staying sorted).
    ///
    /// # Panics
    ///
    /// Panics if a histogram shared by name has different bucket bounds.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.binary_search_by(|(k, _)| k.cmp(name)) {
                Ok(i) => self.counters[i].1 += v,
                Err(i) => self.counters.insert(i, (name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.binary_search_by(|(k, _)| k.cmp(name)) {
                // Gauges are levels, not totals: merging runs keeps the
                // worst (largest) level seen, so a campaign-wide ε̂ gauge
                // reads as "no case certified worse than this".
                Ok(i) => self.gauges[i].1 = self.gauges[i].1.max(*v),
                Err(i) => self.gauges.insert(i, (name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.binary_search_by(|(k, _)| k.cmp(name)) {
                Ok(i) => self.histograms[i].1.merge(h),
                Err(i) => self.histograms.insert(i, (name.clone(), h.clone())),
            }
        }
    }

    /// Serializes the snapshot as pretty-printed JSON (two-space indent,
    /// key order preserved, integers only) — the same hand-rolled dialect
    /// as `psync-explorer`'s `json` module, so its parser round-trips the
    /// output.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_string(&mut out, name);
            let _ = write!(out, ": {v}");
        }
        if self.counters.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str("\n  },\n");
        }
        out.push_str("  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_string(&mut out, name);
            let _ = write!(out, ": {v}");
        }
        if self.gauges.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str("\n  },\n");
        }
        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_string(&mut out, name);
            out.push_str(": {\n");
            let _ = writeln!(out, "      \"bounds\": {},", write_int_array(&h.bounds));
            let _ = writeln!(out, "      \"counts\": {},", write_int_array(&h.counts));
            let _ = writeln!(out, "      \"count\": {},", h.count);
            let _ = writeln!(out, "      \"sum\": {},", h.sum);
            let _ = writeln!(out, "      \"max\": {}", h.max);
            out.push_str("    }");
        }
        if self.histograms.is_empty() {
            out.push_str("}\n}");
        } else {
            out.push_str("\n  }\n}");
        }
        out
    }
}

/// Writes a JSON string literal with the minimal escapes the explorer's
/// parser understands.
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_int_array<T: std::fmt::Display>(values: &[T]) -> String {
    let mut s = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{v}");
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let mut h = Histogram::with_bounds(&[10, 100]);
        h.observe(10);
        h.observe(11);
        h.observe(1_000);
        assert_eq!(h.counts(), &[1, 1, 1]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1_021);
        assert_eq!(h.max(), 1_000);
    }

    #[test]
    fn histogram_merge_adds_bucketwise() {
        let mut a = Histogram::with_bounds(&[10]);
        a.observe(5);
        let mut b = Histogram::with_bounds(&[10]);
        b.observe(50);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1]);
        assert_eq!(a.max(), 50);
    }

    #[test]
    fn snapshots_are_order_insensitive() {
        let mut r1 = Registry::new();
        r1.add("b", 1);
        r1.add("a", 2);
        let mut r2 = Registry::new();
        r2.add("a", 2);
        r2.add("b", 1);
        assert_eq!(r1.snapshot(), r2.snapshot());
        let snap = r1.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn absorb_unions_and_adds() {
        let mut a = MetricsSnapshot::default();
        let mut r = Registry::new();
        r.add("x", 1);
        r.observe("h", &[10], 3);
        a.absorb(&r.snapshot());
        a.absorb(&r.snapshot());
        assert_eq!(a.counter("x"), 2);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    /// The guarantee campaign merging leans on: folding per-case
    /// snapshots is associative and has the empty snapshot as identity,
    /// so any bracketing of the same case sequence yields the same
    /// aggregate — including with partially overlapping metric names.
    #[test]
    fn absorb_is_associative_with_empty_identity() {
        let snap = |seed: u64| {
            let mut r = Registry::new();
            r.add("shared", seed);
            r.add(&format!("only.{}", seed % 3), 1);
            r.observe("h.shared", &[10, 100], (seed % 200) as i64);
            r.observe(&format!("h.only.{}", seed % 2), &[5], (seed % 7) as i64);
            r.snapshot()
        };
        let (a, b, c) = (snap(1), snap(2), snap(3));

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.absorb(&b);
        left.absorb(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.absorb(&c);
        let mut right = a.clone();
        right.absorb(&bc);
        assert_eq!(left, right);

        // Empty is an identity on both sides.
        let mut from_empty = MetricsSnapshot::default();
        from_empty.absorb(&left);
        assert_eq!(from_empty, left);
        let mut with_empty = left.clone();
        with_empty.absorb(&MetricsSnapshot::default());
        assert_eq!(with_empty, left);
    }

    #[test]
    fn gauges_are_last_write_levels_that_absorb_by_max() {
        let mut r = Registry::new();
        r.set_gauge("sync.eps_hat_ns.n0", 1_500_000);
        r.set_gauge("sync.eps_hat_ns.n0", 1_200_000);
        assert_eq!(r.gauge("sync.eps_hat_ns.n0"), Some(1_200_000));
        assert_eq!(r.gauge("absent"), None);

        let mut merged = r.snapshot();
        let mut worse = Registry::new();
        worse.set_gauge("sync.eps_hat_ns.n0", 1_900_000);
        worse.set_gauge("sync.eps_hat_ns.n1", -5);
        merged.absorb(&worse.snapshot());
        assert_eq!(merged.gauge("sync.eps_hat_ns.n0"), Some(1_900_000));
        assert_eq!(merged.gauge("sync.eps_hat_ns.n1"), Some(-5));

        // Absorbing into an empty registry round-trips gauges like
        // everything else.
        let mut back = Registry::new();
        back.absorb(&merged);
        assert_eq!(back.snapshot(), merged);

        let json = merged.to_json();
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"sync.eps_hat_ns.n0\": 1900000"));
    }

    #[test]
    fn json_snapshot_is_stable_and_integer_only() {
        let mut r = Registry::new();
        r.add("engine.steps", 3);
        r.observe("engine.queue_depth", &[1, 2], 1);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"engine.steps\": 3"));
        assert!(json.contains("\"bounds\": [1, 2]"));
        assert_eq!(json, r.snapshot().to_json());
    }

    #[test]
    fn empty_snapshot_serializes() {
        let json = MetricsSnapshot::default().to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"histograms\""));
    }
}
