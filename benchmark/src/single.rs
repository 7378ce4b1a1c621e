//! One pass of one workload in this process: run it, print every metric
//! by name with its unit, and end with the one-line JSON result the driver
//! reads.
//!
//! Output, one item per line (the suite parses these back):
//! `iterations N`, `note <text>`, `exact <name> <count>`,
//! `metric <name> <value> <unit>`, `span <name> <count> <total_s> <self_s>`,
//! `trace <path>`,
//! `result correct=<bool> attempted=<n> failed=<n>`, then the JSON object.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::common::{median, Outcome, RunArgs};
use crate::manifest::{end_to_end, per_layer};
use crate::spans::{self_seconds, Tracer};

/// High-water resident set of this process in MB (`VmHWM`), so it is per
/// workload: every pass runs in a process of its own.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The metrics of the pass: every end-to-end metric untraced, every
/// per-layer metric traced (0 where a layer takes no part in the
/// workload).
fn metrics(out: &Outcome, traced: bool) -> Vec<(String, f64, &'static str)> {
    if traced {
        return per_layer()
            .into_iter()
            .map(|m| {
                let value = out.layer.get(&m.name).copied().unwrap_or(0.0);
                (m.name, value, m.unit)
            })
            .collect();
    }
    end_to_end()
        .into_iter()
        .map(|m| {
            let value = match m.name.as_str() {
                "events_per_s" => median(&out.events_per_s),
                "peak_rss_mb" => peak_rss_mb(),
                "setup_s" => median(&out.setup_s),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            (m.name, value, m.unit)
        })
        .collect()
}

/// The trace without a viewer: per span name, how many there were, their
/// total seconds and their self seconds (span − children), as
/// `span <name> <count> <total_s> <self_s>`.
fn print_span_summary(tracer: &Tracer) {
    let spans = tracer.spans();
    let own = self_seconds(&spans);
    let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    for (span, own_s) in spans.iter().zip(own) {
        let entry = by_name.entry(&span.name).or_default();
        entry.0 += 1;
        entry.1 += (span.end_ns - span.start_ns) as f64 / 1e9;
        entry.2 += own_s;
    }
    for (name, (count, total_s, own_s)) in by_name {
        println!("span {name} {count} {total_s:.6} {own_s:.6}");
    }
}

/// Runs one pass and prints it. Returns the process exit code: 0 when the
/// pass ran, whatever it found — `correct` and `failed` carry the verdict.
#[must_use]
pub fn run(workload: &str, args: &RunArgs, traced: bool, out_dir: &Path) -> i32 {
    let tracer = Tracer::new(traced);
    let (outcome, _) = tracer.span(workload, || crate::run_workload(workload, args, &tracer));
    let Some(mut outcome) = outcome else {
        eprintln!("unknown workload {workload:?}");
        return 2;
    };
    if outcome.events_per_s.is_empty() {
        // Every iteration died before it could be timed; the metrics
        // below would be medians of nothing.
        eprintln!("{workload}: no iteration completed");
        for note in &outcome.notes {
            eprintln!("note {note}");
        }
        return 1;
    }

    outcome.set("traced.events_per_s", median(&outcome.events_per_s));
    println!("iterations {}", outcome.iterations);
    for note in outcome.notes.iter().take(20) {
        println!("note {note}");
    }
    for (name, value) in &outcome.exact {
        println!("exact {name} {value}");
    }
    if traced {
        print_span_summary(&tracer);
        match tracer.write_chrome_trace(out_dir, &format!("{workload}.seed{}", args.seed)) {
            Ok(path) => println!("trace {}", path.display()),
            Err(e) => {
                outcome.correct = false;
                println!("note trace not written: {e}");
            }
        }
    }
    let metrics = metrics(&outcome, traced);
    let correct = outcome.correct
        && outcome.failed == 0
        && metrics.iter().all(|(_, value, _)| value.is_finite());
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        println!("metric {name} {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!(
        "result correct={correct} attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    println!("{json}");
    0
}
