//! The one command: every workload, each pass in a fresh child process of
//! this binary (so `peak_rss_mb` is per workload), an untraced pass
//! repeated for the end-to-end metrics and a traced pass for the per-layer
//! ones, then the correctness gate.

use std::collections::BTreeMap;
use std::process::Command;

use crate::common::{median, relative_spread};
use crate::manifest::{end_to_end, MetricDef, WORKLOADS};

/// What the suite was asked to do.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Only this workload (all six when `None`).
    pub workload: Option<String>,
    /// Seed handed to every pass.
    pub seed: u64,
    /// Seconds each pass measures.
    pub seconds: f64,
    /// Untraced passes per workload.
    pub repeats: usize,
    /// Every workload at about 1/20 size.
    pub smoke: bool,
    /// Two untraced sets back to back, compared by the benchmark's own
    /// bounds, instead of the untraced + traced passes.
    pub selfcheck: bool,
}

/// One child pass, parsed back from its output.
#[derive(Debug, Default)]
struct Pass {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
    exact: BTreeMap<String, u64>,
    notes: Vec<String>,
    trace: Option<String>,
}

fn child(args: &SuiteArgs, workload: &str, traced: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child and collects it: no process outlives
    // this call.
    let output = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let mut pass = Pass::default();
    let mut saw_result = false;
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("metric") => {
                if let (Some(name), Some(value), Some(unit)) =
                    (words.next(), words.next(), words.next())
                {
                    let value = value.parse().map_err(|_| format!("bad line {line:?}"))?;
                    pass.metrics
                        .insert(name.to_string(), (value, unit.to_string()));
                }
            }
            Some("exact") => {
                if let (Some(name), Some(value)) = (words.next(), words.next()) {
                    let value = value.parse().map_err(|_| format!("bad line {line:?}"))?;
                    pass.exact.insert(name.to_string(), value);
                }
            }
            Some("note") => pass.notes.push(line["note".len()..].trim().to_string()),
            Some("trace") => pass.trace = words.next().map(str::to_string),
            Some("result") => {
                saw_result = true;
                for word in words {
                    match word.split_once('=') {
                        Some(("correct", v)) => pass.correct = v == "true",
                        Some(("attempted", v)) => pass.attempted = v.parse().unwrap_or(0),
                        Some(("failed", v)) => pass.failed = v.parse().unwrap_or(u64::MAX),
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
    if saw_result {
        Ok(pass)
    } else {
        Err(format!("{workload} printed no result"))
    }
}

/// `version` output of a host tool, for the host record.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn print_host() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "host nproc={cores} rustc=\"{}\" git={}",
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"])
    );
}

/// The untraced passes of one workload: medians per end-to-end metric.
struct UntracedSet {
    medians: BTreeMap<String, f64>,
    exact: BTreeMap<String, u64>,
}

/// Runs the untraced passes of `workload` and prints median and spread
/// per metric. What the gate rejects goes to `failures`; `Err` means a pass
/// could not be run or read at all.
fn untraced_set(
    args: &SuiteArgs,
    workload: &str,
    failures: &mut Vec<String>,
) -> Result<UntracedSet, String> {
    let mut passes = Vec::new();
    for _ in 0..args.repeats {
        passes.push(child(args, workload, false)?);
    }
    let mut medians = BTreeMap::new();
    for m in end_to_end() {
        let values: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.metrics.get(&m.name).map(|(v, _)| *v))
            .collect();
        if values.len() != passes.len() {
            return Err(format!("{workload}: a pass did not print {}", m.name));
        }
        println!(
            "  {:<24} {:>16.6} {:<5} spread {:>5.1}% over {} passes",
            m.name,
            median(&values),
            m.unit,
            relative_spread(&values) * 100.0,
            values.len()
        );
        medians.insert(m.name, median(&values));
    }
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    println!(
        "  {:<24} {:>16.6}       ({failed} failed of {attempted} attempted)",
        "failed_share",
        failed as f64 / attempted.max(1) as f64
    );
    for note in passes.iter().flat_map(|p| &p.notes) {
        println!("  note {note}");
    }
    if failed > 0 || passes.iter().any(|p| !p.correct) {
        failures.push(format!(
            "{workload}: not correct ({failed} of {attempted} failed)"
        ));
    }
    if passes[1..].iter().any(|p| p.exact != passes[0].exact) {
        failures.push(format!("{workload}: exact counts differ between passes"));
    }
    Ok(UntracedSet {
        medians,
        exact: passes.swap_remove(0).exact,
    })
}

/// `second` is worse than `first` by more than the metric's bound.
fn regressed(m: &MetricDef, first: f64, second: f64) -> bool {
    let bound = m.bound.expect("end-to-end metrics carry a bound");
    if m.better == "higher" {
        second < first * (1.0 - bound)
    } else {
        second > first * (1.0 + bound)
    }
}

/// Runs the suite; returns the process exit code (non-zero when the
/// correctness gate or the self-check fails).
#[must_use]
pub fn run(args: &SuiteArgs) -> i32 {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect();
    if names.is_empty() {
        eprintln!("unknown workload {:?}", args.workload);
        return 2;
    }
    print_host();
    println!(
        "seed={} seconds={} repeats={} smoke={} selfcheck={}",
        args.seed, args.seconds, args.repeats, args.smoke, args.selfcheck
    );
    let mut failures = Vec::new();
    for workload in names {
        println!("\n== {workload}");
        let result = if args.selfcheck {
            selfcheck_workload(args, workload, &mut failures)
        } else {
            measure_workload(args, workload, &mut failures)
        };
        if let Err(e) = result {
            failures.push(e);
        }
    }
    println!();
    if failures.is_empty() {
        println!("gate: pass");
        0
    } else {
        for failure in &failures {
            println!("gate: FAIL {failure}");
        }
        1
    }
}

fn measure_workload(
    args: &SuiteArgs,
    workload: &str,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    println!(" untraced pass (end-to-end):");
    let untraced = untraced_set(args, workload, failures)?;
    println!(" traced pass (per layer; times are seconds per cycle):");
    let traced = child(args, workload, true)?;
    for (name, (value, unit)) in &traced.metrics {
        if *value != 0.0 {
            println!("  {name:<40} {value:>18.6} {unit}");
        }
    }
    if let Some(path) = &traced.trace {
        println!("  chrome trace: {path}");
    }
    if let Some((traced_rate, _)) = traced.metrics.get("traced.events_per_s") {
        println!(
            "  {:<40} {:>18.6} ratio (traced wall / untraced wall)",
            "trace_overhead_ratio",
            untraced.medians["events_per_s"] / traced_rate
        );
    }
    println!(" exact counts (identical in both passes; compare across commits):");
    for (name, value) in &traced.exact {
        println!("  {name:<40} {value:>18}");
        if untraced.exact.get(name).is_some_and(|u| u != value) {
            failures.push(format!(
                "{workload}: {name} is {} untraced but {value} traced",
                untraced.exact[name]
            ));
        }
    }
    if !traced.correct || traced.failed > 0 {
        failures.push(format!(
            "{workload}: traced pass failed {} of {}",
            traced.failed, traced.attempted
        ));
    }
    Ok(())
}

fn selfcheck_workload(
    args: &SuiteArgs,
    workload: &str,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    println!(" first set:");
    let first = untraced_set(args, workload, failures)?;
    println!(" second set:");
    let second = untraced_set(args, workload, failures)?;
    if first.exact != second.exact {
        failures.push(format!("{workload}: exact counts differ between the sets"));
    }
    println!(" second against first:");
    for m in end_to_end() {
        let (a, b) = (first.medians[&m.name], second.medians[&m.name]);
        let verdict = if regressed(&m, a, b) {
            failures.push(format!(
                "{workload}: {} moved {a} -> {b}, past its bound of {}",
                m.name,
                m.bound.unwrap_or(0.0)
            ));
            "OUTSIDE"
        } else {
            "within"
        };
        println!(
            "  {:<24} {:>+7.2}% ({verdict} the {:.0}% bound)",
            m.name,
            (b / a - 1.0) * 100.0,
            m.bound.unwrap_or(0.0) * 100.0
        );
    }
    Ok(())
}
