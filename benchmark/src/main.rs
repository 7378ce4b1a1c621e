//! Command line of the psync benchmark.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one pass of one
//!   workload in this process; the last line of output is the JSON result
//!   (the benchmark driver's protocol).
//! * without `--trace` — the suite: every workload (or `--workload W`),
//!   each pass in a child process, `--repeats R` untraced passes plus one
//!   traced pass, then the correctness gate. `--selfcheck` runs two
//!   untraced sets instead and compares them by the benchmark's own
//!   bounds. `--smoke` runs everything at about 1/20 size.
//! * `--emit-manifest` — prints `BENCHMARK.json`.

use std::path::Path;
use std::process::ExitCode;

use psync_benchmark::common::RunArgs;
use psync_benchmark::manifest::{self, RUN_SECONDS};
use psync_benchmark::suite::SuiteArgs;
use psync_benchmark::{single, suite};

const USAGE: &str = "usage: psync-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--repeats R] [--smoke] [--selfcheck] [--emit-manifest]";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    repeats: usize,
    smoke: bool,
    selfcheck: bool,
    emit_manifest: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        repeats: 3,
        smoke: false,
        selfcheck: false,
        emit_manifest: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && (0.0..=600.0).contains(&seconds)) {
                    return Err("--seconds must be between 0 and 600".into());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--repeats" => {
                cli.repeats = value()?.parse().map_err(|e| format!("--repeats: {e}"))?;
                if !(1..=100).contains(&cli.repeats) {
                    return Err("--repeats must be between 1 and 100".into());
                }
            }
            "--smoke" => cli.smoke = true,
            "--selfcheck" => cli.selfcheck = true,
            "--emit-manifest" => cli.emit_manifest = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("{why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.emit_manifest {
        print!("{}", manifest::render());
        return ExitCode::SUCCESS;
    }
    let seconds = cli.seconds.unwrap_or(if cli.smoke {
        0.4
    } else {
        f64::from(RUN_SECONDS)
    });
    let code = match (cli.trace, &cli.workload) {
        (Some(traced), Some(workload)) => {
            let args = RunArgs {
                seed: cli.seed,
                seconds,
                smoke: cli.smoke,
            };
            let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            single::run(workload, &args, traced, &out_dir)
        }
        (Some(_), None) => {
            eprintln!("--trace runs one pass of one workload: give --workload too\n{USAGE}");
            2
        }
        (None, _) => suite::run(&SuiteArgs {
            workload: cli.workload,
            seed: cli.seed,
            seconds,
            repeats: cli.repeats,
            smoke: cli.smoke,
            selfcheck: cli.selfcheck,
        }),
    };
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}
