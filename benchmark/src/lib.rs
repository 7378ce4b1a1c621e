//! The psync end-to-end benchmark: the product path — Algorithm S through
//! Simulation 1 (Theorem 4.7) on `[d₁,d₂]` channels, held to the
//! Theorem 6.5 bounds — measured on the logical schedule and on wall
//! clocks, every run judged, wall time split by layer.
//!
//! Everything is measured from outside, through the public traits and
//! functions of the workspace crates. See `README.md` for the workloads,
//! the metrics and how to read the trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod common;
pub mod dc;
pub mod layers;
pub mod live;
pub mod manifest;
pub mod posthoc;
pub mod sim;
pub mod single;
pub mod spans;
pub mod suite;

use campaign::CampaignWorkload;
use common::{Outcome, RunArgs};
use dc::DcConfig;
use live::LiveWorkload;
use posthoc::PosthocWorkload;
use sim::SimWorkload;
use spans::Tracer;

/// `sim_dc_small` at full or smoke size.
#[must_use]
pub fn sim_dc_small(smoke: bool) -> SimWorkload {
    SimWorkload {
        stream: 1,
        cfg: DcConfig {
            n: 4,
            ops_per_node: if smoke { 100 } else { 2000 },
            exact_linearizability: true,
        },
        cycle: if smoke { 2 } else { 8 },
    }
}

/// `sim_dc_wide` at full or smoke size.
#[must_use]
pub fn sim_dc_wide(smoke: bool) -> SimWorkload {
    SimWorkload {
        stream: 2,
        cfg: DcConfig {
            n: 32,
            ops_per_node: if smoke { 1 } else { 10 },
            exact_linearizability: false,
        },
        cycle: if smoke { 1 } else { 4 },
    }
}

/// `judge_posthoc` at full or smoke size.
#[must_use]
pub fn judge_posthoc(smoke: bool) -> PosthocWorkload {
    PosthocWorkload {
        cfg: DcConfig {
            n: 8,
            ops_per_node: if smoke { 20 } else { 100 },
            exact_linearizability: true,
        },
        executions: if smoke { 2 } else { 32 },
    }
}

/// Runs one pass of the named workload, or `None` for an unknown name.
#[must_use]
pub fn run_workload(name: &str, args: &RunArgs, tracer: &Tracer) -> Option<Outcome> {
    let smoke = args.smoke;
    Some(match name {
        "sim_dc_small" => sim::run(&sim_dc_small(smoke), args, tracer),
        "sim_dc_wide" => sim::run(&sim_dc_wide(smoke), args, tracer),
        "judge_posthoc" => posthoc::run(&judge_posthoc(smoke), args, tracer),
        "campaign_fleet" => campaign::run(
            &CampaignWorkload::Fleet {
                cases: if smoke { 4 } else { 64 },
            },
            args,
            tracer,
        ),
        "campaign_canary" => campaign::run(
            &CampaignWorkload::Canary {
                cases: if smoke { 48 } else { 96 },
            },
            args,
            tracer,
        ),
        "live_register" => live::run(
            &LiveWorkload {
                ops_per_node: if smoke { 8 } else { 100 },
            },
            args,
            tracer,
        ),
        _ => return None,
    })
}
