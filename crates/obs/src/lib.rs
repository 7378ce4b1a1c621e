//! Observability for the psync engines.
//!
//! Three layers, each usable on its own:
//!
//! - [`metrics`] — a registry of named counters and fixed-bucket
//!   histograms with deterministically ordered, `Eq`-comparable
//!   [`MetricsSnapshot`]s and hand-rolled JSON serialization.
//! - [`observe`] — [`psync_executor::Observer`] implementations that tap
//!   engine hook points into a shared [`MetricsHub`] (steps, deliveries,
//!   queue depth, clock drift, per-channel delay) plus the streaming
//!   [`CEpsMonitor`] for the `C_ε` clock-accuracy predicate.
//! - [`monitor`] — streaming monitors for the paper's trace relations
//!   `=_{ε,κ}` and `≤_{δ,K}`, verdict-equivalent to the offline matchers
//!   in [`psync_automata::relations`] (the reference
//!   `tests/prop_monitors.rs` holds them to) but with memory bounded by
//!   the reference trace.
//! - [`shard`] — judging with its work accounted: [`check_all_sharded`]
//!   checks a slice of oracles in order and returns the violations with
//!   a deterministic `monitor.*` snapshot.
//! - [`online`] — [`OnlineJudge`], an [`psync_executor::Observer`] that
//!   feeds events to [`psync_verify::StreamOracle`]s *during* the run and
//!   exposes a handle for short-circuiting the moment a violation is
//!   certain. A property with a stream form is written once, in that
//!   form; judging it post-hoc is [`psync_verify::FoldOracle`] folding
//!   the same oracle over the recorded events, not a second
//!   implementation.
//!
//! Everything here is an *observer* in the strict sense: attaching any of
//! these to an [`Engine`](psync_executor::Engine) or
//! [`ReferenceEngine`](psync_executor::ReferenceEngine) never changes the
//! produced [`Execution`](psync_automata::Execution) — the engines invoke
//! hooks read-only, and `crates/executor/tests/engine_equiv.rs` pins
//! attached-vs-detached equality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod monitor;
pub mod observe;
pub mod online;
pub mod shard;

pub use metrics::{CounterId, Histogram, HistogramId, MetricsSnapshot, Registry};
pub use monitor::{StreamingDelta, StreamingEps};
pub use observe::{
    CEpsMonitor, CEpsOracle, ChannelDelayObserver, EngineMetrics, MetricsHub, ADVANCE_NS_BOUNDS,
    DELAY_NS_BOUNDS, DRIFT_NS_BOUNDS, QUEUE_DEPTH_BOUNDS,
};
pub use online::OnlineJudge;
pub use shard::check_all_sharded;
