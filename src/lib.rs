//! # psync — partially synchronized clocks
//!
//! A Rust implementation of Chaudhuri, Gawlick and Lynch, *Designing
//! Algorithms for Distributed Systems with Partially Synchronized Clocks*
//! (PODC 1993): the timed/clock/MMT automaton models, the two simulations
//! that transform algorithms from the idealized model to realistic ones,
//! and the linearizable read-write register application.
//!
//! This facade re-exports the workspace crates; see the README for the
//! architecture and each crate's docs for details:
//!
//! * [`time`] — exact time arithmetic ([`psync_time`]).
//! * [`automata`] — the timed and clock automaton models
//!   ([`psync_automata`]).
//! * [`executor`] — the deterministic discrete-event engine
//!   ([`psync_executor`]).
//! * [`net`] — topologies, channels and delay adversaries ([`psync_net`]).
//! * [`core`] — the paper's two simulations ([`psync_core`]).
//! * [`mmt`] — the MMT automaton model and clock subsystem
//!   ([`psync_mmt`]).
//! * [`register`] — the Section 6 register algorithms
//!   ([`psync_register`]).
//! * [`sync`] — measured clock synchronization: components that
//!   *achieve* a certified ε̂ over the `[d₁, d₂]` channels
//!   ([`psync_sync`]).
//! * [`verify`] — linearizability checkers and axiom probes
//!   ([`psync_verify`]).
//! * [`apps`] — further applications of the design techniques
//!   ([`psync_apps`]).
//!
//! # Quick start
//!
//! See `examples/quickstart.rs` for a hands-on start, the [`guide`]
//! module for a worked tour of writing and transforming your own
//! algorithm, and the crate docs of [`psync_core`] for the full
//! two-simulation pipeline.

#![forbid(unsafe_code)]

pub mod guide;

pub use psync_apps as apps;
pub use psync_automata as automata;
pub use psync_core as core;
pub use psync_executor as executor;
pub use psync_mmt as mmt;
pub use psync_net as net;
pub use psync_register as register;
pub use psync_sync as sync;
pub use psync_time as time;
pub use psync_verify as verify;

/// A convenience prelude importing the names most programs need.
pub mod prelude {
    pub use psync_automata::{
        Action, ActionKind, ClockComponent, ClockComposite, ClockPredicate, ComponentBox,
        Execution, Hidden, HiddenClock, Pair, Problem, Relabel, TimedComponent, TimedTrace,
        Verdict,
    };
    pub use psync_core::{
        app_trace, build_dc, build_dm, build_dt, check_sim1, check_sim2, node_classes,
        sim1_witness, sim2_shift_bound, ClockSim, DmNodeConfig, MmtSim, NodeSpec, RecvBuffer,
        SendBuffer,
    };
    pub use psync_executor::{
        ClockNode, ClockStrategy, DriftClock, Engine, FifoScheduler, OffsetClock, PerfectClock,
        RandomScheduler, RandomWalkClock, Run, Scheduler, StopReason,
    };
    pub use psync_mmt::{Boundmap, MmtComponent, StepPolicy, TickConfig, TickSource};
    pub use psync_net::{
        Channel, ClockChannel, DelayPolicy, DropSeeded, Envelope, MaxDelay, MinDelay, MsgId,
        NodeId, Script, SeededDelay, SysAction, Topology,
    };
    pub use psync_register::{
        AlgorithmS, AlgorithmSObj, BaselineParams, BaselineRegister, ClosedLoopWorkload, ObjAction,
        ObjOp, ObjWorkload, RegAction, RegMsg, RegisterOp, RegisterParams, Value,
    };
    pub use psync_sync::{
        build_sync_fleet, predicted_eps_hat, EpsHatOracle, FleetSpec, MeasuredEps, ProbeSync,
        RoundSync, SyncParams,
    };
    pub use psync_time::{DelayBounds, Duration, Time};
    pub use psync_verify::{
        check_linearizable, check_sequentially_consistent, check_superlinearizable, Conformance,
        LinearizableRegister, SuperlinearizableRegister,
    };
}
