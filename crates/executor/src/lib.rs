//! Deterministic discrete-event execution engine for compositions of
//! [`psync_automata`] components.
//!
//! The paper treats a distributed system as the *composition* of automata —
//! node algorithms and channel automata (Section 3.3) — and reasons about
//! the set of executions that composition admits. This crate makes those
//! executions concrete: an [`Engine`] holds a set of timed components plus
//! a set of *clock nodes* (groups of clock components sharing one node
//! clock, the clock-automaton composition of Definition 2.7) and produces
//! recorded [`Execution`](psync_automata::Execution)s by alternating two
//! moves:
//!
//! 1. **Fire** a locally controlled action chosen by the [`Scheduler`]
//!    among all currently enabled ones. The action is applied to *every*
//!    component that has it in its signature — the synchronization rule of
//!    Definition 2.2.
//! 2. **Advance time** (the `ν` action) to the earliest deadline any
//!    component imposes, when nothing is enabled. For clock nodes, each
//!    node's [`ClockStrategy`] chooses how that node's clock moves within
//!    the `C_ε` envelope — the engine validates every choice against
//!    axioms C3 (strict clock increase) and the clock predicate.
//!
//! Every run is a pure function of the components, the scheduler, the
//! clock strategies and their seeds: experiments are exactly reproducible.
//!
//! # Example
//!
//! ```
//! use psync_automata::toys::Beeper;
//! use psync_executor::{Engine, StopReason};
//! use psync_time::{Duration, Time};
//!
//! let mut engine = Engine::builder()
//!     .timed(Beeper::new(Duration::from_millis(10)))
//!     .horizon(Time::ZERO + Duration::from_millis(35))
//!     .build();
//! let run = engine.run().unwrap();
//! assert_eq!(run.stop, StopReason::Horizon);
//! assert_eq!(run.execution.len(), 3); // beeps at 10, 20, 30 ms
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock_driver;
mod driver;
mod engine;
mod error;
mod fasthash;
mod fenwick;
mod observer;
mod reference;
mod scheduler;
mod wakeheap;

pub use clock_driver::{
    AdvanceCtx, ClockCheckpoint, ClockStrategy, DriftClock, OffsetClock, PerfectClock,
    RandomWalkClock, ScriptedClock,
};
pub use driver::Driver;
pub use engine::{ClockNode, Engine, EngineBuilder, Run, StopReason};
pub use error::EngineError;
pub use observer::{ClockRead, NoopObserver, Observer};
pub use reference::{ReferenceEngine, ReferenceEngineBuilder};
pub use scheduler::{
    FifoScheduler, LifoScheduler, RandomScheduler, RoundRobinScheduler, Scheduler,
    SchedulerCheckpoint,
};
