//! Network substrate for the psync workspace.
//!
//! The paper models a distributed system as a graph `(V, E)` of nodes
//! connected by unidirectional links, each link being an automaton
//! `E_{ij,[d₁,d₂]}` delivering every message within `[d₁, d₂]` of real time
//! but possibly reordering messages (Sections 2.4 and 3.2). This crate
//! provides that machinery:
//!
//! * [`NodeId`], [`MsgId`], [`Envelope`] — message identity. The paper
//!   assumes each message sent is *unique* (Section 3); [`MsgId`]s make
//!   that literal.
//! * [`Topology`] — the graph, with the usual constructors (complete,
//!   ring, line, star).
//! * [`SysAction`] — the action alphabet shared by every model: the
//!   `SENDMSG`/`RECVMSG` edge interface of the timed model (Section 3.1),
//!   the tagged `ESENDMSG`/`ERECVMSG` interface of the clock model
//!   (Section 4.1), and the `TICK`/`τ` actions of the MMT model
//!   (Section 5).
//! * [`Channel`] — the channel automaton of Figure 1, one automaton for
//!   every refinement the paper uses: on a [`ClockWire`] it is
//!   [`ClockChannel`], the clock-model renaming carrying `(m, c)` pairs
//!   (Section 4.1); [`Channel::fifo`] keeps send order (footnote 4); and
//!   [`Channel::with_fault`] lets a [`ChannelFault`] drop, duplicate or
//!   delay messages (Section 7.3's faulty channels, built by
//!   [`FaultChannel::new`]; [`DropSeeded`] drops a seeded share).
//! * [`DelayPolicy`] — the delay adversary choosing each message's delivery
//!   point inside `[d₁, d₂]` ([`MinDelay`], [`MaxDelay`], [`SeededDelay`]).
//! * [`Script`] — a scripted environment that injects application actions
//!   at predetermined times (the "environment automaton" of a closed
//!   system).
//!
//! # Example: a message through a channel
//!
//! ```
//! use psync_automata::{ActionKind, TimedComponent};
//! use psync_net::{Channel, ClockChannel, Envelope, MaxDelay, MsgId, NodeId, SysAction};
//! use psync_time::{DelayBounds, Duration, Time};
//!
//! type A = SysAction<&'static str, &'static str>;
//! let bounds = DelayBounds::new(Duration::from_millis(1), Duration::from_millis(4))?;
//! let ch: Channel<&'static str, &'static str> =
//!     Channel::new(NodeId(0), NodeId(1), bounds, MaxDelay);
//!
//! let env = Envelope { src: NodeId(0), dst: NodeId(1), id: MsgId(1), payload: "hello" };
//! let s0 = ch.initial();
//! let s1 = ch.step(&s0, &A::Send(env.clone()), Time::ZERO).expect("channels accept sends");
//! // MaxDelay delivers at exactly d₂ = 4 ms.
//! assert_eq!(ch.deadline(&s1, Time::ZERO), Some(Time::ZERO + Duration::from_millis(4)));
//!
//! // The same edge as a clock-model channel: the stamp travels along.
//! let cch: ClockChannel<&'static str, &'static str> =
//!     ClockChannel::new(NodeId(0), NodeId(1), bounds, MaxDelay);
//! let c = Time::ZERO + Duration::from_millis(7);
//! let s1 = cch.step(&cch.initial(), &A::ESend(env.clone(), c), Time::ZERO).expect("input");
//! let due = Time::ZERO + Duration::from_millis(4);
//! assert_eq!(cch.enabled(&s1, due), vec![A::ERecv(env, c)]);
//! # Ok::<(), psync_time::TimeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod channel;
mod clock_channel;
mod delay;
mod fault_channel;
mod lossy_channel;
mod message;
mod script;
mod topology;

pub use action::{edge_route_key, SysAction};
pub use channel::{Channel, InFlight, TimedWire, Wire};
pub use clock_channel::{ClockChannel, ClockWire};
pub use delay::{DelayPolicy, MaxDelay, MinDelay, SeededDelay};
pub use fault_channel::{ChannelFault, FaultChannel, FaultStats, NoChannelFaults};
pub use lossy_channel::DropSeeded;
pub use message::{Envelope, MsgId, NodeId};
pub use script::Script;
pub use topology::Topology;
