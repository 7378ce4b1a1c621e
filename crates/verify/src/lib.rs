//! Checkers for the psync workspace.
//!
//! * [`check_linearizable`] — decides whether a register history is
//!   linearizable (Section 6.1 of the paper): every operation takes effect
//!   atomically at some point between invocation and response, and every
//!   read returns the most recently written value.
//! * [`check_superlinearizable`] — the stronger *ε-superlinearizability*
//!   of Section 6.2: the linearization point must additionally be at least
//!   `2ε` after the invocation. This is the property Algorithm S satisfies
//!   in the timed model, chosen precisely so that the `ε` perturbation of
//!   Simulation 1 cannot break plain linearizability (`Q_ε ⊆ P`,
//!   Lemma 6.4).
//! * [`LinearizableRegister`] / [`SuperlinearizableRegister`] — the
//!   problems `P` and `Q` of Section 6 as
//!   [`Problem`](psync_automata::Problem) implementations over recorded
//!   traces, including the alternation-condition escape clause ("traces in
//!   which the environment is the first to violate the alternation
//!   condition" are vacuously accepted).
//! * [`check_sequentially_consistent`] — the weaker condition of
//!   Attiya–Welch \[2\] (whose algorithm the paper's Algorithm L
//!   generalizes): a total order respecting program order only, no
//!   real-time constraint. Used to show that clock skew breaks exactly
//!   the real-time half of linearizability.
//! * [`axioms`] — randomized probes that exercise user-written components
//!   against the timed/clock automaton discipline (axioms S1–S5 / C1–C4
//!   as operationalized by the component traits).
//! * [`Conformance`] — the `solve` relation (Definition 2.10) as an
//!   adversary-grid sweep: run a seeded system family and check the
//!   problem on every recorded trace, reporting counterexample seeds.
//! * [`Oracle`] — a named check over a recorded *execution* (rather than
//!   a trace), the checker currency shared by `Conformance::sweep_oracles`
//!   and the `psync-explorer` fault-injection campaigns; [`ProblemOracle`]
//!   adapts any [`Problem`](psync_automata::Problem) into one, and
//!   [`FoldOracle`] any [`StreamOracle`] (the incremental form a check is
//!   written in when it has one, so online and post-hoc judging share it).
//! * [`replay`] — Lemma 2.1 operationalized: re-runs the projection of a
//!   recorded execution against a fresh copy of one component, catching
//!   engine/component disagreements.
//!
//! The search behind the history checkers is the classic
//! linearizability-checking recursion (Wing–Gong), made practical the same
//! way Lowe's and porcupine-style checkers do: per-node operation
//! sequences (alternation makes each node sequential), frontier-only
//! candidate selection, and memoization on the frontier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axioms;
mod conformance;
mod linearizable;
mod object_linearizable;
mod oracle;
mod problems;
pub mod replay;
mod sequential;
mod stream;

pub use conformance::{Conformance, ConformanceReport, Counterexample};
pub use linearizable::{check_linearizable, check_superlinearizable};
pub use object_linearizable::{
    check_object_linearizable, extract_object_history, ObjOpKind, ObjOperation,
    ObjectLinearizableOracle,
};
pub use oracle::{check_all, check_fifo_per_edge, FnOracle, Oracle, ProblemOracle};
pub use problems::{LinearizableRegister, SuperlinearizableRegister};
pub use sequential::check_sequentially_consistent;
pub use stream::{fold, FifoStream, FoldOracle, StreamOracle};
