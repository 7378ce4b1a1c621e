//! Execution oracles: checkers shared between [`Conformance`] sweeps and
//! the fault-injection explorer (`psync-explorer`).
//!
//! A [`Problem`](psync_automata::Problem) judges a *timed trace* — the
//! right granularity for Definition 2.10's `solve` relation. Exploration
//! harnesses, however, also want to judge properties only visible in the
//! full recorded [`Execution`]: per-event clock readings against `C_ε`,
//! delivery latencies against `[d₁, d₂]`, Lemma 2.1 replays. An
//! [`Oracle`] is that common denominator: a named check over a recorded
//! execution. [`ProblemOracle`] adapts any `Problem` (plus a trace
//! extractor) into an oracle, so conformance sweeps and explorer
//! campaigns literally share checkers, and [`FnOracle`] wraps a closure
//! for ad-hoc properties.

use std::fmt::Debug;
use std::hash::Hash;

use psync_automata::{Action, Execution, Problem, TimedTrace, Verdict};
use psync_net::SysAction;

use crate::conformance::Conformance;
use crate::stream::{fold, FifoStream};

/// A named pass/fail check over one recorded execution.
///
/// Oracles are `Send + Sync` so a set of boxed oracles can be built on
/// one thread and checked on another (campaign workers, the live
/// monitor); an oracle only reads the shared execution, so thread-safety
/// costs nothing beyond the bound.
pub trait Oracle<A: Action>: Send + Sync {
    /// A short stable name, used in reports and replay artifacts.
    fn name(&self) -> String;

    /// Judges the execution.
    fn check(&self, exec: &Execution<A>) -> Verdict;
}

/// A boxed execution-judging closure (the payload of [`FnOracle`]).
type CheckFn<A> = Box<dyn Fn(&Execution<A>) -> Verdict + Send + Sync>;

/// A boxed trace extractor (the adapter half of [`ProblemOracle`]).
type ExtractFn<A> = Box<dyn Fn(&Execution<A>) -> TimedTrace<A> + Send + Sync>;

/// An [`Oracle`] built from a closure.
pub struct FnOracle<A: Action> {
    name: String,
    f: CheckFn<A>,
}

impl<A: Action> FnOracle<A> {
    /// Creates a named oracle from a check function.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&Execution<A>) -> Verdict + Send + Sync + 'static,
    ) -> Self {
        FnOracle {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl<A: Action> Oracle<A> for FnOracle<A> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn check(&self, exec: &Execution<A>) -> Verdict {
        (self.f)(exec)
    }
}

/// Adapts a [`Problem`] and a trace extractor into an [`Oracle`], so the
/// same problem instance drives both a [`Conformance`] sweep and an
/// explorer campaign.
pub struct ProblemOracle<A: Action> {
    problem: Box<dyn Problem<A> + Send + Sync>,
    extract: ExtractFn<A>,
}

impl<A: Action> ProblemOracle<A> {
    /// Wraps `problem`, judging the trace produced by `extract` (typically
    /// `psync_core::app_trace` or `Execution::t_trace`).
    pub fn new(
        problem: impl Problem<A> + Send + Sync + 'static,
        extract: impl Fn(&Execution<A>) -> TimedTrace<A> + Send + Sync + 'static,
    ) -> Self {
        ProblemOracle {
            problem: Box::new(problem),
            extract: Box::new(extract),
        }
    }
}

impl<A: Action> Oracle<A> for ProblemOracle<A> {
    fn name(&self) -> String {
        self.problem.name().to_string()
    }

    fn check(&self, exec: &Execution<A>) -> Verdict {
        self.problem.contains(&(self.extract)(exec))
    }
}

/// Checks per-edge FIFO delivery order (see [`FifoStream`], of which this
/// is the fold over a recorded execution).
pub fn check_fifo_per_edge<M, O>(exec: &Execution<SysAction<M, O>>) -> Verdict
where
    M: Clone + Eq + Hash + Debug + 'static,
    O: Action,
{
    fold(&mut FifoStream::new("fifo per edge"), exec)
}

/// Checks every oracle against one execution, returning
/// `(oracle name, violation)` pairs — empty means all held.
pub fn check_all<A: Action>(
    oracles: &[Box<dyn Oracle<A>>],
    exec: &Execution<A>,
) -> Vec<(String, String)> {
    oracles
        .iter()
        .filter_map(|o| match o.check(exec) {
            Verdict::Holds => None,
            Verdict::Violated(why) => Some((o.name(), why)),
        })
        .collect()
}

impl<A: Action> Conformance<A> {
    /// Runs the system once per seed and checks every oracle on each
    /// recorded execution — the oracle-level analogue of
    /// [`Conformance::sweep`]. All violations of one run are joined into
    /// that run's counterexample reason.
    pub fn sweep_oracles(
        &self,
        oracles: &[Box<dyn Oracle<A>>],
        seeds: impl IntoIterator<Item = u64>,
    ) -> crate::ConformanceReport<A> {
        self.sweep_with(seeds, &|exec| {
            let violations = check_all(oracles, exec);
            if violations.is_empty() {
                None
            } else {
                Some(
                    violations
                        .into_iter()
                        .map(|(name, why)| format!("{name}: {why}"))
                        .collect::<Vec<_>>()
                        .join("; "),
                )
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_automata::problem::FnProblem;
    use psync_automata::toys::{BeepAction, Beeper};
    use psync_executor::Engine;
    use psync_time::{Duration, Time};

    fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    fn beeper_exec(period_ms: i64) -> Execution<BeepAction> {
        Engine::builder()
            .timed(Beeper::new(ms(period_ms)))
            .horizon(Time::ZERO + ms(30))
            .build()
            .run()
            .unwrap()
            .execution
    }

    fn spacing_problem(min_ms: i64) -> FnProblem<BeepAction> {
        FnProblem::new("spaced beeps", move |tr: &TimedTrace<BeepAction>| {
            for w in tr.as_slice().windows(2) {
                if w[1].1 - w[0].1 < ms(min_ms) {
                    return Verdict::violated("beeps too close");
                }
            }
            Verdict::Holds
        })
    }

    #[test]
    fn fifo_per_edge_flags_inverted_first_deliveries_only() {
        use psync_automata::ActionKind;
        use psync_net::{Envelope, MsgId, NodeId};
        use psync_time::Time;

        type A = psync_net::SysAction<u8, BeepAction>;
        let recv = |src: usize, dst: usize, seq: u32, at_ms: i64| psync_automata::TimedEvent {
            action: A::Recv(Envelope {
                src: NodeId(src),
                dst: NodeId(dst),
                id: MsgId::from_parts(NodeId(src), seq),
                payload: 0,
            }),
            kind: ActionKind::Output,
            now: Time::ZERO + ms(at_ms),
            clock: None,
            node: None,
        };
        // In-order, a duplicate re-delivery of seq 0, another edge: holds.
        let ok = Execution::new(
            vec![
                recv(0, 1, 0, 1),
                recv(0, 1, 1, 2),
                recv(0, 1, 0, 3),
                recv(1, 0, 5, 4),
            ],
            Time::ZERO + ms(5),
        );
        assert!(check_fifo_per_edge(&ok).holds());
        // A *new* lower seq after a higher one on the same edge: violated.
        let bad = Execution::new(vec![recv(0, 1, 1, 1), recv(0, 1, 0, 2)], Time::ZERO + ms(3));
        assert!(!check_fifo_per_edge(&bad).holds());
    }

    #[test]
    fn problem_oracle_shares_the_problem_verdict() {
        let oracle =
            ProblemOracle::new(spacing_problem(5), |e: &Execution<BeepAction>| e.t_trace());
        assert!(oracle.check(&beeper_exec(5)).holds());
        assert!(!oracle.check(&beeper_exec(3)).holds());
        assert_eq!(oracle.name(), "spaced beeps");
    }

    #[test]
    fn check_all_collects_named_violations() {
        let oracles: Vec<Box<dyn Oracle<BeepAction>>> = vec![
            Box::new(FnOracle::new("nonempty", |e: &Execution<BeepAction>| {
                if e.is_empty() {
                    Verdict::violated("no events")
                } else {
                    Verdict::Holds
                }
            })),
            Box::new(ProblemOracle::new(
                spacing_problem(5),
                |e: &Execution<BeepAction>| e.t_trace(),
            )),
        ];
        assert!(check_all(&oracles, &beeper_exec(5)).is_empty());
        let violations = check_all(&oracles, &beeper_exec(3));
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].0, "spaced beeps");
    }

    #[test]
    fn sweep_oracles_matches_sweep() {
        let build = |seed: u64| {
            Engine::builder()
                .timed(Beeper::new(ms(3 + (seed as i64 % 5))))
                .horizon(Time::ZERO + ms(30))
                .build()
        };
        let harness = Conformance::new(build, |e| e.t_trace());
        let by_problem = harness.sweep(&spacing_problem(5), 0..5);
        let oracles: Vec<Box<dyn Oracle<BeepAction>>> = vec![Box::new(ProblemOracle::new(
            spacing_problem(5),
            |e: &Execution<BeepAction>| e.t_trace(),
        ))];
        let by_oracle = harness.sweep_oracles(&oracles, 0..5);
        assert_eq!(by_problem.runs, by_oracle.runs);
        assert_eq!(
            by_problem
                .counterexamples
                .iter()
                .map(|c| c.seed)
                .collect::<Vec<_>>(),
            by_oracle
                .counterexamples
                .iter()
                .map(|c| c.seed)
                .collect::<Vec<_>>()
        );
    }
}
