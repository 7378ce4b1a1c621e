//! Online (streaming) oracles: checks that consume events *while the run
//! executes* instead of sweeping the finished execution.
//!
//! A [`StreamOracle`] is the incremental counterpart of [`Oracle`]: it is
//! fed each [`TimedEvent`] (and clock reading) in order, may declare a
//! violation *certain* at any point — meaning no continuation of the run
//! can make the check pass, so the driver may stop early — and delivers
//! its final verdict in [`finish`](StreamOracle::finish), which also
//! covers properties only decidable at the horizon (e.g. failure-detector
//! completeness). `psync-obs`'s `OnlineJudge` adapts a set of stream
//! oracles into an engine `Observer`.
//!
//! One implementation per property: a check that can be phrased
//! incrementally is written once, as a [`StreamOracle`], and its post-hoc
//! face is [`FoldOracle`] — the same oracle folded over the recorded
//! events. So the parity explorer scenarios and the live runtime rely on
//! (a run driven to its horizon without short-circuiting streams to the
//! verdict, name and message, that post-hoc judging gives the recorded
//! execution) holds by construction; what is left to test is that
//! observer-fed and slice-fed event indices agree.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hash::Hash;

use psync_automata::{Action, Execution, TimedEvent, Verdict};
use psync_net::SysAction;
use psync_time::{Duration, Time};

use crate::oracle::Oracle;

/// A named incremental check over a live run.
pub trait StreamOracle<A: Action> {
    /// A short stable name, used in reports and replay artifacts.
    fn name(&self) -> String;

    /// Consumes the next recorded event (`index` is its position in the
    /// execution). Implementations should be sticky: once a violation is
    /// certain, further events must not change it.
    fn observe_event(&mut self, index: usize, event: &TimedEvent<A>);

    /// Consumes a node-clock reading (`eps` is the node's skew bound).
    /// Default: ignored.
    fn observe_clock(&mut self, node: usize, now: Time, clock: Time, eps: Duration) {
        let _ = (node, now, clock, eps);
    }

    /// The violation, if one is already *certain* — i.e. would hold in
    /// every continuation of the run. `None` means "no verdict yet".
    fn violation(&self) -> Option<String>;

    /// Closes the stream at time `end` (the horizon actually reached) and
    /// delivers the final verdict.
    fn finish(&mut self, end: Time) -> Verdict;
}

/// A boxed stream-oracle factory (the payload of [`FoldOracle`]).
type MakeFn<A> = Box<dyn Fn() -> Box<dyn StreamOracle<A>> + Send + Sync>;

/// The post-hoc face of a [`StreamOracle`]: an [`Oracle`] whose `check`
/// builds a fresh stream oracle, feeds it `exec.events()` by index and
/// returns `finish(exec.ltime())`. The factory (rather than an oracle)
/// is held because stream oracles are stateful and need not be `Send`;
/// every `check` starts from a clean one.
pub struct FoldOracle<A: Action> {
    name: String,
    make: MakeFn<A>,
}

impl<A: Action> FoldOracle<A> {
    /// Creates a named post-hoc oracle from a stream-oracle factory.
    pub fn new(
        name: impl Into<String>,
        make: impl Fn() -> Box<dyn StreamOracle<A>> + Send + Sync + 'static,
    ) -> Self {
        FoldOracle {
            name: name.into(),
            make: Box::new(make),
        }
    }
}

impl<A: Action> Oracle<A> for FoldOracle<A> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn check(&self, exec: &Execution<A>) -> Verdict {
        fold(&mut *(self.make)(), exec)
    }
}

/// Feeds `exec.events()` to `oracle` by index and closes it at
/// `exec.ltime()` — post-hoc judging of a streamable property.
pub fn fold<A: Action>(oracle: &mut dyn StreamOracle<A>, exec: &Execution<A>) -> Verdict {
    for (i, event) in exec.events().iter().enumerate() {
        oracle.observe_event(i, event);
    }
    oracle.finish(exec.ltime())
}

/// Per-edge FIFO delivery order: on each `(src, dst)` channel, a
/// *never-before-seen* sequence number (the low 32 bits of the message id,
/// the `MsgId::from_parts` counter) must not surface after a higher one
/// already has. Re-deliveries of an already-seen sequence number —
/// duplicates — are allowed at any point, matching the paper's
/// at-least-once channel model where FIFO constrains first deliveries
/// only. The violation is existential, hence certain on sight.
pub struct FifoStream {
    name: String,
    edges: BTreeMap<(usize, usize), (u32, BTreeSet<u32>)>,
    violation: Option<String>,
}

impl FifoStream {
    /// A fresh check reporting under `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> FifoStream {
        FifoStream {
            name: name.into(),
            edges: BTreeMap::new(),
            violation: None,
        }
    }
}

impl<M, O> StreamOracle<SysAction<M, O>> for FifoStream
where
    M: Clone + Eq + Hash + Debug + 'static,
    O: Action,
{
    fn name(&self) -> String {
        self.name.clone()
    }

    fn observe_event(&mut self, _index: usize, e: &TimedEvent<SysAction<M, O>>) {
        if self.violation.is_some() {
            return;
        }
        let SysAction::Recv(env) = &e.action else {
            return;
        };
        let seq = (env.id.0 & 0xffff_ffff) as u32;
        let (max_seen, seen) = self
            .edges
            .entry((env.src.0, env.dst.0))
            .or_insert_with(|| (0, BTreeSet::new()));
        if seen.contains(&seq) {
            return; // re-delivery of a duplicate, always admissible
        }
        if !seen.is_empty() && seq < *max_seen {
            self.violation = Some(format!(
                "FIFO violation on {}->{}: first delivery of seq {} at {} \
                 after seq {} was already delivered",
                env.src, env.dst, seq, e.now, max_seen
            ));
            return;
        }
        *max_seen = seq.max(*max_seen);
        seen.insert(seq);
    }

    fn violation(&self) -> Option<String> {
        self.violation.clone()
    }

    fn finish(&mut self, _end: Time) -> Verdict {
        match &self.violation {
            Some(why) => Verdict::Violated(why.clone()),
            None => Verdict::Holds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_automata::toys::BeepAction;
    use psync_automata::ActionKind;

    /// Reports what it was fed: event count, index sum, and the `end`
    /// handed to `finish`.
    struct Tally {
        events: usize,
        index_sum: usize,
    }

    impl StreamOracle<BeepAction> for Tally {
        fn name(&self) -> String {
            "stream-side name".to_string()
        }

        fn observe_event(&mut self, index: usize, _event: &TimedEvent<BeepAction>) {
            self.events += 1;
            self.index_sum += index;
        }

        fn violation(&self) -> Option<String> {
            None
        }

        fn finish(&mut self, end: Time) -> Verdict {
            Verdict::violated(format!(
                "{} events, index sum {}, end {end}",
                self.events, self.index_sum
            ))
        }
    }

    #[test]
    fn fold_oracle_builds_a_fresh_stream_per_check_and_closes_it_at_ltime() {
        let beep = |seq: u64, at_ms: i64| TimedEvent {
            action: BeepAction::Beep { src: 0, seq },
            kind: ActionKind::Output,
            now: Time::ZERO + Duration::from_millis(at_ms),
            clock: None,
            node: None,
        };
        let ltime = Time::ZERO + Duration::from_millis(9);
        let exec = Execution::new(vec![beep(0, 1), beep(1, 2), beep(2, 3)], ltime);
        let oracle = FoldOracle::new("given name", || {
            Box::new(Tally {
                events: 0,
                index_sum: 0,
            })
        });
        assert_eq!(oracle.name(), "given name");
        let expected = Verdict::violated(format!("3 events, index sum 3, end {ltime}"));
        // State carried from one check into the next would double the
        // tally.
        assert_eq!(oracle.check(&exec), expected);
        assert_eq!(oracle.check(&exec), expected);
    }
}
