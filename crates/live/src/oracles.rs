//! The post-hoc oracle set for a captured live register run.
//!
//! A live run ends as an ordinary [`Execution`], so `psync_verify`
//! re-judges it exactly like a simulated one. The set here is the live
//! counterpart of the explorer's register oracles: linearizability over
//! the application trace, `C_ε` at the *measured* ε̂, per-edge FIFO, and
//! the delivery envelope over the *measured* wire delays. (The sim-only
//! `replay(workload)` oracle has no live analogue — the workload is the
//! load generator, not a component in the composition.)

use psync_automata::{Action, Execution, Verdict};
use psync_core::app_trace;
use psync_net::SysAction;
use psync_obs::CEpsOracle;
use psync_register::{RegAction, Value};
use psync_time::{DelayBounds, Duration};
use psync_verify::{
    check_all, FifoStream, FoldOracle, LinearizableRegister, Oracle, ProblemOracle, StreamOracle,
};

use crate::monitor::{envelope_oracle_name, EnvelopeStream};

/// The delivery-envelope check — every `ERECVMSG` between `d₁` and `d₂`
/// after its `ESENDMSG` — as a post-hoc oracle: the monitor's
/// [`EnvelopeStream`] folded over the recorded execution.
fn delivery_envelope<M, O>(bounds: DelayBounds) -> FoldOracle<SysAction<M, O>>
where
    M: Clone + Eq + std::hash::Hash + core::fmt::Debug + 'static,
    O: Action,
{
    FoldOracle::new(
        envelope_oracle_name(bounds.min(), bounds.max()),
        move || Box::new(EnvelopeStream::new(bounds.min(), bounds.max())),
    )
}

/// Sweeps a recorded execution through the delivery-envelope check.
pub fn check_delivery_envelope<M, O>(
    exec: &Execution<SysAction<M, O>>,
    bounds: DelayBounds,
) -> Verdict
where
    M: Clone + Eq + std::hash::Hash + core::fmt::Debug + 'static,
    O: Action,
{
    delivery_envelope(bounds).check(exec)
}

/// The oracle set a captured live register run must satisfy.
///
/// `n` is the node count, `eps_hat` the measured bound the run used,
/// `bounds` the declared wire envelope. The same constructors, fed a sim
/// run's parameters, judge a simulated register run — that symmetry is
/// the live-vs-sim conformance test.
#[must_use]
pub fn live_register_oracles(
    n: usize,
    eps_hat: Duration,
    bounds: DelayBounds,
) -> Vec<Box<dyn Oracle<RegAction>>> {
    vec![
        Box::new(ProblemOracle::new(
            LinearizableRegister::new(n, Value::INITIAL),
            app_trace,
        )),
        Box::new(CEpsOracle::new(eps_hat)),
        Box::new(FoldOracle::new("fifo per edge", || {
            Box::new(FifoStream::new("fifo per edge"))
        })),
        Box::new(delivery_envelope(bounds)),
    ]
}

/// The stream-oracle set the live monitor runs *during* the run: the
/// online faces of [`live_register_oracles`]'s envelope and `C_ε`
/// checks. (Linearizability and FIFO stay post-hoc: they are cheap once
/// and not usefully incremental here.)
#[must_use]
pub fn live_register_monitors(
    eps_hat: Duration,
    bounds: DelayBounds,
) -> Vec<Box<dyn StreamOracle<RegAction>>> {
    vec![
        Box::new(crate::monitor::CEpsStream::new(eps_hat)),
        Box::new(EnvelopeStream::new(bounds.min(), bounds.max())),
    ]
}

/// Judges a captured execution against [`live_register_oracles`],
/// returning violations in oracle order (the `check_all` shape).
#[must_use]
pub fn judge_live_register(
    exec: &Execution<RegAction>,
    n: usize,
    eps_hat: Duration,
    bounds: DelayBounds,
) -> Vec<(String, String)> {
    check_all(&live_register_oracles(n, eps_hat, bounds), exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_time::Time;

    #[test]
    fn the_live_oracle_set_covers_four_properties() {
        let bounds = DelayBounds::new(Duration::from_millis(1), Duration::from_millis(10)).unwrap();
        let oracles = live_register_oracles(3, Duration::from_millis(2), bounds);
        let names: Vec<String> = oracles.iter().map(|o| o.name()).collect();
        assert_eq!(names.len(), 4);
        assert!(names.iter().any(|n| n.contains("linearizable")));
        assert!(names.iter().any(|n| n.contains("C_eps")));
        assert!(names.iter().any(|n| n.contains("fifo")));
        assert!(names.iter().any(|n| n.contains("delivery")));
    }

    #[test]
    fn an_empty_execution_passes_every_oracle() {
        let bounds = DelayBounds::new(Duration::from_millis(1), Duration::from_millis(10)).unwrap();
        let exec = Execution::new(Vec::new(), Time::ZERO);
        assert!(judge_live_register(&exec, 3, Duration::from_millis(1), bounds).is_empty());
    }
}
