//! Randomized probes of the timed/clock automaton discipline.
//!
//! Library components satisfy axioms S1–S5 / C1–C4 by construction (the
//! component traits make `now`/`clock` engine-owned and time passage a
//! deadline-bounded operation). For *user-written* components these probes
//! drive random walks through the state space and check the
//! operationalized axioms:
//!
//! * enabled locally controlled actions can actually be performed
//!   (`enabled`/`step` consistency);
//! * `ν` succeeds up to the reported deadline and fails beyond it;
//! * time passage composes: advancing to `t₁` then `t₂` reaches the same
//!   state as advancing straight to `t₂` (axioms S4/S5 and C4 — this is
//!   what licenses the engine to merge and split `ν` steps freely);
//! * deadlines never move backwards while time passes.
//!
//! [`check_wake_hint`] / [`check_clock_wake`] check a different kind of
//! obligation at one given state: that a component's
//! [`WakeHint`] promise — which the engine trusts when it skips the
//! component during a time advance — holds literally.

use core::fmt::Debug;

use psync_automata::{ClockComponent, TimedComponent, WakeHint};
use psync_time::{Duration, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a probe run.
#[derive(Debug, Clone, Copy)]
pub struct ProbeConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of random walks.
    pub walks: usize,
    /// Steps per walk.
    pub steps: usize,
    /// Largest single time advance attempted.
    pub max_advance: Duration,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            seed: 0xC10C_CA11,
            walks: 32,
            steps: 64,
            max_advance: Duration::from_millis(10),
        }
    }
}

/// Probes a timed component. Returns `Err` with a description of the
/// first violated obligation.
///
/// # Errors
///
/// A human-readable description of the violated axiom, including the walk
/// seed for reproduction.
pub fn probe_timed<C>(component: &C, config: &ProbeConfig) -> Result<(), String>
where
    C: TimedComponent,
    C::State: PartialEq,
{
    let mut rng = StdRng::seed_from_u64(config.seed);
    for walk in 0..config.walks {
        let mut state = component.initial();
        let mut now = Time::ZERO;
        for step in 0..config.steps {
            let ctx = |what: &str| format!("walk {walk}, step {step}: {what}");
            let enabled = component.enabled(&state, now);
            let deadline = component.deadline(&state, now);
            if let Some(d) = deadline {
                if d < now && enabled.is_empty() {
                    return Err(ctx(&format!(
                        "deadline {d} is in the past at {now} with nothing enabled (stopped time)"
                    )));
                }
            }
            // Choose: fire an enabled action, or advance time.
            if !enabled.is_empty() && rng.gen_bool(0.5) {
                let a = &enabled[rng.gen_range(0..enabled.len())];
                match component.step(&state, a, now) {
                    Some(next) => state = next,
                    None => {
                        return Err(ctx(&format!("{a:?} reported enabled but step refused it")))
                    }
                }
            } else {
                let dt =
                    Duration::from_nanos(rng.gen_range(1..=config.max_advance.as_nanos().max(1)));
                let target = match deadline {
                    Some(d) if d > now => (now + dt).min(d),
                    Some(_) => continue, // pinned at a due deadline: must fire
                    None => now + dt,
                };
                if target <= now {
                    continue;
                }
                // S4/S5: split advance must agree with direct advance.
                let direct = component.advance(&state, now, target);
                let Some(direct) = direct else {
                    return Err(ctx(&format!(
                        "advance to {target} refused although within deadline {deadline:?}"
                    )));
                };
                if target - now >= Duration::from_nanos(2) {
                    let mid = now + (target - now) / 2;
                    let via_mid = component
                        .advance(&state, now, mid)
                        .and_then(|s1| component.advance(&s1, mid, target));
                    match via_mid {
                        Some(s2) if s2 == direct => {}
                        Some(_) => {
                            return Err(ctx(&format!(
                                "advancing via {mid} differs from advancing straight to {target} (axiom S4/S5)"
                            )))
                        }
                        None => {
                            return Err(ctx(&format!(
                                "advance via midpoint {mid} refused but direct advance allowed (axiom S5)"
                            )))
                        }
                    }
                }
                // Beyond the deadline, ν must be refused.
                if let Some(d) = component.deadline(&state, now) {
                    if component
                        .advance(&state, now, d + Duration::NANOSECOND)
                        .is_some()
                    {
                        return Err(ctx(&format!("advance past the deadline {d} was accepted")));
                    }
                }
                state = direct;
                now = target;
            }
        }
    }
    Ok(())
}

/// Probes a clock component — identical obligations, in clock time
/// (axioms C3/C4 and the clock-deadline discipline).
///
/// # Errors
///
/// A human-readable description of the violated axiom.
pub fn probe_clock<C>(component: &C, config: &ProbeConfig) -> Result<(), String>
where
    C: ClockComponent,
    C::State: PartialEq,
{
    let mut rng = StdRng::seed_from_u64(config.seed);
    for walk in 0..config.walks {
        let mut state = component.initial();
        let mut clock = Time::ZERO;
        for step in 0..config.steps {
            let ctx = |what: &str| format!("walk {walk}, step {step}: {what}");
            let enabled = component.enabled(&state, clock);
            let deadline = component.clock_deadline(&state, clock);
            if !enabled.is_empty() && rng.gen_bool(0.5) {
                let a = &enabled[rng.gen_range(0..enabled.len())];
                match component.step(&state, a, clock) {
                    Some(next) => state = next,
                    None => {
                        return Err(ctx(&format!("{a:?} reported enabled but step refused it")))
                    }
                }
            } else {
                let dt =
                    Duration::from_nanos(rng.gen_range(1..=config.max_advance.as_nanos().max(1)));
                let target = match deadline {
                    Some(d) if d > clock => (clock + dt).min(d),
                    Some(_) => continue,
                    None => clock + dt,
                };
                if target <= clock {
                    continue;
                }
                let direct = component.advance(&state, clock, target);
                let Some(direct) = direct else {
                    return Err(ctx(&format!(
                        "advance to {target} refused although within deadline {deadline:?}"
                    )));
                };
                if target - clock >= Duration::from_nanos(2) {
                    let mid = clock + (target - clock) / 2;
                    let via_mid = component
                        .advance(&state, clock, mid)
                        .and_then(|s1| component.advance(&s1, mid, target));
                    match via_mid {
                        Some(s2) if s2 == direct => {}
                        _ => {
                            return Err(ctx(&format!(
                                "advance via {mid} disagrees with direct advance (axiom C4)"
                            )))
                        }
                    }
                }
                if let Some(d) = component.clock_deadline(&state, clock) {
                    if component
                        .advance(&state, clock, d + Duration::NANOSECOND)
                        .is_some()
                    {
                        return Err(ctx(&format!(
                            "advance past the clock deadline {d} was accepted"
                        )));
                    }
                }
                state = direct;
                clock = target;
            }
        }
    }
    Ok(())
}

/// Checks the promise [`TimedComponent::wake_hint`] makes at `(s, now)`,
/// literally as the trait documents it: for sampled `v` with
/// `now < v < t` (`At(t)`; any `v > now` for `Never`), `advance(s, now, v)`
/// succeeds, and `enabled`, `deadline` and `wake_hint` at `v` — asked of
/// the advanced state *and* of `s` itself, which is the state the engine
/// keeps when it skips the advance — equal those at `now`. `Always`, and
/// `At(t)` with `t <= now`, promise nothing and pass.
///
/// # Errors
///
/// A description of the first sample at which the promise breaks.
pub fn check_wake_hint<C: TimedComponent>(c: &C, s: &C::State, now: Time) -> Result<(), String> {
    check_promise(
        &c.name(),
        s,
        now,
        |s, from, to| c.advance(s, from, to),
        |s, t| (c.enabled(s, t), c.deadline(s, t), c.wake_hint(s, t)),
    )
}

/// [`check_wake_hint`] on the clock-time basis: the promise of
/// [`ClockComponent::clock_wake`] at `(s, clock)`, over `enabled`,
/// `clock_deadline` and `clock_wake`.
///
/// # Errors
///
/// A description of the first sample at which the promise breaks.
pub fn check_clock_wake<C: ClockComponent>(c: &C, s: &C::State, clock: Time) -> Result<(), String> {
    check_promise(
        &c.name(),
        s,
        clock,
        |s, from, to| c.advance(s, from, to),
        |s, t| (c.enabled(s, t), c.clock_deadline(s, t), c.clock_wake(s, t)),
    )
}

/// What a component answers at one instant: enabled set, deadline, hint.
type Answers<A> = (Vec<A>, Option<Time>, WakeHint);

fn check_promise<S, A: PartialEq + Debug>(
    name: &str,
    s: &S,
    now: Time,
    advance: impl Fn(&S, Time, Time) -> Option<S>,
    answers: impl Fn(&S, Time) -> Answers<A>,
) -> Result<(), String> {
    let at_now = answers(s, now);
    // The promise covers the open interval (now, end).
    let end = match at_now.2 {
        WakeHint::Always => return Ok(()),
        WakeHint::At(t) => t,
        WakeHint::Never => now + Duration::from_secs(1_000_000),
    };
    let tick = Duration::NANOSECOND;
    if end <= now + tick {
        return Ok(());
    }
    // Both edges of the interval, and eight points spread inside it.
    let span = end - tick - (now + tick);
    let samples = (0..=9).map(|k| now + tick + span * k / 9);
    for v in samples {
        let Some(advanced) = advance(s, now, v) else {
            return Err(format!(
                "{name}: hinted {:?} at {now}, yet advancing to {v} is refused",
                at_now.2
            ));
        };
        for (which, state) in [("advanced", &advanced), ("kept", s)] {
            let at_v = answers(state, v);
            if at_v != at_now {
                return Err(format!(
                    "{name}: hinted {:?} at {now}, yet the {which} state answers {at_v:?} at {v} \
                     against {at_now:?} at {now}",
                    at_now.2
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_automata::toys::{Beeper, ClockBeeper, Echo};
    use psync_automata::ActionKind;

    #[test]
    fn library_toys_pass_the_probes() {
        let cfg = ProbeConfig::default();
        probe_timed(&Beeper::new(Duration::from_millis(3)), &cfg).unwrap();
        probe_timed(&Echo::new(Duration::from_millis(2)), &cfg).unwrap();
        probe_clock(&ClockBeeper::new(Duration::from_millis(3)), &cfg).unwrap();
    }

    /// A deliberately broken component: claims an action enabled but
    /// refuses to perform it.
    #[derive(Debug, Clone)]
    struct Liar;

    impl TimedComponent for Liar {
        type Action = &'static str;
        type State = u8;

        fn name(&self) -> String {
            "liar".into()
        }
        fn initial(&self) -> u8 {
            0
        }
        fn classify(&self, _: &&'static str) -> Option<ActionKind> {
            Some(ActionKind::Output)
        }
        fn step(&self, _: &u8, _: &&'static str, _: Time) -> Option<u8> {
            None // refuses everything…
        }
        fn enabled(&self, _: &u8, _: Time) -> Vec<&'static str> {
            vec!["go"] // …yet claims this is enabled
        }
        fn deadline(&self, _: &u8, _: Time) -> Option<Time> {
            None
        }
    }

    #[test]
    fn enabled_step_inconsistency_caught() {
        let err = probe_timed(&Liar, &ProbeConfig::default()).unwrap_err();
        assert!(err.contains("refused"), "unexpected report: {err}");
    }

    /// A component whose state mutates differently under split advances —
    /// an S4/S5 violation.
    #[derive(Debug, Clone)]
    struct SplitSensitive;

    impl TimedComponent for SplitSensitive {
        type Action = &'static str;
        type State = u32; // counts ν applications — illegal state usage

        fn name(&self) -> String {
            "split-sensitive".into()
        }
        fn initial(&self) -> u32 {
            0
        }
        fn classify(&self, _: &&'static str) -> Option<ActionKind> {
            Some(ActionKind::Output)
        }
        fn step(&self, s: &u32, _: &&'static str, _: Time) -> Option<u32> {
            Some(*s)
        }
        fn enabled(&self, _: &u32, _: Time) -> Vec<&'static str> {
            Vec::new()
        }
        fn deadline(&self, _: &u32, _: Time) -> Option<Time> {
            None
        }
        fn advance(&self, s: &u32, _now: Time, _target: Time) -> Option<u32> {
            Some(s + 1)
        }
    }

    #[test]
    fn split_advance_divergence_caught() {
        let err = probe_timed(&SplitSensitive, &ProbeConfig::default()).unwrap_err();
        assert!(err.contains("S4/S5"), "unexpected report: {err}");
    }

    #[test]
    fn library_toys_keep_their_hint_promises() {
        let (beeper, clock_beeper) = (
            Beeper::new(Duration::from_millis(3)),
            ClockBeeper::new(Duration::from_millis(3)),
        );
        for at_us in [0, 1, 2_999, 3_000] {
            let t = Time::ZERO + Duration::from_micros(at_us);
            check_wake_hint(&beeper, &beeper.initial(), t).unwrap();
            check_clock_wake(&clock_beeper, &clock_beeper.initial(), t).unwrap();
        }
    }

    /// Beeps at 5 ms but promises to sleep until 8 ms.
    #[derive(Debug, Clone)]
    struct Oversleeper;

    impl TimedComponent for Oversleeper {
        type Action = &'static str;
        type State = ();

        fn name(&self) -> String {
            "oversleeper".into()
        }
        fn initial(&self) {}
        fn classify(&self, _: &&'static str) -> Option<ActionKind> {
            Some(ActionKind::Output)
        }
        fn step(&self, _: &(), _: &&'static str, _: Time) -> Option<()> {
            Some(())
        }
        fn enabled(&self, _: &(), now: Time) -> Vec<&'static str> {
            if now >= Time::ZERO + Duration::from_millis(5) {
                vec!["beep"]
            } else {
                Vec::new()
            }
        }
        fn deadline(&self, _: &(), _: Time) -> Option<Time> {
            None
        }
        fn wake_hint(&self, _: &(), _: Time) -> WakeHint {
            WakeHint::At(Time::ZERO + Duration::from_millis(8))
        }
    }

    #[test]
    fn broken_hint_promise_caught() {
        let err = check_wake_hint(&Oversleeper, &(), Time::ZERO).unwrap_err();
        assert!(err.contains("state answers"), "unexpected report: {err}");
        // From 5 ms on the answers no longer change: the same hint holds.
        check_wake_hint(&Oversleeper, &(), Time::ZERO + Duration::from_millis(6)).unwrap();
    }
}
