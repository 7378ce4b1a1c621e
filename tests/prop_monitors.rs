//! Differential property tests for the streaming trace monitors: on any
//! pair of traces, `StreamingEps` / `StreamingDelta` must deliver the
//! same verdict as the offline matchers `eps_equivalent` /
//! `delta_shifted` — equal [`Witness`] on acceptance, rejection on both
//! sides on failure (the reported [`RelationError`]s may differ because
//! the offline matcher scans classes before positions while the monitor
//! fails at the first offending observed event).
//!
//! Includes the edge cases the agreement argument leans on: the exact-ε
//! boundary (a deviation of exactly ε is accepted, one tick more is
//! rejected — by both evaluators), classes that occur in neither trace,
//! and the all-one-class map `ClassMap::single()`.

use proptest::prelude::*;
use psync_automata::relations::{delta_shifted, eps_equivalent, ClassMap, RelationError, Witness};
use psync_automata::TimedTrace;
use psync_obs::{StreamingDelta, StreamingEps};
use psync_time::{Duration, Time};

/// Actions "a0".."c2" plus unclassified "x0".."x2": first letter = class
/// (x = no class), digit = payload.
fn action_strategy() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "a0", "a1", "a2", "b0", "b1", "b2", "c0", "c1", "c2", "x0", "x1", "x2",
    ])
}

/// Classifies by first letter; additionally *declares* a class 9 that no
/// generated action ever inhabits — the empty-class edge case must be a
/// no-op for both evaluators.
fn classes() -> ClassMap<&'static str> {
    ClassMap::by(|a: &&str| match a.chars().next() {
        Some('a') => Some(0),
        Some('b') => Some(1),
        Some('c') => Some(2),
        Some('z') => Some(9), // never generated: the empty class
        _ => None,
    })
}

/// A small trace: up to 6 actions with times in 0..50 ms.
fn trace_strategy() -> impl Strategy<Value = TimedTrace<&'static str>> {
    prop::collection::vec((action_strategy(), 0i64..50), 0..6).prop_map(|mut pairs| {
        pairs.sort_by_key(|(_, t)| *t);
        pairs
            .into_iter()
            .map(|(a, t)| (a, Time::ZERO + Duration::from_millis(t)))
            .collect()
    })
}

fn stream_eps(
    reference: &TimedTrace<&'static str>,
    observed: &TimedTrace<&'static str>,
    eps: Duration,
    classes: &ClassMap<&'static str>,
) -> Result<Witness, RelationError<&'static str>> {
    let mut m = StreamingEps::new(reference, eps, classes);
    for (a, t) in observed.iter() {
        m.observe(a, t);
    }
    m.finish()
}

fn stream_delta(
    reference: &TimedTrace<&'static str>,
    observed: &TimedTrace<&'static str>,
    delta: Duration,
    classes: &ClassMap<&'static str>,
) -> Result<Witness, RelationError<&'static str>> {
    let mut m = StreamingDelta::new(reference, delta, classes);
    for (a, t) in observed.iter() {
        m.observe(a, t);
    }
    m.finish()
}

/// The agreement contract: equal witnesses on acceptance, both reject on
/// failure.
fn assert_eps_agreement(
    left: &TimedTrace<&'static str>,
    right: &TimedTrace<&'static str>,
    eps: Duration,
    classes: &ClassMap<&'static str>,
) -> Result<(), TestCaseError> {
    let offline = eps_equivalent(left, right, eps, classes);
    let online = stream_eps(left, right, eps, classes);
    match (offline, online) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "accepting witnesses must be equal"),
        (Err(_), Err(_)) => {}
        (offline, online) => prop_assert!(
            false,
            "verdicts disagree: offline {offline:?}, streaming {online:?}"
        ),
    }
    Ok(())
}

fn assert_delta_agreement(
    left: &TimedTrace<&'static str>,
    right: &TimedTrace<&'static str>,
    delta: Duration,
    classes: &ClassMap<&'static str>,
) -> Result<(), TestCaseError> {
    let offline = delta_shifted(left, right, delta, classes);
    let online = stream_delta(left, right, delta, classes);
    match (offline, online) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "accepting witnesses must be equal"),
        (Err(_), Err(_)) => {}
        (offline, online) => prop_assert!(
            false,
            "verdicts disagree: offline {offline:?}, streaming {online:?}"
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streaming_eps_agrees_with_offline(
        left in trace_strategy(),
        right in trace_strategy(),
        eps_ms in 0i64..10,
    ) {
        assert_eps_agreement(&left, &right, Duration::from_millis(eps_ms), &classes())?;
    }

    #[test]
    fn streaming_delta_agrees_with_offline(
        left in trace_strategy(),
        right in trace_strategy(),
        delta_ms in 0i64..10,
    ) {
        assert_delta_agreement(&left, &right, Duration::from_millis(delta_ms), &classes())?;
    }

    #[test]
    fn streaming_agrees_under_single_class(
        left in trace_strategy(),
        right in trace_strategy(),
        bound_ms in 0i64..10,
    ) {
        // All-one-class: every action is order-forced against every other.
        let bound = Duration::from_millis(bound_ms);
        assert_eps_agreement(&left, &right, bound, &ClassMap::single())?;
        assert_delta_agreement(&left, &right, bound, &ClassMap::single())?;
    }

    #[test]
    fn exact_eps_boundary_is_accepted_one_tick_beyond_rejected(
        base in trace_strategy(),
        eps_ms in 1i64..8,
    ) {
        // Shift the whole trace forward by exactly ε: per-class orders are
        // untouched, every deviation is exactly ε.
        let eps = Duration::from_millis(eps_ms);
        let shifted: TimedTrace<&'static str> =
            base.iter().map(|(a, t)| (*a, t + eps)).collect();

        let on_the_line = stream_eps(&base, &shifted, eps, &classes());
        prop_assert_eq!(
            on_the_line,
            eps_equivalent(&base, &shifted, eps, &classes()),
            "boundary verdicts must agree"
        );
        if !base.is_empty() {
            prop_assert_eq!(
                stream_eps(&base, &shifted, eps, &classes())
                    .expect("deviation of exactly ε is inside the relation")
                    .max_deviation,
                eps
            );
            // One tick under the deviation: both evaluators reject.
            let tight = eps - Duration::NANOSECOND;
            prop_assert!(stream_eps(&base, &shifted, tight, &classes()).is_err());
            prop_assert!(eps_equivalent(&base, &shifted, tight, &classes()).is_err());
        }
    }

    #[test]
    fn exact_delta_boundary_is_accepted_one_tick_beyond_rejected(
        base in trace_strategy(),
        delta_ms in 1i64..8,
    ) {
        // Under ClassMap::single() everything may slide forward ≤ δ; a
        // uniform shift of exactly δ sits on the boundary.
        let delta = Duration::from_millis(delta_ms);
        let classes = ClassMap::single();
        let shifted: TimedTrace<&'static str> =
            base.iter().map(|(a, t)| (*a, t + delta)).collect();

        prop_assert_eq!(
            stream_delta(&base, &shifted, delta, &classes),
            delta_shifted(&base, &shifted, delta, &classes)
        );
        if !base.is_empty() {
            let tight = delta - Duration::NANOSECOND;
            prop_assert!(stream_delta(&base, &shifted, tight, &classes).is_err());
            prop_assert!(delta_shifted(&base, &shifted, tight, &classes).is_err());
        }
    }

    #[test]
    fn streaming_identity_yields_zero_witness(base in trace_strategy()) {
        let classes = classes();
        let w = stream_eps(&base, &base, Duration::ZERO, &classes).unwrap();
        prop_assert_eq!(w.max_deviation, Duration::ZERO);
        prop_assert_eq!(w.matched, base.len());
        let w = stream_delta(&base, &base, Duration::ZERO, &classes).unwrap();
        prop_assert_eq!(w.max_deviation, Duration::ZERO);
        prop_assert_eq!(w.matched, base.len());
    }
}

/// The κ-class edge cases, pinned deterministically (the proptest stub
/// does not replay regression files, so these cannot live only in the
/// generator's path).
#[test]
fn empty_class_and_unclassified_tail_edge_cases() {
    let t = |n: i64| Time::ZERO + Duration::from_millis(n);
    let ms = Duration::from_millis;
    let classes = classes();

    // The declared-but-empty class 9 never blocks acceptance.
    let left: TimedTrace<&'static str> = vec![("x0", t(1)), ("a0", t(2))].into_iter().collect();
    let right: TimedTrace<&'static str> = vec![("a0", t(1)), ("x0", t(2))].into_iter().collect();
    let offline = eps_equivalent(&left, &right, ms(1), &classes).unwrap();
    let online = {
        let mut m = StreamingEps::new(&left, ms(1), &classes);
        for (a, tm) in right.iter() {
            m.observe(a, tm);
        }
        m.finish().unwrap()
    };
    assert_eq!(offline, online);

    // An observed action whose value the reference never contains is
    // rejected by both (unclassified lane miss).
    let only_x: TimedTrace<&'static str> = vec![("x0", t(1))].into_iter().collect();
    let other_x: TimedTrace<&'static str> = vec![("x1", t(1))].into_iter().collect();
    assert!(eps_equivalent(&only_x, &other_x, ms(5), &classes).is_err());
    let mut m = StreamingEps::new(&only_x, ms(5), &classes);
    m.observe(&"x1", t(1));
    assert!(m.finish().is_err());

    // Empty-vs-empty holds trivially, with an empty witness.
    let empty = TimedTrace::<&'static str>::new();
    let w = StreamingEps::new(&empty, ms(0), &classes).finish().unwrap();
    assert_eq!(w.matched, 0);
    let w = StreamingDelta::new(&empty, ms(0), &classes)
        .finish()
        .unwrap();
    assert_eq!(w.matched, 0);
}
