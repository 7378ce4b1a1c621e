//! Streaming evaluation of the trace relations `=_{ε,κ}` (Definition 2.8)
//! and `≤_{δ,K}` (Definition 2.9) against a fixed reference trace.
//!
//! The offline matchers in [`psync_automata::relations`] exploit the fact
//! that the bijection of both definitions is *forced*: within a class of
//! `κ` (or `K`) it must be the unique monotone one, and the unclassified
//! remainder is either greedily paired per action value (`=_{ε,κ}`) or
//! order-forced with exact times (`≤_{δ,K}`). Forced matchings need no
//! lookahead — which is what makes a streaming evaluation possible at all:
//! the monitor partitions the *reference* trace once at construction and
//! keeps a cursor per class (plus one per distinct unclassified action
//! value for `=_{ε,κ}`); each observed event advances exactly one cursor
//! in O(classes) time. Memory is **bounded by the reference trace** —
//! O(|reference| + classes) — and independent of how many events the
//! monitored run produces before failing.
//!
//! Verdicts agree with the offline matchers by construction: the monitors
//! check the same forced pairs against the same bounds and reuse
//! [`ClassMap`] and [`Witness`], so on acceptance the witness (worst
//! deviation, matched count) is *equal* to the offline one, and on
//! rejection both sides reject (the offline matcher may report a
//! different — earlier in its scan order — [`RelationError`] for the same
//! defect pair of traces). `tests/prop_monitors.rs` pins this agreement
//! differentially on proptest-generated traces.

use psync_automata::relations::{ClassMap, RelationError, Witness};
use psync_automata::{Action, TimedTrace};
use psync_time::{Duration, Time};

/// One forced-matching lane: the reference indices of a class (or of one
/// unclassified action value) and how far the observed stream has consumed
/// them.
#[derive(Debug)]
struct Lane {
    indices: Vec<usize>,
    cursor: usize,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            indices: Vec::new(),
            cursor: 0,
        }
    }
}

/// Streaming `reference =_{ε,κ} observed` monitor (Definition 2.8).
///
/// Observed events arrive via [`observe`](StreamingEps::observe) in trace
/// order; [`finish`](StreamingEps::finish) delivers the verdict. The
/// reference trace is the *left* side of the relation, the observed stream
/// the *right*.
#[derive(Debug)]
pub struct StreamingEps<'a, A: Action> {
    reference: &'a TimedTrace<A>,
    classes: &'a ClassMap<A>,
    eps: Duration,
    /// Per-class lanes, ascending by class index.
    class_lanes: Vec<(usize, Lane)>,
    /// Per-action-value lanes for the unclassified remainder.
    rest_lanes: Vec<(A, Lane)>,
    observed: usize,
    max_dev: Duration,
    matched: usize,
    error: Option<RelationError<A>>,
}

impl<'a, A: Action> StreamingEps<'a, A> {
    /// Creates a monitor for `reference =_{ε,κ} ⟨observed stream⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative (as the offline matcher does).
    #[must_use]
    pub fn new(reference: &'a TimedTrace<A>, eps: Duration, classes: &'a ClassMap<A>) -> Self {
        assert!(!eps.is_negative(), "ε must be non-negative");
        let mut class_lanes: Vec<(usize, Lane)> = Vec::new();
        let mut rest_lanes: Vec<(A, Lane)> = Vec::new();
        for (i, (a, _)) in reference.iter().enumerate() {
            match classes.class_of(a) {
                Some(c) => {
                    let lane = match class_lanes.iter_mut().find(|(k, _)| *k == c) {
                        Some((_, lane)) => lane,
                        None => {
                            class_lanes.push((c, Lane::new()));
                            &mut class_lanes.last_mut().expect("just pushed").1
                        }
                    };
                    lane.indices.push(i);
                }
                None => {
                    let lane = match rest_lanes.iter_mut().find(|(v, _)| v == a) {
                        Some((_, lane)) => lane,
                        None => {
                            rest_lanes.push((a.clone(), Lane::new()));
                            &mut rest_lanes.last_mut().expect("just pushed").1
                        }
                    };
                    lane.indices.push(i);
                }
            }
        }
        class_lanes.sort_by_key(|(c, _)| *c);
        StreamingEps {
            reference,
            classes,
            eps,
            class_lanes,
            rest_lanes,
            observed: 0,
            max_dev: Duration::ZERO,
            matched: 0,
            error: None,
        }
    }

    /// Feeds the next observed `(action, time)` pair. After the first
    /// violation further calls are no-ops; the verdict is sticky.
    pub fn observe(&mut self, action: &A, time: Time) {
        if self.error.is_some() {
            return;
        }
        let position = self.observed;
        self.observed += 1;
        let class = self.classes.class_of(action);
        let lane = match class {
            Some(c) => self
                .class_lanes
                .iter_mut()
                .find(|(k, _)| *k == c)
                .map(|(_, l)| l),
            None => self
                .rest_lanes
                .iter_mut()
                .find(|(v, _)| v == action)
                .map(|(_, l)| l),
        };
        let Some(lane) = lane else {
            // The observed action has no counterpart lane in the reference.
            self.error = Some(match class {
                Some(c) => RelationError::CardinalityMismatch {
                    class: Some(c),
                    left: 0,
                    right: 1,
                },
                None => RelationError::ActionMismatch {
                    class: None,
                    position,
                    left: action.clone(),
                    right: action.clone(),
                },
            });
            return;
        };
        let Some(&i) = lane.indices.get(lane.cursor) else {
            // More observed actions in this lane than the reference holds.
            self.error = Some(RelationError::CardinalityMismatch {
                class,
                left: lane.indices.len(),
                right: lane.indices.len() + 1,
            });
            return;
        };
        let pos = lane.cursor;
        lane.cursor += 1;
        let (ra, rt) = self.reference.get(i).expect("lane index in range");
        if ra != action {
            self.error = Some(RelationError::ActionMismatch {
                class,
                position: pos,
                left: ra.clone(),
                right: action.clone(),
            });
            return;
        }
        let dev = rt.skew(time);
        if dev > self.eps {
            self.error = Some(RelationError::TimeBound {
                action: ra.clone(),
                left_time: rt,
                right_time: time,
                bound: self.eps,
            });
            return;
        }
        self.max_dev = self.max_dev.max(dev);
        self.matched += 1;
    }

    /// Closes the observed stream and delivers the verdict. On success the
    /// [`Witness`] equals the offline
    /// [`eps_equivalent`](psync_automata::relations::eps_equivalent) one.
    ///
    /// # Errors
    ///
    /// The first violation observed, or a [`RelationError::CardinalityMismatch`]
    /// when the stream ended with reference actions unmatched.
    pub fn finish(&self) -> Result<Witness, RelationError<A>> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        for (c, lane) in &self.class_lanes {
            if lane.cursor < lane.indices.len() {
                return Err(RelationError::CardinalityMismatch {
                    class: Some(*c),
                    left: lane.indices.len(),
                    right: lane.cursor,
                });
            }
        }
        for (_, lane) in &self.rest_lanes {
            if lane.cursor < lane.indices.len() {
                return Err(RelationError::CardinalityMismatch {
                    class: None,
                    left: lane.indices.len(),
                    right: lane.cursor,
                });
            }
        }
        Ok(Witness {
            max_deviation: self.max_dev,
            matched: self.matched,
        })
    }
}

/// Streaming `reference ≤_{δ,K} observed` monitor (Definition 2.9): class
/// actions may slide up to `δ` *into the future*; everything else keeps
/// exact times and relative order.
#[derive(Debug)]
pub struct StreamingDelta<'a, A: Action> {
    reference: &'a TimedTrace<A>,
    classes: &'a ClassMap<A>,
    delta: Duration,
    class_lanes: Vec<(usize, Lane)>,
    /// The unclassified remainder is order-forced as a whole: one lane.
    rest: Lane,
    max_dev: Duration,
    matched: usize,
    error: Option<RelationError<A>>,
}

impl<'a, A: Action> StreamingDelta<'a, A> {
    /// Creates a monitor for `reference ≤_{δ,K} ⟨observed stream⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is negative (as the offline matcher does).
    #[must_use]
    pub fn new(reference: &'a TimedTrace<A>, delta: Duration, classes: &'a ClassMap<A>) -> Self {
        assert!(!delta.is_negative(), "δ must be non-negative");
        let mut class_lanes: Vec<(usize, Lane)> = Vec::new();
        let mut rest = Lane::new();
        for (i, (a, _)) in reference.iter().enumerate() {
            match classes.class_of(a) {
                Some(c) => {
                    let lane = match class_lanes.iter_mut().find(|(k, _)| *k == c) {
                        Some((_, lane)) => lane,
                        None => {
                            class_lanes.push((c, Lane::new()));
                            &mut class_lanes.last_mut().expect("just pushed").1
                        }
                    };
                    lane.indices.push(i);
                }
                None => rest.indices.push(i),
            }
        }
        class_lanes.sort_by_key(|(c, _)| *c);
        StreamingDelta {
            reference,
            classes,
            delta,
            class_lanes,
            rest,
            max_dev: Duration::ZERO,
            matched: 0,
            error: None,
        }
    }

    /// Feeds the next observed `(action, time)` pair; sticky on violation.
    pub fn observe(&mut self, action: &A, time: Time) {
        if self.error.is_some() {
            return;
        }
        let class = self.classes.class_of(action);
        let lane = match class {
            Some(c) => match self.class_lanes.iter_mut().find(|(k, _)| *k == c) {
                Some((_, l)) => l,
                None => {
                    self.error = Some(RelationError::CardinalityMismatch {
                        class: Some(c),
                        left: 0,
                        right: 1,
                    });
                    return;
                }
            },
            None => &mut self.rest,
        };
        let Some(&i) = lane.indices.get(lane.cursor) else {
            self.error = Some(RelationError::CardinalityMismatch {
                class,
                left: lane.indices.len(),
                right: lane.indices.len() + 1,
            });
            return;
        };
        let pos = lane.cursor;
        lane.cursor += 1;
        let (ra, rt) = self.reference.get(i).expect("lane index in range");
        if ra != action {
            self.error = Some(RelationError::ActionMismatch {
                class,
                position: pos,
                left: ra.clone(),
                right: action.clone(),
            });
            return;
        }
        match class {
            Some(_) => {
                if time < rt {
                    self.error = Some(RelationError::IllegalShift {
                        action: ra.clone(),
                        left_time: rt,
                        right_time: time,
                    });
                    return;
                }
                let dev = time - rt;
                if dev > self.delta {
                    self.error = Some(RelationError::TimeBound {
                        action: ra.clone(),
                        left_time: rt,
                        right_time: time,
                        bound: self.delta,
                    });
                    return;
                }
                self.max_dev = self.max_dev.max(dev);
            }
            None => {
                if time != rt {
                    self.error = Some(RelationError::IllegalShift {
                        action: ra.clone(),
                        left_time: rt,
                        right_time: time,
                    });
                    return;
                }
            }
        }
        self.matched += 1;
    }

    /// Closes the observed stream and delivers the verdict. On success the
    /// [`Witness`] equals the offline
    /// [`delta_shifted`](psync_automata::relations::delta_shifted) one.
    ///
    /// # Errors
    ///
    /// The first violation observed, or a [`RelationError::CardinalityMismatch`]
    /// when the stream ended with reference actions unmatched.
    pub fn finish(&self) -> Result<Witness, RelationError<A>> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        for (c, lane) in &self.class_lanes {
            if lane.cursor < lane.indices.len() {
                return Err(RelationError::CardinalityMismatch {
                    class: Some(*c),
                    left: lane.indices.len(),
                    right: lane.cursor,
                });
            }
        }
        if self.rest.cursor < self.rest.indices.len() {
            return Err(RelationError::CardinalityMismatch {
                class: None,
                left: self.rest.indices.len(),
                right: self.rest.cursor,
            });
        }
        Ok(Witness {
            max_deviation: self.max_dev,
            matched: self.matched,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_automata::relations::{delta_shifted, eps_equivalent};

    fn t(n: i64) -> Time {
        Time::ZERO + Duration::from_millis(n)
    }

    fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    type Tr = TimedTrace<&'static str>;

    fn per_node() -> ClassMap<&'static str> {
        ClassMap::by(|a: &&str| match a.chars().next() {
            Some('a') => Some(0),
            Some('b') => Some(1),
            _ => None,
        })
    }

    fn stream_eps(
        reference: &Tr,
        observed: &Tr,
        eps: Duration,
        classes: &ClassMap<&'static str>,
    ) -> Result<Witness, RelationError<&'static str>> {
        let mut m = StreamingEps::new(reference, eps, classes);
        for (a, tm) in observed.iter() {
            m.observe(a, tm);
        }
        m.finish()
    }

    #[test]
    fn streaming_eps_matches_offline_on_accept() {
        let classes = per_node();
        let left = Tr::from_pairs(vec![("a1", t(10)), ("b1", t(11)), ("x", t(12))]);
        let right = Tr::from_pairs(vec![("b1", t(10)), ("a1", t(11)), ("x", t(13))]);
        let offline = eps_equivalent(&left, &right, ms(2), &classes).unwrap();
        let online = stream_eps(&left, &right, ms(2), &classes).unwrap();
        assert_eq!(offline, online);
    }

    #[test]
    fn streaming_eps_rejects_beyond_bound() {
        let classes = per_node();
        let left = Tr::from_pairs(vec![("a1", t(10))]);
        let right = Tr::from_pairs(vec![("a1", t(13))]);
        assert!(stream_eps(&left, &right, ms(3), &classes).is_ok());
        let err = stream_eps(&left, &right, ms(2), &classes).unwrap_err();
        assert!(matches!(err, RelationError::TimeBound { .. }));
    }

    #[test]
    fn streaming_eps_detects_missing_and_extra_actions() {
        let classes = per_node();
        let two = Tr::from_pairs(vec![("a1", t(10)), ("a2", t(11))]);
        let one = Tr::from_pairs(vec![("a1", t(10))]);
        // Observed stream too short: caught at finish.
        let err = stream_eps(&two, &one, ms(5), &classes).unwrap_err();
        assert!(matches!(err, RelationError::CardinalityMismatch { .. }));
        // Observed stream too long: caught at the offending observe.
        let err = stream_eps(&one, &two, ms(5), &classes).unwrap_err();
        assert!(matches!(err, RelationError::CardinalityMismatch { .. }));
    }

    #[test]
    fn streaming_delta_matches_offline_on_accept() {
        let classes = per_node();
        let left = Tr::from_pairs(vec![("x", t(4)), ("a1", t(5)), ("b1", t(6))]);
        let right = Tr::from_pairs(vec![("x", t(4)), ("a1", t(6)), ("b1", t(7))]);
        let offline = delta_shifted(&left, &right, ms(2), &classes).unwrap();
        let mut m = StreamingDelta::new(&left, ms(2), &classes);
        for (a, tm) in right.iter() {
            m.observe(a, tm);
        }
        assert_eq!(offline, m.finish().unwrap());
    }

    #[test]
    fn streaming_delta_rejects_backward_shift_and_moved_unclassified() {
        let classes = per_node();
        let left = Tr::from_pairs(vec![("a1", t(5))]);
        let mut m = StreamingDelta::new(&left, ms(2), &classes);
        m.observe(&"a1", t(4));
        assert!(matches!(
            m.finish().unwrap_err(),
            RelationError::IllegalShift { .. }
        ));

        let left = Tr::from_pairs(vec![("x", t(5))]);
        let mut m = StreamingDelta::new(&left, ms(2), &classes);
        m.observe(&"x", t(6));
        assert!(matches!(
            m.finish().unwrap_err(),
            RelationError::IllegalShift { .. }
        ));
    }

    #[test]
    fn verdicts_are_sticky() {
        let classes = per_node();
        let left = Tr::from_pairs(vec![("a1", t(10)), ("a2", t(20))]);
        let mut m = StreamingEps::new(&left, ms(1), &classes);
        m.observe(&"a1", t(15)); // violation
        m.observe(&"a2", t(20)); // ignored
        assert!(m.finish().is_err());
    }
}
