//! Clock strategies: how a node's clock moves within the `C_ε` envelope.
//!
//! The paper quantifies over *all* clock behaviors satisfying the clock
//! predicate `C_ε` (`|now − clock| ≤ ε`, Definition 2.5). A
//! [`ClockStrategy`] instantiates one such behavior; the engine validates
//! every choice, so a buggy strategy is diagnosed rather than silently
//! producing an out-of-model run. This substitutes for the paper's assumed
//! physical clock subsystem (NTP / Digital Time Service, Sections 1 and
//! 7.2): adversarial strategies here stress the `ε` bound harder than a
//! real time service would.

use psync_time::{Duration, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What [`ClockStrategy::checkpoint`] returns: nothing. It exists only
/// because `benchmark/src/layers.rs` forwards the two checkpoint methods;
/// the `benchmark` change of ROADMAP items 3/4 deletes it with them.
#[derive(Debug)]
pub struct ClockCheckpoint;

/// Everything a strategy may look at when choosing the next clock value.
#[derive(Debug, Clone, Copy)]
pub struct AdvanceCtx {
    /// Real time before the advance.
    pub now: Time,
    /// The node clock before the advance.
    pub clock: Time,
    /// Real time after the advance (`target > now`).
    pub target: Time,
    /// Latest clock value any component of the node permits (`ν`
    /// precondition), if bounded. Always `> clock` when the strategy is
    /// consulted.
    pub max_clock: Option<Time>,
    /// The skew bound `ε` of the node's clock predicate.
    pub eps: Duration,
}

impl AdvanceCtx {
    /// The window of legal clock values for this advance:
    /// `[max(target − ε, clock + 1ns), min(target + ε, max_clock)]`.
    ///
    /// Non-empty whenever the engine's target computation is correct; the
    /// convenience [`AdvanceCtx::fit`] clamps a desired value into it.
    #[must_use]
    pub fn window(&self) -> (Time, Time) {
        let lo_pred = self
            .target
            .checked_sub_duration(self.eps)
            .unwrap_or(Time::ZERO);
        let lo = lo_pred.max(self.clock + Duration::NANOSECOND);
        let hi_pred = self.target + self.eps;
        let hi = match self.max_clock {
            Some(m) => hi_pred.min(m),
            None => hi_pred,
        };
        (lo, hi)
    }

    /// Clamps `desired` into the legal window.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty (an engine invariant violation).
    #[must_use]
    pub fn fit(&self, desired: Time) -> Time {
        let (lo, hi) = self.window();
        assert!(
            lo <= hi,
            "empty clock window [{lo}, {hi}] (engine target computation bug)"
        );
        desired.max(lo).min(hi)
    }
}

/// A behavior of one node's clock, consulted on every time-passage step.
///
/// Implementations must return a value in [`AdvanceCtx::window`]; the
/// easiest way is to compute a *desired* reading and pass it through
/// [`AdvanceCtx::fit`].
pub trait ClockStrategy {
    /// The clock value after real time advances to `ctx.target`.
    fn next_clock(&mut self, ctx: AdvanceCtx) -> Time;

    /// An *estimate* of the earliest real time at which this clock would
    /// read `target_clock`, given the current `(now, clock)` pair.
    ///
    /// The engine uses the estimate to decide how far to advance time when
    /// the next forcing event is a clock deadline: without it, a fast clock
    /// (reading ahead of real time) would have its early action fired as
    /// late as the `C_ε` envelope allows instead of as early as the clock
    /// actually reaches the deadline. The estimate does not have to be
    /// exact — the engine iterates and independently caps the advance at
    /// `target_clock + ε` — but better estimates converge in fewer steps.
    ///
    /// The default assumes a rate-1 clock: `now + (target_clock − clock)`.
    fn when_reaches(&self, now: Time, clock: Time, target_clock: Time) -> Time {
        if target_clock <= clock {
            now
        } else {
            now + (target_clock - clock)
        }
    }

    /// A no-op nothing calls. Kept only because `benchmark/src/layers.rs`
    /// forwards it; the `benchmark` change of ROADMAP items 3/4 deletes
    /// it. A run is cut and continued in place instead (see
    /// `Engine::run_until_events`).
    fn checkpoint(&self) -> ClockCheckpoint {
        ClockCheckpoint
    }

    /// A no-op nothing calls, kept for the same reason as
    /// [`ClockStrategy::checkpoint`].
    fn restore(&mut self, checkpoint: &ClockCheckpoint) {
        let _ = checkpoint;
    }
}

impl ClockStrategy for Box<dyn ClockStrategy> {
    fn next_clock(&mut self, ctx: AdvanceCtx) -> Time {
        (**self).next_clock(ctx)
    }

    fn when_reaches(&self, now: Time, clock: Time, target_clock: Time) -> Time {
        (**self).when_reaches(now, clock, target_clock)
    }
}

/// The clock tracks real time exactly (up to deadline clamping):
/// `clock = now` whenever possible. With this strategy the clock model
/// degenerates to the timed model — useful as a baseline in experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectClock;

impl ClockStrategy for PerfectClock {
    fn next_clock(&mut self, ctx: AdvanceCtx) -> Time {
        ctx.fit(ctx.target)
    }
}

/// The clock runs at rate 1 with a constant offset from real time:
/// `clock = now + offset`. The extreme offsets `±ε` are the adversarial
/// corners of the `C_ε` envelope.
///
/// # Examples
///
/// ```
/// use psync_executor::OffsetClock;
/// use psync_time::Duration;
///
/// // A clock permanently fast by the full skew budget.
/// let eps = Duration::from_millis(2);
/// let fast = OffsetClock::new(eps, eps);
/// let _ = fast;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct OffsetClock {
    offset: Duration,
}

impl OffsetClock {
    /// Creates a clock with the given constant offset.
    ///
    /// # Panics
    ///
    /// Panics if `|offset| > eps` — such a clock could never satisfy `C_ε`.
    #[must_use]
    pub fn new(offset: Duration, eps: Duration) -> Self {
        assert!(
            offset.abs() <= eps,
            "offset {offset} exceeds the skew bound {eps}"
        );
        OffsetClock { offset }
    }
}

impl ClockStrategy for OffsetClock {
    fn next_clock(&mut self, ctx: AdvanceCtx) -> Time {
        ctx.fit(ctx.target.saturating_add_duration(self.offset))
    }

    fn when_reaches(&self, now: Time, clock: Time, target_clock: Time) -> Time {
        if target_clock <= clock {
            return now;
        }
        // clock(t) = t + offset, so the hit is at target_clock − offset.
        target_clock
            .checked_sub_duration(self.offset)
            .unwrap_or(Time::ZERO)
            .max(now)
    }
}

/// The clock drifts at a constant rate (in parts-per-million) and snaps
/// back to zero offset whenever the drift would exceed the skew bound —
/// the sawtooth shape of an NTP-disciplined clock that periodically
/// resynchronizes to its reference.
#[derive(Debug, Clone)]
pub struct DriftClock {
    rate_ppm: i64,
    offset: Duration,
}

impl DriftClock {
    /// Creates a drifting clock. `rate_ppm` is the drift rate in parts per
    /// million of elapsed real time; positive runs fast, negative slow.
    #[must_use]
    pub fn new(rate_ppm: i64) -> Self {
        DriftClock {
            rate_ppm,
            offset: Duration::ZERO,
        }
    }
}

impl ClockStrategy for DriftClock {
    fn next_clock(&mut self, ctx: AdvanceCtx) -> Time {
        let dt = ctx.target - ctx.now;
        // Euclidean division: truncating `/` would round negative drift
        // toward zero, giving a slow clock (−ppm) a shallower sawtooth
        // than the equally-fast clock (+ppm).
        let drift = Duration::from_nanos(
            dt.as_nanos()
                .saturating_mul(self.rate_ppm)
                .div_euclid(1_000_000),
        );
        let mut offset = self.offset + drift;
        if offset.abs() > ctx.eps {
            // NTP-style step resynchronization.
            offset = Duration::ZERO;
        }
        let chosen = ctx.fit(ctx.target.saturating_add_duration(offset));
        // Record the offset actually achieved, so clamping feeds back.
        self.offset = chosen - ctx.target;
        chosen
    }
}

/// The clock offset performs a seeded bounded random walk inside
/// `[−ε, +ε]` — a reproducible "jittery clock" adversary.
#[derive(Debug, Clone)]
pub struct RandomWalkClock {
    rng: StdRng,
    step: Duration,
    offset: Duration,
}

impl RandomWalkClock {
    /// Creates a random-walk clock taking offset steps of at most `step`
    /// per advance.
    ///
    /// # Panics
    ///
    /// Panics if `step` is negative.
    #[must_use]
    pub fn new(seed: u64, step: Duration) -> Self {
        assert!(!step.is_negative(), "walk step must be non-negative");
        RandomWalkClock {
            rng: StdRng::seed_from_u64(seed),
            step,
            offset: Duration::ZERO,
        }
    }
}

impl ClockStrategy for RandomWalkClock {
    fn next_clock(&mut self, ctx: AdvanceCtx) -> Time {
        let delta = if self.step.is_zero() {
            Duration::ZERO
        } else {
            Duration::from_nanos(
                self.rng
                    .gen_range(-self.step.as_nanos()..=self.step.as_nanos()),
            )
        };
        let mut offset = self.offset + delta;
        if offset > ctx.eps {
            offset = ctx.eps;
        } else if offset < -ctx.eps {
            offset = -ctx.eps;
        }
        let chosen = ctx.fit(ctx.target.saturating_add_duration(offset));
        self.offset = chosen - ctx.target;
        chosen
    }
}

/// The clock follows an explicit fault script: a piecewise-constant offset
/// schedule `clock = now + offset(now)`, where `offset(now)` is the offset
/// of the last segment activated at or before `now`.
///
/// Scripts are *requests*, not guarantees: a segment may ask for an offset
/// beyond `ε`, or for a jump that would move the clock backwards. The
/// engine's `C_ε`/C1–C4 validation makes such readings impossible, so the
/// strategy clamps the desired reading into [`AdvanceCtx::window`] and
/// counts every clamp of an *inadmissible* request in a shared rejection
/// counter. Fault-injection harnesses use the counter to assert that an
/// attempted backward jump really was attempted — and really was rejected —
/// rather than silently scheduled away.
#[derive(Debug, Clone)]
pub struct ScriptedClock {
    /// `(activate_at, offset)` segments, sorted by activation time.
    segments: Vec<(Time, Duration)>,
    /// Count of advances whose scripted reading had to be clamped because
    /// it violated C3 (non-increase) or `C_ε` (skew beyond `ε`).
    rejections: std::rc::Rc<core::cell::Cell<u64>>,
}

impl ScriptedClock {
    /// Creates a scripted clock from `(activate_at, offset)` segments.
    /// Before the first activation the offset is zero. Segments are sorted
    /// by activation time; offsets of any magnitude (and sign) are
    /// accepted — inadmissible readings are clamped and counted at run
    /// time, never executed.
    #[must_use]
    pub fn new(segments: impl IntoIterator<Item = (Time, Duration)>) -> Self {
        let mut segments: Vec<(Time, Duration)> = segments.into_iter().collect();
        segments.sort_by_key(|(at, _)| *at);
        ScriptedClock {
            segments,
            rejections: std::rc::Rc::new(core::cell::Cell::new(0)),
        }
    }

    /// A handle onto the rejection counter: the number of advances whose
    /// scripted reading was inadmissible (attempted backward jump or skew
    /// beyond `ε`) and was clamped by the C1–C4 guard instead of executed.
    #[must_use]
    pub fn rejections(&self) -> std::rc::Rc<core::cell::Cell<u64>> {
        std::rc::Rc::clone(&self.rejections)
    }

    fn offset_at(&self, t: Time) -> Duration {
        self.segments
            .iter()
            .take_while(|(at, _)| *at <= t)
            .last()
            .map_or(Duration::ZERO, |(_, off)| *off)
    }
}

impl ClockStrategy for ScriptedClock {
    fn next_clock(&mut self, ctx: AdvanceCtx) -> Time {
        let desired = ctx
            .target
            .saturating_add_duration(self.offset_at(ctx.target));
        let (lo, _) = ctx.window();
        // `desired < lo` is an attempted backward jump or stall (C3) or a
        // reading slower than `target − ε`; skew beyond `ε` is a `C_ε`
        // violation. Deadline clamping (`max_clock`) is normal operation
        // and is deliberately *not* counted.
        if desired < lo || ctx.target.skew(desired) > ctx.eps {
            self.rejections.set(self.rejections.get() + 1);
        }
        ctx.fit(desired)
    }

    fn when_reaches(&self, now: Time, clock: Time, target_clock: Time) -> Time {
        if target_clock <= clock {
            return now;
        }
        // Rate-1 between segment switches; good enough as an estimate (the
        // engine iterates and independently caps the advance).
        now + (target_clock - clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    fn ctx(now_ms: i64, clock_ms: i64, target_ms: i64, max_clock: Option<i64>) -> AdvanceCtx {
        AdvanceCtx {
            now: Time::ZERO + ms(now_ms),
            clock: Time::ZERO + ms(clock_ms),
            target: Time::ZERO + ms(target_ms),
            max_clock: max_clock.map(|m| Time::ZERO + ms(m)),
            eps: ms(2),
        }
    }

    fn check_window(strategy: &mut dyn ClockStrategy, c: AdvanceCtx) -> Time {
        let v = strategy.next_clock(c);
        let (lo, hi) = c.window();
        assert!(
            v >= lo && v <= hi,
            "strategy left the window: {v} not in [{lo}, {hi}]"
        );
        assert!(v > c.clock, "axiom C3: clock must strictly increase");
        v
    }

    #[test]
    fn perfect_clock_tracks_now() {
        let v = check_window(&mut PerfectClock, ctx(0, 0, 10, None));
        assert_eq!(v, Time::ZERO + ms(10));
    }

    #[test]
    fn perfect_clock_clamps_to_deadline() {
        let v = check_window(&mut PerfectClock, ctx(0, 0, 10, Some(9)));
        assert_eq!(v, Time::ZERO + ms(9));
    }

    #[test]
    fn perfect_clock_recovers_from_fast_start() {
        // Clock ahead of now (e.g. handed over from a fast strategy): the
        // perfect clock still advances strictly but no faster than allowed.
        let v = check_window(&mut PerfectClock, ctx(10, 12, 11, None));
        assert!(v > Time::ZERO + ms(12));
        assert!(v <= Time::ZERO + ms(13)); // target + eps
    }

    #[test]
    fn offset_clock_holds_its_offset() {
        let mut fast = OffsetClock::new(ms(2), ms(2));
        let v = check_window(&mut fast, ctx(0, 0, 10, None));
        assert_eq!(v, Time::ZERO + ms(12));

        let mut slow = OffsetClock::new(ms(-2), ms(2));
        let v = check_window(&mut slow, ctx(0, 0, 10, None));
        assert_eq!(v, Time::ZERO + ms(8));
    }

    #[test]
    #[should_panic(expected = "exceeds the skew bound")]
    fn offset_beyond_eps_rejected() {
        let _ = OffsetClock::new(ms(3), ms(2));
    }

    #[test]
    fn drift_clock_accumulates_and_resyncs() {
        // 1000 ppm = 1 ms of drift per second of real time.
        let mut d = DriftClock::new(1000);
        let v1 = check_window(&mut d, ctx(0, 0, 1000, None));
        assert_eq!(v1, Time::ZERO + Duration::from_secs(1) + ms(1));
        // After another second the accumulated 2 ms hits ε = 2 ms; one more
        // advance resynchronizes to zero offset.
        let c2 = AdvanceCtx {
            now: Time::ZERO + Duration::from_secs(1),
            clock: v1,
            target: Time::ZERO + Duration::from_secs(2),
            max_clock: None,
            eps: ms(2),
        };
        let v2 = check_window(&mut d, c2);
        assert_eq!(v2, Time::ZERO + Duration::from_secs(2) + ms(2));
        let c3 = AdvanceCtx {
            now: Time::ZERO + Duration::from_secs(2),
            clock: v2,
            target: Time::ZERO + Duration::from_secs(3),
            max_clock: None,
            eps: ms(2),
        };
        let v3 = check_window(&mut d, c3);
        // Offset would be 3 ms > ε, so the clock steps back to offset 0.
        assert_eq!(v3, Time::ZERO + Duration::from_secs(3));
    }

    /// Regression (truncating-division drift): with `dt · |rate| / 10⁶`
    /// fractional, the drift must be the *floor* of the ideal value for
    /// both signs, so neither clock ever reads ahead of its ideal drift
    /// line. Truncating division rounded the negative drift toward zero
    /// (−499.9995 → −499 ns), letting the slow clock read ahead of its
    /// line while the fast clock never did — an asymmetric sawtooth.
    #[test]
    fn drift_rounding_is_symmetric_across_rate_sign() {
        let dt_ns = 999_999; // dt · 500 ppm = 499.9995 ns of ideal drift
        let target = Time::ZERO + Duration::from_nanos(dt_ns);
        let advance = AdvanceCtx {
            now: Time::ZERO,
            clock: Time::ZERO,
            target,
            max_clock: None,
            eps: ms(2),
        };
        let fast = check_window(&mut DriftClock::new(500), advance);
        let slow = check_window(&mut DriftClock::new(-500), advance);
        assert_eq!(fast, target + Duration::from_nanos(499));
        assert_eq!(slow, target - Duration::from_nanos(500));
        // Floor bias points the same way on both sides of the line:
        // 499 ≤ 499.9995 and −500 ≤ −499.9995.
        assert_eq!(
            (fast - target) + (slow - target),
            Duration::from_nanos(-1),
            "floor division loses exactly the fractional nanosecond"
        );
        // Exactly divisible drift stays exact in both directions.
        let whole = AdvanceCtx {
            now: Time::ZERO,
            clock: Time::ZERO,
            target: Time::ZERO + ms(1000),
            max_clock: None,
            eps: ms(2),
        };
        assert_eq!(
            check_window(&mut DriftClock::new(500), whole),
            whole.target + Duration::from_micros(500)
        );
        assert_eq!(
            check_window(&mut DriftClock::new(-500), whole),
            whole.target - Duration::from_micros(500)
        );
    }

    #[test]
    fn random_walk_stays_in_envelope() {
        let mut w = RandomWalkClock::new(7, Duration::from_micros(500));
        let mut clock = Time::ZERO;
        let mut now = Time::ZERO;
        for i in 1..200 {
            let target = Time::ZERO + ms(i);
            let c = AdvanceCtx {
                now,
                clock,
                target,
                max_clock: None,
                eps: ms(2),
            };
            clock = check_window(&mut w, c);
            assert!(target.skew(clock) <= ms(2));
            now = target;
        }
    }

    #[test]
    fn random_walk_is_reproducible() {
        let run = |seed| {
            let mut w = RandomWalkClock::new(seed, Duration::from_micros(500));
            let mut clock = Time::ZERO;
            let mut now = Time::ZERO;
            let mut out = Vec::new();
            for i in 1..50 {
                let target = Time::ZERO + ms(i);
                clock = w.next_clock(AdvanceCtx {
                    now,
                    clock,
                    target,
                    max_clock: None,
                    eps: ms(2),
                });
                now = target;
                out.push(clock);
            }
            out
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn scripted_clock_follows_segments() {
        let mut c = ScriptedClock::new(vec![
            (Time::ZERO + ms(10), ms(2)),
            (Time::ZERO + ms(20), ms(-2)),
        ]);
        // Before the first activation: zero offset.
        let v = check_window(&mut c, ctx(0, 0, 5, None));
        assert_eq!(v, Time::ZERO + ms(5));
        // Fast segment active.
        let v = check_window(&mut c, ctx(5, 5, 12, None));
        assert_eq!(v, Time::ZERO + ms(14));
        // Slow segment: scripted reading 22 − 2 = 20; window lo is
        // clock + 1ns, which 20 satisfies (clock was 14 at now = 12 …
        // use fresh state below).
        assert_eq!(c.rejections().get(), 0);
    }

    #[test]
    fn scripted_backward_jump_is_clamped_and_counted() {
        // Offset −5 ms with ε = 2 ms: the scripted reading sits below
        // target − ε *and* below the current clock — both a C3 and a C_ε
        // violation. The strategy must clamp to the window and count it.
        let mut c = ScriptedClock::new(vec![(Time::ZERO, ms(-5))]);
        let cx = ctx(10, 10, 11, None);
        let v = check_window(&mut c, cx);
        let (lo, _) = cx.window();
        assert_eq!(v, lo);
        assert_eq!(c.rejections().get(), 1);
        // The counter is shared: a clone handed to the engine still feeds
        // the handle the harness kept.
        let handle = c.rejections();
        let _ = check_window(
            &mut c,
            AdvanceCtx {
                now: Time::ZERO + ms(11),
                clock: v,
                target: Time::ZERO + ms(12),
                max_clock: None,
                eps: ms(2),
            },
        );
        assert_eq!(handle.get(), 2);
    }

    #[test]
    fn scripted_over_eps_is_clamped_and_counted() {
        let mut c = ScriptedClock::new(vec![(Time::ZERO, ms(3))]);
        let cx = ctx(0, 0, 10, None);
        let v = check_window(&mut c, cx);
        assert_eq!(v, Time::ZERO + ms(12)); // clamped to target + ε
        assert_eq!(c.rejections().get(), 1);
    }

    #[test]
    fn scripted_exactly_eps_is_admissible() {
        let mut c = ScriptedClock::new(vec![(Time::ZERO, ms(2))]);
        let v = check_window(&mut c, ctx(0, 0, 10, None));
        assert_eq!(v, Time::ZERO + ms(12));
        assert_eq!(c.rejections().get(), 0, "|now − clock| = ε is admissible");
    }

    #[test]
    fn window_respects_all_constraints() {
        let c = ctx(0, 9, 10, Some(11));
        let (lo, hi) = c.window();
        assert_eq!(lo, Time::ZERO + ms(9) + Duration::NANOSECOND);
        assert_eq!(hi, Time::ZERO + ms(11));
    }
}
