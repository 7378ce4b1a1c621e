//! Bridges from a validated [`FaultPlan`] to the engine's fault hooks:
//! channel dispositions, delay overrides, scripted clocks and scheduler
//! bias. Everything here is a pure function of the plan and the case
//! seed, which is what makes artifacts replay bit-identically.

use std::collections::BTreeSet;

use psync_executor::{RandomScheduler, Scheduler, ScriptedClock};
use psync_net::{ChannelFault, DelayPolicy, MsgId, NodeId, SeededDelay};
use psync_time::{DelayBounds, Duration, Time};

use crate::plan::{at_ns, ns, FaultEntry, FaultPlan};

/// The per-sender message counter a plan entry targets: the low 32 bits
/// of a [`MsgId`] built by `MsgId::from_parts(node, counter)`.
#[must_use]
pub fn seq_of(id: MsgId) -> u32 {
    (id.0 & 0xffff_ffff) as u32
}

/// A [`ChannelFault`] executing one edge's slice of a fault plan.
///
/// Every message gets an explicit disposition (the base delay is computed
/// here, seeded and uniform over the *declared* bounds), so a seeded bug
/// widening the channel's internal bounds cannot leak extra latitude into
/// unfaulted messages.
pub struct PlanChannelFault {
    base: SeededDelay,
    declared: DelayBounds,
    drops: Vec<u32>,
    dups: Vec<(u32, Duration)>,
    spikes: Vec<(u32, Duration)>,
    /// The seeded bug (`SeededBug::LateDelivery`): a spike requesting
    /// exactly `d₂` is stretched to `d₂ + late_extra`. Zero = no bug.
    late_extra: Duration,
    /// Gray failure: `(cycle, slow)` — messages *sent* during the first
    /// `slow` of every `cycle` of real time get the worst admissible delay
    /// `d₂` instead of the seeded uniform one. `None` = healthy channel.
    gray: Option<(Duration, Duration)>,
    /// The duplicate-delivery canary: every message is delivered twice
    /// (base delay + a copy at `d₂`), regardless of the plan.
    dup_all: bool,
}

impl PlanChannelFault {
    /// Collects the plan's entries for edge `src → dst`. `declared` is
    /// the admissibility envelope's `[d₁, d₂]`; `late_extra` non-zero
    /// plants the late-delivery bug (the channel must then be built with
    /// bounds widened by the same amount, or its own assert fires).
    #[must_use]
    pub fn new(
        plan: &FaultPlan,
        src: u32,
        dst: u32,
        seed: u64,
        declared: DelayBounds,
        late_extra: Duration,
    ) -> Self {
        let mut fault = PlanChannelFault {
            base: SeededDelay::new(seed),
            declared,
            drops: Vec::new(),
            dups: Vec::new(),
            spikes: Vec::new(),
            late_extra,
            gray: None,
            dup_all: false,
        };
        for entry in &plan.entries {
            match *entry {
                FaultEntry::Drop {
                    src: s,
                    dst: d,
                    seq,
                } if (s, d) == (src, dst) => {
                    fault.drops.push(seq);
                }
                FaultEntry::Duplicate {
                    src: s,
                    dst: d,
                    seq,
                    delay_ns,
                } if (s, d) == (src, dst) => {
                    fault.dups.push((seq, ns(delay_ns)));
                }
                FaultEntry::DelaySpike {
                    src: s,
                    dst: d,
                    seq,
                    delay_ns,
                } if (s, d) == (src, dst) => {
                    fault.spikes.push((seq, ns(delay_ns)));
                }
                _ => {}
            }
        }
        fault
    }

    /// Turns the channel gray: messages sent during the first `slow` of
    /// every `cycle` of real time are pinned to the worst admissible delay
    /// `d₂`. Still inside the envelope — a gray channel is slow, not
    /// broken — so every oracle must keep holding.
    #[must_use]
    pub fn with_gray_windows(mut self, cycle: Duration, slow: Duration) -> Self {
        assert!(
            !cycle.is_zero() && slow <= cycle,
            "gray windows need 0 < slow <= cycle"
        );
        self.gray = Some((cycle, slow));
        self
    }

    /// Plants the duplicate-delivery canary: every message is delivered
    /// twice (base delay plus a copy at `d₂`), regardless of the plan.
    #[must_use]
    pub fn with_duplicate_all(mut self) -> Self {
        self.dup_all = true;
        self
    }

    /// Seeded base delay: [`SeededDelay`] over the declared bounds, so the
    /// declared (not the possibly widened internal) bounds govern
    /// unfaulted messages. Messages sent inside a gray window are pinned
    /// to `d₂` instead.
    fn base_delay(&self, src: NodeId, dst: NodeId, id: MsgId, sent_at: Time) -> Duration {
        if let Some((cycle, slow)) = self.gray {
            let phase = (sent_at - Time::ZERO)
                .as_nanos()
                .rem_euclid(cycle.as_nanos());
            if phase < slow.as_nanos() {
                return self.declared.max();
            }
        }
        self.base.delay(src, dst, id, sent_at, self.declared)
    }
}

impl ChannelFault for PlanChannelFault {
    fn deliveries(
        &self,
        src: NodeId,
        dst: NodeId,
        id: MsgId,
        sent_at: Time,
        _bounds: DelayBounds,
    ) -> Option<Vec<Duration>> {
        let seq = seq_of(id);
        if self.drops.contains(&seq) {
            return Some(vec![]);
        }
        if let Some((_, d)) = self.spikes.iter().find(|(s, _)| *s == seq) {
            // The seeded bug: the channel lets a boundary spike through
            // at d₂ + extra.
            let d = if !self.late_extra.is_zero() && *d == self.declared.max() {
                *d + self.late_extra
            } else {
                *d
            };
            return Some(vec![d]);
        }
        if let Some((_, d)) = self.dups.iter().find(|(s, _)| *s == seq) {
            return Some(vec![self.base_delay(src, dst, id, sent_at), *d]);
        }
        if self.dup_all {
            return Some(vec![
                self.base_delay(src, dst, id, sent_at),
                self.declared.max(),
            ]);
        }
        Some(vec![self.base_delay(src, dst, id, sent_at)])
    }
}

/// A [`DelayPolicy`] executing a plan's delay spikes on systems whose
/// channels take a policy rather than a [`ChannelFault`] (the
/// [`ClockChannel`](psync_net::ClockChannel)s that `build_dc` assembles).
/// Unfaulted messages get [`SeededDelay`]'s seeded uniform delay.
pub struct PlanDelayPolicy {
    base: SeededDelay,
    spikes: Vec<(u32, u32, u32, Duration)>,
}

impl PlanDelayPolicy {
    /// Collects every delay-spike entry of the plan (all edges).
    #[must_use]
    pub fn new(plan: &FaultPlan, seed: u64) -> Self {
        let spikes = plan
            .entries
            .iter()
            .filter_map(|e| match *e {
                FaultEntry::DelaySpike {
                    src,
                    dst,
                    seq,
                    delay_ns,
                } => Some((src, dst, seq, ns(delay_ns))),
                _ => None,
            })
            .collect();
        PlanDelayPolicy {
            base: SeededDelay::new(seed),
            spikes,
        }
    }
}

impl DelayPolicy for PlanDelayPolicy {
    fn delay(
        &self,
        src: NodeId,
        dst: NodeId,
        id: MsgId,
        sent_at: Time,
        bounds: DelayBounds,
    ) -> Duration {
        let seq = seq_of(id);
        if let Some((_, _, _, d)) = self
            .spikes
            .iter()
            .find(|(s, d2, q, _)| (*s as usize, *d2 as usize, *q) == (src.0, dst.0, seq))
        {
            // Validated against the same bounds the channel asserts.
            return (*d).max(bounds.min()).min(bounds.max());
        }
        self.base.delay(src, dst, id, sent_at, bounds)
    }
}

/// A seeded scheduler whose `pick`-numbered decisions listed in the plan
/// are flipped to the last candidate — the plan's interleaving-bias knob.
pub struct BiasedScheduler {
    inner: RandomScheduler,
    flips: BTreeSet<u64>,
    count: u64,
}

impl BiasedScheduler {
    /// Wraps a seeded random scheduler with the plan's bias entries.
    #[must_use]
    pub fn new(plan: &FaultPlan, seed: u64) -> Self {
        let flips = plan
            .entries
            .iter()
            .filter_map(|e| match *e {
                FaultEntry::SchedulerBias { pick } => Some(pick),
                _ => None,
            })
            .collect();
        BiasedScheduler {
            inner: RandomScheduler::new(seed),
            flips,
            count: 0,
        }
    }
}

impl<A> Scheduler<A> for BiasedScheduler {
    fn pick(&mut self, now: Time, candidates: &[A]) -> usize {
        let idx = if self.flips.contains(&self.count) {
            candidates.len() - 1
        } else {
            self.inner.pick(now, candidates)
        };
        self.count += 1;
        idx
    }
}

/// Builds node `node`'s [`ScriptedClock`] from the plan's clock entries:
/// skews set the requested offset, backward jumps subtract from it. The
/// returned clock's rejection counter records every attempt the C1–C4
/// guard had to clamp.
#[must_use]
pub fn scripted_clock_for(plan: &FaultPlan, node: u32) -> ScriptedClock {
    let mut changes: Vec<(i64, i64, bool)> = Vec::new(); // (at, value, is_jump)
    for entry in &plan.entries {
        match *entry {
            FaultEntry::ClockSkew {
                node: n,
                at_ns,
                offset_ns,
            } if n == node => changes.push((at_ns, offset_ns, false)),
            FaultEntry::ClockBackwardJump {
                node: n,
                at_ns,
                jump_ns,
            } if n == node => changes.push((at_ns, jump_ns, true)),
            _ => {}
        }
    }
    changes.sort_by_key(|(at, _, _)| *at);
    let mut segments = Vec::new();
    let mut offset = 0i64;
    for (at, value, is_jump) in changes {
        offset = if is_jump { offset - value } else { value };
        segments.push((at_ns(at), ns(offset)));
    }
    ScriptedClock::new(segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> DelayBounds {
        DelayBounds::new(Duration::from_millis(1), Duration::from_millis(4)).unwrap()
    }

    #[test]
    fn plan_fault_routes_dispositions_by_seq() {
        let plan = FaultPlan {
            entries: vec![
                FaultEntry::Drop {
                    src: 0,
                    dst: 1,
                    seq: 2,
                },
                FaultEntry::Duplicate {
                    src: 0,
                    dst: 1,
                    seq: 3,
                    delay_ns: 4_000_000,
                },
                FaultEntry::DelaySpike {
                    src: 0,
                    dst: 1,
                    seq: 4,
                    delay_ns: 1_000_000,
                },
                // Other edge: must not leak into 0→1.
                FaultEntry::Drop {
                    src: 1,
                    dst: 0,
                    seq: 5,
                },
            ],
        };
        let f = PlanChannelFault::new(&plan, 0, 1, 7, bounds(), Duration::ZERO);
        let get = |seq: u32| {
            f.deliveries(
                NodeId(0),
                NodeId(1),
                MsgId::from_parts(NodeId(0), seq),
                Time::ZERO,
                bounds(),
            )
            .unwrap()
        };
        assert!(get(2).is_empty());
        assert_eq!(get(3).len(), 2);
        assert_eq!(get(4), vec![Duration::from_millis(1)]);
        assert_eq!(get(5).len(), 1, "other edge's drop must not apply");
        for d in get(0) {
            assert!(bounds().contains(d));
        }
    }

    #[test]
    fn late_bug_only_stretches_boundary_spikes() {
        let plan = FaultPlan {
            entries: vec![
                FaultEntry::DelaySpike {
                    src: 0,
                    dst: 1,
                    seq: 1,
                    delay_ns: 4_000_000, // exactly d₂
                },
                FaultEntry::DelaySpike {
                    src: 0,
                    dst: 1,
                    seq: 2,
                    delay_ns: 2_000_000, // interior
                },
            ],
        };
        let extra = Duration::NANOSECOND;
        let f = PlanChannelFault::new(&plan, 0, 1, 7, bounds(), extra);
        let get = |seq: u32| {
            f.deliveries(
                NodeId(0),
                NodeId(1),
                MsgId::from_parts(NodeId(0), seq),
                Time::ZERO,
                bounds(),
            )
            .unwrap()
        };
        assert_eq!(get(1), vec![Duration::from_millis(4) + extra]);
        assert_eq!(get(2), vec![Duration::from_millis(2)]);
        // Unfaulted traffic stays inside the declared bounds.
        for seq in 10..30u32 {
            for d in get(seq) {
                assert!(bounds().contains(d));
            }
        }
    }

    #[test]
    fn gray_windows_pin_sends_in_the_slow_phase_to_d2() {
        let plan = FaultPlan { entries: vec![] };
        let f = PlanChannelFault::new(&plan, 0, 1, 7, bounds(), Duration::ZERO)
            .with_gray_windows(Duration::from_millis(40), Duration::from_millis(20));
        let get = |seq: u32, at_ms: i64| {
            f.deliveries(
                NodeId(0),
                NodeId(1),
                MsgId::from_parts(NodeId(0), seq),
                Time::ZERO + Duration::from_millis(at_ms),
                bounds(),
            )
            .unwrap()
        };
        // Sent in the slow window (phase < 20 ms of each 40 ms cycle): d₂.
        assert_eq!(get(0, 0), vec![bounds().max()]);
        assert_eq!(get(1, 55), vec![bounds().max()]);
        // Sent in the healthy phase: the seeded uniform delay, in bounds.
        for (seq, at) in [(2u32, 25i64), (3, 70), (4, 39)] {
            let ds = get(seq, at);
            assert_eq!(ds.len(), 1);
            assert!(bounds().contains(ds[0]));
        }
    }

    #[test]
    fn duplicate_all_delivers_every_message_twice() {
        let plan = FaultPlan { entries: vec![] };
        let f =
            PlanChannelFault::new(&plan, 0, 1, 7, bounds(), Duration::ZERO).with_duplicate_all();
        for seq in 0..8u32 {
            let ds = f
                .deliveries(
                    NodeId(0),
                    NodeId(1),
                    MsgId::from_parts(NodeId(0), seq),
                    Time::ZERO,
                    bounds(),
                )
                .unwrap();
            assert_eq!(ds.len(), 2);
            assert_eq!(ds[1], bounds().max());
            assert!(bounds().contains(ds[0]));
        }
    }

    #[test]
    fn biased_scheduler_flips_only_listed_picks() {
        let plan = FaultPlan {
            entries: vec![FaultEntry::SchedulerBias { pick: 1 }],
        };
        let mut biased = BiasedScheduler::new(&plan, 11);
        let mut plain = RandomScheduler::new(11);
        let cands = [0u32, 1, 2, 3];
        // Pick 0: same as the seeded scheduler.
        assert_eq!(
            Scheduler::<u32>::pick(&mut biased, Time::ZERO, &cands),
            plain.pick(Time::ZERO, &cands)
        );
        // Pick 1: flipped to the last candidate.
        assert_eq!(Scheduler::<u32>::pick(&mut biased, Time::ZERO, &cands), 3);
    }

    #[test]
    fn scripted_clock_composes_skews_and_jumps() {
        let plan = FaultPlan {
            entries: vec![
                FaultEntry::ClockSkew {
                    node: 0,
                    at_ns: 10,
                    offset_ns: 100,
                },
                FaultEntry::ClockBackwardJump {
                    node: 0,
                    at_ns: 20,
                    jump_ns: 300,
                },
                // Other node: ignored.
                FaultEntry::ClockSkew {
                    node: 1,
                    at_ns: 0,
                    offset_ns: -100,
                },
            ],
        };
        let clock = scripted_clock_for(&plan, 0);
        // Smoke: the clock is usable and its counter starts at zero.
        assert_eq!(clock.rejections().get(), 0);
    }
}
