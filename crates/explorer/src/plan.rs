//! The fault-plan grammar and its admissibility check.
//!
//! A [`FaultPlan`] is a finite list of [`FaultEntry`] perturbations, each
//! targeting one knob the model already quantifies over: a node clock's
//! position inside the `C_ε` envelope (Definition 2.5), a message's
//! delivery inside `[d₁, d₂]` (Figure 1), or the scheduler's choice among
//! simultaneously enabled actions. Plans are *data* — pure values that
//! serialize into replay artifacts — and are validated against a
//! [`FaultEnvelope`] **before execution**: a plan one tick beyond `ε` or
//! `d₂` is reported as [`Inadmissible`], never run, and never mistaken
//! for an algorithm bug. Attempted backward clock jumps are the one
//! deliberate exception: they are admissible to *attempt* (the entry
//! describes a faulty time service, as in Kimberlite's
//! `ClockBackwardJump` scenario), and the C1–C4 guard in the engine
//! clamps and counts them at run time.

use psync_time::{Duration, Time};

use crate::json::Json;

/// One perturbation of an otherwise-free execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEntry {
    /// From real time `at_ns` on, node `node`'s clock requests the offset
    /// `offset_ns` from real time. Admissible iff `|offset_ns| ≤ ε`.
    ClockSkew {
        /// Target node.
        node: u32,
        /// Activation real time, nanoseconds.
        at_ns: i64,
        /// Requested clock − real-time offset, nanoseconds.
        offset_ns: i64,
    },
    /// At real time `at_ns`, node `node`'s clock *attempts* to jump
    /// backwards by `jump_ns` relative to its current offset. Always
    /// admissible to attempt; the engine's C1–C4 guard clamps the reading
    /// and the run records the rejection.
    ClockBackwardJump {
        /// Target node.
        node: u32,
        /// Activation real time, nanoseconds.
        at_ns: i64,
        /// Attempted backward jump, nanoseconds (> 0).
        jump_ns: i64,
    },
    /// Message `seq` on edge `src → dst` is dropped.
    Drop {
        /// Sender.
        src: u32,
        /// Receiver.
        dst: u32,
        /// Per-sender message counter (low 32 bits of the `MsgId`).
        seq: u32,
    },
    /// Message `seq` on edge `src → dst` is delivered twice: once at the
    /// channel's base delay, once after `delay_ns`. Admissible iff
    /// `delay_ns ∈ [d₁, d₂]`.
    Duplicate {
        /// Sender.
        src: u32,
        /// Receiver.
        dst: u32,
        /// Per-sender message counter.
        seq: u32,
        /// Delay of the duplicate copy, nanoseconds.
        delay_ns: i64,
    },
    /// Message `seq` on edge `src → dst` takes exactly `delay_ns` instead
    /// of the base policy's choice. Admissible iff `delay_ns ∈ [d₁, d₂]`.
    DelaySpike {
        /// Sender.
        src: u32,
        /// Receiver.
        dst: u32,
        /// Per-sender message counter.
        seq: u32,
        /// Forced delay, nanoseconds.
        delay_ns: i64,
    },
    /// The scheduler's `pick`-th decision (0-based, counted over the whole
    /// run) is flipped to the *last* candidate instead of the seeded
    /// choice — a targeted interleaving bias.
    SchedulerBias {
        /// Global pick index to flip.
        pick: u64,
    },
}

impl FaultEntry {
    /// The grammar keyword of this entry kind (artifact `kind` field).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            FaultEntry::ClockSkew { .. } => "clock_skew",
            FaultEntry::ClockBackwardJump { .. } => "clock_backward_jump",
            FaultEntry::Drop { .. } => "drop",
            FaultEntry::Duplicate { .. } => "duplicate",
            FaultEntry::DelaySpike { .. } => "delay_spike",
            FaultEntry::SchedulerBias { .. } => "scheduler_bias",
        }
    }

    /// The coverage *fault point* this entry exercises: the injection site
    /// abstracted over magnitudes and sequence numbers — `kind@node` for
    /// clock entries, `kind@src->dst` for channel entries,
    /// `scheduler_bias` for bias. Campaign telemetry counts distinct fault
    /// points hit against [`FaultEnvelope::fault_points`].
    #[must_use]
    pub fn fault_point(&self) -> String {
        match *self {
            FaultEntry::ClockSkew { node, .. } => format!("clock_skew@n{node}"),
            FaultEntry::ClockBackwardJump { node, .. } => {
                format!("clock_backward_jump@n{node}")
            }
            FaultEntry::Drop { src, dst, .. } => format!("drop@{src}->{dst}"),
            FaultEntry::Duplicate { src, dst, .. } => format!("duplicate@{src}->{dst}"),
            FaultEntry::DelaySpike { src, dst, .. } => format!("delay_spike@{src}->{dst}"),
            FaultEntry::SchedulerBias { .. } => "scheduler_bias".to_string(),
        }
    }

    /// The `(src, dst, seq)` target of a channel entry, if it is one.
    #[must_use]
    pub fn channel_target(&self) -> Option<(u32, u32, u32)> {
        match *self {
            FaultEntry::Drop { src, dst, seq }
            | FaultEntry::Duplicate { src, dst, seq, .. }
            | FaultEntry::DelaySpike { src, dst, seq, .. } => Some((src, dst, seq)),
            _ => None,
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        match *self {
            FaultEntry::ClockSkew {
                node,
                at_ns,
                offset_ns,
            } => Json::obj([
                ("kind", Json::str(self.kind())),
                ("node", Json::num(node)),
                ("at_ns", Json::num(at_ns)),
                ("offset_ns", Json::num(offset_ns)),
            ]),
            FaultEntry::ClockBackwardJump {
                node,
                at_ns,
                jump_ns,
            } => Json::obj([
                ("kind", Json::str(self.kind())),
                ("node", Json::num(node)),
                ("at_ns", Json::num(at_ns)),
                ("jump_ns", Json::num(jump_ns)),
            ]),
            FaultEntry::Drop { src, dst, seq } => Json::obj([
                ("kind", Json::str(self.kind())),
                ("src", Json::num(src)),
                ("dst", Json::num(dst)),
                ("seq", Json::num(seq)),
            ]),
            FaultEntry::Duplicate {
                src,
                dst,
                seq,
                delay_ns,
            } => Json::obj([
                ("kind", Json::str(self.kind())),
                ("src", Json::num(src)),
                ("dst", Json::num(dst)),
                ("seq", Json::num(seq)),
                ("delay_ns", Json::num(delay_ns)),
            ]),
            FaultEntry::DelaySpike {
                src,
                dst,
                seq,
                delay_ns,
            } => Json::obj([
                ("kind", Json::str(self.kind())),
                ("src", Json::num(src)),
                ("dst", Json::num(dst)),
                ("seq", Json::num(seq)),
                ("delay_ns", Json::num(delay_ns)),
            ]),
            FaultEntry::SchedulerBias { pick } => {
                Json::obj([("kind", Json::str(self.kind())), ("pick", Json::num(pick))])
            }
        }
    }

    pub(crate) fn from_json(v: &Json) -> Result<FaultEntry, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("entry missing kind")?;
        let u32_field = |name: &str| -> Result<u32, String> {
            v.get(name)
                .and_then(Json::as_u32)
                .ok_or_else(|| format!("entry missing {name}"))
        };
        let i64_field = |name: &str| -> Result<i64, String> {
            v.get(name)
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("entry missing {name}"))
        };
        match kind {
            "clock_skew" => Ok(FaultEntry::ClockSkew {
                node: u32_field("node")?,
                at_ns: i64_field("at_ns")?,
                offset_ns: i64_field("offset_ns")?,
            }),
            "clock_backward_jump" => Ok(FaultEntry::ClockBackwardJump {
                node: u32_field("node")?,
                at_ns: i64_field("at_ns")?,
                jump_ns: i64_field("jump_ns")?,
            }),
            "drop" => Ok(FaultEntry::Drop {
                src: u32_field("src")?,
                dst: u32_field("dst")?,
                seq: u32_field("seq")?,
            }),
            "duplicate" => Ok(FaultEntry::Duplicate {
                src: u32_field("src")?,
                dst: u32_field("dst")?,
                seq: u32_field("seq")?,
                delay_ns: i64_field("delay_ns")?,
            }),
            "delay_spike" => Ok(FaultEntry::DelaySpike {
                src: u32_field("src")?,
                dst: u32_field("dst")?,
                seq: u32_field("seq")?,
                delay_ns: i64_field("delay_ns")?,
            }),
            "scheduler_bias" => Ok(FaultEntry::SchedulerBias {
                pick: v
                    .get("pick")
                    .and_then(Json::as_u64)
                    .ok_or("entry missing pick")?,
            }),
            other => Err(format!("unknown fault kind {other:?}")),
        }
    }
}

/// A finite list of perturbations applied to one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The entries, in no particular order (each targets a disjoint knob
    /// once validated).
    pub entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// The empty plan: a completely unperturbed run.
    #[must_use]
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// How many entries the plan has.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the plan has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The admissibility envelope a scenario grants to plans: which fault
/// kinds exist in the scenario's model, and the `ε`/`[d₁, d₂]` boundaries
/// entries may sit on but not cross.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEnvelope {
    /// Number of nodes (clock entries must target one of them).
    pub nodes: u32,
    /// Skew bound `ε`, nanoseconds.
    pub eps_ns: i64,
    /// Minimum delay `d₁`, nanoseconds.
    pub d1_ns: i64,
    /// Maximum delay `d₂`, nanoseconds.
    pub d2_ns: i64,
    /// Run horizon, nanoseconds (clock entries activate within it).
    pub horizon_ns: i64,
    /// Channel edges that accept channel faults.
    pub edges: Vec<(u32, u32)>,
    /// Largest per-sender message counter worth targeting.
    pub max_seq: u32,
    /// Drop budget per edge (the scenario's oracles are calibrated to
    /// tolerate at most this many losses).
    pub max_drops: u32,
    /// Whether clock-fault entries exist in this scenario's model.
    pub allow_clock: bool,
    /// Whether drops are in the model.
    pub allow_drop: bool,
    /// Whether duplicates are in the model.
    pub allow_dup: bool,
    /// Whether delay spikes are in the model.
    pub allow_spike: bool,
}

impl FaultEnvelope {
    /// Every fault point the envelope's model contains, sorted — the
    /// denominator of the campaign's fault-point-coverage metric. Mirrors
    /// exactly the kind gating of [`FaultPlan::generate`]: clock points
    /// per node when clock faults are allowed, channel points per edge per
    /// allowed kind, and the scheduler-bias point always.
    #[must_use]
    pub fn fault_points(&self) -> Vec<String> {
        let mut points = Vec::new();
        if self.allow_clock {
            for node in 0..self.nodes {
                points.push(format!("clock_skew@n{node}"));
                points.push(format!("clock_backward_jump@n{node}"));
            }
        }
        for &(src, dst) in &self.edges {
            if self.allow_drop {
                points.push(format!("drop@{src}->{dst}"));
            }
            if self.allow_dup {
                points.push(format!("duplicate@{src}->{dst}"));
            }
            if self.allow_spike {
                points.push(format!("delay_spike@{src}->{dst}"));
            }
        }
        points.push("scheduler_bias".to_string());
        points.sort();
        points
    }
}

/// Why a plan was rejected *before execution* — the plan steps outside
/// the model's admissibility envelope, so running it would test nothing
/// the paper claims.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inadmissible {
    /// A clock-skew entry beyond `|offset| ≤ ε`.
    SkewBeyondEps {
        /// Offending entry index.
        index: usize,
        /// Requested offset (ns).
        offset_ns: i64,
        /// The bound `ε` (ns).
        eps_ns: i64,
    },
    /// A delay outside `[d₁, d₂]`.
    DelayOutOfBounds {
        /// Offending entry index.
        index: usize,
        /// Requested delay (ns).
        delay_ns: i64,
        /// `d₁` (ns).
        d1_ns: i64,
        /// `d₂` (ns).
        d2_ns: i64,
    },
    /// More drops on one edge than the scenario's oracles tolerate.
    TooManyDrops {
        /// The edge.
        edge: (u32, u32),
        /// Drops requested.
        requested: u32,
        /// The budget.
        budget: u32,
    },
    /// An entry targets a node or edge the scenario does not have.
    UnknownTarget {
        /// Offending entry index.
        index: usize,
        /// Human-readable description of the bad target.
        what: String,
    },
    /// An entry kind the scenario's model does not include.
    KindNotAllowed {
        /// Offending entry index.
        index: usize,
        /// The kind keyword.
        kind: &'static str,
    },
    /// Two entries target the same knob (same `(src, dst, seq)` or same
    /// `(node, at)`), making the plan's semantics order-dependent.
    ConflictingEntries {
        /// Index of the second (conflicting) entry.
        index: usize,
        /// Human-readable description of the contested knob.
        what: String,
    },
}

impl core::fmt::Display for Inadmissible {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Inadmissible::SkewBeyondEps {
                index,
                offset_ns,
                eps_ns,
            } => write!(
                f,
                "entry {index}: clock offset {offset_ns} ns beyond ε = {eps_ns} ns"
            ),
            Inadmissible::DelayOutOfBounds {
                index,
                delay_ns,
                d1_ns,
                d2_ns,
            } => write!(
                f,
                "entry {index}: delay {delay_ns} ns outside [{d1_ns}, {d2_ns}] ns"
            ),
            Inadmissible::TooManyDrops {
                edge,
                requested,
                budget,
            } => write!(
                f,
                "{requested} drops on edge {}→{} exceed the budget {budget}",
                edge.0, edge.1
            ),
            Inadmissible::UnknownTarget { index, what } => {
                write!(f, "entry {index}: unknown target {what}")
            }
            Inadmissible::KindNotAllowed { index, kind } => {
                write!(f, "entry {index}: kind {kind} not in this scenario's model")
            }
            Inadmissible::ConflictingEntries { index, what } => {
                write!(f, "entry {index}: second entry targeting {what}")
            }
        }
    }
}

impl std::error::Error for Inadmissible {}

impl FaultPlan {
    /// Checks every entry against the envelope. `Ok` means the plan stays
    /// within the model: boundary values (`|offset| = ε`, `delay = d₂`)
    /// are admissible; one nanosecond beyond is not.
    ///
    /// # Errors
    ///
    /// The first [`Inadmissible`] entry found.
    pub fn validate(&self, env: &FaultEnvelope) -> Result<(), Inadmissible> {
        let mut channel_targets: Vec<(u32, u32, u32)> = Vec::new();
        let mut clock_targets: Vec<(u32, i64)> = Vec::new();
        let mut drops_per_edge: Vec<((u32, u32), u32)> = Vec::new();
        for (index, entry) in self.entries.iter().enumerate() {
            match *entry {
                FaultEntry::ClockSkew {
                    node,
                    at_ns,
                    offset_ns,
                } => {
                    self.check_clock(env, index, node, at_ns, &mut clock_targets)?;
                    if offset_ns.abs() > env.eps_ns {
                        return Err(Inadmissible::SkewBeyondEps {
                            index,
                            offset_ns,
                            eps_ns: env.eps_ns,
                        });
                    }
                }
                FaultEntry::ClockBackwardJump {
                    node,
                    at_ns,
                    jump_ns,
                } => {
                    self.check_clock(env, index, node, at_ns, &mut clock_targets)?;
                    if jump_ns <= 0 {
                        return Err(Inadmissible::UnknownTarget {
                            index,
                            what: format!("non-positive jump {jump_ns} ns"),
                        });
                    }
                }
                FaultEntry::Drop { src, dst, seq } => {
                    if !env.allow_drop {
                        return Err(Inadmissible::KindNotAllowed {
                            index,
                            kind: entry.kind(),
                        });
                    }
                    self.check_edge(env, index, src, dst, seq, &mut channel_targets)?;
                    let edge = (src, dst);
                    match drops_per_edge.iter_mut().find(|(e, _)| *e == edge) {
                        Some((_, n)) => *n += 1,
                        None => drops_per_edge.push((edge, 1)),
                    }
                    let requested = drops_per_edge
                        .iter()
                        .find(|(e, _)| *e == edge)
                        .map_or(0, |(_, n)| *n);
                    if requested > env.max_drops {
                        return Err(Inadmissible::TooManyDrops {
                            edge,
                            requested,
                            budget: env.max_drops,
                        });
                    }
                }
                FaultEntry::Duplicate {
                    src,
                    dst,
                    seq,
                    delay_ns,
                } => {
                    if !env.allow_dup {
                        return Err(Inadmissible::KindNotAllowed {
                            index,
                            kind: entry.kind(),
                        });
                    }
                    self.check_edge(env, index, src, dst, seq, &mut channel_targets)?;
                    self.check_delay(env, index, delay_ns)?;
                }
                FaultEntry::DelaySpike {
                    src,
                    dst,
                    seq,
                    delay_ns,
                } => {
                    if !env.allow_spike {
                        return Err(Inadmissible::KindNotAllowed {
                            index,
                            kind: entry.kind(),
                        });
                    }
                    self.check_edge(env, index, src, dst, seq, &mut channel_targets)?;
                    self.check_delay(env, index, delay_ns)?;
                }
                FaultEntry::SchedulerBias { .. } => {}
            }
        }
        Ok(())
    }

    fn check_clock(
        &self,
        env: &FaultEnvelope,
        index: usize,
        node: u32,
        at_ns: i64,
        seen: &mut Vec<(u32, i64)>,
    ) -> Result<(), Inadmissible> {
        if !env.allow_clock {
            return Err(Inadmissible::KindNotAllowed {
                index,
                kind: self.entries[index].kind(),
            });
        }
        if node >= env.nodes {
            return Err(Inadmissible::UnknownTarget {
                index,
                what: format!("node {node} (of {})", env.nodes),
            });
        }
        if at_ns < 0 || at_ns > env.horizon_ns {
            return Err(Inadmissible::UnknownTarget {
                index,
                what: format!("activation {at_ns} ns outside [0, {}]", env.horizon_ns),
            });
        }
        if seen.contains(&(node, at_ns)) {
            return Err(Inadmissible::ConflictingEntries {
                index,
                what: format!("clock of node {node} at {at_ns} ns"),
            });
        }
        seen.push((node, at_ns));
        Ok(())
    }

    fn check_edge(
        &self,
        env: &FaultEnvelope,
        index: usize,
        src: u32,
        dst: u32,
        seq: u32,
        seen: &mut Vec<(u32, u32, u32)>,
    ) -> Result<(), Inadmissible> {
        if !env.edges.contains(&(src, dst)) {
            return Err(Inadmissible::UnknownTarget {
                index,
                what: format!("edge {src}→{dst}"),
            });
        }
        if seq > env.max_seq {
            return Err(Inadmissible::UnknownTarget {
                index,
                what: format!("seq {seq} (max {})", env.max_seq),
            });
        }
        if seen.contains(&(src, dst, seq)) {
            return Err(Inadmissible::ConflictingEntries {
                index,
                what: format!("message {seq} on edge {src}→{dst}"),
            });
        }
        seen.push((src, dst, seq));
        Ok(())
    }

    fn check_delay(
        &self,
        env: &FaultEnvelope,
        index: usize,
        delay_ns: i64,
    ) -> Result<(), Inadmissible> {
        if delay_ns < env.d1_ns || delay_ns > env.d2_ns {
            return Err(Inadmissible::DelayOutOfBounds {
                index,
                delay_ns,
                d1_ns: env.d1_ns,
                d2_ns: env.d2_ns,
            });
        }
        Ok(())
    }
}

/// The splitmix64 finalizer: the one mixer behind the explorer's seeded
/// streams and hashes.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A tiny splitmix64-chained generator — the same primitive the delay and
/// drop policies use, so plan generation needs no external RNG crate.
pub(crate) struct Chain {
    state: u64,
}

impl Chain {
    pub(crate) fn new(seed: u64) -> Chain {
        Chain {
            state: splitmix64(seed),
        }
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// Uniform in `[0, n)`. `n > 0`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi]` (inclusive).
    pub(crate) fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64;
        lo + (self.below(span + 1) as i64)
    }
}

impl FaultPlan {
    /// Generates a seeded plan with at most `max_entries` entries, every
    /// one admissible in `env` by construction. Magnitudes are
    /// boundary-biased: clock offsets prefer `±ε`, delays prefer `d₁` and
    /// `d₂` — the corners where Theorems 4.7 and 6.5 are tight.
    #[must_use]
    pub fn generate(seed: u64, env: &FaultEnvelope, max_entries: usize) -> FaultPlan {
        let mut chain = Chain::new(seed ^ 0xFA17_71A0);
        let mut kinds: Vec<&'static str> = Vec::new();
        if env.allow_clock && env.nodes > 0 {
            kinds.push("clock_skew");
            kinds.push("clock_backward_jump");
        }
        if env.allow_drop && !env.edges.is_empty() {
            kinds.push("drop");
        }
        if env.allow_dup && !env.edges.is_empty() {
            kinds.push("duplicate");
        }
        if env.allow_spike && !env.edges.is_empty() {
            kinds.push("delay_spike");
        }
        kinds.push("scheduler_bias");

        let mut plan = FaultPlan::empty();
        if max_entries == 0 {
            return plan;
        }
        let count = 1 + chain.below(max_entries as u64) as usize;
        let mut drops_used: Vec<((u32, u32), u32)> = Vec::new();
        for _ in 0..count {
            let kind = kinds[chain.below(kinds.len() as u64) as usize];
            let entry = match kind {
                "clock_skew" => FaultEntry::ClockSkew {
                    node: chain.below(u64::from(env.nodes)) as u32,
                    at_ns: chain.range_i64(0, env.horizon_ns),
                    offset_ns: Self::boundary_biased(&mut chain, -env.eps_ns, env.eps_ns),
                },
                "clock_backward_jump" => FaultEntry::ClockBackwardJump {
                    node: chain.below(u64::from(env.nodes)) as u32,
                    at_ns: chain.range_i64(0, env.horizon_ns),
                    // Jumps up to 2ε: beyond the window for sure when at
                    // the high end, absorbable when small — both are
                    // interesting.
                    jump_ns: chain.range_i64(1, (2 * env.eps_ns).max(1)),
                },
                "drop" => {
                    let (src, dst) = env.edges[chain.below(env.edges.len() as u64) as usize];
                    let used = drops_used
                        .iter()
                        .find(|(e, _)| *e == (src, dst))
                        .map_or(0, |(_, n)| *n);
                    if used >= env.max_drops {
                        continue; // budget exhausted on this edge
                    }
                    match drops_used.iter_mut().find(|(e, _)| *e == (src, dst)) {
                        Some((_, n)) => *n += 1,
                        None => drops_used.push(((src, dst), 1)),
                    }
                    FaultEntry::Drop {
                        src,
                        dst,
                        seq: chain.below(u64::from(env.max_seq) + 1) as u32,
                    }
                }
                "duplicate" => {
                    let (src, dst) = env.edges[chain.below(env.edges.len() as u64) as usize];
                    FaultEntry::Duplicate {
                        src,
                        dst,
                        seq: chain.below(u64::from(env.max_seq) + 1) as u32,
                        delay_ns: Self::boundary_biased(&mut chain, env.d1_ns, env.d2_ns),
                    }
                }
                "delay_spike" => {
                    let (src, dst) = env.edges[chain.below(env.edges.len() as u64) as usize];
                    FaultEntry::DelaySpike {
                        src,
                        dst,
                        seq: chain.below(u64::from(env.max_seq) + 1) as u32,
                        delay_ns: Self::boundary_biased(&mut chain, env.d1_ns, env.d2_ns),
                    }
                }
                _ => FaultEntry::SchedulerBias {
                    pick: chain.below(512),
                },
            };
            // Keep the plan conflict-free: skip an entry whose knob is
            // already taken rather than bias the distribution by retrying.
            let conflict = match entry.channel_target() {
                Some(t) => plan.entries.iter().any(|e| e.channel_target() == Some(t)),
                None => match entry {
                    FaultEntry::ClockSkew { node, at_ns, .. }
                    | FaultEntry::ClockBackwardJump { node, at_ns, .. } => {
                        plan.entries.iter().any(|e| {
                            matches!(
                                *e,
                                FaultEntry::ClockSkew { node: n, at_ns: a, .. }
                                | FaultEntry::ClockBackwardJump { node: n, at_ns: a, .. }
                                if n == node && a == at_ns
                            )
                        })
                    }
                    _ => false,
                },
            };
            if !conflict {
                plan.entries.push(entry);
            }
        }
        debug_assert!(
            plan.validate(env).is_ok(),
            "generator produced an inadmissible plan"
        );
        plan
    }

    /// Boundary-biased draw from `[lo, hi]`: 40% `lo`, 40% `hi`, 20%
    /// uniform interior.
    fn boundary_biased(chain: &mut Chain, lo: i64, hi: i64) -> i64 {
        match chain.below(10) {
            0..=3 => lo,
            4..=7 => hi,
            _ => chain.range_i64(lo, hi),
        }
    }
}

/// Converts a nanosecond count to a [`Duration`].
#[must_use]
pub fn ns(n: i64) -> Duration {
    Duration::from_nanos(n)
}

/// Converts a nanosecond count to an absolute [`Time`].
#[must_use]
pub fn at_ns(n: i64) -> Time {
    Time::ZERO + Duration::from_nanos(n)
}

impl FaultPlan {
    pub(crate) fn to_json(&self) -> Json {
        Json::Arr(self.entries.iter().map(FaultEntry::to_json).collect())
    }

    pub(crate) fn from_json(v: &Json) -> Result<FaultPlan, String> {
        let items = v.as_arr().ok_or("plan must be an array")?;
        let entries = items
            .iter()
            .map(FaultEntry::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultPlan { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> FaultEnvelope {
        FaultEnvelope {
            nodes: 2,
            eps_ns: 2_000_000,
            d1_ns: 1_000_000,
            d2_ns: 4_000_000,
            horizon_ns: 200_000_000,
            edges: vec![(0, 1)],
            max_seq: 19,
            max_drops: 2,
            allow_clock: true,
            allow_drop: true,
            allow_dup: true,
            allow_spike: true,
        }
    }

    #[test]
    fn boundary_values_are_admissible_one_tick_beyond_is_not() {
        let e = env();
        let on_eps = FaultPlan {
            entries: vec![FaultEntry::ClockSkew {
                node: 0,
                at_ns: 0,
                offset_ns: e.eps_ns,
            }],
        };
        assert!(on_eps.validate(&e).is_ok());
        let over_eps = FaultPlan {
            entries: vec![FaultEntry::ClockSkew {
                node: 0,
                at_ns: 0,
                offset_ns: e.eps_ns + 1,
            }],
        };
        assert!(matches!(
            over_eps.validate(&e),
            Err(Inadmissible::SkewBeyondEps { .. })
        ));

        let on_d2 = FaultPlan {
            entries: vec![FaultEntry::DelaySpike {
                src: 0,
                dst: 1,
                seq: 0,
                delay_ns: e.d2_ns,
            }],
        };
        assert!(on_d2.validate(&e).is_ok());
        let over_d2 = FaultPlan {
            entries: vec![FaultEntry::DelaySpike {
                src: 0,
                dst: 1,
                seq: 0,
                delay_ns: e.d2_ns + 1,
            }],
        };
        assert!(matches!(
            over_d2.validate(&e),
            Err(Inadmissible::DelayOutOfBounds { .. })
        ));
    }

    #[test]
    fn drop_budget_and_conflicts_are_enforced() {
        let e = env();
        let over_budget = FaultPlan {
            entries: vec![
                FaultEntry::Drop {
                    src: 0,
                    dst: 1,
                    seq: 0,
                },
                FaultEntry::Drop {
                    src: 0,
                    dst: 1,
                    seq: 1,
                },
                FaultEntry::Drop {
                    src: 0,
                    dst: 1,
                    seq: 2,
                },
            ],
        };
        assert!(matches!(
            over_budget.validate(&e),
            Err(Inadmissible::TooManyDrops { .. })
        ));
        let conflicting = FaultPlan {
            entries: vec![
                FaultEntry::Drop {
                    src: 0,
                    dst: 1,
                    seq: 3,
                },
                FaultEntry::DelaySpike {
                    src: 0,
                    dst: 1,
                    seq: 3,
                    delay_ns: e.d1_ns,
                },
            ],
        };
        assert!(matches!(
            conflicting.validate(&e),
            Err(Inadmissible::ConflictingEntries { .. })
        ));
    }

    #[test]
    fn generated_plans_are_admissible_and_deterministic() {
        let e = env();
        for seed in 0..200 {
            let plan = FaultPlan::generate(seed, &e, 5);
            plan.validate(&e)
                .unwrap_or_else(|i| panic!("seed {seed}: generator escaped the envelope: {i}"));
            assert_eq!(plan, FaultPlan::generate(seed, &e, 5));
            assert!(!plan.is_empty() && plan.len() <= 5);
        }
    }

    #[test]
    fn generator_hits_the_boundaries() {
        let e = env();
        let mut hit_d2 = false;
        let mut hit_eps = false;
        for seed in 0..200 {
            for entry in FaultPlan::generate(seed, &e, 5).entries {
                match entry {
                    FaultEntry::DelaySpike { delay_ns, .. } if delay_ns == e.d2_ns => {
                        hit_d2 = true;
                    }
                    FaultEntry::ClockSkew { offset_ns, .. } if offset_ns.abs() == e.eps_ns => {
                        hit_eps = true;
                    }
                    _ => {}
                }
            }
        }
        assert!(hit_d2, "no spike ever sat on d₂");
        assert!(hit_eps, "no skew ever sat on ±ε");
    }

    #[test]
    fn generated_fault_points_stay_inside_the_envelope_catalog() {
        let e = env();
        let catalog = e.fault_points();
        assert!(catalog.contains(&"scheduler_bias".to_string()));
        assert!(catalog.contains(&"drop@0->1".to_string()));
        assert!(catalog.contains(&"clock_skew@n1".to_string()));
        for seed in 0..100 {
            for entry in FaultPlan::generate(seed, &e, 5).entries {
                assert!(
                    catalog.contains(&entry.fault_point()),
                    "fault point {} not in the catalog",
                    entry.fault_point()
                );
            }
        }
    }

    #[test]
    fn entries_round_trip_through_json() {
        let e = env();
        for seed in 0..50 {
            let plan = FaultPlan::generate(seed, &e, 5);
            let back = FaultPlan::from_json(&plan.to_json()).unwrap();
            assert_eq!(plan, back);
        }
    }
}
