//! Schedulers: the adversary choosing among enabled actions.

use psync_time::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What [`Scheduler::checkpoint`] returns: nothing. It exists only
/// because `benchmark/src/layers.rs` forwards the two checkpoint methods;
/// the `benchmark` change of ROADMAP items 3/4 deletes it with them.
#[derive(Debug)]
pub struct SchedulerCheckpoint;

/// Chooses which of the currently enabled locally controlled actions fires
/// next.
///
/// The engine is *eager*: whenever at least one action is enabled, one of
/// them fires before time passes (the urgency of when an action becomes
/// enabled is entirely encoded in component deadlines, so eagerness loses
/// no behaviors for the deadline-driven components in this workspace).
/// The scheduler resolves the remaining nondeterminism — the interleaving
/// of simultaneously enabled actions — and is therefore one of the three
/// adversary knobs of an experiment (with clock strategies and delay
/// policies).
///
/// `candidates` lists the enabled actions in a stable order (timed
/// components first, then clock nodes, each in insertion order);
/// implementations return an index into it.
pub trait Scheduler<A> {
    /// Picks the index of the action to fire. `candidates` is non-empty.
    fn pick(&mut self, now: Time, candidates: &[A]) -> usize;

    /// Like [`Scheduler::pick`], but additionally told which component
    /// each candidate came from: `origins[i]` is an opaque component id
    /// (stable across the whole run, ascending within one call) for
    /// `candidates[i]`. The engine always calls this entry point; the
    /// default ignores the origins, so plain schedulers only implement
    /// [`Scheduler::pick`]. Origin-aware schedulers such as
    /// [`RoundRobinScheduler`] override it.
    fn pick_with_origins(&mut self, now: Time, candidates: &[A], origins: &[usize]) -> usize {
        let _ = origins;
        self.pick(now, candidates)
    }

    /// A no-op nothing calls. Kept only because `benchmark/src/layers.rs`
    /// forwards it; the `benchmark` change of ROADMAP items 3/4 deletes
    /// it. A run is cut and continued in place instead (see
    /// `Engine::run_until_events`).
    fn checkpoint(&self) -> SchedulerCheckpoint {
        SchedulerCheckpoint
    }

    /// A no-op nothing calls, kept for the same reason as
    /// [`Scheduler::checkpoint`].
    fn restore(&mut self, checkpoint: &SchedulerCheckpoint) {
        let _ = checkpoint;
    }
}

/// Always fires the first enabled action — fully deterministic, favouring
/// components added earlier.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoScheduler;

impl<A> Scheduler<A> for FifoScheduler {
    fn pick(&mut self, _now: Time, _candidates: &[A]) -> usize {
        0
    }
}

/// Always fires the last enabled action — deterministic, favouring
/// components added later; useful as a cheap second interleaving.
#[derive(Debug, Clone, Copy, Default)]
pub struct LifoScheduler;

impl<A> Scheduler<A> for LifoScheduler {
    fn pick(&mut self, _now: Time, candidates: &[A]) -> usize {
        candidates.len() - 1
    }
}

/// Fires a uniformly random enabled action, from a seeded generator —
/// reproducible randomized interleavings.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates a scheduler from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl<A> Scheduler<A> for RandomScheduler {
    fn pick(&mut self, _now: Time, candidates: &[A]) -> usize {
        self.rng.gen_range(0..candidates.len())
    }
}

/// Rotates fairly over candidate *origins* (components): each pick goes to
/// the first component at or after the previous winner's successor, so a
/// chatty component added early cannot starve later ones the way
/// [`FifoScheduler`] does.
///
/// Within the chosen component, the first of its enabled actions fires.
/// When used through plain [`Scheduler::pick`] (no origin information),
/// it degrades to rotating over candidate indices.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinScheduler {
    /// Next origin id (or index, in the degraded mode) to prefer.
    cursor: usize,
}

impl RoundRobinScheduler {
    /// Creates a scheduler starting its rotation at the first component.
    #[must_use]
    pub fn new() -> Self {
        RoundRobinScheduler::default()
    }
}

impl<A> Scheduler<A> for RoundRobinScheduler {
    fn pick(&mut self, _now: Time, candidates: &[A]) -> usize {
        let idx = self.cursor % candidates.len();
        self.cursor = idx + 1;
        idx
    }

    fn pick_with_origins(&mut self, _now: Time, candidates: &[A], origins: &[usize]) -> usize {
        debug_assert_eq!(candidates.len(), origins.len());
        // Origins arrive ascending; take the first at or past the cursor,
        // wrapping to the front when everyone is behind it.
        let idx = origins.iter().position(|&o| o >= self.cursor).unwrap_or(0);
        self.cursor = origins[idx] + 1;
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("a{i}")).collect()
    }

    #[test]
    fn fifo_picks_first() {
        let mut s = FifoScheduler;
        assert_eq!(s.pick(Time::ZERO, &labels(3)), 0);
    }

    #[test]
    fn lifo_picks_last() {
        let mut s = LifoScheduler;
        assert_eq!(s.pick(Time::ZERO, &labels(3)), 2);
    }

    #[test]
    fn round_robin_rotates_over_origins() {
        let mut s = RoundRobinScheduler::new();
        let c = labels(3);
        // Three candidates from components 0, 2, 5.
        let origins = [0usize, 2, 5];
        assert_eq!(s.pick_with_origins(Time::ZERO, &c, &origins), 0); // comp 0
        assert_eq!(s.pick_with_origins(Time::ZERO, &c, &origins), 1); // comp 2
        assert_eq!(s.pick_with_origins(Time::ZERO, &c, &origins), 2); // comp 5
        assert_eq!(s.pick_with_origins(Time::ZERO, &c, &origins), 0); // wraps
    }

    #[test]
    fn round_robin_skips_absent_origins() {
        let mut s = RoundRobinScheduler::new();
        let c = labels(2);
        assert_eq!(s.pick_with_origins(Time::ZERO, &c, &[1, 4]), 0);
        // Component 1 no longer offers anything: rotation moves on to 4.
        assert_eq!(s.pick_with_origins(Time::ZERO, &c, &[0, 4]), 1);
        // Past the end: wrap to the front.
        assert_eq!(s.pick_with_origins(Time::ZERO, &c, &[0, 4]), 0);
    }

    #[test]
    fn round_robin_without_origins_rotates_indices() {
        let mut s = RoundRobinScheduler::new();
        let c = labels(3);
        let picks: Vec<usize> = (0..5).map(|_| s.pick(Time::ZERO, &c)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn default_pick_with_origins_delegates_to_pick() {
        let mut s = LifoScheduler;
        assert_eq!(
            s.pick_with_origins(Time::ZERO, &labels(4), &[0, 1, 2, 3]),
            3
        );
    }

    #[test]
    fn random_is_seeded_and_in_range() {
        let c = labels(5);
        let picks1: Vec<usize> = {
            let mut s = RandomScheduler::new(42);
            (0..20).map(|_| s.pick(Time::ZERO, &c)).collect()
        };
        let picks2: Vec<usize> = {
            let mut s = RandomScheduler::new(42);
            (0..20).map(|_| s.pick(Time::ZERO, &c)).collect()
        };
        assert_eq!(picks1, picks2, "same seed, same schedule");
        assert!(picks1.iter().all(|&i| i < 5));
        // Different seeds should (virtually always) differ somewhere.
        let picks3: Vec<usize> = {
            let mut s = RandomScheduler::new(43);
            (0..20).map(|_| s.pick(Time::ZERO, &c)).collect()
        };
        assert_ne!(picks1, picks3);
    }
}
