//! Arena storage for event logs: flat [`TimedEvent`] records plus an
//! interned node-name table, snapshotted by reference count.
//!
//! The execution engine appends every event of a run into one
//! [`EventArena`]; observers and recorded [`Execution`]s all view the
//! *same* flat storage through [`ArenaSnapshot`]s — an `Arc` to
//! the arena plus a prefix length, so taking a snapshot is O(1) and two
//! snapshots of the same run share every byte of the common prefix. The
//! engine copy-on-writes (`Arc::make_mut`) only when it appends while an
//! older snapshot is still alive, which freezes that snapshot's arena
//! forever — exactly the sharing discipline the previous `Arc<Vec<_>>`
//! log used, now with the name table and prefix views riding along.
//!
//! Events are identified by their **arena index** (position in the flat
//! `Vec`). Observer hooks report the index of each appended event, so a
//! streaming monitor can refer back into `run.execution.events()[idx]`
//! without copying anything.
//!
//! [`Execution`]: crate::Execution

use core::fmt;
use std::sync::Arc;

use crate::TimedEvent;

/// Flat, append-only storage for one run's events plus the interned
/// node-name table shared into them.
///
/// The arena itself is plain owned data; sharing happens through
/// [`ArenaSnapshot`] (an `Arc` to the arena plus a prefix length):
/// whoever appends while an older snapshot is alive copy-on-writes,
/// freezing that snapshot's arena forever.
#[derive(Debug, Clone)]
pub struct EventArena<A> {
    events: Vec<TimedEvent<A>>,
    /// Interned clock-node names, registered once at engine build time;
    /// every event's `node` field is a clone of one of these `Arc`s (or
    /// `None` for plain timed components).
    names: Vec<Arc<str>>,
}

impl<A> Default for EventArena<A> {
    fn default() -> Self {
        EventArena::new()
    }
}

impl<A> EventArena<A> {
    /// An empty arena with no interned names.
    #[must_use]
    pub fn new() -> Self {
        EventArena {
            events: Vec::new(),
            names: Vec::new(),
        }
    }

    /// Wraps an already-recorded event sequence (no names interned).
    #[must_use]
    pub fn from_events(events: Vec<TimedEvent<A>>) -> Self {
        EventArena {
            events,
            names: Vec::new(),
        }
    }

    /// Registers a node name in the intern table and returns its index.
    /// Idempotent by content: re-registering an equal name returns the
    /// existing index. Intended for build time (it scans the table), not
    /// the per-event hot path — events share the returned `Arc` directly.
    pub fn intern(&mut self, name: &Arc<str>) -> usize {
        if let Some(i) = self.names.iter().position(|n| **n == **name) {
            return i;
        }
        self.names.push(Arc::clone(name));
        self.names.len() - 1
    }

    /// Appends an event and returns its arena index.
    pub fn push(&mut self, event: TimedEvent<A>) -> usize {
        self.events.push(event);
        self.events.len() - 1
    }

    /// The recorded events, in append order.
    #[must_use]
    pub fn events(&self) -> &[TimedEvent<A>] {
        &self.events
    }

    /// The interned node names, in registration order.
    #[must_use]
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// An O(1), immutable view of the first `len` events of a shared
/// [`EventArena`] — the unit of sharing between the engine's live log
/// and recorded executions.
///
/// Cloning a snapshot clones an `Arc` (and a length), never events.
/// [`ArenaSnapshot::prefix`] produces shorter views of the same storage
/// without copying, which is what lets shrink probes and prefix replays
/// hold many cuts of one run for the price of one.
pub struct ArenaSnapshot<A> {
    arena: Arc<EventArena<A>>,
    len: usize,
}

impl<A> ArenaSnapshot<A> {
    /// Snapshots the arena at its current full length.
    #[must_use]
    pub fn full(arena: Arc<EventArena<A>>) -> Self {
        let len = arena.len();
        ArenaSnapshot { arena, len }
    }

    /// The events in view, in order.
    #[must_use]
    pub fn events(&self) -> &[TimedEvent<A>] {
        &self.arena.events()[..self.len]
    }

    /// The underlying arena's interned node names.
    #[must_use]
    pub fn names(&self) -> &[Arc<str>] {
        self.arena.names()
    }

    /// Number of events in view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A view of the first `n` events of the same storage — O(1), no copy.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds this snapshot's length.
    #[must_use]
    pub fn prefix(&self, n: usize) -> ArenaSnapshot<A> {
        assert!(
            n <= self.len,
            "prefix of {n} events from a {}-event snapshot",
            self.len
        );
        ArenaSnapshot {
            arena: Arc::clone(&self.arena),
            len: n,
        }
    }

    /// `true` when the view covers the whole underlying arena.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len == self.arena.len()
    }

    /// The shared arena, re-ownable: when the view is full this is a plain
    /// `Arc` clone; a proper prefix materializes a truncated copy.
    #[must_use]
    pub fn to_arena(&self) -> Arc<EventArena<A>>
    where
        A: Clone,
    {
        if self.is_full() {
            Arc::clone(&self.arena)
        } else {
            Arc::new(EventArena {
                events: self.events().to_vec(),
                names: self.arena.names().to_vec(),
            })
        }
    }
}

impl<A> Default for ArenaSnapshot<A> {
    /// An empty view of an empty arena.
    fn default() -> Self {
        ArenaSnapshot::full(Arc::new(EventArena::new()))
    }
}

// Manual impls: a snapshot is shareable/comparable regardless of whether
// `A` is (derives would add `A: Clone`/`A: PartialEq` bounds to the Arc
// clone, which needs neither).
impl<A> Clone for ArenaSnapshot<A> {
    fn clone(&self) -> Self {
        ArenaSnapshot {
            arena: Arc::clone(&self.arena),
            len: self.len,
        }
    }
}

impl<A: fmt::Debug> fmt::Debug for ArenaSnapshot<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArenaSnapshot")
            .field("len", &self.len)
            .field("events", &self.events())
            .finish()
    }
}

/// Equality is by event content: two snapshots of different arenas (or
/// different prefix lengths) are equal iff they view equal event
/// sequences.
impl<A: PartialEq> PartialEq for ArenaSnapshot<A> {
    fn eq(&self, other: &Self) -> bool {
        self.events() == other.events()
    }
}

impl<A: Eq> Eq for ArenaSnapshot<A> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ActionKind;
    use psync_time::{Duration, Time};

    fn ev(n: i64) -> TimedEvent<u32> {
        TimedEvent {
            action: n as u32,
            kind: ActionKind::Internal,
            now: Time::ZERO + Duration::from_millis(n),
            clock: None,
            node: None,
        }
    }

    #[test]
    fn intern_is_idempotent_by_content() {
        let mut arena: EventArena<u32> = EventArena::new();
        let a: Arc<str> = Arc::from("node-a");
        let a2: Arc<str> = Arc::from("node-a");
        let b: Arc<str> = Arc::from("node-b");
        assert_eq!(arena.intern(&a), 0);
        assert_eq!(arena.intern(&b), 1);
        assert_eq!(arena.intern(&a2), 0);
        assert_eq!(arena.names().len(), 2);
    }

    #[test]
    fn snapshots_share_storage_and_prefix_in_o1() {
        let mut arena = EventArena::new();
        for i in 0..4 {
            assert_eq!(arena.push(ev(i)), i as usize);
        }
        let snap = ArenaSnapshot::full(Arc::new(arena));
        assert_eq!(snap.len(), 4);
        assert!(snap.is_full());
        let p = snap.prefix(2);
        assert_eq!(p.events(), &snap.events()[..2]);
        assert!(!p.is_full());
        // The prefix clones no events: same arena allocation.
        assert!(Arc::ptr_eq(&snap.arena, &p.arena));
    }

    #[test]
    fn prefix_to_arena_materializes_a_truncated_copy() {
        let mut arena = EventArena::new();
        arena.push(ev(1));
        arena.push(ev(2));
        let snap = ArenaSnapshot::full(Arc::new(arena));
        let owned = snap.prefix(1).to_arena();
        assert_eq!(owned.len(), 1);
        assert_eq!(owned.events(), &snap.events()[..1]);
    }

    #[test]
    fn equality_is_by_content_not_identity() {
        let mut a = EventArena::new();
        a.push(ev(1));
        let mut b = EventArena::new();
        b.push(ev(1));
        b.push(ev(2));
        let sa = ArenaSnapshot::full(Arc::new(a));
        let sb = ArenaSnapshot::full(Arc::new(b));
        assert_ne!(sa, sb);
        assert_eq!(sa, sb.prefix(1));
    }

    #[test]
    #[should_panic(expected = "prefix of 3")]
    fn oversized_prefix_is_rejected() {
        let mut arena = EventArena::new();
        arena.push(ev(1));
        let snap = ArenaSnapshot::full(Arc::new(arena));
        let _ = snap.prefix(3);
    }
}
