//! A deterministic min-heap of `(deadline, component)` wake-up entries.
//!
//! This is the engine's replacement for scanning every enabled component
//! on each time advance: components whose [`WakeHint`] promises a fixed
//! wake time get an entry here, and the advance loop pops only the
//! entries that have come due — O(log n) per pop instead of O(n) per
//! advance.
//!
//! The heap is **lazy**: entries are never removed or updated in place
//! when a component's hint changes. The engine re-pushes on every cache
//! refresh and discards stale entries as they surface at the top, by
//! checking each popped entry against its per-component cache. That keeps
//! pushes O(log n) with no lookup structure, at the cost of duplicates —
//! which the engine bounds by rebuilding the heap from its caches when it
//! grows past a small multiple of the component count.
//!
//! Ordering is a total order on `(Time, usize)`: earlier deadlines first,
//! ties broken by ascending component index. Pop order is therefore a
//! deterministic function of the inserted multiset, independent of
//! insertion order — the property pinned by the tests below and relied on
//! for bit-identical replays.
//!
//! [`WakeHint`]: psync_automata::WakeHint

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use psync_automata::WakeHint;
use psync_time::Time;

/// A min-heap of `(time, component-index)` pairs with deterministic
/// tie-breaking (lowest index first among equal times).
#[derive(Debug, Clone, Default)]
pub(crate) struct WakeHeap {
    heap: BinaryHeap<Reverse<(Time, usize)>>,
}

impl WakeHeap {
    /// An empty heap.
    pub(crate) fn new() -> Self {
        WakeHeap {
            heap: BinaryHeap::new(),
        }
    }

    /// Inserts an entry. Duplicates are allowed (lazy invalidation).
    pub(crate) fn push(&mut self, time: Time, id: usize) {
        self.heap.push(Reverse((time, id)));
    }

    /// The earliest entry, without removing it.
    pub(crate) fn peek(&self) -> Option<(Time, usize)> {
        self.heap.peek().map(|Reverse(e)| *e)
    }

    /// Removes and returns the earliest entry if its time is `<= limit`.
    pub(crate) fn pop_le(&mut self, limit: Time) -> Option<(Time, usize)> {
        match self.heap.peek() {
            Some(Reverse((t, _))) if *t <= limit => self.heap.pop().map(|Reverse(e)| e),
            _ => None,
        }
    }

    /// Removes and returns the earliest entry unconditionally.
    pub(crate) fn pop(&mut self) -> Option<(Time, usize)> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Drops all entries.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }

    /// Number of live entries (including stale duplicates).
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

/// `flags[id]` bit: the component currently hints `Always`.
const LIVE: u8 = 1;
/// `flags[id]` bit: an entry for the component sits in a `WakeSet` list.
const LISTED: u8 = 2;

/// Who must be woken by a time advance, for one group of components that
/// share a time basis: all timed components (real time), or the
/// components of one clock node (that node's clock).
///
/// The group's members are the contiguous flat ids `ids`. Each member's
/// latest hint lives in the engine's flat `cached` table; this set indexes
/// it: `Always` members in an unordered list, `At(t)` members in a lazy
/// [`WakeHeap`] (an entry is live iff the member still caches exactly
/// that `At(t)`), `Never` members nowhere. The `flags` table (flat, shared
/// by all groups like `cached`) keeps list membership exact without a
/// search: a member that stops hinting `Always` keeps its list entry until
/// the next [`WakeSet::due`] drops it, and is not listed twice meanwhile.
#[derive(Debug, Clone)]
pub(crate) struct WakeSet {
    ids: Range<usize>,
    always: Vec<usize>,
    heap: WakeHeap,
}

impl WakeSet {
    /// An empty set over the members `ids`.
    pub(crate) fn new(ids: Range<usize>) -> Self {
        WakeSet {
            ids,
            always: Vec::new(),
            heap: WakeHeap::new(),
        }
    }

    /// Records member `id`'s fresh hint. Heap pushes are unconditional — a
    /// push per refresh is cheaper than any in-heap lookup — and the heap
    /// is rebuilt from `cached` once stale entries outnumber the members.
    pub(crate) fn note(
        &mut self,
        id: usize,
        hint: WakeHint,
        cached: &mut [WakeHint],
        flags: &mut [u8],
    ) {
        debug_assert!(self.ids.contains(&id));
        cached[id] = hint;
        match hint {
            WakeHint::Always => {
                if flags[id] & LISTED == 0 {
                    self.always.push(id);
                }
                flags[id] = LIVE | LISTED;
            }
            WakeHint::At(t) => {
                flags[id] &= !LIVE;
                self.heap.push(t, id);
                if self.heap.len() > 2 * self.ids.len() + 64 {
                    self.heap.clear();
                    for id in self.ids.clone() {
                        if let WakeHint::At(t) = cached[id] {
                            self.heap.push(t, id);
                        }
                    }
                }
            }
            WakeHint::Never => flags[id] &= !LIVE,
        }
    }

    /// Fills `out`, ascending and without duplicates, with every member an
    /// advance of the group's time basis to `limit` must wake: the
    /// `Always` members and those whose `At(t)` has `t <= limit`. Popped
    /// heap entries are gone for good — a woken member is re-noted at its
    /// next refresh.
    pub(crate) fn due(
        &mut self,
        limit: Time,
        cached: &[WakeHint],
        flags: &mut [u8],
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend_from_slice(self.retain_always(flags));
        while let Some((t, id)) = self.heap.pop_le(limit) {
            if cached[id] == WakeHint::At(t) {
                out.push(id);
            }
        }
        // Re-noting pushes duplicate heap entries.
        out.sort_unstable();
        out.dedup();
    }

    /// The live `Always` members, dropping stale list entries on the way.
    pub(crate) fn retain_always(&mut self, flags: &mut [u8]) -> &[usize] {
        self.always.retain(|&id| {
            let live = flags[id] & LIVE != 0;
            if !live {
                flags[id] = 0;
            }
            live
        });
        &self.always
    }

    /// Forgets everything (the members' `flags` included): every member is
    /// about to be re-noted.
    pub(crate) fn clear(&mut self, flags: &mut [u8]) {
        self.always.clear();
        self.heap.clear();
        flags[self.ids.clone()].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_time::Duration;

    fn at(n: i64) -> Time {
        Time::ZERO + Duration::from_millis(n)
    }

    #[test]
    fn pops_in_time_then_index_order() {
        let mut h = WakeHeap::new();
        for &(t, id) in &[(5, 2), (3, 9), (5, 0), (3, 1), (7, 4)] {
            h.push(at(t), id);
        }
        let mut order = Vec::new();
        while let Some(e) = h.pop() {
            order.push(e);
        }
        assert_eq!(
            order,
            vec![(at(3), 1), (at(3), 9), (at(5), 0), (at(5), 2), (at(7), 4)]
        );
    }

    #[test]
    fn pop_order_is_independent_of_insertion_order() {
        // A seeded shuffle of the same multiset must drain identically.
        let entries: Vec<(Time, usize)> = (0..32).map(|i| (at((i % 5) as i64), i)).collect();
        let drain = |mut h: WakeHeap| {
            let mut out = Vec::new();
            while let Some(e) = h.pop() {
                out.push(e);
            }
            out
        };
        let mut reference = WakeHeap::new();
        for &(t, id) in &entries {
            reference.push(t, id);
        }
        let expected = drain(reference);

        // splitmix64-style permutation of insertion order.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut shuffled = entries.clone();
        for i in (1..shuffled.len()).rev() {
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58476d1ce4e5b9);
            x ^= x >> 27;
            shuffled.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut h = WakeHeap::new();
        for &(t, id) in &shuffled {
            h.push(t, id);
        }
        assert_eq!(drain(h), expected);
    }

    #[test]
    fn pop_le_respects_the_limit() {
        let mut h = WakeHeap::new();
        h.push(at(4), 0);
        h.push(at(2), 1);
        assert_eq!(h.pop_le(at(3)), Some((at(2), 1)));
        assert_eq!(h.pop_le(at(3)), None);
        assert_eq!(h.peek(), Some((at(4), 0)));
        assert_eq!(h.len(), 1);
        h.clear();
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn wake_set_wakes_always_and_due_members_once_each() {
        let mut cached = vec![WakeHint::Never; 6];
        let mut flags = vec![0u8; 6];
        let mut set = WakeSet::new(2..6);
        set.note(2, WakeHint::Always, &mut cached, &mut flags);
        set.note(3, WakeHint::At(at(5)), &mut cached, &mut flags);
        set.note(4, WakeHint::At(at(9)), &mut cached, &mut flags);
        set.note(5, WakeHint::Never, &mut cached, &mut flags);
        // Re-noting pushes a duplicate heap entry and must not list twice.
        set.note(3, WakeHint::At(at(5)), &mut cached, &mut flags);
        set.note(2, WakeHint::Always, &mut cached, &mut flags);
        let mut out = vec![99];
        set.due(at(5), &cached, &mut flags, &mut out);
        assert_eq!(out, vec![2, 3]);
        // 3 was popped; 4 is superseded, so its old entry is stale.
        set.note(4, WakeHint::At(at(20)), &mut cached, &mut flags);
        set.note(2, WakeHint::Never, &mut cached, &mut flags);
        set.due(at(10), &cached, &mut flags, &mut out);
        assert_eq!(out, Vec::<usize>::new());
        assert_eq!(flags[2], 0);
        // Back to `Always` after the stale entry was dropped: listed again.
        set.note(2, WakeHint::Always, &mut cached, &mut flags);
        set.due(at(20), &cached, &mut flags, &mut out);
        assert_eq!(out, vec![2, 4]);
    }

    #[test]
    fn wake_set_heap_stays_bounded_under_renoting() {
        let mut cached = vec![WakeHint::Never; 3];
        let mut flags = vec![0u8; 3];
        let mut set = WakeSet::new(0..3);
        for k in 0..10_000 {
            set.note(k % 3, WakeHint::At(at(k as i64)), &mut cached, &mut flags);
        }
        assert!(set.heap.len() <= 2 * 3 + 64);
        let mut out = Vec::new();
        set.due(at(10_000), &cached, &mut flags, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }
}
