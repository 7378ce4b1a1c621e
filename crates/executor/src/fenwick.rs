//! Segment lengths with O(log n) prefix sums.
//!
//! The engine's candidate list is the concatenation of every component's
//! enabled actions in flat order; splicing one component's segment needs
//! the segment's start — the sum of all earlier lengths. A Fenwick
//! (binary indexed) tree keeps that sum and a point update at O(log n),
//! where a plain array pays O(n) per splice — per *dirty component*, so
//! tens of thousands of times per run.

/// Per-component segment lengths plus a Fenwick tree over them.
#[derive(Debug, Clone)]
pub(crate) struct SegLens {
    len: Vec<u32>,
    /// 1-based: `tree[i]` sums `len[i - lowbit(i)..i]`.
    tree: Vec<u32>,
}

impl SegLens {
    /// `n` segments, all empty.
    pub(crate) fn new(n: usize) -> Self {
        SegLens {
            len: vec![0; n],
            tree: vec![0; n + 1],
        }
    }

    /// Length of segment `id`.
    pub(crate) fn get(&self, id: usize) -> usize {
        self.len[id] as usize
    }

    /// Sum of the lengths of segments `0..id` — the start of segment `id`.
    pub(crate) fn start(&self, id: usize) -> usize {
        let mut sum = 0usize;
        let mut i = id;
        while i > 0 {
            sum += self.tree[i] as usize;
            i &= i - 1;
        }
        sum
    }

    /// Sets the length of segment `id`.
    pub(crate) fn set(&mut self, id: usize, len: usize) {
        let len = u32::try_from(len).expect("candidate count fits u32");
        let old = std::mem::replace(&mut self.len[id], len);
        // Wrapping: a shrinking segment adds the two's complement of the
        // difference, and every node's true sum stays within `u32`.
        let delta = len.wrapping_sub(old);
        let mut i = id + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Replaces every length at once, rebuilding the tree in one O(n)
    /// pass. `lens` yields exactly one length per segment, in order.
    pub(crate) fn set_all(&mut self, lens: impl IntoIterator<Item = usize>) {
        let mut count = 0;
        for (slot, len) in self.len.iter_mut().zip(lens) {
            *slot = u32::try_from(len).expect("candidate count fits u32");
            count += 1;
        }
        debug_assert_eq!(count, self.len.len());
        self.tree[0] = 0;
        self.tree[1..].copy_from_slice(&self.len);
        for i in 1..self.tree.len() {
            let parent = i + (i & i.wrapping_neg());
            if parent < self.tree.len() {
                self.tree[parent] += self.tree[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(seg: &SegLens, model: &[usize]) {
        let mut sum = 0;
        for (id, &len) in model.iter().enumerate() {
            assert_eq!(seg.start(id), sum, "start of {id}");
            assert_eq!(seg.get(id), len);
            sum += len;
        }
    }

    #[test]
    fn point_updates_agree_with_a_plain_array() {
        // splitmix64-driven grows and shrinks, including to zero.
        let n = 37;
        let mut seg = SegLens::new(n);
        let mut model = vec![0usize; n];
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..500 {
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 27;
            let id = (x % n as u64) as usize;
            let len = ((x >> 8) % 5) as usize;
            seg.set(id, len);
            model[id] = len;
            check(&seg, &model);
        }
    }

    #[test]
    fn bulk_rebuild_agrees_with_point_updates() {
        let model: Vec<usize> = (0..50).map(|i| (i * 7) % 4).collect();
        let mut bulk = SegLens::new(model.len());
        bulk.set_all(model.iter().copied());
        check(&bulk, &model);
        // And stays consistent under later point updates.
        let mut model = model;
        bulk.set(13, 9);
        model[13] = 9;
        bulk.set(49, 0);
        model[49] = 0;
        check(&bulk, &model);
    }

    #[test]
    fn empty_tree_is_fine() {
        let mut seg = SegLens::new(0);
        seg.set_all(std::iter::empty());
        assert_eq!(seg.start(0), 0);
    }
}
