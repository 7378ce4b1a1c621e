//! What every workload shares: the arguments of one run, the iteration
//! loop that fills `--seconds`, the outcome a workload hands back, and the
//! order statistics the metrics are made of.

use std::collections::BTreeMap;
use std::time::Instant;

/// Arguments of one run of one workload (one pass).
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Every input is derived from this seed; the program under test
    /// receives only the generated inputs.
    pub seed: u64,
    /// How long to measure. A run always completes its first cycle, so a
    /// short budget still yields every exact count.
    pub seconds: f64,
    /// Every workload at about 1/20 size.
    pub smoke: bool,
}

/// splitmix64: the one generator sub-seeds are drawn with.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `index`-th sub-seed of stream `stream` under `seed`.
#[must_use]
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)) ^ index)
}

/// Runs `body(iteration, in_first_cycle)` until `seconds` have passed and
/// at least one full cycle of `cycle` iterations is done; returns the
/// iteration count. Iteration `i` is expected to use input `i % cycle`, so
/// the first cycle is a fixed amount of work whose counts repeat exactly.
pub fn iterate(cycle: usize, seconds: f64, mut body: impl FnMut(usize, bool)) -> usize {
    let start = Instant::now();
    let mut i = 0;
    while i < cycle || start.elapsed().as_secs_f64() < seconds {
        body(i, i < cycle);
        i += 1;
    }
    i
}

/// What one run of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations (register ops, campaign cases) attempted.
    pub attempted: u64,
    /// Of those, failed: not completed, or part of a run some oracle
    /// rejected.
    pub failed: u64,
    /// False when a check beyond per-operation failures did not hold
    /// (mutation score below 10/10, two judges disagreeing).
    pub correct: bool,
    /// Violations and other findings, printed for the reader.
    pub notes: Vec<String>,
    /// Iterations run.
    pub iterations: usize,
    /// Host seconds of each set-up unit.
    pub setup_s: Vec<f64>,
    /// Events per host second of each iteration.
    pub events_per_s: Vec<f64>,
    /// Per-layer metrics by name (times are seconds per cycle, averaged
    /// over all iterations; counts are those of the first cycle).
    pub layer: BTreeMap<String, f64>,
    /// Counts of the first cycle that repeat exactly for a fixed seed.
    pub exact: Vec<(String, u64)>,
}

impl Outcome {
    /// An outcome with nothing failed yet.
    #[must_use]
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Sets a per-layer metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// Records an exact count, also as the per-layer metric of that name.
    pub fn exact(&mut self, name: &str, value: u64) {
        self.exact.push((name.to_string(), value));
        self.set(name, value as f64);
    }
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of `values`.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(max − min) / median`: the spread the suite prints beside a median.
#[must_use]
pub fn relative_spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (hi - lo) / mid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), 90.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(relative_spread(&[9.0, 10.0, 11.0]), 0.2);
    }

    #[test]
    fn iterate_finishes_the_first_cycle_even_with_no_time() {
        let mut seen = Vec::new();
        let n = iterate(3, 0.0, |i, first| seen.push((i, first)));
        assert_eq!(n, 3);
        assert_eq!(seen, vec![(0, true), (1, true), (2, true)]);
    }

    #[test]
    fn sub_seeds_differ_by_stream_and_index() {
        assert_ne!(sub_seed(1, 0, 0), sub_seed(1, 0, 1));
        assert_ne!(sub_seed(1, 0, 0), sub_seed(1, 1, 0));
        assert_ne!(sub_seed(1, 0, 0), sub_seed(2, 0, 0));
        assert_eq!(sub_seed(7, 3, 5), sub_seed(7, 3, 5));
    }
}
