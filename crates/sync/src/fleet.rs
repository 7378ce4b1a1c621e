//! A ready-made probe-sync fleet: N drifting clock nodes, fully
//! connected by `[d₁, d₂]` channels, each running [`ProbeSync`].
//!
//! Used by the differential ε̂ tests and the `sync_eps` bench; the explorer's catalog scenarios build the
//! same shape through its fault-injection machinery instead.

use psync_executor::{ClockNode, DriftClock, Engine};
use psync_net::{Channel, NodeId, SeededDelay};
use psync_time::{DelayBounds, Duration, Time};

use crate::probe::{ProbeSync, SyncAction, SyncMsg, SyncOp, SyncParams};

/// Parameters of a [`build_sync_fleet`] fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// Fleet size (≥ 2).
    pub nodes: usize,
    /// Channel delay lower bound `d₁`.
    pub d1: Duration,
    /// Channel delay upper bound `d₂`.
    pub d2: Duration,
    /// Configured envelope ε (the a-priori bound the protocol beats).
    pub eps: Duration,
    /// Base drift rate: node `i` runs at the `i`-th entry of
    /// [`drift_rates`]`(nodes, base_ppm)`.
    pub base_ppm: i64,
    /// Round period in clock time.
    pub period: Duration,
    /// Probes per peer per round.
    pub burst: u32,
    /// Estimate grace, in rounds.
    pub grace: u64,
    /// Responder echo hold (zero = honest; see `SyncParams::echo_hold`).
    pub echo_hold: Duration,
    /// Run horizon (real time).
    pub horizon: Time,
    /// Seed for the channels' delay choices.
    pub seed: u64,
}

impl FleetSpec {
    /// A small honest fleet with the catalog's default envelope:
    /// `d ∈ [1 ms, 3 ms]`, `ε = 2 ms`, 200 ppm base drift, 20 ms rounds,
    /// 2-probe bursts, 300 ms horizon.
    #[must_use]
    pub fn demo(nodes: usize, seed: u64) -> FleetSpec {
        FleetSpec {
            nodes,
            d1: Duration::from_millis(1),
            d2: Duration::from_millis(3),
            eps: Duration::from_millis(2),
            base_ppm: 200,
            period: Duration::from_millis(20),
            burst: 2,
            grace: 1,
            echo_hold: Duration::ZERO,
            horizon: Time::ZERO + Duration::from_millis(300),
            seed,
        }
    }
}

/// The fleet's drift-rate pattern: `[0, +b, −b, +2b, −2b, …]` ppm — the
/// worst pair diverges at `2·⌊n/2⌋·b` ppm, exercising both drift signs.
#[must_use]
pub fn drift_rates(nodes: usize, base_ppm: i64) -> Vec<i64> {
    (0..nodes)
        .map(|i| {
            let step = i.div_ceil(2) as i64;
            if i % 2 == 1 {
                step * base_ppm
            } else {
                -step * base_ppm
            }
        })
        .collect()
}

/// The largest drift-rate magnitude in [`drift_rates`] — the ρ each
/// component's drift margins must assume.
#[must_use]
pub fn rho_max(nodes: usize, base_ppm: i64) -> i64 {
    (nodes as i64 / 2) * base_ppm
}

/// Builds the fleet: one `ClockNode` per node (named `n{i}`, running a
/// [`DriftClock`] at the [`drift_rates`] pattern) with a [`ProbeSync`]
/// component, plus a seeded `[d₁, d₂]` channel per directed pair.
///
/// # Panics
///
/// Panics when the spec is degenerate (`nodes < 2`, invalid bounds) or
/// when the drift a clock can accumulate over the horizon reaches ε —
/// the `DriftClock` would snap its offset mid-run and break the
/// rate-≈1 assumption the offset intervals rely on.
#[must_use]
pub fn build_sync_fleet(spec: &FleetSpec) -> Engine<SyncAction> {
    assert!(spec.nodes >= 2, "a sync fleet needs at least two nodes");
    let rho = rho_max(spec.nodes, spec.base_ppm);
    assert!(
        spec.horizon.elapsed().scale_ppm(rho) < spec.eps,
        "drift over the horizon must stay inside ε (no sawtooth wraps)"
    );
    let rates = drift_rates(spec.nodes, spec.base_ppm);
    let bounds = DelayBounds::new(spec.d1, spec.d2).expect("fleet delay bounds");
    let mut builder = Engine::builder();
    for (i, &rate) in rates.iter().enumerate() {
        let peers: Vec<NodeId> = (0..spec.nodes).filter(|&j| j != i).map(NodeId).collect();
        let comp = ProbeSync::new(SyncParams {
            me: NodeId(i),
            peers,
            d1: spec.d1,
            d2: spec.d2,
            eps: spec.eps,
            rho_ppm: rho,
            period: spec.period,
            burst: spec.burst,
            grace: spec.grace,
            echo_hold: spec.echo_hold,
        });
        builder = builder.clock_node(
            ClockNode::new(format!("{}", NodeId(i)), spec.eps, DriftClock::new(rate)).with(comp),
        );
    }
    for i in 0..spec.nodes {
        for j in 0..spec.nodes {
            if i == j {
                continue;
            }
            let edge_seed = spec
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(((i as u64) << 32) | j as u64);
            builder = builder.timed(Channel::<SyncMsg, SyncOp>::new(
                NodeId(i),
                NodeId(j),
                bounds,
                SeededDelay::new(edge_seed),
            ));
        }
    }
    builder.horizon(spec.horizon).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measured::MeasuredEps;
    use crate::oracle::{predicted_eps_hat, EpsHatOracle};
    use psync_verify::Oracle;

    #[test]
    fn drift_pattern_alternates_signs() {
        assert_eq!(drift_rates(5, 100), vec![0, 100, -100, 200, -200]);
        assert_eq!(rho_max(5, 100), 200);
        assert_eq!(rho_max(2, 100), 100);
    }

    #[test]
    fn demo_fleet_certifies_under_the_predicted_bound() {
        let spec = FleetSpec::demo(3, 0x5EED);
        let mut engine = build_sync_fleet(&spec);
        let run = engine.run().expect("fleet runs clean");
        let measured = MeasuredEps::from_execution(&run.execution);
        let eps_hat = measured.final_eps_hat().expect("fleet certified");
        let rho = rho_max(spec.nodes, spec.base_ppm);
        let bound = predicted_eps_hat(spec.d1, spec.d2, rho, spec.horizon);
        assert!(
            eps_hat <= bound,
            "measured ε̂ {eps_hat} over predicted {bound}"
        );
        assert!(
            eps_hat < spec.eps * 2,
            "ε̂ {eps_hat} no better than the a-priori 2ε"
        );
        let oracle = EpsHatOracle::new(spec.nodes, bound);
        let v = oracle.check(&run.execution);
        assert!(v.holds(), "{v}");
    }
}
