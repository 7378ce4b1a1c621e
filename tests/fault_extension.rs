//! The paper's future-work fault model (Section 7.3), as extension tests:
//!
//! * **FIFO channels** (footnote 4: "our results also hold for the case
//!   where messages cannot be reordered") — the register stays correct.
//! * **Lossy channels** — the register algorithms are fire-and-forget, so
//!   dropping updates *must* break freshness: the test constructs the
//!   violation, documenting precisely which guarantee depends on the
//!   paper's reliability assumption.

use psync::prelude::*;
use psync_net::{DropSeeded, FaultChannel};
use psync_register::history;

fn ms(n: i64) -> Duration {
    Duration::from_millis(n)
}

fn params(topo: &Topology, bounds: DelayBounds) -> RegisterParams {
    RegisterParams::for_timed_model(topo, bounds, ms(2), Duration::from_micros(100))
}

/// Assembles a D_T register system with custom channels.
fn engine_with_channels(
    topo: &Topology,
    p: &RegisterParams,
    workload: ClosedLoopWorkload,
    mut channel: impl FnMut(NodeId, NodeId) -> psync_automata::ComponentBox<RegAction>,
) -> Engine<RegAction> {
    let mut builder = Engine::builder();
    for i in topo.nodes() {
        builder = builder.timed(AlgorithmS::new(i, p.clone()));
    }
    for &(i, j) in topo.edges() {
        builder = builder.timed_boxed(channel(i, j));
    }
    builder
        .timed(workload)
        .scheduler(RandomScheduler::new(13))
        .horizon(Time::ZERO + Duration::from_secs(10))
        .build()
}

#[test]
fn register_over_fifo_channels_stays_linearizable() {
    let n = 3;
    let topo = Topology::complete(n);
    let bounds = DelayBounds::new(ms(1), ms(6)).unwrap();
    let p = params(&topo, bounds);
    for seed in [1u64, 2, 3] {
        let workload =
            ClosedLoopWorkload::new(&topo, seed, DelayBounds::new(ms(1), ms(5)).unwrap(), 8);
        let mut engine = engine_with_channels(&topo, &p, workload, |i, j| {
            psync_automata::ComponentBox::new(
                Channel::<RegMsg, RegisterOp>::new(
                    i,
                    j,
                    bounds,
                    SeededDelay::new(seed ^ ((i.0 as u64) << 8) ^ j.0 as u64),
                )
                .fifo(),
            )
        });
        let run = engine.run().expect("well-formed");
        assert_eq!(run.stop, StopReason::Quiescent);
        let ops = history::extract(&app_trace(&run.execution), n).unwrap();
        assert_eq!(ops.len(), n * 8);
        let verdict = check_linearizable(&ops, Value::INITIAL);
        assert!(verdict.holds(), "seed {seed}: {verdict}");
    }
}

#[test]
fn register_over_lossy_channels_loses_freshness() {
    // Scripted: node 0 writes (all its updates dropped by the 100%-lossy
    // channels), acks, then node 1 reads — and necessarily returns the
    // stale initial value. This is the violation the paper's reliability
    // assumption rules out.
    let n = 2;
    let topo = Topology::complete(n);
    let bounds = DelayBounds::new(ms(1), ms(6)).unwrap();
    let p = params(&topo, bounds);
    let write_at = Time::ZERO + ms(5);
    let read_at = write_at + p.write_latency() + ms(1); // strictly after the ACK
    let script: Vec<(Time, RegisterOp)> = vec![
        (
            write_at,
            RegisterOp::Write {
                node: NodeId(0),
                value: Value(9),
            },
        ),
        (read_at, RegisterOp::Read { node: NodeId(1) }),
    ];

    let mut builder = Engine::builder();
    for i in topo.nodes() {
        builder = builder.timed(AlgorithmS::new(i, p.clone()));
    }
    for &(i, j) in topo.edges() {
        builder = builder.timed(FaultChannel::<RegMsg, RegisterOp>::new(
            i,
            j,
            bounds,
            MaxDelay,
            DropSeeded::new(0, 100),
        ));
    }
    let mut engine = builder
        .timed(Script::new(script, |op: &RegisterOp| op.is_response()))
        .horizon(read_at + ms(50))
        .build();
    let run = engine.run().expect("the composition itself is fine");

    let ops = history::extract(&app_trace(&run.execution), n).unwrap();
    assert_eq!(
        ops.len(),
        2,
        "both operations still complete — losses are silent"
    );
    let verdict = check_linearizable(&ops, Value::INITIAL);
    assert!(
        !verdict.holds(),
        "with every update dropped, the read must be stale; got: {verdict}"
    );

    // The stale value is specifically v₀.
    let read = ops.iter().find(|o| o.is_read()).unwrap();
    assert_eq!(
        read.kind,
        history::OpKind::Read {
            returned: Value::INITIAL
        }
    );
}

#[test]
fn mild_loss_can_go_unnoticed_or_break_it_depending_on_traffic() {
    // With per-message seeded loss, some seeds break linearizability and
    // some happen not to — the point is that the checker distinguishes
    // them mechanically. We assert only that *at least one* seed in the
    // sweep produces a violation (losses are real) and that zero-loss
    // controls always pass.
    let n = 3;
    let topo = Topology::complete(n);
    let bounds = DelayBounds::new(ms(1), ms(6)).unwrap();
    let p = params(&topo, bounds);

    let mut any_violation = false;
    for seed in 0..8u64 {
        let workload =
            ClosedLoopWorkload::new(&topo, seed, DelayBounds::new(ms(1), ms(5)).unwrap(), 6);
        let mut engine = engine_with_channels(&topo, &p, workload, |i, j| {
            psync_automata::ComponentBox::new(FaultChannel::<RegMsg, RegisterOp>::new(
                i,
                j,
                bounds,
                SeededDelay::new(seed),
                DropSeeded::new(seed ^ 0xD0D0, 40),
            ))
        });
        let run = engine.run().expect("well-formed");
        let ops = history::extract(&app_trace(&run.execution), n).unwrap();
        if !check_linearizable(&ops, Value::INITIAL).holds() {
            any_violation = true;
        }
    }
    assert!(
        any_violation,
        "40% loss across 8 seeds should break linearizability at least once"
    );
}
