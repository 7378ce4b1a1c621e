//! `judge_posthoc`: executions recorded once in set-up, then judged again
//! and again with the engine idle — every judging path the repo has, on
//! the same executions, each in its own span.

use psync_automata::relations::eps_equivalent;
use psync_automata::Execution;
use psync_core::{app_trace, check_sim1, node_classes, sim1_witness};
use psync_executor::StopReason;
use psync_explorer::{register_oracles, ScenarioConfig};
use psync_obs::{check_all_sharded, StreamingEps};
use psync_register::{RegAction, RegMsg, RegisterOp, Value};
use psync_verify::{LinearizableRegister, Oracle};

use crate::common::{iterate, sub_seed, Outcome, RunArgs};
use crate::dc::{judge, DcConfig, ExactCounts};
use crate::spans::Tracer;

/// The workload: which system is recorded, and how many executions of it.
#[derive(Debug, Clone, Copy)]
pub struct PosthocWorkload {
    /// The recorded system.
    pub cfg: DcConfig,
    /// Executions recorded in set-up; every iteration judges each once.
    pub executions: usize,
}

const STREAM: u64 = 3;

/// The explorer's register oracle set for this system, so
/// `check_all_sharded` judges what a campaign case judges. Its replay
/// oracle rebuilds the closed-loop workload with the explorer's own think
/// bounds, `[1,6]` ms like [`DcConfig`]'s: were they to part, the replay
/// would refuse and every operation here would count as failed.
fn oracle_set(cfg: &DcConfig, seed: u64) -> Vec<Box<dyn Oracle<RegAction>>> {
    let scenario = ScenarioConfig {
        nodes: u32::try_from(cfg.n).expect("node counts are small"),
        ops_per_node: cfg.ops_per_node,
        eps_ns: cfg.eps().as_nanos(),
        ..ScenarioConfig::register_default()
    };
    register_oracles(&scenario, seed)
}

/// Host seconds per judging path, summed over iterations.
#[derive(Default)]
struct JudgeSeconds {
    check_sim1: f64,
    eps_offline: f64,
    stream_eps: f64,
    check_all_sharded: f64,
    history_extract: f64,
    linearizable: f64,
    ceps_oracle: f64,
    replay: f64,
}

/// Runs the workload for `args.seconds`. One iteration judges every
/// recorded execution once: the exact checkers' cost varies several-fold
/// from one history to the next, so only the sum over all of them is a
/// steady figure.
///
/// # Panics
///
/// Panics if set-up cannot record an execution: there is then nothing to
/// judge.
#[must_use]
pub fn run(workload: &PosthocWorkload, args: &RunArgs, tracer: &Tracer) -> Outcome {
    let cfg = workload.cfg;
    let mut out = Outcome::new();
    let mut exact = ExactCounts::default();

    let recorded: Vec<(u64, Execution<RegAction>, StopReason)> = (0..workload.executions)
        .map(|i| {
            let seed = sub_seed(args.seed, STREAM, i as u64);
            let ((run, hub), secs) = tracer.span("setup", || {
                let (mut engine, hub) = cfg.build_plain(seed);
                let run = engine.run().expect("recording a D_C execution");
                (run, hub)
            });
            out.setup_s.push(secs);
            exact.absorb(&ExactCounts::of(&run.execution, &hub));
            (seed, run.execution, run.stop)
        })
        .collect();
    let events: usize = recorded.iter().map(|(_, exec, _)| exec.len()).sum();

    let classes = node_classes::<RegMsg, RegisterOp>(|op| Some(op.node()));
    let problem = LinearizableRegister::new(cfg.n, Value::INITIAL);
    let mut secs = JudgeSeconds::default();

    out.iterations = iterate(1, args.seconds, |_, _| {
        let ((), pass_s) = tracer.span("pass", || {
            for (seed, exec, stop) in &recorded {
                tracer.span("run", || {
                    let judgement = judge(&cfg, *seed, exec, *stop, tracer);
                    let mut violations = judgement.violations.clone();

                    let (sim1, s) = tracer.span("judge.check_sim1", || {
                        check_sim1(exec, &problem, cfg.eps(), &classes)
                            .map_err(|e| format!("{e:?}"))
                    });
                    secs.check_sim1 += s;
                    if let Err(why) = sim1 {
                        violations.push(("check_sim1".into(), why));
                    }

                    // The offline matcher and the streaming monitor on one
                    // witness: the pair ROADMAP item 4 wants a winner from.
                    // Building the witness belongs to neither.
                    let ((witness, trace), _) =
                        tracer.span("judge.witness", || (sim1_witness(exec), app_trace(exec)));
                    let (offline, s) = tracer.span("judge.eps_offline", || {
                        eps_equivalent(&witness, &trace, cfg.eps(), &classes)
                            .map_err(|e| format!("{e:?}"))
                    });
                    secs.eps_offline += s;
                    let (streamed, s) = tracer.span("judge.stream_eps", || {
                        let mut monitor = StreamingEps::new(&witness, cfg.eps(), &classes);
                        for (action, time) in trace.iter() {
                            monitor.observe(action, time);
                        }
                        monitor.finish().map_err(|e| format!("{e:?}"))
                    });
                    secs.stream_eps += s;
                    match (&offline, &streamed) {
                        (Ok(a), Ok(b)) if a == b => {}
                        (Err(why), Err(_)) => {
                            violations.push(("eps_equivalent".into(), why.clone()));
                        }
                        _ => {
                            out.correct = false;
                            violations.push((
                                "eps judges".into(),
                                format!("offline {offline:?} but streaming {streamed:?}"),
                            ));
                        }
                    }

                    let ((sharded, _), s) = tracer.span("judge.check_all_sharded", || {
                        check_all_sharded(&oracle_set(&cfg, *seed), exec, 1)
                    });
                    secs.check_all_sharded += s;
                    violations.extend(sharded);

                    secs.history_extract += judgement.history_extract_s;
                    secs.linearizable += judgement.linearizable_s;
                    secs.ceps_oracle += judgement.ceps_oracle_s;
                    secs.replay += judgement.replay_s;
                    out.attempted += cfg.ops();
                    if violations.is_empty() {
                        out.failed += cfg.ops() - judgement.ops_completed;
                    } else {
                        out.failed += cfg.ops();
                        for (oracle, why) in &violations {
                            out.notes.push(format!("seed {seed:#x}: {oracle}: {why}"));
                        }
                    }
                });
            }
        });
        out.events_per_s.push(events as f64 / pass_s);
    });

    out.exact("executor.events", exact.events);
    out.exact("executor.advances", exact.advances);
    out.exact("register.ops", exact.ops);
    out.exact("core.msgs", exact.msgs);
    out.exact("core.msgs_held", exact.msgs_held);
    out.exact("net.msgs_delivered", exact.msgs_delivered);
    out.exact
        .push(("fingerprint".to_string(), exact.fingerprint));

    if tracer.enabled() {
        let per_pass = 1.0 / out.iterations as f64;
        out.set("core.check_sim1_s", secs.check_sim1 * per_pass);
        out.set("automata.eps_offline_s", secs.eps_offline * per_pass);
        out.set("obs.stream_eps_s", secs.stream_eps * per_pass);
        out.set("obs.check_all_sharded_s", secs.check_all_sharded * per_pass);
        out.set("obs.ceps_oracle_s", secs.ceps_oracle * per_pass);
        out.set("verify.history_extract_s", secs.history_extract * per_pass);
        out.set("verify.linearizable_s", secs.linearizable * per_pass);
        out.set("verify.replay_s", secs.replay * per_pass);
    }
    out
}
