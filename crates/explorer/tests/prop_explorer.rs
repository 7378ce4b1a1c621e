//! Property tests for the shrinker, over generator-produced plans and a
//! family of synthetic failure predicates — plus the admissibility
//! boundary sweep: every scenario's envelope accepts its exact boundary
//! values and rejects one tick beyond.
//!
//! The shrinker predicates deliberately know nothing about scenarios —
//! they count entries by a deterministic weight — so those properties
//! hold for *any* deterministic `fails`, which is exactly the contract
//! `shrink_entries` promises: if the input fails, the output is a
//! failing, 1-minimal sub-multiset; if it passes, the output is empty;
//! and shrinking is idempotent.
//!
//! Note: the vendored proptest stub replays deterministically from the
//! test name and performs no shrinking of its own, so it persists no
//! `*.proptest-regressions` files.

use proptest::prelude::*;
use psync_explorer::{
    shrink_entries, FaultEntry, FaultPlan, Inadmissible, ScenarioConfig, ScenarioKind,
};

/// Deterministic weight of an entry (a hash of its debug form).
fn weight(e: &FaultEntry) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for b in format!("{e:?}").bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// A generated, envelope-admissible plan from any catalog scenario:
/// heartbeat-family envelopes give channel faults, clock-only envelopes
/// give clock faults, register/counter envelopes give both.
fn gen_plan(seed: u64, kind_ix: usize) -> FaultPlan {
    let kinds = ScenarioKind::all();
    let env = ScenarioConfig::default_for(kinds[kind_ix % kinds.len()]).envelope();
    FaultPlan::generate(seed, &env, 8)
}

/// How many entries of `p` the predicate family counts as "bad".
fn bad(p: &FaultPlan, k: u64) -> u64 {
    p.entries
        .iter()
        .filter(|e| weight(e).is_multiple_of(k))
        .count() as u64
}

fn one_entry(entry: FaultEntry) -> FaultPlan {
    FaultPlan {
        entries: vec![entry],
    }
}

/// Satellite check for the scenario catalog: in *every* scenario, each
/// fault family the envelope models accepts its exact boundary value and
/// rejects the value one tick beyond — skew at `±ε` vs `±(ε+1)`, delays
/// at `d₁`/`d₂` vs one nanosecond outside, drop counts at the budget vs
/// one over. Inadmissible plans are refused before execution, so an
/// illegal adversary is never confused with an algorithm bug.
#[test]
fn every_scenario_envelope_rejects_one_tick_beyond_plans() {
    for kind in ScenarioKind::all() {
        let env = ScenarioConfig::default_for(kind).envelope();
        assert!(
            env.allow_clock || !env.edges.is_empty(),
            "[{kind:?}] envelope models no fault family at all"
        );

        if env.allow_clock {
            let at_ns = env.horizon_ns / 2;
            for sign in [1, -1] {
                let skew = |offset_ns| {
                    one_entry(FaultEntry::ClockSkew {
                        node: 0,
                        at_ns,
                        offset_ns,
                    })
                };
                skew(sign * env.eps_ns)
                    .validate(&env)
                    .unwrap_or_else(|e| panic!("[{kind:?}] |offset| = eps refused: {e:?}"));
                match skew(sign * (env.eps_ns + 1)).validate(&env) {
                    Err(Inadmissible::SkewBeyondEps { eps_ns, .. }) => {
                        assert_eq!(eps_ns, env.eps_ns, "[{kind:?}]");
                    }
                    other => panic!("[{kind:?}] eps+1 skew accepted: {other:?}"),
                }
            }
        }

        if let Some(&(src, dst)) = env.edges.first() {
            if env.allow_spike {
                let spike = |delay_ns| {
                    one_entry(FaultEntry::DelaySpike {
                        src,
                        dst,
                        seq: 0,
                        delay_ns,
                    })
                };
                for delay in [env.d1_ns, env.d2_ns] {
                    spike(delay)
                        .validate(&env)
                        .unwrap_or_else(|e| panic!("[{kind:?}] boundary delay refused: {e:?}"));
                }
                for delay in [env.d1_ns - 1, env.d2_ns + 1] {
                    assert!(
                        matches!(
                            spike(delay).validate(&env),
                            Err(Inadmissible::DelayOutOfBounds { .. })
                        ),
                        "[{kind:?}] out-of-bounds spike {delay} accepted"
                    );
                }
            }
            if env.allow_dup {
                let dup = |delay_ns| {
                    one_entry(FaultEntry::Duplicate {
                        src,
                        dst,
                        seq: 0,
                        delay_ns,
                    })
                };
                dup(env.d2_ns)
                    .validate(&env)
                    .unwrap_or_else(|e| panic!("[{kind:?}] boundary duplicate refused: {e:?}"));
                assert!(
                    matches!(
                        dup(env.d2_ns + 1).validate(&env),
                        Err(Inadmissible::DelayOutOfBounds { .. })
                    ),
                    "[{kind:?}] d2+1 duplicate accepted"
                );
            }
            if env.allow_drop {
                assert!(
                    env.max_seq >= env.max_drops,
                    "[{kind:?}] not enough distinct seqs to exhaust the drop budget"
                );
                let drops = |count: u32| FaultPlan {
                    entries: (0..count)
                        .map(|seq| FaultEntry::Drop { src, dst, seq })
                        .collect(),
                };
                drops(env.max_drops)
                    .validate(&env)
                    .unwrap_or_else(|e| panic!("[{kind:?}] in-budget drops refused: {e:?}"));
                assert!(
                    matches!(
                        drops(env.max_drops + 1).validate(&env),
                        Err(Inadmissible::TooManyDrops { .. })
                    ),
                    "[{kind:?}] budget+1 drops accepted"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The full shrinker contract in one pass: still-failing, subset,
    /// 1-minimal, idempotent — or empty if the input never failed.
    #[test]
    fn shrinker_contract(seed in 0u64..1_000_000, kind_ix in 0usize..ScenarioKind::all().len(), k in 2u64..6, m in 1u64..4) {
        let plan = gen_plan(seed, kind_ix);
        let mut fails = |p: &FaultPlan| bad(p, k) >= m;
        let shrunk = shrink_entries(&plan, &mut fails);

        if bad(&plan, k) < m {
            // A passing plan has no counterexample to preserve.
            prop_assert!(shrunk.is_empty());
            return Ok(());
        }

        // 1. The shrunk plan still fails.
        prop_assert!(bad(&shrunk, k) >= m);

        // 2. Multiset-subset of the original: nothing is invented.
        for entry in &shrunk.entries {
            let in_shrunk = shrunk.entries.iter().filter(|e| *e == entry).count();
            let in_plan = plan.entries.iter().filter(|e| *e == entry).count();
            prop_assert!(in_shrunk <= in_plan, "entry {entry:?} multiplied");
        }

        // 3. 1-minimal: removing any single entry makes it pass.
        for i in 0..shrunk.len() {
            let mut entries = shrunk.entries.clone();
            entries.remove(i);
            prop_assert!(
                bad(&FaultPlan { entries }, k) < m,
                "entry {i} of the shrunk plan is removable"
            );
        }

        // 4. Idempotent: shrinking a shrunk plan changes nothing.
        let again = shrink_entries(&shrunk, &mut fails);
        prop_assert_eq!(again, shrunk);
    }

    /// Plans that pass shrink to empty even when probing is expensive —
    /// the shrinker must not run ddmin at all on a passing plan.
    #[test]
    fn passing_plans_shrink_to_empty_in_one_probe(seed in 0u64..1_000_000, kind_ix in 0usize..ScenarioKind::all().len()) {
        let plan = gen_plan(seed, kind_ix);
        let mut probes = 0u64;
        let mut fails = |_: &FaultPlan| {
            probes += 1;
            false
        };
        let shrunk = shrink_entries(&plan, &mut fails);
        prop_assert!(shrunk.is_empty());
        prop_assert_eq!(probes, 1);
    }

    /// Generator plans are always admissible in the envelope they were
    /// generated for, whatever the scenario (the explorer never runs an
    /// illegal adversary).
    #[test]
    fn generated_plans_are_admissible(seed in 0u64..1_000_000, kind_ix in 0usize..ScenarioKind::all().len()) {
        let kinds = ScenarioKind::all();
        let env = ScenarioConfig::default_for(kinds[kind_ix % kinds.len()]).envelope();
        let plan = FaultPlan::generate(seed, &env, 8);
        prop_assert!(plan.validate(&env).is_ok(), "{:?}", plan.validate(&env));
    }
}
