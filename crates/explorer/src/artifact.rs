//! Self-contained replay artifacts.
//!
//! A failing case is dumped as a JSON document carrying everything a
//! fresh process needs to re-execute it bit-identically: the scenario
//! config, the (shrunk) fault plan, the case seed, and the violation the
//! oracles reported. [`replay_artifact`] rebuilds the engine from those
//! three inputs and re-runs it — determinism of the whole stack (seeded
//! schedulers, seeded delay policies, scripted clocks) is what makes the
//! replay reproduce the identical recorded execution. The tests check
//! that by [`Execution`](psync_automata::Execution) equality and
//! [`fingerprint`](crate::fingerprint); a [`CaseOutcome`] carries no hash.

use crate::json::{self, Json};
use crate::plan::FaultPlan;
use crate::scenario::{run_case, CaseOutcome, ScenarioConfig};

/// Current artifact format version.
pub const ARTIFACT_VERSION: u32 = 1;

/// A self-contained failure reproduction: config + plan + seed +
/// the violation originally observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Format version (see [`ARTIFACT_VERSION`]).
    pub version: u32,
    /// Scenario the case ran against.
    pub config: ScenarioConfig,
    /// Case seed (drives delays, workload think times, scheduler ties).
    pub seed: u64,
    /// The (typically shrunk) fault plan.
    pub plan: FaultPlan,
    /// `(oracle, violation)` recorded when the case first failed.
    pub violation: Option<(String, String)>,
}

impl Artifact {
    /// Serializes to the pretty-printed artifact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let violation = match &self.violation {
            None => Json::Null,
            Some((oracle, detail)) => Json::obj([
                ("oracle", Json::str(oracle.clone())),
                ("detail", Json::str(detail.clone())),
            ]),
        };
        Json::obj([
            ("version", Json::num(self.version)),
            ("scenario", self.config.to_json()),
            ("seed", Json::num(self.seed)),
            ("plan", self.plan.to_json()),
            ("violation", violation),
        ])
        .pretty()
    }

    /// Parses an artifact back from JSON.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing field, or an unsupported version.
    pub fn from_json(text: &str) -> Result<Artifact, String> {
        let v = json::parse(text)?;
        let version = v
            .get("version")
            .and_then(Json::as_u32)
            .ok_or("artifact missing version")?;
        if version != ARTIFACT_VERSION {
            return Err(format!(
                "unsupported artifact version {version} (this build reads {ARTIFACT_VERSION})"
            ));
        }
        let config =
            ScenarioConfig::from_json(v.get("scenario").ok_or("artifact missing scenario")?)?;
        let seed = v
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("artifact missing seed")?;
        let plan = FaultPlan::from_json(v.get("plan").ok_or("artifact missing plan")?)?;
        let violation = match v.get("violation") {
            None | Some(Json::Null) => None,
            Some(obj) => Some((
                obj.get("oracle")
                    .and_then(Json::as_str)
                    .ok_or("violation missing oracle")?
                    .to_string(),
                obj.get("detail")
                    .and_then(Json::as_str)
                    .ok_or("violation missing detail")?
                    .to_string(),
            )),
        };
        Ok(Artifact {
            version,
            config,
            seed,
            plan,
            violation,
        })
    }
}

/// Re-executes an artifact's case from scratch and returns the judged
/// outcome. Deterministic: replaying the same artifact twice runs the
/// identical execution and yields identical [`CaseOutcome`]s.
///
/// # Errors
///
/// Returns an error if the config is out of range for its scenario
/// ([`ScenarioConfig::validate`]) or the plan is inadmissible for the
/// artifact's own scenario envelope — a malformed artifact either way,
/// since the explorer only dumps catalog configs and validated plans.
pub fn replay_artifact(artifact: &Artifact) -> Result<CaseOutcome, String> {
    let Artifact {
        config, plan, seed, ..
    } = artifact;
    config.validate()?;
    plan.validate(&config.envelope())
        .map_err(|e| format!("artifact plan is inadmissible: {e}"))?;
    Ok(run_case(config, plan, *seed, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultEntry;

    #[test]
    fn artifact_json_round_trips() {
        let artifact = Artifact {
            version: ARTIFACT_VERSION,
            config: ScenarioConfig::heartbeat_default(),
            seed: 0xC1A5_51C0,
            plan: FaultPlan {
                entries: vec![
                    FaultEntry::Drop {
                        src: 0,
                        dst: 1,
                        seq: 3,
                    },
                    FaultEntry::DelaySpike {
                        src: 0,
                        dst: 1,
                        seq: 5,
                        delay_ns: 4_000_000,
                    },
                ],
            },
            violation: Some(("delivery envelope".to_string(), "late".to_string())),
        };
        let text = artifact.to_json();
        assert_eq!(Artifact::from_json(&text).unwrap(), artifact);
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let artifact = Artifact {
            version: ARTIFACT_VERSION,
            config: ScenarioConfig::clockfleet_default(),
            seed: 1,
            plan: FaultPlan::empty(),
            violation: None,
        };
        let text = artifact
            .to_json()
            .replace("\"version\": 1", "\"version\": 99");
        assert!(Artifact::from_json(&text).is_err());
    }
}
