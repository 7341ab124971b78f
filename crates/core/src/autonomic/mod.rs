//! The autonomic rebalancer: closed-loop cluster management.
//!
//! Everything else in the orchestration layer *reacts* to requests a
//! scenario scheduled up front. This module is the layer that
//! *originates* them: a periodic monitor (`Ev::RebalanceTick` in the
//! engine) scans per-node I/O pressure, classifies nodes against
//! overload/underload thresholds **with hysteresis**, and submits
//! migrations on its own — relieving hot nodes, draining underloaded
//! ones, and timing each move to the guest's workload cycle (Baruchi
//! et al.): a candidate whose windowed dirty/re-write rate marks a hot
//! phase is *deferred* until it cools or a deadline forces the move.
//!
//! This file holds the pure, engine-free pieces: the configuration
//! ([`AutonomicConfig`], the `[autonomic]` scenario section), the
//! hysteresis classifier ([`NodeClass`], [`classify`]), and the typed
//! action records ([`RebalanceAction`]) the report exposes. The
//! mutating tick handler lives in the engine (`engine/rebalance.rs`),
//! which alone may touch engine state.

use lsm_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

/// Tuning for the autonomic rebalancer (the `[autonomic]` scenario
/// section). Deserialization fills absent fields from
/// [`AutonomicConfig::default`], like the other config sections; its
/// mere *presence* enables the monitor loop.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct AutonomicConfig {
    /// Monitor period, seconds: how often node pressure is scanned and
    /// classified.
    pub interval_secs: f64,
    /// A node whose I/O pressure (summed windowed busy fraction of its
    /// attributed VMs) reaches this value classifies as overloaded.
    pub overload_pressure: f64,
    /// A node carrying at least one VM whose pressure is at or below
    /// this value classifies as underloaded (a drain candidate).
    pub underload_pressure: f64,
    /// Hysteresis band: an overloaded node only declassifies below
    /// `overload_pressure - hysteresis`, an underloaded one only above
    /// `underload_pressure + hysteresis`. Prevents threshold chatter
    /// from re-classifying a node every tick.
    pub hysteresis: f64,
    /// A hot-phase VM (windowed dirty or re-write rate at or above 2 %
    /// of the NIC bandwidth) deferred for longer than this is migrated
    /// anyway (the workload may never cool; the overload still needs
    /// relief).
    pub defer_deadline_secs: f64,
    /// A VM the rebalancer moved is not moved again for this long
    /// (no-ping-pong guard; `lsm-check` enforces it as a law).
    pub cooldown_secs: f64,
}

impl Default for AutonomicConfig {
    fn default() -> Self {
        AutonomicConfig {
            interval_secs: 5.0,
            overload_pressure: 0.6,
            underload_pressure: 0.1,
            hysteresis: 0.1,
            defer_deadline_secs: 60.0,
            cooldown_secs: 120.0,
        }
    }
}

impl AutonomicConfig {
    /// Check every field for usability (the autonomic analogue of
    /// [`crate::planner::OrchestratorConfig::validate`]).
    pub fn validate(&self) -> Result<(), crate::error::EngineError> {
        let fail = |reason: String| Err(crate::error::EngineError::InvalidRequest { reason });
        for (name, x) in [
            ("interval_secs", self.interval_secs),
            ("defer_deadline_secs", self.defer_deadline_secs),
            ("cooldown_secs", self.cooldown_secs),
            ("overload_pressure", self.overload_pressure),
        ] {
            if !(x.is_finite() && x > 0.0) {
                return fail(format!("{name} must be positive and finite, got {x}"));
            }
        }
        for (name, x) in [
            ("underload_pressure", self.underload_pressure),
            ("hysteresis", self.hysteresis),
        ] {
            if !(x.is_finite() && x >= 0.0) {
                return fail(format!("{name} must be non-negative and finite, got {x}"));
            }
        }
        if self.underload_pressure >= self.overload_pressure {
            return fail(format!(
                "underload_pressure {} must lie below overload_pressure {}",
                self.underload_pressure, self.overload_pressure
            ));
        }
        if self.underload_pressure + self.hysteresis >= self.overload_pressure {
            return fail(format!(
                "hysteresis {} overlaps the bands: underload {} + hysteresis reaches \
                 overload {}",
                self.hysteresis, self.underload_pressure, self.overload_pressure
            ));
        }
        Ok(())
    }
}

/// Hysteresis classification of one node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum NodeClass {
    /// Inside the bands: neither relief nor drain target.
    Neutral,
    /// Pressure reached [`AutonomicConfig::overload_pressure`]; stays
    /// classified until it falls below `overload - hysteresis`.
    Overloaded,
    /// Pressure fell to [`AutonomicConfig::underload_pressure`]; stays
    /// classified until it rises above `underload + hysteresis`.
    Underloaded,
}

/// Classify one node's pressure against the thresholds, given its
/// previous class (the hysteresis memory). Pure — unit-testable without
/// an engine, and the `lsm-check` threshold law re-runs it.
pub fn classify(pressure: f64, prev: NodeClass, cfg: &AutonomicConfig) -> NodeClass {
    match prev {
        NodeClass::Overloaded => {
            if pressure < cfg.overload_pressure - cfg.hysteresis {
                classify(pressure, NodeClass::Neutral, cfg)
            } else {
                NodeClass::Overloaded
            }
        }
        NodeClass::Underloaded => {
            if pressure > cfg.underload_pressure + cfg.hysteresis {
                classify(pressure, NodeClass::Neutral, cfg)
            } else {
                NodeClass::Underloaded
            }
        }
        NodeClass::Neutral => {
            if pressure >= cfg.overload_pressure {
                NodeClass::Overloaded
            } else if pressure <= cfg.underload_pressure {
                NodeClass::Underloaded
            } else {
                NodeClass::Neutral
            }
        }
    }
}

/// What tripped one rebalance action.
#[derive(Clone, Copy, PartialEq, Debug, Serialize)]
pub enum RebalanceTrigger {
    /// A node classified overloaded: relieve it by migrating its
    /// hottest movable VM away.
    Overload {
        /// The overloaded node.
        node: u32,
        /// Its pressure at the tick instant.
        pressure: f64,
    },
    /// A node classified underloaded while still hosting guests: drain
    /// it by consolidating its coolest VM onto a busier node.
    Underload {
        /// The underloaded node.
        node: u32,
        /// Its pressure at the tick instant.
        pressure: f64,
    },
    /// An in-flight job was re-planned (see [`ReplanReason`]).
    Replan {
        /// The re-planned job.
        job: u32,
        /// Why it was re-planned.
        reason: ReplanReason,
    },
}

/// Why an in-flight job was re-planned instead of failed or left alone.
#[derive(Clone, Copy, PartialEq, Debug, Serialize)]
pub enum ReplanReason {
    /// The destination crashed before control transfer: instead of
    /// failing with `DestinationCrashed`, the job re-enters the ready
    /// queue for re-placement.
    DestinationCrashed {
        /// The crashed node.
        node: u32,
    },
    /// The destination classified overloaded while the job was still in
    /// its active (pre-control) phase: it is re-pointed at a healthier
    /// target.
    DestinationDegraded {
        /// The degraded destination.
        node: u32,
        /// Its pressure at the tick instant.
        pressure: f64,
    },
}

/// Why a candidate VM was passed over in one action.
#[derive(Clone, Copy, PartialEq, Debug, Serialize)]
pub enum DeferralReason {
    /// The VM is in a hot workload phase (windowed dirty/re-write rate
    /// at or above 2 % of the NIC bandwidth): moving it now maximizes
    /// re-transfer, so the move waits for the cycle to cool — until
    /// [`AutonomicConfig::defer_deadline_secs`] forces it.
    HotPhase {
        /// The offending rate, bytes/second.
        rate: f64,
    },
    /// The rebalancer moved this VM less than
    /// [`AutonomicConfig::cooldown_secs`] ago (no-ping-pong guard).
    Cooldown,
    /// The planner found no acceptable destination for this VM.
    NoPlacement,
}

/// One deferred candidate inside a [`RebalanceAction`].
#[derive(Clone, Copy, PartialEq, Debug, Serialize)]
pub struct Deferral {
    /// The passed-over VM.
    pub vm: u32,
    /// Why it was passed over.
    pub reason: DeferralReason,
}

/// One autonomic decision, recorded in tick order and serialized into
/// [`crate::engine::RunReport`] (`lsm run --json` exposes it; `lsm run`
/// prints a digest). An action is recorded whenever a trigger held and
/// the candidate set was non-empty — even when every candidate was
/// deferred, so a deferral-only tick is auditable, not silent.
#[derive(Clone, Debug, Serialize)]
pub struct RebalanceAction {
    /// The tick instant.
    pub at: SimTime,
    /// What tripped the action.
    pub trigger: RebalanceTrigger,
    /// The candidate VMs considered, in evaluation order.
    pub candidates: Vec<u32>,
    /// Candidates passed over, with typed reasons.
    pub deferrals: Vec<Deferral>,
    /// The VM chosen to move (`None`: every candidate deferred).
    pub chosen: Option<u32>,
    /// The migration job the action originated or re-planned.
    pub job: Option<u32>,
    /// The chosen destination node.
    pub dest: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_enters_and_exits_with_hysteresis() {
        let cfg = AutonomicConfig::default(); // over 0.6, under 0.1, hyst 0.1
                                              // Entry at the thresholds.
        assert_eq!(
            classify(0.60, NodeClass::Neutral, &cfg),
            NodeClass::Overloaded
        );
        assert_eq!(classify(0.59, NodeClass::Neutral, &cfg), NodeClass::Neutral);
        assert_eq!(
            classify(0.10, NodeClass::Neutral, &cfg),
            NodeClass::Underloaded
        );
        assert_eq!(classify(0.11, NodeClass::Neutral, &cfg), NodeClass::Neutral);
        // Exit only past the hysteresis band.
        assert_eq!(
            classify(0.55, NodeClass::Overloaded, &cfg),
            NodeClass::Overloaded
        );
        assert_eq!(
            classify(0.49, NodeClass::Overloaded, &cfg),
            NodeClass::Neutral
        );
        assert_eq!(
            classify(0.15, NodeClass::Underloaded, &cfg),
            NodeClass::Underloaded
        );
        assert_eq!(
            classify(0.21, NodeClass::Underloaded, &cfg),
            NodeClass::Neutral
        );
        // A collapse straight through both bands re-classifies in one
        // step (overloaded -> underloaded without a neutral tick).
        assert_eq!(
            classify(0.05, NodeClass::Overloaded, &cfg),
            NodeClass::Underloaded
        );
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = AutonomicConfig::default();
        assert!(ok.validate().is_ok());
        for bad in [
            AutonomicConfig {
                interval_secs: 0.0,
                ..ok.clone()
            },
            AutonomicConfig {
                underload_pressure: 0.7,
                ..ok.clone()
            },
            AutonomicConfig {
                hysteresis: 0.6,
                ..ok.clone()
            },
            AutonomicConfig {
                cooldown_secs: f64::NAN,
                ..ok.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should not validate");
        }
    }

    #[test]
    fn partial_deserialization_fills_defaults_and_rejects_unknown_keys() {
        let v = serde::Value::Map(vec![
            ("interval_secs".to_string(), serde::Value::F64(2.0)),
            ("overload_pressure".to_string(), serde::Value::F64(0.5)),
        ]);
        let cfg = <AutonomicConfig as serde::Deserialize>::from_value(&v).expect("partial");
        assert_eq!(cfg.interval_secs, 2.0);
        assert_eq!(cfg.overload_pressure, 0.5);
        assert_eq!(cfg.cooldown_secs, AutonomicConfig::default().cooldown_secs);
        let bad = serde::Value::Map(vec![("intervall".to_string(), serde::Value::F64(2.0))]);
        let err = <AutonomicConfig as serde::Deserialize>::from_value(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown AutonomicConfig field"));
    }
}
