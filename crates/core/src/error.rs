//! Typed errors for every way user input can be wrong.
//!
//! The engine and the scenario layer return [`EngineError`] instead of
//! panicking: misuse of the public API (out-of-range nodes, duplicate
//! migrations, inconsistent configurations) is a recoverable condition
//! for callers — a CLI can print it, a service can reject the request —
//! while internal invariant violations remain `debug_assert`s.

use crate::policy::StrategyKind;
use std::fmt;

/// Everything that can be wrong about a simulation request.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// A node index is outside `0..nodes`.
    NodeOutOfRange {
        /// The offending node index.
        node: u32,
        /// Number of nodes in the cluster.
        nodes: u32,
    },
    /// A migration targets the node the VM already runs on.
    SameHost {
        /// The VM in question.
        vm: u32,
        /// Its (unchanged) host node.
        node: u32,
    },
    /// A second migration was scheduled for a VM that already has one.
    DuplicateMigration {
        /// The VM in question.
        vm: u32,
    },
    /// A VM handle does not belong to this simulation.
    UnknownVm {
        /// The offending VM index.
        vm: u32,
    },
    /// A group deployment with no members.
    EmptyGroup,
    /// A group workload's rank count does not match the group size.
    GroupRankMismatch {
        /// Ranks declared by the workload spec.
        expected: u32,
        /// Members actually deployed.
        got: u32,
    },
    /// A multi-rank (barrier) workload was deployed outside a group.
    GroupWorkloadOutsideGroup {
        /// The workload's label.
        workload: String,
    },
    /// A workload's parameters are unusable (zero block size,
    /// non-rectangular CM1 grid, Zipf exponent out of range, ...).
    InvalidWorkload {
        /// The workload's label.
        workload: String,
        /// Human-readable reason.
        reason: String,
    },
    /// The workload writes beyond the configured disk image.
    WorkloadExceedsImage {
        /// The workload's label.
        workload: String,
        /// Bytes of virtual disk the workload may touch.
        needs: u64,
        /// Configured image size.
        image: u64,
    },
    /// The storage strategy cannot run under post-copy memory migration
    /// (pre-copy-style block streams have no pull path, so the disk must
    /// converge *before* control moves — but post-copy hands control
    /// over immediately).
    IncompatibleMemoryStrategy {
        /// The rejected storage strategy.
        strategy: StrategyKind,
    },
    /// A cluster configuration field is unusable (zero capacity,
    /// non-finite bandwidth, chunk size not dividing the image, ...).
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A scenario-level description is inconsistent (e.g. a grouped
    /// scenario overriding per-VM knobs that groups cannot honor).
    InvalidScenario {
        /// Human-readable reason.
        reason: String,
    },
    /// A strategy name did not parse.
    UnknownStrategy {
        /// The unrecognized name.
        name: String,
    },
    /// A timestamp is negative, NaN or infinite, or an engine scheduling
    /// call names an instant before the engine clock
    /// ([`crate::engine::Engine::now`]), where the event would fire in
    /// the past. The clock itself is a legal instant.
    InvalidTime {
        /// What the timestamp was for.
        what: String,
        /// The offending value, seconds.
        value: f64,
    },
    /// A fault-plan entry is unusable (out-of-range node or VM, a link
    /// factor outside `(0, 1]`, a non-positive stall duration, ...).
    InvalidFault {
        /// Human-readable reason.
        reason: String,
    },
    /// An orchestration request is unusable (evacuating a node outside
    /// the cluster, rebalancing an unknown group, an unusable
    /// orchestrator, autonomic, resilience or QoS section, ...).
    InvalidRequest {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range (cluster has {nodes} nodes)")
            }
            EngineError::SameHost { vm, node } => {
                write!(f, "migration of VM {vm} targets its current host {node}")
            }
            EngineError::DuplicateMigration { vm } => {
                write!(f, "VM {vm} already has a scheduled migration")
            }
            EngineError::UnknownVm { vm } => write!(f, "unknown VM {vm}"),
            EngineError::EmptyGroup => write!(f, "group deployment with no members"),
            EngineError::GroupRankMismatch { expected, got } => write!(
                f,
                "group workload declares {expected} ranks but {got} were deployed"
            ),
            EngineError::GroupWorkloadOutsideGroup { workload } => write!(
                f,
                "{workload} is a multi-rank workload; deploy it with a group, not add_vm"
            ),
            EngineError::InvalidWorkload { workload, reason } => {
                write!(f, "invalid {workload} workload: {reason}")
            }
            EngineError::WorkloadExceedsImage {
                workload,
                needs,
                image,
            } => write!(
                f,
                "{workload} touches {needs} bytes of virtual disk but the image is {image} bytes"
            ),
            EngineError::IncompatibleMemoryStrategy { strategy } => write!(
                f,
                "{} storage transfer requires pre-copy memory migration",
                strategy.label()
            ),
            EngineError::InvalidConfig { reason } => {
                write!(f, "invalid cluster configuration: {reason}")
            }
            EngineError::InvalidScenario { reason } => {
                write!(f, "invalid scenario: {reason}")
            }
            EngineError::UnknownStrategy { name } => {
                write!(
                    f,
                    "unknown strategy `{name}` (expected one of: {})",
                    StrategyKind::ALL
                        .iter()
                        .map(|s| s.label())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
            EngineError::InvalidTime { what, value } => {
                write!(f, "invalid {what} timestamp: {value}")
            }
            EngineError::InvalidFault { reason } => {
                write!(f, "invalid fault: {reason}")
            }
            EngineError::InvalidRequest { reason } => {
                write!(f, "invalid orchestration request: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EngineError::NodeOutOfRange { node: 9, nodes: 4 };
        assert!(e.to_string().contains("node 9"));
        assert!(e.to_string().contains("4 nodes"));
        let e = EngineError::UnknownStrategy {
            name: "bogus".into(),
        };
        assert!(e.to_string().contains("our-approach"));
    }
}
