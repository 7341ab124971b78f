//! Cluster topology: node NIC capacities and the shared switch.

use lsm_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Identifier of a physical node (compute host) in the cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a usize (for table indexing).
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Per-node NIC capacities in bytes/second.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NodeCaps {
    /// Transmit (uplink) capacity.
    pub up: f64,
    /// Receive (downlink) capacity.
    pub down: f64,
}

/// A single-switch cluster topology.
///
/// This mirrors the paper's testbed shape: one Gigabit NIC per node, all
/// attached to one switch whose backplane saturates around 8 GB/s when
/// enough disjoint pairs communicate simultaneously (§5.4).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<NodeCaps>,
    /// Aggregate switch capacity shared by *all* flows (bytes/second).
    pub switch_capacity: f64,
    /// One-way propagation + protocol latency for control messages.
    pub latency: SimDuration,
}

impl Topology {
    /// A cluster of `n` identical nodes with symmetric `nic` bytes/second
    /// NICs and the given aggregate switch capacity.
    pub fn symmetric(n: usize, nic: f64, switch_capacity: f64) -> Self {
        assert!(n > 0, "empty topology");
        assert!(nic > 0.0 && switch_capacity > 0.0);
        Topology {
            nodes: vec![NodeCaps { up: nic, down: nic }; n],
            switch_capacity,
            latency: SimDuration::from_micros(100),
        }
    }

    /// Builder: set the control-message latency.
    pub fn with_latency(mut self, latency: SimDuration) -> Self {
        self.latency = latency;
        self
    }

    /// Builder: override a single node's NIC capacities.
    ///
    /// Panics on a capacity [`Self::set_caps`] rejects: a zero NIC would
    /// park its flows at rate 0 forever.
    pub fn with_node_caps(mut self, node: NodeId, caps: NodeCaps) -> Self {
        self.set_caps(node, caps);
        self
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the topology has no nodes (never constructed that way).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// NIC capacities of `node`.
    pub fn caps(&self, node: NodeId) -> NodeCaps {
        self.nodes[node.idx()]
    }

    /// Overwrite a node's NIC capacities at runtime (link degradation /
    /// restoration). [`crate::FlowNet::set_link_factor`] drives this and
    /// keeps its own derived tables in sync; mutating a topology that is
    /// already inside a `FlowNet` by other means would desynchronize the
    /// solver.
    pub fn set_caps(&mut self, node: NodeId, caps: NodeCaps) {
        assert!(
            caps.up > 0.0 && caps.down > 0.0 && caps.up.is_finite() && caps.down.is_finite(),
            "NIC capacities must be positive and finite"
        );
        self.nodes[node.idx()] = caps;
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_simcore::units::mb_per_s;

    #[test]
    fn symmetric_builder() {
        let t = Topology::symmetric(8, mb_per_s(117.5), mb_per_s(8192.0));
        assert_eq!(t.len(), 8);
        assert_eq!(t.caps(NodeId(3)).up, mb_per_s(117.5));
        assert_eq!(t.node_ids().count(), 8);
    }

    #[test]
    fn overrides() {
        let t = Topology::symmetric(2, mb_per_s(100.0), mb_per_s(1000.0)).with_node_caps(
            NodeId(1),
            NodeCaps {
                up: mb_per_s(10.0),
                down: mb_per_s(20.0),
            },
        );
        assert_eq!(t.caps(NodeId(1)).up, mb_per_s(10.0));
        assert_eq!(t.caps(NodeId(0)).up, mb_per_s(100.0));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_node_caps_rejected() {
        let _ = Topology::symmetric(2, 1.0, 1.0)
            .with_node_caps(NodeId(1), NodeCaps { up: 1.0, down: 0.0 });
    }

    #[test]
    #[should_panic(expected = "empty topology")]
    fn zero_nodes_panics() {
        let _ = Topology::symmetric(0, 1.0, 1.0);
    }
}
