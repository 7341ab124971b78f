//! PVFS-like parallel file system model for the `pvfs-shared` baseline.
//!
//! PVFS stripes files over I/O servers in fixed-size stripe units (64 KB by
//! default) and performs client I/O synchronously without a client-side
//! cache. For the paper's baseline, the qcow2 overlay holding all local
//! modifications lives *in* PVFS, so every guest read and write becomes
//! stripe-server traffic — during migration and outside it alike.

use lsm_netsim::NodeId;
use lsm_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Configuration of the PVFS deployment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PvfsConfig {
    /// The I/O server nodes (the paper deploys PVFS over all compute
    /// nodes).
    pub servers: Vec<NodeId>,
    /// Stripe unit in bytes (PVFS default: 64 KB).
    pub stripe_size: u64,
    /// Fixed metadata/request overhead added to every client read
    /// (request processing, qcow2 metadata lookups). Calibrated
    /// against the paper's measured pvfs-shared throughputs.
    pub op_overhead: SimDuration,
    /// Fixed overhead added to every client write. Much larger than the
    /// read overhead: the paper's baseline stores a qcow2 overlay *in*
    /// PVFS, so every write pays synchronous qcow2 metadata updates
    /// (L2 table + refcount) without any client-side caching — which is
    /// how the paper measures <5 % of the local write throughput.
    pub write_overhead: SimDuration,
}

/// One server's share of a striped operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StripeOp {
    /// Server that holds this part of the byte range.
    pub server: NodeId,
    /// Bytes of the operation served by `server`.
    pub bytes: u64,
}

/// The PVFS deployment: striping plans for client I/O.
#[derive(Clone, Debug)]
pub struct PvfsFs {
    cfg: PvfsConfig,
}

impl PvfsFs {
    /// Build the file system model.
    pub fn new(cfg: PvfsConfig) -> Self {
        assert!(!cfg.servers.is_empty());
        assert!(cfg.stripe_size > 0);
        PvfsFs { cfg }
    }

    /// The configuration in force.
    pub fn config(&self) -> &PvfsConfig {
        &self.cfg
    }

    /// Plan a client operation on byte range `[offset, offset+len)`.
    ///
    /// Returns one [`StripeOp`] per server touched, with per-server byte
    /// counts that sum exactly to `len`. Consecutive stripe units map to
    /// consecutive servers (round-robin from the file offset).
    pub fn plan_io(&self, offset: u64, len: u64) -> Vec<StripeOp> {
        assert!(len > 0, "empty PVFS I/O");
        let ss = self.cfg.stripe_size;
        let ns = self.cfg.servers.len() as u64;
        let mut per_server = vec![0u64; ns as usize];
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let unit = pos / ss;
            let within = pos % ss;
            let take = (ss - within).min(end - pos);
            per_server[(unit % ns) as usize] += take;
            pos += take;
        }
        per_server
            .into_iter()
            .enumerate()
            .filter(|&(_, b)| b > 0)
            .map(|(i, bytes)| StripeOp {
                server: self.cfg.servers[i],
                bytes,
            })
            .collect()
    }

    /// Fixed latency charged per client read.
    pub fn op_overhead(&self) -> SimDuration {
        self.cfg.op_overhead
    }

    /// Fixed latency charged per client write.
    pub fn write_overhead(&self) -> SimDuration {
        self.cfg.write_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs(n: u32, stripe: u64) -> PvfsFs {
        PvfsFs::new(PvfsConfig {
            servers: (0..n).map(NodeId).collect(),
            stripe_size: stripe,
            op_overhead: SimDuration::from_millis(1),
            write_overhead: SimDuration::from_millis(8),
        })
    }

    #[test]
    fn single_stripe_hits_one_server() {
        let fs = fs(4, 64 * 1024);
        let plan = fs.plan_io(0, 1000);
        assert_eq!(
            plan,
            vec![StripeOp {
                server: NodeId(0),
                bytes: 1000
            }]
        );
    }

    #[test]
    fn large_io_spreads_evenly() {
        let fs = fs(4, 64 * 1024);
        let plan = fs.plan_io(0, 4 * 64 * 1024);
        assert_eq!(plan.len(), 4);
        for op in &plan {
            assert_eq!(op.bytes, 64 * 1024);
        }
    }

    #[test]
    fn offset_rotates_starting_server() {
        let fs = fs(4, 64 * 1024);
        let plan = fs.plan_io(2 * 64 * 1024, 64 * 1024);
        assert_eq!(
            plan,
            vec![StripeOp {
                server: NodeId(2),
                bytes: 64 * 1024
            }]
        );
    }

    #[test]
    fn unaligned_spanning_io_conserves_bytes() {
        let fs = fs(3, 4096);
        let plan = fs.plan_io(1000, 10_000);
        let total: u64 = plan.iter().map(|o| o.bytes).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn wraps_around_server_ring() {
        let fs = fs(2, 4096);
        let plan = fs.plan_io(0, 4 * 4096);
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(|o| o.bytes == 2 * 4096));
    }

    #[test]
    #[should_panic(expected = "empty PVFS")]
    fn empty_io_rejected() {
        let _ = fs(2, 4096).plan_io(0, 0);
    }
}
