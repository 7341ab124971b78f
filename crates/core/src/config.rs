//! Cluster and migration configuration.
//!
//! Defaults mirror the paper's Grid'5000 *graphene* testbed (§5.1):
//! 1 GbE NICs measured at 117.5 MB/s with 0.1 ms latency, ≈8 GB/s switch
//! backplane, 55 MB/s local SATA disks, 16 GB node RAM, 4 GB guests, a
//! 4 GB base image striped in 256 KB chunks, and the QEMU migration speed
//! cap raised to the full NIC.

use crate::autonomic::AutonomicConfig;
use crate::error::EngineError;
use crate::planner::OrchestratorConfig;
use crate::qos::QosConfig;
use crate::resilience::ResilienceConfig;
use lsm_blockdev::CacheConfig;
pub use lsm_hypervisor::MemMigrationConfig;
use lsm_simcore::time::SimDuration;
use lsm_simcore::units::{gb_per_s, mb_per_s, Bandwidth, GIB, KIB, MIB};
use serde::{Deserialize, Serialize};

/// Everything needed to build a cluster and run migrations on it.
///
/// Deserialization fills absent fields from [`ClusterConfig::default`],
/// so a scenario file only has to spell out the knobs it changes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ClusterConfig {
    /// Number of physical nodes.
    pub nodes: u32,
    /// Per-NIC bandwidth (full duplex), bytes/second.
    pub nic_bw: Bandwidth,
    /// Switch aggregate capacity, bytes/second.
    pub switch_bw: Bandwidth,
    /// One-way network latency.
    pub net_latency: SimDuration,
    /// Local disk bandwidth, bytes/second.
    pub disk_bw: Bandwidth,
    /// Guest page-cache read bandwidth (the paper's measured 1 GB/s IOR
    /// read maximum).
    pub cache_read_bw: Bandwidth,
    /// Guest page-cache buffered-write bandwidth (the measured 266 MB/s
    /// IOR write maximum).
    pub cache_write_bw: Bandwidth,
    /// Guest RAM per VM.
    pub vm_ram: u64,
    /// Base disk image size.
    pub image_size: u64,
    /// Chunk / stripe size (256 KB in the paper).
    pub chunk_size: u64,
    /// Repository replication factor.
    pub repo_replication: usize,
    /// Memory migration tunables.
    pub mem: MemMigrationConfig,
    /// Migrate memory with post-copy instead of pre-copy (the paper's §6
    /// future work; the storage scheme must behave identically — that is
    /// the "memory-migration independence" claim this ablation tests).
    pub postcopy_memory: bool,
    /// Compute slowdown factor while post-copy memory is still faulting
    /// pages from the source (1.0 = no slowdown).
    pub postcopy_fault_slowdown: f64,
    /// The paper's `Threshold`: a chunk written this many times since
    /// migration start is withheld from the active push.
    pub threshold: u32,
    /// Chunks read+sent per push/pull batch (pipeline granularity).
    pub transfer_batch: u32,
    /// Concurrent batches in the push/prefetch streams.
    pub transfer_window: u32,
    /// Fraction of compute stolen from the guest while its node is source
    /// or destination of an active migration (migration thread, dirty-page
    /// write faults, FUSE bookkeeping).
    pub migration_cpu_steal: f64,
    /// Fraction of buffered disk-write bytes that dirty guest memory
    /// (page-cache pages the memory migration must re-send).
    pub io_mem_dirty_factor: f64,
    /// Maximum concurrent background write-back disk requests per node.
    pub writeback_depth: u32,
    /// Dirty page-cache expiry: dirty chunks older than this are flushed
    /// even below the background threshold (Linux `dirty_expire`-style
    /// kupdate behaviour). This is what makes repeatedly-overwritten hot
    /// chunks visible to the migration manager.
    pub dirty_expire_secs: f64,
    /// Whether the destination prefetch is ordered by write count
    /// (the paper's prioritization; disable for the priority ablation).
    pub prefetch_priority: bool,
    /// Forced-convergence cap on engine-driven "linger" rounds while a
    /// block/bulk stream holds back the stop-and-copy (precopy/mirror).
    pub linger_round_cap: u32,
    /// PVFS stripe size for the `pvfs-shared` baseline.
    pub pvfs_stripe: u64,
    /// PVFS per-read overhead (metadata + request handling).
    pub pvfs_op_overhead: SimDuration,
    /// PVFS per-write overhead (synchronous qcow2-on-PVFS metadata).
    pub pvfs_write_overhead: SimDuration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 8,
            nic_bw: mb_per_s(117.5),
            // The paper quotes ≈8 GB/s nominal for its Cisco Catalyst;
            // the *effective* backplane that reproduces the concurrent-
            // migration contention of §5.4 is ≈2 GB/s (nominal switch
            // figures count full-duplex port sums).
            switch_bw: gb_per_s(2.0),
            net_latency: SimDuration::from_micros(100),
            disk_bw: mb_per_s(55.0),
            cache_read_bw: gb_per_s(1.0),
            cache_write_bw: mb_per_s(266.0),
            vm_ram: 4 * GIB,
            image_size: 4 * GIB,
            chunk_size: 256 * KIB,
            repo_replication: 2,
            mem: MemMigrationConfig::default(),
            postcopy_memory: false,
            postcopy_fault_slowdown: 0.6,
            threshold: 3,
            transfer_batch: 4,
            transfer_window: 2,
            migration_cpu_steal: 0.08,
            io_mem_dirty_factor: 0.35,
            writeback_depth: 2,
            dirty_expire_secs: 10.0,
            prefetch_priority: true,
            linger_round_cap: 10_000,
            pvfs_stripe: 64 * KIB,
            pvfs_op_overhead: SimDuration::from_millis(2),
            pvfs_write_overhead: SimDuration::from_millis(16),
        }
    }
}

impl ClusterConfig {
    /// Grid'5000 graphene parameters with `n` nodes.
    pub fn graphene(n: u32) -> Self {
        ClusterConfig {
            nodes: n,
            ..Default::default()
        }
    }

    /// Number of chunks in the base image.
    pub fn nchunks(&self) -> u32 {
        (self.image_size / self.chunk_size) as u32
    }

    /// QEMU-style migration speed cap: the paper raises it to the full
    /// NIC, so the cap equals `nic_bw` unless `mem.speed_cap` overrides.
    pub fn migration_speed_cap(&self) -> f64 {
        self.mem.speed_cap.unwrap_or(self.nic_bw)
    }

    /// Check every field for usability. [`crate::engine::Engine::new`]
    /// calls this, so a bad configuration surfaces as
    /// [`EngineError::InvalidConfig`] instead of a panic (or a hang)
    /// deep inside a run.
    pub fn validate(&self) -> Result<(), EngineError> {
        fn fail(reason: impl Into<String>) -> Result<(), EngineError> {
            Err(EngineError::InvalidConfig {
                reason: reason.into(),
            })
        }
        if self.nodes == 0 {
            return fail("cluster has zero nodes");
        }
        for (name, bw) in [
            ("nic_bw", self.nic_bw),
            ("switch_bw", self.switch_bw),
            ("disk_bw", self.disk_bw),
            ("cache_read_bw", self.cache_read_bw),
            ("cache_write_bw", self.cache_write_bw),
        ] {
            if !(bw.is_finite() && bw > 0.0) {
                return fail(format!("{name} must be positive and finite, got {bw}"));
            }
        }
        if self.chunk_size == 0 {
            return fail("chunk_size is zero");
        }
        if self.image_size == 0 {
            return fail("image_size is zero");
        }
        if !self.image_size.is_multiple_of(self.chunk_size) {
            return fail(format!(
                "image_size {} is not a multiple of chunk_size {}",
                self.image_size, self.chunk_size
            ));
        }
        if self.image_size / self.chunk_size > u32::MAX as u64 {
            return fail("image has more chunks than a u32 can index");
        }
        if self.vm_ram == 0 {
            return fail("vm_ram is zero");
        }
        let cache = CacheConfig::for_ram(self.vm_ram, self.chunk_size);
        if cache.capacity_bytes < self.chunk_size {
            return fail(format!(
                "the guest page cache of vm_ram {} holds {} bytes, less than one chunk of {}",
                self.vm_ram, cache.capacity_bytes, self.chunk_size
            ));
        }
        if self.transfer_batch == 0 {
            return fail("transfer_batch is zero");
        }
        if self.transfer_window == 0 {
            return fail("transfer_window is zero");
        }
        if self.threshold == 0 {
            return fail("threshold is zero (no chunk would ever be pushable)");
        }
        if self.writeback_depth == 0 {
            return fail("writeback_depth is zero (dirty data could never drain)");
        }
        if !(self.dirty_expire_secs.is_finite() && self.dirty_expire_secs > 0.0) {
            return fail(format!(
                "dirty_expire_secs must be positive and finite, got {}",
                self.dirty_expire_secs
            ));
        }
        if self.repo_replication == 0 || self.repo_replication > self.nodes as usize {
            return fail(format!(
                "repo_replication {} must be in 1..={}",
                self.repo_replication, self.nodes
            ));
        }
        if self.pvfs_stripe == 0 {
            return fail("pvfs_stripe is zero");
        }
        if self.mem.max_rounds == 0 {
            return fail("mem.max_rounds is zero");
        }
        if let Some(cap) = self.mem.speed_cap {
            if !(cap.is_finite() && cap > 0.0) {
                return fail(format!(
                    "mem.speed_cap must be positive and finite, got {cap}"
                ));
            }
        }
        if !(0.0..1.0).contains(&self.migration_cpu_steal) {
            return fail(format!(
                "migration_cpu_steal {} must be in [0, 1)",
                self.migration_cpu_steal
            ));
        }
        if !(0.0..=1.0).contains(&self.io_mem_dirty_factor) {
            return fail(format!(
                "io_mem_dirty_factor {} must be in [0, 1]",
                self.io_mem_dirty_factor
            ));
        }
        if !(self.postcopy_fault_slowdown > 0.0 && self.postcopy_fault_slowdown <= 1.0) {
            return fail(format!(
                "postcopy_fault_slowdown {} must be in (0, 1]",
                self.postcopy_fault_slowdown
            ));
        }
        Ok(())
    }

    /// A downsized configuration for fast unit/integration tests:
    /// a 64 MiB image and a small guest RAM (so write-back and dirty
    /// throttling actually trigger at test-sized workloads), same
    /// relative speeds as the paper's testbed.
    pub fn small_test() -> Self {
        ClusterConfig {
            nodes: 4,
            image_size: 64 * MIB,
            vm_ram: 256 * MIB,
            ..Default::default()
        }
    }
}

/// Everything an [`Engine`](crate::Engine) is built from, given once at
/// [`Engine::new`](crate::Engine::new): the cluster and the four
/// subsystem sections. A bare [`ClusterConfig`] converts into one with
/// every section at its inert default (fixed planner, unlimited cap, no
/// rebalancer, no resilience layer, no QoS shaping).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The cluster.
    pub cluster: ClusterConfig,
    /// Admission cap and the planner that places jobs and chooses their
    /// strategies.
    pub orchestrator: OrchestratorConfig,
    /// The autonomic rebalancer (`None`: off).
    pub autonomic: Option<AutonomicConfig>,
    /// The resilience layer (`None`: off).
    pub resilience: Option<ResilienceConfig>,
    /// Migration QoS shaping (the default shapes nothing).
    pub qos: QosConfig,
}

impl From<ClusterConfig> for EngineConfig {
    fn from(cluster: ClusterConfig) -> Self {
        EngineConfig {
            cluster,
            orchestrator: OrchestratorConfig::default(),
            autonomic: None,
            resilience: None,
            qos: QosConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = ClusterConfig::default();
        assert_eq!(c.nchunks(), 16384);
        assert_eq!(c.chunk_size, 256 * KIB);
        assert!((c.migration_speed_cap() - mb_per_s(117.5)).abs() < 1.0);
        assert_eq!(c.threshold, 3);
    }

    #[test]
    fn small_test_config_is_consistent() {
        let c = ClusterConfig::small_test();
        assert_eq!(c.nchunks(), 256);
        assert!(c.vm_ram >= 256 * MIB);
    }

    /// A chunk larger than the guest page cache (3/4 of `vm_ram`) is an
    /// `InvalidConfig`, not a panic when the first VM is placed.
    #[test]
    fn chunk_larger_than_the_page_cache_is_rejected() {
        let c = ClusterConfig {
            image_size: GIB,
            chunk_size: 256 * MIB,
            ..ClusterConfig::small_test()
        };
        match c.validate() {
            Err(EngineError::InvalidConfig { reason }) => {
                assert!(reason.contains("page cache"), "{reason}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // A chunk that exactly fills the cache still builds.
        let fits = ClusterConfig {
            image_size: 192 * MIB,
            chunk_size: 192 * MIB,
            ..ClusterConfig::small_test()
        };
        assert!(fits.validate().is_ok());
    }

    /// The largest RAM sizes validate without overflowing the page-cache
    /// arithmetic.
    #[test]
    fn huge_vm_ram_validates() {
        for vm_ram in [9_000_000_000_000_000_000, u64::MAX] {
            let c = ClusterConfig {
                vm_ram,
                ..ClusterConfig::small_test()
            };
            assert!(c.validate().is_ok(), "vm_ram {vm_ram}");
        }
    }
}
