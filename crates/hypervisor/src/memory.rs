//! Memory footprint and dirtying profiles.

use lsm_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// How a workload occupies and dirties guest memory.
///
/// QEMU's pre-copy skips never-touched (zero) pages, so the first pass
/// moves `touched_bytes`, not the configured RAM. Subsequent rounds re-send
/// pages dirtied while the previous round was in flight; the re-dirtied set
/// is bounded by the writable working set `wss_bytes`.
///
/// The *rate* of dirtying is supplied live by the engine (it depends on the
/// workload phase and on guest page-cache writes); this struct only carries
/// the static bounds plus the base rate of the anonymous-memory churn.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct MemoryProfile {
    /// Configured guest RAM.
    pub ram_bytes: u64,
    /// Non-zero memory transferred by the first pre-copy pass (guest OS +
    /// application + current page cache).
    pub touched_bytes: u64,
    /// Writable working set: upper bound on bytes re-dirtied per round.
    pub wss_bytes: u64,
    /// Baseline anonymous-memory dirty rate while the workload computes
    /// (bytes/second), excluding page-cache dirtying from disk writes.
    pub base_dirty_rate: f64,
}

impl MemoryProfile {
    /// A profile with sanity checks applied.
    pub fn new(ram_bytes: u64, touched_bytes: u64, wss_bytes: u64, base_dirty_rate: f64) -> Self {
        assert!(touched_bytes <= ram_bytes, "touched exceeds RAM");
        assert!(wss_bytes <= touched_bytes, "WSS exceeds touched memory");
        assert!(base_dirty_rate >= 0.0);
        MemoryProfile {
            ram_bytes,
            touched_bytes,
            wss_bytes,
            base_dirty_rate,
        }
    }
}

/// Hypervisor-side migration tunables (QEMU-like defaults).
///
/// Deserialization fills absent fields from the default, so scenario
/// files only spell out the knobs they change.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct MemMigrationConfig {
    /// Target stop-and-copy downtime; a round converges when the remaining
    /// dirty bytes can be flushed within this budget at the observed rate
    /// (QEMU `migrate_set_downtime`, default 30 ms).
    pub downtime_target: SimDuration,
    /// Forced-convergence cap on iterative rounds. QEMU 1.0 would iterate
    /// forever; operators bounded it in practice, and the paper's
    /// experiments all finished — so the model caps rounds and then
    /// throttles the guest for a final round (auto-converge-like).
    pub max_rounds: u32,
    /// Optional cap on migration bandwidth (QEMU `migrate_set_speed`);
    /// the paper sets it to the full 1 GbE NIC (§5.1).
    pub speed_cap: Option<f64>,
}

impl Default for MemMigrationConfig {
    fn default() -> Self {
        MemMigrationConfig {
            downtime_target: SimDuration::from_millis(30),
            max_rounds: 30,
            speed_cap: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_validation() {
        let p = MemoryProfile::new(4 << 30, 1 << 30, 512 << 20, 10.0);
        assert_eq!(p.wss_bytes, 512 << 20);
    }

    #[test]
    #[should_panic(expected = "WSS exceeds")]
    fn wss_bound_enforced() {
        let _ = MemoryProfile::new(4 << 30, 1 << 30, 2 << 30, 0.0);
    }

    #[test]
    fn default_config_is_qemu_like() {
        let c = MemMigrationConfig::default();
        assert_eq!(c.downtime_target, SimDuration::from_millis(30));
        assert!(c.max_rounds >= 10);
        assert!(c.speed_cap.is_none());
    }
}
