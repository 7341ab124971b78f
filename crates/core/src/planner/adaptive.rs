//! The adaptive planner's strategy rule: the paper's §4 decision
//! operationalized over live telemetry.

use super::PlanContext;
use crate::policy::StrategyKind;

/// A windowed write rate at or above this fraction of the NIC selects
/// `Hybrid` (the paper's scheme — built for I/O-intensive writers).
const WRITE_HI_FRAC: f64 = 0.05;
/// Write rates in `[WRITE_LO_FRAC, WRITE_HI_FRAC)` of the NIC select
/// `Mirror` (synchronous mirroring is cheap for light writers).
const WRITE_LO_FRAC: f64 = 0.005;
/// With negligible writes, a windowed read rate at or above this
/// fraction of the NIC selects `Postcopy` (pull-on-read); below it the
/// VM is idle and gets `Precopy`.
const READ_HI_FRAC: f64 = 0.05;

/// Choose a job's strategy from the VM's windowed I/O rates:
///
/// | observed intensity (fraction of NIC) | chosen scheme |
/// |---|---|
/// | write rate ≥ [`WRITE_HI_FRAC`] (0.05) | `Hybrid` — the paper's scheme, built for I/O-intensive writers whose hot chunks must be withheld and prefetched by priority |
/// | write rate in `[lo, hi)`, lo = [`WRITE_LO_FRAC`] (0.005) | `Mirror` — synchronous mirroring is cheap when writes are light, and the bulk pass never resends |
/// | writes ≈ 0, read rate ≥ [`READ_HI_FRAC`] (0.05) | `Postcopy` — nothing to converge; let reads pull on demand |
/// | otherwise (idle) | `Precopy` — the incremental block stream converges immediately |
///
/// Under post-copy memory migration the pre-copy storage schemes are
/// unavailable (no pull path), so the rule degrades to
/// `Hybrid`/`Postcopy` along the same write-intensity split.
pub(super) fn choose(ctx: &PlanContext) -> StrategyKind {
    let w = ctx.vm.write_rate / ctx.nic_bw;
    let r = ctx.vm.read_rate / ctx.nic_bw;
    if ctx.postcopy_memory {
        // Pre-copy storage streams cannot run under post-copy
        // memory; split on write intensity only.
        return if w >= WRITE_LO_FRAC {
            StrategyKind::Hybrid
        } else {
            StrategyKind::Postcopy
        };
    }
    if w >= WRITE_HI_FRAC {
        StrategyKind::Hybrid
    } else if w >= WRITE_LO_FRAC {
        StrategyKind::Mirror
    } else if r >= READ_HI_FRAC {
        StrategyKind::Postcopy
    } else {
        StrategyKind::Precopy
    }
}
