//! The adaptive planner's strategy rule: the paper's §4 decision
//! operationalized over live telemetry.

use super::PlanContext;
use crate::policy::StrategyKind;

/// Resolve an adaptive strategy request from the VM's windowed I/O
/// rates:
///
/// | observed intensity (fraction of NIC) | chosen scheme |
/// |---|---|
/// | write rate ≥ `adaptive_write_hi_frac` | `Hybrid` — the paper's scheme, built for I/O-intensive writers whose hot chunks must be withheld and prefetched by priority |
/// | write rate in `[lo, hi)` | `Mirror` — synchronous mirroring is cheap when writes are light, and the bulk pass never resends |
/// | writes ≈ 0, read rate ≥ `adaptive_read_hi_frac` | `Postcopy` — nothing to converge; let reads pull on demand |
/// | otherwise (idle) | `Precopy` — the incremental block stream converges immediately |
///
/// Under post-copy memory migration the pre-copy storage schemes are
/// unavailable (no pull path), so the rule degrades to
/// `Hybrid`/`Postcopy` along the same write-intensity split.
pub(super) fn choose(ctx: &PlanContext<'_>) -> StrategyKind {
    let w = ctx.vm.write_rate / ctx.nic_bw;
    let r = ctx.vm.read_rate / ctx.nic_bw;
    let c = ctx.cfg;
    if ctx.postcopy_memory {
        // Pre-copy storage streams cannot run under post-copy
        // memory; split on write intensity only.
        return if w >= c.adaptive_write_lo_frac {
            StrategyKind::Hybrid
        } else {
            StrategyKind::Postcopy
        };
    }
    if w >= c.adaptive_write_hi_frac {
        StrategyKind::Hybrid
    } else if w >= c.adaptive_write_lo_frac {
        StrategyKind::Mirror
    } else if r >= c.adaptive_read_hi_frac {
        StrategyKind::Postcopy
    } else {
        StrategyKind::Precopy
    }
}
