//! Pure closed-form transfer-time bounds shared by the cost planner
//! and the static analyzer.
//!
//! These are the per-scheme formulas of the cost planner's model
//! ([`PlannerKind::Cost`], see the planner's `cost` module) factored
//! into free functions of plain numbers, so they can be evaluated both
//! *dynamically* (against live telemetry, by the planner) and
//! *statically* (against a scenario spec, by `lsm-analyze`'s
//! feasibility and convergence lints) without either caller
//! re-implementing the math. The planner calls these with the exact
//! same operation order as before the extraction — its decisions (and
//! the pinned `cost64` determinism) are bit-identical.
//!
//! [`PlannerKind::Cost`]: super::PlannerKind::Cost

/// Re-dirty flux at or above this fraction of the available bandwidth
/// is treated as non-convergent for the pre-copy-style schemes — the
/// classic pre-copy convergence condition (Voorsluys et al.).
pub const CONVERGENCE_FRAC: f64 = 0.95;

/// True when a sustained dirty/write flux of `flux` bytes/s cannot
/// converge over a wire of `bw` bytes/s: the re-send series
/// `S · (flux/bw)^k` stops shrinking once `flux ≥ 0.95 · bw`.
pub fn nonconvergent(flux: f64, bw: f64) -> bool {
    flux >= CONVERGENCE_FRAC * bw
}

/// Pre-copy bulk + geometric re-send time for `s_alloc` bytes against
/// a re-dirty flux (`dirty + rewrite` rate): `s_alloc / (bw − flux)`,
/// or `None` when the flux is [`nonconvergent`].
pub fn precopy_time(s_alloc: f64, flux: f64, bw: f64) -> Option<f64> {
    if nonconvergent(flux, bw) {
        None
    } else {
        Some(s_alloc / (bw - flux))
    }
}

/// Mirrored-bulk time: the bulk copy shares the wire with synchronous
/// write mirroring, `s_alloc / (bw − write_rate)`; `None` when the
/// write rate is [`nonconvergent`].
pub fn mirror_time(s_alloc: f64, write_rate: f64, bw: f64) -> Option<f64> {
    if nonconvergent(write_rate, bw) {
        None
    } else {
        Some(s_alloc / (bw - write_rate))
    }
}

/// Pull-phase stretch factor: on-demand guest reads block on pulls, so
/// a read rate of `read_rate` over a `bw` wire stretches the pull by
/// `1 + penalty × min(1, read_rate/bw)`.
pub fn pull_stall_factor(read_rate: f64, bw: f64, ondemand_penalty: f64) -> f64 {
    1.0 + ondemand_penalty * (read_rate / bw).min(1.0)
}

/// Pull-phase time for `bytes` over `bw`, stretched by a
/// [`pull_stall_factor`].
pub fn pull_time(bytes: f64, bw: f64, stall: f64) -> f64 {
    bytes / bw * stall
}

/// The hybrid scheme's withheld hot set: one telemetry window of
/// overwritten bytes, capped by the modified set.
pub fn hybrid_withheld(rewrite_rate: f64, window_secs: f64, s_mod: f64) -> f64 {
    (rewrite_rate * window_secs).min(s_mod)
}

/// The hybrid scheme's `Threshold`-bounded re-push bytes: what the
/// guest overwrites during the push phase, at most `threshold − 1`
/// re-sends of the hot set.
pub fn hybrid_repush(rewrite_rate: f64, push_time: f64, threshold: u32, hot: f64) -> f64 {
    (rewrite_rate * push_time).min(threshold.saturating_sub(1) as f64 * hot)
}

/// The unconditional lower bound every scheme shares: `bytes` must
/// cross a `bw`-bytes/s wire, taking at least `bytes / bw` seconds. No
/// scheme, round structure, or prioritization beats it — which is what
/// makes it usable as a *static* infeasibility proof.
pub fn transfer_lower_bound(bytes: f64, bw: f64) -> f64 {
    bytes / bw
}

/// The effective per-migration wire ceiling: the NIC, the QEMU-style
/// migration speed cap, and the QoS bandwidth cap (when shaping is
/// configured), whichever binds first. Memory multifd streams split
/// this ceiling, they never raise it.
pub fn effective_migration_bandwidth(
    cluster: &crate::config::ClusterConfig,
    qos: Option<&crate::qos::QosConfig>,
) -> f64 {
    let mut bw = cluster.nic_bw.min(cluster.migration_speed_cap());
    if let Some(cap) = qos.and_then(|q| q.cap_bytes()) {
        bw = bw.min(cap);
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_threshold_is_inclusive() {
        assert!(nonconvergent(95.0, 100.0));
        assert!(!nonconvergent(94.9, 100.0));
        assert_eq!(precopy_time(100.0, 95.0, 100.0), None);
        assert_eq!(mirror_time(100.0, 95.0, 100.0), None);
    }

    #[test]
    fn convergent_times_match_the_closed_form() {
        assert_eq!(precopy_time(100.0, 50.0, 100.0), Some(2.0));
        assert_eq!(mirror_time(100.0, 20.0, 100.0), Some(1.25));
        assert_eq!(transfer_lower_bound(200.0, 100.0), 2.0);
    }

    #[test]
    fn stall_factor_saturates_at_full_read_pressure() {
        assert_eq!(pull_stall_factor(0.0, 100.0, 4.0), 1.0);
        assert_eq!(pull_stall_factor(50.0, 100.0, 4.0), 3.0);
        // Reads beyond the wire cannot stall more than all of it.
        assert_eq!(pull_stall_factor(500.0, 100.0, 4.0), 5.0);
    }

    #[test]
    fn hybrid_terms_are_capped() {
        assert_eq!(hybrid_withheld(10.0, 5.0, 1000.0), 50.0);
        assert_eq!(hybrid_withheld(10.0, 5.0, 20.0), 20.0);
        assert_eq!(hybrid_repush(10.0, 4.0, 3, 15.0), 30.0);
        assert_eq!(hybrid_repush(10.0, 100.0, 3, 15.0), 30.0);
        assert_eq!(hybrid_repush(10.0, 100.0, 0, 15.0), 0.0);
    }

    #[test]
    fn effective_bandwidth_takes_the_tightest_cap() {
        use crate::config::ClusterConfig;
        use crate::qos::QosConfig;
        let cluster = ClusterConfig::default();
        let nic = cluster.nic_bw;
        assert_eq!(effective_migration_bandwidth(&cluster, None), nic);
        let qos = QosConfig {
            bandwidth_cap_mb: Some(60.0),
            ..QosConfig::default()
        };
        let capped = effective_migration_bandwidth(&cluster, Some(&qos));
        assert!(capped < nic);
        assert_eq!(Some(capped), qos.cap_bytes());
        // A cap above the NIC never raises the ceiling.
        let loose = QosConfig {
            bandwidth_cap_mb: Some(10_000.0),
            ..QosConfig::default()
        };
        assert_eq!(effective_migration_bandwidth(&cluster, Some(&loose)), nic);
    }
}
