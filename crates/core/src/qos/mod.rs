//! Migration QoS shaping: bandwidth caps, multifd-style parallel
//! streams, compression, and SLA-violation accounting.
//!
//! The paper's hybrid scheme wins by bounding migration interference
//! with the guest's own I/O; this module makes that bound an explicit,
//! tunable contract. A [`QosConfig`] (the `[qos]` scenario section)
//! shapes every migration in the run three ways: a **bandwidth cap**
//! holds each migration flow's wire rate below its max–min NIC share
//! (a memory copy's multifd shards split it, every storage batch flow
//! gets all of it, so one migration's flows together can exceed it),
//! **multifd streams** split each memory copy into N concurrent flows
//! with deterministic sharding and merged progress accounting, and a
//! **compression** model shrinks wire bytes by a per-traffic-class
//! ratio at a guest CPU cost that feeds the auto-converge throttle
//! model.
//!
//! The user-visible price of a migration is not wire traffic but
//! SLA-violation time (Voorsluys et al.): the seconds the guest was
//! down plus the seconds it ran degraded, weighted by how degraded.
//! The engine integrates that quantity per job — see
//! `RunReport.sla` — whether or not `[qos]` is present, and the cost
//! planner predicts it per candidate scheme
//! ([`SchemeEstimate::est_sla_secs`](crate::planner::SchemeEstimate::est_sla_secs)).
//!
//! This file holds the pure, engine-free pieces: the configuration and
//! the SLA report types. The mutating plumbing (flow caps, shard
//! accounting, degradation integration) lives in the engine
//! (`engine/qos.rs`), which alone may touch engine state. With `[qos]`
//! absent the subsystem is inert: every flow keeps its historical cap,
//! memory copies stay single-stream, no byte is compressed, and every
//! run is event-for-event identical to an engine built without this
//! module.

use serde::{Deserialize, Serialize};

/// Tuning for migration QoS shaping (the `[qos]` scenario section).
/// Deserialization fills absent fields from [`QosConfig::default`],
/// like the other config sections; the defaults themselves shape
/// nothing (no cap, one stream, no compression), so presence alone
/// only switches the plumbing on.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct QosConfig {
    /// Wire ceiling per migration flow, MB/s (the unit `ClusterConfig`
    /// quotes NIC speeds in), even when the max–min NIC share would
    /// allow more. A memory copy's shards split
    /// `min(migration_speed_cap, cap)` between them; every storage push
    /// or pull batch flow gets the whole cap. The cap binds each flow,
    /// not their sum: a migration with a memory copy and storage
    /// batches in flight at once can move more than the cap in total.
    /// `None` leaves the historical per-flow caps in place.
    pub bandwidth_cap_mb: Option<f64>,
    /// Multifd-style parallel memory streams: each memory copy (the
    /// pre-copy, linger and deferral rounds, the stop-and-copy, the
    /// post-copy handover) splits into this many concurrent flows with
    /// deterministic byte sharding; the post-copy background pull stays
    /// one flow. `1` keeps the single-stream wire behaviour.
    pub streams: u32,
    /// Memory-traffic compressibility: wire bytes are `ratio` × guest
    /// bytes for memory flows. `1.0` disables memory compression.
    pub compress_mem_ratio: f64,
    /// Storage-traffic compressibility (push/pull batches; mirror and
    /// repository traffic is never compressed). `1.0` disables it.
    pub compress_storage_ratio: f64,
    /// Fraction of the guest's compute spent compressing while one of
    /// its migrations is live pre-control with compression enabled:
    /// the guest runs at `(1 - compress_cpu_frac)` of its entitled
    /// speed, stacking with auto-converge throttle steps (and counted
    /// as degradation in the SLA accounting). `0.0` makes compression
    /// free.
    pub compress_cpu_frac: f64,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            bandwidth_cap_mb: None,
            streams: 1,
            compress_mem_ratio: 1.0,
            compress_storage_ratio: 1.0,
            compress_cpu_frac: 0.0,
        }
    }
}

impl QosConfig {
    /// The configured ceiling in bytes/second, if any.
    pub fn cap_bytes(&self) -> Option<f64> {
        self.bandwidth_cap_mb.map(lsm_simcore::units::mb_per_s)
    }

    /// True when any traffic class is compressed (the CPU cost applies
    /// only while this holds).
    pub fn compressing(&self) -> bool {
        self.compress_mem_ratio < 1.0 || self.compress_storage_ratio < 1.0
    }

    /// Check every field for usability (the QoS analogue of
    /// [`crate::resilience::ResilienceConfig::validate`]).
    pub fn validate(&self) -> Result<(), crate::error::EngineError> {
        let fail = |reason: String| Err(crate::error::EngineError::InvalidRequest { reason });
        if let Some(mb) = self.bandwidth_cap_mb {
            if !(mb.is_finite() && mb > 0.0) {
                return fail(format!(
                    "bandwidth_cap_mb must be positive and finite, got {mb}"
                ));
            }
        }
        if self.streams == 0 {
            return fail("streams of 0 could never carry a memory copy".to_string());
        }
        if self.streams > 16 {
            return fail(format!(
                "streams of {} exceeds the multifd ceiling of 16",
                self.streams
            ));
        }
        for (name, x) in [
            ("compress_mem_ratio", self.compress_mem_ratio),
            ("compress_storage_ratio", self.compress_storage_ratio),
        ] {
            if !(x.is_finite() && x > 0.0 && x <= 1.0) {
                return fail(format!("{name} must lie in (0, 1], got {x}"));
            }
        }
        if !(self.compress_cpu_frac.is_finite()
            && self.compress_cpu_frac >= 0.0
            && self.compress_cpu_frac < 1.0)
        {
            return fail(format!(
                "compress_cpu_frac must lie in [0, 1), got {}",
                self.compress_cpu_frac
            ));
        }
        Ok(())
    }
}

/// One job's SLA-violation accounting, serialized in `RunReport.sla`.
///
/// `violation_secs = downtime_secs + degraded_secs`: the guest either
/// served nothing (down) or served a degraded fraction of its entitled
/// throughput — `degraded_secs` integrates `1 - factor` over the
/// migration's live window, where `factor` is the compute multiplier
/// the auto-converge throttle and compression CPU cost impose, so two
/// seconds at 50% speed cost one violation-second.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct SlaJob {
    /// The job (index into `RunReport.migrations`).
    pub job: u32,
    /// The migrating VM.
    pub vm: u32,
    /// Seconds the guest was paused by this migration.
    pub downtime_secs: f64,
    /// Throughput-weighted seconds the guest ran degraded (throttled
    /// or compressing) while this migration was live.
    pub degraded_secs: f64,
    /// The SLA cost: `downtime_secs + degraded_secs`.
    pub violation_secs: f64,
}

/// Run-wide SLA accounting: per-job rows plus aggregates (the
/// `RunReport.sla` section). Computed for every run — the QoS knobs
/// change what it *measures*, not whether it is measured.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct SlaReport {
    /// Per-job accounting, in job order.
    pub jobs: Vec<SlaJob>,
    /// Sum of per-job downtime seconds.
    pub total_downtime_secs: f64,
    /// Sum of per-job degraded seconds.
    pub total_degraded_secs: f64,
    /// Sum of per-job violation seconds.
    pub total_violation_secs: f64,
}

impl SlaReport {
    /// Assemble the aggregates from per-job rows.
    pub fn from_jobs(jobs: Vec<SlaJob>) -> Self {
        let total_downtime_secs = jobs.iter().map(|j| j.downtime_secs).sum();
        let total_degraded_secs = jobs.iter().map(|j| j.degraded_secs).sum();
        let total_violation_secs = jobs.iter().map(|j| j.violation_secs).sum();
        SlaReport {
            jobs,
            total_downtime_secs,
            total_degraded_secs,
            total_violation_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = QosConfig::default();
        assert!(ok.validate().is_ok());
        assert!(QosConfig {
            bandwidth_cap_mb: Some(40.0),
            streams: 4,
            compress_mem_ratio: 0.6,
            compress_storage_ratio: 0.8,
            compress_cpu_frac: 0.1,
        }
        .validate()
        .is_ok());
        for bad in [
            QosConfig {
                bandwidth_cap_mb: Some(0.0),
                ..ok.clone()
            },
            QosConfig {
                bandwidth_cap_mb: Some(f64::NAN),
                ..ok.clone()
            },
            QosConfig {
                streams: 0,
                ..ok.clone()
            },
            QosConfig {
                streams: 17,
                ..ok.clone()
            },
            QosConfig {
                compress_mem_ratio: 0.0,
                ..ok.clone()
            },
            QosConfig {
                compress_mem_ratio: 1.5,
                ..ok.clone()
            },
            QosConfig {
                compress_storage_ratio: -0.2,
                ..ok.clone()
            },
            QosConfig {
                compress_cpu_frac: 1.0,
                ..ok.clone()
            },
            QosConfig {
                compress_cpu_frac: f64::INFINITY,
                ..ok.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should not validate");
        }
    }

    #[test]
    fn partial_deserialization_fills_defaults_and_rejects_unknown_keys() {
        let v = serde::Value::Map(vec![
            ("bandwidth_cap_mb".to_string(), serde::Value::F64(40.0)),
            ("streams".to_string(), serde::Value::U64(4)),
        ]);
        let cfg = <QosConfig as serde::Deserialize>::from_value(&v).expect("partial");
        assert_eq!(cfg.bandwidth_cap_mb, Some(40.0));
        assert_eq!(cfg.streams, 4);
        assert_eq!(cfg.compress_mem_ratio, 1.0);
        assert_eq!(cfg.compress_cpu_frac, 0.0);
        let bad = serde::Value::Map(vec![("streems".to_string(), serde::Value::U64(2))]);
        let err = <QosConfig as serde::Deserialize>::from_value(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown QosConfig field"));
    }

    #[test]
    fn cap_bytes_matches_the_cluster_bandwidth_unit() {
        let cfg = QosConfig {
            bandwidth_cap_mb: Some(40.0),
            ..QosConfig::default()
        };
        assert_eq!(cfg.cap_bytes(), Some(lsm_simcore::units::mb_per_s(40.0)));
        assert_eq!(QosConfig::default().cap_bytes(), None);
    }

    #[test]
    fn sla_report_aggregates_rows() {
        let r = SlaReport::from_jobs(vec![
            SlaJob {
                job: 0,
                vm: 0,
                downtime_secs: 0.5,
                degraded_secs: 2.0,
                violation_secs: 2.5,
            },
            SlaJob {
                job: 1,
                vm: 1,
                downtime_secs: 0.25,
                degraded_secs: 0.0,
                violation_secs: 0.25,
            },
        ]);
        assert_eq!(r.total_downtime_secs, 0.75);
        assert_eq!(r.total_degraded_secs, 2.0);
        assert_eq!(r.total_violation_secs, 2.75);
    }
}
