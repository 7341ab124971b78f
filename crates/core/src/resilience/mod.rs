//! The migration resilience layer: retry with backoff and resumable
//! transfers, graceful degradation, and cancellation.
//!
//! Everything else in the engine treats a fault as terminal: a crashed
//! destination, a transfer stall, or an expired deadline kills the job
//! (unless the autonomic rebalancer's narrow re-plan path applies).
//! This module is the substrate a real operator stack layers on top of
//! live migration — a per-job [`RetryPolicy`] with exponential backoff
//! and *resumable* transfers (chunk versions already stamped at a
//! surviving destination are not re-sent), stepped auto-converge guest
//! throttling when the dirty flux outruns the NIC, a hard downtime
//! limit that trades an over-budget switchover for another copy round,
//! and clean cancellation at any phase.
//!
//! This file holds the pure, engine-free pieces: the configuration
//! ([`ResilienceConfig`], the `[resilience]` scenario section) and the
//! typed per-attempt records ([`JobAttempt`], [`JobResilience`]) the
//! report exposes. The mutating handlers live in the engine
//! (`engine/resilient.rs`), which alone may touch engine state. With
//! `[resilience]` absent the subsystem is inert: no retry timer is ever
//! armed, no throttle step is ever taken, and every run is
//! event-for-event identical to an engine built without this module.

use lsm_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

/// Which failure causes re-queue a job instead of failing it (the
/// `[resilience.retry.retry_on]` scenario section).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct RetryOn {
    /// Retry when the migration destination crashes before control
    /// transfer (the retried attempt is re-placed on a healthy node).
    pub dest_crash: bool,
    /// Retry when a transfer stall hits a pre-control migration: the
    /// attempt is abandoned immediately (instead of waiting out the
    /// stall) and resumed after backoff — the surviving destination
    /// keeps its stamped chunks.
    pub stall: bool,
    /// Retry when the job's deadline expires; each retried attempt
    /// re-arms a fresh deadline of the same length.
    pub deadline: bool,
}

impl Default for RetryOn {
    fn default() -> Self {
        RetryOn {
            dest_crash: true,
            stall: true,
            deadline: true,
        }
    }
}

/// Per-migration retry policy (the `[resilience.retry]` section).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct RetryPolicy {
    /// Total attempts a job may consume, the first included: a job
    /// fails for good once `max_attempts` attempts have been spent.
    pub max_attempts: u32,
    /// Base backoff, seconds: attempt `k`'s retry fires after
    /// `backoff_secs * 2^(k-1)`, capped at
    /// [`RetryPolicy::backoff_cap_secs`].
    pub backoff_secs: f64,
    /// Exponential backoff ceiling, seconds.
    pub backoff_cap_secs: f64,
    /// Which failure causes are retryable.
    pub retry_on: RetryOn,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_secs: 5.0,
            backoff_cap_secs: 60.0,
            retry_on: RetryOn::default(),
        }
    }
}

/// Tuning for the resilience layer (the `[resilience]` scenario
/// section). Deserialization fills absent fields from
/// [`ResilienceConfig::default`], like the other config sections; its
/// mere *presence* enables retries and graceful degradation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ResilienceConfig {
    /// The retry policy applied to every migration job.
    pub retry: RetryPolicy,
    /// Auto-converge trigger: a memory round whose dirty flux
    /// (bytes dirtied per second of round wall-clock) is at or above
    /// this fraction of the NIC bandwidth counts as *hot*.
    pub converge_frac: f64,
    /// Consecutive hot rounds before the guest is throttled one more
    /// step.
    pub converge_patience: u32,
    /// Per-step compute slowdown: at throttle step `s` the guest runs
    /// at `(1 - converge_step)^s` of its entitled speed. Released at
    /// switchover (and on abort/cancel).
    pub converge_step: f64,
    /// Throttle ceiling (steps).
    pub converge_max_steps: u32,
    /// Hard downtime budget, milliseconds: a switchover whose estimated
    /// stop-and-copy transfer would exceed it is deferred — the dirty
    /// backlog rides one more copy round instead — bounded by
    /// [`ResilienceConfig::downtime_extra_rounds`]. `None` disables the
    /// limit.
    pub downtime_limit_ms: Option<f64>,
    /// At most this many deferred switchovers per attempt; once
    /// exhausted the stop proceeds best-effort (liveness beats the
    /// budget).
    pub downtime_extra_rounds: u32,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            converge_frac: 0.9,
            converge_patience: 3,
            converge_step: 0.25,
            converge_max_steps: 4,
            downtime_limit_ms: None,
            downtime_extra_rounds: 2,
        }
    }
}

impl ResilienceConfig {
    /// Check every field for usability (the resilience analogue of
    /// [`crate::autonomic::AutonomicConfig::validate`]).
    pub fn validate(&self) -> Result<(), crate::error::EngineError> {
        let fail = |reason: String| Err(crate::error::EngineError::InvalidRequest { reason });
        if self.retry.max_attempts == 0 {
            return fail("retry.max_attempts of 0 would never even start a job".to_string());
        }
        for (name, x) in [
            ("retry.backoff_secs", self.retry.backoff_secs),
            ("retry.backoff_cap_secs", self.retry.backoff_cap_secs),
            ("converge_frac", self.converge_frac),
        ] {
            if !(x.is_finite() && x > 0.0) {
                return fail(format!("{name} must be positive and finite, got {x}"));
            }
        }
        if self.retry.backoff_cap_secs < self.retry.backoff_secs {
            return fail(format!(
                "retry.backoff_cap_secs {} lies below the base backoff {}",
                self.retry.backoff_cap_secs, self.retry.backoff_secs
            ));
        }
        if self.converge_patience == 0 {
            return fail("converge_patience of 0 would throttle on the first round".to_string());
        }
        if !(self.converge_step.is_finite() && self.converge_step > 0.0 && self.converge_step < 1.0)
        {
            return fail(format!(
                "converge_step must lie in (0, 1), got {}",
                self.converge_step
            ));
        }
        if self.converge_max_steps == 0 {
            return fail(
                "converge_max_steps of 0 disables auto-converge; omit the \
                         section instead"
                    .to_string(),
            );
        }
        if let Some(ms) = self.downtime_limit_ms {
            if !(ms.is_finite() && ms > 0.0) {
                return fail(format!(
                    "downtime_limit_ms must be positive and finite, got {ms}"
                ));
            }
            if self.downtime_extra_rounds == 0 {
                return fail(
                    "downtime_limit_ms with downtime_extra_rounds = 0 could never defer a \
                     switchover"
                        .to_string(),
                );
            }
        }
        Ok(())
    }
}

/// Why one migration attempt failed (and was retried).
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum AttemptReason {
    /// The destination crashed before control transfer; the retried
    /// attempt is re-placed on a healthy node.
    DestinationCrashed {
        /// The crashed node.
        node: u32,
    },
    /// A transfer stall hit the migration; the attempt was abandoned
    /// in favour of a backed-off resume at the same destination.
    Stalled,
    /// The attempt's deadline expired.
    DeadlineExceeded,
}

/// One failed-and-retried attempt of a migration job, archived on the
/// job and serialized in `RunReport.resilience`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct JobAttempt {
    /// When the attempt failed.
    pub at: SimTime,
    /// Why it failed.
    pub reason: AttemptReason,
    /// The backoff applied before the next attempt, seconds.
    pub backoff_secs: f64,
    /// Bytes whose chunk versions were stamped at the surviving
    /// destination when the attempt failed (the transfer checkpoint; 0
    /// when the destination died with the attempt). The hard upper
    /// bound on [`JobAttempt::resumed_bytes`] — the checker's
    /// resume-bounded law.
    pub checkpoint_bytes: u64,
    /// Bytes the *next* attempt did not have to re-send because their
    /// chunk versions were already stamped at the surviving destination
    /// (0 until that attempt starts, and 0 forever if the destination
    /// died or changed).
    pub resumed_bytes: u64,
}

/// Per-job resilience history: everything the retry/degradation
/// machinery did to one migration job over the run.
#[derive(Clone, Debug, Serialize)]
pub struct JobResilience {
    /// The job (index into `RunReport.migrations`).
    pub job: u32,
    /// The migrating VM.
    pub vm: u32,
    /// Failed-and-retried attempts, in order.
    pub attempts: Vec<JobAttempt>,
    /// True if the job was cancelled by operator request.
    pub cancelled: bool,
    /// Highest auto-converge throttle step reached across attempts.
    pub auto_converge_steps: u32,
    /// Switchovers deferred by the hard downtime limit across attempts.
    pub downtime_deferrals: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = ResilienceConfig::default();
        assert!(ok.validate().is_ok());
        for bad in [
            ResilienceConfig {
                retry: RetryPolicy {
                    max_attempts: 0,
                    ..RetryPolicy::default()
                },
                ..ok.clone()
            },
            ResilienceConfig {
                retry: RetryPolicy {
                    backoff_secs: 0.0,
                    ..RetryPolicy::default()
                },
                ..ok.clone()
            },
            ResilienceConfig {
                retry: RetryPolicy {
                    backoff_cap_secs: 1.0,
                    ..RetryPolicy::default()
                },
                ..ok.clone()
            },
            ResilienceConfig {
                converge_frac: f64::NAN,
                ..ok.clone()
            },
            ResilienceConfig {
                converge_patience: 0,
                ..ok.clone()
            },
            ResilienceConfig {
                converge_step: 1.0,
                ..ok.clone()
            },
            ResilienceConfig {
                converge_max_steps: 0,
                ..ok.clone()
            },
            ResilienceConfig {
                downtime_limit_ms: Some(0.0),
                ..ok.clone()
            },
            ResilienceConfig {
                downtime_limit_ms: Some(100.0),
                downtime_extra_rounds: 0,
                ..ok.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should not validate");
        }
    }

    #[test]
    fn partial_deserialization_fills_defaults_and_rejects_unknown_keys() {
        let v = serde::Value::Map(vec![(
            "retry".to_string(),
            serde::Value::Map(vec![("max_attempts".to_string(), serde::Value::U64(5))]),
        )]);
        let cfg = <ResilienceConfig as serde::Deserialize>::from_value(&v).expect("partial");
        assert_eq!(cfg.retry.max_attempts, 5);
        assert_eq!(
            cfg.retry.backoff_secs,
            ResilienceConfig::default().retry.backoff_secs
        );
        assert_eq!(
            cfg.converge_patience,
            ResilienceConfig::default().converge_patience
        );
        assert!(cfg.retry.retry_on.stall);
        let bad = serde::Value::Map(vec![("retrry".to_string(), serde::Value::U64(1))]);
        let err = <ResilienceConfig as serde::Deserialize>::from_value(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown ResilienceConfig field"));
        let bad_nested = serde::Value::Map(vec![(
            "retry".to_string(),
            serde::Value::Map(vec![(
                "retry_on".to_string(),
                serde::Value::Map(vec![("dest_krash".to_string(), serde::Value::Bool(true))]),
            )]),
        )]);
        let err = <ResilienceConfig as serde::Deserialize>::from_value(&bad_nested).unwrap_err();
        assert!(err.to_string().contains("unknown RetryOn field"));
    }
}
