//! Run observers: milestone callbacks, cooperative abort, and a hook
//! that closes the run.
//!
//! An [`Observer`] is handed to [`crate::engine::Engine::run_until_observed`]
//! and receives every job status change and lifecycle milestone as it
//! happens, together with a queryable [`MigrationProgress`] snapshot.
//! Returning [`RunControl::Stop`] from any callback aborts the run at
//! the current simulated instant; the report then reflects the partial
//! state — callers can watch, log, or cancel instead of waiting for a
//! post-hoc `RunReport`. Every run, stopped or not, ends with one
//! [`Observer::on_finish`] on the engine it leaves behind, so an
//! observer's closing work (`lsm-check`'s final audit) runs without its
//! caller holding the engine.

use super::job::{JobId, MigrationProgress, MigrationStatus};
use super::report::Milestone;
use lsm_simcore::time::SimTime;

/// Whether the run should keep going after a callback.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunControl {
    /// Keep simulating.
    Continue,
    /// Stop the event loop at the current simulated time.
    Stop,
}

/// Callbacks invoked by the engine while a run is in flight, and once
/// when it ends.
///
/// All methods default to no-ops that continue the run, so an observer
/// implements only what it cares about.
pub trait Observer {
    /// A job's lifecycle status changed. `progress` is the snapshot at
    /// the moment of the change.
    fn on_status(
        &mut self,
        job: JobId,
        status: MigrationStatus,
        now: SimTime,
        progress: &MigrationProgress,
    ) -> RunControl {
        let _ = (job, status, now, progress);
        RunControl::Continue
    }

    /// A migration hit a Figure-2 lifecycle milestone.
    fn on_milestone(&mut self, job: JobId, milestone: Milestone, now: SimTime) -> RunControl {
        let _ = (job, milestone, now);
        RunControl::Continue
    }

    /// Called after **every** dispatched engine event with read-only
    /// access to the full engine state (network flow views, job
    /// progress, per-VM chunk versions via
    /// [`crate::engine::Engine::inspect_vm`]). This is the audit hook
    /// invariant checkers (the `lsm-check` crate) hang off; the default
    /// no-op keeps ordinary observers free of per-event overhead beyond
    /// the virtual call.
    fn on_tick(&mut self, eng: &crate::engine::Engine) -> RunControl {
        let _ = eng;
        RunControl::Continue
    }

    /// Called once when the run ends, after its report is built, with
    /// the engine in the state the run ended in: at the horizon, or at
    /// the instant an observer stopped it. The sharded runner calls it
    /// once per shard, on that shard's engine.
    fn on_finish(&mut self, eng: &crate::engine::Engine) {
        let _ = eng;
    }
}

/// The do-nothing observer used by plain `run_until`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// An optional observer: `None` observes nothing, like [`NullObserver`].
impl<O: Observer> Observer for Option<O> {
    fn on_status(
        &mut self,
        job: JobId,
        status: MigrationStatus,
        now: SimTime,
        progress: &MigrationProgress,
    ) -> RunControl {
        self.as_mut().map_or(RunControl::Continue, |o| {
            o.on_status(job, status, now, progress)
        })
    }

    fn on_milestone(&mut self, job: JobId, milestone: Milestone, now: SimTime) -> RunControl {
        self.as_mut().map_or(RunControl::Continue, |o| {
            o.on_milestone(job, milestone, now)
        })
    }

    fn on_tick(&mut self, eng: &crate::engine::Engine) -> RunControl {
        self.as_mut()
            .map_or(RunControl::Continue, |o| o.on_tick(eng))
    }

    fn on_finish(&mut self, eng: &crate::engine::Engine) {
        if let Some(o) = self {
            o.on_finish(eng);
        }
    }
}

/// An observer that records every callback (useful in tests and for
/// post-hoc inspection of a watched run).
#[derive(Debug, Default)]
pub struct RecordingObserver {
    /// `(time, job, status)` for every status change.
    pub statuses: Vec<(SimTime, JobId, MigrationStatus)>,
    /// `(time, job, milestone)` for every milestone.
    pub milestones: Vec<(SimTime, JobId, Milestone)>,
}

impl Observer for RecordingObserver {
    fn on_status(
        &mut self,
        job: JobId,
        status: MigrationStatus,
        now: SimTime,
        _progress: &MigrationProgress,
    ) -> RunControl {
        self.statuses.push((now, job, status));
        RunControl::Continue
    }

    fn on_milestone(&mut self, job: JobId, milestone: Milestone, now: SimTime) -> RunControl {
        self.milestones.push((now, job, milestone));
        RunControl::Continue
    }
}
