//! The sharded parallel runner: many independent shard engines stepped
//! in bounded time windows on a worker-thread pool, merged into one
//! [`RunReport`] that is **bit-identical** to the monolithic engine's.
//!
//! # Execution model
//!
//! A *shard* is a complete [`Engine`] over one connected component of
//! the scenario's migration graph (nodes joined by a migration, plus
//! every VM they host). Components share no links, no disks, no chunk
//! stores and — on the decoupled fabrics the partitioner admits — never
//! contend on the switch aggregate, so their event streams are causally
//! independent: each shard owns its nodes' event sub-queue, guest
//! compute/dirty-rate updates, and the node-local flow state outright.
//!
//! Shards advance in bounded time windows. Within a window every shard
//! steps its own events with [`Engine::step_until`]; at the window
//! barrier the runner performs the one *shared* piece of accounting,
//! the switch aggregate: the summed flow rate across all shards must
//! fit the fabric's switch capacity (on an admitted fabric it provably
//! does — the barrier check is the runtime witness of that proof).
//!
//! # Determinism
//!
//! The shard structure is a pure function of the scenario — never of
//! the thread count. Threads only *execute* shards: a work-stealing
//! index hands each shard to whichever worker is free, and since shards
//! exchange nothing mid-window, execution order cannot influence any
//! shard's state. Cross-shard outputs meet only in the merge, which
//! orders every record by global identity and time — migrations and
//! VMs by their global index, planner decisions by `(decided_at, job)`
//! (exactly the `(time, sequence)` order the monolithic event loop
//! admits them in), traffic by integer per-shard counters whose sum is
//! order-independent. The result: byte-identical serialized reports for
//! any thread count, including the monolithic single-threaded engine —
//! pinned by `lsm`'s determinism suite at `--threads 1/2/8` under both
//! solver modes.

use crate::engine::{Engine, MigrationRecord, Observer, RunControl, RunReport, VmRecord};
use lsm_netsim::TrafficTag;
use lsm_simcore::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One shard: a complete engine over one migration-graph component,
/// plus the maps back to global identity (the merge's vocabulary).
pub struct Shard {
    /// The shard's engine, built over the component's nodes re-indexed
    /// densely in ascending global order (which preserves the
    /// monolithic solver's lowest-index tie-breaks).
    pub engine: Engine,
    /// Shard-local VM index → global VM index.
    pub vms: Vec<u32>,
    /// Shard-local migration-job index → global job index.
    pub jobs: Vec<u32>,
    /// Shard-local node index → global node index.
    pub nodes: Vec<u32>,
}

/// Global fleet dimensions the merged report must cover.
#[derive(Clone, Copy, Debug)]
pub struct FleetShape {
    /// Total VMs in the scenario.
    pub vms: u32,
    /// Total migration jobs in the scenario.
    pub jobs: u32,
    /// The fabric's switch aggregate capacity (bytes/second) — the one
    /// shared resource, audited at every window barrier.
    pub switch_capacity: f64,
}

/// Knobs of the sharded runner.
#[derive(Clone, Copy, Debug)]
pub struct ParallelOpts {
    /// Worker threads. `1` still runs the sharded path (the caller
    /// chooses monolithic vs sharded); values are clamped to the shard
    /// count.
    pub threads: usize,
    /// Window length in simulated seconds between barriers.
    pub window_secs: f64,
}

impl Default for ParallelOpts {
    fn default() -> Self {
        ParallelOpts {
            threads: available_threads(),
            window_secs: 5.0,
        }
    }
}

/// The machine's available parallelism (1 if unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run every shard to `horizon` in bounded windows on `opts.threads`
/// workers, with one observer per shard (`observers[i]` watches
/// `shards[i]` — e.g. a per-shard invariant checker), and merge the
/// shard reports into the fleet-wide [`RunReport`]. Each observer's
/// [`Observer::on_finish`] runs on its shard's engine right after that
/// shard's report is built. Returns the merged report and the finished
/// `(shard, observer)` pairs.
///
/// If any observer stops its shard, the remaining shards halt at the
/// next window barrier: every shard that ran on is finished at that
/// barrier (the stopped one at its abort instant), and the merged
/// report reflects the partial run up to the latest shard horizon. So
/// a stopped run still reports more than the same stop on one engine,
/// but never past the barrier it reached.
pub fn run_sharded_observed<O: Observer + Send>(
    mut shards: Vec<Shard>,
    observers: Vec<O>,
    shape: FleetShape,
    horizon: SimTime,
    opts: ParallelOpts,
) -> (RunReport, Vec<(Shard, O)>) {
    assert_eq!(shards.len(), observers.len(), "one observer per shard");
    for s in &mut shards {
        s.engine.enable_load_log();
    }
    let threads = opts.threads.clamp(1, shards.len().max(1));
    let window_secs = if opts.window_secs.is_finite() && opts.window_secs > 0.0 {
        opts.window_secs
    } else {
        5.0
    };
    // (shard, observer, stopped) per slot; a Mutex per slot lets idle
    // workers steal whichever shard is next without partitioning.
    let slots: Vec<Mutex<(Shard, O, bool)>> = shards
        .into_iter()
        .zip(observers)
        .map(|(s, o)| Mutex::new((s, o, false)))
        .collect();
    let mut windows = 0u64;
    let mut t_end = SimTime::ZERO;
    let mut any_stopped = false;
    while t_end < horizon && !any_stopped {
        windows += 1;
        let next = SimTime::ZERO + SimDuration::from_secs_f64(window_secs).mul_f64(windows as f64);
        t_end = next.min(horizon);
        if threads == 1 {
            for slot in &slots {
                let (shard, obs, stopped) = &mut *slot.lock().expect("shard lock");
                if !*stopped {
                    *stopped = shard.engine.step_until(t_end, obs) == RunControl::Stop;
                }
            }
        } else {
            let claim = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        let i = claim.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        let (shard, obs, stopped) = &mut *slot.lock().expect("shard lock");
                        if !*stopped {
                            *stopped = shard.engine.step_until(t_end, obs) == RunControl::Stop;
                        }
                    });
                }
            });
        }
        // Window barrier: the switch aggregate is the only resource
        // shards share. Sum the live rate every shard is pushing and
        // hold it against the fabric's switch capacity — on a fabric
        // the partitioner admitted (switch ≥ 2× summed NIC capacity)
        // this cannot bind, and a violation means the partition was
        // unsound, which is a bug worth dying loudly for.
        let mut switch_load = 0.0f64;
        for slot in &slots {
            let (shard, _, stopped) = &*slot.lock().expect("shard lock");
            switch_load += shard.engine.network().rate_total();
            any_stopped |= *stopped;
        }
        assert!(
            switch_load <= shape.switch_capacity * (1.0 + 1e-9) + 1.0,
            "window barrier: summed shard rate {switch_load} B/s exceeds \
             the switch aggregate {} B/s — unsound partition",
            shape.switch_capacity
        );
    }
    let mut finished = Vec::with_capacity(slots.len());
    let mut reports = Vec::with_capacity(slots.len());
    for slot in slots {
        let (mut shard, mut obs, stopped) = slot.into_inner().expect("shard lock");
        reports.push(shard.engine.finish_run(t_end, stopped));
        obs.on_finish(&shard.engine);
        finished.push((shard, obs));
    }
    let merged = merge_reports(&finished, &reports, &shape);
    (merged, finished)
}

/// Merge per-shard reports into the fleet-wide report, every record
/// re-keyed to global identity; its horizon is the latest shard's. See
/// the module docs for why each field is bit-identical to the
/// monolithic engine's.
fn merge_reports<O>(shards: &[(Shard, O)], reports: &[RunReport], shape: &FleetShape) -> RunReport {
    let mut migrations: Vec<Option<MigrationRecord>> = vec![None; shape.jobs as usize];
    let mut vms: Vec<Option<VmRecord>> = vec![None; shape.vms as usize];
    let mut sla_jobs: Vec<Option<crate::qos::SlaJob>> = vec![None; shape.jobs as usize];
    let mut planner = Vec::new();
    let mut horizon_seen = SimTime::ZERO;
    for ((shard, _), rep) in shards.iter().zip(reports) {
        horizon_seen = horizon_seen.max(rep.horizon);
        debug_assert!(
            rep.planner_skips.is_empty() && rep.rebalance.is_empty() && rep.resilience.is_empty(),
            "the partitioner only admits scenarios without orchestrated \
             intents, rebalancing or resilience state"
        );
        for (local, rec) in rep.migrations.iter().enumerate() {
            let mut rec = rec.clone();
            rec.vm = shard.vms[rec.vm as usize];
            migrations[shard.jobs[local] as usize] = Some(rec);
        }
        for rec in &rep.vms {
            let mut rec = rec.clone();
            let global = shard.vms[rec.vm as usize];
            rec.vm = global;
            rec.final_host = shard.nodes[rec.final_host as usize];
            vms[global as usize] = Some(rec);
        }
        for job in &rep.sla.jobs {
            let mut job = *job;
            job.job = shard.jobs[job.job as usize];
            job.vm = shard.vms[job.vm as usize];
            sla_jobs[job.job as usize] = Some(job);
        }
        for dec in &rep.planner {
            let mut dec = dec.clone();
            debug_assert!(
                dec.request.is_none(),
                "orchestrated requests are not shardable"
            );
            dec.job = shard.jobs[dec.job as usize];
            dec.vm = shard.vms[dec.vm as usize];
            dec.source = shard.nodes[dec.source as usize];
            dec.dest = shard.nodes[dec.dest as usize];
            planner.push(dec);
        }
    }
    // Admission order: the monolithic loop pops equal-time
    // `MigrationStart` events in schedule order — ascending job index —
    // and each admits synchronously, so `(decided_at, job)` is exactly
    // its decision order.
    planner.sort_by_key(|d| (d.decided_at, d.job));
    let traffic: Vec<(TrafficTag, u64)> = TrafficTag::ALL
        .iter()
        .map(|&t| (t, reports.iter().map(|r| r.traffic_for(t)).sum()))
        .collect();
    let logs: Vec<&[(SimTime, u32)]> = shards
        .iter()
        .map(|(s, _)| s.engine.network().load_log())
        .collect();
    RunReport {
        horizon: horizon_seen,
        migrations: migrations
            .into_iter()
            .map(|m| m.expect("partition covers every migration job"))
            .collect(),
        vms: vms
            .into_iter()
            .map(|v| v.expect("partition covers every VM"))
            .collect(),
        planner,
        planner_skips: Vec::new(),
        rebalance: Vec::new(),
        resilience: Vec::new(),
        sla: crate::qos::SlaReport::from_jobs(
            sla_jobs
                .into_iter()
                .map(|j| j.expect("partition covers every SLA row"))
                .collect(),
        ),
        traffic,
        total_traffic: reports.iter().map(|r| r.total_traffic).sum(),
        migration_traffic: reports.iter().map(|r| r.migration_traffic).sum(),
        events: reports.iter().map(|r| r.events).sum(),
        peak_flows: merged_peak(&logs, horizon_seen) as u64,
    }
}

/// Reconstruct the global concurrent-flow peak from per-shard
/// changepoint logs: a k-way sweep over `(time, count)` entries, taking
/// the summed count at the end of every instant at which any shard's
/// flow set changed. This reproduces the monolithic engine's
/// end-of-instant sampling exactly — including its blind spot for an
/// instant coinciding with the horizon, which no later advance samples.
fn merged_peak(logs: &[&[(SimTime, u32)]], horizon: SimTime) -> usize {
    let mut idx = vec![0usize; logs.len()];
    let mut cur = vec![0u64; logs.len()];
    let mut total = 0u64;
    let mut peak = 0u64;
    while let Some(t) = logs
        .iter()
        .zip(&idx)
        .filter_map(|(log, &i)| log.get(i).map(|e| e.0))
        .min()
    {
        for (k, log) in logs.iter().enumerate() {
            while idx[k] < log.len() && log[idx[k]].0 == t {
                let n = log[idx[k]].1 as u64;
                total = total - cur[k] + n;
                cur[k] = n;
                idx[k] += 1;
            }
        }
        if t < horizon {
            peak = peak.max(total);
        }
    }
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn merged_peak_sums_concurrent_shards() {
        // Shard A: 1 flow during [0, 10), Shard B: 2 flows during [5, 8).
        let a: Vec<(SimTime, u32)> = vec![(t(0.0), 1), (t(10.0), 0)];
        let b: Vec<(SimTime, u32)> = vec![(t(5.0), 2), (t(8.0), 0)];
        assert_eq!(merged_peak(&[&a, &b], t(100.0)), 3);
    }

    #[test]
    fn merged_peak_ignores_instants_at_the_horizon() {
        // A changepoint exactly at the horizon is never sampled by the
        // monolithic engine either.
        let a: Vec<(SimTime, u32)> = vec![(t(0.0), 1), (t(10.0), 5)];
        assert_eq!(merged_peak(&[&a], t(10.0)), 1);
        assert_eq!(merged_peak(&[&a], t(11.0)), 5);
    }
}
