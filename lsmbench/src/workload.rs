//! The benchmark's workloads: where each scenario comes from, how it is
//! set up (timed: parse, derive, partition, build) and how it is run
//! (timed: first `step_until` to the finished report).

use crate::trace::Spans;
use lsm_core::parallel::{run_sharded_observed, FleetShape, ParallelOpts, Shard};
use lsm_core::{Engine, Observer, RunControl, RunReport};
use lsm_experiments::scenario::{build_scenario, ScenarioSpec};
use lsm_experiments::shard::partition;
use lsm_netsim::Topology;
use lsm_simcore::rng::DetRng;
use lsm_simcore::time::SimTime;
use lsm_simcore::units::MIB;
use lsm_workloads::{IorParams, WorkloadSpec};
use std::time::Instant;

/// Where a workload's scenario comes from.
pub enum Source {
    /// A shipped scenario file. `keep_nodes` trims the fleet to the VMs
    /// (and their migrations) hosted on the first `keep_nodes` nodes; the
    /// cluster itself — node count, fabric — stays as shipped.
    Shipped {
        path: &'static str,
        keep_nodes: Option<u32>,
    },
    /// The seeded read-mix generator over a shipped scenario's cluster
    /// and migration stagger (see [`readmix`]).
    Readmix { base: &'static str },
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub source: Source,
    /// Engine worker threads (1 = the monolithic engine).
    pub threads: usize,
}

/// Nodes kept of `scale1024`'s 1024: 64 of its 512 two-node components,
/// so one monolithic run fits several times into a measured run while
/// every network re-solve still pays for the full 1024-node fabric.
const FLEET1024_NODES: u32 = 64;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fleet1024",
        source: Source::Shipped {
            path: "scenarios/scale1024.toml",
            keep_nodes: Some(FLEET1024_NODES),
        },
        threads: 1,
    },
    Workload {
        name: "fleet1024-t2",
        source: Source::Shipped {
            path: "scenarios/scale1024.toml",
            keep_nodes: Some(FLEET1024_NODES),
        },
        threads: 2,
    },
    Workload {
        name: "hybrid64",
        source: Source::Shipped {
            path: "scenarios/scale64.toml",
            keep_nodes: None,
        },
        threads: 1,
    },
    Workload {
        name: "readmix64",
        source: Source::Readmix {
            base: "scenarios/scale64.toml",
        },
        threads: 1,
    },
    Workload {
        name: "qos64",
        source: Source::Shipped {
            path: "scenarios/qos64.toml",
            keep_nodes: None,
        },
        threads: 1,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The scenario file this workload reads.
    pub fn path(&self) -> &'static str {
        match self.source {
            Source::Shipped { path, .. } => path,
            Source::Readmix { base } => base,
        }
    }

    /// How many distinct inputs one seed gives: [`READMIX_VARIANTS`] for
    /// the generator, 1 for a shipped scenario.
    pub fn variants(&self) -> usize {
        match self.source {
            Source::Shipped { .. } => 1,
            Source::Readmix { .. } => READMIX_VARIANTS,
        }
    }

    /// Scenario text → spec of input `variant` of `seed`: parse, then
    /// trim or generate.
    pub fn spec(&self, text: &str, seed: u64, variant: usize) -> Result<ScenarioSpec, String> {
        let spec = ScenarioSpec::from_toml(text).map_err(|e| format!("{}: {e}", self.path()))?;
        Ok(match self.source {
            Source::Shipped {
                keep_nodes: Some(n),
                ..
            } => trim(spec, n),
            Source::Shipped { .. } => spec,
            Source::Readmix { .. } => readmix(&spec, variant_seed(seed, variant)),
        })
    }
}

/// Generated inputs per seed of `readmix64`. In 4 of 20 seeds tried,
/// the reader streams moved the p90 migration time from about 16.5 s to
/// 15.0 s, so one draw per seed would make the tail a coin toss; the
/// benchmark reports the median over these draws.
pub const READMIX_VARIANTS: usize = 5;

/// The generator seed of input `variant` of `seed` (variant 0 is `seed`).
pub fn variant_seed(seed: u64, variant: usize) -> u64 {
    seed.wrapping_add((variant as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Keep the VMs hosted on nodes `< keep_nodes` and the migrations of
/// those VMs, re-indexed densely; the cluster is unchanged.
fn trim(mut spec: ScenarioSpec, keep_nodes: u32) -> ScenarioSpec {
    let mut new_index = vec![None; spec.vms.len()];
    let mut kept = 0u32;
    for (i, v) in spec.vms.iter().enumerate() {
        if v.node < keep_nodes {
            new_index[i] = Some(kept);
            kept += 1;
        }
    }
    spec.vms.retain(|v| v.node < keep_nodes);
    spec.migrations
        .retain_mut(|m| match new_index[m.vm as usize] {
            Some(vm) => {
                m.vm = vm;
                true
            }
            None => false,
        });
    spec
}

/// `readmix64`: the base scenario's cluster (guest RAM cut to
/// [`READMIX_RAM`]), VM placement and migration plan, with read-heavy
/// guests in place of its writers.
///
/// Both guests of every fourth node (32 VMs) run IOR — write a 512 MiB
/// file, read it back, three times — from 5 s before their migration, so
/// the read-back reaches the destination while the pull phase still
/// owns most of the file: on-demand pulls. The other 96 guests are Zipf
/// `HotspotMixed` readers (all reads, 512 MiB region of the base image)
/// running from 40 s before their migration; their misses are
/// repository fetches. IOR's migrations take longest, so the 32 IOR VMs
/// hold the downtime and migration-time tails and the readers the
/// medians. IOR nodes migrate to IOR nodes (`dest = node + 32`).
///
/// The seed picks every reader's access stream; nothing else.
pub fn readmix(base: &ScenarioSpec, seed: u64) -> ScenarioSpec {
    let mut spec = base.clone();
    spec.name = Some("readmix64".to_string());
    let mut cluster = spec.cluster_config();
    cluster.vm_ram = READMIX_RAM;
    spec.cluster = Some(cluster);
    let mut rng = DetRng::new(seed);
    let at: Vec<f64> = {
        let mut at = vec![0.0; spec.vms.len()];
        for m in &spec.migrations {
            at[m.vm as usize] = m.at_secs;
        }
        at
    };
    for (i, vm) in spec.vms.iter_mut().enumerate() {
        if vm.node % 4 == 0 {
            vm.workload = WorkloadSpec::Ior(IorParams {
                file_size: 512 * MIB,
                block_size: 2 * MIB,
                iterations: 3,
                file_offset: 512 * MIB,
                fsync_per_phase: false,
            });
            vm.start_secs = Some((at[i] - 5.0).max(0.0));
        } else {
            vm.workload = WorkloadSpec::HotspotMixed {
                offset: 0,
                region_blocks: 2048,
                block: 256 * 1024,
                count: 1500,
                theta: 0.9,
                read_fraction: 1.0,
                think_secs: 0.05,
                seed: rng.below(u64::MAX),
            };
            vm.start_secs = Some((at[i] - 40.0).max(0.0));
        }
    }
    spec
}

/// Guest RAM of `readmix64`: the page cache holds ¾ of it, so 512 MiB
/// leaves a 384 MiB cache that the guests' 512 MiB working sets
/// overflow — reads then miss, which is what reaches the pull path.
const READMIX_RAM: u64 = 512 * MIB;

/// A set-up, runnable simulation.
pub enum Runnable {
    Mono(Box<Engine>),
    Sharded {
        shards: Vec<Shard>,
        shape: FleetShape,
    },
}

impl Runnable {
    /// The network topology of every engine, in shard order.
    pub fn topologies(&self) -> Vec<Topology> {
        match self {
            Runnable::Mono(e) => vec![e.network().topology().clone()],
            Runnable::Sharded { shards, .. } => shards
                .iter()
                .map(|s| s.engine.network().topology().clone())
                .collect(),
        }
    }

    pub fn components(&self) -> usize {
        match self {
            Runnable::Mono(_) => 1,
            Runnable::Sharded { shards, .. } => shards.len(),
        }
    }
}

/// One timed set-up.
pub struct Setup {
    pub runnable: Runnable,
    pub horizon: SimTime,
    pub parse_s: f64,
    pub partition_s: f64,
    pub build_s: f64,
}

/// Scenario text to a runnable engine for input `variant` of `seed`,
/// each phase timed and recorded as a span under `run`.
pub fn setup(
    w: &Workload,
    text: &str,
    (seed, variant): (u64, usize),
    threads: usize,
    spans: &mut Spans,
    run: u32,
) -> Result<Setup, String> {
    let root = spans.open("setup", run, None);
    let s = spans.open("parse", run, Some(root));
    let spec = w.spec(text, seed, variant)?;
    let parse_s = spans.close(s);
    let horizon = SimTime::from_secs_f64(spec.horizon_secs);
    let (runnable, partition_s, build_s) = if threads > 1 {
        let s = spans.open("partition", run, Some(root));
        let subs = partition(&spec).map_err(|why| {
            format!(
                "{} is not shardable: {}",
                w.name,
                lsm_experiments::shard::render_rejections(&why)
            )
        })?;
        let partition_s = spans.close(s);
        let s = spans.open("build", run, Some(root));
        let mut shards = Vec::with_capacity(subs.len());
        for sub in subs {
            let sim = build_scenario(&sub.spec).map_err(|e| e.to_string())?;
            shards.push(Shard {
                engine: sim.into_engine(),
                vms: sub.vms,
                jobs: sub.jobs,
                nodes: sub.nodes,
            });
        }
        let shape = FleetShape {
            vms: spec.vms.len() as u32,
            jobs: spec.migrations.len() as u32,
            switch_capacity: spec.cluster_config().switch_bw,
        };
        let build_s = spans.close(s);
        (Runnable::Sharded { shards, shape }, partition_s, build_s)
    } else {
        let s = spans.open("build", run, Some(root));
        let sim = build_scenario(&spec).map_err(|e| e.to_string())?;
        let engine = Box::new(sim.into_engine());
        (Runnable::Mono(engine), 0.0, spans.close(s))
    };
    spans.close(root);
    Ok(Setup {
        runnable,
        horizon,
        parse_s,
        partition_s,
        build_s,
    })
}

/// One finished run.
pub struct Ran<O> {
    pub report: RunReport,
    /// First `step_until` to the finished report.
    pub run_s: f64,
    /// `finish_run` alone; `None` on the sharded runner, which finishes
    /// its shards and merges their reports in one call.
    pub finish_s: Option<f64>,
    /// When the report was ready.
    pub done: Instant,
    /// One observer per engine, in engine order.
    pub observers: Vec<O>,
}

/// Run a set-up simulation to its horizon, watched by one observer per
/// engine from `observer` (given the sharded runner's window length).
pub fn run<O: Observer + Send>(
    setup: Setup,
    threads: usize,
    spans: &mut Spans,
    run: u32,
    mut observer: impl FnMut(Option<f64>) -> O,
) -> Ran<O> {
    let root = spans.open("run", run, None);
    let t0 = Instant::now();
    let (report, finish_s, done, observers) = match setup.runnable {
        Runnable::Mono(mut eng) => {
            let mut obs = observer(None);
            let s = spans.open("step_until", run, Some(root));
            let stopped = eng.step_until(setup.horizon, &mut obs) == RunControl::Stop;
            spans.close(s);
            let s = spans.open("finish_run", run, Some(root));
            let report = eng.finish_run(setup.horizon, stopped);
            let done = Instant::now();
            (report, Some(spans.close(s)), done, vec![obs])
        }
        Runnable::Sharded { shards, shape } => {
            let opts = ParallelOpts {
                threads,
                ..ParallelOpts::default()
            };
            let observers = shards
                .iter()
                .map(|_| observer(Some(opts.window_secs)))
                .collect();
            let s = spans.open("run_sharded", run, Some(root));
            let (report, finished) =
                run_sharded_observed(shards, observers, shape, setup.horizon, opts);
            let done = Instant::now();
            spans.close(s);
            let observers = finished.into_iter().map(|(_, o)| o).collect();
            (report, None, done, observers)
        }
    };
    spans.close(root);
    Ran {
        report,
        run_s: done.duration_since(t0).as_secs_f64(),
        finish_s,
        done,
        observers,
    }
}
