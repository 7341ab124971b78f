//! # lsm-experiments — regenerating the paper's evaluation
//!
//! One module per figure of Nicolae & Cappello (HPDC'12), §5:
//!
//! * [`fig3`] — live migration of one I/O-intensive VM (IOR, AsyncWR):
//!   migration time, network traffic, normalized throughput.
//! * [`fig4`] — 30 AsyncWR sources, 1–30 simultaneous migrations:
//!   average migration time, total traffic, compute degradation.
//! * [`fig5`] — CM1 on 64 ranks, 1–7 successive migrations: cumulated
//!   migration time, migration-attributable traffic, runtime increase.
//! * [`ablations`] — design-choice sweeps the paper motivates but does
//!   not plot: the push `Threshold`, prefetch prioritization, and the
//!   transfer pipeline window.
//! * [`stress`] — paper-scale performance scenarios (`scale64`: 64
//!   nodes, 128 VMs, 128 staggered migrations; `scale1024`: 1024
//!   nodes), shipped as scenario files and timed by `lsmbench`.
//! * [`faults`] — migrations under degraded and failing conditions
//!   (destination crashes, link-degradation windows, transfer stalls,
//!   deadlines), with the recovery contract pinned by tests and the
//!   `lsm-check` invariant observer.
//! * [`orchestration`] — cluster-orchestration scenarios: node
//!   evacuation under an admission cap, and a 64-VM fleet whose
//!   migrations pick their transfer scheme adaptively from live write
//!   intensity (the paper's §4 decision at fleet scale) — under the
//!   threshold rule (`adaptive64`) and the predictive cost model
//!   (`cost64`).
//! * [`autonomic`] — closed-loop rebalancer scenarios with **zero**
//!   scripted migrations: a hotspot drill (overloaded node relieved by
//!   monitor-originated moves, hot-phase writers deferred until the
//!   deadline) and a slow drain (underloaded node consolidated empty).
//! * [`judge`] — the planner judge harness: the same fleet under
//!   `adaptive` vs `cost`, scored on completion makespan and bytes
//!   moved (`lsm judge`).
//! * [`resilience`] — the resilience-layer scenarios: a chaos storm
//!   (six migrations under crashes, degradations, stalls, a restore
//!   and a cancellation, all terminal under a retry policy, with
//!   resumed transfers) and an auto-converge drill (a hot guest saved
//!   from its deadline by stepped throttling).
//!
//! Every experiment offers two scales: [`Scale::Paper`] reproduces the
//! paper's parameters; [`Scale::Quick`] is a minutes→seconds reduction
//! with the same qualitative behaviour, used by integration tests.
//!
//! [`scenario`] has the declarative, TOML/JSON-serializable run
//! descriptions ([`scenario::ScenarioSpec`]) and the checked runner
//! every experiment goes through, [`table`] the plain text/CSV
//! renderers, and [`sweep`] a scoped-thread parallel run launcher.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod autonomic;
pub mod faults;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod judge;
pub mod orchestration;
pub mod resilience;
pub mod scenario;
pub mod shard;
pub mod stress;
pub mod sweep;
pub mod table;

/// The shipped `scenarios/` directory of the source tree.
pub const SCENARIOS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");

/// Every generated file under `scenarios/` with its producer, by file
/// name: all shipped scenarios but the hand-written `demo.toml`.
/// `cargo run -p lsm-experiments --example regen` writes them, and
/// [`check_generated`] keeps each file byte-identical to its producer.
pub fn generated_scenarios() -> Vec<(&'static str, scenario::ScenarioSpec)> {
    vec![
        ("adaptive64.toml", orchestration::adaptive64_spec()),
        ("chaos_storm.toml", resilience::chaos_storm_spec()),
        ("cost64.toml", orchestration::cost64_spec()),
        ("evacuate.toml", orchestration::evacuate_spec()),
        ("fault_deadline.toml", faults::deadline_spec()),
        ("fault_degraded_link.toml", faults::degraded_link_spec()),
        ("fault_dest_crash.toml", faults::dest_crash_spec()),
        ("hotspot_drill.toml", autonomic::hotspot_drill_spec()),
        ("qos64.toml", orchestration::qos64_spec()),
        ("scale1024.toml", stress::scale1024_spec()),
        ("scale64.toml", stress::scale64_spec()),
        ("slow_drain.toml", autonomic::slow_drain_spec()),
    ]
}

/// Checks that each of `files` under [`SCENARIOS_DIR`] is its
/// producer's serialization in [`generated_scenarios`], byte for byte,
/// and parses back to that producer. The error names the file and the
/// `regen` example that rewrites it.
pub fn check_generated(files: &[&str]) -> Result<(), String> {
    let generated = generated_scenarios();
    for file in files {
        let (_, spec) = generated
            .iter()
            .find(|(f, _)| f == file)
            .ok_or_else(|| format!("{file} is not in generated_scenarios()"))?;
        let path = format!("{SCENARIOS_DIR}/{file}");
        let on_disk =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let produced = spec.to_toml().map_err(|e| format!("{file}: {e}"))?;
        if on_disk != produced {
            return Err(format!(
                "scenarios/{file} drifted from its producer; regenerate with \
                 `cargo run -p lsm-experiments --example regen`"
            ));
        }
        if scenario::ScenarioSpec::from_toml(&on_disk).ok().as_ref() != Some(spec) {
            return Err(format!(
                "scenarios/{file} does not parse back to its producer"
            ));
        }
    }
    Ok(())
}

/// Experiment scale: the paper's parameters or a fast test reduction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Full parameters from §5 of the paper.
    Paper,
    /// Shrunk workloads/cluster for CI and unit tests.
    Quick,
}
