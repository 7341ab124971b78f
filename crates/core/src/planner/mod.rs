//! Cluster-level migration planning: the layer between scenario intent
//! and the engine.
//!
//! The paper's central claim is that the *right* storage-transfer scheme
//! depends on the workload's I/O intensity (§4, §5.2). At cluster scale
//! a second decision dominates end-to-end cost: *when* and *how many*
//! migrations run concurrently (Baruchi et al., Voorsluys et al.). This
//! module makes both decisions first-class:
//!
//! * The configured [`PlannerKind`] receives migration requests —
//!   explicit jobs as well as high-level intents like "evacuate node N"
//!   or "rebalance group G" ([`RequestIntent`]) — together with live
//!   per-VM I/O telemetry (windowed write/read rates sampled from the
//!   workload hooks) and per-node load, and decides **destination
//!   placement** and, for every job it admits, **which of the transfer
//!   schemes to use** (the fixed planner keeps the VM's own).
//! * The engine's orchestration layer (`engine::orchestrator`) drains a
//!   request queue through the planner under a configurable
//!   max-concurrent-migrations **admission cap**
//!   ([`OrchestratorConfig::max_concurrent`]): ready requests past the
//!   cap are held (visible as planner-queued jobs) and admitted in
//!   deterministic FIFO order as slots free up.
//!
//! Three planners are built in, chosen by `[orchestrator] planner`:
//! [`PlannerKind::Fixed`] — the trivial planner that reproduces the
//! engine's historical explicit scheduling — the load-aware
//! [`PlannerKind::Adaptive`], which places onto the least-loaded healthy
//! node and operationalizes the paper's §4 decision rule by picking the
//! transfer scheme from observed write intensity, and the predictive
//! [`PlannerKind::Cost`], which places the same way, estimates
//! per-scheme migration time and bytes-on-wire from an analytic model
//! over the same telemetry (the paper's §5.2 dirty-rate × threshold
//! analysis) and admits the argmin — recording the per-scheme estimates
//! on the [`PlannerDecision`] so reports show *why* a scheme won.
//!
//! Everything here is deterministic: no randomness, ties broken by the
//! lowest index, so two runs of the same scenario produce bit-identical
//! reports (the property `lsm/tests/determinism.rs` pins).

mod adaptive;
pub mod bounds;
mod cost;

use crate::policy::StrategyKind;
use lsm_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

/// A high-level migration intent submitted to the orchestrator.
///
/// Unlike an explicit migration (one VM, one destination), an intent
/// names an *outcome*; the planner expands it into concrete per-VM
/// migrations — choosing destinations and strategies — when the
/// request becomes ready.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RequestIntent {
    /// Migrate every live VM off `node` (decommission / maintenance).
    /// VMs are evacuated in ascending index order; each placement is
    /// decided when the VM is admitted, so later placements see the
    /// load the earlier ones created.
    Evacuate {
        /// The node to drain.
        node: u32,
    },
    /// Even out the placement of workload group `group`: members whose
    /// host carries a load exceeding the best alternative by more than
    /// one VM are migrated to the planner's placement choice.
    Rebalance {
        /// The workload-group index (deployment order).
        group: u32,
    },
}

impl RequestIntent {
    /// Short human-readable label for logs and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            RequestIntent::Evacuate { .. } => "evacuate",
            RequestIntent::Rebalance { .. } => "rebalance",
        }
    }
}

/// Which planner the orchestrator uses: it decides placement (for
/// intents, retries and re-plans) and the strategy of every job it
/// admits.
///
/// Every decision is deterministic (no clocks, no RNG; ties break on
/// the lowest index): planner decisions are part of the engine's
/// bit-identical replay contract.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlannerKind {
    /// Admits requests exactly as given: explicit migrations keep their
    /// destination and strategy; intent-driven placements take the
    /// first healthy node other than the VM's host (lowest index,
    /// load-blind). The historical `Engine::schedule_migration`
    /// behaviour is this planner under an unlimited admission cap.
    #[default]
    Fixed,
    /// Least-loaded placement; every job gets the scheme the paper's §4
    /// rule picks from the VM's windowed write and read intensity (the
    /// rule is in the `adaptive` module).
    Adaptive,
    /// Least-loaded placement; every job gets the scheme whose
    /// predicted migration cost (time + traffic, from the analytic
    /// model in the `cost` module) is lowest.
    Cost,
}

impl PlannerKind {
    /// Lowercase name (the serialized form).
    pub fn label(self) -> &'static str {
        match self {
            PlannerKind::Fixed => "fixed",
            PlannerKind::Adaptive => "adaptive",
            PlannerKind::Cost => "cost",
        }
    }

    /// Whether this planner reads per-VM I/O telemetry: it needs the
    /// sampling loop armed, and it picks each job's strategy from the
    /// rates instead of keeping the VM's.
    pub fn uses_telemetry(self) -> bool {
        !matches!(self, PlannerKind::Fixed)
    }

    /// Choose a destination for a VM on `host` (intent, retry and
    /// re-plan placement): a healthy node other than `host`, or `None`
    /// when there is none. `Fixed` takes the first such node; the
    /// others take the least loaded, ties to the lowest index.
    pub(crate) fn place(self, host: u32, nodes: &[NodeView]) -> Option<u32> {
        let mut healthy = nodes.iter().filter(|n| !n.crashed && n.node != host);
        match self {
            PlannerKind::Fixed => healthy.next(),
            PlannerKind::Adaptive | PlannerKind::Cost => healthy.min_by_key(|n| (n.load, n.node)),
        }
        .map(|n| n.node)
    }

    /// Resolve the transfer strategy for a request on `ctx.vm`, with
    /// the per-scheme estimates behind it (empty unless `Cost` chose).
    /// `Fixed` never second-guesses the VM's configured strategy.
    pub(crate) fn choose(self, ctx: &PlanContext) -> (StrategyKind, Vec<SchemeEstimate>) {
        match self {
            PlannerKind::Fixed => (ctx.vm.strategy, Vec::new()),
            PlannerKind::Adaptive => (adaptive::choose(ctx), Vec::new()),
            PlannerKind::Cost => cost::choose(ctx),
        }
    }
}

impl serde::Serialize for PlannerKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

impl serde::Deserialize for PlannerKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) if s.eq_ignore_ascii_case("fixed") => Ok(PlannerKind::Fixed),
            serde::Value::Str(s) if s.eq_ignore_ascii_case("adaptive") => Ok(PlannerKind::Adaptive),
            serde::Value::Str(s) if s.eq_ignore_ascii_case("cost") => Ok(PlannerKind::Cost),
            serde::Value::Str(s) => Err(serde::Error::new(format!(
                "unknown planner `{s}` (expected `fixed`, `adaptive` or `cost`)"
            ))),
            other => Err(serde::Error::new(format!(
                "expected planner name string, found {}",
                other.kind()
            ))),
        }
    }
}

/// Orchestrator tuning: the admission cap and the placement/strategy
/// planner.
///
/// Deserialization fills absent fields from
/// [`OrchestratorConfig::default`], so a scenario's `[orchestrator]`
/// section only spells out the knobs it changes (like `[cluster]`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct OrchestratorConfig {
    /// Maximum concurrently running migrations (`None` — the default —
    /// admits everything immediately, reproducing the engine's
    /// historical behaviour). Ready requests beyond the cap are held in
    /// FIFO order and admitted as running jobs reach a terminal status.
    pub max_concurrent: Option<u32>,
    /// Which planner decides placement and strategy.
    pub planner: PlannerKind,
}

impl OrchestratorConfig {
    /// Check every field for usability (the orchestration analogue of
    /// [`crate::config::ClusterConfig::validate`]).
    pub fn validate(&self) -> Result<(), crate::error::EngineError> {
        if self.max_concurrent == Some(0) {
            return Err(crate::error::EngineError::InvalidRequest {
                reason: "max_concurrent of 0 would never admit a migration".to_string(),
            });
        }
        Ok(())
    }
}

/// Width of the per-VM I/O telemetry sampling window, seconds. The
/// windowed rates the adaptive and cost rules read cover the last full
/// window before the decision instant.
pub(crate) const TELEMETRY_WINDOW_SECS: f64 = 5.0;

/// One node as placement sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NodeView {
    /// The node index.
    pub node: u32,
    /// True once a crash fault took the node down.
    pub crashed: bool,
    /// Live VMs resident on the node plus admitted inbound migrations
    /// still heading there.
    pub load: u32,
}

/// The VM a strategy rule is deciding about.
///
/// The windowed rates cover the last full telemetry window before the
/// decision instant; when no telemetry tick has sampled the VM yet
/// (admission earlier than the first window boundary), the orchestrator
/// samples the cumulative counters on demand, so a freshly admitted hot
/// writer is never misread as idle.
#[derive(Clone, Copy, Debug)]
pub(crate) struct VmView {
    /// Its configured storage transfer strategy.
    pub strategy: StrategyKind,
    /// Windowed write rate, bytes/second.
    pub write_rate: f64,
    /// Windowed read rate, bytes/second.
    pub read_rate: f64,
    /// Windowed dirty-set growth, bytes/second: the rate at which the
    /// guest touches *previously clean* chunks (ModifiedSet growth × the
    /// chunk size).
    pub dirty_rate: f64,
    /// Windowed re-write (overwrite) rate, bytes/second: manager-level
    /// writes landing on already-modified chunks — the paper's real
    /// threshold signal. High `rewrite_rate` with low `dirty_rate` is a
    /// hot working set that pre-copy streams re-send forever and the
    /// hybrid scheme withholds.
    pub rewrite_rate: f64,
    /// Bytes with any local presence (modified or cached base) — what a
    /// `Precopy`/`Mirror` bulk phase must copy.
    pub local_bytes: u64,
    /// Bytes of locally *written* chunks (the ModifiedSet) — what
    /// `Hybrid`/`Postcopy` must move; cached base content is re-fetched
    /// from the repository by the destination instead.
    pub modified_bytes: u64,
}

/// Everything a strategy rule may consult for one decision. Views only —
/// a rule cannot mutate the engine, which keeps decisions replayable.
#[derive(Debug)]
pub(crate) struct PlanContext {
    /// Per-NIC bandwidth, bytes/second (the adaptive thresholds are
    /// fractions of it).
    pub nic_bw: f64,
    /// True when the cluster migrates memory with post-copy: pre-copy
    /// style storage strategies (`Precopy`, `Mirror`) cannot run there,
    /// and an adaptive rule must not select them.
    pub postcopy_memory: bool,
    /// The cluster's push `Threshold` (a chunk written this many times
    /// is withheld from the hybrid active push) — the cost model's
    /// bound on re-push traffic.
    pub threshold: u32,
    /// The VM being strategized.
    pub vm: VmView,
}

/// One candidate scheme's predicted migration cost, as computed by the
/// cost planner ([`PlannerKind::Cost`]) at admission time and recorded
/// on the [`PlannerDecision`] (so `lsm run --json` shows *why* a scheme
/// won).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SchemeEstimate {
    /// The candidate scheme.
    pub strategy: StrategyKind,
    /// Predicted storage migration time, seconds.
    pub est_time_secs: f64,
    /// Predicted storage bytes-on-wire.
    pub est_bytes: u64,
    /// Predicted SLA-violation seconds: the guest-degradation fraction
    /// the scheme imposes (read-stall exposure for the pull styles,
    /// wire contention for the pre-copy styles), integrated over the
    /// predicted time. Reported only; the score does not read it.
    pub est_sla_secs: f64,
    /// The scalar score the argmin ran on: `est_time_secs + est_bytes
    /// / GiB` (before the bytes are rounded).
    pub score: f64,
}

/// One planner decision, recorded in scheduling order and serialized
/// into [`crate::engine::RunReport`] (`lsm run --json` exposes it).
#[derive(Clone, Debug, Serialize)]
pub struct PlannerDecision {
    /// The orchestrator request this decision realizes (`None` for an
    /// explicitly scheduled migration).
    pub request: Option<u32>,
    /// The migration job the decision admitted.
    pub job: u32,
    /// The migrating VM.
    pub vm: u32,
    /// Source node at the decision instant.
    pub source: u32,
    /// Chosen destination node.
    pub dest: u32,
    /// Chosen transfer strategy.
    pub strategy: StrategyKind,
    /// When the decision was made (the admission instant).
    pub decided_at: SimTime,
    /// True when admission was deferred past the request's ready time
    /// by the concurrency cap.
    pub deferred: bool,
    /// Name of the deciding planner.
    pub planner: &'static str,
    /// Per-scheme cost estimates behind the strategy choice (empty
    /// unless the cost planner resolved the strategy).
    pub estimates: Vec<SchemeEstimate>,
}

/// Why an intent-expanded migration step was skipped instead of
/// admitted. Skips are recorded in
/// [`crate::engine::RunReport::planner_skips`] so an intent that moved
/// fewer VMs than expected is auditable, not silent.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum SkipReason {
    /// The VM died (its host crashed) while the step was queued.
    VmCrashed,
    /// An explicit migration job raced the intent and already owns the
    /// VM.
    AlreadyMigrating,
    /// Evacuation only: the VM already left the drained node before the
    /// step was admitted.
    AlreadyOffNode,
    /// Rebalance only: moving the VM would no longer improve the load
    /// spread (host ≤ target + 1 after the move).
    SpreadSatisfied,
    /// No healthy destination existed at this attempt; the step is
    /// parked and retried on the next queue drain (slot release, new
    /// request, node restore).
    NoDestination,
    /// Every retry found no healthy destination; the step is abandoned
    /// (after four placement attempts).
    PlacementExhausted,
}

/// One skipped intent step (see [`SkipReason`]), recorded in admission
/// order alongside [`PlannerDecision`]s.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct PlannerSkip {
    /// The orchestrator request whose step was skipped.
    pub request: u32,
    /// The VM the step would have migrated.
    pub vm: u32,
    /// When the skip was decided.
    pub at: SimTime,
    /// Why the step was skipped.
    pub reason: SkipReason,
    /// True when the step will not be retried (the intent is resolved
    /// for this VM — by the skip itself or by retry exhaustion).
    pub terminal: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(vm: VmView) -> PlanContext {
        PlanContext {
            nic_bw: 100.0e6,
            postcopy_memory: false,
            threshold: 3,
            vm,
        }
    }

    fn nodes(loads: &[(bool, u32)]) -> Vec<NodeView> {
        loads
            .iter()
            .enumerate()
            .map(|(i, &(crashed, load))| NodeView {
                node: i as u32,
                crashed,
                load,
            })
            .collect()
    }

    fn vm(write_rate: f64, read_rate: f64) -> VmView {
        VmView {
            strategy: StrategyKind::Hybrid,
            write_rate,
            read_rate,
            dirty_rate: 0.0,
            rewrite_rate: write_rate,
            local_bytes: 64 << 20,
            modified_bytes: 64 << 20,
        }
    }

    #[test]
    fn fixed_planner_places_first_healthy_other_node() {
        let nv = nodes(&[(false, 3), (true, 0), (false, 9), (false, 0)]);
        let p = PlannerKind::Fixed;
        assert_eq!(p.place(0, &nv), Some(2));
        assert_eq!(p.place(2, &nv), Some(0));
        // Only crashed alternatives: no placement.
        let nv = nodes(&[(false, 0), (true, 0)]);
        assert_eq!(p.place(0, &nv), None);
        // The configured strategy stands, with no estimates.
        let (s, estimates) = p.choose(&ctx(vm(100.0e6, 0.0)));
        assert_eq!(s, StrategyKind::Hybrid);
        assert!(estimates.is_empty());
    }

    #[test]
    fn adaptive_planner_places_least_loaded() {
        let nv = nodes(&[(false, 1), (false, 4), (true, 0), (false, 1)]);
        for p in [PlannerKind::Adaptive, PlannerKind::Cost] {
            // Tie between 0 and 3 at load 1, but 0 is the host: pick 3.
            assert_eq!(p.place(0, &nv), Some(3));
            // From node 1, the tie breaks to the lowest index.
            assert_eq!(p.place(1, &nv), Some(0));
        }
    }

    #[test]
    fn adaptive_rule_covers_the_intensity_spectrum() {
        let nic = 100.0e6;
        let choose = |w: f64, r: f64| {
            let (s, estimates) = PlannerKind::Adaptive.choose(&ctx(vm(w, r)));
            assert!(estimates.is_empty(), "the adaptive rule predicts nothing");
            s
        };
        // Write-heavy: the paper's hybrid scheme.
        assert_eq!(choose(0.10 * nic, 0.0), StrategyKind::Hybrid);
        // Light writer: synchronous mirroring.
        assert_eq!(choose(0.01 * nic, 0.0), StrategyKind::Mirror);
        // Read-mostly: storage post-copy.
        assert_eq!(choose(0.0, 0.2 * nic), StrategyKind::Postcopy);
        // Idle: incremental block pre-copy converges immediately.
        assert_eq!(choose(0.0, 0.0), StrategyKind::Precopy);
    }

    #[test]
    fn adaptive_rule_respects_postcopy_memory() {
        for (w, r) in [(0.0, 0.0), (0.01, 0.0), (0.10, 0.0), (0.0, 0.2)] {
            let mut c = ctx(vm(w * 100.0e6, r * 100.0e6));
            c.postcopy_memory = true;
            let (s, _) = PlannerKind::Adaptive.choose(&c);
            assert!(
                matches!(s, StrategyKind::Hybrid | StrategyKind::Postcopy),
                "post-copy memory admits no pre-copy storage stream, got {s:?}"
            );
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = OrchestratorConfig::default();
        assert!(ok.validate().is_ok());
        let bad = OrchestratorConfig {
            max_concurrent: Some(0),
            ..ok
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn orchestrator_config_partial_deserialization() {
        let v = serde::Value::Map(vec![(
            "planner".to_string(),
            serde::Value::Str("Adaptive".to_string()),
        )]);
        let cfg = <OrchestratorConfig as serde::Deserialize>::from_value(&v).expect("partial");
        assert_eq!(cfg.max_concurrent, None);
        assert_eq!(cfg.planner, PlannerKind::Adaptive);
        let bad = serde::Value::Map(vec![("max_conc".to_string(), serde::Value::U64(4))]);
        let err = <OrchestratorConfig as serde::Deserialize>::from_value(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown OrchestratorConfig field"));
    }
}
