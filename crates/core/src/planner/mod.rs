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
//!   placement** and, for adaptive requests, **which of the transfer
//!   schemes to use**.
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
/// migrations — choosing destinations and, under the adaptive planner,
/// strategies — when the request becomes ready.
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
/// intents, retries and re-plans) and strategy (for adaptive requests).
///
/// Every decision is deterministic (no clocks, no RNG; ties break on
/// the lowest index): planner decisions are part of the engine's
/// bit-identical replay contract.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlannerKind {
    /// Admits requests exactly as given: explicit migrations keep their
    /// destination and strategy; intent-driven placements take the
    /// first healthy node other than the VM's host (lowest index,
    /// load-blind). The historical `Engine::schedule_migration`
    /// behaviour is this planner under an unlimited admission cap.
    Fixed,
    /// Least-loaded placement; adaptive requests get the scheme the
    /// paper's §4 rule picks from the VM's windowed write and read
    /// intensity (the rule is in the `adaptive` module).
    Adaptive,
    /// Least-loaded placement; adaptive requests get the scheme whose
    /// predicted migration cost (time + weighted traffic, from the
    /// analytic model in the `cost` module) is lowest.
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

    /// Whether this planner reads per-VM I/O telemetry (and therefore
    /// needs the sampling loop armed and accepts adaptive requests).
    pub fn uses_telemetry(self) -> bool {
        !matches!(self, PlannerKind::Fixed)
    }

    /// Choose a destination for `ctx.vm` (intent, retry and re-plan
    /// placement): a healthy node other than the VM's host, or `None`
    /// when there is none. `Fixed` takes the first such node; the
    /// others take the least loaded, ties to the lowest index.
    pub(crate) fn place(self, ctx: &PlanContext<'_>) -> Option<u32> {
        let mut healthy = ctx
            .nodes
            .iter()
            .filter(|n| !n.crashed && n.node != ctx.vm.host);
        match self {
            PlannerKind::Fixed => healthy.next(),
            PlannerKind::Adaptive | PlannerKind::Cost => healthy.min_by_key(|n| (n.load, n.node)),
        }
        .map(|n| n.node)
    }

    /// Resolve the transfer strategy for a request on `ctx.vm`, with
    /// the per-scheme estimates behind it (empty unless `Cost` chose).
    /// `Fixed` never second-guesses the VM's configured strategy.
    pub(crate) fn choose(self, ctx: &PlanContext<'_>) -> (StrategyKind, Vec<SchemeEstimate>) {
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

/// Orchestrator tuning: the admission cap, the placement/strategy
/// planner, and the telemetry window the adaptive decision reads.
///
/// Deserialization fills absent fields from
/// [`OrchestratorConfig::default`], so a scenario's `[orchestrator]`
/// section only spells out the knobs it changes (like `[cluster]`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct OrchestratorConfig {
    /// Maximum concurrently running migrations (`None` — the default —
    /// admits everything immediately, reproducing the engine's
    /// historical behaviour). Ready requests beyond the cap are held in
    /// FIFO order and admitted as running jobs reach a terminal status.
    pub max_concurrent: Option<u32>,
    /// Which planner decides placement and (for adaptive requests)
    /// strategy.
    pub planner: PlannerKind,
    /// Width of the per-VM I/O telemetry sampling window, seconds. The
    /// windowed write/read rates the adaptive rule reads cover the last
    /// full window before the decision instant.
    pub telemetry_window_secs: f64,
    /// Adaptive rule: windowed write rate at or above this fraction of
    /// the NIC bandwidth selects `Hybrid` (the paper's scheme — built
    /// for I/O-intensive writers).
    pub adaptive_write_hi_frac: f64,
    /// Adaptive rule: write rates in `[lo, hi)` of the NIC select
    /// `Mirror` (synchronous mirroring is cheap for light writers).
    pub adaptive_write_lo_frac: f64,
    /// Adaptive rule: with negligible writes, a windowed read rate at or
    /// above this fraction of the NIC selects `Postcopy` (pull-on-read);
    /// below it the VM is idle and gets `Precopy` (the block stream
    /// converges immediately).
    pub adaptive_read_hi_frac: f64,
    /// Cost model: seconds of score added per GiB of predicted
    /// bytes-on-wire (the time/traffic exchange rate — 0 optimizes time
    /// alone).
    pub cost_bytes_weight: f64,
    /// Cost model: pull-phase slowdown multiplier per unit of read
    /// intensity (fraction of NIC): on-demand reads block on pulls, so
    /// a read-hot guest stretches the Hybrid/Postcopy pull phase by
    /// `1 + penalty × read_frac`.
    pub cost_ondemand_penalty: f64,
    /// Cost model: predicted time charged to a pre-copy-style scheme
    /// (Precopy, Mirror) whose re-dirty/write flux is at or above the
    /// NIC share — the non-convergent case the paper criticizes.
    pub cost_nonconverge_penalty_secs: f64,
    /// Cost model: seconds of score added per predicted SLA-violation
    /// second (guest degradation the scheme is expected to impose — see
    /// [`SchemeEstimate::est_sla_secs`]). 0 — the default — reproduces
    /// the historical time+bytes objective exactly.
    pub cost_sla_weight: f64,
    /// How many times an intent-expanded migration step whose placement
    /// found no healthy destination is retried (on later queue drains —
    /// slot releases, new requests, node restores) before the step is
    /// abandoned with a terminal [`SkipReason::PlacementExhausted`]
    /// record.
    pub placement_retry_limit: u32,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            max_concurrent: None,
            planner: PlannerKind::Fixed,
            telemetry_window_secs: 5.0,
            adaptive_write_hi_frac: 0.05,
            adaptive_write_lo_frac: 0.005,
            adaptive_read_hi_frac: 0.05,
            cost_bytes_weight: 1.0,
            cost_ondemand_penalty: 4.0,
            cost_nonconverge_penalty_secs: 1.0e6,
            cost_sla_weight: 0.0,
            placement_retry_limit: 4,
        }
    }
}

impl OrchestratorConfig {
    /// Check every field for usability (the orchestration analogue of
    /// [`crate::config::ClusterConfig::validate`]).
    pub fn validate(&self) -> Result<(), crate::error::EngineError> {
        let fail = |reason: String| Err(crate::error::EngineError::InvalidRequest { reason });
        if self.max_concurrent == Some(0) {
            return fail("max_concurrent of 0 would never admit a migration".to_string());
        }
        if !(self.telemetry_window_secs.is_finite() && self.telemetry_window_secs > 0.0) {
            return fail(format!(
                "telemetry_window_secs must be positive and finite, got {}",
                self.telemetry_window_secs
            ));
        }
        for (name, x) in [
            ("adaptive_write_hi_frac", self.adaptive_write_hi_frac),
            ("adaptive_write_lo_frac", self.adaptive_write_lo_frac),
            ("adaptive_read_hi_frac", self.adaptive_read_hi_frac),
        ] {
            if !(x.is_finite() && x > 0.0) {
                return fail(format!("{name} must be positive and finite, got {x}"));
            }
        }
        if self.adaptive_write_lo_frac > self.adaptive_write_hi_frac {
            return fail(format!(
                "adaptive_write_lo_frac {} exceeds adaptive_write_hi_frac {}",
                self.adaptive_write_lo_frac, self.adaptive_write_hi_frac
            ));
        }
        for (name, x) in [
            ("cost_bytes_weight", self.cost_bytes_weight),
            ("cost_ondemand_penalty", self.cost_ondemand_penalty),
            ("cost_sla_weight", self.cost_sla_weight),
        ] {
            if !(x.is_finite() && x >= 0.0) {
                return fail(format!("{name} must be non-negative and finite, got {x}"));
            }
        }
        if !(self.cost_nonconverge_penalty_secs.is_finite()
            && self.cost_nonconverge_penalty_secs > 0.0)
        {
            return fail(format!(
                "cost_nonconverge_penalty_secs must be positive and finite, got {}",
                self.cost_nonconverge_penalty_secs
            ));
        }
        if self.placement_retry_limit == 0 {
            return fail("placement_retry_limit of 0 would never attempt a placement".to_string());
        }
        Ok(())
    }
}

/// Per-node load view handed to planners.
#[derive(Clone, Copy, Debug)]
pub struct NodeView {
    /// The node index.
    pub node: u32,
    /// True once a crash fault took the node down.
    pub crashed: bool,
    /// Live VMs resident on the node plus admitted inbound migrations
    /// still heading there.
    pub load: u32,
    /// Summed windowed I/O busy fraction of the node's attributed VMs
    /// (each VM contributes its I/O-in-flight time over the telemetry
    /// window, so one saturated VM contributes ~1.0). The autonomic
    /// rebalancer's overload/underload signal.
    pub io_pressure: f64,
    /// Cumulative page-cache hit ratio over the node's attributed VMs'
    /// guest reads (1.0 when no reads were issued yet).
    pub cache_hit: f64,
}

/// The VM a planner is deciding about.
///
/// The windowed rates cover the last full telemetry window before the
/// decision instant; when no telemetry tick has sampled the VM yet
/// (admission earlier than the first window boundary), the orchestrator
/// samples the cumulative counters on demand, so a freshly admitted hot
/// writer is never misread as idle.
#[derive(Clone, Copy, Debug)]
pub struct VmView {
    /// The VM index.
    pub vm: u32,
    /// Its current host node.
    pub host: u32,
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
    /// Windowed I/O busy fraction (I/O-in-flight time over the window,
    /// reads + writes): ~0.0 idle, ~1.0 saturating its disk path.
    pub io_pressure: f64,
    /// Cumulative page-cache hit ratio of the VM's guest reads (1.0
    /// when no reads were issued yet).
    pub cache_hit: f64,
    /// Bytes with any local presence (modified or cached base) — what a
    /// `Precopy`/`Mirror` bulk phase must copy.
    pub local_bytes: u64,
    /// Bytes of locally *written* chunks (the ModifiedSet) — what
    /// `Hybrid`/`Postcopy` must move; cached base content is re-fetched
    /// from the repository by the destination instead.
    pub modified_bytes: u64,
}

/// Everything a planner may consult for one decision. Views only — a
/// planner cannot mutate the engine, which keeps decisions replayable.
#[derive(Debug)]
pub struct PlanContext<'a> {
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
    /// The orchestrator configuration (thresholds).
    pub cfg: &'a OrchestratorConfig,
    /// Per-node load, indexed by node.
    pub nodes: &'a [NodeView],
    /// The VM being placed / strategized.
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
    /// predicted time. Weighted into the score by
    /// [`OrchestratorConfig::cost_sla_weight`].
    pub est_sla_secs: f64,
    /// The scalar score the argmin ran on: `est_time_secs +
    /// cost_bytes_weight × est_bytes / GiB + cost_sla_weight ×
    /// est_sla_secs`.
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
    /// ([`OrchestratorConfig::placement_retry_limit`] bounds the
    /// attempts).
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

    fn ctx<'a>(cfg: &'a OrchestratorConfig, nodes: &'a [NodeView], vm: VmView) -> PlanContext<'a> {
        PlanContext {
            nic_bw: 100.0e6,
            postcopy_memory: false,
            threshold: 3,
            cfg,
            nodes,
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
                io_pressure: load as f64 * 0.1,
                cache_hit: 1.0,
            })
            .collect()
    }

    fn vm_on(host: u32, write_rate: f64, read_rate: f64) -> VmView {
        VmView {
            vm: 0,
            host,
            strategy: StrategyKind::Hybrid,
            write_rate,
            read_rate,
            dirty_rate: 0.0,
            rewrite_rate: write_rate,
            io_pressure: 0.0,
            cache_hit: 1.0,
            local_bytes: 64 << 20,
            modified_bytes: 64 << 20,
        }
    }

    #[test]
    fn fixed_planner_places_first_healthy_other_node() {
        let cfg = OrchestratorConfig::default();
        let nv = nodes(&[(false, 3), (true, 0), (false, 9), (false, 0)]);
        let p = PlannerKind::Fixed;
        assert_eq!(p.place(&ctx(&cfg, &nv, vm_on(0, 0.0, 0.0))), Some(2));
        assert_eq!(p.place(&ctx(&cfg, &nv, vm_on(2, 0.0, 0.0))), Some(0));
        // Only crashed alternatives: no placement.
        let nv = nodes(&[(false, 0), (true, 0)]);
        assert_eq!(p.place(&ctx(&cfg, &nv, vm_on(0, 0.0, 0.0))), None);
        // The configured strategy stands, with no estimates.
        let (s, estimates) = p.choose(&ctx(&cfg, &nv, vm_on(0, 100.0e6, 0.0)));
        assert_eq!(s, StrategyKind::Hybrid);
        assert!(estimates.is_empty());
    }

    #[test]
    fn adaptive_planner_places_least_loaded() {
        let cfg = OrchestratorConfig::default();
        let nv = nodes(&[(false, 1), (false, 4), (true, 0), (false, 1)]);
        for p in [PlannerKind::Adaptive, PlannerKind::Cost] {
            // Tie between 0 and 3 at load 1, but 0 is the host: pick 3.
            assert_eq!(p.place(&ctx(&cfg, &nv, vm_on(0, 0.0, 0.0))), Some(3));
            // From node 1, the tie breaks to the lowest index.
            assert_eq!(p.place(&ctx(&cfg, &nv, vm_on(1, 0.0, 0.0))), Some(0));
        }
    }

    #[test]
    fn adaptive_rule_covers_the_intensity_spectrum() {
        let cfg = OrchestratorConfig::default();
        let nv = nodes(&[(false, 0), (false, 0)]);
        let nic = 100.0e6;
        let choose = |w: f64, r: f64| {
            let (s, estimates) = PlannerKind::Adaptive.choose(&ctx(&cfg, &nv, vm_on(0, w, r)));
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
        let cfg = OrchestratorConfig::default();
        let nv = nodes(&[(false, 0), (false, 0)]);
        for (w, r) in [(0.0, 0.0), (0.01, 0.0), (0.10, 0.0), (0.0, 0.2)] {
            let mut c = ctx(&cfg, &nv, vm_on(0, w * 100.0e6, r * 100.0e6));
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
            ..ok.clone()
        };
        assert!(bad.validate().is_err());
        let bad = OrchestratorConfig {
            telemetry_window_secs: 0.0,
            ..ok.clone()
        };
        assert!(bad.validate().is_err());
        let bad = OrchestratorConfig {
            adaptive_write_lo_frac: 0.5,
            adaptive_write_hi_frac: 0.1,
            ..ok
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn orchestrator_config_partial_deserialization() {
        let v = serde::Value::Map(vec![
            ("max_concurrent".to_string(), serde::Value::U64(4)),
            (
                "planner".to_string(),
                serde::Value::Str("Adaptive".to_string()),
            ),
        ]);
        let cfg = <OrchestratorConfig as serde::Deserialize>::from_value(&v).expect("partial");
        assert_eq!(cfg.max_concurrent, Some(4));
        assert_eq!(cfg.planner, PlannerKind::Adaptive);
        assert_eq!(
            cfg.telemetry_window_secs,
            OrchestratorConfig::default().telemetry_window_secs
        );
        let bad = serde::Value::Map(vec![("max_conc".to_string(), serde::Value::U64(4))]);
        let err = <OrchestratorConfig as serde::Deserialize>::from_value(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown OrchestratorConfig field"));
    }
}
