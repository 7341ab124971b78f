//! The autonomic rebalancer's engine half: the periodic monitor tick
//! that classifies node pressure and *originates* migrations, plus the
//! in-flight re-planning paths (destination crash, destination
//! degrade).
//!
//! The pure pieces — configuration, the hysteresis classifier, the
//! typed action records — live in [`crate::autonomic`]; this module is
//! the only place the subsystem touches engine state. The engine holds
//! the node classes and the recorded actions ([`AutonomicRt`]); each VM
//! holds its own marks (`VmRt::last_moved`, `VmRt::deferred_since`) and
//! names its live job (`VmRt::live_job`), which keeps a migrating VM out
//! of the candidates. A re-plan gives the job's admission slot back
//! through the one release (`orchestrator::release_slot`), which puts
//! the job straight back on the ready queue. Everything here is inert
//! unless [`Engine::new`] is given an autonomic config: with
//! `[autonomic]` absent, no tick is ever armed and every run is
//! event-for-event identical to an engine built without this module.

use super::fault;
use super::job::{FailureReason, JobId, MigrationStatus};
use super::orchestrator;
use super::types::{Ev, MigPhase, VmIdx};
use super::Engine;
use crate::autonomic::{
    classify, AutonomicConfig, Deferral, DeferralReason, NodeClass, RebalanceAction,
    RebalanceTrigger, ReplanReason,
};
use crate::planner::NodeView;
use lsm_hypervisor::VmId;
use lsm_simcore::time::SimDuration;

/// Autonomic runtime state (present iff the subsystem is configured).
pub(crate) struct AutonomicRt {
    pub cfg: AutonomicConfig,
    /// A `RebalanceTick` event is already queued.
    pub armed: bool,
    /// Per-node hysteresis memory (lazily sized to the cluster).
    pub classes: Vec<NodeClass>,
    /// Every decision, in tick order (reported).
    pub actions: Vec<RebalanceAction>,
}

impl Engine {
    /// The autonomic configuration, if the rebalancer is enabled.
    pub fn autonomic_config(&self) -> Option<&AutonomicConfig> {
        self.autonomic.as_ref().map(|a| &a.cfg)
    }

    /// Every autonomic decision so far, in tick order (empty when the
    /// rebalancer is disabled).
    pub fn rebalance_actions(&self) -> &[RebalanceAction] {
        self.autonomic.as_ref().map_or(&[], |a| &a.actions)
    }

    /// Current per-node I/O pressure (summed windowed busy fraction of
    /// each node's attributed VMs) — exactly the signal the rebalancer
    /// classifies, so invariant checkers can recompute its decisions. A
    /// VM counts where placement counts its load: at its admitted job's
    /// destination while one moves it, otherwise at its host, and
    /// nowhere once it crashed.
    pub fn node_pressures(&self) -> Vec<f64> {
        let mut pressure = vec![0.0f64; self.cfg.nodes as usize];
        for v in 0..self.vms.len() as VmIdx {
            if let Some(at) = orchestrator::attributed_node(self, v) {
                pressure[at as usize] += orchestrator::vm_pressure(self, v);
            }
        }
        pressure
    }

    /// The rebalancer's sticky per-node classification (hysteresis
    /// memory from the last monitor tick). All [`NodeClass::Neutral`]
    /// when the rebalancer is disabled or has not ticked yet.
    pub fn node_classes(&self) -> Vec<NodeClass> {
        self.autonomic.as_ref().map_or_else(
            || vec![NodeClass::Neutral; self.nodes.len()],
            |a| {
                let mut c = a.classes.clone();
                c.resize(self.nodes.len(), NodeClass::Neutral);
                c
            },
        )
    }

    /// Append a fabricated [`RebalanceAction`] **without** any
    /// threshold actually holding. Exists so `lsm-check`'s rebalancer
    /// laws can be detection-tested against deliberately illegal
    /// actions; never call it from production code. Requires the
    /// rebalancer to be configured.
    #[doc(hidden)]
    pub fn testing_force_rebalance_action(&mut self, action: RebalanceAction) {
        self.autonomic
            .as_mut()
            .expect("testing_force_rebalance_action requires an autonomic config")
            .actions
            .push(action);
    }
}

/// Whether the monitor loop still has anything to watch: some guest is
/// alive with work left, or some job is in flight. Once false, the tick
/// (and the telemetry loop it keeps alive) stop re-arming so runs
/// drain.
pub(crate) fn autonomic_live(eng: &Engine) -> bool {
    eng.autonomic.is_some()
        && (eng
            .vms
            .iter()
            .any(|vm| !vm.crashed && vm.finished_at.is_none())
            || eng.jobs.iter().any(|j| !j.status.is_terminal()))
}

/// Schedule the next monitor tick (idempotent while one is pending; a
/// no-op without the rebalancer).
pub(crate) fn arm_tick(eng: &mut Engine) {
    let Some(a) = eng.autonomic.as_mut() else {
        return;
    };
    if a.armed {
        return;
    }
    a.armed = true;
    let at = eng.now + SimDuration::from_secs_f64(a.cfg.interval_secs);
    eng.queue.schedule(at, Ev::RebalanceTick);
}

/// A candidate whose windowed dirty or re-write rate is at or above
/// this fraction of the NIC bandwidth is in a hot workload phase
/// (Baruchi-style cycle timing): moving it now maximizes re-transfer,
/// so the move waits for it to cool, up to `defer_deadline_secs`.
const HOT_DIRTY_FRAC: f64 = 0.02;

/// How many times one in-flight job may be re-planned (bounds
/// crash-chasing).
const REPLAN_LIMIT: u32 = 2;

/// What one monitor tick decides from: the configuration, the node
/// pressures and the classes it gave them, and whether it moved a VM
/// yet (a tick moves at most one: each move changes the pressures the
/// next tick sees).
struct Tick {
    cfg: AutonomicConfig,
    pressures: Vec<f64>,
    classes: Vec<NodeClass>,
    moved: bool,
}

/// `Ev::RebalanceTick`: one closed-loop pass — classify every node's
/// pressure (with hysteresis), re-plan an in-flight job whose
/// destination degraded, or else relieve an overloaded node or drain an
/// underloaded one (at most one move per tick), then re-arm while any
/// guest still runs.
pub(crate) fn rebalance_tick(eng: &mut Engine) {
    let pressures = eng.node_pressures();
    let Some(a) = eng.autonomic.as_mut() else {
        return;
    };
    a.armed = false;
    a.classes.resize(pressures.len(), NodeClass::Neutral);
    for (n, &p) in pressures.iter().enumerate() {
        a.classes[n] = if eng.nodes[n].crashed {
            // A dead node has no pressure to classify; Neutral keeps
            // its hysteresis memory from outliving the crash.
            NodeClass::Neutral
        } else {
            classify(p, a.classes[n], &a.cfg)
        };
    }
    let mut tick = Tick {
        cfg: a.cfg.clone(),
        classes: a.classes.clone(),
        pressures,
        moved: false,
    };

    replan_degraded(eng, &mut tick);

    for node in 0..tick.classes.len() as u32 {
        if tick.moved {
            break;
        }
        let pressure = tick.pressures[node as usize];
        match tick.classes[node as usize] {
            NodeClass::Overloaded => {
                let trigger = RebalanceTrigger::Overload { node, pressure };
                run_action(eng, &mut tick, node, trigger, DestMode::Planner);
            }
            NodeClass::Underloaded => {
                let trigger = RebalanceTrigger::Underload { node, pressure };
                run_action(eng, &mut tick, node, trigger, DestMode::Consolidate);
            }
            NodeClass::Neutral => {}
        }
    }

    if autonomic_live(eng) {
        arm_tick(eng);
        // Pressure reads windowed samples: keep the sampling loop alive
        // for as long as the monitor is.
        orchestrator::arm_telemetry(eng);
    }
}

/// Record one decision (the rebalancer is configured wherever one is
/// taken).
fn record(eng: &mut Engine, action: RebalanceAction) {
    if let Some(a) = eng.autonomic.as_mut() {
        a.actions.push(action);
    }
}

/// How one action picks a destination for its chosen VM.
enum DestMode {
    /// Overload relief: the planner places the VM (its usual placement
    /// policy), rejected if it lands on another overloaded node.
    Planner,
    /// Underload drain: consolidate onto the *busiest* healthy
    /// non-overloaded node at least as loaded as the source (moving to
    /// an emptier node would spread, not drain).
    Consolidate,
}

/// Evaluate one triggered node: rank its movable VMs, skip those in
/// cooldown or a hot workload phase (recording typed deferrals), and
/// originate a migration for the first placeable candidate. Records a
/// [`RebalanceAction`] whenever the candidate set was non-empty — a
/// deferral-only tick is auditable, not silent.
fn run_action(
    eng: &mut Engine,
    tick: &mut Tick,
    node: u32,
    trigger: RebalanceTrigger,
    mode: DestMode,
) {
    let now = eng.now;
    // Movable: hosted here, alive, without a live job; each paired with
    // its pressure, read once.
    let mut ranked: Vec<(f64, VmIdx)> = (0..eng.vms.len() as u32)
        .filter(|&v| {
            let vm = &eng.vms[v as usize];
            !vm.crashed && vm.vm.host == node && vm.live_job.is_none()
        })
        .map(|v| (orchestrator::vm_pressure(eng, v), v))
        .collect();
    if ranked.is_empty() {
        return;
    }
    // Overload relieves its hottest VM first; a drain moves its coolest
    // first (cheapest to displace). Ties break to the lowest index.
    // Pressures are finite and never -0.0, so `total_cmp` orders them
    // as `<` does.
    let hottest_first = matches!(mode, DestMode::Planner);
    ranked.sort_by(|&(px, x), &(py, y)| {
        let ord = if hottest_first {
            py.total_cmp(&px)
        } else {
            px.total_cmp(&py)
        };
        ord.then(x.cmp(&y))
    });
    let candidates: Vec<VmIdx> = ranked.into_iter().map(|(_, v)| v).collect();
    // Every candidate is hosted on `node`, and nothing placement reads
    // changes until one is scheduled (the loop ends there): one
    // destination serves them all.
    let views = orchestrator::node_views(eng);
    let dest = match mode {
        DestMode::Planner => eng
            .orch
            .cfg
            .planner
            .place(node, &views)
            .filter(|&d| tick.classes[d as usize] != NodeClass::Overloaded),
        DestMode::Consolidate => consolidation_dest(&views, &tick.classes, node),
    };

    let cfg = &tick.cfg;
    let mut deferrals = Vec::new();
    let mut chosen = None;
    for &v in &candidates {
        if let Some(t) = eng.vms[v as usize].last_moved {
            if now.since(t).as_secs_f64() < cfg.cooldown_secs {
                deferrals.push(Deferral {
                    vm: v,
                    reason: DeferralReason::Cooldown,
                });
                continue;
            }
        }
        // Cycle timing (Baruchi-style): a candidate re-dirtying its
        // disk fast is mid-phase — migrating now maximizes re-transfer.
        // Wait for the cycle to cool, up to the defer deadline.
        let r = orchestrator::vm_rates(eng, v);
        let rate = r.dirty.max(r.rewrite);
        let hot = rate >= HOT_DIRTY_FRAC * eng.cfg.nic_bw;
        let vm = &mut eng.vms[v as usize];
        if hot {
            // The deferral clock starts at the first hot look.
            let since = *vm.deferred_since.get_or_insert(now);
            if now.since(since).as_secs_f64() < cfg.defer_deadline_secs {
                deferrals.push(Deferral {
                    vm: v,
                    reason: DeferralReason::HotPhase { rate },
                });
                continue;
            }
            // Deferred long enough: the workload never cooled, move it
            // anyway (fall through to placement).
        } else {
            // Cooled down: the deferral clock resets.
            vm.deferred_since = None;
        }
        let Some(dest) = dest else {
            deferrals.push(Deferral {
                vm: v,
                reason: DeferralReason::NoPlacement,
            });
            continue;
        };
        // Originate through the ordinary scheduling path: the job gets
        // full validation, FIFO admission under the cap, and a recorded
        // planner decision, exactly like a scenario-scheduled one.
        match eng.schedule_migration(VmId(v), dest, now) {
            Ok(job) => {
                let vm = &mut eng.vms[v as usize];
                vm.last_moved = Some(now);
                vm.deferred_since = None;
                tick.moved = true;
                chosen = Some((v, job.0, dest));
                break;
            }
            Err(_) => {
                // Scheduling refused (e.g. an incompatible memory
                // strategy under a fixed planner): not movable by us.
                deferrals.push(Deferral {
                    vm: v,
                    reason: DeferralReason::NoPlacement,
                });
            }
        }
    }

    record(
        eng,
        RebalanceAction {
            at: now,
            trigger,
            candidates,
            deferrals,
            chosen: chosen.map(|(v, _, _)| v),
            job: chosen.map(|(_, j, _)| j),
            dest: chosen.map(|(_, _, d)| d),
        },
    );
}

/// Drain destination: the busiest healthy, non-overloaded node at
/// least as loaded as the source (ties to the lowest index). `None`
/// when every other node is crashed, overloaded, or emptier.
fn consolidation_dest(views: &[NodeView], classes: &[NodeClass], from: u32) -> Option<u32> {
    let from_load = views[from as usize].load;
    views
        .iter()
        .filter(|n| {
            n.node != from
                && !n.crashed
                && classes[n.node as usize] != NodeClass::Overloaded
                && n.load >= from_load
        })
        .max_by(|x, y| x.load.cmp(&y.load).then(y.node.cmp(&x.node)))
        .map(|n| n.node)
}

// ---------------- in-flight re-planning ----------------

/// Re-plan the first in-flight job whose destination classified
/// overloaded: a job still in its active (pre-control) phase is torn
/// down and re-queued toward a healthier target instead of finishing
/// into a hot spot. Bounded per job by [`REPLAN_LIMIT`]; the re-plan is
/// the tick's one move.
fn replan_degraded(eng: &mut Engine, tick: &mut Tick) {
    let Tick {
        cfg,
        classes,
        pressures,
        moved,
    } = tick;
    for ji in 0..eng.jobs.len() as u32 {
        let job = JobId(ji);
        let (v, dest, counted, replans, status) = {
            let j = &eng.jobs[ji as usize];
            (j.vm, j.dest, j.counted, j.replans, j.status)
        };
        if !counted
            || status != MigrationStatus::TransferringMemory
            || replans >= REPLAN_LIMIT
            || classes[dest as usize] != NodeClass::Overloaded
            || eng.vms[v as usize].crashed
        {
            continue;
        }
        // The in-flight VM is attributed to its destination, so its own
        // pressure rides along with every re-plan. The destination only
        // counts as degraded if the *other* load there still clears the
        // band — otherwise the job would chase its own footprint from
        // node to node until the re-plan limit ran out.
        let others = pressures[dest as usize] - orchestrator::vm_pressure(eng, v);
        if others < cfg.overload_pressure - cfg.hysteresis {
            continue;
        }
        // Only the fully re-startable pre-control phases (bulk copy and
        // linger rounds): once switchover begins the move is nearly
        // done — re-pointing it would cost more than it saves.
        let active = eng.vms[v as usize]
            .migration
            .as_ref()
            .is_some_and(|m| matches!(m.phase, MigPhase::Active | MigPhase::Linger));
        if !active {
            continue;
        }
        let pick = orchestrator::place(eng, v);
        let healthy = |d: u32| {
            d != dest
                && !eng.nodes[d as usize].crashed
                && classes[d as usize] != NodeClass::Overloaded
        };
        // Load-blind planners (Fixed) can re-pick the very node we are
        // fleeing; fall back to the lowest-index healthy alternative.
        let new_dest = pick.filter(|&d| healthy(d)).or_else(|| {
            let host = eng.vms[v as usize].vm.host;
            (0..eng.nodes.len() as u32).find(|&d| d != host && healthy(d))
        });
        let Some(new_dest) = new_dest else {
            continue;
        };
        let reason = ReplanReason::DestinationDegraded {
            node: dest,
            pressure: pressures[dest as usize],
        };
        replan_job(eng, job, new_dest, reason);
        *moved = true;
        return;
    }
}

/// Destination-crash rescue, called from the node-crash fault path in
/// place of the abort: when the rebalancer is enabled (and the job is
/// still re-plannable), the job re-enters the ready queue toward a
/// fresh placement instead of failing with `DestinationCrashed`.
/// Returns false when the caller should abort as usual.
pub(crate) fn try_replan_crash(eng: &mut Engine, job: JobId, reason: &FailureReason) -> bool {
    if eng.autonomic.is_none() {
        return false;
    }
    let FailureReason::DestinationCrashed { node } = reason else {
        // A source crash takes the guest with it; nothing to re-place.
        return false;
    };
    let node = *node;
    let (v, replans) = {
        let j = &eng.jobs[job.0 as usize];
        (j.vm, j.replans)
    };
    if replans >= REPLAN_LIMIT || eng.vms[v as usize].crashed {
        return false;
    }
    // Control already moved: the guest was at the destination and died
    // with it (the crash path marks it before judging jobs), so the
    // crashed guard above already rejects; this guard is for the stale
    // window where the host flip lags the phase.
    if eng.vms[v as usize]
        .migration
        .as_ref()
        .is_some_and(|m| m.phase == MigPhase::PullPhase)
    {
        return false;
    }
    // The crash path marked `node` down before asking, so the planner
    // cannot name it.
    let Some(dest) = orchestrator::place(eng, v) else {
        return false;
    };
    let reason = ReplanReason::DestinationCrashed { node };
    replan_job(eng, job, dest, reason);
    true
}

/// Shared re-plan tail: tear down the in-flight transfer (the guest
/// resumes at the source), re-point the job, release its admission
/// slot, and re-queue it — it re-admits through the ordinary drain, so
/// the re-placement gets a fresh planner decision and respects the cap.
/// A job that was still queued (crash raced its start) holds no slot
/// and keeps its pending start event; only its destination changes.
fn replan_job(eng: &mut Engine, job: JobId, new_dest: u32, reason: ReplanReason) {
    let v = eng.jobs[job.0 as usize].vm;
    fault::teardown_transfer(eng, v);
    let j = &mut eng.jobs[job.0 as usize];
    j.dest = new_dest;
    j.replans += 1;
    orchestrator::release_slot(eng, job, true);
    // Unconditionally: the teardown released any auto-converge
    // throttle, which only takes effect through a compute refresh.
    eng.update_compute(v);
    let at = eng.now;
    record(
        eng,
        RebalanceAction {
            at,
            trigger: RebalanceTrigger::Replan { job: job.0, reason },
            candidates: vec![v],
            deferrals: Vec::new(),
            chosen: Some(v),
            job: Some(job.0),
            dest: Some(new_dest),
        },
    );
}
