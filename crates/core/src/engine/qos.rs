//! Engine half of the QoS layer: flow-cap selection, multifd sharding
//! of memory copies, compression of wire bytes, and the SLA degradation
//! integrator. The pure configuration and report types live in
//! [`crate::qos`]; this module alone may touch engine state.
//!
//! Inertness contract: the engine always holds a [`QosConfig`], and a
//! run without `[qos]` holds its default, which shapes nothing: no cap,
//! one stream, both compression ratios 1.0, no CPU cost. From it every
//! helper here reproduces the historical behaviour exactly — memory
//! flows carry `Some(migration_speed_cap())`, storage batches carry
//! `None`, each copy is a single flow, and wire bytes equal raw bytes
//! (`compress(raw, 1.0)` is `raw`) — so a `[qos]`-less run is
//! event-for-event identical to one built before this module existed.
//! The SLA integrator only writes report fields and never schedules
//! events, so it stays on unconditionally.

use super::types::*;
use super::Engine;
use crate::qos::QosConfig;
use lsm_hypervisor::VmState;

impl Engine {
    /// The QoS configuration: the installed one, or the default that
    /// shapes nothing (invariant checkers and reports read the knobs
    /// through this).
    pub fn qos_config(&self) -> &QosConfig {
        &self.qos
    }

    /// SLA audit pair for one VM's live migration: the recorded
    /// degradation loss fraction and the loss the current engine state
    /// implies. The two must agree at every event boundary — the
    /// `sla-consistent` law's contract. `None` when the VM has no
    /// migration state.
    pub fn sla_audit(&self, vm: u32) -> Option<(f64, f64)> {
        let v = self.vms.get(vm as usize)?;
        let m = v.migration.as_ref()?;
        Some((m.degrade_loss, degrade_loss(self, vm)))
    }

    // ------------- testing hooks (invariant detection) -------------

    /// Start a migration-class flow **without** the QoS cap it should
    /// carry. Exists so `lsm-check`'s cap-respected law can be
    /// detection-tested against a deliberately broken state; never call
    /// it from production code.
    #[doc(hidden)]
    pub fn testing_force_uncapped_flow(&mut self, src: u32, dst: u32, bytes: u64) {
        self.start_flow(src, dst, bytes, None, FlowCtx::Mem { vm: 0 });
    }

    /// Overwrite a migration's recorded degradation loss **without** an
    /// integration step (sla-consistent law detection testing).
    #[doc(hidden)]
    pub fn testing_force_degrade_loss(&mut self, vm: u32, loss: f64) {
        if let Some(m) = self.vms[vm as usize].migration.as_mut() {
            m.degrade_loss = loss;
        }
    }
}

// ---------------- flow caps ----------------

/// The per-migration memory ceiling, bytes/second: the historical
/// `migration_speed_cap`, tightened by the QoS bandwidth cap when one
/// is configured.
pub(crate) fn mem_total_cap(eng: &Engine) -> f64 {
    let base = eng.cfg().migration_speed_cap();
    match eng.qos.cap_bytes() {
        Some(c) => base.min(c),
        None => base,
    }
}

/// Cap for storage push/pull batch flows: historically `None` (they
/// take whatever max–min share the NIC gives), the QoS ceiling when
/// one is configured.
pub(crate) fn storage_flow_cap(eng: &Engine) -> Option<f64> {
    eng.qos.cap_bytes()
}

/// Scale on the guest-visible migration steal (`migration_cpu_steal`):
/// the flat steal models an unshaped migration saturating its full
/// max–min NIC share with cache pollution and I/O contention to match.
/// A QoS bandwidth cap bounds the transfer to `cap` of the NIC's
/// capacity, and the interference shrinks proportionally — the
/// slow-but-smooth half of the trade `lsm judge` scores. 1.0 when no
/// cap is configured (inert).
pub(crate) fn interference_scale(eng: &Engine) -> f64 {
    match eng.qos.cap_bytes() {
        Some(cap) => (cap / eng.cfg().nic_bw).clamp(0.0, 1.0),
        None => 1.0,
    }
}

// ---------------- compression ----------------

fn compress(raw: u64, ratio: f64) -> u64 {
    if raw == 0 || ratio >= 1.0 {
        return raw;
    }
    (((raw as f64) * ratio).ceil() as u64).max(1)
}

/// Wire bytes for a memory copy of `raw` guest bytes.
fn wire_bytes_mem(eng: &Engine, raw: u64) -> u64 {
    compress(raw, eng.qos.compress_mem_ratio)
}

/// Wire bytes for a storage batch of `raw` chunk bytes.
pub(crate) fn wire_bytes_storage(eng: &Engine, raw: u64) -> u64 {
    compress(raw, eng.qos.compress_storage_ratio)
}

// ---------------- multifd memory copies ----------------

/// The flows of a memory copy of `raw` guest bytes in `streams` shards,
/// and the cap of each: `wire / n` bytes per stream with the remainder
/// on the first, zero-byte shards skipped, and the memory ceiling split
/// evenly across the shards returned, so their aggregate never exceeds
/// it. `migration::start_copy` starts them.
pub(crate) fn mem_shards(eng: &Engine, raw: u64, streams: u32) -> (Vec<u64>, f64) {
    let wire = wire_bytes_mem(eng, raw);
    let n = streams as u64;
    let shards: Vec<u64> = if n <= 1 || wire == 0 {
        vec![wire]
    } else {
        let base = wire / n;
        let rem = wire % n;
        (0..n)
            .map(|i| if i == 0 { base + rem } else { base })
            .filter(|&b| b > 0)
            .collect()
    };
    let cap = mem_total_cap(eng) / shards.len() as f64;
    (shards, cap)
}

// ---------------- SLA degradation integrator ----------------

/// The guest throughput loss fraction a VM's live migration currently
/// implies, recomputed from scratch — the audit-path twin of the value
/// [`sla_transition`] records (which derives it from the caller's
/// already-computed factor instead). Used by `Engine::sla_audit` only.
pub(crate) fn degrade_loss(eng: &Engine, v: VmIdx) -> f64 {
    let vm = eng.vm(v);
    if vm.crashed || vm.vm.state() == VmState::Paused {
        return 0.0;
    }
    let Some(m) = vm.migration.as_ref() else {
        return 0.0;
    };
    if matches!(m.phase, MigPhase::Complete | MigPhase::Aborted) {
        return 0.0;
    }
    (1.0 - eng.compute_factor(v)).clamp(0.0, 1.0)
}

/// Advance the degradation integral to `now` at the previously recorded
/// loss, then record the loss the current state implies. Called from
/// `update_compute` — the single choke point every factor-changing
/// transition (pause, resume, throttle step, phase change) already
/// routes through — so the integral and the compute model cannot drift
/// apart. Report-only: never schedules an event.
///
/// `factor` is the freshly computed compute factor (the caller needs it
/// anyway), from which the loss fraction is derived: `1 − factor` (CPU
/// steal, post-copy fault slowdown, auto-converge throttle, compression
/// CPU) while the guest runs; 0 while paused (that time is downtime,
/// not degradation), crashed, or once the migration is terminal. VMs
/// with no migration record carry no integral and return immediately —
/// the unshaped fast path.
pub(crate) fn sla_transition(eng: &mut Engine, v: VmIdx, factor: f64) {
    let now = eng.now();
    let vm = eng.vm_mut(v);
    let idle = vm.crashed || vm.vm.state() == VmState::Paused;
    let Some(m) = vm.migration.as_mut() else {
        return;
    };
    let loss = if idle || matches!(m.phase, MigPhase::Complete | MigPhase::Aborted) {
        0.0
    } else {
        (1.0 - factor).clamp(0.0, 1.0)
    };
    let dt = now.since(m.degrade_mark).as_secs_f64();
    if dt > 0.0 && m.degrade_loss > 0.0 {
        m.degraded_secs += dt * m.degrade_loss;
    }
    m.degrade_mark = now;
    m.degrade_loss = loss;
}
