//! The `pvfs-shared` I/O path: every guest I/O is a synchronous striped
//! operation against the parallel file system (§5.2.3).
//!
//! There is no client-side caching — PVFS semantics, and the reason the
//! paper measures <10 % read / <5 % write throughput for this baseline:
//! each operation pays network + server-disk + metadata overhead, during
//! migration and outside it alike. The upside the paper also shows: the
//! migration itself only moves memory.

use super::types::*;
use super::Engine;
use lsm_workloads::{ActionToken, IoKind};

/// Entry point for a driver `Io` action on a `pvfs-shared` VM.
pub(crate) fn submit_io(
    eng: &mut Engine,
    v: VmIdx,
    token: ActionToken,
    kind: IoKind,
    offset: u64,
    len: u64,
) {
    let client = eng.vm(v).vm.host;
    let file_offset = eng.vm(v).pvfs_file_base + offset;
    let legs = eng.pvfs_ref().plan_io(file_offset, len);
    let write = matches!(kind, IoKind::Write);
    let overhead = if write {
        eng.pvfs_ref().write_overhead()
    } else {
        eng.pvfs_ref().op_overhead()
    };
    let op = eng.new_op(v, token, kind.into(), len);
    eng.op_add_parts(op, legs.len() as u32 + 1);

    // Fixed per-op cost (metadata lookup, request processing, and for
    // writes the synchronous qcow2 metadata updates).
    eng.schedule_in(overhead, Ev::OpTimer(op));
    for stripe in legs {
        let leg = PvfsLeg {
            op,
            server: stripe.server,
            bytes: stripe.bytes,
            write,
        };
        if write && leg.server.0 != client {
            // Remote stripe: over the wire first.
            eng.start_flow(client, leg.server.0, leg.bytes, None, FlowCtx::PvfsLeg(leg));
        } else {
            // A local write stripe goes straight to the server disk; a
            // read hits the server disk first, then the wire back.
            eng.disk_submit(leg.server.0, leg.bytes, DiskCtx::PvfsServer(leg));
        }
    }
}

/// A leg's network hop finished: a write leg hits the server disk next,
/// a read leg's data has arrived at the client.
pub(crate) fn leg_flow_done(eng: &mut Engine, leg: PvfsLeg) {
    if leg.write {
        eng.disk_submit(leg.server.0, leg.bytes, DiskCtx::PvfsServer(leg));
    } else {
        eng.op_part_done(leg.op);
    }
}

/// Server-side disk work finished: a write leg is durable, a read leg
/// ships its data back to the client.
pub(crate) fn server_disk_done(eng: &mut Engine, leg: PvfsLeg) {
    if leg.write {
        eng.op_part_done(leg.op);
        return;
    }
    let client = match eng.op_vm(leg.op) {
        Some(v) => eng.vm(v).vm.host,
        None => return, // op already finished (duplicate completion)
    };
    if leg.server.0 == client {
        eng.op_part_done(leg.op);
        return;
    }
    eng.start_flow(leg.server.0, client, leg.bytes, None, FlowCtx::PvfsLeg(leg));
}
