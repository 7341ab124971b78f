//! Property test: the incremental max–min allocator must be
//! **bit-identical** to the from-scratch reference solver.
//!
//! Two [`FlowNet`]s over the same random topology — one per
//! [`SolverMode`] — are driven in lockstep through a random schedule of
//! flow starts, cancellations, completions, clock advances and runtime
//! link degradations/restorations. After every step, rates, remaining
//! bytes, per-tag delivered bytes and the next completion `(time, flow)`
//! must match exactly (rates down to the bit pattern). Topologies cover
//! both regimes: fabrics whose switch can bind once enough NICs are
//! busy, and fabrics whose switch never can. On the former the
//! incremental solver re-solves by component while few NICs carry flows
//! and re-solves every flow otherwise, so flow starts and completions
//! drive transitions *between* the regimes mid-run; one case sizes the
//! switch to within half a percent of `k` NICs to cross that threshold
//! often. One case runs on a sparse 1024-node fabric, where a component
//! solve renumbers only the few resources its flows cross.
//!
//! Each flow carries the index of the step that started it as its
//! context. Both nets must list the live flows' contexts in id order,
//! and hand back each flow's own context when it completes or is
//! cancelled.

use lsm_netsim::{FlowId, FlowNet, NodeCaps, NodeId, SolverMode, Topology, TrafficTag};
use lsm_simcore::time::SimTime;
use lsm_simcore::units::{mb_per_s, MIB};
use proptest::prelude::*;

/// One encoded schedule step; interpreted against the live flow set.
type RawOp = (u8, u32, u32, u64, f64);

struct Lockstep {
    inc: FlowNet<usize>,
    refr: FlowNet<usize>,
    /// Live flows, ascending by id, with the step that started each.
    live: Vec<(FlowId, usize)>,
    /// Steps taken so far.
    steps: usize,
    now: SimTime,
    /// Nodes that flows run between (an op's raw endpoint indexes this).
    endpoints: Vec<u32>,
    /// Nodes that link degradations hit.
    fault_nodes: Vec<u32>,
}

impl Lockstep {
    /// Flows and link faults over every node of `topo`.
    fn new(topo: Topology) -> Self {
        let all: Vec<u32> = (0..topo.len() as u32).collect();
        Self::on_nodes(topo, all.clone(), all)
    }

    fn on_nodes(topo: Topology, endpoints: Vec<u32>, fault_nodes: Vec<u32>) -> Self {
        let mut inc = FlowNet::new(topo.clone());
        inc.set_solver(SolverMode::Incremental);
        let mut refr = FlowNet::new(topo);
        refr.set_solver(SolverMode::Reference);
        Lockstep {
            inc,
            refr,
            live: Vec::new(),
            steps: 0,
            now: SimTime::ZERO,
            endpoints,
            fault_nodes,
        }
    }

    fn check(&self) -> Result<(), TestCaseError> {
        let contexts = |net: &FlowNet<usize>| -> Vec<(FlowId, usize)> {
            net.contexts().map(|(id, &op)| (id, op)).collect()
        };
        prop_assert_eq!(&contexts(&self.inc), &self.live);
        prop_assert_eq!(&contexts(&self.refr), &self.live);
        for &(id, _) in &self.live {
            let ri = self.inc.rate_of(id).expect("live in incremental");
            let rr = self.refr.rate_of(id).expect("live in reference");
            prop_assert_eq!(
                ri.to_bits(),
                rr.to_bits(),
                "rate diverged for {:?}: incremental {} vs reference {}",
                id,
                ri,
                rr
            );
            prop_assert_eq!(self.inc.remaining_of(id), self.refr.remaining_of(id));
        }
        prop_assert_eq!(self.inc.next_completion(), self.refr.next_completion());
        for tag in TrafficTag::ALL {
            prop_assert_eq!(self.inc.delivered(tag), self.refr.delivered(tag));
        }
        prop_assert_eq!(self.inc.total_delivered(), self.refr.total_delivered());
        Ok(())
    }

    /// The context `id` started with, dropping it from the live list.
    fn retire(&mut self, id: FlowId) -> usize {
        let pos = self.live.iter().position(|&(f, _)| f == id);
        self.live.remove(pos.expect("a live flow")).1
    }

    /// Complete `id` at `at` on both nets: each hands back the context
    /// the flow started with.
    fn complete(&mut self, at: SimTime, id: FlowId) -> Result<(), TestCaseError> {
        self.now = at;
        let want = self.retire(id);
        prop_assert_eq!(self.inc.complete(at, id), want);
        prop_assert_eq!(self.refr.complete(at, id), want);
        Ok(())
    }

    fn step(&mut self, op: RawOp) -> Result<(), TestCaseError> {
        let (code, a, b, bytes, x) = op;
        self.steps += 1;
        let n = self.endpoints.len() as u32;
        // Every step first moves the clock a little (exercises the lazy
        // advance against the eager-equivalent projection).
        self.now += lsm_simcore::time::SimDuration::from_nanos(1 + (bytes % 50_000_000));
        self.inc.advance(self.now);
        self.refr.advance(self.now);
        match code % 5 {
            0 | 1 => {
                // Start a flow.
                let src = a % n;
                let mut dst = b % n;
                if dst == src {
                    dst = (dst + 1) % n;
                }
                let src = NodeId(self.endpoints[src as usize]);
                let dst = NodeId(self.endpoints[dst as usize]);
                let cap = if x < 0.3 {
                    Some(mb_per_s(1.0 + x * 200.0))
                } else {
                    None
                };
                let tag = TrafficTag::ALL[(a as usize + b as usize) % TrafficTag::ALL.len()];
                let sz = bytes % (64 * MIB);
                let ctx = self.steps;
                let fi = self.inc.start(self.now, src, dst, sz, cap, tag, ctx);
                let fr = self.refr.start(self.now, src, dst, sz, cap, tag, ctx);
                prop_assert_eq!(fi, fr, "flow id streams diverged");
                self.live.push((fi, ctx));
            }
            2 => {
                // Degrade (or restore) a node's NIC at runtime.
                let node = NodeId(self.fault_nodes[a as usize % self.fault_nodes.len()]);
                // Quantized factors so restore (1.0) actually occurs.
                let factor = match b % 4 {
                    0 => 1.0,
                    1 => 0.5,
                    2 => 0.1 + x * 0.8,
                    _ => 0.05,
                };
                self.inc.set_link_factor(self.now, node, factor);
                self.refr.set_link_factor(self.now, node, factor);
                prop_assert_eq!(
                    self.inc.link_factor(node).to_bits(),
                    self.refr.link_factor(node).to_bits()
                );
            }
            3 => {
                // Complete the earliest completion, if one is due.
                let Some((ti, id)) = self.inc.next_completion() else {
                    return Ok(());
                };
                prop_assert_eq!(Some((ti, id)), self.refr.next_completion());
                if ti == SimTime::FAR_FUTURE {
                    return Ok(());
                }
                self.complete(ti.max(self.now), id)?;
            }
            _ => {
                // Cancel a random live flow.
                if self.live.is_empty() {
                    return Ok(());
                }
                let (id, _) = self.live[a as usize % self.live.len()];
                let want = self.retire(id);
                let li = self.inc.cancel_flow(self.now, id);
                let lr = self.refr.cancel_flow(self.now, id);
                prop_assert_eq!(li, lr, "cancel leftovers diverged for {:?}", id);
                prop_assert_eq!(li.map(|(_, op)| op), Some(want));
            }
        }
        self.check()
    }
}

fn run_schedule(topo: Topology, ops: &[RawOp]) -> Result<(), TestCaseError> {
    run_lockstep(Lockstep::new(topo), ops)
}

fn run_lockstep(mut ls: Lockstep, ops: &[RawOp]) -> Result<(), TestCaseError> {
    for &op in ops {
        ls.step(op)?;
    }
    // Drain everything so completion-path accounting is fully covered.
    while let Some((t, id)) = ls.inc.next_completion() {
        if t == SimTime::FAR_FUTURE {
            break;
        }
        prop_assert_eq!(Some((t, id)), ls.refr.next_completion());
        ls.complete(t.max(ls.now), id)?;
        ls.check()?;
    }
    Ok(())
}

fn raw_op() -> impl Strategy<Value = RawOp> {
    (
        0u8..=255,
        0u32..1024,
        0u32..1024,
        0u64..u64::MAX,
        0.0f64..1.0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Switch-coupled regime: the aggregate can bind once enough NICs
    /// are busy. Changes re-solve the full flow set (over persistent
    /// buffers) while it can, and by component while few NICs are busy.
    #[test]
    fn coupled_switch_lockstep(
        nodes in 2usize..9,
        nic in 20.0f64..200.0,
        ops in prop::collection::vec(raw_op(), 10..60),
    ) {
        // Switch below the summed NIC capacity: contention is real.
        let switch = nic * (nodes as f64) * 0.6;
        let topo = Topology::symmetric(nodes, mb_per_s(nic), mb_per_s(switch));
        prop_assert!(!FlowNet::switch_decoupled(&topo));
        run_schedule(topo, &ops)?;
    }

    /// Switch-decoupled regime: component dirty-marking is active, so
    /// flows outside the changed component keep rates without re-solving
    /// — and must still match the full reference solve bit-for-bit.
    #[test]
    fn decoupled_switch_lockstep(
        nodes in 2usize..9,
        nic in 20.0f64..200.0,
        ops in prop::collection::vec(raw_op(), 10..60),
    ) {
        let switch = nic * (nodes as f64) * 4.0;
        let topo = Topology::symmetric(nodes, mb_per_s(nic), mb_per_s(switch));
        prop_assert!(FlowNet::switch_decoupled(&topo));
        run_schedule(topo, &ops)?;
    }

    /// A fleet-sized, sparsely used fabric in the decoupled regime:
    /// flows run between 8 nodes spread over 1024, so a component holds
    /// several flows whose resource indices lie far apart, and a
    /// component solve renumbers them into a compact table. Ties are
    /// common on symmetric NICs, so the renumbered table must keep the
    /// reference's lowest-index tie-break. Link faults hit the 8 busy
    /// nodes and their 8 idle neighbours, nodes with and without live
    /// flows.
    #[test]
    fn sparse_fleet_lockstep(
        nic in 20.0f64..200.0,
        ops in prop::collection::vec(raw_op(), 10..60),
    ) {
        let nodes = 1024;
        let topo = Topology::symmetric(nodes, mb_per_s(nic), mb_per_s(nic * nodes as f64 * 4.0));
        prop_assert!(FlowNet::switch_decoupled(&topo));
        let busy = vec![0, 137, 290, 511, 512, 733, 896, 1023];
        let idle = busy.iter().map(|&u| u ^ 1);
        let fault_nodes = busy.iter().copied().chain(idle).collect();
        run_lockstep(Lockstep::on_nodes(topo, busy, fault_nodes), &ops)?;
    }

    /// Heterogeneous NICs (asymmetric up/down) in the decoupled regime.
    #[test]
    fn heterogeneous_caps_lockstep(
        nodes in 2usize..7,
        caps in prop::collection::vec((10.0f64..150.0, 10.0f64..150.0), 6),
        ops in prop::collection::vec(raw_op(), 10..50),
    ) {
        let mut topo = Topology::symmetric(nodes, mb_per_s(100.0), mb_per_s(100.0 * 14.0 * 2.0));
        for (i, &(up, down)) in caps.iter().take(nodes).enumerate() {
            topo = topo.with_node_caps(
                NodeId(i as u32),
                NodeCaps { up: mb_per_s(up), down: mb_per_s(down) },
            );
        }
        run_schedule(topo, &ops)?;
    }
}

proptest! {
    // One case catches a mis-timed regime change only when the switch
    // binds at the crossing, so this property runs more cases.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The busy-NIC threshold: a 64-node fabric whose switch holds
    /// exactly `k` NICs, or up to half a percent more or less. Flows run
    /// between 24 nodes spread over the fabric, so the number of busy
    /// NICs crosses `k` in both directions and the incremental solver
    /// moves between component and full re-solves mid-run, including
    /// the full solve that ends a stretch in which the switch could
    /// bind. A switch just short of `k` NICs binds with `k` of them
    /// busy, which catches a rule that admits a few percent too much.
    /// Link faults hit every third of the 24 nodes and its neighbour.
    #[test]
    fn busy_threshold_lockstep(
        k in 1u32..20,
        spare in prop_oneof![Just(0.0), -0.005f64..0.005],
        nic in 20.0f64..200.0,
        ops in prop::collection::vec(raw_op(), 40..160),
    ) {
        let nic = mb_per_s(nic);
        let topo = Topology::symmetric(64, nic, k as f64 * nic * (1.0 + spare));
        prop_assert!(!FlowNet::switch_decoupled(&topo));
        let busy: Vec<u32> = (0..24).map(|i| i * 8 / 3).collect();
        let faulty = busy.iter().step_by(3).flat_map(|&u| [u, u ^ 1]).collect();
        run_lockstep(Lockstep::on_nodes(topo, busy, faulty), &ops)?;
    }
}
