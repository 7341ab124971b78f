//! Property-based tests for the max–min fair flow network.
//!
//! These drive random sequences of flow starts / cancellations /
//! completions through [`FlowNet`] and check the classic max–min
//! invariants plus byte conservation.

use lsm_netsim::{FlowId, FlowNet, NodeId, Topology, TrafficTag};
use lsm_simcore::units::{mb_per_s, MIB};
use lsm_simcore::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

const NODES: usize = 8;
const NIC: f64 = 100.0; // MB/s
const SWITCH: f64 = 350.0; // MB/s, deliberately constraining

fn topo() -> Topology {
    Topology::symmetric(NODES, mb_per_s(NIC), mb_per_s(SWITCH))
}

#[derive(Debug, Clone)]
enum Op {
    Start {
        src: u32,
        dst: u32,
        mib: u64,
        cap: Option<f64>,
    },
    CancelOldest,
    RunToNextCompletion,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..NODES as u32, 0u32..NODES as u32, 1u64..64, prop::option::of(5.0f64..120.0))
            .prop_map(|(src, dst, mib, cap)| Op::Start {
                src,
                dst,
                mib,
                cap: cap.map(mb_per_s),
            }),
        1 => Just(Op::CancelOldest),
        2 => Just(Op::RunToNextCompletion),
    ]
}

/// Check the max–min fairness conditions on the *current* allocation:
///  1. No resource is oversubscribed.
///  2. Every flow is either at its own cap or has a bottleneck resource
///     that is saturated and on which no other flow gets a higher rate.
fn check_maxmin(net: &FlowNet, live: &BTreeMap<FlowId, (u32, u32, Option<f64>)>) {
    const EPS: f64 = 1e-3;
    let mut up = [0.0f64; NODES];
    let mut down = [0.0f64; NODES];
    let mut agg = 0.0f64;
    for (&id, &(src, dst, cap)) in live {
        let r = net.rate_of(id).expect("live flow has a rate");
        assert!(r >= -EPS, "negative rate");
        if let Some(c) = cap {
            assert!(r <= c * (1.0 + EPS) + 1.0, "rate {r} exceeds cap {c}");
        }
        up[src as usize] += r;
        down[dst as usize] += r;
        agg += r;
    }
    for (i, &u) in up.iter().enumerate() {
        assert!(
            u <= mb_per_s(NIC) * (1.0 + EPS) + 1.0,
            "uplink {i} oversubscribed: {u}"
        );
    }
    for (i, &d) in down.iter().enumerate() {
        assert!(
            d <= mb_per_s(NIC) * (1.0 + EPS) + 1.0,
            "downlink {i} oversubscribed: {d}"
        );
    }
    assert!(
        agg <= mb_per_s(SWITCH) * (1.0 + EPS) + 1.0,
        "switch oversubscribed: {agg}"
    );

    // Bottleneck condition.
    for (&id, &(src, dst, cap)) in live {
        let r = net.rate_of(id).unwrap();
        if let Some(c) = cap {
            if r >= c * (1.0 - EPS) - 1.0 {
                continue; // capped flow: fine
            }
        }
        let max_on = |total: f64, capacity: f64, peers: &dyn Fn() -> f64| -> bool {
            // resource saturated and this flow is (one of) the largest on it
            total >= capacity * (1.0 - EPS) - 1.0 && r >= peers() * (1.0 - EPS) - 1.0
        };
        let peers_up = || {
            live.iter()
                .filter(|(_, &(s, _, _))| s == src)
                .map(|(fid, _)| net.rate_of(*fid).unwrap())
                .fold(0.0, f64::max)
        };
        let peers_down = || {
            live.iter()
                .filter(|(_, &(_, d, _))| d == dst)
                .map(|(fid, _)| net.rate_of(*fid).unwrap())
                .fold(0.0, f64::max)
        };
        let peers_all = || {
            live.keys()
                .map(|fid| net.rate_of(*fid).unwrap())
                .fold(0.0, f64::max)
        };
        let ok = max_on(up[src as usize], mb_per_s(NIC), &peers_up)
            || max_on(down[dst as usize], mb_per_s(NIC), &peers_down)
            || max_on(agg, mb_per_s(SWITCH), &peers_all);
        assert!(
            ok,
            "flow {id:?} (rate {r:.1}) has no saturated bottleneck where it is maximal"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn maxmin_invariants_hold_under_churn(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut net = FlowNet::new(topo());
        let mut now = SimTime::ZERO;
        let mut live: BTreeMap<FlowId, (u32, u32, Option<f64>)> = BTreeMap::new();
        let mut requested: BTreeMap<FlowId, u64> = BTreeMap::new();
        let mut finished_bytes = 0u64;
        let mut cancelled_partial = 0u64;

        for op in ops {
            match op {
                Op::Start { src, dst, mib, cap } => {
                    if src == dst { continue; }
                    let id = net.start_flow(now, NodeId(src), NodeId(dst), mib * MIB, cap, TrafficTag::StoragePush);
                    live.insert(id, (src, dst, cap));
                    requested.insert(id, mib * MIB);
                }
                Op::CancelOldest => {
                    if let Some((&id, _)) = live.iter().next() {
                        let (left, ()) = net.cancel_flow(now, id).unwrap();
                        let req = requested.remove(&id).unwrap();
                        prop_assert!(left <= req + 1);
                        cancelled_partial += req - left.min(req);
                        live.remove(&id);
                    }
                }
                Op::RunToNextCompletion => {
                    if let Some((t, id)) = net.next_completion() {
                        if t == SimTime::FAR_FUTURE { continue; }
                        now = t;
                        net.complete(now, id);
                        finished_bytes += requested.remove(&id).unwrap();
                        live.remove(&id);
                    }
                }
            }
            check_maxmin(&net, &live);
        }

        // Conservation: everything delivered is either a finished flow,
        // the delivered part of a cancelled flow, or in-flight progress.
        net.advance(now);
        let in_flight_progress: u64 = live.keys()
            .map(|id| requested[id] - net.remaining_of(*id).unwrap().min(requested[id]))
            .sum();
        let accounted = finished_bytes + cancelled_partial + in_flight_progress;
        let delivered = net.total_delivered();
        let diff = delivered.abs_diff(accounted);
        prop_assert!(diff <= 4 * (finished_bytes / MIB + 16), "conservation violated: delivered={delivered} accounted={accounted}");
    }

    #[test]
    fn completions_are_deterministic(seeds in prop::collection::vec(0u32..NODES as u32, 4..20)) {
        // Build the same flow pattern twice; completion order must match exactly.
        let build = |seeds: &[u32]| {
            let mut net = FlowNet::new(topo());
            for (i, &s) in seeds.iter().enumerate() {
                let dst = (s + 1) % NODES as u32;
                net.start_flow(SimTime::ZERO, NodeId(s), NodeId(dst), (i as u64 + 1) * MIB, None, TrafficTag::Memory);
            }
            let mut order = Vec::new();
            while let Some((t, id)) = net.next_completion() {
                net.complete(t, id);
                order.push((t, id));
            }
            order
        };
        prop_assert_eq!(build(&seeds), build(&seeds));
    }

    #[test]
    fn single_flow_rate_is_min_of_constraints(cap in prop::option::of(1.0f64..200.0)) {
        let mut net = FlowNet::new(topo());
        let f = net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 64 * MIB, cap.map(mb_per_s), TrafficTag::Memory);
        let expect = mb_per_s(cap.unwrap_or(NIC).min(NIC));
        let got = net.rate_of(f).unwrap();
        prop_assert!((got - expect).abs() < 1.0, "got {got}, expected {expect}");
    }
}
