//! Micro-benchmarks of the simulator's hot paths: the max–min fair
//! network allocator (dense, and sparse at fleet size) and its
//! next-completion query, chunk-set algebra, one migration's hybrid
//! policy state, the fair-shared resource, and a full paper-scale
//! single-migration run.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lsm_blockdev::{ChunkId, ChunkSet};
use lsm_core::config::ClusterConfig;
use lsm_core::engine::Engine;
use lsm_core::policy::{HybridDest, HybridSource, StrategyKind};
use lsm_netsim::{FlowId, FlowNet, NodeId, SolverMode, Topology, TrafficTag};
use lsm_simcore::resource::SharedResource;
use lsm_simcore::units::{mb_per_s, MIB};
use lsm_simcore::SimTime;
use lsm_workloads::WorkloadSpec;

fn net_with_127_flows(solver: SolverMode) -> FlowNet {
    let topo = Topology::symmetric(64, mb_per_s(117.5), mb_per_s(2048.0));
    let mut net = FlowNet::new(topo);
    net.set_solver(solver);
    for i in 0..127u32 {
        net.start_flow(
            SimTime::ZERO,
            NodeId(i % 64),
            NodeId((i + 1) % 64),
            64 * MIB,
            None,
            TrafficTag::Memory,
        );
    }
    net
}

/// A switch-decoupled `nodes`-node fabric carrying 150 long flows on
/// node pairs `(2k, 2k + 1)`, one flow each way per pair. Pair `(0, 1)`
/// holds exactly two flows on any fabric; the other 148 flows fill
/// pairs `1..=74` when the fabric has that many (2-flow components
/// throughout) and wrap around the available pairs when it does not.
fn sparse_net(nodes: u32) -> FlowNet {
    let nic = mb_per_s(117.5);
    let topo = Topology::symmetric(nodes as usize, nic, 2.0 * nodes as f64 * nic);
    assert!(FlowNet::switch_decoupled(&topo));
    let mut net = FlowNet::new(topo);
    let others = nodes / 2 - 1;
    for i in 0..150u32 {
        let pair = if i < 2 { 0 } else { 1 + (i / 2 - 1) % others };
        let (a, b) = (NodeId(2 * pair), NodeId(2 * pair + 1));
        let (src, dst) = if i % 2 == 0 { (a, b) } else { (b, a) };
        net.start_flow(SimTime::ZERO, src, dst, 64 * MIB, None, TrafficTag::Memory);
    }
    net
}

/// `net_with_127_flows`'s fabric, whose switch holds about 17.4 NICs,
/// carrying 16 long flows, one each way on node pairs `(2k, 2k + 1)` for
/// `k < 8`. Sixteen busy NICs cannot fill the switch, so each change
/// re-solves only its component although the fabric is switch-coupled.
fn few_busy_net() -> FlowNet {
    let topo = Topology::symmetric(64, mb_per_s(117.5), mb_per_s(2048.0));
    assert!(!FlowNet::switch_decoupled(&topo));
    let mut net = FlowNet::new(topo);
    for i in 0..16u32 {
        let (a, b) = (NodeId(i / 2 * 2), NodeId(i / 2 * 2 + 1));
        let (src, dst) = if i % 2 == 0 { (a, b) } else { (b, a) };
        net.start_flow(SimTime::ZERO, src, dst, 64 * MIB, None, TrafficTag::Memory);
    }
    net
}

/// One zero-byte flow on nodes (0, 1), started and completed at once,
/// which restores the network exactly.
fn start_complete_pair0(net: &mut FlowNet) -> usize {
    let f = net.start_flow(
        SimTime::ZERO,
        NodeId(0),
        NodeId(1),
        0,
        None,
        TrafficTag::StoragePull,
    );
    net.complete(SimTime::ZERO, f);
    net.active()
}

/// [`start_complete_pair0`] with the query the engine makes after every
/// flow change: start, next completion (the new flow, due at once),
/// complete, next completion.
fn change_next_completion_pair0(net: &mut FlowNet) -> Option<(SimTime, FlowId)> {
    let f = net.start_flow(
        SimTime::ZERO,
        NodeId(0),
        NodeId(1),
        0,
        None,
        TrafficTag::StoragePull,
    );
    let (at, next) = net.next_completion().expect("the new flow is due");
    assert_eq!(next, f);
    net.complete(at, f);
    net.next_completion()
}

fn bench_netsim(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate/netsim");
    // 64 nodes, 128 concurrent flows: the fig5 regime. The 128th flow
    // start triggers a recompute over the full flow set.
    g.bench_function("maxmin_recompute_128_flows", |b| {
        b.iter_batched(
            || net_with_127_flows(SolverMode::Incremental),
            |mut net| {
                net.start_flow(
                    SimTime::ZERO,
                    NodeId(3),
                    NodeId(9),
                    MIB,
                    None,
                    TrafficTag::StoragePush,
                );
                // Returned, so tearing the network down stays outside
                // the measurement.
                net
            },
            BatchSize::SmallInput,
        )
    });
    // The from-scratch oracle on the same workload, for the trajectory
    // comparison (this is what every recompute cost before PR 2).
    g.bench_function("maxmin_recompute_128_flows_reference", |b| {
        b.iter_batched(
            || net_with_127_flows(SolverMode::Reference),
            |mut net| {
                net.start_flow(
                    SimTime::ZERO,
                    NodeId(3),
                    NodeId(9),
                    MIB,
                    None,
                    TrafficTag::StoragePush,
                );
                // Returned, so tearing the network down stays outside
                // the measurement.
                net
            },
            BatchSize::SmallInput,
        )
    });
    // The fleet regime: 150 live flows, and each change re-solves one
    // small component. A zero-byte flow joins the 2-flow component on
    // nodes (0, 1) and completes at once. That component is the same on
    // both fabrics, so the per-call cost should not grow from 64 to 1024
    // nodes.
    for nodes in [64u32, 1024] {
        let mut net = sparse_net(nodes);
        g.bench_function(&format!("sparse_start_complete_{nodes}_nodes"), |b| {
            b.iter(|| start_complete_pair0(&mut net))
        });
    }
    // The same change with a next-completion query after each call, as
    // the engine makes them: two scans of all 150 live flows per change,
    // which should cost about the same on both fabrics.
    for nodes in [64u32, 1024] {
        let mut net = sparse_net(nodes);
        g.bench_function(
            &format!("sparse_change_next_completion_{nodes}_nodes"),
            |b| b.iter(|| change_next_completion_pair0(&mut net)),
        );
    }
    // The same pair of calls on a switch-coupled fabric with few busy
    // NICs, the regime of a scale64 run: the switch cannot bind, so the
    // pair re-solves the 2-flow component instead of all 16 flows.
    let mut net = few_busy_net();
    g.bench_function("few_busy_start_complete", |b| {
        b.iter(|| start_complete_pair0(&mut net))
    });
    g.finish();
}

fn bench_blockdev(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate/blockdev");
    g.bench_function("chunkset_insert_iterate_16k", |b| {
        b.iter(|| {
            let mut s = ChunkSet::new(16384);
            for i in (0..16384).step_by(3) {
                s.insert(ChunkId(i));
            }
            std::hint::black_box(s.iter().map(|c| c.0 as u64).sum::<u64>())
        })
    });
    g.bench_function("chunkset_union_subtract_16k", |b| {
        let a = ChunkSet::from_iter(16384, (0..16384).step_by(2).map(ChunkId));
        let bset = ChunkSet::from_iter(16384, (0..16384).step_by(3).map(ChunkId));
        b.iter(|| {
            let mut x = a.clone();
            x.union_with(&bset);
            x.subtract(&a);
            std::hint::black_box(x.count())
        })
    });
    // One hybrid migration's policy state on a 4 GiB image (16,384
    // chunks of 256 KiB) whose guest wrote the 2,400 chunks of
    // `scale64`'s AsyncWr region: start, the push phase while every
    // eighth chunk is rewritten after each push (so it turns hot and
    // stays behind), the handoff, the destination's start, and the
    // pull drain.
    g.bench_function("hybrid_handoff_16k", |b| {
        let modified = ChunkSet::from_iter(16384, (2048..4448).map(ChunkId));
        b.iter(|| {
            let mut src = HybridSource::start(modified.clone(), 3, true);
            while let Some(c) = src.next_push() {
                src.push_done(c);
                if c.0 % 8 == 0 {
                    src.on_write(c);
                }
            }
            let (remaining, counts) = src.handoff();
            let mut dst = HybridDest::start(remaining, counts, true);
            let mut pulled = 0u32;
            while let Some(c) = dst.next_pull() {
                dst.pull_done(c);
                pulled += 1;
            }
            assert_eq!(pulled, 300);
            std::hint::black_box((src.total_pushes(), pulled))
        })
    });
    g.finish();
}

fn bench_resource(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate/resource");
    g.bench_function("shared_resource_churn_64", |b| {
        b.iter(|| {
            let mut r = SharedResource::new(mb_per_s(55.0));
            let mut t = SimTime::ZERO;
            for i in 0..64 {
                r.submit(t, 256 * 1024, i);
                if i % 4 == 0 {
                    if let Some(at) = r.next_completion() {
                        t = at;
                        r.pop_due(t);
                    }
                }
            }
            std::hint::black_box(r.active())
        })
    });
    g.finish();
}

fn bench_full_migration(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate/engine");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(8));
    // A full paper-scale hybrid migration of an IOR guest: the headline
    // end-to-end path (≈300k events).
    g.bench_function("paper_scale_ior_hybrid_migration", |b| {
        b.iter(|| {
            let mut eng = Engine::new(ClusterConfig::graphene(8)).unwrap();
            let vm = eng
                .add_vm(
                    0,
                    &WorkloadSpec::ior_paper(),
                    StrategyKind::Hybrid,
                    SimTime::ZERO,
                )
                .unwrap();
            eng.schedule_migration(vm, 1, SimTime::from_secs(100))
                .unwrap();
            let r = eng.run_until(SimTime::from_secs(400));
            assert!(r.the_migration().completed);
            std::hint::black_box(r.events)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_netsim,
    bench_blockdev,
    bench_resource,
    bench_full_migration
);
criterion_main!(benches);
