//! The flow scheduler: incremental max–min fair rate allocation.
//!
//! # Flow records
//!
//! Every live flow is one `Flow` record in a vector ascending by id:
//! its endpoints, size, cap and traffic tag, its progress triple, its
//! cached finish instant, and the caller's context `C`. The context
//! takes no part in the solve; it is moved in by [`FlowNet::start`] and
//! out by [`FlowNet::complete`] or [`FlowNet::cancel_flow`], and
//! [`FlowNet::contexts`] reads the live ones in id order. So a caller
//! that needs to know why a flow exists keeps no map of its own.
//!
//! # Allocator architecture
//!
//! Rates are the classic progressive-filling max–min fair allocation over
//! the resources each flow crosses (source uplink, destination downlink,
//! the switch aggregate, and an optional per-flow cap). Two solvers
//! produce that allocation:
//!
//! * [`SolverMode::Incremental`] (the default) keeps persistent
//!   bookkeeping — flat flow storage, reusable scratch tables, per-node
//!   flow adjacency — so a recompute allocates nothing. When the switch
//!   aggregate provably cannot be a bottleneck for the live flows (see
//!   below), a change re-solves only the flows transitively sharing a
//!   node with the changed flow (dirty-marking by connected component);
//!   everyone else keeps their rate bit-for-bit.
//! * [`SolverMode::Reference`] re-runs the original from-scratch
//!   water-filling on every change. It is kept as a test oracle: the
//!   incremental solver must produce **bit-identical** rates, reports and
//!   completion times (asserted by the `equivalence` proptest suite and
//!   the fig3/fig4/fig5 report-identity tests).
//!
//! # When the switch cannot bind
//!
//! Flows on disjoint node sets interact only through the switch
//! aggregate. On every flow change the incremental solver decides from
//! the live flows, not the whole fabric, whether the switch can bind:
//!
//! ```text
//! busy_up × max_up ≤ switch / (1 + 2⁻¹⁰)   or   busy_down × max_down ≤ switch / (1 + 2⁻¹⁰)
//! ```
//!
//! `busy_up` and `busy_down` count the nodes with at least one live
//! outgoing or incoming flow: the 0↔1 transitions of the per-resource
//! live-flow counts. `max_up` and `max_down` are the largest pristine
//! NIC capacities; a degradation only lowers a NIC, so they stay upper
//! bounds. A fabric whose switch is far smaller than its summed NICs
//! therefore still re-solves by component while few of its nodes are
//! busy. [`FlowNet::switch_decoupled`] is the case with every node busy.
//!
//! Why the rule suffices: in every round of the water-filling, the
//! switch's fair share is its residual capacity over the unfixed flows.
//! Each unfixed flow crosses one uplink of a busy node, and those
//! uplinks hold no more residual capacity between them than the switch
//! (both lose the same frozen rates). By the mediant inequality,
//! `min_i up_i/c_i ≤ Σup/Σc ≤ switch_left/Σc`, so some NIC's fair share
//! is at most the switch's; NICs are indexed before the switch, so the
//! lowest-index tie-break never picks it. Downlinks give the same
//! argument. The margin of 2⁻¹⁰ of the switch keeps the comparison clear
//! of water-filling's rounding drift, about `(m + 2)·2⁻⁵³` of the switch
//! for `m` live flows; without it, the incremental and reference solvers
//! can differ by one ulp.
//!
//! A component re-solve keeps every other component's rates, so it is
//! sound only if the switch could not bind when those rates were solved
//! either. `FlowNet` records the regime of its last solve, and a change
//! re-solves by component only when the rule held both before and after
//! it. The change that ends a stretch in which the switch could bind is
//! therefore a full solve: it replaces rates the switch may have capped
//! with the ones each component gets alone.
//!
//! # O(component) re-solves
//!
//! A component re-solve costs time in the size of the changed
//! component, not the fleet:
//!
//! * every node keeps the ids of the live flows it sends or receives,
//!   updated as flows start and leave, so the component is found by
//!   walking those lists outward from the changed endpoints;
//! * the water-filling runs over a compact table holding only the
//!   physical resources the members cross, renumbered in ascending
//!   global index, followed by the members' virtual caps in member
//!   order.
//!
//! Neither changes the arithmetic. Members are solved in ascending
//! flow-id order, as before, so every subtraction happens in the same
//! order. In a table over every resource, one that no member crosses
//! has a zero count, and the water-filling skips it without comparing
//! it or touching its division memo. The renumbered table therefore
//! presents the same resources in the same order, and the lowest-index
//! tie-break picks the same bottleneck.
//!
//! # Epoch-based progress accounting
//!
//! [`FlowNet::advance`] is O(1): it only moves the network clock. Each
//! flow remembers `(rate, remaining, touched)` from the last time its
//! rate changed; delivered bytes are materialized lazily — when the
//! solver assigns a *different* rate, when the flow completes or is
//! cancelled, or projected on the fly for queries. Between rate changes
//! a flow's progress is exactly linear, so nothing is lost by not
//! walking every flow on every event.
//!
//! The same triple fixes the flow's finish instant, so each flow caches
//! it as `due`: `touched` for a sub-byte residue, `FAR_FUTURE` at rate
//! zero, otherwise `touched + remaining / rate` rounded to the
//! nanosecond. Only [`FlowNet::start`] and a committed rate change
//! write the triple of a flow that stays live, and both recompute `due`.
//! [`FlowNet::next_completion`] is then a compare-only scan of
//! `due.max(now)`, lowest id on ties: it converts nothing, and returns
//! what converting every flow on every call would.

use crate::reference;
use crate::topology::{NodeId, Topology};
use lsm_simcore::time::{finish_residue_bound, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Handle to an in-flight network flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

/// Classification of network traffic, used to reproduce the paper's
/// per-cause traffic accounting (Figures 3b, 4b, 5b).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum TrafficTag {
    /// Memory pre-copy / post-copy transfer performed by the hypervisor.
    Memory,
    /// Chunks actively pushed source→destination before control transfer.
    StoragePush,
    /// Chunks pulled destination←source after control transfer
    /// (both prioritized prefetch and on-demand pulls).
    StoragePull,
    /// Synchronous write mirroring (the `mirror` baseline).
    Mirror,
    /// On-demand base-image fetches from the striped repository.
    RepoFetch,
    /// I/O redirected to the parallel file system (`pvfs-shared` baseline).
    PvfsIo,
    /// Application-level traffic (e.g. CM1 halo exchanges).
    AppNet,
    /// Small control messages (migration requests, chunk lists, acks).
    Control,
}

impl TrafficTag {
    /// All tags, for report iteration.
    pub const ALL: [TrafficTag; 8] = [
        TrafficTag::Memory,
        TrafficTag::StoragePush,
        TrafficTag::StoragePull,
        TrafficTag::Mirror,
        TrafficTag::RepoFetch,
        TrafficTag::PvfsIo,
        TrafficTag::AppNet,
        TrafficTag::Control,
    ];

    /// Dense index of the tag (position in [`TrafficTag::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// True if this traffic is attributable to live migration itself
    /// (the paper's Fig 5b subtracts application traffic).
    pub fn is_migration(self) -> bool {
        !matches!(self, TrafficTag::AppNet)
    }
}

/// Number of traffic classes (length of [`TrafficTag::ALL`]).
const NTAGS: usize = TrafficTag::ALL.len();

/// Sentinel padding a flow's fixed-width resource row (uncapped flows
/// cross three resources, capped flows four).
const NO_RES: u32 = u32::MAX;

/// Sentinel rate marking a flow not yet frozen by the water-filling
/// (fair shares are clamped non-negative, so this can never collide).
const UNFIXED: f64 = -1.0;

/// Headroom the switch must keep over the busy NICs' summed capacity
/// before the solver treats it as unable to bind: a relative margin of
/// 2⁻¹⁰, far above water-filling's rounding drift. See the module docs.
const SWITCH_MARGIN: f64 = 1.0 + 1.0 / 1024.0;

/// The decoupling rule of the module docs: a switch of capacity `switch`
/// cannot bind while `senders` nodes send at most `max_up` each, or
/// `receivers` nodes receive at most `max_down` each, with
/// [`SWITCH_MARGIN`] to spare.
fn switch_cannot_bind(
    switch: f64,
    senders: u32,
    max_up: f64,
    receivers: u32,
    max_down: f64,
) -> bool {
    let limit = switch / SWITCH_MARGIN;
    f64::from(senders) * max_up <= limit || f64::from(receivers) * max_down <= limit
}

/// Which max–min solver computes flow rates. See the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolverMode {
    /// Persistent-state incremental solver with component dirty-marking
    /// (the production path).
    #[default]
    Incremental,
    /// From-scratch progressive filling on every change — the original
    /// implementation, kept as a correctness oracle for tests.
    Reference,
}

/// Read-only snapshot of one in-flight flow (see
/// [`FlowNet::flow_views`]).
#[derive(Clone, Copy, Debug)]
pub struct FlowView {
    /// The flow's handle.
    pub id: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Current allocated rate, bytes/second.
    pub rate: f64,
    /// Bytes not yet delivered, projected to the network clock.
    pub remaining: f64,
    /// Per-flow rate cap, if any.
    pub cap: Option<f64>,
    /// Traffic classification.
    pub tag: TrafficTag,
}

#[derive(Debug)]
pub(crate) struct Flow<C> {
    pub(crate) id: FlowId,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    /// Requested size at creation — the integer credited to the traffic
    /// accounting when the flow finishes.
    pub(crate) bytes: u64,
    /// Bytes left at `touched` (not at the network clock!).
    pub(crate) remaining: f64,
    pub(crate) rate: f64,
    pub(crate) cap: Option<f64>,
    pub(crate) tag: TrafficTag,
    /// Instant of the last materialization (rate change / creation).
    pub(crate) touched: SimTime,
    /// Finish instant implied by `(touched, remaining, rate)`; see
    /// [`Flow::finish`]. Recomputed whenever any of the three changes.
    pub(crate) due: SimTime,
    /// The caller's record of why the flow exists, handed back when the
    /// flow completes or is cancelled.
    pub(crate) ctx: C,
}

impl<C> Flow<C> {
    /// The finish instant of the module docs: at `touched` for a
    /// sub-byte residue, never at rate zero, otherwise after `remaining`
    /// at `rate`, rounded to the nanosecond.
    #[inline]
    fn finish(&self) -> SimTime {
        if self.remaining <= 0.5 {
            self.touched
        } else if self.rate <= 0.0 {
            SimTime::FAR_FUTURE
        } else {
            self.touched + SimDuration::from_secs_f64(self.remaining / self.rate)
        }
    }

    /// Bytes moved between `touched` and `at` (projection, no mutation).
    #[inline]
    fn moved_until(&self, at: SimTime) -> f64 {
        let dt = at.since(self.touched).as_secs_f64();
        (self.rate * dt).min(self.remaining)
    }
}

/// Reusable solver state: everything the incremental allocator needs
/// across recomputes, so a recompute performs no allocation once the
/// buffers reached steady-state capacity.
#[derive(Debug, Default)]
struct Scratch {
    /// Residual capacity per resource (uplinks, downlinks, switch, then
    /// one virtual resource per capped member flow).
    cap_left: Vec<f64>,
    /// Unfixed member flows crossing each resource.
    count: Vec<u32>,
    /// Per-member-flow resource index rows ([`NO_RES`]-padded).
    flow_res: Vec<[u32; 4]>,
    /// Solved rates per member flow; [`UNFIXED`] marks not-yet-frozen
    /// flows during the water-filling (real shares are never negative).
    new_rates: Vec<f64>,
    /// Member flow indices (into `FlowNet::flows`), ascending.
    mflows: Vec<u32>,
    /// Global indices of the physical resources the members cross,
    /// ascending; position `k` is local resource `k` of a member solve.
    mres: Vec<u32>,
    /// Component walk state: a per-node visited flag (all false between
    /// walks) and the visited nodes in discovery order, which doubles as
    /// the worklist and as the list of flags to clear afterwards.
    node_seen: Vec<bool>,
    nodes: Vec<u32>,
}

impl Scratch {
    /// Add `node` to the component walk unless it was already reached.
    #[inline]
    fn visit(&mut self, node: NodeId) {
        if !self.node_seen[node.idx()] {
            self.node_seen[node.idx()] = true;
            self.nodes.push(node.0);
        }
    }
}

/// The largest uplink and downlink capacity of `topo`'s nodes.
fn max_nic(topo: &Topology) -> (f64, f64) {
    topo.node_ids()
        .map(|i| topo.caps(i))
        .fold((0.0, 0.0), |(up, down), c| (up.max(c.up), down.max(c.down)))
}

/// Position of flow `id` in the id-ordered flow vector, if live.
#[inline]
fn flow_pos<C>(flows: &[Flow<C>], id: FlowId) -> Option<usize> {
    flows.binary_search_by_key(&id, |f| f.id).ok()
}

/// The flow-level network simulator, whose flows each carry a context
/// `C` (nothing, for the default `()`). See the crate docs.
#[derive(Debug)]
pub struct FlowNet<C = ()> {
    topo: Topology,
    /// Active flows, ascending by id (ids are issued monotonically, so
    /// insertion is a push; removal is a binary search + shift).
    flows: Vec<Flow<C>>,
    /// Persistent per-flow resource rows, parallel to `flows`:
    /// `[src uplink, dst downlink, switch, virtual-cap or NO_RES]`. Rows
    /// are constants except the virtual-cap index, which shifts when an
    /// earlier capped flow leaves (fixed up during removal).
    rows: Vec<[u32; 4]>,
    /// Caps of the capped flows, in flow order — the tail of `cap_left`
    /// after the physical resources.
    caps_list: Vec<f64>,
    next_id: u64,
    last_advance: SimTime,
    /// Bytes credited by *finished* flows (completed or cancelled) per
    /// traffic class, indexed by [`TrafficTag::index`]. Integer on
    /// purpose: summing per-shard counters is then order-independent, so
    /// a sharded run's merged traffic report is bit-identical to the
    /// monolithic one. Queries add the live flows' lazy projection on
    /// top.
    finished: [u64; NTAGS],
    finished_total: u64,
    peak_active: usize,
    /// Optional changepoint log of `(time, live-flow count)`, recorded
    /// after every flow-set mutation (one entry per instant, last write
    /// wins). The sharded runner enables this to reconstruct the exact
    /// *global* concurrent-flow peak across shards; see
    /// [`FlowNet::enable_load_log`].
    load_log: Option<Vec<(SimTime, u32)>>,
    solver: SolverMode,
    /// True when the current rates were solved with the switch unable to
    /// bind (the module docs' rule held after the last change), so every
    /// component's rates are the ones it gets alone. A change re-solves
    /// by component only if this and the rule after the change both hold.
    decoupled: bool,
    /// Nodes with at least one live outgoing / incoming flow.
    busy_up: u32,
    busy_down: u32,
    /// Largest pristine uplink / downlink capacity: upper bounds on
    /// every NIC, since a degradation only lowers one.
    max_up: f64,
    max_down: f64,
    /// *Current* capacities of the `2n + 1` physical resources (uplinks,
    /// downlinks, switch), so a full solve initializes `cap_left` with a
    /// memcpy instead of per-node lookups. Kept in lockstep with the
    /// topology when [`FlowNet::set_link_factor`] mutates capacities.
    caps_flat: Vec<f64>,
    /// Pristine per-node NIC capacities captured at construction: the
    /// restore target for runtime link degradation.
    base_caps: Vec<crate::topology::NodeCaps>,
    /// Current degradation factor per node (1.0 = pristine).
    factors: Vec<f64>,
    /// Live-flow counts per physical resource, maintained on every flow
    /// insert/remove — the full solve's `count` table starts as a copy.
    count_all: Vec<u32>,
    /// Ids of the live flows with each node as source or destination,
    /// ascending (ids are issued monotonically, so insertion is a push).
    node_flows: Vec<Vec<FlowId>>,
    scratch: Scratch,
}

impl FlowNet {
    /// Whether the switch aggregate is provably never the most
    /// constrained resource on `topo`, however many of its nodes carry
    /// flows: the module docs' rule with every node busy, `n × max_up`
    /// or `n × max_down` at most `switch / (1 + 2⁻¹⁰)`. (The mediant
    /// inequality gives `min_i up_i/c_i ≤ Σup/Σc ≤ switch_left/Σc`
    /// whenever `switch ≥ Σup`; the margin keeps the comparison out of
    /// floating-point rounding range.) When true, flows on disjoint node
    /// sets are always independent and the incremental solver re-solves
    /// only the changed component. When false, it still does so while
    /// few enough nodes are busy.
    pub fn switch_decoupled(topo: &Topology) -> bool {
        let (max_up, max_down) = max_nic(topo);
        let n = topo.len() as u32;
        switch_cannot_bind(topo.switch_capacity, n, max_up, n, max_down)
    }

    /// [`FlowNet::start`] for a network whose flows carry no context.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cap: Option<f64>,
        tag: TrafficTag,
    ) -> FlowId {
        self.start(now, src, dst, bytes, cap, tag, ())
    }
}

impl<C> FlowNet<C> {
    /// Create a network over `topo` with no flows.
    pub fn new(topo: Topology) -> Self {
        let n = topo.len();
        let mut caps_flat = Vec::with_capacity(2 * n + 1);
        for i in 0..n {
            caps_flat.push(topo.caps(NodeId(i as u32)).up);
        }
        for i in 0..n {
            caps_flat.push(topo.caps(NodeId(i as u32)).down);
        }
        caps_flat.push(topo.switch_capacity);
        let base_caps: Vec<crate::topology::NodeCaps> =
            topo.node_ids().map(|i| topo.caps(i)).collect();
        let (max_up, max_down) = max_nic(&topo);
        FlowNet {
            topo,
            flows: Vec::new(),
            rows: Vec::new(),
            caps_list: Vec::new(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            finished: [0; NTAGS],
            finished_total: 0,
            peak_active: 0,
            load_log: None,
            solver: SolverMode::default(),
            // No flows, so no rates the switch could have capped.
            decoupled: true,
            busy_up: 0,
            busy_down: 0,
            max_up,
            max_down,
            caps_flat,
            base_caps,
            factors: vec![1.0; n],
            count_all: vec![0; 2 * n + 1],
            node_flows: vec![Vec::new(); n],
            scratch: Scratch {
                node_seen: vec![false; n],
                ..Scratch::default()
            },
        }
    }

    /// Select the rate solver. The reference solver is a from-scratch
    /// oracle for tests; both must produce bit-identical allocations.
    pub fn set_solver(&mut self, mode: SolverMode) {
        self.solver = mode;
    }

    /// The active solver.
    pub fn solver(&self) -> SolverMode {
        self.solver
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// One-way control-message latency of the fabric.
    pub fn latency(&self) -> SimDuration {
        self.topo.latency
    }

    /// Number of in-flight flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Highest number of concurrently live flows seen so far, sampled at
    /// the end of every simulated instant (whenever the network clock
    /// strictly advances past a batch of flow operations).
    pub fn peak_active(&self) -> usize {
        self.peak_active
    }

    /// Start recording `(time, live-flow count)` changepoints, one entry
    /// per instant at which the flow set changed. The sharded engine
    /// turns this on for every shard and sweep-merges the logs to
    /// recover the global concurrent-flow peak exactly as the monolithic
    /// engine would have sampled it.
    pub fn enable_load_log(&mut self) {
        if self.load_log.is_none() {
            self.load_log = Some(Vec::new());
        }
    }

    /// The recorded changepoint log (empty unless
    /// [`Self::enable_load_log`] was called before any flow started).
    pub fn load_log(&self) -> &[(SimTime, u32)] {
        self.load_log.as_deref().unwrap_or(&[])
    }

    /// Sum of all live flows' allocated rates (bytes/second) — the load
    /// the switch aggregate is carrying right now. The sharded runner's
    /// window barrier sums this across shards to check the shared switch
    /// budget.
    pub fn rate_total(&self) -> f64 {
        self.flows.iter().map(|f| f.rate).sum()
    }

    /// Record the current flow count against the current instant
    /// (last write at the same instant wins: the log keeps only
    /// end-of-instant states).
    #[inline]
    fn log_load(&mut self) {
        if let Some(log) = &mut self.load_log {
            let n = self.flows.len() as u32;
            match log.last_mut() {
                Some(e) if e.0 == self.last_advance => e.1 = n,
                _ => log.push((self.last_advance, n)),
            }
        }
    }

    /// Start a bulk transfer of `bytes` from `src` to `dst`, carrying
    /// `ctx` until it completes or is cancelled.
    ///
    /// `cap` optionally rate-limits this flow (bytes/second) on top of the
    /// fair share — this is how QEMU's `migrate_set_speed` is modeled.
    ///
    /// Panics if `src == dst`; local data movement never crosses the
    /// network and must be modeled on the node's disk/cache instead.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cap: Option<f64>,
        tag: TrafficTag,
        ctx: C,
    ) -> FlowId {
        assert!(src != dst, "loopback flows are not network flows");
        assert!(src.idx() < self.topo.len() && dst.idx() < self.topo.len());
        self.advance(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let mut flow = Flow {
            id,
            src,
            dst,
            bytes,
            remaining: bytes as f64,
            rate: 0.0,
            cap,
            tag,
            touched: now,
            due: now,
            ctx,
        };
        // The solve below leaves a flow that stays at rate zero alone.
        flow.due = flow.finish();
        self.flows.push(flow);
        let n = self.topo.len();
        let vres = match cap {
            Some(c) => {
                self.caps_list.push(c);
                (2 * n + self.caps_list.len()) as u32
            }
            None => NO_RES,
        };
        self.rows
            .push([src.0, n as u32 + dst.0, 2 * n as u32, vres]);
        self.count_all[src.idx()] += 1;
        self.count_all[n + dst.idx()] += 1;
        self.count_all[2 * n] += 1;
        self.busy_up += u32::from(self.count_all[src.idx()] == 1);
        self.busy_down += u32::from(self.count_all[n + dst.idx()] == 1);
        self.node_flows[src.idx()].push(id);
        self.node_flows[dst.idx()].push(id);
        self.log_load();
        self.reallocate(src, dst);
        id
    }

    /// Remove flow `id` with its progress materialized to the network
    /// clock, dropping its resource row, physical-resource and busy-node
    /// counts and adjacency entries. Later capped flows' virtual-resource
    /// indices shift down if the flow was capped.
    fn take_flow(&mut self, id: FlowId) -> Option<Flow<C>> {
        let pos = flow_pos(&self.flows, id)?;
        self.materialize(pos);
        let f = self.flows.remove(pos);
        let row = self.rows.remove(pos);
        if row[3] != NO_RES {
            let base = (2 * self.topo.len() + 1) as u32;
            self.caps_list.remove((row[3] - base) as usize);
            for r in &mut self.rows[pos..] {
                if r[3] != NO_RES {
                    r[3] -= 1;
                }
            }
        }
        for &r in &row[..3] {
            self.count_all[r as usize] -= 1;
        }
        self.busy_up -= u32::from(self.count_all[row[0] as usize] == 0);
        self.busy_down -= u32::from(self.count_all[row[1] as usize] == 0);
        for node in [f.src, f.dst] {
            self.node_flows[node.idx()].retain(|&x| x != id);
        }
        Some(f)
    }

    /// Cancel an in-flight flow, returning the bytes not yet delivered
    /// and its context; `None` if `id` is not in flight.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<(u64, C)> {
        self.advance(now);
        let f = self.take_flow(id)?;
        let left = f.remaining.ceil().max(0.0) as u64;
        let done = f.bytes.saturating_sub(left);
        self.finished[f.tag.index()] += done;
        self.finished_total += done;
        self.log_load();
        self.reallocate(f.src, f.dst);
        Some((left, f.ctx))
    }

    /// Mark a flow complete at `now` (which must be its completion time as
    /// previously reported by [`Self::next_completion`]) and return its
    /// context.
    pub fn complete(&mut self, now: SimTime, id: FlowId) -> C {
        self.advance(now);
        let f = self.take_flow(id).expect("completing unknown flow");
        debug_assert!(
            f.remaining <= finish_residue_bound(f.rate, f.bytes as f64),
            "flow completed with {} bytes left",
            f.remaining
        );
        // Credit the requested size exactly (swallowing the sub-byte
        // numerical residue), so per-tag totals equal the sum of flow
        // sizes and are integers — order-independent across shards.
        self.finished[f.tag.index()] += f.bytes;
        self.finished_total += f.bytes;
        self.log_load();
        self.reallocate(f.src, f.dst);
        f.ctx
    }

    /// Earliest `(finish_time, flow)` among in-flight flows. Deterministic:
    /// ties resolve to the lowest flow id. A finish already passed (a
    /// sub-byte residue) reads as the network clock.
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        let mut best: Option<(SimTime, FlowId)> = None;
        for f in &self.flows {
            let t = f.due.max(self.last_advance);
            match best {
                Some((bt, _)) if bt <= t => {}
                _ => best = Some((t, f.id)),
            }
        }
        best
    }

    /// Move the network clock to `now`. O(1): per-flow progress is
    /// tracked lazily from `(rate, touched)` and materialized only when a
    /// flow's rate changes (or on completion/cancellation/queries).
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_advance, "network time went backwards");
        if now > self.last_advance {
            // The previous instant is over: sample the concurrency peak
            // on its final flow set. End-of-instant sampling is
            // insensitive to the order flow operations interleave
            // *within* an instant, which is what lets the sharded merge
            // reproduce the monolithic value exactly.
            self.peak_active = self.peak_active.max(self.flows.len());
            self.last_advance = now;
        }
    }

    /// Materialize flow `pos`'s progress up to the network clock.
    fn materialize(&mut self, pos: usize) {
        let now = self.last_advance;
        let f = &mut self.flows[pos];
        let moved = f.moved_until(now);
        f.remaining -= moved;
        f.touched = now;
    }

    /// Delivered bytes of one class: finished flows' integer credit plus
    /// the live flows' projected progress.
    fn delivered_f64(&self, tag: TrafficTag) -> f64 {
        let mut v = self.finished[tag.index()] as f64;
        for f in &self.flows {
            if f.tag == tag {
                v += f.bytes as f64 - f.remaining + f.moved_until(self.last_advance);
            }
        }
        v
    }

    /// Bytes delivered so far for a traffic class.
    pub fn delivered(&self, tag: TrafficTag) -> u64 {
        self.delivered_f64(tag).round() as u64
    }

    /// Total bytes delivered across all classes.
    pub fn total_delivered(&self) -> u64 {
        let mut v = self.finished_total as f64;
        for f in &self.flows {
            v += f.bytes as f64 - f.remaining + f.moved_until(self.last_advance);
        }
        v.round() as u64
    }

    /// Bytes delivered for every migration-attributable class
    /// (everything except [`TrafficTag::AppNet`]).
    pub fn migration_delivered(&self) -> u64 {
        TrafficTag::ALL
            .iter()
            .filter(|t| t.is_migration())
            .map(|&t| self.delivered_f64(t))
            .sum::<f64>()
            .round() as u64
    }

    /// Record control-message bytes (modeled latency-only, but the bytes
    /// still appear in the traffic accounting).
    pub fn account_control(&mut self, bytes: u64) {
        self.finished[TrafficTag::Control.index()] += bytes;
        self.finished_total += bytes;
    }

    /// Current rate of a flow in bytes/second, if in flight.
    pub fn rate_of(&self, id: FlowId) -> Option<f64> {
        flow_pos(&self.flows, id).map(|i| self.flows[i].rate)
    }

    /// Bytes remaining for a flow, if in flight.
    pub fn remaining_of(&self, id: FlowId) -> Option<u64> {
        flow_pos(&self.flows, id).map(|i| {
            let f = &self.flows[i];
            (f.remaining - f.moved_until(self.last_advance)).ceil() as u64
        })
    }

    // ---------------- runtime capacity mutation ----------------

    /// Scale a node's NIC capacities (uplink and downlink) to `factor`
    /// times their *pristine* value — the network half of a link
    /// degradation (`factor < 1`) or restoration (`factor == 1`) fault.
    ///
    /// Factors are absolute, not cumulative: two successive
    /// `set_link_factor(.., 0.5)` calls leave the link at half capacity,
    /// not a quarter. Every in-flight flow whose rate can change is
    /// re-solved immediately under the active [`SolverMode`]; the
    /// incremental solver re-solves only the affected component when the
    /// switch cannot bind, and stays bit-identical to
    /// [`SolverMode::Reference`] (asserted by the equivalence proptests).
    /// The decoupling rule reads pristine capacities, so a factor never
    /// changes the regime.
    ///
    /// Panics if `factor` is not in `(0, 1]` — a zero-capacity link
    /// would park its flows at rate 0 forever; model a dead node with a
    /// crash fault instead.
    pub fn set_link_factor(&mut self, now: SimTime, node: NodeId, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "link factor {factor} outside (0, 1]"
        );
        self.advance(now);
        let base = self.base_caps[node.idx()];
        let caps = crate::topology::NodeCaps {
            up: base.up * factor,
            down: base.down * factor,
        };
        self.factors[node.idx()] = factor;
        // The topology is what the reference solver reads; the flat table
        // is what the incremental solver memcpys. Both must move together.
        self.topo.set_caps(node, caps);
        let n = self.topo.len();
        self.caps_flat[node.idx()] = caps.up;
        self.caps_flat[n + node.idx()] = caps.down;
        // Unless the switch can bind, only flows in this node's component
        // can change rate.
        self.reallocate(node, node);
    }

    /// Current degradation factor of a node's NIC (1.0 = pristine).
    pub fn link_factor(&self, node: NodeId) -> f64 {
        self.factors[node.idx()]
    }

    // ---------------- flow inspection ----------------

    /// Read-only snapshots of every in-flight flow, ascending by id.
    /// Rates are the current allocation; `remaining` projects progress
    /// up to the network clock. Used by invariant checkers to audit
    /// conservation laws without touching solver state.
    pub fn flow_views(&self) -> impl Iterator<Item = FlowView> + '_ {
        self.flows.iter().map(move |f| FlowView {
            id: f.id,
            src: f.src,
            dst: f.dst,
            rate: f.rate,
            remaining: (f.remaining - f.moved_until(self.last_advance)).max(0.0),
            cap: f.cap,
            tag: f.tag,
        })
    }

    /// Every in-flight flow's id and context, ascending by id, so a
    /// caller can pick flows by why they exist.
    pub fn contexts(&self) -> impl Iterator<Item = (FlowId, &C)> + '_ {
        self.flows.iter().map(|f| (f.id, &f.ctx))
    }

    /// Ids of every in-flight flow with `node` as source or destination
    /// (ascending). A node-crash fault severs exactly these.
    pub fn flows_touching(&self, node: NodeId) -> Vec<FlowId> {
        self.node_flows.get(node.idx()).cloned().unwrap_or_default()
    }

    // ---------------- rate allocation ----------------

    /// Recompute rates after a change touching `(src, dst)`: a flow
    /// started or left there, or a NIC's capacity moved.
    fn reallocate(&mut self, src: NodeId, dst: NodeId) {
        let was_decoupled = self.decoupled;
        self.decoupled = switch_cannot_bind(
            self.topo.switch_capacity,
            self.busy_up,
            self.max_up,
            self.busy_down,
            self.max_down,
        );
        if self.flows.is_empty() {
            return;
        }
        match self.solver {
            SolverMode::Reference => {
                self.scratch.new_rates = reference::rates(&self.topo, &self.flows);
                self.apply_rates_all();
            }
            SolverMode::Incremental => {
                if was_decoupled && self.decoupled {
                    self.mark_component(src, dst);
                    self.solve_members();
                    self.apply_member_rates();
                } else {
                    // The switch may bind now, or may have capped the
                    // rates in place: full solve, but over persistent
                    // tables (memcpy-initialized, no lookups).
                    self.solve_all();
                    self.apply_rates_all();
                }
            }
        }
    }

    /// Fill `scratch.mflows` with the connected component (via shared
    /// nodes) of the changed endpoints — only these flows' rates can
    /// change when the switch is decoupled. Walks the per-node adjacency
    /// outward from the endpoints, so it costs time in the component's
    /// size, not the fleet's.
    fn mark_component(&mut self, src: NodeId, dst: NodeId) {
        let s = &mut self.scratch;
        s.mflows.clear();
        s.nodes.clear();
        s.visit(src);
        s.visit(dst);
        let mut next = 0;
        while let Some(&u) = s.nodes.get(next) {
            next += 1;
            for &id in &self.node_flows[u as usize] {
                let pos = flow_pos(&self.flows, id).expect("adjacency names live flows");
                let f = &self.flows[pos];
                // Both endpoints list the flow; its source enrolls it.
                if f.src.0 == u {
                    s.mflows.push(pos as u32);
                }
                s.visit(f.src);
                s.visit(f.dst);
            }
        }
        for &u in &s.nodes {
            s.node_seen[u as usize] = false;
        }
        // Ascending flow order is the reference solver's iteration
        // order, on which waterfill's subtraction order depends.
        s.mflows.sort_unstable();
    }

    /// Progressive-filling max–min fair allocation over the member flows,
    /// into `scratch.new_rates` (indexed like `scratch.mflows`).
    ///
    /// Resources: the physical resources the members cross — per-node
    /// uplinks (global `0..n`), downlinks (`n..2n`) and the switch
    /// aggregate (`2n`) — renumbered `0..k` in ascending global index,
    /// then one virtual resource per capped member flow. Each iteration
    /// saturates the currently most constrained resource and freezes the
    /// flows crossing it, so the loop runs at most `|members|` times. The
    /// arithmetic — iteration order, subtraction order, tie-breaking — is
    /// exactly that of a member solve over all `2n + 1` physical
    /// resources, where the ones left out here have a zero count and are
    /// skipped; that in turn is the reference solver's restricted to the
    /// member set, so the resulting rates are bit-identical (see the
    /// module docs and `reference.rs`).
    fn solve_members(&mut self) {
        let n = self.topo.len();
        let s = &mut self.scratch;
        let m = s.mflows.len();
        if m == 0 {
            return;
        }

        s.mres.clear();
        for &fi in &s.mflows {
            s.mres.extend_from_slice(&self.rows[fi as usize][..3]);
        }
        s.mres.sort_unstable();
        s.mres.dedup();
        s.cap_left.clear();
        s.cap_left
            .extend(s.mres.iter().map(|&r| self.caps_flat[r as usize]));
        s.count.clear();
        s.count.resize(s.mres.len(), 0);

        let vbase = (2 * n + 1) as u32;
        s.flow_res.clear();
        for &fi in &s.mflows {
            // `NO_RES` pads uncapped flows so every row is a flat [u32; 4]
            // (no per-flow length array, no slice re-borrows in the hot
            // loop). The sentinel never equals a real resource index.
            let row = self.rows[fi as usize];
            let mut res = [NO_RES; 4];
            for (local, &global) in res.iter_mut().zip(&row[..3]) {
                *local = s.mres.partition_point(|&r| r < global) as u32;
                s.count[*local as usize] += 1;
            }
            if row[3] != NO_RES {
                res[3] = s.cap_left.len() as u32;
                s.cap_left.push(self.caps_list[(row[3] - vbase) as usize]);
                s.count.push(1);
            }
            s.flow_res.push(res);
        }

        s.new_rates.clear();
        s.new_rates.resize(m, UNFIXED);
        waterfill(&mut s.cap_left, &mut s.count, &s.flow_res, &mut s.new_rates);
    }

    /// Full-set solve over the persistent tables: `cap_left` and the
    /// physical-resource counts start as memcpys of the pristine arrays
    /// maintained on every insert/remove.
    fn solve_all(&mut self) {
        let m = self.flows.len();
        let s = &mut self.scratch;
        s.cap_left.clear();
        s.cap_left.extend_from_slice(&self.caps_flat);
        s.cap_left.extend_from_slice(&self.caps_list);
        s.count.clear();
        s.count.extend_from_slice(&self.count_all);
        s.count.resize(s.count.len() + self.caps_list.len(), 1);
        s.new_rates.clear();
        s.new_rates.resize(m, UNFIXED);
        waterfill(&mut s.cap_left, &mut s.count, &self.rows, &mut s.new_rates);
    }

    /// Commit `scratch.new_rates` (parallel to `flows`), materializing
    /// progress only for flows whose rate actually changed.
    fn apply_rates_all(&mut self) {
        let now = self.last_advance;
        let new_rates = std::mem::take(&mut self.scratch.new_rates);
        for (f, &new_rate) in self.flows.iter_mut().zip(new_rates.iter()) {
            commit_rate(f, new_rate, now);
        }
        self.scratch.new_rates = new_rates;
    }

    /// Commit `scratch.new_rates` to the member flows, materializing
    /// progress only for flows whose rate actually changed.
    fn apply_member_rates(&mut self) {
        let now = self.last_advance;
        // `scratch` and `flows` are disjoint fields; take the member list
        // out to keep the borrow checker out of the inner loop.
        let mflows = std::mem::take(&mut self.scratch.mflows);
        for (&fi, &new_rate) in mflows.iter().zip(self.scratch.new_rates.iter()) {
            commit_rate(&mut self.flows[fi as usize], new_rate, now);
        }
        self.scratch.mflows = mflows;
    }
}

/// Commit one solved rate: materialize the flow's progress only when the
/// rate actually changed (bitwise) and time has passed since the last
/// materialization, then recompute the finish instant. Shared by the
/// full-set and member-solve commit paths so their progress tracking
/// cannot drift apart.
#[inline]
fn commit_rate<C>(f: &mut Flow<C>, new_rate: f64, now: SimTime) {
    if f.rate.to_bits() == new_rate.to_bits() {
        return;
    }
    // Within the instant of the last materialization nothing moved.
    if f.touched != now {
        let moved = f.moved_until(now);
        f.remaining -= moved;
        f.touched = now;
    }
    f.rate = new_rate;
    f.due = f.finish();
}

/// The progressive-filling core shared by the full-set and component
/// solves. Each round saturates the most constrained resource (minimum
/// fair share `cap_left / count`, lowest index on ties) and freezes the
/// flows crossing it. Bit-identical to [`reference::rates`]:
///
/// * the division memo only reuses a quotient when *both* operands are
///   bit-equal to the previous resource's — the result is the value the
///   division would produce;
/// * the full-cover fast path fires when every still-unfixed flow
///   crosses the bottleneck (`count[bottleneck] == unfixed`); they all
///   freeze at `share` this round, and the skipped `cap_left`/`count`
///   updates are dead writes since the loop terminates.
fn waterfill(
    cap_left: &mut [f64],
    count: &mut [u32],
    flow_res: &[[u32; 4]],
    new_rates: &mut [f64],
) {
    let mut unfixed_left = flow_res.len();
    while unfixed_left > 0 {
        let mut best: Option<(f64, usize)> = None;
        let mut memo: (u64, u32, f64) = (0, 0, 0.0);
        for (r, (&cl, &c)) in cap_left.iter().zip(count.iter()).enumerate() {
            if c == 0 {
                continue;
            }
            let share = if (cl.to_bits(), c) == (memo.0, memo.1) {
                memo.2
            } else {
                let s = (cl / c as f64).max(0.0);
                memo = (cl.to_bits(), c, s);
                s
            };
            match best {
                None => best = Some((share, r)),
                Some((bs, _)) if share < bs => best = Some((share, r)),
                _ => {}
            }
        }
        let (share, bottleneck) = best.expect("unfixed flows must cross a resource");

        if count[bottleneck] as usize == unfixed_left {
            // Final round: every unfixed flow crosses the bottleneck.
            for rate in new_rates.iter_mut() {
                if *rate == UNFIXED {
                    *rate = share;
                }
            }
            return;
        }

        let bottleneck = bottleneck as u32;
        for (res, rate) in flow_res.iter().zip(new_rates.iter_mut()) {
            if *rate != UNFIXED || !res.contains(&bottleneck) {
                continue;
            }
            *rate = share;
            unfixed_left -= 1;
            for &r in res {
                if r == NO_RES {
                    break;
                }
                let r = r as usize;
                cap_left[r] = (cap_left[r] - share).max(0.0);
                count[r] -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_simcore::units::{mb_per_s, MIB};

    fn topo(n: usize) -> Topology {
        Topology::symmetric(n, mb_per_s(100.0), mb_per_s(800.0))
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    const Z: SimTime = SimTime::ZERO;

    #[test]
    fn single_flow_runs_at_nic_speed() {
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(Z, NodeId(0), NodeId(1), 100 * MIB, None, TrafficTag::Memory);
        assert!((net.rate_of(f).unwrap() - mb_per_s(100.0)).abs() < 1.0);
    }

    #[test]
    fn per_flow_cap_binds() {
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(
            Z,
            NodeId(0),
            NodeId(1),
            100 * MIB,
            Some(mb_per_s(30.0)),
            TrafficTag::Memory,
        );
        assert!((net.rate_of(f).unwrap() - mb_per_s(30.0)).abs() < 1.0);
    }

    #[test]
    fn shared_uplink_splits_fairly() {
        let mut net = FlowNet::new(topo(4));
        let a = net.start_flow(Z, NodeId(0), NodeId(1), 100 * MIB, None, TrafficTag::Memory);
        let b = net.start_flow(Z, NodeId(0), NodeId(2), 100 * MIB, None, TrafficTag::Memory);
        assert!((net.rate_of(a).unwrap() - mb_per_s(50.0)).abs() < 1.0);
        assert!((net.rate_of(b).unwrap() - mb_per_s(50.0)).abs() < 1.0);
    }

    #[test]
    fn incast_splits_downlink() {
        let mut net = FlowNet::new(topo(5));
        let fs: Vec<_> = (1..5)
            .map(|i| {
                net.start_flow(
                    Z,
                    NodeId(i),
                    NodeId(0),
                    100 * MIB,
                    None,
                    TrafficTag::RepoFetch,
                )
            })
            .collect();
        for f in fs {
            assert!((net.rate_of(f).unwrap() - mb_per_s(25.0)).abs() < 1.0);
        }
    }

    #[test]
    fn switch_aggregate_binds_many_disjoint_pairs() {
        // 16 disjoint pairs × 100 MB/s wanted = 1600 > 800 switch capacity.
        let mut net = FlowNet::new(topo(32));
        let fs: Vec<_> = (0..16)
            .map(|i| {
                net.start_flow(
                    Z,
                    NodeId(2 * i),
                    NodeId(2 * i + 1),
                    100 * MIB,
                    None,
                    TrafficTag::StoragePush,
                )
            })
            .collect();
        for f in fs {
            assert!((net.rate_of(f).unwrap() - mb_per_s(50.0)).abs() < 1.0);
        }
    }

    #[test]
    fn capped_flow_frees_bandwidth_for_peer() {
        let mut net = FlowNet::new(topo(4));
        let slow = net.start_flow(
            Z,
            NodeId(0),
            NodeId(1),
            100 * MIB,
            Some(mb_per_s(20.0)),
            TrafficTag::Memory,
        );
        let fast = net.start_flow(Z, NodeId(0), NodeId(2), 100 * MIB, None, TrafficTag::Memory);
        assert!((net.rate_of(slow).unwrap() - mb_per_s(20.0)).abs() < 1.0);
        assert!((net.rate_of(fast).unwrap() - mb_per_s(80.0)).abs() < 1.0);
    }

    #[test]
    fn disjoint_pairs_do_not_interact_below_switch_cap() {
        let mut net = FlowNet::new(topo(4));
        let a = net.start_flow(Z, NodeId(0), NodeId(1), 100 * MIB, None, TrafficTag::Memory);
        let b = net.start_flow(Z, NodeId(2), NodeId(3), 100 * MIB, None, TrafficTag::Memory);
        assert!((net.rate_of(a).unwrap() - mb_per_s(100.0)).abs() < 1.0);
        assert!((net.rate_of(b).unwrap() - mb_per_s(100.0)).abs() < 1.0);
    }

    #[test]
    fn completion_and_conservation() {
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(
            Z,
            NodeId(0),
            NodeId(1),
            100 * MIB,
            None,
            TrafficTag::StoragePush,
        );
        let (done, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
        net.complete(done, f);
        assert_eq!(net.delivered(TrafficTag::StoragePush), 100 * MIB);
        assert_eq!(net.total_delivered(), 100 * MIB);
        assert_eq!(net.active(), 0);
    }

    #[test]
    fn cancel_reports_partial_delivery() {
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(
            Z,
            NodeId(0),
            NodeId(1),
            100 * MIB,
            None,
            TrafficTag::StoragePull,
        );
        let (left, ()) = net.cancel_flow(t(0.5), f).unwrap();
        assert_eq!(left / MIB, 50);
        assert_eq!(net.delivered(TrafficTag::StoragePull) / MIB, 50);
    }

    #[test]
    fn rates_rebalance_when_flow_finishes() {
        let mut net = FlowNet::new(topo(4));
        let a = net.start_flow(Z, NodeId(0), NodeId(1), 50 * MIB, None, TrafficTag::Memory);
        let b = net.start_flow(Z, NodeId(0), NodeId(2), 100 * MIB, None, TrafficTag::Memory);
        let (ta, ia) = net.next_completion().unwrap();
        assert_eq!(ia, a);
        net.complete(ta, a);
        assert!((net.rate_of(b).unwrap() - mb_per_s(100.0)).abs() < 1.0);
        let (tb, _) = net.next_completion().unwrap();
        // b: 50 MiB in the first second, 50 MiB more at full speed.
        assert!((tb.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn control_accounting() {
        let mut net: FlowNet = FlowNet::new(topo(2));
        net.account_control(1500);
        assert_eq!(net.delivered(TrafficTag::Control), 1500);
        assert_eq!(net.total_delivered(), 1500);
    }

    #[test]
    fn migration_delivered_excludes_app_traffic() {
        let mut net = FlowNet::new(topo(4));
        let a = net.start_flow(Z, NodeId(0), NodeId(1), 10 * MIB, None, TrafficTag::AppNet);
        let b = net.start_flow(Z, NodeId(2), NodeId(3), 10 * MIB, None, TrafficTag::Memory);
        let (ta, _) = net.next_completion().unwrap();
        net.complete(ta, a);
        let (tb, _) = net.next_completion().unwrap();
        net.complete(tb, b);
        assert_eq!(net.migration_delivered(), 10 * MIB);
        assert_eq!(net.total_delivered(), 20 * MIB);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_flows_rejected() {
        let mut net = FlowNet::new(topo(2));
        let _ = net.start_flow(Z, NodeId(1), NodeId(1), 1, None, TrafficTag::Memory);
    }

    #[test]
    fn zero_byte_flow_completes_now() {
        let mut net = FlowNet::new(topo(2));
        let f = net.start_flow(t(2.0), NodeId(0), NodeId(1), 0, None, TrafficTag::Control);
        let (done, id) = net.next_completion().unwrap();
        assert_eq!((done, id), (t(2.0), f));
    }

    #[test]
    fn lazy_advance_projects_delivered_bytes() {
        // advance() alone must not lose progress: queries project from
        // (rate, touched) without materializing.
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(Z, NodeId(0), NodeId(1), 100 * MIB, None, TrafficTag::Memory);
        net.advance(t(0.25));
        assert_eq!(net.delivered(TrafficTag::Memory) / MIB, 25);
        assert_eq!(net.total_delivered() / MIB, 25);
        assert_eq!(net.remaining_of(f).unwrap() / MIB, 75);
        net.advance(t(0.5));
        assert_eq!(net.delivered(TrafficTag::Memory) / MIB, 50);
    }

    #[test]
    fn peak_active_tracks_high_water_mark() {
        let mut net = FlowNet::new(topo(4));
        let a = net.start_flow(Z, NodeId(0), NodeId(1), MIB, None, TrafficTag::Memory);
        let _b = net.start_flow(Z, NodeId(2), NodeId(3), MIB, None, TrafficTag::Memory);
        net.cancel_flow(t(0.001), a);
        assert_eq!(net.active(), 1);
        assert_eq!(net.peak_active(), 2);
    }

    #[test]
    fn degrade_halves_rate_and_restore_recovers_it() {
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(Z, NodeId(0), NodeId(1), 100 * MIB, None, TrafficTag::Memory);
        assert!((net.rate_of(f).unwrap() - mb_per_s(100.0)).abs() < 1.0);
        net.set_link_factor(t(0.5), NodeId(0), 0.5);
        assert_eq!(net.link_factor(NodeId(0)), 0.5);
        assert!((net.rate_of(f).unwrap() - mb_per_s(50.0)).abs() < 1.0);
        // 50 MiB moved before the degrade; delivery accounting is intact.
        assert_eq!(net.delivered(TrafficTag::Memory) / MIB, 50);
        net.set_link_factor(t(0.75), NodeId(0), 1.0);
        assert!((net.rate_of(f).unwrap() - mb_per_s(100.0)).abs() < 1.0);
        // 50 MiB at full + 12.5 MiB at half: 37.5 MiB left at t=0.75,
        // finishing 0.375 s later.
        let (done, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert!((done.as_secs_f64() - 1.125).abs() < 1e-6);
    }

    #[test]
    fn degrade_is_absolute_not_cumulative() {
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(Z, NodeId(0), NodeId(1), 100 * MIB, None, TrafficTag::Memory);
        net.set_link_factor(Z, NodeId(0), 0.5);
        net.set_link_factor(Z, NodeId(0), 0.5);
        assert!((net.rate_of(f).unwrap() - mb_per_s(50.0)).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "link factor")]
    fn zero_factor_rejected() {
        let mut net: FlowNet = FlowNet::new(topo(2));
        net.set_link_factor(Z, NodeId(0), 0.0);
    }

    #[test]
    fn degraded_downlink_binds_incast() {
        let mut net = FlowNet::new(topo(5));
        net.set_link_factor(Z, NodeId(0), 0.4);
        let f = net.start_flow(Z, NodeId(1), NodeId(0), MIB, None, TrafficTag::StoragePull);
        assert!((net.rate_of(f).unwrap() - mb_per_s(40.0)).abs() < 1.0);
    }

    #[test]
    fn flows_touching_selects_by_endpoint() {
        let mut net = FlowNet::new(topo(4));
        let a = net.start_flow(Z, NodeId(0), NodeId(1), MIB, None, TrafficTag::Memory);
        let b = net.start_flow(Z, NodeId(2), NodeId(0), MIB, None, TrafficTag::Memory);
        let c = net.start_flow(Z, NodeId(2), NodeId(3), MIB, None, TrafficTag::Memory);
        assert_eq!(net.flows_touching(NodeId(0)), vec![a, b]);
        assert_eq!(net.flows_touching(NodeId(3)), vec![c]);
        assert!(net.flows_touching(NodeId(1)).contains(&a));
    }

    #[test]
    fn contexts_ascend_by_id_and_come_back_once() {
        type Net = FlowNet<&'static str>;
        fn start(net: &mut Net, at: SimTime, src: u32, dst: u32, ctx: &'static str) -> FlowId {
            let (src, dst) = (NodeId(src), NodeId(dst));
            net.start(at, src, dst, MIB, None, TrafficTag::Memory, ctx)
        }
        fn live(net: &Net) -> Vec<(FlowId, &'static str)> {
            net.contexts().map(|(id, &ctx)| (id, ctx)).collect()
        }
        let mut net = FlowNet::new(topo(4));
        let a = start(&mut net, Z, 0, 1, "a");
        let b = start(&mut net, Z, 2, 3, "b");
        let c = start(&mut net, Z, 1, 0, "c");
        assert_eq!(live(&net), [(a, "a"), (b, "b"), (c, "c")]);
        // A removal from the middle keeps the order.
        assert_eq!(net.cancel_flow(t(0.001), b).map(|(_, ctx)| ctx), Some("b"));
        assert_eq!(live(&net), [(a, "a"), (c, "c")]);
        let (done, first) = net.next_completion().unwrap();
        assert_eq!(first, a);
        assert_eq!(net.complete(done, a), "a");
        let d = start(&mut net, done, 3, 2, "d");
        assert_eq!(live(&net), [(c, "c"), (d, "d")]);
        // A flow that left hands nothing back a second time.
        assert_eq!(net.cancel_flow(done, b), None);
    }

    #[test]
    fn flow_views_expose_rates_and_projected_remaining() {
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(Z, NodeId(0), NodeId(1), 100 * MIB, None, TrafficTag::Memory);
        net.advance(t(0.25));
        let views: Vec<_> = net.flow_views().collect();
        assert_eq!(views.len(), 1);
        let v = &views[0];
        assert_eq!(
            (v.id, v.src, v.dst, v.tag),
            (f, NodeId(0), NodeId(1), TrafficTag::Memory)
        );
        assert!((v.rate - mb_per_s(100.0)).abs() < 1.0);
        assert!((v.remaining - 75.0 * MIB as f64).abs() < mb_per_s(1.0) * 0.01);
    }

    #[test]
    fn decoupled_switch_detection() {
        // 800 MB/s switch vs 4 × 100 MB/s NICs: decoupled with every
        // node busy.
        assert!(FlowNet::switch_decoupled(&topo(4)));
        // A switch of exactly 8 NICs binds with all 8 busy: no margin.
        assert!(FlowNet::switch_decoupled(&topo(7)));
        assert!(!FlowNet::switch_decoupled(&topo(8)));
        assert!(!FlowNet::switch_decoupled(&topo(32)));

        // The live rule on scale64's fabric (64 × 117.5 MiB/s NICs, a
        // 2 GiB/s switch). 17 busy NICs (1997.5 MiB/s) fit under
        // switch / (1 + 2⁻¹⁰) ≈ 2046 MiB/s, 18 (2115 MiB/s) do not.
        let mut net = FlowNet::new(Topology::symmetric(64, mb_per_s(117.5), mb_per_s(2048.0)));
        let flows = open_pairs(&mut net, 0..17);
        assert_eq!((net.busy_up, net.busy_down), (17, 17));
        assert!(net.decoupled, "17 busy NICs: component re-solves");
        let extra = net.start_flow(Z, NodeId(34), NodeId(35), MIB, None, TrafficTag::Memory);
        assert!(!net.decoupled, "18 busy NICs: full solve");
        // A second flow on busy nodes adds no busy NIC.
        net.start_flow(Z, NodeId(0), NodeId(3), MIB, None, TrafficTag::Memory);
        assert_eq!((net.busy_up, net.busy_down), (18, 18));
        net.cancel_flow(Z, extra);
        assert_eq!((net.busy_up, net.busy_down), (17, 17));
        assert!(net.decoupled);
        // The rule reads pristine capacities: a degradation keeps the
        // regime.
        net.set_link_factor(Z, NodeId(0), 0.5);
        assert!(net.decoupled);
        for f in flows {
            net.cancel_flow(Z, f);
        }
        assert_eq!((net.busy_up, net.busy_down), (1, 1));

        // A switch of exactly k = 5 NICs: 4 busy fit, 5 busy take the
        // full solve.
        let nic = mb_per_s(117.5);
        let mut net = FlowNet::new(Topology::symmetric(64, nic, 5.0 * nic));
        open_pairs(&mut net, 0..4);
        assert!(net.decoupled);
        open_pairs(&mut net, 4..5);
        assert!(!net.decoupled);
    }

    /// Open one flow on each pair `(2k, 2k + 1)` for `k` in `pairs`, so
    /// every flow adds one busy sender and one busy receiver.
    fn open_pairs(net: &mut FlowNet, pairs: std::ops::Range<u32>) -> Vec<FlowId> {
        pairs
            .map(|k| {
                net.start_flow(
                    Z,
                    NodeId(2 * k),
                    NodeId(2 * k + 1),
                    MIB,
                    None,
                    TrafficTag::Memory,
                )
            })
            .collect()
    }

    #[test]
    fn fast_nic_flow_completes_within_half_a_nanosecond_of_service() {
        // 1,049 bytes at 100 GB/s take 10.49 ns. The finish rounds to 10 ns
        // and leaves 49 bytes, within the 50 bytes half a nanosecond
        // serves.
        let mut net = FlowNet::new(Topology::symmetric(2, 100e9, 1e12));
        let f = net.start_flow(
            Z,
            NodeId(0),
            NodeId(1),
            1_049,
            None,
            TrafficTag::StoragePush,
        );
        assert_eq!(net.next_completion(), Some((SimTime::from_nanos(10), f)));
        net.complete(SimTime::from_nanos(10), f);
        assert_eq!(net.delivered(TrafficTag::StoragePush), 1_049);
    }

    /// The scan `next_completion` replaced: every live flow's finish
    /// converted from `(touched, remaining, rate)` on every call.
    fn converting_scan(net: &FlowNet) -> Option<(SimTime, FlowId)> {
        let mut best: Option<(SimTime, FlowId)> = None;
        for f in &net.flows {
            let t = if f.remaining <= 0.5 {
                net.last_advance
            } else if f.rate <= 0.0 {
                SimTime::FAR_FUTURE
            } else {
                (f.touched + SimDuration::from_secs_f64(f.remaining / f.rate)).max(net.last_advance)
            };
            match best {
                None => best = Some((t, f.id)),
                Some((bt, _)) if t < bt => best = Some((t, f.id)),
                _ => {}
            }
        }
        best
    }

    /// Every live flow's `due` is the formula of the module docs over its
    /// current `(touched, remaining, rate)`, and `next_completion` is the
    /// converting scan's answer.
    fn check_due(net: &FlowNet, step: usize) {
        for f in &net.flows {
            let want = if f.remaining <= 0.5 {
                f.touched
            } else if f.rate <= 0.0 {
                SimTime::FAR_FUTURE
            } else {
                f.touched + SimDuration::from_secs_f64(f.remaining / f.rate)
            };
            assert_eq!(f.due, want, "flow {:?} at step {step}", f.id);
        }
        assert_eq!(net.next_completion(), converting_scan(net), "step {step}");
    }

    proptest::proptest! {
        /// Random starts (zero-byte flows and zero caps among them),
        /// completions, cancellations, clock moves and link-factor
        /// changes, under both solvers, on slow and fast NICs with a
        /// switch that can bind or not; `check_due` after every call.
        #[test]
        fn cached_finish_instants_match_the_converting_scan(
            nic in proptest::prop_oneof![
                proptest::Just(mb_per_s(117.5)),
                proptest::Just(1.25e9),
                proptest::Just(100e9),
            ],
            switch_nics in proptest::prop_oneof![proptest::Just(2.5), proptest::Just(100.0)],
            ops in proptest::collection::vec((0u8..16, 0u32..64, 0u64..1 << 30), 1..120),
        ) {
            let n = 5;
            for solver in [SolverMode::Incremental, SolverMode::Reference] {
                let topo = Topology::symmetric(n as usize, nic, switch_nics * nic);
                let mut net = FlowNet::new(topo);
                net.set_solver(solver);
                let mut now = Z;
                for (step, &(op, a, x)) in ops.iter().enumerate() {
                    match op {
                        0..=5 => {
                            let src = a % n;
                            let dst = (src + 1 + (x as u32 >> 8) % (n - 1)) % n;
                            let bytes = match x % 4 {
                                0 => 0,
                                1 => x % 4_096,
                                _ => x >> 4,
                            };
                            let cap = match a % 4 {
                                0 => Some(0.0),
                                1 => Some(nic * (x % 100) as f64 / 64.0),
                                _ => None,
                            };
                            let (src, dst) = (NodeId(src), NodeId(dst));
                            net.start_flow(now, src, dst, bytes, cap, TrafficTag::Memory);
                        }
                        6..=8 => match net.next_completion() {
                            Some((t, id)) if t < SimTime::FAR_FUTURE => {
                                now = t;
                                net.complete(t, id);
                            }
                            _ => {}
                        },
                        9..=10 => {
                            if !net.flows.is_empty() {
                                let id = net.flows[a as usize % net.flows.len()].id;
                                net.cancel_flow(now, id);
                            }
                        }
                        11..=13 => {
                            now += SimDuration::from_nanos(x % 2_000_000);
                            net.advance(now);
                        }
                        _ => {
                            let factors = [0.25, 0.5, 1.0, (x % 1000 + 1) as f64 / 1000.0];
                            net.set_link_factor(now, NodeId(a % n), factors[a as usize % 4]);
                        }
                    }
                    check_due(&net, step);
                }
            }
        }
    }

    #[test]
    fn reference_mode_matches_incremental_small_case() {
        for mode in [SolverMode::Incremental, SolverMode::Reference] {
            let mut net = FlowNet::new(topo(4));
            net.set_solver(mode);
            let a = net.start_flow(Z, NodeId(0), NodeId(1), 60 * MIB, None, TrafficTag::Memory);
            let b = net.start_flow(
                Z,
                NodeId(0),
                NodeId(2),
                80 * MIB,
                Some(mb_per_s(30.0)),
                TrafficTag::StoragePush,
            );
            assert!((net.rate_of(a).unwrap() - mb_per_s(70.0)).abs() < 1.0);
            assert!((net.rate_of(b).unwrap() - mb_per_s(30.0)).abs() < 1.0);
        }
    }
}
