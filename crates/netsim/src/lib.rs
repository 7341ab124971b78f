//! # lsm-netsim — flow-level datacenter network model
//!
//! Models the Grid'5000 *graphene*-style cluster of the paper: every node
//! has a full-duplex NIC (separate up/down capacities) attached to a single
//! non-blocking-ish switch with a finite **aggregate** backplane capacity
//! (the paper cites ≈8 GB/s for its Cisco Catalyst). Bulk transfers are
//! **flows**; each flow's instantaneous rate is the classic **max–min fair**
//! allocation over the resources it crosses (source uplink, destination
//! downlink, switch aggregate, plus an optional per-flow rate cap such as
//! QEMU's migration speed limit).
//!
//! The model is fluid and incremental, like
//! [`lsm_simcore::SharedResource`]: rates change only when a flow starts,
//! completes, is cancelled, is re-capped, or a link's capacity mutates at
//! runtime ([`FlowNet::set_link_factor`], the fault-injection hook), so
//! integrating progress between those boundaries is exact. The embedding
//! event loop asks [`FlowNet::next_completion`] what to schedule next —
//! a fallible query, like the rest of the API: an idle network has
//! nothing due, and callers match on the `Option` instead of unwrapping.
//!
//! Max–min fairness is the standard fluid approximation for long-lived TCP
//! flows sharing an Ethernet switch, which is exactly the regime of the
//! paper's storage and memory transfers.
//!
//! Like [`lsm_simcore::SharedResource`], a [`FlowNet<C>`](FlowNet)
//! carries each flow's context `C`, the caller's record of why the flow
//! exists: [`FlowNet::start`] stores it with the flow,
//! [`FlowNet::complete`] and [`FlowNet::cancel_flow`] hand it back, and
//! [`FlowNet::contexts`] lists the live ones in flow-id order, so the
//! caller keeps no side table keyed by [`FlowId`]. A `FlowNet` (that is,
//! `FlowNet<()>`) carries nothing and starts flows with
//! [`FlowNet::start_flow`].
//!
//! ```
//! use lsm_netsim::{FlowNet, Topology, TrafficTag, NodeId};
//! use lsm_simcore::{SimTime, units::{mb_per_s, MIB}};
//!
//! let topo = Topology::symmetric(4, mb_per_s(100.0), mb_per_s(1000.0));
//! let mut net: FlowNet<&str> = FlowNet::new(topo);
//! assert!(net.next_completion().is_none(), "idle network: nothing due");
//!
//! let f = net.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MIB,
//!                   None, TrafficTag::StoragePush, "push batch 0");
//! let Some((done, id)) = net.next_completion() else {
//!     panic!("one flow is in flight");
//! };
//! assert_eq!(id, f);
//! assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
//!
//! // Links can degrade mid-run (fault injection): halving node 0's NIC
//! // halves the flow's rate, and its completion moves out accordingly.
//! net.set_link_factor(SimTime::ZERO, NodeId(0), 0.5);
//! let (later, id) = net.next_completion().expect("flow still in flight");
//! assert!((later.as_secs_f64() - 2.0).abs() < 1e-6);
//!
//! // Completing the flow hands its context back.
//! assert_eq!(net.complete(later, id), "push batch 0");
//! assert_eq!(net.active(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod net;
mod reference;
mod topology;

pub use net::{FlowId, FlowNet, FlowView, SolverMode, TrafficTag};
pub use topology::{NodeCaps, NodeId, Topology};
