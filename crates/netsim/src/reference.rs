//! The reference max–min solver: the original from-scratch progressive
//! filling, kept verbatim as a correctness oracle.
//!
//! [`rates`] rebuilds every table on every call and water-fills over the
//! full flow set — exactly the arithmetic the pre-rewrite `FlowNet`
//! performed. The incremental solver in [`crate::FlowNet`] must produce
//! **bit-identical** rates; the `equivalence` proptest suite and the
//! fig3/fig4/fig5 report-identity tests in `lsm-experiments` drive both
//! solvers in lockstep and assert exact equality of rates, remaining
//! bytes, delivered-byte accounting and completion times.
//!
//! Keep this file boring: any "optimization" here defeats its purpose.

use crate::net::Flow;
use crate::topology::{NodeId, Topology};

/// Progressive-filling max–min fair allocation over all `flows`
/// (ascending id order, as stored by `FlowNet`). Returns one rate per
/// flow, parallel to the input slice.
///
/// Resources: per-node uplink (`0..n`), per-node downlink (`n..2n`), the
/// switch aggregate (`2n`), and one virtual resource per capped flow.
/// Each iteration saturates the currently most-constrained resource
/// (lowest index on ties) and freezes the flows crossing it, so the loop
/// runs at most `|flows|` times.
pub(crate) fn rates<C>(topo: &Topology, flows: &[Flow<C>]) -> Vec<f64> {
    let n = topo.len();
    let nfix = 2 * n + 1;
    if flows.is_empty() {
        return Vec::new();
    }

    // Build the resource table.
    let mut cap_left: Vec<f64> = Vec::with_capacity(nfix + flows.len());
    for i in 0..n {
        cap_left.push(topo.caps(NodeId(i as u32)).up);
    }
    for i in 0..n {
        cap_left.push(topo.caps(NodeId(i as u32)).down);
    }
    cap_left.push(topo.switch_capacity);

    // Per-flow resource lists (indices into cap_left).
    let mut flow_res: Vec<[usize; 4]> = Vec::with_capacity(flows.len());
    let mut flow_nres: Vec<u8> = Vec::with_capacity(flows.len());
    for f in flows {
        let mut res = [f.src.idx(), n + f.dst.idx(), 2 * n, 0];
        let mut cnt = 3u8;
        if let Some(c) = f.cap {
            res[3] = cap_left.len();
            cap_left.push(c);
            cnt = 4;
        }
        flow_res.push(res);
        flow_nres.push(cnt);
    }

    let nres = cap_left.len();
    let mut count = vec![0u32; nres];
    for fi in 0..flows.len() {
        for k in 0..flow_nres[fi] as usize {
            count[flow_res[fi][k]] += 1;
        }
    }

    let mut rates = vec![0.0f64; flows.len()];
    let mut fixed = vec![false; flows.len()];
    let mut unfixed_left = flows.len();
    while unfixed_left > 0 {
        // Most constrained resource: min fair share, lowest index ties.
        let mut best: Option<(f64, usize)> = None;
        for (r, (&cl, &c)) in cap_left.iter().zip(count.iter()).enumerate() {
            if c == 0 {
                continue;
            }
            let share = (cl / c as f64).max(0.0);
            match best {
                None => best = Some((share, r)),
                Some((bs, _)) if share < bs => best = Some((share, r)),
                _ => {}
            }
        }
        let (share, bottleneck) = best.expect("unfixed flows must cross a resource");

        for (fi, _) in flows.iter().enumerate() {
            if fixed[fi] {
                continue;
            }
            let res = &flow_res[fi][..flow_nres[fi] as usize];
            if !res.contains(&bottleneck) {
                continue;
            }
            rates[fi] = share;
            fixed[fi] = true;
            unfixed_left -= 1;
            for &r in res {
                cap_left[r] = (cap_left[r] - share).max(0.0);
                count[r] -= 1;
            }
        }
    }
    rates
}
