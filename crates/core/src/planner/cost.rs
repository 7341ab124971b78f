//! The cost planner's strategy rule: per-scheme migration time and
//! bytes-on-wire estimated from live telemetry, argmin admitted.
//!
//! Where the adaptive planner ([`PlannerKind::Adaptive`]) applies the
//! paper's §4 rule through fixed write-rate thresholds, this rule
//! *predicts* what each scheme would cost on the observed workload —
//! the §5.2 analysis (bulk size over available NIC share, a dirty-rate
//! re-send term for the pre-copy styles, a withheld-set + on-demand
//! penalty term for the pull styles) turned into a closed-form model —
//! and picks the cheapest. Baruchi et al. show prediction-timed
//! migration beats reactive heuristics; Voorsluys et al. give the cost
//! dimensions (duration and transferred bytes) the score combines.
//!
//! ## The model
//!
//! Let `B` be the NIC bandwidth, `S_alloc` the locally present bytes
//! (modified + cached base — what a bulk pass copies), `S_mod` the
//! modified bytes (what the hybrid/postcopy schemes move; base content
//! is re-fetched from the repository), `d` the windowed dirty-set
//! growth, `rw` the windowed overwrite rate, `w`/`r` the windowed
//! write/read rates — all bytes/second from the telemetry tick.
//!
//! | scheme | predicted time | predicted bytes |
//! |---|---|---|
//! | `Precopy` | `S_alloc / (B − (d + rw))` — the classic pre-copy convergence series; non-convergent (penalty) when the re-dirty flux reaches `B` | `time × B` (bulk + geometric re-sends) |
//! | `Mirror` | `S_alloc / (B − w)` — the bulk shares the NIC with synchronous mirroring; penalty when `w` reaches `B` | `S_alloc + w × time` (bulk never re-sends, every write crosses the wire) |
//! | `Postcopy` | `(S_mod / B) × (1 + p × r/B)` — the pull phase, stretched by on-demand reads blocking on pulls | `S_mod` (each chunk crosses exactly once) |
//! | `Hybrid` | push `(S_mod − H)/B` + re-push `R/B` + pull `(H/B) × (1 + p × r/B)` | `S_mod + R` |
//!
//! where the withheld hot set is approximated by one telemetry window
//! of overwritten bytes, `H = min(S_mod, rw × window)`, the re-push
//! term is `Threshold`-bounded, `R = min(rw × push_time, (Threshold−1)
//! × H)`, `p` is [`ONDEMAND_PENALTY`] (4) and `window` is the telemetry
//! window (5 s). A pre-copy style whose flux reaches `B` never
//! converges and is charged [`NONCONVERGE_PENALTY_SECS`] (10⁶ s).
//!
//! The score is `time + bytes/GiB`. Each estimate also predicts the
//! guest-degradation seconds a scheme imposes, reported beside the
//! score: the pull styles stall reads behind on-demand pulls (`time ×
//! min(1, p × r/B)` over the pull phase), the pre-copy styles contend
//! for the wire with the workload's own flux (`time × min(1, flux/B)`).
//! Candidates are scored in
//! a fixed order (`Precopy`, `Mirror`, `Hybrid`, `Postcopy` — under
//! post-copy memory only `Hybrid`, `Postcopy`) and ties keep the
//! earlier candidate, so decisions are bit-reproducible across runs and
//! solvers. Memory migration time is common to every scheme and drops
//! out of the argmin, so the model omits it.
//!
//! [`PlannerKind::Adaptive`]: super::PlannerKind::Adaptive

use super::bounds;
use super::{PlanContext, SchemeEstimate, TELEMETRY_WINDOW_SECS};
use crate::policy::StrategyKind;

const GIB: f64 = (1u64 << 30) as f64;

/// Pull-phase slowdown per unit of read intensity (fraction of NIC):
/// on-demand reads block on pulls, so a read-hot guest stretches the
/// Hybrid/Postcopy pull phase by `1 + ONDEMAND_PENALTY × read_frac`.
const ONDEMAND_PENALTY: f64 = 4.0;

/// Predicted time charged to a pre-copy-style scheme (Precopy, Mirror)
/// whose re-dirty/write flux is at or above the NIC share — the
/// non-convergent case the paper criticizes.
const NONCONVERGE_PENALTY_SECS: f64 = 1.0e6;

/// Predict `(time_secs, bytes)` for migrating `ctx.vm` with `k` —
/// pure and unit-testable.
fn estimate_scheme(ctx: &PlanContext, k: StrategyKind) -> SchemeEstimate {
    let b = ctx.nic_bw;
    let vm = &ctx.vm;
    let s_alloc = vm.local_bytes as f64;
    let s_mod = vm.modified_bytes as f64;
    let penalty = NONCONVERGE_PENALTY_SECS;
    // Degradation fraction while the guest's reads stall behind
    // on-demand pulls (the pull styles' SLA exposure), and while its
    // own I/O contends with the transfer for the wire (the pre-copy
    // styles'). Both saturate at 1 — a guest cannot lose more than all
    // of its throughput.
    let read_stall = (ONDEMAND_PENALTY * vm.read_rate / b).min(1.0);
    let (time, bytes, sla) = match k {
        StrategyKind::Precopy => {
            let flux = vm.dirty_rate + vm.rewrite_rate;
            match bounds::precopy_time(s_alloc, flux, b) {
                None => (penalty, s_alloc * (1.0 + flux / b), penalty),
                Some(t) => (t, t * b, t * (flux / b).min(1.0)),
            }
        }
        StrategyKind::Mirror => match bounds::mirror_time(s_alloc, vm.write_rate, b) {
            None => (penalty, s_alloc * (1.0 + vm.write_rate / b), penalty),
            Some(t) => (
                t,
                s_alloc + vm.write_rate * t,
                t * (vm.write_rate / b).min(1.0),
            ),
        },
        StrategyKind::Postcopy => {
            let stall = bounds::pull_stall_factor(vm.read_rate, b, ONDEMAND_PENALTY);
            let t = bounds::pull_time(s_mod, b, stall);
            (t, s_mod, t * read_stall)
        }
        StrategyKind::Hybrid => {
            let hot = bounds::hybrid_withheld(vm.rewrite_rate, TELEMETRY_WINDOW_SECS, s_mod);
            let push_time = (s_mod - hot) / b;
            let repush = bounds::hybrid_repush(vm.rewrite_rate, push_time, ctx.threshold, hot);
            let stall = bounds::pull_stall_factor(vm.read_rate, b, ONDEMAND_PENALTY);
            let pull_time = bounds::pull_time(hot, b, stall);
            // Only the pull phase stalls reads; the push phase runs
            // with the guest live at the source.
            (
                push_time + repush / b + pull_time,
                s_mod + repush,
                pull_time * read_stall,
            )
        }
        // Never a candidate: a shared-FS guest has no local storage to
        // transfer (the orchestrator short-circuits before the planner).
        StrategyKind::SharedFs => (0.0, 0.0, 0.0),
    };
    SchemeEstimate {
        strategy: k,
        est_time_secs: time,
        est_bytes: bytes.round() as u64,
        est_sla_secs: sla,
        score: time + bytes / GIB,
    }
}

/// The candidate schemes, in tie-break order (earlier wins on equal
/// scores — an idle VM degenerates every estimate to `S/B`, and the
/// pre-copy styles end at control transfer, so they lead).
fn candidates(postcopy_memory: bool) -> &'static [StrategyKind] {
    if postcopy_memory {
        // Pre-copy storage streams cannot run under post-copy memory.
        &[StrategyKind::Hybrid, StrategyKind::Postcopy]
    } else {
        &[
            StrategyKind::Precopy,
            StrategyKind::Mirror,
            StrategyKind::Hybrid,
            StrategyKind::Postcopy,
        ]
    }
}

/// Score every candidate scheme for `ctx.vm` and pick the argmin (see
/// the module docs for the model); the estimates come back with the
/// choice for the decision record.
pub(super) fn choose(ctx: &PlanContext) -> (StrategyKind, Vec<SchemeEstimate>) {
    let estimates: Vec<SchemeEstimate> = candidates(ctx.postcopy_memory)
        .iter()
        .map(|&k| estimate_scheme(ctx, k))
        .collect();
    let best = estimates
        .iter()
        .enumerate()
        .min_by(|(ai, a), (bi, b)| {
            a.score
                .partial_cmp(&b.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ai.cmp(bi))
        })
        .map(|(_, e)| e.strategy)
        .expect("candidate list is never empty");
    (best, estimates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{NodeView, PlannerKind, VmView};

    const NIC: f64 = 100.0e6;

    fn ctx(vm: VmView) -> PlanContext {
        PlanContext {
            nic_bw: NIC,
            postcopy_memory: false,
            threshold: 3,
            vm,
        }
    }

    fn vm(write: f64, read: f64, dirty: f64, rewrite: f64, alloc: u64, modified: u64) -> VmView {
        VmView {
            strategy: StrategyKind::Hybrid,
            write_rate: write,
            read_rate: read,
            dirty_rate: dirty,
            rewrite_rate: rewrite,
            local_bytes: alloc,
            modified_bytes: modified,
        }
    }

    #[test]
    fn idle_vm_ties_break_to_precopy() {
        let c = ctx(vm(0.0, 0.0, 0.0, 0.0, 16 << 20, 16 << 20));
        let (chosen, est) = choose(&c);
        assert_eq!(chosen, StrategyKind::Precopy);
        assert_eq!(est.len(), 4, "every candidate is estimated");
    }

    #[test]
    fn hot_overwriter_gets_hybrid() {
        // 25 MB/s of overwrites into a 16 MiB working set: the pre-copy
        // styles re-send forever, mirror pays the wire for every write,
        // hybrid withholds the hot set and pulls it once.
        let c = ctx(vm(25.0e6, 0.0, 0.0, 25.0e6, 16 << 20, 16 << 20));
        let (chosen, est) = choose(&c);
        assert_eq!(chosen, StrategyKind::Hybrid);
        let by = |k: StrategyKind| est.iter().find(|e| e.strategy == k).unwrap();
        assert!(by(StrategyKind::Hybrid).score < by(StrategyKind::Precopy).score);
        assert!(by(StrategyKind::Hybrid).score < by(StrategyKind::Mirror).score);
        assert!(
            by(StrategyKind::Hybrid).est_bytes <= by(StrategyKind::Precopy).est_bytes,
            "hybrid must not predict more traffic than re-sending pre-copy"
        );
    }

    #[test]
    fn light_writer_avoids_mirror_wire_cost() {
        // Light writes, big modified set: postcopy moves each chunk
        // exactly once and wins on bytes.
        let c = ctx(vm(1.5e6, 0.0, 0.5e6, 1.0e6, 64 << 20, 64 << 20));
        let (chosen, est) = choose(&c);
        let best = est
            .iter()
            .find(|e| e.strategy == chosen)
            .expect("chosen scheme is estimated");
        for e in &est {
            assert!(best.score <= e.score, "{chosen:?} is not the argmin");
        }
        assert_eq!(chosen, StrategyKind::Postcopy);
    }

    #[test]
    fn cached_base_footprint_penalizes_bulk_schemes() {
        // A read-mostly guest: huge locally cached base, tiny modified
        // set. The bulk schemes would ship the cache; the pull schemes
        // let the destination re-fetch it from the repository.
        let c = ctx(vm(0.0, 30.0e6, 0.0, 0.0, 1 << 30, 4 << 20));
        let (chosen, _) = choose(&c);
        assert!(
            matches!(chosen, StrategyKind::Hybrid | StrategyKind::Postcopy),
            "bulk scheme chosen despite a 1 GiB cached-base footprint: {chosen:?}"
        );
    }

    #[test]
    fn nonconvergent_flux_is_penalized() {
        let c = ctx(vm(98.0e6, 0.0, 10.0e6, 88.0e6, 64 << 20, 64 << 20));
        let (_, est) = choose(&c);
        let pre = est
            .iter()
            .find(|e| e.strategy == StrategyKind::Precopy)
            .unwrap();
        let mir = est
            .iter()
            .find(|e| e.strategy == StrategyKind::Mirror)
            .unwrap();
        assert_eq!(pre.est_time_secs, NONCONVERGE_PENALTY_SECS);
        assert_eq!(mir.est_time_secs, NONCONVERGE_PENALTY_SECS);
    }

    #[test]
    fn postcopy_memory_restricts_candidates() {
        let mut c = ctx(vm(0.0, 0.0, 0.0, 0.0, 16 << 20, 16 << 20));
        c.postcopy_memory = true;
        let (s, est) = choose(&c);
        assert!(matches!(s, StrategyKind::Hybrid | StrategyKind::Postcopy));
        assert_eq!(est.len(), 2);
    }

    #[test]
    fn read_stalls_are_predicted_but_not_scored() {
        // A read-hot guest with a light rewrite trickle and a cached
        // base twice its modified set: on time+bytes hybrid wins (it
        // skips the cache), although its withheld-set pull phase is
        // predicted to stall the reads harder than a bulk style's light
        // wire contention would degrade the guest.
        let (chosen, est) = choose(&ctx(vm(2.0e6, 50.0e6, 0.0, 2.0e6, 256 << 20, 128 << 20)));
        assert_eq!(chosen, StrategyKind::Hybrid);
        let by = |k: StrategyKind| est.iter().find(|e| e.strategy == k).unwrap();
        assert!(
            by(StrategyKind::Hybrid).est_sla_secs > by(StrategyKind::Precopy).est_sla_secs,
            "the pull phase must predict more degradation than light wire contention"
        );
        assert!(
            by(StrategyKind::Postcopy).est_sla_secs > 0.0,
            "read-hot pull predicts stalls"
        );
    }

    #[test]
    fn placement_is_least_loaded() {
        let nv = [(0, 2), (1, 3), (2, 1)].map(|(node, load)| NodeView {
            node,
            crashed: false,
            load,
        });
        assert_eq!(PlannerKind::Cost.place(0, &nv), Some(2));
    }
}
