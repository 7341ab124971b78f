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
//! × H)`, and `p` is
//! [`cost_ondemand_penalty`](super::OrchestratorConfig::cost_ondemand_penalty).
//!
//! The score is `time + cost_bytes_weight × bytes/GiB + cost_sla_weight
//! × sla`, where the SLA term predicts the guest-degradation seconds a
//! scheme imposes: the pull styles stall reads behind on-demand pulls
//! (`time × min(1, p × r/B)` over the pull phase), the pre-copy styles
//! contend for the wire with the workload's own flux (`time × min(1,
//! flux/B)`). With `cost_sla_weight = 0` — the default — the objective
//! is the historical time+bytes score exactly. Candidates are scored in
//! a fixed order (`Precopy`, `Mirror`, `Hybrid`, `Postcopy` — under
//! post-copy memory only `Hybrid`, `Postcopy`) and ties keep the
//! earlier candidate, so decisions are bit-reproducible across runs and
//! solvers. Memory migration time is common to every scheme and drops
//! out of the argmin, so the model omits it.
//!
//! [`PlannerKind::Adaptive`]: super::PlannerKind::Adaptive

use super::bounds;
use super::{PlanContext, SchemeEstimate};
use crate::policy::StrategyKind;

const GIB: f64 = (1u64 << 30) as f64;

/// Predict `(time_secs, bytes)` for migrating `ctx.vm` with `k` —
/// pure and unit-testable.
fn estimate_scheme(ctx: &PlanContext<'_>, k: StrategyKind) -> SchemeEstimate {
    let b = ctx.nic_bw;
    let vm = &ctx.vm;
    let s_alloc = vm.local_bytes as f64;
    let s_mod = vm.modified_bytes as f64;
    let penalty = ctx.cfg.cost_nonconverge_penalty_secs;
    // Degradation fraction while the guest's reads stall behind
    // on-demand pulls (the pull styles' SLA exposure), and while its
    // own I/O contends with the transfer for the wire (the pre-copy
    // styles'). Both saturate at 1 — a guest cannot lose more than all
    // of its throughput.
    let read_stall = (ctx.cfg.cost_ondemand_penalty * vm.read_rate / b).min(1.0);
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
            let stall = bounds::pull_stall_factor(vm.read_rate, b, ctx.cfg.cost_ondemand_penalty);
            let t = bounds::pull_time(s_mod, b, stall);
            (t, s_mod, t * read_stall)
        }
        StrategyKind::Hybrid => {
            let hot =
                bounds::hybrid_withheld(vm.rewrite_rate, ctx.cfg.telemetry_window_secs, s_mod);
            let push_time = (s_mod - hot) / b;
            let repush = bounds::hybrid_repush(vm.rewrite_rate, push_time, ctx.threshold, hot);
            let stall = bounds::pull_stall_factor(vm.read_rate, b, ctx.cfg.cost_ondemand_penalty);
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
        score: time + ctx.cfg.cost_bytes_weight * bytes / GIB + ctx.cfg.cost_sla_weight * sla,
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
pub(super) fn choose(ctx: &PlanContext<'_>) -> (StrategyKind, Vec<SchemeEstimate>) {
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
    use crate::planner::{NodeView, OrchestratorConfig, PlannerKind, VmView};

    const NIC: f64 = 100.0e6;

    fn ctx<'a>(cfg: &'a OrchestratorConfig, nodes: &'a [NodeView], vm: VmView) -> PlanContext<'a> {
        PlanContext {
            nic_bw: NIC,
            postcopy_memory: false,
            threshold: 3,
            cfg,
            nodes,
            vm,
        }
    }

    fn nodes() -> Vec<NodeView> {
        (0..3)
            .map(|node| NodeView {
                node,
                crashed: false,
                load: 0,
                io_pressure: 0.0,
                cache_hit: 1.0,
            })
            .collect()
    }

    fn vm(write: f64, read: f64, dirty: f64, rewrite: f64, alloc: u64, modified: u64) -> VmView {
        VmView {
            vm: 0,
            host: 0,
            strategy: StrategyKind::Hybrid,
            write_rate: write,
            read_rate: read,
            dirty_rate: dirty,
            rewrite_rate: rewrite,
            io_pressure: 0.0,
            cache_hit: 1.0,
            local_bytes: alloc,
            modified_bytes: modified,
        }
    }

    #[test]
    fn idle_vm_ties_break_to_precopy() {
        let cfg = OrchestratorConfig::default();
        let nv = nodes();
        let c = ctx(&cfg, &nv, vm(0.0, 0.0, 0.0, 0.0, 16 << 20, 16 << 20));
        let (chosen, est) = choose(&c);
        assert_eq!(chosen, StrategyKind::Precopy);
        assert_eq!(est.len(), 4, "every candidate is estimated");
    }

    #[test]
    fn hot_overwriter_gets_hybrid() {
        let cfg = OrchestratorConfig::default();
        let nv = nodes();
        // 25 MB/s of overwrites into a 16 MiB working set: the pre-copy
        // styles re-send forever, mirror pays the wire for every write,
        // hybrid withholds the hot set and pulls it once.
        let c = ctx(&cfg, &nv, vm(25.0e6, 0.0, 0.0, 25.0e6, 16 << 20, 16 << 20));
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
        let cfg = OrchestratorConfig::default();
        let nv = nodes();
        // Light writes, big modified set: postcopy moves each chunk
        // exactly once and wins on bytes.
        let c = ctx(&cfg, &nv, vm(1.5e6, 0.0, 0.5e6, 1.0e6, 64 << 20, 64 << 20));
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
        let cfg = OrchestratorConfig::default();
        let nv = nodes();
        // A read-mostly guest: huge locally cached base, tiny modified
        // set. The bulk schemes would ship the cache; the pull schemes
        // let the destination re-fetch it from the repository.
        let c = ctx(&cfg, &nv, vm(0.0, 30.0e6, 0.0, 0.0, 1 << 30, 4 << 20));
        let (chosen, _) = choose(&c);
        assert!(
            matches!(chosen, StrategyKind::Hybrid | StrategyKind::Postcopy),
            "bulk scheme chosen despite a 1 GiB cached-base footprint: {chosen:?}"
        );
    }

    #[test]
    fn nonconvergent_flux_is_penalized() {
        let cfg = OrchestratorConfig::default();
        let nv = nodes();
        let c = ctx(
            &cfg,
            &nv,
            vm(98.0e6, 0.0, 10.0e6, 88.0e6, 64 << 20, 64 << 20),
        );
        let (_, est) = choose(&c);
        let pre = est
            .iter()
            .find(|e| e.strategy == StrategyKind::Precopy)
            .unwrap();
        let mir = est
            .iter()
            .find(|e| e.strategy == StrategyKind::Mirror)
            .unwrap();
        assert_eq!(pre.est_time_secs, cfg.cost_nonconverge_penalty_secs);
        assert_eq!(mir.est_time_secs, cfg.cost_nonconverge_penalty_secs);
    }

    #[test]
    fn postcopy_memory_restricts_candidates() {
        let cfg = OrchestratorConfig::default();
        let nv = nodes();
        let mut c = ctx(&cfg, &nv, vm(0.0, 0.0, 0.0, 0.0, 16 << 20, 16 << 20));
        c.postcopy_memory = true;
        let (s, est) = choose(&c);
        assert!(matches!(s, StrategyKind::Hybrid | StrategyKind::Postcopy));
        assert_eq!(est.len(), 2);
    }

    #[test]
    fn sla_weight_steers_away_from_read_stalls() {
        // A read-hot guest with a light rewrite trickle and a cached
        // base twice its modified set: on time+bytes hybrid wins (it
        // skips the cache), but its withheld-set pull phase stalls the
        // reads hard. A heavy SLA weight flips the argmin to a bulk
        // style, whose only degradation is light wire contention.
        let nv = nodes();
        let guest = || vm(2.0e6, 50.0e6, 0.0, 2.0e6, 256 << 20, 128 << 20);
        let cfg = OrchestratorConfig::default();
        let (chosen, _) = choose(&ctx(&cfg, &nv, guest()));
        assert_eq!(chosen, StrategyKind::Hybrid);
        let weighted = OrchestratorConfig {
            cost_sla_weight: 10.0,
            ..OrchestratorConfig::default()
        };
        let (chosen, est) = choose(&ctx(&weighted, &nv, guest()));
        assert!(
            matches!(chosen, StrategyKind::Precopy | StrategyKind::Mirror),
            "SLA weight should favour the low-stall bulk styles, got {chosen:?}"
        );
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
        let cfg = OrchestratorConfig::default();
        let nv = vec![
            NodeView {
                node: 0,
                crashed: false,
                load: 2,
                io_pressure: 0.2,
                cache_hit: 1.0,
            },
            NodeView {
                node: 1,
                crashed: false,
                load: 3,
                io_pressure: 0.3,
                cache_hit: 1.0,
            },
            NodeView {
                node: 2,
                crashed: false,
                load: 1,
                io_pressure: 0.1,
                cache_hit: 1.0,
            },
        ];
        let c = ctx(&cfg, &nv, vm(0.0, 0.0, 0.0, 0.0, 0, 0));
        assert_eq!(PlannerKind::Cost.place(&c), Some(2));
    }
}
