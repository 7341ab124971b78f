//! Property tests for the memory migration state machines.

use lsm_hypervisor::{MemMigrationConfig, MemoryProfile, NextStep, PostcopyMemory, PrecopyMemory};
use lsm_simcore::time::SimDuration;
use proptest::prelude::*;

const MIB: u64 = 1 << 20;

proptest! {
    /// Pre-copy always terminates within `max_rounds` rounds, whatever
    /// dirtying the guest produces, and the total sent is bounded by
    /// `touched + max_rounds * wss`.
    #[test]
    fn precopy_always_terminates(
        touched_mb in 64u64..4096,
        wss_frac in 0.05f64..1.0,
        dirty_pattern in prop::collection::vec(0u64..4096, 1..64),
        max_rounds in 2u32..40,
        rate_mb in 10.0f64..200.0,
    ) {
        let touched = touched_mb * MIB;
        let wss = ((touched as f64 * wss_frac) as u64).max(MIB);
        let profile = MemoryProfile::new(4096 * MIB, touched, wss.min(touched), 0.0);
        let cfg = MemMigrationConfig {
            downtime_target: SimDuration::from_millis(30),
            max_rounds,
            speed_cap: None,
        };
        let mut m = PrecopyMemory::new(profile, cfg);
        let first = m.start();
        prop_assert_eq!(first, touched);

        let rate = rate_mb * MIB as f64;
        let mut i = 0usize;
        loop {
            let dirt = dirty_pattern[i % dirty_pattern.len()] * MIB;
            i += 1;
            prop_assert!(i <= max_rounds as usize + 2, "did not terminate");
            match m.round_done(dirt, rate) {
                NextStep::Round { bytes } => {
                    prop_assert!(bytes <= wss.min(touched));
                    prop_assert!(bytes > 0);
                }
                NextStep::StopAndCopy { bytes, .. } => {
                    prop_assert!(bytes <= wss.min(touched));
                    break;
                }
            }
        }
        m.finish();
        prop_assert!(m.is_done());
        prop_assert!(m.rounds() <= max_rounds);
        prop_assert!(m.total_sent() >= touched);
        prop_assert!(
            m.total_sent() <= touched + (max_rounds as u64 + 1) * wss.min(touched)
        );
    }

    /// An idle guest (zero dirtying) always converges unthrottled after
    /// the first pass.
    #[test]
    fn precopy_idle_guest_one_round(touched_mb in 1u64..4096) {
        let profile = MemoryProfile::new(4096 * MIB, touched_mb * MIB, MIB.min(touched_mb * MIB), 0.0);
        let mut m = PrecopyMemory::new(profile, MemMigrationConfig::default());
        m.start();
        match m.round_done(0, 100.0 * MIB as f64) {
            NextStep::StopAndCopy { bytes, throttled } => {
                prop_assert_eq!(bytes, 0);
                prop_assert!(!throttled);
            }
            NextStep::Round { .. } => prop_assert!(false, "must converge immediately"),
        }
    }

    /// Post-copy moves every touched byte exactly once, split between
    /// the handover and the background pull.
    #[test]
    fn postcopy_moves_each_byte_once(touched_mb in 1u64..4096, hot_frac in 0.0f64..1.0) {
        let touched = touched_mb * MIB;
        let hot = (touched as f64 * hot_frac) as u64;
        let profile = MemoryProfile::new(4096 * MIB, touched, MIB.min(touched), 0.0);
        let mut m = PostcopyMemory::new(profile, hot);
        let h = m.start();
        let p = m.handover_done();
        prop_assert_eq!(h + p, touched);
        prop_assert!(m.faulting());
        m.pull_done();
        prop_assert!(m.is_done());
        prop_assert_eq!(m.total_bytes(), touched);
    }
}
