//! Minimal post-copy memory migration (Hines et al., the paper's §6
//! future-work direction).
//!
//! Control transfers to the destination almost immediately: only the device
//! state and a small hot set move during the (short) pause. The remaining
//! touched memory is pulled in the background; every page moves **exactly
//! once**, so convergence is unconditional. While the pull is in progress
//! the guest takes remote page faults, modeled by the engine as a compute
//! slowdown factor.

use crate::memory::MemoryProfile;

/// The post-copy state machine.
#[derive(Clone, Debug)]
pub struct PostcopyMemory {
    profile: MemoryProfile,
    hot_set_bytes: u64,
    phase: u8, // 0 = idle, 1 = handover, 2 = pulling, 3 = done
}

impl PostcopyMemory {
    /// Prepare a post-copy migration; `hot_set_bytes` moves during the
    /// pause (device state, stacks, the immediately-needed pages).
    pub fn new(profile: MemoryProfile, hot_set_bytes: u64) -> Self {
        assert!(hot_set_bytes <= profile.touched_bytes);
        PostcopyMemory {
            profile,
            hot_set_bytes,
            phase: 0,
        }
    }

    /// Begin: pause the VM and move the returned bytes (device state and
    /// hot pages), then resume it **at the destination**.
    pub fn start(&mut self) -> u64 {
        assert_eq!(self.phase, 0, "migration already started");
        self.phase = 1;
        self.hot_set_bytes
    }

    /// The handover pause finished: background-pull the returned bytes,
    /// the rest of the touched memory, while the guest runs at the
    /// destination.
    pub fn handover_done(&mut self) -> u64 {
        assert_eq!(self.phase, 1, "handover_done out of phase");
        self.phase = 2;
        self.profile.touched_bytes - self.hot_set_bytes
    }

    /// The background pull finished: migration complete.
    pub fn pull_done(&mut self) {
        assert_eq!(self.phase, 2, "pull_done out of phase");
        self.phase = 3;
    }

    /// True while remote page faults can still occur.
    pub fn faulting(&self) -> bool {
        self.phase == 2
    }

    /// True once all memory lives at the destination.
    pub fn is_done(&self) -> bool {
        self.phase == 3
    }

    /// Total bytes this migration moves (each page exactly once).
    pub fn total_bytes(&self) -> u64 {
        self.profile.touched_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_simcore::units::{GIB, MIB};

    #[test]
    fn lifecycle_moves_each_byte_once() {
        let p = MemoryProfile::new(4 * GIB, 1024 * MIB, 256 * MIB, 0.0);
        let mut m = PostcopyMemory::new(p, 64 * MIB);
        assert_eq!(m.start(), 64 * MIB);
        assert!(!m.faulting());
        assert_eq!(m.handover_done(), 960 * MIB);
        assert!(m.faulting());
        m.pull_done();
        assert!(m.is_done());
        assert_eq!(m.total_bytes(), 1024 * MIB);
    }

    #[test]
    #[should_panic(expected = "out of phase")]
    fn pull_before_handover_panics() {
        let p = MemoryProfile::new(4 * GIB, 128 * MIB, 64 * MIB, 0.0);
        let mut m = PostcopyMemory::new(p, 0);
        m.start();
        m.pull_done();
    }
}
