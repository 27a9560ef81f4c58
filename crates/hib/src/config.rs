//! HIB structural configuration.

/// Which special-operation launch mechanism the board implements (§2.2.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LaunchMode {
    /// Telegraphos I: a *special mode* toggled through a HIB register; while
    /// set, stores to remote addresses are latched as operands instead of
    /// being performed. The whole sequence runs inside uninterruptible PAL
    /// code on the Alpha.
    SpecialModePal,
    /// Telegraphos II: per-process *contexts* (argument register sets) plus
    /// *shadow addressing* — a store to the shadow twin of a virtual
    /// address delivers the translated physical address to the HIB, with a
    /// key in the store's data authenticating the context.
    ContextShadow,
}

/// How stores to locally-present but remotely-owned pages behave (§2.3.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LocalWritePolicy {
    /// The paper's design: apply the store locally at once, count it in the
    /// pending-write CAM, and filter incoming updates (§2.3.3).
    CountFiltered,
    /// The rejected alternative ("non-trivial performance cost"): stall the
    /// store until the owner's reflected write returns. Kept as an ablation.
    StallUntilReflected,
}

/// Structural parameters of one Host Interface Board.
///
/// Defaults model Telegraphos I as built (Table 1): 64 K countable pages,
/// 16 K multicast entries, a 64-deep transmit queue, and — in the shipped
/// prototype — *no* CAM (`cam_entries` is the "future versions" feature;
/// the default picks the paper's suggested 16).
#[derive(Clone, Debug, PartialEq)]
pub struct HibConfig {
    /// Transmit-queue depth in packets (absorbs bursts of remote writes;
    /// §3.2 shows bursts of ~100 writes issuing at TurboChannel speed).
    pub tx_queue_depth: usize,
    /// Pending-write counter CAM entries (§2.3.4 suggests 16–32).
    pub cam_entries: usize,
    /// Number of Telegraphos contexts (Telegraphos II launch).
    pub contexts: usize,
    /// Launch mechanism.
    pub launch_mode: LaunchMode,
    /// Local-write policy for replica pages.
    pub local_write_policy: LocalWritePolicy,
    /// Exported shared-segment size in pages.
    pub segment_pages: u32,
    /// Words per remote-copy / page-transfer burst packet.
    pub copy_burst_words: u32,
}

impl HibConfig {
    /// Telegraphos I as prototyped (plus the paper's proposed 16-entry CAM).
    pub fn telegraphos_i() -> Self {
        HibConfig {
            tx_queue_depth: 64,
            cam_entries: 16,
            contexts: 4,
            launch_mode: LaunchMode::SpecialModePal,
            local_write_policy: LocalWritePolicy::CountFiltered,
            segment_pages: 2048, // 16 MB MPM / 8 KB pages
            copy_burst_words: 8,
        }
    }

    /// Telegraphos II: context/shadow launch, more contexts.
    pub fn telegraphos_ii() -> Self {
        HibConfig {
            contexts: 16,
            launch_mode: LaunchMode::ContextShadow,
            ..Self::telegraphos_i()
        }
    }
}

impl Default for HibConfig {
    fn default() -> Self {
        Self::telegraphos_i()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1_structure() {
        let c = HibConfig::default();
        assert_eq!(c.tx_queue_depth, 64);
        assert_eq!(c.segment_pages as u64 * 8192, 16 << 20);
        assert_eq!(c.launch_mode, LaunchMode::SpecialModePal);
    }

    #[test]
    fn telegraphos_ii_uses_contexts() {
        let c = HibConfig::telegraphos_ii();
        assert_eq!(c.launch_mode, LaunchMode::ContextShadow);
        assert!(c.contexts > HibConfig::telegraphos_i().contexts);
    }
}
