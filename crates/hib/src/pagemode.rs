//! Per-page sharing metadata and the page-access counters.

use tg_wire::{IntMap, NodeId, PageNum};

use crate::host::CounterKind;

/// How one page of the local shared segment participates in sharing.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum PageMode {
    /// An ordinary exported page: remote reads/writes land here directly.
    #[default]
    Plain,
    /// Eager-update multicast source (§2.2.7): every local store to the
    /// page is transparently re-sent to the mapped-out destinations
    /// (message-passing style, no coherence filtering).
    EagerMapped {
        /// Destination copies as `(node, page-in-that-node's-segment)`.
        outs: Vec<(NodeId, PageNum)>,
    },
    /// This node owns a replicated coherent page (§2.3.1): it serializes
    /// all updates and multicasts reflected writes to every copy.
    Owned {
        /// Copy holders as `(node, page-in-that-node's-segment)`.
        copies: Vec<(NodeId, PageNum)>,
    },
    /// A local copy of a coherent page owned elsewhere (§2.3.2): local
    /// stores are applied at once, counted in the CAM, and forwarded to the
    /// owner.
    Replica {
        /// The owning node.
        owner: NodeId,
        /// The page number within the owner's segment.
        owner_page: PageNum,
    },
}

/// The sharing-mode table for the local segment plus the §2.2.6 access
/// counters for remote pages.
#[derive(Clone, Debug, Default)]
pub struct SharedMap {
    modes: IntMap<u32, PageMode>,
    counters: IntMap<(NodeId, PageNum), AccessCounters>,
}

/// One remote page's read/write down-counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessCounters {
    /// Remaining reads before the read alarm.
    pub reads: u16,
    /// Remaining writes before the write alarm.
    pub writes: u16,
}

impl SharedMap {
    /// An all-plain map with no armed counters.
    pub(crate) fn new() -> Self {
        SharedMap::default()
    }

    /// The mode of a local segment page.
    pub(crate) fn mode(&self, page: PageNum) -> &PageMode {
        static PLAIN: PageMode = PageMode::Plain;
        self.modes.get(&page.raw()).unwrap_or(&PLAIN)
    }

    /// Installs a page mode (privileged driver operation).
    pub fn set_mode(&mut self, page: PageNum, mode: PageMode) {
        match mode {
            PageMode::Plain => {
                self.modes.remove(&page.raw());
            }
            other => {
                self.modes.insert(page.raw(), other);
            }
        }
    }

    /// Arms the access counters of a remote page (§2.2.6: "By setting the
    /// counters to very large values … the system can monitor … By setting
    /// the counters to small values … alarm-based replication").
    pub fn arm_counters(&mut self, node: NodeId, page: PageNum, reads: u16, writes: u16) {
        self.counters
            .insert((node, page), AccessCounters { reads, writes });
    }

    /// Disarms (removes) a remote page's counters.
    pub fn disarm_counters(&mut self, node: NodeId, page: PageNum) {
        self.counters.remove(&(node, page));
    }

    /// Current counter values, if armed.
    pub fn counters(&self, node: NodeId, page: PageNum) -> Option<AccessCounters> {
        self.counters.get(&(node, page)).copied()
    }

    /// Records one remote access; returns `true` exactly when the counter
    /// crosses from one to zero (the alarm condition). Counters stick at
    /// zero ("the counter is decremented, unless the counter is zero").
    pub(crate) fn count_access(&mut self, node: NodeId, page: PageNum, kind: CounterKind) -> bool {
        let Some(c) = self.counters.get_mut(&(node, page)) else {
            return false;
        };
        let ctr = match kind {
            CounterKind::Read => &mut c.reads,
            CounterKind::Write => &mut c.writes,
        };
        if *ctr == 0 {
            return false;
        }
        *ctr -= 1;
        *ctr == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_plain() {
        let map = SharedMap::new();
        assert_eq!(*map.mode(PageNum::new(5)), PageMode::Plain);
        assert_eq!(map.modes.len(), 0);
    }

    #[test]
    fn set_and_clear_modes() {
        let mut map = SharedMap::new();
        map.set_mode(
            PageNum::new(1),
            PageMode::Replica {
                owner: NodeId::new(2),
                owner_page: PageNum::new(9),
            },
        );
        assert!(matches!(
            map.mode(PageNum::new(1)),
            PageMode::Replica { .. }
        ));
        assert_eq!(map.modes.len(), 1);
        map.set_mode(PageNum::new(1), PageMode::Plain);
        assert_eq!(map.modes.len(), 0);
    }

    #[test]
    fn counters_alarm_exactly_once() {
        let mut map = SharedMap::new();
        let (n, p) = (NodeId::new(1), PageNum::new(4));
        map.arm_counters(n, p, 3, 1);
        assert!(!map.count_access(n, p, CounterKind::Read)); // 3 -> 2
        assert!(!map.count_access(n, p, CounterKind::Read)); // 2 -> 1
        assert!(map.count_access(n, p, CounterKind::Read)); // 1 -> 0: alarm
        assert!(!map.count_access(n, p, CounterKind::Read)); // sticks at 0
        assert!(map.count_access(n, p, CounterKind::Write)); // 1 -> 0: alarm
        let c = map.counters(n, p).unwrap();
        assert_eq!((c.reads, c.writes), (0, 0));
    }

    #[test]
    fn unarmed_pages_never_alarm() {
        let mut map = SharedMap::new();
        assert!(!map.count_access(NodeId::new(0), PageNum::new(0), CounterKind::Write));
    }

    #[test]
    fn disarm_stops_counting() {
        let mut map = SharedMap::new();
        let (n, p) = (NodeId::new(1), PageNum::new(4));
        map.arm_counters(n, p, 1, 1);
        map.disarm_counters(n, p);
        assert!(!map.count_access(n, p, CounterKind::Read));
        assert_eq!(map.counters(n, p), None);
    }
}
