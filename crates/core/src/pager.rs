//! Remote-memory paging (the paper's ref \[21\]: "Using Remote Memory to
//! avoid Disk Thrashing").
//!
//! A workstation whose working set exceeds its local memory pages against
//! a backing store. Classically that store is a disk; with Telegraphos it
//! can be another workstation's memory, reached with the same hardware
//! page streams the coherence machinery uses — orders of magnitude faster
//! than a seek. This module implements both backings behind one pager so
//! experiment E11 can race them.
//!
//! The pager manages a window of *paged virtual pages* backed by local
//! segment frames. At most `capacity` of them are resident; touching a
//! non-resident page faults, the OS evicts the least-recently-used
//! resident page (writing it back to the backing store) and fetches the
//! faulted one.

use std::collections::{HashMap, VecDeque};

use tg_wire::{NodeId, PageNum, WireMsg};

/// Tag namespace for pager fetch streams.
pub(crate) const PAGER_TAG_BASE: u32 = 0x2000_0000;

/// Where evicted pages go.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backing {
    /// A spinning disk: pure latency per page transfer (seek + rotation +
    /// transfer; early-90s disks: ~15 ms).
    Disk,
    /// Another workstation's memory: the page lives in a frame of the
    /// server's exported segment and moves via hardware page streams.
    RemoteMemory {
        /// The memory server.
        server: NodeId,
    },
}

/// What the node must do for the pager.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum PagerEffect {
    /// Send a message through the HIB (page fetch / evicted data).
    SendMsg {
        /// Destination node.
        dst: NodeId,
        /// The message.
        msg: WireMsg,
    },
    /// Stream the local frame's content to the server frame (eviction
    /// write-back over remote writes).
    PushPage {
        /// The memory server.
        dst: NodeId,
        /// Frame in the server's segment.
        server_frame: PageNum,
        /// Local frame holding the victim page.
        local_frame: PageNum,
    },
    /// Copy one local frame to another (resident-slot recycling).
    /// `from` is the local frame of the victim, whose slot `to` reuses.
    Unmap {
        /// Victim virtual page.
        vpage: u64,
    },
    /// Map the faulted page at its (re)assigned local frame.
    Map {
        /// Faulted virtual page.
        vpage: u64,
        /// Local frame now holding it.
        frame: PageNum,
    },
    /// Schedule a disk-latency timer; the node must deliver
    /// [`TASK_DISK_DONE`] with `a = vpage` after its disk latency.
    DiskWait {
        /// The faulted virtual page.
        vpage: u64,
    },
    /// The fault is resolved; retry the access.
    Resume,
}

#[derive(Clone, Copy, Debug)]
struct PagedPage {
    /// Local frame when resident.
    local_frame: PageNum,
    /// Backing slot (server frame for remote memory; symbolic for disk).
    server_frame: PageNum,
    resident: bool,
}

/// Statistics the pager keeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Page faults taken.
    pub(crate) faults: u64,
    /// Evictions performed.
    pub evictions: u64,
}

/// The per-node pager.
#[derive(Debug)]
pub struct RemotePager {
    backing: Backing,
    capacity: usize,
    pages: HashMap<u64, PagedPage>,
    /// LRU order of resident pages (front = least recent).
    lru: VecDeque<u64>,
    pending: Option<u64>,
    /// True while the remote-memory server is convicted dead by the
    /// failure detector: faults fail fast instead of fetching.
    server_down: bool,
    stats: PagerStats,
}

impl RemotePager {
    /// A pager with room for `capacity` resident pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(backing: Backing, capacity: usize) -> Self {
        assert!(capacity > 0, "need at least one resident page");
        RemotePager {
            backing,
            capacity,
            pages: HashMap::new(),
            lru: VecDeque::new(),
            pending: None,
            server_down: false,
            stats: PagerStats::default(),
        }
    }

    /// The remote-memory server, if the backing is remote.
    pub(crate) fn server(&self) -> Option<NodeId> {
        match self.backing {
            Backing::RemoteMemory { server } => Some(server),
            Backing::Disk => None,
        }
    }

    /// True while the backing memory server is convicted dead.
    pub(crate) fn server_is_down(&self) -> bool {
        self.server_down
    }

    /// The failure detector convicted `peer`. If it is our memory server,
    /// future faults fail fast and the in-flight fetch (if any) is
    /// abandoned — its faulted vpage is returned so the node can release
    /// the waiting thread with a structured error. Pages already resident
    /// stay usable; pages swapped out to the dead server are simply lost
    /// until it restarts (crash-stop).
    pub(crate) fn on_peer_down(&mut self, peer: NodeId) -> Option<u64> {
        if self.server() != Some(peer) {
            return None;
        }
        self.server_down = true;
        self.pending.take()
    }

    /// The convicted server's beacons resumed: resume fetching. The
    /// restarted server's frames were re-zeroed by the crash, which is
    /// the documented crash-stop data loss, not an inconsistency.
    pub(crate) fn on_peer_up(&mut self, peer: NodeId) {
        if self.server() == Some(peer) {
            self.server_down = false;
        }
    }

    /// Fault/eviction counters.
    pub fn stats(&self) -> PagerStats {
        self.stats
    }

    /// Registers a paged virtual page. `local_frame` is the frame used
    /// while resident; `server_frame` is its backing slot. Pages start
    /// non-resident.
    pub(crate) fn register(&mut self, vpage: u64, local_frame: PageNum, server_frame: PageNum) {
        self.pages.insert(
            vpage,
            PagedPage {
                local_frame,
                server_frame,
                resident: false,
            },
        );
    }

    /// True if `vpage` is pager-managed.
    pub(crate) fn manages(&self, vpage: u64) -> bool {
        self.pages.contains_key(&vpage)
    }

    /// True if the page is currently resident (mapped).
    pub fn is_resident(&self, vpage: u64) -> bool {
        self.pages.get(&vpage).map(|p| p.resident).unwrap_or(false)
    }

    /// Notes a successful access for LRU bookkeeping. The node calls this
    /// on every access to a managed page (cheap: only on pager pages).
    pub(crate) fn touch(&mut self, vpage: u64) {
        if let Some(pos) = self.lru.iter().position(|&v| v == vpage) {
            self.lru.remove(pos);
            self.lru.push_back(vpage);
        }
    }

    /// Handles a fault on a managed, non-resident page.
    ///
    /// # Panics
    ///
    /// Panics if the page is unmanaged, already resident, or another pager
    /// fault is already in flight (the single CPU faults one at a time).
    pub(crate) fn on_fault(&mut self, vpage: u64) -> Vec<PagerEffect> {
        assert!(self.pending.is_none(), "pager fault already in flight");
        let page = *self.pages.get(&vpage).expect("managed page");
        assert!(!page.resident, "fault on a resident page");
        self.stats.faults += 1;
        self.pending = Some(vpage);

        let mut fx = Vec::new();
        // Evict if at capacity.
        if self.lru.len() >= self.capacity {
            let victim = self.lru.pop_front().expect("capacity > 0");
            let v = self.pages.get_mut(&victim).expect("resident victim");
            v.resident = false;
            self.stats.evictions += 1;
            fx.push(PagerEffect::Unmap { vpage: victim });
            if let Backing::RemoteMemory { server } = self.backing {
                fx.push(PagerEffect::PushPage {
                    dst: server,
                    server_frame: v.server_frame,
                    local_frame: v.local_frame,
                });
            }
            // Disk write-back overlaps the fetch seek; folded into the
            // single disk latency below.
        }

        match self.backing {
            Backing::Disk => fx.push(PagerEffect::DiskWait { vpage }),
            Backing::RemoteMemory { server } => {
                fx.push(PagerEffect::SendMsg {
                    dst: server,
                    msg: WireMsg::PageFetchReq {
                        page: page.server_frame.raw(),
                        tag: PAGER_TAG_BASE | vpage as u32,
                    },
                });
            }
        }
        fx
    }

    /// True if this PageData tag belongs to a pager fetch.
    pub(crate) fn is_pager_tag(tag: u32) -> bool {
        tag & PAGER_TAG_BASE != 0
            && tag & crate::vsm::VSM_TAG_BASE == 0
            && tag & crate::os::REPL_TAG_BASE == 0
    }

    /// Accepts a fetch burst; completes the fault on the last one.
    pub(crate) fn on_page_data(&mut self, tag: u32, last: bool) -> Vec<PagerEffect> {
        let vpage = u64::from(tag & !PAGER_TAG_BASE);
        if self.pending != Some(vpage) {
            // A burst from a fetch that crash cleanup already abandoned
            // (the server was convicted dead with data in flight): stale.
            return Vec::new();
        }
        if !last {
            return Vec::new();
        }
        self.complete(vpage)
    }

    /// Completes a disk fetch (the node's `TASK_DISK_DONE` handler).
    pub(crate) fn on_disk_done(&mut self, vpage: u64) -> Vec<PagerEffect> {
        self.complete(vpage)
    }

    fn complete(&mut self, vpage: u64) -> Vec<PagerEffect> {
        debug_assert_eq!(self.pending, Some(vpage));
        self.pending = None;
        let page = self.pages.get_mut(&vpage).expect("managed page");
        page.resident = true;
        self.lru.push_back(vpage);
        vec![
            PagerEffect::Map {
                vpage,
                frame: page.local_frame,
            },
            PagerEffect::Resume,
        ]
    }

    /// The local frame backing a managed page.
    pub fn local_frame(&self, vpage: u64) -> PageNum {
        self.pages[&vpage].local_frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pager(backing: Backing, cap: usize, pages: u64) -> RemotePager {
        let mut p = RemotePager::new(backing, cap);
        for v in 0..pages {
            p.register(v, PageNum::new(v as u32), PageNum::new(100 + v as u32));
        }
        p
    }

    #[test]
    fn first_touch_faults_and_maps() {
        let mut p = pager(Backing::Disk, 2, 3);
        assert!(!p.is_resident(0));
        let fx = p.on_fault(0);
        assert_eq!(fx, vec![PagerEffect::DiskWait { vpage: 0 }]);
        let fx = p.on_disk_done(0);
        assert!(fx.contains(&PagerEffect::Map {
            vpage: 0,
            frame: PageNum::new(0)
        }));
        assert!(fx.contains(&PagerEffect::Resume));
        assert!(p.is_resident(0));
        assert_eq!(p.stats().faults, 1);
        assert_eq!(p.stats().evictions, 0);
    }

    #[test]
    fn lru_eviction_over_capacity() {
        let mut p = pager(Backing::Disk, 2, 3);
        for v in [0u64, 1] {
            p.on_fault(v);
            p.on_disk_done(v);
        }
        // Touch 0 so 1 becomes the LRU victim.
        p.touch(0);
        let fx = p.on_fault(2);
        assert!(fx.contains(&PagerEffect::Unmap { vpage: 1 }));
        p.on_disk_done(2);
        assert!(p.is_resident(0));
        assert!(!p.is_resident(1));
        assert!(p.is_resident(2));
        assert_eq!(p.stats().evictions, 1);
    }

    #[test]
    fn remote_backing_pushes_and_fetches() {
        let server = NodeId::new(3);
        let mut p = pager(Backing::RemoteMemory { server }, 1, 2);
        let fx = p.on_fault(0);
        assert!(matches!(
            fx.as_slice(),
            [PagerEffect::SendMsg {
                dst,
                msg: WireMsg::PageFetchReq { page: 100, .. }
            }] if *dst == server
        ));
        let tag = PAGER_TAG_BASE; // vpage 0
        p.on_page_data(tag, true);
        // Next fault evicts page 0 back to the server.
        let fx = p.on_fault(1);
        assert!(fx.iter().any(|e| matches!(
            e,
            PagerEffect::PushPage {
                server_frame,
                ..
            } if server_frame.raw() == 100
        )));
        assert!(fx.iter().any(|e| matches!(
            e,
            PagerEffect::SendMsg {
                msg: WireMsg::PageFetchReq { page: 101, .. },
                ..
            }
        )));
    }

    #[test]
    fn tag_namespace_is_disjoint() {
        assert!(RemotePager::is_pager_tag(PAGER_TAG_BASE | 7));
        assert!(!RemotePager::is_pager_tag(crate::vsm::VSM_TAG_BASE | 7));
        assert!(!RemotePager::is_pager_tag(crate::os::REPL_TAG_BASE | 7));
        assert!(!RemotePager::is_pager_tag(7));
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn one_fault_at_a_time() {
        let mut p = pager(Backing::Disk, 1, 2);
        p.on_fault(0);
        p.on_fault(1);
    }
}
