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
//!
//! Like the VSM module, the pager is a pure state machine that answers
//! with [`OsEffect`]s: an eviction is an `Unmap` plus, on remote memory, a
//! `SendPage` push into the server's frame; a fetch is a `PageFetchReq`
//! (remote memory) or a `DiskWait` (disk); a completed fetch is a `Map`
//! and a `Resume`. Fetch streams come back tagged [`PageTag::Fetch`].

use std::collections::{HashMap, VecDeque};

use tg_wire::{NodeId, PageNum, WireMsg};

use crate::os::{OsEffect, PageTag};

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
    fn server(&self) -> Option<NodeId> {
        match self.backing {
            Backing::RemoteMemory { server } => Some(server),
            Backing::Disk => None,
        }
    }

    /// The failure detector convicted `peer`. If it is our memory server,
    /// future faults fail fast and the in-flight fetch (if any) is
    /// abandoned: a `FailFault` releases the waiting thread with a
    /// structured error. Pages already resident stay usable; pages
    /// swapped out to the dead server are simply lost until it restarts
    /// (crash-stop).
    pub(crate) fn on_peer_down(&mut self, peer: NodeId) -> Vec<OsEffect> {
        if self.server() != Some(peer) {
            return Vec::new();
        }
        self.server_down = true;
        self.pending
            .take()
            .map(|vpage| OsEffect::FailFault { vpage, peer })
            .into_iter()
            .collect()
    }

    /// The convicted server is reachable again: resume fetching. The
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

    /// Handles a fault on a managed, non-resident page. While the memory
    /// server is convicted dead the fault fails at once.
    ///
    /// # Panics
    ///
    /// Panics if the page is unmanaged, already resident, or another pager
    /// fault is already in flight (the single CPU faults one at a time).
    pub(crate) fn on_fault(&mut self, vpage: u64) -> Vec<OsEffect> {
        if let (true, Some(peer)) = (self.server_down, self.server()) {
            return vec![OsEffect::FailFault { vpage, peer }];
        }
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
            fx.push(OsEffect::Unmap { vpage: victim });
            if let Backing::RemoteMemory { server } = self.backing {
                fx.push(OsEffect::SendPage {
                    dst: server,
                    tag: PageTag::Push(v.server_frame).encode(),
                    frame: v.local_frame,
                });
            }
            // Disk write-back overlaps the fetch seek; folded into the
            // single disk latency below.
        }

        match self.backing {
            Backing::Disk => fx.push(OsEffect::DiskWait { vpage }),
            Backing::RemoteMemory { server } => {
                fx.push(OsEffect::Send {
                    dst: server,
                    msg: WireMsg::PageFetchReq {
                        page: page.server_frame.raw(),
                        tag: PageTag::Fetch(vpage).encode(),
                    },
                });
            }
        }
        fx
    }

    /// Accepts a burst of the fetch for `vpage` into its local frame;
    /// the last burst completes the fault. A burst of a fetch that crash
    /// cleanup already abandoned (the server was convicted dead with data
    /// in flight) still lands in the frame but completes nothing.
    pub(crate) fn on_page_data(
        &mut self,
        vpage: u64,
        index: u32,
        vals: tg_wire::Payload,
        last: bool,
    ) -> Vec<OsEffect> {
        let frame = self.local_frame(vpage);
        let mut fx = vec![OsEffect::WriteBurst { frame, index, vals }];
        if last && self.pending == Some(vpage) {
            fx.extend(self.complete(vpage));
        }
        fx
    }

    /// Completes a disk fetch (the node's `PAGER_DISK_DONE` task).
    pub(crate) fn on_disk_done(&mut self, vpage: u64) -> Vec<OsEffect> {
        self.complete(vpage)
    }

    fn complete(&mut self, vpage: u64) -> Vec<OsEffect> {
        debug_assert_eq!(self.pending, Some(vpage));
        self.pending = None;
        let page = self.pages.get_mut(&vpage).expect("managed page");
        page.resident = true;
        self.lru.push_back(vpage);
        vec![
            OsEffect::Map {
                vpage,
                frame: page.local_frame,
                writable: true,
            },
            OsEffect::Resume,
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
        assert_eq!(fx, vec![OsEffect::DiskWait { vpage: 0 }]);
        let fx = p.on_disk_done(0);
        assert!(fx.contains(&OsEffect::Map {
            vpage: 0,
            frame: PageNum::new(0),
            writable: true
        }));
        assert!(fx.contains(&OsEffect::Resume));
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
        assert!(fx.contains(&OsEffect::Unmap { vpage: 1 }));
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
        let tag = PageTag::Fetch(0).encode();
        assert_eq!(
            fx,
            vec![OsEffect::Send {
                dst: server,
                msg: WireMsg::PageFetchReq { page: 100, tag }
            }]
        );
        let fx = p.on_page_data(0, 0, vec![1].into(), false);
        assert_eq!(fx.len(), 1, "a burst, no completion yet");
        let fx = p.on_page_data(0, 1, vec![2].into(), true);
        assert!(fx.contains(&OsEffect::Resume));
        // Next fault evicts page 0 back to the server.
        let fx = p.on_fault(1);
        assert!(fx.contains(&OsEffect::SendPage {
            dst: server,
            tag: PageTag::Push(PageNum::new(100)).encode(),
            frame: PageNum::new(0)
        }));
        assert!(fx.iter().any(|e| matches!(
            e,
            OsEffect::Send {
                msg: WireMsg::PageFetchReq { page: 101, .. },
                ..
            }
        )));
    }

    #[test]
    fn a_dead_server_fails_the_fetch_in_flight_and_the_next_fault() {
        let server = NodeId::new(3);
        let mut p = pager(Backing::RemoteMemory { server }, 1, 2);
        p.on_fault(0);
        let fx = p.on_peer_down(server);
        assert_eq!(
            fx,
            vec![OsEffect::FailFault {
                vpage: 0,
                peer: server
            }]
        );
        // A late burst of the abandoned fetch lands but completes nothing.
        let fx = p.on_page_data(0, 0, vec![1].into(), true);
        assert_eq!(fx.len(), 1);
        assert!(!p.is_resident(0));
        let fx = p.on_fault(1);
        assert_eq!(
            fx,
            vec![OsEffect::FailFault {
                vpage: 1,
                peer: server
            }]
        );
        assert_eq!(p.stats().faults, 1, "a fail-fast fault is not counted");
        p.on_peer_up(server);
        assert_eq!(p.on_fault(1).len(), 1, "the fetch goes out again");
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn one_fault_at_a_time() {
        let mut p = pager(Backing::Disk, 1, 2);
        p.on_fault(0);
        p.on_fault(1);
    }
}
