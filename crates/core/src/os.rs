//! The per-node operating-system layer.
//!
//! Holds the VSM baseline state, the alarm-driven page-replication policy
//! (§2.2.6: "alarm-based replication"), and the message-passing baseline's
//! inbox. Like the VSM module it is a pure state machine: the node executes
//! the returned [`OsEffect`]s and charges the costs.

use std::collections::HashMap;

use tg_wire::{NodeId, PageNum, WireMsg};

use crate::pager::RemotePager;
use crate::vsm::VsmNode;

/// Deferred-OS-work task codes (scheduled as `ClusterEvent::OsTask`).
pub(crate) mod task {
    /// VSM fault processing after the trap entry (`a` = vpage, `b` = write).
    pub(crate) const VSM_FAULT: u16 = 0x100;
    /// Retry the faulted action after mapping.
    pub(crate) const VSM_RETRY: u16 = 0x101;
    /// Start alarm-driven replication (`a` = home node, `b` = page).
    pub(crate) const REPLICATE: u16 = 0x102;
    /// Pager fault processing after the trap entry (`a` = vpage).
    pub(crate) const PAGER_FAULT: u16 = 0x103;
    /// A disk page transfer finished (`a` = vpage).
    pub(crate) const PAGER_DISK_DONE: u16 = 0x104;
}

/// Tag namespace for alarm-replication page fetches.
pub(crate) const REPL_TAG_BASE: u32 = 0x4000_0000;

/// How the OS responds to page-access alarms.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReplicatePolicy {
    /// Ignore alarms (monitoring only).
    #[default]
    Never,
    /// Replicate the hot page into local memory when the alarm fires
    /// (the policy of §2.2.6 / refs \[21, 22\]).
    OnAlarm,
}

/// Node-level actions requested by the OS.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum OsEffect {
    /// Transmit an OS message (HIB transport; loop back if to self).
    SendMsg {
        /// Destination node.
        dst: NodeId,
        /// The message.
        msg: WireMsg,
    },
    /// Write page-data words into a local segment frame.
    WriteBurst {
        /// Local frame.
        frame: PageNum,
        /// Word index within the page.
        index: u32,
        /// The words.
        vals: tg_wire::Payload,
    },
    /// Map `vpage` to a local frame (replication completed).
    MapLocal {
        /// Virtual page.
        vpage: u64,
        /// Local frame.
        frame: PageNum,
        /// Writable mapping?
        writable: bool,
    },
    /// Stop counting accesses to a remote page (it is now local).
    DisarmCounters {
        /// Home node of the page.
        node: NodeId,
        /// Page number at the home.
        page: PageNum,
    },
}

#[derive(Clone, Copy, Debug)]
struct ReplPending {
    vpage: u64,
    frame: PageNum,
    node: NodeId,
    page: PageNum,
}

#[derive(Clone, Copy, Debug, Default)]
struct MsgBuf {
    bytes: u64,
    complete: bool,
}

/// The OS state for one node.
#[derive(Debug)]
pub struct Os {
    /// The VSM baseline (always present; only used for registered pages).
    pub vsm: VsmNode,
    /// The remote-memory/disk pager (experiment E11), when configured.
    pub pager: Option<RemotePager>,
    policy: ReplicatePolicy,
    /// Free local segment frames the OS may allocate.
    free_frames: Vec<PageNum>,
    /// Which vpage a remote page `(home, page)` is mapped at here.
    remote_vpage: HashMap<(NodeId, PageNum), u64>,
    /// Replications in flight, by fetch tag.
    repl_pending: HashMap<u32, ReplPending>,
    /// Pages already replicated (suppress duplicate alarms).
    replicated: HashMap<(NodeId, PageNum), PageNum>,
    next_repl_tag: u32,
    inbox: HashMap<u32, MsgBuf>,
}

impl Os {
    /// Creates the OS layer for `me`.
    pub(crate) fn new(me: NodeId) -> Self {
        Os {
            vsm: VsmNode::new(me),
            pager: None,
            policy: ReplicatePolicy::Never,
            free_frames: Vec::new(),
            remote_vpage: HashMap::new(),
            repl_pending: HashMap::new(),
            replicated: HashMap::new(),
            next_repl_tag: 0,
            inbox: HashMap::new(),
        }
    }

    /// Sets the alarm policy.
    pub(crate) fn set_policy(&mut self, policy: ReplicatePolicy) {
        self.policy = policy;
    }

    /// Grants the OS a pool of free local frames (cluster setup).
    pub(crate) fn grant_frames(&mut self, frames: impl IntoIterator<Item = PageNum>) {
        self.free_frames.extend(frames);
    }

    /// Registers where a remote page is mapped locally (cluster setup), so
    /// alarm replication can find the vpage to remap.
    pub(crate) fn note_remote_mapping(&mut self, home: NodeId, page: PageNum, vpage: u64) {
        self.remote_vpage.insert((home, page), vpage);
    }

    /// Should an alarm on this page trigger replication?
    pub(crate) fn wants_replication(&self, node: NodeId, page: PageNum) -> bool {
        self.policy == ReplicatePolicy::OnAlarm
            && !self.replicated.contains_key(&(node, page))
            && self.remote_vpage.contains_key(&(node, page))
            && !self.free_frames.is_empty()
    }

    /// Kicks off replication of a hot remote page: fetch the page image
    /// with the hardware page-fetch stream.
    pub(crate) fn start_replication(&mut self, node: NodeId, page: PageNum) -> Vec<OsEffect> {
        if !self.wants_replication(node, page) {
            return Vec::new();
        }
        let vpage = self.remote_vpage[&(node, page)];
        let frame = self.free_frames.pop().expect("checked non-empty");
        let tag = REPL_TAG_BASE | self.next_repl_tag;
        self.next_repl_tag += 1;
        self.repl_pending.insert(
            tag,
            ReplPending {
                vpage,
                frame,
                node,
                page,
            },
        );
        // Mark replicated now so repeat alarms don't double-fetch.
        self.replicated.insert((node, page), frame);
        vec![OsEffect::SendMsg {
            dst: node,
            msg: WireMsg::PageFetchReq {
                page: page.raw(),
                tag,
            },
        }]
    }

    /// True if this PageData tag belongs to a replication fetch.
    pub(crate) fn is_replication_tag(&self, tag: u32) -> bool {
        tag & REPL_TAG_BASE != 0 && tag & crate::vsm::VSM_TAG_BASE == 0
    }

    /// Accepts a replication PageData burst.
    pub(crate) fn replication_data(
        &mut self,
        tag: u32,
        index: u32,
        vals: tg_wire::Payload,
        last: bool,
    ) -> Vec<OsEffect> {
        let Some(&pending) = self.repl_pending.get(&tag) else {
            return Vec::new();
        };
        let mut fx = vec![OsEffect::WriteBurst {
            frame: pending.frame,
            index,
            vals,
        }];
        if last {
            self.repl_pending.remove(&tag);
            fx.push(OsEffect::MapLocal {
                vpage: pending.vpage,
                frame: pending.frame,
                writable: true,
            });
            fx.push(OsEffect::DisarmCounters {
                node: pending.node,
                page: pending.page,
            });
        }
        fx
    }

    /// Accumulates a DMA burst; returns the total byte count when the
    /// message completes.
    pub(crate) fn accept_dma(&mut self, tag: u32, nbytes: u32, last: bool) -> Option<u64> {
        let buf = self.inbox.entry(tag).or_default();
        buf.bytes += u64::from(nbytes);
        if last {
            buf.complete = true;
            Some(buf.bytes)
        } else {
            None
        }
    }

    /// True if the pager manages this virtual page.
    pub(crate) fn pager_manages(&self, vpage: u64) -> bool {
        self.pager
            .as_ref()
            .map(|p| p.manages(vpage))
            .unwrap_or(false)
    }

    /// LRU touch for pager-managed pages (no-op without a pager).
    pub(crate) fn pager_touch(&mut self, vpage: u64) {
        if let Some(p) = self.pager.as_mut() {
            p.touch(vpage);
        }
    }

    /// Consumes a completed message, returning its size.
    pub(crate) fn take_message(&mut self, tag: u32) -> Option<u64> {
        match self.inbox.get(&tag) {
            Some(buf) if buf.complete => {
                let bytes = buf.bytes;
                self.inbox.remove(&tag);
                Some(bytes)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn os() -> Os {
        let mut os = Os::new(NodeId::new(0));
        os.set_policy(ReplicatePolicy::OnAlarm);
        os.grant_frames([PageNum::new(100), PageNum::new(101)]);
        os.note_remote_mapping(NodeId::new(1), PageNum::new(3), 0x20000);
        os
    }

    #[test]
    fn replication_flow() {
        let mut os = os();
        assert!(os.wants_replication(NodeId::new(1), PageNum::new(3)));
        let fx = os.start_replication(NodeId::new(1), PageNum::new(3));
        assert_eq!(fx.len(), 1);
        let tag = match &fx[0] {
            OsEffect::SendMsg {
                dst,
                msg: WireMsg::PageFetchReq { tag, page },
            } => {
                assert_eq!(*dst, NodeId::new(1));
                assert_eq!(*page, 3);
                *tag
            }
            other => panic!("unexpected {other:?}"),
        };
        assert!(os.is_replication_tag(tag));
        // Duplicate alarms are suppressed while (and after) fetching.
        assert!(!os.wants_replication(NodeId::new(1), PageNum::new(3)));

        let fx = os.replication_data(tag, 0, vec![1, 2].into(), false);
        assert_eq!(fx.len(), 1);
        let fx = os.replication_data(tag, 2, vec![3].into(), true);
        assert!(fx
            .iter()
            .any(|e| matches!(e, OsEffect::MapLocal { writable: true, .. })));
        assert!(fx
            .iter()
            .any(|e| matches!(e, OsEffect::DisarmCounters { .. })));
        assert_eq!(
            os.replicated
                .get(&(NodeId::new(1), PageNum::new(3)))
                .copied(),
            Some(PageNum::new(101))
        );
    }

    #[test]
    fn no_replication_without_policy() {
        let mut os = Os::new(NodeId::new(0));
        os.grant_frames([PageNum::new(9)]);
        os.note_remote_mapping(NodeId::new(1), PageNum::new(3), 0x20000);
        assert!(!os.wants_replication(NodeId::new(1), PageNum::new(3)));
        assert!(os
            .start_replication(NodeId::new(1), PageNum::new(3))
            .is_empty());
    }

    #[test]
    fn no_replication_without_frames() {
        let mut os = Os::new(NodeId::new(0));
        os.set_policy(ReplicatePolicy::OnAlarm);
        os.note_remote_mapping(NodeId::new(1), PageNum::new(3), 0x20000);
        assert!(!os.wants_replication(NodeId::new(1), PageNum::new(3)));
    }

    #[test]
    fn dma_inbox_assembles_messages() {
        let mut os = Os::new(NodeId::new(0));
        assert_eq!(os.accept_dma(7, 1024, false), None);
        assert_eq!(os.take_message(7), None, "incomplete");
        assert_eq!(os.accept_dma(7, 500, true), Some(1524));
        assert_eq!(os.take_message(7), Some(1524));
        assert_eq!(os.take_message(7), None, "consumed");
    }

    #[test]
    fn tag_namespaces_do_not_overlap() {
        let os = os();
        assert!(os.is_replication_tag(REPL_TAG_BASE | 5));
        assert!(!os.is_replication_tag(crate::vsm::VSM_TAG_BASE | 5));
        assert!(!os.is_replication_tag(5));
    }
}
