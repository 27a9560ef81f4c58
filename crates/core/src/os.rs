//! The per-node operating-system layer.
//!
//! Three OS protocols share it: the Li–Hudak VSM baseline ([`VsmNode`],
//! §2.1), alarm-driven page replication (§2.2.6: "alarm-based
//! replication"), kept here in [`Os`], and remote-memory paging
//! ([`RemotePager`], ref \[21\]). Each is a pure state machine that
//! answers a fault, a message or an interrupt with a list of
//! [`OsEffect`]s; the node executes them in order with one applier and
//! charges the OS costs as it does. Page images travel as `PageData`
//! streams whose tag says which protocol they feed ([`PageTag`]). [`Os`]
//! also holds the message-passing baseline's inbox.

use std::collections::{HashMap, HashSet};

use tg_wire::{NodeId, PageNum, WireMsg};

use crate::pager::RemotePager;
use crate::vsm::VsmNode;

/// Deferred-OS-work task codes (scheduled as `ClusterEvent::OsTask`).
pub(crate) mod task {
    /// VSM fault processing after the trap entry (`a` = vpage, `b` = write).
    pub(crate) const VSM_FAULT: u16 = 0x100;
    /// Retry the faulted action after mapping.
    pub(crate) const VSM_RETRY: u16 = 0x101;
    /// Start alarm-driven replication (`a` = the page's window vpage,
    /// `b` = home node `<< 32` | page).
    pub(crate) const REPLICATE: u16 = 0x102;
    /// Pager fault processing after the trap entry (`a` = vpage).
    pub(crate) const PAGER_FAULT: u16 = 0x103;
    /// A disk page transfer finished (`a` = vpage).
    pub(crate) const PAGER_DISK_DONE: u16 = 0x104;
}

const VSM_TAG: u32 = 0x8000_0000;
const REPLICA_TAG: u32 = 0x4000_0000;
const FETCH_TAG: u32 = 0x2000_0000;
const PUSH_TAG: u32 = 0x1000_0000;

/// The stream a `PageData` tag names. The top four tag bits say which
/// protocol it feeds, the highest set bit winning; the bits below it are
/// the key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PageTag {
    /// A VSM page image for global page `gpage`.
    Vsm(u64),
    /// Alarm-replication fetch number `n`.
    Replica(u32),
    /// A pager fetch of virtual page `vpage`.
    Fetch(u64),
    /// A pager eviction into this frame of the memory server's segment.
    Push(PageNum),
}

impl PageTag {
    /// The wire tag.
    pub(crate) fn encode(self) -> u32 {
        match self {
            PageTag::Vsm(gpage) => VSM_TAG | gpage as u32,
            PageTag::Replica(n) => REPLICA_TAG | n,
            PageTag::Fetch(vpage) => FETCH_TAG | vpage as u32,
            PageTag::Push(frame) => PUSH_TAG | frame.raw(),
        }
    }

    /// The stream a wire tag names, if any.
    pub(crate) fn decode(tag: u32) -> Option<Self> {
        Some(if tag & VSM_TAG != 0 {
            PageTag::Vsm(u64::from(tag & !VSM_TAG))
        } else if tag & REPLICA_TAG != 0 {
            PageTag::Replica(tag & !REPLICA_TAG)
        } else if tag & FETCH_TAG != 0 {
            PageTag::Fetch(u64::from(tag & !FETCH_TAG))
        } else if tag & PUSH_TAG != 0 {
            PageTag::Push(PageNum::new(tag & !PUSH_TAG))
        } else {
            return None;
        })
    }
}

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

/// What an OS protocol asks its node to do, in order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum OsEffect {
    /// Send an OS message through the HIB, or loop it back if `dst` is
    /// this node.
    Send {
        /// Destination node.
        dst: NodeId,
        /// The message.
        msg: WireMsg,
    },
    /// Stream the local `frame` to `dst` as `PageData` bursts tagged
    /// `tag`.
    SendPage {
        /// Destination node.
        dst: NodeId,
        /// The stream's tag ([`PageTag::encode`]).
        tag: u32,
        /// Local frame holding the page.
        frame: PageNum,
    },
    /// Write an arriving burst of page data into a local frame.
    WriteBurst {
        /// Local frame.
        frame: PageNum,
        /// Word index within the page.
        index: u32,
        /// The words.
        vals: tg_wire::Payload,
    },
    /// Map `vpage` to a local frame.
    Map {
        /// Virtual page.
        vpage: u64,
        /// Local frame.
        frame: PageNum,
        /// Writable mapping?
        writable: bool,
    },
    /// Remove the mapping of `vpage`.
    Unmap {
        /// Virtual page.
        vpage: u64,
    },
    /// Stop counting accesses to a remote page (it is now local).
    DisarmCounters {
        /// Home node of the page.
        node: NodeId,
        /// Page number at the home.
        page: PageNum,
    },
    /// Wait out a disk page transfer, then hand `vpage` back to the
    /// pager.
    DiskWait {
        /// The faulted virtual page.
        vpage: u64,
    },
    /// The fault is resolved: charge the map and trap-return costs, then
    /// retry the faulted access.
    Resume,
    /// The in-flight fault on `vpage` can never complete, because `peer`
    /// (its VSM manager or memory server) was convicted dead: release the
    /// faulted thread with a structured failure.
    FailFault {
        /// Virtual page.
        vpage: u64,
        /// The dead peer the fault depended on.
        peer: NodeId,
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
    /// Replications in flight, by fetch number ([`PageTag::Replica`]).
    repl_pending: HashMap<u32, ReplPending>,
    /// Pages already replicated (suppress duplicate alarms).
    replicated: HashSet<(NodeId, PageNum)>,
    next_replica: u32,
    /// Replications completed (mapped locally).
    pub(crate) replications: u64,
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
            repl_pending: HashMap::new(),
            replicated: HashSet::new(),
            next_replica: 0,
            replications: 0,
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

    /// Should an alarm on this remote page trigger replication? The node
    /// asks only for pages its address map reaches remotely.
    pub(crate) fn wants_replication(&self, node: NodeId, page: PageNum) -> bool {
        self.policy == ReplicatePolicy::OnAlarm
            && !self.replicated.contains(&(node, page))
            && !self.free_frames.is_empty()
    }

    /// Kicks off replication of a hot remote page, mapped here at
    /// `vpage`: fetch the page image with the hardware page-fetch stream.
    pub(crate) fn start_replication(
        &mut self,
        node: NodeId,
        page: PageNum,
        vpage: u64,
    ) -> Vec<OsEffect> {
        if !self.wants_replication(node, page) {
            return Vec::new();
        }
        let frame = self.free_frames.pop().expect("checked non-empty");
        let n = self.next_replica;
        self.next_replica += 1;
        self.repl_pending.insert(
            n,
            ReplPending {
                vpage,
                frame,
                node,
                page,
            },
        );
        // Mark replicated now so repeat alarms don't double-fetch.
        self.replicated.insert((node, page));
        vec![OsEffect::Send {
            dst: node,
            msg: WireMsg::PageFetchReq {
                page: page.raw(),
                tag: PageTag::Replica(n).encode(),
            },
        }]
    }

    /// Accepts a burst of replication fetch `n`; the last one maps the
    /// local copy and disarms the page's access counters.
    pub(crate) fn replication_data(
        &mut self,
        n: u32,
        index: u32,
        vals: tg_wire::Payload,
        last: bool,
    ) -> Vec<OsEffect> {
        let Some(&pending) = self.repl_pending.get(&n) else {
            return Vec::new();
        };
        let mut fx = vec![OsEffect::WriteBurst {
            frame: pending.frame,
            index,
            vals,
        }];
        if last {
            self.repl_pending.remove(&n);
            self.replications += 1;
            fx.push(OsEffect::Map {
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
        os
    }

    #[test]
    fn replication_flow() {
        let mut os = os();
        assert!(os.wants_replication(NodeId::new(1), PageNum::new(3)));
        let fx = os.start_replication(NodeId::new(1), PageNum::new(3), 0x20000);
        assert_eq!(fx.len(), 1);
        let tag = match &fx[0] {
            OsEffect::Send {
                dst,
                msg: WireMsg::PageFetchReq { tag, page },
            } => {
                assert_eq!(*dst, NodeId::new(1));
                assert_eq!(*page, 3);
                *tag
            }
            other => panic!("unexpected {other:?}"),
        };
        let Some(PageTag::Replica(n)) = PageTag::decode(tag) else {
            panic!("not a replication tag: {tag:#x}");
        };
        // Duplicate alarms are suppressed while (and after) fetching.
        assert!(!os.wants_replication(NodeId::new(1), PageNum::new(3)));

        let fx = os.replication_data(n, 0, vec![1, 2].into(), false);
        assert_eq!(fx.len(), 1);
        assert_eq!(os.replications, 0);
        let fx = os.replication_data(n, 2, vec![3].into(), true);
        assert!(fx.contains(&OsEffect::Map {
            vpage: 0x20000,
            frame: PageNum::new(101),
            writable: true
        }));
        assert!(fx
            .iter()
            .any(|e| matches!(e, OsEffect::DisarmCounters { .. })));
        assert_eq!(os.replications, 1);
        // A burst after the fetch completed is stale.
        assert!(os.replication_data(n, 0, vec![1].into(), true).is_empty());
    }

    #[test]
    fn no_replication_without_policy() {
        let mut os = Os::new(NodeId::new(0));
        os.grant_frames([PageNum::new(9)]);
        assert!(!os.wants_replication(NodeId::new(1), PageNum::new(3)));
        assert!(os
            .start_replication(NodeId::new(1), PageNum::new(3), 0x20000)
            .is_empty());
    }

    #[test]
    fn no_replication_without_frames() {
        let mut os = Os::new(NodeId::new(0));
        os.set_policy(ReplicatePolicy::OnAlarm);
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
    fn page_tags_keep_their_wire_values() {
        let tags = [
            (PageTag::Vsm(7), 0x8000_0007),
            (PageTag::Replica(7), 0x4000_0007),
            (PageTag::Fetch(7), 0x2000_0007),
            (PageTag::Push(PageNum::new(7)), 0x1000_0007),
        ];
        for (stream, wire) in tags {
            assert_eq!(stream.encode(), wire);
            assert_eq!(PageTag::decode(wire), Some(stream));
        }
        assert_eq!(PageTag::decode(7), None);
        // The highest protocol bit wins; the bits below it are the key.
        assert_eq!(
            PageTag::decode(0xC000_0005),
            Some(PageTag::Vsm(0x4000_0005))
        );
        assert_eq!(
            PageTag::decode(0x6000_0005),
            Some(PageTag::Replica(0x2000_0005))
        );
        assert_eq!(
            PageTag::decode(0x3000_0005),
            Some(PageTag::Fetch(0x1000_0005))
        );
    }
}
