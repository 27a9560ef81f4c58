//! The Virtual Shared Memory baseline (§2.1's "traditional systems").
//!
//! A Li–Hudak-style single-writer, multiple-reader invalidate protocol with
//! a fixed manager per page (the page's home node): read faults fetch a
//! copy from the current owner; write faults invalidate every copy and
//! migrate ownership. All of it runs in (simulated) OS software — page
//! faults, traps, whole-page transfers — which is precisely the overhead
//! Telegraphos hardware eliminates. Experiment E6 races this protocol
//! against the owner-serialized update hardware.
//!
//! The module is a pure state machine: the node feeds it faults,
//! `OsCtl` messages and [`PageTag::Vsm`] page streams, and executes the
//! returned [`OsEffect`]s (sends, page streams, mappings, page-data
//! writes, fault resumes and failures), charging the OS costs as it does.
//! It counts its own invalidations.

use std::collections::{BTreeSet, HashMap, VecDeque};

use tg_wire::{NodeId, PageNum, WireMsg};

use crate::os::{OsEffect, PageTag};

/// OS-control message kinds used by the protocol.
pub(crate) mod kind {
    /// Requester → manager: read fault on `a = gpage` by `b = node`.
    pub(crate) const READ_REQ: u16 = 0x10;
    /// Requester → manager: write fault.
    pub(crate) const WRITE_REQ: u16 = 0x11;
    /// Manager → owner: send the page to `b` and downgrade to read.
    pub(crate) const FWD_READ: u16 = 0x12;
    /// Manager → owner: send the page to `b` and invalidate yourself.
    pub(crate) const FWD_WRITE: u16 = 0x13;
    /// Manager → holder: invalidate `a = gpage`.
    pub(crate) const INV: u16 = 0x14;
    /// Holder → manager: invalidation done (`b = holder`).
    pub(crate) const INV_ACK: u16 = 0x15;
    /// Manager → requester: your (still valid) copy may be upgraded.
    pub(crate) const GRANT_WRITE: u16 = 0x16;
    /// Requester → manager: read mapping installed (`b = requester`).
    pub(crate) const DONE_READ: u16 = 0x17;
    /// Requester → manager: write mapping installed (`b = requester`).
    pub(crate) const DONE_WRITE: u16 = 0x18;
}

/// True for the VSM completion notices (`DONE_READ`, `DONE_WRITE`): the
/// node holds them back until the retried access has run.
pub(crate) fn is_done_notice(msg: &WireMsg) -> bool {
    matches!(
        msg,
        WireMsg::OsCtl {
            kind: kind::DONE_READ | kind::DONE_WRITE,
            ..
        }
    )
}

/// Access mode of a VSM page at one node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum VsmMode {
    /// Not mapped; any access faults.
    Invalid,
    /// Mapped read-only.
    Read,
    /// Mapped read-write (this node is the owner).
    Write,
}

#[derive(Clone, Copy, Debug)]
struct PageMeta {
    gpage: u64,
    home: NodeId,
    frame: PageNum,
}

#[derive(Clone, Copy, Debug)]
struct PageState {
    meta: PageMeta,
    mode: VsmMode,
    pending_write_fault: bool,
    faulted: bool,
}

#[derive(Clone, Debug)]
struct Pending {
    requester: NodeId,
    write: bool,
    /// Holders whose invalidation acks are still outstanding. A set (not
    /// a count) so crash recovery can strike a dead holder from the wait
    /// list without miscounting a late or lost ack.
    inv_waiting: BTreeSet<NodeId>,
    /// True when the page image must travel from the owner (the requester
    /// holds no current copy).
    needs_data: bool,
}

#[derive(Clone, Debug)]
struct Dir {
    owner: NodeId,
    copyset: BTreeSet<NodeId>,
    busy: Option<Pending>,
    queue: VecDeque<(NodeId, bool)>,
}

/// Per-node VSM state: page table of managed pages plus, at home nodes,
/// the manager directory.
#[derive(Debug)]
pub struct VsmNode {
    me: NodeId,
    pages: HashMap<u64, PageState>,
    by_gpage: HashMap<u64, u64>,
    dirs: HashMap<u64, Dir>,
    /// Peers currently convicted dead by the failure detector. Consulted
    /// when an invalidation round finishes: an op whose requester died
    /// mid-round is abandoned instead of granted.
    dead: BTreeSet<NodeId>,
    /// Mappings this node dropped to invalidation.
    pub(crate) invalidations: u64,
}

impl VsmNode {
    /// VSM state for node `me`.
    pub(crate) fn new(me: NodeId) -> Self {
        VsmNode {
            me,
            pages: HashMap::new(),
            by_gpage: HashMap::new(),
            dirs: HashMap::new(),
            dead: BTreeSet::new(),
            invalidations: 0,
        }
    }

    /// Registers a managed page at this node. The home node starts as the
    /// owner with a writable mapping; everyone else starts invalid.
    pub(crate) fn register(&mut self, gpage: u64, vpage: u64, home: NodeId, frame: PageNum) {
        let meta = PageMeta { gpage, home, frame };
        let mode = if home == self.me {
            VsmMode::Write
        } else {
            VsmMode::Invalid
        };
        self.pages.insert(
            vpage,
            PageState {
                meta,
                mode,
                pending_write_fault: false,
                faulted: false,
            },
        );
        self.by_gpage.insert(gpage, vpage);
        if home == self.me {
            self.dirs.insert(
                gpage,
                Dir {
                    owner: home,
                    copyset: BTreeSet::from([home]),
                    busy: None,
                    queue: VecDeque::new(),
                },
            );
        }
    }

    /// True if `vpage` is VSM-managed here.
    pub(crate) fn manages(&self, vpage: u64) -> bool {
        self.pages.contains_key(&vpage)
    }

    /// The local frame backing a managed page.
    pub fn frame(&self, vpage: u64) -> PageNum {
        self.pages[&vpage].meta.frame
    }

    /// Reports a fault on a managed page; returns the protocol actions.
    ///
    /// # Panics
    ///
    /// Panics if the page is not managed or a fault is already pending on
    /// it (the single CPU cannot fault twice).
    pub(crate) fn on_fault(&mut self, vpage: u64, write: bool) -> Vec<OsEffect> {
        let page = self.pages.get_mut(&vpage).expect("managed page");
        assert!(!page.faulted, "double fault on {vpage:#x}");
        page.faulted = true;
        page.pending_write_fault = write;
        let k = if write {
            kind::WRITE_REQ
        } else {
            kind::READ_REQ
        };
        vec![OsEffect::Send {
            dst: page.meta.home,
            msg: WireMsg::OsCtl {
                kind: k,
                a: page.meta.gpage,
                b: u64::from(self.me.raw()),
            },
        }]
    }

    /// Handles a protocol message: `OsCtl { kind: k, a: gpage, b }`.
    pub(crate) fn on_ctl(&mut self, k: u16, gpage: u64, b: u64) -> Vec<OsEffect> {
        let who = NodeId::new(b as u16);
        match k {
            kind::READ_REQ => self.mgr_request(gpage, who, false),
            kind::WRITE_REQ => self.mgr_request(gpage, who, true),
            kind::FWD_READ => {
                // We are the owner: stream the page and downgrade.
                let vpage = self.by_gpage[&gpage];
                let page = self.pages.get_mut(&vpage).expect("owner state");
                let frame = page.meta.frame;
                let mut fx = Vec::new();
                if page.mode == VsmMode::Write {
                    page.mode = VsmMode::Read;
                    fx.push(OsEffect::Map {
                        vpage,
                        frame,
                        writable: false,
                    });
                }
                fx.push(Self::send_page(who, gpage, frame));
                fx
            }
            kind::FWD_WRITE => {
                let vpage = self.by_gpage[&gpage];
                let frame = self.pages[&vpage].meta.frame;
                let mut fx = vec![Self::send_page(who, gpage, frame)];
                // After crash failover the home can be asked to serve from
                // a frame it never had mapped — only unmap a live mapping.
                fx.extend(self.invalidate(vpage));
                fx
            }
            kind::INV => {
                let vpage = self.by_gpage[&gpage];
                let home = self.pages[&vpage].meta.home;
                let mut fx: Vec<_> = self.invalidate(vpage).into_iter().collect();
                fx.push(OsEffect::Send {
                    dst: home,
                    msg: WireMsg::OsCtl {
                        kind: kind::INV_ACK,
                        a: gpage,
                        b: u64::from(self.me.raw()),
                    },
                });
                fx
            }
            kind::INV_ACK => self.mgr_inv_ack(gpage, who),
            kind::GRANT_WRITE => {
                let vpage = self.by_gpage[&gpage];
                self.complete_fault(vpage)
            }
            kind::DONE_READ => self.mgr_done(gpage, who, false),
            kind::DONE_WRITE => self.mgr_done(gpage, who, true),
            other => unreachable!("unknown VSM kind {other:#x}"),
        }
    }

    /// Streams our copy of `gpage` (in `frame`) to `dst`.
    fn send_page(dst: NodeId, gpage: u64, frame: PageNum) -> OsEffect {
        OsEffect::SendPage {
            dst,
            tag: PageTag::Vsm(gpage).encode(),
            frame,
        }
    }

    /// Drops this node's mapping of `vpage`, if it has one.
    fn invalidate(&mut self, vpage: u64) -> Option<OsEffect> {
        let page = self.pages.get_mut(&vpage).expect("managed page");
        if page.mode == VsmMode::Invalid {
            return None;
        }
        page.mode = VsmMode::Invalid;
        self.invalidations += 1;
        Some(OsEffect::Unmap { vpage })
    }

    /// Accepts a burst of the page stream for `gpage`; the last one
    /// completes the fault.
    pub(crate) fn on_page_data(
        &mut self,
        gpage: u64,
        index: u32,
        vals: tg_wire::Payload,
        last: bool,
    ) -> Vec<OsEffect> {
        let vpage = self.by_gpage[&gpage];
        let frame = self.pages[&vpage].meta.frame;
        let mut fx = vec![OsEffect::WriteBurst { frame, index, vals }];
        if last {
            fx.extend(self.complete_fault(vpage));
        }
        fx
    }

    /// Installs the mapping for a resolved fault and notifies the manager.
    fn complete_fault(&mut self, vpage: u64) -> Vec<OsEffect> {
        let page = self.pages.get_mut(&vpage).expect("faulted page");
        if !page.faulted {
            // A grant or page stream for a fault that crash cleanup
            // already failed (the manager was convicted dead while the
            // data was in flight): stale, ignore.
            return Vec::new();
        }
        page.faulted = false;
        let frame = page.meta.frame;
        let writable = page.pending_write_fault;
        let (mode, done_kind) = if writable {
            (VsmMode::Write, kind::DONE_WRITE)
        } else {
            (VsmMode::Read, kind::DONE_READ)
        };
        page.mode = mode;
        vec![
            OsEffect::Map {
                vpage,
                frame,
                writable,
            },
            OsEffect::Resume,
            OsEffect::Send {
                dst: page.meta.home,
                msg: WireMsg::OsCtl {
                    kind: done_kind,
                    a: page.meta.gpage,
                    b: u64::from(self.me.raw()),
                },
            },
        ]
    }

    // ---------------- manager side ----------------

    fn mgr_request(&mut self, gpage: u64, requester: NodeId, write: bool) -> Vec<OsEffect> {
        let dir = self.dirs.get_mut(&gpage).expect("we are the manager");
        if dir.busy.is_some() {
            dir.queue.push_back((requester, write));
            return Vec::new();
        }
        self.mgr_start(gpage, requester, write)
    }

    fn mgr_start(&mut self, gpage: u64, requester: NodeId, write: bool) -> Vec<OsEffect> {
        let dir = self.dirs.get_mut(&gpage).expect("manager directory");
        let owner = dir.owner;
        let mut fx = Vec::new();
        if write {
            // The owner is invalidated through FWD_WRITE when it must also
            // ship the data; otherwise it gets a plain INV like any holder.
            let needs_data = !dir.copyset.contains(&requester) && owner != requester;
            let inv_targets: Vec<NodeId> = dir
                .copyset
                .iter()
                .copied()
                .filter(|&n| n != requester && !(needs_data && n == owner))
                .collect();
            dir.busy = Some(Pending {
                requester,
                write,
                inv_waiting: inv_targets.iter().copied().collect(),
                needs_data,
            });
            for t in inv_targets {
                fx.push(OsEffect::Send {
                    dst: t,
                    msg: WireMsg::OsCtl {
                        kind: kind::INV,
                        a: gpage,
                        b: 0,
                    },
                });
            }
            if fx.is_empty() {
                // No invalidations outstanding: move straight to the data /
                // grant phase.
                fx.extend(self.mgr_data_phase(gpage));
            }
        } else {
            dir.busy = Some(Pending {
                requester,
                write,
                inv_waiting: BTreeSet::new(),
                needs_data: true,
            });
            fx.push(OsEffect::Send {
                dst: owner,
                msg: WireMsg::OsCtl {
                    kind: kind::FWD_READ,
                    a: gpage,
                    b: u64::from(requester.raw()),
                },
            });
        }
        fx
    }

    fn mgr_inv_ack(&mut self, gpage: u64, who: NodeId) -> Vec<OsEffect> {
        let dir = self.dirs.get_mut(&gpage).expect("manager directory");
        let Some(pending) = dir.busy.as_mut() else {
            // The op this ack answers was abandoned by crash cleanup.
            return Vec::new();
        };
        if !pending.inv_waiting.remove(&who) {
            // Stale or duplicate ack (idempotent retransmission).
            return Vec::new();
        }
        if pending.inv_waiting.is_empty() {
            self.mgr_after_invs(gpage)
        } else {
            Vec::new()
        }
    }

    /// The invalidation round just completed: grant the op — unless the
    /// requester was convicted dead while we were collecting acks, in
    /// which case abandon it and serve the next queued request.
    fn mgr_after_invs(&mut self, gpage: u64) -> Vec<OsEffect> {
        let requester = self.dirs[&gpage]
            .busy
            .as_ref()
            .expect("pending op")
            .requester;
        if self.dead.contains(&requester) {
            let dir = self.dirs.get_mut(&gpage).expect("manager directory");
            dir.busy = None;
            if let Some((next, w)) = dir.queue.pop_front() {
                return self.mgr_start(gpage, next, w);
            }
            return Vec::new();
        }
        self.mgr_data_phase(gpage)
    }

    /// Write-fault phase two: hand the data (or an upgrade grant) to the
    /// requester.
    fn mgr_data_phase(&mut self, gpage: u64) -> Vec<OsEffect> {
        let (requester, owner, needs_data) = {
            let dir = &self.dirs[&gpage];
            let pending = dir.busy.as_ref().expect("pending op");
            (pending.requester, dir.owner, pending.needs_data)
        };
        if needs_data {
            if owner == self.me && requester == self.me {
                // Crash failover re-homed ownership to us while our own
                // fault was in flight: the recovered image is already in
                // our frame — complete locally instead of streaming a
                // page to ourselves.
                let vpage = self.by_gpage[&gpage];
                return self.complete_fault(vpage);
            }
            vec![OsEffect::Send {
                dst: owner,
                msg: WireMsg::OsCtl {
                    kind: kind::FWD_WRITE,
                    a: gpage,
                    b: u64::from(requester.raw()),
                },
            }]
        } else {
            // Upgrade in place: the requester's copy is current.
            vec![OsEffect::Send {
                dst: requester,
                msg: WireMsg::OsCtl {
                    kind: kind::GRANT_WRITE,
                    a: gpage,
                    b: 0,
                },
            }]
        }
    }

    fn mgr_done(&mut self, gpage: u64, requester: NodeId, write: bool) -> Vec<OsEffect> {
        let dir = self.dirs.get_mut(&gpage).expect("manager directory");
        let Some(pending) = dir.busy.take() else {
            // A DONE racing crash-driven cleanup (the requester completed
            // its fault, then was convicted dead): nothing left to close.
            return Vec::new();
        };
        debug_assert_eq!(pending.requester, requester);
        debug_assert_eq!(pending.write, write);
        if write {
            dir.owner = requester;
            dir.copyset = BTreeSet::from([requester]);
        } else {
            dir.copyset.insert(requester);
        }
        if let Some((next, w)) = dir.queue.pop_front() {
            self.mgr_start(gpage, next, w)
        } else {
            Vec::new()
        }
    }

    // ---------------- crash-stop fault domain ----------------

    /// The home (manager) node of a managed page.
    pub(crate) fn home(&self, vpage: u64) -> NodeId {
        self.pages[&vpage].meta.home
    }

    /// Fails a fault *before* it is issued: the page's home is already
    /// convicted dead, so sending the request would only hang until the
    /// request timeout. Returns the [`OsEffect::FailFault`] for the node
    /// to release the thread with.
    pub(crate) fn fail_fast_fault(&mut self, vpage: u64) -> Vec<OsEffect> {
        let page = self.pages.get_mut(&vpage).expect("managed page");
        debug_assert!(!page.faulted, "fail-fast on an in-flight fault");
        let peer = page.meta.home;
        vec![OsEffect::FailFault { vpage, peer }]
    }

    /// Crash-stop conviction of `peer`: prune it from every structure.
    ///
    /// Manager side (pages homed here): the dead node leaves all
    /// copysets, request queues, and invalidation wait-sets. If it owned
    /// a page, ownership migrates to a deterministic successor — the home
    /// node when its copy is current (or no copies survive at all), else
    /// the smallest-id surviving holder, so survivors never read an image
    /// older than one they already hold — and any fault the dead node was
    /// serving is re-driven against the successor. Holder side (pages
    /// homed at the dead node): faults in flight to the dead manager can
    /// never complete and fail with [`OsEffect::FailFault`].
    ///
    /// Crash-stop loses the dead owner's unreflected writes: recovery
    /// re-serves the newest image a survivor holds. That is the
    /// documented fault-model semantics, not silent corruption.
    pub(crate) fn on_peer_down(&mut self, peer: NodeId) -> Vec<OsEffect> {
        if peer == self.me {
            return Vec::new();
        }
        self.dead.insert(peer);
        let mut fx = Vec::new();
        let mut gpages: Vec<u64> = self.dirs.keys().copied().collect();
        gpages.sort_unstable();
        for gpage in gpages {
            fx.extend(self.mgr_peer_down(gpage, peer));
        }
        let mut vpages: Vec<u64> = self
            .pages
            .iter()
            .filter(|(_, p)| p.meta.home == peer && p.faulted)
            .map(|(&v, _)| v)
            .collect();
        vpages.sort_unstable();
        for vpage in vpages {
            let page = self.pages.get_mut(&vpage).expect("managed page");
            page.faulted = false;
            page.pending_write_fault = false;
            fx.push(OsEffect::FailFault { vpage, peer });
        }
        fx
    }

    /// A convicted peer is reachable again (crash-stop restart). The
    /// restarted node lost its volatile state — its directories rebuild
    /// through its own symmetric convictions during the blackout (it saw
    /// *us* die, which re-homed every page it manages) — so every copy we
    /// hold of a page it manages is stale relative to that rebuilt
    /// directory: invalidate locally and let the next access refault.
    /// Copies of pages the restarted node merely *held* are untouched;
    /// conviction already pruned it from those copysets.
    pub(crate) fn on_peer_up(&mut self, peer: NodeId) -> Vec<OsEffect> {
        if peer == self.me {
            return Vec::new();
        }
        self.dead.remove(&peer);
        let mut vpages: Vec<u64> = self
            .pages
            .iter()
            .filter(|(_, p)| p.meta.home == peer)
            .map(|(&v, _)| v)
            .collect();
        vpages.sort_unstable();
        vpages
            .into_iter()
            .filter_map(|vpage| self.invalidate(vpage))
            .collect()
    }

    fn mgr_peer_down(&mut self, gpage: u64, peer: NodeId) -> Vec<OsEffect> {
        let me = self.me;
        let (redrive, abandoned, claim) = {
            let dir = self.dirs.get_mut(&gpage).expect("manager directory");
            dir.copyset.remove(&peer);
            dir.queue.retain(|&(n, _)| n != peer);
            let owner_died = dir.owner == peer;
            if owner_died {
                dir.owner = if dir.copyset.is_empty() || dir.copyset.contains(&me) {
                    me
                } else {
                    *dir.copyset.iter().next().expect("non-empty copyset")
                };
                if dir.copyset.is_empty() {
                    dir.copyset.insert(me);
                }
            }
            let mut redrive = false;
            let mut abandoned = false;
            match dir.busy.as_mut() {
                Some(p)
                    if p.requester == peer
                    // The faulting node itself died. With acks still
                    // outstanding the op stays open so late INV_ACKs
                    // drain against it — `mgr_after_invs` then abandons
                    // it (the requester is in the dead set). With nothing
                    // outstanding, abandon now.
                    && p.inv_waiting.is_empty() =>
                {
                    dir.busy = None;
                    abandoned = true;
                }
                Some(p) => {
                    let was_waiting = p.inv_waiting.remove(&peer);
                    let unblocked = was_waiting && p.inv_waiting.is_empty();
                    // Re-drive the grant if the dead peer was the last
                    // straggler we were waiting on, or if it was the
                    // owner an already-issued forward targeted (that
                    // forward died with it).
                    redrive =
                        p.inv_waiting.is_empty() && (unblocked || (owner_died && p.needs_data));
                }
                None => {}
            }
            let claim = owner_died
                && dir.owner == me
                && dir.busy.is_none()
                && dir.copyset.len() == 1
                && dir.copyset.contains(&me);
            (redrive, abandoned, claim)
        };
        let mut fx = Vec::new();
        if claim {
            // Quiescent failover with no surviving copies elsewhere: the
            // home's frame becomes the authoritative image again.
            let vpage = self.by_gpage[&gpage];
            let page = self.pages.get_mut(&vpage).expect("home page state");
            if !page.faulted && page.mode != VsmMode::Write {
                page.mode = VsmMode::Write;
                fx.push(OsEffect::Map {
                    vpage,
                    frame: page.meta.frame,
                    writable: true,
                });
            }
        }
        if redrive {
            fx.extend(self.mgr_reissue(gpage));
        }
        if abandoned {
            let dir = self.dirs.get_mut(&gpage).expect("manager directory");
            if let Some((next, w)) = dir.queue.pop_front() {
                fx.extend(self.mgr_start(gpage, next, w));
            }
        }
        fx
    }

    /// Re-issues the in-progress op's data/grant phase after crash
    /// failover re-pointed `dir.owner` (the original forward died with
    /// the old owner).
    fn mgr_reissue(&mut self, gpage: u64) -> Vec<OsEffect> {
        let (write, requester, owner) = {
            let dir = &self.dirs[&gpage];
            let p = dir.busy.as_ref().expect("pending op");
            (p.write, p.requester, dir.owner)
        };
        if write {
            return self.mgr_data_phase(gpage);
        }
        if owner == self.me && requester == self.me {
            // Our own read fault, now self-served from the home frame.
            let vpage = self.by_gpage[&gpage];
            return self.complete_fault(vpage);
        }
        vec![OsEffect::Send {
            dst: owner,
            msg: WireMsg::OsCtl {
                kind: kind::FWD_READ,
                a: gpage,
                b: u64::from(requester.raw()),
            },
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GP: u64 = 3;
    const VP: u64 = 0x4000_0000 >> 13;

    fn setup(n: u16, home: u16) -> Vec<VsmNode> {
        (0..n)
            .map(|i| {
                let mut v = VsmNode::new(NodeId::new(i));
                v.register(GP, VP, NodeId::new(home), PageNum::new(5));
                v
            })
            .collect()
    }

    /// Delivers one `OsCtl` message to `node`.
    fn deliver(node: &mut VsmNode, msg: &WireMsg) -> Vec<OsEffect> {
        match *msg {
            WireMsg::OsCtl { kind: k, a, b } => node.on_ctl(k, a, b),
            ref other => panic!("not a VSM message: {other:?}"),
        }
    }

    /// Message pump: applies effects, delivering Send/SendPage across the
    /// node array (data as a single burst), collecting node-local effects.
    fn pump(nodes: &mut [VsmNode], fx: Vec<(usize, OsEffect)>) -> Vec<(usize, OsEffect)> {
        let mut local = Vec::new();
        let mut queue: VecDeque<(usize, OsEffect)> = fx.into();
        while let Some((at, eff)) = queue.pop_front() {
            match eff {
                OsEffect::Send { dst, msg } => {
                    let out = deliver(&mut nodes[dst.index()], &msg);
                    queue.extend(out.into_iter().map(|e| (dst.index(), e)));
                }
                OsEffect::SendPage { dst, tag, .. } => {
                    let Some(PageTag::Vsm(gpage)) = PageTag::decode(tag) else {
                        panic!("not a VSM page stream: {tag:#x}");
                    };
                    let out = nodes[dst.index()].on_page_data(gpage, 0, vec![0; 4].into(), true);
                    queue.extend(out.into_iter().map(|e| (dst.index(), e)));
                }
                other => local.push((at, other)),
            }
        }
        local
    }

    #[test]
    fn initial_modes() {
        let nodes = setup(3, 0);
        assert_eq!(nodes[0].pages[&VP].mode, VsmMode::Write);
        assert_eq!(nodes[1].pages[&VP].mode, VsmMode::Invalid);
        assert!(nodes[0].manages(VP));
    }

    #[test]
    fn read_fault_fetches_and_downgrades_owner() {
        let mut nodes = setup(3, 0);
        let fx: Vec<_> = nodes[1]
            .on_fault(VP, false)
            .into_iter()
            .map(|e| (1usize, e))
            .collect();
        let local = pump(&mut nodes, fx);
        assert_eq!(nodes[1].pages[&VP].mode, VsmMode::Read);
        assert_eq!(nodes[0].pages[&VP].mode, VsmMode::Read, "owner downgraded");
        assert!(local
            .iter()
            .any(|(n, e)| *n == 1 && matches!(e, OsEffect::Resume)));
        assert!(local.iter().any(|(n, e)| *n == 1
            && matches!(
                e,
                OsEffect::Map {
                    writable: false,
                    ..
                }
            )));
    }

    #[test]
    fn write_fault_invalidates_readers_and_migrates() {
        let mut nodes = setup(3, 0);
        // Node 1 and 2 read first.
        for reader in [1usize, 2] {
            let fx: Vec<_> = nodes[reader]
                .on_fault(VP, false)
                .into_iter()
                .map(|e| (reader, e))
                .collect();
            pump(&mut nodes, fx);
        }
        // Node 2 writes.
        let fx: Vec<_> = nodes[2]
            .on_fault(VP, true)
            .into_iter()
            .map(|e| (2usize, e))
            .collect();
        let local = pump(&mut nodes, fx);
        assert_eq!(nodes[2].pages[&VP].mode, VsmMode::Write);
        assert_eq!(
            nodes[1].pages[&VP].mode,
            VsmMode::Invalid,
            "reader invalidated"
        );
        assert_eq!(
            nodes[0].pages[&VP].mode,
            VsmMode::Invalid,
            "old owner invalidated"
        );
        assert!(local
            .iter()
            .any(|(n, e)| *n == 1 && matches!(e, OsEffect::Unmap { .. })));
        let invalidations: Vec<u64> = nodes.iter().map(|n| n.invalidations).collect();
        assert_eq!(invalidations, [1, 1, 0], "each reader counts its own unmap");
        // Writer got an upgrade grant (it held a copy): mapped write.
        assert!(local
            .iter()
            .any(|(n, e)| *n == 2 && matches!(e, OsEffect::Map { writable: true, .. })));
    }

    #[test]
    fn home_refaults_after_migration() {
        let mut nodes = setup(2, 0);
        // Node 1 takes ownership.
        let fx: Vec<_> = nodes[1]
            .on_fault(VP, true)
            .into_iter()
            .map(|e| (1usize, e))
            .collect();
        pump(&mut nodes, fx);
        assert_eq!(nodes[0].pages[&VP].mode, VsmMode::Invalid);
        assert_eq!(nodes[1].pages[&VP].mode, VsmMode::Write);
        // Home reads back: owner 1 serves and downgrades.
        let fx: Vec<_> = nodes[0]
            .on_fault(VP, false)
            .into_iter()
            .map(|e| (0usize, e))
            .collect();
        pump(&mut nodes, fx);
        assert_eq!(nodes[0].pages[&VP].mode, VsmMode::Read);
        assert_eq!(nodes[1].pages[&VP].mode, VsmMode::Read);
    }

    #[test]
    fn owner_death_fails_over_to_home() {
        let mut nodes = setup(3, 0);
        // Node 1 takes ownership.
        let fx: Vec<_> = nodes[1]
            .on_fault(VP, true)
            .into_iter()
            .map(|e| (1usize, e))
            .collect();
        pump(&mut nodes, fx);
        assert_eq!(nodes[0].pages[&VP].mode, VsmMode::Invalid);
        // Node 1 crashes: no surviving copies, so the home reclaims the
        // page writable from its own frame.
        let fx = nodes[0].on_peer_down(NodeId::new(1));
        assert!(fx
            .iter()
            .any(|e| matches!(e, OsEffect::Map { vpage, writable: true, .. } if *vpage == VP)));
        assert_eq!(nodes[0].pages[&VP].mode, VsmMode::Write);
        // A survivor's read fault is now served by the home again.
        let fx: Vec<_> = nodes[2]
            .on_fault(VP, false)
            .into_iter()
            .map(|e| (2usize, e))
            .collect();
        pump(&mut nodes, fx);
        assert_eq!(nodes[2].pages[&VP].mode, VsmMode::Read);
    }

    #[test]
    fn owner_death_prefers_surviving_copy_holder() {
        let mut nodes = setup(3, 0);
        // Node 1 writes (owner), node 2 reads a copy: copyset {1, 2},
        // home's frame is stale.
        let fx: Vec<_> = nodes[1]
            .on_fault(VP, true)
            .into_iter()
            .map(|e| (1usize, e))
            .collect();
        pump(&mut nodes, fx);
        let fx: Vec<_> = nodes[2]
            .on_fault(VP, false)
            .into_iter()
            .map(|e| (2usize, e))
            .collect();
        pump(&mut nodes, fx);
        // Owner 1 dies. Node 2 still holds a current copy while the home
        // does not, so node 2 — not the home — becomes the owner.
        let fx = nodes[0].on_peer_down(NodeId::new(1));
        assert!(
            fx.is_empty(),
            "no local remap: a surviving holder serves, got {fx:?}"
        );
        assert_eq!(
            nodes[0].pages[&VP].mode,
            VsmMode::Invalid,
            "home stays invalid"
        );
        // The home's own read fault is served by node 2.
        let fx: Vec<_> = nodes[0]
            .on_fault(VP, false)
            .into_iter()
            .map(|e| (0usize, e))
            .collect();
        pump(&mut nodes, fx);
        assert_eq!(nodes[0].pages[&VP].mode, VsmMode::Read);
    }

    #[test]
    fn fault_to_dead_home_fails_structurally() {
        let mut nodes = setup(2, 0);
        // Node 1 faults toward home 0, whose crash is then convicted
        // before any reply: the fault must fail, not hang.
        let fx = nodes[1].on_fault(VP, false);
        assert_eq!(fx.len(), 1, "request sent into the void");
        let fx = nodes[1].on_peer_down(NodeId::new(0));
        assert!(fx
            .iter()
            .any(|e| matches!(e, OsEffect::FailFault { vpage, peer }
                    if *vpage == VP && *peer == NodeId::new(0))));
        // The slot is free again: a later fault (after restart) is legal.
        let _ = nodes[1].on_peer_up(NodeId::new(0));
        let fx = nodes[1].on_fault(VP, false);
        assert_eq!(fx.len(), 1);
    }

    #[test]
    fn requester_death_mid_invalidation_abandons_the_op() {
        let mut nodes = setup(3, 0);
        // Nodes 1 and 2 hold read copies.
        for reader in [1usize, 2] {
            let fx: Vec<_> = nodes[reader]
                .on_fault(VP, false)
                .into_iter()
                .map(|e| (reader, e))
                .collect();
            pump(&mut nodes, fx);
        }
        // Node 1 write-faults: the manager invalidates holders 0 and 2.
        let reqs = nodes[1].on_fault(VP, true);
        let mut invs = Vec::new();
        for eff in reqs {
            if let OsEffect::Send { msg, .. } = eff {
                invs.extend(deliver(&mut nodes[0], &msg));
            }
        }
        assert_eq!(invs.len(), 2, "INVs to holders 0 and 2");
        // Deliver the manager's own INV (loopback) and its ack: only
        // holder 2's ack remains outstanding.
        let mut acks = Vec::new();
        for eff in invs {
            if let OsEffect::Send { dst, msg } = eff {
                if dst == NodeId::new(0) {
                    acks.extend(deliver(&mut nodes[0], &msg));
                }
            }
        }
        for eff in acks {
            if let OsEffect::Send { msg, .. } = eff {
                let fx = deliver(&mut nodes[0], &msg);
                assert!(fx.is_empty(), "still waiting on holder 2");
            }
        }
        // Requester 1 dies before holder 2's ack returns.
        let fx = nodes[0].on_peer_down(NodeId::new(1));
        assert!(fx.is_empty(), "op stays open for the straggler acks");
        // Holder 2's ack now closes the round; the op is abandoned (no
        // grant toward the dead requester) and nothing is queued.
        let ack = WireMsg::OsCtl {
            kind: kind::INV_ACK,
            a: GP,
            b: 2,
        };
        let fx = deliver(&mut nodes[0], &ack);
        assert!(fx.is_empty(), "abandoned, no grant: {fx:?}");
        // The manager is free to serve a survivor immediately.
        let fx: Vec<_> = nodes[2]
            .on_fault(VP, true)
            .into_iter()
            .map(|e| (2usize, e))
            .collect();
        pump(&mut nodes, fx);
        assert_eq!(nodes[2].pages[&VP].mode, VsmMode::Write);
    }

    #[test]
    fn owner_death_redrives_an_in_flight_read_fault() {
        let mut nodes = setup(3, 0);
        // Node 1 takes ownership, then node 2's read fault is forwarded
        // to it — and node 1 dies with the forward in flight.
        let fx: Vec<_> = nodes[1]
            .on_fault(VP, true)
            .into_iter()
            .map(|e| (1usize, e))
            .collect();
        pump(&mut nodes, fx);
        let reqs = nodes[2].on_fault(VP, false);
        for eff in reqs {
            if let OsEffect::Send { msg, .. } = eff {
                // Manager 0 forwards to owner 1; drop the forward (crash).
                let _ = deliver(&mut nodes[0], &msg);
            }
        }
        // Conviction re-points the owner and re-issues the forward; with
        // no surviving copies the home self-serves from its frame.
        let fx: Vec<_> = nodes[0]
            .on_peer_down(NodeId::new(1))
            .into_iter()
            .map(|e| (0usize, e))
            .collect();
        pump(&mut nodes, fx);
        assert_eq!(nodes[2].pages[&VP].mode, VsmMode::Read, "fault completed");
    }
}
