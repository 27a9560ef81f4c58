//! The replica server: sweep, admit, validate ownership, apply, fence,
//! ack.
//!
//! A server is a poll-style state machine on its replica node. Each
//! cycle it sweeps its mailbox page (local reads — clients deposited
//! requests with remote writes), admits up to `queue_cap` new requests
//! (shedding the rest with explicit `Busy` acks — admission control,
//! not silent drops), then processes the queue one request at a time:
//!
//! 1. **Ownership check** (split-brain guard): a *blocking remote read*
//!    of the directory word for the key's range. If the directory
//!    disagrees, ack `NotOwner`; if the directory is unreachable —
//!    which is exactly the situation of a crashed or partitioned
//!    replica that hasn't noticed yet — the request is *parked*, never
//!    committed. An isolated replica can therefore never acknowledge a
//!    write the rest of the cluster won't see.
//! 2. **Idempotence guard**: the per-client applied-request watermark
//!    (fast path), then the key's merged stamp across every replica's
//!    store copy (all local reads — eager updates keep the copies
//!    warm). Keys are single-writer and requests per client are
//!    monotonic, so `merged stamp >= req` identifies a duplicate
//!    exactly; duplicates are re-acked but never re-applied.
//! 3. **Apply + fence**: a fresh put writes the stamp into the server's
//!    own eager-mapped store page — the eager-update machinery fans the
//!    word out to the other replicas — and then issues a `Fence`, which
//!    blocks until every *live* replica acknowledged the update. Only
//!    then does the ack leave. This ordering is the durability
//!    invariant the campaign audits: an acknowledged write is already
//!    replicated on every live replica at ack time, so no single crash
//!    can lose it.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use telegraphos::{Action, Process, Resume, SharedPage};
use tg_proto::RangeMap;
use tg_sim::SimTime;
use tg_wire::NodeId;

use crate::config::KvConfig;
use crate::layout::{dec_req, enc_ack, AckCode, AckWord, OpKindKv, ReqWord};
use crate::service::{ApplyEvent, KvPagesLite, ServerLog};

/// The request being processed.
#[derive(Clone, Copy)]
struct Current {
    ci: u16,
    spec: ReqWord,
    stamp_max: u32,
}

enum SState {
    /// Reading mailbox slot `ci` during a sweep.
    Sweep { ci: u16 },
    /// Waiting out the posted `Busy` ack written while sweeping slot `ci`.
    ShedAck { ci: u16 },
    /// Re-reading the slot of the queue head (freshest attempt word).
    ReRead { ci: u16 },
    /// Waiting on the blocking directory read for `cur`.
    DirCheck,
    /// Merging store copies: waiting on the read of copy `i`.
    Merge { i: usize },
    /// Waiting out the fresh apply's store write.
    Apply,
    /// Waiting on the fence that makes the apply durable.
    FenceWait,
    /// Waiting out the posted ack for `cur` (then back to the queue).
    Ack,
    /// Sleeping `poll_every` between sweeps.
    Sleep,
}

/// One replica's server process. See the module docs for the protocol.
pub(crate) struct KvServer {
    me: u16,
    me_node: NodeId,
    clients: u16,
    queue_cap: usize,
    poll_every: SimTime,
    map: RangeMap,
    pages: KvPagesLite,
    /// Last slot word seen per client; a slot is new when it differs.
    last_slot: Vec<u64>,
    /// Per-client applied-request watermark (fast-path idempotence).
    applied_watermark: Vec<u32>,
    /// Admitted requests (client indexes), bounded by `queue_cap`.
    pending: VecDeque<u16>,
    in_pending: Vec<bool>,
    cur: Option<Current>,
    state: SState,
    log: Rc<RefCell<ServerLog>>,
    stop: Rc<Cell<bool>>,
}

impl KvServer {
    /// Builds the server for replica `me` (0-based index into the
    /// replica set).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        me: u16,
        cfg: &KvConfig,
        map: &RangeMap,
        mailboxes: &[SharedPage],
        acks: &[SharedPage],
        stores: &[SharedPage],
        dir: &SharedPage,
        log: Rc<RefCell<ServerLog>>,
        stop: Rc<Cell<bool>>,
    ) -> Self {
        KvServer {
            me,
            me_node: NodeId::new(1 + me),
            clients: cfg.clients,
            queue_cap: cfg.queue_cap,
            poll_every: cfg.poll_every,
            map: map.clone(),
            pages: KvPagesLite {
                mailboxes: mailboxes.to_vec(),
                acks: acks.to_vec(),
                stores: stores.to_vec(),
                dir: *dir,
            },
            last_slot: vec![0; cfg.clients as usize],
            applied_watermark: vec![0; cfg.clients as usize],
            pending: VecDeque::new(),
            in_pending: vec![false; cfg.clients as usize],
            cur: None,
            state: SState::Sleep,
            log,
            stop,
        }
    }

    fn my_mailbox(&self) -> &SharedPage {
        &self.pages.mailboxes[self.me as usize]
    }

    fn read_slot(&mut self, ci: u16) -> Action {
        Action::Read(self.my_mailbox().va(8 * u64::from(ci)))
    }

    fn post_ack(&mut self, ci: u16, ack: AckWord) -> Action {
        let page = self.pages.acks[ci as usize];
        Action::Write(page.va(8 * u64::from(self.me)), enc_ack(ack))
    }

    /// Next action after finishing slot `ci` of a sweep.
    fn sweep_next(&mut self, ci: u16) -> Action {
        let next = ci + 1;
        if next < self.clients {
            self.state = SState::Sweep { ci: next };
            self.read_slot(next)
        } else {
            self.queue_step()
        }
    }

    /// Pops the queue or goes back to sleep.
    fn queue_step(&mut self) -> Action {
        if let Some(ci) = self.pending.pop_front() {
            self.in_pending[ci as usize] = false;
            self.state = SState::ReRead { ci };
            return self.read_slot(ci);
        }
        if self.stop.get() {
            return Action::Halt;
        }
        self.state = SState::Sleep;
        Action::Compute(self.poll_every)
    }

    /// Finishes `cur` with an ack and returns to the queue.
    fn finish(&mut self, code: AckCode, stamp: u32) -> Action {
        let cur = self.cur.expect("finishing without a request");
        self.state = SState::Ack;
        self.post_ack(
            cur.ci,
            AckWord {
                req: cur.spec.req,
                code,
                attempt: cur.spec.attempt,
                stamp,
            },
        )
    }

    fn log_apply(&mut self, cur: Current, fresh: bool, at: SimTime) {
        self.log.borrow_mut().applies.push(ApplyEvent {
            server: self.me,
            client: cur.ci,
            req: cur.spec.req,
            key: cur.spec.key,
            fresh,
            at,
        });
    }
}

impl Process for KvServer {
    fn resume(&mut self, r: Resume) -> Action {
        self.resume_at(r, SimTime::ZERO)
    }

    fn resume_at(&mut self, r: Resume, now: SimTime) -> Action {
        match std::mem::replace(&mut self.state, SState::Sleep) {
            SState::Sleep => {
                // Start of life (Resume::Start) or end of a poll nap:
                // begin a sweep.
                if self.stop.get() && self.pending.is_empty() {
                    return Action::Halt;
                }
                self.log.borrow_mut().sweeps += 1;
                self.state = SState::Sweep { ci: 0 };
                self.read_slot(0)
            }
            SState::Sweep { ci } => {
                let word = match r {
                    Resume::Value(w) => w,
                    _ => 0,
                };
                let idx = ci as usize;
                if word != 0 && word != self.last_slot[idx] && !self.in_pending[idx] {
                    if self.pending.len() < self.queue_cap {
                        self.pending.push_back(ci);
                        self.in_pending[idx] = true;
                        // The slot word is consumed at ReRead time so the
                        // freshest attempt is the one processed.
                    } else {
                        // Admission control: shed with an explicit Busy.
                        self.last_slot[idx] = word;
                        if let Some(spec) = dec_req(word) {
                            self.log.borrow_mut().busy_acks += 1;
                            self.state = SState::ShedAck { ci };
                            return self.post_ack(
                                ci,
                                AckWord {
                                    req: spec.req,
                                    code: AckCode::Busy,
                                    attempt: spec.attempt,
                                    stamp: 0,
                                },
                            );
                        }
                    }
                }
                self.sweep_next(ci)
            }
            SState::ShedAck { ci } => self.sweep_next(ci),
            SState::ReRead { ci } => {
                let word = match r {
                    Resume::Value(w) => w,
                    _ => 0,
                };
                let idx = ci as usize;
                if word == 0 || word == self.last_slot[idx] {
                    return self.queue_step();
                }
                self.last_slot[idx] = word;
                let Some(spec) = dec_req(word) else {
                    return self.queue_step();
                };
                let range = self.map.range_of(u64::from(spec.key));
                self.cur = Some(Current {
                    ci,
                    spec,
                    stamp_max: 0,
                });
                self.state = SState::DirCheck;
                Action::Read(self.pages.dir.va(8 * u64::from(range)))
            }
            SState::DirCheck => match r {
                Resume::Value(owner_raw) => {
                    let cur = self.cur.expect("dir check without a request");
                    if owner_raw != u64::from(self.me_node.raw()) {
                        self.log.borrow_mut().not_owner_acks += 1;
                        return self.finish(AckCode::NotOwner, 0);
                    }
                    self.state = SState::Merge { i: 0 };
                    Action::Read(self.pages.stores[0].va(8 * u64::from(cur.spec.key)))
                }
                _ => {
                    // Directory unreachable: this replica may be the one
                    // that is cut off. Park — the client's retry will
                    // land wherever the directory says.
                    self.log.borrow_mut().parked += 1;
                    self.cur = None;
                    self.queue_step()
                }
            },
            SState::Merge { i } => {
                let mut cur = self.cur.expect("merge without a request");
                if let Resume::Value(stamp) = r {
                    cur.stamp_max = cur.stamp_max.max(stamp as u32);
                }
                let next = i + 1;
                if next < self.pages.stores.len() {
                    self.cur = Some(cur);
                    self.state = SState::Merge { i: next };
                    return Action::Read(self.pages.stores[next].va(8 * u64::from(cur.spec.key)));
                }
                self.cur = Some(cur);
                match cur.spec.op {
                    OpKindKv::Get => {
                        self.log.borrow_mut().gets_served += 1;
                        self.finish(AckCode::Ok, cur.stamp_max)
                    }
                    OpKindKv::Put => {
                        let watermark = self.applied_watermark[cur.ci as usize];
                        if cur.spec.req <= watermark || cur.stamp_max >= cur.spec.req {
                            // Idempotence guard: already applied (here or
                            // by a previous owner whose eager update we
                            // hold). Re-ack, never re-apply.
                            self.log.borrow_mut().dedup_hits += 1;
                            self.log_apply(cur, false, now);
                            return self.finish(AckCode::Ok, cur.spec.req);
                        }
                        self.state = SState::Apply;
                        Action::Write(
                            self.pages.stores[self.me as usize].va(8 * u64::from(cur.spec.key)),
                            u64::from(cur.spec.req),
                        )
                    }
                }
            }
            SState::Apply => {
                // The store word is written locally and fanning out to
                // the replica set; the fence makes it durable before the
                // ack can leave.
                self.state = SState::FenceWait;
                Action::Fence
            }
            SState::FenceWait => {
                let cur = self.cur.expect("fence without a request");
                let idx = cur.ci as usize;
                self.applied_watermark[idx] = self.applied_watermark[idx].max(cur.spec.req);
                self.log_apply(cur, true, now);
                self.finish(AckCode::Ok, cur.spec.req)
            }
            SState::Ack => {
                self.cur = None;
                self.queue_step()
            }
        }
    }
}
