//! The client: open-loop load, adaptive timeouts, retries, failover.
//!
//! Each client precomputes a heavy-tailed open-loop request schedule
//! (inter-arrival gaps are `arrival_gap << k` with `P(k) = 2^-(k+1)`,
//! capped — a power-of-two Pareto approximation that needs no floating
//! point) and then works it one request at a time:
//!
//! - **Send**: the request is a single posted remote write into its
//!   slot of the target replica's mailbox. Posted writes carry no
//!   failure signal (a crashed destination swallows them silently), so
//!   the client supervises itself with a deadline.
//! - **Ack poll**: replicas answer with a posted write into the
//!   client's own ack page; the client polls it with cheap local reads.
//! - **Adaptive timeout**: the deadline is a Jacobson/Karn estimator in
//!   integer picoseconds — `srtt`/`rttvar` EWMAs from un-retransmitted
//!   requests only, `rto = clamp(srtt + 4·rttvar)`, doubled per retry.
//! - **Fail-fast retries**: a retransmission is preceded by a *blocking*
//!   read of the mailbox slot. Blocking reads do carry a failure
//!   signal ([`Resume::Failed`]) once the HIB convicts the peer, so a
//!   retry against a crashed replica re-routes in one step instead of
//!   burning the whole timeout ladder.
//! - **Failover**: `retries_per_target` timeouts (or one failed probe)
//!   convict the target locally; the client promotes the smallest-id
//!   live replica, publishes the change in the directory (fetch-add
//!   the range's epoch, fetch-store the owner word — the remote atomics
//!   arbitrate racing clients), and resends. Suspicion is sticky: a
//!   convicted replica is never re-used by this client, which is what
//!   makes the one-fault campaign scenarios safe without anti-entropy.
//! - **Backpressure**: a `Busy` ack backs off exponentially and retries,
//!   up to `busy_budget`; then the request resolves `RejectedBusy`.
//!   Every request also has a global `attempt_budget`, so a client
//!   always terminates and the drive loop never hangs.

use std::cell::RefCell;
use std::rc::Rc;

use telegraphos::{Action, Process, Resume, SharedPage};
use tg_proto::RangeMap;
use tg_sim::{SimRng, SimTime};
use tg_wire::NodeId;

use crate::config::KvConfig;
use crate::layout::{dec_ack, enc_req, AckCode, OpKindKv, ReqWord, ATTEMPT_BITS};
use crate::service::{ClientLog, Outcome, RequestRecord};

/// One scheduled request.
#[derive(Clone, Copy)]
struct ReqSpec {
    arrival: SimTime,
    op: OpKindKv,
    key: u32,
    req: u32,
}

enum CState {
    /// Waiting out the gap to the next scheduled arrival.
    WaitArrival,
    /// Blocking reachability probe of the target's mailbox slot.
    Probe,
    /// Posted request write in flight (resumes almost immediately).
    SendReq,
    /// Napping between ack polls.
    PollNap,
    /// Local read of the ack slot.
    PollRead,
    /// Re-reading the directory after a `NotOwner` ack.
    DirRefresh,
    /// Fetch-add of the range epoch (failover, step 1).
    FoEpoch { new_owner: NodeId },
    /// Fetch-store of the range owner word (failover, step 2).
    FoSwap { new_owner: NodeId },
    /// Backing off after a `Busy` ack or a stale directory answer.
    Backoff,
    /// Schedule exhausted.
    Finished,
}

/// One client node's load generator. See the module docs.
pub(crate) struct KvClient {
    ci: u16,
    replicas: u16,
    map: RangeMap,
    mailboxes: Vec<SharedPage>,
    ack: SharedPage,
    dir: SharedPage,
    retries_per_target: u32,
    attempt_budget: u32,
    busy_budget: u32,
    rto_init_ps: u64,
    rto_min_ps: u64,
    rto_max_ps: u64,
    poll_every: SimTime,
    /// Local liveness verdicts per replica index (sticky).
    live: Vec<bool>,
    /// Cached directory owner (raw node id) per range.
    dir_cache: Vec<u16>,
    schedule: Vec<ReqSpec>,
    idx: usize,
    // Live-request state.
    target: u16,
    attempts: u32,
    target_fails: u32,
    busy_left: u32,
    failovers: u32,
    rto_cur_ps: u64,
    deadline: SimTime,
    send_time: SimTime,
    // Jacobson/Karn estimator.
    srtt_ps: u64,
    rttvar_ps: u64,
    have_sample: bool,
    state: CState,
    log: Rc<RefCell<ClientLog>>,
}

impl KvClient {
    /// Builds client `ci` with its own forked workload stream.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ci: u16,
        cfg: &KvConfig,
        map: &RangeMap,
        mailboxes: &[SharedPage],
        ack: &SharedPage,
        dir: &SharedPage,
        mut rng: SimRng,
        log: Rc<RefCell<ClientLog>>,
    ) -> Self {
        let mut schedule = Vec::with_capacity(cfg.requests_per_client as usize);
        let mut t = SimTime::ZERO;
        for j in 0..cfg.requests_per_client {
            let shift = rng.next_u64().trailing_zeros().min(cfg.tail_shift_max);
            t += cfg.arrival_gap * (1u64 << shift);
            let op = if rng.range(100) < u64::from(cfg.write_ratio_pct) {
                OpKindKv::Put
            } else {
                OpKindKv::Get
            };
            let key = match op {
                OpKindKv::Put => {
                    u32::from(ci) * cfg.keys_per_client
                        + rng.range(u64::from(cfg.keys_per_client)) as u32
                }
                OpKindKv::Get => rng.range(u64::from(cfg.total_keys())) as u32,
            };
            schedule.push(ReqSpec {
                arrival: t,
                op,
                key,
                req: j + 1,
            });
        }
        let dir_cache = (0..cfg.ranges).map(|g| map.home_of(g).raw()).collect();
        KvClient {
            ci,
            replicas: cfg.replicas,
            map: map.clone(),
            mailboxes: mailboxes.to_vec(),
            ack: *ack,
            dir: *dir,
            retries_per_target: cfg.retries_per_target,
            attempt_budget: cfg.attempt_budget,
            busy_budget: cfg.busy_budget,
            rto_init_ps: cfg.rto_init.as_ps(),
            rto_min_ps: cfg.rto_min.as_ps(),
            rto_max_ps: cfg.rto_max.as_ps(),
            poll_every: cfg.poll_every,
            live: vec![true; cfg.replicas as usize],
            dir_cache,
            schedule,
            idx: 0,
            target: 0,
            attempts: 0,
            target_fails: 0,
            busy_left: 0,
            failovers: 0,
            rto_cur_ps: cfg.rto_init.as_ps(),
            deadline: SimTime::MAX,
            send_time: SimTime::ZERO,
            srtt_ps: 0,
            rttvar_ps: 0,
            have_sample: false,
            state: CState::Finished,
            log,
        }
    }

    fn spec(&self) -> ReqSpec {
        self.schedule[self.idx]
    }

    fn range(&self) -> u32 {
        self.map.range_of(u64::from(self.spec().key))
    }

    /// Replica index for a raw node id, if it names a replica.
    fn replica_idx(&self, raw: u16) -> Option<u16> {
        (1..=self.replicas).contains(&raw).then(|| raw - 1)
    }

    fn attempt_field(&self) -> u32 {
        (self.attempts.saturating_sub(1)).min((1 << ATTEMPT_BITS) - 1)
    }

    fn base_rto_ps(&self) -> u64 {
        if self.have_sample {
            (self.srtt_ps + 4 * self.rttvar_ps).clamp(self.rto_min_ps, self.rto_max_ps)
        } else {
            self.rto_init_ps
        }
    }

    fn rtt_sample(&mut self, rtt: SimTime) {
        let rtt = rtt.as_ps();
        if self.have_sample {
            let delta = self.srtt_ps.abs_diff(rtt);
            self.rttvar_ps = (3 * self.rttvar_ps + delta) / 4;
            self.srtt_ps = (7 * self.srtt_ps + rtt) / 8;
        } else {
            self.srtt_ps = rtt;
            self.rttvar_ps = rtt / 2;
            self.have_sample = true;
        }
    }

    fn backoff_rto(&mut self) {
        self.rto_cur_ps = (self.rto_cur_ps * 2).min(self.rto_max_ps);
    }

    /// Starts the next scheduled request (or finishes).
    fn start_next(&mut self, now: SimTime) -> Action {
        if self.idx >= self.schedule.len() {
            self.state = CState::Finished;
            return Action::Halt;
        }
        self.attempts = 0;
        self.target_fails = 0;
        self.busy_left = self.busy_budget;
        self.failovers = 0;
        self.rto_cur_ps = self.base_rto_ps();
        let arrival = self.spec().arrival;
        if now < arrival {
            self.state = CState::WaitArrival;
            return Action::Compute(arrival - now);
        }
        self.route_and_issue(now)
    }

    /// Routes by the cached directory entry and issues an attempt,
    /// starting a failover if the cached owner is already convicted.
    fn route_and_issue(&mut self, now: SimTime) -> Action {
        let owner = self.dir_cache[self.range() as usize];
        match self.replica_idx(owner) {
            Some(t) if self.live[t as usize] => {
                self.target = t;
                self.issue(now)
            }
            _ => self.failover(now),
        }
    }

    /// One transmission: bounded by the attempt budget, probed when it
    /// is a retry.
    fn issue(&mut self, now: SimTime) -> Action {
        if self.attempts >= self.attempt_budget {
            return self.resolve(Outcome::FailedUnreachable, 0, now);
        }
        self.attempts += 1;
        if self.attempts > 1 {
            self.state = CState::Probe;
            return Action::Read(self.mailboxes[self.target as usize].va(8 * u64::from(self.ci)));
        }
        self.send(now)
    }

    fn send(&mut self, _now: SimTime) -> Action {
        let spec = self.spec();
        self.state = CState::SendReq;
        Action::Write(
            self.mailboxes[self.target as usize].va(8 * u64::from(self.ci)),
            enc_req(ReqWord {
                req: spec.req,
                attempt: self.attempt_field(),
                op: spec.op,
                key: spec.key,
            }),
        )
    }

    /// Promotes the smallest-id live replica and publishes the change
    /// in the directory before resending.
    fn failover(&mut self, now: SimTime) -> Action {
        let live = &self.live;
        let promoted = self
            .map
            .promote(|n| matches!(self.replica_idx(n.raw()), Some(i) if live[i as usize]));
        let Some(new_owner) = promoted else {
            return self.resolve(Outcome::FailedUnreachable, 0, now);
        };
        self.failovers += 1;
        self.state = CState::FoEpoch { new_owner };
        let g = self.range();
        Action::FetchAdd(self.dir.va(8 * u64::from(self.map.ranges() + g)), 1)
    }

    fn resolve(&mut self, outcome: Outcome, get_stamp: u32, now: SimTime) -> Action {
        let spec = self.spec();
        self.log.borrow_mut().requests.push(RequestRecord {
            client: self.ci,
            req: spec.req,
            op: spec.op,
            key: spec.key,
            arrival: spec.arrival,
            resolved: now,
            attempts: self.attempts,
            failovers: self.failovers,
            outcome,
            get_stamp,
        });
        self.idx += 1;
        self.start_next(now)
    }

    fn poll_nap(&mut self) -> Action {
        self.state = CState::PollNap;
        Action::Compute(self.poll_every)
    }

    fn on_timeout(&mut self, now: SimTime) -> Action {
        self.log.borrow_mut().timeouts += 1;
        self.backoff_rto();
        self.target_fails += 1;
        if self.target_fails >= self.retries_per_target {
            self.live[self.target as usize] = false;
            self.target_fails = 0;
            return self.failover(now);
        }
        self.issue(now)
    }
}

impl Process for KvClient {
    fn resume(&mut self, r: Resume) -> Action {
        self.resume_at(r, SimTime::ZERO)
    }

    fn resume_at(&mut self, r: Resume, now: SimTime) -> Action {
        match std::mem::replace(&mut self.state, CState::Finished) {
            CState::Finished => {
                // First activation (Resume::Start).
                self.start_next(now)
            }
            CState::WaitArrival => self.route_and_issue(now),
            CState::Probe => match r {
                Resume::Failed(err) => {
                    // Fail-fast re-route: the HIB already convicted the
                    // peer, no need to wait out another timeout.
                    self.log.borrow_mut().fail_fast_reroutes += 1;
                    let telegraphos::OpError::PeerUnreachable { peer } = err;
                    if let Some(i) = self.replica_idx(peer.raw()) {
                        self.live[i as usize] = false;
                    }
                    self.live[self.target as usize] = false;
                    self.target_fails = 0;
                    self.failover(now)
                }
                _ => self.send(now),
            },
            CState::SendReq => {
                self.send_time = now;
                self.deadline = now + SimTime::from_ps(self.rto_cur_ps);
                self.poll_nap()
            }
            CState::PollNap => {
                self.state = CState::PollRead;
                Action::Read(self.ack.va(8 * u64::from(self.target)))
            }
            CState::PollRead => {
                let word = match r {
                    Resume::Value(w) => w,
                    _ => 0,
                };
                let spec = self.spec();
                if let Some(a) = dec_ack(word) {
                    if a.req == spec.req {
                        match a.code {
                            AckCode::Ok => {
                                // Terminal whatever attempt it answers.
                                if self.attempts == 1 {
                                    self.rtt_sample(now - self.send_time);
                                }
                                return self.resolve(Outcome::Committed, a.stamp, now);
                            }
                            AckCode::Busy if a.attempt == self.attempt_field() => {
                                self.log.borrow_mut().busy_acks += 1;
                                if self.busy_left == 0 {
                                    return self.resolve(Outcome::RejectedBusy, 0, now);
                                }
                                self.busy_left -= 1;
                                // The replica answered: it is alive, just
                                // loaded. Back off and try again.
                                self.target_fails = 0;
                                let wait = SimTime::from_ps(self.rto_cur_ps);
                                self.backoff_rto();
                                self.state = CState::Backoff;
                                return Action::Compute(wait);
                            }
                            AckCode::NotOwner if a.attempt == self.attempt_field() => {
                                self.log.borrow_mut().dir_refreshes += 1;
                                self.target_fails = 0;
                                self.state = CState::DirRefresh;
                                let g = self.range();
                                return Action::Read(self.dir.va(8 * u64::from(g)));
                            }
                            _ => {
                                self.log.borrow_mut().stale_acks += 1;
                            }
                        }
                    } else {
                        self.log.borrow_mut().stale_acks += 1;
                    }
                }
                if now >= self.deadline {
                    return self.on_timeout(now);
                }
                self.poll_nap()
            }
            CState::Backoff => self.issue(now),
            CState::DirRefresh => match r {
                Resume::Value(owner_raw) => {
                    let g = self.range() as usize;
                    let owner = owner_raw as u16;
                    let stale = self.dir_cache[g] == owner;
                    self.dir_cache[g] = owner;
                    match self.replica_idx(owner) {
                        Some(t) if self.live[t as usize] && !stale => {
                            self.target = t;
                            self.issue(now)
                        }
                        Some(_) if stale => {
                            // The directory still names the replica that
                            // just refused us — a transfer is in flight.
                            // Back off and re-route from the top.
                            let wait = SimTime::from_ps(self.rto_cur_ps);
                            self.backoff_rto();
                            self.state = CState::Backoff;
                            Action::Compute(wait)
                        }
                        _ => self.failover(now),
                    }
                }
                _ => {
                    self.log.borrow_mut().dir_failures += 1;
                    self.resolve(Outcome::FailedUnreachable, 0, now)
                }
            },
            CState::FoEpoch { new_owner } => match r {
                Resume::Value(_) => {
                    self.state = CState::FoSwap { new_owner };
                    let g = self.range();
                    Action::FetchStore(self.dir.va(8 * u64::from(g)), u64::from(new_owner.raw()))
                }
                _ => {
                    self.log.borrow_mut().dir_failures += 1;
                    self.resolve(Outcome::FailedUnreachable, 0, now)
                }
            },
            CState::FoSwap { new_owner } => match r {
                Resume::Value(_) => {
                    let g = self.range() as usize;
                    self.dir_cache[g] = new_owner.raw();
                    let t = self
                        .replica_idx(new_owner.raw())
                        .expect("promoted a non-replica");
                    self.target = t;
                    self.issue(now)
                }
                _ => {
                    self.log.borrow_mut().dir_failures += 1;
                    self.resolve(Outcome::FailedUnreachable, 0, now)
                }
            },
        }
    }
}
