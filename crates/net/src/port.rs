//! Reusable port state machines: credited transmit ports and receive FIFOs.
//!
//! Both the switches in this crate and the Host Interface Board in `tg-hib`
//! drive one link end; the flow-control bookkeeping is identical, so it
//! lives here. With [`TxPort::enable_reliability`] the transmit port also
//! runs the sender half of the link-level reliability protocol: frames are
//! stamped with per-link sequence numbers, buffered until cumulatively
//! acknowledged, retransmitted on NACK or timeout with bounded exponential
//! backoff (go-back-N, or selectively under [`RetxMode::Sack`] where
//! bitmap-acknowledged frames are skipped), and the port can resynchronize
//! its credit count with the receiver when credits were lost in flight.
//! The retransmit timeout adapts per link: ack round-trips feed a
//! Jacobson-style smoothed RTT + variance estimator (`rto = srtt +
//! 4·rttvar`, clamped to `rto_min..=rto_max`), with Karn's rule excluding
//! retransmitted frames from sampling.

use std::collections::VecDeque;

use tg_sim::{CompId, SimTime};
use tg_wire::{Packet, TimingConfig};

use crate::fault::LinkId;
use crate::link::{LinkError, RelParams};

/// Delays produced by launching a packet on a [`TxPort`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TxTimes {
    /// When the packet fully arrives at the neighbor's input port
    /// (serialization + propagation), relative to launch.
    pub arrival: SimTime,
    /// When this output port becomes free again (serialization done),
    /// relative to launch.
    pub free: SimTime,
}

/// What the owner of a reliable [`TxPort`] must do after a timer or NACK
/// event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TimerAction {
    /// Stale or superseded event; nothing to do.
    Stale,
    /// Timer fired with nothing pending; nothing to do.
    Idle,
    /// Go-back-N retransmission requested: pump the port, draining
    /// [`TxPort::take_retx`] as the wire frees up.
    Retransmit,
    /// Credit-starved with an empty retransmit buffer: send a
    /// `CreditSyncReq` carrying this token to the neighbor.
    Resync {
        /// Handshake token the reply must echo.
        token: u64,
    },
    /// The retransmit budget is exhausted; the link is now dead.
    Dead(LinkError),
}

/// Which condition armed the pending recovery timer (a retransmit window
/// and a credit-resync probe have very different timeouts, so a timer
/// armed for one must not act for the other).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ArmKind {
    Retx,
    Resync,
}

/// One buffered frame awaiting acknowledgement.
#[derive(Clone, Debug)]
struct FrameSlot {
    packet: Packet,
    /// When the frame was last freshly framed; `None` once retransmitted
    /// (Karn's rule: a retransmitted frame's ack is ambiguous, so it
    /// must not feed the RTT estimator).
    sent_at: Option<SimTime>,
    /// Selectively acknowledged via an ack bitmap (SACK mode): the
    /// receiver holds it in its reorder window, so retransmission would
    /// be pure waste. Stays buffered until cumulatively acknowledged.
    sacked: bool,
}

/// Sender half of the link-level reliability protocol (see
/// [`crate::link`]). Boxed inside [`TxPort`] so the unreliable fast path
/// stays untouched.
#[derive(Clone, Debug)]
pub(crate) struct RelTx {
    pub(crate) params: RelParams,
    /// Link sequence number the next fresh frame is stamped with.
    next_seq: u64,
    /// Lowest unacknowledged sequence number (`base - 1` frames have been
    /// delivered and acknowledged).
    base: u64,
    /// Unacknowledged frames, in sequence order, kept for retransmission.
    buf: VecDeque<FrameSlot>,
    /// Index into `buf` of the next frame to (re)send; `cursor ==
    /// buf.len()` means all buffered frames are on the wire.
    cursor: usize,
    /// Consecutive recovery attempts for the current base frame.
    attempts: u32,
    /// Current backoff multiplier on the retransmit timeout.
    backoff: u32,
    /// Generation counter distinguishing live timers from stale ones.
    timer_gen: u64,
    timer_armed: bool,
    armed_kind: ArmKind,
    /// Absolute due time of the armed recovery timer. Acknowledgement
    /// progress *slides* this forward instead of cancelling and re-arming
    /// the timer event (one pending event per recovery window, not one
    /// per ack): an early-firing timer sees `now < deadline` and is
    /// simply re-armed for the remainder.
    deadline: SimTime,
    dead: bool,
    retransmits: u64,
    /// Wire bytes of retransmitted frames (the waste a smarter
    /// retransmit discipline avoids).
    retx_bytes: u64,
    /// Smoothed round-trip time in picoseconds (Jacobson), once the
    /// first ack round-trip is sampled.
    srtt: Option<u64>,
    /// Smoothed RTT variance in picoseconds.
    rttvar: u64,
    /// Current adaptive retransmission timeout (starts at
    /// `params.retx_timeout`, then `srtt + 4·rttvar` clamped to
    /// `rto_min..=rto_max`).
    rto: SimTime,
    resync_token: u64,
    resync_outstanding: Option<u64>,
    resyncs: u64,
    resync_probes: u64,
    /// Consecutive resync probes with neither a reply nor a returned
    /// credit in between. A neighbor that answers nothing for a full
    /// retry budget of probes is as dead as one that never acks a frame.
    probe_streak: u32,
    /// Cumulative acks consumed by pre-reset epochs: `base - 1 -
    /// acked_offset` is the ack count *within the current epoch*, which
    /// is what the credit-resync math must compare against the
    /// receiver's (epoch-zeroed) drain counter.
    acked_offset: u64,
}

impl RelTx {
    /// True while any buffered frame still needs (re)transmission —
    /// sacked frames are parked at the receiver and are skipped.
    fn retx_pending(&self) -> bool {
        self.buf.iter().skip(self.cursor).any(|s| !s.sacked)
    }

    /// Feeds one ack round-trip into the Jacobson estimator and refreshes
    /// the clamped RTO.
    fn sample_rtt(&mut self, rtt: SimTime) {
        let rtt = rtt.as_ps().max(1);
        let (srtt, rttvar) = match self.srtt {
            None => (rtt, rtt / 2),
            Some(s) => {
                let err = s.abs_diff(rtt);
                ((7 * s + rtt) / 8, (3 * self.rttvar + err) / 4)
            }
        };
        self.srtt = Some(srtt);
        self.rttvar = rttvar;
        let raw = srtt.saturating_add(4 * rttvar);
        self.rto =
            SimTime::from_ps(raw.clamp(self.params.rto_min.as_ps(), self.params.rto_max.as_ps()));
    }

    /// The credit-resync probe interval: derived from the adaptive RTO
    /// (four round-trip timeouts of silence is plenty), capped by the
    /// configured ceiling. Before any RTT sample exists this equals
    /// `min(resync_timeout, 4 · retx_timeout)`.
    fn resync_interval(&self) -> SimTime {
        let derived = self.rto * 4;
        if derived < self.params.resync_timeout {
            derived
        } else {
            self.params.resync_timeout
        }
    }
}

/// One credited transmit port: the sending end of a unidirectional link.
///
/// The owner may launch a packet only when the port is ready: the wire
/// is idle and the neighbor's input FIFO granted a credit. Launching yields
/// the two delays the owner must schedule ([`TxTimes`]); the neighbor
/// returns credits as it drains its FIFO.
#[derive(Clone, Debug)]
pub struct TxPort {
    neighbor: CompId,
    neighbor_port: u32,
    credits: u32,
    /// The initial grant (= the downstream FIFO capacity). Credits in hand
    /// can never legitimately exceed it.
    allowance: u32,
    busy: bool,
    /// When the port first deferred a launch for want of credit; open
    /// window of the current stall.
    stall_since: Option<SimTime>,
    /// Accumulated simulated time spent with traffic pending but zero
    /// credits in hand (back-pressure from the downstream FIFO).
    credit_stall: SimTime,
    /// The directed link this port drives, for fault lookup and reporting.
    link: Option<LinkId>,
    /// Frames launched on this port (fresh launches; retransmissions are
    /// counted separately by the reliability layer).
    tx_packets: u64,
    /// Wire bytes of those frames.
    tx_bytes: u64,
    /// Credits from pre-reset epochs that may still straggle home after
    /// a link revival; while positive, credits arriving at a full
    /// allowance are swallowed instead of reported as duplicate-credit
    /// protocol violations.
    stale_credit_grace: u32,
    pub(crate) rel: Option<Box<RelTx>>,
}

impl TxPort {
    /// Creates a transmit port toward `neighbor`'s input `neighbor_port`
    /// with an initial credit allowance (= the neighbor FIFO capacity).
    pub fn new(neighbor: CompId, neighbor_port: u32, credits: u32) -> Self {
        TxPort {
            neighbor,
            neighbor_port,
            credits,
            allowance: credits,
            busy: false,
            stall_since: None,
            credit_stall: SimTime::ZERO,
            link: None,
            tx_packets: 0,
            tx_bytes: 0,
            stale_credit_grace: 0,
            rel: None,
        }
    }

    /// The component at the far end of the link.
    pub fn neighbor(&self) -> CompId {
        self.neighbor
    }

    /// The input-port index this link feeds on the neighbor.
    pub fn neighbor_port(&self) -> u32 {
        self.neighbor_port
    }

    /// Credits currently available.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// The initial credit allowance.
    pub fn allowance(&self) -> u32 {
        self.allowance
    }

    /// Labels the directed link this port drives (for fault-plan lookup and
    /// diagnostics).
    pub fn set_link(&mut self, link: LinkId) {
        self.link = Some(link);
    }

    /// The directed link this port drives, if labeled.
    pub(crate) fn link(&self) -> Option<LinkId> {
        self.link
    }

    /// Turns on the sender half of the link-level reliability protocol.
    pub fn enable_reliability(&mut self, params: RelParams) {
        self.rel = Some(Box::new(RelTx {
            params,
            next_seq: 1,
            base: 1,
            buf: VecDeque::new(),
            cursor: 0,
            attempts: 0,
            backoff: 1,
            timer_gen: 0,
            timer_armed: false,
            armed_kind: ArmKind::Retx,
            deadline: SimTime::ZERO,
            dead: false,
            retransmits: 0,
            retx_bytes: 0,
            srtt: None,
            rttvar: 0,
            rto: params.retx_timeout,
            resync_token: 0,
            resync_outstanding: None,
            resyncs: 0,
            resync_probes: 0,
            probe_streak: 0,
            acked_offset: 0,
        }));
    }

    /// True when the reliability protocol is active on this port.
    pub fn is_reliable(&self) -> bool {
        self.rel.is_some()
    }

    /// True when a packet may be launched now.
    pub(crate) fn ready(&self) -> bool {
        !self.busy && self.credits > 0
    }

    /// True when the wire is idle (retransmissions need only this, not a
    /// credit).
    pub fn wire_free(&self) -> bool {
        !self.busy
    }

    /// True while a credit-stall window is open (traffic pending, zero
    /// credits in hand).
    pub fn is_credit_stalled(&self) -> bool {
        self.stall_since.is_some()
    }

    /// True when a *fresh* frame may be launched now: the port is
    /// ready (see `TxPort::ready`) and (if reliable) not dead, with no
    /// retransmission in progress — go-back-N recovery outranks new
    /// traffic.
    pub fn can_send_new(&self) -> bool {
        self.ready()
            && match &self.rel {
                None => true,
                Some(r) => !r.dead && !r.retx_pending(),
            }
    }

    /// Stamps the next link sequence number on `packet`, seals its
    /// checksum, and retains a copy for retransmission. Call immediately
    /// before [`launch`](TxPort::launch) when reliability is on. The
    /// first frame into an empty buffer starts a fresh recovery deadline
    /// from `now` (a timer event still pending from an earlier window
    /// must not time this frame out early).
    ///
    /// # Panics
    ///
    /// Panics if reliability is not enabled or a retransmission is in
    /// progress (callers gate on [`can_send_new`](TxPort::can_send_new)).
    pub fn frame(&mut self, mut packet: Packet, now: SimTime) -> Packet {
        let rel = self.rel.as_mut().expect("frame() requires reliability");
        assert!(
            !rel.dead && !rel.retx_pending(),
            "frame() while retransmitting or dead"
        );
        packet.link_seq = rel.next_seq;
        rel.next_seq += 1;
        packet.seal();
        if rel.buf.is_empty() {
            rel.deadline = now + rel.rto;
            // A pending slow resync probe must not stand in for this
            // frame's (much shorter) retransmit window: invalidate it and
            // let the pump re-arm a retransmit timer.
            if rel.timer_armed && rel.armed_kind == ArmKind::Resync {
                rel.timer_gen += 1;
                rel.timer_armed = false;
            }
        }
        rel.buf.push_back(FrameSlot {
            packet: packet.clone(),
            sent_at: Some(now),
            sacked: false,
        });
        rel.cursor = rel.buf.len();
        packet
    }

    /// True when buffered frames await (re)transmission (sacked frames
    /// are parked at the receiver and never resent).
    pub fn has_retx_pending(&self) -> bool {
        self.rel
            .as_ref()
            .is_some_and(|r| !r.dead && r.retx_pending())
    }

    /// Takes the next frame to retransmit, advancing the resend cursor
    /// past selectively-acknowledged frames. Retransmitted frames are
    /// excluded from RTT sampling (Karn's rule).
    pub fn take_retx(&mut self) -> Option<Packet> {
        let rel = self.rel.as_mut()?;
        if rel.dead {
            return None;
        }
        while rel.cursor < rel.buf.len() && rel.buf[rel.cursor].sacked {
            rel.cursor += 1;
        }
        if rel.cursor >= rel.buf.len() {
            return None;
        }
        let slot = &mut rel.buf[rel.cursor];
        slot.sent_at = None;
        let p = slot.packet.clone();
        rel.cursor += 1;
        rel.retransmits += 1;
        rel.retx_bytes += u64::from(p.size_bytes());
        Some(p)
    }

    /// Consumes a credit and occupies the wire for `packet`.
    ///
    /// # Panics
    ///
    /// Panics if the port is not ready (`TxPort::ready`) — callers gate on
    /// readiness; launching early would violate flow control.
    pub fn launch(&mut self, packet: &Packet, timing: &TimingConfig) -> TxTimes {
        assert!(self.ready(), "launch on a busy or credit-less port");
        self.credits -= 1;
        self.busy = true;
        self.tx_packets += 1;
        self.tx_bytes += u64::from(packet.size_bytes());
        let ser = timing.serialize(packet.size_bytes());
        TxTimes {
            arrival: ser + timing.link_prop,
            free: ser,
        }
    }

    /// Occupies the wire for a retransmitted frame *without* consuming a
    /// credit: the original launch already reserved the receiver's FIFO
    /// slot, and that reservation survives the loss of the copy in flight.
    ///
    /// # Panics
    ///
    /// Panics if the wire is busy.
    pub fn relaunch(&mut self, packet: &Packet, timing: &TimingConfig) -> TxTimes {
        assert!(!self.busy, "relaunch on a busy wire");
        self.busy = true;
        self.tx_packets += 1;
        self.tx_bytes += u64::from(packet.size_bytes());
        let ser = timing.serialize(packet.size_bytes());
        TxTimes {
            arrival: ser + timing.link_prop,
            free: ser,
        }
    }

    /// Records a returned credit at simulated time `now`, closing any open
    /// credit-stall window (see [`TxPort::note_blocked`]).
    ///
    /// # Errors
    ///
    /// [`LinkError::DuplicateCredit`] if credits would exceed the initial
    /// allowance: a duplicated credit is a neighbor-originated protocol
    /// violation and must degrade the link, not wedge the cluster. The
    /// stall window stays open: no usable credit arrived.
    #[inline]
    pub fn on_credit_at(&mut self, now: SimTime) -> Result<(), LinkError> {
        if self.credits >= self.allowance {
            if self.stale_credit_grace > 0 {
                // A pre-reset-epoch credit straggling home after a link
                // revival restored the full allowance: swallow it within
                // the grace budget instead of declaring a violation.
                self.stale_credit_grace -= 1;
                return Ok(());
            }
            return Err(LinkError::DuplicateCredit {
                allowance: self.allowance,
            });
        }
        if let Some(since) = self.stall_since.take() {
            self.credit_stall += now.saturating_sub(since);
        }
        self.credits += 1;
        if let Some(rel) = self.rel.as_mut() {
            rel.probe_streak = 0;
        }
        Ok(())
    }

    /// Notes that the owner had traffic for this port at `now` but could
    /// not launch because no credit was in hand. Opens the stall window
    /// that [`TxPort::on_credit_at`] closes; repeated calls while already
    /// stalled keep the original window start. Returns `true` exactly when
    /// a *new* window opened (so the caller can emit one
    /// [`Stage::CreditStall`](tg_wire::Stage::CreditStall) trace event
    /// per window, not per pump).
    pub fn note_blocked(&mut self, now: SimTime) -> bool {
        if self.credits == 0 && self.stall_since.is_none() {
            self.stall_since = Some(now);
            return true;
        }
        false
    }

    /// Total simulated time this port spent blocked on credits (closed
    /// windows only; an ongoing stall counts once a credit returns).
    pub(crate) fn credit_stall(&self) -> SimTime {
        self.credit_stall
    }

    /// Marks serialization finished (the scheduled `free` delay elapsed).
    #[inline]
    pub fn on_free(&mut self) {
        self.busy = false;
    }

    /// Applies a cumulative acknowledgement through `seq` with a
    /// selective-ack bitmap (`sack` bit `i` set means frame `seq + 1 + i`
    /// is parked in the receiver's reorder window; always zero in
    /// go-back-N mode) at simulated time `now`, dropping acknowledged
    /// frames from the retransmit buffer. The newest freshly-transmitted
    /// frame the ack covers feeds the RTT estimator (Karn's rule skips
    /// retransmitted frames). Progress resets the retry counter and
    /// backoff and slides the recovery deadline forward — the timer
    /// pending for the previous oldest frame must not fire against a
    /// newer one that has not had its full timeout yet. The armed timer
    /// event is *kept* (it re-arms itself for the remainder when it fires
    /// early), so a steady ack stream costs no timer churn.
    pub fn on_ack(&mut self, seq: u64, sack: u64, now: SimTime) {
        let Some(rel) = self.rel.as_mut() else {
            return;
        };
        let mut progressed = false;
        let mut sample = None;
        while rel.base <= seq {
            let Some(slot) = rel.buf.pop_front() else {
                break;
            };
            rel.base += 1;
            rel.cursor = rel.cursor.saturating_sub(1);
            progressed = true;
            if let Some(sent) = slot.sent_at {
                sample = Some(now.saturating_sub(sent));
            }
        }
        if let Some(rtt) = sample {
            rel.sample_rtt(rtt);
        }
        // Mark frames the receiver reports parked out of order so the
        // retransmit sweep skips them.
        let mut bits = sack;
        while bits != 0 {
            let i = bits.trailing_zeros() as u64;
            bits &= bits - 1;
            if let Some(idx) = (seq + 1 + i).checked_sub(rel.base) {
                if let Some(slot) = rel.buf.get_mut(idx as usize) {
                    slot.sacked = true;
                }
            }
        }
        if progressed {
            rel.attempts = 0;
            rel.backoff = 1;
            if rel.buf.is_empty() {
                // Nothing left in flight: the next frame starts a fresh
                // full timeout from its own launch.
                rel.deadline = SimTime::ZERO;
            } else {
                rel.deadline = now + rel.rto;
            }
        }
    }

    /// Applies a NACK asking for retransmission from `expected`, with
    /// the same selective-ack bitmap as [`on_ack`](TxPort::on_ack)
    /// (relative to `expected - 1`). Frames below `expected` are
    /// cumulatively acknowledged first; in SACK mode the sweep then
    /// resends only the frames the bitmap leaves unacknowledged.
    pub(crate) fn on_nack(&mut self, expected: u64, sack: u64, now: SimTime) -> TimerAction {
        self.on_ack(expected.saturating_sub(1), sack, now);
        let Some(rel) = self.rel.as_mut() else {
            return TimerAction::Idle;
        };
        if rel.dead || rel.buf.is_empty() || expected < rel.base {
            return TimerAction::Stale;
        }
        if rel.retx_pending() {
            // Already resending; the in-progress sweep (or the timer)
            // covers this request.
            return TimerAction::Stale;
        }
        rel.attempts += 1;
        if rel.attempts > rel.params.max_retries {
            rel.dead = true;
            return TimerAction::Dead(LinkError::RetryExhausted {
                retries: rel.attempts - 1,
                stranded: rel.buf.len(),
            });
        }
        rel.cursor = 0;
        TimerAction::Retransmit
    }

    /// Arms the recovery timer if one is needed and none is armed: returns
    /// the delay to self-schedule a `RetxTimer` event and the generation to
    /// carry in it. A timer is needed while unacknowledged frames exist
    /// (the adaptive retransmit timeout, scaled by the current backoff) or
    /// while any credits of the allowance are missing (credit-resync
    /// probe: a credit lost in flight would otherwise shrink this link's
    /// capacity forever when traffic is too light to ever fully starve
    /// the port — the probe simply finds all credits home and goes back
    /// to sleep in the common case). A probe timer stays armed even while
    /// a probe is outstanding: its reply can be lost on a hostile control
    /// plane, so the next firing simply issues a fresh probe whose token
    /// supersedes the silent one. When the recovery deadline was slid
    /// forward by ack progress (see [`on_ack`](TxPort::on_ack)), the
    /// timer re-arms for the remainder rather than a full fresh timeout.
    pub fn poll_timer(&mut self, now: SimTime) -> Option<(SimTime, u64)> {
        let credits = self.credits;
        let allowance = self.allowance;
        let rel = self.rel.as_mut()?;
        if rel.dead || rel.timer_armed {
            return None;
        }
        let (full, kind) = if !rel.buf.is_empty() {
            (rel.rto * u64::from(rel.backoff), ArmKind::Retx)
        } else if credits < allowance {
            (rel.resync_interval(), ArmKind::Resync)
        } else {
            return None;
        };
        rel.armed_kind = kind;
        let delay = if rel.deadline > now {
            rel.deadline.saturating_sub(now)
        } else {
            full
        };
        rel.deadline = now + delay;
        rel.timer_armed = true;
        rel.timer_gen += 1;
        Some((delay, rel.timer_gen))
    }

    /// True when [`poll_timer`](TxPort::poll_timer) would arm nothing
    /// now: the port is unreliable or dead, its recovery timer is already
    /// armed, or nothing is outstanding (no unacknowledged frame and no
    /// missing credit). An ack or a returned credit keeps it true.
    #[inline]
    pub fn timer_settled(&self) -> bool {
        self.rel.as_ref().is_none_or(|r| {
            r.dead || r.timer_armed || (r.buf.is_empty() && self.credits >= self.allowance)
        })
    }

    /// Handles a fired recovery timer of generation `gen` at simulated
    /// time `now`. A timer that fires before the (slid) deadline is
    /// reported `Stale`; the caller's pump re-arms it for the remainder.
    pub(crate) fn on_timer(&mut self, gen: u64, now: SimTime) -> TimerAction {
        let credits = self.credits;
        let allowance = self.allowance;
        let Some(rel) = self.rel.as_mut() else {
            return TimerAction::Stale;
        };
        if gen != rel.timer_gen || !rel.timer_armed {
            return TimerAction::Stale;
        }
        rel.timer_armed = false;
        if rel.dead {
            return TimerAction::Stale;
        }
        if now < rel.deadline {
            return TimerAction::Stale;
        }
        if !rel.buf.is_empty() {
            rel.attempts += 1;
            if rel.attempts > rel.params.max_retries {
                rel.dead = true;
                return TimerAction::Dead(LinkError::RetryExhausted {
                    retries: rel.attempts - 1,
                    stranded: rel.buf.len(),
                });
            }
            rel.backoff = (rel.backoff * 2).min(rel.params.backoff_cap);
            rel.cursor = 0;
            TimerAction::Retransmit
        } else if rel.armed_kind == ArmKind::Resync && credits < allowance {
            // A starved port may probe forever against a crashed
            // neighbor whose replies are silenced: consecutive unanswered
            // probes draw on the same retry budget as retransmissions, so
            // total silence eventually degrades the link instead of
            // re-arming the probe timer for the rest of time.
            rel.probe_streak += 1;
            if rel.probe_streak > rel.params.max_retries {
                rel.dead = true;
                return TimerAction::Dead(LinkError::ProbeExhausted {
                    probes: rel.probe_streak - 1,
                    missing: allowance - credits,
                });
            }
            // Always mint a fresh token: if an earlier probe (or its
            // reply) was lost in flight, the stale token is superseded
            // and its late reply ignored — the handshake is idempotent.
            rel.resync_token += 1;
            rel.resync_outstanding = Some(rel.resync_token);
            rel.resync_probes += 1;
            TimerAction::Resync {
                token: rel.resync_token,
            }
        } else {
            // A retransmit-armed timer with nothing left to resend: any
            // missing credits get a *fresh* probe timer from the caller's
            // pump, with the full (slower) resync timeout.
            TimerAction::Idle
        }
    }

    /// Applies a credit-resync reply: the receiver has drained `drained`
    /// frames total on this link. Every credit of the allowance is in one
    /// of three places — in hand, riding an unacknowledged frame (the
    /// retransmit buffer), or reserved by an acknowledged frame still in
    /// the receiver's FIFO (`acked - drained`) — so the in-hand count is
    /// set absolutely from the other two. Frames may have been launched
    /// after the probe went out (a stray credit arrived meanwhile); they
    /// sit in the buffer and are accounted by its length. Returns whether
    /// the reply matched the outstanding token.
    pub(crate) fn on_sync_ack(&mut self, token: u64, drained: u64, now: SimTime) -> bool {
        let allowance = self.allowance;
        let Some(rel) = self.rel.as_mut() else {
            return false;
        };
        if rel.resync_outstanding != Some(token) {
            return false;
        }
        rel.resync_outstanding = None;
        rel.resyncs += 1;
        rel.probe_streak = 0;
        // Acks *within the current link epoch* only: the receiver zeroes
        // its drain counter on an epoch reset, so the comparison must too.
        let acked = (rel.base - 1).saturating_sub(rel.acked_offset);
        let outstanding = acked.saturating_sub(drained) + rel.buf.len() as u64;
        let new_credits =
            u32::try_from(u64::from(allowance).saturating_sub(outstanding)).unwrap_or(allowance);
        if new_credits > self.credits {
            if let Some(since) = self.stall_since.take() {
                self.credit_stall += now.saturating_sub(since);
            }
        }
        self.credits = new_credits;
        true
    }

    /// Starts a fresh link epoch after the peer revived from a crash:
    /// abandons every buffered frame (the peer's receive state is gone —
    /// retransmitting into it would be re-delivering into a different
    /// incarnation), clears the dead verdict and all recovery state, and
    /// restores the full credit allowance (the peer's input FIFO drained
    /// or vanished during the outage; any pre-epoch credits that still
    /// straggle home are swallowed under a grace budget rather than
    /// reported as duplicates). Returns the sequence number the next
    /// frame of the new epoch will carry — the caller announces it to
    /// the receiver in a [`CtrlMsg::Reset`](tg_wire::CtrlMsg::Reset) so
    /// it reseats its expected sequence and zeroes its drain counter.
    ///
    /// # Panics
    ///
    /// Panics if reliability is not enabled (unreliable ports have no
    /// epoch state to reset).
    pub(crate) fn reset_epoch(&mut self, now: SimTime) -> u64 {
        let credits = self.credits;
        let allowance = self.allowance;
        let rel = self.rel.as_mut().expect("reset_epoch requires reliability");
        rel.buf.clear();
        rel.cursor = 0;
        rel.attempts = 0;
        rel.backoff = 1;
        rel.dead = false;
        rel.deadline = SimTime::ZERO;
        // Invalidate any in-flight recovery timer: it belongs to the old
        // epoch and must not time the new one out.
        rel.timer_gen += 1;
        rel.timer_armed = false;
        rel.resync_outstanding = None;
        rel.probe_streak = 0;
        rel.acked_offset = rel.next_seq - 1;
        rel.base = rel.next_seq;
        self.stale_credit_grace += allowance - credits;
        self.credits = allowance;
        if let Some(since) = self.stall_since.take() {
            self.credit_stall += now.saturating_sub(since);
        }
        rel.next_seq
    }

    /// Frames launched but not yet cumulatively acknowledged.
    pub(crate) fn unacked(&self) -> usize {
        self.rel.as_ref().map_or(0, |r| r.buf.len())
    }

    /// True once the retransmit budget was exhausted and the link declared
    /// dead.
    pub fn is_dead(&self) -> bool {
        self.rel.as_ref().is_some_and(|r| r.dead)
    }

    /// Total frames retransmitted on this port.
    pub(crate) fn retransmits(&self) -> u64 {
        self.rel.as_ref().map_or(0, |r| r.retransmits)
    }

    /// Wire bytes of retransmitted frames on this port.
    pub(crate) fn retx_bytes(&self) -> u64 {
        self.rel.as_ref().map_or(0, |r| r.retx_bytes)
    }

    /// Consecutive unanswered recovery attempts for the oldest
    /// unacknowledged frame (reset by any ack progress).
    pub fn consecutive_attempts(&self) -> u32 {
        self.rel.as_ref().map_or(0, |r| r.attempts)
    }

    /// True when the link is ack-starved: half the retry budget has been
    /// burned on the same frame with no ack progress. The watchdog
    /// surface for "the control plane stopped answering" — fires well
    /// before [`LinkError::RetryExhausted`] declares the link dead.
    pub fn ack_starved(&self) -> bool {
        self.rel
            .as_ref()
            .is_some_and(|r| !r.dead && r.attempts > 0 && r.attempts * 2 >= r.params.max_retries)
    }

    /// Completed credit-resync handshakes on this port.
    pub(crate) fn resyncs(&self) -> u64 {
        self.rel.as_ref().map_or(0, |r| r.resyncs)
    }

    /// Credit-resync probes issued on this port (each probe either
    /// completes a handshake — counted by [`resyncs`](TxPort::resyncs) —
    /// or is still outstanding / was answered by a stale token).
    pub(crate) fn resync_probes(&self) -> u64 {
        self.rel.as_ref().map_or(0, |r| r.resync_probes)
    }

    /// Frames launched on this port (fresh launches + retransmissions).
    pub(crate) fn tx_packets(&self) -> u64 {
        self.tx_packets
    }

    /// Wire bytes launched on this port.
    pub(crate) fn tx_bytes(&self) -> u64 {
        self.tx_bytes
    }
}

/// A bounded input FIFO whose occupancy is mirrored by the credits held at
/// the upstream [`TxPort`].
#[derive(Clone, Debug)]
pub struct RxFifo {
    queue: VecDeque<Packet>,
    capacity: u32,
    high_water: u32,
}

impl RxFifo {
    /// Creates a FIFO holding at most `capacity` packets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "fifo capacity must be positive");
        RxFifo {
            queue: VecDeque::new(),
            capacity,
            high_water: 0,
        }
    }

    /// Accepts an arriving packet.
    ///
    /// # Errors
    ///
    /// [`LinkError::FifoOverflow`] on overflow — the upstream credit
    /// discipline makes overflow a neighbor-originated protocol violation;
    /// the packet is dropped and the violation reported to the owner.
    pub fn push(&mut self, packet: Packet) -> Result<(), LinkError> {
        if self.queue.len() as u32 >= self.capacity {
            return Err(LinkError::FifoOverflow {
                capacity: self.capacity,
            });
        }
        self.queue.push_back(packet);
        self.high_water = self.high_water.max(self.queue.len() as u32);
        Ok(())
    }

    /// The packet at the head, if any.
    pub(crate) fn head(&self) -> Option<&Packet> {
        self.queue.front()
    }

    /// Removes and returns the head packet.
    pub fn pop(&mut self) -> Option<Packet> {
        self.queue.pop_front()
    }

    /// Packets currently queued.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Deepest occupancy observed (for congestion reporting).
    pub(crate) fn high_water(&self) -> u32 {
        self.high_water
    }

    /// Removes every queued packet matching `pred`, preserving the order
    /// of the rest; returns the removed packets in queue order. Used when
    /// a route recompute orphans already-queued traffic — it must leave
    /// the FIFO (with its credits returned) rather than wedge it.
    pub(crate) fn drain_matching(&mut self, mut pred: impl FnMut(&Packet) -> bool) -> Vec<Packet> {
        let mut kept = VecDeque::with_capacity(self.queue.len());
        let mut out = Vec::new();
        for p in self.queue.drain(..) {
            if pred(&p) {
                out.push(p);
            } else {
                kept.push_back(p);
            }
        }
        self.queue = kept;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::RetxMode;
    use tg_wire::{GOffset, NodeId, WireMsg};

    /// The current adaptive retransmission timeout.
    fn current_rto(tx: &TxPort) -> Option<SimTime> {
        tx.rel.as_ref().map(|r| r.rto)
    }

    /// The smoothed round-trip estimate, once sampled.
    fn srtt(tx: &TxPort) -> Option<SimTime> {
        tx.rel.as_ref().and_then(|r| r.srtt).map(SimTime::from_ps)
    }

    /// Frames cumulatively acknowledged (no epoch resets in these tests).
    fn delivered(tx: &TxPort) -> u64 {
        tx.rel.as_ref().map_or(0, |r| r.base - 1)
    }

    fn dummy_comp_id() -> CompId {
        // CompId construction is private to tg-sim; engines assign them.
        // For port unit tests we only need *a* value, so take one from a
        // throwaway engine.
        struct Noop;
        impl tg_sim::Component<u32> for Noop {
            fn on_event(&mut self, _: u32, _: &mut tg_sim::Ctx<'_, u32>) {}
            fn name(&self) -> &str {
                "noop"
            }
        }
        let mut eng: tg_sim::Engine<u32> = tg_sim::Engine::new();
        eng.add(Noop)
    }

    fn pkt() -> Packet {
        Packet::new(
            NodeId::new(0),
            NodeId::new(1),
            WireMsg::WriteAck { tag: 0 },
            0,
        )
    }

    #[test]
    fn txport_credit_cycle() {
        let timing = TimingConfig::telegraphos_i();
        let mut tx = TxPort::new(dummy_comp_id(), 2, 1);
        assert!(tx.ready());
        let times = tx.launch(&pkt(), &timing);
        assert!(times.arrival > times.free);
        assert!(!tx.ready());
        tx.on_free();
        assert!(!tx.ready(), "still out of credits");
        tx.on_credit_at(SimTime::ZERO).unwrap();
        assert!(tx.ready());
    }

    #[test]
    fn txport_reports_duplicated_credit() {
        let mut tx = TxPort::new(dummy_comp_id(), 0, 2);
        assert_eq!(
            tx.on_credit_at(SimTime::ZERO),
            Err(LinkError::DuplicateCredit { allowance: 2 })
        );
        assert_eq!(tx.credits(), 2, "duplicate credit is not banked");
        assert_eq!(
            tx.on_credit_at(SimTime::from_ns(10)),
            Err(LinkError::DuplicateCredit { allowance: 2 })
        );
    }

    #[test]
    #[should_panic(expected = "busy or credit-less")]
    fn txport_rejects_early_launch() {
        let timing = TimingConfig::telegraphos_i();
        let mut tx = TxPort::new(dummy_comp_id(), 0, 1);
        let _ = tx.launch(&pkt(), &timing);
        let _ = tx.launch(&pkt(), &timing);
    }

    #[test]
    fn txport_serialization_scales_with_size() {
        let timing = TimingConfig::telegraphos_i();
        let mut tx = TxPort::new(dummy_comp_id(), 0, 2);
        let small = tx.launch(&pkt(), &timing);
        tx.on_free();
        let big_pkt = Packet {
            msg: WireMsg::CopyData {
                tag: 0,
                index: 0,
                vals: vec![0; 64].into(),
                last: true,
            },
            ..pkt()
        };
        let big = tx.launch(&big_pkt, &timing);
        assert!(big.free > small.free);
    }

    #[test]
    fn txport_accumulates_credit_stall_time() {
        let timing = TimingConfig::telegraphos_i();
        let mut tx = TxPort::new(dummy_comp_id(), 0, 1);
        let _ = tx.launch(&pkt(), &timing);
        tx.on_free();
        // Blocked from 100ns until the credit lands at 250ns.
        tx.note_blocked(SimTime::from_ns(100));
        tx.note_blocked(SimTime::from_ns(180)); // keeps the original start
        assert_eq!(tx.credit_stall(), SimTime::ZERO, "window still open");
        tx.on_credit_at(SimTime::from_ns(250)).unwrap();
        assert_eq!(tx.credit_stall(), SimTime::from_ns(150));
        // With a credit in hand, note_blocked is a no-op.
        tx.note_blocked(SimTime::from_ns(300));
        tx.on_free();
        let _ = tx.launch(&pkt(), &timing);
        tx.on_free();
        tx.on_credit_at(SimTime::from_ns(400)).unwrap();
        assert_eq!(tx.credit_stall(), SimTime::from_ns(150), "no phantom stall");
    }

    #[test]
    fn reliable_txport_frames_acks_and_drains() {
        let mut tx = TxPort::new(dummy_comp_id(), 0, 4);
        tx.enable_reliability(RelParams::default());
        assert!(tx.can_send_new());
        let a = tx.frame(pkt(), SimTime::ZERO);
        assert_eq!(a.link_seq, 1);
        assert!(a.checksum_ok());
        let b = tx.frame(pkt(), SimTime::ZERO);
        assert_eq!(b.link_seq, 2);
        assert_eq!(tx.unacked(), 2);
        tx.on_ack(1, 0, SimTime::from_ns(100));
        assert_eq!(tx.unacked(), 1);
        assert_eq!(delivered(&tx), 1);
        tx.on_ack(2, 0, SimTime::from_ns(200));
        assert_eq!(tx.unacked(), 0);
        assert!(!tx.has_retx_pending());
    }

    #[test]
    fn reliable_txport_goes_back_n_on_nack() {
        let mut tx = TxPort::new(dummy_comp_id(), 0, 8);
        tx.enable_reliability(RelParams::default());
        for _ in 0..3 {
            let _ = tx.frame(pkt(), SimTime::ZERO);
        }
        // Receiver saw a gap at 2: frames 2 and 3 must be resent.
        assert_eq!(tx.on_nack(2, 0, SimTime::ZERO), TimerAction::Retransmit);
        assert_eq!(delivered(&tx), 1, "NACK acks everything below it");
        assert!(tx.has_retx_pending());
        assert!(!tx.can_send_new(), "recovery outranks fresh traffic");
        assert_eq!(tx.take_retx().unwrap().link_seq, 2);
        assert_eq!(tx.take_retx().unwrap().link_seq, 3);
        assert!(tx.take_retx().is_none());
        assert_eq!(tx.retransmits(), 2);
        assert!(tx.retx_bytes() > 0, "retransmitted wire bytes counted");
        // A second NACK while already caught up retriggers the sweep.
        assert_eq!(tx.on_nack(2, 0, SimTime::ZERO), TimerAction::Retransmit);
        assert_eq!(tx.take_retx().unwrap().link_seq, 2);
    }

    #[test]
    fn sacked_frames_are_skipped_by_the_retransmit_sweep() {
        let mut tx = TxPort::new(dummy_comp_id(), 0, 8);
        tx.enable_reliability(RelParams {
            mode: RetxMode::Sack,
            ..RelParams::default()
        });
        for _ in 0..4 {
            let _ = tx.frame(pkt(), SimTime::ZERO);
        }
        // Frame 2 lost; receiver parked 3 and 4 (bits 1 and 2 relative
        // to ack 1) and nacks for 2.
        assert_eq!(tx.on_nack(2, 0b110, SimTime::ZERO), TimerAction::Retransmit);
        assert_eq!(tx.take_retx().unwrap().link_seq, 2, "only the gap resends");
        assert!(tx.take_retx().is_none(), "sacked 3 and 4 are skipped");
        assert_eq!(tx.retransmits(), 1);
        assert!(!tx.has_retx_pending());
        assert!(tx.can_send_new(), "sacked tail does not block fresh frames");
        // The receiver releases its window: one cumulative ack drains all.
        tx.on_ack(4, 0, SimTime::from_us(1));
        assert_eq!(tx.unacked(), 0);
        assert_eq!(delivered(&tx), 4);
    }

    #[test]
    fn ack_round_trips_adapt_the_rto_within_clamps() {
        let params = RelParams::default();
        let mut tx = TxPort::new(dummy_comp_id(), 0, 8);
        tx.enable_reliability(params);
        assert_eq!(current_rto(&tx), Some(params.retx_timeout));
        // A 1us round-trip: srtt=1us, rttvar=0.5us, rto=3us -> floor 5us.
        let _ = tx.frame(pkt(), SimTime::ZERO);
        tx.on_ack(1, 0, SimTime::from_us(1));
        assert_eq!(current_rto(&tx), Some(params.rto_min), "clamped to floor");
        assert_eq!(srtt(&tx), Some(SimTime::from_us(1)));
        // A huge round-trip pushes toward the ceiling.
        let t = SimTime::from_ms(1);
        let _ = tx.frame(pkt(), t);
        tx.on_ack(2, 0, t + SimTime::from_ms(2));
        assert_eq!(current_rto(&tx), Some(params.rto_max), "clamped to ceiling");
        // Retransmitted frames never feed the estimator (Karn).
        let t2 = SimTime::from_ms(10);
        let _ = tx.frame(pkt(), t2);
        assert_eq!(tx.on_nack(3, 0, t2), TimerAction::Retransmit);
        let _ = tx.take_retx().unwrap();
        let srtt_before = srtt(&tx);
        tx.on_ack(3, 0, t2 + SimTime::from_ms(5));
        assert_eq!(srtt(&tx), srtt_before, "ambiguous sample discarded");
    }

    #[test]
    fn ack_starvation_trips_at_half_the_retry_budget() {
        let params = RelParams {
            max_retries: 6,
            ..RelParams::default()
        };
        let mut tx = TxPort::new(dummy_comp_id(), 0, 4);
        tx.enable_reliability(params);
        let _ = tx.frame(pkt(), SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for round in 1..=3u32 {
            let (d, g) = tx.poll_timer(t).expect("armed");
            t += d;
            assert_eq!(tx.on_timer(g, t), TimerAction::Retransmit);
            let _ = tx.take_retx();
            assert_eq!(tx.consecutive_attempts(), round);
            assert_eq!(tx.ack_starved(), round >= 3, "trips at 3 of 6");
        }
        // Ack progress clears the alarm.
        tx.on_ack(1, 0, t);
        assert!(!tx.ack_starved());
        assert_eq!(tx.consecutive_attempts(), 0);
    }

    #[test]
    fn resync_probe_is_retried_when_the_reply_is_lost() {
        let timing = TimingConfig::telegraphos_i();
        let mut tx = TxPort::new(dummy_comp_id(), 0, 2);
        tx.enable_reliability(RelParams::default());
        let p = tx.frame(pkt(), SimTime::ZERO);
        let _ = tx.launch(&p, &timing);
        tx.on_free();
        tx.on_ack(1, 0, SimTime::from_ns(400));
        // The credit never returns; the first probe's reply is lost too.
        let mut t = SimTime::from_ns(500);
        let (d1, g1) = tx.poll_timer(t).expect("credit starvation arms resync");
        t += d1;
        let tok1 = match tx.on_timer(g1, t) {
            TimerAction::Resync { token } => token,
            other => panic!("expected resync, got {other:?}"),
        };
        // No reply arrives. The probe timer re-arms and fires again with
        // a fresh token instead of waiting forever.
        let (d2, g2) = tx.poll_timer(t).expect("probe re-arms while starved");
        t += d2;
        let tok2 = match tx.on_timer(g2, t) {
            TimerAction::Resync { token } => token,
            other => panic!("expected retried resync, got {other:?}"),
        };
        assert!(tok2 > tok1, "fresh token supersedes the silent probe");
        assert!(!tx.on_sync_ack(tok1, 1, t), "stale reply is ignored");
        assert!(tx.on_sync_ack(tok2, 1, t));
        assert_eq!(tx.credits(), 2);
    }

    #[test]
    fn reliable_txport_timer_backoff_and_death() {
        let params = RelParams {
            max_retries: 2,
            ..RelParams::default()
        };
        let mut tx = TxPort::new(dummy_comp_id(), 0, 4);
        tx.enable_reliability(params);
        let _ = tx.frame(pkt(), SimTime::ZERO);
        let t0 = SimTime::ZERO;
        let (d1, g1) = tx.poll_timer(t0).expect("unacked frame arms the timer");
        assert_eq!(d1, params.retx_timeout);
        assert!(tx.poll_timer(t0).is_none(), "timer already armed");
        let t1 = t0 + d1;
        assert_eq!(tx.on_timer(g1, t1), TimerAction::Retransmit);
        let (d2, g2) = tx.poll_timer(t1).unwrap();
        assert_eq!(d2, params.retx_timeout * 2, "exponential backoff");
        let t2 = t1 + d2;
        assert_eq!(tx.on_timer(g1, t2), TimerAction::Stale, "old generation");
        assert_eq!(tx.on_timer(g2, t2), TimerAction::Retransmit);
        let (d3, g3) = tx.poll_timer(t2).unwrap();
        match tx.on_timer(g3, t2 + d3) {
            TimerAction::Dead(LinkError::RetryExhausted { retries, stranded }) => {
                assert_eq!(retries, 2);
                assert_eq!(stranded, 1);
            }
            other => panic!("expected dead link, got {other:?}"),
        }
        assert!(tx.is_dead());
        assert!(
            tx.poll_timer(SimTime::from_us(99)).is_none(),
            "dead ports arm no timers"
        );
    }

    #[test]
    fn ack_progress_slides_the_deadline_without_rearming() {
        let params = RelParams::default();
        let mut tx = TxPort::new(dummy_comp_id(), 0, 4);
        tx.enable_reliability(params);
        let _ = tx.frame(pkt(), SimTime::ZERO);
        let _ = tx.frame(pkt(), SimTime::ZERO);
        let (d1, g1) = tx.poll_timer(SimTime::ZERO).expect("armed");
        assert_eq!(d1, params.retx_timeout);
        // Frame 1 acked halfway through the window: the pending timer
        // stays armed (no churn), but its deadline slides to cover frame 2
        // with a full (now RTT-adapted) timeout from the ack.
        let t_ack = params.retx_timeout / 2;
        tx.on_ack(1, 0, t_ack);
        let rto = current_rto(&tx).expect("reliable port has an RTO");
        assert!(tx.poll_timer(t_ack).is_none(), "timer still armed");
        // The original event fires early and must NOT retransmit.
        let t_fire = SimTime::ZERO + d1;
        assert_eq!(tx.on_timer(g1, t_fire), TimerAction::Stale);
        assert_eq!(tx.retransmits(), 0);
        // Re-arming picks up exactly the remainder of the slid deadline.
        let (d2, g2) = tx.poll_timer(t_fire).expect("re-armed for remainder");
        assert_eq!(t_fire + d2, t_ack + rto);
        // Left alone until the true deadline, it finally retransmits.
        assert_eq!(tx.on_timer(g2, t_fire + d2), TimerAction::Retransmit);
    }

    #[test]
    fn reliable_txport_resyncs_credits() {
        let timing = TimingConfig::telegraphos_i();
        let mut tx = TxPort::new(dummy_comp_id(), 0, 2);
        tx.enable_reliability(RelParams::default());
        // Launch two frames; both acked, but both credits get lost.
        for _ in 0..2 {
            let p = tx.frame(pkt(), SimTime::ZERO);
            let _ = tx.launch(&p, &timing);
            tx.on_free();
        }
        tx.on_ack(2, 0, SimTime::from_ns(400));
        assert_eq!(tx.credits(), 0);
        tx.note_blocked(SimTime::from_ns(500));
        let armed_at = SimTime::from_ns(500);
        let (delay, gen) = tx
            .poll_timer(armed_at)
            .expect("credit starvation arms resync");
        // The probe interval derives from the adaptive RTO (clamped to
        // the floor by the sub-microsecond ack round-trip): 4 * rto_min,
        // well under the configured resync_timeout ceiling.
        assert_eq!(delay, RelParams::default().rto_min * 4);
        assert!(delay < RelParams::default().resync_timeout);
        let token = match tx.on_timer(gen, armed_at + delay) {
            TimerAction::Resync { token } => token,
            other => panic!("expected resync, got {other:?}"),
        };
        // The receiver reports both frames drained: full allowance back.
        assert!(tx.on_sync_ack(token, 2, SimTime::from_us(50)));
        assert_eq!(tx.credits(), 2);
        assert!(tx.credit_stall() > SimTime::ZERO, "stall window closed");
        assert!(
            !tx.on_sync_ack(token, 2, SimTime::from_us(51)),
            "stale token"
        );
        // If only one frame had drained, the other still holds its slot.
        let mut tx2 = TxPort::new(dummy_comp_id(), 0, 2);
        tx2.enable_reliability(RelParams::default());
        for _ in 0..2 {
            let p = tx2.frame(pkt(), SimTime::ZERO);
            let _ = tx2.launch(&p, &timing);
            tx2.on_free();
        }
        tx2.on_ack(2, 0, SimTime::from_ns(400));
        tx2.note_blocked(SimTime::from_ns(500));
        let armed2 = SimTime::from_ns(500);
        let (d_resync, gen2) = tx2.poll_timer(armed2).unwrap();
        let token2 = match tx2.on_timer(gen2, armed2 + d_resync) {
            TimerAction::Resync { token } => token,
            other => panic!("expected resync, got {other:?}"),
        };
        assert!(tx2.on_sync_ack(token2, 1, SimTime::from_us(50)));
        assert_eq!(tx2.credits(), 1);
    }

    #[test]
    fn reset_epoch_abandons_stranded_frames_and_revives_the_link() {
        let timing = TimingConfig::telegraphos_i();
        let params = RelParams {
            max_retries: 1,
            ..RelParams::default()
        };
        let mut tx = TxPort::new(dummy_comp_id(), 0, 4);
        tx.enable_reliability(params);
        // Two frames launched into a crashed peer: no acks ever come,
        // the retry budget burns out, the link is declared dead.
        for _ in 0..2 {
            let p = tx.frame(pkt(), SimTime::ZERO);
            let _ = tx.launch(&p, &timing);
            tx.on_free();
        }
        let (d1, g1) = tx.poll_timer(SimTime::ZERO).expect("armed");
        assert_eq!(tx.on_timer(g1, d1), TimerAction::Retransmit);
        while tx.take_retx().is_some() {}
        let (d2, g2) = tx.poll_timer(d1).expect("re-armed");
        match tx.on_timer(g2, d1 + d2) {
            TimerAction::Dead(LinkError::RetryExhausted { stranded, .. }) => {
                assert_eq!(stranded, 2);
            }
            other => panic!("expected dead link, got {other:?}"),
        }
        assert!(tx.is_dead());
        assert_eq!(tx.credits(), 2);
        // The peer's heartbeats resume: start a fresh epoch.
        let next = tx.reset_epoch(SimTime::from_ms(1));
        assert_eq!(next, 3, "epoch resumes the sequence space");
        assert!(!tx.is_dead());
        assert_eq!(tx.unacked(), 0);
        assert_eq!(tx.credits(), 4, "full allowance restored");
        assert!(tx.can_send_new());
        assert_eq!(tx.consecutive_attempts(), 0);
        // The old epoch's timer generation is dead on arrival.
        assert_eq!(tx.on_timer(g2, SimTime::from_ms(2)), TimerAction::Stale);
        assert!(
            tx.poll_timer(SimTime::from_ms(2)).is_none(),
            "empty buffer and full credits arm nothing"
        );
        // Two stale pre-epoch credits straggle home: swallowed under the
        // grace budget; a third is a genuine protocol violation.
        assert_eq!(tx.on_credit_at(SimTime::ZERO), Ok(()));
        assert_eq!(tx.on_credit_at(SimTime::from_ms(3)), Ok(()));
        assert_eq!(tx.credits(), 4, "stale credits are not banked");
        assert_eq!(
            tx.on_credit_at(SimTime::ZERO),
            Err(LinkError::DuplicateCredit { allowance: 4 })
        );
        // The new epoch frames and delivers normally.
        let p = tx.frame(pkt(), SimTime::from_ms(4));
        assert_eq!(p.link_seq, 3);
        tx.on_ack(3, 0, SimTime::from_ms(5));
        assert_eq!(tx.unacked(), 0);
    }

    #[test]
    fn post_reset_resync_uses_epoch_relative_acks() {
        let timing = TimingConfig::telegraphos_i();
        let mut tx = TxPort::new(dummy_comp_id(), 0, 2);
        tx.enable_reliability(RelParams::default());
        // One delivered pre-crash frame, then the epoch resets (the
        // receiver zeroes its drain counter on the Reset it gets).
        let p = tx.frame(pkt(), SimTime::ZERO);
        let _ = tx.launch(&p, &timing);
        tx.on_free();
        tx.on_ack(1, 0, SimTime::from_ns(400));
        tx.on_credit_at(SimTime::ZERO).unwrap();
        let _ = tx.reset_epoch(SimTime::from_ms(1));
        // New epoch: one frame delivered and drained, but its credit is
        // lost — the resync probe must conclude exactly one credit is
        // outstanding, not be confused by the pre-epoch ack.
        let t = SimTime::from_ms(2);
        let p = tx.frame(pkt(), t);
        let _ = tx.launch(&p, &timing);
        tx.on_free();
        tx.on_ack(2, 0, t + SimTime::from_us(1));
        assert_eq!(tx.credits(), 1);
        let (d, gen) = tx.poll_timer(t + SimTime::from_us(1)).expect("resync");
        let token = match tx.on_timer(gen, t + SimTime::from_us(1) + d) {
            TimerAction::Resync { token } => token,
            other => panic!("expected resync, got {other:?}"),
        };
        // Receiver drained 1 frame *this epoch*: allowance fully home.
        assert!(tx.on_sync_ack(token, 1, t + SimTime::from_us(50)));
        assert_eq!(tx.credits(), 2);
    }

    #[test]
    fn rto_stays_clamped_under_pathological_rtt_samples() {
        // Satellite property: no sequence of RTT samples — zero delay,
        // absurdly huge, or violently alternating — may ever push the
        // adaptive RTO outside [rto_min, rto_max], and srtt stays sane.
        let params = RelParams::default();
        let mut tx = TxPort::new(dummy_comp_id(), 0, 64);
        tx.enable_reliability(params);
        let samples_ps: [u64; 12] = [
            0,
            0,
            u64::from(u32::MAX) * 1_000,
            1,
            10_000_000_000_000,
            1,
            0,
            5_000_000_000_000,
            2,
            9_999_999_999_999,
            0,
            3,
        ];
        let mut t = SimTime::ZERO;
        for (i, &rtt_ps) in samples_ps.iter().enumerate() {
            let seq = i as u64 + 1;
            let _ = tx.frame(pkt(), t);
            t += SimTime::from_ps(rtt_ps);
            tx.on_ack(seq, 0, t);
            let rto = current_rto(&tx).expect("reliable port has an RTO");
            assert!(
                rto >= params.rto_min && rto <= params.rto_max,
                "sample {i} ({rtt_ps}ps) pushed rto to {rto:?}"
            );
            let srtt = srtt(&tx).expect("sampled");
            assert!(srtt.as_ps() >= 1, "srtt floored at one picosecond");
            t += SimTime::from_ns(10);
        }
        // Karn's rule: an ack covering a retransmitted frame leaves the
        // estimator untouched even amid the pathological history.
        let _ = tx.frame(pkt(), t);
        assert_eq!(tx.on_nack(13, 0, t), TimerAction::Retransmit);
        let _ = tx.take_retx().unwrap();
        let srtt_before = srtt(&tx);
        let rto_before = current_rto(&tx);
        tx.on_ack(13, 0, t + SimTime::from_ms(100));
        assert_eq!(srtt(&tx), srtt_before, "ambiguous sample discarded");
        assert_eq!(current_rto(&tx), rto_before);
    }

    #[test]
    fn rxfifo_orders_and_counts() {
        let mut fifo = RxFifo::new(3);
        for i in 0..3u64 {
            fifo.push(Packet {
                msg: WireMsg::WriteReq {
                    addr: GOffset::new(i * 8),
                    val: i,
                    tag: 0,
                },
                ..pkt()
            })
            .unwrap();
        }
        assert_eq!(fifo.len(), 3);
        assert_eq!(fifo.high_water(), 3);
        let first = fifo.pop().unwrap();
        match first.msg {
            WireMsg::WriteReq { val, .. } => assert_eq!(val, 0),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(fifo.len(), 2);
    }

    #[test]
    fn rxfifo_overflow_is_reported_not_fatal() {
        let mut fifo = RxFifo::new(1);
        fifo.push(pkt()).unwrap();
        assert_eq!(
            fifo.push(pkt()),
            Err(LinkError::FifoOverflow { capacity: 1 })
        );
        assert_eq!(fifo.len(), 1, "offending packet dropped");
    }
}
