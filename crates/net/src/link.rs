//! Link-level reliability: receive-side verification state and the shared
//! protocol vocabulary.
//!
//! Telegraphos-class fabrics earn their "lossless, in-order" contract with
//! link-level error detection and retransmission (APEnet+ puts CRC +
//! retransmit directly on its torus links). This module models that layer:
//! every frame carries a per-link sequence number and a checksum
//! ([`Packet::seal`]); the receiving end of each link runs a [`LinkRx`]
//! that verifies checksum and sequencing and answers with cumulative
//! ACKs and NACKs. Two retransmit disciplines are selectable per fabric
//! ([`RetxMode`]): classic go-back-N, where any out-of-order frame is
//! discarded and the sender rewinds, and selective repeat (SACK), where
//! intact out-of-order frames are parked in a bounded reorder window and
//! acks carry a receipt bitmap so the sender retransmits only the frames
//! actually missing. Both commit byte-identical payload streams; SACK
//! just stops paying for every in-flight successor of a single lost
//! frame. The transmit-side state machine (retransmit buffer, adaptive
//! RTO, backoff, credit resync) lives in [`TxPort`](crate::TxPort).
//!
//! [`Packet::seal`]: tg_wire::Packet::seal

use std::collections::BTreeMap;
use std::fmt;

use tg_sim::SimTime;
use tg_wire::Packet;

/// A neighbor-originated protocol violation, reported instead of panicking:
/// a misbehaving (or fault-injected) peer must degrade the link, not wedge
/// the whole cluster.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkError {
    /// A credit was returned beyond the initial allowance.
    DuplicateCredit {
        /// The allowance that would have been exceeded.
        allowance: u32,
    },
    /// A frame arrived at a full input FIFO (credit protocol violated).
    FifoOverflow {
        /// The FIFO capacity that was exceeded.
        capacity: u32,
    },
    /// The retransmit budget for a frame was exhausted; the link is dead.
    RetryExhausted {
        /// Retries attempted before giving up.
        retries: u32,
        /// Frames stranded in the retransmit buffer.
        stranded: usize,
    },
    /// A credit-starved port's resync probes went unanswered for a full
    /// retry budget: the neighbor is totally silent and the link is dead.
    ProbeExhausted {
        /// Consecutive probes sent without a reply or a returned credit.
        probes: u32,
        /// Credits still missing from the allowance when the port gave up.
        missing: u32,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::DuplicateCredit { allowance } => {
                write!(
                    f,
                    "credit return exceeds the initial allowance of {allowance}"
                )
            }
            LinkError::FifoOverflow { capacity } => {
                write!(f, "input FIFO overflow: capacity {capacity} exceeded")
            }
            LinkError::RetryExhausted { retries, stranded } => {
                write!(
                    f,
                    "link dead: retransmit budget exhausted after {retries} retries \
                     ({stranded} frames stranded)"
                )
            }
            LinkError::ProbeExhausted { probes, missing } => {
                write!(
                    f,
                    "link dead: {probes} consecutive resync probes unanswered \
                     ({missing} credits never returned)"
                )
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Which retransmit discipline the link layer runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RetxMode {
    /// Go-back-N: receivers accept only the next in-order frame; a NACK
    /// rewinds the sender to retransmit everything unacknowledged.
    #[default]
    GoBackN,
    /// Selective repeat: receivers park intact out-of-order frames in a
    /// bounded reorder window and report them in an ack bitmap; the
    /// sender retransmits only the frames the bitmap says are missing.
    Sack,
}

/// Tuning of the link-level reliability protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RelParams {
    /// Initial retransmission timeout for the oldest unacknowledged
    /// frame, used until the first ack round-trip is sampled; from then
    /// on the adaptive Jacobson RTO (clamped to `rto_min..=rto_max`)
    /// takes over. Must comfortably exceed the link round-trip
    /// (serialization + propagation + ACK return), or the first frames
    /// retransmit spuriously.
    pub retx_timeout: SimTime,
    /// Per-frame retransmission budget; exhausting it declares the link
    /// dead ([`LinkError::RetryExhausted`]).
    pub max_retries: u32,
    /// Cap on the exponential backoff multiplier applied to the
    /// retransmit timeout across consecutive timeouts of the same frame.
    pub backoff_cap: u32,
    /// Ceiling on how long a port may sit credit-starved with traffic
    /// pending (and an empty retransmit buffer) before probing its
    /// neighbor with a credit-resync handshake. Once RTT samples exist
    /// the probe interval is derived from the adaptive RTO
    /// (`min(resync_timeout, 4 * rto)`), so lightly-loaded lossy links
    /// reclaim credits proportionally faster.
    pub resync_timeout: SimTime,
    /// The retransmit discipline ([`RetxMode::GoBackN`] by default).
    pub mode: RetxMode,
    /// Reorder-window size in frames for [`RetxMode::Sack`] (clamped to
    /// the 64-bit ack bitmap; ignored in go-back-N mode).
    pub sack_window: u32,
    /// Floor for the adaptive retransmission timeout. Must exceed the
    /// largest frame's round-trip or clean bulk traffic retransmits
    /// spuriously.
    pub rto_min: SimTime,
    /// Ceiling for the adaptive retransmission timeout (backoff may
    /// still multiply beyond it, bounded by `backoff_cap`).
    pub rto_max: SimTime,
}

impl Default for RelParams {
    fn default() -> Self {
        RelParams {
            retx_timeout: SimTime::from_us(10),
            max_retries: 16,
            backoff_cap: 8,
            resync_timeout: SimTime::from_us(40),
            mode: RetxMode::GoBackN,
            sack_window: 32,
            rto_min: SimTime::from_us(5),
            rto_max: SimTime::from_us(100),
        }
    }
}

impl RelParams {
    /// The default parameter set under the given retransmit mode.
    pub fn with_mode(mode: RetxMode) -> Self {
        RelParams {
            mode,
            ..RelParams::default()
        }
    }
}

/// What the receiving link layer decided about one arrived frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RxVerdict {
    /// In-order, intact: deliver to the input FIFO and send the
    /// cumulative ACK for `ack`. In SACK mode the arrival may have
    /// released buffered successors — drain [`LinkRx::take_ready`] into
    /// the FIFO after the frame itself; `ack` already covers them.
    Accept {
        /// Highest in-order sequence number received (covers any frames
        /// released from the reorder window by this arrival).
        ack: u64,
    },
    /// SACK mode: an intact out-of-order frame was parked in the reorder
    /// window (or was already there). Nothing enters the FIFO yet.
    Held {
        /// Highest in-order sequence number received.
        ack: u64,
        /// True when this arrival first exposed the gap at `ack + 1`:
        /// send a NACK for it (fast retransmit). Otherwise refresh the
        /// sender's view with an ACK carrying the grown bitmap.
        nack: bool,
        /// True when the frame was already parked (a spurious
        /// retransmit): it was discarded as a duplicate.
        dup: bool,
    },
    /// A duplicate of an already-accepted frame (a spurious retransmit):
    /// discard and re-send the cumulative ACK for `ack` so the sender's
    /// buffer drains.
    DupAck {
        /// Highest accepted sequence number.
        ack: u64,
    },
    /// Corrupt frame: discard and NACK asking for retransmission from
    /// `expected`.
    NackCorrupt {
        /// The sequence number expected next.
        expected: u64,
    },
    /// Sequence gap (an earlier frame was lost in flight): discard and
    /// NACK asking for retransmission from `expected`.
    NackGap {
        /// The sequence number expected next.
        expected: u64,
    },
    /// Sequence gap already NACKed: discard silently (suppresses NACK
    /// storms while a burst of in-flight frames drains).
    Discard,
}

/// Receive-side link-layer state for one input port: sequence
/// verification, checksum checking, NACK suppression, the SACK reorder
/// window, and the drain counter the credit-resync handshake reports.
#[derive(Clone, Debug)]
pub(crate) struct LinkRx {
    /// The retransmit discipline this receiver runs.
    mode: RetxMode,
    /// Reorder-window size in frames (SACK mode; ≤ 64 so the receipt
    /// bitmap covers the whole window).
    window: u64,
    /// Next in-order sequence number (frames are stamped from 1).
    expected: u64,
    /// Intact out-of-order frames parked until the gap fills (SACK
    /// mode). Keys are link sequence numbers in
    /// `expected + 1 .. expected + window`.
    buffer: BTreeMap<u64, Packet>,
    /// Frames released from the reorder window by the last in-order
    /// arrival, in sequence order, awaiting FIFO delivery.
    ready: Vec<Packet>,
    /// The gap we most recently NACKed; suppresses repeat NACKs for the
    /// same expected frame while in-flight traffic drains.
    nacked_for: Option<u64>,
    /// Total frames drained from the input FIFO on this link (monotone;
    /// reported by the credit-resync handshake).
    drained: u64,
    /// Frames discarded as corrupt.
    corrupt: u64,
    /// Frames discarded as duplicates.
    dups: u64,
    /// Frames discarded for a sequence gap.
    gaps: u64,
}

impl LinkRx {
    /// Fresh go-back-N state: expecting sequence 1.
    pub(crate) fn new() -> Self {
        LinkRx::with_mode(RetxMode::GoBackN, 0)
    }

    /// Fresh state under an explicit retransmit discipline. The SACK
    /// reorder window is clamped to the 64-frame bitmap.
    pub(crate) fn with_mode(mode: RetxMode, sack_window: u32) -> Self {
        LinkRx {
            mode,
            window: u64::from(sack_window.clamp(1, 64)),
            expected: 1,
            buffer: BTreeMap::new(),
            ready: Vec::new(),
            nacked_for: None,
            drained: 0,
            corrupt: 0,
            dups: 0,
            gaps: 0,
        }
    }

    /// Fresh state matching a parameter set.
    pub(crate) fn for_params(params: &RelParams) -> Self {
        LinkRx::with_mode(params.mode, params.sack_window)
    }

    /// Judges one arrived frame.
    pub(crate) fn accept(&mut self, packet: &Packet) -> RxVerdict {
        if !packet.checksum_ok() {
            self.corrupt += 1;
            // A corrupt frame's sequence number is untrustworthy; always
            // ask for retransmission from the expected frame.
            self.nacked_for = Some(self.expected);
            return RxVerdict::NackCorrupt {
                expected: self.expected,
            };
        }
        if packet.link_seq == self.expected {
            self.expected += 1;
            self.nacked_for = None;
            // The gap just closed; release any buffered successors in
            // sequence order.
            while let Some(p) = self.buffer.remove(&self.expected) {
                self.ready.push(p);
                self.expected += 1;
            }
            RxVerdict::Accept {
                ack: self.expected - 1,
            }
        } else if packet.link_seq < self.expected {
            self.dups += 1;
            RxVerdict::DupAck {
                ack: self.expected - 1,
            }
        } else if self.mode == RetxMode::Sack && packet.link_seq - self.expected < self.window {
            let ack = self.expected - 1;
            if self.buffer.contains_key(&packet.link_seq) {
                self.dups += 1;
                return RxVerdict::Held {
                    ack,
                    nack: false,
                    dup: true,
                };
            }
            self.buffer.insert(packet.link_seq, packet.clone());
            let nack = self.nacked_for != Some(self.expected);
            if nack {
                self.nacked_for = Some(self.expected);
            }
            RxVerdict::Held {
                ack,
                nack,
                dup: false,
            }
        } else {
            self.gaps += 1;
            if self.nacked_for == Some(self.expected) {
                RxVerdict::Discard
            } else {
                self.nacked_for = Some(self.expected);
                RxVerdict::NackGap {
                    expected: self.expected,
                }
            }
        }
    }

    /// Drains the frames released from the reorder window by the last
    /// in-order arrival, in sequence order.
    pub(crate) fn take_ready(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.ready)
    }

    /// The selective-ack bitmap relative to the cumulative ack: bit `i`
    /// set means frame `ack + 1 + i` is parked in the reorder window
    /// (bit 0 is always clear — `ack + 1` is the missing frame). Zero
    /// in go-back-N mode.
    pub(crate) fn sack_bits(&self) -> u64 {
        let mut bits = 0u64;
        for &seq in self.buffer.keys() {
            bits |= 1 << (seq - self.expected);
        }
        bits
    }

    /// Frames currently parked in the reorder window (must be zero at
    /// quiescence — a non-empty window means a gap never filled).
    pub(crate) fn reorder_depth(&self) -> usize {
        self.buffer.len()
    }

    /// Records one frame drained from the input FIFO (its credit is being
    /// returned upstream).
    pub(crate) fn on_drain(&mut self) {
        self.drained += 1;
    }

    /// Total frames drained on this link.
    pub(crate) fn drained(&self) -> u64 {
        self.drained
    }

    /// Frames discarded as corrupt so far.
    pub(crate) fn corrupt_discards(&self) -> u64 {
        self.corrupt
    }

    /// Frames discarded as duplicates or gaps so far.
    pub(crate) fn seq_discards(&self) -> u64 {
        self.dups + self.gaps
    }

    /// Frames that arrived beyond the reorder window (or in go-back-N
    /// mode, past the expected frame) and were NACKed back for
    /// retransmission rather than parked. A non-zero count under a small
    /// SACK window shows the overflow path ran — the frame was asked for
    /// again, never silently dropped.
    pub(crate) fn gap_discards(&self) -> u64 {
        self.gaps
    }

    /// Applies a link-epoch reset from the sender ([`CtrlMsg::Reset`]):
    /// reseats the expected sequence number at `next`, flushes any
    /// parked reorder frames and pending releases (the sender abandoned
    /// everything before `next`), clears NACK suppression, and zeroes
    /// the drain counter so post-reset credit resyncs account only the
    /// new epoch. Idempotent for repeated resets carrying the same
    /// `next`. Returns the number of frames flushed.
    ///
    /// [`CtrlMsg::Reset`]: tg_wire::CtrlMsg::Reset
    pub(crate) fn on_reset(&mut self, next: u64) -> usize {
        let flushed = self.buffer.len() + self.ready.len();
        self.buffer.clear();
        self.ready.clear();
        self.expected = next;
        self.nacked_for = None;
        self.drained = 0;
        flushed
    }
}

impl Default for LinkRx {
    fn default() -> Self {
        LinkRx::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_wire::{NodeId, WireMsg};

    fn frame(seq: u64) -> Packet {
        let mut p = Packet::new(
            NodeId::new(0),
            NodeId::new(1),
            WireMsg::WriteAck { tag: 0 },
            seq,
        );
        p.link_seq = seq;
        p.seal();
        p
    }

    #[test]
    fn in_order_frames_are_accepted_and_acked() {
        let mut rx = LinkRx::new();
        for seq in 1..=5 {
            assert_eq!(rx.accept(&frame(seq)), RxVerdict::Accept { ack: seq });
        }
        assert_eq!(rx.seq_discards(), 0);
    }

    #[test]
    fn gap_nacks_once_then_discards_silently() {
        let mut rx = LinkRx::new();
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
        // Frame 2 was lost; 3, 4, 5 arrive.
        assert_eq!(rx.accept(&frame(3)), RxVerdict::NackGap { expected: 2 });
        assert_eq!(rx.accept(&frame(4)), RxVerdict::Discard);
        assert_eq!(rx.accept(&frame(5)), RxVerdict::Discard);
        // The go-back-N retransmission arrives in order.
        assert_eq!(rx.accept(&frame(2)), RxVerdict::Accept { ack: 2 });
        assert_eq!(rx.accept(&frame(3)), RxVerdict::Accept { ack: 3 });
    }

    #[test]
    fn duplicates_are_reacked_cumulatively() {
        let mut rx = LinkRx::new();
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
        assert_eq!(rx.accept(&frame(2)), RxVerdict::Accept { ack: 2 });
        assert_eq!(rx.accept(&frame(1)), RxVerdict::DupAck { ack: 2 });
        assert_eq!(rx.seq_discards(), 1);
    }

    #[test]
    fn corrupt_frames_are_nacked() {
        let mut rx = LinkRx::new();
        let mut bad = frame(1);
        bad.checksum ^= 0x10;
        assert_eq!(rx.accept(&bad), RxVerdict::NackCorrupt { expected: 1 });
        assert_eq!(rx.corrupt_discards(), 1);
        // The clean retransmission is accepted.
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
    }

    #[test]
    fn drain_counter_is_monotone() {
        let mut rx = LinkRx::new();
        rx.on_drain();
        rx.on_drain();
        assert_eq!(rx.drained(), 2);
    }

    #[test]
    fn sack_parks_out_of_order_frames_and_releases_in_sequence() {
        let mut rx = LinkRx::with_mode(RetxMode::Sack, 32);
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
        // Frame 2 lost; 3, 4, 5 arrive intact out of order.
        assert_eq!(
            rx.accept(&frame(3)),
            RxVerdict::Held {
                ack: 1,
                nack: true,
                dup: false
            }
        );
        assert_eq!(
            rx.accept(&frame(4)),
            RxVerdict::Held {
                ack: 1,
                nack: false,
                dup: false
            }
        );
        assert_eq!(
            rx.accept(&frame(5)),
            RxVerdict::Held {
                ack: 1,
                nack: false,
                dup: false
            }
        );
        // Bit i relative to ack=1: frames 3,4,5 are bits 1,2,3.
        assert_eq!(rx.sack_bits(), 0b1110);
        assert_eq!(rx.reorder_depth(), 3);
        assert_eq!(rx.seq_discards(), 0, "parked frames are not discards");
        // The selective retransmission of 2 releases the whole window.
        assert_eq!(rx.accept(&frame(2)), RxVerdict::Accept { ack: 5 });
        let released: Vec<u64> = rx.take_ready().iter().map(|p| p.link_seq).collect();
        assert_eq!(released, vec![3, 4, 5]);
        assert_eq!(rx.sack_bits(), 0);
        assert_eq!(rx.reorder_depth(), 0);
    }

    #[test]
    fn sack_window_overflow_nacks_instead_of_parking() {
        // Regression: a frame landing beyond the configured reorder
        // window must be NACKed back for retransmission, never parked
        // past the bitmap or silently dropped.
        let mut rx = LinkRx::with_mode(RetxMode::Sack, 2);
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
        // Expected is 2; frame 3 sits one slot ahead — inside the
        // 2-frame window — and parks.
        assert_eq!(
            rx.accept(&frame(3)),
            RxVerdict::Held {
                ack: 1,
                nack: true,
                dup: false
            }
        );
        // Frame 4 would need slot expected+2: past the window. The NACK
        // for 2 is already outstanding, so it discards (counted), and a
        // later overflow after the gap closes raises a fresh NACK.
        assert_eq!(rx.accept(&frame(4)), RxVerdict::Discard);
        assert_eq!(rx.gap_discards(), 1, "overflow counted as a gap");
        assert_eq!(rx.reorder_depth(), 1, "overflow frame was not parked");
        // Retransmitted 2 closes the gap and releases 3.
        assert_eq!(rx.accept(&frame(2)), RxVerdict::Accept { ack: 3 });
        assert_eq!(
            rx.take_ready()
                .iter()
                .map(|p| p.link_seq)
                .collect::<Vec<_>>(),
            vec![3]
        );
        // Now expected is 4; an overflow with no outstanding NACK must
        // speak up, not stay silent.
        assert_eq!(rx.accept(&frame(6)), RxVerdict::NackGap { expected: 4 });
        assert_eq!(rx.gap_discards(), 2);
    }

    #[test]
    fn sack_duplicate_parked_frame_is_discarded() {
        let mut rx = LinkRx::with_mode(RetxMode::Sack, 32);
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
        assert_eq!(
            rx.accept(&frame(3)),
            RxVerdict::Held {
                ack: 1,
                nack: true,
                dup: false
            }
        );
        assert_eq!(
            rx.accept(&frame(3)),
            RxVerdict::Held {
                ack: 1,
                nack: false,
                dup: true
            }
        );
        assert_eq!(rx.seq_discards(), 1);
    }

    #[test]
    fn reset_reseats_the_epoch_and_flushes_the_window() {
        let mut rx = LinkRx::with_mode(RetxMode::Sack, 32);
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
        rx.on_drain();
        // Frame 2 lost, 3 and 4 parked; then the sender declares a new
        // epoch starting at 10 (it abandoned 2..=4 after a crash).
        rx.accept(&frame(3));
        rx.accept(&frame(4));
        assert_eq!(rx.on_reset(10), 2);
        assert_eq!(rx.reorder_depth(), 0);
        assert_eq!(rx.drained(), 0, "drain counter restarts with the epoch");
        // Pre-epoch retransmits are dups; the new epoch flows in order.
        assert_eq!(rx.accept(&frame(2)), RxVerdict::DupAck { ack: 9 });
        assert_eq!(rx.accept(&frame(10)), RxVerdict::Accept { ack: 10 });
        // Idempotent re-application.
        assert_eq!(rx.on_reset(10), 0);
        assert_eq!(rx.accept(&frame(10)), RxVerdict::Accept { ack: 10 });
    }

    #[test]
    fn sack_frames_beyond_the_window_fall_back_to_gap_nacks() {
        let mut rx = LinkRx::with_mode(RetxMode::Sack, 4);
        assert_eq!(rx.accept(&frame(1)), RxVerdict::Accept { ack: 1 });
        // Window covers offsets 1..4 from expected=2: seq 3..=5 park.
        assert_eq!(
            rx.accept(&frame(5)),
            RxVerdict::Held {
                ack: 1,
                nack: true,
                dup: false
            }
        );
        // Offset 4 is outside: classic gap handling, already nacked.
        assert_eq!(rx.accept(&frame(6)), RxVerdict::Discard);
        assert_eq!(rx.seq_discards(), 1);
    }
}
