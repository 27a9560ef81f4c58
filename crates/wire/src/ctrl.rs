//! Link-layer control frames: acks, nacks and the credit-resync
//! handshake as first-class wire traffic.
//!
//! Until reliability round 2 these travelled as bare engine events that
//! the fault injector could not touch — the classic "the control plane
//! is assumed incorruptible" shortcut. Real NIC link layers cannot make
//! that assumption, so control messages now ride in a [`CtrlFrame`]
//! carrying its own checksum: the injector may drop or bit-flip them
//! like any data frame, and receivers discard frames whose checksum no
//! longer verifies (counting the discard so trace reconciliation stays
//! exact).
//!
//! Control frames carry no payload words; their loss is recovered by
//! the sender-side machinery (retransmit timers regenerate acks via
//! nack/timeout, the resync handshake re-probes with a fresh token, the
//! next idle period sends another keepalive). The verdict notice is the
//! one control frame re-sent until its receiver acknowledges it.

use std::hash::{Hash, Hasher};
use std::rc::Rc;

use crate::msg::Fnv1a;

/// The control-plane message set of the link-level reliability
/// protocol. Everything a reliable hop sends that is not a data frame.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CtrlMsg {
    /// Cumulative acknowledgement: every frame with `link_seq <= seq`
    /// arrived. `sack` is the selective-ack bitmap relative to `seq`:
    /// bit `i` set means frame `seq + 1 + i` is buffered out of order
    /// at the receiver. Bit 0 is always clear — frame `seq + 1` is by
    /// definition the one still missing. Always zero in go-back-N mode.
    Ack {
        /// Highest in-order sequence number received.
        seq: u64,
        /// Out-of-order receipt bitmap relative to `seq` (SACK mode).
        sack: u64,
    },
    /// Negative acknowledgement: the receiver is missing `expected`
    /// (sequence gap or corrupt frame). Carries the same selective-ack
    /// bitmap as [`CtrlMsg::Ack`], relative to `expected - 1`.
    Nack {
        /// The sequence number the receiver needs next.
        expected: u64,
        /// Out-of-order receipt bitmap relative to `expected - 1`.
        sack: u64,
    },
    /// Credit-resync probe: "how many frames have you drained?".
    /// Idempotent — a pure read of the receiver's monotone drain
    /// counter, so duplicates and stale retries are harmless.
    SyncReq {
        /// Probe token matching request to reply.
        token: u64,
    },
    /// Credit-resync reply carrying the receiver's drain counter.
    SyncAck {
        /// Token of the probe being answered.
        token: u64,
        /// Total frames the receiver has drained from its FIFO.
        drained: u64,
    },
    /// Liveness keepalive: an element sends one on a link only after a
    /// whole beacon period in which it launched nothing else there. Any
    /// frame a port receives is evidence that its neighbour lives, so a
    /// busy link needs none. Keepalives are ordinary control traffic:
    /// the fault injector drops them on links into a crashed fault
    /// domain, which is exactly how silence, and therefore failure
    /// detection, arises.
    Keepalive,
    /// Verdict notice, flooded by a switch over the surviving tree when
    /// one of its ports convicts (`Down`) or re-admits (`Up`) its
    /// neighbour, and re-sent on each link until that neighbour answers
    /// with [`CtrlMsg::NoticeAck`]. Every copy of the flood shares one
    /// [`Notice`], so the message stays as small as an ack.
    Notice(Rc<Notice>),
    /// Acknowledges the [`CtrlMsg::Notice`] `id` on this link.
    NoticeAck {
        /// The acknowledged notice.
        id: u64,
    },
    /// Link-epoch reset, sent by a transmit port reviving after its
    /// peer was declared dead and came back: "forget everything before
    /// `next`". The receiver reseats its expected sequence number at
    /// `next`, flushes any parked reorder frames, and zeroes its drain
    /// counter so post-revival credit resyncs account only the new
    /// epoch. Idempotent: re-applying the same reset is harmless.
    Reset {
        /// The first link sequence number of the new epoch.
        next: u64,
    },
}

/// What a verdict notice says: the verdict as the set it leaves, the
/// nodes the origin switch can no longer reach.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Notice {
    /// Origin switch in the high 32 bits, its notice count in the low:
    /// what the ack names and switches suppress duplicates by.
    pub id: u64,
    /// The fabric view's version at the verdict. A board applies a
    /// notice only if no newer one reached it first.
    pub version: u64,
    /// The nodes unreachable from the origin, ascending.
    pub unreachable: Vec<u16>,
}

/// A sealed control frame: a [`CtrlMsg`] plus its wire checksum.
///
/// Constructed with [`CtrlFrame::seal`]; receivers must check
/// [`CtrlFrame::checksum_ok`] before acting and discard (never act on)
/// frames that fail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CtrlFrame {
    /// The control message carried by the frame.
    pub msg: CtrlMsg,
    /// FNV-1a checksum over the message, folded to 32 bits (never 0,
    /// low bit always set — the same fold as data frames).
    pub checksum: u32,
}

impl CtrlFrame {
    /// Seals `msg` into a checksummed frame.
    pub fn seal(msg: CtrlMsg) -> Self {
        let mut f = CtrlFrame { msg, checksum: 0 };
        f.checksum = f.compute_checksum();
        f
    }

    /// The frame checksum over the message body — same FNV-1a fold as
    /// [`crate::Packet::compute_checksum`].
    pub(crate) fn compute_checksum(&self) -> u32 {
        let mut h = Fnv1a::default();
        self.msg.hash(&mut h);
        let v = h.finish();
        (((v >> 32) as u32) ^ (v as u32)) | 1
    }

    /// Verifies the wire checksum.
    pub fn checksum_ok(&self) -> bool {
        self.checksum == self.compute_checksum()
    }

    /// Flips a checksum bit — the canonical simulated corruption. The
    /// computed checksum always has its low bit set, so flipping bit 0
    /// and bit 31 together guarantees a mismatch.
    pub fn corrupt(&mut self) {
        self.checksum ^= 0x8000_0001;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_frames_verify_and_corruption_is_detected() {
        let msgs = [
            CtrlMsg::Ack {
                seq: 7,
                sack: 0b100,
            },
            CtrlMsg::Nack {
                expected: 3,
                sack: 0,
            },
            CtrlMsg::SyncReq { token: 1 },
            CtrlMsg::SyncAck {
                token: 1,
                drained: 42,
            },
            CtrlMsg::Keepalive,
            CtrlMsg::Notice(Rc::new(Notice {
                id: 1 << 32,
                version: 3,
                unreachable: vec![1, 4],
            })),
            CtrlMsg::NoticeAck { id: 1 << 32 },
            CtrlMsg::Reset { next: 17 },
        ];
        for msg in msgs {
            let mut f = CtrlFrame::seal(msg.clone());
            assert!(f.checksum_ok(), "{msg:?} fails its own checksum");
            f.corrupt();
            assert!(!f.checksum_ok(), "corrupted {msg:?} still verifies");
            f.corrupt();
            assert!(f.checksum_ok(), "double-flip must restore {msg:?}");
        }
    }

    #[test]
    fn distinct_messages_hash_to_distinct_checksums() {
        let a = CtrlFrame::seal(CtrlMsg::Ack { seq: 1, sack: 0 });
        let b = CtrlFrame::seal(CtrlMsg::Ack { seq: 2, sack: 0 });
        let c = CtrlFrame::seal(CtrlMsg::Ack { seq: 1, sack: 2 });
        assert_ne!(a.checksum, b.checksum);
        assert_ne!(a.checksum, c.checksum);
        assert_eq!(a.checksum & 1, 1, "fold keeps the low bit set");
        let notice = |unreachable: [u16; 2]| {
            CtrlFrame::seal(CtrlMsg::Notice(Rc::new(Notice {
                id: 7,
                version: 1,
                unreachable: unreachable.to_vec(),
            })))
        };
        assert_ne!(
            notice([1, 2]).checksum,
            notice([1, 3]).checksum,
            "the checksum covers every named node"
        );
    }
}
