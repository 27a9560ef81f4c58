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
//! nack/timeout, the resync handshake re-probes with a fresh token), so
//! a discard never needs a control-plane retransmit of its own.

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
    /// Liveness digest: once per beacon period every element (HIB and
    /// switch) sends one on each attached link, carrying the newest
    /// beacon sequence number it has heard from every origin (a HIB's
    /// own entry is its own beacon count). Receivers merge it into their
    /// own table; an origin whose number advanced is alive. Digests are
    /// ordinary control traffic: the fault injector drops them on links
    /// into a crashed fault domain, which is exactly how silence — and
    /// therefore failure detection — propagates.
    Heartbeat {
        /// Newest sequence number per origin, indexed by node; 0 means
        /// never heard. Shared with the sender's table snapshot, so a
        /// frame costs no allocation.
        newest: Rc<[u64]>,
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

impl CtrlMsg {}

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
        match &self.msg {
            // A word at a time: the derived slice hash would feed the
            // digest's table to the hasher byte by byte.
            CtrlMsg::Heartbeat { newest } => newest.iter().for_each(|&w| h.write_u64(w)),
            msg => msg.hash(&mut h),
        }
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
            CtrlMsg::Heartbeat {
                newest: Rc::from([0, 9, 4].as_slice()),
            },
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
        let digest = |newest: [u64; 3]| {
            CtrlFrame::seal(CtrlMsg::Heartbeat {
                newest: Rc::from(newest.as_slice()),
            })
        };
        assert_ne!(
            digest([1, 2, 3]).checksum,
            digest([1, 2, 4]).checksum,
            "the checksum covers every digest entry"
        );
    }
}
