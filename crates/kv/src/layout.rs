//! Shared-page layouts and single-word message encodings.
//!
//! Every protocol message is **one 64-bit word**. Remote writes on the
//! fabric are single-word packets, so a one-word message is applied
//! atomically at the destination; a multi-word message could tear if the
//! words raced each other through a route recomputation. Packing the
//! whole request (and the whole ack) into one word removes every
//! ordering assumption beyond what the memory system itself gives us —
//! which is exactly the robustness posture this service is for.
//!
//! The pages:
//!
//! - **Mailbox** `M_r`, one per replica, homed on the replica: word `c`
//!   is client `c`'s request slot. Clients post requests with remote
//!   writes; the server sweeps the page locally.
//! - **Ack page** `A_c`, one per client, homed on the client: word `r`
//!   is replica `r`'s ack slot. Servers post acks with remote writes;
//!   the client polls locally.
//! - **Store** `E_r`, one per replica, homed on the replica and
//!   eager-update mapped to the other replicas: word `k` is key `k`'s
//!   **stamp** — the request id of the put that wrote it. Put payloads
//!   are the deterministic function [`value_of`]`(client, req)`, so the
//!   stamp *is* the value; carrying an opaque payload word would ride
//!   the same posted-write path and prove nothing further, while
//!   reintroducing the torn-write hazard.
//! - **Directory**, one page on node 0: word `g` is range `g`'s owner
//!   (raw node id), word `ranges + g` its failover epoch. Clients move
//!   ownership with remote atomics; servers validate it with remote
//!   reads before committing.

/// Bits in a request id (per client). ~1M requests per client.
pub(crate) const REQ_BITS: u32 = 20;
/// Bits in a key. 64Ki keys service-wide.
pub(crate) const KEY_BITS: u32 = 16;
/// Bits in an attempt counter (saturating; only freshness matters).
pub(crate) const ATTEMPT_BITS: u32 = 6;

const REQ_MASK: u64 = (1 << REQ_BITS) - 1;
const KEY_MASK: u64 = (1 << KEY_BITS) - 1;
const ATTEMPT_MASK: u64 = (1 << ATTEMPT_BITS) - 1;

/// Request kind carried in a request word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum OpKindKv {
    /// Write `value_of(client, req)` to the key.
    Put,
    /// Read the key's current stamp.
    Get,
}

/// Ack status carried in an ack word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AckCode {
    /// Committed (put) or served (get; stamp field holds the result).
    Ok,
    /// Shed by admission control: retry after backoff.
    Busy,
    /// The serving replica no longer owns the key's range: refresh the
    /// directory and re-route.
    NotOwner,
}

/// A decoded request word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ReqWord {
    /// Per-client request id, starting at 1 (0 is "empty slot").
    pub(crate) req: u32,
    /// Attempt number of this transmission (0 = first send).
    pub(crate) attempt: u32,
    /// Put or get.
    pub(crate) op: OpKindKv,
    /// Target key.
    pub(crate) key: u32,
}

/// A decoded ack word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct AckWord {
    /// The request this ack answers.
    pub(crate) req: u32,
    /// Outcome code.
    pub(crate) code: AckCode,
    /// The attempt of the request transmission this ack answers, echoed
    /// from the request word. `Ok` is terminal and accepted regardless,
    /// but `Busy`/`NotOwner` only steer the client when they answer the
    /// *latest* transmission — without the echo, a fresh shed of attempt
    /// `k+1` would be bit-identical to the stale shed of attempt `k`.
    pub(crate) attempt: u32,
    /// For `Ok` gets: the key's merged stamp (0 = never written). For
    /// `Ok` puts: the committed stamp (== `req`). Otherwise 0.
    pub(crate) stamp: u32,
}

/// Encodes a request into its slot word. Bit 0 is a presence flag so an
/// empty (zeroed) slot can never decode as a request.
pub(crate) fn enc_req(r: ReqWord) -> u64 {
    let op = match r.op {
        OpKindKv::Put => 0u64,
        OpKindKv::Get => 1u64,
    };
    1 | (op << 1)
        | ((u64::from(r.attempt) & ATTEMPT_MASK) << 2)
        | ((u64::from(r.req) & REQ_MASK) << 8)
        | ((u64::from(r.key) & KEY_MASK) << 28)
}

/// Decodes a request slot word; `None` for an empty slot.
pub(crate) fn dec_req(w: u64) -> Option<ReqWord> {
    if w & 1 == 0 {
        return None;
    }
    Some(ReqWord {
        req: ((w >> 8) & REQ_MASK) as u32,
        attempt: ((w >> 2) & ATTEMPT_MASK) as u32,
        op: if (w >> 1) & 1 == 0 {
            OpKindKv::Put
        } else {
            OpKindKv::Get
        },
        key: ((w >> 28) & KEY_MASK) as u32,
    })
}

/// Encodes an ack into its slot word (bit 0 = presence, as for requests).
pub(crate) fn enc_ack(a: AckWord) -> u64 {
    let code = match a.code {
        AckCode::Ok => 1u64,
        AckCode::Busy => 2,
        AckCode::NotOwner => 3,
    };
    1 | (code << 1)
        | ((u64::from(a.attempt) & ATTEMPT_MASK) << 3)
        | ((u64::from(a.req) & REQ_MASK) << 9)
        | ((u64::from(a.stamp) & REQ_MASK) << 29)
}

/// Decodes an ack slot word; `None` for an empty slot or a corrupt code.
pub(crate) fn dec_ack(w: u64) -> Option<AckWord> {
    if w & 1 == 0 {
        return None;
    }
    let code = match (w >> 1) & 0b11 {
        1 => AckCode::Ok,
        2 => AckCode::Busy,
        3 => AckCode::NotOwner,
        _ => return None,
    };
    Some(AckWord {
        req: ((w >> 9) & REQ_MASK) as u32,
        code,
        attempt: ((w >> 3) & ATTEMPT_MASK) as u32,
        stamp: ((w >> 29) & REQ_MASK) as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_words_round_trip() {
        for (req, attempt, op, key) in [
            (1, 0, OpKindKv::Put, 0),
            (0xF_FFFF, 63, OpKindKv::Get, 0xFFFF),
            (512, 7, OpKindKv::Get, 31),
        ] {
            let w = enc_req(ReqWord {
                req,
                attempt,
                op,
                key,
            });
            assert_eq!(
                dec_req(w),
                Some(ReqWord {
                    req,
                    attempt,
                    op,
                    key
                })
            );
        }
        assert_eq!(dec_req(0), None, "a zeroed slot is empty");
    }

    #[test]
    fn ack_words_round_trip_and_reject_corruption() {
        for (req, code, attempt, stamp) in [
            (1, AckCode::Ok, 0, 1),
            (77, AckCode::Busy, 5, 0),
            (0xF_FFFF, AckCode::NotOwner, 63, 0),
            (9, AckCode::Ok, 12, 0xF_FFFF),
        ] {
            let w = enc_ack(AckWord {
                req,
                code,
                attempt,
                stamp,
            });
            assert_eq!(
                dec_ack(w),
                Some(AckWord {
                    req,
                    code,
                    attempt,
                    stamp
                })
            );
        }
        assert_eq!(dec_ack(0), None);
        assert_eq!(dec_ack(1), None, "code 0 with the flag set is corrupt");
        let fresh = enc_ack(AckWord {
            req: 4,
            code: AckCode::Busy,
            attempt: 1,
            stamp: 0,
        });
        let stale = enc_ack(AckWord {
            req: 4,
            code: AckCode::Busy,
            attempt: 0,
            stamp: 0,
        });
        assert_ne!(fresh, stale, "retransmission sheds are distinguishable");
    }
}
