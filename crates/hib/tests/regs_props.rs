//! Randomized tests for the launch encodings: shadow-store arguments and
//! context register decoding must round-trip for every representable
//! input — a malformed encoding here would let a process reach another
//! process's context (the §2.2.5 security argument). Cases come from a
//! seeded [`tg_sim::SimRng`] so the sweep is deterministic and
//! dependency-free.

use tg_hib::regs::{decode_ctx_reg, reg, ShadowArg};
use tg_sim::SimRng;

#[test]
fn shadow_arg_round_trips() {
    let mut rng = SimRng::new(0x51AD);
    for _ in 0..1024 {
        let a = ShadowArg {
            ctx: rng.next_u64() as u16,
            key: rng.next_u64() as u32,
            slot: rng.range(2) as u16,
        };
        let decoded = ShadowArg::decode(a.encode());
        assert_eq!(decoded, a);
    }
}

#[test]
fn shadow_arg_fields_do_not_bleed() {
    let mut rng = SimRng::new(0xB1EED);
    for _ in 0..1024 {
        // Two different argument tuples (restricted to the encodable slot
        // width) encode differently.
        let a = (
            rng.next_u64() as u16,
            rng.next_u64() as u32,
            rng.range(2) as u16,
        );
        let b = (
            rng.next_u64() as u16,
            rng.next_u64() as u32,
            rng.range(2) as u16,
        );
        let (sa, sb) = (
            ShadowArg {
                ctx: a.0,
                key: a.1,
                slot: a.2,
            },
            ShadowArg {
                ctx: b.0,
                key: b.1,
                slot: b.2,
            },
        );
        if a != b {
            assert_ne!(sa.encode(), sb.encode());
        }
    }
}

#[test]
fn ctx_reg_decode_inverts_the_layout() {
    let mut rng = SimRng::new(0x1A707);
    for _ in 0..1024 {
        let ctx = rng.range(256);
        let slot = rng.range(8);
        let regno = reg::CTX_BASE + ctx * reg::CTX_STRIDE + slot * 8;
        assert_eq!(decode_ctx_reg(regno), Some((ctx as usize, slot)));
    }
}

#[test]
fn unaligned_ctx_regs_are_rejected() {
    let mut rng = SimRng::new(0x0FF5E7);
    for _ in 0..1024 {
        let ctx = rng.range(64);
        let slot = rng.range(8);
        let off = 1 + rng.range(7);
        let regno = reg::CTX_BASE + ctx * reg::CTX_STRIDE + slot * 8 + off;
        assert_eq!(decode_ctx_reg(regno), None);
    }
}

#[test]
fn low_registers_never_decode_as_contexts() {
    let mut rng = SimRng::new(0x10);
    for _ in 0..1024 {
        let regno = rng.range(reg::CTX_BASE);
        assert_eq!(decode_ctx_reg(regno), None);
    }
}
