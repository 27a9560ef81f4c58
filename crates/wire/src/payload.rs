//! Shared, recyclable packet payloads.
//!
//! Data-carrying messages ([`CopyData`](crate::WireMsg::CopyData),
//! [`PageData`](crate::WireMsg::PageData)) used to own a bare `Vec<u64>`,
//! which put a heap allocation on the launch→switch→commit path for every
//! burst — and a second one per hop on reliable links, whose transmit
//! ports keep a retransmission copy of each in-flight frame.
//!
//! [`Payload`] wraps the word vector in an `Rc`, so the retransmission
//! copy (and any fan-out copy a switch makes) is a reference-count bump
//! instead of a fresh allocation. [`PayloadPool`] is a freelist on top:
//! producers take a recycled buffer, fill it and seal it; consumers hand
//! the payload back after committing it to memory, and if no clone is
//! still in flight the buffer's capacity is reused for the next burst.
//!
//! Equality, hashing and `Debug` all delegate to the inner `Vec<u64>`, so
//! wrapping is invisible to the frame checksum (which hashes the whole
//! message) and to rendered traces — a hard requirement, because
//! `tg trace` output is pinned byte-identical across engine changes.

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// An immutable, cheaply clonable block of payload words.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Payload(Rc<Vec<u64>>);

impl Payload {
    /// Wraps an owned vector (no pooling; see [`PayloadPool::seal`]).
    pub fn new(vals: Vec<u64>) -> Self {
        Payload(Rc::new(vals))
    }

    /// The payload words.
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }
}

impl Deref for Payload {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.0
    }
}

impl From<Vec<u64>> for Payload {
    fn from(vals: Vec<u64>) -> Self {
        Payload::new(vals)
    }
}

/// Renders exactly like the inner `Vec<u64>`, so message `Debug` output
/// (and therefore rendered traces) is unchanged by the wrapper.
impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A freelist of payload buffers.
///
/// Not shared between components — each producer (a HIB's copy engine, a
/// VSM node) owns one, recycling its own consumed buffers. Pooling only
/// reuses `Vec` capacity; values are always written fresh, so it cannot
/// affect simulation results.
#[derive(Debug, Default)]
pub struct PayloadPool {
    free: Vec<Vec<u64>>,
    /// Buffers handed back whose words are still referenced elsewhere
    /// (e.g. a retransmission copy in flight); dropped instead of reused.
    misses: u64,
    hits: u64,
}

/// Retain at most this many idle buffers; beyond that, recycled buffers
/// are simply dropped.
const POOL_CAP: usize = 64;

impl PayloadPool {
    /// An empty pool.
    pub fn new() -> Self {
        PayloadPool::default()
    }

    /// Takes an empty buffer, reusing recycled capacity when available.
    pub fn take(&mut self) -> Vec<u64> {
        self.free.pop().unwrap_or_default()
    }

    /// Seals a filled buffer into an immutable [`Payload`].
    pub fn seal(&mut self, vals: Vec<u64>) -> Payload {
        Payload::new(vals)
    }

    /// Returns a consumed payload's buffer to the freelist. A no-op (plain
    /// drop) when a clone of the payload is still alive — a retransmission
    /// copy buffered by a reliable link, for example.
    pub fn recycle(&mut self, payload: Payload) {
        match Rc::try_unwrap(payload.0) {
            Ok(mut vals) if self.free.len() < POOL_CAP => {
                vals.clear();
                self.free.push(vals);
                self.hits += 1;
            }
            Ok(_) => self.hits += 1,
            Err(_) => self.misses += 1,
        }
    }

    /// `(exclusively owned, still shared)` recycle counts, for tests and
    /// diagnostics.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of<H: Hash>(v: &H) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// The wrapper must be invisible to the frame checksum: hashing a
    /// payload produces exactly the byte stream of hashing the vector.
    #[test]
    fn hashes_and_debugs_like_the_inner_vec() {
        let v = vec![1u64, 2, 0, u64::MAX];
        let p = Payload::new(v.clone());
        assert_eq!(hash_of(&p), hash_of(&v));
        assert_eq!(format!("{p:?}"), format!("{v:?}"));
        assert_eq!(p.as_slice(), &v[..]);
    }

    #[test]
    fn clones_share_storage() {
        let p = Payload::new(vec![7; 8]);
        let q = p.clone();
        assert!(std::ptr::eq(p.as_slice(), q.as_slice()));
        assert_eq!(p, q);
    }

    #[test]
    fn pool_reuses_capacity_of_exclusive_buffers() {
        let mut pool = PayloadPool::new();
        let mut buf = pool.take();
        buf.extend_from_slice(&[1, 2, 3]);
        let cap_ptr = buf.as_ptr();
        let p = pool.seal(buf);
        pool.recycle(p);
        assert_eq!(pool.stats(), (1, 0));
        let again = pool.take();
        assert!(again.is_empty());
        assert_eq!(again.as_ptr(), cap_ptr);
    }

    #[test]
    fn pool_drops_buffers_that_are_still_shared() {
        let mut pool = PayloadPool::new();
        let p = pool.seal(vec![9; 4]);
        let keep = p.clone();
        pool.recycle(p);
        assert_eq!(pool.stats(), (0, 1));
        // The surviving clone still reads its words.
        assert_eq!(keep.as_slice(), &[9, 9, 9, 9]);
        // A fresh take is a new buffer, not the shared one.
        assert!(pool.take().is_empty());
    }
}
