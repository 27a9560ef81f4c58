//! Sparse word-addressed physical memory.

use tg_wire::{GOffset, IntMap, WORD_BYTES};

/// A sparse 64-bit-word memory, used both for each node's private DRAM and
/// for its exported shared segment. Unwritten words read as zero, like
/// freshly-mapped pages.
///
/// # Example
///
/// ```
/// use tg_mem::PhysMem;
/// use tg_wire::GOffset;
///
/// let mut m = PhysMem::new();
/// assert_eq!(m.read(GOffset::new(0)), 0);
/// m.write(GOffset::new(16), 99);
/// assert_eq!(m.read(GOffset::new(16)), 99);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhysMem {
    words: IntMap<u64, u64>,
}

impl PhysMem {
    /// An empty (all-zero) memory.
    pub fn new() -> Self {
        PhysMem::default()
    }

    /// Reads the word at a byte offset.
    ///
    /// # Panics
    ///
    /// Panics if `off` is not word-aligned — alignment is enforced at the
    /// MMU; reaching here unaligned is a model bug.
    pub fn read(&self, off: GOffset) -> u64 {
        assert!(off.is_word_aligned(), "unaligned read at {off}");
        self.words.get(&off.word_index()).copied().unwrap_or(0)
    }

    /// Writes the word at a byte offset.
    ///
    /// # Panics
    ///
    /// Panics if `off` is not word-aligned.
    pub fn write(&mut self, off: GOffset, val: u64) {
        assert!(off.is_word_aligned(), "unaligned write at {off}");
        if val == 0 {
            self.words.remove(&off.word_index());
        } else {
            self.words.insert(off.word_index(), val);
        }
    }

    /// Reads `words` consecutive words starting at `off`.
    pub fn read_block(&self, off: GOffset, words: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.read_block_into(off, words, &mut out);
        out
    }

    /// Reads `words` consecutive words starting at `off`, appending to
    /// `out` — lets callers reuse burst buffers instead of allocating.
    pub fn read_block_into(&self, off: GOffset, words: u64, out: &mut Vec<u64>) {
        out.extend((0..words).map(|i| self.read(off.add(i * WORD_BYTES))));
    }

    /// Writes consecutive words starting at `off`.
    pub fn write_block(&mut self, off: GOffset, vals: &[u64]) {
        for (i, &v) in vals.iter().enumerate() {
            self.write(off.add(i as u64 * WORD_BYTES), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let m = PhysMem::new();
        assert_eq!(m.read(GOffset::new(8)), 0);
        assert_eq!(m.words.len(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = PhysMem::new();
        m.write(GOffset::new(0), u64::MAX);
        m.write(GOffset::new(8), 1);
        assert_eq!(m.read(GOffset::new(0)), u64::MAX);
        assert_eq!(m.read(GOffset::new(8)), 1);
        assert_eq!(m.words.len(), 2);
    }

    #[test]
    fn writing_zero_reclaims() {
        let mut m = PhysMem::new();
        m.write(GOffset::new(0), 5);
        m.write(GOffset::new(0), 0);
        assert_eq!(m.words.len(), 0);
        assert_eq!(m.read(GOffset::new(0)), 0);
    }

    #[test]
    fn blocks_round_trip() {
        let mut m = PhysMem::new();
        m.write_block(GOffset::new(64), &[1, 2, 3]);
        assert_eq!(m.read_block(GOffset::new(64), 4), vec![1, 2, 3, 0]);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_is_a_bug() {
        let m = PhysMem::new();
        let _ = m.read(GOffset::new(3));
    }
}
