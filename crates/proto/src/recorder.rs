//! Observation recording and sequence-validity checking.

/// Records the sequence of values a node *observes* at a memory location:
/// one entry per change of the locally visible value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SeqRecorder {
    current: u64,
    changes: Vec<u64>,
}

impl SeqRecorder {
    /// A recorder starting from `initial` (typically 0, the fresh-page
    /// value).
    pub(crate) fn new(initial: u64) -> Self {
        SeqRecorder {
            current: initial,
            changes: Vec::new(),
        }
    }

    /// Notes the currently visible value; records it only if it changed.
    pub(crate) fn observe(&mut self, value: u64) {
        if value != self.current {
            self.current = value;
            self.changes.push(value);
        }
    }

    /// The sequence of distinct successive values observed.
    pub(crate) fn changes(&self) -> &[u64] {
        &self.changes
    }
}

/// True if `needle` is a (not necessarily contiguous) subsequence of
/// `haystack` — the §2.3.3 validity criterion: every node sees a subset of
/// the values the owner sees, in the owner's order.
pub(crate) fn is_subsequence(needle: &[u64], haystack: &[u64]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

/// Finds "1,2,1"-style anomalies: values that reappear after having been
/// overwritten. When every write carries a distinct value (as the abstract
/// scenarios guarantee), any revisit is an invalid sequence under every
/// memory-consistency model — exactly the Galactica Net behaviour the paper
/// calls out in §2.4. Returns the revisited values.
pub(crate) fn revisit_anomalies(seq: &[u64]) -> Vec<u64> {
    let mut seen = std::collections::HashSet::new();
    let mut bad = Vec::new();
    for &v in seq {
        if !seen.insert(v) && !bad.contains(&v) {
            bad.push(v);
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_dedups_consecutive() {
        let mut r = SeqRecorder::new(0);
        r.observe(0); // initial value: no change
        r.observe(3);
        r.observe(3);
        r.observe(0); // back to initial IS a change
        assert_eq!(r.changes(), &[3, 0]);
    }

    #[test]
    fn subsequence_edge_cases() {
        assert!(is_subsequence(&[], &[]));
        assert!(is_subsequence(&[], &[1]));
        assert!(!is_subsequence(&[1], &[]));
        assert!(is_subsequence(&[1, 1], &[1, 2, 1]));
        assert!(!is_subsequence(&[1, 1], &[1, 2]));
        assert!(is_subsequence(&[1, 2, 3], &[1, 2, 3]));
    }

    #[test]
    fn anomaly_detector() {
        assert!(revisit_anomalies(&[]).is_empty());
        assert!(revisit_anomalies(&[7]).is_empty());
        assert_eq!(revisit_anomalies(&[1, 2, 1, 2]), vec![1, 2]);
        // A change-sequence cannot hold immediate repeats (SeqRecorder
        // dedups), but the detector tolerates them.
        assert_eq!(revisit_anomalies(&[4, 4]), vec![4]);
    }
}
