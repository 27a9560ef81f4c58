//! Shared-write scenarios and protocol outcomes.

use crate::recorder::{is_subsequence, revisit_anomalies};

/// One scripted store to the shared location.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScriptedWrite {
    /// The node performing the store.
    pub node: usize,
    /// The (globally unique) value stored.
    pub value: u64,
}

/// A workload over one shared memory word replicated on every node: which
/// nodes write which values, and the interleaving seed.
///
/// Values must be unique and non-zero so observation sequences identify
/// writes unambiguously (zero is the initial page value).
///
/// # Example
///
/// ```
/// use tg_proto::Scenario;
/// let s = Scenario::figure2(7);
/// assert_eq!(s.nodes, 3);
/// assert_eq!(s.writes.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Scenario {
    /// Number of nodes sharing the location (all hold a copy).
    pub nodes: usize,
    /// Program-order write scripts, interleaved across nodes in list order.
    pub writes: Vec<ScriptedWrite>,
    /// Seed for the adversarial interleaving.
    pub seed: u64,
}

impl Scenario {
    /// The exact Figure 2 race: two writers store concurrently while a
    /// third node only observes.
    pub fn figure2(seed: u64) -> Self {
        Scenario {
            nodes: 3,
            writes: vec![
                ScriptedWrite { node: 0, value: 1 },
                ScriptedWrite { node: 1, value: 2 },
            ],
            seed,
        }
    }

    /// A randomized scenario: `writers` nodes each issue `per_writer`
    /// stores of unique values; at least one extra node observes.
    pub fn random(writers: usize, per_writer: usize, observers: usize, seed: u64) -> Self {
        let mut writes = Vec::new();
        let mut value = 1;
        for round in 0..per_writer {
            for w in 0..writers {
                let _ = round;
                writes.push(ScriptedWrite { node: w, value });
                value += 1;
            }
        }
        Scenario {
            nodes: writers + observers,
            writes,
            seed,
        }
    }

    /// Checks the scenario invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant: out-of-range node,
    /// zero value, or duplicate value.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        if self.nodes == 0 {
            return Err("scenario needs at least one node".into());
        }
        for w in &self.writes {
            if w.node >= self.nodes {
                return Err(format!("write from out-of-range node {}", w.node));
            }
            if w.value == 0 {
                return Err("zero is reserved for the initial value".into());
            }
            if !seen.insert(w.value) {
                return Err(format!("duplicate value {}", w.value));
            }
        }
        Ok(())
    }

    /// Per-node write queues in program order.
    pub(crate) fn scripts(&self) -> Vec<std::collections::VecDeque<u64>> {
        let mut scripts = vec![std::collections::VecDeque::new(); self.nodes];
        for w in &self.writes {
            scripts[w.node].push_back(w.value);
        }
        scripts
    }
}

/// What a protocol run produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Outcome {
    /// Final value of the shared word at each node.
    pub(crate) final_values: Vec<u64>,
    /// Per node, the sequence of distinct values it observed.
    pub(crate) observed: Vec<Vec<u64>>,
    /// The owner's serialization order (owner-based protocol only).
    pub serialization: Option<Vec<u64>>,
    /// Total protocol messages delivered.
    pub messages: u64,
    /// High-water mark of in-flight protocol messages.
    pub peak_in_flight: usize,
}

impl Outcome {
    /// True when every copy ended with the same value.
    pub fn converged(&self) -> bool {
        self.final_values.windows(2).all(|w| w[0] == w[1])
    }

    /// Nodes whose observation sequence revisits an overwritten value
    /// ("1,2,1" anomalies), as `(node, offending values)`.
    pub fn anomalies(&self) -> Vec<(usize, Vec<u64>)> {
        self.observed
            .iter()
            .enumerate()
            .filter_map(|(i, seq)| {
                let bad = revisit_anomalies(seq);
                if bad.is_empty() {
                    None
                } else {
                    Some((i, bad))
                }
            })
            .collect()
    }

    /// Nodes whose observations are *not* a subsequence of the owner's
    /// serialization. Empty when no serialization was produced.
    pub fn subsequence_violations(&self) -> Vec<usize> {
        match &self.serialization {
            None => Vec::new(),
            Some(order) => self
                .observed
                .iter()
                .enumerate()
                .filter(|(_, seq)| !is_subsequence(seq, order))
                .map(|(i, _)| i)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_is_valid() {
        Scenario::figure2(0).validate().unwrap();
    }

    #[test]
    fn random_scenarios_are_valid() {
        for seed in 0..5 {
            Scenario::random(3, 4, 2, seed).validate().unwrap();
        }
    }

    #[test]
    fn validation_catches_bad_scenarios() {
        let bad_node = Scenario {
            nodes: 1,
            writes: vec![ScriptedWrite { node: 3, value: 1 }],
            seed: 0,
        };
        assert!(bad_node.validate().is_err());
        let zero_value = Scenario {
            nodes: 1,
            writes: vec![ScriptedWrite { node: 0, value: 0 }],
            seed: 0,
        };
        assert!(zero_value.validate().is_err());
        let dup = Scenario {
            nodes: 2,
            writes: vec![
                ScriptedWrite { node: 0, value: 5 },
                ScriptedWrite { node: 1, value: 5 },
            ],
            seed: 0,
        };
        assert!(dup.validate().is_err());
    }

    #[test]
    fn scripts_preserve_program_order() {
        let s = Scenario {
            nodes: 2,
            writes: vec![
                ScriptedWrite { node: 0, value: 1 },
                ScriptedWrite { node: 1, value: 2 },
                ScriptedWrite { node: 0, value: 3 },
            ],
            seed: 0,
        };
        let scripts = s.scripts();
        assert_eq!(scripts[0], [1, 3]);
        assert_eq!(scripts[1], [2]);
    }

    #[test]
    fn outcome_checks() {
        let good = Outcome {
            final_values: vec![2, 2],
            observed: vec![vec![1, 2], vec![2]],
            serialization: Some(vec![1, 2]),
            messages: 4,
            peak_in_flight: 4,
        };
        assert!(good.converged());
        assert!(good.anomalies().is_empty());
        assert!(good.subsequence_violations().is_empty());

        let bad = Outcome {
            final_values: vec![1, 2],
            observed: vec![vec![1, 2, 1], vec![2, 1, 2]],
            serialization: Some(vec![1, 2]),
            messages: 4,
            peak_in_flight: 4,
        };
        assert!(!bad.converged());
        assert_eq!(bad.anomalies().len(), 2);
        assert_eq!(bad.subsequence_violations(), vec![0, 1]);
    }
}
