//! The naive eager-multicast protocol — Figure 2's inconsistency.
//!
//! Every writer updates its local copy and multicasts the new value
//! directly to all other copies. With two concurrent writers the updates
//! race through the network and arrive at different copies in different
//! orders, so the copies can end up permanently different — exactly the
//! scenario of Figure 2 ("Inconsistency caused by multicasting in the lack
//! of ownership").

use tg_sim::SimRng;

use crate::abstract_net::AbstractNet;
use crate::recorder::SeqRecorder;
use crate::scenario::{Outcome, Scenario};

/// An update in flight: just the new value.
type Update = u64;

/// Runs the naive protocol on a scenario.
///
/// # Example
///
/// ```
/// use tg_proto::{naive::NaiveMulticast, Scenario};
/// let outcome = NaiveMulticast::run(&Scenario::figure2(11));
/// // May or may not diverge on this seed, but always delivers all traffic:
/// assert_eq!(outcome.messages, 2 * 2);
/// ```
#[derive(Debug)]
pub struct NaiveMulticast;

impl NaiveMulticast {
    /// Executes `scenario` under a seeded adversarial interleaving.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails `Scenario::validate`.
    pub fn run(scenario: &Scenario) -> Outcome {
        scenario.validate().expect("valid scenario");
        let n = scenario.nodes;
        let mut rng = SimRng::new(scenario.seed);
        let mut net: AbstractNet<Update> = AbstractNet::new(n);
        let mut scripts = scenario.scripts();
        let mut values = vec![0u64; n];
        let mut recorders: Vec<SeqRecorder> = (0..n).map(|_| SeqRecorder::new(0)).collect();

        loop {
            let issuers: Vec<usize> = (0..n).filter(|&i| !scripts[i].is_empty()).collect();
            let can_deliver = !net.is_quiescent();
            if issuers.is_empty() && !can_deliver {
                break;
            }
            let issue = !issuers.is_empty() && (!can_deliver || rng.chance(0.5));
            if issue {
                let w = *rng.pick(&issuers);
                let v = scripts[w].pop_front().expect("nonempty script");
                values[w] = v;
                recorders[w].observe(v);
                for dst in 0..n {
                    if dst != w {
                        net.send(w, dst, v);
                    }
                }
            } else {
                let (_src, dst, v) = net.deliver_random(&mut rng).expect("deliverable");
                values[dst] = v;
                recorders[dst].observe(v);
            }
        }

        Outcome {
            final_values: values,
            observed: recorders.iter().map(|r| r.changes().to_vec()).collect(),
            serialization: None,
            messages: net.delivered(),
            peak_in_flight: net.peak_in_flight(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_writer_converges() {
        let s = Scenario {
            nodes: 4,
            writes: vec![
                crate::ScriptedWrite { node: 0, value: 1 },
                crate::ScriptedWrite { node: 0, value: 2 },
                crate::ScriptedWrite { node: 0, value: 3 },
            ],
            seed: 5,
        };
        let out = NaiveMulticast::run(&s);
        assert!(out.converged(), "single-writer FIFO traffic cannot diverge");
        assert_eq!(out.final_values[1], 3);
        assert_eq!(out.observed[2], vec![1, 2, 3]);
    }

    #[test]
    fn figure2_race_diverges_on_some_seed() {
        // The paper's point: without ownership, some interleavings leave
        // the copies permanently different. Sweep seeds; at least one (in
        // fact many) must diverge.
        let diverging = (0..64)
            .filter(|&seed| !NaiveMulticast::run(&Scenario::figure2(seed)).converged())
            .count();
        assert!(diverging > 0, "no divergence over 64 interleavings");
    }

    #[test]
    fn observers_see_all_values_eventually() {
        let s = Scenario::figure2(3);
        let out = NaiveMulticast::run(&s);
        // Node 2 (pure observer) saw both written values in some order.
        let mut seen = out.observed[2].clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn message_count_is_fanout_times_writes() {
        let s = Scenario::random(2, 3, 2, 9);
        let out = NaiveMulticast::run(&s);
        assert_eq!(out.messages, 6 * 3); // 6 writes x (4-1) destinations
    }

    #[test]
    fn deterministic_per_seed() {
        let a = NaiveMulticast::run(&Scenario::figure2(17));
        let b = NaiveMulticast::run(&Scenario::figure2(17));
        assert_eq!(a, b);
    }
}
