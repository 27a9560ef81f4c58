//! The paper's owner-serialized, counter-filtered update protocol (§2.3).
//!
//! Every replicated page has one owner; all updates are serialized by it
//! (§2.3.1). A writer applies its store locally at once — so it can read
//! its own writes (§2.3.2) — increments a pending-write counter, and sends
//! the value to the owner, which multicasts *reflected writes* to every
//! copy in its serialization order. A node receiving a reflected write of
//! its own store decrements the counter and ignores the value; any other
//! reflected write to a location with a non-zero counter is ignored too
//! (§2.3.3, rules 1–4). The counters live in a small CAM (§2.3.4); when the
//! CAM is full, the writer stalls until a reflected write frees an entry.

use tg_sim::SimRng;

use crate::abstract_net::AbstractNet;
use crate::cam::PendingCam;
use crate::recorder::SeqRecorder;
use crate::scenario::{Outcome, Scenario};

/// Protocol messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Msg {
    /// Writer → owner: please serialize this store.
    ToOwner { value: u64, writer: usize },
    /// Owner → copy: the next update in serialization order.
    Reflected { value: u64, writer: usize },
}

/// A crash-stop failover plan: the owner halts mid-run and serialization
/// fails over to the smallest-id surviving node — the same deterministic
/// successor rule the cluster's coherence layer uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OwnerFailover {
    /// The owner crashes immediately after this many writes have been
    /// serialized (its in-flight state vanishes with it).
    pub crash_after_serialized: usize,
}

/// Configuration of an owner-protocol run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OwnerConfig {
    /// Which node owns the page.
    pub owner: usize,
    /// CAM entries per node (pending-write counters); `usize::MAX` for the
    /// unbounded strawman.
    pub cam_entries: usize,
    /// Crash the owner mid-run and fail over (`None`: fault-free).
    pub failover: Option<OwnerFailover>,
}

impl Default for OwnerConfig {
    fn default() -> Self {
        OwnerConfig {
            owner: 0,
            cam_entries: 16,
            failover: None,
        }
    }
}

/// The owner-serialized protocol simulator.
#[derive(Debug)]
pub struct OwnerSerialized;

/// The abstract model covers a single shared word, so every CAM keys on
/// word 0.
const WORD: u64 = 0;

impl OwnerSerialized {
    /// Executes `scenario` with the default configuration (owner = node 0,
    /// 16-entry CAM).
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails `Scenario::validate`.
    pub fn run(scenario: &Scenario) -> Outcome {
        Self::run_with(scenario, OwnerConfig::default())
    }

    /// Executes `scenario` with an explicit owner and CAM size, and
    /// optionally a crash-stop failover plan. Under a failover plan the
    /// crashed owner's in-flight traffic is lost; survivors retransmit
    /// their pending (unreflected) writes to the deterministic successor,
    /// so every surviving writer's store is serialized *at least* once —
    /// a write whose reflection partially escaped the crash may appear
    /// twice in the serialization, which rule 3's pending filter and
    /// per-channel FIFO keep harmless.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid, the owner index is out of
    /// range, or a failover plan crashes the only node.
    pub fn run_with(scenario: &Scenario, config: OwnerConfig) -> Outcome {
        scenario.validate().expect("valid scenario");
        let n = scenario.nodes;
        assert!(config.owner < n, "owner out of range");
        let mut owner = config.owner;

        let mut rng = SimRng::new(scenario.seed);
        let mut net: AbstractNet<Msg> = AbstractNet::new(n);
        let mut scripts = scenario.scripts();
        let mut values = vec![0u64; n];
        let mut recorders: Vec<SeqRecorder> = (0..n).map(|_| SeqRecorder::new(0)).collect();
        let mut cams: Vec<PendingCam> = (0..n)
            .map(|_| PendingCam::new(config.cam_entries))
            .collect();
        let mut serialization: Vec<u64> = Vec::new();
        // Per-writer FIFO of issued-but-unreflected values, mirroring the
        // CAM counters; on an owner crash these are exactly the writes the
        // survivor must retransmit to the successor.
        let mut inflight: Vec<std::collections::VecDeque<u64>> =
            (0..n).map(|_| std::collections::VecDeque::new()).collect();
        let mut alive = vec![true; n];
        let mut crashed = false;
        // Reused across iterations; this loop is the proto_sweep hot path
        // and must not allocate per step.
        let mut issuers: Vec<usize> = Vec::with_capacity(n);

        loop {
            // A node can issue its next write if it is alive, has one, and
            // (for non-owners) the CAM can take another pending entry.
            issuers.clear();
            issuers.extend((0..n).filter(|&i| {
                alive[i]
                    && !scripts[i].is_empty()
                    && (i == owner
                        || cams[i].is_pending(WORD)
                        || cams[i].len() < cams[i].capacity())
            }));
            let can_deliver = !net.is_quiescent();
            if issuers.is_empty() && !can_deliver {
                break;
            }
            let issue = !issuers.is_empty() && (!can_deliver || rng.chance(0.5));
            if issue {
                let w = *rng.pick(&issuers);
                let v = scripts[w].pop_front().expect("nonempty script");
                if w == owner {
                    // Rule owner: the owner's own store is serialized on
                    // the spot and multicast to every copy.
                    values[w] = v;
                    recorders[w].observe(v);
                    serialization.push(v);
                    for (dst, &up) in alive.iter().enumerate() {
                        if dst != owner && up {
                            net.send(
                                owner,
                                dst,
                                Msg::Reflected {
                                    value: v,
                                    writer: owner,
                                },
                            );
                        }
                    }
                } else {
                    // Rule 1: apply locally, count the pending write, send
                    // to the owner.
                    let accepted = cams[w].try_increment(WORD);
                    assert!(accepted, "issuer availability was checked above");
                    values[w] = v;
                    recorders[w].observe(v);
                    inflight[w].push_back(v);
                    net.send(
                        w,
                        owner,
                        Msg::ToOwner {
                            value: v,
                            writer: w,
                        },
                    );
                }
            } else {
                let (_src, dst, msg) = net.deliver_random(&mut rng).expect("deliverable");
                match msg {
                    Msg::ToOwner { value, writer } => {
                        debug_assert_eq!(dst, owner);
                        // Owner applies in arrival order — this IS the
                        // serialization — and multicasts to all copies,
                        // including the original writer (§2.3.1).
                        values[owner] = value;
                        recorders[owner].observe(value);
                        serialization.push(value);
                        for (copy, &up) in alive.iter().enumerate() {
                            if copy != owner && up {
                                net.send(owner, copy, Msg::Reflected { value, writer });
                            }
                        }
                    }
                    Msg::Reflected { value, writer } => {
                        if writer == dst {
                            // Rule 2: our own write came back; consume the
                            // counter, ignore the value.
                            cams[dst].decrement(WORD);
                            let front = inflight[dst].pop_front();
                            debug_assert_eq!(front, Some(value), "reflection out of issue order");
                        } else if cams[dst].is_pending(WORD) {
                            // Rule 3: older than our pending write; ignore.
                        } else {
                            // Rule 4 (reads) is implicit: reads always see
                            // `values[dst]`. Apply the update.
                            values[dst] = value;
                            recorders[dst].observe(value);
                        }
                    }
                }
            }

            // The configured crash-stop fault fires the moment enough
            // writes have been serialized: the owner's queued traffic
            // vanishes with it, the smallest surviving node takes over,
            // and every survivor retransmits its still-pending writes to
            // the successor (at-least-once re-serialization).
            if !crashed
                && config
                    .failover
                    .is_some_and(|f| serialization.len() >= f.crash_after_serialized)
            {
                crashed = true;
                alive[owner] = false;
                scripts[owner].clear();
                inflight[owner].clear();
                net.purge_node(owner);
                let successor = (0..n).find(|&i| alive[i]).expect("a surviving node");
                // The successor serializes its own unreflected writes
                // first — they are already applied locally, so only the
                // counters and the multicast remain.
                while let Some(v) = inflight[successor].pop_front() {
                    cams[successor].decrement(WORD);
                    serialization.push(v);
                    for (dst, &up) in alive.iter().enumerate() {
                        if dst != successor && up {
                            net.send(
                                successor,
                                dst,
                                Msg::Reflected {
                                    value: v,
                                    writer: successor,
                                },
                            );
                        }
                    }
                }
                for w in 0..n {
                    if w != successor && alive[w] {
                        for &v in &inflight[w] {
                            net.send(
                                w,
                                successor,
                                Msg::ToOwner {
                                    value: v,
                                    writer: w,
                                },
                            );
                        }
                    }
                }
                owner = successor;
            }
        }

        Outcome {
            final_values: values,
            observed: recorders.iter().map(|r| r.changes().to_vec()).collect(),
            serialization: Some(serialization),
            messages: net.delivered(),
            peak_in_flight: net.peak_in_flight(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScriptedWrite;

    #[test]
    fn figure2_race_never_diverges() {
        for seed in 0..128 {
            let out = OwnerSerialized::run(&Scenario::figure2(seed));
            assert!(out.converged(), "diverged on seed {seed}: {out:?}");
            assert!(out.anomalies().is_empty(), "anomaly on seed {seed}");
            assert!(
                out.subsequence_violations().is_empty(),
                "subsequence violation on seed {seed}: {out:?}"
            );
        }
    }

    #[test]
    fn final_value_is_last_serialized() {
        let out = OwnerSerialized::run(&Scenario::figure2(33));
        let order = out.serialization.as_ref().unwrap();
        assert_eq!(out.final_values[0], *order.last().unwrap());
    }

    #[test]
    fn writer_reads_its_own_write_immediately() {
        // §2.3.2: the writer's local copy must hold the new value the
        // moment the store completes, before any owner round trip.
        let s = Scenario {
            nodes: 3,
            writes: vec![ScriptedWrite { node: 1, value: 7 }],
            seed: 0,
        };
        let out = OwnerSerialized::run(&s);
        assert_eq!(out.observed[1], vec![7], "writer observed its own store");
        assert!(out.converged());
    }

    #[test]
    fn owner_writer_serializes_directly() {
        let s = Scenario {
            nodes: 2,
            writes: vec![
                ScriptedWrite { node: 0, value: 4 },
                ScriptedWrite { node: 0, value: 5 },
            ],
            seed: 1,
        };
        let out = OwnerSerialized::run(&s);
        assert_eq!(out.serialization.as_deref(), Some(&[4, 5][..]));
        assert_eq!(out.final_values, vec![5, 5]);
    }

    #[test]
    fn many_writers_many_writes_all_invariants() {
        for seed in 0..40 {
            let s = Scenario::random(4, 5, 2, seed);
            let out = OwnerSerialized::run_with(
                &s,
                OwnerConfig {
                    owner: seed as usize % 6,
                    cam_entries: 2,
                    failover: None,
                },
            );
            assert!(out.converged(), "seed {seed}");
            assert!(out.anomalies().is_empty(), "seed {seed}");
            assert!(out.subsequence_violations().is_empty(), "seed {seed}");
            // Every written value reached the owner exactly once.
            let mut ser = out.serialization.clone().unwrap();
            ser.sort_unstable();
            let mut expect: Vec<u64> = s.writes.iter().map(|w| w.value).collect();
            expect.sort_unstable();
            assert_eq!(ser, expect, "seed {seed}");
        }
    }

    #[test]
    fn tiny_cam_still_correct_just_stalls() {
        let s = Scenario::random(3, 8, 1, 77);
        let out = OwnerSerialized::run_with(
            &s,
            OwnerConfig {
                owner: 3,
                cam_entries: 1,
                failover: None,
            },
        );
        assert!(out.converged());
        assert!(out.subsequence_violations().is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = OwnerSerialized::run(&Scenario::random(3, 3, 1, 5));
        let b = OwnerSerialized::run(&Scenario::random(3, 3, 1, 5));
        assert_eq!(a, b);
    }

    #[test]
    fn owner_crash_fails_over_to_smallest_survivor() {
        // The owner crashes mid-run; the smallest surviving node takes
        // over serialization. Every survivor must converge on the last
        // serialized value, every surviving writer's store must be
        // serialized at least once, and each node's view must stay a
        // subsequence of the (concatenated) serialization.
        for seed in 0..64 {
            let s = Scenario::random(4, 4, 1, seed);
            let out = OwnerSerialized::run_with(
                &s,
                OwnerConfig {
                    owner: 0,
                    cam_entries: 4,
                    failover: Some(OwnerFailover {
                        crash_after_serialized: 2,
                    }),
                },
            );
            let ser = out.serialization.as_ref().unwrap();
            let last = *ser.last().unwrap();
            for i in 1..s.nodes {
                assert_eq!(
                    out.final_values[i], last,
                    "survivor {i} diverged on seed {seed}: {out:?}"
                );
            }
            assert!(
                out.subsequence_violations().is_empty(),
                "subsequence violation on seed {seed}: {out:?}"
            );
            for w in &s.writes {
                if w.node != 0 {
                    assert!(
                        ser.contains(&w.value),
                        "surviving writer {}'s store {} lost on seed {seed}",
                        w.node,
                        w.value
                    );
                }
            }
        }
    }

    #[test]
    fn owner_crash_replay_is_deterministic() {
        let run = || {
            OwnerSerialized::run_with(
                &Scenario::random(4, 5, 2, 11),
                OwnerConfig {
                    owner: 2,
                    cam_entries: 2,
                    failover: Some(OwnerFailover {
                        crash_after_serialized: 3,
                    }),
                },
            )
        };
        assert_eq!(run(), run(), "crash replay diverged");
    }

    #[test]
    fn crash_before_any_serialization_still_completes() {
        // crash_after_serialized = 0: the owner dies on the first step;
        // the successor serializes everything the survivors wrote.
        let s = Scenario {
            nodes: 3,
            writes: vec![
                ScriptedWrite { node: 1, value: 7 },
                ScriptedWrite { node: 2, value: 9 },
            ],
            seed: 4,
        };
        let out = OwnerSerialized::run_with(
            &s,
            OwnerConfig {
                owner: 0,
                cam_entries: 4,
                failover: Some(OwnerFailover {
                    crash_after_serialized: 0,
                }),
            },
        );
        let mut ser = out.serialization.clone().unwrap();
        ser.sort_unstable();
        ser.dedup();
        assert_eq!(ser, vec![7, 9], "a survivor's write was lost");
        let last = *out.serialization.as_ref().unwrap().last().unwrap();
        assert_eq!(out.final_values[1], last);
        assert_eq!(out.final_values[2], last);
    }
}
