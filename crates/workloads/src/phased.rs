//! Reactive, handshake-driven workloads: producer/consumer rounds and
//! migratory read-modify-write phases (§2.3.6's two sharing styles).

use telegraphos::{Action, Process, Resume, SharedPage};
use tg_mem::VAddr;
use tg_sim::SimTime;

/// Configuration shared by the producer/consumer pair.
///
/// The *data* page's sharing mode (plain remote / coherent update / eager
/// multicast / VSM) is chosen by the cluster setup; the workload only
/// issues loads and stores, which is the whole point of the paper's
/// programming model.
#[derive(Clone, Copy, Debug)]
pub struct PcConfig {
    /// The data page.
    pub data: SharedPage,
    /// Flag page homed at the *consumer* (producer remote-writes it,
    /// consumer spins locally).
    pub flag: SharedPage,
    /// Ack page homed at the *producer*.
    pub ack: SharedPage,
    /// Words written/read per round.
    pub words: u64,
    /// Rounds.
    pub rounds: u64,
    /// Consumer poll backoff.
    pub poll: SimTime,
    /// Fence between the data and the flag write (§2.3.5; off reproduces
    /// the stale-read hazard).
    pub fence: bool,
}

/// The producer: write the round's data, (fence,) set the flag, await the
/// consumer's ack.
#[derive(Debug)]
pub struct Producer {
    cfg: PcConfig,
    round: u64,
    word: u64,
    state: PState,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PState {
    Writing,
    Fencing,
    Flagging,
    AwaitAck,
    PollBackoff,
    Done,
}

impl Producer {
    /// Creates the producer side.
    pub fn new(cfg: PcConfig) -> Self {
        Producer {
            cfg,
            round: 0,
            word: 0,
            state: PState::Writing,
        }
    }

    fn flag_va(&self) -> VAddr {
        self.cfg.flag.va(0)
    }
    fn ack_va(&self) -> VAddr {
        self.cfg.ack.va(0)
    }
}

impl Process for Producer {
    fn resume(&mut self, r: Resume) -> Action {
        loop {
            match self.state {
                PState::Writing => {
                    if self.word < self.cfg.words {
                        let w = self.word;
                        self.word += 1;
                        // Distinct value per (round, word) for verification.
                        return Action::Write(
                            self.cfg.data.va(w * 8),
                            (self.round + 1) * 10_000 + w,
                        );
                    }
                    self.word = 0;
                    self.state = if self.cfg.fence {
                        PState::Fencing
                    } else {
                        PState::Flagging
                    };
                }
                PState::Fencing => {
                    self.state = PState::Flagging;
                    return Action::Fence;
                }
                PState::Flagging => {
                    self.state = PState::AwaitAck;
                    return Action::Write(self.flag_va(), self.round + 1);
                }
                PState::AwaitAck => {
                    // Spin on the local ack word.
                    if let Resume::Value(v) = r {
                        if v == self.round + 1 {
                            self.round += 1;
                            if self.round == self.cfg.rounds {
                                self.state = PState::Done;
                                continue;
                            }
                            self.state = PState::Writing;
                            continue;
                        }
                        self.state = PState::PollBackoff;
                        return Action::Compute(self.cfg.poll);
                    }
                    return Action::Read(self.ack_va());
                }
                PState::PollBackoff => {
                    self.state = PState::AwaitAck;
                    return Action::Read(self.ack_va());
                }
                PState::Done => return Action::Halt,
            }
        }
    }
}

/// The consumer: spin on the flag, read the round's data, ack.
#[derive(Debug)]
pub struct Consumer {
    cfg: PcConfig,
    round: u64,
    word: u64,
    state: CState,
    /// Sum of all data values read (cheap end-to-end checksum).
    pub(crate) checksum: u64,
    /// Stale reads observed (value from an older round).
    pub(crate) stale_reads: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CState {
    PollFlag,
    PollBackoff,
    Reading,
    Acking,
    Done,
}

impl Consumer {
    /// Creates the consumer side.
    pub fn new(cfg: PcConfig) -> Self {
        Consumer {
            cfg,
            round: 0,
            word: 0,
            state: CState::PollFlag,
            checksum: 0,
            stale_reads: 0,
        }
    }
}

impl Process for Consumer {
    fn resume(&mut self, r: Resume) -> Action {
        loop {
            match self.state {
                CState::PollFlag => {
                    if let Resume::Value(v) = r {
                        if v > self.round {
                            // Flag set: issue the first data read.
                            self.state = CState::Reading;
                            self.word = 0;
                            return Action::Read(self.cfg.data.va(0));
                        }
                        self.state = CState::PollBackoff;
                        return Action::Compute(self.cfg.poll);
                    }
                    return Action::Read(self.cfg.flag.va(0));
                }
                CState::PollBackoff => {
                    self.state = CState::PollFlag;
                    // Issue the poll read; the next resume carries it.
                    return Action::Read(self.cfg.flag.va(0));
                }
                CState::Reading => {
                    // Every resume here carries a data value for word
                    // `self.word`.
                    let v = r.value();
                    self.checksum = self.checksum.wrapping_add(v);
                    let expect_round = (self.round + 1) * 10_000;
                    if v < expect_round {
                        self.stale_reads += 1;
                    }
                    self.word += 1;
                    if self.word < self.cfg.words {
                        let w = self.word;
                        return Action::Read(self.cfg.data.va(w * 8));
                    }
                    self.word = 0;
                    self.state = CState::Acking;
                }
                CState::Acking => {
                    self.state = if self.round + 1 == self.cfg.rounds {
                        CState::Done
                    } else {
                        CState::PollFlag
                    };
                    let ack = self.round + 1;
                    self.round += 1;
                    return Action::Write(self.cfg.ack.va(0), ack);
                }
                CState::Done => return Action::Halt,
            }
        }
    }
}

/// Migratory sharing: nodes take turns (token passing) performing `burst`
/// read-modify-write pairs on the data page — the §2.3.6 pattern where
/// invalidate-based coherence shines and eager updates waste traffic.
#[derive(Debug)]
pub struct Migratory {
    /// Data page.
    data: SharedPage,
    /// Token page (plain, spun on remotely or locally depending on home).
    token: SharedPage,
    me: u64,
    parties: u64,
    turns: u64,
    burst: u64,
    poll: SimTime,
    turn: u64,
    step: u64,
    state: MState,
    pending_val: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MState {
    PollToken,
    Backoff,
    Read,
    Write,
    Pass,
    Done,
}

impl Migratory {
    /// Creates one migratory participant (`me` of `parties`), each taking
    /// `turns` turns of `burst` read-modify-writes.
    ///
    /// # Panics
    ///
    /// Panics if the participant index is out of range.
    pub fn new(
        data: SharedPage,
        token: SharedPage,
        me: u64,
        parties: u64,
        turns: u64,
        burst: u64,
        poll: SimTime,
    ) -> Self {
        assert!(me < parties, "participant out of range");
        Migratory {
            data,
            token,
            me,
            parties,
            turns,
            burst,
            poll,
            turn: 0,
            step: 0,
            state: MState::PollToken,
            pending_val: 0,
        }
    }

    fn my_token(&self) -> u64 {
        self.turn * self.parties + self.me
    }
}

impl Process for Migratory {
    fn resume(&mut self, r: Resume) -> Action {
        loop {
            match self.state {
                MState::PollToken => {
                    if let Resume::Value(v) = r {
                        if v == self.my_token() {
                            self.state = MState::Read;
                            continue;
                        }
                        self.state = MState::Backoff;
                        return Action::Compute(self.poll);
                    }
                    return Action::Read(self.token.va(0));
                }
                MState::Backoff => {
                    self.state = MState::PollToken;
                    return Action::Read(self.token.va(0));
                }
                MState::Read => {
                    self.state = MState::Write;
                    let w = self.step % 64;
                    return Action::Read(self.data.va(w * 8));
                }
                MState::Write => {
                    self.pending_val = r.value().wrapping_add(1);
                    let w = self.step % 64;
                    self.step += 1;
                    self.state = if self.step.is_multiple_of(self.burst) {
                        MState::Pass
                    } else {
                        MState::Read
                    };
                    return Action::Write(self.data.va(w * 8), self.pending_val);
                }
                MState::Pass => {
                    self.turn += 1;
                    self.state = if self.turn == self.turns {
                        MState::Done
                    } else {
                        MState::PollToken
                    };
                    // Pass the token to the next party for this round.
                    let next = (self.turn - 1) * self.parties + self.me + 1;
                    return Action::Write(self.token.va(0), next);
                }
                MState::Done => return Action::Halt,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_wire::{NodeId, PageNum};

    fn sp(i: u64, home: u16) -> SharedPage {
        SharedPage {
            index: i,
            home: NodeId::new(home),
            home_page: PageNum::new(i as u32),
        }
    }

    fn cfg() -> PcConfig {
        PcConfig {
            data: sp(0, 0),
            flag: sp(1, 1),
            ack: sp(2, 0),
            words: 2,
            rounds: 2,
            poll: SimTime::from_us(1),
            fence: true,
        }
    }

    #[test]
    fn producer_writes_then_fences_then_flags() {
        let mut p = Producer::new(cfg());
        assert!(matches!(p.resume(Resume::Start), Action::Write(_, 10_000)));
        assert!(matches!(p.resume(Resume::Done), Action::Write(_, 10_001)));
        assert_eq!(p.resume(Resume::Done), Action::Fence);
        assert_eq!(p.resume(Resume::Done), Action::Write(cfg().flag.va(0), 1));
        // Then it polls the ack word.
        assert!(matches!(p.resume(Resume::Done), Action::Read(_)));
    }

    #[test]
    fn producer_without_fence_skips_it() {
        let mut p = Producer::new(PcConfig {
            fence: false,
            words: 1,
            ..cfg()
        });
        let _ = p.resume(Resume::Start);
        assert_eq!(p.resume(Resume::Done), Action::Write(cfg().flag.va(0), 1));
    }

    #[test]
    fn consumer_polls_reads_acks() {
        let mut c = Consumer::new(cfg());
        assert!(matches!(c.resume(Resume::Start), Action::Read(_))); // poll
                                                                     // Flag not set yet.
        assert!(matches!(c.resume(Resume::Value(0)), Action::Compute(_)));
        assert!(matches!(c.resume(Resume::Done), Action::Read(_))); // re-poll
                                                                    // Flag set: the transition itself issues the word-0 read.
        assert!(matches!(c.resume(Resume::Value(1)), Action::Read(_)));
        assert!(matches!(c.resume(Resume::Value(10_000)), Action::Read(_)));
        // Ack after the last word.
        assert_eq!(
            c.resume(Resume::Value(10_001)),
            Action::Write(cfg().ack.va(0), 1)
        );
        assert_eq!(c.checksum, 20_001);
        assert_eq!(c.stale_reads, 0);
    }

    #[test]
    fn consumer_detects_stale_values() {
        let mut c = Consumer::new(PcConfig {
            words: 1,
            rounds: 1,
            ..cfg()
        });
        let _ = c.resume(Resume::Start);
        let _ = c.resume(Resume::Value(1)); // flag set -> read
        let a = c.resume(Resume::Value(3)); // stale: < 10_000
        assert!(matches!(a, Action::Write(..)));
        assert_eq!(c.stale_reads, 1);
    }

    #[test]
    fn migratory_runs_its_turn_then_passes() {
        let mut m = Migratory::new(sp(0, 0), sp(1, 0), 0, 2, 1, 2, SimTime::from_us(1));
        assert!(matches!(m.resume(Resume::Start), Action::Read(_))); // token poll
        assert!(matches!(m.resume(Resume::Value(0)), Action::Read(_))); // data read
        assert!(matches!(m.resume(Resume::Value(5)), Action::Write(_, 6)));
        assert!(matches!(m.resume(Resume::Done), Action::Read(_)));
        assert!(matches!(m.resume(Resume::Value(9)), Action::Write(_, 10)));
        // Burst of 2 done: pass token (value 1 = turn 0, party 1).
        assert_eq!(m.resume(Resume::Done), Action::Write(sp(1, 0).va(0), 1));
        assert_eq!(m.resume(Resume::Done), Action::Halt);
    }

    #[test]
    fn migratory_waits_for_its_token() {
        let mut m = Migratory::new(sp(0, 0), sp(1, 0), 1, 2, 1, 1, SimTime::from_us(1));
        let _ = m.resume(Resume::Start);
        // Token 0 belongs to party 0; party 1 backs off.
        assert!(matches!(m.resume(Resume::Value(0)), Action::Compute(_)));
        let _ = m.resume(Resume::Done); // re-poll issued
        assert!(matches!(m.resume(Resume::Value(1)), Action::Read(_))); // our turn
    }
}
