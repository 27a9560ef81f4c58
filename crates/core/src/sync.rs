//! Synchronization primitives built on the remote atomic operations.
//!
//! The paper embeds the MEMORY_BARRIER inside every synchronization
//! operation (§2.3.5: "The MEMORY_BARRIER operation is embedded inside all
//! implementations of synchronization operations (e.g. locks, barriers)").
//! These helpers are poll-style sub-state-machines that processes embed:
//! each `step` consumes the previous action's [`Resume`] and either asks
//! for another [`Action`] or reports completion.

use tg_mem::VAddr;
use tg_sim::SimTime;

use crate::process::{Action, Resume};

/// One step of an embedded synchronization machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncStep {
    /// Issue this action and feed the result back to `step`.
    Do(Action),
    /// The operation completed (for acquires: the lock is held).
    Ready,
}

/// Test-and-set spinlock acquisition with exponential backoff, using
/// `fetch_and_store` (§2.2.3).
///
/// # Example
///
/// ```
/// use telegraphos::sync::{LockAcquire, SyncStep};
/// use telegraphos::{Action, Resume};
/// use tg_mem::VAddr;
///
/// let mut acq = LockAcquire::new(VAddr::new(0x4000_0000));
/// // First step issues the fetch_and_store.
/// let SyncStep::Do(Action::FetchStore(_, 1)) = acq.step(Resume::Start) else {
///     panic!("expected a fetch_and_store");
/// };
/// // Lock was free (old value 0): acquired.
/// assert_eq!(acq.step(Resume::Value(0)), SyncStep::Ready);
/// ```
#[derive(Clone, Debug)]
pub struct LockAcquire {
    lock: VAddr,
    backoff: SimTime,
    spinning: bool,
    /// Failed attempts (contention statistic).
    pub(crate) attempts: u32,
}

impl LockAcquire {
    /// Prepares to acquire the lock at `lock`.
    pub fn new(lock: VAddr) -> Self {
        LockAcquire {
            lock,
            backoff: SimTime::from_us(1),
            spinning: false,
            attempts: 0,
        }
    }

    /// Advances the acquisition.
    pub fn step(&mut self, r: Resume) -> SyncStep {
        if self.spinning {
            // We just finished a backoff compute; try again.
            self.spinning = false;
            return SyncStep::Do(Action::FetchStore(self.lock, 1));
        }
        match r {
            Resume::Start | Resume::Done => SyncStep::Do(Action::FetchStore(self.lock, 1)),
            Resume::Value(0) => SyncStep::Ready,
            Resume::Value(_) | Resume::Failed(_) => {
                // Held — or the lock's home is (currently) unreachable:
                // crash-stop peers can restart, so back off and retry.
                self.attempts += 1;
                self.spinning = true;
                let wait = self.backoff;
                self.backoff = (self.backoff * 2).min(SimTime::from_us(64));
                SyncStep::Do(Action::Compute(wait))
            }
        }
    }
}

/// Lock release: FENCE (flush outstanding writes), then clear the flag —
/// the paper's UNLOCK.
#[derive(Clone, Debug)]
pub struct LockRelease {
    lock: VAddr,
    fenced: bool,
}

impl LockRelease {
    /// Prepares to release the lock at `lock`.
    pub fn new(lock: VAddr) -> Self {
        LockRelease {
            lock,
            fenced: false,
        }
    }

    /// Advances the release.
    pub fn step(&mut self, _r: Resume) -> SyncStep {
        if !self.fenced {
            self.fenced = true;
            SyncStep::Do(Action::Fence)
        } else {
            // One more step after the store completes reports Ready.
            let lock = self.lock;
            self.fenced = false; // reset for potential reuse
            SyncStep::Do(Action::Write(lock, 0))
        }
    }
}

/// Sense-reversing barrier over `fetch_and_inc` + a sense word.
///
/// `counter` counts arrivals; `sense` flips each episode. The last arriver
/// fences and flips the sense; everyone else spins on the sense word with
/// backoff.
#[derive(Clone, Debug)]
pub struct BarrierWait {
    counter: VAddr,
    sense: VAddr,
    participants: u64,
    my_sense: u64,
    state: BarrierState,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BarrierState {
    Arrive,
    LastFence,
    LastFlip,
    LastReset,
    SpinBackoff,
    SpinRead,
}

impl BarrierWait {
    /// A barrier episode for `participants` nodes. `my_sense` must flip
    /// (0/1) between consecutive episodes on each participant.
    ///
    /// # Panics
    ///
    /// Panics if `participants == 0`.
    pub fn new(counter: VAddr, sense: VAddr, participants: u64, my_sense: u64) -> Self {
        assert!(participants > 0);
        BarrierWait {
            counter,
            sense,
            participants,
            my_sense,
            state: BarrierState::Arrive,
        }
    }

    /// Advances the barrier.
    pub fn step(&mut self, r: Resume) -> SyncStep {
        use BarrierState as S;
        match self.state {
            S::Arrive => match r {
                // On a structured failure (the counter's home is
                // unreachable) re-arrive: the peer may restart, and the
                // caller decides when to give up.
                Resume::Start | Resume::Done | Resume::Failed(_) => {
                    SyncStep::Do(Action::FetchAdd(self.counter, 1))
                }
                Resume::Value(old) => {
                    if old + 1 == self.participants {
                        self.state = S::LastFence;
                        SyncStep::Do(Action::Fence)
                    } else {
                        self.state = S::SpinRead;
                        SyncStep::Do(Action::Read(self.sense))
                    }
                }
            },
            S::LastFence => {
                // Reset the arrival counter for the next episode, then flip.
                self.state = S::LastReset;
                SyncStep::Do(Action::Write(self.counter, 0))
            }
            S::LastReset => {
                self.state = S::LastFlip;
                SyncStep::Do(Action::Write(self.sense, 1 - self.my_sense))
            }
            S::LastFlip => SyncStep::Ready,
            S::SpinRead => match r {
                Resume::Value(v) if v == 1 - self.my_sense => SyncStep::Ready,
                _ => {
                    self.state = S::SpinBackoff;
                    SyncStep::Do(Action::Compute(SimTime::from_us(2)))
                }
            },
            S::SpinBackoff => {
                self.state = S::SpinRead;
                SyncStep::Do(Action::Read(self.sense))
            }
        }
    }
}

/// Ticket-lock acquisition: `fetch_and_inc` takes a ticket, then the
/// holder spins (with backoff) on the now-serving word — FIFO-fair, one
/// atomic per acquisition regardless of contention (the natural use of
/// the paper's `fetch_and_inc`, §2.2.3).
#[derive(Clone, Debug)]
pub struct TicketAcquire {
    ticket_word: VAddr,
    serving_word: VAddr,
    state: TicketState,
    my_ticket: u64,
    backoff: SimTime,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TicketState {
    TakeTicket,
    CheckServing,
    Backoff,
}

impl TicketAcquire {
    /// Prepares to acquire the ticket lock at (`ticket_word`,
    /// `serving_word`).
    pub fn new(ticket_word: VAddr, serving_word: VAddr) -> Self {
        TicketAcquire {
            ticket_word,
            serving_word,
            state: TicketState::TakeTicket,
            my_ticket: 0,
            backoff: SimTime::from_us(2),
        }
    }

    /// The ticket drawn (valid once past `TakeTicket`).
    pub fn ticket(&self) -> u64 {
        self.my_ticket
    }

    /// Advances the acquisition.
    pub fn step(&mut self, r: Resume) -> SyncStep {
        match self.state {
            TicketState::TakeTicket => match r {
                // A structured failure re-draws the ticket: the lock
                // word's home may come back (crash-stop restart).
                Resume::Start | Resume::Done | Resume::Failed(_) => {
                    SyncStep::Do(Action::FetchAdd(self.ticket_word, 1))
                }
                Resume::Value(t) => {
                    self.my_ticket = t;
                    self.state = TicketState::CheckServing;
                    SyncStep::Do(Action::Read(self.serving_word))
                }
            },
            TicketState::CheckServing => match r {
                Resume::Value(now) if now == self.my_ticket => SyncStep::Ready,
                _ => {
                    self.state = TicketState::Backoff;
                    let wait = self.backoff;
                    self.backoff = (self.backoff * 2).min(SimTime::from_us(32));
                    SyncStep::Do(Action::Compute(wait))
                }
            },
            TicketState::Backoff => {
                self.state = TicketState::CheckServing;
                SyncStep::Do(Action::Read(self.serving_word))
            }
        }
    }
}

/// Ticket-lock release: fence, then advance the now-serving word. The
/// holder passes its ticket so the successor's value is exact.
#[derive(Clone, Debug)]
pub struct TicketRelease {
    serving_word: VAddr,
    my_ticket: u64,
    fenced: bool,
}

impl TicketRelease {
    /// Prepares to release the lock held with `my_ticket`.
    pub fn new(serving_word: VAddr, my_ticket: u64) -> Self {
        TicketRelease {
            serving_word,
            my_ticket,
            fenced: false,
        }
    }

    /// Advances the release (fence, then the hand-off store).
    pub fn step(&mut self, _r: Resume) -> SyncStep {
        if !self.fenced {
            self.fenced = true;
            SyncStep::Do(Action::Fence)
        } else {
            SyncStep::Do(Action::Write(self.serving_word, self.my_ticket + 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn va(x: u64) -> VAddr {
        VAddr::new(0x4000_0000 + x)
    }

    #[test]
    fn lock_acquire_spins_then_wins() {
        let mut acq = LockAcquire::new(va(0));
        assert_eq!(
            acq.step(Resume::Start),
            SyncStep::Do(Action::FetchStore(va(0), 1))
        );
        // Contended: old value 1 -> backoff compute, then retry.
        let SyncStep::Do(Action::Compute(_)) = acq.step(Resume::Value(1)) else {
            panic!("expected backoff");
        };
        assert_eq!(
            acq.step(Resume::Done),
            SyncStep::Do(Action::FetchStore(va(0), 1))
        );
        assert_eq!(acq.step(Resume::Value(0)), SyncStep::Ready);
        assert_eq!(acq.attempts, 1);
    }

    #[test]
    fn backoff_grows_but_saturates() {
        let mut acq = LockAcquire::new(va(0));
        let _ = acq.step(Resume::Start);
        let mut waits = Vec::new();
        for _ in 0..10 {
            let SyncStep::Do(Action::Compute(w)) = acq.step(Resume::Value(1)) else {
                panic!("expected backoff");
            };
            waits.push(w);
            let _ = acq.step(Resume::Done); // retry issued
        }
        assert!(waits.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(*waits.last().unwrap(), SimTime::from_us(64));
    }

    #[test]
    fn release_fences_before_clearing() {
        let mut rel = LockRelease::new(va(0));
        assert_eq!(rel.step(Resume::Start), SyncStep::Do(Action::Fence));
        assert_eq!(
            rel.step(Resume::Done),
            SyncStep::Do(Action::Write(va(0), 0))
        );
    }

    #[test]
    fn barrier_last_arriver_flips_sense() {
        let mut b = BarrierWait::new(va(0), va(8), 2, 0);
        assert_eq!(
            b.step(Resume::Start),
            SyncStep::Do(Action::FetchAdd(va(0), 1))
        );
        // We are the second (last) of two.
        assert_eq!(b.step(Resume::Value(1)), SyncStep::Do(Action::Fence));
        assert_eq!(b.step(Resume::Done), SyncStep::Do(Action::Write(va(0), 0)));
        assert_eq!(b.step(Resume::Done), SyncStep::Do(Action::Write(va(8), 1)));
        assert_eq!(b.step(Resume::Done), SyncStep::Ready);
    }

    #[test]
    fn barrier_early_arriver_spins_until_sense_flips() {
        let mut b = BarrierWait::new(va(0), va(8), 3, 0);
        let _ = b.step(Resume::Start);
        // First arriver: old = 0.
        assert_eq!(b.step(Resume::Value(0)), SyncStep::Do(Action::Read(va(8))));
        // Sense still old: backoff then re-read.
        let SyncStep::Do(Action::Compute(_)) = b.step(Resume::Value(0)) else {
            panic!("expected backoff");
        };
        assert_eq!(b.step(Resume::Done), SyncStep::Do(Action::Read(va(8))));
        // Sense flipped: through.
        assert_eq!(b.step(Resume::Value(1)), SyncStep::Ready);
    }

    #[test]
    fn ticket_lock_orders_by_ticket() {
        let mut a = TicketAcquire::new(va(0), va(8));
        assert_eq!(
            a.step(Resume::Start),
            SyncStep::Do(Action::FetchAdd(va(0), 1))
        );
        // Drew ticket 2; serving is 0 -> spin.
        assert_eq!(a.step(Resume::Value(2)), SyncStep::Do(Action::Read(va(8))));
        let SyncStep::Do(Action::Compute(_)) = a.step(Resume::Value(0)) else {
            panic!("expected backoff");
        };
        assert_eq!(a.step(Resume::Done), SyncStep::Do(Action::Read(va(8))));
        // Now serving 2: acquired.
        assert_eq!(a.step(Resume::Value(2)), SyncStep::Ready);
        assert_eq!(a.ticket(), 2);
    }

    #[test]
    fn ticket_release_fences_then_hands_off() {
        let mut r = TicketRelease::new(va(8), 2);
        assert_eq!(r.step(Resume::Start), SyncStep::Do(Action::Fence));
        assert_eq!(r.step(Resume::Done), SyncStep::Do(Action::Write(va(8), 3)));
    }

    #[test]
    fn ticket_backoff_saturates() {
        let mut a = TicketAcquire::new(va(0), va(8));
        let _ = a.step(Resume::Start);
        let _ = a.step(Resume::Value(9)); // drew ticket 9, read issued
        let mut last = SimTime::ZERO;
        for _ in 0..8 {
            let SyncStep::Do(Action::Compute(w)) = a.step(Resume::Value(0)) else {
                panic!("expected backoff");
            };
            assert!(w >= last);
            last = w;
            let _ = a.step(Resume::Done);
        }
        assert_eq!(last, SimTime::from_us(32));
    }
}
