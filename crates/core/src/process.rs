//! The user-program model.
//!
//! Simulated applications are poll-style state machines: the CPU calls
//! [`Process::resume`] with the result of the previous action and receives
//! the next [`Action`]. Workloads in `tg-workloads` and the sync
//! primitives in [`crate::sync`] are built from this interface; the
//! [`Script`] convenience runs a fixed action list.

use tg_mem::VAddr;
use tg_sim::SimTime;
use tg_wire::NodeId;

/// One architectural action issued by a simulated program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Blocking load; resumes with [`Resume::Value`].
    Read(VAddr),
    /// Store (non-blocking at the CPU unless back-pressured).
    Write(VAddr, u64),
    /// Remote `fetch_and_store(va, new)`; resumes with the old value.
    FetchStore(VAddr, u64),
    /// Remote `fetch_and_inc(va, delta)`; resumes with the old value.
    FetchAdd(VAddr, u64),
    /// Remote `compare_and_swap(va, expect, new)`; resumes with the old
    /// value.
    CompareSwap(VAddr, u64, u64),
    /// Non-blocking remote copy of `words` words from `from` to `to`
    /// (destination must map to local shared memory).
    Copy {
        /// Source (typically a remote window address).
        from: VAddr,
        /// Destination (local shared memory).
        to: VAddr,
        /// Number of 64-bit words.
        words: u32,
    },
    /// MEMORY_BARRIER (§2.3.5): stall until all outstanding remote
    /// operations complete.
    Fence,
    /// Local computation for the given duration.
    Compute(SimTime),
    /// OS-trap message send (PVM-style baseline): resumes when the local
    /// OS accepted the message.
    Send {
        /// Destination node.
        dst: NodeId,
        /// Message size.
        bytes: u32,
        /// Message tag for matching.
        tag: u32,
    },
    /// Blocking OS-trap receive of a message with `tag`; resumes with the
    /// byte count.
    Recv {
        /// Tag to wait for.
        tag: u32,
    },
    /// Terminate the process.
    Halt,
}

/// What the previous action produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resume {
    /// First activation: no previous action.
    Start,
    /// The action completed without a value (writes, fences, computes,
    /// copies, sends).
    Done,
    /// The action produced a value (loads, atomics, receives).
    Value(u64),
    /// The action failed structurally: its remote destination crashed.
    /// The process is released to decide what to do — crash-aware
    /// programs fail over; naive ones treat it like [`Resume::Done`].
    Failed(tg_hib::OpError),
}

impl Resume {
    /// The carried value.
    ///
    /// # Panics
    ///
    /// Panics if this resume carries no value — a program logic error.
    pub fn value(self) -> u64 {
        match self {
            Resume::Value(v) => v,
            other => panic!("expected a value, got {other:?}"),
        }
    }
}

/// A simulated user program.
pub trait Process: 'static {
    /// Produces the next action given the previous action's result.
    fn resume(&mut self, r: Resume) -> Action;

    /// [`Process::resume`] with the current simulated instant available.
    /// The CPU always calls this entry point; the default ignores the
    /// clock and delegates, so plain programs only implement `resume`.
    /// Time-aware services (adaptive request timeouts, open-loop load
    /// generators) override this instead.
    fn resume_at(&mut self, r: Resume, now: SimTime) -> Action {
        let _ = now;
        self.resume(r)
    }
}

impl<F: FnMut(Resume) -> Action + 'static> Process for F {
    fn resume(&mut self, r: Resume) -> Action {
        self(r)
    }
}

/// Runs a fixed list of actions, recording every value that comes back.
///
/// # Example
///
/// ```
/// use telegraphos::{Action, Process, Resume, Script};
/// use tg_mem::VAddr;
///
/// let mut s = Script::new(vec![
///     Action::Write(VAddr::new(0x1000_0000), 7),
///     Action::Read(VAddr::new(0x1000_0000)),
/// ]);
/// assert_eq!(s.resume(Resume::Start), Action::Write(VAddr::new(0x1000_0000), 7));
/// assert_eq!(s.resume(Resume::Done), Action::Read(VAddr::new(0x1000_0000)));
/// assert_eq!(s.resume(Resume::Value(7)), Action::Halt);
/// assert_eq!(s.values(), &[7]);
/// ```
#[derive(Debug)]
pub struct Script {
    actions: std::vec::IntoIter<Action>,
    values: Vec<u64>,
}

impl Script {
    /// A script over the given actions (a final `Halt` is implicit).
    pub fn new(actions: Vec<Action>) -> Self {
        Script {
            actions: actions.into_iter(),
            values: Vec::new(),
        }
    }

    /// Every value returned to the script so far, in order.
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

impl Process for Script {
    fn resume(&mut self, r: Resume) -> Action {
        if let Resume::Value(v) = r {
            self.values.push(v);
        }
        self.actions.next().unwrap_or(Action::Halt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_walks_actions_and_collects_values() {
        let mut s = Script::new(vec![
            Action::Compute(SimTime::from_ns(5)),
            Action::Read(VAddr::new(64)),
        ]);
        assert_eq!(
            s.resume(Resume::Start),
            Action::Compute(SimTime::from_ns(5))
        );
        assert_eq!(s.resume(Resume::Done), Action::Read(VAddr::new(64)));
        assert_eq!(s.resume(Resume::Value(9)), Action::Halt);
        assert_eq!(s.resume(Resume::Done), Action::Halt, "stays halted");
        assert_eq!(s.values(), &[9]);
    }

    #[test]
    fn closures_are_processes() {
        let mut calls = 0;
        let mut p = move |_r: Resume| {
            calls += 1;
            if calls > 1 {
                Action::Halt
            } else {
                Action::Fence
            }
        };
        assert_eq!(Process::resume(&mut p, Resume::Start), Action::Fence);
        assert_eq!(Process::resume(&mut p, Resume::Done), Action::Halt);
    }

    #[test]
    #[should_panic(expected = "expected a value")]
    fn resume_value_accessor_guards() {
        let _ = Resume::Done.value();
    }
}
