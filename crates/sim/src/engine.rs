//! The deterministic event engine.

use std::any::Any;
use std::fmt;

use crate::queue::{Entry, Popped, RadixQueue};
use crate::time::SimTime;

/// Identifier of a component registered with an [`Engine`].
///
/// Ids are dense indices assigned in registration order, so they are stable
/// across runs of the same setup code — part of the determinism contract.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CompId(pub(crate) u32);

impl CompId {
    /// The raw index of this component.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A simulated hardware or software element.
///
/// Components receive events of the simulation-wide message type `M` and
/// react by mutating their own state and emitting further events through the
/// [`Ctx`]. Components never hold references to each other; all interaction
/// is via scheduled events, which is what makes runs reproducible.
pub trait Component<M>: Any {
    /// Handles one event delivered to this component.
    fn on_event(&mut self, ev: M, ctx: &mut Ctx<'_, M>);

    /// A short human-readable name used in traces and panics.
    fn name(&self) -> &str;

    /// Deferred delivery: true when handling `ev` now, on the current
    /// state, would schedule nothing, emit no probe event,
    /// touch no shared state, and change only what
    /// [`absorb`](Component::absorb) reproduces exactly. The engine then
    /// keeps an event sent with [`Ctx::send_deferrable`] off the queue and
    /// absorbs it in place of delivering it.
    ///
    /// The answer must stay true when this component's earlier-keyed
    /// deferred events are absorbed first. Whenever a handler makes it
    /// false for an event already deferred, it must call
    /// [`Ctx::recheck_deferred`]. The default absorbs nothing.
    fn can_absorb(&self, ev: &M) -> bool {
        let _ = ev;
        false
    }

    /// Applies an event that [`can_absorb`](Component::can_absorb)
    /// accepted, at its delivery instant `at`, exactly as
    /// [`on_event`](Component::on_event) would have. Only called for
    /// events this component accepted.
    fn absorb(&mut self, ev: M, at: SimTime) {
        let _ = (ev, at);
        unreachable!("{} absorbed an event it never accepted", self.name());
    }
}

/// A re-check of deferred events asked for during a delivery.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Recheck {
    No,
    /// This component's (see [`Ctx::recheck_deferred`]).
    Own,
    /// Every component's (see [`Ctx::recheck_all_deferred`]).
    All,
}

/// An event scheduled during a delivery, drained into the engine when the
/// handler returns.
#[derive(Debug)]
struct Outgoing<M> {
    at: SimTime,
    dst: CompId,
    msg: M,
    /// Sent with [`Ctx::send_deferrable`]: the receiver may absorb it.
    deferrable: bool,
}

/// The per-delivery context handed to [`Component::on_event`].
///
/// Lets the component read the clock, learn its own id, and schedule
/// events (to itself or others).
#[derive(Debug)]
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: CompId,
    outbox: &'a mut Vec<Outgoing<M>>,
    recheck: &'a mut Recheck,
    /// Set by the engine before the handler runs: nothing else is
    /// pending at `now`, and this component has no
    /// deferred event keyed at or before `now` (see [`Ctx::quiet`]).
    calm: bool,
    /// Events this handler ran in place (see [`Ctx::count_inlined`]).
    inlined: u64,
}

impl<'a, M> Ctx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component currently handling an event.
    pub fn self_id(&self) -> CompId {
        self.self_id
    }

    /// Schedules `msg` for delivery to `dst` after `delay`.
    pub fn send(&mut self, dst: CompId, delay: SimTime, msg: M) {
        self.outbox.push(Outgoing {
            at: self.now + delay,
            dst,
            msg,
            deferrable: false,
        });
    }

    /// Like [`Ctx::send`], for an event the receiver may absorb instead
    /// of handling (see [`Component::can_absorb`]). The event takes its
    /// `(at, seq)` key here either way, so deferring it moves no other
    /// event.
    pub fn send_deferrable(&mut self, dst: CompId, delay: SimTime, msg: M) {
        self.outbox.push(Outgoing {
            at: self.now + delay,
            dst,
            msg,
            deferrable: true,
        });
    }

    /// Schedules `msg` for delivery back to this component after `delay`.
    pub fn send_self(&mut self, delay: SimTime, msg: M) {
        let id = self.self_id;
        self.send(id, delay, msg);
    }

    /// Tells the engine that this handler may have made some of this
    /// component's deferred events unabsorbable. After the handler
    /// returns, the engine asks [`Component::can_absorb`] again for each
    /// and queues the refused ones under their original keys.
    pub fn recheck_deferred(&mut self) {
        *self.recheck = (*self.recheck).max(Recheck::Own);
    }

    /// Like [`Ctx::recheck_deferred`], for every component: this handler
    /// changed state that other components' absorbability reads. After
    /// it returns, the engine absorbs every deferred event keyed before
    /// the current one (they saw the old state), then re-asks the rest.
    #[cold]
    pub fn recheck_all_deferred(&mut self) {
        *self.recheck = Recheck::All;
    }

    /// Same-instant continuations: true when a zero-delay event this
    /// handler sends to itself would be the very next delivery. That
    /// holds when no deferred re-check was requested, no other event of
    /// the current instant is pending (in
    /// the batch or in the queue), and this component has no deferred
    /// event keyed at or before the current instant.
    ///
    /// While it holds, the handler may handle such an event in place
    /// instead of sending it, provided no zero-delay event was sent ahead
    /// of it in this delivery: it sees exactly the state its delivery
    /// would have seen. Call [`Ctx::count_inlined`] for each one.
    #[inline]
    pub fn quiet(&self) -> bool {
        self.calm && *self.recheck == Recheck::No
    }

    /// Counts one event handled in place under [`Ctx::quiet`]; it is
    /// tallied as scheduled and inlined, never delivered.
    #[inline]
    pub fn count_inlined(&mut self) {
        debug_assert!(self.quiet(), "inlined an event while not quiet");
        self.inlined += 1;
    }
}

/// Why a `run_*` call returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunLimit {
    /// The event queue drained completely.
    Drained,
    /// Every node a cluster driver waited for halted (the engine itself
    /// never returns this).
    Halted,
    /// The time horizon passed to [`Engine::run_until`] was reached.
    Deadline,
}

/// A shared counter of "useful work done", ticked by components at their
/// commit points and compared across run slices by a no-progress
/// watchdog: a slice that delivered events but left the meter unchanged
/// is a stall. What counts as progress is the caller's vocabulary, not
/// the engine's. Cloning shares the counter (the simulation is
/// single-threaded).
#[derive(Clone, Debug, Default)]
pub struct ProgressMeter(std::rc::Rc<std::cell::Cell<u64>>);

impl ProgressMeter {
    /// A fresh meter at zero.
    pub fn new() -> Self {
        ProgressMeter::default()
    }

    /// Records one unit of progress.
    pub fn tick(&self) {
        self.0.set(self.0.get() + 1);
    }

    /// Total progress recorded so far.
    pub fn count(&self) -> u64 {
        self.0.get()
    }
}

/// Counters describing an engine run; useful for detecting livelock in
/// tests and for reporting simulator throughput in benches.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineStats {
    /// Events delivered to a handler since construction.
    pub events_delivered: u64,
    /// Deferred events absorbed instead of delivered (see
    /// [`Component::can_absorb`]).
    pub events_absorbed: u64,
    /// Same-instant continuations handled inside the delivery that sent
    /// them (see [`Ctx::quiet`]). Delivered + absorbed + inlined is the
    /// logical event count, equal to what a run that neither defers nor
    /// inlines delivers.
    pub events_inlined: u64,
    /// Total events scheduled since construction, inlined ones included.
    pub events_scheduled: u64,
    /// High-water mark of *queued events* — entries in the queue plus
    /// any same-instant batch popped but not yet delivered; deferred
    /// events are not queued and do not count. Counting events, never
    /// queue-internal structures such as buckets or slots, keeps the
    /// datapoint independent of how the queue is built, so the exact
    /// pins in the root `tests/event_counts.rs` and perfbench's
    /// `sim.peak_queue` stay comparable across queue designs.
    pub max_queue_len: usize,
}

impl EngineStats {
    /// The logical event count: delivered + absorbed + inlined, what a
    /// run that neither defers nor inlines would deliver.
    pub fn logical_events(&self) -> u64 {
        self.events_delivered + self.events_absorbed + self.events_inlined
    }
}

/// Per-component delivery counters, indexed by [`CompId`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ComponentStats {
    /// Events delivered to this component.
    pub delivered: u64,
    /// Deferred events this component absorbed instead.
    pub absorbed: u64,
    /// Events this component handled in place (see [`Ctx::quiet`]).
    pub inlined: u64,
    /// Events scheduled with this component as destination, inlined ones
    /// included.
    pub scheduled: u64,
}

/// The engine's bookkeeping for one component, kept in one cache line:
/// its delivered/absorbed/scheduled counters (the rarer inlined count
/// lives in [`Engine::inlined`]) and its deferred events (accepted by
/// [`Component::can_absorb`], not yet absorbed or queued).
#[repr(align(64))]
struct Slot<M> {
    delivered: u64,
    absorbed: u64,
    scheduled: u64,
    /// The smallest deferred key (`u128::MAX` when none), so the check
    /// before each delivery is one compare.
    due: u128,
    /// The deferred events, unsorted: a list stays a few entries long.
    list: Vec<Entry<M>>,
}

impl<M> Slot<M> {
    /// Removes and returns the entry keyed `due`.
    #[inline]
    fn pop_due(&mut self) -> Entry<M> {
        if self.list.len() == 1 {
            self.due = u128::MAX;
            return self.list.pop().expect("one entry");
        }
        let i = self
            .list
            .iter()
            .position(|e| e.key == self.due)
            .expect("due key is listed");
        let e = self.list.swap_remove(i);
        self.reset_due();
        e
    }

    /// Recomputes `due` after removals.
    fn reset_due(&mut self) {
        self.due = self.list.iter().map(|e| e.key).min().unwrap_or(u128::MAX);
    }
}

/// The payload stored in each queue entry; the `(at, seq)` ordering key
/// lives packed inside the entry itself.
struct Scheduled<M> {
    dst: CompId,
    msg: M,
}

/// The discrete-event engine: a clock, a radix queue of scheduled
/// events, and the set of registered components.
///
/// See the [crate docs](crate) for a complete example.
pub struct Engine<M> {
    components: Vec<Box<dyn Component<M>>>,
    /// Component names captured once at registration, so name lookups
    /// never make a virtual `name()` call (or allocate).
    names: Vec<Box<str>>,
    queue: RadixQueue<Scheduled<M>>,
    now: SimTime,
    seq: u64,
    stats: EngineStats,
    /// Per-component counters and deferred events, indexed by
    /// [`CompId`]. Each deferred event is absorbed before any
    /// later-keyed delivery to its component, or queued under its key
    /// once the component refuses it.
    slots: Vec<Slot<M>>,
    /// Per-component inlined counts (see [`Ctx::quiet`]), indexed by
    /// [`CompId`].
    inlined: Vec<u64>,
    outbox: Vec<Outgoing<M>>,
    /// Scratch for batched same-instant delivery; kept on the engine so
    /// its capacity is reused across batches.
    batch: Vec<Entry<Scheduled<M>>>,
    /// Same-instant events popped as a batch but not yet delivered; they
    /// are still "pending" for queue-depth accounting even though they
    /// have left the queue.
    in_batch: usize,
    /// Deferred events across all components.
    deferred_len: usize,
    /// Set by [`Ctx::recheck_deferred`] and
    /// [`Ctx::recheck_all_deferred`] during a delivery.
    recheck: Recheck,
    /// Set when a deferred event is queued at the current instant: it may
    /// sort before the rest of a same-instant batch already popped.
    undercut: bool,
}

impl<M> fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("components", &self.components.len())
            .field("pending", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<M: 'static> Default for Engine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: 'static> Engine<M> {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        Engine {
            components: Vec::new(),
            names: Vec::new(),
            queue: RadixQueue::new(),
            now: SimTime::ZERO,
            seq: 0,
            stats: EngineStats::default(),
            slots: Vec::new(),
            inlined: Vec::new(),
            outbox: Vec::new(),
            batch: Vec::new(),
            in_batch: 0,
            deferred_len: 0,
            recheck: Recheck::No,
            undercut: false,
        }
    }

    /// Registers a component and returns its id. The component's name is
    /// interned here, once.
    pub fn add(&mut self, component: impl Component<M>) -> CompId {
        let id = CompId(self.components.len() as u32);
        self.names.push(component.name().into());
        self.components.push(Box::new(component));
        self.inlined.push(0);
        self.slots.push(Slot {
            delivered: 0,
            absorbed: 0,
            scheduled: 0,
            due: u128::MAX,
            list: Vec::new(),
        });
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run counters accumulated so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Per-component delivered/absorbed/inlined/scheduled counters,
    /// indexed by [`CompId`].
    pub fn component_stats(&self) -> Vec<ComponentStats> {
        self.per_component().collect()
    }

    fn per_component(&self) -> impl Iterator<Item = ComponentStats> + '_ {
        self.slots
            .iter()
            .zip(&self.inlined)
            .map(|(s, &inlined)| ComponentStats {
                delivered: s.delivered,
                absorbed: s.absorbed,
                inlined,
                scheduled: s.scheduled,
            })
    }

    /// Schedules `msg` for `dst` at `delay` after the current time.
    ///
    /// # Panics
    ///
    /// Panics if `dst` was not returned by [`Engine::add`] on this engine.
    pub fn schedule(&mut self, delay: SimTime, dst: CompId, msg: M) {
        assert!(
            dst.index() < self.components.len(),
            "schedule to unregistered component {dst}"
        );
        let at = self.now + delay;
        self.push(at, dst, msg);
    }

    /// Takes the next sequence number for an event to `dst`, counting it
    /// as scheduled.
    #[inline]
    fn key_for(&mut self, dst: CompId) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.stats.events_scheduled += 1;
        self.slots[dst.index()].scheduled += 1;
        seq
    }

    #[inline]
    fn push(&mut self, at: SimTime, dst: CompId, msg: M) {
        let seq = self.key_for(dst);
        self.enqueue(Entry::new(at, seq, Scheduled { dst, msg }));
    }

    /// Puts a keyed entry on the queue.
    #[inline]
    fn enqueue(&mut self, entry: Entry<Scheduled<M>>) {
        self.queue.push(entry);
        // `in_batch` counts same-instant events popped but not yet
        // delivered: still pending, just not in the queue structure.
        self.stats.max_queue_len = self
            .stats
            .max_queue_len
            .max(self.queue.len() + self.in_batch);
    }

    /// Keys a [`Ctx::send_deferrable`] event exactly as [`Engine::push`]
    /// would, then defers it if its receiver can absorb it and queues it
    /// otherwise. `now_key` is the key of the event being delivered: the
    /// receiver's deferred events keyed before it are absorbed first.
    #[inline(never)]
    fn push_deferrable(&mut self, at: SimTime, dst: CompId, msg: M, now_key: u128) {
        let seq = self.key_for(dst);
        let d = dst.index();
        if self.absorb_due(d, now_key) {
            self.absorb_before(d, now_key);
        }
        if !self.components[d].can_absorb(&msg) {
            self.enqueue(Entry::new(at, seq, Scheduled { dst, msg }));
            return;
        }
        let entry = Entry::new(at, seq, msg);
        let slot = &mut self.slots[d];
        slot.due = slot.due.min(entry.key);
        slot.list.push(entry);
        self.deferred_len += 1;
    }

    /// True when component `d` has a deferred event keyed before `key`.
    #[inline(always)]
    fn absorb_due(&self, d: usize, key: u128) -> bool {
        self.slots[d].due < key
    }

    /// Absorbs, in key order, every event deferred for component `d` whose
    /// key precedes `key`; returns the instant of the last one.
    #[inline(never)]
    fn absorb_before(&mut self, d: usize, key: u128) -> Option<SimTime> {
        let mut last = None;
        while self.slots[d].due < key {
            let e = self.slots[d].pop_due();
            let at = e.at();
            self.deferred_len -= 1;
            self.stats.events_absorbed += 1;
            self.slots[d].absorbed += 1;
            self.components[d].absorb(e.item, at);
            last = Some(at);
        }
        last
    }

    /// Absorbs every deferred event keyed before `key`, across all
    /// components; returns the latest instant absorbed.
    fn absorb_all_before(&mut self, key: u128) -> Option<SimTime> {
        (0..self.slots.len())
            .filter_map(|d| self.absorb_before(d, key))
            .max()
    }

    /// Queues, under their reserved keys, the events deferred for
    /// component `d` that `keep` refuses.
    #[cold]
    fn materialize(&mut self, d: usize, keep: impl Fn(&dyn Component<M>, &M) -> bool) {
        let mut i = 0;
        while i < self.slots[d].list.len() {
            if keep(self.components[d].as_ref(), &self.slots[d].list[i].item) {
                i += 1;
                continue;
            }
            let e = self.slots[d].list.swap_remove(i);
            self.deferred_len -= 1;
            self.undercut |= e.at() == self.now;
            self.enqueue(Entry {
                key: e.key,
                item: Scheduled {
                    dst: CompId(d as u32),
                    msg: e.item,
                },
            });
        }
        self.slots[d].reset_due();
    }

    /// Delivers one already-popped event at the current time: earlier
    /// deferred events of its component, counters, the component's
    /// handler, the deferred re-check, and the outbox drain.
    #[inline(always)]
    fn deliver(&mut self, entry: Entry<Scheduled<M>>) {
        let key = entry.key;
        let Scheduled { dst, msg } = entry.item;
        let d = dst.index();
        if self.absorb_due(d, key) {
            self.absorb_before(d, key);
        }
        self.stats.events_delivered += 1;
        self.slots[d].delivered += 1;

        let now_ps = self.now.as_ps();
        let calm = self.in_batch == 0
            && self.queue.front_after(now_ps)
            && (self.slots[d].due >> 64) as u64 > now_ps;
        let mut outbox = std::mem::take(&mut self.outbox);
        let inlined = {
            let mut ctx = Ctx {
                now: self.now,
                self_id: dst,
                outbox: &mut outbox,
                recheck: &mut self.recheck,
                calm,
                inlined: 0,
            };
            self.components[d].on_event(msg, &mut ctx);
            ctx.inlined
        };
        if inlined > 0 {
            self.count_inlined(d, inlined);
        }
        if self.recheck != Recheck::No {
            if std::mem::replace(&mut self.recheck, Recheck::No) == Recheck::All {
                self.absorb_all_before(key);
                (0..self.slots.len()).for_each(|c| self.materialize(c, |c, ev| c.can_absorb(ev)));
            } else {
                self.materialize(d, |c, ev| c.can_absorb(ev));
            }
        }
        for Outgoing {
            at,
            dst,
            msg,
            deferrable,
        } in outbox.drain(..)
        {
            assert!(
                dst.index() < self.components.len(),
                "event sent to unregistered component {dst}"
            );
            if deferrable {
                self.push_deferrable(at, dst, msg, key);
            } else {
                self.push(at, dst, msg);
            }
        }
        self.outbox = outbox;
    }

    /// Tallies `n` events component `d` handled in place. Debug builds
    /// re-check what made that exact: nothing else is queued at `now` and
    /// `d` has no deferred event keyed at or before it.
    fn count_inlined(&mut self, d: usize, n: u64) {
        #[cfg(debug_assertions)]
        {
            let now_ps = self.now.as_ps();
            assert!(
                self.in_batch == 0 && self.queue.front_after(now_ps),
                "{} inlined while another event was due at {}",
                self.names[d],
                self.now
            );
            assert!(
                (self.slots[d].due >> 64) as u64 > now_ps,
                "{} inlined ahead of its own deferred event",
                self.names[d]
            );
        }
        self.stats.events_inlined += n;
        self.stats.events_scheduled += n;
        self.inlined[d] += n;
        self.slots[d].scheduled += n;
    }

    /// Runs until the queue drains.
    pub fn run(&mut self) -> RunLimit {
        self.run_until(SimTime::MAX)
    }

    /// Runs until `deadline` (inclusive of events *at* the deadline) or
    /// until the queue drains. On [`RunLimit::Deadline`] the clock moves
    /// forward to `deadline`; a deadline already behind the clock leaves it
    /// where it is.
    ///
    /// The one delivery loop: delivers in `(at, seq)` order. Same-instant
    /// events are popped as one batch (one queue min-search for the whole
    /// tie instead of one per event) and delivered in their `(at, seq)`
    /// order; events scheduled during the batch carry strictly higher
    /// sequence numbers, so batching cannot reorder anything. A deferred
    /// event queued at the current instant can sort inside the batch, so
    /// it sends the undelivered remainder back to the queue with keys
    /// unchanged.
    ///
    /// When the run stops, every deferred event the same run without
    /// deferral would have delivered is absorbed: all of them on a drain
    /// (the clock ends at the last one), those up to `deadline` on a
    /// deadline.
    pub fn run_until(&mut self, deadline: SimTime) -> RunLimit {
        let mut batch = std::mem::take(&mut self.batch);
        let limit = loop {
            let first = match self.queue.pop_ready(deadline, &mut batch) {
                Popped::Drained => break RunLimit::Drained,
                Popped::Deadline => {
                    self.now = self.now.max(deadline);
                    break RunLimit::Deadline;
                }
                Popped::Ready(first) => first,
            };
            let at = first.at();
            assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            if batch.is_empty() {
                // Singleton batch: the hot path, no vec traffic at all.
                self.deliver(first);
                continue;
            }
            self.in_batch = batch.len();
            self.undercut = false;
            self.deliver(first);
            let mut rest = batch.drain(..);
            while !self.undercut {
                let Some(entry) = rest.next() else {
                    break;
                };
                self.in_batch -= 1;
                self.deliver(entry);
            }
            for entry in rest {
                self.queue.push(entry);
            }
            self.in_batch = 0;
        };
        self.batch = batch;
        self.settle(limit, deadline)
    }

    /// Ends a run that stopped with `limit`: absorbs every deferred event
    /// keyed up to `deadline`, which the same run without deferral would
    /// have delivered, and returns the limit that run would have reported.
    #[inline(never)]
    fn settle(&mut self, limit: RunLimit, deadline: SimTime) -> RunLimit {
        if self.deferred_len == 0 {
            return limit;
        }
        let bound = match deadline.as_ps().checked_add(1) {
            Some(ps) => u128::from(ps) << 64,
            None => u128::MAX,
        };
        let absorbed = self.absorb_all_before(bound);
        if self.deferred_len > 0 {
            // Only deferred events past the deadline are left: without
            // deferral the queue would not have drained.
            self.now = self.now.max(deadline);
            RunLimit::Deadline
        } else {
            if let Some(at) = absorbed {
                self.now = self.now.max(at);
            }
            limit
        }
    }

    /// Immutable access to a registered component, downcast to its concrete
    /// type. Returns `None` if the id is out of range or the type does not
    /// match.
    pub fn get<T: Component<M>>(&self, id: CompId) -> Option<&T> {
        self.components
            .get(id.index())
            .and_then(|c| (c.as_ref() as &dyn Any).downcast_ref::<T>())
    }

    /// Mutable access to a registered component, downcast to its concrete
    /// type. The caller may change what the component can absorb, so its
    /// deferred events are queued under their keys first.
    pub fn get_mut<T: Component<M>>(&mut self, id: CompId) -> Option<&mut T> {
        if id.index() < self.slots.len() {
            self.materialize(id.index(), |_, _| false);
        }
        self.components
            .get_mut(id.index())
            .and_then(|c| (c.as_mut() as &mut dyn Any).downcast_mut::<T>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Pinger {
        peer: Option<CompId>,
        rounds: u32,
        got: Vec<u32>,
    }

    impl Component<Msg> for Pinger {
        fn on_event(&mut self, ev: Msg, ctx: &mut Ctx<'_, Msg>) {
            match ev {
                Msg::Ping(n) => {
                    self.got.push(n);
                    if let Some(peer) = self.peer {
                        ctx.send(peer, SimTime::from_ns(5), Msg::Pong(n));
                    }
                }
                Msg::Pong(n) => {
                    self.got.push(n);
                    if n + 1 < self.rounds {
                        if let Some(peer) = self.peer {
                            ctx.send(peer, SimTime::from_ns(5), Msg::Ping(n + 1));
                        }
                    }
                }
            }
        }
        fn name(&self) -> &str {
            "pinger"
        }
    }

    fn pinger(rounds: u32) -> Pinger {
        Pinger {
            peer: None,
            rounds,
            got: Vec::new(),
        }
    }

    #[test]
    fn ping_pong_advances_time() {
        let mut eng: Engine<Msg> = Engine::new();
        let a = eng.add(pinger(3));
        let b = eng.add(pinger(3));
        eng.get_mut::<Pinger>(a).unwrap().peer = Some(b);
        eng.get_mut::<Pinger>(b).unwrap().peer = Some(a);
        eng.schedule(SimTime::ZERO, b, Msg::Ping(0));
        assert_eq!(eng.run(), RunLimit::Drained);
        // 3 rounds of ping+pong, 5ns per hop, first ping at t=0.
        assert_eq!(eng.now(), SimTime::from_ns(25));
        assert_eq!(eng.get::<Pinger>(b).unwrap().got, vec![0, 1, 2]);
        assert_eq!(eng.get::<Pinger>(a).unwrap().got, vec![0, 1, 2]);
    }

    struct Recorder {
        seen: Vec<u32>,
    }
    impl Component<u32> for Recorder {
        fn on_event(&mut self, ev: u32, _ctx: &mut Ctx<'_, u32>) {
            self.seen.push(ev);
        }
        fn name(&self) -> &str {
            "recorder"
        }
    }

    #[test]
    fn same_time_events_delivered_in_schedule_order() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        for i in 0..100 {
            eng.schedule(SimTime::from_ns(10), r, i);
        }
        eng.run();
        let expect: Vec<u32> = (0..100).collect();
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, expect);
    }

    #[test]
    fn interleaved_times_sorted() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        eng.schedule(SimTime::from_ns(30), r, 3);
        eng.schedule(SimTime::from_ns(10), r, 1);
        eng.schedule(SimTime::from_ns(20), r, 2);
        eng.run();
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, vec![1, 2, 3]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        eng.schedule(SimTime::from_ns(10), r, 1);
        eng.schedule(SimTime::from_ns(50), r, 2);
        assert_eq!(eng.run_until(SimTime::from_ns(20)), RunLimit::Deadline);
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, vec![1]);
        assert_eq!(eng.now(), SimTime::from_ns(20));
        assert_eq!(eng.run(), RunLimit::Drained);
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, vec![1, 2]);
    }

    struct SelfLooper;
    impl Component<u32> for SelfLooper {
        fn on_event(&mut self, _ev: u32, ctx: &mut Ctx<'_, u32>) {
            ctx.send_self(SimTime::from_ns(1), 0);
        }
        fn name(&self) -> &str {
            "looper"
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        for _ in 0..5 {
            eng.schedule(SimTime::ZERO, r, 0);
        }
        eng.run();
        let s = eng.stats();
        assert_eq!(s.events_delivered, 5);
        assert_eq!(s.events_scheduled, 5);
        assert_eq!(s.max_queue_len, 5);
    }

    /// A component's slot is read before every delivery: it must stay
    /// one cache line.
    #[test]
    fn slot_fits_one_cache_line() {
        assert_eq!(std::mem::size_of::<Slot<Msg>>(), 64);
    }

    #[test]
    fn downcast_wrong_type_is_none() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        assert!(eng.get::<SelfLooper>(r).is_none());
        assert!(eng.get::<Recorder>(r).is_some());
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn schedule_to_unknown_component_panics() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(SimTime::ZERO, CompId(3), 0);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut eng: Engine<u32> = Engine::new();
            let r = eng.add(Recorder { seen: Vec::new() });
            for i in 0..50u32 {
                eng.schedule(SimTime::from_ns((i as u64 * 7) % 13), r, i);
            }
            eng.run();
            eng.get::<Recorder>(r).unwrap().seen.clone()
        };
        assert_eq!(run(), run());
    }

    /// Pins delivery order on dense duplicate instants: the expected
    /// order is recomputed with a stable sort by `(at, seq)` — the
    /// documented contract.
    #[test]
    fn delivery_order_matches_stable_sort_reference() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        let mut rng = crate::SimRng::new(2024);
        let mut expected: Vec<(u64, u64, u32)> = Vec::new();
        for i in 0..500u32 {
            let at = rng.range(40); // dense ties
            eng.schedule(SimTime::from_ps(at), r, i);
            expected.push((at, u64::from(i), i));
        }
        expected.sort(); // stable, (at, seq) lexicographic
        eng.run();
        let want: Vec<u32> = expected.iter().map(|&(_, _, v)| v).collect();
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, want);
    }

    /// Schedules one same-instant follow-up per event below 100, so a tie
    /// grows while it is being delivered; event 200 fans out 20 events,
    /// setting the queue's high-water mark after the ties.
    struct Echo {
        seen: Vec<(u64, u32)>,
    }
    impl Component<u32> for Echo {
        fn on_event(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen.push((ctx.now().as_ps(), ev));
            match ev {
                0..100 => ctx.send_self(SimTime::ZERO, ev + 100),
                200 => (300..320).for_each(|v| ctx.send_self(SimTime::from_ns(1), v)),
                _ => {}
            }
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    /// A same-instant tie that grows while it is being delivered is
    /// delivered in `(at, seq)` order.
    #[test]
    fn growing_ties_deliver_in_order() {
        let mut eng: Engine<u32> = Engine::new();
        let e = eng.add(Echo { seen: Vec::new() });
        for i in 0..6u32 {
            eng.schedule(SimTime::from_ns(10), e, i);
        }
        for i in 6..9u32 {
            eng.schedule(SimTime::from_ns(20), e, i);
        }
        eng.schedule(SimTime::from_ns(30), e, 200);
        assert_eq!(eng.run(), RunLimit::Drained);
        let order: Vec<u32> = eng
            .get::<Echo>(e)
            .unwrap()
            .seen
            .iter()
            .map(|&(_, v)| v)
            .collect();
        let expect: Vec<u32> = [0..6, 100..106, 6..9, 106..109, 200..201, 300..320]
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(order, expect);
        assert_eq!(eng.stats().max_queue_len, 20);
    }

    /// Regression: a deadline already behind the clock must leave it
    /// alone. It used to rewind `now` to the deadline, so an event
    /// scheduled afterwards landed before events already delivered.
    #[test]
    fn run_until_past_deadline_keeps_clock() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        eng.schedule(SimTime::from_ns(50), r, 50);
        eng.schedule(SimTime::from_ns(100), r, 100);
        assert_eq!(eng.run_until(SimTime::from_ns(60)), RunLimit::Deadline);
        assert_eq!(eng.run_until(SimTime::from_ns(10)), RunLimit::Deadline);
        assert_eq!(eng.now(), SimTime::from_ns(60));
        eng.schedule(SimTime::from_ns(5), r, 65);
        assert_eq!(eng.run_until(SimTime::from_ns(64)), RunLimit::Deadline);
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, vec![50]);
        assert_eq!(eng.run(), RunLimit::Drained);
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, vec![50, 65, 100]);
    }

    #[test]
    fn run_until_then_run_preserves_order() {
        let mut eng: Engine<u32> = Engine::new();
        let r = eng.add(Recorder { seen: Vec::new() });
        for i in 0..10u32 {
            eng.schedule(SimTime::from_ns(u64::from(i) * 10), r, i);
        }
        assert_eq!(eng.run_until(SimTime::from_ns(35)), RunLimit::Deadline);
        assert_eq!(eng.get::<Recorder>(r).unwrap().seen, vec![0, 1, 2, 3]);
        // New events landing between the deadline and the rest interleave
        // correctly with what was already queued.
        eng.schedule(SimTime::from_ns(10), r, 100); // now + 10ns = 45ns
        assert_eq!(eng.run(), RunLimit::Drained);
        assert_eq!(
            eng.get::<Recorder>(r).unwrap().seen,
            vec![0, 1, 2, 3, 4, 100, 5, 6, 7, 8, 9]
        );
    }

    #[test]
    fn per_component_stats_track_destinations() {
        let mut eng: Engine<u32> = Engine::new();
        let a = eng.add(Recorder { seen: Vec::new() });
        let b = eng.add(Recorder { seen: Vec::new() });
        for _ in 0..3 {
            eng.schedule(SimTime::ZERO, a, 0);
        }
        eng.schedule(SimTime::ZERO, b, 0);
        eng.run();
        let cs = eng.component_stats();
        assert_eq!(cs[a.index()].scheduled, 3);
        assert_eq!(cs[a.index()].delivered, 3);
        assert_eq!(cs[b.index()].scheduled, 1);
        assert_eq!(cs[b.index()].delivered, 1);
    }
}
