//! Model test of deferred delivery: seeded random component networks run
//! twice, once absorbing and once with every `can_absorb` answering
//! false, must agree event for event. The cells share one gate, a
//! version number standing in for a switch's fabric view: some jobs move
//! it, which makes every other cell's deferred events active, so those
//! handlers ask every component to re-check.

use std::cell::RefCell;
use std::rc::Rc;

use tg_sim::{CompId, Component, Ctx, Engine, RunLimit, SimRng, SimTime};

/// Events of the model. Every event carries an id unique in the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    /// Real work: queues one job, may start it.
    Job(u64),
    /// The component's own "wire free" tick (like a HIB `TxFree`).
    Idle(u64),
    /// A credit from a peer.
    Credit(u64),
}

impl Ev {
    fn id(self) -> u64 {
        match self {
            Ev::Job(id) | Ev::Idle(id) | Ev::Credit(id) => id,
        }
    }
}

/// One model component. `Idle` and `Credit` are absorbable while no job
/// is queued and the shared gate has not moved since this cell last saw
/// it: their handlers then only count. A job arriving on an empty queue
/// makes them active again, so the handler asks for a re-check; a job
/// that moves the gate asks every component to re-check.
struct Cell {
    index: u64,
    peers: Vec<CompId>,
    rng: SimRng,
    /// False for the reference run: nothing is absorbed.
    absorbing: bool,
    queue: u32,
    busy: bool,
    credits: u32,
    idles: u32,
    /// Jobs this component may still fan out.
    budget: u32,
    /// The gate shared by every cell of a network.
    gate: Rc<std::cell::Cell<u64>>,
    /// The gate's value when this cell last handled an event.
    seen: u64,
    /// Handled events that found the gate moved.
    refreshes: u32,
    next_id: u64,
    /// Every event applied here, delivered or absorbed: `(ps, event)`.
    applied: Vec<(u64, Ev)>,
    /// Ids of the events really delivered, shared by every component in
    /// delivery order.
    delivered: Rc<RefCell<Vec<u64>>>,
    /// Ids of the events absorbed, in absorption order.
    absorbed: Vec<u64>,
}

/// Delays on a coarse 10 ns grid, so same-instant ties are common.
fn delay(rng: &mut SimRng) -> SimTime {
    SimTime::from_ns(10 * rng.range(4))
}

impl Cell {
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.index << 32 | self.next_id
    }

    fn peer(&mut self) -> CompId {
        let i = self.rng.range(self.peers.len() as u64) as usize;
        self.peers[i]
    }

    /// Takes one queued job: the wire is busy until the `Idle`, and the
    /// job fans out to a peer while the budget lasts.
    fn start(&mut self, ctx: &mut Ctx<'_, Ev>) {
        self.queue -= 1;
        self.busy = true;
        let (d, id) = (delay(&mut self.rng), self.fresh_id());
        ctx.send_deferrable(ctx.self_id(), d, Ev::Idle(id));
        if self.budget > 0 {
            self.budget -= 1;
            let (peer, d, id) = (self.peer(), delay(&mut self.rng), self.fresh_id());
            ctx.send(peer, d, Ev::Job(id));
            let (peer, d, id) = (self.peer(), delay(&mut self.rng), self.fresh_id());
            ctx.send_deferrable(peer, d, Ev::Credit(id));
        }
    }

    /// The handler's effect on an event it would not act on.
    fn count(&mut self, ev: Ev, at: SimTime) {
        self.applied.push((at.as_ps(), ev));
        match ev {
            Ev::Idle(_) => {
                self.busy = false;
                self.idles += 1;
            }
            Ev::Credit(_) => self.credits += 1,
            Ev::Job(_) => unreachable!("jobs are never deferred"),
        }
    }

    /// Everything but the shared delivery log, for run-to-run comparison.
    fn state(&self) -> impl PartialEq + std::fmt::Debug + use<> {
        (
            self.queue,
            self.busy,
            self.credits,
            self.idles,
            self.budget,
            self.seen,
            self.refreshes,
            self.next_id,
            self.applied.clone(),
        )
    }
}

impl Component<Ev> for Cell {
    fn on_event(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        self.delivered.borrow_mut().push(ev.id());
        if self.gate.get() != self.seen {
            self.seen = self.gate.get();
            self.refreshes += 1;
        }
        match ev {
            Ev::Job(id) => {
                self.applied.push((ctx.now().as_ps(), ev));
                if id % 7 == 3 {
                    self.seen += 1;
                    self.gate.set(self.seen);
                    ctx.recheck_all_deferred();
                }
                self.queue += 1;
                if self.queue == 1 {
                    ctx.recheck_deferred();
                }
                if !self.busy {
                    self.start(ctx);
                }
            }
            Ev::Idle(_) | Ev::Credit(_) if self.queue == 0 => self.count(ev, ctx.now()),
            Ev::Idle(_) => {
                self.count(ev, ctx.now());
                self.start(ctx);
            }
            Ev::Credit(_) => {
                self.count(ev, ctx.now());
                if self.credits >= 2 {
                    self.credits -= 2;
                    let (peer, d, id) = (self.peer(), delay(&mut self.rng), self.fresh_id());
                    ctx.send(peer, d, Ev::Job(id));
                }
            }
        }
    }

    fn name(&self) -> &str {
        "cell"
    }

    fn can_absorb(&self, ev: &Ev) -> bool {
        self.absorbing
            && !matches!(ev, Ev::Job(_))
            && self.queue == 0
            && self.gate.get() == self.seen
    }

    fn absorb(&mut self, ev: Ev, at: SimTime) {
        // The gate may have moved since: an event keyed before the move
        // is absorbed after it, when the mover asks for a re-check.
        assert!(
            self.absorbing && !matches!(ev, Ev::Job(_)) && self.queue == 0,
            "absorbed an active event"
        );
        self.absorbed.push(ev.id());
        self.count(ev, at);
    }
}

/// An idle cell with a fan-out budget of 40 jobs.
fn cell(index: u64, seed: u64, absorbing: bool, delivered: &Rc<RefCell<Vec<u64>>>) -> Cell {
    Cell {
        index,
        peers: Vec::new(),
        rng: SimRng::new(seed.wrapping_mul(31).wrapping_add(index)),
        absorbing,
        queue: 0,
        busy: false,
        credits: 0,
        idles: 0,
        budget: 40,
        gate: Rc::default(),
        seen: 0,
        refreshes: 0,
        next_id: 0,
        applied: Vec::new(),
        delivered: delivered.clone(),
        absorbed: Vec::new(),
    }
}

/// A network of `n` cells seeded from `seed`, with a few initial jobs.
fn network(seed: u64, n: u64, absorbing: bool) -> (Engine<Ev>, Vec<CompId>, Rc<RefCell<Vec<u64>>>) {
    let delivered = Rc::new(RefCell::new(Vec::new()));
    let gate = Rc::new(std::cell::Cell::new(0));
    let mut eng = Engine::new();
    let ids: Vec<CompId> = (1..=n)
        .map(|i| {
            eng.add(Cell {
                gate: gate.clone(),
                ..cell(i, seed, absorbing, &delivered)
            })
        })
        .collect();
    let mut rng = SimRng::new(seed);
    for &id in &ids {
        eng.get_mut::<Cell>(id).expect("cell").peers = ids.clone();
        if rng.range(2) == 0 {
            eng.schedule(
                SimTime::from_ns(10 * rng.range(3)),
                id,
                Ev::Job(id.index() as u64),
            );
        }
    }
    (eng, ids, delivered)
}

/// How one step of a run plan drives the engine.
#[derive(Clone, Copy, Debug)]
enum Step {
    Until(SimTime),
    Run,
}

fn step(eng: &mut Engine<Ev>, s: Step) -> RunLimit {
    match s {
        Step::Until(t) => eng.run_until(t),
        Step::Run => eng.run(),
    }
}

/// Runs the same network with and without absorption through `plan` and
/// compares them after every step; returns how many events were absorbed
/// and how many handled events found the gate moved.
fn compare(seed: u64, plan: &[Step]) -> (u64, u32) {
    let (mut lazy, ids, lazy_log) = network(seed, 6, true);
    let (mut eager, _, eager_log) = network(seed, 6, false);
    for (i, &s) in plan.iter().enumerate() {
        let at = format!("seed {seed} step {i} {s:?}");
        assert_eq!(step(&mut lazy, s), step(&mut eager, s), "{at}: run limit");
        assert_eq!(lazy.now(), eager.now(), "{at}: clock");
        let (l, e) = (lazy.stats(), eager.stats());
        assert_eq!(e.events_absorbed, 0, "{at}");
        assert_eq!(
            l.events_delivered + l.events_absorbed,
            e.events_delivered,
            "{at}"
        );
        for &id in &ids {
            let cl = lazy.get::<Cell>(id).expect("cell");
            let ce = eager.get::<Cell>(id).expect("cell");
            assert_eq!(cl.state(), ce.state(), "{at}: {id} state");
        }
        // The surviving deliveries keep their order; the others are
        // exactly the absorbed events.
        let absorbed: std::collections::HashSet<u64> = ids
            .iter()
            .flat_map(|&id| lazy.get::<Cell>(id).expect("cell").absorbed.clone())
            .collect();
        let survivors: Vec<u64> = eager_log
            .borrow()
            .iter()
            .copied()
            .filter(|id| !absorbed.contains(id))
            .collect();
        assert_eq!(*lazy_log.borrow(), survivors, "{at}: delivery order");
        assert_eq!(absorbed.len() as u64, l.events_absorbed, "{at}");
    }
    let refreshes = ids
        .iter()
        .map(|&id| lazy.get::<Cell>(id).expect("cell").refreshes);
    (lazy.stats().events_absorbed, refreshes.sum())
}

/// Plain drains: identical outcome, a substantial share absorbed, and
/// the gate moved often enough to matter.
#[test]
fn drained_runs_match_the_eager_reference() {
    let (mut absorbed, mut refreshes) = (0, 0);
    for seed in 0..40 {
        let (a, r) = compare(seed, &[Step::Run, Step::Run, Step::Run]);
        (absorbed, refreshes) = (absorbed + a, refreshes + r);
    }
    assert!(absorbed > 1000, "the model absorbed only {absorbed} events");
    assert!(
        refreshes > 100,
        "the gate moved under only {refreshes} events"
    );
}

/// Random mixes of deadlines (some behind the clock) and drains.
#[test]
fn sliced_runs_match_the_eager_reference() {
    for seed in 0..40 {
        let mut rng = SimRng::new(seed ^ 0x5eed);
        let plan: Vec<Step> = (0..60)
            .map(|_| match rng.range(2) {
                0 => Step::Until(SimTime::from_ns(rng.range(400))),
                _ => Step::Until(SimTime::from_ns(5 * rng.range(200))),
            })
            .chain([Step::Run; 20])
            .collect();
        compare(seed, &plan);
    }
}

/// Sends `b` a deferrable credit due in 30 ns and a job due in 10 ns.
struct Sender {
    to: CompId,
}

impl Component<Ev> for Sender {
    fn on_event(&mut self, _: Ev, ctx: &mut Ctx<'_, Ev>) {
        ctx.send_deferrable(self.to, SimTime::from_ns(30), Ev::Credit(1));
        ctx.send(self.to, SimTime::from_ns(10), Ev::Job(2));
    }
    fn name(&self) -> &str {
        "sender"
    }
}

/// A credit deferred while its receiver's queue is empty is queued under
/// its own key once a job lands there first, and is then delivered.
#[test]
fn a_deferred_credit_is_materialized_when_a_job_arrives_first() {
    let delivered = Rc::new(RefCell::new(Vec::new()));
    let mut eng = Engine::new();
    // A busy receiver keeps the job queued, so the credit stays active.
    let b = eng.add(Cell {
        busy: true,
        ..cell(1, 0, true, &delivered)
    });
    let s = eng.add(Sender { to: b });
    eng.schedule(SimTime::ZERO, s, Ev::Job(0));
    assert_eq!(eng.run_until(SimTime::from_ns(5)), RunLimit::Deadline);
    let st = eng.stats();
    assert_eq!(
        st.events_scheduled - st.logical_events(),
        2,
        "the job and the deferred credit are pending"
    );
    assert_eq!(eng.run(), RunLimit::Drained);
    assert_eq!(*delivered.borrow(), vec![2, 1], "job, then the credit");
    let cb = eng.get::<Cell>(b).expect("cell");
    assert!(cb.absorbed.is_empty());
    assert_eq!(
        cb.applied,
        vec![(10_000, Ev::Job(2)), (30_000, Ev::Credit(1))]
    );
    assert_eq!(eng.now(), SimTime::from_ns(30));
    assert_eq!(eng.stats().events_absorbed, 0);
}

/// The same credit with no job ahead of it is absorbed at its instant.
#[test]
fn a_deferred_credit_with_nothing_ahead_is_absorbed() {
    struct LoneCredit {
        to: CompId,
    }
    impl Component<Ev> for LoneCredit {
        fn on_event(&mut self, _: Ev, ctx: &mut Ctx<'_, Ev>) {
            ctx.send_deferrable(self.to, SimTime::from_ns(30), Ev::Credit(1));
        }
        fn name(&self) -> &str {
            "lone"
        }
    }
    let delivered = Rc::new(RefCell::new(Vec::new()));
    let mut eng = Engine::new();
    let b = eng.add(cell(1, 0, true, &delivered));
    let s = eng.add(LoneCredit { to: b });
    eng.schedule(SimTime::ZERO, s, Ev::Job(0));
    assert_eq!(eng.run(), RunLimit::Drained);
    assert_eq!(*delivered.borrow(), Vec::<u64>::new());
    let cb = eng.get::<Cell>(b).expect("cell");
    assert_eq!(cb.absorbed, vec![1]);
    assert_eq!(cb.credits, 1);
    assert_eq!(eng.now(), SimTime::from_ns(30));
}

/// Mutable access may change what a component can absorb, so it queues
/// the component's deferred events: the credit is delivered.
#[test]
fn get_mut_queues_the_deferred_events_of_its_component() {
    let delivered = Rc::new(RefCell::new(Vec::new()));
    let mut eng = Engine::new();
    let b = eng.add(cell(1, 0, true, &delivered));
    let s = eng.add(Sender { to: b });
    eng.schedule(SimTime::ZERO, s, Ev::Job(0));
    assert_eq!(eng.run_until(SimTime::from_ns(5)), RunLimit::Deadline);
    let cb = eng.get_mut::<Cell>(b).expect("cell");
    cb.queue = 1;
    cb.busy = true;
    assert_eq!(eng.run(), RunLimit::Drained);
    assert_eq!(*delivered.borrow(), vec![2, 1]);
    assert_eq!(eng.stats().events_absorbed, 0);
}

/// A component that moves the gate and asks every component to re-check.
struct Mover {
    gate: Rc<std::cell::Cell<u64>>,
}

impl Component<Ev> for Mover {
    fn on_event(&mut self, _: Ev, ctx: &mut Ctx<'_, Ev>) {
        self.gate.set(self.gate.get() + 1);
        ctx.recheck_all_deferred();
    }
    fn name(&self) -> &str {
        "mover"
    }
}

/// A cell's credit deferred at 30 ns is keyed before a gate move at
/// 40 ns: it saw the old gate, so the re-check absorbs it rather than
/// queueing it into the past. Its idle tick at 50 ns, keyed after the
/// move, is queued and delivered, and finds the gate moved.
#[test]
fn a_recheck_of_every_component_absorbs_what_precedes_it() {
    struct Twice {
        to: CompId,
    }
    impl Component<Ev> for Twice {
        fn on_event(&mut self, _: Ev, ctx: &mut Ctx<'_, Ev>) {
            ctx.send_deferrable(self.to, SimTime::from_ns(30), Ev::Credit(1));
            ctx.send_deferrable(self.to, SimTime::from_ns(50), Ev::Idle(2));
        }
        fn name(&self) -> &str {
            "twice"
        }
    }
    let delivered = Rc::new(RefCell::new(Vec::new()));
    let gate = Rc::new(std::cell::Cell::new(0));
    let mut eng = Engine::new();
    let b = eng.add(Cell {
        gate: gate.clone(),
        ..cell(1, 0, true, &delivered)
    });
    let s = eng.add(Twice { to: b });
    let m = eng.add(Mover { gate });
    eng.schedule(SimTime::ZERO, s, Ev::Job(0));
    eng.schedule(SimTime::from_ns(40), m, Ev::Job(0));
    assert_eq!(eng.run(), RunLimit::Drained);
    let cb = eng.get::<Cell>(b).expect("cell");
    assert_eq!(cb.absorbed, vec![1]);
    assert_eq!(*delivered.borrow(), vec![2]);
    assert_eq!(
        cb.applied,
        vec![(30_000, Ev::Credit(1)), (50_000, Ev::Idle(2))]
    );
    assert_eq!((cb.seen, cb.refreshes), (1, 1));
    assert_eq!(eng.now(), SimTime::from_ns(50));
}

/// A drain whose last event was absorbed still ends the clock at that
/// event, as an eager drain would.
#[test]
fn a_drain_ending_in_an_absorbed_event_ends_the_clock_there() {
    struct Tail;
    impl Component<Ev> for Tail {
        fn on_event(&mut self, _: Ev, ctx: &mut Ctx<'_, Ev>) {
            ctx.send_deferrable(ctx.self_id(), SimTime::from_ns(70), Ev::Idle(0));
        }
        fn name(&self) -> &str {
            "tail"
        }
        fn can_absorb(&self, ev: &Ev) -> bool {
            matches!(ev, Ev::Idle(_))
        }
        fn absorb(&mut self, _: Ev, _: SimTime) {}
    }
    let mut eng = Engine::new();
    let t = eng.add(Tail);
    eng.schedule(SimTime::from_ns(5), t, Ev::Job(0));
    assert_eq!(eng.run_until(SimTime::from_ns(50)), RunLimit::Deadline);
    assert_eq!(eng.now(), SimTime::from_ns(50));
    let st = eng.stats();
    assert_eq!(
        st.events_scheduled - st.logical_events(),
        1,
        "the deferred tick is still pending"
    );
    assert_eq!(eng.run(), RunLimit::Drained);
    assert_eq!(eng.now(), SimTime::from_ns(75));
    let s = eng.stats();
    assert_eq!((s.events_delivered, s.events_absorbed), (1, 1));
    assert_eq!(eng.component_stats()[t.index()].absorbed, 1);
}
