//! Model test of same-instant continuations: seeded random component
//! networks run twice, once handling their zero-delay self-sends in place
//! under [`Ctx::quiet`] and once queueing them, must agree event for
//! event. Inlining is the test component's choice, not an engine switch.

use std::cell::RefCell;
use std::rc::Rc;

use tg_sim::{CompId, Component, Ctx, Engine, RunLimit, SimRng, SimTime};

/// Events of the model. Every event carries an id unique in the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    /// Real work: mixed into the state, may fan out.
    Work(u64),
    /// Absorbable: its handler only counts.
    Tick(u64),
}

/// Where a buffered send goes; peers are cells by index.
#[derive(Clone, Copy, Debug)]
enum To {
    Me,
    Peer(usize),
    /// Sent with `send_deferrable`.
    Deferrable(usize),
}

/// One buffered send: delay in ns, destination, event.
type Send = (u64, To, Ev);

/// How a cell reacts to the work it handles.
enum Plan {
    /// Random fan-out while the budget lasts.
    Random { rng: SimRng, budget: u32 },
    /// A fixed reaction per event id.
    Script(fn(u64) -> Vec<Send>),
}

/// One model component. Like the cluster's `Node`, it buffers its sends
/// in an outbox and, when inlining, handles the first zero-delay send in
/// place while the engine reports the instant quiet and that send goes
/// to itself.
struct Cell {
    index: u64,
    peers: Vec<CompId>,
    plan: Plan,
    inline: bool,
    next_id: u64,
    /// A hash of everything handled, with the tick count and clock mixed
    /// in, so a continuation run ahead of an absorption diverges.
    acc: u64,
    ticks: u64,
    outbox: Vec<Send>,
    /// Ids of the work handled, delivered or inlined, shared by every
    /// component in handling order.
    log: Rc<RefCell<Vec<u64>>>,
}

impl Cell {
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.index << 32 | self.next_id
    }

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let id = match ev {
            Ev::Tick(_) => {
                self.ticks += 1;
                return;
            }
            Ev::Work(id) => id,
        };
        self.log.borrow_mut().push(id);
        self.acc =
            self.acc.wrapping_mul(0x100_0000_01b3) ^ id ^ self.ticks << 40 ^ ctx.now().as_ps();
        match &mut self.plan {
            Plan::Script(react) => {
                let sends = react(id);
                self.outbox.extend(sends);
            }
            Plan::Random { .. } => self.fan_out(),
        }
    }

    /// Zero to three random sends: zero-delay sends to itself and to
    /// peers, delayed sends on a coarse 10 ns grid (so ties happen),
    /// and deferrable ticks.
    fn fan_out(&mut self) {
        for _ in 0..3 {
            let Plan::Random { rng, budget } = &mut self.plan else {
                unreachable!("random plan");
            };
            if *budget == 0 || rng.range(4) == 0 {
                return;
            }
            *budget -= 1;
            let (kind, delay) = (rng.range(16), 10 * rng.range(6));
            let peer = rng.range(self.peers.len() as u64) as usize;
            let id = self.fresh_id();
            let send = match kind {
                0..6 => (0, To::Me, Ev::Work(id)),
                6..8 => (0, To::Peer(peer), Ev::Work(id)),
                8..12 => (delay, To::Peer(peer), Ev::Work(id)),
                12..15 => (delay % 20, To::Deferrable(peer), Ev::Tick(id)),
                _ => (delay, To::Me, Ev::Work(id)),
            };
            self.outbox.push(send);
        }
    }

    /// Everything but the shared log, for run-to-run comparison.
    fn state(&self) -> (u64, u64, u64) {
        (self.acc, self.ticks, self.next_id)
    }
}

impl Component<Ev> for Cell {
    fn on_event(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        self.handle(ev, ctx);
        while self.inline && ctx.quiet() {
            let Some(j) = self.outbox.iter().position(|s| s.0 == 0) else {
                break;
            };
            if !matches!(self.outbox[j].1, To::Me) {
                break;
            }
            let (_, _, ev) = self.outbox.remove(j);
            ctx.count_inlined();
            self.handle(ev, ctx);
        }
        for (delay, to, ev) in self.outbox.drain(..) {
            let delay = SimTime::from_ns(delay);
            match to {
                To::Me => ctx.send_self(delay, ev),
                To::Peer(i) => ctx.send(self.peers[i], delay, ev),
                To::Deferrable(i) => ctx.send_deferrable(self.peers[i], delay, ev),
            }
        }
    }

    fn name(&self) -> &str {
        "cell"
    }

    fn can_absorb(&self, ev: &Ev) -> bool {
        matches!(ev, Ev::Tick(_))
    }

    fn absorb(&mut self, ev: Ev, _at: SimTime) {
        assert!(matches!(ev, Ev::Tick(_)), "absorbed work");
        self.ticks += 1;
    }
}

/// An engine, its cells' ids and their shared handling log.
type Net = (Engine<Ev>, Vec<CompId>, Rc<RefCell<Vec<u64>>>);

fn cell(index: u64, plan: Plan, inline: bool, log: &Rc<RefCell<Vec<u64>>>) -> Cell {
    Cell {
        index,
        peers: Vec::new(),
        plan,
        inline,
        next_id: 0,
        acc: 0,
        ticks: 0,
        outbox: Vec::new(),
        log: log.clone(),
    }
}

/// A network of `n` cells, each built by `plan(index)`, every cell a peer
/// of every other.
fn network(n: u64, inline: bool, plan: impl Fn(u64) -> Plan) -> Net {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut eng = Engine::new();
    let ids: Vec<CompId> = (1..=n)
        .map(|i| eng.add(cell(i, plan(i), inline, &log)))
        .collect();
    for &id in &ids {
        eng.get_mut::<Cell>(id).expect("cell").peers = ids.clone();
    }
    (eng, ids, log)
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

/// Drives an inlining and a queueing copy of one setup through `plan`
/// and compares them after every step: run limit, clock, the logical
/// and scheduled event counts, every cell's state and the handling order.
/// Returns the inlining copy's engine and handling order.
fn compare(what: &str, setup: impl Fn(bool) -> Net, plan: &[Step]) -> (Engine<Ev>, Vec<u64>) {
    let (mut fast, ids, fast_log) = setup(true);
    let (mut slow, _, slow_log) = setup(false);
    for (i, &s) in plan.iter().enumerate() {
        let at = format!("{what} step {i} {s:?}");
        assert_eq!(step(&mut fast, s), step(&mut slow, s), "{at}: run limit");
        assert_eq!(fast.now(), slow.now(), "{at}: clock");
        let (f, q) = (fast.stats(), slow.stats());
        assert_eq!(q.events_inlined, 0, "{at}");
        assert_eq!(f.logical_events(), q.logical_events(), "{at}: events");
        assert_eq!(f.events_scheduled, q.events_scheduled, "{at}: scheduled");
        for &id in &ids {
            let cf = fast.get::<Cell>(id).expect("cell");
            let cq = slow.get::<Cell>(id).expect("cell");
            assert_eq!(cf.state(), cq.state(), "{at}: {id} state");
        }
        assert_eq!(*fast_log.borrow(), *slow_log.borrow(), "{at}: order");
    }
    let log = fast_log.borrow().clone();
    (fast, log)
}

/// Six cells with random fan-out, seeded from `seed`, with a few initial
/// events on the 10 ns grid.
fn random_network(seed: u64, inline: bool) -> Net {
    let (mut eng, ids, log) = network(6, inline, |i| Plan::Random {
        rng: SimRng::new(seed.wrapping_mul(31).wrapping_add(i)),
        budget: 60,
    });
    let mut rng = SimRng::new(seed);
    for &id in &ids {
        for k in 0..rng.range(3) {
            let at = SimTime::from_ns(10 * rng.range(3));
            eng.schedule(at, id, Ev::Work((1 << 48) | (id.index() as u64 * 4 + k)));
        }
    }
    (eng, ids, log)
}

#[test]
fn drained_runs_match_the_queueing_reference() {
    let mut inlined = 0;
    for seed in 0..40 {
        let what = format!("seed {seed}");
        let plan = [Step::Run; 12];
        let (eng, _) = compare(&what, |inline| random_network(seed, inline), &plan);
        inlined += eng.stats().events_inlined;
    }
    assert!(inlined > 200, "only {inlined} continuations ran in place");
}

/// Deadlines on the event grid (so they often fall on an instant with
/// work still due) and drains, interleaved.
#[test]
fn sliced_runs_match_the_queueing_reference() {
    let mut inlined = 0;
    for seed in 0..40 {
        let mut rng = SimRng::new(seed ^ 0x5eed);
        let mut t = 0;
        let plan: Vec<Step> = (0..60)
            .map(|_| match rng.range(3) {
                0 | 1 => {
                    t += 10 * rng.range(3);
                    Step::Until(SimTime::from_ns(t))
                }
                _ => Step::Run,
            })
            .collect();
        let what = format!("seed {seed}");
        let (eng, _) = compare(&what, |inline| random_network(seed, inline), &plan);
        inlined += eng.stats().events_inlined;
    }
    assert!(inlined > 150, "only {inlined} continuations ran in place");
}

/// Two scripted cells: `first` for cell 0 at 10 ns and then, at the same
/// instant, `second.1` for cell `second.0`.
fn scripted(
    react: fn(u64) -> Vec<Send>,
    first: Ev,
    second: Option<(usize, Ev)>,
) -> impl Fn(bool) -> Net {
    move |inline| {
        let (mut eng, ids, log) = network(2, inline, |_| Plan::Script(react));
        eng.schedule(SimTime::from_ns(10), ids[0], first);
        if let Some((c, ev)) = second {
            eng.schedule(SimTime::from_ns(10), ids[c], ev);
        }
        (eng, ids, log)
    }
}

/// Event 1 continues with 11 at zero delay; nothing else reacts.
fn continue_1(id: u64) -> Vec<Send> {
    match id {
        1 => vec![(0, To::Me, Ev::Work(11))],
        _ => Vec::new(),
    }
}

/// Positive case: with nothing else due, the continuation runs in place.
#[test]
fn a_lone_continuation_runs_in_place() {
    let (eng, _) = compare(
        "lone",
        scripted(continue_1, Ev::Work(1), None),
        &[Step::Run],
    );
    assert_eq!(eng.stats().events_inlined, 1);
    assert_eq!(eng.stats().events_delivered, 1);
}

/// A same-instant tie still in the batch is due first: 1, 2, then 11.
#[test]
fn a_tie_still_in_the_batch_blocks_inlining() {
    let (eng, log) = compare(
        "tie",
        scripted(continue_1, Ev::Work(1), Some((1, Ev::Work(2)))),
        &[Step::Run],
    );
    assert_eq!(log, [1, 2, 11]);
    assert_eq!(eng.stats().events_inlined, 0);
}

/// A `run_until` deadline at the current instant is inclusive: the
/// continuation would be delivered in the same run, so it runs in place.
#[test]
fn a_deadline_at_the_current_instant_delivers_the_continuation() {
    let (eng, _) = compare(
        "deadline",
        scripted(continue_1, Ev::Work(1), None),
        &[Step::Until(SimTime::from_ns(10)), Step::Run],
    );
    assert_eq!(eng.stats().events_inlined, 1);
    assert_eq!(eng.now(), SimTime::from_ns(10));
}

/// Cell 1's first event defers a zero-delay tick to cell 0, keyed after
/// cell 0's own event 2 of the same instant; 2's continuation 21 must
/// see the tick absorbed first, as its delivery would have.
fn tick_then_continue(id: u64) -> Vec<Send> {
    match id {
        1 => vec![(0, To::Deferrable(0), Ev::Tick(12))],
        2 => vec![(0, To::Me, Ev::Work(21))],
        _ => Vec::new(),
    }
}

#[test]
fn a_deferred_event_due_now_blocks_inlining() {
    let setup = |inline| {
        let (mut eng, ids, log) = network(2, inline, |_| Plan::Script(tick_then_continue));
        eng.schedule(SimTime::from_ns(10), ids[1], Ev::Work(1));
        eng.schedule(SimTime::from_ns(10), ids[0], Ev::Work(2));
        (eng, ids, log)
    };
    let (eng, _) = compare("deferred", setup, &[Step::Run]);
    assert_eq!(eng.stats().events_inlined, 0);
    assert_eq!(eng.stats().events_absorbed, 1);
}

/// A zero-delay send to another component queued ahead of the
/// continuation is delivered first: 1, 12, then 11.
fn peer_then_continue(id: u64) -> Vec<Send> {
    match id {
        1 => vec![(0, To::Peer(1), Ev::Work(12)), (0, To::Me, Ev::Work(11))],
        _ => Vec::new(),
    }
}

#[test]
fn an_earlier_zero_delay_send_blocks_inlining() {
    let (eng, log) = compare(
        "peer first",
        scripted(peer_then_continue, Ev::Work(1), None),
        &[Step::Run],
    );
    assert_eq!(log, [1, 12, 11]);
    assert_eq!(eng.stats().events_inlined, 0);
}
