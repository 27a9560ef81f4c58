//! A fixed host-speed yardstick. On a shared 2-vCPU Xeon VM the speed of
//! the host drifts between states lasting seconds to minutes: the same
//! simulated work took from 0.73 to 1.05 s in runs minutes apart, while
//! samples inside one run mostly agreed within a few percent. Over the
//! same time a dependent-multiply loop drifted by under 10%, and random
//! updates of a 16 MiB table by 75%: what drifts is the memory system
//! shared with other tenants, which code like the simulator's leans on.
//!
//! This module is a miniature network simulation written here, not in the
//! simulator's crates, so no change to the simulator changes it: nodes
//! and switches behind trait objects, a binary-heap event queue, FIFOs,
//! per-node hash-map memories and small heap-allocated payloads. Its pass
//! time tracked the simulator's sample times with a correlation of about
//! 0.9 on every workload, where a plain array walk tracked them at 0.2 to
//! 0.6, so timings divided by it repeat across host states.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Nodes in the miniature network, on one switch.
const NODES: usize = 32;
/// Words of memory each node holds in its hash map.
const WORDS: u32 = 2048;
/// Operations each node issues in one pass.
const OPS: u32 = 2_000;
/// Operations a node keeps in flight.
const WINDOW: u32 = 4;

fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

struct Packet {
    src: u16,
    dst: u16,
    addr: u32,
    reply: bool,
    payload: Rc<[u64]>,
}

enum Event {
    Start,
    ToSwitch(Packet),
    ToNode(Packet),
    SwitchPump,
}

struct Queue {
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    pending: HashMap<u64, (usize, Event)>,
}

impl Queue {
    fn at(&mut self, delay: u64, target: usize, event: Event) {
        self.seq += 1;
        self.heap.push(Reverse((self.now + delay, self.seq)));
        self.pending.insert(self.seq, (target, event));
    }
}

trait Component {
    fn handle(&mut self, event: Event, q: &mut Queue);
    fn digest(&self) -> u64;
}

struct Node {
    id: u16,
    rng: u64,
    memory: HashMap<u32, u64>,
    issued: u32,
    done: u32,
    sum: u64,
}

impl Node {
    fn issue(&mut self, q: &mut Queue) {
        if self.issued == OPS {
            return;
        }
        self.issued += 1;
        let r = next(&mut self.rng);
        let mut dst = (r % NODES as u64) as u16;
        if dst == self.id {
            dst = (dst + 1) % NODES as u16;
        }
        let words = 1 + (r >> 40) as usize % 4;
        let payload: Rc<[u64]> = (0..words as u64).map(|w| r ^ w).collect();
        let packet = Packet {
            src: self.id,
            dst,
            addr: (r >> 16) as u32 % WORDS,
            reply: false,
            payload,
        };
        q.at(1 + (r >> 60), NODES, Event::ToSwitch(packet));
    }
}

impl Component for Node {
    fn handle(&mut self, event: Event, q: &mut Queue) {
        match event {
            Event::Start => {
                for _ in 0..WINDOW {
                    self.issue(q);
                }
            }
            Event::ToNode(p) if p.reply => {
                self.done += 1;
                self.sum = self.sum.wrapping_add(p.payload.iter().sum::<u64>());
                self.issue(q);
            }
            Event::ToNode(p) => {
                let word = self.memory.entry(p.addr).or_insert(0);
                *word = word.wrapping_add(p.payload[0]);
                let payload: Rc<[u64]> = Rc::from([*word]);
                let reply = Packet {
                    src: self.id,
                    dst: p.src,
                    addr: p.addr,
                    reply: true,
                    payload,
                };
                q.at(3, NODES, Event::ToSwitch(reply));
            }
            _ => unreachable!("nodes take only starts and packets"),
        }
    }

    fn digest(&self) -> u64 {
        let words: u64 = self.memory.values().fold(0, |a, &w| a ^ w);
        self.sum ^ words ^ u64::from(self.done)
    }
}

struct Switch {
    ports: Vec<VecDeque<Packet>>,
    busy: Vec<bool>,
    forwarded: u64,
}

impl Component for Switch {
    fn handle(&mut self, event: Event, q: &mut Queue) {
        match event {
            Event::ToSwitch(p) => {
                let port = p.dst as usize;
                self.ports[port].push_back(p);
                if !self.busy[port] {
                    self.busy[port] = true;
                    q.at(2, NODES, Event::SwitchPump);
                }
            }
            Event::SwitchPump => {
                for port in 0..NODES {
                    if !self.busy[port] {
                        continue;
                    }
                    match self.ports[port].pop_front() {
                        Some(p) => {
                            self.forwarded += 1;
                            let len = p.payload.len() as u64;
                            q.at(1 + len, port, Event::ToNode(p));
                        }
                        None => self.busy[port] = false,
                    }
                }
                if self.busy.iter().any(|&b| b) {
                    q.at(2, NODES, Event::SwitchPump);
                }
            }
            _ => unreachable!("the switch takes only packets and pumps"),
        }
    }

    fn digest(&self) -> u64 {
        self.forwarded
    }
}

/// Runs one pass and returns its digest, which is the same on every pass.
fn pass() -> u64 {
    let mut parts: Vec<Box<dyn Component>> = (0..NODES)
        .map(|id| {
            Box::new(Node {
                id: id as u16,
                rng: 0x9E37_79B9_7F4A_7C15 ^ (id as u64 + 1),
                memory: HashMap::new(),
                issued: 0,
                done: 0,
                sum: 0,
            }) as Box<dyn Component>
        })
        .collect();
    parts.push(Box::new(Switch {
        ports: (0..NODES).map(|_| VecDeque::new()).collect(),
        busy: vec![false; NODES],
        forwarded: 0,
    }));
    let mut q = Queue {
        now: 0,
        seq: 0,
        heap: BinaryHeap::new(),
        pending: HashMap::new(),
    };
    for id in 0..NODES {
        q.at(0, id, Event::Start);
    }
    while let Some(Reverse((at, seq))) = q.heap.pop() {
        q.now = at;
        let (target, event) = q.pending.remove(&seq).expect("every event is pending");
        parts[target].handle(event, &mut q);
    }
    parts
        .iter()
        .fold(q.now, |a, p| a.rotate_left(5) ^ p.digest())
}

/// Host seconds one pass takes. Panics if the pass computed a different
/// digest from the first one, which would mean it did different work.
pub fn time() -> f64 {
    use std::sync::OnceLock;
    static DIGEST: OnceLock<u64> = OnceLock::new();
    let t = Instant::now();
    let digest = black_box(pass());
    let seconds = t.elapsed().as_secs_f64();
    assert_eq!(*DIGEST.get_or_init(|| digest), digest, "calibration pass");
    seconds
}
