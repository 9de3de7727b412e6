//! Closed-loop clients: each thread issues its next operation only after
//! the previous one returned, and replays whole rounds of pre-generated
//! operations until the phase's time is up.

use crate::hist::Hist;
use crate::oracle::Checker;
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Query,
    Add,
    Remove,
}

/// One client operation with what the oracle knows about it: for a query
/// the expected answer, for an add whether the endpoints were already
/// connected, for a remove whether they stay connected afterwards.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub u: u32,
    pub v: u32,
    pub kind: Kind,
    pub conn: bool,
}

/// The oracle's classification of a span, by what the operation does to
/// the component partition.
#[derive(Clone, Copy)]
pub enum Class {
    Connected = 0,
    AddLink = 1,
    AddCycle = 2,
    RemoveKeep = 3,
    RemoveSplit = 4,
}

pub const CLASSES: usize = 5;

impl Op {
    pub fn class(&self) -> Class {
        match (self.kind, self.conn) {
            (Kind::Query, _) => Class::Connected,
            (Kind::Add, false) => Class::AddLink,
            (Kind::Add, true) => Class::AddCycle,
            (Kind::Remove, true) => Class::RemoveKeep,
            (Kind::Remove, false) => Class::RemoveSplit,
        }
    }
}

/// What one client thread did in one phase.
#[derive(Default)]
pub struct ClientStats {
    pub queries: u64,
    pub adds: u64,
    pub removes: u64,
    /// Typed errors returned by the program, per kind (query, add, remove).
    pub errors: [u64; 3],
    pub query_lat: Hist,
    pub update_lat: Hist,
    /// Per-class span durations; filled only in a traced phase.
    pub spans: Vec<Hist>,
    pub checker: Checker,
    pub busy: Duration,
    /// Wall time of the phase (first start to last finish), once merged.
    pub wall_s: f64,
    /// Rounds completed (whole rounds only).
    pub rounds: u64,
}

impl ClientStats {
    pub fn ops(&self) -> u64 {
        self.queries + self.adds + self.removes
    }

    pub fn updates(&self) -> u64 {
        self.adds + self.removes
    }

    pub fn merge(&mut self, other: ClientStats) {
        self.queries += other.queries;
        self.adds += other.adds;
        self.removes += other.removes;
        for (a, b) in self.errors.iter_mut().zip(other.errors) {
            *a += b;
        }
        self.query_lat.merge(&other.query_lat);
        self.update_lat.merge(&other.update_lat);
        if self.spans.is_empty() {
            self.spans = other.spans;
        } else {
            for (a, b) in self.spans.iter_mut().zip(&other.spans) {
                a.merge(b);
            }
        }
        self.checker.absorb(other.checker);
        self.busy += other.busy;
        self.wall_s += other.wall_s;
        self.rounds += other.rounds;
    }

    /// Nanoseconds of client time covered by spans around library calls.
    pub fn span_ns(&self) -> u128 {
        self.query_lat.sum_ns() + self.update_lat.sum_ns()
    }
}

/// What the untraced/traced comparison needs from a phase's results.
pub trait PhaseStats {
    fn ops(&self) -> u64;
    fn wall_s(&self) -> f64;
    fn merge(&mut self, other: Self);
}

impl PhaseStats for ClientStats {
    fn ops(&self) -> u64 {
        ClientStats::ops(self)
    }

    fn wall_s(&self) -> f64 {
        self.wall_s
    }

    fn merge(&mut self, other: Self) {
        ClientStats::merge(self, other)
    }
}

/// Runs untraced, traced, traced and untraced quarters of a traced run
/// (so a drift over the run cancels out of the comparison), with the
/// library's recording on for the traced pair. Returns the traced pair's
/// merged stats and traced / untraced throughput.
pub fn traced_quarters<P: PhaseStats>(mut quarter: impl FnMut(bool) -> P) -> (P, f64) {
    let rate = |ops: u64, secs: f64| ops as f64 / secs;
    let first = quarter(false);
    crate::layers::set_recording(true);
    let mut traced = quarter(true);
    traced.merge(quarter(true));
    crate::layers::set_recording(false);
    let last = quarter(false);
    let plain = rate(first.ops() + last.ops(), first.wall_s() + last.wall_s());
    let overhead = rate(traced.ops(), traced.wall_s()) / plain;
    (traced, overhead)
}

/// A program operation that returned a typed error instead of an answer.
pub struct Failed;

/// Runs `round` ops through `exec` (which returns the query answer, or
/// `None` for an update), timing every call. `Err(Failed)` is a typed
/// error from the program.
pub fn run_rounds(
    rounds: &[Vec<Op>],
    stage: &'static str,
    deadline: Instant,
    traced: bool,
    stats: &mut ClientStats,
    mut exec: impl FnMut(&Op) -> Result<Option<bool>, Failed>,
) {
    if traced && stats.spans.is_empty() {
        stats.spans = (0..CLASSES).map(|_| Hist::default()).collect();
    }
    let mut index = 0u64;
    for round in rounds.iter().cycle() {
        for op in round {
            let t0 = Instant::now();
            let result = exec(op);
            let ns = t0.elapsed().as_nanos() as u64;
            let kind = op.kind as usize;
            match op.kind {
                Kind::Query => {
                    stats.queries += 1;
                    stats.query_lat.record(ns);
                }
                Kind::Add => {
                    stats.adds += 1;
                    stats.update_lat.record(ns);
                }
                Kind::Remove => {
                    stats.removes += 1;
                    stats.update_lat.record(ns);
                }
            }
            if traced {
                stats.spans[op.class() as usize].record(ns);
            }
            match result {
                Ok(Some(got)) => {
                    stats.checker.check(stage, index, op.u, op.v, op.conn, got);
                }
                Ok(None) => {}
                Err(Failed) => stats.errors[kind] += 1,
            }
            index += 1;
        }
        stats.rounds += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// Starts `bodies` together behind a barrier, gives each the same phase
/// length, and returns their stats with the phase's wall time (first start
/// to last finish).
pub fn run_phase<'a>(
    seconds: f64,
    bodies: Vec<Box<dyn FnOnce(Instant) -> ClientStats + Send + 'a>>,
) -> (Vec<ClientStats>, Duration) {
    let barrier = Barrier::new(bodies.len());
    let length = Duration::from_secs_f64(seconds);
    let results: Vec<(ClientStats, Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = bodies
            .into_iter()
            .map(|body| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let mut stats = body(start + length);
                    let end = Instant::now();
                    stats.busy = end - start;
                    (stats, start, end)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let first = results.iter().map(|r| r.1).min().unwrap();
    let last = results.iter().map(|r| r.2).max().unwrap();
    (results.into_iter().map(|r| r.0).collect(), last - first)
}
