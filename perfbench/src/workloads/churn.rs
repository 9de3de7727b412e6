//! `partitioned-churn`: each client thread owns a disjoint set of small
//! components and churns their edges, so links, splits and replacement
//! searches happen all the time and no thread ever touches another's
//! vertices. Each thread's answers are exact against its own sequential
//! oracle.
//!
//! A round is a random walk of effective updates (add an absent universe
//! edge, remove a present one) with queries mixed in, followed by the same
//! walk mirrored (reversed, each add turned into a remove and back), so
//! every round ends in the start state and rounds can be replayed.

use super::inmem::Inputs;
use crate::client::{Kind, Op};
use crate::oracle::{self, BfsGraph};
use crate::rng::Rng;
use std::collections::HashSet;

pub const BLOCK: usize = 256;
/// About `BLOCK * ln(BLOCK) / 2`: the full universe sits near the
/// connectivity threshold, the half present at the start well below it.
pub const UNIVERSE: usize = 704;
const BLOCKS_PER_THREAD: usize = 128;
const THREADS: usize = 2;
const WALK_OPS: usize = 4_096;
const ROUNDS_PER_THREAD: usize = 16;
const PROBES: usize = 50_000;

/// The edge universe of one block and which of its edges are present,
/// with O(1) uniform picks from either side.
pub struct Block {
    pub universe: Vec<(u32, u32)>,
    present: Vec<usize>,
    absent: Vec<usize>,
    /// `(is_present, index in its list)` per universe edge.
    slot: Vec<(bool, usize)>,
}

impl Block {
    /// `universe` random distinct pairs of `verts`, a random half present.
    pub fn new(rng: &mut Rng, verts: &[u32], universe: usize) -> Self {
        let mut set = HashSet::new();
        let mut edges = Vec::with_capacity(universe);
        while edges.len() < universe {
            let (a, b) = rng.pair(verts.len());
            let e = (verts[a].min(verts[b]), verts[a].max(verts[b]));
            if set.insert(e) {
                edges.push(e);
            }
        }
        let mut order: Vec<usize> = (0..universe).collect();
        rng.shuffle(&mut order);
        let mut block = Block {
            universe: edges,
            present: Vec::new(),
            absent: Vec::new(),
            slot: vec![(false, 0); universe],
        };
        for (k, i) in order.into_iter().enumerate() {
            let present = k < universe / 2;
            let list = if present {
                &mut block.present
            } else {
                &mut block.absent
            };
            block.slot[i] = (present, list.len());
            list.push(i);
        }
        block
    }

    pub fn present_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.present.iter().map(|&i| self.universe[i])
    }

    /// Moves a random edge from one side to the other and returns it;
    /// `add` picks an absent edge.
    pub fn flip_random(&mut self, rng: &mut Rng, add: bool) -> Option<(u32, u32)> {
        let from = if add { &self.absent } else { &self.present };
        if from.is_empty() {
            return None;
        }
        let i = from[rng.below(from.len())];
        self.flip(i);
        Some(self.universe[i])
    }

    fn flip(&mut self, i: usize) {
        let (present, at) = self.slot[i];
        let (from, to) = if present {
            (&mut self.present, &mut self.absent)
        } else {
            (&mut self.absent, &mut self.present)
        };
        from.swap_remove(at);
        if let Some(&moved) = from.get(at) {
            self.slot[moved].1 = at;
        }
        self.slot[i] = (!present, to.len());
        to.push(i);
    }

    /// Flips universe edge `e` back (the mirror of an earlier flip).
    pub fn flip_edge(&mut self, e: (u32, u32)) {
        let i = self
            .universe
            .iter()
            .position(|&x| x == e)
            .expect("edge of this block");
        self.flip(i);
    }
}

/// Runs `ops` through the sequential oracle `graph`, filling in each op's
/// `conn` (query answer, connected-before for adds, connected-after for
/// removes).
pub fn annotate(graph: &mut BfsGraph, ops: &mut [Op]) {
    for op in ops {
        op.conn = match op.kind {
            Kind::Query => graph.connected(op.u, op.v),
            Kind::Add => {
                let before = graph.connected(op.u, op.v);
                assert!(graph.add(op.u, op.v), "oracle: add of a present edge");
                before
            }
            Kind::Remove => {
                assert!(graph.remove(op.u, op.v), "oracle: remove of an absent edge");
                graph.connected(op.u, op.v)
            }
        };
    }
}

/// The mirror of a walk: reversed, with adds and removes swapped.
pub fn mirror(walk: &[Op]) -> impl Iterator<Item = Op> + '_ {
    walk.iter().rev().map(|op| Op {
        kind: match op.kind {
            Kind::Add => Kind::Remove,
            Kind::Remove => Kind::Add,
            Kind::Query => Kind::Query,
        },
        ..*op
    })
}

/// One walk step on `block`: a query with `query_percent` probability,
/// otherwise an add or a remove with equal odds.
pub fn walk_step(rng: &mut Rng, block: &mut Block, verts: &[u32], query_percent: u32) -> Op {
    if rng.percent(query_percent) {
        let (a, b) = rng.pair(verts.len());
        return Op {
            u: verts[a],
            v: verts[b],
            kind: Kind::Query,
            conn: false,
        };
    }
    let add = rng.percent(50);
    let (u, v) = block
        .flip_random(rng, add)
        .expect("half the universe is present");
    Op {
        u,
        v,
        kind: if add { Kind::Add } else { Kind::Remove },
        conn: false,
    }
}

pub fn generate(seed: u64) -> Result<Inputs, String> {
    let n = THREADS * BLOCKS_PER_THREAD * BLOCK;
    let mut rng = Rng::fork(seed, 1);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut perm);
    let verts: Vec<&[u32]> = perm.chunks(BLOCK).collect();
    let mut blocks: Vec<Block> = verts
        .iter()
        .map(|v| Block::new(&mut rng, v, UNIVERSE))
        .collect();
    let mut edges: Vec<(u32, u32)> = blocks.iter().flat_map(|b| b.present_edges()).collect();
    rng.shuffle(&mut edges);

    let mut rounds = Vec::new();
    for t in 0..THREADS {
        let own = t * BLOCKS_PER_THREAD..(t + 1) * BLOCKS_PER_THREAD;
        let mut graph = BfsGraph::new(n);
        for b in own.clone() {
            for (u, v) in blocks[b].present_edges() {
                graph.add(u, v);
            }
        }
        let mut rng = Rng::fork(seed, 100 + t as u64);
        let mut thread_rounds = Vec::new();
        for _ in 0..ROUNDS_PER_THREAD {
            let mut walk = Vec::with_capacity(2 * WALK_OPS);
            let mut touched = Vec::with_capacity(WALK_OPS);
            for _ in 0..WALK_OPS {
                let b = own.start + rng.below(own.len());
                walk.push(walk_step(&mut rng, &mut blocks[b], verts[b], 10));
                touched.push(b);
            }
            // Put the blocks back in their start state with the walk.
            for (op, &b) in walk.iter().zip(&touched).rev() {
                if op.kind != Kind::Query {
                    blocks[b].flip_edge((op.u, op.v));
                }
            }
            let back: Vec<Op> = mirror(&walk).collect();
            walk.extend(back);
            annotate(&mut graph, &mut walk);
            thread_rounds.push(walk);
        }
        let mut start: Vec<_> = own.flat_map(|b| blocks[b].present_edges()).collect();
        start.sort_unstable();
        let mut end = graph.edges();
        end.sort_unstable();
        if start != end {
            return Err("partitioned-churn: a round does not end in the start state".into());
        }
        rounds.push(thread_rounds);
    }

    let labels = oracle::components(n, &edges);
    let mut probe_rng = Rng::fork(seed, 2);
    let probes = (0..PROBES)
        .map(|i| {
            let (u, v) = if i % 5 == 0 {
                let (a, b) = probe_rng.pair(n);
                (a as u32, b as u32)
            } else {
                let block = verts[probe_rng.below(verts.len())];
                let (a, b) = probe_rng.pair(BLOCK);
                (block[a], block[b])
            };
            (u, v, labels[u as usize] == labels[v as usize])
        })
        .collect();
    Ok(Inputs {
        n,
        edges,
        rounds,
        removal_pools: None,
        probes,
        setups: 7,
        recoveries: 7,
    })
}
