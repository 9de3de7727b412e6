//! `read-mostly`: a few large components that the traffic can never split.
//!
//! Each component holds two edge-disjoint random Hamiltonian cycles plus
//! random extra edges. Each client thread removes only edges it owns and
//! re-adds one before removing the next, so at most two edges are absent
//! at any moment. Removing at most two edges from a graph with two
//! edge-disjoint Hamiltonian cycles leaves at least one Hamiltonian path,
//! so the component partition is fixed whatever the interleaving, and
//! every `connected` answer is known in advance.

use super::inmem::Inputs;
use crate::client::{Kind, Op};
use crate::oracle;
use crate::rng::Rng;
use std::collections::HashSet;

const COMPONENTS: usize = 4;
const COMPONENT_SIZE: usize = 32_768;
const EXTRA_EDGES_PER_COMPONENT: usize = 65_536;
const THREADS: usize = 2;
const ROUND_OPS: usize = 8_192;
const ROUNDS_PER_THREAD: usize = 32;
const QUERY_PERCENT: u32 = 90;
const PROBES: usize = 100_000;

fn norm(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

fn cycle(rng: &mut Rng, verts: &[u32]) -> Vec<(u32, u32)> {
    let mut order = verts.to_vec();
    rng.shuffle(&mut order);
    (0..order.len())
        .map(|i| norm(order[i], order[(i + 1) % order.len()]))
        .collect()
}

pub fn generate(seed: u64) -> Result<Inputs, String> {
    let n = COMPONENTS * COMPONENT_SIZE;
    let mut rng = Rng::fork(seed, 1);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut perm);
    let mut edges = Vec::new();
    for verts in perm.chunks(COMPONENT_SIZE) {
        let mut set: HashSet<(u32, u32)> = cycle(&mut rng, verts).into_iter().collect();
        let second = loop {
            let candidate = cycle(&mut rng, verts);
            if candidate.iter().all(|e| !set.contains(e)) {
                break candidate;
            }
        };
        set.extend(second);
        let target = set.len() + EXTRA_EDGES_PER_COMPONENT;
        while set.len() < target {
            let (a, b) = rng.pair(verts.len());
            set.insert(norm(verts[a], verts[b]));
        }
        let mut list: Vec<_> = set.into_iter().collect();
        list.sort_unstable();
        edges.extend(list);
    }
    rng.shuffle(&mut edges);

    // The oracle's partition, computed from the edge set alone. Edges stay
    // inside their component, so finding exactly COMPONENTS classes means
    // it equals the construction.
    let labels = oracle::components(n, &edges);
    let distinct: HashSet<u32> = labels.iter().copied().collect();
    if distinct.len() != COMPONENTS {
        return Err(format!(
            "read-mostly: {} components, built {COMPONENTS}",
            distinct.len()
        ));
    }
    let connected = |u: u32, v: u32| labels[u as usize] == labels[v as usize];

    // Each thread owns every other edge of the shuffled list; its removals
    // walk its share (see `Inputs::removal_pools`).
    // The pools are shuffled apart from the preload order, which decides
    // the spanning forest, so removals hit tree edges at their share.
    let pools: Vec<Vec<(u32, u32)>> = (0..THREADS)
        .map(|t| {
            let mut pool: Vec<_> = edges.iter().copied().skip(t).step_by(THREADS).collect();
            Rng::fork(seed, 200 + t as u64).shuffle(&mut pool);
            pool
        })
        .collect();
    let rounds = (0..THREADS)
        .map(|t| {
            let mut rng = Rng::fork(seed, 100 + t as u64);
            (0..ROUNDS_PER_THREAD)
                .map(|_| {
                    let mut ops = Vec::with_capacity(ROUND_OPS);
                    let mut absent = false;
                    while ops.len() < ROUND_OPS - 1 {
                        if rng.percent(QUERY_PERCENT) {
                            let (u, v) = rng.pair(n);
                            let (u, v) = (u as u32, v as u32);
                            ops.push(Op {
                                u,
                                v,
                                kind: Kind::Query,
                                conn: connected(u, v),
                            });
                        } else {
                            // The edge comes from the thread's removal pool
                            // at run time; it always stays connected.
                            let kind = if absent { Kind::Add } else { Kind::Remove };
                            absent = !absent;
                            ops.push(Op {
                                u: 0,
                                v: 0,
                                kind,
                                conn: true,
                            });
                        }
                    }
                    if absent {
                        ops.push(Op {
                            u: 0,
                            v: 0,
                            kind: Kind::Add,
                            conn: true,
                        });
                    }
                    ops
                })
                .collect()
        })
        .collect();

    let mut probe_rng = Rng::fork(seed, 2);
    let probes = (0..PROBES)
        .map(|_| {
            let (u, v) = probe_rng.pair(n);
            (u as u32, v as u32, connected(u as u32, v as u32))
        })
        .collect();
    Ok(Inputs {
        n,
        edges,
        rounds,
        removal_pools: Some(pools),
        probes,
        setups: 3,
        recoveries: 5,
    })
}
