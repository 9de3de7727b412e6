//! `durable-service`: the service stack under two kinds of client at once.
//!
//! Client A ships `apply_batch` bursts over its own components: half
//! queries, half updates, with duplicated updates and annihilating
//! add/remove pairs mixed in. Client B issues single operations on its own
//! components through the adapter (intake) door. Both replay rounds that
//! end in the start state; after the timed phase the instance is dropped
//! and recovered from its directory.

use super::churn::{self, Block, BLOCK, UNIVERSE};
use super::inmem::emit_core_layers;
use crate::client::{
    run_phase, run_rounds, traced_quarters, ClientStats, Failed, Kind, Op, PhaseStats,
};
use crate::durability::{self, check_probes, note_check, service_options, Probe, ServiceLayers};
use crate::hist::Hist;
use crate::oracle::{self, BfsGraph, Checker};
use crate::report::{median, ratio, Report};
use crate::rng::Rng;
use crate::sys;
use dc_durable::DurableConnectivity;
use dynconn::BatchOp;
use std::path::Path;
use std::time::{Duration, Instant};

const A_BLOCKS: usize = 16;
const B_BLOCKS: usize = 16;
const BATCH_OPS: usize = 256;
/// Client A: batches per walk; a round is the walk and its mirror.
const WALK_BATCHES: usize = 4;
const A_ROUNDS: usize = 8;
const B_WALK_OPS: usize = 64;
const B_ROUNDS: usize = 32;
const B_QUERY_PERCENT: u32 = 50;
const PRELOAD_BATCH: usize = 4_096;
/// Client A's pause between an ack and its next burst. Adapter waiters
/// back off to 1 ms parks, and a bulk client that comes back sooner keeps
/// the leader lock nearly all the time, so single operations starve for
/// seconds (see the README); this pause lets them in after each burst.
const A_THINK: Duration = Duration::from_millis(2);
const SETUPS: usize = 9;
const RECOVERIES: usize = 9;
const PROBES: usize = 20_000;

/// One `apply_batch` call with the answers the oracle expects, in order.
struct Batch {
    ops: Vec<BatchOp>,
    expected: Vec<bool>,
}

struct Inputs {
    n: usize,
    edges: Vec<(u32, u32)>,
    a_rounds: Vec<Vec<Batch>>,
    b_rounds: Vec<Vec<Op>>,
    probes: Vec<Probe>,
}

/// Client A's batches have a fixed shape: `GROUPS_PER_BATCH` times four
/// queries followed by four updates, so every batch has the same number
/// of update runs (and so of WAL commits) whatever the seed.
const GROUP_OPS: usize = 4;
const GROUPS_PER_BATCH: usize = BATCH_OPS / (2 * GROUP_OPS);

/// A piece of an update group that the mirror keeps together.
enum Unit {
    /// An effective update, possibly sent twice (the second is a no-op).
    Update {
        add: bool,
        u: u32,
        v: u32,
        twice: bool,
    },
    /// An add/remove or remove/add pair of one edge: cancels out.
    Annihilating { add_first: bool, u: u32, v: u32 },
}

impl Unit {
    fn len(&self) -> usize {
        match self {
            Unit::Update { twice, .. } => 1 + *twice as usize,
            Unit::Annihilating { .. } => 2,
        }
    }

    /// Appends the unit's ops; `mirrored` turns an effective update into
    /// its inverse (an annihilating pair is its own mirror).
    fn push_ops(&self, out: &mut Vec<BatchOp>, mirrored: bool) {
        let op = |add: bool, u, v| {
            if add {
                BatchOp::Add(u, v)
            } else {
                BatchOp::Remove(u, v)
            }
        };
        match *self {
            Unit::Update { add, u, v, twice } => {
                let add = add != mirrored;
                out.push(op(add, u, v));
                if twice {
                    out.push(op(add, u, v));
                }
            }
            Unit::Annihilating { add_first, u, v } => {
                out.push(op(add_first, u, v));
                out.push(op(!add_first, u, v));
            }
        }
    }
}

/// One update group of exactly `GROUP_OPS` ops on one of A's blocks.
fn update_group(rng: &mut Rng, block: &mut Block, flips: &mut Vec<(u32, u32)>) -> Vec<Unit> {
    let mut units = Vec::new();
    let mut len = 0;
    while len < GROUP_OPS {
        let room = GROUP_OPS - len;
        let unit = if room >= 2 && rng.percent(10) {
            let (u, v) = block.universe[rng.below(UNIVERSE)];
            let present = block.present_edges().any(|e| e == (u, v));
            Unit::Annihilating {
                add_first: !present,
                u,
                v,
            }
        } else {
            let add = rng.percent(50);
            let (u, v) = block
                .flip_random(rng, add)
                .expect("half the universe is present");
            flips.push((u, v));
            Unit::Update {
                add,
                u,
                v,
                twice: room >= 2 && rng.percent(10),
            }
        };
        len += unit.len();
        units.push(unit);
    }
    units
}

/// One round of client A: `WALK_BATCHES` batches of query and update
/// groups, then the same groups mirrored (reversed and inverted), which
/// returns A's blocks to their start state.
fn a_round(rng: &mut Rng, blocks: &mut [Block], verts: &[&[u32]]) -> Vec<BatchOp> {
    let groups = WALK_BATCHES * GROUPS_PER_BATCH;
    let mut walk = Vec::with_capacity(groups);
    for _ in 0..groups {
        let b = rng.below(blocks.len());
        let queries: Vec<BatchOp> = (0..GROUP_OPS)
            .map(|_| {
                let (x, y) = rng.pair(BLOCK);
                BatchOp::Query(verts[b][x], verts[b][y])
            })
            .collect();
        let mut flips = Vec::new();
        let units = update_group(rng, &mut blocks[b], &mut flips);
        walk.push((queries, b, units, flips));
    }
    let mut ops = Vec::with_capacity(2 * groups * 2 * GROUP_OPS);
    for (queries, _, units, _) in &walk {
        ops.extend_from_slice(queries);
        for unit in units {
            unit.push_ops(&mut ops, false);
        }
    }
    for (queries, b, units, flips) in walk.iter().rev() {
        ops.extend_from_slice(queries);
        for unit in units.iter().rev() {
            unit.push_ops(&mut ops, true);
        }
        for &e in flips.iter().rev() {
            blocks[*b].flip_edge(e);
        }
    }
    ops
}

/// Sequential answers of `ops` (set semantics: a duplicate add or remove
/// is a no-op), applied to `graph`.
fn answers(graph: &mut BfsGraph, ops: &[BatchOp]) -> Vec<bool> {
    let mut out = Vec::new();
    for op in ops {
        match *op {
            BatchOp::Query(u, v) => out.push(graph.connected(u, v)),
            BatchOp::Add(u, v) => {
                graph.add(u, v);
            }
            BatchOp::Remove(u, v) => {
                graph.remove(u, v);
            }
        }
    }
    out
}

fn generate(seed: u64) -> Inputs {
    let blocks_total = A_BLOCKS + B_BLOCKS;
    let n = blocks_total * BLOCK;
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
    let (a_blocks, b_blocks) = blocks.split_at_mut(A_BLOCKS);
    let (a_verts, b_verts) = verts.split_at(A_BLOCKS);

    let mut graph = BfsGraph::new(n);
    for &(u, v) in &edges {
        graph.add(u, v);
    }
    let mut a_rng = Rng::fork(seed, 100);
    let a_rounds = (0..A_ROUNDS)
        .map(|_| {
            let ops = a_round(&mut a_rng, a_blocks, a_verts);
            ops.chunks(BATCH_OPS)
                .map(|chunk| Batch {
                    expected: answers(&mut graph, chunk),
                    ops: chunk.to_vec(),
                })
                .collect()
        })
        .collect();

    let mut b_rng = Rng::fork(seed, 101);
    let b_rounds = (0..B_ROUNDS)
        .map(|_| {
            let mut walk = Vec::with_capacity(2 * B_WALK_OPS);
            let mut touched = Vec::with_capacity(B_WALK_OPS);
            for _ in 0..B_WALK_OPS {
                let b = b_rng.below(B_BLOCKS);
                walk.push(churn::walk_step(
                    &mut b_rng,
                    &mut b_blocks[b],
                    b_verts[b],
                    B_QUERY_PERCENT,
                ));
                touched.push(b);
            }
            for (op, &b) in walk.iter().zip(&touched).rev() {
                if op.kind != Kind::Query {
                    b_blocks[b].flip_edge((op.u, op.v));
                }
            }
            let back: Vec<Op> = churn::mirror(&walk).collect();
            walk.extend(back);
            churn::annotate(&mut graph, &mut walk);
            walk
        })
        .collect();

    let mut start = edges.clone();
    start.sort_unstable();
    let mut end = graph.edges();
    end.sort_unstable();
    assert_eq!(
        start, end,
        "durable-service rounds must end in the start state"
    );

    let labels = oracle::components(n, &edges);
    let mut probe_rng = Rng::fork(seed, 2);
    let probes = (0..PROBES)
        .map(|_| {
            let block = verts[probe_rng.below(verts.len())];
            let (a, b) = probe_rng.pair(BLOCK);
            let (u, v) = (block[a], block[b]);
            (u, v, labels[u as usize] == labels[v as usize])
        })
        .collect();
    Inputs {
        n,
        edges,
        a_rounds,
        b_rounds,
        probes,
    }
}

fn build(inputs: &Inputs, dir: &Path) -> Result<DurableConnectivity, String> {
    let store = DurableConnectivity::create(dir, inputs.n, service_options())
        .map_err(|e| format!("create: {e}"))?;
    let mut ops = Vec::with_capacity(PRELOAD_BATCH);
    for chunk in inputs.edges.chunks(PRELOAD_BATCH) {
        ops.clear();
        ops.extend(chunk.iter().map(|&(u, v)| BatchOp::Add(u, v)));
        store
            .engine()
            .try_apply_batch(&ops)
            .map_err(|e| format!("preload: {e}"))?;
    }
    Ok(store)
}

/// What client A did in one phase.
#[derive(Default)]
struct BulkStats {
    batches: u64,
    ops: u64,
    queries: u64,
    updates: u64,
    failed_batches: u64,
    ack: Hist,
    checker: Checker,
    busy_ns: u128,
}

impl BulkStats {
    fn merge(&mut self, other: BulkStats) {
        self.batches += other.batches;
        self.ops += other.ops;
        self.queries += other.queries;
        self.updates += other.updates;
        self.failed_batches += other.failed_batches;
        self.ack.merge(&other.ack);
        self.checker.absorb(other.checker);
        self.busy_ns += other.busy_ns;
    }
}

fn run_bulk(store: &DurableConnectivity, rounds: &[Vec<Batch>], deadline: Instant) -> BulkStats {
    let mut stats = BulkStats::default();
    let start = Instant::now();
    let mut index = 0;
    for round in rounds.iter().cycle() {
        for batch in round {
            let t0 = Instant::now();
            let result = store.engine().try_apply_batch(&batch.ops);
            let ns = t0.elapsed().as_nanos() as u64;
            stats.ack.record(ns);
            stats.batches += 1;
            stats.ops += batch.ops.len() as u64;
            stats.queries += batch.expected.len() as u64;
            stats.updates += (batch.ops.len() - batch.expected.len()) as u64;
            match result {
                Ok(results) if results.len() == batch.expected.len() => {
                    for (r, &want) in results.iter().zip(&batch.expected) {
                        let (u, v) = batch.ops[r.op_index].endpoints();
                        stats.checker.check("bulk", index, u, v, want, r.connected);
                        index += 1;
                    }
                }
                _ => stats.failed_batches += 1,
            }
            std::thread::sleep(A_THINK);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    stats.busy_ns = start.elapsed().as_nanos();
    stats
}

fn single_op(store: &DurableConnectivity, op: &Op) -> Result<Option<bool>, Failed> {
    let engine = store.engine();
    match op.kind {
        Kind::Query => engine.try_connected(op.u, op.v).map(Some),
        Kind::Add => engine.try_add_edge(op.u, op.v).map(|_| None),
        Kind::Remove => engine.try_remove_edge(op.u, op.v).map(|_| None),
    }
    .map_err(|_| Failed)
}

/// One timed phase of both clients.
struct PhaseResult {
    bulk: BulkStats,
    single: ClientStats,
    wall_s: f64,
    service: ServiceLayers,
}

impl PhaseStats for PhaseResult {
    fn ops(&self) -> u64 {
        self.bulk.ops + self.single.ops()
    }

    fn wall_s(&self) -> f64 {
        self.wall_s
    }

    fn merge(&mut self, other: Self) {
        self.bulk.merge(other.bulk);
        self.single.merge(other.single);
        self.wall_s += other.wall_s;
        self.service.merge(other.service);
    }
}

fn phase(store: &DurableConnectivity, inputs: &Inputs, seconds: f64, traced: bool) -> PhaseResult {
    let before = store.engine().stats();
    let seq_before = store.last_seq();
    let mut bulk = None;
    let bodies: Vec<Box<dyn FnOnce(Instant) -> ClientStats + Send + '_>> = vec![
        Box::new(|deadline| {
            bulk = Some(run_bulk(store, &inputs.a_rounds, deadline));
            ClientStats::default()
        }),
        Box::new(|deadline| {
            let mut stats = ClientStats::default();
            run_rounds(
                &inputs.b_rounds,
                "adapter",
                deadline,
                traced,
                &mut stats,
                |op| single_op(store, op),
            );
            stats
        }),
    ];
    let (mut per_thread, wall) = run_phase(seconds, bodies);
    let single = per_thread.pop().expect("client B");
    let bulk = bulk.expect("client A ran");
    let service = ServiceLayers::read(
        store,
        before,
        seq_before,
        single.ops(),
        single.updates(),
        bulk.batches,
    );
    PhaseResult {
        bulk,
        single,
        wall_s: wall.as_secs_f64(),
        service,
    }
}

fn account(report: &mut Report, r: &PhaseResult) {
    let (bulk, single) = (&r.bulk, &r.single);
    report.class(
        "connected",
        single.queries,
        single.checker.wrong + single.errors[0],
    );
    report.class("add_edge", single.adds, single.errors[1]);
    report.class("remove_edge", single.removes, single.errors[2]);
    report.class("batch_query", bulk.queries, bulk.checker.wrong);
    report.class("batch_update", bulk.updates, 0);
    report.class("apply_batch", bulk.batches, bulk.failed_batches);
    for checker in [&single.checker, &bulk.checker] {
        if checker.wrong > 0 {
            report.info("wrong_answers", format!("{:?}", checker.evidence));
        }
    }
}

pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let inputs = generate(seed);
    let edges = inputs.edges.len() as f64;
    let setups = if traced { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    // Set-ups after the first reuse the memory the allocator kept from
    // the one before, so they time the program's work rather than the
    // kernel's page faults; the resident-set baseline is taken once, on a
    // trimmed heap, before the first.
    sys::trim_heap();
    let rss_base = sys::rss_bytes();
    let mut store = None;
    for k in 0..setups {
        drop(store.take());
        let dir = work.join(format!("store-{k}"));
        let t0 = Instant::now();
        store = Some(build(&inputs, &dir)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        if k > 0 {
            let _ = std::fs::remove_dir_all(work.join(format!("store-{}", k - 1)));
        }
    }
    let store = store.expect("at least one set-up");
    let dir = work.join(format!("store-{}", setups - 1));

    let result = if traced {
        let (t, overhead) = traced_quarters(|on| {
            let r = phase(&store, &inputs, seconds / 4.0, on);
            account(report, &r);
            r
        });
        emit_core_layers(report, &t.single, inputs.edges.len(), overhead);
        t.service.emit(report);
        let covered = t.single.span_ns() + t.bulk.ack.sum_ns();
        let busy = t.single.busy.as_nanos() + t.bulk.busy_ns;
        report.metric(
            "trace.span_coverage",
            ratio(covered as f64, busy as f64),
            "ratio",
        );
        t
    } else {
        let r = phase(&store, &inputs, seconds, false);
        account(report, &r);
        r
    };
    let rss_after = sys::rss_bytes();
    report.info("batches", result.bulk.batches);
    report.info("bulk_commits", result.service.bulk_commits);
    report.info("adapter_drains", result.service.stats.batches);
    let final_check = check_probes(&store, "final", &inputs.probes);
    note_check(report, &final_check);
    if store.is_poisoned() {
        report.problems.push("store poisoned during the run".into());
    }
    drop(store);

    let (disk_bytes, checkpoint_bytes) =
        sys::dir_bytes(&dir, "ck-").map_err(|e| format!("store size: {e}"))?;
    let recovery = durability::recover(&dir, if traced { 0 } else { RECOVERIES }, &inputs.probes)?;
    note_check(report, &recovery.checker);
    report.info("setup_samples_s", format!("{setup_s:?}"));
    report.info("recover_samples_s", format!("{:?}", recovery.samples));
    if traced {
        report.metric(
            "dc_durable.recover_batches_replayed",
            recovery.report.batches_replayed as f64,
            "count",
        );
        report.metric("dc_durable.checkpoint_bytes", checkpoint_bytes as f64, "B");
    } else {
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("ops_per_s", result.ops() as f64 / result.wall_s, "ops/s");
        report.latency_us("query_p50_us", &result.single.query_lat, 0.50);
        report.latency_us("query_p99_us", &result.single.query_lat, 0.99);
        report.latency_us("update_p50_us", &result.single.update_lat, 0.50);
        report.latency_us("update_p99_us", &result.single.update_lat, 0.99);
        report.latency_us("batch_ack_p50_us", &result.bulk.ack, 0.50);
        report.latency_us("batch_ack_p90_us", &result.bulk.ack, 0.90);
        report.metric("recover_s", recovery.seconds, "s");
        report.metric(
            "rss_bytes_per_edge",
            rss_after.saturating_sub(rss_base) as f64 / edges,
            "B",
        );
        report.metric("disk_bytes_per_edge", disk_bytes as f64 / edges, "B");
    }
    Ok(())
}
