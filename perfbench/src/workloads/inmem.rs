//! The shared runner of the two in-memory workloads: the paper's algorithm
//! (`Variant::OurAlgorithm`, ETT backend, read hints on) under two client
//! threads, then the same graph persisted through the service stack.

use crate::client::{run_phase, run_rounds, traced_quarters, Class, ClientStats, Kind, Op};
use crate::durability::{self, check_probes, note_check, Probe};
use crate::layers;
use crate::report::{median, ratio, Report};
use crate::sys;
use dc_obs::{Counter, Gauge, SpanId};
use dynconn::{DynamicConnectivity, Variant};
use std::path::Path;
use std::time::Instant;

/// `apply_batch` calls that persist the graph: enough for a p90 with ~100
/// samples beyond it.
const PERSIST_BATCHES: usize = 1024;

pub struct Inputs {
    pub n: usize,
    /// The start state, in preload order. Every round returns to it.
    pub edges: Vec<(u32, u32)>,
    /// Per client thread, the rounds it replays.
    pub rounds: Vec<Vec<Vec<Op>>>,
    /// Per client thread, when set: a shuffled list of the edges the
    /// thread owns. Each remove of a round then takes the next edge of the
    /// list (cycling) and the add that follows re-adds it, so replayed
    /// rounds keep removing fresh edges. Only valid where the oracle's
    /// answers do not depend on which owned edge is removed.
    pub removal_pools: Option<Vec<Vec<(u32, u32)>>>,
    /// Sampled pairs with their answer in the start state.
    pub probes: Vec<Probe>,
    /// How many set-ups the median `setup_s` is taken over.
    pub setups: usize,
    /// How many recoveries the median `recover_s` is taken over.
    pub recoveries: usize,
}

fn build(inputs: &Inputs) -> Box<dyn DynamicConnectivity> {
    let dc = Variant::OurAlgorithm.build(inputs.n);
    for &(u, v) in &inputs.edges {
        dc.add_edge(u, v);
    }
    dc
}

/// One timed phase of every client thread; `cursors` carries each
/// thread's position in its removal pool across phases.
fn phase(
    dc: &dyn DynamicConnectivity,
    inputs: &Inputs,
    cursors: &mut [usize],
    seconds: f64,
    traced: bool,
) -> ClientStats {
    let stage = if traced { "traced" } else { "timed" };
    let bodies = inputs
        .rounds
        .iter()
        .zip(cursors.iter_mut())
        .enumerate()
        .map(|(t, (rounds, cursor))| {
            let pool = inputs.removal_pools.as_ref().map(|p| &p[t]);
            Box::new(move |deadline: Instant| {
                let mut stats = ClientStats::default();
                let mut removed = (0, 0);
                run_rounds(rounds, stage, deadline, traced, &mut stats, |op| {
                    let (u, v) = match (pool, op.kind) {
                        (Some(pool), Kind::Remove) => {
                            removed = pool[*cursor];
                            *cursor = (*cursor + 1) % pool.len();
                            removed
                        }
                        (Some(_), Kind::Add) => removed,
                        _ => (op.u, op.v),
                    };
                    Ok(match op.kind {
                        Kind::Query => Some(dc.connected(u, v)),
                        Kind::Add => {
                            dc.add_edge(u, v);
                            None
                        }
                        Kind::Remove => {
                            dc.remove_edge(u, v);
                            None
                        }
                    })
                });
                stats
            }) as Box<dyn FnOnce(Instant) -> ClientStats + Send + '_>
        })
        .collect();
    let (per_thread, wall) = run_phase(seconds, bodies);
    let mut total = ClientStats::default();
    for s in per_thread {
        total.merge(s);
    }
    total.wall_s = wall.as_secs_f64();
    total
}

fn account(report: &mut Report, stats: &ClientStats) {
    report.class(
        "connected",
        stats.queries,
        stats.checker.wrong + stats.errors[0],
    );
    report.class("add_edge", stats.adds, stats.errors[1]);
    report.class("remove_edge", stats.removes, stats.errors[2]);
    if stats.checker.wrong > 0 {
        report.info("wrong_answers", format!("{:?}", stats.checker.evidence));
    }
}

pub fn run(
    inputs: &Inputs,
    seconds: f64,
    traced: bool,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let edges = inputs.edges.len() as f64;
    let setups = if traced { 1 } else { inputs.setups };
    let mut setup_s = Vec::new();
    // Set-ups after the first reuse the memory the allocator kept from
    // the one before, so they time the program's work rather than the
    // kernel's page faults; the resident-set baseline is taken once, on a
    // trimmed heap, before the first.
    sys::trim_heap();
    let rss_base = sys::rss_bytes();
    let mut dc = None;
    for _ in 0..setups {
        drop(dc.take());
        let t0 = Instant::now();
        dc = Some(build(inputs));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let dc = dc.expect("at least one set-up");
    let mut cursors = vec![0; inputs.rounds.len()];

    let mut timed = None;
    let mut rss_after = 0;
    if traced {
        let (stats, overhead) = traced_quarters(|on| {
            let stats = phase(&*dc, inputs, &mut cursors, seconds / 4.0, on);
            account(report, &stats);
            stats
        });
        emit_core_layers(report, &stats, inputs.edges.len(), overhead);
        report.metric(
            "trace.span_coverage",
            ratio(stats.span_ns() as f64, stats.busy.as_nanos() as f64),
            "ratio",
        );
    } else {
        let stats = phase(&*dc, inputs, &mut cursors, seconds, false);
        rss_after = sys::rss_bytes();
        account(report, &stats);
        report.info("rounds", stats.rounds);
        timed = Some(stats);
    }
    let final_check = check_probes(&*dc, "final", &inputs.probes);
    note_check(report, &final_check);
    drop(dc);

    let persisted = durability::persist_and_recover(
        inputs.n,
        &inputs.edges,
        PERSIST_BATCHES,
        work,
        if traced { 0 } else { inputs.recoveries },
        &inputs.probes,
        traced,
    )?;
    note_check(report, &persisted.loaded);
    note_check(report, &persisted.recovery.checker);
    report.class("apply_batch", persisted.batches, persisted.failed_batches);
    report.class(
        "bulk_add",
        inputs.edges.len() as u64,
        persisted.rejected_adds,
    );
    report.info("persist_batches", persisted.batches);
    report.info("setup_samples_s", format!("{setup_s:?}"));
    report.info(
        "recover_samples_s",
        format!("{:?}", persisted.recovery.samples),
    );

    match timed {
        None => {
            persisted.layers.emit(report);
            report.metric(
                "dc_durable.recover_batches_replayed",
                persisted.recovery.report.batches_replayed as f64,
                "count",
            );
            report.metric(
                "dc_durable.checkpoint_bytes",
                persisted.checkpoint_bytes as f64,
                "B",
            );
        }
        Some(stats) => {
            report.metric("setup_s", median(&setup_s), "s");
            report.metric("ops_per_s", stats.ops() as f64 / stats.wall_s, "ops/s");
            report.latency_us("query_p50_us", &stats.query_lat, 0.50);
            report.latency_us("query_p99_us", &stats.query_lat, 0.99);
            report.latency_us("update_p50_us", &stats.update_lat, 0.50);
            report.latency_us("update_p99_us", &stats.update_lat, 0.99);
            report.latency_us("batch_ack_p50_us", &persisted.ack, 0.50);
            report.latency_us("batch_ack_p90_us", &persisted.ack, 0.90);
            report.metric("recover_s", persisted.recovery.seconds, "s");
            report.metric(
                "rss_bytes_per_edge",
                rss_after.saturating_sub(rss_base) as f64 / edges,
                "B",
            );
            report.metric(
                "disk_bytes_per_edge",
                persisted.disk_bytes as f64 / edges,
                "B",
            );
        }
    }
    Ok(())
}

/// Per-layer metrics of `dynconn`, `dc_ett` and `dc_sync` from one traced
/// phase: the benchmark's own spans classified by the oracle, plus the
/// registry and wait statistics the layers export.
pub fn emit_core_layers(
    report: &mut Report,
    stats: &ClientStats,
    live_edges: usize,
    overhead: f64,
) {
    let span = |c: Class, q: f64| stats.spans[c as usize].quantile_ns(q);
    report.metric(
        "dynconn.connected_ns_p50",
        span(Class::Connected, 0.5),
        "ns",
    );
    report.metric(
        "dynconn.connected_ns_p99",
        span(Class::Connected, 0.99),
        "ns",
    );
    report.metric("dynconn.add_link_ns_p50", span(Class::AddLink, 0.5), "ns");
    report.metric("dynconn.add_cycle_ns_p50", span(Class::AddCycle, 0.5), "ns");
    report.metric(
        "dynconn.remove_keep_ns_p50",
        span(Class::RemoveKeep, 0.5),
        "ns",
    );
    report.metric(
        "dynconn.remove_keep_ns_p99",
        span(Class::RemoveKeep, 0.99),
        "ns",
    );
    report.metric(
        "dynconn.remove_split_ns_p50",
        span(Class::RemoveSplit, 0.5),
        "ns",
    );
    report.metric(
        "dynconn.remove_split_ns_p99",
        span(Class::RemoveSplit, 0.99),
        "ns",
    );
    let removals = layers::count(Counter::HdtRemovals);
    let non_spanning = layers::count(Counter::HdtNonSpanningRemovals);
    report.metric(
        "dynconn.non_spanning_removal_ratio",
        ratio(non_spanning, removals),
        "ratio",
    );
    report.metric(
        "dynconn.replacement_found_ratio",
        ratio(
            layers::count(Counter::HdtReplacementsFound),
            removals - non_spanning,
        ),
        "ratio",
    );
    report.metric(
        "dynconn.replacement_search_ns_p50",
        layers::span_p50_ns(SpanId::ReplacementSearch),
        "ns",
    );
    let hits = layers::count(Counter::HintHits);
    report.metric(
        "dc_ett.hint_hit_ratio",
        ratio(hits, hits + layers::count(Counter::HintMisses)),
        "ratio",
    );
    report.metric(
        "dc_ett.hint_invalidations_per_update",
        ratio(
            layers::count(Counter::HintInvalidations),
            stats.updates() as f64,
        ),
        "count/op",
    );
    report.metric(
        "dc_ett.treap_split_ns_p50",
        layers::span_p50_ns(SpanId::TreapSplit),
        "ns",
    );
    report.metric(
        "dc_ett.treap_merge_ns_p50",
        layers::span_p50_ns(SpanId::TreapMerge),
        "ns",
    );
    report.metric(
        "dc_ett.epoch_nodes_reclaimed",
        layers::count(Counter::EpochNodesReclaimed),
        "count",
    );
    report.metric(
        "dc_ett.arena_occupancy_per_edge",
        ratio(layers::gauge(Gauge::ArenaOccupancy), live_edges as f64),
        "slots",
    );
    let (wait_ns, wait_events) = layers::lock_wait();
    report.metric(
        "dc_sync.lock_wait_share",
        ratio(wait_ns, stats.busy.as_nanos() as f64),
        "ratio",
    );
    report.metric("dc_sync.lock_wait_events", wait_events, "count");
    report.metric("trace.overhead_ratio", overhead, "ratio");
}
