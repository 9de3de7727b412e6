//! The service stack (`dc_durable::DurableConnectivity` over
//! `dc_batch::BatchEngine`): the options every workload uses, bulk loads
//! through the `apply_batch` door, and timed recoveries of a store.

use crate::hist::Hist;
use crate::layers;
use crate::oracle::Checker;
use crate::report::{median, ratio, Report};
use crate::sys;
use dc_batch::BatchStats;
use dc_durable::{DurableConnectivity, DurableOptions, FsyncPolicy, RecoveryReport};
use dynconn::{BatchOp, DynamicConnectivity};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Library defaults except the WAL flush policy (`Off`) and query fan-out
/// (one thread). Checkpoint installs still sync their file under `Off`.
pub fn service_options() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Off,
        query_threads: 1,
        ..DurableOptions::default()
    }
}

pub const FSYNC_POLICY: &str = "Off (WAL); checkpoint installs still sync";

/// A pair with the oracle's answer, for quiescent-state checks.
pub type Probe = (u32, u32, bool);

pub fn check_probes(
    dc: &dyn DynamicConnectivity,
    stage: &'static str,
    probes: &[Probe],
) -> Checker {
    let mut checker = Checker::default();
    for (i, &(u, v, expected)) in probes.iter().enumerate() {
        checker.check(stage, i as u64, u, v, expected, dc.connected(u, v));
    }
    checker
}

/// Records a failed quiescent-state check as a problem of the run.
pub fn note_check(report: &mut Report, checker: &Checker) {
    if checker.wrong > 0 {
        report.problems.push(format!(
            "{} of {} state checks wrong, first: {:?}",
            checker.wrong, checker.checked, checker.evidence
        ));
    }
}

/// Recoveries of the store in `dir`: one in this process, checked against
/// `probes`, then `timed` more, each in a fresh process of this binary
/// (`--recover <dir>`). A recovery allocates the whole structure, and its
/// time shifts by up to half with the memory layout a process happens to
/// get, so the median is taken over several processes. Each recovery reads
/// the same checkpoint and log records (it only adds an empty segment to
/// resume logging in).
pub struct Recovery {
    /// Median of `samples`.
    pub seconds: f64,
    pub samples: Vec<f64>,
    pub report: RecoveryReport,
    pub checker: Checker,
}

pub fn recover(dir: &Path, timed: usize, probes: &[Probe]) -> Result<Recovery, String> {
    let (dc, report) = DurableConnectivity::recover(dir, service_options())
        .map_err(|e| format!("recover: {e}"))?;
    let checker = check_probes(&dc, "recovered", probes);
    drop(dc);
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..timed {
        let out = Command::new(&exe)
            .arg("--recover")
            .arg(dir)
            .output()
            .map_err(|e| format!("recovery process: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let seconds = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "recovery process failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        samples.push(seconds);
    }
    Ok(Recovery {
        seconds: if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        },
        samples,
        report,
        checker,
    })
}

/// The body of `perfbench --recover <dir>`: one timed recovery, printed
/// in seconds.
pub fn recover_once(dir: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let recovered = DurableConnectivity::recover(dir, service_options())
        .map_err(|e| format!("recover: {e}"))?;
    let seconds = t0.elapsed().as_secs_f64();
    drop(recovered);
    Ok(seconds)
}

/// Per-layer readings of the service stack over one interval.
pub struct ServiceLayers {
    pub stats: BatchStats,
    pub adapter_ops: u64,
    /// WAL commits made for `apply_batch` calls: the `last_seq` delta less
    /// one commit per adapter update (an adapter drain holds the single
    /// client's one op, and every adapter update is effective).
    pub bulk_commits: u64,
    pub client_batches: u64,
    pub checkpoints: f64,
    pub checkpoint_write_ns_p50: f64,
    pub flush_ns_p50: f64,
}

impl ServiceLayers {
    /// Reads the registry after an interval that started with
    /// `layers::set_recording(true)`; `before` is the engine's stats at
    /// the start.
    pub fn read(
        store: &DurableConnectivity,
        before: BatchStats,
        seq_before: u64,
        adapter_ops: u64,
        adapter_updates: u64,
        client_batches: u64,
    ) -> Self {
        let now = store.engine().stats();
        ServiceLayers {
            stats: BatchStats {
                batches: now.batches - before.batches,
                bulk_batches: now.bulk_batches - before.bulk_batches,
                submitted_updates: now.submitted_updates - before.submitted_updates,
                applied_updates: now.applied_updates - before.applied_updates,
                submitted_queries: now.submitted_queries - before.submitted_queries,
                coalesced_queries: now.coalesced_queries - before.coalesced_queries,
                rejected_updates: now.rejected_updates - before.rejected_updates,
            },
            adapter_ops,
            bulk_commits: (store.last_seq() - seq_before).saturating_sub(adapter_updates),
            client_batches,
            checkpoints: layers::count(dc_obs::Counter::Checkpoints),
            checkpoint_write_ns_p50: layers::span_p50_ns(dc_obs::SpanId::CheckpointWrite),
            flush_ns_p50: layers::span_p50_ns(dc_obs::SpanId::BatchFlush),
        }
    }

    /// Folds in a later interval; the registry readings are cumulative
    /// over a recording interval, so the later ones are kept.
    pub fn merge(&mut self, later: ServiceLayers) {
        let (a, b) = (&mut self.stats, later.stats);
        a.batches += b.batches;
        a.bulk_batches += b.bulk_batches;
        a.submitted_updates += b.submitted_updates;
        a.applied_updates += b.applied_updates;
        a.submitted_queries += b.submitted_queries;
        a.coalesced_queries += b.coalesced_queries;
        a.rejected_updates += b.rejected_updates;
        self.adapter_ops += later.adapter_ops;
        self.bulk_commits += later.bulk_commits;
        self.client_batches += later.client_batches;
        self.checkpoints = later.checkpoints;
        self.checkpoint_write_ns_p50 = later.checkpoint_write_ns_p50;
        self.flush_ns_p50 = later.flush_ns_p50;
    }

    pub fn emit(&self, report: &mut Report) {
        report.metric(
            "dc_batch.compaction_ratio",
            self.stats.compaction_ratio(),
            "ratio",
        );
        report.metric("dc_batch.flush_ns_p50", self.flush_ns_p50, "ns");
        report.metric(
            "dc_batch.ops_per_drain",
            ratio(self.adapter_ops as f64, self.stats.batches as f64),
            "ops",
        );
        report.metric(
            "dc_durable.commits_per_client_batch",
            ratio(self.bulk_commits as f64, self.client_batches as f64),
            "ratio",
        );
        report.metric("dc_durable.checkpoints", self.checkpoints, "count");
        report.metric(
            "dc_durable.checkpoint_write_ns_p50",
            self.checkpoint_write_ns_p50,
            "ns",
        );
    }
}

/// What persisting an in-memory workload's final graph cost.
pub struct Persisted {
    pub ack: Hist,
    pub batches: u64,
    pub failed_batches: u64,
    pub rejected_adds: u64,
    pub disk_bytes: u64,
    pub checkpoint_bytes: u64,
    pub layers: ServiceLayers,
    pub recovery: Recovery,
    /// The loaded store's answers to the probes, before it was closed.
    pub loaded: Checker,
}

/// Loads `edges` into a fresh store in `dir` in `batches` `apply_batch`
/// calls; returns the store, the ack times and the failed calls.
fn load(
    dir: &Path,
    n: usize,
    edges: &[(u32, u32)],
    batches: usize,
) -> Result<(DurableConnectivity, Hist, u64), String> {
    let store = DurableConnectivity::create(dir, n, service_options())
        .map_err(|e| format!("create: {e}"))?;
    let mut ack = Hist::default();
    let mut failed_batches = 0;
    let mut ops = Vec::new();
    for chunk in edges.chunks(edges.len().div_ceil(batches)) {
        ops.clear();
        ops.extend(chunk.iter().map(|&(u, v)| BatchOp::Add(u, v)));
        let t0 = Instant::now();
        let result = store.engine().try_apply_batch(&ops);
        ack.record(t0.elapsed().as_nanos() as u64);
        if result.is_err() {
            failed_batches += 1;
        }
    }
    Ok((store, ack, failed_batches))
}

/// Loads `edges` into a fresh store (see [`load`]), checks it through the
/// adapter door, closes it, and recovers it (see [`recover`]). A first,
/// untimed load into another directory goes before: without it the timed
/// load's acks depended on what the allocator happened to hold from the
/// workload's dropped structure, and their p90 moved by 3x between runs.
pub fn persist_and_recover(
    n: usize,
    edges: &[(u32, u32)],
    batches: usize,
    work: &Path,
    recoveries: usize,
    probes: &[Probe],
    traced: bool,
) -> Result<Persisted, String> {
    let warm = work.join("persist-warm-up");
    drop(load(&warm, n, edges, batches)?);
    let _ = std::fs::remove_dir_all(&warm);
    let dir = work.join("persist");
    layers::set_recording(traced);
    let before = dc_batch::BatchStats {
        batches: 0,
        bulk_batches: 0,
        submitted_updates: 0,
        applied_updates: 0,
        submitted_queries: 0,
        coalesced_queries: 0,
        rejected_updates: 0,
    };
    let (store, ack, failed_batches) = load(&dir, n, edges, batches)?;
    let sent = edges.chunks(edges.len().div_ceil(batches)).count() as u64;
    // The loaded state is checked through the adapter (intake) door, so
    // that door is traced too.
    let loaded = check_probes(&store, "persisted", probes);
    let layers = ServiceLayers::read(&store, before, 0, probes.len() as u64, 0, sent);
    layers::set_recording(false);
    let rejected_adds = layers.stats.rejected_updates;
    drop(store);
    let (disk_bytes, checkpoint_bytes) =
        sys::dir_bytes(&dir, "ck-").map_err(|e| format!("store size: {e}"))?;
    let recovery = recover(&dir, recoveries, probes)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Persisted {
        ack,
        batches: sent,
        failed_batches,
        rejected_adds,
        disk_bytes,
        checkpoint_bytes,
        layers,
        recovery,
        loaded,
    })
}
