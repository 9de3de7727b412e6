//! One benchmark of the concurrent dynamic connectivity library: three
//! closed-loop workloads, every answer checked against an independent
//! oracle, end-to-end metrics from an untraced run and per-layer metrics
//! from a traced one.
//!
//! ```text
//! perfbench --workload <read-mostly|partitioned-churn|durable-service>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it carries the
//! provenance and the per-class operation accounting.

mod client;
mod durability;
mod hist;
mod layers;
mod oracle;
mod report;
mod rng;
mod sys;
mod workloads;

use report::{json_str, Report};
use std::fmt::Write;
use std::process::ExitCode;

/// The metrics a `--trace 0` run prints, as in `BENCHMARK.json`.
const END_TO_END: [&str; 11] = [
    "setup_s",
    "ops_per_s",
    "query_p50_us",
    "query_p99_us",
    "update_p50_us",
    "update_p99_us",
    "batch_ack_p50_us",
    "batch_ack_p90_us",
    "recover_s",
    "rss_bytes_per_edge",
    "disk_bytes_per_edge",
];

/// The metrics a `--trace 1` run prints, as in `BENCHMARK.json`.
const PER_LAYER: [&str; 29] = [
    "dynconn.connected_ns_p50",
    "dynconn.connected_ns_p99",
    "dynconn.add_link_ns_p50",
    "dynconn.add_cycle_ns_p50",
    "dynconn.remove_keep_ns_p50",
    "dynconn.remove_keep_ns_p99",
    "dynconn.remove_split_ns_p50",
    "dynconn.remove_split_ns_p99",
    "dynconn.non_spanning_removal_ratio",
    "dynconn.replacement_found_ratio",
    "dynconn.replacement_search_ns_p50",
    "dc_ett.hint_hit_ratio",
    "dc_ett.hint_invalidations_per_update",
    "dc_ett.treap_split_ns_p50",
    "dc_ett.treap_merge_ns_p50",
    "dc_ett.epoch_nodes_reclaimed",
    "dc_ett.arena_occupancy_per_edge",
    "dc_sync.lock_wait_share",
    "dc_sync.lock_wait_events",
    "dc_batch.compaction_ratio",
    "dc_batch.flush_ns_p50",
    "dc_batch.ops_per_drain",
    "dc_durable.commits_per_client_batch",
    "dc_durable.checkpoints",
    "dc_durable.checkpoint_write_ns_p50",
    "dc_durable.recover_batches_replayed",
    "dc_durable.checkpoint_bytes",
    "trace.overhead_ratio",
    "trace.span_coverage",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            workloads::NAMES
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    oracle::self_test()?;
    let mut report = Report::default();
    let work = sys::WorkDir::new(&args.workload).map_err(|e| format!("work dir: {e}"))?;
    match args.workload.as_str() {
        "read-mostly" => {
            let inputs = workloads::read_mostly::generate(args.seed)?;
            workloads::inmem::run(&inputs, args.seconds, args.trace, work.path(), &mut report)?;
        }
        "partitioned-churn" => {
            let inputs = workloads::churn::generate(args.seed)?;
            workloads::inmem::run(&inputs, args.seconds, args.trace, work.path(), &mut report)?;
        }
        _ => workloads::service::run(
            args.seed,
            args.seconds,
            args.trace,
            work.path(),
            &mut report,
        )?,
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, dir] = argv.as_slice() {
        if flag == "--recover" {
            return match durability::recover_once(std::path::Path::new(dir)) {
                Ok(seconds) => {
                    println!("{seconds}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, name) in wanted.iter().enumerate() {
        let found: Vec<_> = report.metrics.iter().filter(|m| m.0 == *name).collect();
        let [(_, value, unit)] = found.as_slice() else {
            eprintln!("perfbench: metric {name} reported {} times", found.len());
            return ExitCode::FAILURE;
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }

    let (rev, clean) = sys::git_provenance();
    let mut info = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \"clean_tree\": {}, \"nproc\": {}, \"cpu\": {}, \"fsync\": {}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        json_str(&rev),
        clean.map_or("null".into(), |c| c.to_string()),
        sys::nproc(),
        json_str(&sys::cpu_model()),
        json_str(durability::FSYNC_POLICY),
    );
    let _ = write!(info, ", \"ops\": {{");
    for (i, (class, attempted, failed)) in report.classes.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            info,
            "{sep}{}: {{\"attempted\": {attempted}, \"failed\": {failed}}}",
            json_str(class)
        );
    }
    let _ = write!(info, "}}");
    for (key, value) in &report.info {
        let _ = write!(info, ", {}: {}", json_str(key), json_str(value));
    }
    let _ = write!(info, ", \"problems\": [");
    for (i, p) in report.problems.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(info, "{sep}{}", json_str(p));
    }
    println!("{info}]}}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.problems.is_empty(),
        report.attempted(),
        report.failed(),
    );
    ExitCode::SUCCESS
}
