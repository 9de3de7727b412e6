//! The three workloads. See `perfbench/README.md` for their make-up and
//! why each was chosen.

pub mod churn;
pub mod inmem;
pub mod read_mostly;
pub mod service;

pub const NAMES: [&str; 3] = ["read-mostly", "partitioned-churn", "durable-service"];
