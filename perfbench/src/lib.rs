//! Benchmark of the metaopt search loop: fixed-seed workloads run through
//! the crates' public functions, end-to-end metrics from untraced runs and
//! per-layer metrics from a traced run plus a one-call-at-a-time replay.
//! See `README.md` in this directory.

pub mod expected;
pub mod layers;
pub mod repeat;
pub mod report;
pub mod runner;
pub mod search;
pub mod stats;
pub mod timing;
pub mod workload;
