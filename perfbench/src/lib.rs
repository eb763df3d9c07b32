//! # ciao-perfbench — the CIAO simulator's performance benchmark
//!
//! Drives the simulator through its public API on four workloads, checks
//! every output, and reports end-to-end metrics (untraced) or a per-layer
//! split measured by timing wrappers around the public trait objects each
//! layer is reached through (traced). See `README.md` for the workloads,
//! the metrics and how to run it.

pub mod check;
pub mod hostclock;
pub mod layers;
pub mod probe;
pub mod workload;
