//! Host-time benchmark of record for the HyScale simulator.
//!
//! End-to-end numbers time the driver from outside (`SimulationDriver`
//! runs and `runner::sweep`); per-layer numbers come from the traced
//! driver's journal and report counters and from a layer replay that
//! wraps each public layer call in a span. See `METRICS.md`.

#![forbid(unsafe_code)]

pub mod bench;
pub mod digest;
pub mod host;
pub mod measure;
pub mod metrics;
pub mod replay;
pub mod workload;
