//! End-to-end and per-layer benchmark of the hlsb workspace.
//!
//! Three workloads, each generated from a seed: `paper-cold` (Table 1's
//! flows), `farm-mixed` (a job stream through the compile farm) and
//! `explore-campaign` (Fmax searches and a DSE run). An untraced run
//! prints the end-to-end metrics; a traced run prints the per-layer
//! metrics and writes the benchmark's spans. See `NOTES.md`.

pub mod campaign;
pub mod farm;
pub mod hostspeed;
pub mod layers;
pub mod metrics;
pub mod paper;
pub mod stats;
pub mod workload;
