//! `apebench`: the end-to-end benchmark of the APE stack, with a
//! per-layer attribution ladder.
//!
//! Four workloads exercise the daemon (closed and open loop), batch
//! sweeps and APE-seeded synthesis. An untraced run reports the
//! end-to-end metrics of one workload; a traced run replays a sample of
//! the same window's inputs through every layer boundary and reports the
//! per-layer metrics. [`table`] holds the one list of workloads and
//! metrics that `BENCHMARK.json` mirrors.

pub mod gen;
pub mod ladder;
pub mod run;
pub mod stats;
pub mod sweep;
pub mod synth;
pub mod table;
pub mod trace;
pub mod wire;
