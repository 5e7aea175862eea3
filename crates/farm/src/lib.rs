//! `ape-farm`: a concurrent batch-estimation and design-space-sweep engine
//! for the APE analog performance estimator.
//!
//! The estimator itself ([`ape_core`]) answers one question — "what does
//! this sized circuit do?" — in microseconds to milliseconds. Synthesis
//! front-ends want to ask that question thousands of times: topology
//! races, specification sweeps, seeding experiments. This crate turns the
//! single-shot estimator into a throughput engine:
//!
//! * a typed job model ([`Request`]/[`Response`]) covering op-amp design,
//!   netlist estimation, and full annealing synthesis;
//! * a [`Farm`] that hands each admitted job straight to the process-wide
//!   [`ape_exec`] executor. Admission is bounded
//!   ([`FarmConfig::queue_capacity`]) with blocking *and* fail-fast
//!   submission, so producers feel backpressure instead of growing an
//!   unbounded backlog. Jobs get per-job deadlines, cooperative
//!   cancellation (via [`ape_core::cancel`]), and panic isolation — a
//!   panicking job fails that job, not the farm;
//! * single-flight deduplication: identical requests that collide in
//!   flight are computed once. The farm keeps no finished results; repeats
//!   are answered by the estimation graph's bounded memos. By default
//!   ([`FarmConfig::shared_graph`]) that memo is one store the farm owns
//!   across all executor threads, emptied when the farm is dropped, so
//!   reuse across sweeps needs one resident farm;
//! * a sweep driver ([`SweepPlan`]) that expands a parameter grid into
//!   jobs, reduces the results to an area/power/gain-error Pareto front,
//!   and streams the lot as deterministic JSON Lines.
//!
//! Determinism is a design constraint, not an accident: sweeps produce
//! byte-identical output however the executor schedules them, because
//! every job is executed as a pure function of `(technology, request)` —
//! the estimation graph's bit-exact memo keys make a warm thread return
//! exactly what a cold one would, and a SPICE solve keeps nothing between
//! calls — and results are collected in grid order.
//!
//! Everything is built on `std` only — no external dependencies — and the
//! whole stack is instrumented with [`ape_probe`] spans, counters, and
//! gauges (`farm.*` names).

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flight;
pub mod job;
pub mod pool;
pub mod sweep;

pub use job::{canonical_key, FarmError, Request, Response};
pub use pool::{Farm, FarmConfig, FarmStats, JobHandle, SubmitOptions, MAX_REGISTERED};
pub use sweep::{SweepMetrics, SweepPlan, SweepPoint, SweepRecord, SweepReport};
