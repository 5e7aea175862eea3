//! An ASTRX/OBLX-style optimisation-based analog circuit synthesis engine.
//!
//! The paper evaluates APE by feeding its sizings into ASTRX/OBLX, the
//! CMU synthesis system whose engine is "based on a simulated annealing
//! search algorithm" with candidate evaluation by AWE (paper §3). That
//! system is not distributable, so this crate rebuilds its behavioural
//! core:
//!
//! * a fixed two-stage op-amp **template** whose transistor sizes and
//!   compensation capacitor are the unknowns ([`variables`]);
//! * user-supplied **intervals** on the unknowns — decade-wide when blind,
//!   ±20 % around an APE sizing when seeded ([`InitialPoint`]);
//! * a **cost function** compiled from the specifications with
//!   relative-shortfall penalties and area/power objectives squashed
//!   below the stop target ([`cost::cost`], [`cost::TARGET_COST`]), so a
//!   search stops on the first candidate that meets every spec;
//! * **simulated annealing** over the interval box (`ape_solve::SaSolver`,
//!   the default of the `ape-solve` engines [`synthesize`] can run), each
//!   move evaluated with a DC solve plus an **AWE reduced model**
//!   (`ape-awe`) rather than a full sweep;
//! * a final **audit** with the full simulator (`ape-spice`), reproducing
//!   the "simulate the sized circuit" columns of Tables 1 and 4.
//!
//! # Example
//!
//! Seeded synthesis from an APE sizing (the paper's Table 4 flow):
//!
//! ```no_run
//! use ape_netlist::Technology;
//! use ape_core::basic::MirrorTopology;
//! use ape_core::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
//! use ape_oblx::{synthesize, design_point_from_ape, InitialPoint, SynthesisOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tech = Technology::default_1p2um();
//! let topo = OpAmpTopology::miller(MirrorTopology::Simple, false);
//! let spec = OpAmpSpec {
//!     gain: 200.0, ugf_hz: 5e6, area_max_m2: 5000e-12,
//!     ibias: 10e-6, zout_ohm: None, cl: 10e-12,
//! };
//! let ape = OpAmp::design(&tech, topo, spec)?;           // APE front-end
//! let init = InitialPoint::ApeSeeded {
//!     point: design_point_from_ape(&tech, &ape),
//!     interval_frac: 0.2,                                 // paper's ±20 %
//! };
//! let outcome = synthesize(&tech, topo, &spec, &init, &SynthesisOptions::default())?;
//! assert!(outcome.meets_spec());
//! # Ok(())
//! # }
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
pub mod calibrate;
pub mod cost;
mod error;
mod eval;
mod synth;
mod template;
mod vars;

pub use audit::{audit_candidate, AuditFailure, AuditReport};
pub use calibrate::{fit_opamp_calibration, seed_interval_frac};
pub use cost::{satisfies, CostWeights};
pub use error::OblxError;
pub use eval::{evaluate_candidate, evaluate_candidate_with, CandidateEval, EvalFidelity};
pub use synth::{
    synthesize, synthesize_portfolio, InitialPoint, MemberSummary, PortfolioOutcome, SolverChoice,
    SynthesisOptions, SynthesisOutcome,
};
pub use template::{build_candidate, candidate_area};
pub use vars::{
    apply_point_to_opamp, blind_center, blind_ranges, design_point_from_ape, seeded_ranges,
    variables, DesignPoint, VarDef,
};
