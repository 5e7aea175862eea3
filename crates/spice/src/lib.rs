//! An MNA circuit simulator for the APE reproduction.
//!
//! The paper verifies every APE estimate against SPICE; this crate is the
//! stand-in verifier. It provides three analyses over the
//! [`Circuit`](ape_netlist::Circuit)/[`Technology`](ape_netlist::Technology)
//! representation:
//!
//! * [`dc_operating_point`] — nonlinear DC via Newton-Raphson: direct
//!   Newton first, then the gmin ladder, source stepping and
//!   pseudo-transient continuation as fallbacks;
//! * [`ac_sweep`] — small-signal complex-phasor analysis linearised at an
//!   operating point;
//! * [`transient`] — trapezoidal time-domain integration.
//!
//! plus the [`measure`] module, which turns raw sweeps into the performance
//! numbers the paper tabulates (gain, UGF, bandwidth, phase margin, slew
//! rate, delay, settling).
//!
//! # Example
//!
//! Gain of a resistively-loaded common-source stage:
//!
//! ```
//! use ape_netlist::{Circuit, Technology, MosPolarity, MosGeometry, SourceWaveform};
//! use ape_spice::{dc_operating_point, ac_sweep};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tech = Technology::default_1p2um();
//! let mut ckt = Circuit::new("cs-amp");
//! let vdd = ckt.node("vdd");
//! let gate = ckt.node("g");
//! let drain = ckt.node("d");
//! ckt.add_vdc("VDD", vdd, Circuit::GROUND, 5.0);
//! ckt.add_vsource("VG", gate, Circuit::GROUND, 1.2, 1.0, SourceWaveform::Dc)?;
//! ckt.add_resistor("RD", vdd, drain, 50e3)?;
//! ckt.add_mosfet("M1", drain, gate, Circuit::GROUND, Circuit::GROUND,
//!                MosPolarity::Nmos, "CMOSN", MosGeometry::new(10e-6, 2.4e-6))?;
//! let op = dc_operating_point(&ckt, &tech)?;
//! let sweep = ac_sweep(&ckt, &tech, &op, &[100.0])?;
//! let gain = sweep.voltage(0, drain).norm();
//! assert!(gain > 1.0);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ac;
mod complex;
mod dc;
mod engine;
mod error;
pub mod linalg;
mod linearize;
pub mod measure;
mod mna;
pub mod sparse;
pub mod stamp;
mod sweep;
mod tran;

pub use ac::{ac_sweep, ac_sweep_on, ac_sweep_with, decade_frequencies, AcOptions, AcSweep};
pub use complex::Complex;
pub use dc::{
    dc_operating_point, dc_operating_point_from, dc_operating_point_with, DcOptions, MosOp,
    OperatingPoint,
};
pub use error::SpiceError;
pub use linearize::{linearize, LinearizedSystem};
pub use mna::Unknowns;
pub use sparse::{alloc_events, reset_symbolic_cache, Backend};
pub use sweep::{dc_sweep, dc_sweep_with, DcSweep};
pub use tran::{transient, TranOptions, Transient};
