//! Asymptotic Waveform Evaluation (AWE).
//!
//! ASTRX/OBLX — the synthesis engine the paper seeds with APE estimates —
//! evaluates candidate circuits with AWE (Pillage & Rohrer, paper ref \[15\])
//! instead of full AC sweeps. This crate reproduces that substrate:
//!
//! 1. **Moments** of the transfer function are computed from the linearised
//!    system `(G + sC)·x = b` by repeated back-substitution:
//!    `G·x₀ = b`, `G·xₖ = −C·xₖ₋₁`, `mₖ = xₖ[out]`.
//! 2. A **Padé approximation** matches `2q` moments to a `q`-pole reduced
//!    model `H(s) ≈ Σ kᵢ/(s − pᵢ)`.
//! 3. The [`ReducedModel`] answers the questions synthesis asks — DC gain,
//!    dominant pole, −3 dB bandwidth, unity-gain frequency, step response —
//!    in microseconds instead of a full sweep.
//!
//! # Example
//!
//! Reduce an RC low-pass to one pole and compare with the exact answer:
//!
//! ```
//! use ape_netlist::{Circuit, Technology, SourceWaveform};
//! use ape_spice::{dc_operating_point, linearize};
//! use ape_awe::awe_transfer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ckt = Circuit::new("rc");
//! let i = ckt.node("in");
//! let o = ckt.node("out");
//! ckt.add_vsource("V1", i, Circuit::GROUND, 0.0, 1.0, SourceWaveform::Dc)?;
//! ckt.add_resistor("R1", i, o, 1e3)?;
//! ckt.add_capacitor("C1", o, Circuit::GROUND, 1e-9)?;
//! let tech = Technology::default_1p2um();
//! let op = dc_operating_point(&ckt, &tech)?;
//! let sys = linearize(&ckt, &tech, &op)?;
//! let model = awe_transfer(&sys, o, 1)?;
//! let f_pole = model.dominant_pole_hz().expect("one real pole");
//! let expect = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
//! assert!((f_pole - expect).abs() / expect < 1e-6);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod model;
mod moments;
mod pade;
mod poly;

pub use error::AweError;
pub use model::ReducedModel;
pub use moments::{moments, transfer_moments};
pub use pade::pade_reduce;
pub use poly::roots as polynomial_roots;

use ape_netlist::NodeId;
use ape_spice::LinearizedSystem;

/// One-call AWE: computes `2q` moments of the voltage at `output` and
/// reduces them to a `q`-pole model.
///
/// # Errors
///
/// * [`AweError::InvalidOrder`] for `q = 0` or `q > 8`.
/// * [`AweError::SingularSystem`] when the conductance matrix cannot be
///   factorised.
/// * [`AweError::DegenerateMoments`] when the Hankel system is singular
///   (the response has fewer than `q` observable poles) — retry with a
///   smaller `q`.
pub fn awe_transfer(
    sys: &LinearizedSystem,
    output: NodeId,
    q: usize,
) -> Result<ReducedModel, AweError> {
    let m = transfer_moments(sys, output, 2 * q)?;
    pade_reduce(&m, q)
}

/// AWE with automatic order fallback: tries `q`, then `q−1`, … down to 1,
/// returning the first order whose Hankel system is well conditioned and
/// whose model is stable.
///
/// # Errors
///
/// Same as [`awe_transfer`] when even `q = 1` fails.
pub fn awe_transfer_auto(
    sys: &LinearizedSystem,
    output: NodeId,
    q_max: usize,
) -> Result<ReducedModel, AweError> {
    let m = transfer_moments(sys, output, 2 * q_max.max(1))?;
    pade_reduce_auto(&m, q_max)
}

/// The order fallback of [`awe_transfer_auto`] on moments already in hand:
/// tries `q_max` (at least 1, at most `m.len() / 2`), then one order less,
/// down to 1, returning the first stable model. Lets a caller that needs
/// the moments anyway (m₀ is the DC gain) compute them once.
///
/// # Errors
///
/// The last order's [`AweError`] when even `q = 1` fails, or
/// [`AweError::InvalidOrder`] when `m` holds fewer than two moments.
pub fn pade_reduce_auto(m: &[f64], q_max: usize) -> Result<ReducedModel, AweError> {
    let mut last_err = None;
    for q in (1..=q_max.max(1).min(m.len() / 2)).rev() {
        match pade_reduce(&m[..2 * q], q) {
            Ok(model) if model.is_stable() => return Ok(model),
            Ok(_) => last_err = Some(AweError::UnstableModel { order: q }),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or(AweError::InvalidOrder { q: q_max }))
}
