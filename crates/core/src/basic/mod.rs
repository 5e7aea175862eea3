//! Level 2 of the APE hierarchy: the basic analog component library.
//!
//! Paper §4.2: *"A library of basic components is the next level in the APE.
//! Some of these components are DC-bias voltages, current sources, gain
//! amplifiers, output buffers, differential amplifiers and
//! differential-to-single-ended converters."*
//!
//! Every component follows the same pattern:
//!
//! 1. a `design` constructor solves the component's symbolic equations for
//!    the transistor-level constraints, then calls the level-1 sizing
//!    solvers in `ape-mos`;
//! 2. the sized object carries its devices and a [`Performance`](crate::attrs::Performance)
//!    attribute sheet composed from their small-signal parameters;
//! 3. `testbench()` emits a self-contained SPICE-ready `Circuit` whose
//!    conventions (`VDD` rail element, `out` node, `VIN` AC drive) the
//!    verification harness relies on.

mod bias;
mod diffpair;
mod follower;
mod gain;
mod mirror;

pub use bias::DcVolt;
pub(crate) use diffpair::DiffPairNode;
pub use diffpair::{DiffPair, DiffTopology};
pub use follower::Follower;
pub use gain::{GainStage, GainTopology};
pub use mirror::{CurrentMirror, MirrorTopology};

use crate::error::ApeError;
use ape_netlist::{MosModelCard, Technology};

/// Default analog channel length for bias devices, metres.
pub(crate) const L_BIAS: f64 = 2.4e-6;
/// Default overdrive for mirror/bias devices, volts.
pub(crate) const VOV_MIRROR: f64 = 0.35;
/// Subthreshold slope factor used in feasibility checks.
pub(crate) const N_SUB: f64 = 1.45;

/// The NMOS/PMOS card pair of a CMOS technology.
pub(crate) struct Cards<'a> {
    pub n: &'a MosModelCard,
    pub p: &'a MosModelCard,
}

/// Fetches both cards or reports which is missing.
pub(crate) fn cards(tech: &Technology) -> Result<Cards<'_>, ApeError> {
    Ok(Cards {
        n: tech.nmos().ok_or(ApeError::MissingModel("NMOS"))?,
        p: tech.pmos().ok_or(ApeError::MissingModel("PMOS"))?,
    })
}

/// Largest transconductance a MOSFET can deliver at drain current `id`
/// (weak-inversion limit `gm ≤ Id/(n·VT)`).
pub(crate) fn gm_max(id: f64) -> f64 {
    id / (N_SUB * ape_mos::VT_THERMAL)
}

/// Picks the overdrive that yields `gm` at `id`, checking feasibility
/// against the weak-inversion limit.
///
/// Returns the strong-inversion value `2·id/gm`, clamped away from deep
/// weak inversion so the closed-form seed stays in the solver's domain.
pub(crate) fn vov_for_gm_id(component: &'static str, gm: f64, id: f64) -> Result<f64, ApeError> {
    if gm > 0.92 * gm_max(id) {
        return Err(ApeError::Infeasible {
            component,
            message: format!(
                "needs gm = {gm:.3e} S at Id = {id:.3e} A, above the weak-inversion \
                 limit {:.3e} S; raise the bias current",
                gm_max(id)
            ),
        });
    }
    Ok((2.0 * id / gm).clamp(0.04, 3.0))
}

/// Channel length whose effective channel-length modulation supports a
/// single-stage gain of `a` at overdrive `vov`:
/// `A = gm/(gds_n+gds_p) = 2/(vov·(λn+λp)_eff)` with `λ_eff = λ·Lref/L`.
pub(crate) fn length_for_gain(a: f64, vov: f64, lam_sum: f64, tech: &Technology) -> f64 {
    let l = 0.5 * a.abs() * vov * lam_sum * ape_mos::LAMBDA_REF_LENGTH;
    l.clamp(tech.lmin, 40e-6)
}

/// Stretches a candidate channel length so the width implied by the aspect
/// ratio `w_over_l` stays at or above the technology minimum width
/// (capped at 60 µm — beyond that the sub-minimum width is accepted).
///
/// Low-current, low-gm devices otherwise solve to unrealisable widths of a
/// few tens of nanometres; lengthening the channel keeps the same electrical
/// point with manufacturable geometry.
pub(crate) fn length_for_min_width(w_over_l: f64, l_floor: f64, tech: &Technology) -> f64 {
    if !(w_over_l.is_finite() && w_over_l > 0.0) {
        return l_floor;
    }
    let l_needed = tech.wmin / w_over_l;
    l_floor.max(l_needed.min(60e-6))
}

/// Square-law aspect ratio implied by hitting `gm` at `id`.
pub(crate) fn aspect_for_gm_id(card: &MosModelCard, gm: f64, id: f64) -> f64 {
    gm * gm / (2.0 * card.kp * id)
}

/// Square-law aspect ratio implied by carrying `id` at overdrive `vov`.
pub(crate) fn aspect_for_id_vov(card: &MosModelCard, id: f64, vov: f64) -> f64 {
    2.0 * id / (card.kp * vov * vov)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gm_max_is_weak_inversion_limit() {
        // 1 µA → ≈ 26.7 µS at n = 1.45.
        let g = gm_max(1e-6);
        assert!((g - 26.7e-6).abs() / 26.7e-6 < 0.02, "gm_max {g}");
    }

    #[test]
    fn infeasible_gm_reported() {
        let err = vov_for_gm_id("test", 1e-3, 1e-6).unwrap_err();
        assert!(matches!(err, ApeError::Infeasible { .. }));
        assert!(err.to_string().contains("weak-inversion"));
    }

    #[test]
    fn length_for_gain_scales_linearly() {
        let tech = Technology::default_1p2um();
        let l1 = length_for_gain(100.0, 0.2, 0.09, &tech);
        let l2 = length_for_gain(200.0, 0.2, 0.09, &tech);
        assert!((l2 / l1 - 2.0).abs() < 1e-9);
        // Clamped at technology minimum for tiny gains.
        assert_eq!(length_for_gain(1.0, 0.05, 0.09, &tech), tech.lmin);
    }
}
