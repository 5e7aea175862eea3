//! SPICE-anchored calibration fitting over op-amp audits.
//!
//! The estimation side of the composition equations is cheap; the
//! simulator is the anchor. This module drives both over a workload of
//! op-amp specifications: APE sizes each spec (the *estimate*), the full
//! simulator audits the sized design through [`audit_candidate`] (the
//! *simulation*), and the per-metric est/sim ratios feed
//! [`ape_calib::fit`] to produce an `l3.opamp` correction table.
//!
//! Audits dominate the wall clock, so they fan out over the process-wide
//! [`ape_exec::Executor`]; samples are collected back in workload order,
//! which keeps the fitted table deterministic for a given technology and
//! workload regardless of worker count.

use crate::audit::audit_candidate;
use crate::error::OblxError;
use crate::vars::design_point_from_ape;
use ape_calib::{Calibration, Sample};
use ape_core::graph::with_graph;
use ape_core::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
use ape_core::Performance;
use ape_netlist::Technology;

/// Fractional slack used when auditing fit-workload designs. The fitter
/// only needs the measured numbers, not a pass/fail verdict, so the
/// tolerance is loose.
const FIT_AUDIT_TOL: f64 = 0.5;

/// The `±interval_frac` the paper uses around an APE seed when the
/// estimates are raw (`InitialPoint::ApeSeeded`).
pub const SEED_INTERVAL_RAW: f64 = 0.2;

/// Tighter seed interval justified once a calibration table anchors the
/// estimates to the simulator: corrected estimates land closer to the
/// audited optimum, so the search box can shrink.
pub const SEED_INTERVAL_CALIBRATED: f64 = 0.12;

/// Seed interval to use with [`InitialPoint::ApeSeeded`]
/// (±fraction around the APE sizing): the paper's ±20 % for raw
/// estimates, tightened to ±12 % when a non-empty calibration table is
/// installed for the estimator.
///
/// [`InitialPoint::ApeSeeded`]: crate::InitialPoint::ApeSeeded
#[must_use]
pub fn seed_interval_frac(cal: Option<&Calibration>) -> f64 {
    match cal {
        Some(c) if !c.is_empty() => SEED_INTERVAL_CALIBRATED,
        _ => SEED_INTERVAL_RAW,
    }
}

/// Collects est/sim samples for one audited op-amp: every metric the
/// audit actually measures, paired with the estimate APE composed.
fn opamp_samples(est: &Performance, sim: &Performance) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut push_opt = |metric: &str, e: Option<f64>, s: Option<f64>| {
        if let (Some(e), Some(s)) = (e, s) {
            out.push(Sample::new("l3.opamp", metric, e, s));
        }
    };
    push_opt("dc_gain", est.dc_gain, sim.dc_gain);
    push_opt("ugf_hz", est.ugf_hz, sim.ugf_hz);
    push_opt("bw_hz", est.bw_hz, sim.bw_hz);
    out.push(Sample::new("l3.opamp", "power_w", est.power_w, sim.power_w));
    out
}

/// Fits an `l3.opamp` calibration table for `tech` from a workload of
/// op-amp specifications.
///
/// Each spec is sized by APE *uncalibrated* (in a graph that names no
/// table, so fitting is independent of whatever table the thread has
/// installed), audited with the full simulator, and the pooled est/sim
/// ratios per metric are fitted with the minimax constant-factor rule of
/// [`ape_calib::fit`]. Specs whose sizing or audit fails are skipped —
/// the paper's "doesn't work" rows carry no anchor information.
///
/// # Errors
///
/// * [`OblxError::AuditFailed`] when *every* workload entry fails to
///   size or audit — an empty sample pool fits nothing.
/// * [`OblxError::Cancelled`] when the thread-current cancellation token
///   fires mid-workload.
pub fn fit_opamp_calibration(
    tech: &Technology,
    workload: &[(OpAmpTopology, OpAmpSpec)],
    label: &str,
) -> Result<Calibration, OblxError> {
    let _span = ape_probe::span("oblx.calibrate.fit");
    // Fit from raw estimates: corrections compose multiplicatively, so
    // fitting on top of an installed table would double-apply. Size the
    // whole workload first — designs fan out over the executor.
    let designs = with_graph(tech, None, None, |g| {
        OpAmp::design_many_in(ape_exec::Executor::global(), g, workload)
    });
    // Audit the successful sizings. `audit_candidate` checks the
    // cancellation token itself; a cancelled slot aborts the fit.
    let mut samples: Vec<Sample> = Vec::new();
    for (slot, design) in workload.iter().zip(designs) {
        let Ok(amp) = design else { continue };
        let point = design_point_from_ape(tech, &amp);
        match audit_candidate(tech, slot.0, &slot.1, &point, FIT_AUDIT_TOL) {
            Ok(report) => samples.extend(opamp_samples(&amp.perf, &report.measured)),
            Err(OblxError::Cancelled) => return Err(OblxError::Cancelled),
            Err(_) => {} // "doesn't work" row: no anchor
        }
    }
    if samples.is_empty() {
        return Err(OblxError::AuditFailed(
            "calibration fit: no workload entry produced an audited design".into(),
        ));
    }
    ape_calib::fit(tech.fingerprint(), label, &samples)
        .map_err(|e| OblxError::AuditFailed(format!("calibration fit: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_core::basic::MirrorTopology;

    fn workload() -> Vec<(OpAmpTopology, OpAmpSpec)> {
        let topo = OpAmpTopology::miller(MirrorTopology::Simple, false);
        [(200.0, 5e6, 10e-6), (400.0, 2e6, 5e-6)]
            .into_iter()
            .map(|(gain, ugf_hz, ibias)| {
                (
                    topo,
                    OpAmpSpec {
                        gain,
                        ugf_hz,
                        area_max_m2: 5000e-12,
                        ibias,
                        zout_ohm: None,
                        cl: 10e-12,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn fit_is_deterministic_and_tightens_the_workload() {
        let tech = Technology::default_1p2um();
        let cal = fit_opamp_calibration(&tech, &workload(), "test-fit").unwrap();
        let again = fit_opamp_calibration(&tech, &workload(), "test-fit").unwrap();
        assert_eq!(
            cal.fingerprint(),
            again.fingerprint(),
            "fit must be deterministic"
        );
        assert_eq!(cal.technology_fingerprint(), tech.fingerprint());
        // The audited workload disagrees with the raw estimates by more
        // than nothing, so at least one correction must have been fitted.
        assert!(!cal.is_empty(), "expected at least one fitted correction");
        // Fitted corrections never target the excluded metrics.
        for (_, metric, _) in cal.iter() {
            assert!(!ape_calib::FIT_EXCLUDED_METRICS.contains(&metric));
        }
    }

    #[test]
    fn empty_workload_is_a_typed_error() {
        let tech = Technology::default_1p2um();
        let err = fit_opamp_calibration(&tech, &[], "empty").unwrap_err();
        assert!(matches!(err, OblxError::AuditFailed(_)));
    }

    #[test]
    fn seed_interval_tightens_only_with_a_real_table() {
        assert_eq!(seed_interval_frac(None), SEED_INTERVAL_RAW);
        let id = Calibration::identity(1, "id");
        assert_eq!(seed_interval_frac(Some(&id)), SEED_INTERVAL_RAW);
        let mut cal = Calibration::identity(1, "t");
        cal.set("l3.opamp", "dc_gain", 0.9, &[]).unwrap();
        assert_eq!(seed_interval_frac(Some(&cal)), SEED_INTERVAL_CALIBRATED);
    }
}
