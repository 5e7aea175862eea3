//! Single-ended gain stages: `GainNMOS`, `GainCMOS`, `GainCMOSH`.
//!
//! Three inverting common-source amplifiers distinguished by their load:
//!
//! * [`GainTopology::NmosLoad`] — NMOS diode (enhancement) load:
//!   `A = −gm1/(gm2+gmb2)`; low gain, wide bandwidth.
//! * [`GainTopology::CmosActive`] — PMOS current-source load:
//!   `A = −gm1/(gds1+gds2)`; the high-gain choice.
//! * [`GainTopology::CmosDiode`] — PMOS diode load ("GainCMOSH"):
//!   `A = −gm1/gm2`; no body effect on the load, lowest power headroom.

use super::{cards, length_for_gain, vov_for_gm_id, L_BIAS, VOV_MIRROR};
use crate::attrs::Performance;
use crate::error::ApeError;
use crate::graph::{with_thread_graph, Component, EstimationGraph};
use ape_mos::fingerprint::Fingerprint;
use ape_mos::sizing::{threshold, SizedMos};
use ape_netlist::{Circuit, MosPolarity, SourceWaveform, Technology};

/// Load topology of a common-source gain stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GainTopology {
    /// NMOS diode load (`GainNMOS`).
    NmosLoad,
    /// PMOS current-source load (`GainCMOS`).
    CmosActive,
    /// PMOS diode load (`GainCMOSH`).
    CmosDiode,
}

impl GainTopology {
    /// Stable one-byte tag for estimation-graph fingerprints.
    pub(crate) fn fingerprint_tag(&self) -> u8 {
        match self {
            GainTopology::NmosLoad => 0,
            GainTopology::CmosActive => 1,
            GainTopology::CmosDiode => 2,
        }
    }
}

/// Estimation-graph node for a [`GainStage`] design.
#[derive(Debug, Clone, Copy)]
struct GainNode {
    topology: GainTopology,
    gain: f64,
    ibias: f64,
    cl: f64,
}

impl Component for GainNode {
    type Output = GainStage;

    fn kind(&self) -> &'static str {
        "l2.gain"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .u8(self.topology.fingerprint_tag())
            .f64(self.gain)
            .f64(self.ibias)
            .f64(self.cl)
            .finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l1.gm_id", "l1.id_vov"]
    }

    fn calibrate(&self, out: &mut GainStage, cal: &ape_calib::Calibration) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l2.gain",
            &[
                crate::calibrate::ln_or_zero(self.gain.abs()),
                crate::calibrate::ln_or_zero(self.ibias),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<GainStage, ApeError> {
        GainStage::design_uncached(graph, self.topology, self.gain, self.ibias, self.cl)
    }
}

impl std::fmt::Display for GainTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GainTopology::NmosLoad => write!(f, "GainNMOS"),
            GainTopology::CmosActive => write!(f, "GainCMOS"),
            GainTopology::CmosDiode => write!(f, "GainCMOSH"),
        }
    }
}

/// A sized common-source gain stage.
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::basic::{GainStage, GainTopology};
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let stage = GainStage::design(&tech, GainTopology::CmosActive, -19.0, 120e-6, 1e-12)?;
/// let a = stage.perf.dc_gain.unwrap();
/// assert!(a < -15.0 && a > -25.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GainStage {
    /// Load topology.
    pub topology: GainTopology,
    /// Requested voltage gain (negative, inverting).
    pub gain: f64,
    /// Stage bias current, amperes.
    pub ibias: f64,
    /// Load capacitance the stage drives, farads.
    pub cl: f64,
    /// Common-source driver device.
    pub driver: SizedMos,
    /// Load device.
    pub load: SizedMos,
    /// Input DC bias voltage applied to the driver gate, volts.
    pub vin_bias: f64,
    /// Gate bias for a current-source load, volts (`None` for diode loads).
    pub vload_bias: Option<f64>,
    /// Composed performance attributes.
    pub perf: Performance,
}

impl GainStage {
    /// Sizes a gain stage for voltage gain `gain` (negative) at bias
    /// current `ibias`, driving `cl`.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for non-negative gain or non-positive bias.
    /// * [`ApeError::Infeasible`] when the gain requires more gm than the
    ///   bias current can deliver, or exceeds the topology's reach.
    pub fn design(
        tech: &Technology,
        topology: GainTopology,
        gain: f64,
        ibias: f64,
        cl: f64,
    ) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| {
            g.evaluate(&GainNode {
                topology,
                gain,
                ibias,
                cl,
            })
        })
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(
        graph: &EstimationGraph,
        topology: GainTopology,
        gain: f64,
        ibias: f64,
        cl: f64,
    ) -> Result<Self, ApeError> {
        let tech = graph.technology();
        let c = cards(tech)?;
        if gain >= -1.0 {
            return Err(ApeError::BadSpec {
                param: "gain",
                message: format!("common-source stages invert; need gain < -1, got {gain}"),
            });
        }
        if !(ibias.is_finite() && ibias > 0.0) {
            return Err(ApeError::BadSpec {
                param: "ibias",
                message: format!("must be positive, got {ibias}"),
            });
        }
        let a = gain.abs();
        let vout_q = tech.vdd / 2.0;

        let (driver, load, vin_bias, vload_bias, a_est) = match topology {
            GainTopology::NmosLoad => {
                // Load diode NMOS from VDD: vgs2 = vdd − vout_q, body effect
                // at the output node.
                let vth2 = threshold(c.n, vout_q);
                let vov2 = tech.vdd - vout_q - vth2;
                if vov2 < 0.05 {
                    return Err(ApeError::Infeasible {
                        component: "GainNMOS",
                        message: "no load headroom at mid-rail output".into(),
                    });
                }
                let load =
                    graph.size_id_vov(false, ibias, vov2, L_BIAS, tech.vdd - vout_q, vout_q)?;
                // Gain −gm1/(gm2+gmb2).
                let gm1 = a * (load.gm + load.gmb);
                vov_for_gm_id("GainNMOS", gm1, ibias)?;
                let driver = graph.size_gm_id(false, gm1, ibias, L_BIAS, vout_q, 0.0)?;
                let a_est = driver.gm / (load.gm + load.gmb + driver.gds + load.gds);
                (driver, load, driver.vgs, None, a_est)
            }
            GainTopology::CmosActive => {
                // Gain −gm1/(gds1+gds2): choose (vov1, L) to meet it.
                let vov1 = (2.0 / (a * (c.n.lambda + c.p.lambda))).clamp(0.08, 1.5);
                let gm1 = 2.0 * ibias / vov1;
                vov_for_gm_id("GainCMOS", gm1, ibias)?;
                let lam_sum = c.n.lambda + c.p.lambda;
                let l = length_for_gain(a, 2.0 * ibias / gm1, lam_sum, tech);
                let driver = graph.size_gm_id(false, gm1, ibias, l, vout_q, 0.0)?;
                let load = graph.size_id_vov(true, ibias, VOV_MIRROR, l, tech.vdd - vout_q, 0.0)?;
                let a_est = driver.gm / (driver.gds + load.gds);
                // PMOS gate bias for the requested current.
                let vth_p = threshold(c.p, 0.0);
                let vload = tech.vdd - vth_p - VOV_MIRROR;
                (driver, load, driver.vgs, Some(vload), a_est)
            }
            GainTopology::CmosDiode => {
                // Load diode PMOS: gain −gm1/gm2, no body effect.
                let vov2 = VOV_MIRROR
                    .max(tech.vdd - vout_q - threshold(c.p, 0.0))
                    .min(1.5);
                let load = graph.size_id_vov(true, ibias, vov2, L_BIAS, tech.vdd - vout_q, 0.0)?;
                let gm1 = a * load.gm;
                vov_for_gm_id("GainCMOSH", gm1, ibias)?;
                let driver = graph.size_gm_id(false, gm1, ibias, L_BIAS, vout_q, 0.0)?;
                let a_est = driver.gm / (load.gm + driver.gds + load.gds);
                (driver, load, driver.vgs, None, a_est)
            }
        };

        // Output pole sets both bandwidth and (for A·f3db) the UGF.
        let c_par = driver.caps.cdb + load.caps.cdb + load.caps.cgd + driver.caps.cgd;
        let c_tot = cl + c_par;
        let gout = match topology {
            GainTopology::NmosLoad => load.gm + load.gmb + driver.gds + load.gds,
            GainTopology::CmosActive => driver.gds + load.gds,
            GainTopology::CmosDiode => load.gm + driver.gds + load.gds,
        };
        let f3db = gout / (2.0 * std::f64::consts::PI * c_tot);
        let ugf = driver.gm / (2.0 * std::f64::consts::PI * c_tot);
        let perf = Performance {
            dc_gain: Some(-a_est),
            ugf_hz: Some(ugf),
            bw_hz: Some(f3db),
            power_w: tech.vdd * ibias,
            gate_area_m2: driver.gate_area() + load.gate_area(),
            zout_ohm: Some(1.0 / gout),
            ibias_a: Some(ibias),
            slew_v_per_s: Some(ibias / c_tot),
            ..Performance::default()
        };
        Ok(GainStage {
            topology,
            gain,
            ibias,
            cl,
            driver,
            load,
            vin_bias,
            vload_bias,
            perf,
        })
    }

    /// Emits a testbench: `VDD`, AC-driven input `VIN`, the stage, and the
    /// load capacitor on node `out`.
    ///
    /// # Errors
    ///
    /// Returns an error if the stage is internally inconsistent (e.g. an
    /// active load without a bias voltage) or a template card is rejected.
    pub fn testbench(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new(&format!("{}-tb", self.topology));
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        ckt.add_vsource(
            "VIN",
            vin,
            Circuit::GROUND,
            self.vin_bias,
            1.0,
            SourceWaveform::Dc,
        )?;
        let n_name = tech.nmos().map(|c| c.name.clone()).unwrap_or_default();
        let p_name = tech.pmos().map(|c| c.name.clone()).unwrap_or_default();
        ckt.add_mosfet(
            "MDRV",
            out,
            vin,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            &n_name,
            self.driver.geometry,
        )?;
        match self.topology {
            GainTopology::NmosLoad => {
                ckt.add_mosfet(
                    "MLOAD",
                    vdd,
                    vdd,
                    out,
                    Circuit::GROUND,
                    MosPolarity::Nmos,
                    &n_name,
                    self.load.geometry,
                )?;
            }
            GainTopology::CmosActive => {
                let vb = ckt.node("pbias");
                let vload_bias = self.vload_bias.ok_or_else(|| ApeError::Infeasible {
                    component: "gain-stage",
                    message: "active load has no bias voltage".to_string(),
                })?;
                ckt.add_vdc("VB", vb, Circuit::GROUND, vload_bias)?;
                ckt.add_mosfet(
                    "MLOAD",
                    out,
                    vb,
                    vdd,
                    vdd,
                    MosPolarity::Pmos,
                    &p_name,
                    self.load.geometry,
                )?;
            }
            GainTopology::CmosDiode => {
                ckt.add_mosfet(
                    "MLOAD",
                    out,
                    out,
                    vdd,
                    vdd,
                    MosPolarity::Pmos,
                    &p_name,
                    self.load.geometry,
                )?;
            }
        }
        if self.cl > 0.0 {
            ckt.add_capacitor("CL", out, Circuit::GROUND, self.cl)?;
        }
        Ok(ckt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_spice::{ac_sweep, dc_operating_point, decade_frequencies, measure};

    fn sim_gain(stage: &GainStage, tech: &Technology) -> (f64, f64) {
        let tb = stage.testbench(tech).unwrap();
        let op = dc_operating_point(&tb, tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let freqs = decade_frequencies(10.0, 1e9, 10).unwrap();
        let sweep = ac_sweep(&tb, tech, &op, &freqs).unwrap();
        let a = measure::dc_gain(&sweep, out).unwrap();
        let u = measure::unity_gain_frequency(&sweep, out).unwrap_or(0.0);
        (a, u)
    }

    #[test]
    fn gain_nmos_est_vs_sim() {
        let tech = Technology::default_1p2um();
        let stage = GainStage::design(&tech, GainTopology::NmosLoad, -8.5, 120e-6, 1e-12).unwrap();
        let (a_sim, _) = sim_gain(&stage, &tech);
        let a_est = stage.perf.dc_gain.unwrap().abs();
        assert!(
            (a_sim - a_est).abs() / a_est < 0.3,
            "sim {a_sim} vs est {a_est}"
        );
        assert!((a_est - 8.5).abs() / 8.5 < 0.25, "est {a_est} vs spec 8.5");
    }

    #[test]
    fn gain_cmos_est_vs_sim() {
        let tech = Technology::default_1p2um();
        let stage =
            GainStage::design(&tech, GainTopology::CmosActive, -19.0, 120e-6, 1e-12).unwrap();
        let (a_sim, u_sim) = sim_gain(&stage, &tech);
        let a_est = stage.perf.dc_gain.unwrap().abs();
        assert!(
            (a_sim - a_est).abs() / a_est < 0.5,
            "sim {a_sim} vs est {a_est}"
        );
        let u_est = stage.perf.ugf_hz.unwrap();
        assert!(
            (u_sim - u_est).abs() / u_est < 0.5,
            "ugf sim {u_sim} vs est {u_est}"
        );
    }

    #[test]
    fn gain_cmosh_low_gain() {
        let tech = Technology::default_1p2um();
        let stage = GainStage::design(&tech, GainTopology::CmosDiode, -5.1, 46e-6, 1e-12).unwrap();
        let (a_sim, _) = sim_gain(&stage, &tech);
        assert!((a_sim - 5.1).abs() / 5.1 < 0.35, "sim gain {a_sim}");
    }

    #[test]
    fn bad_specs_rejected() {
        let tech = Technology::default_1p2um();
        assert!(GainStage::design(&tech, GainTopology::NmosLoad, 5.0, 1e-6, 0.0).is_err());
        assert!(GainStage::design(&tech, GainTopology::NmosLoad, -5.0, -1e-6, 0.0).is_err());
        // Gain beyond the weak-inversion gm limit at tiny current.
        assert!(GainStage::design(&tech, GainTopology::NmosLoad, -500.0, 1e-7, 0.0).is_err());
    }

    #[test]
    fn power_is_rail_times_bias() {
        let tech = Technology::default_1p2um();
        let stage =
            GainStage::design(&tech, GainTopology::CmosActive, -20.0, 100e-6, 1e-12).unwrap();
        assert!((stage.perf.power_w - 0.5e-3).abs() < 1e-9);
    }
}
