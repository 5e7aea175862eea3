//! Source follower / output buffer.
//!
//! The paper's `Follower` row (Table 2) and the optional output-buffer stage
//! of the op-amps (Table 1 `Buff` column). An NMOS source follower with an
//! NMOS mirror current sink: gain slightly below 1, low output impedance.

use super::{cards, L_BIAS, VOV_MIRROR};
use crate::attrs::Performance;
use crate::error::ApeError;
use crate::graph::{with_thread_graph, Component, EstimationGraph};
use ape_mos::fingerprint::Fingerprint;
use ape_mos::sizing::{threshold, SizedMos};
use ape_netlist::{Circuit, MosPolarity, SourceWaveform, Technology};

/// Estimation-graph node for a [`Follower`] design.
#[derive(Debug, Clone, Copy)]
struct FollowerNode {
    ibias: f64,
    cl: f64,
}

impl Component for FollowerNode {
    type Output = Follower;

    fn kind(&self) -> &'static str {
        "l2.follower"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new().f64(self.ibias).f64(self.cl).finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l1.id_vov"]
    }

    fn calibrate(&self, out: &mut Follower, cal: &ape_calib::Calibration) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l2.follower",
            &[
                crate::calibrate::ln_or_zero(self.ibias),
                crate::calibrate::ln_or_zero(self.cl),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<Follower, ApeError> {
        Follower::design_uncached(graph, self.ibias, self.cl)
    }
}

/// A sized source-follower buffer.
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::basic::Follower;
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let buf = Follower::design(&tech, 100e-6, 10e-12)?;
/// let a = buf.perf.dc_gain.unwrap();
/// assert!(a > 0.7 && a < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Follower {
    /// Bias current, amperes.
    pub ibias: f64,
    /// Load capacitance, farads.
    pub cl: f64,
    /// Follower device.
    pub driver: SizedMos,
    /// Mirror reference (diode) device.
    pub sink_ref: SizedMos,
    /// Mirror output (sink) device.
    pub sink_out: SizedMos,
    /// Quiescent output voltage, volts.
    pub vout_q: f64,
    /// Input DC bias, volts.
    pub vin_bias: f64,
    /// Composed performance attributes.
    pub perf: Performance,
}

impl Follower {
    /// Sizes the follower for bias current `ibias` driving `cl`, with the
    /// output quiescent point at 40 % of the rail.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for a non-positive bias current.
    /// * [`ApeError::Device`] when a device cannot be sized.
    pub fn design(tech: &Technology, ibias: f64, cl: f64) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| g.evaluate(&FollowerNode { ibias, cl }))
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(graph: &EstimationGraph, ibias: f64, cl: f64) -> Result<Self, ApeError> {
        let tech = graph.technology();
        let c = cards(tech)?;
        if !(ibias.is_finite() && ibias > 0.0) {
            return Err(ApeError::BadSpec {
                param: "ibias",
                message: format!("must be positive, got {ibias}"),
            });
        }
        let vout_q = 0.4 * tech.vdd;
        // Driver: moderate overdrive for gm (gain ≈ gm/(gm+gmb) wants gm
        // large, area wants it small; 0.25 V is the classic compromise).
        let vov1 = 0.25;
        let driver = graph.size_id_vov(false, ibias, vov1, L_BIAS, tech.vdd - vout_q, vout_q)?;
        let vin_bias = vout_q + threshold(c.n, vout_q) + vov1;
        // Mirror sink.
        let sink_ref = graph.size_id_vov(false, ibias, VOV_MIRROR, L_BIAS, 1.0, 0.0)?;
        let sink_out = graph.size_id_vov(false, ibias, VOV_MIRROR, L_BIAS, vout_q, 0.0)?;

        let gl = sink_out.gds;
        let a = driver.gm / (driver.gm + driver.gmb + driver.gds + gl);
        let zout = 1.0 / (driver.gm + driver.gmb + driver.gds + gl);
        let c_par = driver.caps.csb + sink_out.caps.cdb;
        let bw = 1.0 / (2.0 * std::f64::consts::PI * zout * (cl + c_par));
        let perf = Performance {
            dc_gain: Some(a),
            bw_hz: Some(bw),
            power_w: tech.vdd * 2.0 * ibias, // reference + output branches
            gate_area_m2: driver.gate_area() + sink_ref.gate_area() + sink_out.gate_area(),
            zout_ohm: Some(zout),
            ibias_a: Some(ibias),
            slew_v_per_s: Some(ibias / (cl + c_par).max(1e-18)),
            ..Performance::default()
        };
        Ok(Follower {
            ibias,
            cl,
            driver,
            sink_ref,
            sink_out,
            vout_q,
            vin_bias,
            perf,
        })
    }

    /// Emits a testbench: `VDD`, AC-driven `VIN`, follower + mirror sink,
    /// output node `out` loaded by `cl`.
    ///
    /// # Errors
    ///
    /// Returns an error if a template card is rejected by the netlist layer.
    pub fn testbench(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new("follower-tb");
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let bias = ckt.node("bias");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        ckt.add_vsource(
            "VIN",
            vin,
            Circuit::GROUND,
            self.vin_bias,
            1.0,
            SourceWaveform::Dc,
        )?;
        ckt.add_idc("IREF", vdd, bias, self.ibias)?;
        let n_name = tech.nmos().map(|c| c.name.clone()).unwrap_or_default();
        ckt.add_mosfet(
            "MDRV",
            vdd,
            vin,
            out,
            Circuit::GROUND,
            MosPolarity::Nmos,
            &n_name,
            self.driver.geometry,
        )?;
        ckt.add_mosfet(
            "MREF",
            bias,
            bias,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            &n_name,
            self.sink_ref.geometry,
        )?;
        ckt.add_mosfet(
            "MSINK",
            out,
            bias,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            &n_name,
            self.sink_out.geometry,
        )?;
        if self.cl > 0.0 {
            ckt.add_capacitor("CL", out, Circuit::GROUND, self.cl)?;
        }
        Ok(ckt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_spice::{ac_sweep, dc_operating_point, measure};

    #[test]
    fn est_vs_sim_gain_and_level() {
        let tech = Technology::default_1p2um();
        let buf = Follower::design(&tech, 100e-6, 10e-12).unwrap();
        let tb = buf.testbench(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let v_q = op.voltage(out);
        assert!(
            (v_q - buf.vout_q).abs() < 0.3,
            "quiescent output {v_q} vs design {}",
            buf.vout_q
        );
        let sweep = ac_sweep(&tb, &tech, &op, &[100.0]).unwrap();
        let a_sim = measure::dc_gain(&sweep, out).unwrap();
        let a_est = buf.perf.dc_gain.unwrap();
        assert!(
            (a_sim - a_est).abs() / a_est < 0.1,
            "gain sim {a_sim} vs est {a_est}"
        );
    }

    #[test]
    fn low_output_impedance() {
        let tech = Technology::default_1p2um();
        let buf = Follower::design(&tech, 100e-6, 0.0).unwrap();
        // 1/gm at gm ≈ 2·100µ/0.25 = 0.8 mS → ~1.2 kΩ with gmb.
        let z = buf.perf.zout_ohm.unwrap();
        assert!(z < 3e3, "zout {z}");
    }

    #[test]
    fn power_counts_both_branches() {
        let tech = Technology::default_1p2um();
        let buf = Follower::design(&tech, 100e-6, 0.0).unwrap();
        assert!((buf.perf.power_w - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_bias() {
        let tech = Technology::default_1p2um();
        assert!(Follower::design(&tech, 0.0, 1e-12).is_err());
    }
}
