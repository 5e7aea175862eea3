//! DC bias-voltage generator (`DCVolt` in the paper's Table 2).
//!
//! Two stacked diode-connected NMOS devices form a nonlinear divider whose
//! midpoint delivers the requested voltage at the requested branch current.

use super::{cards, L_BIAS};
use crate::attrs::Performance;
use crate::error::ApeError;
use crate::graph::{with_thread_graph, Component, EstimationGraph};
use ape_mos::fingerprint::Fingerprint;
use ape_mos::sizing::{threshold, SizedMos};
use ape_netlist::{Circuit, MosPolarity, Technology};

/// Estimation-graph node for a [`DcVolt`] design.
#[derive(Debug, Clone, Copy)]
struct DcVoltNode {
    vout: f64,
    ibias: f64,
}

impl Component for DcVoltNode {
    type Output = DcVolt;

    fn kind(&self) -> &'static str {
        "l2.bias"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new().f64(self.vout).f64(self.ibias).finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l1.id_vov"]
    }

    fn calibrate(&self, out: &mut DcVolt, cal: &ape_calib::Calibration) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l2.bias",
            &[
                crate::calibrate::ln_or_zero(self.vout),
                crate::calibrate::ln_or_zero(self.ibias),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<DcVolt, ApeError> {
        DcVolt::design_uncached(graph, self.vout, self.ibias)
    }
}

/// A sized DC bias-voltage generator.
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::basic::DcVolt;
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let bias = DcVolt::design(&tech, 2.5, 100e-6)?;
/// assert!((bias.perf.vout_v.unwrap() - 2.5).abs() < 1e-9);
/// assert!(bias.perf.power_mw() > 0.4); // 5 V · 100 µA
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DcVolt {
    /// Requested output voltage, volts.
    pub vout: f64,
    /// Branch current, amperes.
    pub ibias: f64,
    /// Lower diode device (source at ground).
    pub m_low: SizedMos,
    /// Upper diode device (drain at VDD).
    pub m_high: SizedMos,
    /// Composed performance attributes.
    pub perf: Performance,
}

impl DcVolt {
    /// Sizes the generator for output `vout` at branch current `ibias`.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] when `vout` leaves no headroom for either
    ///   diode (needs `vth + 50 mV` on both sides of the rail).
    /// * [`ApeError::Device`] when a device cannot be sized.
    pub fn design(tech: &Technology, vout: f64, ibias: f64) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| g.evaluate(&DcVoltNode { vout, ibias }))
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(graph: &EstimationGraph, vout: f64, ibias: f64) -> Result<Self, ApeError> {
        let tech = graph.technology();
        let c = cards(tech)?;
        if !(ibias.is_finite() && ibias > 0.0) {
            return Err(ApeError::BadSpec {
                param: "ibias",
                message: format!("must be positive, got {ibias}"),
            });
        }
        // Lower device: vgs = vout (no body effect).
        let vth_low = threshold(c.n, 0.0);
        let vov_low = vout - vth_low;
        // Upper device: vgs = vdd − vout, source rides at vout → body effect.
        let vth_high = threshold(c.n, vout);
        let vov_high = tech.vdd - vout - vth_high;
        if vov_low < 0.05 || vov_high < 0.05 {
            return Err(ApeError::BadSpec {
                param: "vout",
                message: format!(
                    "vout = {vout} V leaves overdrives {vov_low:.2}/{vov_high:.2} V; \
                     both diodes need at least 50 mV"
                ),
            });
        }
        let m_low = graph.size_id_vov(false, ibias, vov_low, L_BIAS, 2.5, 0.0)?;
        let m_high = graph.size_id_vov(false, ibias, vov_high, L_BIAS, tech.vdd - vout, vout)?;
        let perf = Performance {
            vout_v: Some(vout),
            ibias_a: Some(ibias),
            power_w: tech.vdd * ibias,
            gate_area_m2: m_low.gate_area() + m_high.gate_area(),
            // Looking into the midpoint: two diodes in parallel.
            zout_ohm: Some(1.0 / (m_low.gm + m_high.gm)),
            ..Performance::default()
        };
        Ok(DcVolt {
            vout,
            ibias,
            m_low,
            m_high,
            perf,
        })
    }

    /// Emits a self-contained testbench: `VDD` rail, the two diodes, output
    /// node `out`.
    ///
    /// # Errors
    ///
    /// Returns an error if a template card is rejected by the netlist layer.
    pub fn testbench(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new("dcvolt-tb");
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        let n_name = tech.nmos().map(|c| c.name.clone()).unwrap_or_default();
        ckt.add_mosfet(
            "MHI",
            vdd,
            vdd,
            out,
            Circuit::GROUND,
            MosPolarity::Nmos,
            &n_name,
            self.m_high.geometry,
        )?;
        ckt.add_mosfet(
            "MLO",
            out,
            out,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            &n_name,
            self.m_low.geometry,
        )?;
        Ok(ckt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_spice::dc_operating_point;

    #[test]
    fn estimate_matches_simulation() {
        let tech = Technology::default_1p2um();
        let bias = DcVolt::design(&tech, 2.5, 100e-6).unwrap();
        let tb = bias.testbench(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let v_sim = op.voltage(tb.find_node("out").unwrap());
        assert!(
            (v_sim - 2.5).abs() < 0.15,
            "simulated bias voltage {v_sim} vs 2.5"
        );
        let p_sim = op.supply_power(&tb);
        assert!(
            (p_sim - bias.perf.power_w).abs() / bias.perf.power_w < 0.15,
            "power sim {p_sim} vs est {}",
            bias.perf.power_w
        );
    }

    #[test]
    fn rejects_headroom_violations() {
        let tech = Technology::default_1p2um();
        assert!(DcVolt::design(&tech, 0.3, 10e-6).is_err());
        assert!(DcVolt::design(&tech, 4.9, 10e-6).is_err());
        assert!(DcVolt::design(&tech, 2.5, -1.0).is_err());
    }

    #[test]
    fn area_grows_with_current() {
        let tech = Technology::default_1p2um();
        let small = DcVolt::design(&tech, 2.5, 10e-6).unwrap();
        let big = DcVolt::design(&tech, 2.5, 200e-6).unwrap();
        assert!(big.perf.gate_area_m2 > small.perf.gate_area_m2);
    }
}
