//! R-2R digital-to-analog converter module.

use crate::attrs::Performance;
use crate::basic::MirrorTopology;
use crate::error::ApeError;
use crate::graph::{with_thread_graph, Component, EstimationGraph};
use crate::opamp::{OpAmp, OpAmpNode, OpAmpSpec, OpAmpTopology};
use ape_mos::fingerprint::Fingerprint;
use ape_netlist::{Circuit, NodeId, Technology};
use ape_spice::dc_operating_point;

/// Graph node for [`R2rDac::design`].
#[derive(Debug, Clone, Copy)]
struct R2rDacNode {
    bits: u32,
    bw: f64,
}

impl Component for R2rDacNode {
    type Output = R2rDac;

    fn kind(&self) -> &'static str {
        "l4.dac"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .u64(u64::from(self.bits))
            .f64(self.bw)
            .finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l3.opamp"]
    }

    fn calibrate(&self, out: &mut R2rDac, cal: &ape_calib::Calibration) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l4.dac",
            &[f64::from(self.bits), crate::calibrate::ln_or_zero(self.bw)],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<R2rDac, ApeError> {
        R2rDac::design_uncached(graph, self.bits, self.bw)
    }
}

/// An R-2R ladder DAC with a unity-gain output buffer.
///
/// The bit legs switch between two reference levels `v_lo` and `v_hi`
/// (rather than the rails) so the buffer's input stays inside its
/// common-mode range; the ladder output is
/// `vout = v_lo + (v_hi − v_lo) · code / 2^bits`.
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::module::R2rDac;
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let dac = R2rDac::design(&tech, 4, 1e5)?;
/// assert_eq!(dac.bits, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct R2rDac {
    /// Resolution in bits.
    pub bits: u32,
    /// Ladder unit resistance, ohms.
    pub r: f64,
    /// Bit-low reference level, volts.
    pub v_lo: f64,
    /// Bit-high reference level, volts.
    pub v_hi: f64,
    /// Output buffer.
    pub buffer: OpAmp,
    /// Composed performance; `delay_s` is the 1 % settling estimate.
    pub perf: Performance,
}

impl R2rDac {
    /// Designs a `bits`-bit DAC with output update bandwidth `bw`.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for unsupported resolutions.
    /// * Op-amp design errors.
    pub fn design(tech: &Technology, bits: u32, bw: f64) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| g.evaluate(&R2rDacNode { bits, bw }))
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(graph: &EstimationGraph, bits: u32, bw: f64) -> Result<Self, ApeError> {
        let tech = graph.technology();
        if !(1..=10).contains(&bits) {
            return Err(ApeError::BadSpec {
                param: "bits",
                message: format!("supported resolutions are 1..=10 bits, got {bits}"),
            });
        }
        if !(bw.is_finite() && bw > 0.0) {
            return Err(ApeError::BadSpec {
                param: "bw",
                message: format!("must be positive, got {bw}"),
            });
        }
        let spec = OpAmpSpec {
            gain: 10.0 * 2f64.powi(bits as i32), // gain error below an LSB
            ugf_hz: 3.0 * bw,
            area_max_m2: 1e-8,
            ibias: 2e-6,
            zout_ohm: Some(2e3),
            cl: 10e-12,
        };
        let buffer = graph.evaluate(&OpAmpNode {
            topology: OpAmpTopology::miller(MirrorTopology::Simple, true),
            spec,
        })?;
        let t_settle = 4.6 / (2.0 * std::f64::consts::PI * bw);
        // The buffered op-amp's NMOS-follower output tops out roughly one
        // vgs below the rail, so keep the full-scale level below that.
        let v_lo = 1.0;
        let v_hi = tech.vdd - 1.6;
        let r = 10e3;
        // Ladder Thevenin resistance is R regardless of code; its static
        // draw is bounded by the full-scale span across the ladder.
        let ladder_power = (v_hi - v_lo).powi(2) / (2.0 * r);
        let perf = Performance {
            bw_hz: Some(bw),
            delay_s: Some(t_settle),
            power_w: buffer.perf.power_w + ladder_power,
            gate_area_m2: buffer.perf.gate_area_m2,
            ..Performance::default()
        };
        Ok(R2rDac {
            bits,
            r,
            v_lo,
            v_hi,
            buffer,
            perf,
        })
    }

    /// Ideal output voltage for `code`.
    pub fn ideal_level(&self, code: u32) -> f64 {
        self.v_lo + (self.v_hi - self.v_lo) * code as f64 / 2f64.powi(self.bits as i32)
    }

    /// Emits the transistor-level testbench for a static input `code`.
    /// Returns the circuit and its output node.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] when `code` exceeds the resolution.
    /// * Netlist errors.
    pub fn testbench_code(
        &self,
        tech: &Technology,
        code: u32,
    ) -> Result<(Circuit, NodeId), ApeError> {
        if code >= (1u32 << self.bits) {
            return Err(ApeError::BadSpec {
                param: "code",
                message: format!("code {code} exceeds {} bits", self.bits),
            });
        }
        let mut ckt = Circuit::new("r2r-dac-tb");
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        let vlo = ckt.node("vlo");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        ckt.add_vdc("VLO", vlo, Circuit::GROUND, self.v_lo)?;
        // R-2R ladder, MSB nearest the output node.
        // node chain: ladder output `lad`, then successive internal nodes.
        let lad = ckt.node("lad");
        let mut node = lad;
        for bit in (0..self.bits).rev() {
            // 2R leg to the bit source.
            let bit_set = (code >> bit) & 1 == 1;
            let bname = format!("b{bit}");
            let bnode = ckt.node(&bname);
            ckt.add_vdc(
                &format!("VB{bit}"),
                bnode,
                Circuit::GROUND,
                if bit_set { self.v_hi } else { self.v_lo },
            )?;
            ckt.add_resistor(&format!("R2A{bit}"), node, bnode, 2.0 * self.r)?;
            if bit > 0 {
                let next = ckt.node(&format!("n{bit}"));
                ckt.add_resistor(&format!("RS{bit}"), node, next, self.r)?;
                node = next;
            } else {
                // Terminating 2R to the low reference.
                ckt.add_resistor("RTERM", node, vlo, 2.0 * self.r)?;
            }
        }
        // Unity-gain buffer to the output.
        self.buffer
            .build_into(&mut ckt, tech, "X1", lad, out, out, vdd)?;
        ckt.add_capacitor("CL", out, Circuit::GROUND, 10e-12)?;
        Ok((ckt, out))
    }

    /// Simulates the static level for `code` through the full netlist.
    ///
    /// # Errors
    ///
    /// Propagates testbench and DC-solve failures.
    pub fn level(&self, tech: &Technology, code: u32) -> Result<f64, ApeError> {
        let (ckt, out) = self.testbench_code(tech, code)?;
        let op = dc_operating_point(&ckt, tech).map_err(|e| ApeError::Infeasible {
            component: "R2rDac",
            message: format!("dc solve failed: {e}"),
        })?;
        Ok(op.voltage(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_match_ideal_ladder() {
        let tech = Technology::default_1p2um();
        let dac = R2rDac::design(&tech, 4, 1e5).unwrap();
        for code in [0u32, 5, 10, 15] {
            let v = dac.level(&tech, code).unwrap();
            let ideal = dac.ideal_level(code);
            assert!(
                (v - ideal).abs() < 0.08,
                "code {code}: sim {v} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn transfer_is_monotone() {
        let tech = Technology::default_1p2um();
        let dac = R2rDac::design(&tech, 3, 1e5).unwrap();
        let mut last = -1.0;
        for code in 0..8 {
            let v = dac.level(&tech, code).unwrap();
            assert!(v > last, "code {code}: {v} <= {last}");
            last = v;
        }
    }

    #[test]
    fn rejects_bad_specs() {
        let tech = Technology::default_1p2um();
        assert!(R2rDac::design(&tech, 0, 1e5).is_err());
        assert!(R2rDac::design(&tech, 12, 1e5).is_err());
        let dac = R2rDac::design(&tech, 4, 1e5).unwrap();
        assert!(dac.testbench_code(&tech, 16).is_err());
    }
}
