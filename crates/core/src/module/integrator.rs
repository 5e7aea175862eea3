//! Integrator and summing-amplifier (adder) modules.

use super::R_FEEDBACK;
use crate::attrs::Performance;
use crate::basic::MirrorTopology;
use crate::error::ApeError;
use crate::graph::{with_thread_graph, Component, EstimationGraph};
use crate::opamp::{OpAmp, OpAmpNode, OpAmpSpec, OpAmpTopology};
use ape_mos::fingerprint::Fingerprint;
use ape_netlist::{Circuit, SourceWaveform, Technology};

/// Graph node for [`Integrator::design`].
#[derive(Debug, Clone, Copy)]
struct IntegratorNode {
    unity_hz: f64,
    cl: f64,
}

impl Component for IntegratorNode {
    type Output = Integrator;

    fn kind(&self) -> &'static str {
        "l4.integrator"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new().f64(self.unity_hz).f64(self.cl).finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l3.opamp"]
    }

    fn calibrate(
        &self,
        out: &mut Integrator,
        cal: &ape_calib::Calibration,
    ) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l4.integrator",
            &[
                crate::calibrate::ln_or_zero(self.unity_hz),
                crate::calibrate::ln_or_zero(self.cl),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<Integrator, ApeError> {
        Integrator::design_uncached(graph, self.unity_hz, self.cl)
    }
}

/// Graph node for [`SummingAmplifier::design`].
#[derive(Debug, Clone)]
struct SummingNode {
    gains: Vec<f64>,
    bw: f64,
    cl: f64,
}

impl Component for SummingNode {
    type Output = SummingAmplifier;

    fn kind(&self) -> &'static str {
        "l4.summing_amp"
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new().u64(self.gains.len() as u64);
        for g in &self.gains {
            fp = fp.f64(*g);
        }
        fp.f64(self.bw).f64(self.cl).finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l3.opamp"]
    }

    fn calibrate(
        &self,
        out: &mut SummingAmplifier,
        cal: &ape_calib::Calibration,
    ) -> Result<(), ApeError> {
        let gain_total: f64 = self.gains.iter().map(|g| g.abs()).sum();
        crate::calibrate::apply_performance(
            cal,
            "l4.summing_amp",
            &[
                crate::calibrate::ln_or_zero(gain_total),
                crate::calibrate::ln_or_zero(self.bw),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<SummingAmplifier, ApeError> {
        SummingAmplifier::design_uncached(graph, &self.gains, self.bw, self.cl)
    }
}

/// An inverting (Miller) integrator: `H(s) = −1/(s·R·C)`.
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::module::Integrator;
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let int = Integrator::design(&tech, 10e3, 10e-12)?; // f_unity = 10 kHz
/// assert!((int.unity_hz - 10e3).abs() < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Integrator {
    /// Unity-gain frequency of the integrator `1/(2πRC)`, hertz.
    pub unity_hz: f64,
    /// Input resistor, ohms.
    pub r: f64,
    /// Feedback capacitor, farads.
    pub c: f64,
    /// The internal op-amp.
    pub opamp: OpAmp,
    /// Composed performance. `dc_gain` holds the finite low-frequency gain
    /// (the op-amp's open-loop gain), `bw_hz` the lower corner where
    /// integration starts.
    pub perf: Performance,
}

impl Integrator {
    /// Designs an integrator with unity-gain frequency `unity_hz` driving
    /// `cl`.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for a non-positive frequency.
    /// * Op-amp design errors.
    pub fn design(tech: &Technology, unity_hz: f64, cl: f64) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| g.evaluate(&IntegratorNode { unity_hz, cl }))
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(graph: &EstimationGraph, unity_hz: f64, cl: f64) -> Result<Self, ApeError> {
        if !(unity_hz.is_finite() && unity_hz > 0.0) {
            return Err(ApeError::BadSpec {
                param: "unity_hz",
                message: format!("must be positive, got {unity_hz}"),
            });
        }
        let r = R_FEEDBACK;
        let c = 1.0 / (2.0 * std::f64::consts::PI * r * unity_hz);
        // The op-amp needs bandwidth well past the integrator's useful band.
        let spec = OpAmpSpec {
            gain: 1000.0,
            ugf_hz: 50.0 * unity_hz,
            area_max_m2: 1e-8,
            ibias: 5e-6,
            zout_ohm: Some(2e3),
            cl,
        };
        let opamp = graph.evaluate(&OpAmpNode {
            topology: OpAmpTopology::miller(MirrorTopology::Simple, true),
            spec,
        })?;
        let a_ol = opamp.perf.dc_gain.unwrap_or(1000.0);
        let perf = Performance {
            dc_gain: Some(-a_ol),
            // The integrator departs from ideal below f_unity/A.
            bw_hz: Some(unity_hz / a_ol),
            ugf_hz: Some(unity_hz),
            power_w: opamp.perf.power_w,
            gate_area_m2: opamp.perf.gate_area_m2,
            slew_v_per_s: opamp.perf.slew_v_per_s,
            ..Performance::default()
        };
        Ok(Integrator {
            unity_hz,
            r,
            c,
            opamp,
            perf,
        })
    }

    /// Emits a testbench with an AC source at the input.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn testbench(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new("integrator-tb");
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let vref = ckt.node("vref");
        let out = ckt.node("out");
        let sum = ckt.node("sum");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        ckt.add_vdc("VREF", vref, Circuit::GROUND, tech.vdd / 2.0)?;
        ckt.add_vsource(
            "VIN",
            vin,
            Circuit::GROUND,
            tech.vdd / 2.0,
            1.0,
            SourceWaveform::Dc,
        )?;
        ckt.add_resistor("RIN", vin, sum, self.r)?;
        ckt.add_capacitor("CF", sum, out, self.c)?;
        // A large DC-stabilising resistor across the integrator cap keeps
        // the testbench operating point defined.
        ckt.add_resistor("RDC", sum, out, 1e3 * self.r)?;
        self.opamp
            .build_into(&mut ckt, tech, "X1", vref, sum, out, vdd)?;
        ckt.add_capacitor("CL", out, Circuit::GROUND, self.opamp.spec.cl)?;
        Ok(ckt)
    }
}

/// An inverting summing amplifier (`adder` in the paper's module list):
/// `vout = −Σᵢ (RF/Rᵢ)·vᵢ`.
#[derive(Debug, Clone)]
pub struct SummingAmplifier {
    /// Per-input gain magnitudes.
    pub gains: Vec<f64>,
    /// Signal bandwidth, hertz.
    pub bw: f64,
    /// Feedback resistor, ohms.
    pub rf: f64,
    /// Input resistors, ohms (one per input).
    pub r_in: Vec<f64>,
    /// The internal op-amp.
    pub opamp: OpAmp,
    /// Composed performance (dc_gain = `-gains[0]`).
    pub perf: Performance,
}

impl SummingAmplifier {
    /// Designs an N-input adder with per-input gain magnitudes `gains` and
    /// bandwidth `bw` into `cl`.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for an empty gain list or non-positive gains.
    /// * Op-amp design errors.
    pub fn design(tech: &Technology, gains: &[f64], bw: f64, cl: f64) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| {
            g.evaluate(&SummingNode {
                gains: gains.to_vec(),
                bw,
                cl,
            })
        })
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(
        graph: &EstimationGraph,
        gains: &[f64],
        bw: f64,
        cl: f64,
    ) -> Result<Self, ApeError> {
        if gains.is_empty() {
            return Err(ApeError::BadSpec {
                param: "gains",
                message: "need at least one input".into(),
            });
        }
        if gains.iter().any(|g| !(g.is_finite() && *g > 0.0)) {
            return Err(ApeError::BadSpec {
                param: "gains",
                message: "all input gains must be positive".into(),
            });
        }
        let rf = R_FEEDBACK * 4.0;
        let r_in: Vec<f64> = gains.iter().map(|g| rf / g).collect();
        // Noise gain of a summing node: 1 + RF·Σ(1/Ri).
        let noise_gain = 1.0 + gains.iter().sum::<f64>();
        let spec = OpAmpSpec {
            gain: (50.0 * noise_gain).max(100.0),
            ugf_hz: 2.0 * noise_gain * bw,
            area_max_m2: 1e-8,
            ibias: 5e-6,
            zout_ohm: Some(2e3),
            cl,
        };
        let opamp = graph.evaluate(&OpAmpNode {
            topology: OpAmpTopology::miller(MirrorTopology::Simple, true),
            spec,
        })?;
        let a_ol = opamp.perf.dc_gain.unwrap_or(1e4);
        let g0 = -(gains[0]) / (1.0 + noise_gain / a_ol);
        let perf = Performance {
            dc_gain: Some(g0),
            bw_hz: Some(opamp.perf.ugf_hz.unwrap_or(0.0) / noise_gain),
            power_w: opamp.perf.power_w,
            gate_area_m2: opamp.perf.gate_area_m2,
            slew_v_per_s: opamp.perf.slew_v_per_s,
            ..Performance::default()
        };
        Ok(SummingAmplifier {
            gains: gains.to_vec(),
            bw,
            rf,
            r_in,
            opamp,
            perf,
        })
    }

    /// Emits a testbench with input 0 AC-driven and the other inputs held
    /// at the mid-rail reference.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn testbench(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new("adder-tb");
        let vdd = ckt.node("vdd");
        let vref = ckt.node("vref");
        let out = ckt.node("out");
        let sum = ckt.node("sum");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        ckt.add_vdc("VREF", vref, Circuit::GROUND, tech.vdd / 2.0)?;
        for (i, r) in self.r_in.iter().enumerate() {
            let vin = ckt.node(&format!("in{i}"));
            let ac = if i == 0 { 1.0 } else { 0.0 };
            ckt.add_vsource(
                &format!("VIN{i}"),
                vin,
                Circuit::GROUND,
                tech.vdd / 2.0,
                ac,
                SourceWaveform::Dc,
            )?;
            ckt.add_resistor(&format!("RIN{i}"), vin, sum, *r)?;
        }
        ckt.add_resistor("RF", sum, out, self.rf)?;
        self.opamp
            .build_into(&mut ckt, tech, "X1", vref, sum, out, vdd)?;
        ckt.add_capacitor("CL", out, Circuit::GROUND, self.opamp.spec.cl)?;
        Ok(ckt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_spice::{ac_sweep, dc_operating_point, decade_frequencies, measure};

    #[test]
    fn integrator_slope_is_minus_20db_per_decade() {
        let tech = Technology::default_1p2um();
        let int = Integrator::design(&tech, 10e3, 10e-12).unwrap();
        let tb = int.testbench(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &[1e3, 1e4, 1e5]).unwrap();
        let m = sweep.magnitude(out);
        // Gain 10 at f_unity/10, 1 at f_unity, 0.1 at 10·f_unity.
        assert!((m[0] - 10.0).abs() / 10.0 < 0.15, "1 kHz gain {}", m[0]);
        assert!((m[1] - 1.0).abs() < 0.15, "10 kHz gain {}", m[1]);
        assert!((m[2] - 0.1).abs() / 0.1 < 0.2, "100 kHz gain {}", m[2]);
    }

    #[test]
    fn adder_sums_weighted_inputs() {
        let tech = Technology::default_1p2um();
        let adder = SummingAmplifier::design(&tech, &[2.0, 1.0], 20e3, 10e-12).unwrap();
        let tb = adder.testbench(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &decade_frequencies(10.0, 1e5, 5).unwrap()).unwrap();
        // Input 0 has gain 2 (AC-driven); the sim gain should be ≈ 2.
        let g = measure::dc_gain(&sweep, out).unwrap();
        assert!((g - 2.0).abs() < 0.2, "adder input-0 gain {g}");
    }

    #[test]
    fn rejects_bad_specs() {
        let tech = Technology::default_1p2um();
        assert!(Integrator::design(&tech, 0.0, 1e-12).is_err());
        assert!(SummingAmplifier::design(&tech, &[], 1e3, 1e-12).is_err());
        assert!(SummingAmplifier::design(&tech, &[1.0, -2.0], 1e3, 1e-12).is_err());
    }
}
