//! Closed-loop amplifier modules and the open-loop audio amplifier.

use super::{noninverting_bw, noninverting_gain_actual, noninverting_into, R_FEEDBACK};
use crate::attrs::Performance;
use crate::basic::MirrorTopology;
use crate::error::ApeError;
use crate::graph::{with_thread_graph, Component, EstimationGraph};
use crate::opamp::{OpAmp, OpAmpNode, OpAmpSpec, OpAmpTopology};
use ape_mos::fingerprint::Fingerprint;
use ape_netlist::{Circuit, SourceWaveform, Technology};

/// Graph node for [`InvertingAmplifier::design`].
#[derive(Debug, Clone, Copy)]
struct InvertingAmpNode {
    gain: f64,
    bw: f64,
    cl: f64,
}

impl Component for InvertingAmpNode {
    type Output = InvertingAmplifier;

    fn kind(&self) -> &'static str {
        "l4.inverting_amp"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .f64(self.gain)
            .f64(self.bw)
            .f64(self.cl)
            .finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l3.opamp"]
    }

    fn calibrate(
        &self,
        out: &mut InvertingAmplifier,
        cal: &ape_calib::Calibration,
    ) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l4.inverting_amp",
            &[
                crate::calibrate::ln_or_zero(self.gain.abs()),
                crate::calibrate::ln_or_zero(self.bw),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<InvertingAmplifier, ApeError> {
        InvertingAmplifier::design_uncached(graph, self.gain, self.bw, self.cl)
    }
}

/// Graph node for [`NonInvertingAmplifier::design`].
#[derive(Debug, Clone, Copy)]
struct NonInvertingAmpNode {
    gain: f64,
    bw: f64,
    cl: f64,
}

impl Component for NonInvertingAmpNode {
    type Output = NonInvertingAmplifier;

    fn kind(&self) -> &'static str {
        "l4.noninverting_amp"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .f64(self.gain)
            .f64(self.bw)
            .f64(self.cl)
            .finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l3.opamp"]
    }

    fn calibrate(
        &self,
        out: &mut NonInvertingAmplifier,
        cal: &ape_calib::Calibration,
    ) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l4.noninverting_amp",
            &[
                crate::calibrate::ln_or_zero(self.gain),
                crate::calibrate::ln_or_zero(self.bw),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<NonInvertingAmplifier, ApeError> {
        NonInvertingAmplifier::design_uncached(graph, self.gain, self.bw, self.cl)
    }
}

/// Graph node for [`AudioAmplifier::design`].
#[derive(Debug, Clone, Copy)]
struct AudioAmpNode {
    gain: f64,
    bw: f64,
    cl: f64,
}

impl Component for AudioAmpNode {
    type Output = AudioAmplifier;

    fn kind(&self) -> &'static str {
        "l4.audio_amp"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .f64(self.gain)
            .f64(self.bw)
            .f64(self.cl)
            .finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l3.opamp"]
    }

    fn calibrate(
        &self,
        out: &mut AudioAmplifier,
        cal: &ape_calib::Calibration,
    ) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l4.audio_amp",
            &[
                crate::calibrate::ln_or_zero(self.gain),
                crate::calibrate::ln_or_zero(self.bw),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<AudioAmplifier, ApeError> {
        AudioAmplifier::design_uncached(graph, self.gain, self.bw, self.cl)
    }
}

/// Sizes the internal op-amp for a closed-loop stage with noise gain `k`
/// and signal bandwidth `bw`: open-loop gain 50× the closed-loop ideal for
/// ≤2 % gain error, UGF `k·bw` with 2× margin.
fn opamp_for_loop(
    graph: &EstimationGraph,
    k: f64,
    bw: f64,
    cl: f64,
    buffered: bool,
) -> Result<OpAmp, ApeError> {
    let spec = OpAmpSpec {
        gain: (50.0 * k).max(100.0),
        ugf_hz: 2.0 * k * bw,
        area_max_m2: 1e-8,
        ibias: 5e-6,
        zout_ohm: Some(2e3),
        cl,
    };
    graph.evaluate(&OpAmpNode {
        topology: OpAmpTopology::miller(MirrorTopology::Simple, buffered),
        spec,
    })
}

/// Inverting amplifier: gain `−R2/R1` around an op-amp.
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::module::InvertingAmplifier;
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let amp = InvertingAmplifier::design(&tech, 4.0, 50e3, 10e-12)?;
/// let g = amp.perf.dc_gain.unwrap();
/// assert!(g < -3.8 && g > -4.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct InvertingAmplifier {
    /// Requested gain magnitude.
    pub gain: f64,
    /// Requested signal bandwidth, hertz.
    pub bw: f64,
    /// Input resistor, ohms.
    pub r1: f64,
    /// Feedback resistor, ohms.
    pub r2: f64,
    /// The internal op-amp.
    pub opamp: OpAmp,
    /// Composed performance.
    pub perf: Performance,
}

impl InvertingAmplifier {
    /// Designs an inverting amplifier with gain magnitude `gain` and signal
    /// bandwidth `bw` into load `cl`.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for gain below 1 or non-positive bandwidth.
    /// * Op-amp sizing errors.
    pub fn design(tech: &Technology, gain: f64, bw: f64, cl: f64) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| g.evaluate(&InvertingAmpNode { gain, bw, cl }))
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(
        graph: &EstimationGraph,
        gain: f64,
        bw: f64,
        cl: f64,
    ) -> Result<Self, ApeError> {
        if !(gain.is_finite() && gain >= 1.0) {
            return Err(ApeError::BadSpec {
                param: "gain",
                message: format!("need |gain| >= 1, got {gain}"),
            });
        }
        if !(bw.is_finite() && bw > 0.0) {
            return Err(ApeError::BadSpec {
                param: "bw",
                message: format!("must be positive, got {bw}"),
            });
        }
        let noise_gain = 1.0 + gain;
        let opamp = opamp_for_loop(graph, noise_gain, bw, cl, true)?;
        let r1 = R_FEEDBACK;
        let r2 = gain * r1;
        let a_ol = opamp.perf.dc_gain.unwrap_or(1e4);
        // Inverting gain with finite A: −(R2/R1)·1/(1 + noise_gain/A).
        let g_actual = -(r2 / r1) / (1.0 + noise_gain / a_ol);
        let bw_actual = noninverting_bw(noise_gain, opamp.perf.ugf_hz.unwrap_or(0.0));
        let perf = Performance {
            dc_gain: Some(g_actual),
            bw_hz: Some(bw_actual),
            power_w: opamp.perf.power_w,
            gate_area_m2: opamp.perf.gate_area_m2,
            zout_ohm: opamp.perf.zout_ohm.map(|z| z / (1.0 + a_ol / noise_gain)),
            slew_v_per_s: opamp.perf.slew_v_per_s,
            ..Performance::default()
        };
        Ok(InvertingAmplifier {
            gain,
            bw,
            r1,
            r2,
            opamp,
            perf,
        })
    }

    /// Emits a testbench: AC source at `in` (biased mid-rail), virtual
    /// ground reference, output node `out`.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn testbench(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new("invamp-tb");
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
        ckt.add_resistor("R1", vin, sum, self.r1)?;
        ckt.add_resistor("R2", sum, out, self.r2)?;
        // (+) input at the reference, (−) at the summing node.
        self.opamp
            .build_into(&mut ckt, tech, "X1", vref, sum, out, vdd)?;
        ckt.add_capacitor("CL", out, Circuit::GROUND, self.opamp.spec.cl)?;
        Ok(ckt)
    }
}

/// Non-inverting amplifier with gain `k = 1 + RB/RA`.
#[derive(Debug, Clone)]
pub struct NonInvertingAmplifier {
    /// Requested gain (≥ 1).
    pub gain: f64,
    /// Requested signal bandwidth, hertz.
    pub bw: f64,
    /// The internal op-amp.
    pub opamp: OpAmp,
    /// Composed performance.
    pub perf: Performance,
}

impl NonInvertingAmplifier {
    /// Designs a non-inverting amplifier with gain `gain ≥ 1`, bandwidth
    /// `bw`, into load `cl`.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for gain below 1 or non-positive bandwidth.
    /// * Op-amp sizing errors.
    pub fn design(tech: &Technology, gain: f64, bw: f64, cl: f64) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| g.evaluate(&NonInvertingAmpNode { gain, bw, cl }))
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(
        graph: &EstimationGraph,
        gain: f64,
        bw: f64,
        cl: f64,
    ) -> Result<Self, ApeError> {
        if !(gain.is_finite() && gain >= 1.0) {
            return Err(ApeError::BadSpec {
                param: "gain",
                message: format!("need gain >= 1, got {gain}"),
            });
        }
        if !(bw.is_finite() && bw > 0.0) {
            return Err(ApeError::BadSpec {
                param: "bw",
                message: format!("must be positive, got {bw}"),
            });
        }
        let opamp = opamp_for_loop(graph, gain, bw, cl, true)?;
        let a_ol = opamp.perf.dc_gain.unwrap_or(1e4);
        let perf = Performance {
            dc_gain: Some(noninverting_gain_actual(gain, a_ol)),
            bw_hz: Some(noninverting_bw(gain, opamp.perf.ugf_hz.unwrap_or(0.0))),
            power_w: opamp.perf.power_w,
            gate_area_m2: opamp.perf.gate_area_m2,
            zout_ohm: opamp.perf.zout_ohm.map(|z| z / (1.0 + a_ol / gain)),
            slew_v_per_s: opamp.perf.slew_v_per_s,
            ..Performance::default()
        };
        Ok(NonInvertingAmplifier {
            gain,
            bw,
            opamp,
            perf,
        })
    }

    /// Emits a testbench with the AC source at the (+) input.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn testbench(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new("noninv-tb");
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let vref = ckt.node("vref");
        let out = ckt.node("out");
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
        noninverting_into(
            &mut ckt,
            tech,
            &self.opamp,
            "X1",
            vin,
            out,
            vref,
            vdd,
            self.gain,
        )?;
        ckt.add_capacitor("CL", out, Circuit::GROUND, self.opamp.spec.cl)?;
        Ok(ckt)
    }
}

/// The paper's audio amplifier design example: a two-stage op-amp used
/// open loop, gain 100, 20 kHz bandwidth (Table 5 row `amp`).
///
/// A bare two-stage amplifier's natural gain in this technology is far
/// above 100, which would shrink the bandwidth (`BW = UGF/A`). A load
/// resistor `RL` from the output to the mid-rail reference de-Qs the second
/// stage to land the DC gain on the spec while the Miller UGF stays put.
#[derive(Debug, Clone)]
pub struct AudioAmplifier {
    /// Requested open-loop gain.
    pub gain: f64,
    /// Requested bandwidth, hertz.
    pub bw: f64,
    /// The op-amp realising the amplifier.
    pub opamp: OpAmp,
    /// Gain-setting load resistor to the mid-rail reference, ohms
    /// (`None` when the natural gain is already at or below the spec).
    pub r_load: Option<f64>,
    /// Composed performance.
    pub perf: Performance,
}

impl AudioAmplifier {
    /// Designs the open-loop audio amplifier: gain `gain`, −3 dB bandwidth
    /// `bw`, load `cl`.
    ///
    /// # Errors
    ///
    /// Propagates op-amp design errors.
    pub fn design(tech: &Technology, gain: f64, bw: f64, cl: f64) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| g.evaluate(&AudioAmpNode { gain, bw, cl }))
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(
        graph: &EstimationGraph,
        gain: f64,
        bw: f64,
        cl: f64,
    ) -> Result<Self, ApeError> {
        if !(gain.is_finite() && gain > 1.0 && bw.is_finite() && bw > 0.0) {
            return Err(ApeError::BadSpec {
                param: "gain/bw",
                message: format!("need gain > 1 and bw > 0, got {gain}, {bw}"),
            });
        }
        // Open loop: UGF = gain · bw for a single-dominant-pole response,
        // with 40 % margin for the resistive-loading and parasitic losses.
        let spec = OpAmpSpec {
            gain,
            ugf_hz: 1.4 * gain * bw,
            area_max_m2: 1e-9,
            ibias: 5e-6,
            zout_ohm: None,
            cl,
        };
        let opamp = graph.evaluate(&OpAmpNode {
            topology: OpAmpTopology::miller(MirrorTopology::Simple, false),
            spec,
        })?;
        let a1 = opamp.stage1.perf.dc_gain.unwrap_or(gain.sqrt()).abs();
        let gm6 = opamp.m6.gm;
        let go67 = opamp.m6.gds + opamp.m7.gds;
        let a2_nat = gm6 / go67;
        let a2_target = gain / a1;
        let (r_load, a2) = if a2_target < a2_nat && a2_target > 0.1 {
            // gm6·(RL ∥ ro67) = a2_target  →  1/RL = gm6/a2_target − go67.
            let g_l = gm6 / a2_target - go67;
            (Some(1.0 / g_l), a2_target)
        } else {
            (None, a2_nat)
        };
        let a_total = a1 * a2;
        let ugf = opamp.perf.ugf_hz.unwrap_or(gain * bw);
        let perf = Performance {
            dc_gain: Some(a_total),
            bw_hz: Some(ugf / a_total),
            ugf_hz: Some(ugf),
            power_w: opamp.perf.power_w,
            gate_area_m2: opamp.perf.gate_area_m2,
            slew_v_per_s: opamp.perf.slew_v_per_s,
            ..Performance::default()
        };
        Ok(AudioAmplifier {
            gain,
            bw,
            opamp,
            r_load,
            perf,
        })
    }

    /// Open-loop AC testbench (differential drive) with the gain-setting
    /// load resistor to a mid-rail reference.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn testbench(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new("audio-amp-tb");
        let vdd = ckt.node("vdd");
        let inp = ckt.node("inp");
        let inn = ckt.node("inn");
        let out = ckt.node("out");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        let vcm = 0.5 * tech.vdd;
        ckt.add_vsource("VINP", inp, Circuit::GROUND, vcm, 0.5, SourceWaveform::Dc)?;
        ckt.add_vsource("VINN", inn, Circuit::GROUND, vcm, -0.5, SourceWaveform::Dc)?;
        self.opamp
            .build_into(&mut ckt, tech, "X1", inp, inn, out, vdd)?;
        if let Some(rl) = self.r_load {
            let vref = ckt.node("vref");
            ckt.add_vdc("VREF", vref, Circuit::GROUND, vcm)?;
            ckt.add_resistor("RL", out, vref, rl)?;
        }
        ckt.add_capacitor("CL", out, Circuit::GROUND, self.opamp.spec.cl)?;
        Ok(ckt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_spice::{ac_sweep, dc_operating_point, decade_frequencies, measure};

    #[test]
    fn inverting_amp_est_vs_sim() {
        let tech = Technology::default_1p2um();
        let amp = InvertingAmplifier::design(&tech, 4.0, 50e3, 10e-12).unwrap();
        let tb = amp.testbench(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &decade_frequencies(10.0, 1e8, 10).unwrap()).unwrap();
        let g_sim = measure::dc_gain(&sweep, out).unwrap();
        assert!((g_sim - 4.0).abs() / 4.0 < 0.1, "sim gain {g_sim}");
        let bw_sim = measure::bandwidth_3db(&sweep, out).unwrap();
        let bw_est = amp.perf.bw_hz.unwrap();
        assert!(
            (bw_sim - bw_est).abs() / bw_est < 0.6,
            "bw sim {bw_sim} vs est {bw_est}"
        );
        assert!(bw_sim > 50e3, "meets bandwidth spec, got {bw_sim}");
    }

    #[test]
    fn noninverting_amp_gain_two() {
        let tech = Technology::default_1p2um();
        let amp = NonInvertingAmplifier::design(&tech, 2.0, 20e3, 10e-12).unwrap();
        let tb = amp.testbench(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &[100.0]).unwrap();
        let g_sim = measure::dc_gain(&sweep, out).unwrap();
        assert!((g_sim - 2.0).abs() < 0.15, "sim gain {g_sim}");
    }

    #[test]
    fn follower_case_k_equals_one() {
        let tech = Technology::default_1p2um();
        let amp = NonInvertingAmplifier::design(&tech, 1.0, 100e3, 10e-12).unwrap();
        let tb = amp.testbench(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &[100.0]).unwrap();
        let g_sim = measure::dc_gain(&sweep, out).unwrap();
        assert!((g_sim - 1.0).abs() < 0.05, "follower gain {g_sim}");
    }

    #[test]
    fn audio_amp_open_loop_spec() {
        let tech = Technology::default_1p2um();
        let amp = AudioAmplifier::design(&tech, 100.0, 20e3, 10e-12).unwrap();
        // The design carries deliberate margin: estimate lands at or above
        // the spec but within 2x.
        let est_bw = amp.perf.bw_hz.unwrap();
        assert!(
            (20e3 * 0.9..2.0 * 20e3).contains(&est_bw),
            "est bw {est_bw}"
        );
        let tb = amp.testbench(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &decade_frequencies(10.0, 1e8, 10).unwrap()).unwrap();
        let g_sim = measure::dc_gain(&sweep, out).unwrap();
        assert!(g_sim > 70.0, "audio amp sim gain {g_sim}");
    }

    #[test]
    fn rejects_bad_specs() {
        let tech = Technology::default_1p2um();
        assert!(InvertingAmplifier::design(&tech, 0.5, 1e3, 1e-12).is_err());
        assert!(NonInvertingAmplifier::design(&tech, 2.0, -1.0, 1e-12).is_err());
        assert!(AudioAmplifier::design(&tech, 0.5, 1e3, 1e-12).is_err());
    }
}
