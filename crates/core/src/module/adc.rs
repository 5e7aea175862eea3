//! Comparator and flash analog-to-digital converter (paper Table 5 row
//! `adc`, Figure 3e).
//!
//! The 4-bit flash ADC is a resistor ladder of `2^b` taps and `2^b − 1`
//! comparators. The thermometer-to-binary encoder is digital logic and is
//! substituted by an ideal Rust function (documented in `DESIGN.md`): the
//! analog estimation problem the paper studies — comparator delay, area and
//! power — is untouched by the substitution.

use crate::attrs::Performance;
use crate::basic::MirrorTopology;
use crate::error::ApeError;
use crate::graph::{with_thread_graph, Component, EstimationGraph};
use crate::opamp::{OpAmp, OpAmpNode, OpAmpSpec, OpAmpTopology};
use ape_mos::fingerprint::Fingerprint;
use ape_netlist::{Circuit, NodeId, SourceWaveform, Technology};
use ape_spice::dc_operating_point;

/// Estimation-graph node for a [`Comparator`] design.
#[derive(Debug, Clone, Copy)]
struct ComparatorNode {
    overdrive: f64,
    t_delay: f64,
}

impl Component for ComparatorNode {
    type Output = Comparator;

    fn kind(&self) -> &'static str {
        "l4.comparator"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .f64(self.overdrive)
            .f64(self.t_delay)
            .finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l3.opamp"]
    }

    fn calibrate(
        &self,
        out: &mut Comparator,
        cal: &ape_calib::Calibration,
    ) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l4.comparator",
            &[
                crate::calibrate::ln_or_zero(self.overdrive),
                crate::calibrate::ln_or_zero(self.t_delay),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<Comparator, ApeError> {
        Comparator::design_uncached(graph, self.overdrive, self.t_delay)
    }
}

/// Estimation-graph node for a [`FlashAdc`] design.
#[derive(Debug, Clone, Copy)]
struct FlashAdcNode {
    bits: u32,
    t_delay: f64,
}

impl Component for FlashAdcNode {
    type Output = FlashAdc;

    fn kind(&self) -> &'static str {
        "l4.adc"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .u64(u64::from(self.bits))
            .f64(self.t_delay)
            .finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l4.comparator"]
    }

    fn calibrate(&self, out: &mut FlashAdc, cal: &ape_calib::Calibration) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l4.adc",
            &[
                f64::from(self.bits),
                crate::calibrate::ln_or_zero(self.t_delay),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<FlashAdc, ApeError> {
        FlashAdc::design_uncached(graph, self.bits, self.t_delay)
    }
}

/// A clocked-less (continuous) comparator: an op-amp run open loop.
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::module::Comparator;
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let cmp = Comparator::design(&tech, 0.1, 2e-6)?; // 100 mV overdrive, 2 µs
/// assert!(cmp.perf.delay_s.unwrap() <= 2e-6 * 1.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Comparator {
    /// Worst-case input overdrive the delay is specified at, volts.
    pub overdrive: f64,
    /// The internal amplifier.
    pub opamp: OpAmp,
    /// Composed performance; `delay_s` is the response time estimate.
    pub perf: Performance,
}

impl Comparator {
    /// Designs a comparator that resolves an `overdrive`-volt input within
    /// `t_delay` seconds.
    ///
    /// The delay budget splits into a slewing phase across half the supply
    /// and a regeneration/settling phase; the required slew rate maps to an
    /// op-amp UGF through `SR = 2π·UGF·Vov`.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for non-positive overdrive or delay.
    /// * Op-amp design errors.
    pub fn design(tech: &Technology, overdrive: f64, t_delay: f64) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| g.evaluate(&ComparatorNode { overdrive, t_delay }))
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(
        graph: &EstimationGraph,
        overdrive: f64,
        t_delay: f64,
    ) -> Result<Self, ApeError> {
        let tech = graph.technology();
        if !(overdrive.is_finite() && overdrive > 0.0) {
            return Err(ApeError::BadSpec {
                param: "overdrive",
                message: format!("must be positive, got {overdrive}"),
            });
        }
        if !(t_delay.is_finite() && t_delay > 0.0) {
            return Err(ApeError::BadSpec {
                param: "t_delay",
                message: format!("must be positive, got {t_delay}"),
            });
        }
        // Budget: 70 % of the delay slews half the rail, the rest settles.
        // At small overdrives the input pair steers only gm·Vod of its tail
        // current, so the effective slew rate is 2π·UGF·min(Vod, Vov): the
        // smaller the overdrive, the faster the amplifier must be.
        let sr_needed = (tech.vdd / 2.0) / (0.7 * t_delay);
        let v_steer = overdrive.min(0.25);
        let ugf = sr_needed / (2.0 * std::f64::consts::PI * v_steer);
        // Gain: resolve the overdrive across the full swing with 2x margin.
        let gain_needed = 2.0 * tech.vdd / overdrive;
        let spec = OpAmpSpec {
            gain: gain_needed,
            ugf_hz: ugf,
            area_max_m2: 1e-8,
            ibias: 2e-6,
            zout_ohm: None,
            cl: 0.5e-12,
        };
        let opamp = graph.evaluate(&OpAmpNode {
            topology: OpAmpTopology::miller(MirrorTopology::Simple, false),
            spec,
        })?;
        let ugf_actual = opamp.perf.ugf_hz.unwrap_or(ugf);
        let sr_eff = 2.0 * std::f64::consts::PI * ugf_actual * v_steer;
        let tau = 1.0 / (2.0 * std::f64::consts::PI * ugf_actual);
        let delay = (tech.vdd / 2.0) / sr_eff + 3.0 * tau;
        let sr = sr_eff;
        let perf = Performance {
            dc_gain: opamp.perf.dc_gain,
            delay_s: Some(delay),
            power_w: opamp.perf.power_w,
            gate_area_m2: opamp.perf.gate_area_m2,
            slew_v_per_s: Some(sr),
            ..Performance::default()
        };
        Ok(Comparator {
            overdrive,
            opamp,
            perf,
        })
    }

    /// Step-response testbench: the (+) input steps from `overdrive` below
    /// the threshold to `overdrive` above it at `t_edge`; the (−) input
    /// holds the threshold.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn testbench_step(&self, tech: &Technology, t_edge: f64) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new("comparator-tb");
        let vdd = ckt.node("vdd");
        let inp = ckt.node("inp");
        let inn = ckt.node("inn");
        let out = ckt.node("out");
        let vth = tech.vdd / 2.0;
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        ckt.add_vdc("VTH", inn, Circuit::GROUND, vth)?;
        ckt.add_vsource(
            "VINP",
            inp,
            Circuit::GROUND,
            vth - self.overdrive,
            0.0,
            SourceWaveform::Pulse {
                v1: vth - self.overdrive,
                v2: vth + self.overdrive,
                delay: t_edge,
                rise: t_edge / 100.0,
                fall: t_edge / 100.0,
                width: 1.0,
                period: f64::INFINITY,
            },
        )?;
        self.opamp
            .build_into(&mut ckt, tech, "X1", inp, inn, out, vdd)?;
        ckt.add_capacitor("CL", out, Circuit::GROUND, self.opamp.spec.cl)?;
        Ok(ckt)
    }
}

/// A flash analog-to-digital converter.
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::module::FlashAdc;
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let adc = FlashAdc::design(&tech, 4, 5e-6)?;
/// assert_eq!(adc.comparator_count(), 15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlashAdc {
    /// Resolution in bits.
    pub bits: u32,
    /// Lower reference voltage, volts.
    pub vref_lo: f64,
    /// Upper reference voltage, volts.
    pub vref_hi: f64,
    /// Ladder segment resistance, ohms.
    pub r_ladder: f64,
    /// The (shared-design) comparator.
    pub comparator: Comparator,
    /// Composed performance. `delay_s` is the conversion delay.
    pub perf: Performance,
}

impl FlashAdc {
    /// Designs a `bits`-bit flash converter with conversion delay `t_delay`.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for unsupported resolutions (1–6 bits keep
    ///   the comparator count simulable).
    /// * Comparator design errors.
    pub fn design(tech: &Technology, bits: u32, t_delay: f64) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| g.evaluate(&FlashAdcNode { bits, t_delay }))
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(graph: &EstimationGraph, bits: u32, t_delay: f64) -> Result<Self, ApeError> {
        let tech = graph.technology();
        if !(1..=6).contains(&bits) {
            return Err(ApeError::BadSpec {
                param: "bits",
                message: format!("supported resolutions are 1..=6 bits, got {bits}"),
            });
        }
        let vref_lo = 1.0;
        let vref_hi = tech.vdd - 1.0;
        let lsb = (vref_hi - vref_lo) / 2f64.powi(bits as i32);
        // Worst-case overdrive is half an LSB.
        let comparator = graph.evaluate(&ComparatorNode {
            overdrive: lsb / 2.0,
            t_delay,
        })?;
        let n_cmp = (1usize << bits) - 1;
        let r_ladder = 50e3;
        let ladder_power = (vref_hi - vref_lo).powi(2) / (r_ladder * 2f64.powi(bits as i32));
        let perf = Performance {
            delay_s: comparator.perf.delay_s,
            power_w: n_cmp as f64 * comparator.perf.power_w + ladder_power,
            gate_area_m2: n_cmp as f64 * comparator.perf.gate_area_m2,
            ..Performance::default()
        };
        Ok(FlashAdc {
            bits,
            vref_lo,
            vref_hi,
            r_ladder,
            comparator,
            perf,
        })
    }

    /// Number of comparators (`2^bits − 1`).
    pub fn comparator_count(&self) -> usize {
        (1usize << self.bits) - 1
    }

    /// The ladder threshold for comparator `i` (0-based).
    pub fn threshold(&self, i: usize) -> f64 {
        let n = 1usize << self.bits;
        self.vref_lo + (self.vref_hi - self.vref_lo) * (i as f64 + 1.0) / n as f64
    }

    /// Emits the full converter testbench for input voltage `vin`: ladder,
    /// every comparator, comparator outputs named `cmp0..cmpN`.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn testbench_dc(
        &self,
        tech: &Technology,
        vin: f64,
    ) -> Result<(Circuit, Vec<NodeId>), ApeError> {
        let mut ckt = Circuit::new("flash-adc-tb");
        let vdd = ckt.node("vdd");
        let vrh = ckt.node("vrh");
        let vrl = ckt.node("vrl");
        let vin_n = ckt.node("vin");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        ckt.add_vdc("VRH", vrh, Circuit::GROUND, self.vref_hi)?;
        ckt.add_vdc("VRL", vrl, Circuit::GROUND, self.vref_lo)?;
        ckt.add_vsource("VIN", vin_n, Circuit::GROUND, vin, 0.0, SourceWaveform::Dc)?;
        // Ladder: 2^bits equal segments from vrl to vrh.
        let n = 1usize << self.bits;
        let mut prev = vrl;
        let mut taps = Vec::new();
        for i in 1..n {
            let tap = ckt.node(&format!("tap{i}"));
            ckt.add_resistor(&format!("RL{i}"), prev, tap, self.r_ladder)?;
            taps.push(tap);
            prev = tap;
        }
        ckt.add_resistor(&format!("RL{n}"), prev, vrh, self.r_ladder)?;
        // Comparators: vin vs each tap.
        let mut outs = Vec::new();
        for (i, tap) in taps.iter().enumerate() {
            let out = ckt.node(&format!("cmp{i}"));
            self.comparator.opamp.build_into(
                &mut ckt,
                tech,
                &format!("XC{i}"),
                vin_n,
                *tap,
                out,
                vdd,
            )?;
            outs.push(out);
        }
        Ok((ckt, outs))
    }

    /// Converts `vin` by building and DC-solving the full transistor-level
    /// converter, then applying the ideal thermometer→binary encoder.
    ///
    /// # Errors
    ///
    /// * [`ApeError::Infeasible`] when the DC solve fails or the thermometer
    ///   code has a bubble (a real comparator mis-decision).
    pub fn convert(&self, tech: &Technology, vin: f64) -> Result<u32, ApeError> {
        let (ckt, outs) = self.testbench_dc(tech, vin)?;
        let op = dc_operating_point(&ckt, tech).map_err(|e| ApeError::Infeasible {
            component: "FlashAdc",
            message: format!("dc solve failed: {e}"),
        })?;
        let vmid = tech.vdd / 2.0;
        let bits: Vec<bool> = outs.iter().map(|o| op.voltage(*o) > vmid).collect();
        // Thermometer code: ones below, zeros above; detect bubbles.
        let count = bits.iter().filter(|b| **b).count() as u32;
        for (i, b) in bits.iter().enumerate() {
            let expect = i < count as usize;
            if *b != expect {
                return Err(ApeError::Infeasible {
                    component: "FlashAdc",
                    message: format!("thermometer bubble at comparator {i} for vin={vin}"),
                });
            }
        }
        Ok(count)
    }

    /// The ideal output code for `vin`.
    pub fn ideal_code(&self, vin: f64) -> u32 {
        let n = (1usize << self.bits) as f64;
        let frac = (vin - self.vref_lo) / (self.vref_hi - self.vref_lo);
        ((frac * n).floor().clamp(0.0, n - 1.0)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_spice::{measure, transient, TranOptions};

    #[test]
    fn comparator_meets_delay_spec_in_sim() {
        let tech = Technology::default_1p2um();
        let cmp = Comparator::design(&tech, 0.1, 2e-6).unwrap();
        let tb = cmp.testbench_step(&tech, 1e-6).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let tr = transient(&tb, &tech, &op, TranOptions::new(2e-8, 8e-6)).unwrap();
        // Output crosses mid-rail some time after the input edge.
        let t_cross =
            measure::crossing_time(&tr, out, tech.vdd / 2.0, true).expect("comparator must trip");
        let delay = t_cross - 1e-6;
        assert!(delay > 0.0, "causal");
        let est = cmp.perf.delay_s.unwrap();
        assert!(
            delay < 4.0 * est && delay > est / 10.0,
            "delay sim {delay} vs est {est}"
        );
    }

    #[test]
    fn adc_converts_a_ramp_correctly() {
        let tech = Technology::default_1p2um();
        // 2 bits keeps the DC solves fast in unit tests; the bench harness
        // exercises the full 4-bit converter.
        let adc = FlashAdc::design(&tech, 2, 5e-6).unwrap();
        for vin in [1.2, 1.9, 2.6, 3.6] {
            let code = adc.convert(&tech, vin).unwrap();
            let ideal = adc.ideal_code(vin);
            assert_eq!(code, ideal, "vin={vin}");
        }
    }

    #[test]
    fn thresholds_are_monotone() {
        let tech = Technology::default_1p2um();
        let adc = FlashAdc::design(&tech, 4, 5e-6).unwrap();
        for i in 1..adc.comparator_count() {
            assert!(adc.threshold(i) > adc.threshold(i - 1));
        }
        assert_eq!(adc.comparator_count(), 15);
    }

    #[test]
    fn power_scales_with_comparator_count() {
        let tech = Technology::default_1p2um();
        let small = FlashAdc::design(&tech, 2, 5e-6).unwrap();
        let big = FlashAdc::design(&tech, 4, 5e-6).unwrap();
        // Comparator count goes 3 → 15. The per-comparator design also
        // changes with the LSB (a smaller overdrive needs a faster but
        // shorter-channel amplifier), so only the composition law is exact.
        assert!(big.perf.power_w > 2.0 * small.perf.power_w);
        let per_cmp = big.perf.gate_area_m2 / big.comparator_count() as f64;
        assert!((per_cmp - big.comparator.perf.gate_area_m2).abs() / per_cmp < 1e-9);
    }

    #[test]
    fn rejects_bad_specs() {
        let tech = Technology::default_1p2um();
        assert!(FlashAdc::design(&tech, 0, 1e-6).is_err());
        assert!(FlashAdc::design(&tech, 9, 1e-6).is_err());
        assert!(Comparator::design(&tech, -0.1, 1e-6).is_err());
        assert!(Comparator::design(&tech, 0.1, 0.0).is_err());
    }
}
