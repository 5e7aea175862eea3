//! Sample-and-hold module (paper Table 5 row `s&h`, Figure 3b).
//!
//! Topology: a voltage-controlled sampling switch, a hold capacitor, and a
//! non-inverting gain-`k` output amplifier (the paper's example uses gain 2).

use super::{noninverting_bw, noninverting_gain_actual, noninverting_into};
use crate::attrs::Performance;
use crate::basic::MirrorTopology;
use crate::error::ApeError;
use crate::graph::{with_thread_graph, Component, EstimationGraph};
use crate::opamp::{OpAmp, OpAmpNode, OpAmpSpec, OpAmpTopology};
use ape_mos::fingerprint::Fingerprint;
use ape_netlist::{Circuit, SourceWaveform, Technology};

/// Graph node for [`SampleHold::design`].
#[derive(Debug, Clone, Copy)]
struct SampleHoldNode {
    gain: f64,
    bw: f64,
    cl: f64,
}

impl Component for SampleHoldNode {
    type Output = SampleHold;

    fn kind(&self) -> &'static str {
        "l4.sample_hold"
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
        out: &mut SampleHold,
        cal: &ape_calib::Calibration,
    ) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l4.sample_hold",
            &[
                crate::calibrate::ln_or_zero(self.gain),
                crate::calibrate::ln_or_zero(self.bw),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<SampleHold, ApeError> {
        SampleHold::design_uncached(graph, self.gain, self.bw, self.cl)
    }
}

/// A sized sample-and-hold.
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::module::SampleHold;
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let sh = SampleHold::design(&tech, 2.0, 40e3, 10e-12)?;
/// assert!((sh.perf.dc_gain.unwrap() - 2.0).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SampleHold {
    /// Output amplifier gain.
    pub gain: f64,
    /// Tracking bandwidth, hertz.
    pub bw: f64,
    /// Switch on-resistance, ohms.
    pub ron: f64,
    /// Hold capacitor, farads.
    pub c_hold: f64,
    /// The output amplifier.
    pub opamp: OpAmp,
    /// Composed performance. `delay_s` is the 1 % acquisition time.
    pub perf: Performance,
}

impl SampleHold {
    /// Designs a sample-and-hold with output gain `gain` and tracking
    /// bandwidth `bw`, driving `cl`.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for gain below 1 or non-positive bandwidth.
    /// * Op-amp design errors.
    pub fn design(tech: &Technology, gain: f64, bw: f64, cl: f64) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| g.evaluate(&SampleHoldNode { gain, bw, cl }))
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(
        graph: &EstimationGraph,
        gain: f64,
        bw: f64,
        cl: f64,
    ) -> Result<Self, ApeError> {
        let tech = graph.technology();
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
        // Budget the tracking pole between the switch RC and the amplifier:
        // give the switch a pole 3x above the target bandwidth.
        let c_hold = 10e-12;
        let ron = 1.0 / (3.0 * 2.0 * std::f64::consts::PI * bw * c_hold);
        let spec = OpAmpSpec {
            gain: (50.0 * gain).max(100.0),
            ugf_hz: 3.0 * gain * bw,
            area_max_m2: 1e-8,
            ibias: 2e-6,
            zout_ohm: Some(2e3),
            cl,
        };
        let opamp = graph.evaluate(&OpAmpNode {
            topology: OpAmpTopology::miller(MirrorTopology::Simple, true),
            spec,
        })?;
        let a_ol = opamp.perf.dc_gain.unwrap_or(1e4);
        let g_actual = noninverting_gain_actual(gain, a_ol);
        // Tracking bandwidth: switch pole in series with the closed loop.
        let f_sw = 1.0 / (2.0 * std::f64::consts::PI * ron * c_hold);
        let f_amp = noninverting_bw(gain, opamp.perf.ugf_hz.unwrap_or(0.0));
        let bw_actual = 1.0 / (1.0 / f_sw + 1.0 / f_amp);
        // 1 % acquisition: ~4.6 time constants of the combined pole.
        let t_acq = 4.6 / (2.0 * std::f64::consts::PI * bw_actual);
        let sr = opamp
            .perf
            .slew_v_per_s
            .unwrap_or(f64::INFINITY)
            .min(tech.vdd / (2.0 * ron * c_hold));
        let perf = Performance {
            dc_gain: Some(g_actual),
            bw_hz: Some(bw_actual),
            power_w: opamp.perf.power_w,
            gate_area_m2: opamp.perf.gate_area_m2,
            slew_v_per_s: Some(sr),
            delay_s: Some(t_acq),
            ..Performance::default()
        };
        Ok(SampleHold {
            gain,
            bw,
            ron,
            c_hold,
            opamp,
            perf,
        })
    }

    /// Emits the testbench with the switch closed (track mode) and an AC
    /// drive, output node `out`.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn testbench_tracking(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        self.testbench(tech, true)
    }

    /// Emits the hold-mode testbench (switch open): the hold node floats on
    /// the capacitor while the input keeps moving.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn testbench_hold(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        self.testbench(tech, false)
    }

    fn testbench(&self, tech: &Technology, tracking: bool) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new("sh-tb");
        let vdd = ckt.node("vdd");
        let vref = ckt.node("vref");
        let vin = ckt.node("in");
        let hold = ckt.node("hold");
        let out = ckt.node("out");
        let ctl = ckt.node("ctl");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        ckt.add_vdc("VREF", vref, Circuit::GROUND, tech.vdd / 2.0)?;
        ckt.add_vdc(
            "VCTL",
            ctl,
            Circuit::GROUND,
            if tracking { tech.vdd } else { 0.0 },
        )?;
        ckt.add_vsource(
            "VIN",
            vin,
            Circuit::GROUND,
            tech.vdd / 2.0,
            1.0,
            SourceWaveform::Dc,
        )?;
        ckt.add_switch(
            "SW",
            vin,
            hold,
            ctl,
            Circuit::GROUND,
            tech.vdd / 2.0,
            self.ron,
            1e12,
        )?;
        ckt.add_capacitor("CH", hold, Circuit::GROUND, self.c_hold)?;
        noninverting_into(
            &mut ckt,
            tech,
            &self.opamp,
            "X1",
            hold,
            out,
            vref,
            vdd,
            self.gain,
        )?;
        ckt.add_capacitor("CL", out, Circuit::GROUND, self.opamp.spec.cl)?;
        Ok(ckt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_spice::{ac_sweep, dc_operating_point, decade_frequencies, measure};

    #[test]
    fn tracking_gain_and_bandwidth() {
        let tech = Technology::default_1p2um();
        let sh = SampleHold::design(&tech, 2.0, 40e3, 10e-12).unwrap();
        let tb = sh.testbench_tracking(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(
            &tb,
            &tech,
            &op,
            &decade_frequencies(100.0, 1e7, 10).unwrap(),
        )
        .unwrap();
        let g_sim = measure::dc_gain(&sweep, out).unwrap();
        assert!((g_sim - 2.0).abs() < 0.15, "tracking gain {g_sim}");
        let bw_sim = measure::bandwidth_3db(&sweep, out).unwrap();
        let bw_est = sh.perf.bw_hz.unwrap();
        assert!(
            (bw_sim - bw_est).abs() / bw_est < 0.5,
            "bw sim {bw_sim} vs est {bw_est}"
        );
        assert!(bw_sim > 40e3 * 0.8, "meets BW spec: {bw_sim}");
    }

    #[test]
    fn hold_mode_blocks_input() {
        let tech = Technology::default_1p2um();
        let sh = SampleHold::design(&tech, 2.0, 40e3, 10e-12).unwrap();
        let tb = sh.testbench_hold(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &[1e3]).unwrap();
        let g = measure::dc_gain(&sweep, out).unwrap();
        assert!(g < 0.05, "hold-mode feedthrough {g}");
    }

    #[test]
    fn acquisition_time_scales_with_bandwidth() {
        let tech = Technology::default_1p2um();
        let fast = SampleHold::design(&tech, 2.0, 100e3, 10e-12).unwrap();
        let slow = SampleHold::design(&tech, 2.0, 10e3, 10e-12).unwrap();
        assert!(fast.perf.delay_s.unwrap() < slow.perf.delay_s.unwrap());
    }

    #[test]
    fn rejects_bad_specs() {
        let tech = Technology::default_1p2um();
        assert!(SampleHold::design(&tech, 0.5, 1e3, 1e-12).is_err());
        assert!(SampleHold::design(&tech, 2.0, 0.0, 1e-12).is_err());
    }

    #[test]
    fn transient_acquisition_meets_estimate() {
        use ape_netlist::SourceWaveform;
        use ape_spice::{transient, TranOptions};
        // Step the input while tracking; the output must acquire within the
        // estimated 1 % acquisition time (with 3x slack for slewing).
        let tech = Technology::default_1p2um();
        let sh = SampleHold::design(&tech, 2.0, 40e3, 10e-12).unwrap();
        let mut tb = sh.testbench_tracking(&tech).unwrap();
        // Replace the AC input with a step 2.3 -> 2.7 V.
        tb.remove_element("VIN").expect("testbench has VIN");
        let vin = tb.find_node("in").unwrap();
        let t_acq = sh.perf.delay_s.unwrap();
        tb.add_vsource(
            "VIN",
            vin,
            Circuit::GROUND,
            2.3,
            0.0,
            SourceWaveform::Pulse {
                v1: 2.3,
                v2: 2.7,
                delay: t_acq,
                rise: t_acq / 100.0,
                fall: t_acq / 100.0,
                width: 1.0,
                period: f64::INFINITY,
            },
        )
        .unwrap();
        let op = ape_spice::dc_operating_point(&tb, &tech).unwrap();
        let tr = transient(&tb, &tech, &op, TranOptions::new(t_acq / 60.0, 5.0 * t_acq)).unwrap();
        let out = tb.find_node("out").unwrap();
        // Final value: gain 2 around the 2.5 V reference -> 2.5 + 2*(2.7-2.5).
        let v_final = tr.voltage(tr.len() - 1, out);
        assert!((v_final - 2.9).abs() < 0.1, "acquired value {v_final}");
        let ts = ape_spice::measure::settling_time(&tr, out, v_final, 0.01)
            .expect("settles inside the window");
        assert!(
            ts - t_acq < 3.0 * t_acq,
            "acquisition {ts} vs estimate {t_acq}"
        );
    }
}
