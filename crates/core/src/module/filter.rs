//! Sallen-Key active filters: Butterworth low-pass and band-pass.
//!
//! These are the paper's `lpf` (4th-order Sallen-Key Butterworth, 1 kHz)
//! and `bpf` (2nd-order Sallen-Key, 1 kHz centre) design examples
//! (Table 5, Figure 3c/3d).
//!
//! The low-pass uses the equal-component gain-K biquad: each stage has
//! `ω₀ = 1/(RC)` and `Q = 1/(3−K)`, so a Butterworth response of order `2m`
//! is a cascade of `m` stages with the classic Butterworth Q values.
//!
//! The band-pass is the equal-component VCVS band-pass; with all R and C
//! equal its transfer is
//! `H(s) = K·(sRC) / ((sRC)² + (4−K)·sRC + 2)`, giving
//! `ω₀ = √2/(RC)`, `Q = √2/(4−K)` and centre gain `K/(4−K)`.

use super::{noninverting_into, R_FEEDBACK};
use crate::attrs::Performance;
use crate::basic::MirrorTopology;
use crate::error::ApeError;
use crate::graph::{with_thread_graph, Component, EstimationGraph};
use crate::opamp::{OpAmp, OpAmpNode, OpAmpSpec, OpAmpTopology};
use ape_mos::fingerprint::Fingerprint;
use ape_netlist::{Circuit, SourceWaveform, Technology};

/// Graph node for [`SallenKeyLowPass::design`].
#[derive(Debug, Clone, Copy)]
struct LowPassNode {
    fc: f64,
    order: usize,
    cl: f64,
}

impl Component for LowPassNode {
    type Output = SallenKeyLowPass;

    fn kind(&self) -> &'static str {
        "l4.filter_lp"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .f64(self.fc)
            .u64(self.order as u64)
            .f64(self.cl)
            .finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l3.opamp"]
    }

    fn calibrate(
        &self,
        out: &mut SallenKeyLowPass,
        cal: &ape_calib::Calibration,
    ) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l4.filter_lp",
            &[crate::calibrate::ln_or_zero(self.fc), self.order as f64],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<SallenKeyLowPass, ApeError> {
        SallenKeyLowPass::design_uncached(graph, self.fc, self.order, self.cl)
    }
}

/// Graph node for [`SallenKeyBandPass::design`].
#[derive(Debug, Clone, Copy)]
struct BandPassNode {
    f0: f64,
    q: f64,
    cl: f64,
}

impl Component for BandPassNode {
    type Output = SallenKeyBandPass;

    fn kind(&self) -> &'static str {
        "l4.filter_bp"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .f64(self.f0)
            .f64(self.q)
            .f64(self.cl)
            .finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l3.opamp"]
    }

    fn calibrate(
        &self,
        out: &mut SallenKeyBandPass,
        cal: &ape_calib::Calibration,
    ) -> Result<(), ApeError> {
        let vars = [crate::calibrate::ln_or_zero(self.f0), self.q];
        // The centre frequency is reported as a struct field, not a
        // `Performance` metric, so its correction is applied directly.
        out.f0 = crate::calibrate::scale_value(cal, "l4.filter_bp", "f0_hz", &vars, out.f0)?;
        crate::calibrate::apply_performance(cal, "l4.filter_bp", &vars, &mut out.perf)
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<SallenKeyBandPass, ApeError> {
        SallenKeyBandPass::design_uncached(graph, self.f0, self.q, self.cl)
    }
}

/// Butterworth stage Q values for an even order `n`, highest Q last.
///
/// # Errors
///
/// Returns `Err` for odd or zero orders (cascaded biquads need even order).
pub(crate) fn butterworth_qs(order: usize) -> Result<Vec<f64>, ApeError> {
    if order == 0 || !order.is_multiple_of(2) || order > 8 {
        return Err(ApeError::BadSpec {
            param: "order",
            message: format!("supported Butterworth orders are 2, 4, 6, 8; got {order}"),
        });
    }
    let n = order as f64;
    let mut qs: Vec<f64> = (1..=order / 2)
        .map(|k| {
            let ang = (2.0 * k as f64 - 1.0) * std::f64::consts::PI / (2.0 * n);
            1.0 / (2.0 * ang.sin())
        })
        .collect();
    qs.sort_by(f64::total_cmp);
    Ok(qs)
}

/// One sized Sallen-Key biquad.
#[derive(Debug, Clone)]
pub struct SkStage {
    /// Stage quality factor.
    pub q: f64,
    /// Stage gain `K = 3 − 1/Q`.
    pub k: f64,
    /// Stage resistor value, ohms.
    pub r: f64,
    /// Stage capacitor value, farads.
    pub c: f64,
    /// The stage op-amp.
    pub opamp: OpAmp,
}

/// A Butterworth Sallen-Key low-pass filter of even order.
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::module::SallenKeyLowPass;
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let lpf = SallenKeyLowPass::design(&tech, 1e3, 4, 10e-12)?;
/// assert_eq!(lpf.stages.len(), 2);
/// assert!(lpf.perf.dc_gain.unwrap() > 2.0); // ΠK of the gain-K stages
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SallenKeyLowPass {
    /// Cut-off (−3 dB) frequency, hertz.
    pub fc: f64,
    /// Filter order (even).
    pub order: usize,
    /// Cascaded biquad stages, lowest Q first.
    pub stages: Vec<SkStage>,
    /// Composed performance.
    pub perf: Performance,
}

impl SallenKeyLowPass {
    /// Designs an order-`order` Butterworth low-pass at `fc` driving `cl`.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for odd/unsupported order or bad `fc`.
    /// * Op-amp design errors.
    pub fn design(tech: &Technology, fc: f64, order: usize, cl: f64) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| g.evaluate(&LowPassNode { fc, order, cl }))
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(
        graph: &EstimationGraph,
        fc: f64,
        order: usize,
        cl: f64,
    ) -> Result<Self, ApeError> {
        if !(fc.is_finite() && fc > 0.0) {
            return Err(ApeError::BadSpec {
                param: "fc",
                message: format!("must be positive, got {fc}"),
            });
        }
        let qs = butterworth_qs(order)?;
        let r = R_FEEDBACK;
        let c = 1.0 / (2.0 * std::f64::consts::PI * fc * r);
        let mut stages = Vec::with_capacity(qs.len());
        let mut a_total = 1.0;
        let mut power = 0.0;
        let mut area = 0.0;
        for q in &qs {
            let k = 3.0 - 1.0 / q;
            let spec = OpAmpSpec {
                gain: 2000.0,
                ugf_hz: (100.0 * fc * k).max(1e5),
                area_max_m2: 1e-8,
                ibias: 2e-6,
                zout_ohm: Some(1e3),
                cl,
            };
            let opamp = graph.evaluate(&OpAmpNode {
                topology: OpAmpTopology::miller(MirrorTopology::Simple, true),
                spec,
            })?;
            let a_ol = opamp.perf.dc_gain.unwrap_or(2000.0);
            a_total *= k / (1.0 + k / a_ol);
            power += opamp.perf.power_w;
            area += opamp.perf.gate_area_m2;
            stages.push(SkStage {
                q: *q,
                k,
                r,
                c,
                opamp,
            });
        }
        // First-order GBW correction: each stage's finite loop bandwidth
        // pulls the corner slightly down.
        let gbw = stages
            .iter()
            .map(|s| s.opamp.perf.ugf_hz.unwrap_or(f64::INFINITY) / s.k)
            .fold(f64::INFINITY, f64::min);
        let fc_actual = fc / (1.0 + 2.0 * fc / gbw);
        let perf = Performance {
            dc_gain: Some(a_total),
            bw_hz: Some(fc_actual),
            power_w: power,
            gate_area_m2: area,
            ..Performance::default()
        };
        Ok(SallenKeyLowPass {
            fc,
            order,
            stages,
            perf,
        })
    }

    /// Frequency where the Butterworth magnitude is `db` below the passband.
    pub fn frequency_at_attenuation(&self, db: f64) -> f64 {
        let n = self.order as f64;
        let ratio = 10f64.powf(db / 10.0) - 1.0;
        self.perf.bw_hz.unwrap_or(self.fc) * ratio.powf(1.0 / (2.0 * n))
    }

    /// Emits the full transistor-level testbench: AC source, every biquad,
    /// output node `out`.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn testbench(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new("sk-lpf-tb");
        let vdd = ckt.node("vdd");
        let vref = ckt.node("vref");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        ckt.add_vdc("VREF", vref, Circuit::GROUND, tech.vdd / 2.0)?;
        let mut stage_in = ckt.node("in");
        ckt.add_vsource(
            "VIN",
            stage_in,
            Circuit::GROUND,
            tech.vdd / 2.0,
            1.0,
            SourceWaveform::Dc,
        )?;
        for (i, st) in self.stages.iter().enumerate() {
            let n1 = ckt.node(&format!("s{i}_n1"));
            let n2 = ckt.node(&format!("s{i}_n2"));
            let stage_out = if i == self.stages.len() - 1 {
                ckt.node("out")
            } else {
                ckt.node(&format!("s{i}_out"))
            };
            ckt.add_resistor(&format!("S{i}R1"), stage_in, n1, st.r)?;
            ckt.add_resistor(&format!("S{i}R2"), n1, n2, st.r)?;
            // Feedback capacitor to the stage output, shunt capacitor to
            // the AC-ground reference.
            ckt.add_capacitor(&format!("S{i}C1"), n1, stage_out, st.c)?;
            ckt.add_capacitor(&format!("S{i}C2"), n2, vref, st.c)?;
            noninverting_into(
                &mut ckt,
                tech,
                &st.opamp,
                &format!("X{i}"),
                n2,
                stage_out,
                vref,
                vdd,
                st.k,
            )?;
            stage_in = stage_out;
        }
        let out = ckt.node("out");
        ckt.add_capacitor("CL", out, Circuit::GROUND, 10e-12)?;
        Ok(ckt)
    }
}

/// A 2nd-order equal-component Sallen-Key band-pass filter.
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::module::SallenKeyBandPass;
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let bpf = SallenKeyBandPass::design(&tech, 1e3, 1.0, 10e-12)?;
/// assert!((bpf.perf.bw_hz.unwrap() - 1e3).abs() < 50.0); // BW = f0/Q
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SallenKeyBandPass {
    /// Centre frequency, hertz.
    pub f0: f64,
    /// Quality factor (`BW = f0/Q`).
    pub q: f64,
    /// Amplifier gain `K = 4 − √2/Q`.
    pub k: f64,
    /// Network resistor value, ohms.
    pub r: f64,
    /// Network capacitor value, farads.
    pub c: f64,
    /// The op-amp.
    pub opamp: OpAmp,
    /// Composed performance (`dc_gain` holds the centre-frequency gain).
    pub perf: Performance,
}

impl SallenKeyBandPass {
    /// Designs a band-pass at centre `f0` with quality factor `q`.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] when `q` requires `K` outside `[1, 4)`.
    /// * Op-amp design errors.
    pub fn design(tech: &Technology, f0: f64, q: f64, cl: f64) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| g.evaluate(&BandPassNode { f0, q, cl }))
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(
        graph: &EstimationGraph,
        f0: f64,
        q: f64,
        cl: f64,
    ) -> Result<Self, ApeError> {
        if !(f0.is_finite() && f0 > 0.0) {
            return Err(ApeError::BadSpec {
                param: "f0",
                message: format!("must be positive, got {f0}"),
            });
        }
        let k = 4.0 - std::f64::consts::SQRT_2 / q;
        if !(1.0..4.0).contains(&k) {
            return Err(ApeError::BadSpec {
                param: "q",
                message: format!("q = {q} maps to K = {k:.2}, outside the stable [1,4) range"),
            });
        }
        let r = R_FEEDBACK;
        // ω0 = √2/(RC) → C = √2/(ω0·R)
        let c = std::f64::consts::SQRT_2 / (2.0 * std::f64::consts::PI * f0 * r);
        let spec = OpAmpSpec {
            gain: 2000.0,
            ugf_hz: (100.0 * f0 * k).max(1e5),
            area_max_m2: 1e-8,
            ibias: 2e-6,
            zout_ohm: Some(1e3),
            cl,
        };
        let opamp = graph.evaluate(&OpAmpNode {
            topology: OpAmpTopology::miller(MirrorTopology::Simple, true),
            spec,
        })?;
        let a_ol = opamp.perf.dc_gain.unwrap_or(2000.0);
        let a0 = (k / (4.0 - k)) / (1.0 + k / a_ol);
        let perf = Performance {
            dc_gain: Some(a0),
            bw_hz: Some(f0 / q),
            ugf_hz: Some(f0), // centre frequency slot
            power_w: opamp.perf.power_w,
            gate_area_m2: opamp.perf.gate_area_m2,
            ..Performance::default()
        };
        Ok(SallenKeyBandPass {
            f0,
            q,
            k,
            r,
            c,
            opamp,
            perf,
        })
    }

    /// Emits the transistor-level testbench.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn testbench(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new("sk-bpf-tb");
        let vdd = ckt.node("vdd");
        let vref = ckt.node("vref");
        let vin = ckt.node("in");
        let n1 = ckt.node("n1");
        let n2 = ckt.node("n2");
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
        ckt.add_resistor("R1", vin, n1, self.r)?;
        ckt.add_capacitor("C2", n1, vref, self.c)?;
        ckt.add_capacitor("C1", n1, n2, self.c)?;
        ckt.add_resistor("R3", n2, vref, self.r)?;
        ckt.add_resistor("R2", n1, out, self.r)?;
        noninverting_into(
            &mut ckt,
            tech,
            &self.opamp,
            "X1",
            n2,
            out,
            vref,
            vdd,
            self.k,
        )?;
        ckt.add_capacitor("CL", out, Circuit::GROUND, 10e-12)?;
        Ok(ckt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_spice::{ac_sweep, dc_operating_point, decade_frequencies, measure};

    #[test]
    fn butterworth_q_tables() {
        let q2 = butterworth_qs(2).unwrap();
        assert!((q2[0] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        let q4 = butterworth_qs(4).unwrap();
        assert!((q4[0] - 0.5412).abs() < 1e-3);
        assert!((q4[1] - 1.3066).abs() < 1e-3);
        assert!(butterworth_qs(3).is_err());
        assert!(butterworth_qs(0).is_err());
    }

    #[test]
    fn lpf4_corner_and_gain_est_vs_sim() {
        let tech = Technology::default_1p2um();
        let lpf = SallenKeyLowPass::design(&tech, 1e3, 4, 10e-12).unwrap();
        let tb = lpf.testbench(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &decade_frequencies(10.0, 1e5, 15).unwrap()).unwrap();
        let g_sim = measure::dc_gain(&sweep, out).unwrap();
        let g_est = lpf.perf.dc_gain.unwrap();
        assert!(
            (g_sim - g_est).abs() / g_est < 0.12,
            "gain sim {g_sim} vs est {g_est}"
        );
        let f3_sim = measure::bandwidth_3db(&sweep, out).unwrap();
        assert!(
            (f3_sim - 1e3).abs() / 1e3 < 0.2,
            "f3db sim {f3_sim} vs 1 kHz design"
        );
    }

    #[test]
    fn lpf_rolls_off_at_80db_per_decade() {
        let tech = Technology::default_1p2um();
        let lpf = SallenKeyLowPass::design(&tech, 1e3, 4, 10e-12).unwrap();
        let tb = lpf.testbench(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &[5e3, 10e3]).unwrap();
        let m = sweep.magnitude(out);
        let drop_db = 20.0 * (m[0] / m[1]).log10();
        // 4th order → 24 dB/octave: from 5k to 10k expect ≈ 24 dB.
        assert!((drop_db - 24.0).abs() < 3.0, "octave drop {drop_db} dB");
    }

    #[test]
    fn attenuation_frequency_formula() {
        let tech = Technology::default_1p2um();
        let lpf = SallenKeyLowPass::design(&tech, 1e3, 4, 10e-12).unwrap();
        let f20 = lpf.frequency_at_attenuation(20.0);
        // 99^(1/8) ≈ 1.777
        assert!((f20 / lpf.perf.bw_hz.unwrap() - 1.777).abs() < 0.01);
    }

    #[test]
    fn bpf_peaks_at_center() {
        let tech = Technology::default_1p2um();
        let bpf = SallenKeyBandPass::design(&tech, 1e3, 1.0, 10e-12).unwrap();
        let tb = bpf.testbench(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &[100.0, 1e3, 10e3]).unwrap();
        let m = sweep.magnitude(out);
        assert!(m[1] > 3.0 * m[0], "peak {} vs low side {}", m[1], m[0]);
        assert!(m[1] > 3.0 * m[2], "peak {} vs high side {}", m[1], m[2]);
        let a_est = bpf.perf.dc_gain.unwrap();
        assert!(
            (m[1] - a_est).abs() / a_est < 0.25,
            "centre gain sim {} vs est {}",
            m[1],
            a_est
        );
    }

    #[test]
    fn bpf_bandwidth_tracks_q() {
        let tech = Technology::default_1p2um();
        let bpf = SallenKeyBandPass::design(&tech, 1e3, 1.0, 10e-12).unwrap();
        let tb = bpf.testbench(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(
            &tb,
            &tech,
            &op,
            &decade_frequencies(50.0, 20e3, 40).unwrap(),
        )
        .unwrap();
        let m = sweep.magnitude(out);
        let peak = m.iter().cloned().fold(0.0, f64::max);
        let target = peak / 2f64.sqrt();
        // Find the two -3 dB crossings around the peak.
        let mut lo = None;
        let mut hi = None;
        for i in 1..m.len() {
            if m[i - 1] < target && m[i] >= target {
                lo = Some(sweep.freqs[i]);
            }
            if m[i - 1] >= target && m[i] < target {
                hi = Some(sweep.freqs[i - 1]);
            }
        }
        let (lo, hi) = (lo.unwrap(), hi.unwrap());
        let bw = hi - lo;
        assert!((bw - 1e3).abs() / 1e3 < 0.35, "bandwidth {bw}");
    }

    #[test]
    fn rejects_bad_specs() {
        let tech = Technology::default_1p2um();
        assert!(SallenKeyLowPass::design(&tech, -1.0, 4, 1e-12).is_err());
        assert!(SallenKeyLowPass::design(&tech, 1e3, 5, 1e-12).is_err());
        // Q too small → K < 1.
        assert!(SallenKeyBandPass::design(&tech, 1e3, 0.3, 1e-12).is_err());
    }
}
