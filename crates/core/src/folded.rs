//! A second level-3 topology: the folded-cascode OTA.
//!
//! The paper stresses that the hierarchy "allows to easily add new
//! components to APE, making use of lower levels in the structure" (§6).
//! This module exercises that claim: a single-stage folded-cascode
//! operational transconductance amplifier built from the same level-1/2
//! primitives as the Miller two-stage, with its own composition equations:
//!
//! * `UGF = gm₁ / (2π·C_L)` — load-compensated, no Miller capacitor;
//! * `A = gm₁ / g_out` with both output paths cascoded:
//!   `g_out = gds_c·(gds_p+gds₁)/gm_c + gds_nc·gds_n/gm_nc`;
//! * `SR = I_fold / C_L`;
//! * phase margin set by the fold-node pole `gm_c / C_fold`, far above UGF.
//!
//! Topology (NMOS input):
//!
//! ```text
//!  VDD ──┬─────────────┬──────────
//!     MP1 ⊣ (I0+I1)  MP2 ⊣  gate VBCS
//!        x│            y│
//!  in+ ─M1┤  pair  M2├─ in-     fold nodes x,y
//!        x│            y│
//!     MC1 ⊣ (PMOS casc) MC2 ⊣   gate VBCP
//!        d│            out│
//!     MN1 ⊢ diode     MN2 ⊢    bottom mirror
//!  GND ──┴─────────────┴──────────
//! ```

use crate::attrs::Performance;
use crate::basic::{cards, vov_for_gm_id, L_BIAS};
use crate::error::ApeError;
use crate::graph::{with_thread_graph, Component, EstimationGraph};
use ape_mos::fingerprint::Fingerprint;
use ape_mos::sizing::{threshold, SizedMos};
use ape_netlist::{Circuit, MosPolarity, NodeId, SourceWaveform, Technology};

/// Estimation-graph node for a [`FoldedCascodeOta`] design.
#[derive(Debug, Clone, Copy)]
struct FoldedNode {
    spec: FoldedCascodeSpec,
}

impl Component for FoldedNode {
    type Output = FoldedCascodeOta;

    fn kind(&self) -> &'static str {
        "l3.folded"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .f64(self.spec.gain)
            .f64(self.spec.ugf_hz)
            .f64(self.spec.ibias)
            .f64(self.spec.cl)
            .finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l1.gm_id", "l1.id_vov"]
    }

    fn calibrate(
        &self,
        out: &mut FoldedCascodeOta,
        cal: &ape_calib::Calibration,
    ) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l3.folded",
            &[
                crate::calibrate::ln_or_zero(self.spec.gain),
                crate::calibrate::ln_or_zero(self.spec.ugf_hz),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<FoldedCascodeOta, ApeError> {
        FoldedCascodeOta::design_uncached(graph, self.spec)
    }
}

/// Specification for a folded-cascode OTA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldedCascodeSpec {
    /// Required DC gain magnitude.
    pub gain: f64,
    /// Required unity-gain frequency, hertz.
    pub ugf_hz: f64,
    /// Reference bias current, amperes.
    pub ibias: f64,
    /// Load capacitance, farads (also the compensation).
    pub cl: f64,
}

/// A sized folded-cascode OTA.
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::folded::{FoldedCascodeOta, FoldedCascodeSpec};
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let spec = FoldedCascodeSpec { gain: 2000.0, ugf_hz: 10e6, ibias: 10e-6, cl: 2e-12 };
/// let ota = FoldedCascodeOta::design(&tech, spec)?;
/// assert!(ota.perf.dc_gain.unwrap() >= 2000.0 * 0.7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FoldedCascodeOta {
    /// The specification.
    pub spec: FoldedCascodeSpec,
    /// Input pair device.
    pub m_pair: SizedMos,
    /// Tail current sink (carries `2·I0`).
    pub m_tail: SizedMos,
    /// Bias reference diode.
    pub mb1: SizedMos,
    /// PMOS current sources (carry `I0 + I1`).
    pub m_src: SizedMos,
    /// PMOS cascode devices (carry `I1`).
    pub m_casc: SizedMos,
    /// Bottom mirror devices (carry `I1`).
    pub m_mirror: SizedMos,
    /// Bottom NMOS cascode devices (carry `I1`).
    pub m_mcasc: SizedMos,
    /// Pair-side current, amperes.
    pub i0: f64,
    /// Fold-branch current, amperes.
    pub i1: f64,
    /// PMOS source gate bias, volts.
    pub vb_src: f64,
    /// PMOS cascode gate bias, volts.
    pub vb_casc: f64,
    /// Bottom NMOS cascode gate bias, volts.
    pub vb_ncasc: f64,
    /// Composed performance attributes.
    pub perf: Performance,
}

impl FoldedCascodeOta {
    /// Sizes a folded-cascode OTA for `spec`.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for non-positive requirements.
    /// * [`ApeError::Infeasible`] when the gain or gm allocation fails.
    pub fn design(tech: &Technology, spec: FoldedCascodeSpec) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| g.evaluate(&FoldedNode { spec }))
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(graph: &EstimationGraph, spec: FoldedCascodeSpec) -> Result<Self, ApeError> {
        let tech = graph.technology();
        let c = cards(tech)?;
        if !(spec.gain > 1.0 && spec.ugf_hz > 0.0 && spec.ibias > 0.0 && spec.cl > 0.0)
            || !(spec.gain.is_finite()
                && spec.ugf_hz.is_finite()
                && spec.ibias.is_finite()
                && spec.cl.is_finite())
        {
            return Err(ApeError::BadSpec {
                param: "spec",
                message: format!("{spec:?} has a non-positive or non-finite field"),
            });
        }
        // Load compensation with 15 % UGF margin.
        let gm1 = 2.0 * std::f64::consts::PI * 1.15 * spec.ugf_hz * spec.cl;
        let vov = 0.25;
        let i0 = gm1 * vov / 2.0;
        vov_for_gm_id("FoldedCascode", gm1, i0)?;
        let i1 = i0;

        // Both output paths are cascoded, so moderate channel lengths give
        // gain in the thousands and the bottom mirror stays fast (its
        // devices are small → high mirror pole, which protects the UGF).
        let l_mirror = crate::basic::length_for_min_width(
            crate::basic::aspect_for_id_vov(c.n, i1, vov),
            L_BIAS,
            tech,
        );

        // Devices. Pair: gm1 at i0 (fold nodes sit ~1 vgs_p below VDD).
        let l_pair = crate::basic::length_for_min_width(
            crate::basic::aspect_for_gm_id(c.n, gm1, i0),
            tech.lmin.max(1.2e-6),
            tech,
        );
        let m_pair = graph.size_gm_id(false, gm1, i0, l_pair, tech.vdd / 2.0, 1.0)?;
        let l_bias = |id: f64, card: &ape_netlist::MosModelCard| {
            crate::basic::length_for_min_width(
                crate::basic::aspect_for_id_vov(card, id, 0.35),
                L_BIAS,
                tech,
            )
        };
        let mb1 = graph.size_id_vov(false, spec.ibias, 0.35, l_bias(spec.ibias, c.n), 1.1, 0.0)?;
        let m_tail = graph.size_id_vov(false, 2.0 * i0, 0.35, l_bias(2.0 * i0, c.n), 1.0, 0.0)?;
        // PMOS sources carry i0+i1; long-ish channel for output resistance.
        let m_src = graph.size_id_vov(
            true,
            i0 + i1,
            0.35,
            l_bias(i0 + i1, c.p).max(2.0 * L_BIAS),
            1.0,
            0.0,
        )?;
        let m_casc = graph.size_id_vov(true, i1, 0.3, l_bias(i1, c.p), 1.0, 0.5)?;
        let m_mirror = graph.size_id_vov(false, i1, vov, l_mirror, 0.3, 0.0)?;
        let m_mcasc = graph.size_id_vov(
            false,
            i1,
            0.3,
            crate::basic::length_for_min_width(
                crate::basic::aspect_for_id_vov(c.n, i1, 0.3),
                L_BIAS,
                tech,
            ),
            1.0,
            0.3,
        )?;

        // Gate biases.
        let vth_p = threshold(c.p, 0.0);
        let vb_src = tech.vdd - vth_p - 0.35;
        let vb_casc = tech.vdd - 2.0 * (vth_p + 0.35);
        let vb_ncasc = threshold(c.n, 0.3) + 0.3 + 0.3;

        // Composition: both paths cascoded.
        let g_up = m_casc.gds * (m_src.gds + m_pair.gds) / m_casc.gm;
        let g_down = m_mcasc.gds * m_mirror.gds / m_mcasc.gm;
        let g_out = g_down + g_up;
        let a = gm1 / g_out;
        let ugf = gm1 / (2.0 * std::f64::consts::PI * spec.cl);
        let power = tech.vdd * (spec.ibias + 2.0 * (i0 + i1));
        let area = 2.0 * m_pair.gate_area()
            + m_tail.gate_area()
            + mb1.gate_area()
            + 2.0 * m_src.gate_area()
            + 2.0 * m_casc.gate_area()
            + 2.0 * m_mirror.gate_area()
            + 2.0 * m_mcasc.gate_area();
        let perf = Performance {
            dc_gain: Some(a),
            ugf_hz: Some(ugf),
            bw_hz: Some(ugf / a),
            power_w: power,
            gate_area_m2: area,
            zout_ohm: Some(1.0 / g_out),
            slew_v_per_s: Some(i1 / spec.cl),
            ibias_a: Some(spec.ibias),
            ..Performance::default()
        };
        Ok(FoldedCascodeOta {
            spec,
            m_pair,
            m_tail,
            mb1,
            m_src,
            m_casc,
            m_mirror,
            m_mcasc,
            i0,
            i1,
            vb_src,
            vb_casc,
            vb_ncasc,
            perf,
        })
    }

    /// Emits the OTA into `ckt` with prefixed element names. Gate biases for
    /// the PMOS branch come from ideal sources added per instance.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    #[allow(clippy::too_many_arguments)]
    pub fn build_into(
        &self,
        ckt: &mut Circuit,
        tech: &Technology,
        prefix: &str,
        inp: NodeId,
        inn: NodeId,
        out: NodeId,
        vdd: NodeId,
    ) -> Result<(), ApeError> {
        let n_name = tech.nmos().map(|c| c.name.clone()).unwrap_or_default();
        let p_name = tech.pmos().map(|c| c.name.clone()).unwrap_or_default();
        let gnd = Circuit::GROUND;
        let bias = ckt.fresh_node(&format!("{prefix}_bias"));
        let tail = ckt.fresh_node(&format!("{prefix}_tail"));
        let x = ckt.fresh_node(&format!("{prefix}_x"));
        let y = ckt.fresh_node(&format!("{prefix}_y"));
        let d = ckt.fresh_node(&format!("{prefix}_d"));
        let a1 = ckt.fresh_node(&format!("{prefix}_a1"));
        let a2 = ckt.fresh_node(&format!("{prefix}_a2"));
        let vbs = ckt.fresh_node(&format!("{prefix}_vbs"));
        let vbc = ckt.fresh_node(&format!("{prefix}_vbc"));
        let vbn = ckt.fresh_node(&format!("{prefix}_vbn"));

        ckt.add_idc(&format!("{prefix}.IB"), vdd, bias, self.spec.ibias)?;
        ckt.add_vdc(&format!("{prefix}.VBS"), vbs, gnd, self.vb_src)?;
        ckt.add_vdc(&format!("{prefix}.VBC"), vbc, gnd, self.vb_casc)?;
        ckt.add_vdc(&format!("{prefix}.VBN"), vbn, gnd, self.vb_ncasc)?;
        ckt.add_mosfet(
            &format!("{prefix}.MB1"),
            bias,
            bias,
            gnd,
            gnd,
            MosPolarity::Nmos,
            &n_name,
            self.mb1.geometry,
        )?;
        ckt.add_mosfet(
            &format!("{prefix}.MTAIL"),
            tail,
            bias,
            gnd,
            gnd,
            MosPolarity::Nmos,
            &n_name,
            self.m_tail.geometry,
        )?;
        // Input pair folded at x and y. The x side feeds the bottom diode,
        // whose mirror action inverts once more — so the x-side gate (M1)
        // is the overall non-inverting input.
        ckt.add_mosfet(
            &format!("{prefix}.M1"),
            x,
            inp,
            tail,
            gnd,
            MosPolarity::Nmos,
            &n_name,
            self.m_pair.geometry,
        )?;
        ckt.add_mosfet(
            &format!("{prefix}.M2"),
            y,
            inn,
            tail,
            gnd,
            MosPolarity::Nmos,
            &n_name,
            self.m_pair.geometry,
        )?;
        // PMOS current sources into the fold nodes.
        ckt.add_mosfet(
            &format!("{prefix}.MP1"),
            x,
            vbs,
            vdd,
            vdd,
            MosPolarity::Pmos,
            &p_name,
            self.m_src.geometry,
        )?;
        ckt.add_mosfet(
            &format!("{prefix}.MP2"),
            y,
            vbs,
            vdd,
            vdd,
            MosPolarity::Pmos,
            &p_name,
            self.m_src.geometry,
        )?;
        // PMOS cascodes down to the mirror.
        ckt.add_mosfet(
            &format!("{prefix}.MC1"),
            d,
            vbc,
            x,
            vdd,
            MosPolarity::Pmos,
            &p_name,
            self.m_casc.geometry,
        )?;
        ckt.add_mosfet(
            &format!("{prefix}.MC2"),
            out,
            vbc,
            y,
            vdd,
            MosPolarity::Pmos,
            &p_name,
            self.m_casc.geometry,
        )?;
        // Bottom wide-swing cascoded mirror: diode connection at d drives
        // the bottom gates; VBN biases the cascodes.
        ckt.add_mosfet(
            &format!("{prefix}.MNC1"),
            d,
            vbn,
            a1,
            gnd,
            MosPolarity::Nmos,
            &n_name,
            self.m_mcasc.geometry,
        )?;
        ckt.add_mosfet(
            &format!("{prefix}.MNC2"),
            out,
            vbn,
            a2,
            gnd,
            MosPolarity::Nmos,
            &n_name,
            self.m_mcasc.geometry,
        )?;
        ckt.add_mosfet(
            &format!("{prefix}.MN1"),
            a1,
            d,
            gnd,
            gnd,
            MosPolarity::Nmos,
            &n_name,
            self.m_mirror.geometry,
        )?;
        ckt.add_mosfet(
            &format!("{prefix}.MN2"),
            a2,
            d,
            gnd,
            gnd,
            MosPolarity::Nmos,
            &n_name,
            self.m_mirror.geometry,
        )?;
        Ok(())
    }

    /// Open-loop testbench with differential AC drive and the load cap.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn testbench_open_loop(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new("folded-cascode-tb");
        let vdd = ckt.node("vdd");
        let inp = ckt.node("inp");
        let inn = ckt.node("inn");
        let out = ckt.node("out");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        let vcm = 0.5 * tech.vdd;
        ckt.add_vsource("VINP", inp, Circuit::GROUND, vcm, 0.5, SourceWaveform::Dc)?;
        ckt.add_vsource("VINN", inn, Circuit::GROUND, vcm, -0.5, SourceWaveform::Dc)?;
        self.build_into(&mut ckt, tech, "X1", inp, inn, out, vdd)?;
        ckt.add_capacitor("CL", out, Circuit::GROUND, self.spec.cl)?;
        Ok(ckt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_spice::{ac_sweep, dc_operating_point, decade_frequencies, measure};

    fn spec() -> FoldedCascodeSpec {
        FoldedCascodeSpec {
            gain: 2000.0,
            ugf_hz: 10e6,
            ibias: 10e-6,
            cl: 2e-12,
        }
    }

    #[test]
    fn estimates_meet_spec() {
        let tech = Technology::default_1p2um();
        let ota = FoldedCascodeOta::design(&tech, spec()).unwrap();
        assert!(ota.perf.dc_gain.unwrap() >= 2000.0 * 0.7);
        let u = ota.perf.ugf_hz.unwrap();
        assert!((u - 10e6).abs() / 10e6 < 0.25, "est ugf {u}");
    }

    #[test]
    fn open_loop_sim_tracks_estimate() {
        let tech = Technology::default_1p2um();
        let ota = FoldedCascodeOta::design(&tech, spec()).unwrap();
        let tb = ota.testbench_open_loop(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &decade_frequencies(100.0, 2e9, 8).unwrap()).unwrap();
        let a_sim = measure::dc_gain(&sweep, out).unwrap();
        let a_est = ota.perf.dc_gain.unwrap();
        assert!(
            (a_sim - a_est).abs() / a_est < 0.7,
            "gain sim {a_sim} vs est {a_est}"
        );
        let u_sim = measure::unity_gain_frequency(&sweep, out).unwrap();
        let u_est = ota.perf.ugf_hz.unwrap();
        assert!(
            (u_sim - u_est).abs() / u_est < 0.5,
            "ugf sim {u_sim} vs est {u_est}"
        );
        // The single-stage OTA is load-compensated: phase margin is high
        // but physical (a polarity bug would show up as PM ≈ 260°).
        let pm = measure::phase_margin(&sweep, out).unwrap();
        assert!((55.0..115.0).contains(&pm), "pm {pm}");
    }

    #[test]
    fn higher_gain_than_two_stage_at_same_power_class() {
        use crate::basic::MirrorTopology;
        use crate::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
        let tech = Technology::default_1p2um();
        let ota = FoldedCascodeOta::design(&tech, spec()).unwrap();
        let two_stage = OpAmp::design(
            &tech,
            OpAmpTopology::miller(MirrorTopology::Simple, false),
            OpAmpSpec {
                gain: 2000.0,
                ugf_hz: 10e6,
                area_max_m2: 1e-8,
                ibias: 10e-6,
                zout_ohm: None,
                cl: 2e-12,
            },
        )
        .unwrap();
        // The cascode reaches its gain in one stage; its output impedance is
        // far higher than the two-stage's second stage.
        assert!(ota.perf.zout_ohm.unwrap() > 5.0 * two_stage.perf.zout_ohm.unwrap());
    }

    #[test]
    fn rejects_bad_specs() {
        let tech = Technology::default_1p2um();
        let mut s = spec();
        s.cl = 0.0;
        assert!(FoldedCascodeOta::design(&tech, s).is_err());
        let mut s = spec();
        s.gain = f64::NAN;
        assert!(FoldedCascodeOta::design(&tech, s).is_err());
    }
}
