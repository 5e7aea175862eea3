//! Differential amplifiers: `DiffNMOS` and `DiffCMOS`.
//!
//! Both use an NMOS input pair; they differ in the load:
//!
//! * [`DiffTopology::DiodeLoad`] (`DiffNMOS`) — diode-connected PMOS loads,
//!   gain `−gm_i/gm_l` (modest, set by a transconductance ratio), fully
//!   differential outputs;
//! * [`DiffTopology::MirrorLoad`] (`DiffCMOS`) — PMOS current-mirror load
//!   folding the signal to a single-ended output, realising the full
//!   `Adm ≈ gm_i/(gd_l + gd_i)` of paper equation (5). This topology
//!   doubles as the paper's differential-to-single-ended converter.
//!
//! Paper equations (6)–(7) give the common-mode gain and CMRR, composed
//! here from the sized devices.

use super::{cards, length_for_gain, vov_for_gm_id, L_BIAS};
use crate::attrs::Performance;
use crate::error::ApeError;
use crate::graph::{with_thread_graph, Component, EstimationGraph};
use ape_mos::fingerprint::Fingerprint;
use ape_mos::sizing::{threshold, SizedMos};
use ape_netlist::{Circuit, MosPolarity, SourceWaveform, Technology};

/// Load topology of the differential pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiffTopology {
    /// Diode-connected PMOS loads (`DiffNMOS`): gain `−gm_i/gm_l`, ratio-set.
    DiodeLoad,
    /// PMOS current-mirror load (`DiffCMOS`): single-ended output, gain
    /// `gm_i/(gd_i+gd_l)` — also the differential-to-single-ended converter.
    MirrorLoad,
}

impl DiffTopology {
    /// Stable one-byte tag for estimation-graph fingerprints.
    pub(crate) fn fingerprint_tag(&self) -> u8 {
        match self {
            DiffTopology::DiodeLoad => 0,
            DiffTopology::MirrorLoad => 1,
        }
    }
}

/// Estimation-graph node for a [`DiffPair`] design. The op-amp attempt
/// evaluates it directly in its own graph.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DiffPairNode {
    pub(crate) topology: DiffTopology,
    pub(crate) adm: f64,
    pub(crate) itail: f64,
    pub(crate) cl: f64,
    pub(crate) vov_i_sel: f64,
}

impl Component for DiffPairNode {
    type Output = DiffPair;

    fn kind(&self) -> &'static str {
        "l2.diffpair"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .u8(self.topology.fingerprint_tag())
            .f64(self.adm)
            .f64(self.itail)
            .f64(self.cl)
            .f64(self.vov_i_sel)
            .finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l1.gm_id", "l1.id_vov"]
    }

    fn calibrate(&self, out: &mut DiffPair, cal: &ape_calib::Calibration) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l2.diffpair",
            &[
                crate::calibrate::ln_or_zero(self.adm),
                crate::calibrate::ln_or_zero(self.itail),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<DiffPair, ApeError> {
        DiffPair::design_uncached(
            graph,
            self.topology,
            self.adm,
            self.itail,
            self.cl,
            self.vov_i_sel,
        )
    }
}

impl std::fmt::Display for DiffTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffTopology::DiodeLoad => write!(f, "DiffNMOS"),
            DiffTopology::MirrorLoad => write!(f, "DiffCMOS"),
        }
    }
}

/// A sized differential amplifier.
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::basic::{DiffPair, DiffTopology};
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let pair = DiffPair::design(&tech, DiffTopology::MirrorLoad, 1000.0, 1e-6, 1e-12)?;
/// assert!(pair.perf.dc_gain.unwrap() > 500.0);
/// assert!(pair.perf.cmrr_db.unwrap() > 60.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DiffPair {
    /// Load topology.
    pub topology: DiffTopology,
    /// Requested differential gain magnitude.
    pub adm: f64,
    /// Tail current, amperes.
    pub itail: f64,
    /// Load capacitance, farads.
    pub cl: f64,
    /// Input devices (each carries `itail/2`).
    pub input: SizedMos,
    /// Load devices.
    pub load: SizedMos,
    /// Input common-mode bias, volts.
    pub vcm: f64,
    /// Tail-node conductance assumed for CMRR composition, siemens.
    pub gtail: f64,
    /// Composed performance attributes.
    pub perf: Performance,
}

impl DiffPair {
    /// Sizes a differential amplifier for differential gain magnitude `adm`
    /// at tail current `itail`, driving `cl` single-ended.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for non-positive gain or current.
    /// * [`ApeError::Infeasible`] when `adm` needs more gm than half the
    ///   tail current can deliver, or exceeds the diode-load topology reach.
    pub fn design(
        tech: &Technology,
        topology: DiffTopology,
        adm: f64,
        itail: f64,
        cl: f64,
    ) -> Result<Self, ApeError> {
        Self::design_with_overdrive(tech, topology, adm, itail, cl, 0.25)
    }

    /// Like [`DiffPair::design`] with an explicit input-pair overdrive for
    /// the mirror-loaded topology (the op-amp level trades overdrive for
    /// area under tight budgets). The diode-load topology sets its own
    /// overdrives from the gain ratio and ignores `vov_i`.
    ///
    /// # Errors
    ///
    /// Same as [`DiffPair::design`].
    pub fn design_with_overdrive(
        tech: &Technology,
        topology: DiffTopology,
        adm: f64,
        itail: f64,
        cl: f64,
        vov_i_sel: f64,
    ) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| {
            g.evaluate(&DiffPairNode {
                topology,
                adm,
                itail,
                cl,
                vov_i_sel,
            })
        })
    }

    /// The node's compute body behind
    /// [`design_with_overdrive`](Self::design_with_overdrive): runs on a
    /// memo miss and sizes every device in `graph`.
    fn design_uncached(
        graph: &EstimationGraph,
        topology: DiffTopology,
        adm: f64,
        itail: f64,
        cl: f64,
        vov_i_sel: f64,
    ) -> Result<Self, ApeError> {
        let tech = graph.technology();
        let c = cards(tech)?;
        if !(adm.is_finite() && adm > 1.0) {
            return Err(ApeError::BadSpec {
                param: "adm",
                message: format!("need |Adm| > 1, got {adm}"),
            });
        }
        if !(itail.is_finite() && itail > 0.0) {
            return Err(ApeError::BadSpec {
                param: "itail",
                message: format!("must be positive, got {itail}"),
            });
        }
        let id = itail / 2.0;
        let vcm = 0.5 * tech.vdd;

        let (input, load, a_est) = match topology {
            DiffTopology::DiodeLoad => {
                // The load gm must sit adm× below the input gm, so push the
                // input toward its weak-inversion cap and derive the load.
                let gm_i = (2.0 * id / 0.12).min(0.8 * super::gm_max(id));
                vov_for_gm_id("DiffNMOS", gm_i, id)?;
                let gm_l = gm_i / adm;
                let vov_l = 2.0 * id / gm_l;
                if vov_l > tech.vdd - 1.5 {
                    return Err(ApeError::Infeasible {
                        component: "DiffNMOS",
                        message: format!(
                            "gain {adm} needs a diode-load overdrive of {vov_l:.2} V; \
                             no headroom — use the mirror-loaded topology"
                        ),
                    });
                }
                // A weak load wants a tiny aspect ratio; realise it with a
                // long channel at minimum width.
                let aspect = gm_l * gm_l / (2.0 * c.p.kp * id);
                let l_load = (tech.wmin / aspect).clamp(L_BIAS, 60e-6);
                let vgs_guess = threshold(c.p, 0.0) + vov_l;
                let mut load = graph.size_gm_id(true, gm_l, id, l_load, vgs_guess, 0.0)?;
                load = graph.size_gm_id(true, gm_l, id, l_load, load.vgs.abs(), 0.0)?;
                if load.geometry.w < 0.4 * tech.wmin {
                    return Err(ApeError::Infeasible {
                        component: "DiffNMOS",
                        message: format!(
                            "gain {adm} at {itail:.1e} A needs an unrealisably weak \
                             load (W = {:.2e} m); use the mirror-loaded topology",
                            load.geometry.w
                        ),
                    });
                }
                let vout_q = tech.vdd - load.vgs.abs();
                let input =
                    graph.size_gm_id(false, gm_i, id, L_BIAS, (vout_q - 1.2).max(0.3), 1.2)?;
                let a = input.gm / (load.gm + input.gds + load.gds);
                (input, load, a)
            }
            DiffTopology::MirrorLoad => {
                // Mirror load: Adm = gm_i/(gds_i+gds_l). Choose (vov, L);
                // stretch L so low currents keep manufacturable widths.
                let vov_i = vov_i_sel.clamp(0.05, 1.0);
                let gm_i = 2.0 * id / vov_i;
                vov_for_gm_id("DiffCMOS", gm_i, id)?;
                let lam_sum = c.n.lambda + c.p.lambda;
                let l_gain = length_for_gain(adm, vov_i, lam_sum, tech);
                let l = super::length_for_min_width(
                    super::aspect_for_gm_id(c.n, gm_i, id),
                    l_gain,
                    tech,
                );
                let l_load =
                    super::length_for_min_width(super::aspect_for_id_vov(c.p, id, 0.35), l, tech);
                let input = graph.size_gm_id(false, gm_i, id, l, vcm - 1.2, 1.2)?;
                let load = graph.size_id_vov(true, id, 0.35, l_load, 1.0, 0.0)?;
                if input.geometry.w < 0.4 * tech.wmin || load.geometry.w < 0.4 * tech.wmin {
                    return Err(ApeError::Infeasible {
                        component: "DiffCMOS",
                        message: format!(
                            "tail current {itail:.1e} A needs sub-minimum widths                              (input W = {:.2e} m) even at maximum channel length",
                            input.geometry.w
                        ),
                    });
                }
                let a = input.gm / (input.gds + load.gds);
                (input, load, a)
            }
        };

        // Tail conductance: assume the tail is a simple mirror at the same
        // current (the op-amp level replaces this with the real bias network).
        let l_tail =
            super::length_for_min_width(super::aspect_for_id_vov(c.n, itail, 0.35), L_BIAS, tech);
        let tail_dev = graph.size_id_vov(false, itail, 0.35, l_tail, 1.0, 0.0)?;
        let gtail = tail_dev.gds;

        // Paper eq (6): Acm ≈ g0·gdi / (2·gml·(gdl+gdi)); eq (7):
        // CMRR ≈ 2·gmi·gml/(g0·gdi).
        let cmrr = 2.0 * input.gm * load.gm / (gtail * input.gds);
        let cmrr_db = 20.0 * cmrr.abs().max(1.0).log10();

        let c_par = input.caps.cdb + load.caps.cdb + load.caps.cgd;
        let c_tot = cl + c_par;
        let gout = match topology {
            DiffTopology::DiodeLoad => load.gm + input.gds + load.gds,
            DiffTopology::MirrorLoad => input.gds + load.gds,
        };
        let bw = gout / (2.0 * std::f64::consts::PI * c_tot);
        let signed_gain = match topology {
            DiffTopology::DiodeLoad => -a_est,
            DiffTopology::MirrorLoad => a_est,
        };
        let perf = Performance {
            dc_gain: Some(signed_gain),
            ugf_hz: Some(input.gm / (2.0 * std::f64::consts::PI * c_tot)),
            bw_hz: Some(bw),
            // Standalone component power counts the mirror reference branch
            // plus the tail branch, as the testbench realises them.
            power_w: tech.vdd * 2.0 * itail,
            gate_area_m2: 2.0 * input.gate_area() + 2.0 * load.gate_area(),
            zout_ohm: Some(1.0 / gout),
            cmrr_db: Some(cmrr_db),
            ibias_a: Some(itail),
            slew_v_per_s: Some(itail / c_tot),
            ..Performance::default()
        };
        Ok(DiffPair {
            topology,
            adm,
            itail,
            cl,
            input,
            load,
            vcm,
            gtail,
            perf,
        })
    }

    /// Emits a testbench with a mirror tail, differential AC drive
    /// (`VINP` carries +½, `VINN` −½), output node `out`.
    ///
    /// # Errors
    ///
    /// Returns an error when the technology lacks device cards or the tail
    /// device cannot be sized for this pair's bias.
    pub fn testbench(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        self.testbench_mode(tech, false)
    }

    /// Like [`DiffPair::testbench`] but driving both inputs with the same
    /// AC phase, for common-mode gain measurement.
    ///
    /// # Errors
    ///
    /// See [`DiffPair::testbench`].
    pub fn testbench_common_mode(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        self.testbench_mode(tech, true)
    }

    fn testbench_mode(&self, tech: &Technology, common_mode: bool) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new(&format!("{}-tb", self.topology));
        let vdd = ckt.node("vdd");
        let inp = ckt.node("inp");
        let inn = ckt.node("inn");
        let out = ckt.node("out");
        let outb = ckt.node("outb");
        let tail = ckt.node("tail");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        let (acp, acn) = if common_mode { (1.0, 1.0) } else { (0.5, -0.5) };
        ckt.add_vsource(
            "VINP",
            inp,
            Circuit::GROUND,
            self.vcm,
            acp,
            SourceWaveform::Dc,
        )?;
        ckt.add_vsource(
            "VINN",
            inn,
            Circuit::GROUND,
            self.vcm,
            acn,
            SourceWaveform::Dc,
        )?;
        // Real tail device biased by an ideal mirror reference, so the
        // common-mode rejection is finite as the estimate assumes.
        let bias = ckt.node("bias");
        ckt.add_idc("IBIAS", vdd, bias, self.itail)?;
        let n_name = tech.nmos().map(|c| c.name.clone()).unwrap_or_default();
        let p_name = tech.pmos().map(|c| c.name.clone()).unwrap_or_default();
        // Tail mirror (same geometry both sides).
        let c = cards(tech)?;
        let l_tail = super::length_for_min_width(
            super::aspect_for_id_vov(c.n, self.itail, 0.35),
            L_BIAS,
            tech,
        );
        // The testbench sizes its tail device outside any graph node.
        let tail_dev = with_thread_graph(tech, |g| {
            g.size_id_vov(false, self.itail, 0.35, l_tail, 1.0, 0.0)
        })?;
        ckt.add_mosfet(
            "MTREF",
            bias,
            bias,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            &n_name,
            tail_dev.geometry,
        )?;
        ckt.add_mosfet(
            "MTAIL",
            tail,
            bias,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            &n_name,
            tail_dev.geometry,
        )?;
        // Input pair: M1 (inp → outb side), M2 (inn → out side).
        ckt.add_mosfet(
            "M1",
            outb,
            inp,
            tail,
            Circuit::GROUND,
            MosPolarity::Nmos,
            &n_name,
            self.input.geometry,
        )?;
        ckt.add_mosfet(
            "M2",
            out,
            inn,
            tail,
            Circuit::GROUND,
            MosPolarity::Nmos,
            &n_name,
            self.input.geometry,
        )?;
        match self.topology {
            DiffTopology::DiodeLoad => {
                for (name, node) in [("ML1", outb), ("ML2", out)] {
                    ckt.add_mosfet(
                        name,
                        node,
                        node,
                        vdd,
                        vdd,
                        MosPolarity::Pmos,
                        &p_name,
                        self.load.geometry,
                    )?;
                }
            }
            DiffTopology::MirrorLoad => {
                ckt.add_mosfet(
                    "ML1",
                    outb,
                    outb,
                    vdd,
                    vdd,
                    MosPolarity::Pmos,
                    &p_name,
                    self.load.geometry,
                )?;
                ckt.add_mosfet(
                    "ML2",
                    out,
                    outb,
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
            // A fully differential pair needs balanced loading, or the
            // unloaded side dominates the high-frequency response.
            if self.topology == DiffTopology::DiodeLoad {
                ckt.add_capacitor("CLB", outb, Circuit::GROUND, self.cl)?;
            }
        }
        Ok(ckt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_spice::{ac_sweep, dc_operating_point, measure};

    fn sim_adm(pair: &DiffPair, tech: &Technology) -> f64 {
        let tb = pair.testbench(tech).unwrap();
        let op = dc_operating_point(&tb, tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, tech, &op, &[10.0]).unwrap();
        measure::dc_gain(&sweep, out).unwrap()
    }

    #[test]
    fn diff_nmos_gain_est_vs_sim() {
        let tech = Technology::default_1p2um();
        let pair = DiffPair::design(&tech, DiffTopology::DiodeLoad, 10.0, 1e-6, 1e-12).unwrap();
        // The diode-load pair is fully differential: the estimate is the
        // differential-in → differential-out gain, so measure out − outb.
        let tb = pair.testbench(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let outb = tb.find_node("outb").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &[10.0]).unwrap();
        let a_sim = (sweep.voltage(0, out) - sweep.voltage(0, outb)).norm();
        let a_est = pair.perf.dc_gain.unwrap().abs();
        assert!(
            (a_sim - a_est).abs() / a_est < 0.35,
            "sim {a_sim} vs est {a_est}"
        );
    }

    #[test]
    fn diff_cmos_high_gain() {
        let tech = Technology::default_1p2um();
        let pair = DiffPair::design(&tech, DiffTopology::MirrorLoad, 1000.0, 1e-6, 1e-12).unwrap();
        let a_sim = sim_adm(&pair, &tech);
        let a_est = pair.perf.dc_gain.unwrap();
        assert!(a_sim > 300.0, "sim gain {a_sim} too low");
        assert!(
            (a_sim - a_est).abs() / a_est < 0.6,
            "sim {a_sim} vs est {a_est}"
        );
    }

    #[test]
    fn cmrr_positive_and_large() {
        let tech = Technology::default_1p2um();
        let pair = DiffPair::design(&tech, DiffTopology::MirrorLoad, 500.0, 2e-6, 1e-12).unwrap();
        let tb_dm = pair.testbench(&tech).unwrap();
        let tb_cm = pair.testbench_common_mode(&tech).unwrap();
        let out = tb_dm.find_node("out").unwrap();
        let op_dm = dc_operating_point(&tb_dm, &tech).unwrap();
        let op_cm = dc_operating_point(&tb_cm, &tech).unwrap();
        let adm =
            measure::dc_gain(&ac_sweep(&tb_dm, &tech, &op_dm, &[10.0]).unwrap(), out).unwrap();
        let acm =
            measure::dc_gain(&ac_sweep(&tb_cm, &tech, &op_cm, &[10.0]).unwrap(), out).unwrap();
        let cmrr_sim_db = 20.0 * (adm / acm.max(1e-12)).log10();
        assert!(cmrr_sim_db > 40.0, "sim CMRR {cmrr_sim_db} dB");
    }

    #[test]
    fn infeasible_gain_at_tiny_current() {
        let tech = Technology::default_1p2um();
        // Mirror-load gain 1000 at 10 nA needs gm beyond the weak-inversion
        // limit for the chosen overdrive.
        let r = DiffPair::design(&tech, DiffTopology::MirrorLoad, 1000.0, 10e-9, 0.0);
        assert!(r.is_err());
    }

    #[test]
    fn diode_load_gain_ceiling_reported() {
        let tech = Technology::default_1p2um();
        let r = DiffPair::design(&tech, DiffTopology::DiodeLoad, 500.0, 1e-6, 0.0);
        assert!(matches!(r, Err(ApeError::Infeasible { .. })));
    }

    #[test]
    fn bad_specs_rejected() {
        let tech = Technology::default_1p2um();
        assert!(DiffPair::design(&tech, DiffTopology::DiodeLoad, 0.5, 1e-6, 0.0).is_err());
        assert!(DiffPair::design(&tech, DiffTopology::DiodeLoad, 10.0, 0.0, 0.0).is_err());
    }

    #[test]
    fn power_counts_reference_and_tail() {
        let tech = Technology::default_1p2um();
        let pair = DiffPair::design(&tech, DiffTopology::MirrorLoad, 100.0, 1e-6, 0.0).unwrap();
        assert!((pair.perf.power_w - 10e-6).abs() < 1e-12);
    }
}
