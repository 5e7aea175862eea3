//! Current sources / mirrors: simple, Wilson and cascode topologies.
//!
//! The paper's topology choices (`CurrSrc ∈ {Wilson, Mirror}` in Table 1)
//! select among these.

use super::{cards, L_BIAS, VOV_MIRROR};
use crate::attrs::Performance;
use crate::error::ApeError;
use crate::graph::{with_thread_graph, Component, EstimationGraph};
use ape_mos::fingerprint::Fingerprint;
use ape_mos::sizing::SizedMos;
use ape_netlist::{Circuit, MosPolarity, Technology};

/// Mirror circuit topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MirrorTopology {
    /// Two-transistor mirror.
    Simple,
    /// Three-transistor Wilson mirror (feedback-boosted output resistance).
    Wilson,
    /// Four-transistor cascode mirror.
    Cascode,
}

impl MirrorTopology {
    /// Stable one-byte tag for estimation-graph fingerprints.
    pub(crate) fn fingerprint_tag(&self) -> u8 {
        match self {
            MirrorTopology::Simple => 0,
            MirrorTopology::Wilson => 1,
            MirrorTopology::Cascode => 2,
        }
    }
}

/// Estimation-graph node for a [`CurrentMirror`] design.
#[derive(Debug, Clone, Copy)]
struct MirrorNode {
    topology: MirrorTopology,
    iref: f64,
    ratio: f64,
}

impl Component for MirrorNode {
    type Output = CurrentMirror;

    fn kind(&self) -> &'static str {
        "l2.mirror"
    }

    fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .u8(self.topology.fingerprint_tag())
            .f64(self.iref)
            .f64(self.ratio)
            .finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l1.id_vov"]
    }

    fn calibrate(
        &self,
        out: &mut CurrentMirror,
        cal: &ape_calib::Calibration,
    ) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l2.mirror",
            &[
                crate::calibrate::ln_or_zero(self.iref),
                crate::calibrate::ln_or_zero(self.ratio),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<CurrentMirror, ApeError> {
        CurrentMirror::design_uncached(graph, self.topology, self.iref, self.ratio)
    }
}

impl std::fmt::Display for MirrorTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MirrorTopology::Simple => write!(f, "CurrMirr"),
            MirrorTopology::Wilson => write!(f, "Wilson"),
            MirrorTopology::Cascode => write!(f, "Cascode"),
        }
    }
}

/// A sized NMOS current mirror (sinking).
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::basic::{CurrentMirror, MirrorTopology};
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let wilson = CurrentMirror::design(&tech, MirrorTopology::Wilson, 100e-6, 1.0)?;
/// let simple = CurrentMirror::design(&tech, MirrorTopology::Simple, 100e-6, 1.0)?;
/// // Feedback boosts output impedance by roughly gm·ro/2.
/// assert!(wilson.perf.zout_ohm.unwrap() > 10.0 * simple.perf.zout_ohm.unwrap());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CurrentMirror {
    /// Selected topology.
    pub topology: MirrorTopology,
    /// Reference current, amperes.
    pub iref: f64,
    /// Output/reference current ratio.
    pub ratio: f64,
    /// Sized devices (2, 3 or 4 depending on topology).
    pub devices: Vec<SizedMos>,
    /// Composed performance attributes.
    pub perf: Performance,
}

impl CurrentMirror {
    /// Sizes a mirror for reference current `iref` and output ratio `ratio`.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for non-positive `iref` or `ratio`.
    /// * [`ApeError::Device`] when a device cannot be sized.
    pub fn design(
        tech: &Technology,
        topology: MirrorTopology,
        iref: f64,
        ratio: f64,
    ) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| {
            g.evaluate(&MirrorNode {
                topology,
                iref,
                ratio,
            })
        })
    }

    /// The node's compute body behind [`design`](Self::design): runs on
    /// a memo miss and evaluates every child node in `graph`.
    fn design_uncached(
        graph: &EstimationGraph,
        topology: MirrorTopology,
        iref: f64,
        ratio: f64,
    ) -> Result<Self, ApeError> {
        let tech = graph.technology();
        cards(tech)?;
        if !(iref.is_finite() && iref > 0.0) {
            return Err(ApeError::BadSpec {
                param: "iref",
                message: format!("must be positive, got {iref}"),
            });
        }
        if !(ratio.is_finite() && ratio > 0.0) {
            return Err(ApeError::BadSpec {
                param: "ratio",
                message: format!("must be positive, got {ratio}"),
            });
        }
        let iout = iref * ratio;
        let m_in = graph.size_id_vov(false, iref, VOV_MIRROR, L_BIAS, 2.5, 0.0)?;
        let m_out = graph.size_id_vov(false, iout, VOV_MIRROR, L_BIAS, 2.5, 0.0)?;
        let mut devices = vec![m_in, m_out];
        let zout = match topology {
            MirrorTopology::Simple => 1.0 / m_out.gds,
            MirrorTopology::Wilson => {
                // The feedback loop multiplies ro by the cascode device's
                // intrinsic gain (÷2 from the diode in the loop).
                let m_casc = graph.size_id_vov(false, iout, VOV_MIRROR, L_BIAS, 1.5, 1.1)?;
                devices.push(m_casc);
                m_casc.gm / (m_casc.gds * m_out.gds) / 2.0
            }
            MirrorTopology::Cascode => {
                let m_casc_ref = graph.size_id_vov(false, iref, VOV_MIRROR, L_BIAS, 1.1, 1.1)?;
                let m_casc_out = graph.size_id_vov(false, iout, VOV_MIRROR, L_BIAS, 1.5, 1.1)?;
                devices.push(m_casc_ref);
                devices.push(m_casc_out);
                m_casc_out.gm / (m_casc_out.gds * m_out.gds)
            }
        };
        let perf = Performance {
            ibias_a: Some(iout),
            power_w: tech.vdd * iref,
            gate_area_m2: devices.iter().map(|d| d.gate_area()).sum(),
            zout_ohm: Some(zout),
            ..Performance::default()
        };
        Ok(CurrentMirror {
            topology,
            iref,
            ratio,
            devices,
            perf,
        })
    }

    /// Emits a testbench: reference current pulled from `VDD` through an
    /// ideal source into the mirror input; the output sinks from a 2.5 V
    /// measurement source `VMEAS`, so `I(VMEAS)` is the mirrored current.
    ///
    /// # Errors
    ///
    /// Returns an error if a template card is rejected by the netlist layer.
    pub fn testbench(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new(&format!("{}-tb", self.topology));
        let vdd = ckt.node("vdd");
        let inn = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        ckt.add_idc("IREF", vdd, inn, self.iref)?;
        ckt.add_vdc("VMEAS", out, Circuit::GROUND, tech.vdd / 2.0)?;
        let n_name = tech.nmos().map(|c| c.name.clone()).unwrap_or_default();
        let mos = |ckt: &mut Circuit, name: &str, d, g, s, m: &SizedMos| {
            ckt.add_mosfet(
                name,
                d,
                g,
                s,
                Circuit::GROUND,
                MosPolarity::Nmos,
                &n_name,
                m.geometry,
            )
        };
        match self.topology {
            MirrorTopology::Simple => {
                mos(&mut ckt, "MIN", inn, inn, Circuit::GROUND, &self.devices[0])?;
                mos(
                    &mut ckt,
                    "MOUT",
                    out,
                    inn,
                    Circuit::GROUND,
                    &self.devices[1],
                )?;
            }
            MirrorTopology::Wilson => {
                // in = gate of the output cascode; feedback through the
                // diode at node y.
                let y = ckt.node("y");
                mos(&mut ckt, "MIN", inn, y, Circuit::GROUND, &self.devices[0])?;
                mos(&mut ckt, "MDIODE", y, y, Circuit::GROUND, &self.devices[1])?;
                mos(&mut ckt, "MCASC", out, inn, y, &self.devices[2])?;
            }
            MirrorTopology::Cascode => {
                let y = ckt.node("y");
                let z = ckt.node("z");
                mos(&mut ckt, "MIN", y, y, Circuit::GROUND, &self.devices[0])?;
                mos(&mut ckt, "MCREF", inn, inn, y, &self.devices[2])?;
                mos(&mut ckt, "MOUT", z, y, Circuit::GROUND, &self.devices[1])?;
                mos(&mut ckt, "MCOUT", out, inn, z, &self.devices[3])?;
            }
        }
        Ok(ckt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_spice::dc_operating_point;

    fn sim_iout(m: &CurrentMirror, tech: &Technology) -> f64 {
        let tb = m.testbench(tech).unwrap();
        let op = dc_operating_point(&tb, tech).unwrap();
        // The mirror pulls current out of VMEAS's + terminal, so the branch
        // current (defined + → − through the source) is negative.
        -op.branch_current("VMEAS").unwrap()
    }

    #[test]
    fn simple_mirror_copies_with_clm_error() {
        let tech = Technology::default_1p2um();
        let m = CurrentMirror::design(&tech, MirrorTopology::Simple, 100e-6, 1.0).unwrap();
        let i = sim_iout(&m, &tech);
        assert!((i - 100e-6).abs() / 100e-6 < 0.2, "iout {i}");
    }

    #[test]
    fn wilson_copies_more_accurately_than_simple() {
        let tech = Technology::default_1p2um();
        let simple = CurrentMirror::design(&tech, MirrorTopology::Simple, 100e-6, 1.0).unwrap();
        let wilson = CurrentMirror::design(&tech, MirrorTopology::Wilson, 100e-6, 1.0).unwrap();
        let ei_simple = (sim_iout(&simple, &tech) - 100e-6).abs();
        let ei_wilson = (sim_iout(&wilson, &tech) - 100e-6).abs();
        assert!(
            ei_wilson < ei_simple,
            "wilson error {ei_wilson} vs simple {ei_simple}"
        );
    }

    #[test]
    fn cascode_output_compliance() {
        let tech = Technology::default_1p2um();
        let m = CurrentMirror::design(&tech, MirrorTopology::Cascode, 50e-6, 1.0).unwrap();
        let i = sim_iout(&m, &tech);
        assert!((i - 50e-6).abs() / 50e-6 < 0.1, "iout {i}");
        assert_eq!(m.devices.len(), 4);
    }

    #[test]
    fn ratio_scales_output() {
        let tech = Technology::default_1p2um();
        let m = CurrentMirror::design(&tech, MirrorTopology::Simple, 20e-6, 4.0).unwrap();
        let i = sim_iout(&m, &tech);
        assert!((i - 80e-6).abs() / 80e-6 < 0.25, "iout {i}");
        assert_eq!(m.perf.ibias_a, Some(80e-6));
    }

    #[test]
    fn area_ordering_by_topology() {
        let tech = Technology::default_1p2um();
        let s = CurrentMirror::design(&tech, MirrorTopology::Simple, 100e-6, 1.0).unwrap();
        let w = CurrentMirror::design(&tech, MirrorTopology::Wilson, 100e-6, 1.0).unwrap();
        let c = CurrentMirror::design(&tech, MirrorTopology::Cascode, 100e-6, 1.0).unwrap();
        assert!(s.perf.gate_area_m2 < w.perf.gate_area_m2);
        assert!(w.perf.gate_area_m2 < c.perf.gate_area_m2);
    }

    #[test]
    fn bad_specs_rejected() {
        let tech = Technology::default_1p2um();
        assert!(CurrentMirror::design(&tech, MirrorTopology::Simple, -1.0, 1.0).is_err());
        assert!(CurrentMirror::design(&tech, MirrorTopology::Simple, 1e-6, 0.0).is_err());
    }
}
