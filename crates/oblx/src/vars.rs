//! Design variables and search intervals.
//!
//! ASTRX/OBLX exposes "the transistor sizes and bias points … as unknowns"
//! with user-supplied intervals (paper §3). This module defines the unknown
//! vector for the two-stage op-amp template, the decade-wide *blind*
//! intervals used in Table 1, and the APE-seeded ±20 % intervals used in
//! Table 4.

use crate::error::OblxError;
use ape_core::opamp::{OpAmp, OpAmpTopology};
use ape_solve::VectorRanges;

/// One design variable: a name plus its blind search interval. All
/// variables are searched in log space (they span decades).
#[derive(Debug, Clone, PartialEq)]
pub struct VarDef {
    /// Variable name, e.g. `"w_pair"`.
    pub name: &'static str,
    /// Lower bound (linear units: metres or farads).
    pub lo: f64,
    /// Upper bound (linear units).
    pub hi: f64,
}

/// A candidate sizing: one value per [`VarDef`], linear units, in the order
/// returned by [`variables`].
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Values in linear units.
    pub values: Vec<f64>,
}

impl DesignPoint {
    /// Value of a named variable, or `None` when `name` is not a variable
    /// of `topology` or the point is shorter than the variable table.
    pub fn get(&self, topology: OpAmpTopology, name: &str) -> Option<f64> {
        let idx = variables(topology).iter().position(|v| v.name == name)?;
        self.values.get(idx).copied()
    }

    /// Converts to the log-space vector the annealer searches.
    pub fn to_log(&self) -> Vec<f64> {
        self.values.iter().map(|v| v.max(1e-30).ln()).collect()
    }

    /// Builds from a log-space vector.
    pub fn from_log(log: &[f64]) -> Self {
        DesignPoint {
            values: log.iter().map(|v| v.exp()).collect(),
        }
    }
}

/// The design variables of the two-stage Miller template, in evaluation
/// order. Buffered topologies append the buffer device widths.
pub fn variables(topology: OpAmpTopology) -> Vec<VarDef> {
    let mut v = vec![
        VarDef {
            name: "w_pair",
            lo: 1.8e-6,
            hi: 800e-6,
        },
        VarDef {
            name: "l_pair",
            lo: 1.2e-6,
            hi: 60e-6,
        },
        VarDef {
            name: "w_load",
            lo: 1.8e-6,
            hi: 800e-6,
        },
        VarDef {
            name: "w_m6",
            lo: 1.8e-6,
            hi: 1500e-6,
        },
        VarDef {
            name: "l_2",
            lo: 1.2e-6,
            hi: 60e-6,
        },
        VarDef {
            name: "w_m7",
            lo: 1.8e-6,
            hi: 800e-6,
        },
        VarDef {
            name: "w_tail",
            lo: 1.8e-6,
            hi: 800e-6,
        },
        VarDef {
            name: "cc",
            lo: 0.3e-12,
            hi: 30e-12,
        },
    ];
    if topology.buffer {
        v.push(VarDef {
            name: "w_buf",
            lo: 1.8e-6,
            hi: 1500e-6,
        });
        v.push(VarDef {
            name: "w_sink",
            lo: 1.8e-6,
            hi: 800e-6,
        });
    }
    v
}

/// Blind decade-wide intervals (Table 1 mode), in log space.
///
/// # Errors
///
/// [`OblxError::BadPoint`] if the built-in variable bounds were rejected —
/// unreachable for the shipped tables, but surfaced instead of panicking.
pub fn blind_ranges(topology: OpAmpTopology) -> Result<VectorRanges, OblxError> {
    let pairs = variables(topology)
        .iter()
        .map(|v| (v.lo.ln(), v.hi.ln()))
        .collect();
    VectorRanges::new(pairs).map_err(|e| OblxError::BadPoint(format!("blind bounds: {e}")))
}

/// APE-seeded intervals: ±`frac` around `point` (Table 4 mode, the paper
/// uses `frac = 0.2`), intersected with the blind bounds, in log space.
///
/// # Errors
///
/// [`OblxError::BadPoint`] if `point` has the wrong dimension for the
/// topology, or the resulting bounds are rejected.
pub fn seeded_ranges(
    topology: OpAmpTopology,
    point: &DesignPoint,
    frac: f64,
) -> Result<VectorRanges, OblxError> {
    let blind = blind_ranges(topology)?;
    let defs = variables(topology);
    if point.values.len() != defs.len() {
        return Err(OblxError::BadPoint(format!(
            "design point has {} values, topology needs {}",
            point.values.len(),
            defs.len()
        )));
    }
    // ±frac in linear space maps to ln(1±frac) offsets in log space.
    let lo_off = (1.0 - frac).ln();
    let hi_off = (1.0 + frac).ln();
    let pairs = point
        .values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let centre = v.max(1e-30).ln();
            let lo = (centre + lo_off).max(blind.lower()[i]);
            let hi = (centre + hi_off).min(blind.upper()[i]);
            if lo <= hi {
                (lo, hi)
            } else {
                (blind.lower()[i], blind.upper()[i])
            }
        })
        .collect();
    VectorRanges::new(pairs).map_err(|e| OblxError::BadPoint(format!("seeded bounds: {e}")))
}

/// Extracts the design point an APE-sized amplifier corresponds to — the
/// bridge from the estimator to the synthesis engine.
///
/// The template fixes its bias diode at `W_BIAS_DIODE/L_BIAS`, while APE
/// sizes its own diode; every width gated off that diode (tail, M7, buffer
/// sink) is rescaled so the mirror *current ratios* — hence the bias
/// currents — carry over exactly.
pub fn design_point_from_ape(tech: &ape_netlist::Technology, amp: &OpAmp) -> DesignPoint {
    use crate::template::{bias_diode_geometry, L_BIAS};
    // aspect_template / aspect_ape for equal mirrored currents. The
    // template sizes its diode with the same rule APE uses, so this scale
    // is near unity; keeping it exact protects against clamping artifacts.
    let diode = bias_diode_geometry(tech, amp.spec.ibias);
    let scale = diode.aspect() / amp.mb1.geometry.aspect();
    let l_2 = amp.m6.geometry.l;
    let mut values = vec![
        amp.stage1.input.geometry.w,
        amp.stage1.input.geometry.l,
        amp.stage1.load.geometry.w,
        amp.m6.geometry.w,
        l_2,
        amp.m7.geometry.aspect() * scale * l_2,
        amp.tail_devices[0].geometry.aspect() * scale * L_BIAS,
        amp.cc,
    ];
    if amp.topology.buffer {
        values.push(amp.mbuf.as_ref().map(|m| m.geometry.w).unwrap_or(10e-6));
        values.push(
            amp.msink
                .as_ref()
                .map(|m| m.geometry.aspect() * scale * L_BIAS)
                .unwrap_or(10e-6),
        );
    }
    // Clamp into the blind bounds so seeded intervals stay valid.
    let defs = variables(amp.topology);
    for (v, d) in values.iter_mut().zip(&defs) {
        *v = v.clamp(d.lo, d.hi);
    }
    DesignPoint { values }
}

/// The geometric centre of the blind space — the "no initial point" start.
///
/// # Errors
///
/// See [`blind_ranges`].
pub fn blind_center(topology: OpAmpTopology) -> Result<DesignPoint, OblxError> {
    Ok(DesignPoint::from_log(&blind_ranges(topology)?.center()))
}

/// Writes a synthesised design point back into an APE op-amp object, so
/// higher-level modules (filters, S&H, …) can re-emit their netlists with
/// the synthesised sizes — the "APE + ASTRX/OBLX" column of Table 5.
///
/// Only geometry and the compensation capacitor are replaced; the
/// performance attributes of the returned amplifier are stale and should
/// not be read (re-simulate instead).
pub fn apply_point_to_opamp(
    tech: &ape_netlist::Technology,
    amp: &OpAmp,
    point: &DesignPoint,
) -> OpAmp {
    use crate::template::{bias_diode_geometry, L_BIAS};
    use ape_netlist::MosGeometry;
    let v = &point.values;
    let mut a = amp.clone();
    if v.len() < 8 {
        debug_assert!(false, "design point too short for two-stage template");
        ape_probe::counter("oblx.vars.short_point", 1);
        return a;
    }
    a.stage1.input.geometry = MosGeometry::new(v[0], v[1]);
    a.stage1.load.geometry = MosGeometry::new(v[2], v[1]);
    a.m6.geometry = MosGeometry::new(v[3], v[4]);
    a.m7.geometry = MosGeometry::new(v[5], v[4]);
    a.mb1.geometry = bias_diode_geometry(tech, amp.spec.ibias);
    for d in &mut a.tail_devices {
        d.geometry = MosGeometry::new(v[6], L_BIAS);
    }
    a.cc = v[7];
    if a.topology.buffer && v.len() >= 10 {
        if let Some(m) = &mut a.mbuf {
            m.geometry = MosGeometry::new(v[8], L_BIAS);
        }
        if let Some(m) = &mut a.msink {
            m.geometry = MosGeometry::new(v[9], L_BIAS);
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_core::basic::MirrorTopology;
    use ape_core::opamp::OpAmpSpec;
    use ape_netlist::Technology;

    fn topo() -> OpAmpTopology {
        OpAmpTopology::miller(MirrorTopology::Simple, false)
    }

    #[test]
    fn variable_count_depends_on_buffer() {
        assert_eq!(variables(topo()).len(), 8);
        let buffered = OpAmpTopology::miller(MirrorTopology::Simple, true);
        assert_eq!(variables(buffered).len(), 10);
    }

    #[test]
    fn log_roundtrip() {
        let p = DesignPoint {
            values: vec![10e-6, 2.4e-6, 20e-6, 50e-6, 1.2e-6, 8e-6, 12e-6, 2e-12],
        };
        let q = DesignPoint::from_log(&p.to_log());
        for (a, b) in p.values.iter().zip(&q.values) {
            assert!((a - b).abs() / a < 1e-12);
        }
    }

    #[test]
    fn seeded_ranges_are_tight() {
        let p = DesignPoint {
            values: vec![10e-6, 2.4e-6, 20e-6, 50e-6, 1.2e-6, 8e-6, 12e-6, 2e-12],
        };
        let seeded = seeded_ranges(topo(), &p, 0.2).unwrap();
        let blind = blind_ranges(topo()).unwrap();
        for i in 0..seeded.len() {
            let seeded_span = seeded.upper()[i] - seeded.lower()[i];
            let blind_span = blind.upper()[i] - blind.lower()[i];
            assert!(seeded_span < blind_span / 3.0, "variable {i} not tightened");
        }
        // The seed itself lies inside.
        assert!(seeded.contains(&p.to_log()));
    }

    #[test]
    fn ape_extraction_matches_topology() {
        let tech = Technology::default_1p2um();
        let spec = OpAmpSpec {
            gain: 150.0,
            ugf_hz: 3e6,
            area_max_m2: 3000e-12,
            ibias: 10e-6,
            zout_ohm: None,
            cl: 10e-12,
        };
        let amp = OpAmp::design(&tech, topo(), spec).unwrap();
        let p = design_point_from_ape(&tech, &amp);
        assert_eq!(p.values.len(), 8);
        assert!((p.get(topo(), "cc").unwrap() - amp.cc).abs() < 1e-15);
        assert!(p.get(topo(), "w_pair").unwrap() > 0.0);
    }

    #[test]
    fn named_access_returns_none_on_unknown() {
        let p = blind_center(topo()).unwrap();
        assert_eq!(p.get(topo(), "nope"), None);
        // A short point cannot index past its own length either.
        let short = DesignPoint { values: vec![1.0] };
        assert_eq!(short.get(topo(), "cc"), None);
    }

    #[test]
    fn seeded_ranges_reject_wrong_dimension() {
        let short = DesignPoint { values: vec![1.0] };
        assert!(matches!(
            seeded_ranges(topo(), &short, 0.2),
            Err(OblxError::BadPoint(_))
        ));
    }
}
