//! Performance estimation for user-level analog netlists.
//!
//! The paper's §6 names this as work in progress: *"We are currently
//! incorporating into the APE performance estimation procedures for
//! user-level analog netlists."* This module implements that feature: given
//! an arbitrary [`Circuit`] (hand-written, parsed from a SPICE deck, or
//! emitted by the hierarchy), it estimates the small-signal performance
//! without a frequency sweep — one nonlinear DC solve, one linearisation,
//! and AWE moment matching:
//!
//! * DC gain from the zeroth moment (exact at DC);
//! * −3 dB bandwidth from the first-moment dominant-pole estimate
//!   `f₋₃dB ≈ |m₀/m₁| / 2π` (the moment-space equivalent of
//!   zero-value-time-constant analysis);
//! * UGF and phase margin from the reduced-order Padé model;
//! * power from the operating point, gate area from the netlist.

use crate::attrs::Performance;
use crate::error::ApeError;
use crate::graph::{with_thread_graph, Component, EstimationGraph};
use ape_awe::awe_transfer_auto;
use ape_mos::fingerprint::Fingerprint;
use ape_netlist::{Circuit, NodeId, Technology};
use ape_spice::{dc_operating_point, linearize, Complex};

/// Most unknowns (node voltages plus branch currents) a netlist estimate
/// linearises. The small-signal `G` and `C` are dense `n × n`, so memory
/// and time grow with the square of the deck: RC ladders near this size
/// take ~1.5 MB of extra peak memory and ~8 ms, where the 1 MiB request
/// line of `ape-serve` would otherwise admit a ~20 000-node deck needing
/// several GB. The largest circuit any table, example, test or benchmark
/// estimates has 20 unknowns (a folded-cascode testbench).
pub const MAX_NETLIST_UNKNOWNS: usize = 256;

/// Checks that `circuit` fits [`MAX_NETLIST_UNKNOWNS`], counting its
/// unknowns from the netlist alone (nothing is rendered or solved), so a
/// caller can refuse a deck as soon as it is parsed.
///
/// # Errors
///
/// [`ApeError::Oversized`] above the cap.
pub fn check_netlist_size(circuit: &Circuit) -> Result<(), ApeError> {
    let branches = circuit
        .elements()
        .iter()
        .filter(|e| e.needs_branch_current())
        .count();
    let unknowns = circuit.num_nodes().saturating_sub(1) + branches;
    if unknowns > MAX_NETLIST_UNKNOWNS {
        return Err(ApeError::Oversized {
            unknowns,
            limit: MAX_NETLIST_UNKNOWNS,
        });
    }
    Ok(())
}

/// Result of a netlist-level estimation.
#[derive(Debug, Clone)]
pub struct NetlistEstimate {
    /// Composed performance sheet (gain, bandwidth, UGF, power, area).
    pub perf: Performance,
    /// Phase margin from the reduced model, degrees, when a UGF exists.
    pub phase_margin_deg: Option<f64>,
    /// The dominant poles of the reduced model (negative-real-part = stable).
    pub poles: Vec<Complex>,
    /// Fingerprint of the `(netlist, output)` input this estimate was
    /// computed from — the key [`estimate_netlist_incremental`] uses to
    /// detect an unchanged input.
    pub input_fingerprint: u64,
}

/// Estimation-graph node for a netlist estimate. The netlist estimator is
/// a monolithic pipeline (one DC solve → linearisation → AWE), so it
/// memoizes as a single node keyed on the rendered SPICE deck and the
/// output node; incremental reuse is whole-estimate.
#[derive(Debug, Clone, Copy)]
struct NetestNode<'a> {
    circuit: &'a Circuit,
    output: NodeId,
    fp: u64,
}

impl Component for NetestNode<'_> {
    type Output = NetlistEstimate;

    fn kind(&self) -> &'static str {
        "netest"
    }

    fn fingerprint(&self) -> u64 {
        self.fp
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<NetlistEstimate, ApeError> {
        estimate_uncached(self.circuit, graph.technology(), self.output, self.fp)
    }
}

fn netest_fingerprint(circuit: &Circuit, tech: &Technology, output: NodeId) -> u64 {
    Fingerprint::new()
        .str(&circuit.to_spice_deck(tech))
        .u64(usize::from(output) as u64)
        .finish()
}

impl NetlistEstimate {
    /// `true` when every reduced-model pole is in the left half plane.
    pub fn is_stable(&self) -> bool {
        self.poles.iter().all(|p| p.re < 0.0)
    }
}

/// Estimates the AC performance of `circuit` from its AC excitation (the
/// sources with non-zero AC magnitude) to `output`.
///
/// # Errors
///
/// * [`ApeError::Infeasible`] when the DC operating point cannot be solved
///   or the circuit has no observable response at `output`.
/// * [`ApeError::Oversized`] when the circuit exceeds
///   [`MAX_NETLIST_UNKNOWNS`]; checked before any work.
///
/// # Example
///
/// Estimate a parsed user deck — no sweep, microseconds of work:
///
/// ```
/// use ape_netlist::parse_spice;
/// use ape_core::netest::estimate_netlist;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let deck = "\
/// * user amplifier
/// V1 in 0 DC 1.2 AC 1
/// VDD vdd 0 DC 5
/// RD vdd out 50k
/// M1 out in 0 0 CMOSN W=10u L=2.4u
/// .end
/// ";
/// let (ckt, tech) = parse_spice(deck)?;
/// let out = ckt.find_node("out").expect("out exists");
/// let est = estimate_netlist(&ckt, &tech, out)?;
/// assert!(est.perf.dc_gain.unwrap().abs() > 1.0);
/// assert!(est.perf.bw_hz.unwrap() > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn estimate_netlist(
    circuit: &Circuit,
    tech: &Technology,
    output: NodeId,
) -> Result<NetlistEstimate, ApeError> {
    crate::cancel::check_current()?;
    if usize::from(output) >= circuit.num_nodes() {
        return Err(ApeError::BadSpec {
            param: "output",
            message: format!(
                "output node {} is not in the circuit ({} nodes)",
                usize::from(output),
                circuit.num_nodes()
            ),
        });
    }
    check_netlist_size(circuit)?;
    let fp = netest_fingerprint(circuit, tech, output);
    with_thread_graph(tech, |g| {
        g.evaluate(&NetestNode {
            circuit,
            output,
            fp,
        })
    })
}

/// [`estimate_netlist`] given a previous estimate: when the
/// `(netlist, output)` input is unchanged (delta-free), the previous
/// estimate is returned directly; otherwise the circuit is re-estimated
/// through this thread's warm estimation graph. Either way the result is
/// bit-identical to a cold [`estimate_netlist`] of the same input.
///
/// # Errors
///
/// Same as [`estimate_netlist`].
pub fn estimate_netlist_incremental(
    circuit: &Circuit,
    tech: &Technology,
    output: NodeId,
    previous: &NetlistEstimate,
) -> Result<NetlistEstimate, ApeError> {
    check_netlist_size(circuit)?;
    if usize::from(output) < circuit.num_nodes()
        && netest_fingerprint(circuit, tech, output) == previous.input_fingerprint
    {
        return Ok(previous.clone());
    }
    estimate_netlist(circuit, tech, output)
}

/// The estimation pipeline itself — [`NetestNode`]'s compute body.
fn estimate_uncached(
    circuit: &Circuit,
    tech: &Technology,
    output: NodeId,
    input_fingerprint: u64,
) -> Result<NetlistEstimate, ApeError> {
    let op = dc_operating_point(circuit, tech).map_err(|e| ApeError::Infeasible {
        component: "netlist",
        message: format!("dc operating point: {e}"),
    })?;
    // The DC solve dominates the cost; re-check before the AWE stage.
    crate::cancel::check_current()?;
    let sys = linearize(circuit, tech, &op).map_err(|e| ApeError::Infeasible {
        component: "netlist",
        message: format!("linearisation: {e}"),
    })?;
    let moments = ape_awe::transfer_moments(&sys, output, 6).map_err(|e| ApeError::Infeasible {
        component: "netlist",
        message: format!("moment computation: {e}"),
    })?;
    let m0 = moments[0];
    if !m0.is_finite() {
        return Err(ApeError::NonFinite {
            stage: "netlist moment composition",
            what: "dc gain",
        });
    }
    if m0.abs() < 1e-15 {
        return Err(ApeError::Infeasible {
            component: "netlist",
            message: "no observable AC response at the output (is any source AC-driven?)".into(),
        });
    }
    // First-moment dominant-pole estimate (ZVTC-equivalent): for
    // H(s) = m0·(1 + s·m1/m0 + …), the -3 dB corner of the dominant pole
    // sits at |m0/m1|/2π.
    let bw = if moments[1].abs() > 0.0 {
        Some((m0 / moments[1]).abs() / (2.0 * std::f64::consts::PI))
    } else {
        None
    };
    let (ugf, pm, poles) = match awe_transfer_auto(&sys, output, 3) {
        Ok(model) => {
            let ugf = model.unity_gain_hz();
            let pm = ugf.map(|fu| {
                let h = model.eval(Complex::new(0.0, 2.0 * std::f64::consts::PI * fu));
                180.0 + h.arg().to_degrees()
            });
            (ugf, pm, model.poles().to_vec())
        }
        Err(_) => (None, None, Vec::new()),
    };
    let power = op.supply_power(circuit);
    let area = circuit.total_gate_area();
    for (what, v) in [
        ("power", Some(power)),
        ("gate area", Some(area)),
        ("bandwidth", bw),
        ("unity-gain frequency", ugf),
    ] {
        if v.is_some_and(|v| !v.is_finite()) {
            return Err(ApeError::NonFinite {
                stage: "netlist estimate",
                what,
            });
        }
    }
    let perf = Performance {
        dc_gain: Some(m0),
        bw_hz: bw,
        ugf_hz: ugf,
        power_w: power,
        gate_area_m2: area,
        ..Performance::default()
    };
    Ok(NetlistEstimate {
        perf,
        phase_margin_deg: pm,
        poles,
        input_fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_netlist::{parse_spice, SourceWaveform};
    use ape_spice::{ac_sweep, decade_frequencies, measure};

    #[test]
    fn rc_estimate_matches_analytic() {
        let tech = Technology::default_1p2um();
        let mut c = Circuit::new("rc");
        let i = c.node("in");
        let o = c.node("out");
        c.add_vsource("V1", i, Circuit::GROUND, 0.0, 1.0, SourceWaveform::Dc)
            .unwrap();
        c.add_resistor("R1", i, o, 10e3).unwrap();
        c.add_capacitor("C1", o, Circuit::GROUND, 1e-9).unwrap();
        let est = estimate_netlist(&c, &tech, o).unwrap();
        let f_expect = 1.0 / (2.0 * std::f64::consts::PI * 10e3 * 1e-9);
        assert!((est.perf.dc_gain.unwrap() - 1.0).abs() < 1e-3);
        let bw = est.perf.bw_hz.unwrap();
        assert!((bw - f_expect).abs() / f_expect < 0.01, "bw {bw}");
        assert!(est.is_stable());
    }

    #[test]
    fn user_deck_estimate_matches_full_ac() {
        // The headline use-case: a hand-written SPICE deck, estimated
        // without a sweep, cross-checked against the full simulator.
        let deck = "\
* user amplifier: common source + source follower
V1 in 0 DC 1.2 AC 1
VDD vdd 0 DC 5
RD1 vdd mid 50k
M1 mid in 0 0 CMOSN W=10u L=2.4u
M2 vdd mid out 0 CMOSN W=20u L=2.4u
RS out 0 20k
C1 out 0 5p
.end
";
        let (ckt, tech) = parse_spice(deck).unwrap();
        let out = ckt.find_node("out").unwrap();
        let est = estimate_netlist(&ckt, &tech, out).unwrap();
        let op = dc_operating_point(&ckt, &tech).unwrap();
        let sweep = ac_sweep(
            &ckt,
            &tech,
            &op,
            &decade_frequencies(10.0, 1e9, 10).unwrap(),
        )
        .unwrap();
        let g_sim = measure::dc_gain(&sweep, out).unwrap();
        let g_est = est.perf.dc_gain.unwrap().abs();
        assert!(
            (g_sim - g_est).abs() / g_sim < 0.01,
            "gain est {g_est} vs sweep {g_sim}"
        );
        // The first-moment estimate lumps every time constant, so it sits
        // at or below the swept corner; gate at 40 %.
        let bw_sim = measure::bandwidth_3db(&sweep, out).unwrap();
        let bw_est = est.perf.bw_hz.unwrap();
        assert!(
            bw_est <= bw_sim * 1.05 && bw_est > bw_sim * 0.6,
            "bw est {bw_est} vs sweep {bw_sim}"
        );
    }

    #[test]
    fn opamp_netlist_estimate_agrees_with_hierarchy() {
        use crate::basic::MirrorTopology;
        use crate::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
        let tech = Technology::default_1p2um();
        let spec = OpAmpSpec {
            gain: 200.0,
            ugf_hz: 5e6,
            area_max_m2: 5000e-12,
            ibias: 10e-6,
            zout_ohm: None,
            cl: 10e-12,
        };
        let amp = OpAmp::design(
            &tech,
            OpAmpTopology::miller(MirrorTopology::Simple, false),
            spec,
        )
        .unwrap();
        let tb = amp.testbench_open_loop(&tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let est = estimate_netlist(&tb, &tech, out).unwrap();
        // The netlist-level estimate and the hierarchical estimate answer
        // the same question through different routes.
        let g_hier = amp.perf.dc_gain.unwrap();
        let g_net = est.perf.dc_gain.unwrap().abs();
        assert!(
            (g_net - g_hier).abs() / g_hier < 0.35,
            "net {g_net} vs hier {g_hier}"
        );
        assert!(est.is_stable());
    }

    /// An RC ladder driven at `in` with `unknowns` unknowns: the source's
    /// branch current plus `unknowns - 1` node voltages. Returns the far
    /// end as the output.
    fn rc_ladder(unknowns: usize) -> (Circuit, NodeId) {
        let mut c = Circuit::new("ladder");
        let mut prev = c.node("in");
        c.add_vsource("V1", prev, Circuit::GROUND, 0.0, 1.0, SourceWaveform::Dc)
            .unwrap();
        for k in 1..unknowns - 1 {
            let n = c.node(&format!("n{k}"));
            c.add_resistor(&format!("R{k}"), prev, n, 1e3).unwrap();
            c.add_capacitor(&format!("C{k}"), n, Circuit::GROUND, 1e-12)
                .unwrap();
            prev = n;
        }
        (c, prev)
    }

    #[test]
    fn decks_estimate_up_to_the_unknowns_cap_and_not_past_it() {
        let tech = Technology::default_1p2um();
        let (at_cap, out) = rc_ladder(MAX_NETLIST_UNKNOWNS);
        assert_eq!(check_netlist_size(&at_cap), Ok(()));
        let est = estimate_netlist(&at_cap, &tech, out).unwrap();
        assert!((est.perf.dc_gain.unwrap() - 1.0).abs() < 1e-3);
        let (over, out) = rc_ladder(MAX_NETLIST_UNKNOWNS + 1);
        let oversized = ApeError::Oversized {
            unknowns: MAX_NETLIST_UNKNOWNS + 1,
            limit: MAX_NETLIST_UNKNOWNS,
        };
        assert_eq!(
            estimate_netlist(&over, &tech, out).unwrap_err(),
            oversized.clone()
        );
        assert_eq!(
            estimate_netlist_incremental(&over, &tech, out, &est).unwrap_err(),
            oversized
        );
    }

    #[test]
    fn silent_output_is_an_error() {
        // No AC magnitude anywhere → no observable response.
        let tech = Technology::default_1p2um();
        let mut c = Circuit::new("quiet");
        let a = c.node("a");
        c.add_vdc("V1", a, Circuit::GROUND, 1.0).unwrap();
        c.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let err = estimate_netlist(&c, &tech, a).unwrap_err();
        assert!(err.to_string().contains("AC"));
    }
}
