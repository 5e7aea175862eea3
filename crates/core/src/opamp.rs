//! Level 3 of the APE hierarchy: operational amplifiers.
//!
//! Paper §4.3: an op-amp is three stages — (1) differential input amplifier,
//! (2) level shift / differential-to-single-ended conversion / gain stage,
//! (3) optional output buffer for heavy loads — each built from the level-2
//! library. The topology enumeration matches Table 1's columns: the bias
//! current source is a simple or Wilson mirror (`CurrSrc`), the input stage
//! is the mirror-loaded CMOS pair (`Diffgain = CMOS`), and the buffer is
//! present when the load demands it (`Buff`).
//!
//! The realised circuit is the classic two-stage Miller op-amp: NMOS input
//! pair `M1`/`M2` with PMOS mirror load `M3`/`M4`, PMOS common-source
//! second stage `M6` with NMOS sink `M7`, Miller capacitor `CC` with
//! nulling resistor `RZ`, and an optional NMOS source-follower buffer.

use crate::attrs::Performance;
use crate::basic::{DiffPair, DiffPairNode, DiffTopology, MirrorTopology};
use crate::error::ApeError;
use crate::graph::{with_thread_graph, Component, EstimationGraph};
use ape_mos::fingerprint::Fingerprint;
use ape_mos::sizing::SizedMos;
use ape_netlist::{Circuit, MosPolarity, NodeId, SourceWaveform, Technology};

/// Topology selections for an op-amp (Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpAmpTopology {
    /// Bias current-source topology (`CurrSrc`): simple mirror or Wilson.
    pub current_source: MirrorTopology,
    /// Include the output buffer stage (`Buff`).
    pub buffer: bool,
    /// Internal Miller compensation.
    pub compensated: bool,
}

impl OpAmpTopology {
    /// Classic Miller two-stage with the given bias mirror and buffer choice.
    pub fn miller(current_source: MirrorTopology, buffer: bool) -> Self {
        OpAmpTopology {
            current_source,
            buffer,
            compensated: true,
        }
    }

    /// Folds this topology into an estimation-graph fingerprint.
    pub fn fold_fingerprint(&self, fp: Fingerprint) -> Fingerprint {
        fp.u8(self.current_source.fingerprint_tag())
            .bool(self.buffer)
            .bool(self.compensated)
    }
}

/// Performance specification for an op-amp (one row of Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpAmpSpec {
    /// Required DC gain magnitude (absolute, not dB).
    pub gain: f64,
    /// Required unity-gain frequency, hertz.
    pub ugf_hz: f64,
    /// Gate-area budget, square metres (audited, not driving the sizing).
    pub area_max_m2: f64,
    /// Reference bias current, amperes.
    pub ibias: f64,
    /// Required output impedance, ohms (buffered designs).
    pub zout_ohm: Option<f64>,
    /// Load capacitance, farads.
    pub cl: f64,
}

impl OpAmpSpec {
    /// Folds every spec field into an estimation-graph fingerprint
    /// (bit-exactly; the `zout_ohm` option is tagged so `None` and
    /// `Some(0.0)` stay distinct).
    pub fn fold_fingerprint(&self, fp: Fingerprint) -> Fingerprint {
        let fp = fp
            .f64(self.gain)
            .f64(self.ugf_hz)
            .f64(self.area_max_m2)
            .f64(self.ibias)
            .f64(self.cl);
        match self.zout_ohm {
            Some(z) => fp.u8(1).f64(z),
            None => fp.u8(0),
        }
    }
}

/// A sparse change to an [`OpAmpSpec`]: `Some` fields replace the
/// previous value, `None` fields are kept. This is the "delta" half of
/// incremental re-estimation — see [`OpAmp::redesign`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpecDelta {
    /// New DC gain requirement, if changed.
    pub gain: Option<f64>,
    /// New unity-gain frequency requirement, if changed.
    pub ugf_hz: Option<f64>,
    /// New gate-area budget, if changed.
    pub area_max_m2: Option<f64>,
    /// New reference bias current, if changed.
    pub ibias: Option<f64>,
    /// New output-impedance requirement, if changed (the outer `Option`
    /// is "changed?", the inner one the new value — `Some(None)` clears
    /// the requirement).
    pub zout_ohm: Option<Option<f64>>,
    /// New load capacitance, if changed.
    pub cl: Option<f64>,
}

impl SpecDelta {
    /// `true` when no field changes.
    pub fn is_empty(&self) -> bool {
        *self == SpecDelta::default()
    }

    /// Applies the delta to `base`, returning the updated specification.
    pub fn apply(&self, base: &OpAmpSpec) -> OpAmpSpec {
        OpAmpSpec {
            gain: self.gain.unwrap_or(base.gain),
            ugf_hz: self.ugf_hz.unwrap_or(base.ugf_hz),
            area_max_m2: self.area_max_m2.unwrap_or(base.area_max_m2),
            ibias: self.ibias.unwrap_or(base.ibias),
            zout_ohm: self.zout_ohm.unwrap_or(base.zout_ohm),
            cl: self.cl.unwrap_or(base.cl),
        }
    }
}

/// Estimation-graph node for a full [`OpAmp::design`] (the overdrive
/// refinement loop). Its children are the per-overdrive attempts. Level-4
/// modules evaluate it directly in their own graph.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpAmpNode {
    pub(crate) topology: OpAmpTopology,
    pub(crate) spec: OpAmpSpec,
}

impl Component for OpAmpNode {
    type Output = OpAmp;

    fn kind(&self) -> &'static str {
        "l3.opamp"
    }

    fn fingerprint(&self) -> u64 {
        self.spec
            .fold_fingerprint(self.topology.fold_fingerprint(Fingerprint::new()))
            .finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l3.opamp.attempt"]
    }

    // Corrections apply at the walk winner, not per attempt: the
    // overdrive selection below compares *uncalibrated* attempt areas, so
    // an `l3.opamp` table cannot flip which candidate wins.
    fn calibrate(&self, out: &mut OpAmp, cal: &ape_calib::Calibration) -> Result<(), ApeError> {
        crate::calibrate::apply_performance(
            cal,
            "l3.opamp",
            &[
                crate::calibrate::ln_or_zero(self.spec.gain),
                crate::calibrate::ln_or_zero(self.spec.ugf_hz),
            ],
            &mut out.perf,
        )
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<OpAmp, ApeError> {
        // Area-aware refinement: a lower signal overdrive shrinks the
        // channel-length stretching that manufacturable widths force on
        // low-current designs, at the cost of slew headroom. Walk down
        // until the area budget is met.
        let results = VOV_WALK.iter().map(|&vov_sig| {
            // Cancellation checkpoint between refinement attempts: a batch
            // driver abandoning this job loses at most one attempt's work.
            match crate::cancel::check_current() {
                Ok(()) => graph.evaluate(&OpAmpAttemptNode {
                    topology: self.topology,
                    spec: self.spec,
                    vov_sig,
                }),
                Err(e) => Err(e),
            }
        });
        fold_attempts(results, self.spec.area_max_m2)
    }
}

/// Selects the overdrive-walk winner from per-attempt results taken in
/// [`VOV_WALK`] order: the first area-fitting `Ok` wins; otherwise the
/// last `Ok` (closest to fitting — the walk shrinks area monotonically);
/// otherwise the first non-cancellation `Err`. Cancellation always wins
/// so an abandoned job unwinds promptly. The early `return` stops the
/// lazy walk at the first attempt that fits.
fn fold_attempts(
    results: impl Iterator<Item = Result<OpAmp, ApeError>>,
    area_max_m2: f64,
) -> Result<OpAmp, ApeError> {
    let mut last: Option<Result<OpAmp, ApeError>> = None;
    for attempt in results {
        match attempt {
            Ok(amp) => {
                let fits = amp.perf.gate_area_m2 <= area_max_m2;
                let ret = Ok(amp);
                if fits {
                    return ret;
                }
                last = Some(ret);
            }
            Err(ApeError::Cancelled) => return Err(ApeError::Cancelled),
            Err(e) => {
                if last.is_none() {
                    last = Some(Err(e));
                }
            }
        }
    }
    last.unwrap_or(Err(ApeError::Infeasible {
        component: "OpAmp",
        message: "no overdrive candidate produced a design".into(),
    }))
}

/// Estimation-graph node for one sizing pass at a fixed signal overdrive.
#[derive(Debug, Clone, Copy)]
struct OpAmpAttemptNode {
    topology: OpAmpTopology,
    spec: OpAmpSpec,
    vov_sig: f64,
}

impl Component for OpAmpAttemptNode {
    type Output = OpAmp;

    fn kind(&self) -> &'static str {
        "l3.opamp.attempt"
    }

    fn fingerprint(&self) -> u64 {
        self.spec
            .fold_fingerprint(self.topology.fold_fingerprint(Fingerprint::new()))
            .f64(self.vov_sig)
            .finish()
    }

    fn children(&self) -> &'static [&'static str] {
        &["l2.diffpair", "l1.gm_id", "l1.id_vov"]
    }

    fn compute(&self, graph: &EstimationGraph) -> Result<OpAmp, ApeError> {
        OpAmp::design_attempt(graph, self.topology, self.spec, self.vov_sig)
    }
}

/// A fully sized operational amplifier with composed performance estimates.
///
/// # Example
///
/// ```
/// use ape_netlist::Technology;
/// use ape_core::basic::MirrorTopology;
/// use ape_core::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
/// # fn main() -> Result<(), ape_core::ApeError> {
/// let tech = Technology::default_1p2um();
/// let spec = OpAmpSpec {
///     gain: 200.0,
///     ugf_hz: 5e6,
///     area_max_m2: 5000e-12,
///     ibias: 10e-6,
///     zout_ohm: Some(10e3),
///     cl: 10e-12,
/// };
/// let amp = OpAmp::design(&tech, OpAmpTopology::miller(MirrorTopology::Simple, true), spec)?;
/// assert!(amp.perf.dc_gain.unwrap().abs() >= 150.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OpAmp {
    /// The specification this amplifier was sized for.
    pub spec: OpAmpSpec,
    /// Topology selections.
    pub topology: OpAmpTopology,
    /// Input stage (mirror-loaded differential pair).
    pub stage1: DiffPair,
    /// Second-stage PMOS common-source driver.
    pub m6: SizedMos,
    /// Second-stage NMOS current sink.
    pub m7: SizedMos,
    /// Bias diode device (reference branch).
    pub mb1: SizedMos,
    /// Tail current-source device(s): 1 for simple, 2 for Wilson.
    pub tail_devices: Vec<SizedMos>,
    /// Buffer follower device, if `topology.buffer`.
    pub mbuf: Option<SizedMos>,
    /// Buffer sink device, if `topology.buffer`.
    pub msink: Option<SizedMos>,
    /// Tail current, amperes.
    pub itail: f64,
    /// Second-stage current, amperes.
    pub i2: f64,
    /// Buffer current, amperes (0 without buffer).
    pub ibuf: f64,
    /// Miller compensation capacitor, farads.
    pub cc: f64,
    /// Zero-nulling series resistor, ohms.
    pub rz: f64,
    /// Composed performance attributes.
    pub perf: Performance,
}

/// Overdrive used for signal devices throughout the op-amp sizing.
const VOV_SIG: f64 = 0.25;
/// The overdrive refinement walk, in preference order: the nominal
/// signal overdrive first, then progressively lower values that trade
/// slew headroom for gate area.
const VOV_WALK: [f64; 4] = [VOV_SIG, 0.15, 0.10, 0.07];
/// Overdrive used for bias mirrors.
const VOV_BIAS: f64 = 0.35;

impl OpAmp {
    /// Sizes a two-stage Miller op-amp for `spec` with topology `topology`.
    ///
    /// The procedure follows the paper's decomposition: requirements flow
    /// down (UGF → gm₁ → tail current; gain → per-stage gains → channel
    /// lengths; Zout → buffer gm), devices are sized at level 1, and the
    /// performance attributes are composed back up.
    ///
    /// # Errors
    ///
    /// * [`ApeError::BadSpec`] for non-positive gain/UGF/CL/Ibias.
    /// * [`ApeError::Infeasible`] when a stage cannot reach its allocation.
    pub fn design(
        tech: &Technology,
        topology: OpAmpTopology,
        spec: OpAmpSpec,
    ) -> Result<Self, ApeError> {
        with_thread_graph(tech, |g| Self::design_in(g, topology, spec))
    }

    /// [`OpAmp::design`] in an explicit graph: the design runs on
    /// `graph`'s technology, calibration table and memo (its store, when it
    /// has one). [`OpAmp::design`] is this in the thread's graph for `tech`.
    ///
    /// # Errors
    ///
    /// Same as [`OpAmp::design`].
    pub fn design_in(
        graph: &EstimationGraph,
        topology: OpAmpTopology,
        spec: OpAmpSpec,
    ) -> Result<Self, ApeError> {
        // An already-cancelled job must not be answered from the memo.
        crate::cancel::check_current()?;
        graph.evaluate(&OpAmpNode { topology, spec })
    }

    /// Incrementally re-designs after a spec delta: applies `delta` to
    /// `previous.spec` and re-estimates `previous.topology` through this
    /// thread's warm estimation graph, so only the subtrees whose inputs
    /// actually changed are recomputed. The result is bit-identical to a
    /// cold [`OpAmp::design`] at the updated spec — memoized nodes are
    /// pure functions of their fingerprinted inputs.
    ///
    /// # Errors
    ///
    /// Same as [`OpAmp::design`] at the updated spec.
    pub fn redesign(
        tech: &Technology,
        previous: &OpAmp,
        delta: &SpecDelta,
    ) -> Result<Self, ApeError> {
        Self::design(tech, previous.topology, delta.apply(&previous.spec))
    }

    /// Designs several independent op-amps, scheduling them as tasks on
    /// the process-wide executor (see [`OpAmp::design_many_on`]). Results
    /// come back in request order and are bit-identical to calling
    /// [`OpAmp::design`] on each request sequentially.
    ///
    /// # Errors
    ///
    /// Each slot carries the same errors [`OpAmp::design`] would return
    /// for that request; one request failing does not disturb the others.
    pub fn design_many(
        tech: &Technology,
        requests: &[(OpAmpTopology, OpAmpSpec)],
    ) -> Vec<Result<Self, ApeError>> {
        Self::design_many_on(ape_exec::Executor::global(), tech, requests)
    }

    /// [`OpAmp::design_many`] on an explicit executor, in the thread's
    /// graph for `tech` (see [`OpAmp::design_many_in`]).
    ///
    /// # Errors
    ///
    /// Per-slot, same as [`OpAmp::design`].
    pub fn design_many_on(
        exec: &ape_exec::Executor,
        tech: &Technology,
        requests: &[(OpAmpTopology, OpAmpSpec)],
    ) -> Vec<Result<Self, ApeError>> {
        with_thread_graph(tech, |g| Self::design_many_in(exec, g, requests))
    }

    /// [`OpAmp::design_many_on`] with `graph`'s inputs: each request
    /// becomes one `l3.opamp` subtree evaluated through
    /// [`evaluate_many`](crate::graph::evaluate_many), so independent
    /// designs proceed concurrently, each task in its worker's graph for
    /// `graph`'s technology, calibration table and store — so designs share
    /// subtrees through that [`SharedMemo`](crate::graph::SharedMemo) when
    /// `graph` has one. On an `Executor::new(0)` pool this is exactly the
    /// sequential loop. Each design walks its own overdrive attempts
    /// lazily on the thread that runs it: batches parallelise across
    /// designs, never within one.
    ///
    /// # Errors
    ///
    /// Per-slot, same as [`OpAmp::design`].
    pub fn design_many_in(
        exec: &ape_exec::Executor,
        graph: &EstimationGraph,
        requests: &[(OpAmpTopology, OpAmpSpec)],
    ) -> Vec<Result<Self, ApeError>> {
        let _span = ape_probe::span("ape.l3.opamp.many");
        if let Err(e) = crate::cancel::check_current() {
            return requests.iter().map(|_| Err(e.clone())).collect();
        }
        let nodes: Vec<OpAmpNode> = requests
            .iter()
            .map(|&(topology, spec)| OpAmpNode { topology, spec })
            .collect();
        crate::graph::evaluate_many(exec, graph, &nodes)
    }

    /// One sizing pass at a fixed signal overdrive — the attempt node's
    /// compute body; the input pair and every device are evaluated in
    /// `graph`.
    fn design_attempt(
        graph: &EstimationGraph,
        topology: OpAmpTopology,
        spec: OpAmpSpec,
        vov_sig: f64,
    ) -> Result<Self, ApeError> {
        let tech = graph.technology();
        let c = crate::basic::cards(tech)?;
        if !(spec.gain.is_finite() && spec.gain > 1.0) {
            return Err(ApeError::BadSpec {
                param: "gain",
                message: format!("need gain > 1, got {}", spec.gain),
            });
        }
        if !(spec.ugf_hz.is_finite() && spec.ugf_hz > 0.0) {
            return Err(ApeError::BadSpec {
                param: "ugf_hz",
                message: format!("must be positive, got {}", spec.ugf_hz),
            });
        }
        if !(spec.cl.is_finite() && spec.cl > 0.0) {
            return Err(ApeError::BadSpec {
                param: "cl",
                message: format!("must be positive, got {}", spec.cl),
            });
        }
        if !(spec.ibias.is_finite() && spec.ibias > 0.0) {
            return Err(ApeError::BadSpec {
                param: "ibias",
                message: format!("must be positive, got {}", spec.ibias),
            });
        }

        // --- Requirement decomposition -------------------------------------
        // Compensation: Cc a fixed fraction of CL (classic 0.22 rule keeps
        // the nondominant pole manageable). A 15 % UGF margin absorbs the
        // Miller-effect and parasitic losses the composition ignores.
        let cc = (0.22 * spec.cl).max(0.8e-12);
        let ugf_target = 1.15 * spec.ugf_hz;
        let gm1 = 2.0 * std::f64::consts::PI * ugf_target * cc;
        let itail = gm1 * vov_sig; // gm = 2·(itail/2)/vov

        // Gain budget across stages.
        let a_buf = if topology.buffer { 0.85 } else { 1.0 };
        let a12 = spec.gain / a_buf;
        let a_stage = a12.sqrt().max(2.0);

        // --- Stage 1: mirror-loaded pair -----------------------------------
        let stage1 = graph.evaluate(&DiffPairNode {
            topology: DiffTopology::MirrorLoad,
            adm: a_stage,
            itail,
            cl: 0.0,
            vov_i_sel: vov_sig,
        })?;

        // Level-2 → level-3 boundary: the remaining stages are pure level-1
        // solves, so this is the last cheap place to abandon a cancelled job.
        crate::cancel::check_current()?;

        // --- Stage 2: PMOS common source + NMOS sink -----------------------
        // M6's gate sits at stage 1's quiescent output, which the mirror
        // diode M3 pins at vdd − vgs(M3). Sizing M6 at that same overdrive
        // avoids a systematic current imbalance that would rail the stage.
        let vov6 = (stage1.load.vgs.abs() - ape_mos::sizing::threshold(c.p, 0.0)).clamp(0.1, 1.0);
        // Nondominant pole gm6/CL must clear the UGF for phase margin.
        let gm6 = 2.0 * std::f64::consts::PI * ugf_target * 2.5 * spec.cl;
        let i2 = gm6 * vov6 / 2.0;
        let lam_sum = c.n.lambda + c.p.lambda;
        let l2_gain = crate::basic::length_for_gain(a_stage, vov_sig, lam_sum, tech);
        let l2 = crate::basic::length_for_min_width(
            crate::basic::aspect_for_id_vov(c.p, i2, vov6),
            l2_gain,
            tech,
        );
        let m6 = graph.size_id_vov(true, i2, vov6, l2, tech.vdd / 2.0, 0.0)?;
        let l7 = crate::basic::length_for_min_width(
            crate::basic::aspect_for_id_vov(c.n, i2, VOV_BIAS),
            l2,
            tech,
        );
        let m7 = graph.size_id_vov(false, i2, VOV_BIAS, l7, tech.vdd / 2.0, 0.0)?;
        let a2 = m6.gm / (m6.gds + m7.gds);

        // --- Bias network ---------------------------------------------------
        // Mirrored devices keep their W/L ratios even when the channel is
        // stretched for minimum width, so the current ratios survive.
        let l_bias = |id: f64| {
            crate::basic::length_for_min_width(
                crate::basic::aspect_for_id_vov(c.n, id, VOV_BIAS),
                crate::basic::L_BIAS,
                tech,
            )
        };
        let mb1 = graph.size_id_vov(false, spec.ibias, VOV_BIAS, l_bias(spec.ibias), 1.2, 0.0)?;
        let mut tail_devices = Vec::new();
        match topology.current_source {
            MirrorTopology::Simple => {
                let mtail = graph.size_id_vov(false, itail, VOV_BIAS, l_bias(itail), 1.4, 0.0)?;
                tail_devices.push(mtail);
            }
            MirrorTopology::Cascode => {
                // Stacked mirror: bottom device + cascode, biased from a
                // two-diode reference stack.
                let mtail = graph.size_id_vov(false, itail, VOV_BIAS, l_bias(itail), 0.5, 0.0)?;
                let mtcasc = graph.size_id_vov(false, itail, VOV_BIAS, l_bias(itail), 0.9, 0.5)?;
                tail_devices.push(mtail);
                tail_devices.push(mtcasc);
            }
            MirrorTopology::Wilson => {
                let mdiode = graph.size_id_vov(false, itail, VOV_BIAS, l_bias(itail), 1.1, 0.0)?;
                let mcasc = graph.size_id_vov(false, itail, VOV_BIAS, l_bias(itail), 0.5, 1.1)?;
                tail_devices.push(mdiode);
                tail_devices.push(mcasc);
            }
        }

        // --- Buffer ---------------------------------------------------------
        let (mbuf, msink, ibuf, a_buf_est, zout_est) = if topology.buffer {
            let zout_target = spec.zout_ohm.unwrap_or(10e3);
            if !(zout_target.is_finite() && zout_target > 0.0) {
                return Err(ApeError::BadSpec {
                    param: "zout_ohm",
                    message: "output impedance must be positive".into(),
                });
            }
            // zout ≈ 1/(gm+gmb): budget gm = 1.25/zout. The buffer's own
            // pole gm_b/CL must also clear the UGF, or it eats the phase
            // margin and drags the crossover down.
            let gm_b =
                (1.25 / zout_target).max(2.0 * std::f64::consts::PI * 3.0 * ugf_target * spec.cl);
            let ib = (gm_b * VOV_SIG / 2.0).max(5e-6);
            let vout_q = 0.45 * tech.vdd;
            let gm_b = gm_b.max(2.0 * ib / 1.2); // keep vov inside the domain
            let mbuf = graph.size_gm_id(
                false,
                gm_b,
                ib,
                crate::basic::L_BIAS,
                tech.vdd - vout_q,
                vout_q,
            )?;
            let msink =
                graph.size_id_vov(false, ib, VOV_BIAS, crate::basic::L_BIAS, vout_q, 0.0)?;
            let gtot = mbuf.gm + mbuf.gmb + mbuf.gds + msink.gds;
            let a_b = mbuf.gm / gtot;
            (Some(mbuf), Some(msink), ib, a_b, 1.0 / gtot)
        } else {
            let zout2 = 1.0 / (m6.gds + m7.gds);
            (None, None, 0.0, 1.0, zout2)
        };

        // --- Composition ----------------------------------------------------
        let a1 = stage1.perf.dc_gain.unwrap_or(a_stage);
        let a_total = a1.abs() * a2 * a_buf_est;
        // The gate-drain overlap of M6 rides in parallel with Cc.
        let ugf = stage1.input.gm / (2.0 * std::f64::consts::PI * (cc + m6.caps.cgd));
        let sr = (itail / cc).min(i2 / spec.cl);
        let power = tech.vdd * (spec.ibias + itail + i2 + ibuf);
        let mut area = 2.0 * stage1.input.gate_area()
            + 2.0 * stage1.load.gate_area()
            + m6.gate_area()
            + m7.gate_area()
            + mb1.gate_area()
            + tail_devices.iter().map(|d| d.gate_area()).sum::<f64>();
        if let (Some(b), Some(s)) = (&mbuf, &msink) {
            area += b.gate_area() + s.gate_area();
        }
        let rz = 1.2 / m6.gm;
        // Inputs can pass their individual range checks yet combine into a
        // degenerate design (vanishing conductances, overflowing products).
        // Catch that here rather than hand back an OpAmp full of NaNs.
        for (what, v) in [
            ("dc gain", a_total),
            ("unity-gain frequency", ugf),
            ("slew rate", sr),
            ("power", power),
            ("gate area", area),
            ("output impedance", zout_est),
        ] {
            if !v.is_finite() {
                return Err(ApeError::NonFinite {
                    stage: "op-amp composition",
                    what,
                });
            }
        }
        if !(power > 0.0 && area > 0.0) {
            return Err(ApeError::Infeasible {
                component: "op-amp",
                message: format!("non-positive power ({power}) or area ({area})"),
            });
        }
        let perf = Performance {
            dc_gain: Some(a_total),
            ugf_hz: Some(ugf),
            bw_hz: Some(ugf / a_total),
            power_w: power,
            gate_area_m2: area,
            zout_ohm: Some(zout_est),
            cmrr_db: stage1.perf.cmrr_db,
            slew_v_per_s: Some(sr),
            ibias_a: Some(spec.ibias),
            ..Performance::default()
        };
        Ok(OpAmp {
            spec,
            topology,
            stage1,
            m6,
            m7,
            mb1,
            tail_devices,
            mbuf,
            msink,
            itail,
            i2,
            ibuf,
            cc,
            rz,
            perf,
        })
    }

    /// The op-amp's output impedance estimate, ohms.
    pub fn zout(&self) -> f64 {
        self.perf.zout_ohm.unwrap_or(f64::INFINITY)
    }

    /// Emits the amplifier into `ckt` with all element names prefixed by
    /// `prefix`. `inp`/`inn` are the (+)/(−) inputs, `out` the output,
    /// `vdd` the supply node. The internal ideal reference source draws
    /// `spec.ibias` from `vdd`.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors (e.g. a duplicate prefix).
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
        let outb = ckt.fresh_node(&format!("{prefix}_outb"));
        let o1 = ckt.fresh_node(&format!("{prefix}_o1"));
        let o2 = if self.topology.buffer {
            ckt.fresh_node(&format!("{prefix}_o2"))
        } else {
            out
        };

        // Bias reference + tail current source. The node whose diode sets
        // the gate voltage of all the sink mirrors (M7, MSINK) is
        // `ref_gate`: the plain bias diode for a simple mirror, or the
        // Wilson's internal diode.
        ckt.add_idc(&format!("{prefix}.IB"), vdd, bias, self.spec.ibias)?;
        let ref_gate = match self.topology.current_source {
            MirrorTopology::Simple => {
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
                    self.tail_devices[0].geometry,
                )?;
                bias
            }
            MirrorTopology::Cascode => {
                // Two-diode reference stack biases the stacked tail: the
                // lower gate comes from b1, the cascode gate from the IB
                // injection node (= b1 + one vgs).
                let b1 = ckt.fresh_node(&format!("{prefix}_b1"));
                let tmid = ckt.fresh_node(&format!("{prefix}_tmid"));
                ckt.add_mosfet(
                    &format!("{prefix}.MB2"),
                    bias,
                    bias,
                    b1,
                    gnd,
                    MosPolarity::Nmos,
                    &n_name,
                    self.mb1.geometry,
                )?;
                ckt.add_mosfet(
                    &format!("{prefix}.MB1"),
                    b1,
                    b1,
                    gnd,
                    gnd,
                    MosPolarity::Nmos,
                    &n_name,
                    self.mb1.geometry,
                )?;
                ckt.add_mosfet(
                    &format!("{prefix}.MTAIL"),
                    tmid,
                    b1,
                    gnd,
                    gnd,
                    MosPolarity::Nmos,
                    &n_name,
                    self.tail_devices[0].geometry,
                )?;
                ckt.add_mosfet(
                    &format!("{prefix}.MTCASC"),
                    tail,
                    bias,
                    tmid,
                    gnd,
                    MosPolarity::Nmos,
                    &n_name,
                    self.tail_devices[1].geometry,
                )?;
                b1
            }
            MirrorTopology::Wilson => {
                // True Wilson sink: IB flows into `bias` (= the Wilson input
                // node), MB1 sinks it with its gate on the internal diode at
                // `wy`; the cascode's gate is the input node, closing the
                // feedback loop that boosts the tail impedance.
                let y = ckt.fresh_node(&format!("{prefix}_wy"));
                ckt.add_mosfet(
                    &format!("{prefix}.MB1"),
                    bias,
                    y,
                    gnd,
                    gnd,
                    MosPolarity::Nmos,
                    &n_name,
                    self.mb1.geometry,
                )?;
                ckt.add_mosfet(
                    &format!("{prefix}.MWD"),
                    y,
                    y,
                    gnd,
                    gnd,
                    MosPolarity::Nmos,
                    &n_name,
                    self.tail_devices[0].geometry,
                )?;
                ckt.add_mosfet(
                    &format!("{prefix}.MWC"),
                    tail,
                    bias,
                    y,
                    gnd,
                    MosPolarity::Nmos,
                    &n_name,
                    self.tail_devices[1].geometry,
                )?;
                y
            }
        };
        // Input pair. With the mirror load and the inverting second stage,
        // the overall non-inverting input is M2's gate (inp): a rise there
        // pulls o1 down, which the PMOS common source inverts back up.
        ckt.add_mosfet(
            &format!("{prefix}.M1"),
            outb,
            inn,
            tail,
            gnd,
            MosPolarity::Nmos,
            &n_name,
            self.stage1.input.geometry,
        )?;
        ckt.add_mosfet(
            &format!("{prefix}.M2"),
            o1,
            inp,
            tail,
            gnd,
            MosPolarity::Nmos,
            &n_name,
            self.stage1.input.geometry,
        )?;
        // Mirror load.
        ckt.add_mosfet(
            &format!("{prefix}.M3"),
            outb,
            outb,
            vdd,
            vdd,
            MosPolarity::Pmos,
            &p_name,
            self.stage1.load.geometry,
        )?;
        ckt.add_mosfet(
            &format!("{prefix}.M4"),
            o1,
            outb,
            vdd,
            vdd,
            MosPolarity::Pmos,
            &p_name,
            self.stage1.load.geometry,
        )?;
        // Second stage.
        ckt.add_mosfet(
            &format!("{prefix}.M6"),
            o2,
            o1,
            vdd,
            vdd,
            MosPolarity::Pmos,
            &p_name,
            self.m6.geometry,
        )?;
        ckt.add_mosfet(
            &format!("{prefix}.M7"),
            o2,
            ref_gate,
            gnd,
            gnd,
            MosPolarity::Nmos,
            &n_name,
            self.m7.geometry,
        )?;
        // Compensation with nulling resistor.
        if self.topology.compensated {
            let zc = ckt.fresh_node(&format!("{prefix}_zc"));
            ckt.add_resistor(&format!("{prefix}.RZ"), o1, zc, self.rz)?;
            ckt.add_capacitor(&format!("{prefix}.CC"), zc, o2, self.cc)?;
        }
        // Buffer.
        if let (Some(mbuf), Some(msink)) = (&self.mbuf, &self.msink) {
            ckt.add_mosfet(
                &format!("{prefix}.MBUF"),
                vdd,
                o2,
                out,
                gnd,
                MosPolarity::Nmos,
                &n_name,
                mbuf.geometry,
            )?;
            ckt.add_mosfet(
                &format!("{prefix}.MSINK"),
                out,
                ref_gate,
                gnd,
                gnd,
                MosPolarity::Nmos,
                &n_name,
                msink.geometry,
            )?;
        }
        Ok(())
    }

    /// Open-loop testbench: differential AC drive at the inputs, the load
    /// capacitor at `out`.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn testbench_open_loop(&self, tech: &Technology) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new("opamp-ol-tb");
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

    /// Unity-feedback testbench with a step input, for slew/settling
    /// measurements.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn testbench_follower_step(
        &self,
        tech: &Technology,
        v_lo: f64,
        v_hi: f64,
        t_edge: f64,
    ) -> Result<Circuit, ApeError> {
        let mut ckt = Circuit::new("opamp-step-tb");
        let vdd = ckt.node("vdd");
        let inp = ckt.node("inp");
        let out = ckt.node("out");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        ckt.add_vsource(
            "VINP",
            inp,
            Circuit::GROUND,
            v_lo,
            0.0,
            SourceWaveform::Pulse {
                v1: v_lo,
                v2: v_hi,
                delay: t_edge,
                rise: t_edge / 100.0,
                fall: t_edge / 100.0,
                width: 1.0,
                period: f64::INFINITY,
            },
        )?;
        // Unity feedback: inverting input tied to the output.
        self.build_into(&mut ckt, tech, "X1", inp, out, out, vdd)?;
        ckt.add_capacitor("CL", out, Circuit::GROUND, self.spec.cl)?;
        Ok(ckt)
    }

    /// Audits a measured performance set against the spec, returning the
    /// violated constraints (empty = meets spec). `tol` is the fractional
    /// slack (the paper accepts designs within reasonable accuracy).
    pub fn audit(spec: &OpAmpSpec, measured: &Performance, tol: f64) -> Vec<String> {
        let mut violations = Vec::new();
        if let Some(g) = measured.dc_gain {
            if g.abs() < spec.gain * (1.0 - tol) {
                violations.push(format!("gain {:.1} < spec {:.1}", g.abs(), spec.gain));
            }
        } else {
            violations.push("gain unmeasured".into());
        }
        if let Some(u) = measured.ugf_hz {
            if u < spec.ugf_hz * (1.0 - tol) {
                violations.push(format!(
                    "UGF {:.2} MHz < spec {:.2} MHz",
                    u * 1e-6,
                    spec.ugf_hz * 1e-6
                ));
            }
        } else {
            violations.push("UGF unmeasured".into());
        }
        if measured.gate_area_m2 > spec.area_max_m2 * (1.0 + tol) {
            violations.push(format!(
                "area {:.1} µm² > budget {:.1} µm²",
                measured.gate_area_m2 * 1e12,
                spec.area_max_m2 * 1e12
            ));
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_spice::{ac_sweep, dc_operating_point, decade_frequencies, measure};

    fn spec_basic() -> OpAmpSpec {
        OpAmpSpec {
            gain: 200.0,
            ugf_hz: 5e6,
            area_max_m2: 5000e-12,
            ibias: 10e-6,
            zout_ohm: Some(10e3),
            cl: 10e-12,
        }
    }

    #[test]
    fn designs_and_estimates_meet_spec() {
        let tech = Technology::default_1p2um();
        let amp = OpAmp::design(
            &tech,
            OpAmpTopology::miller(MirrorTopology::Simple, false),
            spec_basic(),
        )
        .unwrap();
        let a = amp.perf.dc_gain.unwrap();
        assert!(a >= 200.0 * 0.7, "estimated gain {a}");
        let u = amp.perf.ugf_hz.unwrap();
        assert!((u - 5e6).abs() / 5e6 < 0.25, "estimated UGF {u}");
    }

    #[test]
    fn open_loop_sim_tracks_estimate() {
        let tech = Technology::default_1p2um();
        let amp = OpAmp::design(
            &tech,
            OpAmpTopology::miller(MirrorTopology::Simple, false),
            spec_basic(),
        )
        .unwrap();
        let tb = amp.testbench_open_loop(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &decade_frequencies(10.0, 1e9, 10).unwrap()).unwrap();
        let a_sim = measure::dc_gain(&sweep, out).unwrap();
        let a_est = amp.perf.dc_gain.unwrap();
        assert!(
            (a_sim - a_est).abs() / a_est < 0.6,
            "gain sim {a_sim} vs est {a_est}"
        );
        let u_sim = measure::unity_gain_frequency(&sweep, out).unwrap();
        let u_est = amp.perf.ugf_hz.unwrap();
        assert!(
            (u_sim - u_est).abs() / u_est < 0.6,
            "ugf sim {u_sim} vs est {u_est}"
        );
    }

    #[test]
    fn wilson_bias_variant_works() {
        let tech = Technology::default_1p2um();
        let amp = OpAmp::design(
            &tech,
            OpAmpTopology::miller(MirrorTopology::Wilson, true),
            spec_basic(),
        )
        .unwrap();
        assert_eq!(amp.tail_devices.len(), 2);
        let tb = amp.testbench_open_loop(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &[10.0]).unwrap();
        let a_sim = measure::dc_gain(&sweep, out).unwrap();
        assert!(a_sim > 50.0, "buffered wilson amp gain {a_sim}");
    }

    #[test]
    fn cascode_tail_variant_works() {
        let tech = Technology::default_1p2um();
        let amp = OpAmp::design(
            &tech,
            OpAmpTopology::miller(MirrorTopology::Cascode, false),
            spec_basic(),
        )
        .unwrap();
        assert_eq!(amp.tail_devices.len(), 2);
        let tb = amp.testbench_open_loop(&tech).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        // The stacked tail carries the designed current.
        let i_tail = op.mos["X1.MTCASC"].eval.ids;
        assert!(
            (i_tail - amp.itail).abs() / amp.itail < 0.15,
            "tail current {i_tail} vs design {}",
            amp.itail
        );
        let out = tb.find_node("out").unwrap();
        let sweep = ac_sweep(&tb, &tech, &op, &[10.0]).unwrap();
        assert!(measure::dc_gain(&sweep, out).unwrap() > 200.0);
    }

    #[test]
    fn buffer_lowers_output_impedance() {
        let tech = Technology::default_1p2um();
        let unbuffered = OpAmp::design(
            &tech,
            OpAmpTopology::miller(MirrorTopology::Simple, false),
            spec_basic(),
        )
        .unwrap();
        let buffered = OpAmp::design(
            &tech,
            OpAmpTopology::miller(MirrorTopology::Simple, true),
            spec_basic(),
        )
        .unwrap();
        assert!(buffered.zout() < unbuffered.zout() / 3.0);
    }

    #[test]
    fn slew_rate_measured_in_feedback() {
        let tech = Technology::default_1p2um();
        let amp = OpAmp::design(
            &tech,
            OpAmpTopology::miller(MirrorTopology::Simple, false),
            spec_basic(),
        )
        .unwrap();
        let tb = amp.testbench_follower_step(&tech, 2.0, 3.0, 2e-6).unwrap();
        let op = dc_operating_point(&tb, &tech).unwrap();
        let tr = ape_spice::transient(&tb, &tech, &op, ape_spice::TranOptions::new(5e-8, 12e-6))
            .unwrap();
        let out = tb.find_node("out").unwrap();
        let sr_sim = measure::slew_rate(&tr, out);
        let sr_est = amp.perf.slew_v_per_s.unwrap();
        // Loose gate: the simulated edge mixes linear settling with slewing.
        assert!(
            sr_sim > 0.2 * sr_est && sr_sim < 8.0 * sr_est,
            "sr sim {sr_sim} vs est {sr_est}"
        );
        // It must actually follow the step.
        let v_end = tr.voltage(tr.len() - 1, out);
        assert!((v_end - 3.0).abs() < 0.25, "follower settles to {v_end}");
    }

    #[test]
    fn audit_flags_violations() {
        let spec = spec_basic();
        let good = Performance {
            dc_gain: Some(210.0),
            ugf_hz: Some(5.2e6),
            gate_area_m2: 3000e-12,
            ..Performance::default()
        };
        assert!(OpAmp::audit(&spec, &good, 0.25).is_empty());
        let bad = Performance {
            dc_gain: Some(2.0),
            ugf_hz: Some(5.2e6),
            gate_area_m2: 9000e-12,
            ..Performance::default()
        };
        let v = OpAmp::audit(&spec, &bad, 0.25);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn rejects_bad_specs() {
        let tech = Technology::default_1p2um();
        let topo = OpAmpTopology::miller(MirrorTopology::Simple, false);
        let mut s = spec_basic();
        s.gain = -5.0;
        assert!(OpAmp::design(&tech, topo, s).is_err());
        let mut s = spec_basic();
        s.cl = 0.0;
        assert!(OpAmp::design(&tech, topo, s).is_err());
        let mut s = spec_basic();
        s.ugf_hz = f64::NAN;
        assert!(OpAmp::design(&tech, topo, s).is_err());
    }

    /// A node's compute evaluates its children in the graph it is handed:
    /// an op-amp designed in an explicit calibrated graph never touches
    /// this thread's graph, and every level below it sees the graph's
    /// calibration.
    #[test]
    fn children_evaluate_in_the_graph_they_are_handed() {
        use crate::graph::{
            reset_thread_graph, set_thread_calibration, thread_graph_len, EstimationGraph,
        };
        use std::sync::Arc;

        let tech = Technology::default_1p2um();
        let mut table = ape_calib::Calibration::identity(tech.fingerprint(), "explicit");
        table.set("l2.diffpair", "dc_gain", 1.5, &[]).unwrap();
        let cal = Arc::new(table);
        let topology = OpAmpTopology::miller(MirrorTopology::Simple, false);
        let spec = spec_basic();

        reset_thread_graph();
        let graph = EstimationGraph::new(&tech, None, Some(cal.clone()));
        let explicit = graph.evaluate(&OpAmpNode { topology, spec }).unwrap();
        assert_eq!(
            thread_graph_len(),
            0,
            "a child node reached the thread graph"
        );
        let kinds: Vec<&str> = graph.stats().iter().map(|k| k.kind).collect();
        for kind in ["l1.gm_id", "l1.id_vov", "l2.diffpair", "l3.opamp.attempt"] {
            assert!(kinds.contains(&kind), "{kind} missing from {kinds:?}");
        }

        set_thread_calibration(Some(cal));
        let through_thread = OpAmp::design(&tech, topology, spec).unwrap();
        set_thread_calibration(None);
        reset_thread_graph();
        let plain = OpAmp::design(&tech, topology, spec).unwrap();
        reset_thread_graph();
        assert_eq!(format!("{explicit:?}"), format!("{through_thread:?}"));
        assert_ne!(
            format!("{explicit:?}"),
            format!("{plain:?}"),
            "the l2.diffpair correction must reach the op-amp"
        );
    }

    /// A process with zero channel-length modulation makes every stage's
    /// `gm/gds` infinite: the spec passes its field checks, the devices
    /// size fine, and only the composed gain is degenerate — exactly the
    /// case [`ApeError::NonFinite`] exists to catch.
    #[test]
    fn degenerate_process_surfaces_as_non_finite() {
        let mut tech = Technology::default_1p2um();
        let mut n = tech.nmos().unwrap().clone();
        let mut p = tech.pmos().unwrap().clone();
        n.lambda = 0.0;
        p.lambda = 0.0;
        tech.insert_model(n);
        tech.insert_model(p);
        let topo = OpAmpTopology::miller(MirrorTopology::Simple, false);
        let r = OpAmp::design(&tech, topo, spec_basic());
        assert!(matches!(r, Err(ApeError::NonFinite { .. })), "got {r:?}");
    }
}
