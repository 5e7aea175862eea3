//! Nonlinear DC operating-point analysis.
//!
//! Newton-Raphson over the MNA system. The solve tries one plain Newton
//! stage first and falls back to three convergence aids that mirror
//! production SPICE practice, in this order:
//!
//! 1. **direct Newton** — full sources and the final 1 pS gmin, from the
//!    source-seeded initial guess overlaid with the caller's nodeset (see
//!    [`dc_operating_point_from`]); most circuits converge here;
//! 2. **gmin stepping** — a shunt conductance from every node to ground is
//!    swept from 10 mS down to 1 pS, each stage warm-starting the next;
//! 3. **source stepping** — if gmin stepping stalls, all independent sources
//!    ramp from 5 % to 100 % of their DC value;
//! 4. **pseudo-transient continuation** — if source stepping stalls too, an
//!    artificial capacitor on every node relaxes the circuit into a stable
//!    solution.
//!
//! The fallbacks always restart from the source-seeded guess, so a nodeset
//! can change how many iterations the direct stage takes, never which path
//! a failing solve falls back through.

use crate::engine::{MatSnapshot, RealSolver};
use crate::error::SpiceError;
use crate::mna::Unknowns;
use crate::sparse::{Backend, PatternBuilder};
use crate::stamp::{g2, gtrans, BatchSink, Stamp};
use ape_mos::{
    evaluate, evaluate_batch_with, junction_caps, meyer_caps, BiasBatch, BiasPoint, DeviceEval,
    EvalBatch, MosCaps,
};
use ape_netlist::{Circuit, ElementKind, NodeId, Technology};
use std::collections::BTreeMap;

/// Per-MOSFET operating-point record kept with the solution.
#[derive(Debug, Clone, Copy)]
pub struct MosOp {
    /// Device evaluation (current, gm, gds, gmb, region) at the solution.
    pub eval: DeviceEval,
    /// Capacitances at the solution, for AC and transient reuse.
    pub caps: MosCaps,
    /// Drain node.
    pub drain: NodeId,
    /// Gate node.
    pub gate: NodeId,
    /// Source node.
    pub source: NodeId,
    /// Bulk node.
    pub bulk: NodeId,
}

/// A converged DC operating point.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    pub(crate) x: Vec<f64>,
    pub(crate) unknowns: Unknowns,
    /// MOSFET operating records by element name.
    pub mos: BTreeMap<String, MosOp>,
    /// Newton iterations the solve took, summed over every stage it ran
    /// (direct, gmin ladder, source stepping, pseudo-transient), failed
    /// stages included.
    pub iterations: usize,
}

impl OperatingPoint {
    /// Voltage of a node at the operating point, volts.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.unknowns.voltage(&self.x, node)
    }

    /// Branch current of a voltage-defined element (V/E/L), amperes, using
    /// the SPICE sign convention (current flowing from the `+` terminal
    /// through the element).
    pub fn branch_current(&self, name: &str) -> Option<f64> {
        self.unknowns.branch_row_by_name(name).map(|r| self.x[r])
    }

    /// Total power delivered by all independent voltage sources, watts.
    pub fn supply_power(&self, circuit: &Circuit) -> f64 {
        let mut p = 0.0;
        for e in circuit.elements() {
            if let ElementKind::VoltageSource { dc, .. } = &e.kind {
                if let Some(i) = self.branch_current(&e.name) {
                    // i flows + → − through the source, so delivered power
                    // is −dc·i.
                    p += -dc * i;
                }
            }
        }
        p
    }

    /// Power delivered by one named voltage source, watts (`None` when the
    /// element is missing or not a voltage source).
    pub fn source_power(&self, circuit: &Circuit, name: &str) -> Option<f64> {
        let e = circuit.element(name)?;
        if let ElementKind::VoltageSource { dc, .. } = &e.kind {
            let i = self.branch_current(name)?;
            Some(-dc * i)
        } else {
            None
        }
    }

    /// The raw solution vector (node voltages then branch currents).
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// Renders a human-readable operating-point report: node voltages and
    /// every MOSFET's region, current and small-signal parameters — the
    /// first thing a designer reads when a circuit misbehaves.
    pub fn report(&self, circuit: &Circuit) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "* operating point of `{}`", circuit.title);
        let _ = writeln!(
            out,
            "* supply power: {:.4} mW",
            self.supply_power(circuit) * 1e3
        );
        let _ = writeln!(out, "* node voltages:");
        for idx in 1..circuit.num_nodes() {
            let n = NodeId::new(idx as u32);
            let _ = writeln!(
                out,
                "    {:<16} {:>9.4} V",
                circuit.node_name(n),
                self.voltage(n)
            );
        }
        if !self.mos.is_empty() {
            let _ = writeln!(
                out,
                "* mosfets:        region        id         gm        gds"
            );
            for (name, m) in &self.mos {
                let _ = writeln!(
                    out,
                    "    {:<14} {:<12} {:>9.3e} {:>9.3e} {:>9.3e}",
                    name,
                    m.eval.region.to_string(),
                    m.eval.ids,
                    m.eval.gm,
                    m.eval.gds
                );
            }
        }
        out
    }
}

/// How independent sources are evaluated during a stamp pass.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SourceValue {
    /// DC value scaled by a ramp factor (DC analysis).
    DcScaled(f64),
    /// Waveform value at a time point (transient analysis).
    AtTime(f64),
}

impl SourceValue {
    fn eval(self, dc: f64, wave: &ape_netlist::SourceWaveform) -> f64 {
        match self {
            SourceValue::DcScaled(s) => dc * s,
            SourceValue::AtTime(t) => wave.value_at(t, dc),
        }
    }
}

/// Adds current `i` flowing `a → b` through an element to the right-hand
/// side (it leaves node `a`).
pub(crate) fn inject(rhs: &mut [f64], a: Option<usize>, b: Option<usize>, i: f64) {
    if let Some(ra) = a {
        rhs[ra] -= i;
    }
    if let Some(rb) = b {
        rhs[rb] += i;
    }
}

/// Stamps the **static** (value-independent) part of the DC/transient
/// system: resistors, voltage-source and VCVS branch constraints, VCCS
/// transconductances and inductor branch couplings (inductors are DC
/// shorts; the transient companion adds the `-2L/h` diagonal separately).
///
/// This part is stamped once per analysis and restored from a snapshot at
/// the top of every Newton iteration; only [`stamp_devices`] re-stamps.
pub(crate) fn stamp_linear_dc<M: Stamp<f64>>(
    circuit: &Circuit,
    u: &Unknowns,
    m: &mut M,
) -> Result<(), SpiceError> {
    for e in circuit.elements() {
        let a = u.node_row(e.a);
        let b = u.node_row(e.b);
        match &e.kind {
            ElementKind::Resistor { ohms } => g2(m, a, b, 1.0 / ohms),
            ElementKind::Capacitor { .. } => {
                // Capacitor bodies are stamped by the transient companion.
            }
            ElementKind::CurrentSource { .. } => {
                // Right-hand side only: see `rhs_sources`.
            }
            ElementKind::Inductor { .. } | ElementKind::VoltageSource { .. } => {
                let k = u.branch_row(e);
                if let Some(ra) = a {
                    m.stamp(ra, k, 1.0);
                    m.stamp(k, ra, 1.0);
                }
                if let Some(rb) = b {
                    m.stamp(rb, k, -1.0);
                    m.stamp(k, rb, -1.0);
                }
            }
            ElementKind::Vcvs { gain, cp, cn } => {
                let k = u.branch_row(e);
                if let Some(ra) = a {
                    m.stamp(ra, k, 1.0);
                    m.stamp(k, ra, 1.0);
                }
                if let Some(rb) = b {
                    m.stamp(rb, k, -1.0);
                    m.stamp(k, rb, -1.0);
                }
                if let Some(rc) = u.node_row(*cp) {
                    m.stamp(k, rc, -gain);
                }
                if let Some(rc) = u.node_row(*cn) {
                    m.stamp(k, rc, *gain);
                }
            }
            ElementKind::Vccs { gm, cp, cn } => {
                gtrans(m, a, b, u.node_row(*cp), u.node_row(*cn), *gm);
            }
            ElementKind::Switch { .. } | ElementKind::Mosfet { .. } => {
                // Dynamic part: see `stamp_devices`.
            }
            other => {
                return Err(SpiceError::BadCircuit(format!(
                    "unsupported element kind {other:?} in dc analysis"
                )))
            }
        }
    }
    Ok(())
}

/// Fills the right-hand-side contributions of the independent sources.
/// Linear in source value, so the DC path computes it once at scale 1 and
/// rescales per stepping stage.
pub(crate) fn rhs_sources(circuit: &Circuit, u: &Unknowns, rhs: &mut [f64], sv: SourceValue) {
    for e in circuit.elements() {
        match &e.kind {
            ElementKind::VoltageSource { dc, waveform, .. } => {
                rhs[u.branch_row(e)] += sv.eval(*dc, waveform);
            }
            ElementKind::CurrentSource { dc, waveform, .. } => {
                inject(
                    rhs,
                    u.node_row(e.a),
                    u.node_row(e.b),
                    sv.eval(*dc, waveform),
                );
            }
            _ => {}
        }
    }
}

/// Reusable scratch for the batched device stamping pass.
///
/// The gather/evaluate/stamp cycle of every Newton iteration runs
/// through these buffers; owning them in the engine keeps the
/// steady-state loop allocation-free. `clear` keeps capacity.
#[derive(Debug, Default)]
pub(crate) struct DeviceScratch {
    biases: BiasBatch,
    evals: EvalBatch,
    sink: BatchSink<f64>,
}

/// Stamps the **dynamic** part: switch and MOSFET linearisations at `x`.
/// Re-run every Newton iteration on top of the restored static part.
///
/// MOSFETs go through a two-pass SoA batch: pass A walks the elements in
/// order gathering every device's terminal voltages into contiguous
/// [`BiasBatch`] lanes, the whole batch is evaluated back-to-back,
/// and pass B re-walks the elements stamping from the result lanes.
/// Contiguous runs of MOSFET stamps are accumulated in a [`BatchSink`]
/// and flushed through [`Stamp::stamp_batch`]; the flush replays the
/// triples in gather order, so every matrix entry and RHS row sees the
/// same additions in the same sequence as the element-at-a-time loop —
/// the batch layout changes memory traffic, not one bit of arithmetic.
pub(crate) fn stamp_devices<M: Stamp<f64>>(
    circuit: &Circuit,
    tech: &Technology,
    u: &Unknowns,
    x: &[f64],
    m: &mut M,
    rhs: &mut [f64],
    scratch: &mut DeviceScratch,
) -> Result<(), SpiceError> {
    // Pass A: gather biases for every MOSFET, in element order.
    scratch.biases.clear();
    for e in circuit.elements() {
        if let ElementKind::Mosfet {
            model,
            source,
            bulk,
            ..
        } = &e.kind
        {
            // Every card was checked up front (`check_models`); a lane
            // without one would misalign the batch below.
            if tech.model(model).is_none() {
                return Err(SpiceError::UnknownModel(model.clone()));
            }
            let vd = u.voltage(x, e.a);
            let vg = u.voltage(x, e.b);
            let vs = u.voltage(x, *source);
            let vb = u.voltage(x, *bulk);
            scratch.biases.push(BiasPoint {
                vgs: vg - vs,
                vds: vd - vs,
                vsb: vs - vb,
            });
        }
    }

    // Evaluate the whole batch back-to-back (bit-identical per lane to
    // scalar `evaluate`; pass A has already validated every model).
    let devices = circuit.elements().iter().filter_map(|e| match &e.kind {
        ElementKind::Mosfet {
            model, geometry, ..
        } => tech.model(model).map(|card| (card, geometry)),
        _ => None,
    });
    evaluate_batch_with(devices, &scratch.biases, &mut scratch.evals);

    // Pass B: stamp in element order from the SoA result lanes.
    let mut lane = 0usize;
    scratch.sink.clear();
    for e in circuit.elements() {
        let a = u.node_row(e.a);
        let b = u.node_row(e.b);
        match &e.kind {
            ElementKind::Switch {
                cp,
                cn,
                vt,
                ron,
                roff,
            } => {
                // A switch interrupts the MOSFET run: flush what has
                // been gathered so far to keep global stamp order.
                m.stamp_batch(&scratch.sink.entries);
                scratch.sink.clear();
                let vc = u.voltage(x, *cp) - u.voltage(x, *cn);
                let vab = u.voltage(x, e.a) - u.voltage(x, e.b);
                // Smooth conductance transition over ~50 mV for NR stability.
                let width = 0.05;
                let s = 1.0 / (1.0 + (-(vc - vt) / width).exp());
                let gon = 1.0 / ron;
                let goff = 1.0 / roff;
                let g = goff + (gon - goff) * s;
                let dg_dvc = (gon - goff) * s * (1.0 - s) / width;
                let k = dg_dvc * vab;
                switch_stamp(m, a, b, u.node_row(*cp), u.node_row(*cn), g, k);
                // Norton correction so the linearisation passes through the
                // true current at x.
                let ieq = -k * vc;
                inject(rhs, a, b, ieq);
            }
            ElementKind::Mosfet { source, bulk, .. } => {
                let gm = scratch.evals.gm[lane];
                let gds = scratch.evals.gds[lane].max(0.0);
                let gmb = scratch.evals.gmb[lane];
                let ids = scratch.evals.ids[lane];
                let d = a;
                let s_row = u.node_row(*source);
                mos_stamp(
                    &mut scratch.sink,
                    [d, b, s_row, u.node_row(*bulk)],
                    gds,
                    gm,
                    gmb,
                );
                // Norton equivalent current. vgs/vds come back from the
                // gathered lanes (the exact differences pass A formed);
                // the bulk term re-reads x because the scalar loop used
                // vb − vs, not −(vs − vb), and −0.0 matters here.
                let bias = scratch.biases.get(lane);
                let vbs = u.voltage(x, *bulk) - u.voltage(x, *source);
                let ieq = ids - gm * bias.vgs - gds * bias.vds - gmb * vbs;
                inject(rhs, d, s_row, ieq);
                lane += 1;
            }
            _ => {}
        }
    }
    m.stamp_batch(&scratch.sink.entries);
    scratch.sink.clear();
    Ok(())
}

/// A MOSFET's linearisation at rows `[drain, gate, source, bulk]`: `gds`
/// between drain and source, then the `gm` and `gmb` transconductances,
/// each a current drain → source controlled by (gate, source) and
/// (bulk, source).
fn mos_stamp<M: Stamp<f64>>(
    m: &mut M,
    [d, g, s, b]: [Option<usize>; 4],
    gds: f64,
    gm: f64,
    gmb: f64,
) {
    g2(m, d, s, gds);
    gtrans(m, d, s, g, s, gm);
    gtrans(m, d, s, b, s, gmb);
}

/// A switch's linearisation: conductance `g` between `a` and `b` plus the
/// `k·v(cp, cn)` term of its control dependence.
fn switch_stamp<M: Stamp<f64>>(
    m: &mut M,
    a: Option<usize>,
    b: Option<usize>,
    cp: Option<usize>,
    cn: Option<usize>,
    g: f64,
    k: f64,
) {
    g2(m, a, b, g);
    gtrans(m, a, b, cp, cn, k);
}

/// Records where [`stamp_devices`] writes, from each device's terminals
/// alone: the stamp helpers above with zero values, so the footprint
/// cannot drift from the stamps and no device is evaluated.
fn device_pattern(circuit: &Circuit, u: &Unknowns, pb: &mut PatternBuilder) {
    for e in circuit.elements() {
        let a = u.node_row(e.a);
        let b = u.node_row(e.b);
        match &e.kind {
            ElementKind::Switch { cp, cn, .. } => {
                switch_stamp(pb, a, b, u.node_row(*cp), u.node_row(*cn), 0.0, 0.0);
            }
            ElementKind::Mosfet { source, bulk, .. } => {
                let rows = [a, b, u.node_row(*source), u.node_row(*bulk)];
                mos_stamp(pb, rows, 0.0, 0.0, 0.0);
            }
            _ => {}
        }
    }
}

/// Checks every MOSFET's model card before an analysis starts: a missing
/// card is [`SpiceError::UnknownModel`], and a card of the other polarity
/// (a PMOS device bound to an NMOS card, or vice versa) is a netlist
/// mistake reported as [`SpiceError::BadCircuit`], so fuzzed circuits
/// fail before their first Newton iteration instead of panicking in it.
pub(crate) fn check_models(circuit: &Circuit, tech: &Technology) -> Result<(), SpiceError> {
    for e in circuit.elements() {
        if let ElementKind::Mosfet {
            polarity, model, ..
        } = &e.kind
        {
            let card = tech
                .model(model)
                .ok_or_else(|| SpiceError::UnknownModel(model.clone()))?;
            if card.polarity != *polarity {
                return Err(SpiceError::BadCircuit(format!(
                    "device polarity {:?} does not match model '{model}' ({:?})",
                    polarity, card.polarity
                )));
            }
        }
    }
    Ok(())
}

/// Builds the solver for an `n`-unknown DC/transient system, collecting the
/// sparsity pattern (static + dynamic footprint, gmin diagonal, plus any
/// analysis-specific extras via `extra`) when the backend resolves sparse.
pub(crate) fn build_real_solver(
    circuit: &Circuit,
    u: &Unknowns,
    backend: Backend,
    extra: impl FnOnce(&mut PatternBuilder),
) -> Result<RealSolver, SpiceError> {
    let n = u.dim();
    if !backend.use_sparse(n) {
        return Ok(RealSolver::dense(n));
    }
    let mut pb = PatternBuilder::new(n);
    // gmin / artificial-capacitance diagonal on every node row.
    for r in 0..u.n_nodes {
        pb.add(r, r);
    }
    stamp_linear_dc(circuit, u, &mut pb)?;
    device_pattern(circuit, u, &mut pb);
    extra(&mut pb);
    Ok(RealSolver::sparse(pb.build()))
}

/// Options controlling the DC solve.
#[derive(Debug, Clone, Copy)]
pub struct DcOptions {
    /// Maximum Newton iterations per stage.
    pub max_iter: usize,
    /// Absolute voltage tolerance, volts.
    pub vtol: f64,
    /// Relative tolerance.
    pub reltol: f64,
    /// Largest voltage update applied per iteration (damping), volts.
    pub vstep_limit: f64,
    /// Linear-solver backend selection.
    pub backend: Backend,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            max_iter: 150,
            vtol: 1e-7,
            reltol: 1e-6,
            vstep_limit: 0.6,
            backend: Backend::Auto,
        }
    }
}

/// Solves the DC operating point of `circuit`.
///
/// Tries plain Newton at full bias first. Only if that stage fails does
/// the solve restart from the initial guess and walk the fallbacks in
/// order: the gmin ladder, then source stepping, then pseudo-transient
/// continuation. Every stage runs at most [`DcOptions::max_iter`] Newton
/// iterations and uses the same convergence test.
///
/// # Errors
///
/// * [`SpiceError::SingularMatrix`] for structurally singular systems.
/// * [`SpiceError::NoConvergence`] when every stage fails.
/// * [`SpiceError::UnknownModel`] for MOSFETs with missing cards.
pub fn dc_operating_point(
    circuit: &Circuit,
    tech: &Technology,
) -> Result<OperatingPoint, SpiceError> {
    dc_operating_point_with(circuit, tech, DcOptions::default())
}

/// [`dc_operating_point`] with explicit options: direct Newton, then the
/// gmin ladder, source stepping and pseudo-transient as fallbacks.
///
/// # Errors
///
/// Same as [`dc_operating_point`].
pub fn dc_operating_point_with(
    circuit: &Circuit,
    tech: &Technology,
    opts: DcOptions,
) -> Result<OperatingPoint, SpiceError> {
    dc_operating_point_from(circuit, tech, opts, &[])
}

/// [`dc_operating_point_with`] whose direct Newton stage starts from
/// `nodeset`, as a SPICE `.nodeset` does: each listed node starts at its
/// voltage instead of 0 V. Nodes pinned by a grounded voltage source keep
/// the source value, and nodes outside the circuit or non-finite voltages
/// are ignored.
///
/// The seed reaches the direct stage only. The gmin ladder, source
/// stepping and pseudo-transient restart from the source-seeded guess
/// exactly as an unseeded solve does, so a poor seed can cost the direct
/// stage's iterations but never changes the fallback path. An empty
/// nodeset is [`dc_operating_point_with`], bit for bit.
///
/// # Errors
///
/// Same as [`dc_operating_point`].
pub fn dc_operating_point_from(
    circuit: &Circuit,
    tech: &Technology,
    opts: DcOptions,
    nodeset: &[(NodeId, f64)],
) -> Result<OperatingPoint, SpiceError> {
    let _span = ape_probe::span("spice.dc");
    ape_probe::counter("spice.dc.solves", 1);
    circuit
        .validate()
        .map_err(|e| SpiceError::BadCircuit(e.to_string()))?;
    check_models(circuit, tech)?;
    let u = Unknowns::for_circuit(circuit);
    let mut eng = DcEngine::new(circuit, tech, &u, opts)?;
    let x = eng.solve(initial_guess(circuit, &u, nodeset), opts)?;
    let iterations = eng.iterations;

    // Collect per-MOSFET operating info at the solution.
    let mut mos = BTreeMap::new();
    for e in circuit.elements() {
        if let ElementKind::Mosfet {
            model,
            geometry,
            source,
            bulk,
            ..
        } = &e.kind
        {
            let card = tech
                .model(model)
                .ok_or_else(|| SpiceError::UnknownModel(model.clone()))?;
            let vd = u.voltage(&x, e.a);
            let vg = u.voltage(&x, e.b);
            let vs = u.voltage(&x, *source);
            let vb = u.voltage(&x, *bulk);
            let ev = evaluate(
                card,
                geometry,
                BiasPoint {
                    vgs: vg - vs,
                    vds: vd - vs,
                    vsb: vs - vb,
                },
            );
            let mut caps = meyer_caps(card, geometry, ev.region);
            let sgn = card.polarity.sign();
            let (cdb, csb) = junction_caps(card, geometry, sgn * (vd - vb), sgn * (vs - vb));
            caps.cdb = cdb;
            caps.csb = csb;
            mos.insert(
                e.name.clone(),
                MosOp {
                    eval: ev,
                    caps,
                    drain: e.a,
                    gate: e.b,
                    source: *source,
                    bulk: *bulk,
                },
            );
        }
    }

    Ok(OperatingPoint {
        x,
        unknowns: u,
        mos,
        iterations,
    })
}

/// The reusable per-analysis DC solve state: backend solver, the static
/// (linear) matrix snapshot, the unit-scale source vector and the working
/// right-hand side. Built once per [`dc_operating_point_with`] call and
/// shared by every stage, so the steady-state Newton loop performs zero
/// heap allocations.
pub(crate) struct DcEngine<'a> {
    circuit: &'a Circuit,
    tech: &'a Technology,
    u: &'a Unknowns,
    solver: RealSolver,
    linear: MatSnapshot,
    rhs_unit: Vec<f64>,
    rhs: Vec<f64>,
    scratch: DeviceScratch,
    /// Newton iterations run so far, over every stage.
    iterations: usize,
}

impl<'a> DcEngine<'a> {
    pub(crate) fn new(
        circuit: &'a Circuit,
        tech: &'a Technology,
        u: &'a Unknowns,
        opts: DcOptions,
    ) -> Result<Self, SpiceError> {
        let n = u.dim();
        let mut solver = build_real_solver(circuit, u, opts.backend, |_| {})?;
        solver.clear();
        stamp_linear_dc(circuit, u, &mut solver)?;
        let linear = solver.snapshot();
        let mut rhs_unit = vec![0.0; n];
        rhs_sources(circuit, u, &mut rhs_unit, SourceValue::DcScaled(1.0));
        Ok(DcEngine {
            circuit,
            tech,
            u,
            solver,
            linear,
            rhs_unit,
            rhs: vec![0.0; n],
            scratch: DeviceScratch::default(),
            iterations: 0,
        })
    }

    /// Runs the stages in order until one converges: direct Newton from
    /// `x` (the seeded guess), then the gmin ladder, source stepping and
    /// pseudo-transient continuation. Each fallback restarts from the
    /// source-seeded guess; within a stage every step warm-starts the next.
    fn solve(&mut self, mut x: Vec<f64>, opts: DcOptions) -> Result<Vec<f64>, SpiceError> {
        // Stage 1: plain Newton at full bias and the final gmin.
        if self.newton(&mut x, 1e-12, 1.0, opts).is_ok() {
            return Ok(x);
        }
        ape_probe::counter("spice.dc.direct_fallbacks", 1);

        // Stage 2: gmin stepping at full bias.
        x = initial_guess(self.circuit, self.u, &[]);
        let laddered = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12].iter().all(|&gmin| {
            ape_probe::counter("spice.dc.gmin_steps", 1);
            self.newton(&mut x, gmin, 1.0, opts).is_ok()
        });
        if laddered {
            return Ok(x);
        }

        // Stage 3: source stepping with a modest gmin, then tighten gmin.
        x = initial_guess(self.circuit, self.u, &[]);
        let ramped = (1..=20).all(|k| {
            ape_probe::counter("spice.dc.source_steps", 1);
            self.newton(&mut x, 1e-9, k as f64 / 20.0, opts).is_ok()
        }) && [1e-10, 1e-12]
            .iter()
            .all(|&gmin| self.newton(&mut x, gmin, 1.0, opts).is_ok());
        if ramped {
            return Ok(x);
        }

        // Stage 4: pseudo-transient continuation — an artificial capacitor
        // on every node damps the Newton dynamics into the physically
        // reachable solution; the step size grows as the trajectory
        // settles. The heavy-duty fallback for feedback circuits with
        // marginal loop gain.
        ape_probe::counter("spice.dc.ptran_fallbacks", 1);
        x = self.pseudo_transient(opts)?;
        self.newton(&mut x, 1e-12, 1.0, opts)?;
        Ok(x)
    }

    /// One damped Newton-Raphson stage; its iterations count towards
    /// `self.iterations` whether or not it converges.
    pub(crate) fn newton(
        &mut self,
        x: &mut [f64],
        gmin: f64,
        srcscale: f64,
        opts: DcOptions,
    ) -> Result<(), SpiceError> {
        let n = self.u.dim();
        for it in 0..opts.max_iter {
            self.iterations += 1;
            // Static part from the snapshot, gmin diagonal, scaled sources,
            // then only the device linearisations are re-stamped.
            self.solver.restore(&self.linear);
            for r in 0..self.u.n_nodes {
                self.solver.stamp(r, r, gmin);
            }
            for (r, v) in self.rhs.iter_mut().zip(&self.rhs_unit) {
                *r = v * srcscale;
            }
            stamp_devices(
                self.circuit,
                self.tech,
                self.u,
                x,
                &mut self.solver,
                &mut self.rhs,
                &mut self.scratch,
            )?;
            self.solver
                .solve(&mut self.rhs)
                .ok_or(SpiceError::SingularMatrix { analysis: "dc" })?;
            // Damped update and convergence test.
            let sol = &self.rhs;
            let mut worst = 0.0f64;
            for r in 0..n {
                let delta = sol[r] - x[r];
                let lim = if r < self.u.n_nodes {
                    opts.vstep_limit
                } else {
                    f64::INFINITY
                };
                let applied = delta.clamp(-lim, lim);
                x[r] += applied;
                let scale = opts.vtol + opts.reltol * sol[r].abs();
                worst = worst.max(delta.abs() / scale);
            }
            if worst < 1.0 {
                ape_probe::counter("spice.dc.nr_iters", (it + 1) as u64);
                return Ok(());
            }
        }
        ape_probe::counter("spice.dc.nr_iters", opts.max_iter as u64);
        ape_probe::counter("spice.dc.convergence_failures", 1);
        Err(SpiceError::NoConvergence {
            analysis: "dc",
            detail: format!("stage gmin={gmin:.0e} scale={srcscale}"),
        })
    }

    /// Pseudo-transient continuation: backward-Euler relaxation with an
    /// artificial capacitor from every node to ground. Converges to a
    /// stable DC solution for circuits whose Newton iteration oscillates.
    fn pseudo_transient(&mut self, opts: DcOptions) -> Result<Vec<f64>, SpiceError> {
        let n = self.u.dim();
        let n_nodes = self.u.n_nodes;
        let mut x = initial_guess(self.circuit, self.u, &[]);
        let mut x_prev = vec![0.0; n];
        let c_art = 1e-9;
        let mut h = 1e-9;
        for _step in 0..600 {
            x_prev.copy_from_slice(&x);
            let mut converged = false;
            for _ in 0..40 {
                self.iterations += 1;
                self.solver.restore(&self.linear);
                let geq = c_art / h;
                for r in 0..n_nodes {
                    self.solver.stamp(r, r, 1e-12 + geq);
                }
                self.rhs.copy_from_slice(&self.rhs_unit);
                for (r, &xp) in x_prev.iter().enumerate().take(n_nodes) {
                    self.rhs[r] += geq * xp;
                }
                stamp_devices(
                    self.circuit,
                    self.tech,
                    self.u,
                    &x,
                    &mut self.solver,
                    &mut self.rhs,
                    &mut self.scratch,
                )?;
                self.solver
                    .solve(&mut self.rhs)
                    .ok_or(SpiceError::SingularMatrix { analysis: "dc" })?;
                let sol = &self.rhs;
                let mut worst = 0.0f64;
                for r in 0..n {
                    let delta = sol[r] - x[r];
                    let lim = if r < n_nodes {
                        opts.vstep_limit
                    } else {
                        f64::INFINITY
                    };
                    x[r] += delta.clamp(-lim, lim);
                    let scale = opts.vtol + opts.reltol * sol[r].abs();
                    worst = worst.max(delta.abs() / scale);
                }
                if worst < 1.0 {
                    converged = true;
                    break;
                }
            }
            if !converged {
                // Shrink the step and retry from the previous state.
                ape_probe::counter("spice.dc.ptran_retries", 1);
                ape_probe::value("spice.dc.ptran_h", h);
                x.copy_from_slice(&x_prev);
                h /= 4.0;
                if h < 1e-15 {
                    break;
                }
                continue;
            }
            // Steady state?
            let dx = x
                .iter()
                .zip(&x_prev)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            ape_probe::counter("spice.dc.ptran_steps", 1);
            ape_probe::value("spice.dc.ptran_dx", dx);
            if dx < 1e-7 && h > 1e-3 {
                return Ok(x);
            }
            // Backward Euler is A-stable: the step can grow without bound,
            // so slow artificial-cap modes on high-impedance nodes settle
            // in a handful of steps rather than thousands.
            h = (h * 2.5).min(1e3);
        }
        Err(SpiceError::NoConvergence {
            analysis: "dc",
            detail: "pseudo-transient continuation did not settle".into(),
        })
    }
}

/// The starting point of a solve: `nodeset` voltages (every other node at
/// 0 V), then node voltages pinned by directly-attached voltage sources,
/// which win over the nodeset.
fn initial_guess(circuit: &Circuit, u: &Unknowns, nodeset: &[(NodeId, f64)]) -> Vec<f64> {
    let mut x = vec![0.0; u.dim()];
    for &(node, v) in nodeset {
        if let Some(r) = u.node_row(node).filter(|&r| r < u.n_nodes && v.is_finite()) {
            x[r] = v;
        }
    }
    for e in circuit.elements() {
        if let ElementKind::VoltageSource { dc, .. } = &e.kind {
            if e.b.is_ground() {
                if let Some(r) = u.node_row(e.a) {
                    x[r] = *dc;
                }
            } else if e.a.is_ground() {
                if let Some(r) = u.node_row(e.b) {
                    x[r] = -*dc;
                }
            }
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_netlist::{Circuit, MosGeometry, MosPolarity, Technology};

    #[test]
    fn resistive_divider() {
        let mut c = Circuit::new("div");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vdc("V1", a, Circuit::GROUND, 6.0).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 2e3).unwrap();
        let op = dc_operating_point(&c, &Technology::default_1p2um()).unwrap();
        assert!((op.voltage(b) - 4.0).abs() < 1e-6);
        assert!((op.branch_current("V1").unwrap() + 2e-3).abs() < 1e-9);
        assert!((op.supply_power(&c) - 12e-3).abs() < 1e-8);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new("ir");
        let a = c.node("a");
        c.add_idc("I1", Circuit::GROUND, a, 1e-3).unwrap();
        c.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let op = dc_operating_point(&c, &Technology::default_1p2um()).unwrap();
        assert!((op.voltage(a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn vcvs_amplifies() {
        let mut c = Circuit::new("e");
        let i = c.node("in");
        let o = c.node("out");
        c.add_vdc("V1", i, Circuit::GROUND, 0.5).unwrap();
        c.add_vcvs("E1", o, Circuit::GROUND, i, Circuit::GROUND, 10.0)
            .unwrap();
        c.add_resistor("RL", o, Circuit::GROUND, 1e3).unwrap();
        let op = dc_operating_point(&c, &Technology::default_1p2um()).unwrap();
        assert!((op.voltage(o) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn vccs_into_load() {
        let mut c = Circuit::new("g");
        let i = c.node("in");
        let o = c.node("out");
        c.add_vdc("V1", i, Circuit::GROUND, 1.0).unwrap();
        // 1 mS transconductance pulling current out of `o`.
        c.add_vccs("G1", o, Circuit::GROUND, i, Circuit::GROUND, 1e-3)
            .unwrap();
        c.add_resistor("RL", o, Circuit::GROUND, 1e3).unwrap();
        c.add_resistor("Ri", i, Circuit::GROUND, 1e6).unwrap();
        let op = dc_operating_point(&c, &Technology::default_1p2um()).unwrap();
        // i(o→gnd through G1) = 1 mA leaves node o: v(o) = -1 V.
        assert!((op.voltage(o) + 1.0).abs() < 1e-6);
    }

    /// A diode-connected NMOS fed 50 µA.
    fn diode_circuit() -> Circuit {
        let mut c = Circuit::new("diode");
        let d = c.node("d");
        c.add_idc("I1", Circuit::GROUND, d, 50e-6).unwrap();
        c.add_mosfet(
            "M1",
            d,
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            "CMOSN",
            MosGeometry::new(20e-6, 2.4e-6),
        )
        .unwrap();
        c
    }

    #[test]
    fn diode_connected_nmos() {
        let tech = Technology::default_1p2um();
        let c = diode_circuit();
        let d = c.find_node("d").unwrap();
        let op = dc_operating_point(&c, &tech).unwrap();
        let v = op.voltage(d);
        // Must sit a bit above vth with vov = sqrt(2 I L / (kp W)).
        let card = tech.nmos().unwrap();
        let vov = (2.0 * 50e-6 * card.leff(2.4e-6) / (card.kp * 20e-6)).sqrt();
        assert!((v - (card.vto + vov)).abs() < 0.1, "v = {v}");
        let m = &op.mos["M1"];
        assert!((m.eval.ids - 50e-6).abs() / 50e-6 < 1e-3);
    }

    #[test]
    fn nmos_common_source_amp_bias() {
        let tech = Technology::default_1p2um();
        let mut c = Circuit::new("cs");
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vdc("VDD", vdd, Circuit::GROUND, 5.0).unwrap();
        c.add_vdc("VG", g, Circuit::GROUND, 1.2).unwrap();
        c.add_resistor("RD", vdd, d, 50e3).unwrap();
        c.add_mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            "CMOSN",
            MosGeometry::new(10e-6, 2.4e-6),
        )
        .unwrap();
        let op = dc_operating_point(&c, &tech).unwrap();
        let vd = op.voltage(d);
        assert!(vd > 0.5 && vd < 4.9, "vd = {vd}");
        // KCL: resistor current equals drain current.
        let ir = (5.0 - vd) / 50e3;
        let m = &op.mos["M1"];
        assert!((ir - m.eval.ids).abs() / ir < 1e-3);
    }

    /// A 20 µA PMOS mirror into a 10 kΩ load.
    fn pmos_mirror_circuit() -> Circuit {
        let mut c = Circuit::new("pmirror");
        let vdd = c.node("vdd");
        let ref_n = c.node("ref");
        let out = c.node("out");
        c.add_vdc("VDD", vdd, Circuit::GROUND, 5.0).unwrap();
        // Reference branch: 20 µA pulled from the diode-connected PMOS.
        c.add_idc("IREF", ref_n, Circuit::GROUND, 20e-6).unwrap();
        let geom = MosGeometry::new(30e-6, 2.4e-6);
        c.add_mosfet(
            "M1",
            ref_n,
            ref_n,
            vdd,
            vdd,
            MosPolarity::Pmos,
            "CMOSP",
            geom,
        )
        .unwrap();
        c.add_mosfet("M2", out, ref_n, vdd, vdd, MosPolarity::Pmos, "CMOSP", geom)
            .unwrap();
        c.add_resistor("RL", out, Circuit::GROUND, 10e3).unwrap();
        c
    }

    #[test]
    fn pmos_current_mirror() {
        let tech = Technology::default_1p2um();
        let c = pmos_mirror_circuit();
        let out = c.find_node("out").unwrap();
        let op = dc_operating_point(&c, &tech).unwrap();
        let iout = op.voltage(out) / 10e3;
        // Channel-length modulation makes a simple mirror overshoot:
        // (1+λ·vds2)/(1+λ·vds1) ≈ 1.15 here, so allow 20 %.
        assert!(
            (iout - 20e-6).abs() / 20e-6 < 0.2,
            "mirrored current {iout}"
        );
        assert!(iout > 20e-6, "clm should make the copy overshoot");
    }

    /// Starved of iterations, the direct stage fails and the fallbacks
    /// must still land on the operating point the direct stage finds.
    #[test]
    fn fallback_stages_reach_the_direct_solution() {
        let tech = Technology::default_1p2um();
        for (c, max_iter) in [(diode_circuit(), 4), (pmos_mirror_circuit(), 8)] {
            let direct = dc_operating_point(&c, &tech).unwrap();
            assert!(
                direct.iterations < DcOptions::default().max_iter,
                "{}: {} iterations",
                c.title,
                direct.iterations
            );
            let opts = DcOptions {
                max_iter,
                ..DcOptions::default()
            };
            let fallback = dc_operating_point_with(&c, &tech, opts).unwrap();
            // A failed direct stage alone spends max_iter iterations.
            assert!(
                fallback.iterations > max_iter,
                "{}: {} iterations",
                c.title,
                fallback.iterations
            );
            for idx in 1..c.num_nodes() {
                let n = NodeId::new(idx as u32);
                let (a, b) = (fallback.voltage(n), direct.voltage(n));
                assert!(
                    (a - b).abs() < opts.vtol,
                    "{}: node {idx}: {a} vs {b}",
                    c.title
                );
            }
        }
    }

    /// A nodeset reaches the direct stage only: starved of iterations, a
    /// seeded solve whose direct stage fails falls back exactly as the
    /// unseeded one does, to the same bits in the same iterations. Given
    /// time, a seed at the answer converges at once.
    #[test]
    fn a_nodeset_changes_the_direct_stage_only() {
        let tech = Technology::default_1p2um();
        for (c, max_iter) in [(diode_circuit(), 4), (pmos_mirror_circuit(), 8)] {
            let opts = DcOptions {
                max_iter,
                ..DcOptions::default()
            };
            // Far from the answer (so the starved direct stage fails), a
            // pinned supply, a non-finite value and a node the circuit
            // does not have.
            let mut nodeset: Vec<(NodeId, f64)> = (1..c.num_nodes())
                .map(|i| (NodeId::new(i as u32), 40.0 * (i as f64)))
                .collect();
            nodeset.push((NodeId::new(1), f64::NAN));
            nodeset.push((NodeId::new(c.num_nodes() as u32 + 3), 1.0));
            let plain = dc_operating_point_with(&c, &tech, opts).unwrap();
            let seeded = dc_operating_point_from(&c, &tech, opts, &nodeset).unwrap();
            assert!(plain.iterations > max_iter, "{}: direct stage", c.title);
            assert_eq!(format!("{plain:?}"), format!("{seeded:?}"), "{}", c.title);
            assert_eq!(plain.iterations, seeded.iterations, "{}", c.title);

            let direct = dc_operating_point(&c, &tech).unwrap();
            let at_answer: Vec<(NodeId, f64)> = (1..c.num_nodes())
                .map(|i| NodeId::new(i as u32))
                .map(|n| (n, direct.voltage(n)))
                .collect();
            let warm =
                dc_operating_point_from(&c, &tech, DcOptions::default(), &at_answer).unwrap();
            assert!(
                warm.iterations <= 2,
                "{}: {} iterations from the answer, {} from the default guess",
                c.title,
                warm.iterations,
                direct.iterations
            );
        }
    }

    /// A PMOS device bound to the NMOS card fails before the first Newton
    /// iteration, with the same typed error in DC and in transient.
    #[test]
    fn mismatched_card_polarity_is_a_typed_error_in_dc_and_transient() {
        let tech = Technology::default_1p2um();
        let good = diode_circuit();
        let op = dc_operating_point(&good, &tech).unwrap();
        let mut bad = Circuit::new("diode");
        let d = bad.node("d");
        bad.add_idc("I1", Circuit::GROUND, d, 50e-6).unwrap();
        bad.add_mosfet(
            "M1",
            d,
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Pmos,
            "CMOSN",
            MosGeometry::new(20e-6, 2.4e-6),
        )
        .unwrap();
        let expect = "device polarity Pmos does not match model 'CMOSN' (Nmos)";
        for backend in [Backend::Dense, Backend::Sparse] {
            let opts = DcOptions {
                backend,
                ..DcOptions::default()
            };
            let dc = dc_operating_point_with(&bad, &tech, opts).unwrap_err();
            let mut topts = crate::tran::TranOptions::new(1e-9, 1e-8);
            topts.backend = backend;
            let tran = crate::tran::transient(&bad, &tech, &op, topts).unwrap_err();
            for err in [dc, tran] {
                assert!(
                    matches!(&err, SpiceError::BadCircuit(m) if m.contains(expect)),
                    "{backend:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn switch_passes_and_blocks() {
        let tech = Technology::default_1p2um();
        for (vctl, expect_high) in [(5.0, true), (0.0, false)] {
            let mut c = Circuit::new("sw");
            let i = c.node("in");
            let o = c.node("out");
            let ctl = c.node("ctl");
            c.add_vdc("V1", i, Circuit::GROUND, 2.0).unwrap();
            c.add_vdc("VC", ctl, Circuit::GROUND, vctl).unwrap();
            c.add_switch("S1", i, o, ctl, Circuit::GROUND, 2.5, 1e3, 1e12)
                .unwrap();
            c.add_resistor("RL", o, Circuit::GROUND, 1e6).unwrap();
            let op = dc_operating_point(&c, &tech).unwrap();
            let vo = op.voltage(o);
            if expect_high {
                assert!(vo > 1.9, "on: vo = {vo}");
            } else {
                assert!(vo < 0.1, "off: vo = {vo}");
            }
        }
    }

    #[test]
    fn floating_node_reports_error() {
        let mut c = Circuit::new("bad");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vdc("V1", a, Circuit::GROUND, 1.0).unwrap();
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        c.add_capacitor("C1", b, Circuit::GROUND, 1e-12).unwrap();
        // Node b floats at DC (only a capacitor) — gmin keeps it solvable,
        // pinning it to ground.
        let op = dc_operating_point(&c, &Technology::default_1p2um()).unwrap();
        assert!(op.voltage(b).abs() < 1e-3);
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut c = Circuit::new("l");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vdc("V1", a, Circuit::GROUND, 1.0).unwrap();
        c.add_inductor("L1", a, b, 1e-3).unwrap();
        c.add_resistor("R1", b, Circuit::GROUND, 100.0).unwrap();
        let op = dc_operating_point(&c, &Technology::default_1p2um()).unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-6);
        assert!((op.branch_current("L1").unwrap() - 10e-3).abs() < 1e-8);
    }

    #[test]
    fn report_mentions_nodes_and_devices() {
        let tech = Technology::default_1p2um();
        let mut c = Circuit::new("rpt");
        let d = c.node("drain");
        c.add_idc("I1", Circuit::GROUND, d, 50e-6).unwrap();
        c.add_mosfet(
            "M1",
            d,
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            "CMOSN",
            MosGeometry::new(20e-6, 2.4e-6),
        )
        .unwrap();
        let op = dc_operating_point(&c, &tech).unwrap();
        let rpt = op.report(&c);
        assert!(rpt.contains("drain"));
        assert!(rpt.contains("M1"));
        assert!(rpt.contains("saturation"));
    }

    #[test]
    fn unknown_model_is_typed_error() {
        let mut c = Circuit::new("bad");
        let d = c.node("d");
        c.add_vdc("V1", d, Circuit::GROUND, 1.0).unwrap();
        c.add_mosfet(
            "M1",
            d,
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            "MISSING",
            MosGeometry::new(1e-6, 1e-6),
        )
        .unwrap();
        let err = dc_operating_point(&c, &Technology::default_1p2um()).unwrap_err();
        assert!(matches!(err, SpiceError::UnknownModel(_)));
    }
}
