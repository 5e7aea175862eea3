//! Transient analysis.
//!
//! Trapezoidal integration with Newton-Raphson at every time point. MOS
//! intrinsic/junction capacitances are frozen at their DC operating-point
//! values (quasi-static small-capacitance approximation) — adequate for the
//! slew/settling/delay measurements the reproduction needs and documented in
//! `DESIGN.md`. Steps that fail to converge are halved recursively.

use crate::dc::{
    build_real_solver, check_models, rhs_sources, stamp_devices, stamp_linear_dc, DeviceScratch,
    OperatingPoint, SourceValue,
};
use crate::engine::{MatSnapshot, RealSolver};
use crate::error::SpiceError;
use crate::mna::Unknowns;
use crate::sparse::Backend;
use crate::stamp::Stamp;
use ape_netlist::{Circuit, ElementKind, NodeId, Technology};

/// Options controlling a transient run.
#[derive(Debug, Clone, Copy)]
pub struct TranOptions {
    /// Output/base time step, seconds.
    pub tstep: f64,
    /// Stop time, seconds.
    pub tstop: f64,
    /// Maximum Newton iterations per time point.
    pub max_newton: usize,
    /// Maximum number of recursive step halvings before giving up.
    pub max_halvings: usize,
    /// Linear-solver backend selection.
    pub backend: Backend,
}

impl TranOptions {
    /// Creates options for a run to `tstop` with step `tstep`.
    pub fn new(tstep: f64, tstop: f64) -> Self {
        TranOptions {
            tstep,
            tstop,
            max_newton: 60,
            max_halvings: 12,
            backend: Backend::Auto,
        }
    }
}

/// A completed transient simulation: node voltages sampled over time.
#[derive(Debug, Clone)]
pub struct Transient {
    /// Sample times, seconds.
    pub times: Vec<f64>,
    samples: Vec<Vec<f64>>,
    n_nodes: usize,
}

impl Transient {
    /// Voltage of `node` at sample `k`.
    pub fn voltage(&self, k: usize, node: NodeId) -> f64 {
        match node.matrix_row() {
            Some(r) if r < self.n_nodes => self.samples[k][r],
            _ => 0.0,
        }
    }

    /// The full `(t, v)` waveform of a node.
    pub fn waveform(&self, node: NodeId) -> Vec<(f64, f64)> {
        (0..self.times.len())
            .map(|k| (self.times[k], self.voltage(k, node)))
            .collect()
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples were stored.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// One linear capacitor-like companion element with trapezoidal state.
struct CapState {
    a: NodeId,
    b: NodeId,
    c: f64,
    v_prev: f64,
    i_prev: f64,
}

struct IndState {
    /// Branch-current row, resolved once at collection time.
    row: Option<usize>,
    l: f64,
    v_prev: f64,
    i_prev: f64,
}

/// Runs a transient analysis starting from the DC operating point `op`.
///
/// # Errors
///
/// * [`SpiceError::NoConvergence`] if a time step cannot converge even after
///   `max_halvings` halvings.
/// * [`SpiceError::SingularMatrix`] for singular systems.
pub fn transient(
    circuit: &Circuit,
    tech: &Technology,
    op: &OperatingPoint,
    opts: TranOptions,
) -> Result<Transient, SpiceError> {
    let _span = ape_probe::span("spice.tran");
    ape_probe::counter("spice.tran.runs", 1);
    // The stepping loop advances `t += tstep`; a zero, negative, or
    // non-finite step would spin forever (or terminate with a bogus
    // single sample), so reject degenerate windows up front.
    if !(opts.tstep.is_finite() && opts.tstep > 0.0 && opts.tstop.is_finite() && opts.tstop >= 0.0)
    {
        return Err(SpiceError::BadCircuit(format!(
            "invalid transient window: tstep={}, tstop={}",
            opts.tstep, opts.tstop
        )));
    }
    // A positive-but-microscopic step under a large stop time is as good as
    // an infinite loop (10^600 iterations); bound the output sample count.
    const MAX_STEPS: f64 = 10_000_000.0;
    if opts.tstop / opts.tstep > MAX_STEPS {
        return Err(SpiceError::BadCircuit(format!(
            "transient window needs {:.3e} steps, over the {MAX_STEPS:.0}-step limit",
            opts.tstop / opts.tstep
        )));
    }
    check_models(circuit, tech)?;
    let u = Unknowns::for_circuit(circuit);
    let n = u.dim();
    let mut x = op.solution().to_vec();
    if x.len() != n {
        return Err(SpiceError::BadCircuit(
            "operating point does not match circuit".into(),
        ));
    }

    // Collect capacitive elements: explicit capacitors plus the five MOS
    // capacitances recorded in the operating point.
    let mut caps: Vec<CapState> = Vec::new();
    let mut inds: Vec<IndState> = Vec::new();
    for e in circuit.elements() {
        match &e.kind {
            ElementKind::Capacitor { farads } => caps.push(CapState {
                a: e.a,
                b: e.b,
                c: *farads,
                v_prev: 0.0,
                i_prev: 0.0,
            }),
            ElementKind::Inductor { henries } => inds.push(IndState {
                row: u.branch_row_by_name(&e.name),
                l: *henries,
                v_prev: 0.0,
                i_prev: 0.0,
            }),
            ElementKind::Mosfet { .. } => {
                if let Some(info) = op.mos.get(&e.name) {
                    let pairs = [
                        (info.gate, info.source, info.caps.cgs),
                        (info.gate, info.drain, info.caps.cgd),
                        (info.gate, info.bulk, info.caps.cgb),
                        (info.drain, info.bulk, info.caps.cdb),
                        (info.source, info.bulk, info.caps.csb),
                    ];
                    for (a, b, c) in pairs {
                        if c > 0.0 && a != b {
                            caps.push(CapState {
                                a,
                                b,
                                c,
                                v_prev: 0.0,
                                i_prev: 0.0,
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }
    // Initialise companion states from the operating point.
    for cs in &mut caps {
        cs.v_prev = u.voltage(&x, cs.a) - u.voltage(&x, cs.b);
        cs.i_prev = 0.0;
    }
    for is in &mut inds {
        is.v_prev = 0.0;
        is.i_prev = is.row.map(|r| x[r]).unwrap_or(0.0);
    }

    let solver = build_real_solver(circuit, &u, opts.backend, |pb| {
        // Companion footprints on top of the shared DC pattern.
        for cs in &caps {
            let (a, b) = (u.node_row(cs.a), u.node_row(cs.b));
            if let Some(ra) = a {
                pb.add(ra, ra);
            }
            if let Some(rb) = b {
                pb.add(rb, rb);
            }
            if let (Some(ra), Some(rb)) = (a, b) {
                pb.add(ra, rb);
                pb.add(rb, ra);
            }
        }
        for is in &inds {
            if let Some(k) = is.row {
                pb.add(k, k);
            }
        }
    })?;
    let static_snap = solver.snapshot();
    let mut eng = TranEngine {
        circuit,
        tech,
        u: &u,
        solver,
        static_snap,
        snap_h: 0.0,
        rhs_base: vec![0.0; n],
        rhs: vec![0.0; n],
        caps,
        inds,
        scratch: DeviceScratch::default(),
    };

    let mut times = vec![0.0];
    let mut samples = vec![x[..u.n_nodes].to_vec()];
    let mut t = 0.0;

    while t < opts.tstop - 1e-18 {
        let h_out = opts.tstep.min(opts.tstop - t);
        eng.step_adaptive(&mut x, t, h_out, opts, 0)?;
        t += h_out;
        times.push(t);
        samples.push(x[..u.n_nodes].to_vec());
    }

    Ok(Transient {
        times,
        samples,
        n_nodes: u.n_nodes,
    })
}

/// Per-analysis transient state: the backend solver, the static matrix
/// snapshot for the current step size (linear elements + gmin + trapezoidal
/// companion conductances — everything that does not change across a
/// step's Newton iterations), and reusable right-hand-side buffers.
struct TranEngine<'a> {
    circuit: &'a Circuit,
    tech: &'a Technology,
    u: &'a Unknowns,
    solver: RealSolver,
    static_snap: MatSnapshot,
    /// Step size the snapshot was built for (companion conductances are
    /// `2C/h` / `-2L/h`); a different `h` triggers a rebuild.
    snap_h: f64,
    rhs_base: Vec<f64>,
    rhs: Vec<f64>,
    caps: Vec<CapState>,
    inds: Vec<IndState>,
    scratch: DeviceScratch,
}

impl TranEngine<'_> {
    /// Rebuilds the static matrix snapshot for step size `h`.
    fn rebuild_static(&mut self, h: f64) -> Result<(), SpiceError> {
        self.solver.clear();
        for r in 0..self.u.n_nodes {
            self.solver.stamp(r, r, 1e-12);
        }
        stamp_linear_dc(self.circuit, self.u, &mut self.solver)?;
        for cs in &self.caps {
            let geq = 2.0 * cs.c / h;
            let (a, b) = (self.u.node_row(cs.a), self.u.node_row(cs.b));
            if let Some(ra) = a {
                self.solver.stamp(ra, ra, geq);
            }
            if let Some(rb) = b {
                self.solver.stamp(rb, rb, geq);
            }
            if let (Some(ra), Some(rb)) = (a, b) {
                self.solver.stamp(ra, rb, -geq);
                self.solver.stamp(rb, ra, -geq);
            }
        }
        for is in &self.inds {
            if let Some(k) = is.row {
                self.solver.stamp(k, k, -2.0 * is.l / h);
            }
        }
        self.solver.save_into(&mut self.static_snap);
        self.snap_h = h;
        Ok(())
    }

    /// Advances the solution by `h`, recursively halving on failure.
    fn step_adaptive(
        &mut self,
        x: &mut Vec<f64>,
        t: f64,
        h: f64,
        opts: TranOptions,
        depth: usize,
    ) -> Result<(), SpiceError> {
        let saved_x = x.clone();
        let saved_caps: Vec<(f64, f64)> = self.caps.iter().map(|c| (c.v_prev, c.i_prev)).collect();
        let saved_inds: Vec<(f64, f64)> = self.inds.iter().map(|l| (l.v_prev, l.i_prev)).collect();

        match self.step_once(x, t + h, h, opts) {
            Ok(()) => Ok(()),
            Err(e) => {
                if depth >= opts.max_halvings {
                    ape_probe::counter("spice.tran.step_failures", 1);
                    return Err(e);
                }
                ape_probe::counter("spice.tran.halvings", 1);
                // Restore and take two half steps.
                *x = saved_x;
                for (c, (v, i)) in self.caps.iter_mut().zip(&saved_caps) {
                    c.v_prev = *v;
                    c.i_prev = *i;
                }
                for (l, (v, i)) in self.inds.iter_mut().zip(&saved_inds) {
                    l.v_prev = *v;
                    l.i_prev = *i;
                }
                let h2 = h / 2.0;
                self.step_adaptive(x, t, h2, opts, depth + 1)?;
                self.step_adaptive(x, t + h2, h2, opts, depth + 1)
            }
        }
    }

    /// One trapezoidal step to absolute time `t_new` with step `h`.
    fn step_once(
        &mut self,
        x: &mut [f64],
        t_new: f64,
        h: f64,
        opts: TranOptions,
    ) -> Result<(), SpiceError> {
        let n = self.u.dim();
        ape_probe::counter("spice.tran.steps", 1);
        if h != self.snap_h {
            self.rebuild_static(h)?;
        }
        // Per-step right-hand-side base: sources at t_new plus companion
        // history currents — constant across this step's Newton iterations.
        // i_new = geq·v_new − (geq·v_prev + i_prev) for capacitors;
        // inductor branch rows read v − (2L/h)·i = −v_prev − (2L/h)·i_prev.
        self.rhs_base.iter_mut().for_each(|v| *v = 0.0);
        rhs_sources(
            self.circuit,
            self.u,
            &mut self.rhs_base,
            SourceValue::AtTime(t_new),
        );
        for cs in &self.caps {
            let geq = 2.0 * cs.c / h;
            let ieq = -(geq * cs.v_prev + cs.i_prev);
            if let Some(ra) = self.u.node_row(cs.a) {
                self.rhs_base[ra] -= ieq;
            }
            if let Some(rb) = self.u.node_row(cs.b) {
                self.rhs_base[rb] += ieq;
            }
        }
        for is in &self.inds {
            if let Some(k) = is.row {
                let zl = 2.0 * is.l / h;
                self.rhs_base[k] += -is.v_prev - zl * is.i_prev;
            }
        }
        let mut converged = false;
        for _ in 0..opts.max_newton {
            ape_probe::counter("spice.tran.nr_iters", 1);
            self.solver.restore(&self.static_snap);
            self.rhs.copy_from_slice(&self.rhs_base);
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
                .ok_or(SpiceError::SingularMatrix { analysis: "tran" })?;
            let sol = &self.rhs;
            let mut worst = 0.0f64;
            for r in 0..n {
                let delta = sol[r] - x[r];
                let lim = if r < self.u.n_nodes {
                    0.6
                } else {
                    f64::INFINITY
                };
                x[r] += delta.clamp(-lim, lim);
                let scale = 1e-6 + 1e-6 * sol[r].abs();
                worst = worst.max(delta.abs() / scale);
            }
            if worst < 1.0 {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(SpiceError::NoConvergence {
                analysis: "tran",
                detail: format!("time {t_new:.3e} step {h:.3e}"),
            });
        }
        // Update companion states with converged values.
        for cs in self.caps.iter_mut() {
            let v_new = self.u.voltage(x, cs.a) - self.u.voltage(x, cs.b);
            let geq = 2.0 * cs.c / h;
            let i_new = geq * (v_new - cs.v_prev) - cs.i_prev;
            cs.v_prev = v_new;
            cs.i_prev = i_new;
        }
        for is in self.inds.iter_mut() {
            let i_new = is.row.map(|r| x[r]).unwrap_or(0.0);
            let zl = 2.0 * is.l / h;
            let v_new = zl * (i_new - is.i_prev) - is.v_prev;
            is.v_prev = v_new;
            is.i_prev = i_new;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::dc_operating_point;
    use ape_netlist::{Circuit, SourceWaveform, Technology};

    /// Degenerate windows — zero/negative/non-finite steps, and a
    /// microscopic step under a huge stop time — are rejected up front
    /// instead of spinning the stepping loop (quasi-)forever.
    #[test]
    fn rejects_degenerate_windows() {
        let tech = Technology::default_1p2um();
        let mut c = Circuit::new("rc");
        let i = c.node("in");
        c.add_vsource("V1", i, Circuit::GROUND, 1.0, 0.0, SourceWaveform::Dc)
            .unwrap();
        c.add_resistor("R1", i, Circuit::GROUND, 1e3).unwrap();
        let op = dc_operating_point(&c, &tech).unwrap();
        for (tstep, tstop) in [
            (0.0, 1e-3),
            (-1e-6, 1e-3),
            (f64::NAN, 1e-3),
            (1e-6, f64::INFINITY),
            (1e-300, 1e300), // 10^600 steps
        ] {
            let r = transient(&c, &tech, &op, TranOptions::new(tstep, tstop));
            assert!(
                matches!(r, Err(SpiceError::BadCircuit(_))),
                "tstep={tstep} tstop={tstop} gave {r:?}"
            );
        }
    }

    #[test]
    fn rc_charging_curve() {
        let mut c = Circuit::new("rc");
        let i = c.node("in");
        let o = c.node("out");
        c.add_vsource(
            "V1",
            i,
            Circuit::GROUND,
            0.0,
            0.0,
            SourceWaveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 1e-9,
                fall: 1e-9,
                width: 1.0,
                period: f64::INFINITY,
            },
        )
        .unwrap();
        c.add_resistor("R1", i, o, 1e3).unwrap();
        c.add_capacitor("C1", o, Circuit::GROUND, 1e-9).unwrap();
        let tech = Technology::default_1p2um();
        let op = dc_operating_point(&c, &tech).unwrap();
        let tau = 1e-6;
        let tr = transient(&c, &tech, &op, TranOptions::new(tau / 100.0, 3.0 * tau)).unwrap();
        // v(τ) ≈ 1 - 1/e.
        let idx = tr
            .times
            .iter()
            .position(|&t| (t - tau).abs() < tau / 150.0)
            .unwrap();
        let v_tau = tr.voltage(idx, o);
        let expect = 1.0 - (-1.0f64).exp();
        assert!((v_tau - expect).abs() < 0.01, "v(tau) = {v_tau}");
        // Fully settled by 3τ within 6 %.
        let v_end = tr.voltage(tr.len() - 1, o);
        assert!(v_end > 0.94, "v(3tau) = {v_end}");
    }

    #[test]
    fn sin_source_passes_through() {
        let mut c = Circuit::new("sin");
        let i = c.node("in");
        c.add_vsource(
            "V1",
            i,
            Circuit::GROUND,
            0.0,
            0.0,
            SourceWaveform::Sin {
                offset: 0.0,
                ampl: 1.0,
                freq: 1e3,
                delay: 0.0,
            },
        )
        .unwrap();
        c.add_resistor("R1", i, Circuit::GROUND, 1e3).unwrap();
        let tech = Technology::default_1p2um();
        let op = dc_operating_point(&c, &tech).unwrap();
        let tr = transient(&c, &tech, &op, TranOptions::new(1e-5, 1e-3)).unwrap();
        // Peak near t = 0.25 ms.
        let peak = tr
            .waveform(i)
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::MIN, f64::max);
        assert!((peak - 1.0).abs() < 0.01, "peak {peak}");
    }

    #[test]
    fn lc_oscillation_period() {
        // Series RLC ringing: check the oscillation period ≈ 2π√(LC).
        let mut c = Circuit::new("rlc");
        let i = c.node("in");
        let m = c.node("mid");
        let o = c.node("out");
        c.add_vsource(
            "V1",
            i,
            Circuit::GROUND,
            0.0,
            0.0,
            SourceWaveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 1e-9,
                fall: 1e-9,
                width: 1.0,
                period: f64::INFINITY,
            },
        )
        .unwrap();
        c.add_resistor("R1", i, m, 10.0).unwrap();
        c.add_inductor("L1", m, o, 1e-3).unwrap();
        c.add_capacitor("C1", o, Circuit::GROUND, 1e-9).unwrap();
        let tech = Technology::default_1p2um();
        let op = dc_operating_point(&c, &tech).unwrap();
        let t0 = 2.0 * std::f64::consts::PI * (1e-3f64 * 1e-9).sqrt(); // ≈6.28 µs
        let tr = transient(&c, &tech, &op, TranOptions::new(t0 / 200.0, 3.0 * t0)).unwrap();
        let wave = tr.waveform(o);
        // Find the first two maxima spacing.
        let mut peaks = Vec::new();
        for w in wave.windows(3) {
            if w[1].1 > w[0].1 && w[1].1 > w[2].1 && w[1].1 > 1.05 {
                peaks.push(w[1].0);
            }
        }
        assert!(peaks.len() >= 2, "found peaks {peaks:?}");
        let period = peaks[1] - peaks[0];
        assert!(
            (period - t0).abs() / t0 < 0.05,
            "period {period}, expect {t0}"
        );
    }

    #[test]
    fn transient_respects_initial_condition() {
        // A divider at DC stays put when nothing changes.
        let mut c = Circuit::new("static");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vdc("V1", a, Circuit::GROUND, 2.0).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        c.add_capacitor("C1", b, Circuit::GROUND, 1e-12).unwrap();
        let tech = Technology::default_1p2um();
        let op = dc_operating_point(&c, &tech).unwrap();
        let tr = transient(&c, &tech, &op, TranOptions::new(1e-9, 1e-7)).unwrap();
        for k in 0..tr.len() {
            assert!((tr.voltage(k, b) - 1.0).abs() < 1e-4);
        }
    }
}
