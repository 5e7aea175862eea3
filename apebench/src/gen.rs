//! Seeded workload inputs.
//!
//! Every input the benchmark sends comes from `--seed` through SplitMix64
//! ([`ape_anneal::Rng64`]), one decorrelated stream per generator lane, so
//! a seed fixes the byte stream a lane sends and the program under test
//! receives only the generated inputs.

use ape_anneal::Rng64;
use ape_bench::specs::{table1_opamps, OpAmpTask};
use ape_calib::json::{n, obj, s, Value};
use ape_calib::Calibration;
use ape_core::basic::MirrorTopology;
use ape_core::opamp::{OpAmpSpec, OpAmpTopology};
use ape_farm::SweepPlan;
use ape_netlist::Technology;
use ape_serve::proto::fingerprint_hex;

/// Stream ids: each generator lane draws from its own stream.
pub mod stream {
    /// Deck-pool specs of `wire-mixed-open`.
    pub const DECKS: u64 = 1;
    /// The open-loop arrival schedule and request mix.
    pub const MIXED: u64 = 2;
    /// Sweep plans.
    pub const SWEEP: u64 = 3;
    /// Warm-up plans run during sweep set-up.
    pub const SWEEP_WARMUP: u64 = 4;
    /// The ladder's sample of the window's inputs.
    pub const SAMPLE: u64 = 5;
    /// The ladder's fresh candidate points.
    pub const POINTS: u64 = 6;
    /// First closed-loop connection; connection `c` uses `CONN + c`.
    pub const CONN: u64 = 16;
    /// First synthesis thread; thread `t` uses `SYNTH + t`.
    pub const SYNTH: u64 = 32;
}

/// A generator for lane `stream` of `seed`.
pub fn rng(seed: u64, stream: u64) -> Rng64 {
    let mut mix = Rng64::seed_from_u64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    Rng64::seed_from_u64(mix.next_u64())
}

/// One op-amp sizing request: the inputs of a wire `design`, a farm job
/// or a sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignInput {
    /// Topology selections.
    pub topology: OpAmpTopology,
    /// Performance specification.
    pub spec: OpAmpSpec,
}

fn jitter(rng: &mut Rng64, v: f64, frac: f64) -> f64 {
    v * rng.range_f64(1.0 - frac, 1.0 + frac)
}

/// A Table-1 specification with every requirement jittered by ±15 % and
/// a random mirror (simple or Wilson) and buffer choice, so consecutive
/// requests never share a memo key.
pub fn table1_design(rng: &mut Rng64, tasks: &[OpAmpTask]) -> DesignInput {
    let task = &tasks[rng.range_usize(tasks.len())];
    let mirror = if rng.f64() < 0.5 {
        MirrorTopology::Simple
    } else {
        MirrorTopology::Wilson
    };
    let buffer = rng.f64() < 0.5;
    let t = task.spec;
    let spec = OpAmpSpec {
        gain: jitter(rng, t.gain, 0.15),
        ugf_hz: jitter(rng, t.ugf_hz, 0.15),
        area_max_m2: jitter(rng, t.area_max_m2, 0.15),
        ibias: jitter(rng, t.ibias, 0.15),
        zout_ohm: buffer.then(|| jitter(rng, t.zout_ohm.unwrap_or(10e3), 0.15)),
        cl: t.cl,
    };
    DesignInput {
        topology: OpAmpTopology::miller(mirror, buffer),
        spec,
    }
}

/// The closed-loop request stream of one connection.
#[derive(Debug)]
pub struct DesignStream {
    rng: Rng64,
    tasks: Vec<OpAmpTask>,
}

impl DesignStream {
    /// Connection `conn`'s stream for `seed`.
    pub fn new(seed: u64, conn: u64) -> Self {
        DesignStream {
            rng: rng(seed, stream::CONN + conn),
            tasks: table1_opamps(),
        }
    }
}

impl Iterator for DesignStream {
    type Item = DesignInput;

    fn next(&mut self) -> Option<DesignInput> {
        Some(table1_design(&mut self.rng, &self.tasks))
    }
}

/// Where a `design` runs: the daemon's default technology, or the
/// registered 0.5 µm tenant under its calibration table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The daemon's default 1.2 µm card, uncalibrated.
    Default,
    /// The tenant card with its calibration table.
    Tenant,
}

/// The `wire-mixed-open` tenant: a 0.5 µm card and a non-identity
/// calibration table fitted to it.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// The tenant technology, as `register_tech` with base `0p5um` builds it.
    pub tech: Technology,
    /// Its calibration table.
    pub calibration: Calibration,
}

impl Tenant {
    /// The fixed tenant every run registers.
    pub fn new() -> Self {
        let tech = Technology::default_0p5um();
        let mut calibration = Calibration::identity(tech.fingerprint(), "apebench");
        for (equation, metric, factor) in [
            ("l3.opamp", "dc_gain", 1.07),
            ("l3.opamp", "ugf_hz", 0.93),
            ("l2.mirror", "power_w", 1.02),
        ] {
            calibration
                .set(equation, metric, factor, &[])
                .expect("constant calibration entry is valid");
        }
        Tenant { tech, calibration }
    }

    /// The `technology` field requests carry.
    pub fn tech_ref(&self) -> String {
        fingerprint_hex(self.tech.fingerprint())
    }

    /// The `calibration` field requests carry.
    pub fn calibration_ref(&self) -> String {
        fingerprint_hex(self.calibration.fingerprint())
    }
}

impl Default for Tenant {
    fn default() -> Self {
        Self::new()
    }
}

fn mirror_name(m: MirrorTopology) -> &'static str {
    match m {
        MirrorTopology::Simple => "simple",
        MirrorTopology::Wilson => "wilson",
        MirrorTopology::Cascode => "cascode",
    }
}

/// The wire `design` request for `input`, newline-terminated.
pub fn design_line(id: u64, input: &DesignInput, target: Target, tenant: &Tenant) -> String {
    let sp = &input.spec;
    let mut spec = obj([
        ("gain", n(sp.gain)),
        ("ugf_hz", n(sp.ugf_hz)),
        ("area_max_m2", n(sp.area_max_m2)),
        ("ibias", n(sp.ibias)),
        ("cl", n(sp.cl)),
    ]);
    if let (Some(z), Value::Obj(m)) = (sp.zout_ohm, &mut spec) {
        m.insert("zout_ohm".to_string(), n(z));
    }
    let mut req = obj([
        ("op", s("design")),
        ("id", n(id as f64)),
        (
            "topology",
            obj([
                ("mirror", s(mirror_name(input.topology.current_source))),
                ("buffer", Value::Bool(input.topology.buffer)),
            ]),
        ),
        ("spec", spec),
    ]);
    if let (Target::Tenant, Value::Obj(m)) = (target, &mut req) {
        m.insert("technology".to_string(), s(&tenant.tech_ref()));
        m.insert("calibration".to_string(), s(&tenant.calibration_ref()));
    }
    let mut line = req.render();
    line.push('\n');
    line
}

/// The wire `estimate` request for a deck whose output node is `out`.
pub fn estimate_line(id: u64, deck: &str) -> String {
    let mut line = obj([
        ("op", s("estimate")),
        ("id", n(id as f64)),
        ("deck", s(deck)),
        ("output", s("out")),
    ])
    .render();
    line.push('\n');
    line
}

/// Specs of the `wire-mixed-open` deck pool (rendered in set-up).
pub fn deck_specs(seed: u64, count: usize) -> Vec<DesignInput> {
    let mut r = rng(seed, stream::DECKS);
    let tasks = table1_opamps();
    (0..count).map(|_| table1_design(&mut r, &tasks)).collect()
}

/// What one open-loop request asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MixedKind {
    /// A design never sent before.
    Fresh(DesignInput),
    /// A repeat of an earlier fresh design.
    Repeat(DesignInput),
    /// An estimate of this deck of the pool.
    Estimate(usize),
    /// A fresh design on the calibrated tenant.
    Tenant(DesignInput),
}

impl MixedKind {
    /// The span name of this kind of request.
    pub fn name(&self) -> &'static str {
        match self {
            MixedKind::Fresh(_) => "op.design",
            MixedKind::Repeat(_) => "op.design_repeat",
            MixedKind::Estimate(_) => "op.estimate",
            MixedKind::Tenant(_) => "op.design_tenant",
        }
    }
}

/// One scheduled open-loop request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When it is due, nanoseconds after the window opens.
    pub due_ns: u64,
    /// What it asks for.
    pub kind: MixedKind,
}

/// The open-loop schedule: Poisson arrivals at `rate` per second, and
/// the mix 50 % fresh design, 20 % repeat, 20 % estimate, 10 % tenant.
pub fn mixed_schedule(seed: u64, rate: f64, count: usize, decks: usize) -> Vec<Arrival> {
    let mut r = rng(seed, stream::MIXED);
    let tasks = table1_opamps();
    let mut fresh: Vec<DesignInput> = Vec::new();
    let mut out: Vec<Arrival> = Vec::with_capacity(count);
    let mut t = 0.0f64;
    for _ in 0..count {
        t += -(1.0 - r.f64()).ln() / rate;
        let pick = r.f64();
        let kind = if pick < 0.2 && !fresh.is_empty() {
            MixedKind::Repeat(fresh[r.range_usize(fresh.len())])
        } else if pick < 0.4 {
            MixedKind::Estimate(r.range_usize(decks))
        } else if pick < 0.5 {
            MixedKind::Tenant(table1_design(&mut r, &tasks))
        } else {
            let d = table1_design(&mut r, &tasks);
            fresh.push(d);
            MixedKind::Fresh(d)
        };
        out.push(Arrival {
            due_ns: (t * 1e9) as u64,
            kind,
        });
    }
    out
}

/// The `k`-th plan of a sweep stream: the 144-point example grid with
/// every gain, UGF and load jittered by ±10 %, so no two plans share a
/// point.
pub fn sweep_plan(r: &mut Rng64) -> SweepPlan {
    let mut plan = SweepPlan::example();
    for g in &mut plan.gains {
        *g = jitter(r, *g, 0.10);
    }
    for u in &mut plan.ugfs_hz {
        *u = jitter(r, *u, 0.10);
    }
    for c in &mut plan.loads_f {
        *c = jitter(r, *c, 0.10);
    }
    plan
}

/// The design inputs of `plan`, in point order.
pub fn plan_inputs(plan: &SweepPlan) -> Vec<DesignInput> {
    plan.points()
        .iter()
        .map(|p| DesignInput {
            topology: p.topology,
            spec: OpAmpSpec {
                gain: p.gain,
                ugf_hz: p.ugf_hz,
                area_max_m2: plan.area_max_m2,
                ibias: plan.ibias_a,
                zout_ohm: if p.topology.buffer {
                    plan.zout_ohm
                } else {
                    None
                },
                cl: p.cl_f,
            },
        })
        .collect()
}

/// One synthesis run of `synth-seeded`: a Table-1 task and an annealer
/// seed.
#[derive(Debug, Clone, Copy)]
pub struct SynthTask {
    /// Index into Table 1.
    pub task: usize,
    /// Annealer seed.
    pub seed: u64,
}

/// Thread `thread`'s `k`-th run: threads cycle oa0–oa9 from different
/// offsets, each run with a fresh seed from the stream.
pub fn synth_task(r: &mut Rng64, thread: usize, k: usize) -> SynthTask {
    SynthTask {
        task: (k + 5 * thread) % 10,
        seed: r.next_u64(),
    }
}

/// The synthesis seed stream of thread `thread`.
pub fn synth_rng(seed: u64, thread: usize) -> Rng64 {
    rng(seed, stream::SYNTH + thread as u64)
}
