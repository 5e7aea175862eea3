//! `sweep-grid`: seeded 144-point sweeps, each on a fresh farm, driven
//! closed-loop by one thread.

use crate::gen::{plan_inputs, rng, stream, sweep_plan, Target};
use crate::run::{repeat_setup, Lane, Measured, RunOpts, Status, Window};
use crate::trace::now_ns;
use ape_core::opamp::OpAmp;
use ape_farm::{Farm, FarmConfig, SweepPlan, SweepReport};
use ape_netlist::Technology;
use std::time::Instant;

/// Points in every plan.
pub const PLAN_POINTS: usize = 144;
/// Plans whose reports are kept and recomputed point by point.
const VERIFY_PLANS: usize = 16;

/// Runs `plan` on a fresh default farm, as `batch_sweep` does; a plan
/// passes when all 144 points are sized and the Pareto front is not
/// empty.
pub fn run_plan(plan: &SweepPlan, tech: &Technology) -> (SweepReport, bool) {
    let farm = Farm::new(tech.clone(), FarmConfig::default());
    let report = plan.run(&farm);
    drop(farm);
    let ok = report.records.len() == PLAN_POINTS
        && report.successes().count() == PLAN_POINTS
        && report.pareto_front().next().is_some();
    (report, ok)
}

/// How many records of `report` differ from a direct `OpAmp::design` of
/// their point, compared bit for bit.
pub fn wrong_points(plan: &SweepPlan, report: &SweepReport, tech: &Technology) -> u64 {
    let inputs = plan_inputs(plan);
    let right = inputs.iter().zip(&report.records).filter(|(d, r)| {
        let (Ok(amp), Ok(m)) = (OpAmp::design(tech, d.topology, d.spec), &r.outcome) else {
            return false;
        };
        let gain = amp.perf.dc_gain.map(f64::abs).unwrap_or(0.0);
        m.area_um2 == amp.perf.gate_area_m2 * 1e12
            && m.power_mw == amp.perf.power_w * 1e3
            && m.gain == gain
            && m.gain_err_frac == ((d.spec.gain - gain) / d.spec.gain).max(0.0)
            && m.ugf_hz == amp.perf.ugf_hz.unwrap_or(0.0)
    });
    (inputs.len() - right.count()) as u64
}

/// The `k`-th plan of the window's stream.
fn plan_at(seed: u64, k: usize) -> SweepPlan {
    let mut r = rng(seed, stream::SWEEP);
    for _ in 0..k {
        sweep_plan(&mut r);
    }
    sweep_plan(&mut r)
}

/// The workload.
pub fn run(opts: &RunOpts) -> Result<Measured, String> {
    let tech = Technology::default_1p2um();
    let mut warm = rng(opts.seed, stream::SWEEP_WARMUP);
    let setup_s = repeat_setup(|| {
        let plan = sweep_plan(&mut warm);
        let t0 = Instant::now();
        let (_, ok) = run_plan(&plan, &tech);
        let took = t0.elapsed().as_secs_f64();
        if ok {
            Ok(took)
        } else {
            Err("warm-up sweep failed".to_string())
        }
    })?;

    let mut lane = Lane::default();
    let mut kept: Vec<(SweepPlan, SweepReport)> = Vec::new();
    let mut r = rng(opts.seed, stream::SWEEP);
    let window = Window::start(opts.seconds);
    let deadline = opts.deadline(window.t0);
    let mut due = window.t0;
    let mut k = 0u64;
    while due < deadline {
        let plan = sweep_plan(&mut r);
        let sent = now_ns();
        let (report, ok) = run_plan(&plan, &tech);
        let end = now_ns();
        let status = if ok { Status::Ok } else { Status::Failed };
        lane.record(opts.trace, "op.sweep", 0, k, due, sent, end, status);
        if !ok {
            let sized = report.successes().count();
            lane.note_failure(&format!("plan {k}: {sized} of {PLAN_POINTS} points sized"));
        }
        if ok && (k < VERIFY_PLANS as u64 / 2 || k.is_multiple_of(256)) && kept.len() < VERIFY_PLANS
        {
            kept.push((plan, report));
        }
        due = end;
        k += 1;
    }
    let mut m = Measured {
        setup_s,
        lanes: 1,
        ..Measured::default()
    };
    window.stop(now_ns(), &mut m);
    for (plan, report) in &kept {
        m.checked += PLAN_POINTS as u64;
        m.wrong += wrong_points(plan, report, &tech);
    }
    m.lane = lane;

    if opts.trace {
        // Enough whole plans to give the ladder its sample of points.
        let plans = crate::ladder::MAX_CALLS.div_ceil(PLAN_POINTS);
        let mut pick = rng(opts.seed, stream::SAMPLE);
        for k in crate::ladder::sample_indices(m.lane.attempted as usize, plans, &mut pick) {
            for d in plan_inputs(&plan_at(opts.seed, k)) {
                m.ladder.designs.push((k as u64, d, Target::Default));
            }
        }
    }
    Ok(m)
}
