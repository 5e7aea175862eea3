//! `synth-seeded`: the paper's Table-4 use. Each run sizes a Table-1
//! spec with APE and seeds an OBLX-style annealing synthesis with it.

use crate::gen::{rng, stream, synth_rng, synth_task, DesignInput, SynthTask, Target};
use crate::run::{op_id, repeat_setup, Lane, Measured, RunOpts, Status, Window};
use crate::trace::now_ns;
use ape_bench::specs::{table1_opamps, OpAmpTask};
use ape_core::opamp::OpAmp;
use ape_netlist::Technology;
use ape_oblx::{
    design_point_from_ape, synthesize, DesignPoint, InitialPoint, SynthesisOptions,
    SynthesisOutcome,
};

/// Generator threads.
pub const THREADS: usize = 2;
/// The paper's APE-seeded interval half-width.
pub const INTERVAL_FRAC: f64 = 0.2;

/// The synthesis options every run uses: default annealer, 300
/// evaluations, 20 moves per temperature.
pub fn options(seed: u64) -> SynthesisOptions {
    SynthesisOptions {
        max_evals: 300,
        moves_per_temp: 20,
        seed,
        ..SynthesisOptions::default()
    }
}

/// APE seeding: size the spec and map it onto the template's variables.
pub fn ape_seed(tech: &Technology, d: &DesignInput) -> Result<DesignPoint, String> {
    let amp = OpAmp::design(tech, d.topology, d.spec).map_err(|e| e.to_string())?;
    Ok(design_point_from_ape(tech, &amp))
}

/// One seeded synthesis from an APE point. The solver's symbolic
/// factorisation cache is reset first, as the farm does per job, so a
/// run's numbers do not depend on what the thread ran before.
pub fn synthesize_seeded(
    tech: &Technology,
    d: &DesignInput,
    point: DesignPoint,
    seed: u64,
) -> Result<SynthesisOutcome, String> {
    ape_spice::reset_symbolic_cache();
    let init = InitialPoint::ApeSeeded {
        point,
        interval_frac: INTERVAL_FRAC,
    };
    synthesize(tech, d.topology, &d.spec, &init, &options(seed)).map_err(|e| e.to_string())
}

/// A run passes when its audit produced a report and the search stayed
/// within budget with a finite cost.
pub fn run_ok(out: &SynthesisOutcome) -> bool {
    out.audit.is_ok() && (1..=300).contains(&out.evals) && out.cost.is_finite()
}

fn input_of(tasks: &[OpAmpTask], t: &SynthTask) -> DesignInput {
    let task = &tasks[t.task];
    DesignInput {
        topology: task.topology,
        spec: task.spec,
    }
}

/// The fingerprint of an outcome the re-run must reproduce exactly.
type Answer = (u64, Vec<u64>, u64, usize);

fn answer(k: u64, out: &SynthesisOutcome) -> Answer {
    (
        k,
        out.best.values.iter().map(|v| v.to_bits()).collect(),
        out.cost.to_bits(),
        out.evals,
    )
}

fn lane_run(t: usize, opts: &RunOpts, deadline: u64) -> (Lane, Vec<(SynthTask, Answer)>) {
    let tech = Technology::default_1p2um();
    let tasks = table1_opamps();
    let mut r = synth_rng(opts.seed, t);
    let mut lane = Lane::default();
    let mut kept = Vec::new();
    let mut due = now_ns();
    let mut k = 0u64;
    while due < deadline {
        let task = synth_task(&mut r, t, k as usize);
        let d = input_of(&tasks, &task);
        let sent = now_ns();
        let out = ape_seed(&tech, &d).and_then(|p| synthesize_seeded(&tech, &d, p, task.seed));
        let end = now_ns();
        let status = match &out {
            Ok(o) if run_ok(o) => Status::Ok,
            _ => Status::Failed,
        };
        let op = op_id(t as u64, k);
        lane.record(
            opts.trace,
            "op.synthesize",
            t as u32,
            op,
            due,
            sent,
            end,
            status,
        );
        match &out {
            Err(e) => lane.note_failure(&format!("run {k} of thread {t}: {e}")),
            Ok(o) if status == Status::Failed => lane.note_failure(&format!(
                "run {k} of thread {t}: audit {:?}, {} evals, cost {}",
                o.audit.as_ref().err(),
                o.evals,
                o.cost
            )),
            Ok(_) => {}
        }
        if let (Ok(o), true) = (&out, k < 4) {
            kept.push((task, answer(k, o)));
        }
        due = end;
        k += 1;
    }
    (lane, kept)
}

/// The workload.
pub fn run(opts: &RunOpts) -> Result<Measured, String> {
    let tasks = table1_opamps();
    let inputs: Vec<DesignInput> = tasks
        .iter()
        .map(|t| DesignInput {
            topology: t.topology,
            spec: t.spec,
        })
        .collect();
    // A fresh thread has a cold estimation graph: set-up is the cost of
    // APE-seeding all ten specs from nothing.
    let setup_s = repeat_setup(|| {
        std::thread::scope(|sc| {
            sc.spawn(|| {
                let tech = Technology::default_1p2um();
                let t0 = std::time::Instant::now();
                for d in &inputs {
                    ape_seed(&tech, d)?;
                }
                Ok(t0.elapsed().as_secs_f64())
            })
            .join()
            .map_err(|_| "set-up panicked".to_string())?
        })
    })?;

    let window = Window::start(opts.seconds);
    let deadline = opts.deadline(window.t0);
    let lanes: Vec<(Lane, Vec<(SynthTask, Answer)>)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| sc.spawn(move || lane_run(t, opts, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut m = Measured {
        setup_s,
        lanes: THREADS,
        ..Measured::default()
    };
    window.stop(now_ns(), &mut m);

    // Re-run the kept runs on a fresh thread: seeded synthesis is a pure
    // function of its inputs, so the answers must repeat bit for bit.
    let mut counts = Vec::with_capacity(THREADS);
    let mut kept = Vec::new();
    for (lane, answers) in lanes {
        counts.push(lane.attempted as usize);
        kept.extend(answers);
        m.lane.merge(lane);
    }
    let tasks_ref = &tasks;
    let (checked, wrong) = std::thread::scope(|sc| {
        sc.spawn(move || {
            let tech = Technology::default_1p2um();
            let mut wrong = 0u64;
            for (task, expected) in &kept {
                let d = input_of(tasks_ref, task);
                let again =
                    ape_seed(&tech, &d).and_then(|p| synthesize_seeded(&tech, &d, p, task.seed));
                if !matches!(again, Ok(o) if answer(expected.0, &o) == *expected) {
                    wrong += 1;
                }
            }
            (kept.len() as u64, wrong)
        })
        .join()
        .unwrap_or((0, 0))
    });
    m.checked = checked;
    m.wrong = wrong;

    if opts.trace {
        let total: usize = counts.iter().sum();
        let mut pick = rng(opts.seed, stream::SAMPLE);
        let picks = crate::ladder::sample_indices(total, crate::ladder::MAX_CALLS, &mut pick);
        for t in 0..THREADS {
            let mut r = synth_rng(opts.seed, t);
            let offset: usize = counts[..t].iter().sum();
            let mut wanted = picks
                .iter()
                .filter(|&&p| p >= offset && p < offset + counts[t])
                .map(|&p| p - offset)
                .peekable();
            for k in 0..counts[t] {
                let task = synth_task(&mut r, t, k);
                if wanted.peek() != Some(&k) {
                    continue;
                }
                wanted.next();
                let d = input_of(&tasks, &task);
                let op = op_id(t as u64, k as u64);
                m.ladder.designs.push((op, d, Target::Default));
                m.ladder.synth.push((op, d, task.seed));
            }
        }
    }
    Ok(m)
}
