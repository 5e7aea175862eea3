//! The per-layer attribution ladder of a traced run.
//!
//! After the window, the ladder replays a seeded sample of the window's
//! own inputs one layer boundary at a time, on an otherwise idle
//! process: each call into a layer's public function is timed as a span
//! parented to its ladder step and tagged with the window operation its
//! input came from. Every step stops after [`MAX_CALLS`] calls or its
//! time slice, whichever comes first, so a traced run stays bounded
//! whatever the program's speed. Reported times are medians of the calls.

use crate::gen::{self, design_line, estimate_line, DesignInput, Target, Tenant};
use crate::run::Status;
use crate::stats::median;
use crate::synth::{ape_seed, options, synthesize_seeded, INTERVAL_FRAC};
use crate::trace::Recorder;
use crate::wire::{status_of, with_calibration, Daemon};
use ape_anneal::Rng64;
use ape_awe::awe_transfer_auto;
use ape_core::graph::{reset_thread_graph, thread_graph_stats};
use ape_core::netest::estimate_netlist;
use ape_core::opamp::OpAmp;
use ape_exec::Executor;
use ape_farm::{Farm, FarmConfig, Request};
use ape_netlist::{parse_spice, Technology};
use ape_oblx::{
    audit_candidate, build_candidate, evaluate_candidate_with, seeded_ranges, CostWeights,
    DesignPoint, EvalFidelity,
};
use ape_serve::proto::{design_result, estimate_result, ok_response, parse_request};
use ape_spice::{dc_operating_point_with, linearize, DcOptions};
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

/// Most calls one ladder step makes (and the sample size it draws).
pub const MAX_CALLS: usize = 1000;
/// Fewest calls a step makes before its time slice may stop it.
const MIN_CALLS: usize = 8;

/// Trace lane of ladder steps run on the calling thread.
pub const LANE_MAIN: u32 = 100;
/// Trace lane of the estimation-core steps (a fresh thread).
pub const LANE_CORE: u32 = 101;
/// Trace lane of the synthesis steps (a fresh thread).
pub const LANE_SYNTH: u32 = 102;

/// The window's inputs, sampled, in window order.
#[derive(Debug, Default, Clone)]
pub struct LadderInput {
    /// `(op, input, target)` of every sampled sizing request.
    pub designs: Vec<(u64, DesignInput, Target)>,
    /// `(op, deck)` of every sampled netlist estimate.
    pub decks: Vec<(u64, String)>,
    /// `(op, input, annealer seed)` of every sampled synthesis run.
    pub synth: Vec<(u64, DesignInput, u64)>,
}

/// Layer metrics read off the window itself.
#[derive(Debug, Clone, Copy)]
pub struct WindowLayers {
    /// Refused operations over attempted, percent.
    pub refused_pct: f64,
    /// 99th percentile of how late the generator sent, microseconds.
    pub late_p99_us: f64,
    /// Share of generator time spent recording spans, percent.
    pub trace_overhead_pct: f64,
}

/// `k` of `0..n` drawn without replacement, ascending (all of them when
/// `n <= k`).
pub fn sample_indices(n: usize, k: usize, rng: &mut Rng64) -> Vec<usize> {
    if n <= k {
        return (0..n).collect();
    }
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.range_usize(n - i);
        idx.swap(i, j);
    }
    let mut out = idx[..k].to_vec();
    out.sort_unstable();
    out
}

/// Stops a step after [`MAX_CALLS`] calls or its slice.
struct Budget {
    start: Instant,
    slice: Duration,
    done: usize,
}

impl Budget {
    fn new(slice_ms: u64) -> Self {
        Budget {
            start: Instant::now(),
            slice: Duration::from_millis(slice_ms),
            done: 0,
        }
    }

    fn more(&mut self) -> bool {
        let go =
            self.done < MAX_CALLS && (self.done < MIN_CALLS || self.start.elapsed() < self.slice);
        self.done += usize::from(go);
        go
    }
}

type Layers = BTreeMap<&'static str, f64>;

fn request(d: &DesignInput) -> Request {
    Request::OpAmpDesign {
        topology: d.topology,
        spec: d.spec,
    }
}

/// Distinct default-technology designs, first occurrence order.
fn distinct_defaults(designs: &[(u64, DesignInput, Target)]) -> Vec<(u64, DesignInput)> {
    let mut seen = HashSet::new();
    designs
        .iter()
        .filter(|(_, _, t)| *t == Target::Default)
        .filter(|(_, d, _)| seen.insert(format!("{d:?}")))
        .map(|(op, d, _)| (*op, *d))
        .collect()
}

/// Runs the ladder and returns every per-layer metric.
pub fn run(
    input: &LadderInput,
    window: &WindowLayers,
    tenant: &Tenant,
    seed: u64,
    rec: &mut Recorder,
) -> Result<Layers, String> {
    let defaults = distinct_defaults(&input.designs);
    if defaults.is_empty() {
        return Err("the window left no design inputs to replay".to_string());
    }
    // A workload without estimates or synthesis replays those layers on
    // inputs derived from its own designs.
    let decks = if input.decks.is_empty() {
        let specs: Vec<DesignInput> = defaults.iter().take(64).map(|(_, d)| *d).collect();
        crate::wire::render_decks(&specs)?
            .into_iter()
            .zip(&defaults)
            .map(|(deck, (op, _))| (*op, deck))
            .collect()
    } else {
        input.decks.clone()
    };
    let synth: Vec<(u64, DesignInput, u64)> = if input.synth.is_empty() {
        defaults
            .iter()
            .take(64)
            .map(|(op, d)| (*op, *d, *op))
            .collect()
    } else {
        input.synth.clone()
    };

    let mut out = Layers::new();
    let (core, core_rec) = on_fresh_thread(LANE_CORE, |r| {
        core_steps(&defaults, &input.designs, &decks, &synth, tenant, r)
    })?;
    rec.absorb(core_rec);
    out.extend(core);
    out.extend(farm_steps(&defaults, &input.designs, rec));
    out.extend(exec_steps(&defaults, rec)?);
    out.extend(serve_step(&input.designs, &decks, tenant, rec)?);
    let (synth_layers, synth_rec) = on_fresh_thread(LANE_SYNTH, |r| synth_steps(&synth, seed, r))?;
    rec.absorb(synth_rec);
    out.extend(synth_layers?);

    let get = |out: &Layers, k: &str| out.get(k).copied().unwrap_or(f64::NAN);
    let farm_overhead = get(&out, "farm.submit_wait_p50_us") - get(&out, "core.design_us");
    let serve_overhead = get(&out, "serve.rtt_p50_us")
        - get(&out, "farm.submit_wait_p50_us")
        - get(&out, "serve.parse_us")
        - get(&out, "serve.render_us");
    out.insert("farm.overhead_p50_us", farm_overhead);
    out.insert("serve.overhead_p50_us", serve_overhead);
    out.insert("serve.refused_pct", window.refused_pct);
    out.insert("gen.late_p99_us", window.late_p99_us);
    out.insert("trace.overhead_pct", window.trace_overhead_pct);
    Ok(out)
}

/// Runs `f` on a new thread (a cold estimation graph and solver cache)
/// with its own recorder.
fn on_fresh_thread<T: Send>(
    lane: u32,
    f: impl FnOnce(&mut Recorder) -> T + Send,
) -> Result<(T, Recorder), String> {
    std::thread::scope(|sc| {
        sc.spawn(|| {
            let mut r = Recorder::new(lane);
            let out = f(&mut r);
            (out, r)
        })
        .join()
        .map_err(|_| format!("ladder lane {lane} panicked"))
    })
}

/// The sampled requests as wire lines, in window order.
fn wire_lines(
    designs: &[(u64, DesignInput, Target)],
    decks: &[(u64, String)],
    tenant: &Tenant,
) -> Vec<(u64, String)> {
    let mut lines: Vec<(u64, String)> = designs
        .iter()
        .map(|(op, d, t)| (*op, design_line(op + 1, d, *t, tenant)))
        .chain(
            decks
                .iter()
                .map(|(op, deck)| (*op, estimate_line(op + 1, deck))),
        )
        .collect();
    lines.sort_by_key(|(op, _)| *op);
    lines
}

fn core_steps(
    defaults: &[(u64, DesignInput)],
    designs: &[(u64, DesignInput, Target)],
    decks: &[(u64, String)],
    synth: &[(u64, DesignInput, u64)],
    tenant: &Tenant,
    rec: &mut Recorder,
) -> Layers {
    let tech = Technology::default_1p2um();
    let mut m = Layers::new();

    let cold = rec.step("ladder.core.design_cold", |rec| {
        let mut b = Budget::new(800);
        let mut t = Vec::new();
        for (op, d) in defaults.iter().take_while(|_| b.more()) {
            reset_thread_graph();
            t.push(
                rec.call("core.design", *op, || {
                    OpAmp::design(&tech, d.topology, d.spec)
                })
                .1,
            );
        }
        t
    });
    m.insert("core.design_cold_us", median(&cold));

    reset_thread_graph();
    let (warm, hit) = rec.step("ladder.core.design_warm", |rec| {
        let mut b = Budget::new(800);
        let (mut warm, mut hit) = (Vec::new(), Vec::new());
        for (op, d) in defaults.iter().take_while(|_| b.more()) {
            warm.push(
                rec.call("core.design", *op, || {
                    OpAmp::design(&tech, d.topology, d.spec)
                })
                .1,
            );
            hit.push(
                rec.call("core.design_hit", *op, || {
                    OpAmp::design(&tech, d.topology, d.spec)
                })
                .1,
            );
        }
        (warm, hit)
    });
    m.insert("core.design_us", median(&warm));
    m.insert("core.memo_hit_us", median(&hit));

    let seeds = rec.step("ladder.core.ape_seed", |rec| {
        let mut seen = HashSet::new();
        let mut b = Budget::new(800);
        let mut t = Vec::new();
        for (op, d, _) in synth
            .iter()
            .filter(|(_, d, _)| seen.insert(format!("{d:?}")))
        {
            if !b.more() {
                break;
            }
            reset_thread_graph();
            t.push(rec.call("core.ape_seed", *op, || ape_seed(&tech, d)).1);
        }
        t
    });
    m.insert("core.ape_seed_us", median(&seeds));

    let lines = wire_lines(designs, decks, tenant);
    let parse = rec.step("ladder.serve.parse", |rec| {
        let mut b = Budget::new(500);
        lines
            .iter()
            .take_while(|_| b.more())
            .map(|(op, line)| {
                rec.call("serve.parse_request", *op, || {
                    parse_request(line.trim_end())
                })
                .1
            })
            .collect::<Vec<f64>>()
    });
    m.insert("serve.parse_us", median(&parse));

    let parsed = rec.step("ladder.netlist.parse", |rec| {
        let mut b = Budget::new(500);
        let mut t = Vec::new();
        let mut circuits = Vec::new();
        for (op, deck) in decks.iter().take_while(|_| b.more()) {
            let (ckt, us) = rec.call("netlist.parse_spice", *op, || parse_spice(deck));
            t.push(us);
            if let Ok((ckt, _)) = ckt {
                circuits.push((*op, ckt));
            }
        }
        m.insert("netlist.parse_us", median(&t));
        circuits
    });

    let estimates = rec.step("ladder.core.estimate_netlist", |rec| {
        let mut b = Budget::new(800);
        let mut t = Vec::new();
        let mut ests = Vec::new();
        for (op, ckt) in parsed.iter().take_while(|_| b.more()) {
            let Some(out) = ckt.find_node("out") else {
                continue;
            };
            // A daemon job starts with a cold graph and solver cache.
            reset_thread_graph();
            ape_spice::reset_symbolic_cache();
            let (est, us) = rec.call("core.estimate_netlist", *op, || {
                estimate_netlist(ckt, &tech, out)
            });
            t.push(us);
            if let Ok(est) = est {
                ests.push((*op, est));
            }
        }
        m.insert("core.estimate_netlist_us", median(&t));
        ests
    });

    let render = rec.step("ladder.serve.render", |rec| {
        let mut b = Budget::new(500);
        let mut t = Vec::new();
        for (op, d) in defaults.iter().take_while(|_| b.more()) {
            if let Ok(amp) = OpAmp::design(&tech, d.topology, d.spec) {
                t.push(
                    rec.call("serve.render_design", *op, || {
                        ok_response(op + 1, design_result(&amp))
                    })
                    .1,
                );
            }
        }
        let mut b = Budget::new(300);
        for (op, est) in estimates.iter().take_while(|_| b.more()) {
            t.push(
                rec.call("serve.render_estimate", *op, || {
                    ok_response(op + 1, estimate_result(est))
                })
                .1,
            );
        }
        t
    });
    m.insert("serve.render_us", median(&render));

    // Calibrated against uncalibrated sizing of the same specs on the
    // tenant card, each pass from a fresh graph.
    let tenant_specs: Vec<(u64, DesignInput)> = {
        let own: Vec<_> = designs
            .iter()
            .filter(|(_, _, t)| *t == Target::Tenant)
            .map(|(op, d, _)| (*op, *d))
            .collect();
        if own.is_empty() {
            defaults.to_vec()
        } else {
            own
        }
    };
    let (off, on) = rec.step("ladder.calib", |rec| {
        let pass = |rec: &mut Recorder, name: &'static str| {
            reset_thread_graph();
            let mut b = Budget::new(400);
            tenant_specs
                .iter()
                .take_while(|_| b.more())
                .map(|(op, d)| {
                    rec.call(name, *op, || {
                        OpAmp::design(&tenant.tech, d.topology, d.spec)
                    })
                    .1
                })
                .collect::<Vec<f64>>()
        };
        let off = pass(rec, "core.design_uncalibrated");
        let on = with_calibration(&tenant.calibration, || pass(rec, "core.design_calibrated"));
        (off, on)
    });
    m.insert("calib.overhead_us", median(&on) - median(&off));
    reset_thread_graph();
    m
}

fn farm_steps(
    defaults: &[(u64, DesignInput)],
    designs: &[(u64, DesignInput, Target)],
    rec: &mut Recorder,
) -> Layers {
    let tech = Technology::default_1p2um();
    // A fresh shared memo per farm: every executor thread drops the graph
    // it kept from the window on its first job here.
    let config = FarmConfig {
        shared_graph: true,
        ..FarmConfig::default()
    };
    let mut m = Layers::new();

    let farm = Farm::new(tech.clone(), config.clone());
    let single = rec.step("ladder.farm.single", |rec| {
        let mut b = Budget::new(800);
        let mut t = Vec::new();
        for (op, d) in defaults.iter().take_while(|_| b.more()) {
            let (r, us) = rec.call("farm.submit_wait", *op, || farm.submit(request(d)).wait());
            if r.is_ok() {
                t.push(us);
            }
        }
        t
    });
    drop(farm);
    m.insert("farm.submit_wait_p50_us", median(&single));

    // The sample in window order, repeats included, submitted in bursts
    // the size of a sweep plan.
    let farm = Farm::new(tech, config);
    let batch: Vec<&(u64, DesignInput, Target)> = designs
        .iter()
        .filter(|(_, _, t)| *t == Target::Default)
        .take(MAX_CALLS)
        .collect();
    let wall = rec.step("ladder.farm.batch", |rec| {
        let t0 = Instant::now();
        for burst in batch.chunks(crate::sweep::PLAN_POINTS) {
            let handles: Vec<_> = burst
                .iter()
                .map(|(op, d, _)| rec.call("farm.submit", *op, || farm.submit(request(d))).0)
                .collect();
            for (h, (op, _, _)) in handles.iter().zip(burst) {
                let _ = rec.call("farm.wait", *op, || h.wait());
            }
        }
        t0.elapsed().as_secs_f64()
    });
    let stats = farm.stats();
    m.insert("farm.jobs_per_s", batch.len() as f64 / wall);
    m.insert("farm.queue_wait_p50_us", farm.queue_wait_ns().p50() / 1e3);
    m.insert("farm.job_p50_us", farm.job_latency_ns().p50() / 1e3);
    m.insert(
        "farm.cache_share_pct",
        100.0 * (stats.cache_hits + stats.deduped) as f64 / stats.submitted.max(1) as f64,
    );
    let shared = farm.shared_memo().map(|s| s.stats()).unwrap_or_default();
    m.insert(
        "core.shared_memo_hit_pct",
        100.0 * shared.hits as f64 / (shared.hits + shared.misses).max(1) as f64,
    );
    m
}

fn exec_steps(defaults: &[(u64, DesignInput)], rec: &mut Recorder) -> Result<Layers, String> {
    let chunks: Vec<(u64, Vec<_>)> = defaults
        .chunks(crate::sweep::PLAN_POINTS)
        .map(|c| {
            (
                c[0].0,
                c.iter().map(|(_, d)| (d.topology, d.spec)).collect(),
            )
        })
        .collect();
    let mut m = Layers::new();
    for (lanes, name) in [
        (1, "exec.design_many_w1_per_s"),
        (2, "exec.design_many_w2_per_s"),
    ] {
        // Fresh threads all round, so neither lane count inherits a warm
        // graph from the other.
        let (rate, r) = on_fresh_thread(LANE_CORE, |r| {
            let exec = Executor::new(lanes - 1);
            let tech = Technology::default_1p2um();
            let mut b = Budget::new(800);
            let (mut designs, mut secs) = (0usize, 0.0f64);
            for (op, chunk) in chunks.iter().take_while(|_| b.more()) {
                let (res, us) = r.call("exec.design_many_on", *op, || {
                    OpAmp::design_many_on(&exec, &tech, chunk)
                });
                designs += res.iter().filter(|x| x.is_ok()).count();
                secs += us / 1e6;
            }
            designs as f64 / secs
        })?;
        rec.absorb(r);
        m.insert(name, rate);
    }
    Ok(m)
}

fn serve_step(
    designs: &[(u64, DesignInput, Target)],
    decks: &[(u64, String)],
    tenant: &Tenant,
    rec: &mut Recorder,
) -> Result<Layers, String> {
    let needs_tenant = designs.iter().any(|(_, _, t)| *t == Target::Tenant);
    let mut daemon = Daemon::start(1, needs_tenant.then_some(tenant))?;
    let mut conn = daemon.conns.pop().ok_or("no connection")?;
    let lines = wire_lines(designs, decks, tenant);
    let rtt = rec.step("ladder.serve.rtt", |rec| {
        let mut b = Budget::new(1500);
        let mut reply = String::new();
        let mut t = Vec::new();
        for (op, line) in lines.iter().take_while(|_| b.more()) {
            let (r, us) = rec.call("serve.request", *op, || conn.call(line, &mut reply));
            if r.is_ok() && status_of(&reply) == Status::Ok {
                t.push(us);
            }
        }
        t
    });
    drop(conn);
    daemon.stop();
    Ok(Layers::from([("serve.rtt_p50_us", median(&rtt))]))
}

/// `(hits, misses)` of this thread's `oblx.candidate` memo.
fn candidate_counts() -> (usize, usize) {
    thread_graph_stats()
        .iter()
        .find(|k| k.kind == "oblx.candidate")
        .map_or((0, 0), |k| {
            (k.stats.hits + k.stats.shared_hits, k.stats.misses)
        })
}

struct RunCost {
    wall_us: f64,
    seed_us: f64,
    audit_us: f64,
    evals: usize,
    hits: usize,
    misses: usize,
}

fn synth_steps(
    synth: &[(u64, DesignInput, u64)],
    seed: u64,
    rec: &mut Recorder,
) -> Result<Layers, String> {
    let tech = Technology::default_1p2um();
    let mut m = Layers::new();

    let runs: Vec<RunCost> = rec.step("ladder.oblx.runs", |rec| {
        let mut b = Budget::new(2000);
        let mut runs = Vec::new();
        for (op, d, s) in synth.iter().take_while(|_| b.more()) {
            let (point, seed_us) = rec.call("core.ape_seed", *op, || ape_seed(&tech, d));
            let Ok(point) = point else { continue };
            let (h0, m0) = candidate_counts();
            let (out, run_us) = rec.call("oblx.synthesize", *op, || {
                synthesize_seeded(&tech, d, point, *s)
            });
            let (h1, m1) = candidate_counts();
            let Ok(out) = out else { continue };
            let (_, audit_us) = rec.call("oblx.audit_candidate", *op, || {
                audit_candidate(&tech, d.topology, &d.spec, &out.best, options(*s).audit_tol)
            });
            runs.push(RunCost {
                wall_us: seed_us + run_us,
                seed_us,
                audit_us,
                evals: out.evals,
                hits: h1.saturating_sub(h0),
                misses: m1.saturating_sub(m0),
            });
        }
        runs
    });
    if runs.is_empty() {
        return Err("no synthesis run completed in the ladder".to_string());
    }

    // Fresh points drawn uniformly (in log space) from each run's APE
    // box, through every boundary of one candidate evaluation.
    let mut r = gen::rng(seed, gen::stream::POINTS);
    let dc = DcOptions {
        max_iter: 80,
        ..DcOptions::default()
    };
    #[derive(Default)]
    struct Calls {
        template: Vec<f64>,
        dc: Vec<f64>,
        dc_fail: usize,
        lin: Vec<f64>,
        pade: Vec<f64>,
        eval: Vec<f64>,
        hit: Vec<f64>,
        cost: Vec<f64>,
    }
    let boxes: Vec<_> = synth
        .iter()
        .take(64)
        .filter_map(|(op, d, _)| {
            let point = ape_seed(&tech, d).ok()?;
            let ranges = seeded_ranges(d.topology, &point, INTERVAL_FRAC).ok()?;
            Some((*op, *d, ranges))
        })
        .collect();
    if boxes.is_empty() {
        return Err("no synthesis input could be seeded".to_string());
    }
    let c = rec.step("ladder.oblx.candidates", |rec| {
        let mut c = Calls::default();
        let mut b = Budget::new(1500);
        let mut k = 0usize;
        while b.more() {
            let (op, d, ranges) = &boxes[k % boxes.len()];
            k += 1;
            let x: Vec<f64> = ranges
                .lower()
                .iter()
                .zip(ranges.upper())
                .map(|(lo, hi)| r.range_f64(*lo, *hi))
                .collect();
            let p = DesignPoint::from_log(&x);
            let (built, us) = rec.call("oblx.build_candidate", *op, || {
                build_candidate(&tech, d.topology, &d.spec, &p)
            });
            c.template.push(us);
            if let Ok((ckt, out)) = built {
                let (opp, us) = rec.call("spice.dc_operating_point", *op, || {
                    dc_operating_point_with(&ckt, &tech, dc)
                });
                c.dc.push(us);
                match opp {
                    Ok(opp) => {
                        let (sys, us) =
                            rec.call("spice.linearize", *op, || linearize(&ckt, &tech, &opp));
                        c.lin.push(us);
                        if let Ok(sys) = sys {
                            c.pade.push(
                                rec.call("awe.transfer_auto", *op, || {
                                    awe_transfer_auto(&sys, out, 3)
                                })
                                .1,
                            );
                        }
                    }
                    Err(_) => c.dc_fail += 1,
                }
            }
            let eval_once =
                || evaluate_candidate_with(&tech, d.topology, &d.spec, &p, EvalFidelity::AweOnly);
            let (eval, us) = rec.call("oblx.evaluate_candidate", *op, eval_once);
            c.eval.push(us);
            c.hit
                .push(rec.call("oblx.evaluate_candidate_hit", *op, eval_once).1);
            c.cost.push(
                rec.call("oblx.cost", *op, || {
                    ape_oblx::cost::cost(&eval, &d.spec, tech.vdd, &CostWeights::default())
                })
                .1,
            );
        }
        c
    });

    let eval_us = median(&c.eval);
    let hit_us = median(&c.hit);
    let overhead: Vec<f64> = runs
        .iter()
        .map(|r| {
            let explained =
                r.misses as f64 * eval_us + r.hits as f64 * hit_us + r.audit_us + r.seed_us;
            100.0 * (r.wall_us - explained) / r.wall_us
        })
        .collect();
    let (hits, misses) = runs
        .iter()
        .fold((0, 0), |(h, m), r| (h + r.hits, m + r.misses));
    let evals: Vec<f64> = runs.iter().map(|r| r.evals as f64).collect();
    let audits: Vec<f64> = runs.iter().map(|r| r.audit_us / 1e3).collect();
    m.insert("oblx.evals_per_run", median(&evals));
    m.insert(
        "oblx.candidate_memo_hit_pct",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
    );
    m.insert("oblx.candidate_eval_us", eval_us);
    m.insert("oblx.template_us", median(&c.template));
    m.insert("oblx.cost_us", median(&c.cost));
    m.insert("oblx.audit_ms", median(&audits));
    m.insert("spice.dc_op_us", median(&c.dc));
    m.insert(
        "spice.dc_fail_pct",
        100.0 * c.dc_fail as f64 / c.dc.len().max(1) as f64,
    );
    m.insert("spice.linearize_us", median(&c.lin));
    m.insert("awe.pade_us", median(&c.pade));
    m.insert("solve.search_overhead_pct", median(&overhead));
    Ok(m)
}
