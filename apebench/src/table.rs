//! The one table of workloads and metrics. `BENCHMARK.json` at the
//! repository root is [`benchmark_json`] verbatim (`apebench list`
//! prints it, and a test keeps the two equal).

use ape_calib::json::{s, Value};

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The command that runs one workload, relative to the repository root.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "apebench/Cargo.toml",
    "--bin",
    "apebench",
    "--",
];

/// The directories that hold the benchmark.
pub const PATHS: [&str; 1] = ["apebench"];

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layer it stresses and the one it
    /// bypasses.
    pub why: &'static str,
}

/// Every workload.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire-closed",
        why: "closed-loop daemon designs on 2 connections: the serve layer's socket path dominates, estimation is small",
    },
    Workload {
        name: "wire-mixed-open",
        why: "open-loop daemon traffic at 500 req/s: fresh, repeated, tenant-calibrated designs and netlist estimates",
    },
    Workload {
        name: "sweep-grid",
        why: "144-point sweeps on a fresh farm each: farm queue, executor and estimation graph, no daemon, no result reuse",
    },
    Workload {
        name: "synth-seeded",
        why: "APE-seeded OBLX synthesis on 2 threads: candidate evaluation (DC + AWE) and its memo, no farm or daemon",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change is a regression (`None` for layer metrics).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees; an untraced run reports these.
///
/// The bounds come from the measured spread between seeded runs (see
/// the README's baseline): on a shared 2-vCPU host the CPU speed drifts
/// by 15–40 % over minutes, which every CPU-bound figure inherits.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p90_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25),
    e2e("rss_peak_mb", "MB", Lower, 0.15),
];

/// Metrics of single layers; a traced run reports these.
pub const PER_LAYER: [Metric; 34] = [
    layer("serve.rtt_p50_us", "us", Lower),
    layer("serve.parse_us", "us", Lower),
    layer("serve.render_us", "us", Lower),
    layer("serve.overhead_p50_us", "us", Lower),
    layer("serve.refused_pct", "%", Lower),
    layer("gen.late_p99_us", "us", Lower),
    layer("farm.submit_wait_p50_us", "us", Lower),
    layer("farm.overhead_p50_us", "us", Lower),
    layer("farm.queue_wait_p50_us", "us", Lower),
    layer("farm.job_p50_us", "us", Lower),
    layer("farm.jobs_per_s", "1/s", Higher),
    layer("farm.cache_share_pct", "%", Higher),
    layer("exec.design_many_w1_per_s", "1/s", Higher),
    layer("exec.design_many_w2_per_s", "1/s", Higher),
    layer("core.design_us", "us", Lower),
    layer("core.design_cold_us", "us", Lower),
    layer("core.memo_hit_us", "us", Lower),
    layer("core.estimate_netlist_us", "us", Lower),
    layer("core.shared_memo_hit_pct", "%", Higher),
    layer("core.ape_seed_us", "us", Lower),
    layer("calib.overhead_us", "us", Lower),
    layer("netlist.parse_us", "us", Lower),
    layer("oblx.evals_per_run", "count", Lower),
    layer("oblx.candidate_memo_hit_pct", "%", Higher),
    layer("oblx.candidate_eval_us", "us", Lower),
    layer("oblx.template_us", "us", Lower),
    layer("oblx.cost_us", "us", Lower),
    layer("oblx.audit_ms", "ms", Lower),
    layer("spice.dc_op_us", "us", Lower),
    layer("spice.dc_fail_pct", "%", Lower),
    layer("spice.linearize_us", "us", Lower),
    layer("awe.pade_us", "us", Lower),
    layer("solve.search_overhead_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// Looks up a workload by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn string(text: &str) -> String {
    s(text).render()
}

fn metric_line(m: &Metric) -> String {
    let mut line = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        string(m.name),
        string(m.unit),
        string(m.better.as_str())
    );
    if let Some(b) = m.bound {
        line.push_str(&format!(", \"bound\": {}", Value::Num(b).render()));
    }
    line.push('}');
    line
}

fn list_block(key: &str, lines: &[String]) -> String {
    format!("  \"{key}\": [\n    {}\n  ]", lines.join(",\n    "))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|c| string(c))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                string(w.name),
                string(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(metric_line).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(metric_line).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n{},\n{},\n{}\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        list_block("workloads", &workloads),
        list_block("end_to_end", &e2e),
        list_block("per_layer", &layers),
    )
}
