//! Row computations for the paper's tables: est-vs-sim rows for Tables 2,
//! 3 and 5, and the synthesis runs behind Tables 1 and 4.

use crate::specs::OpAmpTask;
use ape_core::basic::{
    CurrentMirror, DcVolt, DiffPair, DiffTopology, Follower, GainStage, GainTopology,
    MirrorTopology,
};
use ape_core::module::{AudioAmplifier, FlashAdc, SallenKeyBandPass, SallenKeyLowPass, SampleHold};
use ape_core::opamp::OpAmp;
use ape_netlist::{Circuit, SourceWaveform, Technology};
use ape_oblx::{
    design_point_from_ape, synthesize, InitialPoint, OblxError, SynthesisOptions, SynthesisOutcome,
};
use ape_spice::{
    ac_sweep, dc_operating_point, decade_frequencies, measure, transient, TranOptions,
};
use std::error::Error;

/// One estimated-vs-simulated metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `"gain"`.
    pub name: &'static str,
    /// Display unit.
    pub unit: &'static str,
    /// APE's analytical estimate.
    pub est: f64,
    /// The simulator's measurement on the emitted netlist.
    pub sim: f64,
}

impl Metric {
    /// Relative difference `|est − sim| / |sim|`.
    pub fn rel_err(&self) -> f64 {
        if self.sim == 0.0 {
            if self.est == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            ((self.est - self.sim) / self.sim).abs()
        }
    }
}

/// One component's row: a name plus its metric set.
#[derive(Debug, Clone)]
pub struct ComponentRow {
    /// Component name as the paper spells it.
    pub name: String,
    /// The est/sim metrics.
    pub metrics: Vec<Metric>,
}

impl ComponentRow {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

type BoxError = Box<dyn Error + Send + Sync>;

/// Computes the nine basic-component rows of Table 2.
///
/// # Errors
///
/// Any design or simulation failure aborts the table (these are the
/// reproduction's own regression gates).
pub fn table2_rows(tech: &Technology) -> Result<Vec<ComponentRow>, BoxError> {
    let mut rows = Vec::new();

    // --- DCVolt: 2.5 V at 100 µA --------------------------------------
    {
        let d = DcVolt::design(tech, 2.5, 100e-6)?;
        let tb = d.testbench(tech)?;
        let op = dc_operating_point(&tb, tech)?;
        let out = tb.find_node("out").expect("testbench has out");
        rows.push(ComponentRow {
            name: "DCVolt".into(),
            metrics: vec![
                Metric {
                    name: "area",
                    unit: "um2",
                    est: d.perf.gate_area_um2(),
                    sim: tb.total_gate_area() * 1e12,
                },
                Metric {
                    name: "power",
                    unit: "mW",
                    est: d.perf.power_mw(),
                    sim: op.supply_power(&tb) * 1e3,
                },
                Metric {
                    name: "vout",
                    unit: "V",
                    est: 2.5,
                    sim: op.voltage(out),
                },
                Metric {
                    name: "current",
                    unit: "uA",
                    est: 100.0,
                    sim: -op.branch_current("VDD").unwrap_or(0.0) * 1e6,
                },
            ],
        });
    }

    // --- Current mirrors at 100 µA ------------------------------------
    for topo in [MirrorTopology::Simple, MirrorTopology::Wilson] {
        let m = CurrentMirror::design(tech, topo, 100e-6, 1.0)?;
        let tb = m.testbench(tech)?;
        let op = dc_operating_point(&tb, tech)?;
        rows.push(ComponentRow {
            name: topo.to_string(),
            metrics: vec![
                Metric {
                    name: "area",
                    unit: "um2",
                    est: m.perf.gate_area_um2(),
                    sim: tb.total_gate_area() * 1e12,
                },
                // Reference-branch power only: the output branch is fed by
                // the measurement source, not the supply.
                Metric {
                    name: "power",
                    unit: "mW",
                    est: m.perf.power_mw(),
                    sim: op.source_power(&tb, "VDD").unwrap_or(0.0) * 1e3,
                },
                Metric {
                    name: "current",
                    unit: "uA",
                    est: 100.0,
                    sim: -op.branch_current("VMEAS").unwrap_or(0.0) * 1e6,
                },
            ],
        });
    }

    // --- Gain stages ----------------------------------------------------
    let gain_cases = [
        (GainTopology::NmosLoad, -8.5, 120e-6),
        (GainTopology::CmosActive, -19.0, 120e-6),
        (GainTopology::CmosDiode, -5.1, 46e-6),
    ];
    for (topo, gain, ibias) in gain_cases {
        let g = GainStage::design(tech, topo, gain, ibias, 1e-12)?;
        let tb = g.testbench(tech)?;
        let op = dc_operating_point(&tb, tech)?;
        let out = tb.find_node("out").expect("testbench has out");
        let sweep = ac_sweep(&tb, tech, &op, &decade_frequencies(10.0, 1e9, 10)?)?;
        let a_sim = measure::dc_gain(&sweep, out).unwrap();
        let u_sim = measure::unity_gain_frequency(&sweep, out).unwrap_or(0.0);
        rows.push(ComponentRow {
            name: topo.to_string(),
            metrics: vec![
                Metric {
                    name: "area",
                    unit: "um2",
                    est: g.perf.gate_area_um2(),
                    sim: tb.total_gate_area() * 1e12,
                },
                Metric {
                    name: "ugf",
                    unit: "MHz",
                    est: g.perf.ugf_mhz().unwrap_or(0.0),
                    sim: u_sim * 1e-6,
                },
                Metric {
                    name: "power",
                    unit: "mW",
                    est: g.perf.power_mw(),
                    sim: op.source_power(&tb, "VDD").unwrap_or(0.0) * 1e3,
                },
                Metric {
                    name: "gain",
                    unit: "V/V",
                    est: g.perf.dc_gain.unwrap_or(0.0),
                    sim: -a_sim,
                },
            ],
        });
    }

    // --- Follower at 100 µA ---------------------------------------------
    {
        let f = Follower::design(tech, 100e-6, 10e-12)?;
        let tb = f.testbench(tech)?;
        let op = dc_operating_point(&tb, tech)?;
        let out = tb.find_node("out").expect("testbench has out");
        let sweep = ac_sweep(&tb, tech, &op, &[100.0])?;
        let sink_current = op.mos.get("MSINK").map(|m| m.eval.ids).unwrap_or(0.0);
        rows.push(ComponentRow {
            name: "Follower".into(),
            metrics: vec![
                Metric {
                    name: "area",
                    unit: "um2",
                    est: f.perf.gate_area_um2(),
                    sim: tb.total_gate_area() * 1e12,
                },
                Metric {
                    name: "power",
                    unit: "mW",
                    est: f.perf.power_mw(),
                    sim: op.supply_power(&tb) * 1e3,
                },
                Metric {
                    name: "gain",
                    unit: "V/V",
                    est: f.perf.dc_gain.unwrap_or(0.0),
                    sim: measure::dc_gain(&sweep, out).unwrap(),
                },
                Metric {
                    name: "current",
                    unit: "uA",
                    est: 100.0,
                    sim: sink_current * 1e6,
                },
            ],
        });
    }

    // --- Differential pairs at 1 µA --------------------------------------
    for (topo, adm) in [
        (DiffTopology::DiodeLoad, 10.0),
        (DiffTopology::MirrorLoad, 1000.0),
    ] {
        let p = DiffPair::design(tech, topo, adm, 1e-6, 1e-12)?;
        let tb = p.testbench(tech)?;
        let op = dc_operating_point(&tb, tech)?;
        let out = tb.find_node("out").expect("testbench has out");
        let outb = tb.find_node("outb").expect("testbench has outb");
        let sweep = ac_sweep(&tb, tech, &op, &decade_frequencies(10.0, 1e9, 10)?)?;
        // The diode-load pair is fully differential: gain and UGF are
        // measured on out − outb, not single-ended.
        let (a_sim, u_sim) = match topo {
            DiffTopology::DiodeLoad => {
                let mags: Vec<f64> = (0..sweep.len())
                    .map(|k| (sweep.voltage(k, out) - sweep.voltage(k, outb)).norm())
                    .collect();
                let mut u = 0.0;
                for k in 1..mags.len() {
                    if mags[k - 1] >= 1.0 && mags[k] < 1.0 {
                        let (f0, f1) = (sweep.freqs[k - 1], sweep.freqs[k]);
                        let t = (1f64.ln() - mags[k - 1].ln()) / (mags[k].ln() - mags[k - 1].ln());
                        u = f0 * (f1 / f0).powf(t.clamp(0.0, 1.0));
                        break;
                    }
                }
                (-mags[0], u)
            }
            DiffTopology::MirrorLoad => (
                measure::dc_gain(&sweep, out).unwrap(),
                measure::unity_gain_frequency(&sweep, out).unwrap_or(0.0),
            ),
        };
        let tail_sim = op.mos.get("MTAIL").map(|m| m.eval.ids).unwrap_or(0.0);
        rows.push(ComponentRow {
            name: topo.to_string(),
            metrics: vec![
                Metric {
                    name: "area",
                    unit: "um2",
                    est: p.perf.gate_area_um2(),
                    sim: tb.total_gate_area() * 1e12,
                },
                Metric {
                    name: "ugf",
                    unit: "MHz",
                    est: p.perf.ugf_mhz().unwrap_or(0.0),
                    sim: u_sim * 1e-6,
                },
                Metric {
                    name: "power",
                    unit: "mW",
                    est: p.perf.power_mw(),
                    sim: op.source_power(&tb, "VDD").unwrap_or(0.0) * 1e3,
                },
                Metric {
                    name: "gain",
                    unit: "V/V",
                    est: p.perf.dc_gain.unwrap_or(0.0),
                    sim: a_sim,
                },
                Metric {
                    name: "current",
                    unit: "uA",
                    est: 1.0,
                    sim: tail_sim * 1e6,
                },
            ],
        });
    }

    Ok(rows)
}

/// Measures an op-amp's output impedance by injecting a 1 A AC current at
/// the output with the inputs held at DC.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn sim_zout(tech: &Technology, amp: &OpAmp) -> Result<f64, BoxError> {
    let mut ckt = Circuit::new("zout-tb");
    let vdd = ckt.node("vdd");
    let inp = ckt.node("inp");
    let inn = ckt.node("inn");
    let out = ckt.node("out");
    ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
    let vcm = tech.vdd / 2.0;
    ckt.add_vdc("VINP", inp, Circuit::GROUND, vcm)?;
    ckt.add_vdc("VINN", inn, Circuit::GROUND, vcm)?;
    amp.build_into(&mut ckt, tech, "X1", inp, inn, out, vdd)?;
    ckt.add_isource("IZ", Circuit::GROUND, out, 0.0, 1.0, SourceWaveform::Dc)?;
    let op = dc_operating_point(&ckt, tech)?;
    let sweep = ac_sweep(&ckt, tech, &op, &[1e3])?;
    Ok(sweep.voltage(0, out).norm())
}

/// Measures an op-amp's common-mode rejection ratio in dB: the differential
/// gain over the gain with both inputs driven in phase.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn sim_cmrr_db(tech: &Technology, amp: &OpAmp) -> Result<f64, BoxError> {
    let build = |common: bool| -> Result<f64, BoxError> {
        let mut ckt = Circuit::new("cmrr-tb");
        let vdd = ckt.node("vdd");
        let inp = ckt.node("inp");
        let inn = ckt.node("inn");
        let out = ckt.node("out");
        ckt.add_vdc("VDD", vdd, Circuit::GROUND, tech.vdd)?;
        let vcm = tech.vdd / 2.0;
        let (acp, acn) = if common { (1.0, 1.0) } else { (0.5, -0.5) };
        ckt.add_vsource("VINP", inp, Circuit::GROUND, vcm, acp, SourceWaveform::Dc)?;
        ckt.add_vsource("VINN", inn, Circuit::GROUND, vcm, acn, SourceWaveform::Dc)?;
        amp.build_into(&mut ckt, tech, "X1", inp, inn, out, vdd)?;
        ckt.add_capacitor("CL", out, Circuit::GROUND, amp.spec.cl)?;
        let op = dc_operating_point(&ckt, tech)?;
        let sweep = ac_sweep(&ckt, tech, &op, &[10.0])?;
        Ok(sweep.voltage(0, out).norm())
    };
    let adm = build(false)?;
    let acm = build(true)?.max(1e-12);
    Ok(20.0 * (adm / acm).log10())
}

/// Measures slew rate with a unity-feedback step sized to the estimate.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn sim_slew(tech: &Technology, amp: &OpAmp) -> Result<f64, BoxError> {
    let sr_est = amp.perf.slew_v_per_s.unwrap_or(1e6).max(1e3);
    let window = (8.0 / sr_est).clamp(2e-6, 100e-6);
    let tb = amp.testbench_follower_step(tech, 2.0, 3.0, window / 8.0)?;
    let op = dc_operating_point(&tb, tech)?;
    let tr = transient(&tb, tech, &op, TranOptions::new(window / 400.0, window))?;
    let out = tb.find_node("out").expect("testbench has out");
    // 20-80 % measurement rejects the input edge's feedthrough spike.
    measure::slew_rate_20_80(&tr, out, 2.0, 3.0)
        .ok_or_else(|| "output never completed the 20-80 % traversal".into())
}

/// Computes one Table 3 row: estimate vs full simulation for a sized op-amp.
///
/// # Errors
///
/// Design or simulation failures abort the row.
pub fn table3_row(tech: &Technology, task: &OpAmpTask) -> Result<ComponentRow, BoxError> {
    let amp = OpAmp::design(tech, task.topology, task.spec)?;
    let tb = amp.testbench_open_loop(tech)?;
    let op = dc_operating_point(&tb, tech)?;
    let out = tb.find_node("out").expect("testbench has out");
    let sweep = ac_sweep(&tb, tech, &op, &decade_frequencies(10.0, 2e9, 8)?)?;
    let gain_sim = measure::dc_gain(&sweep, out).unwrap();
    let ugf_sim = measure::unity_gain_frequency(&sweep, out).unwrap_or(0.0);
    let tail_sim = op
        .mos
        .get("X1.MTAIL")
        .or_else(|| op.mos.get("X1.MWC"))
        .map(|m| m.eval.ids)
        .unwrap_or(0.0);
    let zout_sim = sim_zout(tech, &amp)?;
    let cmrr_sim = sim_cmrr_db(tech, &amp)?;
    let slew_sim = sim_slew(tech, &amp)?;
    Ok(ComponentRow {
        name: task.name.to_string(),
        metrics: vec![
            Metric {
                name: "power",
                unit: "mW",
                est: amp.perf.power_mw(),
                sim: op.source_power(&tb, "VDD").unwrap_or(0.0) * 1e3,
            },
            Metric {
                name: "adm",
                unit: "V/V",
                est: amp.perf.dc_gain.unwrap_or(0.0),
                sim: gain_sim,
            },
            Metric {
                name: "ugf",
                unit: "MHz",
                est: amp.perf.ugf_mhz().unwrap_or(0.0),
                sim: ugf_sim * 1e-6,
            },
            Metric {
                name: "itail",
                unit: "uA",
                est: amp.itail * 1e6,
                sim: tail_sim * 1e6,
            },
            Metric {
                name: "zout",
                unit: "kohm",
                est: amp.perf.zout_ohm.unwrap_or(0.0) * 1e-3,
                sim: zout_sim * 1e-3,
            },
            Metric {
                name: "area",
                unit: "um2",
                est: amp.perf.gate_area_um2(),
                sim: tb.total_gate_area() * 1e12,
            },
            Metric {
                name: "cmrr",
                unit: "dB",
                est: amp.perf.cmrr_db.unwrap_or(0.0),
                sim: cmrr_sim,
            },
            Metric {
                name: "slew",
                unit: "V/us",
                est: amp.perf.slew_v_per_us().unwrap_or(0.0),
                sim: slew_sim * 1e-6,
            },
        ],
    })
}

/// The five Table 5 module rows, APE estimate vs full simulation.
/// (The synthesis columns — stand-alone and APE-seeded ASTRX/OBLX — are
/// produced by the `table5` binary; they take minutes, not seconds.)
///
/// # Errors
///
/// Design or simulation failures abort the table.
pub fn table5_ape_rows(tech: &Technology) -> Result<Vec<ComponentRow>, BoxError> {
    let mut rows = Vec::new();

    // --- Sample & hold: gain 2, BW spec 20 kHz (designed with 2x margin).
    {
        let sh = SampleHold::design(tech, 2.0, 40e3, 10e-12)?;
        let tb = sh.testbench_tracking(tech)?;
        let op = dc_operating_point(&tb, tech)?;
        let out = tb.find_node("out").expect("testbench has out");
        let sweep = ac_sweep(&tb, tech, &op, &decade_frequencies(100.0, 1e7, 10)?)?;
        rows.push(ComponentRow {
            name: "s&h".into(),
            metrics: vec![
                Metric {
                    name: "gain",
                    unit: "V/V",
                    est: sh.perf.dc_gain.unwrap_or(0.0),
                    sim: measure::dc_gain(&sweep, out).unwrap(),
                },
                Metric {
                    name: "bw",
                    unit: "kHz",
                    est: sh.perf.bw_hz.unwrap_or(0.0) * 1e-3,
                    sim: measure::bandwidth_3db(&sweep, out).unwrap_or(0.0) * 1e-3,
                },
                Metric {
                    name: "area",
                    unit: "um2",
                    est: sh.perf.gate_area_um2(),
                    sim: tb.total_gate_area() * 1e12,
                },
            ],
        });
    }

    // --- Audio amplifier: open-loop gain 100, BW 20 kHz.
    {
        let amp = AudioAmplifier::design(tech, 100.0, 20e3, 10e-12)?;
        let tb = amp.testbench(tech)?;
        let op = dc_operating_point(&tb, tech)?;
        let out = tb.find_node("out").expect("testbench has out");
        let sweep = ac_sweep(&tb, tech, &op, &decade_frequencies(10.0, 1e8, 10)?)?;
        rows.push(ComponentRow {
            name: "amp".into(),
            metrics: vec![
                Metric {
                    name: "gain",
                    unit: "V/V",
                    est: amp.perf.dc_gain.unwrap_or(0.0),
                    sim: measure::dc_gain(&sweep, out).unwrap(),
                },
                Metric {
                    name: "bw",
                    unit: "kHz",
                    est: amp.perf.bw_hz.unwrap_or(0.0) * 1e-3,
                    sim: measure::bandwidth_3db(&sweep, out).unwrap_or(0.0) * 1e-3,
                },
                Metric {
                    name: "area",
                    unit: "um2",
                    est: amp.perf.gate_area_um2(),
                    sim: tb.total_gate_area() * 1e12,
                },
            ],
        });
    }

    // --- 4-bit flash ADC, 5 µs delay spec.
    {
        let adc = FlashAdc::design(tech, 4, 5e-6)?;
        let cmp = &adc.comparator;
        let tb = cmp.testbench_step(tech, 1e-6)?;
        let op = dc_operating_point(&tb, tech)?;
        let tr = transient(&tb, tech, &op, TranOptions::new(5e-8, 16e-6))?;
        let out = tb.find_node("out").expect("testbench has out");
        let t_cross = measure::crossing_time(&tr, out, tech.vdd / 2.0, true).unwrap_or(f64::NAN);
        let (full_tb, _) = adc.testbench_dc(tech, 2.5)?;
        rows.push(ComponentRow {
            name: "adc".into(),
            metrics: vec![
                Metric {
                    name: "bits",
                    unit: "",
                    est: 4.0,
                    sim: 4.0,
                },
                Metric {
                    name: "delay",
                    unit: "us",
                    est: adc.perf.delay_s.unwrap_or(0.0) * 1e6,
                    sim: (t_cross - 1e-6) * 1e6,
                },
                Metric {
                    name: "area",
                    unit: "um2",
                    est: adc.perf.gate_area_um2(),
                    sim: full_tb.total_gate_area() * 1e12,
                },
            ],
        });
    }

    // --- 4th-order Sallen-Key Butterworth low-pass at 1 kHz.
    {
        let lpf = SallenKeyLowPass::design(tech, 1e3, 4, 10e-12)?;
        let tb = lpf.testbench(tech)?;
        let op = dc_operating_point(&tb, tech)?;
        let out = tb.find_node("out").expect("testbench has out");
        let sweep = ac_sweep(&tb, tech, &op, &decade_frequencies(10.0, 1e5, 20)?)?;
        let g_sim = measure::dc_gain(&sweep, out).unwrap();
        let f3_sim = measure::bandwidth_3db(&sweep, out).unwrap_or(0.0);
        let f20_sim = measure::crossing_frequency(&sweep, out, g_sim / 10.0).unwrap_or(0.0);
        rows.push(ComponentRow {
            name: "lpf".into(),
            metrics: vec![
                Metric {
                    name: "f3db",
                    unit: "kHz",
                    est: lpf.perf.bw_hz.unwrap_or(0.0) * 1e-3,
                    sim: f3_sim * 1e-3,
                },
                Metric {
                    name: "f20db",
                    unit: "kHz",
                    est: lpf.frequency_at_attenuation(20.0) * 1e-3,
                    sim: f20_sim * 1e-3,
                },
                Metric {
                    name: "gain",
                    unit: "V/V",
                    est: lpf.perf.dc_gain.unwrap_or(0.0),
                    sim: g_sim,
                },
                Metric {
                    name: "area",
                    unit: "um2",
                    est: lpf.perf.gate_area_um2(),
                    sim: tb.total_gate_area() * 1e12,
                },
            ],
        });
    }

    // --- 2nd-order Sallen-Key band-pass at 1 kHz, Q = 1.
    {
        let bpf = SallenKeyBandPass::design(tech, 1e3, 1.0, 10e-12)?;
        let tb = bpf.testbench(tech)?;
        let op = dc_operating_point(&tb, tech)?;
        let out = tb.find_node("out").expect("testbench has out");
        let sweep = ac_sweep(&tb, tech, &op, &decade_frequencies(20.0, 50e3, 30)?)?;
        let mags = sweep.magnitude(out);
        let (kmax, peak) = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite magnitudes"))
            .map(|(k, m)| (k, *m))
            .unwrap_or((0, 0.0));
        let f0_sim = sweep.freqs[kmax];
        // −3 dB band edges around the peak.
        let target = peak / 2f64.sqrt();
        let mut lo = f0_sim / 10.0;
        let mut hi = f0_sim * 10.0;
        for k in (0..kmax).rev() {
            if mags[k] < target {
                lo = sweep.freqs[k + 1];
                break;
            }
        }
        for (k, &m) in mags.iter().enumerate().skip(kmax) {
            if m < target {
                hi = sweep.freqs[k - 1];
                break;
            }
        }
        rows.push(ComponentRow {
            name: "bpf".into(),
            metrics: vec![
                Metric {
                    name: "f0",
                    unit: "kHz",
                    est: bpf.f0 * 1e-3,
                    sim: f0_sim * 1e-3,
                },
                Metric {
                    name: "gain",
                    unit: "V/V",
                    est: bpf.perf.dc_gain.unwrap_or(0.0),
                    sim: peak,
                },
                Metric {
                    name: "bw",
                    unit: "kHz",
                    est: bpf.perf.bw_hz.unwrap_or(0.0) * 1e-3,
                    sim: (hi - lo) * 1e-3,
                },
                Metric {
                    name: "area",
                    unit: "um2",
                    est: bpf.perf.gate_area_um2(),
                    sim: tb.total_gate_area() * 1e12,
                },
            ],
        });
    }

    Ok(rows)
}

/// The options Tables 1 and 4 synthesize a Table-1 spec with: the default
/// engine and `evals` evaluations, seeded `1000 +` the byte of the
/// circuit's digit (`oa3` → 1051) so that every row draws its own stream.
fn table1_synthesis_options(task: &OpAmpTask, evals: usize) -> SynthesisOptions {
    SynthesisOptions {
        max_evals: evals,
        seed: 1000 + u64::from(task.name.as_bytes()[2]),
        ..SynthesisOptions::default()
    }
}

/// Table 1's run: `task` synthesized blind, over decade-wide intervals.
///
/// # Errors
///
/// Only a malformed spec or cancellation (see [`synthesize`]).
pub fn blind_synthesis(
    tech: &Technology,
    task: &OpAmpTask,
    evals: usize,
) -> Result<SynthesisOutcome, OblxError> {
    let opts = table1_synthesis_options(task, evals);
    synthesize(tech, task.topology, &task.spec, &InitialPoint::Blind, &opts)
}

/// Table 4's run: `task` synthesized from `ape`, APE's sizing of it, with
/// the paper's ±20 % intervals.
///
/// # Errors
///
/// Only a malformed spec or cancellation (see [`synthesize`]).
pub fn seeded_synthesis(
    tech: &Technology,
    task: &OpAmpTask,
    ape: &OpAmp,
    evals: usize,
) -> Result<SynthesisOutcome, OblxError> {
    let init = InitialPoint::ApeSeeded {
        point: design_point_from_ape(tech, ape),
        interval_frac: 0.2,
    };
    let opts = table1_synthesis_options(task, evals);
    synthesize(tech, task.topology, &task.spec, &init, &opts)
}

/// The audited cells of a Table 1 or Table 4 row.
#[derive(Debug, Clone)]
pub struct AuditCells {
    /// Simulated DC gain (0 when the audit produced no report).
    pub gain: f64,
    /// Simulated unity-gain frequency, MHz.
    pub ugf_mhz: f64,
    /// Gate area, µm².
    pub area_um2: f64,
    /// Power, mW.
    pub power_mw: f64,
    /// `"Meets spec"`, the violations joined by `"; "`, or why the audit
    /// produced no report.
    pub verdict: String,
}

impl AuditCells {
    /// The cells of `out`'s full-simulation audit.
    pub fn of(out: &SynthesisOutcome) -> AuditCells {
        match &out.audit {
            Ok(a) => AuditCells {
                gain: a.measured.dc_gain.unwrap_or(0.0),
                ugf_mhz: a.measured.ugf_hz.unwrap_or(0.0) * 1e-6,
                area_um2: a.measured.gate_area_um2(),
                power_mw: a.measured.power_mw(),
                verdict: if a.meets_spec() {
                    "Meets spec".to_string()
                } else {
                    a.violations.join("; ")
                },
            },
            Err(f) => AuditCells {
                gain: 0.0,
                ugf_mhz: 0.0,
                area_um2: 0.0,
                power_mw: 0.0,
                verdict: format!("doesn't work ({}).", f.reason),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_rel_err() {
        let m = Metric {
            name: "x",
            unit: "",
            est: 1.1,
            sim: 1.0,
        };
        assert!((m.rel_err() - 0.1).abs() < 1e-12);
        let z = Metric {
            name: "x",
            unit: "",
            est: 0.0,
            sim: 0.0,
        };
        assert_eq!(z.rel_err(), 0.0);
    }

    #[test]
    fn table2_accuracy_gate() {
        // The reproduction's analogue of "Table 2 shows that the models
        // used in the APE are reasonably accurate".
        let tech = Technology::default_1p2um();
        let rows = table2_rows(&tech).expect("table 2 computes");
        assert_eq!(rows.len(), 9);
        for row in &rows {
            for m in &row.metrics {
                assert!(
                    m.rel_err() < 0.5,
                    "{} / {}: est {} vs sim {} ({}%)",
                    row.name,
                    m.name,
                    m.est,
                    m.sim,
                    m.rel_err() * 100.0
                );
            }
        }
    }

    #[test]
    fn table3_first_opamp_row() {
        let tech = Technology::default_1p2um();
        let tasks = crate::specs::table3_opamps();
        let row = table3_row(&tech, &tasks[3]).expect("OpAmp4 row computes");
        for m in &row.metrics {
            // Slew and CMRR are the loosest compositions; others gate at 60 %.
            let tol = match m.name {
                "slew" | "cmrr" | "zout" => 3.0,
                _ => 0.6,
            };
            assert!(
                m.rel_err() < tol,
                "{}: est {} vs sim {}",
                m.name,
                m.est,
                m.sim
            );
        }
    }
}
