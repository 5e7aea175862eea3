// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Differential tests: the sparse solve path against the dense reference
//! oracle, on raw linear systems and on full analyses of representative
//! circuits. Agreement gates at 1e-9 relative.

use ape_netlist::{Circuit, MosGeometry, MosPolarity, NodeId, SourceWaveform, Technology};
use ape_spice::linalg::Matrix;
use ape_spice::sparse::{from_dense, SparseFactor};
use ape_spice::{
    ac_sweep_with, dc_operating_point_with, transient, AcOptions, Backend, Complex, DcOptions,
    TranOptions,
};

const TOL: f64 = 1e-9;

/// Deterministic 64-bit LCG (Knuth constants) for reproducible systems.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Top 53 bits → [0, 1) → [-1, 1).
        (self.0 >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

fn rel_close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= TOL * scale.max(1.0)
}

#[test]
fn random_real_systems_match_dense() {
    let mut rng = Lcg(0x5eed_0001);
    for n in [5, 9, 17, 33, 60] {
        let mut dense = Matrix::<f64>::zeros(n);
        for r in 0..n {
            for c in 0..n {
                dense.stamp(r, c, rng.next_f64());
            }
            // Diagonal dominance keeps the reference well conditioned.
            dense.stamp(r, r, n as f64);
        }
        let b: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let x_dense = dense.solve(&b).expect("dense solvable");

        let sp = from_dense(&dense);
        let mut factor = SparseFactor::new();
        factor.factor(&sp).expect("sparse solvable");
        let mut x_sparse = b.clone();
        factor.solve(&mut x_sparse).expect("sparse back-solve");

        let scale = x_dense.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (xs, xd) in x_sparse.iter().zip(&x_dense) {
            assert!(rel_close(*xs, *xd, scale), "n={n}: {xs} vs {xd}");
        }
    }
}

#[test]
fn random_complex_systems_match_dense() {
    let mut rng = Lcg(0x5eed_0002);
    for n in [6, 13, 28] {
        let mut dense = Matrix::<Complex>::zeros(n);
        for r in 0..n {
            for c in 0..n {
                dense.stamp(r, c, Complex::new(rng.next_f64(), rng.next_f64()));
            }
            dense.stamp(r, r, Complex::real(2.0 * n as f64));
        }
        let b: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.next_f64(), rng.next_f64()))
            .collect();
        let x_dense = dense.solve(&b).expect("dense solvable");

        let sp = from_dense(&dense);
        let mut factor = SparseFactor::new();
        factor.factor(&sp).expect("sparse solvable");
        let mut x_sparse = b.clone();
        factor.solve(&mut x_sparse).expect("sparse back-solve");

        let scale = x_dense.iter().fold(0.0f64, |m, v| m.max(v.norm()));
        for (xs, xd) in x_sparse.iter().zip(&x_dense) {
            assert!(
                (*xs - *xd).norm() <= TOL * scale.max(1.0),
                "n={n}: {xs:?} vs {xd:?}"
            );
        }
    }
}

/// A 12-section RC ladder driven by a pulse source: 13 nodes + 1 branch,
/// comfortably past the dense cutoff.
fn rc_ladder() -> (Circuit, NodeId) {
    let mut c = Circuit::new("ladder");
    let mut prev = c.node("n0");
    c.add_vsource(
        "VIN",
        prev,
        Circuit::GROUND,
        1.0,
        1.0,
        SourceWaveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 1e-7,
            rise: 1e-8,
            fall: 1e-8,
            width: 5e-6,
            period: f64::INFINITY,
        },
    )
    .unwrap();
    for k in 1..=12 {
        let next = c.node(&format!("n{k}"));
        c.add_resistor(&format!("R{k}"), prev, next, 1e3).unwrap();
        c.add_capacitor(&format!("C{k}"), next, Circuit::GROUND, 10e-12)
            .unwrap();
        prev = next;
    }
    (c, prev)
}

/// Four resistor-loaded common-source stages sharing a supply, with an RLC
/// output network: MOSFETs for the nonlinear path, an inductor for a branch
/// unknown. 15 unknowns.
fn mos_bank() -> (Circuit, NodeId) {
    let mut c = Circuit::new("mos-bank");
    let vdd = c.node("vdd");
    c.add_vdc("VDD", vdd, Circuit::GROUND, 5.0).unwrap();
    let mut last_drain = vdd;
    for k in 0..4 {
        let g = c.node(&format!("g{k}"));
        let d = c.node(&format!("d{k}"));
        c.add_vsource(
            &format!("VG{k}"),
            g,
            Circuit::GROUND,
            1.1 + 0.1 * k as f64,
            if k == 0 { 1.0 } else { 0.0 },
            SourceWaveform::Dc,
        )
        .unwrap();
        c.add_resistor(&format!("RD{k}"), vdd, d, 30e3 + 5e3 * k as f64)
            .unwrap();
        c.add_mosfet(
            &format!("M{k}"),
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            "CMOSN",
            MosGeometry::new(10e-6, 2.4e-6),
        )
        .unwrap();
        last_drain = d;
    }
    let out = c.node("out");
    c.add_inductor("LO", last_drain, out, 1e-6).unwrap();
    c.add_capacitor("CO", out, Circuit::GROUND, 1e-12).unwrap();
    c.add_resistor("RO", out, Circuit::GROUND, 100e3).unwrap();
    (c, out)
}

#[test]
fn dc_sparse_matches_dense() {
    let tech = Technology::default_1p2um();
    for (label, (ckt, _)) in [("ladder", rc_ladder()), ("mos-bank", mos_bank())] {
        let dense = dc_operating_point_with(
            &ckt,
            &tech,
            DcOptions {
                backend: Backend::Dense,
                ..DcOptions::default()
            },
        )
        .expect("dense DC");
        let sparse = dc_operating_point_with(
            &ckt,
            &tech,
            DcOptions {
                backend: Backend::Sparse,
                ..DcOptions::default()
            },
        )
        .expect("sparse DC");
        let scale = dense.solution().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (s, d) in sparse.solution().iter().zip(dense.solution()) {
            assert!(rel_close(*s, *d, scale), "{label}: {s} vs {d}");
        }
    }
}

#[test]
fn ac_sparse_matches_dense() {
    let tech = Technology::default_1p2um();
    let freqs: Vec<f64> = (0..40).map(|k| 10f64.powf(2.0 + 0.2 * k as f64)).collect();
    for (label, (ckt, out)) in [("ladder", rc_ladder()), ("mos-bank", mos_bank())] {
        let op = dc_operating_point_with(&ckt, &tech, DcOptions::default()).expect("DC");
        let dense = ac_sweep_with(
            &ckt,
            &tech,
            &op,
            &freqs,
            AcOptions {
                backend: Backend::Dense,
                threads: 1,
            },
        )
        .expect("dense AC");
        let sparse = ac_sweep_with(
            &ckt,
            &tech,
            &op,
            &freqs,
            AcOptions {
                backend: Backend::Sparse,
                threads: 1,
            },
        )
        .expect("sparse AC");
        for (k, &f) in freqs.iter().enumerate() {
            let (vd, vs) = (dense.voltage(k, out), sparse.voltage(k, out));
            assert!(
                (vd - vs).norm() <= TOL * vd.norm().max(1.0),
                "{label} @ {f} Hz: {vd:?} vs {vs:?}"
            );
        }
    }
}

#[test]
fn parallel_ac_is_bit_identical_to_sequential() {
    let tech = Technology::default_1p2um();
    let (ckt, out) = mos_bank();
    let op = dc_operating_point_with(&ckt, &tech, DcOptions::default()).expect("DC");
    let freqs: Vec<f64> = (0..101)
        .map(|k| 10f64.powf(1.0 + 0.08 * k as f64))
        .collect();
    let seq = ac_sweep_with(
        &ckt,
        &tech,
        &op,
        &freqs,
        AcOptions {
            threads: 1,
            backend: Backend::Sparse,
        },
    )
    .expect("sequential");
    // Explicit executors with real worker threads: `ac_sweep_on` takes the
    // lane count literally, so this exercises genuine cross-thread chunking
    // even on a 1-core machine where `ac_sweep_with` would clamp to 1.
    for workers in [1usize, 2, 4, 8] {
        let exec = ape_exec::Executor::new(workers);
        let par = ape_spice::ac_sweep_on(
            &exec,
            &ckt,
            &tech,
            &op,
            &freqs,
            AcOptions {
                threads: workers.max(2),
                backend: Backend::Sparse,
            },
        )
        .expect("parallel");
        for k in 0..freqs.len() {
            let (a, b) = (seq.voltage(k, out), par.voltage(k, out));
            // Same symbolic factorisation + same arithmetic order per
            // point → bitwise equality, not just tolerance.
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "workers={workers} k={k}: {a:?} vs {b:?}"
            );
        }
    }
    // The public clamped path must agree as well, whatever it clamps to.
    for threads in [2usize, 4, 8] {
        let par = ac_sweep_with(
            &ckt,
            &tech,
            &op,
            &freqs,
            AcOptions {
                threads,
                backend: Backend::Sparse,
            },
        )
        .expect("clamped parallel");
        for k in 0..freqs.len() {
            let (a, b) = (seq.voltage(k, out), par.voltage(k, out));
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "threads={threads} k={k}: {a:?} vs {b:?}"
            );
        }
    }
}

#[test]
fn tran_sparse_matches_dense() {
    let tech = Technology::default_1p2um();
    for (label, (ckt, out)) in [("ladder", rc_ladder()), ("mos-bank", mos_bank())] {
        let op = dc_operating_point_with(&ckt, &tech, DcOptions::default()).expect("DC");
        let mut dense_opts = TranOptions::new(2e-8, 2e-6);
        dense_opts.backend = Backend::Dense;
        let mut sparse_opts = dense_opts;
        sparse_opts.backend = Backend::Sparse;
        let dense = transient(&ckt, &tech, &op, dense_opts).expect("dense tran");
        let sparse = transient(&ckt, &tech, &op, sparse_opts).expect("sparse tran");
        let wd = dense.waveform(out);
        let ws = sparse.waveform(out);
        assert_eq!(wd.len(), ws.len(), "{label}: sample counts");
        let scale = wd.iter().fold(0.0f64, |m, (_, v)| m.max(v.abs()));
        for (k, ((_, d), (_, s))) in wd.iter().zip(&ws).enumerate() {
            assert!(rel_close(*s, *d, scale), "{label} sample {k}: {s} vs {d}");
        }
    }
}
