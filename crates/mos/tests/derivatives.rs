// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! `evaluate` takes `gm`, `gds` and `gmb` from dual numbers carried through
//! one pass of the current equation. These tests hold that pass to the
//! central differences of `ids` it replaced, and hold `ids`, `vth`, `vdsat`
//! and `vov` to the bits the plain f64 equation produced.

use ape_mos::{evaluate, BiasPoint, DeviceEval};
use ape_netlist::{MosGeometry, MosLevel, MosModelCard, Technology};

const LEVELS: [MosLevel; 4] = [
    MosLevel::Level1,
    MosLevel::Level2,
    MosLevel::Level3,
    MosLevel::Bsim,
];

/// Central-difference step, volts.
const H: f64 = 1e-5;

fn card(tech: &Technology, level: MosLevel, pmos: bool, nfs: f64) -> MosModelCard {
    let tech = tech.with_level(level);
    let mut card = if pmos { tech.pmos() } else { tech.nmos() }
        .unwrap()
        .clone();
    card.nfs = nfs;
    card
}

/// `(gm, gds, gmb)` by central differences of `evaluate(..).ids`.
fn central_differences(card: &MosModelCard, geom: &MosGeometry, b: BiasPoint) -> [f64; 3] {
    let ids = |dg: f64, dd: f64, db: f64| {
        let bias = BiasPoint {
            vgs: b.vgs + dg,
            vds: b.vds + dd,
            vsb: b.vsb + db,
        };
        evaluate(card, geom, bias).ids
    };
    [
        (ids(H, 0.0, 0.0) - ids(-H, 0.0, 0.0)) / (2.0 * H),
        (ids(0.0, H, 0.0) - ids(0.0, -H, 0.0)) / (2.0 * H),
        -(ids(0.0, 0.0, H) - ids(0.0, 0.0, -H)) / (2.0 * H),
    ]
}

#[test]
fn dual_derivatives_match_central_differences() {
    let cards = [
        (Technology::default_1p2um(), MosGeometry::new(10e-6, 2.4e-6)),
        (Technology::default_0p5um(), MosGeometry::new(5e-6, 0.6e-6)),
    ];
    let mut checked = 0;
    for (tech, geom) in &cards {
        for level in LEVELS {
            for pmos in [false, true] {
                for nfs in [0.0, 1.4] {
                    let card = card(tech, level, pmos, nfs);
                    if level == MosLevel::Bsim {
                        assert!(card.kappa > 0.0, "the BSIM knee blend must be on");
                    }
                    let s = card.polarity.sign();
                    for i in 0..12 {
                        let vgs = -0.5 + 3.5 * i as f64 / 11.0;
                        for j in 0..25 {
                            let vds = -3.0 + 6.0 * j as f64 / 24.0 + 0.0123;
                            for k in 0..5 {
                                let vsb = 2.0 * k as f64 / 4.0;
                                let b = BiasPoint {
                                    vgs: s * vgs,
                                    vds: s * vds,
                                    vsb: s * vsb,
                                };
                                let e = evaluate(&card, geom, b);
                                // The forward device's vds is |vds|; a stencil
                                // across vds = 0 or vds = vdsat mixes branches.
                                if vds.abs() <= 2.0 * H || (vds.abs() - e.vdsat).abs() <= 2.0 * H {
                                    continue;
                                }
                                let fd = central_differences(&card, geom, b);
                                for (name, exact, fd) in [
                                    ("gm", e.gm, fd[0]),
                                    ("gds", e.gds, fd[1]),
                                    ("gmb", e.gmb, fd[2]),
                                ] {
                                    assert!(
                                        (exact - fd).abs() <= (1e-6 * fd.abs()).max(1e-15),
                                        "{name} {exact:e} vs central difference {fd:e} at \
                                         {level:?} pmos={pmos} nfs={nfs} {b:?}"
                                    );
                                }
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(checked > 40_000, "only {checked} bias points checked");
}

/// One bias point and the bits of `[ids, vth, vdsat, vov]` the plain f64
/// equation gave there.
struct Pin {
    level: MosLevel,
    half_micron: bool,
    pmos: bool,
    nfs: f64,
    bias: [f64; 3],
    geom: [f64; 2],
    bits: [u64; 4],
}

/// Saturation with body bias, PMOS triode, subthreshold with `nfs`, and
/// PMOS reverse conduction, at every level.
#[rustfmt::skip]
const PINS: [Pin; 16] = [
    Pin { level: MosLevel::Level1, half_micron: false, pmos: false, nfs: 0.0, bias: [1.5, 2.5, 0.5], geom: [10e-6, 2.4e-6], bits: [0x3f141dfe6cb63285, 0x3febb9fc3fe87377, 0x3fe44608c78e79e2, 0x3fe44608c78e79e2] },
    Pin { level: MosLevel::Level1, half_micron: false, pmos: true, nfs: 0.0, bias: [-2.5, -0.3, 0.0], geom: [24e-6, 2.4e-6], bits: [0xbf206bb30174bde2, 0x3feb333333333333, 0x3ffa666666669336, 0x3ffa666666669336] },
    Pin { level: MosLevel::Level1, half_micron: true, pmos: false, nfs: 1.4, bias: [0.4, 1.0, 0.2], geom: [5e-6, 0.6e-6], bits: [0x3e105a25ef1bdb76, 0x3fe669c338f993fa, 0x3f528c30cc954add, 0x3f528c30cc954add] },
    Pin { level: MosLevel::Level1, half_micron: true, pmos: true, nfs: 0.0, bias: [-1.2, 0.4, -0.3], geom: [8e-6, 0.6e-6], bits: [0x3f23c60fd69efbc0, 0x3febe80277beefb1, 0x3fe74b334a3934b6, 0x3fe74b334a3934b6] },
    Pin { level: MosLevel::Level2, half_micron: false, pmos: false, nfs: 0.0, bias: [1.5, 2.5, 0.5], geom: [10e-6, 2.4e-6], bits: [0x3f13616583f76fca, 0x3febb9fc3fe87377, 0x3fe44608c78e79e2, 0x3fe44608c78e79e2] },
    Pin { level: MosLevel::Level2, half_micron: false, pmos: true, nfs: 0.0, bias: [-2.5, -0.3, 0.0], geom: [24e-6, 2.4e-6], bits: [0xbf1de20b4b17fc3d, 0x3feb333333333333, 0x3ffa666666669336, 0x3ffa666666669336] },
    Pin { level: MosLevel::Level2, half_micron: true, pmos: false, nfs: 1.4, bias: [0.4, 1.0, 0.2], geom: [5e-6, 0.6e-6], bits: [0x3e10596ffd2aede6, 0x3fe669c338f993fa, 0x3f528c30cc954add, 0x3f528c30cc954add] },
    Pin { level: MosLevel::Level2, half_micron: true, pmos: true, nfs: 0.0, bias: [-1.2, 0.4, -0.3], geom: [8e-6, 0.6e-6], bits: [0x3f222f67aab1cc55, 0x3febe80277beefb1, 0x3fe74b334a3934b6, 0x3fe74b334a3934b6] },
    Pin { level: MosLevel::Level3, half_micron: false, pmos: false, nfs: 0.0, bias: [1.5, 2.5, 0.5], geom: [10e-6, 2.4e-6], bits: [0x3f1490e27c8d7a3c, 0x3fea2062a64ed9dd, 0x3fe3ff68dff2fa39, 0x3fe5df9f9ae2e165] },
    Pin { level: MosLevel::Level3, half_micron: false, pmos: true, nfs: 0.0, bias: [-2.5, -0.3, 0.0], geom: [24e-6, 2.4e-6], bits: [0xbf1d9ba291d8ced1, 0x3feb020c49ba5e35, 0x3ff8b8ff2c88ad1b, 0x3ffa7ef9db22f9f7] },
    Pin { level: MosLevel::Level3, half_micron: true, pmos: false, nfs: 1.4, bias: [0.4, 1.0, 0.2], geom: [5e-6, 0.6e-6], bits: [0x3e1c3ebcf9e418e6, 0x3fe5c5ec2ebc2356, 0x3f585e5f9772317a, 0x3f5863d04918397d] },
    Pin { level: MosLevel::Level3, half_micron: true, pmos: true, nfs: 0.0, bias: [-1.2, 0.4, -0.3], geom: [8e-6, 0.6e-6], bits: [0x3f208b532ec53785, 0x3feba67940732909, 0x3fe37102ee81c066, 0x3fe78cbc37899a65] },
    Pin { level: MosLevel::Bsim, half_micron: false, pmos: false, nfs: 0.0, bias: [1.5, 2.5, 0.5], geom: [10e-6, 2.4e-6], bits: [0x3f152ed2a0114612, 0x3fea2062a64ed9dd, 0x3fe3ff68dff2fa39, 0x3fe5df9f9ae2e165] },
    Pin { level: MosLevel::Bsim, half_micron: false, pmos: true, nfs: 0.0, bias: [-2.5, -0.3, 0.0], geom: [24e-6, 2.4e-6], bits: [0xbf1d9ba291d8ced1, 0x3feb020c49ba5e35, 0x3ff8b8ff2c88ad1b, 0x3ffa7ef9db22f9f7] },
    Pin { level: MosLevel::Bsim, half_micron: true, pmos: false, nfs: 1.4, bias: [0.4, 1.0, 0.2], geom: [5e-6, 0.6e-6], bits: [0x3e1c40066041b317, 0x3fe5c5ec2ebc2356, 0x3f585e5f9772317a, 0x3f5863d04918397d] },
    Pin { level: MosLevel::Bsim, half_micron: true, pmos: true, nfs: 0.0, bias: [-1.2, 0.4, -0.3], geom: [8e-6, 0.6e-6], bits: [0x3f208b532ec53785, 0x3feba67940732909, 0x3fe37102ee81c066, 0x3fe78cbc37899a65] },
];

#[test]
fn currents_and_voltages_keep_their_bits() {
    for pin in &PINS {
        let tech = if pin.half_micron {
            Technology::default_0p5um()
        } else {
            Technology::default_1p2um()
        };
        let card = card(&tech, pin.level, pin.pmos, pin.nfs);
        let [vgs, vds, vsb] = pin.bias;
        let DeviceEval {
            ids,
            vth,
            vdsat,
            vov,
            ..
        } = evaluate(
            &card,
            &MosGeometry::new(pin.geom[0], pin.geom[1]),
            BiasPoint { vgs, vds, vsb },
        );
        let got = [ids, vth, vdsat, vov];
        assert_eq!(
            got.map(f64::to_bits),
            pin.bits,
            "{:?} half_micron={} pmos={} {:?}: [ids, vth, vdsat, vov] = {got:?}, pinned {:?}",
            pin.level,
            pin.half_micron,
            pin.pmos,
            pin.bias,
            pin.bits.map(f64::from_bits)
        );
    }
}
