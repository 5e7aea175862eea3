//! Forward evaluation of the MOS device equations.
//!
//! One entry point, [`evaluate`], dispatches on the model card's
//! [`MosLevel`](ape_netlist::MosLevel):
//!
//! * **Level 1** — Shichman-Hodges square law with channel-length modulation
//!   (paper equations (1)–(4)), smoothed into an exponential subthreshold
//!   region so Newton-Raphson sees a C¹ characteristic.
//! * **Level 2** — adds mobility degradation `µeff = µ0 / (1 + θ·Vov)`.
//! * **Level 3** — adds velocity saturation (`vmax`) and DIBL (`η`).
//! * **BSIM** (simplified) — Level 3 equations with a softer
//!   triode/saturation transition.
//!
//! Voltages are the *physical* terminal differences (`vgs = Vg − Vs`, etc.);
//! PMOS devices are handled by internal sign normalisation, and reversed
//! conduction (`vds` of the "wrong" sign) by source/drain swapping. The
//! returned derivatives are true Jacobian entries with respect to the given
//! physical voltages.

use ape_netlist::{MosGeometry, MosLevel, MosModelCard};

use crate::VT_THERMAL;

/// Drawn channel length at which a card's `lambda` applies exactly, metres.
///
/// Channel-length modulation weakens with longer channels; the effective
/// coefficient used everywhere is
/// `λ_eff = λ_card · (LAMBDA_REF_LENGTH / L_drawn)`. This lets the sizing
/// layers trade channel length for output resistance (and hence gain), as
/// real designs do.
pub const LAMBDA_REF_LENGTH: f64 = 2.4e-6;

/// Effective channel-length-modulation coefficient at drawn length `l`.
pub fn lambda_eff(card: &MosModelCard, l: f64) -> f64 {
    card.lambda * (LAMBDA_REF_LENGTH / l.max(0.1e-6))
}

/// Operating region of a MOS transistor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Channel off; only exponential subthreshold leakage flows.
    Subthreshold,
    /// Linear / ohmic region (`vds < vdsat`).
    Triode,
    /// Saturation (`vds ≥ vdsat`).
    Saturation,
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Region::Subthreshold => write!(f, "subthreshold"),
            Region::Triode => write!(f, "triode"),
            Region::Saturation => write!(f, "saturation"),
        }
    }
}

/// Physical bias voltages at the device terminals.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BiasPoint {
    /// Gate-source voltage, volts.
    pub vgs: f64,
    /// Drain-source voltage, volts.
    pub vds: f64,
    /// Source-bulk voltage, volts (positive = reverse body bias for NMOS).
    pub vsb: f64,
}

/// Result of a device evaluation: current, true Jacobian entries and
/// normalised small-signal magnitudes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceEval {
    /// Drain terminal current, amperes (negative for a conducting PMOS).
    pub ids: f64,
    /// `∂ids/∂vgs`, siemens.
    pub gm: f64,
    /// `∂ids/∂vds`, siemens.
    pub gds: f64,
    /// `∂ids/∂vbs`, siemens (bulk transconductance).
    pub gmb: f64,
    /// Operating region (of the normalised forward device).
    pub region: Region,
    /// Threshold voltage at this body bias, normalised positive, volts.
    pub vth: f64,
    /// Saturation voltage, volts.
    pub vdsat: f64,
    /// Effective (smoothed) overdrive voltage, volts.
    pub vov: f64,
}

/// Evaluates the drain current and small-signal parameters of a MOSFET.
///
/// Works for both polarities and both conduction directions. The current
/// equation runs once, on dual numbers that carry the partials with respect
/// to (vgs, vds, vsb) beside the value, so `gm`, `gds` and `gmb` are the
/// exact derivatives of the branch of the smoothed characteristic the bias
/// falls in, consistent with every model level's own current equation by
/// construction.
///
/// # Example
///
/// ```
/// use ape_netlist::{Technology, MosGeometry};
/// use ape_mos::{evaluate, BiasPoint, Region};
/// let tech = Technology::default_1p2um();
/// let nmos = tech.nmos().unwrap();
/// let e = evaluate(nmos, &MosGeometry::new(10e-6, 2.4e-6),
///                  BiasPoint { vgs: 1.5, vds: 2.5, vsb: 0.0 });
/// assert_eq!(e.region, Region::Saturation);
/// assert!(e.ids > 0.0 && e.gm > 0.0 && e.gds > 0.0);
/// ```
pub fn evaluate(card: &MosModelCard, geom: &MosGeometry, bias: BiasPoint) -> DeviceEval {
    let s = card.polarity.sign();
    // Normalise to an N-type forward frame; each normalised voltage seeds
    // its own partial.
    let vgs_n = Dual::var(s * bias.vgs, 0);
    let vds_n = Dual::var(s * bias.vds, 1);
    let vsb_n = Dual::var(s * bias.vsb, 2);
    let (i_n, region, vth, vdsat, vov) = ids_normalized(card, geom, vgs_n, vds_n, vsb_n);
    let [d_vgs, d_vds, d_vsb] = i_n.d;

    // Physical current: ids_phys = s * i_n; physical partials equal the
    // normalised ones (two sign flips cancel). gmb is the derivative with
    // respect to v_bs = -v_sb.
    DeviceEval {
        ids: s * i_n.v,
        gm: d_vgs,
        gds: d_vds,
        gmb: -d_vsb,
        region,
        vth,
        vdsat,
        vov,
    }
}

/// A value with its partials with respect to the normalised
/// (vgs, vds, vsb): forward-mode differentiation, so one pass of the current
/// equation yields `ids`, `gm`, `gds` and `gmb` together.
///
/// The value half performs exactly the f64 operations the plain equation
/// would, in the same grouping, so currents and voltages keep their bits;
/// every branch tests the value half.
#[derive(Debug, Clone, Copy)]
struct Dual {
    v: f64,
    d: [f64; 3],
}

impl Dual {
    const fn constant(v: f64) -> Self {
        Dual { v, d: [0.0; 3] }
    }

    /// Independent variable `k` of (vgs, vds, vsb) at value `v`.
    fn var(v: f64, k: usize) -> Self {
        let mut d = [0.0; 3];
        d[k] = 1.0;
        Dual { v, d }
    }

    /// `f(self)` given `f`'s value `v` and slope `dv` at `self.v`.
    fn chain(self, v: f64, dv: f64) -> Self {
        Dual {
            v,
            d: self.d.map(|d| d * dv),
        }
    }

    fn sqrt(self) -> Self {
        let r = self.v.sqrt();
        self.chain(r, 0.5 / r)
    }

    fn exp(self) -> Self {
        let e = self.v.exp();
        self.chain(e, e)
    }

    fn ln_1p(self) -> Self {
        self.chain(self.v.ln_1p(), 1.0 / (1.0 + self.v))
    }

    /// `f64::max` against a constant; the partials vanish where `c` wins.
    fn max(self, c: f64) -> Self {
        if self.v > c {
            self
        } else {
            Dual::constant(self.v.max(c))
        }
    }
}

impl std::ops::Neg for Dual {
    type Output = Dual;
    fn neg(self) -> Dual {
        self.chain(-self.v, -1.0)
    }
}

impl std::ops::Add for Dual {
    type Output = Dual;
    fn add(self, o: Dual) -> Dual {
        Dual {
            v: self.v + o.v,
            d: [0, 1, 2].map(|k| self.d[k] + o.d[k]),
        }
    }
}

impl std::ops::Sub for Dual {
    type Output = Dual;
    fn sub(self, o: Dual) -> Dual {
        Dual {
            v: self.v - o.v,
            d: [0, 1, 2].map(|k| self.d[k] - o.d[k]),
        }
    }
}

// The product and quotient rules mix operators by nature.
#[allow(clippy::suspicious_arithmetic_impl)]
impl std::ops::Mul for Dual {
    type Output = Dual;
    fn mul(self, o: Dual) -> Dual {
        Dual {
            v: self.v * o.v,
            d: [0, 1, 2].map(|k| self.d[k] * o.v + self.v * o.d[k]),
        }
    }
}

#[allow(clippy::suspicious_arithmetic_impl)]
impl std::ops::Div for Dual {
    type Output = Dual;
    fn div(self, o: Dual) -> Dual {
        let q = self.v / o.v;
        Dual {
            v: q,
            d: [0, 1, 2].map(|k| (self.d[k] - q * o.d[k]) / o.v),
        }
    }
}

impl std::ops::Add<f64> for Dual {
    type Output = Dual;
    fn add(self, c: f64) -> Dual {
        Dual {
            v: self.v + c,
            d: self.d,
        }
    }
}

impl std::ops::Add<Dual> for f64 {
    type Output = Dual;
    fn add(self, x: Dual) -> Dual {
        x + self
    }
}

impl std::ops::Sub<f64> for Dual {
    type Output = Dual;
    fn sub(self, c: f64) -> Dual {
        Dual {
            v: self.v - c,
            d: self.d,
        }
    }
}

impl std::ops::Mul<f64> for Dual {
    type Output = Dual;
    fn mul(self, c: f64) -> Dual {
        self.chain(self.v * c, c)
    }
}

impl std::ops::Mul<Dual> for f64 {
    type Output = Dual;
    fn mul(self, x: Dual) -> Dual {
        x * self
    }
}

impl std::ops::Div<f64> for Dual {
    type Output = Dual;
    fn div(self, c: f64) -> Dual {
        Dual {
            v: self.v / c,
            d: self.d.map(|d| d / c),
        }
    }
}

impl std::ops::Div<Dual> for f64 {
    type Output = Dual;
    fn div(self, x: Dual) -> Dual {
        let q = self / x.v;
        x.chain(q, -q / x.v)
    }
}

/// Normalised (N-type, forward-frame) drain current, with the threshold,
/// saturation voltage and overdrive of the forward device.
///
/// Handles reverse conduction by swapping source and drain.
fn ids_normalized(
    card: &MosModelCard,
    geom: &MosGeometry,
    vgs: Dual,
    vds: Dual,
    vsb: Dual,
) -> (Dual, Region, f64, f64, f64) {
    if vds.v >= 0.0 {
        ids_forward(card, geom, vgs, vds, vsb)
    } else {
        // Roles swap: the old drain acts as source. Gate-to-new-source is
        // vgd = vgs - vds; new vds is -vds; new source-bulk is vdb = vds+vsb.
        let (i, r, vth, vdsat, vov) = ids_forward(card, geom, vgs - vds, -vds, vds + vsb);
        (-i, r, vth, vdsat, vov)
    }
}

/// Forward-region current of the normalised device (`vds >= 0`).
fn ids_forward(
    card: &MosModelCard,
    geom: &MosGeometry,
    vgs: Dual,
    vds: Dual,
    vsb: Dual,
) -> (Dual, Region, f64, f64, f64) {
    // Body effect; clamp the sqrt argument to stay defined under forward
    // body bias excursions during Newton iterations.
    let phi = card.phi.max(0.1);
    let sq = (phi + vsb).max(0.025).sqrt();
    let vto = card.vto.abs();
    let mut vth = vto + card.gamma * (sq - phi.sqrt());

    // DIBL lowers the threshold with drain bias (Level 3 / BSIM).
    if matches!(card.level, MosLevel::Level3 | MosLevel::Bsim) {
        vth = vth - card.eta * vds;
    }

    // Subthreshold slope factor: from NFS if given, else from the depletion
    // capacitance ratio implied by gamma.
    let n = if card.nfs > 0.0 {
        Dual::constant(card.nfs)
    } else {
        1.0 + card.gamma / (2.0 * sq)
    };

    // Smoothed overdrive: behaves like vgs - vth above threshold and like an
    // exponential with slope n·VT below, C-infinity everywhere.
    let vov_raw = vgs - vth;
    let a = 2.0 * n * VT_THERMAL;
    let x = vov_raw / a;
    let vov = if x.v > 30.0 {
        vov_raw
    } else if x.v < -60.0 {
        a * x.exp() // ln(1+e^x) ~ e^x
    } else {
        a * x.exp().ln_1p()
    };
    let region_sub = vov_raw.v < 0.0;

    // Mobility degradation (Level 2 and above).
    let kp_eff = match card.level {
        MosLevel::Level1 => Dual::constant(card.kp),
        _ => card.kp / (1.0 + card.theta * vov),
    };

    let leff = card.leff(geom.l);
    let beta = kp_eff * geom.m * geom.w / leff;

    // Velocity saturation (Level 3 / BSIM): critical voltage Ec * Leff.
    let vc = if matches!(card.level, MosLevel::Level3 | MosLevel::Bsim)
        && card.vmax > 0.0
        && card.u0 > 0.0
    {
        card.vmax * leff / card.u0 * (1.0 + card.theta * vov)
    } else {
        Dual::constant(f64::INFINITY)
    };
    let vdsat = if vc.v.is_finite() {
        vov * vc / (vov + vc)
    } else {
        vov
    };

    let clm = 1.0 + lambda_eff(card, geom.l) * vds;
    let (i, region) = if vds.v < vdsat.v {
        let denom = if vc.v.is_finite() {
            1.0 + vds / vc
        } else {
            Dual::constant(1.0)
        };
        (beta * (vov - vds / 2.0) * vds / denom * clm, Region::Triode)
    } else {
        let i_sat = 0.5 * beta * vov * vdsat * clm;
        // The simplified BSIM level softens the knee: blend a fraction of
        // triode conductance just above vdsat via the kappa parameter.
        let i = if card.level == MosLevel::Bsim && card.kappa > 0.0 {
            i_sat
                * (1.0
                    + card.kappa
                        * ((vds - vdsat) / (vds + vdsat + 1e-9))
                        * card.lambda
                        * 10.0
                        * vdsat)
        } else {
            i_sat
        };
        (i, Region::Saturation)
    };
    let region = if region_sub {
        Region::Subthreshold
    } else {
        region
    };
    (i, region, vth.v, vdsat.v, vov.v)
}

/// Structure-of-arrays bias storage for batched device evaluation.
///
/// The DC stamper and the AC chunk assembler gather all MOSFET terminal
/// voltages of an iteration into contiguous lanes before evaluating,
/// instead of chasing one element at a time through the AoS element
/// list. The lanes are plain `Vec<f64>`, reusable across Newton
/// iterations without reallocation (`clear` keeps capacity).
#[derive(Debug, Default, Clone)]
pub struct BiasBatch {
    /// Gate-source voltages, volts.
    pub vgs: Vec<f64>,
    /// Drain-source voltages, volts.
    pub vds: Vec<f64>,
    /// Source-bulk voltages, volts.
    pub vsb: Vec<f64>,
}

impl BiasBatch {
    /// Empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the lanes' contents, keeping their capacity.
    pub fn clear(&mut self) {
        self.vgs.clear();
        self.vds.clear();
        self.vsb.clear();
    }

    /// Appends one bias point, returning its lane index.
    pub fn push(&mut self, bias: BiasPoint) -> usize {
        let idx = self.vgs.len();
        self.vgs.push(bias.vgs);
        self.vds.push(bias.vds);
        self.vsb.push(bias.vsb);
        idx
    }

    /// Number of bias points in the batch.
    pub fn len(&self) -> usize {
        self.vgs.len()
    }

    /// True when no bias points have been pushed.
    pub fn is_empty(&self) -> bool {
        self.vgs.is_empty()
    }

    /// Reads lane `k` back as a [`BiasPoint`].
    pub fn get(&self, k: usize) -> BiasPoint {
        BiasPoint {
            vgs: self.vgs[k],
            vds: self.vds[k],
            vsb: self.vsb[k],
        }
    }
}

/// Structure-of-arrays result lanes matching a [`BiasBatch`].
///
/// Each lane holds one field of [`DeviceEval`] for every evaluated
/// point, so downstream consumers (the batched stamp path) read
/// contiguous `gm`/`gds`/`gmb` streams instead of striding through an
/// array of structs.
#[derive(Debug, Default, Clone)]
pub struct EvalBatch {
    /// Drain currents, amperes.
    pub ids: Vec<f64>,
    /// `∂ids/∂vgs` lanes, siemens.
    pub gm: Vec<f64>,
    /// `∂ids/∂vds` lanes, siemens.
    pub gds: Vec<f64>,
    /// `∂ids/∂vbs` lanes, siemens.
    pub gmb: Vec<f64>,
    /// Operating regions.
    pub region: Vec<Region>,
    /// Effective thresholds, volts.
    pub vth: Vec<f64>,
    /// Saturation voltages, volts.
    pub vdsat: Vec<f64>,
    /// Smoothed overdrives, volts.
    pub vov: Vec<f64>,
}

impl EvalBatch {
    /// Empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the lanes' contents, keeping their capacity.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.gm.clear();
        self.gds.clear();
        self.gmb.clear();
        self.region.clear();
        self.vth.clear();
        self.vdsat.clear();
        self.vov.clear();
    }

    /// Number of evaluated points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no evaluations have been pushed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends one evaluation across all lanes.
    pub fn push(&mut self, e: DeviceEval) {
        self.ids.push(e.ids);
        self.gm.push(e.gm);
        self.gds.push(e.gds);
        self.gmb.push(e.gmb);
        self.region.push(e.region);
        self.vth.push(e.vth);
        self.vdsat.push(e.vdsat);
        self.vov.push(e.vov);
    }

    /// Reconstructs lane `k` as a [`DeviceEval`].
    pub fn get(&self, k: usize) -> DeviceEval {
        DeviceEval {
            ids: self.ids[k],
            gm: self.gm[k],
            gds: self.gds[k],
            gmb: self.gmb[k],
            region: self.region[k],
            vth: self.vth[k],
            vdsat: self.vdsat[k],
            vov: self.vov[k],
        }
    }
}

/// Evaluates one device across a whole batch of bias points.
///
/// Each lane runs exactly the scalar [`evaluate`] arithmetic, so the
/// results are bit-identical to point-at-a-time evaluation — the batch
/// form exists for the memory layout (contiguous output lanes), not for
/// a different numerical path.
pub fn evaluate_batch(
    card: &MosModelCard,
    geom: &MosGeometry,
    biases: &BiasBatch,
    out: &mut EvalBatch,
) {
    out.clear();
    for k in 0..biases.len() {
        out.push(evaluate(card, geom, biases.get(k)));
    }
}

/// Evaluates a heterogeneous run of devices, one bias point each.
///
/// `devices` must yield exactly `biases.len()` `(card, geometry)` pairs,
/// paired lane-for-lane with the batch. This is the shape the DC stamper
/// uses: gather every MOSFET's terminal voltages for the current Newton
/// iterate into a [`BiasBatch`], evaluate them all back-to-back, then
/// stamp from the SoA result lanes. Lane `k` is bit-identical to
/// `evaluate(cards[k], geoms[k], biases.get(k))`.
pub fn evaluate_batch_with<'a, I>(devices: I, biases: &BiasBatch, out: &mut EvalBatch)
where
    I: IntoIterator<Item = (&'a MosModelCard, &'a MosGeometry)>,
{
    out.clear();
    for (k, (card, geom)) in devices.into_iter().enumerate() {
        if k >= biases.len() {
            break;
        }
        out.push(evaluate(card, geom, biases.get(k)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_netlist::Technology;

    fn nmos_card() -> MosModelCard {
        Technology::default_1p2um().nmos().unwrap().clone()
    }

    fn pmos_card() -> MosModelCard {
        Technology::default_1p2um().pmos().unwrap().clone()
    }

    #[test]
    fn square_law_saturation_current() {
        let card = nmos_card();
        let geom = MosGeometry::new(10e-6, 2.4e-6);
        let vov = 0.5;
        let e = evaluate(
            &card,
            &geom,
            BiasPoint {
                vgs: card.vto + vov,
                vds: 2.5,
                vsb: 0.0,
            },
        );
        // Expected: kp/2 * W/Leff * vov^2 * (1 + lambda vds)
        let beta = card.kp * geom.w / card.leff(geom.l);
        let expect = 0.5 * beta * vov * vov * (1.0 + card.lambda * 2.5);
        assert_eq!(e.region, Region::Saturation);
        // The smoothed overdrive is slightly above vov_raw; allow 5%.
        assert!(
            (e.ids - expect).abs() / expect < 0.05,
            "ids = {}, expect = {}",
            e.ids,
            expect
        );
    }

    #[test]
    fn gm_matches_square_law() {
        let card = nmos_card();
        let geom = MosGeometry::new(20e-6, 2.4e-6);
        let vov = 0.4;
        let e = evaluate(
            &card,
            &geom,
            BiasPoint {
                vgs: card.vto + vov,
                vds: 2.0,
                vsb: 0.0,
            },
        );
        // gm = sqrt(2 * KP * W/Leff * Id): the relation inverted by sizing.
        let gm_expected = (2.0 * card.kp * geom.w / card.leff(geom.l) * e.ids).sqrt()
            * (1.0 + card.lambda * 2.0).sqrt();
        assert!(
            (e.gm - gm_expected).abs() / gm_expected < 0.06,
            "gm = {}, expect = {}",
            e.gm,
            gm_expected
        );
    }

    #[test]
    fn gds_matches_lambda_relation() {
        // Paper eq (4): gd = lambda * Ids / (1 + lambda |Vds|)
        let card = nmos_card();
        let geom = MosGeometry::new(20e-6, 2.4e-6);
        let vds = 2.5;
        let e = evaluate(
            &card,
            &geom,
            BiasPoint {
                vgs: card.vto + 0.5,
                vds,
                vsb: 0.0,
            },
        );
        let gd_expected = card.lambda * e.ids / (1.0 + card.lambda * vds);
        assert!(
            (e.gds - gd_expected).abs() / gd_expected < 0.02,
            "gds = {}, expect = {}",
            e.gds,
            gd_expected
        );
    }

    #[test]
    fn gmb_positive_with_body_effect() {
        let card = nmos_card();
        let geom = MosGeometry::new(10e-6, 2.4e-6);
        let e = evaluate(
            &card,
            &geom,
            BiasPoint {
                vgs: 1.5,
                vds: 2.0,
                vsb: 1.0,
            },
        );
        assert!(e.gmb > 0.0);
        // Paper eq (3): gmb = gm * gamma / (2 sqrt(2phi_f + Vsb))
        let expect = e.gm * card.gamma / (2.0 * (card.phi + 1.0).sqrt());
        assert!(
            (e.gmb - expect).abs() / expect < 0.1,
            "gmb = {}, expect = {}",
            e.gmb,
            expect
        );
    }

    #[test]
    fn body_effect_raises_threshold() {
        let card = nmos_card();
        let geom = MosGeometry::new(10e-6, 2.4e-6);
        let e0 = evaluate(
            &card,
            &geom,
            BiasPoint {
                vgs: 1.5,
                vds: 2.0,
                vsb: 0.0,
            },
        );
        let e1 = evaluate(
            &card,
            &geom,
            BiasPoint {
                vgs: 1.5,
                vds: 2.0,
                vsb: 2.0,
            },
        );
        assert!(e1.vth > e0.vth);
        assert!(e1.ids < e0.ids);
    }

    #[test]
    fn pmos_current_is_negative() {
        let card = pmos_card();
        let geom = MosGeometry::new(30e-6, 2.4e-6);
        // Source at 5 V, gate at 3 V, drain at 2 V: vgs = -2, vds = -3.
        let e = evaluate(
            &card,
            &geom,
            BiasPoint {
                vgs: -2.0,
                vds: -3.0,
                vsb: 0.0,
            },
        );
        assert!(e.ids < 0.0, "pmos drain current should be negative");
        assert!(e.gm > 0.0, "jacobian gm stays positive");
        assert!(e.gds > 0.0);
        assert_eq!(e.region, Region::Saturation);
    }

    #[test]
    fn cutoff_leakage_is_tiny() {
        let card = nmos_card();
        let geom = MosGeometry::new(10e-6, 2.4e-6);
        let e = evaluate(
            &card,
            &geom,
            BiasPoint {
                vgs: 0.0,
                vds: 5.0,
                vsb: 0.0,
            },
        );
        assert_eq!(e.region, Region::Subthreshold);
        assert!(e.ids < 1e-12, "leakage {} too large", e.ids);
        assert!(e.ids > 0.0, "smoothed model never fully off");
    }

    #[test]
    fn triode_vs_saturation_boundary_continuous() {
        let card = nmos_card();
        let geom = MosGeometry::new(10e-6, 2.4e-6);
        let vgs = card.vto + 0.6;
        let e = evaluate(
            &card,
            &geom,
            BiasPoint {
                vgs,
                vds: 1.0,
                vsb: 0.0,
            },
        );
        let vdsat = e.vdsat;
        let below = evaluate(
            &card,
            &geom,
            BiasPoint {
                vgs,
                vds: vdsat - 1e-6,
                vsb: 0.0,
            },
        );
        let above = evaluate(
            &card,
            &geom,
            BiasPoint {
                vgs,
                vds: vdsat + 1e-6,
                vsb: 0.0,
            },
        );
        let jump = (above.ids - below.ids).abs() / above.ids.abs();
        assert!(jump < 1e-3, "current jump {jump} at region boundary");
    }

    #[test]
    fn reverse_conduction_antisymmetric_at_zero_vds() {
        let card = nmos_card();
        let geom = MosGeometry::new(10e-6, 2.4e-6);
        let fwd = evaluate(
            &card,
            &geom,
            BiasPoint {
                vgs: 2.0,
                vds: 0.05,
                vsb: 0.0,
            },
        );
        let rev = evaluate(
            &card,
            &geom,
            BiasPoint {
                vgs: 2.0,
                vds: -0.05,
                vsb: 0.0,
            },
        );
        assert!(fwd.ids > 0.0);
        assert!(rev.ids < 0.0);
        assert!(
            (fwd.ids + rev.ids).abs() / fwd.ids < 0.1,
            "fwd {} rev {}",
            fwd.ids,
            rev.ids
        );
    }

    #[test]
    fn level3_current_below_level1() {
        // Velocity saturation and mobility degradation can only reduce drive.
        let mut c1 = nmos_card();
        c1.level = MosLevel::Level1;
        let mut c3 = nmos_card();
        c3.level = MosLevel::Level3;
        c3.theta = 0.1;
        c3.vmax = 1.5e5;
        let geom = MosGeometry::new(10e-6, 1.2e-6);
        let b = BiasPoint {
            vgs: 2.5,
            vds: 3.0,
            vsb: 0.0,
        };
        let e1 = evaluate(&c1, &geom, b);
        let e3 = evaluate(&c3, &geom, b);
        assert!(e3.ids < e1.ids, "L3 {} should be < L1 {}", e3.ids, e1.ids);
    }

    #[test]
    fn subthreshold_slope_is_exponential() {
        let card = nmos_card();
        let geom = MosGeometry::new(10e-6, 2.4e-6);
        let f = |vgs: f64| {
            evaluate(
                &card,
                &geom,
                BiasPoint {
                    vgs,
                    vds: 2.0,
                    vsb: 0.0,
                },
            )
            .ids
        };
        // One decade per n*VT*ln(10): check the current ratio over 100 mV.
        let r = f(0.4) / f(0.3);
        assert!(r > 5.0, "subthreshold ratio {r} too flat");
        assert!(r < 100.0, "subthreshold ratio {r} too steep");
    }

    #[test]
    fn longer_channel_reduces_gds() {
        let card = nmos_card();
        let vov = 0.4;
        let short = evaluate(
            &card,
            &MosGeometry::new(10e-6, 2.4e-6),
            BiasPoint {
                vgs: card.vto + vov,
                vds: 2.5,
                vsb: 0.0,
            },
        );
        let long = evaluate(
            &card,
            &MosGeometry::new(40e-6, 9.6e-6), // same W/L aspect, 4x length
            BiasPoint {
                vgs: card.vto + vov,
                vds: 2.5,
                vsb: 0.0,
            },
        );
        // Similar current, much lower output conductance → higher gain.
        assert!((long.ids - short.ids).abs() / short.ids < 0.25);
        assert!(long.gds < short.gds / 2.0);
        assert!(long.gm / long.gds > short.gm / short.gds);
    }

    #[test]
    fn batch_eval_is_bit_identical_to_scalar() {
        let tech = Technology::default_1p2um();
        let nmos = tech.nmos().unwrap();
        let pmos = tech.pmos().unwrap();
        let gn = MosGeometry::new(10e-6, 2.4e-6);
        let gp = MosGeometry::new(24e-6, 2.4e-6);

        let mut biases = BiasBatch::new();
        let mut points = Vec::new();
        for k in 0..40 {
            let b = BiasPoint {
                vgs: -2.0 + 0.13 * k as f64,
                vds: -1.5 + 0.11 * k as f64,
                vsb: 0.05 * (k % 5) as f64,
            };
            points.push(b);
            biases.push(b);
        }

        // Homogeneous: one device, many points.
        let mut out = EvalBatch::new();
        evaluate_batch(nmos, &gn, &biases, &mut out);
        assert_eq!(out.len(), points.len());
        for (k, b) in points.iter().enumerate() {
            let scalar = evaluate(nmos, &gn, *b);
            assert_eq!(
                format!("{:?}", out.get(k)),
                format!("{scalar:?}"),
                "homogeneous lane {k} diverged"
            );
        }

        // Heterogeneous: alternating NMOS/PMOS lanes.
        let devices: Vec<(&_, &_)> = (0..points.len())
            .map(|k| if k % 2 == 0 { (nmos, &gn) } else { (pmos, &gp) })
            .collect();
        evaluate_batch_with(devices.iter().copied(), &biases, &mut out);
        for (k, b) in points.iter().enumerate() {
            let (card, geom) = devices[k];
            let scalar = evaluate(card, geom, *b);
            assert_eq!(
                format!("{:?}", out.get(k)),
                format!("{scalar:?}"),
                "heterogeneous lane {k} diverged"
            );
        }
    }

    #[test]
    fn monotone_in_vgs() {
        let card = nmos_card();
        let geom = MosGeometry::new(10e-6, 2.4e-6);
        let mut last = -1.0;
        for k in 0..50 {
            let vgs = k as f64 * 0.1;
            let e = evaluate(
                &card,
                &geom,
                BiasPoint {
                    vgs,
                    vds: 2.0,
                    vsb: 0.0,
                },
            );
            assert!(e.ids >= last, "non-monotone at vgs={vgs}");
            last = e.ids;
        }
    }
}
