//! The reduced-order pole/residue model produced by Padé reduction.

use ape_spice::Complex;

/// A reduced-order transfer function `H(s) = Σᵢ kᵢ/(s − pᵢ)`.
///
/// # Example
///
/// ```
/// use ape_awe::ReducedModel;
/// use ape_spice::Complex;
/// // Unity-DC-gain single pole at −ω.
/// let w = 1e6;
/// let model = ReducedModel::new(vec![Complex::real(-w)], vec![Complex::real(w)]);
/// assert!((model.dc_gain() - 1.0).abs() < 1e-12);
/// assert!(model.is_stable());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReducedModel {
    poles: Vec<Complex>,
    residues: Vec<Complex>,
}

impl ReducedModel {
    /// Builds a model from matched pole and residue lists.
    ///
    /// # Panics
    ///
    /// Panics if the lists have different lengths.
    pub fn new(poles: Vec<Complex>, residues: Vec<Complex>) -> Self {
        assert_eq!(poles.len(), residues.len());
        ReducedModel { poles, residues }
    }

    /// The poles of the model.
    pub fn poles(&self) -> &[Complex] {
        &self.poles
    }

    /// The residues of the model, matched to [`ReducedModel::poles`].
    pub fn residues(&self) -> &[Complex] {
        &self.residues
    }

    /// Approximation order (number of poles).
    pub fn order(&self) -> usize {
        self.poles.len()
    }

    /// Evaluates `H(s)` at a complex frequency.
    pub fn eval(&self, s: Complex) -> Complex {
        self.poles
            .iter()
            .zip(&self.residues)
            .map(|(p, k)| *k / (s - *p))
            .fold(Complex::ZERO, |acc, v| acc + v)
    }

    /// Magnitude of the response at a real frequency in hertz.
    pub fn magnitude_at(&self, f_hz: f64) -> f64 {
        self.eval(Complex::new(0.0, 2.0 * std::f64::consts::PI * f_hz))
            .norm()
    }

    /// DC gain `H(0) = −Σ kᵢ/pᵢ` (signed real part; the imaginary part of a
    /// physical model cancels).
    pub fn dc_gain(&self) -> f64 {
        -self
            .poles
            .iter()
            .zip(&self.residues)
            .map(|(p, k)| *k / *p)
            .fold(Complex::ZERO, |acc, v| acc + v)
            .re
    }

    /// `true` when every pole lies strictly in the left half plane.
    pub fn is_stable(&self) -> bool {
        self.poles.iter().all(|p| p.re < 0.0)
    }

    /// The slowest stable pole's corner frequency in hertz, if any pole is
    /// stable.
    pub fn dominant_pole_hz(&self) -> Option<f64> {
        self.poles
            .iter()
            .filter(|p| p.re < 0.0)
            .map(|p| p.norm() / (2.0 * std::f64::consts::PI))
            .min_by(|a, b| a.total_cmp(b))
    }

    /// −3 dB bandwidth found by bisection on the magnitude response.
    ///
    /// Returns `None` if the magnitude never falls below `|H(0)|/√2` within
    /// `1e12` Hz (e.g. all-pass-like degenerate models).
    pub fn bandwidth_3db_hz(&self) -> Option<f64> {
        let h0 = self.dc_gain().abs();
        if h0 == 0.0 {
            return None;
        }
        let target = h0 / 2f64.sqrt();
        bisect_crossing(|f| self.magnitude_at(f), target)
    }

    /// Unity-gain frequency found by bisection, if the DC gain exceeds 1.
    pub fn unity_gain_hz(&self) -> Option<f64> {
        if self.dc_gain().abs() <= 1.0 {
            return None;
        }
        bisect_crossing(|f| self.magnitude_at(f), 1.0)
    }

    /// Step response value at time `t` for a unit input step:
    /// `y(t) = H(0) + Σᵢ (kᵢ/pᵢ)·e^(pᵢ·t)`.
    pub fn step_response(&self, t: f64) -> f64 {
        let mut acc = Complex::real(self.dc_gain());
        for (p, k) in self.poles.iter().zip(&self.residues) {
            let e = Complex::new(
                (p.re * t).exp() * (p.im * t).cos(),
                (p.re * t).exp() * (p.im * t).sin(),
            );
            acc += (*k / *p) * e;
        }
        acc.re
    }
}

/// First frequency where a decreasing magnitude response crosses `target`,
/// by decade scan + bisection.
///
/// The bisection stops early once the bracket cannot shrink: when `mid`
/// rounds to `lo` or `hi`, every further halving repeats the same step
/// (about 54 of the 80 halvings reach that point for a decade bracket).
fn bisect_crossing(mag: impl Fn(f64) -> f64, target: f64) -> Option<f64> {
    let mut lo = 1e-3;
    if mag(lo) < target {
        return Some(lo);
    }
    let mut hi = lo;
    while hi < 1e12 {
        hi *= 10.0;
        if mag(hi) < target {
            for _ in 0..80 {
                let mid = (lo * hi).sqrt();
                if mid == lo || mid == hi {
                    break;
                }
                if mag(mid) < target {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            return Some((lo * hi).sqrt());
        }
        lo = hi;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_pole(w: f64, a0: f64) -> ReducedModel {
        // H(s) = a0·w/(s+w)
        ReducedModel::new(vec![Complex::real(-w)], vec![Complex::real(a0 * w)])
    }

    #[test]
    fn dc_gain_and_bandwidth() {
        let w = 2.0 * std::f64::consts::PI * 1e5;
        let m = single_pole(w, 40.0);
        assert!((m.dc_gain() - 40.0).abs() < 1e-9);
        let bw = m.bandwidth_3db_hz().unwrap();
        assert!((bw - 1e5).abs() / 1e5 < 1e-3, "bw = {bw}");
    }

    #[test]
    fn unity_gain_frequency_of_integrator_like() {
        // Single pole with A0 = 1000, pole at 100 Hz → UGF ≈ 100 kHz.
        let w = 2.0 * std::f64::consts::PI * 100.0;
        let m = single_pole(w, 1000.0);
        let fu = m.unity_gain_hz().unwrap();
        assert!((fu - 1e5).abs() / 1e5 < 1e-2, "fu = {fu}");
    }

    #[test]
    fn no_ugf_below_unity_gain() {
        let m = single_pole(1e3, 0.5);
        assert!(m.unity_gain_hz().is_none());
    }

    #[test]
    fn step_response_of_first_order() {
        let w = 1e6;
        let m = single_pole(w, 1.0);
        assert!(m.step_response(0.0).abs() < 1e-9);
        let tau = 1.0 / w;
        let v = m.step_response(tau);
        assert!((v - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
        assert!((m.step_response(20.0 * tau) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn stability_detection() {
        let stable = single_pole(1e3, 1.0);
        assert!(stable.is_stable());
        let unstable = ReducedModel::new(vec![Complex::real(1e3)], vec![Complex::real(1e3)]);
        assert!(!unstable.is_stable());
        assert!(unstable.dominant_pole_hz().is_none());
    }

    #[test]
    fn complex_pair_step_response_is_real() {
        // Critically-damped-ish resonant pair: conjugate poles/residues.
        let p = Complex::new(-1e4, 5e4);
        let k = Complex::new(0.0, -2.6e4); // conjugate-symmetric residues
        let m = ReducedModel::new(vec![p, p.conj()], vec![k, k.conj()]);
        let y = m.step_response(1e-4);
        assert!(y.is_finite());
        // A conjugate-symmetric model has a real response by construction;
        // make sure eval on the jω axis has conjugate symmetry too.
        let h1 = m.eval(Complex::new(0.0, 1e4));
        let h2 = m.eval(Complex::new(0.0, -1e4));
        assert!((h1 - h2.conj()).norm() < 1e-12 * h1.norm().max(1.0));
    }
}
