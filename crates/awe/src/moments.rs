//! Moment computation by recursive back-substitution.

use crate::error::AweError;
use ape_netlist::NodeId;
use ape_spice::linalg::Matrix;
use ape_spice::LinearizedSystem;

/// Computes the first `count` moment *vectors* of `(G + sC)·x = b`:
/// `x(s) = Σ xₖ sᵏ` with `G·x₀ = b` and `G·xₖ = −C·xₖ₋₁`.
///
/// `G` is factored once and every moment is a back-substitution through
/// the same factors; each moment has the bits a separate
/// [`Matrix::solve`] would give it.
///
/// # Errors
///
/// [`AweError::SingularSystem`] when `G` cannot be factorised or a moment
/// comes out non-finite.
pub fn moments(
    g: &Matrix<f64>,
    c: &Matrix<f64>,
    b: &[f64],
    count: usize,
) -> Result<Vec<Vec<f64>>, AweError> {
    if count == 0 {
        return Ok(Vec::new());
    }
    let lu = g.lu().ok_or(AweError::SingularSystem)?;
    let mut out = Vec::with_capacity(count);
    let mut rhs = b.to_vec();
    for _ in 0..count {
        let mut x = rhs;
        lu.solve_in_place(&mut x).ok_or(AweError::SingularSystem)?;
        rhs = c.mul_vec(&x).iter().map(|v| -v).collect();
        out.push(x);
    }
    Ok(out)
}

/// Scalar moments of the voltage at `output`: `mₖ = xₖ[output]`.
///
/// # Errors
///
/// [`AweError::SingularSystem`] when `G` cannot be factorised; moments of
/// the ground node are all zero.
pub fn transfer_moments(
    sys: &LinearizedSystem,
    output: NodeId,
    count: usize,
) -> Result<Vec<f64>, AweError> {
    let Some(row) = sys.node_row(output) else {
        return Ok(vec![0.0; count]);
    };
    let vecs = moments(&sys.g, &sys.c, &sys.b, count)?;
    Ok(vecs.into_iter().map(|x| x[row]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_netlist::{Circuit, SourceWaveform, Technology};
    use ape_spice::{dc_operating_point, linearize};

    /// Unit RC low-pass: H(s) = 1/(1+sRC) → moments 1, −RC, (RC)², …
    #[test]
    fn rc_moments_are_geometric() {
        let mut ckt = Circuit::new("rc");
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.add_vsource("V1", i, Circuit::GROUND, 0.0, 1.0, SourceWaveform::Dc)
            .unwrap();
        ckt.add_resistor("R1", i, o, 1e3).unwrap();
        ckt.add_capacitor("C1", o, Circuit::GROUND, 1e-9).unwrap();
        let tech = Technology::default_1p2um();
        let op = dc_operating_point(&ckt, &tech).unwrap();
        let sys = linearize(&ckt, &tech, &op).unwrap();
        let m = transfer_moments(&sys, o, 4).unwrap();
        // Tolerance is set by the 1e-12 S gmin shunt the linearisation adds.
        let tau = 1e-6;
        assert!((m[0] - 1.0).abs() < 1e-6, "m0 = {}", m[0]);
        assert!((m[1] + tau).abs() / tau < 1e-6, "m1 = {}", m[1]);
        assert!(
            (m[2] - tau * tau).abs() / (tau * tau) < 1e-6,
            "m2 = {}",
            m[2]
        );
        assert!((m[3] + tau.powi(3)).abs() / tau.powi(3) < 1e-6);
    }

    #[test]
    fn ground_node_moments_zero() {
        let mut ckt = Circuit::new("rc");
        let i = ckt.node("in");
        ckt.add_vsource("V1", i, Circuit::GROUND, 0.0, 1.0, SourceWaveform::Dc)
            .unwrap();
        ckt.add_resistor("R1", i, Circuit::GROUND, 1e3).unwrap();
        let tech = Technology::default_1p2um();
        let op = dc_operating_point(&ckt, &tech).unwrap();
        let sys = linearize(&ckt, &tech, &op).unwrap();
        let m = transfer_moments(&sys, Circuit::GROUND, 3).unwrap();
        assert_eq!(m, vec![0.0, 0.0, 0.0]);
    }
}
