//! Dense linear algebra: LU factorisation with partial pivoting, generic
//! over real and complex scalars. [`Matrix::solve`] factors and solves in
//! one call; [`Matrix::lu`] keeps the factors for several right-hand sides
//! and returns the same bits per solve.
//!
//! The dense solver serves systems of up to [`DENSE_CUTOFF`] unknowns
//! (where it beats the sparse bookkeeping) and acts as the reference
//! oracle the sparse path is differentially tested against; circuits
//! beyond a handful of nodes go through [`crate::sparse`].
//!
//! [`DENSE_CUTOFF`]: crate::sparse::DENSE_CUTOFF

use crate::complex::Complex;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Relative pivot tolerance: a pivot is treated as numerically zero when it
/// falls below `REL_PIVOT × ‖A‖_max`.
///
/// Deliberately far below `n·ε·‖A‖` — MNA matrices legitimately mix gmin
/// pivots (`1e-12`) with companion-model conductances around `1e3`, and
/// those tiny pivots are exact, not cancellation noise. The tolerance only
/// needs to reject true singularities (all-zero columns, floating nodes)
/// relative to the matrix scale rather than against the old absolute
/// `1e-300` that even denormal garbage passed.
const REL_PIVOT: f64 = 1e-18;

/// Singularity threshold for a matrix whose largest entry magnitude is
/// `max_norm`. Shared by the dense and sparse factorisations so both paths
/// judge pivots by the same rule.
pub(crate) fn pivot_tol(max_norm: f64) -> f64 {
    (max_norm * REL_PIVOT).max(f64::MIN_POSITIVE)
}

/// Scalar types the LU solver can factorise over.
pub trait Scalar:
    Copy
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Pivoting magnitude.
    fn magnitude(self) -> f64;
    /// `true` when the value contains no NaN/∞.
    fn finite(self) -> bool;
}

impl Scalar for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn magnitude(self) -> f64 {
        self.abs()
    }
    fn finite(self) -> bool {
        self.is_finite()
    }
}

impl Scalar for Complex {
    fn zero() -> Self {
        Complex::ZERO
    }
    fn one() -> Self {
        Complex::ONE
    }
    fn magnitude(self) -> f64 {
        // L1 modulus (`|re| + |im|`, LINPACK's `cabs1`): within √2 of the
        // true modulus, which is ample for threshold pivoting and relative
        // tolerances, and keeps the hot pivot scans free of sqrt/hypot.
        self.re.abs() + self.im.abs()
    }
    fn finite(self) -> bool {
        self.is_finite()
    }
}

/// A dense square matrix in row-major storage.
///
/// # Example
///
/// ```
/// use ape_spice::linalg::Matrix;
/// let mut m: Matrix<f64> = Matrix::zeros(2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 4.0;
/// let x = m.solve(&[2.0, 8.0]).expect("nonsingular");
/// assert_eq!(x, vec![1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates an `n×n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![T::zero(); n * n],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Adds `v` to entry `(r, c)` — the MNA "stamp" primitive.
    pub fn stamp(&mut self, r: usize, c: usize, v: T) {
        let n = self.n;
        debug_assert!(r < n && c < n);
        self.data[r * n + c] = self.data[r * n + c] + v;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        for v in &mut self.data {
            *v = T::zero();
        }
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![T::zero(); self.n];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = T::zero();
            let row = &self.data[r * self.n..(r + 1) * self.n];
            for (a, xv) in row.iter().zip(x) {
                acc = acc + *a * *xv;
            }
            *yr = acc;
        }
        y
    }

    /// Solves `A·x = b` by LU factorisation with partial pivoting, without
    /// modifying `self`.
    ///
    /// Returns `None` when the matrix is numerically singular (pivot below
    /// a relative tolerance scaled by the largest entry magnitude) or a
    /// non-finite value appears.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve(&self, b: &[T]) -> Option<Vec<T>> {
        assert_eq!(b.len(), self.n);
        let mut lu = self.clone();
        let mut x = b.to_vec();
        lu.solve_in_place(&mut x)?;
        Some(x)
    }

    /// Like [`solve`](Self::solve), but reuses caller-provided scratch
    /// storage for the factorisation copy and the solution — no heap
    /// allocation once `scratch`/`x` have grown to size.
    pub fn solve_with(&self, b: &[T], scratch: &mut Matrix<T>, x: &mut Vec<T>) -> Option<()> {
        assert_eq!(b.len(), self.n);
        scratch.copy_from(self);
        x.clear();
        x.extend_from_slice(b);
        scratch.solve_in_place(x)
    }

    /// Copies values from a same-sized matrix without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn copy_from(&mut self, other: &Matrix<T>) {
        assert_eq!(self.n, other.n);
        self.data.copy_from_slice(&other.data);
    }

    /// Largest entry magnitude (max-norm), the scale for pivot tolerance.
    pub fn max_magnitude(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.magnitude()))
    }

    /// Factorises in place and overwrites `b` with the solution.
    ///
    /// Returns `None` on singularity. The matrix contents are destroyed
    /// either way.
    pub fn solve_in_place(&mut self, b: &mut [T]) -> Option<()> {
        self.factor_in_place(|k, p| b.swap(k, p))?;
        self.substitute(b)
    }

    /// LU factorisation with partial pivoting, for solving several
    /// right-hand sides against one matrix. Each [`Lu::solve_in_place`]
    /// returns the bits [`solve`](Self::solve) would.
    ///
    /// Returns `None` when the matrix is numerically singular.
    pub fn lu(&self) -> Option<Lu<T>> {
        let mut lu = self.clone();
        let mut swaps = vec![0; self.n];
        lu.factor_in_place(|k, p| swaps[k] = p)?;
        Some(Lu { lu, swaps })
    }

    /// The one dense elimination loop: Gaussian elimination with partial
    /// pivoting that leaves `U` on and above the diagonal and each
    /// multiplier below it (a zero where a row needs no elimination).
    /// Pivot swaps exchange whole rows, multipliers included, and are
    /// reported in order as `swap(k, p)`, `p ≥ k`, for the right-hand side
    /// to replay.
    fn factor_in_place(&mut self, mut swap: impl FnMut(usize, usize)) -> Option<()> {
        let n = self.n;
        let tol = pivot_tol(self.max_magnitude());
        let a = &mut self.data;
        for k in 0..n {
            // Partial pivot.
            let mut p = k;
            let mut best = a[k * n + k].magnitude();
            for r in (k + 1)..n {
                let m = a[r * n + k].magnitude();
                if m > best {
                    best = m;
                    p = r;
                }
            }
            if !(best.is_finite() && best > tol) {
                return None;
            }
            if p != k {
                for c in 0..n {
                    a.swap(k * n + c, p * n + c);
                }
            }
            swap(k, p);
            let pivot = a[k * n + k];
            for r in (k + 1)..n {
                let factor = a[r * n + k] / pivot;
                a[r * n + k] = factor;
                if factor == T::zero() {
                    continue;
                }
                for c in (k + 1)..n {
                    let sub = factor * a[k * n + c];
                    a[r * n + c] = a[r * n + c] - sub;
                }
            }
        }
        Some(())
    }

    /// Forward then back substitution through a factorisation left by
    /// [`factor_in_place`](Self::factor_in_place), on a right-hand side
    /// whose rows have already been swapped. Skips zero multipliers, so
    /// the arithmetic matches eliminating `b` alongside the matrix.
    fn substitute(&self, b: &mut [T]) -> Option<()> {
        let n = self.n;
        let a = &self.data;
        for k in 0..n {
            for r in (k + 1)..n {
                let factor = a[r * n + k];
                if factor == T::zero() {
                    continue;
                }
                b[r] = b[r] - factor * b[k];
            }
        }
        for k in (0..n).rev() {
            let mut acc = b[k];
            for c in (k + 1)..n {
                acc = acc - a[k * n + c] * b[c];
            }
            let v = acc / a[k * n + k];
            if !v.finite() {
                return None;
            }
            b[k] = v;
        }
        Some(())
    }
}

/// A dense LU factorisation from [`Matrix::lu`]: factor once, then solve
/// any number of right-hand sides.
#[derive(Debug, Clone)]
pub struct Lu<T> {
    lu: Matrix<T>,
    /// Row `k` was swapped with row `swaps[k]` at elimination step `k`.
    swaps: Vec<usize>,
}

impl<T: Scalar> Lu<T> {
    /// Overwrites `b` with the solution of `A·x = b`. Returns `None` when
    /// a non-finite value appears.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve_in_place(&self, b: &mut [T]) -> Option<()> {
        assert_eq!(b.len(), self.lu.n);
        for (k, &p) in self.swaps.iter().enumerate() {
            b.swap(k, p);
        }
        self.lu.substitute(b)
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    fn index(&self, (r, c): (usize, usize)) -> &T {
        &self.data[r * self.n + c]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        &mut self.data[r * self.n + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let mut m: Matrix<f64> = Matrix::zeros(3);
        for i in 0..3 {
            m[(i, i)] = 1.0;
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_with_pivoting() {
        // Leading zero forces a row swap.
        let mut m: Matrix<f64> = Matrix::zeros(2);
        m[(0, 0)] = 0.0;
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 2.0;
        m[(1, 1)] = 0.0;
        let x = m.solve(&[3.0, 4.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn detects_singularity() {
        let mut m: Matrix<f64> = Matrix::zeros(2);
        m[(0, 0)] = 1.0;
        m[(0, 1)] = 2.0;
        m[(1, 0)] = 2.0;
        m[(1, 1)] = 4.0;
        assert!(m.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn complex_solve() {
        // (1+j) x = 2j  →  x = 2j/(1+j) = 1+j
        let mut m: Matrix<Complex> = Matrix::zeros(1);
        m[(0, 0)] = Complex::new(1.0, 1.0);
        let x = m.solve(&[Complex::new(0.0, 2.0)]).unwrap();
        assert!((x[0].re - 1.0).abs() < 1e-14);
        assert!((x[0].im - 1.0).abs() < 1e-14);
    }

    #[test]
    fn relative_tolerance_rejects_hopelessly_ill_conditioned() {
        // The pivot 1e-30 sails past the old absolute 1e-300 threshold but
        // is noise next to the 1e30 entry: condition number ~1e60.
        let mut m: Matrix<f64> = Matrix::zeros(2);
        m[(0, 0)] = 1e-30;
        m[(1, 1)] = 1e30;
        assert!(m.solve(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn gmin_scale_pivots_survive_relative_tolerance() {
        // A gmin-only node diagonal (1e-12) coexisting with companion-model
        // conductances (1e3) is legitimate, not singular.
        let mut m: Matrix<f64> = Matrix::zeros(2);
        m[(0, 0)] = 1e-12;
        m[(1, 1)] = 2e3;
        let x = m.solve(&[1e-12, 2e3]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn solve_with_reuses_scratch() {
        let mut m: Matrix<f64> = Matrix::zeros(2);
        m[(0, 0)] = 2.0;
        m[(1, 1)] = 4.0;
        let mut scratch: Matrix<f64> = Matrix::zeros(2);
        let mut x = Vec::new();
        m.solve_with(&[2.0, 8.0], &mut scratch, &mut x).unwrap();
        assert_eq!(x, vec![1.0, 2.0]);
        m[(0, 1)] = 1.0;
        m.solve_with(&[3.0, 8.0], &mut scratch, &mut x).unwrap();
        assert_eq!(x, vec![0.5, 2.0]);
    }

    #[test]
    fn residual_small_for_random_system() {
        // Deterministic pseudo-random fill.
        let n = 20;
        let mut m: Matrix<f64> = Matrix::zeros(n);
        let mut seed = 0x12345u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for r in 0..n {
            for c in 0..n {
                m[(r, c)] = next();
            }
            m[(r, r)] += 10.0; // diagonally dominant → nonsingular
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = m.solve(&b).unwrap();
        let ax = m.mul_vec(&x);
        let resid: f64 = ax
            .iter()
            .zip(&b)
            .map(|(a, bb)| (a - bb).abs())
            .fold(0.0, f64::max);
        assert!(resid < 1e-10, "residual {resid}");
    }

    #[test]
    fn lu_replays_the_one_shot_solve_for_every_right_hand_side() {
        // Row swaps at two steps, a zero multiplier and a fill-in entry.
        let mut m: Matrix<f64> = Matrix::zeros(3);
        for (r, c, v) in [
            (0, 1, 1.0),
            (0, 2, 3.0),
            (1, 0, 2.0),
            (1, 2, -1.0),
            (2, 0, 4.0),
            (2, 1, 0.5),
        ] {
            m[(r, c)] = v;
        }
        let lu = m.lu().unwrap();
        for b in [[1.0, 2.0, 3.0], [0.1, -7.0, 1e-3], [0.0, 0.0, 1.0]] {
            let mut x = b;
            lu.solve_in_place(&mut x).unwrap();
            assert_eq!(x.to_vec(), m.solve(&b).unwrap());
        }
        let mut singular: Matrix<f64> = Matrix::zeros(2);
        singular[(0, 0)] = 1.0;
        assert!(singular.lu().is_none());
    }

    #[test]
    fn stamp_accumulates() {
        let mut m: Matrix<f64> = Matrix::zeros(2);
        m.stamp(0, 0, 1.0);
        m.stamp(0, 0, 2.0);
        assert_eq!(m[(0, 0)], 3.0);
        m.clear();
        assert_eq!(m[(0, 0)], 0.0);
    }
}
