//! The backend-dispatching real-valued solver shared by the DC and
//! transient analyses.
//!
//! [`RealSolver`] owns the assembled MNA matrix (dense or sparse) and the
//! factorisation workspaces, so a Newton loop is just:
//!
//! ```text
//! restore(linear snapshot) → stamp dynamic part → solve in place
//! ```
//!
//! with zero heap allocation per iteration. The backend is picked once per
//! analysis from [`Backend`](crate::sparse::Backend): dense for systems of
//! up to [`DENSE_CUTOFF`](crate::sparse::DENSE_CUTOFF) unknowns, sparse
//! (an LU whose pivot order is analysed once per analysis) above.

use crate::linalg::Matrix;
use crate::sparse::{Pattern, SparseFactor, SparseMatrix};
use crate::stamp::Stamp;
use std::sync::Arc;

/// A real-valued MNA solver with preallocated factorisation state.
pub(crate) enum RealSolver {
    Dense {
        mat: Matrix<f64>,
    },
    Sparse {
        mat: SparseMatrix<f64>,
        factor: SparseFactor<f64>,
    },
}

/// A saved copy of the assembled matrix values — the static (linear) part
/// of the system, restored at the top of every Newton iteration.
pub(crate) enum MatSnapshot {
    Dense(Matrix<f64>),
    Sparse(Vec<f64>),
}

impl RealSolver {
    /// Dense backend for an `n`-unknown system.
    pub fn dense(n: usize) -> Self {
        RealSolver::Dense {
            mat: Matrix::zeros(n),
        }
    }

    /// Sparse backend over a fixed sparsity pattern.
    pub fn sparse(pattern: Arc<Pattern>) -> Self {
        RealSolver::Sparse {
            mat: SparseMatrix::new(pattern),
            factor: SparseFactor::new(),
        }
    }

    /// Zeroes the assembled matrix, keeping allocations.
    pub fn clear(&mut self) {
        match self {
            RealSolver::Dense { mat, .. } => mat.clear(),
            RealSolver::Sparse { mat, .. } => mat.clear(),
        }
    }

    /// Copies the current matrix values into a new snapshot.
    pub fn snapshot(&self) -> MatSnapshot {
        match self {
            RealSolver::Dense { mat, .. } => MatSnapshot::Dense(mat.clone()),
            RealSolver::Sparse { mat, .. } => MatSnapshot::Sparse(mat.snapshot()),
        }
    }

    /// Re-saves the current matrix values into an existing snapshot
    /// without allocating. A backend-mismatched snapshot (a caller bug) is
    /// replaced wholesale with a fresh one rather than panicking.
    pub fn save_into(&self, snap: &mut MatSnapshot) {
        match (self, snap) {
            (RealSolver::Dense { mat, .. }, MatSnapshot::Dense(s)) => s.copy_from(mat),
            (RealSolver::Sparse { mat, .. }, MatSnapshot::Sparse(s)) => {
                s.copy_from_slice(mat.values());
            }
            (_, snap) => {
                debug_assert!(false, "snapshot backend mismatch");
                ape_probe::counter("spice.engine.snapshot_mismatch", 1);
                *snap = self.snapshot();
            }
        }
    }

    /// Restores matrix values from a snapshot taken on this solver.
    /// A backend-mismatched snapshot (a caller bug) leaves the matrix
    /// untouched rather than panicking.
    pub fn restore(&mut self, snap: &MatSnapshot) {
        match (self, snap) {
            (RealSolver::Dense { mat, .. }, MatSnapshot::Dense(s)) => mat.copy_from(s),
            (RealSolver::Sparse { mat, .. }, MatSnapshot::Sparse(s)) => mat.restore(s),
            _ => {
                debug_assert!(false, "snapshot backend mismatch");
                ape_probe::counter("spice.engine.snapshot_mismatch", 1);
            }
        }
    }

    /// Solves `A·x = rhs` in place (`rhs` becomes the solution). The dense
    /// backend factorises the assembled matrix destructively — every Newton
    /// iteration restores it from its snapshot before stamping, so nothing
    /// would read the factored values anyway, and the restore already pays
    /// the one matrix copy per iteration. `None` on a singular system.
    pub fn solve(&mut self, rhs: &mut [f64]) -> Option<()> {
        match self {
            RealSolver::Dense { mat } => mat.solve_in_place(rhs),
            RealSolver::Sparse { mat, factor } => {
                factor.factor(mat)?;
                factor.solve(rhs)
            }
        }
    }
}

impl Stamp<f64> for RealSolver {
    fn stamp(&mut self, r: usize, c: usize, v: f64) {
        match self {
            RealSolver::Dense { mat, .. } => mat.stamp(r, c, v),
            RealSolver::Sparse { mat, .. } => mat.stamp(r, c, v),
        }
    }
}
