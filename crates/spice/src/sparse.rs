//! Sparse LU solve path with a reusable symbolic analysis.
//!
//! An MNA matrix's sparsity pattern is fixed for a given circuit: every
//! Newton iteration, gmin/source-stepping stage, frequency point and
//! transient timestep writes the *same* set of `(row, col)` positions with
//! different values. This module exploits that invariant:
//!
//! 1. [`PatternBuilder`] records the stamp positions once per circuit and
//!    freezes them into an immutable [`Pattern`] (CSR, sorted columns).
//! 2. The first factorisation (`analyze`) runs a right-looking sparse LU
//!    with threshold pivoting (numeric stability) and a Markowitz-style
//!    minimum-row-count tie-break (sparsity preservation), recording the
//!    row permutation and the fill-in pattern as a [`Symbolic`] object.
//! 3. Every later factorisation ([`SparseFactor::factor`]) replays the
//!    elimination *numerically only* over the frozen pattern with a dense
//!    scatter workspace — no pivot search, no structure discovery, no heap
//!    allocation. A relative pivot check guards against the held order
//!    going stale; failure falls back to a fresh analysis.
//!
//! A [`Symbolic`] lives exactly as long as the analysis that owns its
//! factor — one DC solve, transient or AC sweep — and nothing is kept
//! across calls. A pivot order depends on the values it was chosen from,
//! so this is what makes a solve's bits a function of its circuit alone,
//! whatever the thread solved before.
//!
//! Steady-state operation (refactor + solve) performs **zero heap
//! allocations**; every allocation inside this module bumps a global
//! counter ([`alloc_events`]) that the test suite asserts flat across
//! iterations.

use crate::linalg::{pivot_tol, Matrix, Scalar};
use crate::stamp::Stamp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which linear-solver backend an analysis should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Sparse for systems above [`DENSE_CUTOFF`] unknowns, dense below.
    #[default]
    Auto,
    /// Always the dense LU (reference oracle; fastest for tiny systems).
    Dense,
    /// Always the sparse LU over the circuit's fixed pattern.
    Sparse,
}

/// Systems of at most this many unknowns use the dense solver under
/// [`Backend::Auto`]: below this size the dense factorisation fits in a
/// couple of cache lines and beats the sparse bookkeeping.
pub const DENSE_CUTOFF: usize = 8;

impl Backend {
    /// Resolves the backend choice for an `n`-unknown system.
    pub fn use_sparse(self, n: usize) -> bool {
        match self {
            Backend::Auto => n > DENSE_CUTOFF,
            Backend::Dense => false,
            Backend::Sparse => true,
        }
    }
}

// ---------------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------------

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Total number of workspace allocations the sparse solver has performed
/// since process start (monotonic, cross-thread). The steady-state solve
/// loop — restamp, refactor, solve — performs none, which the differential
/// test suite asserts by sampling this counter.
pub fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

#[cfg(test)]
thread_local! {
    /// This thread's share of [`ALLOC_EVENTS`]: unit tests run in parallel
    /// threads of one process, so an assertion on the global counter could
    /// be moved by another test's solves.
    static THREAD_ALLOC_EVENTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn note_alloc() {
    ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    THREAD_ALLOC_EVENTS.with(|n| n.set(n.get() + 1));
    ape_probe::counter("spice.solve.allocs", 1);
}

// ---------------------------------------------------------------------------
// Pattern
// ---------------------------------------------------------------------------

/// Records stamp positions without storing values — the first, value-blind
/// assembly pass that fixes a circuit's sparsity pattern.
#[derive(Debug, Clone)]
pub struct PatternBuilder {
    n: usize,
    entries: Vec<(u32, u32)>,
}

impl PatternBuilder {
    /// Builder for an `n×n` system.
    pub fn new(n: usize) -> Self {
        PatternBuilder {
            n,
            entries: Vec::new(),
        }
    }

    /// Records position `(r, c)`.
    pub fn add(&mut self, r: usize, c: usize) {
        debug_assert!(r < self.n && c < self.n);
        self.entries.push((r as u32, c as u32));
    }

    /// Absorbs every position recorded in `other` (same dimension), so a
    /// union pattern can cover several matrices — e.g. `G` and `C` sharing
    /// one structure for `G + jωC` assembly.
    /// Dimension-mismatched merges (a caller bug) are ignored.
    pub fn merge(&mut self, other: &PatternBuilder) {
        if self.n != other.n {
            debug_assert!(false, "pattern dimension mismatch");
            return;
        }
        self.entries.extend_from_slice(&other.entries);
    }

    /// Freezes the recorded positions into an immutable [`Pattern`].
    pub fn build(mut self) -> Arc<Pattern> {
        self.entries.sort_unstable();
        self.entries.dedup();
        let n = self.n;
        let mut row_start = vec![0u32; n + 1];
        for &(r, _) in &self.entries {
            row_start[r as usize + 1] += 1;
        }
        for r in 0..n {
            row_start[r + 1] += row_start[r];
        }
        let cols: Vec<u32> = self.entries.iter().map(|&(_, c)| c).collect();
        // Direct (row, col) → storage-index map, so stamping is one array
        // read instead of a binary search. n² entries of 4 bytes is cheap at
        // circuit scale; truly huge systems fall back to the search.
        let idx_map = if n * n <= IDX_MAP_CAP {
            let mut map = vec![u32::MAX; n * n];
            for (i, &(r, c)) in self.entries.iter().enumerate() {
                map[r as usize * n + c as usize] = i as u32;
            }
            map
        } else {
            Vec::new()
        };
        note_alloc();
        Arc::new(Pattern {
            n,
            row_start,
            cols,
            idx_map,
        })
    }
}

/// Largest `n²` for which a [`Pattern`] keeps the dense index map
/// (1024-unknown systems → 4 MiB); beyond that, [`Pattern::idx`] binary
/// searches the row.
const IDX_MAP_CAP: usize = 1 << 20;

impl<T> Stamp<T> for PatternBuilder {
    fn stamp(&mut self, r: usize, c: usize, _v: T) {
        self.add(r, c);
    }
}

/// An immutable sparsity pattern in CSR form (sorted column indices).
#[derive(Debug)]
pub struct Pattern {
    n: usize,
    row_start: Vec<u32>,
    cols: Vec<u32>,
    /// Row-major `(r, c) → storage index` map (`u32::MAX` = structurally
    /// absent); empty above [`IDX_MAP_CAP`].
    idx_map: Vec<u32>,
}

impl Pattern {
    /// System dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Column indices of row `r`.
    #[inline]
    fn row_cols(&self, r: usize) -> &[u32] {
        &self.cols[self.row_start[r] as usize..self.row_start[r + 1] as usize]
    }

    /// Storage index of entry `(r, c)`, if structurally present.
    #[inline]
    pub fn idx(&self, r: usize, c: usize) -> Option<usize> {
        if !self.idx_map.is_empty() {
            let i = self.idx_map[r * self.n + c];
            return (i != u32::MAX).then_some(i as usize);
        }
        let base = self.row_start[r] as usize;
        self.row_cols(r)
            .binary_search(&(c as u32))
            .ok()
            .map(|i| base + i)
    }
}

// ---------------------------------------------------------------------------
// SparseMatrix
// ---------------------------------------------------------------------------

/// A value array over a shared [`Pattern`] — the assembly-side matrix.
///
/// Stamping outside the collected pattern is a logic error (the pattern
/// pass and the value pass run the same element code) and panics.
#[derive(Debug, Clone)]
pub struct SparseMatrix<T> {
    pattern: Arc<Pattern>,
    vals: Vec<T>,
}

impl<T: Scalar> SparseMatrix<T> {
    /// Zero matrix over `pattern`.
    pub fn new(pattern: Arc<Pattern>) -> Self {
        note_alloc();
        let vals = vec![T::zero(); pattern.nnz()];
        SparseMatrix { pattern, vals }
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.pattern.n
    }

    /// The shared pattern.
    pub fn pattern(&self) -> &Arc<Pattern> {
        &self.pattern
    }

    /// Resets every value to zero, keeping the allocation.
    pub fn clear(&mut self) {
        for v in &mut self.vals {
            *v = T::zero();
        }
    }

    /// The value array, aligned with the pattern's CSR storage.
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Mutable value array (for elementwise assembly, e.g. `G + jωC`).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// Copies the current values out as a reusable snapshot.
    pub fn snapshot(&self) -> Vec<T> {
        note_alloc();
        self.vals.clone()
    }

    /// Restores values from a snapshot taken on this matrix. Snapshots of
    /// a different pattern (a caller bug) are ignored.
    pub fn restore(&mut self, snap: &[T]) {
        if snap.len() == self.vals.len() {
            self.vals.copy_from_slice(snap);
        } else {
            debug_assert!(false, "snapshot pattern mismatch");
            ape_probe::counter("spice.sparse.snapshot_mismatch", 1);
        }
    }

    /// Matrix-vector product, for residual checks in tests. Returns an
    /// all-zero vector when `x` does not match the matrix dimension.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); self.dim()];
        if x.len() != self.dim() {
            debug_assert!(false, "mul_vec dimension mismatch");
            return y;
        }
        for (r, yr) in y.iter_mut().enumerate() {
            let base = self.pattern.row_start[r] as usize;
            let mut acc = T::zero();
            for (i, &c) in self.pattern.row_cols(r).iter().enumerate() {
                acc = acc + self.vals[base + i] * x[c as usize];
            }
            *yr = acc;
        }
        y
    }

    /// Largest entry magnitude (the ∞-norm bound used for pivot tolerance).
    fn max_magnitude(&self) -> f64 {
        self.vals.iter().fold(0.0f64, |m, v| m.max(v.magnitude()))
    }
}

impl<T: Scalar> Stamp<T> for SparseMatrix<T> {
    fn stamp(&mut self, r: usize, c: usize, v: T) {
        // The pattern is collected from the exact stamp sequence replayed
        // here, so a miss is a solver bug; count it and drop the stamp
        // instead of taking the whole worker down.
        match self.pattern.idx(r, c) {
            Some(i) => self.vals[i] = self.vals[i] + v,
            None => {
                debug_assert!(false, "stamp outside the collected sparsity pattern");
                ape_probe::counter("spice.sparse.stamp_miss", 1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Symbolic analysis
// ---------------------------------------------------------------------------

/// The reusable result of one full factorisation: the pivot order and the
/// fill-in pattern of `L\U`, independent of numeric values.
#[derive(Debug)]
pub struct Symbolic {
    n: usize,
    /// `perm[k]` = original row eliminated at step `k`.
    perm: Vec<u32>,
    /// Factor CSR (rows in elimination order, sorted original columns).
    row_start: Vec<u32>,
    cols: Vec<u32>,
    /// Absolute index of the diagonal entry of factor row `k`; entries
    /// before it are `L`, from it on are `U`.
    diag: Vec<u32>,
    /// The pattern this symbolic was built for; a factor replays it only
    /// over matrices that share this very `Arc`.
    pattern: Arc<Pattern>,
}

impl Symbolic {
    /// Number of stored factor entries (L + U, including fill-in).
    pub fn factor_nnz(&self) -> usize {
        self.cols.len()
    }
}

/// Pivot candidates must be within this factor of the column's largest
/// magnitude (threshold pivoting à la sparse1.3): loose enough to let the
/// Markowitz tie-break preserve sparsity, tight enough to bound growth.
const PIVOT_THRESHOLD: f64 = 0.1;

/// Full factorisation with pivoting: right-looking sparse LU over a working
/// row structure. Returns the symbolic (order + pattern) and the factored
/// values. `None` when the matrix is numerically singular.
fn analyze<T: Scalar>(a: &SparseMatrix<T>) -> Option<(Symbolic, Vec<T>)> {
    let _span = ape_probe::span("spice.factor.symbolic");
    ape_probe::counter("spice.factor.symbolic", 1);
    let n = a.dim();
    let tol = pivot_tol(a.max_magnitude());
    let pat = a.pattern();
    // Working copy, indexed by original row id.
    let mut rows: Vec<Vec<u32>> = (0..n).map(|r| pat.row_cols(r).to_vec()).collect();
    let mut vals: Vec<Vec<T>> = (0..n)
        .map(|r| {
            let s = pat.row_start[r] as usize;
            let e = pat.row_start[r + 1] as usize;
            a.vals[s..e].to_vec()
        })
        .collect();
    let mut pos: Vec<usize> = (0..n).collect();
    let mut piv_cols: Vec<u32> = Vec::new();
    let mut piv_vals: Vec<T> = Vec::new();
    let mut tmp_cols: Vec<u32> = Vec::new();
    let mut tmp_vals: Vec<T> = Vec::new();

    for k in 0..n {
        let kk = k as u32;
        // Pivot search over unfinished rows with a structural entry in
        // column k: largest magnitude sets the threshold, the sparsest
        // qualifying row wins (Markowitz-style fill control).
        let mut best_mag = 0.0f64;
        for &row in &pos[k..] {
            if let Ok(i) = rows[row].binary_search(&kk) {
                best_mag = best_mag.max(vals[row][i].magnitude());
            }
        }
        if !(best_mag.is_finite() && best_mag > tol) {
            return None;
        }
        let mut chosen = usize::MAX;
        let mut chosen_len = usize::MAX;
        for (p, &row) in pos.iter().enumerate().skip(k) {
            if let Ok(i) = rows[row].binary_search(&kk) {
                if vals[row][i].magnitude() >= PIVOT_THRESHOLD * best_mag
                    && rows[row].len() < chosen_len
                {
                    chosen = p;
                    chosen_len = rows[row].len();
                }
            }
        }
        if chosen == usize::MAX {
            // Every candidate magnitude compared false against the
            // threshold — only possible when the column went NaN.
            return None;
        }
        pos.swap(k, chosen);
        let prow = pos[k];
        let Ok(di) = rows[prow].binary_search(&kk) else {
            return None;
        };
        let pivot = vals[prow][di];
        piv_cols.clear();
        piv_cols.extend_from_slice(&rows[prow][di + 1..]);
        piv_vals.clear();
        piv_vals.extend_from_slice(&vals[prow][di + 1..]);

        for &row in &pos[k + 1..] {
            let Ok(i) = rows[row].binary_search(&kk) else {
                continue;
            };
            let f = vals[row][i] / pivot;
            vals[row][i] = f;
            // Merge the pivot row's trailing pattern into this row. Fill-in
            // is created structurally even when `f` is numerically zero, so
            // the pattern stays valid for any values at refactor time.
            tmp_cols.clear();
            tmp_vals.clear();
            let (rc, rv) = (&rows[row][i + 1..], &vals[row][i + 1..]);
            let (mut ia, mut ib) = (0usize, 0usize);
            while ia < rc.len() || ib < piv_cols.len() {
                let ca = rc.get(ia).copied().unwrap_or(u32::MAX);
                let cb = piv_cols.get(ib).copied().unwrap_or(u32::MAX);
                if ca < cb {
                    tmp_cols.push(ca);
                    tmp_vals.push(rv[ia]);
                    ia += 1;
                } else if cb < ca {
                    tmp_cols.push(cb);
                    tmp_vals.push(-(f * piv_vals[ib]));
                    ib += 1;
                } else {
                    tmp_cols.push(ca);
                    tmp_vals.push(rv[ia] - f * piv_vals[ib]);
                    ia += 1;
                    ib += 1;
                }
            }
            rows[row].truncate(i + 1);
            rows[row].extend_from_slice(&tmp_cols);
            vals[row].truncate(i + 1);
            vals[row].extend_from_slice(&tmp_vals);
        }
    }

    // Assemble the factor CSR in elimination order.
    let mut row_start = Vec::with_capacity(n + 1);
    row_start.push(0u32);
    let mut total = 0u32;
    for k in 0..n {
        total += rows[pos[k]].len() as u32;
        row_start.push(total);
    }
    let mut cols = Vec::with_capacity(total as usize);
    let mut fvals = Vec::with_capacity(total as usize);
    let mut diag = Vec::with_capacity(n);
    for (k, &row) in pos.iter().enumerate() {
        let Ok(d) = rows[row].binary_search(&(k as u32)) else {
            return None;
        };
        diag.push(row_start[k] + d as u32);
        cols.extend_from_slice(&rows[row]);
        fvals.append(&mut vals[row]);
    }
    note_alloc();
    ape_probe::value("spice.factor.fill_nnz", total as f64);
    Some((
        Symbolic {
            n,
            perm: pos.iter().map(|&r| r as u32).collect(),
            row_start,
            cols,
            diag,
            pattern: Arc::clone(pat),
        },
        fvals,
    ))
}

/// Does nothing: a [`Symbolic`] lives only as long as the DC solve,
/// transient or AC sweep that built it, so there is nothing to reset.
///
/// Kept only because the `apebench` harness still calls it between runs;
/// the next change to that harness drops those calls and this function.
pub fn reset_symbolic_cache() {}

// ---------------------------------------------------------------------------
// SparseFactor
// ---------------------------------------------------------------------------

/// A reusable sparse LU factorisation with preallocated workspaces.
///
/// The first [`factor`](Self::factor) call performs the symbolic analysis;
/// every later call on the same pattern is a numeric refactorisation with
/// zero heap allocation. Solves are likewise allocation-free.
#[derive(Debug, Default)]
pub struct SparseFactor<T> {
    sym: Option<Arc<Symbolic>>,
    vals: Vec<T>,
    /// Dense scatter workspace for refactorisation.
    w: Vec<T>,
    /// Permuted right-hand side / solution scratch.
    y: Vec<T>,
}

impl<T: Scalar> SparseFactor<T> {
    /// An empty factor; the first [`factor`](Self::factor) call sizes it.
    pub fn new() -> Self {
        SparseFactor {
            sym: None,
            vals: Vec::new(),
            w: Vec::new(),
            y: Vec::new(),
        }
    }

    /// A factor pre-seeded with a shared symbolic analysis (used by the
    /// parallel AC sweep so worker threads skip their own analysis).
    pub fn with_symbolic(sym: Arc<Symbolic>) -> Self {
        let mut f = SparseFactor::new();
        f.adopt(sym);
        f
    }

    /// The current symbolic analysis, for sharing across factors.
    pub fn symbolic(&self) -> Option<Arc<Symbolic>> {
        self.sym.clone()
    }

    fn adopt(&mut self, sym: Arc<Symbolic>) {
        note_alloc();
        self.vals.clear();
        self.vals.resize(sym.factor_nnz(), T::zero());
        self.w.clear();
        self.w.resize(sym.n, T::zero());
        self.y.clear();
        self.y.resize(sym.n, T::zero());
        self.sym = Some(sym);
    }

    /// Factorises `a`, reusing the held symbolic analysis when it was
    /// built for `a`'s pattern.
    ///
    /// Returns `None` when the matrix is numerically singular.
    pub fn factor(&mut self, a: &SparseMatrix<T>) -> Option<()> {
        // Fast path: in-place numeric refactorisation over the held symbolic.
        if self
            .sym
            .as_ref()
            .is_some_and(|s| Arc::ptr_eq(&s.pattern, a.pattern()))
        {
            if self.refactor(a).is_ok() {
                return Some(());
            }
            ape_probe::counter("spice.factor.repivots", 1);
        }
        let (sym, fvals) = analyze(a)?;
        self.adopt(Arc::new(sym));
        self.vals = fvals;
        Some(())
    }

    /// Numeric refactorisation over the frozen pattern: an up-looking
    /// replay of the elimination with a dense scatter workspace.
    /// Allocation-free. `Err` on a stale/small pivot.
    fn refactor(&mut self, a: &SparseMatrix<T>) -> Result<(), ()> {
        ape_probe::counter("spice.factor.numeric", 1);
        let SparseFactor { sym, vals, w, .. } = self;
        let Some(sym) = sym.as_ref() else {
            return Err(());
        };
        let n = sym.n;
        let tol = pivot_tol(a.max_magnitude());
        let pat = a.pattern();
        for k in 0..n {
            let s = sym.row_start[k] as usize;
            let e = sym.row_start[k + 1] as usize;
            let d = sym.diag[k] as usize;
            // Scatter: zero the factor-row footprint, then load A's row.
            for &c in &sym.cols[s..e] {
                w[c as usize] = T::zero();
            }
            let arow = sym.perm[k] as usize;
            let ab = pat.row_start[arow] as usize;
            let ae = pat.row_start[arow + 1] as usize;
            for (&c, &v) in pat.cols[ab..ae].iter().zip(&a.vals[ab..ae]) {
                w[c as usize] = v;
            }
            // Eliminate with the already-factored rows, in column order —
            // the same update sequence the original elimination performed.
            for idx in s..d {
                let j = sym.cols[idx] as usize;
                let f = w[j] / vals[sym.diag[j] as usize];
                w[j] = f;
                let js = sym.diag[j] as usize + 1;
                let je = sym.row_start[j + 1] as usize;
                for (&c, &v) in sym.cols[js..je].iter().zip(&vals[js..je]) {
                    w[c as usize] = w[c as usize] - f * v;
                }
            }
            let m = w[k].magnitude();
            if !(m.is_finite() && m > tol) {
                return Err(());
            }
            // Gather.
            for (dst, &c) in vals[s..e].iter_mut().zip(&sym.cols[s..e]) {
                *dst = w[c as usize];
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` in place using the current factorisation.
    /// Allocation-free. `None` when substitution produces non-finite
    /// values, when called before a successful [`factor`](Self::factor),
    /// or when `b` does not match the factored dimension.
    pub fn solve(&mut self, b: &mut [T]) -> Option<()> {
        let SparseFactor { sym, vals, y, .. } = self;
        let sym = sym.as_ref()?;
        let n = sym.n;
        if b.len() != n {
            return None;
        }
        for (dst, &p) in y.iter_mut().zip(&sym.perm) {
            *dst = b[p as usize];
        }
        // Forward substitution over L (unit diagonal, stored factors).
        for k in 0..n {
            let s = sym.row_start[k] as usize;
            let d = sym.diag[k] as usize;
            let mut acc = y[k];
            for (&v, &c) in vals[s..d].iter().zip(&sym.cols[s..d]) {
                acc = acc - v * y[c as usize];
            }
            y[k] = acc;
        }
        // Back substitution over U.
        for k in (0..n).rev() {
            let d = sym.diag[k] as usize;
            let e = sym.row_start[k + 1] as usize;
            let mut acc = y[k];
            for (&v, &c) in vals[d + 1..e].iter().zip(&sym.cols[d + 1..e]) {
                acc = acc - v * y[c as usize];
            }
            let v = acc / vals[d];
            if !v.finite() {
                return None;
            }
            y[k] = v;
        }
        b.copy_from_slice(y);
        Some(())
    }
}

// ---------------------------------------------------------------------------
// Convenience for tests and the dense/sparse differential oracle
// ---------------------------------------------------------------------------

/// Builds a [`SparseMatrix`] from a dense one (every nonzero entry becomes
/// structural), for differential tests.
pub fn from_dense<T: Scalar>(m: &Matrix<T>) -> SparseMatrix<T> {
    let n = m.dim();
    let mut pb = PatternBuilder::new(n);
    for r in 0..n {
        for c in 0..n {
            if m[(r, c)] != T::zero() {
                pb.add(r, c);
            }
        }
    }
    let mut s = SparseMatrix::new(pb.build());
    for r in 0..n {
        for c in 0..n {
            if m[(r, c)] != T::zero() {
                s.stamp(r, c, m[(r, c)]);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }

    #[test]
    fn solves_diagonal() {
        let mut pb = PatternBuilder::new(3);
        for i in 0..3 {
            pb.add(i, i);
        }
        let mut m: SparseMatrix<f64> = SparseMatrix::new(pb.build());
        for i in 0..3 {
            m.stamp(i, i, (i + 1) as f64);
        }
        let mut f = SparseFactor::new();
        f.factor(&m).unwrap();
        let mut b = vec![1.0, 4.0, 9.0];
        f.solve(&mut b).unwrap();
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn pivots_structural_zero_diagonal() {
        // Voltage-source-like block: [[g, 1], [1, 0]] needs a row swap.
        let mut pb = PatternBuilder::new(2);
        pb.add(0, 0);
        pb.add(0, 1);
        pb.add(1, 0);
        let mut m: SparseMatrix<f64> = SparseMatrix::new(pb.build());
        m.stamp(0, 0, 1e-12);
        m.stamp(0, 1, 1.0);
        m.stamp(1, 0, 1.0);
        let mut f = SparseFactor::new();
        f.factor(&m).unwrap();
        let mut b = vec![0.0, 5.0];
        f.solve(&mut b).unwrap();
        assert!((b[0] - 5.0).abs() < 1e-9, "x0 = {}", b[0]);
        assert!(b[1].abs() < 1e-9, "x1 = {}", b[1]);
    }

    #[test]
    fn matches_dense_on_random_system() {
        let n = 40;
        let mut seed = 0xfeedu64;
        let mut dense: Matrix<f64> = Matrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                // ~30 % density plus a dominant diagonal.
                if r == c || lcg(&mut seed).abs() < 0.3 {
                    dense[(r, c)] = lcg(&mut seed);
                }
            }
            dense[(r, r)] += 8.0;
        }
        let b: Vec<f64> = (0..n).map(|_| lcg(&mut seed)).collect();
        let xd = dense.solve(&b).unwrap();
        let sm = from_dense(&dense);
        let mut f = SparseFactor::new();
        f.factor(&sm).unwrap();
        let mut xs = b.clone();
        f.solve(&mut xs).unwrap();
        for (a, bb) in xd.iter().zip(&xs) {
            assert!((a - bb).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {bb}");
        }
    }

    #[test]
    fn refactor_reuses_pattern_without_alloc() {
        let n = 30;
        let mut seed = 0x1234u64;
        let mut pb = PatternBuilder::new(n);
        let mut entries = Vec::new();
        for r in 0..n {
            pb.add(r, r);
            entries.push((r, r));
            let c = (r * 7 + 3) % n;
            if c != r {
                pb.add(r, c);
                entries.push((r, c));
                pb.add(c, r);
                entries.push((c, r));
            }
        }
        let mut m: SparseMatrix<f64> = SparseMatrix::new(pb.build());
        let mut f = SparseFactor::new();
        let mut baseline = 0;
        for round in 0..10 {
            m.clear();
            for &(r, c) in &entries {
                let v = if r == c { 10.0 } else { lcg(&mut seed) };
                m.stamp(r, c, v);
            }
            f.factor(&m).unwrap();
            let mut x: Vec<f64> = (0..n).map(|_| lcg(&mut seed)).collect();
            let b = m.mul_vec(&x);
            let mut sol = b.clone();
            f.solve(&mut sol).unwrap();
            for (a, bb) in x.iter().zip(&sol) {
                assert!((a - bb).abs() < 1e-8, "{a} vs {bb}");
            }
            x.clear();
            let allocs = THREAD_ALLOC_EVENTS.with(std::cell::Cell::get);
            if round == 0 {
                baseline = allocs;
            } else {
                assert_eq!(
                    allocs, baseline,
                    "steady-state refactor+solve must not allocate"
                );
            }
        }
    }

    #[test]
    fn detects_singularity() {
        let mut pb = PatternBuilder::new(2);
        for r in 0..2 {
            for c in 0..2 {
                pb.add(r, c);
            }
        }
        let mut m: SparseMatrix<f64> = SparseMatrix::new(pb.build());
        m.stamp(0, 0, 1.0);
        m.stamp(0, 1, 2.0);
        m.stamp(1, 0, 2.0);
        m.stamp(1, 1, 4.0);
        let mut f = SparseFactor::new();
        assert!(f.factor(&m).is_none());
    }

    #[test]
    fn complex_solve_matches_dense() {
        let n = 12;
        let mut seed = 0xabcdu64;
        let mut dense: Matrix<Complex> = Matrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                if r == c || lcg(&mut seed).abs() < 0.4 {
                    dense[(r, c)] = Complex::new(lcg(&mut seed), lcg(&mut seed));
                }
            }
            dense[(r, r)] += Complex::real(6.0);
        }
        let b: Vec<Complex> = (0..n)
            .map(|_| Complex::new(lcg(&mut seed), lcg(&mut seed)))
            .collect();
        let xd = dense.solve(&b).unwrap();
        let sm = from_dense(&dense);
        let mut f = SparseFactor::new();
        f.factor(&sm).unwrap();
        let mut xs = b.clone();
        f.solve(&mut xs).unwrap();
        for (a, bb) in xd.iter().zip(&xs) {
            assert!((*a - *bb).norm() < 1e-9, "{a} vs {bb}");
        }
    }
}
