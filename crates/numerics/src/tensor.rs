//! A small dense row-major matrix type with a GEMM kernel.
//!
//! [`Matrix::matmul`] is the one GEMM entry point: a cache- and
//! register-blocked kernel that runs on the calling thread (parallel work
//! goes one level up, through
//! [`ExecutionContext::map`](crate::exec::ExecutionContext::map)). Its
//! output is bit-identical to the original triple-loop kernel, which is kept
//! as the hidden [`matmul_naive`] oracle. The GEMM serves as the correctness
//! oracle for the VLP GEMM in `mugi-vlp` and as the "software
//! implementation" baseline used by the accuracy experiments.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `f32` matrix.
///
/// ```
/// use mugi_numerics::tensor::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates an identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            assert_eq!(row.len(), n_cols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix { rows: n_rows, cols: n_cols, data }
    }

    /// Fills a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the underlying row-major storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow of one row.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of one column.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Applies a function element-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Element-wise addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect(),
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect(),
        }
    }

    /// Scales every element.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// GEMM: `self (m×k) × other (k×n) = (m×n)`, computed by a
    /// cache-blocked, register-blocked kernel on the calling thread.
    ///
    /// The result is **bit-identical** to [`matmul_naive`]: each output
    /// element accumulates its `k` partial products in the same
    /// ascending-`k` order, with the same skip of exact zeros in `self`.
    /// Tests assert exact `f32::to_bits` equality.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "inner dimensions must agree: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, n) = (self.cols, other.cols);
        let mut out = Matrix::zeros(self.rows, n);
        if out.data.is_empty() || k == 0 {
            return out;
        }
        matmul_rows_blocked(&self.data, &other.data, &mut out.data, k, n);
        out
    }

    /// Maximum absolute element difference between two matrices.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

/// The original triple-loop GEMM, kept verbatim as the correctness oracle
/// for the blocked kernel (see the bit-identity tests). Not part of the
/// supported API surface.
#[doc(hidden)]
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols, b.rows,
        "inner dimensions must agree: {}x{} * {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    let mut out = Matrix::zeros(a.rows, b.cols);
    for i in 0..a.rows {
        for kk in 0..a.cols {
            let av = a[(i, kk)];
            if av == 0.0 {
                continue;
            }
            let row = &b.data[kk * b.cols..(kk + 1) * b.cols];
            let dst = &mut out.data[i * b.cols..(i + 1) * b.cols];
            for (d, &bv) in dst.iter_mut().zip(row) {
                *d += av * bv;
            }
        }
    }
    out
}

/// Lanes (output columns) of the main register panel.
const NR: usize = 16;

/// Rows of `b` per k-tile: a 64×64 f32 tile (16 KiB) fits an L1 data cache
/// alongside the accumulator rows.
const TILE: usize = 64;

/// Blocked GEMM: `out` (`out.len() / n` rows of `n`) += `a` × `b`.
///
/// The `k` loop is tiled so one [`TILE`]-row panel of `b` stays
/// cache-resident while it is applied to every output row. Inside a k-tile
/// the rows are walked two at a time (a leftover row alone), and each pair
/// of rows is cut into register panels by [`panel_row`]: [`NR`] columns
/// wide, then 4, then 1 for the tail columns.
///
/// The panel size is set by the register file. Baseline x86-64 has 16 SSE
/// registers of four f32 lanes each. A 2×16 panel keeps 8 accumulators, the
/// 4 registers of one `b` segment and 2 `a` broadcasts live, 14 in all, so
/// nothing spills inside the `k` loop. (A 4×16 panel needs 16 accumulators
/// alone and spills the `b` segment and the broadcasts every step.)
///
/// For every output element the partial products are still added in
/// ascending-`k` order, starting from the stored value (k-tiles ascend, `kk`
/// ascends inside a tile, and the spill/reload of the f32 accumulators is
/// lossless), with the naive kernel's exact-zero skip on `a`. That keeps the
/// result bit-identical to [`matmul_naive`].
fn matmul_rows_blocked(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    let rows = out.len() / n;
    for kb in (0..k).step_by(TILE) {
        let k_end = (kb + TILE).min(k);
        let b_tile = &b[kb * n..k_end * n];
        // The `a` row of output row `r`, cut to this k-tile.
        let a_row = |r: usize| &a[r * k + kb..r * k + k_end];
        let mut pairs = out.chunks_exact_mut(2 * n);
        for (p, pair) in (&mut pairs).enumerate() {
            let (d0, d1) = pair.split_at_mut(n);
            panel_row([a_row(2 * p), a_row(2 * p + 1)], b_tile, [d0, d1]);
        }
        let rest = pairs.into_remainder();
        if !rest.is_empty() {
            panel_row([a_row(rows - 1)], b_tile, [rest]);
        }
    }
}

/// Applies one k-tile to `R` output rows `dst` (each `n` wide): the `a`
/// rows `a` cut to the tile, times the tile's `b` rows `b` (`a[r].len()`
/// rows of `n`). Columns go [`NR`] lanes at a time, then 4, then 1.
fn panel_row<const R: usize>(a: [&[f32]; R], b: &[f32], mut dst: [&mut [f32]; R]) {
    let n = dst[0].len();
    let mut jb = 0;
    while jb + NR <= n {
        panel::<R, NR>(&a, &b[jb..], n, &mut dst, jb);
        jb += NR;
    }
    while jb + 4 <= n {
        panel::<R, 4>(&a, &b[jb..], n, &mut dst, jb);
        jb += 4;
    }
    while jb < n {
        panel::<R, 1>(&a, &b[jb..], n, &mut dst, jb);
        jb += 1;
    }
}

/// The register panel: `R` output rows × `W` columns starting at `jb`,
/// accumulated in registers over one k-tile. `b` starts at column `jb` of
/// the tile's first `b` row; its rows are `n` apart.
fn panel<const R: usize, const W: usize>(
    a: &[&[f32]; R],
    b: &[f32],
    n: usize,
    dst: &mut [&mut [f32]; R],
    jb: usize,
) {
    let mut acc: [[f32; W]; R] =
        std::array::from_fn(|r| dst[r][jb..jb + W].try_into().expect("W lanes"));
    for (kk, b_row) in b.chunks(n).take(a[0].len()).enumerate() {
        let bseg: &[f32; W] = b_row[..W].try_into().expect("W lanes");
        let av: [f32; R] = std::array::from_fn(|r| a[r][kk]);
        if av.iter().all(|&x| x != 0.0) {
            for j in 0..W {
                for r in 0..R {
                    acc[r][j] += av[r] * bseg[j];
                }
            }
        } else {
            for (acc, &x) in acc.iter_mut().zip(&av) {
                if x == 0.0 {
                    continue;
                }
                for j in 0..W {
                    acc[j] += x * bseg[j];
                }
            }
        }
    }
    for (d, acc) in dst.iter_mut().zip(&acc) {
        d[jb..jb + W].copy_from_slice(acc);
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", &self.row(r)[..self.cols.min(8)])?;
        }
        if self.rows > 8 || self.cols > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Simple deterministic pseudo-random matrix generator (xorshift-based) so the
/// core numeric crates do not need a `rand` dependency; experiment crates use
/// `rand` proper.
pub fn pseudo_random_matrix(rows: usize, cols: usize, seed: u64, scale: f32) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    Matrix::from_fn(rows, cols, |_, _| {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let x = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        // Map to [-1, 1).
        let unit = (x >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0;
        unit * scale
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(0), vec![1.0, 4.0]);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = pseudo_random_matrix(5, 5, 7, 2.0);
        let i = Matrix::identity(5);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = pseudo_random_matrix(3, 7, 11, 1.0);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 7);
    }

    #[test]
    fn elementwise_operations() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 2.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, -8.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, -4.0]]));
        assert_eq!(a.map(f32::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    #[test]
    fn norms_and_diffs() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.5]]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn pseudo_random_is_deterministic_and_bounded() {
        let a = pseudo_random_matrix(10, 10, 42, 3.0);
        let b = pseudo_random_matrix(10, 10, 42, 3.0);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|x| x.abs() <= 3.0));
        let c = pseudo_random_matrix(10, 10, 43, 3.0);
        assert_ne!(a, c);
    }

    /// Exact bit-level equality between two matrices (stricter than `==`,
    /// which treats `-0.0 == 0.0`), except that two NaNs match whatever
    /// their sign and payload: Rust guarantees only that arithmetic on a
    /// NaN yields some NaN, and an optimized build may pick another one. A
    /// NaN on one side only still fails.
    fn assert_bit_identical(a: &Matrix, b: &Matrix) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            if x.is_nan() && y.is_nan() {
                continue;
            }
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive() {
        // Every n in 1..=40 hits every tail width (16-lane panels, then 4,
        // then 1); odd m takes the one-row panel; k runs below the 64-row
        // k-tile, across one tile boundary and across two. Some activations
        // are exact zeros, so each panel sees both its all-nonzero and its
        // per-row skip path.
        for m in 1..=9 {
            for k in [5, 70, 130] {
                let mut a = pseudo_random_matrix(m, k, (m * k) as u64 + 1, 1.0);
                for i in 0..m {
                    for kk in (i % 7..k).step_by(7) {
                        a[(i, kk)] = 0.0;
                    }
                }
                for n in 1..=40 {
                    let b = pseudo_random_matrix(k, n, (k * n) as u64 + 2, 1.0);
                    assert_bit_identical(&a.matmul(&b), &matmul_naive(&a, &b));
                }
            }
        }
    }

    #[test]
    fn blocked_matmul_keeps_the_bits_of_special_values() {
        const POOL: [f32; 8] =
            [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.5, -2.0, 0.25];
        let check =
            |a: &Matrix, b: &Matrix| assert_bit_identical(&a.matmul(b), &matmul_naive(a, b));
        // k = 67 crosses the 64-row k-tile boundary.
        for m in 1..=5 {
            for k in [3, 9, 67] {
                let a = Matrix::from_fn(m, k, |i, kk| POOL[(3 * i + 5 * kk) % POOL.len()]);
                for n in [1, 5, 17, 33] {
                    let b = Matrix::from_fn(k, n, |kk, j| POOL[(7 * kk + j) % POOL.len()]);
                    check(&a, &b);
                }
            }
        }
        // A row pair where, at each k, one row's activation is an exact zero
        // (of either sign) and the other's is not: the zero row must skip the
        // infinities and NaNs its partner multiplies.
        let a = Matrix::from_rows(&[&[0.0, 1.0, -0.0, 2.0], &[3.0, -0.0, 0.5, 0.0]]);
        let b = Matrix::from_fn(4, 21, |kk, j| POOL[(kk + 3 * j) % POOL.len()]);
        check(&a, &b);
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_is_bounds_checked() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }
}
