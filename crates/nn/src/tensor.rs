//! Dense row-major matrices (f32). Vectors are `n × 1` matrices.
//!
//! The CopyNet model is small (hidden ≈ 48), so simple loops beat the
//! complexity of a BLAS dependency; the hot kernels write into caller-owned
//! slices so a decode step allocates nothing.
//!
//! **Sums are never reordered.** Every output element is one accumulator
//! that starts at `0.0` and adds its terms in column order, exactly as the
//! one-row-at-a-time loop did: the pipeline's determinism contract (same
//! bytes at every thread count, same snapshot after every refactor) reaches
//! down to the bit pattern of each logit, and f32 addition is not
//! associative. Two kernels compute that sum. `matvec_into` is
//! *row-blocked*: `ROW_BLOCK` rows advance through the columns together, so
//! their add chains overlap in the CPU's pipeline; training's tape, the
//! input-projection tables and the decoder's one-row gate use it.
//! `matvec_t_into` reads a column-major copy (`transposed`) and adds column
//! `c`'s terms into every output at once; the outputs are independent, so
//! it vectorises. The decoder's recurrent and output layers use it.

use rand::rngs::StdRng;
use rand::Rng;

/// Rows [`Matrix::matvec_into`] advances together: enough independent add
/// chains to cover a floating-point add's latency on both issue ports.
pub(crate) const ROW_BLOCK: usize = 8;

/// Row-major dense matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major data, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Column vector of zeros.
    pub fn zero_vec(n: usize) -> Self {
        Self::zeros(n, 1)
    }

    /// Xavier/Glorot-uniform initialisation.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Builds from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Matrix–vector product `self @ x` (x must be `cols × 1`).
    pub fn matvec(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols, 1, "matvec expects a column vector");
        let mut out = Matrix::zero_vec(self.rows);
        self.matvec_into(&x.data, &mut out.data);
        out
    }

    /// `out = self @ x` into a caller-owned slice, [`ROW_BLOCK`] rows at a
    /// time. Each `out[r]` is `Σ_c self[r][c]·x[c]` accumulated from `0.0`
    /// in column order whatever the blocking (see the module comment).
    pub(crate) fn matvec_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(self.cols, x.len(), "matvec shape mismatch");
        assert_eq!(self.rows, out.len(), "matvec output length mismatch");
        let cols = self.cols;
        let blocked_rows = self.rows - self.rows % ROW_BLOCK;
        let (blocked, tail) = self.data.split_at(blocked_rows * cols);
        let (out_blocked, out_tail) = out.split_at_mut(blocked_rows);
        for (b, o) in out_blocked.chunks_exact_mut(ROW_BLOCK).enumerate() {
            let rows: [&[f32]; ROW_BLOCK] = std::array::from_fn(|k| {
                let start = (b * ROW_BLOCK + k) * cols;
                &blocked[start..start + cols]
            });
            let mut acc = [0.0f32; ROW_BLOCK];
            for (c, &xc) in x.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(&rows) {
                    *a += row[c] * xc;
                }
            }
            o.copy_from_slice(&acc);
        }
        for (r, o) in out_tail.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (a, b) in tail[r * cols..(r + 1) * cols].iter().zip(x) {
                acc += a * b;
            }
            *o = acc;
        }
    }

    /// The transpose: a column-major copy for [`Matrix::matvec_t_into`].
    pub(crate) fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// `out = selfᵀ @ x` for `self` the [`Matrix::transposed`] copy of `W`:
    /// the same bits as `W.matvec_into(x, out)`, since every `out[r]` still
    /// starts at `0.0` and adds `W[r][c]·x[c]` in column order.
    pub(crate) fn matvec_t_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(self.rows, x.len(), "matvec shape mismatch");
        assert_eq!(self.cols, out.len(), "matvec output length mismatch");
        out.fill(0.0);
        for (col, &xc) in self.data.chunks_exact(self.cols.max(1)).zip(x) {
            for (o, &w) in out.iter_mut().zip(col) {
                *o += w * xc;
            }
        }
    }

    /// Is this a column vector?
    pub fn is_vec(&self) -> bool {
        self.cols == 1
    }

    /// Dot product of two column vectors.
    pub fn dot(&self, other: &Matrix) -> f32 {
        assert!(self.is_vec() && other.is_vec());
        assert_eq!(self.rows, other.rows);
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// In-place `self += other * scale`.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
    }

    /// Fills with zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// Numerically-stable softmax over a slice.
pub fn softmax(xs: &[f32]) -> Vec<f32> {
    let mut out = xs.to_vec();
    softmax_in_place(&mut out);
    out
}

/// [`softmax`], overwriting its input.
pub(crate) fn softmax_in_place(xs: &mut [f32]) {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    xs.iter_mut().for_each(|x| *x = (*x - max).exp());
    let sum: f32 = xs.iter().sum();
    let denom = sum.max(1e-30);
    xs.iter_mut().for_each(|x| *x /= denom);
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32); // [[0,1,2],[3,4,5]]
        let x = Matrix::from_fn(3, 1, |r, _| (r + 1) as f32); // [1,2,3]
        let y = m.matvec(&x);
        assert_eq!(y.data, vec![0.0 + 2.0 + 6.0, 3.0 + 8.0 + 15.0]);
    }

    /// Row blocking must not move a bit: every output element equals the
    /// one-row-at-a-time sum, for row counts on, under and over a multiple
    /// of the block width.
    #[test]
    fn blocked_matvec_is_bit_identical_to_the_row_loop() {
        let mut rng = StdRng::seed_from_u64(9);
        for rows in [
            0,
            1,
            ROW_BLOCK - 1,
            ROW_BLOCK,
            ROW_BLOCK + 1,
            3 * ROW_BLOCK,
            29,
        ] {
            for cols in [1, 7, 48] {
                let m = Matrix::xavier(rows, cols, &mut rng);
                let x = Matrix::xavier(cols, 1, &mut rng);
                let expected: Vec<u32> = (0..rows)
                    .map(|r| {
                        let mut acc = 0.0f32;
                        for (a, b) in m.row(r).iter().zip(&x.data) {
                            acc += a * b;
                        }
                        acc.to_bits()
                    })
                    .collect();
                let got: Vec<u32> = m.matvec(&x).data.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, expected, "{rows} × {cols}");
            }
        }
    }

    /// The column-major kernel is the row-major one to the bit, for shapes
    /// around the block width up to the decoder's 879 × 48 output layer,
    /// with signed zeros and subnormals among the weights and inputs.
    #[test]
    fn transposed_matvec_is_bit_identical_to_the_row_loop() {
        let mut rng = StdRng::seed_from_u64(23);
        let specials = [0.0, -0.0, f32::MIN_POSITIVE / 4.0, -1e-40, 1e-45];
        let mut draw = |rows: usize, cols: usize| {
            let mut m = Matrix::xavier(rows, cols, &mut rng);
            for (i, v) in m.data.iter_mut().enumerate() {
                if i % 5 == 2 {
                    *v = specials[i / 5 % specials.len()];
                }
            }
            m
        };
        for rows in [0, 1, 7, 8, 9, 24, 879] {
            for cols in [1, 16, 24, 48] {
                let w = draw(rows, cols);
                let x = draw(cols, 1).data;
                let mut want = vec![0.0; rows];
                w.matvec_into(&x, &mut want);
                let mut got = vec![1.0; rows];
                w.transposed().matvec_t_into(&x, &mut got);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{rows} × {cols}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "matvec shape mismatch")]
    fn matvec_shape_checked() {
        let m = Matrix::zeros(2, 3);
        let x = Matrix::zero_vec(2);
        let _ = m.matvec(&x);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 1000.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!((p[0] - 1.0 / 3.0).abs() < 1e-6);
        let q = softmax(&[-1e30, 0.0]);
        assert!(q[1] > 0.99);
    }

    #[test]
    fn sigmoid_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::xavier(10, 10, &mut rng);
        let bound = (6.0f32 / 20.0).sqrt();
        assert!(m.data.iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::from_fn(2, 2, |_, _| 1.0);
        a.add_scaled(&b, 0.5);
        a.add_scaled(&b, 0.5);
        assert!(a.data.iter().all(|&v| (v - 1.0).abs() < 1e-7));
    }

    #[test]
    fn dot_product() {
        let a = Matrix::from_fn(3, 1, |r, _| r as f32);
        let b = Matrix::from_fn(3, 1, |_, _| 2.0);
        assert_eq!(a.dot(&b), 6.0);
    }
}
