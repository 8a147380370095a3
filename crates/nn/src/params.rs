//! Learnable parameter storage.
//!
//! Parameters live outside the tape so one parameter set can serve many
//! forward/backward passes (training) and tape-free passes (inference).

use crate::tensor::Matrix;
use rand::rngs::StdRng;

/// Handle to one parameter matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(pub usize);

/// A set of parameter matrices with matching gradient accumulators.
#[derive(Debug, Clone, Default)]
pub struct Params {
    mats: Vec<Matrix>,
    grads: Vec<Matrix>,
}

impl Params {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a Xavier-initialised matrix.
    pub fn add_xavier(&mut self, rows: usize, cols: usize, rng: &mut StdRng) -> ParamId {
        self.add(Matrix::xavier(rows, cols, rng))
    }

    /// Adds a zero matrix (for biases).
    pub fn add_zeros(&mut self, rows: usize, cols: usize) -> ParamId {
        self.add(Matrix::zeros(rows, cols))
    }

    /// Adds an explicit matrix.
    pub fn add(&mut self, m: Matrix) -> ParamId {
        let id = ParamId(self.mats.len());
        self.grads.push(Matrix::zeros(m.rows, m.cols));
        self.mats.push(m);
        id
    }

    /// Parameter value.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.mats[id.0]
    }

    /// Mutable parameter value (optimizer step).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.mats[id.0]
    }

    /// Gradient accumulator.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.grads[id.0]
    }

    /// Mutable gradient accumulator.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.grads[id.0]
    }

    /// Every parameter beside its gradient, in id order (optimizer step).
    pub(crate) fn values_and_grads(&mut self) -> impl Iterator<Item = (&mut Matrix, &Matrix)> {
        self.mats.iter_mut().zip(&self.grads)
    }

    /// Zeroes all gradients (start of a step).
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Number of parameter matrices.
    pub fn len(&self) -> usize {
        self.mats.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    /// Global L2 norm of all gradients (for clipping).
    pub fn grad_norm(&self) -> f32 {
        self.grads
            .iter()
            .flat_map(|g| g.data.iter())
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient by `factor` (gradient clipping).
    pub fn scale_grads(&mut self, factor: f32) {
        for g in &mut self.grads {
            for v in &mut g.data {
                *v *= factor;
            }
        }
    }

    /// Total scalar parameter count.
    pub fn num_scalars(&self) -> usize {
        self.mats.iter().map(|m| m.data.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn add_and_access() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = Params::new();
        let w = p.add_xavier(4, 3, &mut rng);
        let b = p.add_zeros(4, 1);
        assert_eq!(p.get(w).rows, 4);
        assert_eq!(p.get(b).data, vec![0.0; 4]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_scalars(), 16);
    }

    #[test]
    fn grads_track_shapes_and_zero() {
        let mut p = Params::new();
        let w = p.add(Matrix::from_fn(2, 2, |_, _| 1.0));
        p.grad_mut(w).data[0] = 5.0;
        assert_eq!(p.grad(w).data[0], 5.0);
        p.zero_grads();
        assert_eq!(p.grad(w).data, vec![0.0; 4]);
    }

    #[test]
    fn grad_norm_and_scaling() {
        let mut p = Params::new();
        let w = p.add(Matrix::zeros(1, 2));
        p.grad_mut(w).data = vec![3.0, 4.0];
        assert!((p.grad_norm() - 5.0).abs() < 1e-6);
        p.scale_grads(0.5);
        assert!((p.grad_norm() - 2.5).abs() < 1e-6);
    }
}
