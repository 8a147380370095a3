//! Adam optimizer with gradient clipping.

use crate::params::Params;
use crate::tensor::Matrix;

/// Adam (Kingma & Ba 2015) over a [`Params`] set.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    /// Global-norm clip threshold (0 disables clipping).
    pub clip_norm: f32,
}

impl Adam {
    /// Creates an optimizer for `params` with learning rate `lr`.
    pub fn new(params: &Params, lr: f32) -> Self {
        let shapes: Vec<(usize, usize)> = (0..params.len())
            .map(|i| {
                let m = params.get(crate::params::ParamId(i));
                (m.rows, m.cols)
            })
            .collect();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect(),
            v: shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect(),
            clip_norm: 5.0,
        }
    }

    /// Applies one update from the accumulated gradients, then zeroes them.
    pub fn step(&mut self, params: &mut Params) {
        if self.clip_norm > 0.0 {
            let norm = params.grad_norm();
            if norm > self.clip_norm {
                params.scale_grads(self.clip_norm / norm);
            }
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let moments = self.m.iter_mut().zip(&mut self.v);
        for ((w, g), (m, v)) in params.values_and_grads().zip(moments) {
            let slots = m.data.iter_mut().zip(&mut v.data);
            for ((w, &g), (m, v)) in w.data.iter_mut().zip(&g.data).zip(slots) {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let m_hat = *m / b1t;
                let v_hat = *v / b2t;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
        params.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;

    /// Adam must minimise a simple quadratic `f(w) = (w − 3)²`.
    #[test]
    fn minimises_quadratic() {
        let mut params = Params::new();
        let w = params.add(Matrix {
            rows: 1,
            cols: 1,
            data: vec![0.0],
        });
        let mut adam = Adam::new(&params, 0.1);
        for _ in 0..300 {
            let cur = params.get(w).data[0];
            params.grad_mut(w).data[0] = 2.0 * (cur - 3.0);
            adam.step(&mut params);
        }
        let final_w = params.get(w).data[0];
        assert!((final_w - 3.0).abs() < 0.05, "w = {final_w}");
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut params = Params::new();
        let w = params.add(Matrix {
            rows: 1,
            cols: 1,
            data: vec![0.0],
        });
        let mut adam = Adam::new(&params, 0.1);
        adam.clip_norm = 1.0;
        params.grad_mut(w).data[0] = 1e6;
        adam.step(&mut params);
        // First Adam step magnitude is ≈ lr regardless, but the clipped
        // gradient keeps moments sane: a second tiny gradient must not
        // produce an explosive update.
        let after_first = params.get(w).data[0];
        assert!(after_first.abs() < 0.2);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut params = Params::new();
        let w = params.add(Matrix {
            rows: 1,
            cols: 1,
            data: vec![0.0],
        });
        let mut adam = Adam::new(&params, 0.01);
        params.grad_mut(w).data[0] = 1.0;
        adam.step(&mut params);
        assert_eq!(params.grad(w).data[0], 0.0);
    }
}
