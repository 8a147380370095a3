//! Reverse-mode autodiff over a linear tape.
//!
//! Every forward op appends a node holding its value and the recipe to
//! back-propagate into its parents (tape nodes) and parameters. The op set
//! is exactly what the CopyNet encoder-decoder needs, including a fused
//! generate/copy mixture negative-log-likelihood ([`Tape::copy_nll`]) whose
//! gradient is derived in its implementation comments.

use crate::params::{ParamId, Params};
use crate::tensor::{sigmoid, softmax, Matrix};

/// Handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(pub usize);

#[derive(Debug, Clone)]
enum Op {
    Input,
    EmbedRow {
        p: ParamId,
        row: usize,
    },
    MatVecP {
        p: ParamId,
        x: NodeId,
    },
    AddBias {
        p: ParamId,
        x: NodeId,
    },
    AddVV {
        a: NodeId,
        b: NodeId,
    },
    Hadamard {
        a: NodeId,
        b: NodeId,
    },
    Lerp {
        z: NodeId,
        a: NodeId,
        b: NodeId,
    },
    TanhV {
        x: NodeId,
    },
    SigmoidV {
        x: NodeId,
    },
    StackDot {
        hs: Vec<NodeId>,
        s: NodeId,
    },
    SoftmaxV {
        x: NodeId,
    },
    WeightedSum {
        hs: Vec<NodeId>,
        alpha: NodeId,
    },
    Concat2 {
        a: NodeId,
        b: NodeId,
    },
    CopyNll {
        logits: NodeId,
        alpha: NodeId,
        gate: NodeId,
        target: usize,
        copy_mask: Vec<bool>,
    },
}

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    grad: Matrix,
    op: Op,
}

/// The autodiff tape.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Fresh tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the tape empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node value.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Node gradient (after [`Tape::backward`]).
    pub fn grad(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].grad
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        let grad = Matrix::zeros(value.rows, value.cols);
        self.nodes.push(Node { value, grad, op });
        NodeId(self.nodes.len() - 1)
    }

    /// Leaf input (no gradient consumers).
    pub fn input(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Input)
    }

    /// Embedding lookup: row `row` of `p`, as a column vector.
    pub fn embed(&mut self, params: &Params, p: ParamId, row: usize) -> NodeId {
        let mat = params.get(p);
        let value = Matrix::from_fn(mat.cols, 1, |r, _| mat.get(row, r));
        self.push(value, Op::EmbedRow { p, row })
    }

    /// `W @ x` with parameter `W`.
    pub fn matvec(&mut self, params: &Params, p: ParamId, x: NodeId) -> NodeId {
        let value = params.get(p).matvec(self.value(x));
        self.push(value, Op::MatVecP { p, x })
    }

    /// `x + b` with bias parameter `b` (column vector).
    pub fn add_bias(&mut self, params: &Params, p: ParamId, x: NodeId) -> NodeId {
        let b = params.get(p);
        let xv = self.value(x);
        assert_eq!(b.rows, xv.rows);
        let value = Matrix::from_fn(xv.rows, 1, |r, _| xv.get(r, 0) + b.get(r, 0));
        self.push(value, Op::AddBias { p, x })
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.rows, vb.rows);
        let value = Matrix::from_fn(va.rows, 1, |r, _| va.get(r, 0) + vb.get(r, 0));
        self.push(value, Op::AddVV { a, b })
    }

    /// Elementwise `a ⊙ b`.
    pub fn hadamard(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.rows, vb.rows);
        let value = Matrix::from_fn(va.rows, 1, |r, _| va.get(r, 0) * vb.get(r, 0));
        self.push(value, Op::Hadamard { a, b })
    }

    /// Gated interpolation `z ⊙ a + (1 − z) ⊙ b` — the GRU update step.
    pub fn lerp(&mut self, z: NodeId, a: NodeId, b: NodeId) -> NodeId {
        let (vz, va, vb) = (self.value(z), self.value(a), self.value(b));
        assert_eq!(vz.rows, va.rows);
        assert_eq!(va.rows, vb.rows);
        let value = Matrix::from_fn(va.rows, 1, |r, _| {
            let z = vz.get(r, 0);
            z * va.get(r, 0) + (1.0 - z) * vb.get(r, 0)
        });
        self.push(value, Op::Lerp { z, a, b })
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x);
        let value = Matrix::from_fn(v.rows, 1, |r, _| v.get(r, 0).tanh());
        self.push(value, Op::TanhV { x })
    }

    /// Elementwise sigmoid.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x);
        let value = Matrix::from_fn(v.rows, 1, |r, _| sigmoid(v.get(r, 0)));
        self.push(value, Op::SigmoidV { x })
    }

    /// Attention scores: `scores[i] = h_i · s` over encoder states `hs`.
    pub fn stack_dot(&mut self, hs: &[NodeId], s: NodeId) -> NodeId {
        let sv = self.value(s).clone();
        let value = Matrix::from_fn(hs.len(), 1, |i, _| self.value(hs[i]).dot(&sv));
        self.push(value, Op::StackDot { hs: hs.to_vec(), s })
    }

    /// Softmax over a column vector.
    pub fn softmax_v(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x);
        let p = softmax(&v.data);
        let value = Matrix {
            rows: v.rows,
            cols: 1,
            data: p,
        };
        self.push(value, Op::SoftmaxV { x })
    }

    /// Attention context: `Σ α_i · h_i`.
    pub fn weighted_sum(&mut self, hs: &[NodeId], alpha: NodeId) -> NodeId {
        assert_eq!(self.value(alpha).rows, hs.len());
        let dim = self.value(hs[0]).rows;
        let mut value = Matrix::zero_vec(dim);
        for (i, &h) in hs.iter().enumerate() {
            let a = self.value(alpha).get(i, 0);
            value.add_scaled(self.value(h), a);
        }
        self.push(
            value,
            Op::WeightedSum {
                hs: hs.to_vec(),
                alpha,
            },
        )
    }

    /// Vertical concatenation `[a; b]`.
    pub fn concat2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (self.value(a), self.value(b));
        let mut data = va.data.clone();
        data.extend_from_slice(&vb.data);
        let value = Matrix {
            rows: va.rows + vb.rows,
            cols: 1,
            data,
        };
        self.push(value, Op::Concat2 { a, b })
    }

    /// Fused CopyNet step loss:
    ///
    /// ```text
    /// p_gen = softmax(logits)        g = sigmoid(gate)
    /// C     = Σ_{i : copy_mask[i]} alpha_i
    /// P     = (1 − g) · p_gen[target] + g · C
    /// loss  = − ln P
    /// ```
    ///
    /// `alpha` must already be a probability vector (softmaxed attention).
    pub fn copy_nll(
        &mut self,
        logits: NodeId,
        alpha: NodeId,
        gate: NodeId,
        target: usize,
        copy_mask: Vec<bool>,
    ) -> NodeId {
        assert_eq!(copy_mask.len(), self.value(alpha).rows);
        assert!(target < self.value(logits).rows);
        let p_gen = softmax(&self.value(logits).data);
        let g = sigmoid(self.value(gate).get(0, 0));
        let c: f32 = self
            .value(alpha)
            .data
            .iter()
            .zip(&copy_mask)
            .filter(|(_, &m)| m)
            .map(|(a, _)| a)
            .sum();
        let p = ((1.0 - g) * p_gen[target] + g * c).max(1e-12);
        let value = Matrix {
            rows: 1,
            cols: 1,
            data: vec![-p.ln()],
        };
        self.push(
            value,
            Op::CopyNll {
                logits,
                alpha,
                gate,
                target,
                copy_mask,
            },
        )
    }

    /// Sums scalar losses.
    pub fn sum_scalars(&mut self, xs: &[NodeId]) -> NodeId {
        assert!(!xs.is_empty());
        let total: f32 = xs.iter().map(|&x| self.value(x).get(0, 0)).sum();
        // Reuse AddVV chains for gradient correctness: build a fold.
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = self.add(acc, x);
        }
        debug_assert!((self.value(acc).get(0, 0) - total).abs() < 1e-3);
        acc
    }

    /// Runs reverse-mode accumulation from `loss` (must be 1×1). Parameter
    /// gradients accumulate into `params`; node gradients are kept on the
    /// tape (for tests). Exactly [`Tape::backward_nodes`] then
    /// [`Tape::accumulate_params`].
    pub fn backward(&mut self, loss: NodeId, params: &mut Params) {
        self.backward_nodes(loss, params);
        self.accumulate_params(loss, params);
    }

    /// Adds the parameter gradients into `params` after
    /// [`Tape::backward_nodes`], visiting the same nodes in the same order:
    /// every element gets an interleaved pass's additions, in its order,
    /// since no node gradient reads a parameter gradient.
    pub fn accumulate_params(&self, loss: NodeId, params: &mut Params) {
        for Node { grad, op, .. } in self.nodes[..=loss.0].iter().rev() {
            if grad.data.iter().all(|&g| g == 0.0) {
                continue;
            }
            match *op {
                Op::EmbedRow { p, row } => {
                    for (w, &g) in params.grad_mut(p).row_mut(row).iter_mut().zip(&grad.data) {
                        *w += g;
                    }
                }
                Op::MatVecP { p, x } => {
                    // y = W x:  dW += g xᵀ, one row slice per nonzero g.
                    let xv = &self.nodes[x.0].value.data;
                    let pg = params.grad_mut(p);
                    for (row, &gr) in pg.data.chunks_exact_mut(pg.cols.max(1)).zip(&grad.data) {
                        if gr != 0.0 {
                            for (w, &xc) in row.iter_mut().zip(xv) {
                                *w += gr * xc;
                            }
                        }
                    }
                }
                Op::AddBias { p, .. } => params.grad_mut(p).add_scaled(grad, 1.0),
                _ => {}
            }
        }
    }

    /// Propagates node gradients from `loss` (must be 1×1) back through the
    /// tape, reading parameters but writing no parameter gradient.
    pub fn backward_nodes(&mut self, loss: NodeId, params: &Params) {
        assert_eq!(self.value(loss).rows, 1);
        self.nodes[loss.0].grad.data[0] = 1.0;
        // `dx += Wᵀ g` scratch, reused across every `MatVecP` node.
        let mut wt_g: Vec<f32> = Vec::new();
        for i in (0..=loss.0).rev() {
            // A node's parents all precede it, so splitting here lends out
            // this node's gradient, value and op while its parents'
            // gradients are written — nothing is cloned.
            let (before, rest) = self.nodes.split_at_mut(i);
            let Node { value, grad, op } = &rest[0];
            if grad.data.iter().all(|&g| g == 0.0) {
                continue;
            }
            match op {
                Op::Input | Op::EmbedRow { .. } => {}
                &Op::MatVecP { p, x } => {
                    // y = W x:  dx += Wᵀ g. Row-major walk with one
                    // accumulator per column: each column still sums its
                    // rows top to bottom from 0.0.
                    let w = params.get(p);
                    wt_g.clear();
                    wt_g.resize(w.cols, 0.0);
                    for (row, &g) in w.data.chunks_exact(w.cols.max(1)).zip(&grad.data) {
                        for (acc, &wv) in wt_g.iter_mut().zip(row) {
                            *acc += wv * g;
                        }
                    }
                    for (xg, &acc) in before[x.0].grad.data.iter_mut().zip(&wt_g) {
                        *xg += acc;
                    }
                }
                &Op::AddBias { x, .. } => before[x.0].grad.add_scaled(grad, 1.0),
                &Op::AddVV { a, b } => {
                    before[a.0].grad.add_scaled(grad, 1.0);
                    before[b.0].grad.add_scaled(grad, 1.0);
                }
                &Op::Hadamard { a, b } => {
                    for r in 0..grad.rows {
                        before[a.0].grad.data[r] += grad.data[r] * before[b.0].value.data[r];
                        before[b.0].grad.data[r] += grad.data[r] * before[a.0].value.data[r];
                    }
                }
                &Op::Lerp { z, a, b } => {
                    for r in 0..grad.rows {
                        let g = grad.data[r];
                        let vz = before[z.0].value.data[r];
                        before[z.0].grad.data[r] +=
                            g * (before[a.0].value.data[r] - before[b.0].value.data[r]);
                        before[a.0].grad.data[r] += g * vz;
                        before[b.0].grad.data[r] += g * (1.0 - vz);
                    }
                }
                &Op::TanhV { x } => {
                    for r in 0..grad.rows {
                        before[x.0].grad.data[r] +=
                            grad.data[r] * (1.0 - value.data[r] * value.data[r]);
                    }
                }
                &Op::SigmoidV { x } => {
                    for r in 0..grad.rows {
                        before[x.0].grad.data[r] +=
                            grad.data[r] * value.data[r] * (1.0 - value.data[r]);
                    }
                }
                Op::StackDot { hs, s } => {
                    // scores[i] = h_i · s.
                    for (idx, &h) in hs.iter().enumerate() {
                        let g = grad.data[idx];
                        if g != 0.0 {
                            for r in 0..before[s.0].value.rows {
                                before[h.0].grad.data[r] += before[s.0].value.data[r] * g;
                                before[s.0].grad.data[r] += before[h.0].value.data[r] * g;
                            }
                        }
                    }
                }
                &Op::SoftmaxV { x } => {
                    // dx = y ⊙ (g − (g · y)).
                    let y = value;
                    let gy: f32 = grad.data.iter().zip(&y.data).map(|(g, y)| g * y).sum();
                    for r in 0..grad.rows {
                        before[x.0].grad.data[r] += y.data[r] * (grad.data[r] - gy);
                    }
                }
                Op::WeightedSum { hs, alpha } => {
                    // c = Σ α_i h_i:  dα_i += g·h_i,  dh_i += α_i g.
                    for (idx, &h) in hs.iter().enumerate() {
                        let hv = &before[h.0].value;
                        let dot: f32 = grad.data.iter().zip(&hv.data).map(|(g, h)| g * h).sum();
                        before[alpha.0].grad.data[idx] += dot;
                        let a = before[alpha.0].value.data[idx];
                        before[h.0].grad.add_scaled(grad, a);
                    }
                }
                &Op::Concat2 { a, b } => {
                    let na = before[a.0].value.rows;
                    for r in 0..na {
                        before[a.0].grad.data[r] += grad.data[r];
                    }
                    let nb = before[b.0].value.rows;
                    for r in 0..nb {
                        before[b.0].grad.data[r] += grad.data[na + r];
                    }
                }
                Op::CopyNll {
                    logits,
                    alpha,
                    gate,
                    target,
                    copy_mask,
                } => {
                    let target = *target;
                    let upstream = grad.data[0];
                    let p_gen = softmax(&before[logits.0].value.data);
                    let g = sigmoid(before[gate.0].value.data[0]);
                    let c: f32 = before[alpha.0]
                        .value
                        .data
                        .iter()
                        .zip(copy_mask)
                        .filter(|(_, &m)| m)
                        .map(|(a, _)| a)
                        .sum();
                    let p = ((1.0 - g) * p_gen[target] + g * c).max(1e-12);
                    let dldp = -upstream / p;
                    // dP/dlogits_j = (1−g)·p_gen[target]·(δ_{j=target} − p_gen[j]).
                    for j in 0..p_gen.len() {
                        let delta = if j == target { 1.0 } else { 0.0 };
                        before[logits.0].grad.data[j] +=
                            dldp * (1.0 - g) * p_gen[target] * (delta - p_gen[j]);
                    }
                    // dP/dα_i = g for matching positions.
                    for (idx, &m) in copy_mask.iter().enumerate() {
                        if m {
                            before[alpha.0].grad.data[idx] += dldp * g;
                        }
                    }
                    // dP/draw = (C − p_gen[target]) · g(1−g).
                    before[gate.0].grad.data[0] += dldp * (c - p_gen[target]) * g * (1.0 - g);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference check of the full op set in one composite graph.
    #[test]
    fn gradient_check_composite_graph() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut params = Params::new();
        let emb = params.add_xavier(5, 4, &mut rng); // vocab 5, dim 4
        let w = params.add_xavier(4, 4, &mut rng);
        let b = params.add_zeros(4, 1);
        let wo = params.add_xavier(5, 8, &mut rng); // logits over vocab 5
        let wg = params.add_xavier(1, 8, &mut rng);

        let loss_of = |params: &Params| -> f32 {
            let mut tape = Tape::new();
            let x0 = tape.embed(params, emb, 1);
            let x1 = tape.embed(params, emb, 3);
            let h0 = tape.matvec(params, w, x0);
            let h0 = tape.add_bias(params, b, h0);
            let h0 = tape.tanh(h0);
            let h1 = tape.matvec(params, w, x1);
            let h1 = tape.sigmoid(h1);
            let mix = tape.lerp(h1, h0, x1);
            let had = tape.hadamard(mix, h0);
            let s = tape.add(had, x0);
            let scores = tape.stack_dot(&[h0, h1], s);
            let alpha = tape.softmax_v(scores);
            let ctx = tape.weighted_sum(&[h0, h1], alpha);
            let cat = tape.concat2(s, ctx);
            let logits = tape.matvec(params, wo, cat);
            let gate = tape.matvec(params, wg, cat);
            let loss = tape.copy_nll(logits, alpha, gate, 2, vec![true, false]);
            tape.value(loss).get(0, 0)
        };

        // Analytic gradients.
        let mut tape = Tape::new();
        let x0 = tape.embed(&params, emb, 1);
        let x1 = tape.embed(&params, emb, 3);
        let h0 = tape.matvec(&params, w, x0);
        let h0 = tape.add_bias(&params, b, h0);
        let h0 = tape.tanh(h0);
        let h1 = tape.matvec(&params, w, x1);
        let h1 = tape.sigmoid(h1);
        let mix = tape.lerp(h1, h0, x1);
        let had = tape.hadamard(mix, h0);
        let s = tape.add(had, x0);
        let scores = tape.stack_dot(&[h0, h1], s);
        let alpha = tape.softmax_v(scores);
        let ctx = tape.weighted_sum(&[h0, h1], alpha);
        let cat = tape.concat2(s, ctx);
        let logits = tape.matvec(&params, wo, cat);
        let gate = tape.matvec(&params, wg, cat);
        let loss = tape.copy_nll(logits, alpha, gate, 2, vec![true, false]);
        params.zero_grads();
        tape.backward(loss, &mut params);

        // Compare against central differences on a sample of coordinates.
        let eps = 1e-3f32;
        for pid in [emb, w, b, wo, wg] {
            let n = params.get(pid).data.len();
            for idx in (0..n).step_by(3) {
                let orig = params.get(pid).data[idx];
                params.get_mut(pid).data[idx] = orig + eps;
                let up = loss_of(&params);
                params.get_mut(pid).data[idx] = orig - eps;
                let down = loss_of(&params);
                params.get_mut(pid).data[idx] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let analytic = params.grad(pid).data[idx];
                assert!(
                    (numeric - analytic).abs() < 2e-2 + 0.05 * numeric.abs().max(analytic.abs()),
                    "param {:?} idx {idx}: numeric {numeric} vs analytic {analytic}",
                    pid
                );
            }
        }
    }

    #[test]
    fn backward_seeds_loss_gradient() {
        let mut params = Params::new();
        let mut tape = Tape::new();
        let a = tape.input(Matrix {
            rows: 1,
            cols: 1,
            data: vec![2.0],
        });
        let b = tape.input(Matrix {
            rows: 1,
            cols: 1,
            data: vec![3.0],
        });
        let c = tape.hadamard(a, b);
        tape.backward(c, &mut params);
        assert_eq!(tape.grad(a).data[0], 3.0);
        assert_eq!(tape.grad(b).data[0], 2.0);
    }

    #[test]
    fn sum_scalars_distributes_gradient() {
        let mut params = Params::new();
        let mut tape = Tape::new();
        let xs: Vec<NodeId> = (0..3)
            .map(|i| {
                tape.input(Matrix {
                    rows: 1,
                    cols: 1,
                    data: vec![i as f32],
                })
            })
            .collect();
        let total = tape.sum_scalars(&xs);
        assert_eq!(tape.value(total).data[0], 3.0);
        tape.backward(total, &mut params);
        for &x in &xs {
            assert_eq!(tape.grad(x).data[0], 1.0);
        }
    }

    #[test]
    fn copy_nll_prefers_copy_when_gate_open() {
        // With the gate strongly open and the target covered by the mask,
        // the loss must be small even if the vocab softmax is wrong.
        let mut tape = Tape::new();
        let logits = tape.input(Matrix {
            rows: 3,
            cols: 1,
            data: vec![10.0, 0.0, 0.0], // vocab mass on the wrong word
        });
        let alpha = tape.input(Matrix {
            rows: 2,
            cols: 1,
            data: vec![0.95, 0.05],
        });
        let gate = tape.input(Matrix {
            rows: 1,
            cols: 1,
            data: vec![8.0], // sigmoid ≈ 1 → copy
        });
        let loss = tape.copy_nll(logits, alpha, gate, 2, vec![true, false]);
        assert!(tape.value(loss).data[0] < 0.2, "copy path should dominate");
    }
}
