//! CopyNet: GRU encoder-decoder with attention and a copy mechanism.
//!
//! The paper's *neural generation* component (§II) trains an
//! encoder-decoder on distant-supervision pairs (entity abstract →
//! hypernym) and uses CopyNet (Gu et al. 2016) because hypernyms are often
//! out-of-vocabulary yet present verbatim in the abstract. This module
//! implements that model:
//!
//! * GRU encoder over source tokens;
//! * GRU decoder with dot-product attention over encoder states;
//! * per-step output distribution mixing a *generate* softmax over the
//!   vocabulary with a *copy* distribution over source positions, gated by
//!   a learned sigmoid (the fused loss lives in [`crate::tape::Tape::copy_nll`]);
//! * teacher-forced training with Adam, greedy decoding.

use crate::optim::Adam;
use crate::params::{ParamId, Params};
use crate::tape::{NodeId, Tape};
use crate::tensor::{sigmoid, softmax_in_place, Matrix};
use crate::vocab::{Vocab, BOS, EOS, PAD, UNK};
use cnp_runtime::Runtime;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Samples whose tapes [`CopyNet::train_epoch`] holds at once: a batch
/// larger than this (or the whole epoch, at `batch_size: 0`) is built and
/// summed in windows of this many, so its memory stays bounded.
const TAPE_WINDOW: usize = 64;

/// Model hyperparameters.
#[derive(Debug, Clone)]
pub struct CopyNetConfig {
    /// Embedding dimension.
    pub embed_dim: usize,
    /// GRU hidden dimension.
    pub hidden_dim: usize,
    /// Source sequences are truncated to this length.
    pub max_src_len: usize,
    /// Maximum decoded target length.
    pub max_tgt_len: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size (gradient accumulation window). `0` makes each
    /// epoch one batch, as does any size at or above the sample count.
    pub batch_size: usize,
    /// RNG seed for initialisation and shuffling.
    pub seed: u64,
}

impl Default for CopyNetConfig {
    fn default() -> Self {
        CopyNetConfig {
            embed_dim: 32,
            hidden_dim: 48,
            max_src_len: 32,
            max_tgt_len: 5,
            lr: 0.01,
            batch_size: 8,
            seed: 42,
        }
    }
}

/// One distant-supervision sample: tokenised abstract → tokenised hypernym.
#[derive(Debug, Clone)]
pub struct CopySample {
    /// Source tokens (segmented abstract).
    pub src: Vec<String>,
    /// Target tokens (the hypernym, usually length 1).
    pub tgt: Vec<String>,
}

#[derive(Debug, Clone, Copy)]
struct GruParams {
    wz: ParamId,
    uz: ParamId,
    bz: ParamId,
    wr: ParamId,
    ur: ParamId,
    br: ParamId,
    wh: ParamId,
    uh: ParamId,
    bh: ParamId,
}

/// The CopyNet model.
#[derive(Debug)]
pub struct CopyNet {
    /// Generation vocabulary.
    pub vocab: Vocab,
    cfg: CopyNetConfig,
    params: Params,
    emb: ParamId,
    enc: GruParams,
    dec: GruParams,
    wo: ParamId,
    wg: ParamId,
    opt: Adam,
    /// Each GRU's input projections per vocabulary id (see
    /// [`CopyNet::input_projections`]), its `U_z, U_r, U_h` and `wo`
    /// column-major; rebuilt whenever `params` move, so inference looks up
    /// three of a GRU step's six mat-vecs and runs the other three and the
    /// output layer through the vectorising kernel (`crate::tensor`).
    enc_x: Matrix,
    dec_x: Matrix,
    enc_u: [Matrix; 3],
    dec_u: [Matrix; 3],
    wo_t: Matrix,
}

impl CopyNet {
    /// Creates a model over `vocab`.
    pub fn new(vocab: Vocab, cfg: CopyNetConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut params = Params::new();
        let v = vocab.len();
        let (d, h) = (cfg.embed_dim, cfg.hidden_dim);
        let emb = params.add_xavier(v, d, &mut rng);
        let gru = |params: &mut Params, rng: &mut StdRng| GruParams {
            wz: params.add_xavier(h, d, rng),
            uz: params.add_xavier(h, h, rng),
            bz: params.add_zeros(h, 1),
            wr: params.add_xavier(h, d, rng),
            ur: params.add_xavier(h, h, rng),
            br: params.add_zeros(h, 1),
            wh: params.add_xavier(h, d, rng),
            uh: params.add_xavier(h, h, rng),
            bh: params.add_zeros(h, 1),
        };
        let enc = gru(&mut params, &mut rng);
        let dec = gru(&mut params, &mut rng);
        let wo = params.add_xavier(v, 2 * h, &mut rng);
        let wg = params.add_xavier(1, 2 * h, &mut rng);
        let opt = Adam::new(&params, cfg.lr);
        let mut net = CopyNet {
            vocab,
            cfg,
            params,
            emb,
            enc,
            dec,
            wo,
            wg,
            opt,
            enc_x: Matrix::default(),
            dec_x: Matrix::default(),
            enc_u: Default::default(),
            dec_u: Default::default(),
            wo_t: Matrix::default(),
        };
        net.refresh_projections();
        net
    }

    fn refresh_projections(&mut self) {
        self.enc_x = self.input_projections(self.enc);
        self.dec_x = self.input_projections(self.dec);
        let p = &self.params;
        let u = |g: GruParams| [g.uz, g.ur, g.uh].map(|id| p.get(id).transposed());
        self.enc_u = u(self.enc);
        self.dec_u = u(self.dec);
        self.wo_t = p.get(self.wo).transposed();
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }

    /// Configuration.
    pub fn config(&self) -> &CopyNetConfig {
        &self.cfg
    }

    // ---- tape-based training forward ----

    fn gru_step(&self, tape: &mut Tape, g: GruParams, x: NodeId, h: NodeId) -> NodeId {
        let zx = tape.matvec(&self.params, g.wz, x);
        let zh = tape.matvec(&self.params, g.uz, h);
        let z = tape.add(zx, zh);
        let z = tape.add_bias(&self.params, g.bz, z);
        let z = tape.sigmoid(z);
        let rx = tape.matvec(&self.params, g.wr, x);
        let rh = tape.matvec(&self.params, g.ur, h);
        let r = tape.add(rx, rh);
        let r = tape.add_bias(&self.params, g.br, r);
        let r = tape.sigmoid(r);
        let gated = tape.hadamard(r, h);
        let cx = tape.matvec(&self.params, g.wh, x);
        let ch = tape.matvec(&self.params, g.uh, gated);
        let cand = tape.add(cx, ch);
        let cand = tape.add_bias(&self.params, g.bh, cand);
        let cand = tape.tanh(cand);
        // h' = z ⊙ h + (1 − z) ⊙ h̃
        tape.lerp(z, h, cand)
    }

    /// Teacher-forced loss of one sample; returns the scalar loss value.
    fn sample_loss(&self, tape: &mut Tape, sample: &CopySample) -> NodeId {
        let src_tokens: Vec<&str> = sample
            .src
            .iter()
            .take(self.cfg.max_src_len)
            .map(String::as_str)
            .collect();
        let src_ids: Vec<u32> = src_tokens.iter().map(|t| self.vocab.id(t)).collect();

        // Encoder.
        let mut h = tape.input(Matrix::zero_vec(self.cfg.hidden_dim));
        let mut states = Vec::with_capacity(src_ids.len());
        for &id in &src_ids {
            let x = tape.embed(&self.params, self.emb, id as usize);
            h = self.gru_step(tape, self.enc, x, h);
            states.push(h);
        }

        // Decoder with teacher forcing; final step predicts EOS.
        let mut losses = Vec::new();
        let mut s = h;
        let mut prev_id = BOS;
        let tgt_steps: Vec<(u32, Vec<bool>)> = sample
            .tgt
            .iter()
            .take(self.cfg.max_tgt_len)
            .map(|t| {
                let mask: Vec<bool> = src_tokens.iter().map(|st| *st == t).collect();
                (self.vocab.id(t), mask)
            })
            .chain(std::iter::once((EOS, vec![false; src_tokens.len()])))
            .collect();
        for (tgt_id, mask) in tgt_steps {
            let x = tape.embed(&self.params, self.emb, prev_id as usize);
            s = self.gru_step(tape, self.dec, x, s);
            let scores = tape.stack_dot(&states, s);
            let alpha = tape.softmax_v(scores);
            let ctx = tape.weighted_sum(&states, alpha);
            let cat = tape.concat2(s, ctx);
            let logits = tape.matvec(&self.params, self.wo, cat);
            let gate = tape.matvec(&self.params, self.wg, cat);
            losses.push(tape.copy_nll(logits, alpha, gate, tgt_id as usize, mask));
            prev_id = tgt_id;
        }
        tape.sum_scalars(&losses)
    }

    /// Trains one epoch over `samples` (shuffled), returning mean loss per
    /// target token.
    ///
    /// The shuffle is seeded with `cfg.seed` alone, so every epoch visits
    /// the samples in the same order. Varying it per epoch changes the
    /// trained model; ROADMAP item 8(c)'s precision/recall sweep is what
    /// should judge that.
    ///
    /// Parameters move only between batches, so a batch's samples build
    /// their tapes and node gradients on `rt`'s workers. Their losses and
    /// parameter gradients are then added in sample order
    /// ([`Tape::accumulate_params`]): every gradient element sees the same
    /// additions in the same order as one sample-at-a-time loop, and the
    /// model is the same bits at every thread count.
    pub fn train_epoch(&mut self, samples: &[CopySample], rt: &Runtime) -> f32 {
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        order.shuffle(&mut rng);
        let order: Vec<&CopySample> = order
            .into_iter()
            .map(|i| &samples[i])
            .filter(|s| !s.src.is_empty() && !s.tgt.is_empty())
            .collect();
        let batch_size = match self.cfg.batch_size {
            0 => order.len().max(1),
            b => b,
        };
        let mut total_loss = 0.0f64;
        let mut total_steps = 0usize;
        for batch in order.chunks(batch_size) {
            for window in batch.chunks(TAPE_WINDOW) {
                let tapes = rt.par_tasks(window.len(), |k| {
                    let mut tape = Tape::new();
                    let loss = self.sample_loss(&mut tape, window[k]);
                    tape.backward_nodes(loss, &self.params);
                    (tape, loss)
                });
                for ((tape, loss), sample) in tapes.iter().zip(window) {
                    total_loss += f64::from(tape.value(*loss).get(0, 0));
                    total_steps += sample.tgt.len().min(self.cfg.max_tgt_len) + 1;
                    tape.accumulate_params(*loss, &mut self.params);
                }
            }
            self.params.scale_grads(1.0 / batch.len() as f32);
            self.opt.step(&mut self.params);
        }
        self.refresh_projections();
        (total_loss / total_steps.max(1) as f64) as f32
    }

    // ---- tape-free inference ----

    /// `[W_z·e | W_r·e | W_h·e]` for every vocabulary id's embedding `e`:
    /// the half of a GRU step that depends only on the input token.
    fn input_projections(&self, g: GruParams) -> Matrix {
        let emb = self.params.get(self.emb);
        let h = self.cfg.hidden_dim;
        let mut table = Matrix::zeros(emb.rows, 3 * h);
        for id in 0..emb.rows {
            let row = table.row_mut(id);
            for (k, w) in [g.wz, g.wr, g.wh].into_iter().enumerate() {
                let out = &mut row[k * h..(k + 1) * h];
                self.params.get(w).matvec_into(emb.row(id), out);
            }
        }
        table
    }

    /// Greedy decoding: returns generated target tokens (without EOS).
    pub fn generate(&self, src: &[String]) -> Vec<String> {
        let Some((mut dec, mut s)) = Decoder::encode(self, src) else {
            return Vec::new();
        };
        let mut prev = BOS;
        let mut out = Vec::new();
        for _ in 0..self.cfg.max_tgt_len {
            dec.step(prev, &mut s);
            let Some((best, _)) = dec.best() else {
                break;
            };
            if best == "<eos>" {
                break;
            }
            out.push(best.to_string());
            prev = self.vocab.id(best);
        }
        out
    }
}

/// One encoded source plus every buffer a decode step writes, so a step
/// allocates nothing.
///
/// Output *strings* are scored densely: `scores[id]` per vocabulary word,
/// then one slot per distinct out-of-vocabulary source token in
/// first-occurrence order. A slot holds `(1−g)·p_gen` (vocabulary words
/// only) plus `g·α` of every source position carrying that string, added in
/// source order — what a string-keyed `or_insert(0.0) +=` map would hold.
struct Decoder<'a> {
    net: &'a CopyNet,
    /// Encoder states, `n × hidden` row-major.
    states: Vec<f32>,
    /// Per source position, its slot in `scores`.
    slots: Vec<usize>,
    /// The strings behind `scores[vocab.len()..]`.
    oov: Vec<&'a str>,
    /// GRU scratch: update gate, reset-gated state, candidate.
    gru: [Vec<f32>; 3],
    alpha: Vec<f32>,
    /// `[s; context]`, the output layer's input.
    cat: Vec<f32>,
    scores: Vec<f32>,
}

impl<'a> Decoder<'a> {
    /// Runs the encoder over `src` (truncated to `max_src_len`) and returns
    /// the decoder's initial state; `None` when nothing is left to attend to.
    fn encode(net: &'a CopyNet, src: &'a [String]) -> Option<(Self, Vec<f32>)> {
        let h = net.cfg.hidden_dim;
        let v = net.vocab.len();
        let n = src.len().min(net.cfg.max_src_len);
        if n == 0 {
            return None;
        }
        let mut dec = Decoder {
            net,
            states: Vec::with_capacity(n * h),
            slots: Vec::with_capacity(n),
            oov: Vec::new(),
            gru: [vec![0.0; h], vec![0.0; h], vec![0.0; h]],
            alpha: vec![0.0; n],
            cat: vec![0.0; 2 * h],
            scores: Vec::new(),
        };
        let mut state = vec![0.0; h];
        for tok in &src[..n] {
            let id = net.vocab.id(tok);
            dec.gru_step(net.enc, &net.enc_u, net.enc_x.row(id as usize), &mut state);
            dec.states.extend_from_slice(&state);
            // The generate path never emits PAD/BOS/UNK, so a source token
            // that maps to one of them (an unknown word, or those literal
            // strings) is scored under its own string.
            let slot = if Self::is_scored(id as usize) {
                id as usize
            } else if let Some(k) = dec.oov.iter().position(|o| *o == tok.as_str()) {
                v + k
            } else {
                dec.oov.push(tok.as_str());
                v + dec.oov.len() - 1
            };
            dec.slots.push(slot);
        }
        dec.scores = vec![0.0; v + dec.oov.len()];
        Some((dec, state))
    }

    /// PAD, BOS and UNK are never output strings; every other slot is.
    fn is_scored(slot: usize) -> bool {
        ![PAD, BOS, UNK].contains(&(slot as u32))
    }

    /// One GRU step `h ← GRU(x, h)`, with the input's three projections
    /// `xp` looked up rather than multiplied out and `U_z, U_r, U_h` read
    /// column-major from `u`.
    fn gru_step(&mut self, g: GruParams, u: &[Matrix; 3], xp: &[f32], h: &mut [f32]) {
        let p = &self.net.params;
        let n = h.len();
        let [z, r, c] = &mut self.gru;
        let [uz, ur, uh] = u;
        let (bz, br, bh) = (p.get(g.bz), p.get(g.br), p.get(g.bh));
        uz.matvec_t_into(h, z);
        ur.matvec_t_into(h, r);
        for i in 0..n {
            z[i] = sigmoid(xp[i] + z[i] + bz.data[i]);
            r[i] = sigmoid(xp[n + i] + r[i] + br.data[i]) * h[i];
        }
        uh.matvec_t_into(r, c);
        for i in 0..n {
            let cand = (xp[2 * n + i] + c[i] + bh.data[i]).tanh();
            // h' = z ⊙ h + (1 − z) ⊙ h̃
            h[i] = z[i] * h[i] + (1.0 - z[i]) * cand;
        }
    }

    /// Advances the decoder state `s` past token `prev` and fills `scores`
    /// with the step's combined distribution.
    fn step(&mut self, prev: u32, s: &mut [f32]) {
        let net = self.net;
        let h = s.len();
        self.gru_step(net.dec, &net.dec_u, net.dec_x.row(prev as usize), s);

        for (a, state) in self.alpha.iter_mut().zip(self.states.chunks_exact(h)) {
            *a = state.iter().zip(s.iter()).map(|(a, b)| a * b).sum();
        }
        softmax_in_place(&mut self.alpha);
        let (cat_s, ctx) = self.cat.split_at_mut(h);
        cat_s.copy_from_slice(s);
        ctx.fill(0.0);
        for (state, &a) in self.states.chunks_exact(h).zip(&self.alpha) {
            for (c, x) in ctx.iter_mut().zip(state) {
                *c += x * a;
            }
        }
        let mut gate = [0.0f32];
        net.params.get(net.wg).matvec_into(&self.cat, &mut gate);
        let g = sigmoid(gate[0]);

        let (p_gen, copied) = self.scores.split_at_mut(net.vocab.len());
        net.wo_t.matvec_t_into(&self.cat, p_gen);
        softmax_in_place(p_gen);
        p_gen.iter_mut().for_each(|p| *p *= 1.0 - g);
        copied.fill(0.0);
        for (&slot, &a) in self.slots.iter().zip(&self.alpha) {
            self.scores[slot] += g * a;
        }
    }

    fn token(&self, slot: usize) -> &'a str {
        match slot.checked_sub(self.net.vocab.len()) {
            None => self.net.vocab.word(slot as u32),
            Some(k) => self.oov[k],
        }
    }

    /// The best `(string, probability)` of the last [`Decoder::step`]:
    /// probability descending, then string ascending — exact ties happen
    /// (several unknown source tokens can share an attention weight) and
    /// must resolve the same way on every run.
    fn best(&self) -> Option<(&'a str, f32)> {
        let before = |a: usize, b: usize| {
            self.scores[b]
                .total_cmp(&self.scores[a])
                .then_with(|| self.token(a).cmp(self.token(b)))
                .is_lt()
        };
        (0..self.scores.len())
            .filter(|&s| Self::is_scored(s))
            .reduce(|best, slot| if before(best, slot) { best } else { slot })
            .map(|slot| (self.token(slot), self.scores[slot]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::softmax;
    use proptest::prelude::*;

    /// The inference path as it was before the dense scorer: a fresh
    /// `Matrix` per intermediate, six mat-vecs per GRU step, and a
    /// string-keyed map of the whole vocabulary sorted at every step. Kept
    /// as the reference [`Decoder`] must match bit for bit.
    impl CopyNet {
        fn gru_reference(&self, g: GruParams, x: &Matrix, h: &Matrix) -> Matrix {
            let p = &self.params;
            let mut z = p.get(g.wz).matvec(x);
            z.add_scaled(&p.get(g.uz).matvec(h), 1.0);
            z.add_scaled(p.get(g.bz), 1.0);
            z.data.iter_mut().for_each(|v| *v = sigmoid(*v));
            let mut r = p.get(g.wr).matvec(x);
            r.add_scaled(&p.get(g.ur).matvec(h), 1.0);
            r.add_scaled(p.get(g.br), 1.0);
            r.data.iter_mut().for_each(|v| *v = sigmoid(*v));
            let gated = Matrix::from_fn(h.rows, 1, |i, _| r.data[i] * h.data[i]);
            let mut c = p.get(g.wh).matvec(x);
            c.add_scaled(&p.get(g.uh).matvec(&gated), 1.0);
            c.add_scaled(p.get(g.bh), 1.0);
            c.data.iter_mut().for_each(|v| *v = v.tanh());
            Matrix::from_fn(h.rows, 1, |i, _| {
                z.data[i] * h.data[i] + (1.0 - z.data[i]) * c.data[i]
            })
        }

        fn embed_reference(&self, id: u32) -> Matrix {
            let e = self.params.get(self.emb);
            Matrix::from_fn(e.cols, 1, |r, _| e.get(id as usize, r))
        }

        fn step_distribution(
            &self,
            states: &[Matrix],
            src_tokens: &[&str],
            s: &Matrix,
        ) -> Vec<(String, f32)> {
            let scores: Vec<f32> = states.iter().map(|h| h.dot(s)).collect();
            let alpha = softmax(&scores);
            let mut ctx = Matrix::zero_vec(self.cfg.hidden_dim);
            for (h, &a) in states.iter().zip(&alpha) {
                ctx.add_scaled(h, a);
            }
            let mut cat = Matrix::zero_vec(2 * self.cfg.hidden_dim);
            cat.data[..self.cfg.hidden_dim].copy_from_slice(&s.data);
            cat.data[self.cfg.hidden_dim..].copy_from_slice(&ctx.data);
            let logits = self.params.get(self.wo).matvec(&cat);
            let p_gen = softmax(&logits.data);
            let g = sigmoid(self.params.get(self.wg).matvec(&cat).data[0]);

            let mut dist: std::collections::HashMap<String, f32> = std::collections::HashMap::new();
            for (id, &p) in p_gen.iter().enumerate() {
                if (id as u32) == UNK || (id as u32) == BOS || id == 0 {
                    continue;
                }
                *dist
                    .entry(self.vocab.word(id as u32).to_string())
                    .or_insert(0.0) += (1.0 - g) * p;
            }
            for (tok, &a) in src_tokens.iter().zip(&alpha) {
                *dist.entry((*tok).to_string()).or_insert(0.0) += g * a;
            }
            let mut out: Vec<(String, f32)> = dist.into_iter().collect();
            out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
            out
        }
    }

    /// Source tokens the equivalence test draws from: vocabulary words,
    /// words outside it, and the four special strings spelled out.
    const POOL: [&str; 14] = [
        "是", "著名", "。", "演员", "歌手", "作家", "剑客", "侠客", "刺客", "游侠", "<eos>",
        "<unk>", "<bos>", "<pad>",
    ];

    proptest! {
        /// `best()` is the reference's first entry — same string, same
        /// score bits — at every step of a teacher-free decode, for
        /// sources with repeats, several distinct unknown words and the
        /// special strings. `scale = 0` zeroes the model, so every
        /// attention weight and every vocabulary probability ties exactly
        /// and only the string tie-break orders the result.
        #[test]
        fn best_matches_the_map_and_sort_reference(
            seed in 0u64..1_000,
            scale in 0u32..3,
            picks in proptest::collection::vec(0usize..POOL.len(), 1..12),
        ) {
            let (vocab, samples) = make_samples();
            let mut model = CopyNet::new(vocab, CopyNetConfig { seed, ..tiny_config() });
            model.train_epoch(&samples, &Runtime::serial()); // biases off zero, tables rebuilt
            for id in 0..model.params.len() {
                let m = model.params.get_mut(ParamId(id));
                m.data.iter_mut().for_each(|v| *v *= scale as f32);
            }
            model.refresh_projections();
            let src: Vec<String> = picks.iter().map(|&i| POOL[i].to_string()).collect();
            let src_tokens: Vec<&str> = src
                .iter()
                .take(model.cfg.max_src_len)
                .map(String::as_str)
                .collect();

            let mut h = Matrix::zero_vec(model.cfg.hidden_dim);
            let mut states = Vec::new();
            for tok in &src_tokens {
                let x = model.embed_reference(model.vocab.id(tok));
                h = model.gru_reference(model.enc, &x, &h);
                states.push(h.clone());
            }
            let (mut dec, mut s) = Decoder::encode(&model, &src).unwrap();
            let flat: Vec<f32> = states.iter().flat_map(|m| m.data.clone()).collect();
            prop_assert_eq!(bits(&dec.states), bits(&flat));

            let mut s_ref = h;
            let mut prev = BOS;
            for _ in 0..model.cfg.max_tgt_len {
                dec.step(prev, &mut s);
                s_ref = model.gru_reference(model.dec, &model.embed_reference(prev), &s_ref);
                prop_assert_eq!(bits(&s), bits(&s_ref.data));
                let reference = model.step_distribution(&states, &src_tokens, &s_ref);
                let got = dec.best().map(|(t, p)| (t.to_string(), p.to_bits()));
                let want = reference.first().map(|(t, p)| (t.clone(), p.to_bits()));
                prop_assert_eq!(got, want, "src = {:?}", src);
                prev = model.vocab.id(&reference[0].0);
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A diverged training run leaves NaN parameters; decoding must come
    /// back with *some* answer, not panic inside a pipeline worker.
    #[test]
    fn nan_parameters_do_not_panic_decoding() {
        let (vocab, samples) = make_samples();
        let mut model = CopyNet::new(vocab, tiny_config());
        for id in 0..model.params.len() {
            model.params.get_mut(ParamId(id)).data.fill(f32::NAN);
        }
        model.refresh_projections();
        let _ = model.generate(&samples[0].src);
    }

    #[test]
    fn zero_length_source_window_decodes_to_nothing() {
        let (vocab, samples) = make_samples();
        let cfg = CopyNetConfig {
            max_src_len: 0,
            ..tiny_config()
        };
        let model = CopyNet::new(vocab, cfg);
        assert!(model.generate(&samples[0].src).is_empty());
    }

    fn tiny_config() -> CopyNetConfig {
        CopyNetConfig {
            embed_dim: 16,
            hidden_dim: 24,
            max_src_len: 10,
            max_tgt_len: 3,
            lr: 0.02,
            batch_size: 4,
            seed: 5,
        }
    }

    fn make_samples() -> (Vocab, Vec<CopySample>) {
        // Pattern: "X 是 著名 C 。" → C, for a handful of concepts.
        let concepts = ["演员", "歌手", "作家", "医生", "画家"];
        let subjects = ["甲", "乙", "丙", "丁", "戊", "己", "庚", "辛"];
        let mut counts: Vec<(String, u64)> = Vec::new();
        for w in ["是", "著名", "。"].iter().chain(concepts.iter()) {
            counts.push(((*w).to_string(), 100));
        }
        let vocab = Vocab::build(counts, 64);
        let mut samples = Vec::new();
        for (i, subj) in subjects.iter().enumerate() {
            let c = concepts[i % concepts.len()];
            samples.push(CopySample {
                src: vec![
                    (*subj).to_string(),
                    "是".to_string(),
                    "著名".to_string(),
                    c.to_string(),
                    "。".to_string(),
                ],
                tgt: vec![c.to_string()],
            });
        }
        (vocab, samples)
    }

    /// `make_samples` plus two more pairs (ten trainable, so no batch size
    /// below divides them evenly), one sample with an empty source and one
    /// with an empty target.
    fn pin_samples() -> (Vocab, Vec<CopySample>) {
        let (vocab, mut samples) = make_samples();
        let words = |ws: &[&str]| ws.iter().map(|w| (*w).to_string()).collect::<Vec<_>>();
        samples.push(CopySample {
            src: words(&["壬", "是", "著名", "剑客", "。"]),
            tgt: words(&["剑客"]),
        });
        samples.push(CopySample {
            src: words(&["癸", "是", "演员", "。"]),
            tgt: words(&["演员"]),
        });
        samples.insert(
            3,
            CopySample {
                src: Vec::new(),
                tgt: words(&["歌手"]),
            },
        );
        samples.insert(
            7,
            CopySample {
                src: words(&["子", "是"]),
                tgt: Vec::new(),
            },
        );
        (vocab, samples)
    }

    /// FNV-1a over every parameter's bits after three epochs at
    /// `batch_size` on `rt`, then every epoch's loss bits.
    fn training_fingerprint(batch_size: usize, rt: &Runtime) -> u64 {
        let (vocab, samples) = pin_samples();
        let mut model = CopyNet::new(
            vocab,
            CopyNetConfig {
                batch_size,
                ..tiny_config()
            },
        );
        let losses: Vec<f32> = (0..3).map(|_| model.train_epoch(&samples, rt)).collect();
        let params =
            (0..model.params.len()).flat_map(|i| model.params.get(ParamId(i)).data.clone());
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in params.chain(losses).flat_map(|v| v.to_bits().to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Training is pinned to the bit at 1, 2 and 8 threads: per-sample
    /// tapes, gradient sums and Adam steps keep their order whatever runs
    /// them. `batch_size: 0` is one batch per epoch, the same as a batch
    /// larger than the epoch.
    #[test]
    fn training_is_pinned_bit_for_bit() {
        const PINS: [(usize, u64); 4] = [
            (1, 0xfb6d_e2ac_bc75_5c04),
            (3, 0x344e_c31b_927e_65a1),
            (8, 0x720a_302f_a1c6_347c),
            (0, 0xc1ef_2527_d763_3e2d),
        ];
        for rt in [Runtime::serial(), Runtime::new(2), Runtime::new(8)] {
            let threads = rt.threads();
            for (batch_size, want) in PINS {
                let got = training_fingerprint(batch_size, &rt);
                assert_eq!(
                    got, want,
                    "batch_size {batch_size}, {threads} threads: {got:#x}"
                );
            }
            assert_eq!(training_fingerprint(usize::MAX, &rt), PINS[3].1);
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (vocab, samples) = make_samples();
        let mut model = CopyNet::new(vocab, tiny_config());
        let first = model.train_epoch(&samples, &Runtime::serial());
        let mut last = first;
        for _ in 0..30 {
            last = model.train_epoch(&samples, &Runtime::serial());
        }
        assert!(
            last < first * 0.5,
            "loss did not halve: first {first}, last {last}"
        );
    }

    #[test]
    fn learns_to_extract_concept() {
        let (vocab, samples) = make_samples();
        let mut model = CopyNet::new(vocab, tiny_config());
        for _ in 0..60 {
            model.train_epoch(&samples, &Runtime::serial());
        }
        let mut correct = 0;
        for s in &samples {
            let out = model.generate(&s.src);
            if out.first().map(String::as_str) == Some(s.tgt[0].as_str()) {
                correct += 1;
            }
        }
        assert!(
            correct >= samples.len() - 1,
            "only {correct}/{} training samples recovered",
            samples.len()
        );
    }

    #[test]
    fn copies_oov_concept_from_source() {
        // Target word 剑客 is NOT in the vocabulary: only the copy path can
        // produce it. Train on pattern where the concept follows 著名.
        let (vocab, mut samples) = make_samples();
        assert_eq!(vocab.id("剑客"), UNK);
        // Several OOV-target samples to make the gate learn to copy.
        for subj in ["壬", "癸", "子", "丑"] {
            samples.push(CopySample {
                src: vec![
                    subj.to_string(),
                    "是".to_string(),
                    "著名".to_string(),
                    "剑客".to_string(),
                    "。".to_string(),
                ],
                tgt: vec!["剑客".to_string()],
            });
        }
        let mut model = CopyNet::new(vocab, tiny_config());
        for _ in 0..80 {
            model.train_epoch(&samples, &Runtime::serial());
        }
        let out = model.generate(&[
            "寅".to_string(),
            "是".to_string(),
            "著名".to_string(),
            "剑客".to_string(),
            "。".to_string(),
        ]);
        assert_eq!(out.first().map(String::as_str), Some("剑客"));
    }

    #[test]
    fn empty_source_yields_empty_output() {
        let (vocab, _) = make_samples();
        let model = CopyNet::new(vocab, tiny_config());
        assert!(model.generate(&[]).is_empty());
    }

    #[test]
    fn parameter_count_is_reported() {
        let (vocab, _) = make_samples();
        let model = CopyNet::new(vocab, tiny_config());
        assert!(model.num_parameters() > 1000);
    }
}
