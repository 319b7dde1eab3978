//! Reference mini-transformer and proxy-perplexity evaluation.
//!
//! The paper reports end-to-end perplexity / loss of real checkpoints under
//! each nonlinear approximation (Figure 6) and the per-layer tuning curve
//! (Figure 7). Real checkpoints and GPUs are not available in this
//! reproduction, so this module provides the documented substitute: a small,
//! deterministic pure-Rust transformer whose nonlinear operations can be
//! swapped between the exact reference and any approximation, evaluated by a
//! cross-entropy "proxy perplexity" on synthetic sequences.
//!
//! What the substitution preserves: the relative ranking of approximation
//! methods is driven by *where* their error lands relative to the input
//! density, which is exactly what this pipeline measures. Absolute
//! perplexities are not comparable to the paper's.

use crate::models::ModelId;
use mugi_numerics::error::perplexity_from_nats;
use mugi_numerics::exec::ExecutionContext;
use mugi_numerics::nonlinear::{softmax, NonlinearOp};
use mugi_numerics::tensor::{pseudo_random_matrix, Matrix};
use std::borrow::Borrow;

/// How a nonlinear op is evaluated inside the reference model.
pub trait NonlinearBackend {
    /// Element-wise activation (SiLU or GELU depending on the model family).
    fn activation(&self, op: NonlinearOp, values: &[f32]) -> Vec<f32>;
    /// Row-wise softmax over `cols`-wide rows.
    fn softmax_rows(&self, data: &[f32], cols: usize) -> Vec<f32>;
    /// Label for reports.
    fn label(&self) -> String;
}

/// The exact (software) backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactBackend;

impl NonlinearBackend for ExactBackend {
    fn activation(&self, op: NonlinearOp, values: &[f32]) -> Vec<f32> {
        values.iter().map(|&x| op.eval(x)).collect()
    }

    fn softmax_rows(&self, data: &[f32], cols: usize) -> Vec<f32> {
        mugi_numerics::nonlinear::softmax_rows(data, cols)
    }

    fn label(&self) -> String {
        "exact".to_string()
    }
}

/// Configuration of the reference mini-transformer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReferenceConfig {
    /// Number of transformer layers.
    pub layers: usize,
    /// Hidden dimension.
    pub hidden_dim: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// FFN dimension.
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length of the evaluation sequences.
    pub seq_len: usize,
    /// Which FFN activation to use.
    pub activation_is_silu: bool,
    /// Seed for the deterministic weights.
    pub seed: u64,
}

impl ReferenceConfig {
    /// A small configuration that keeps evaluation fast while exercising every
    /// code path (multi-head attention, gated FFN, softmax, LM head).
    pub fn small(seed: u64) -> Self {
        ReferenceConfig {
            layers: 2,
            hidden_dim: 32,
            heads: 4,
            ffn_dim: 64,
            vocab: 128,
            seq_len: 24,
            activation_is_silu: true,
            seed,
        }
    }

    /// A configuration whose proportions mimic a scaled-down version of
    /// `model` (layer count capped for tractability).
    pub fn scaled_from(model: ModelId, seed: u64) -> Self {
        let cfg = model.config();
        ReferenceConfig {
            layers: cfg.layers.min(4),
            hidden_dim: 48,
            heads: 4,
            ffn_dim: 96,
            vocab: 128,
            seq_len: 32,
            activation_is_silu: cfg.ffn_activation() == NonlinearOp::Silu,
            seed,
        }
    }

    fn head_dim(&self) -> usize {
        self.hidden_dim / self.heads
    }
}

/// Per-layer weights of the reference transformer.
#[derive(Clone, Debug)]
struct LayerWeights {
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    wo: Matrix,
    w_up: Matrix,
    w_gate: Matrix,
    w_down: Matrix,
}

/// The reference mini-transformer.
#[derive(Clone, Debug)]
pub struct ReferenceModel {
    config: ReferenceConfig,
    embedding: Matrix,
    layers: Vec<LayerWeights>,
    lm_head: Matrix,
}

impl ReferenceModel {
    /// Builds the model with deterministic pseudo-random weights.
    ///
    /// # Panics
    /// Panics if the hidden dimension is not divisible by the head count.
    pub fn new(config: ReferenceConfig) -> Self {
        assert_eq!(config.hidden_dim % config.heads, 0, "hidden_dim must be divisible by heads");
        let d = config.hidden_dim;
        let scale = 1.0 / (d as f32).sqrt();
        let s = config.seed;
        let layers = (0..config.layers)
            .map(|l| {
                let base = s.wrapping_add(1000 * (l as u64 + 1));
                LayerWeights {
                    wq: pseudo_random_matrix(d, d, base + 1, scale),
                    wk: pseudo_random_matrix(d, d, base + 2, scale),
                    wv: pseudo_random_matrix(d, d, base + 3, scale),
                    wo: pseudo_random_matrix(d, d, base + 4, scale),
                    w_up: pseudo_random_matrix(d, config.ffn_dim, base + 5, scale),
                    w_gate: pseudo_random_matrix(d, config.ffn_dim, base + 6, scale),
                    w_down: pseudo_random_matrix(config.ffn_dim, d, base + 7, scale),
                }
            })
            .collect();
        ReferenceModel {
            config,
            embedding: pseudo_random_matrix(config.vocab, d, s + 11, 1.0),
            layers,
            lm_head: pseudo_random_matrix(d, config.vocab, s + 13, scale),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ReferenceConfig {
        &self.config
    }

    /// Runs the model over a token sequence and returns the next-token logits
    /// for every position (a `seq_len × vocab` matrix): [`embed`](Self::embed),
    /// every [`layer`](Self::layer) in order, then [`logits`](Self::logits).
    ///
    /// # Panics
    /// Panics if a token id is out of the vocabulary.
    pub fn forward<B: NonlinearBackend>(&self, tokens: &[usize], backend: &B) -> Matrix {
        let mut hidden = self.embed(tokens);
        for j in 0..self.config.layers {
            hidden = self.layer(j, &hidden, backend);
        }
        self.logits(&hidden)
    }

    /// The hidden state layer 0 reads: one embedding row per token (a
    /// `tokens.len() × hidden_dim` matrix).
    ///
    /// # Panics
    /// Panics if a token id is out of the vocabulary.
    pub fn embed(&self, tokens: &[usize]) -> Matrix {
        Matrix::from_fn(tokens.len(), self.config.hidden_dim, |r, c| {
            let token = tokens[r];
            assert!(token < self.config.vocab, "token {token} out of vocabulary");
            self.embedding[(token, c)]
        })
    }

    /// Runs transformer layer `j` (causal multi-head attention, then the
    /// gated FFN, each with a residual and RMS norm) over the hidden state
    /// `hidden` and returns the next one. `backend` evaluates this layer's
    /// softmax (once per head) and activation (once). Running layers
    /// `0..layers` in order from [`embed`](Self::embed) is the forward pass,
    /// so a caller may keep the state after layer `j` and resume from it.
    ///
    /// # Panics
    /// Panics if `j` is not a layer index or `hidden` is not `hidden_dim`
    /// wide.
    pub fn layer<B: NonlinearBackend>(&self, j: usize, hidden: &Matrix, backend: &B) -> Matrix {
        let layer = &self.layers[j];
        let d = self.config.hidden_dim;
        let n = hidden.rows();
        let act_op =
            if self.config.activation_is_silu { NonlinearOp::Silu } else { NonlinearOp::Gelu };
        // --- Attention ----------------------------------------------------
        let q = hidden.matmul(&layer.wq);
        let k = hidden.matmul(&layer.wk);
        let v = hidden.matmul(&layer.wv);
        let head_dim = self.config.head_dim();
        let scale = 1.0 / (head_dim as f32).sqrt();
        // Causal scores: only `c <= r` is ever written, so the masked
        // entries keep their −∞ from head to head.
        let mut scores = vec![f32::NEG_INFINITY; n * n];
        let mut attn_out = Matrix::zeros(n, d);
        for h in 0..self.config.heads {
            let cols = h * head_dim..(h + 1) * head_dim;
            // Each score is a dot product over the head's columns, summed in
            // `Matrix::matmul`'s order (from 0.0, ascending, skipping
            // `q == 0`) and then scaled, so it has a GEMM's bits.
            for r in 0..n {
                let qr = &q.row(r)[cols.clone()];
                for (c, score) in scores[r * n..=r * n + r].iter_mut().enumerate() {
                    let mut dot = 0.0f32;
                    for (&qv, &kv) in qr.iter().zip(&k.row(c)[cols.clone()]) {
                        if qv != 0.0 {
                            dot += qv * kv;
                        }
                    }
                    *score = dot * scale;
                }
            }
            let probs = backend.softmax_rows(&scores, n);
            // P·V straight into this head's columns of `attn_out`, again in
            // `matmul`'s order (ascending `c`, skipping `p == 0`). An
            // approximate softmax may leave weight on masked positions, so
            // every `c` is visited.
            for (r, p_row) in probs.chunks_exact(n).enumerate() {
                let dst = &mut attn_out.data_mut()[r * d..(r + 1) * d][cols.clone()];
                for (c, &p) in p_row.iter().enumerate() {
                    if p == 0.0 {
                        continue;
                    }
                    for (o, &vv) in dst.iter_mut().zip(&v.row(c)[cols.clone()]) {
                        *o += p * vv;
                    }
                }
            }
        }
        let attn_proj = attn_out.matmul(&layer.wo);
        let hidden = rms_norm(&hidden.add(&attn_proj));
        // --- FFN (gated) --------------------------------------------------
        let up = hidden.matmul(&layer.w_up);
        let gate = hidden.matmul(&layer.w_gate);
        let activated =
            Matrix::from_vec(up.rows(), up.cols(), backend.activation(act_op, gate.data()));
        let ffn = activated.hadamard(&up).matmul(&layer.w_down);
        rms_norm(&hidden.add(&ffn))
    }

    /// The LM head: next-token logits (a `rows × vocab` matrix) of the
    /// hidden state after the last layer.
    pub fn logits(&self, hidden: &Matrix) -> Matrix {
        hidden.matmul(&self.lm_head)
    }

    /// The exact next-token targets of the first `sequences` synthetic
    /// sequences: one exact forward per sequence, softmaxed per position.
    /// Build them once and score every backend against them. The forwards
    /// run on every core; each depends only on its sequence, so the targets
    /// are the same at any core count.
    pub fn proxy_targets(&self, sequences: usize) -> ProxyTargets {
        let vocab = self.config.vocab;
        let indices: Vec<u64> = (0..sequences as u64).collect();
        let sequences = ExecutionContext::host_parallel().map(&indices, |&s| {
            let tokens = self.synthetic_sequence(s);
            let exact_logits = self.forward(&tokens, &ExactBackend);
            let positions = tokens.len().saturating_sub(1);
            let mut data = Vec::with_capacity(positions * vocab);
            for pos in 0..positions {
                data.extend(softmax(exact_logits.row(pos)));
            }
            SequenceTargets { tokens, targets: Matrix::from_vec(positions, vocab, data) }
        });
        ProxyTargets { config: self.config, sequences }
    }

    /// Average next-token cross-entropy (nats) of the model under `backend`
    /// over the sequences of `targets`. The *target* distribution at every
    /// position is the exact backend's softmax output, so the metric is
    /// `H(p_exact, q_backend)`; by Gibbs' inequality the exact backend is the
    /// floor and any approximation can only increase the proxy perplexity —
    /// the mechanism behind Figure 6.
    ///
    /// # Panics
    /// Panics if `targets` was built by a model with another configuration.
    pub fn proxy_cross_entropy<B: NonlinearBackend>(
        &self,
        backend: &B,
        targets: &ProxyTargets,
    ) -> f32 {
        self.proxy_cross_entropy_of(targets, |_, tokens| self.forward(tokens, backend))
    }

    /// [`proxy_cross_entropy`](Self::proxy_cross_entropy) of logits the
    /// caller supplies: `logits_of(s, tokens)` returns the logits of
    /// sequence `s` of `targets` (whose tokens are `tokens`), owned or
    /// borrowed. It is called once per sequence, in order, and the f64 sum
    /// over sequences, positions and vocabulary keeps the order of
    /// `proxy_cross_entropy`, so equal logits give the same bits. This lets
    /// a caller that runs [`embed`](Self::embed), [`layer`](Self::layer) and
    /// [`logits`](Self::logits) itself reuse a shared prefix of the forward.
    ///
    /// # Panics
    /// Panics if `targets` was built by a model with another configuration.
    pub fn proxy_cross_entropy_of<M: Borrow<Matrix>>(
        &self,
        targets: &ProxyTargets,
        mut logits_of: impl FnMut(usize, &[usize]) -> M,
    ) -> f32 {
        assert_eq!(targets.config, self.config, "proxy targets belong to another model");
        let mut total = 0.0f64;
        let mut count = 0usize;
        for (s, seq) in targets.sequences.iter().enumerate() {
            let logits = logits_of(s, &seq.tokens);
            let logits = logits.borrow();
            for pos in 0..seq.targets.rows() {
                subtract_nats(&mut total, seq.targets.row(pos), &softmax(logits.row(pos)));
                count += 1;
            }
        }
        mean_nats(total, count)
    }

    /// Proxy perplexity (exp of the proxy cross-entropy).
    pub fn proxy_perplexity<B: NonlinearBackend>(
        &self,
        backend: &B,
        targets: &ProxyTargets,
    ) -> f32 {
        perplexity_from_nats(self.proxy_cross_entropy(backend, targets))
    }

    /// Deterministic synthetic token sequence.
    pub fn synthetic_sequence(&self, seed: u64) -> Vec<usize> {
        let mut state = self
            .config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seed.wrapping_mul(0xD1B5_4A32_D192_ED03))
            | 1;
        (0..self.config.seq_len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % self.config.vocab
            })
            .collect()
    }
}

/// Exact next-token targets for proxy scoring, built by
/// [`ReferenceModel::proxy_targets`].
#[derive(Clone, Debug)]
pub struct ProxyTargets {
    config: ReferenceConfig,
    sequences: Vec<SequenceTargets>,
}

impl ProxyTargets {
    /// The token sequences scored, in order.
    pub fn tokens(&self) -> impl ExactSizeIterator<Item = &[usize]> {
        self.sequences.iter().map(|seq| seq.tokens.as_slice())
    }

    /// The proxy cross-entropy of the exact backend, without running it:
    /// −Σ t·ln(max(t, 1e-9)) over the stored targets, summed in
    /// [`ReferenceModel::proxy_cross_entropy_of`]'s order. The targets are
    /// the `softmax` of the exact forward's logits, which is what that
    /// scorer would compute again, so the result has the same bits as
    /// `proxy_cross_entropy(&ExactBackend, self)`.
    pub fn exact_cross_entropy(&self) -> f32 {
        let mut total = 0.0f64;
        let mut count = 0usize;
        for seq in &self.sequences {
            for pos in 0..seq.targets.rows() {
                let targets = seq.targets.row(pos);
                subtract_nats(&mut total, targets, targets);
                count += 1;
            }
        }
        mean_nats(total, count)
    }
}

/// Subtracts one position's t·ln(max(q, 1e-9)) terms from `total`, in
/// vocabulary order, skipping zero targets.
fn subtract_nats(total: &mut f64, targets: &[f32], probs: &[f32]) {
    for (t, q) in targets.iter().zip(probs) {
        if *t > 0.0 {
            *total -= *t as f64 * (q.max(1e-9) as f64).ln();
        }
    }
}

/// The mean cross-entropy per position (0 with no positions).
fn mean_nats(total: f64, count: usize) -> f32 {
    if count == 0 {
        0.0
    } else {
        (total / count as f64) as f32
    }
}

/// One sequence's tokens and the exact softmax at each of its positions but
/// the last (a `(seq_len - 1) × vocab` matrix).
#[derive(Clone, Debug)]
struct SequenceTargets {
    tokens: Vec<usize>,
    targets: Matrix,
}

/// RMS normalisation (as used by Llama-family models), applied row-wise.
fn rms_norm(m: &Matrix) -> Matrix {
    let cols = m.cols();
    let mut out = m.clone();
    for r in 0..m.rows() {
        let row = m.row(r);
        let rms = (row.iter().map(|x| x * x).sum::<f32>() / cols as f32).sqrt().max(1e-6);
        for c in 0..cols {
            out[(r, c)] = m[(r, c)] / rms;
        }
    }
    out
}

/// A backend that uses closures for the two nonlinear hooks; the facade crate
/// uses it to plug VLP / PWL / Taylor approximations into the reference model
/// without `mugi-workloads` depending on those crates' types directly.
pub struct HookedBackend<A, S>
where
    A: Fn(NonlinearOp, &[f32]) -> Vec<f32>,
    S: Fn(&[f32], usize) -> Vec<f32>,
{
    activation_hook: A,
    softmax_hook: S,
    name: String,
}

impl<A, S> HookedBackend<A, S>
where
    A: Fn(NonlinearOp, &[f32]) -> Vec<f32>,
    S: Fn(&[f32], usize) -> Vec<f32>,
{
    /// Creates a backend from an activation hook and a softmax hook.
    pub fn new(name: impl Into<String>, activation_hook: A, softmax_hook: S) -> Self {
        HookedBackend { activation_hook, softmax_hook, name: name.into() }
    }
}

impl<A, S> NonlinearBackend for HookedBackend<A, S>
where
    A: Fn(NonlinearOp, &[f32]) -> Vec<f32>,
    S: Fn(&[f32], usize) -> Vec<f32>,
{
    fn activation(&self, op: NonlinearOp, values: &[f32]) -> Vec<f32> {
        (self.activation_hook)(op, values)
    }

    fn softmax_rows(&self, data: &[f32], cols: usize) -> Vec<f32> {
        (self.softmax_hook)(data, cols)
    }

    fn label(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mugi_approx::pwl::PwlConfig;
    use mugi_approx::taylor::TaylorConfig;
    use mugi_approx::{Approximator, PiecewiseLinear, TaylorSeries};
    use mugi_vlp::approx::{VlpApproxConfig, VlpNonlinear, WindowStrategy};

    #[test]
    fn forward_produces_finite_logits() {
        let model = ReferenceModel::new(ReferenceConfig::small(1));
        let tokens = model.synthetic_sequence(0);
        let logits = model.forward(&tokens, &ExactBackend);
        assert_eq!(logits.rows(), tokens.len());
        assert_eq!(logits.cols(), model.config().vocab);
        assert!(logits.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn exact_backend_achieves_floor_perplexity() {
        let model = ReferenceModel::new(ReferenceConfig::small(2));
        let targets = model.proxy_targets(2);
        let exact_ppl = model.proxy_perplexity(&ExactBackend, &targets);
        // By construction the targets are the exact backend's own argmax, so
        // the exact perplexity is small (peaked softmax) and any perturbation
        // can only increase it.
        let noisy = HookedBackend::new(
            "noisy",
            |op, xs: &[f32]| xs.iter().map(|&x| op.eval(x) + 0.25).collect(),
            |data, cols| {
                mugi_numerics::nonlinear::softmax_rows(data, cols)
                    .iter()
                    .map(|&p| (p + 0.01) / 1.0)
                    .collect()
            },
        );
        let noisy_ppl = model.proxy_perplexity(&noisy, &targets);
        assert!(exact_ppl <= noisy_ppl + 1e-3, "exact {exact_ppl} noisy {noisy_ppl}");
        assert!(exact_ppl >= 1.0);
    }

    #[test]
    fn vlp_backend_stays_close_to_exact() {
        let model = ReferenceModel::new(ReferenceConfig::small(3));
        let sm_engine = VlpNonlinear::new(
            NonlinearOp::Softmax,
            VlpApproxConfig::recommended_for(NonlinearOp::Softmax),
        );
        let silu_engine = VlpNonlinear::new(
            NonlinearOp::Silu,
            VlpApproxConfig::recommended_for(NonlinearOp::Silu),
        );
        let gelu_engine = VlpNonlinear::new(
            NonlinearOp::Gelu,
            VlpApproxConfig::recommended_for(NonlinearOp::Gelu),
        );
        let vlp = HookedBackend::new(
            "vlp",
            move |op, xs: &[f32]| match op {
                NonlinearOp::Silu => silu_engine.apply(xs).0,
                NonlinearOp::Gelu => gelu_engine.apply(xs).0,
                _ => xs.iter().map(|&x| op.eval(x)).collect(),
            },
            move |data, cols| sm_engine.softmax_rows(data, cols).0,
        );
        let targets = model.proxy_targets(2);
        let exact_ppl = model.proxy_perplexity(&ExactBackend, &targets);
        let vlp_ppl = model.proxy_perplexity(&vlp, &targets);
        assert!(vlp_ppl >= exact_ppl - 1e-3);
        // VLP approximation should not blow the proxy perplexity up by more
        // than ~2x on this small model.
        assert!(vlp_ppl < exact_ppl * 2.0 + 1.0, "exact {exact_ppl} vlp {vlp_ppl}");
    }

    /// Scores `backend` the direct way: both forwards of every sequence,
    /// back to back, with the exact targets recomputed inline.
    fn inline_cross_entropy<B: NonlinearBackend>(
        model: &ReferenceModel,
        backend: &B,
        sequences: usize,
    ) -> f32 {
        let mut total = 0.0f64;
        let mut count = 0usize;
        for s in 0..sequences {
            let tokens = model.synthetic_sequence(s as u64);
            let exact_logits = model.forward(&tokens, &ExactBackend);
            let logits = model.forward(&tokens, backend);
            for pos in 0..tokens.len() - 1 {
                let target = softmax(exact_logits.row(pos));
                let probs = softmax(logits.row(pos));
                for (t, q) in target.iter().zip(&probs) {
                    if *t > 0.0 {
                        total -= *t as f64 * (q.max(1e-9) as f64).ln();
                    }
                }
                count += 1;
            }
        }
        (total / count as f64) as f32
    }

    #[test]
    fn precomputed_targets_score_bit_identically_to_inline_recompute() {
        let model = ReferenceModel::new(ReferenceConfig::small(9));
        let noisy = HookedBackend::new(
            "noisy",
            |op, xs: &[f32]| xs.iter().map(|&x| op.eval(x) * 1.1 - 0.05).collect(),
            |data, cols| {
                mugi_numerics::nonlinear::softmax_rows(data, cols)
                    .iter()
                    .map(|&p| (p + 0.02) / 1.5)
                    .collect()
            },
        );
        for sequences in [2, 3] {
            let targets = model.proxy_targets(sequences);
            let exact = model.proxy_cross_entropy(&ExactBackend, &targets);
            let inline_exact = inline_cross_entropy(&model, &ExactBackend, sequences);
            assert_eq!(exact.to_bits(), inline_exact.to_bits(), "{sequences} sequences");
            let scored = model.proxy_cross_entropy(&noisy, &targets);
            let inline = inline_cross_entropy(&model, &noisy, sequences);
            assert_eq!(scored.to_bits(), inline.to_bits(), "{sequences} sequences");
            assert!(scored > exact, "noise must raise the cross-entropy");
            // Scoring twice against the same targets repeats the result.
            assert_eq!(model.proxy_cross_entropy(&noisy, &targets).to_bits(), scored.to_bits());
        }
    }

    #[test]
    fn stepwise_borrowed_logits_score_bit_identically_to_forward() {
        let model = ReferenceModel::new(ReferenceConfig { layers: 3, ..ReferenceConfig::small(4) });
        let noisy = HookedBackend::new(
            "noisy",
            |op, xs: &[f32]| xs.iter().map(|&x| op.eval(x) * 0.9 + 0.03).collect(),
            |data, cols| {
                mugi_numerics::nonlinear::softmax_rows(data, cols)
                    .iter()
                    .map(|&p| (p + 0.01) / 1.2)
                    .collect()
            },
        );
        // Every sequence's logits run step by step, held by the caller and
        // lent to the scorer.
        fn stepwise<B: NonlinearBackend>(
            model: &ReferenceModel,
            targets: &ProxyTargets,
            backend: &B,
        ) -> Vec<Matrix> {
            targets
                .tokens()
                .map(|tokens| {
                    let mut hidden = model.embed(tokens);
                    for j in 0..model.config().layers {
                        hidden = model.layer(j, &hidden, backend);
                    }
                    model.logits(&hidden)
                })
                .collect()
        }
        for sequences in [2, 3] {
            let targets = model.proxy_targets(sequences);
            assert_eq!(targets.tokens().len(), sequences);
            let exact = stepwise(&model, &targets, &ExactBackend);
            let of_exact = model.proxy_cross_entropy_of(&targets, |s, _| &exact[s]);
            let whole = model.proxy_cross_entropy(&ExactBackend, &targets);
            assert_eq!(of_exact.to_bits(), whole.to_bits(), "{sequences} sequences");
            let noised = stepwise(&model, &targets, &noisy);
            let of_noisy = model.proxy_cross_entropy_of(&targets, |s, _| &noised[s]);
            let whole = model.proxy_cross_entropy(&noisy, &targets);
            assert_eq!(of_noisy.to_bits(), whole.to_bits(), "{sequences} sequences");
            assert!(of_noisy > of_exact, "noise must raise the cross-entropy");
        }
    }

    /// `ReferenceModel::layer` with the per-head attention it used to run:
    /// copy each head's columns out, score them with `matmul` against the
    /// transposed keys, mask, softmax, `matmul` the probabilities with the
    /// values and copy the result back.
    fn layer_with_copied_heads<B: NonlinearBackend>(
        model: &ReferenceModel,
        j: usize,
        hidden: &Matrix,
        backend: &B,
    ) -> Matrix {
        let layer = &model.layers[j];
        let d = model.config.hidden_dim;
        let n = hidden.rows();
        let act_op =
            if model.config.activation_is_silu { NonlinearOp::Silu } else { NonlinearOp::Gelu };
        let q = hidden.matmul(&layer.wq);
        let k = hidden.matmul(&layer.wk);
        let v = hidden.matmul(&layer.wv);
        let head_dim = model.config.head_dim();
        let mut attn_out = Matrix::zeros(n, d);
        for h in 0..model.config.heads {
            let col0 = h * head_dim;
            let slice_cols = |m: &Matrix| Matrix::from_fn(n, head_dim, |r, c| m[(r, col0 + c)]);
            let qh = slice_cols(&q);
            let kh = slice_cols(&k);
            let vh = slice_cols(&v);
            let mut scores = qh.matmul(&kh.transpose()).scale(1.0 / (head_dim as f32).sqrt());
            for r in 0..n {
                for c in (r + 1)..n {
                    scores[(r, c)] = f32::NEG_INFINITY;
                }
            }
            let probs_flat = backend.softmax_rows(scores.data(), n);
            let probs = Matrix::from_vec(n, n, probs_flat);
            let out = probs.matmul(&vh);
            for r in 0..n {
                for c in 0..head_dim {
                    attn_out[(r, col0 + c)] = out[(r, c)];
                }
            }
        }
        let attn_proj = attn_out.matmul(&layer.wo);
        let hidden = rms_norm(&hidden.add(&attn_proj));
        let up = hidden.matmul(&layer.w_up);
        let gate = hidden.matmul(&layer.w_gate);
        let activated =
            Matrix::from_vec(up.rows(), up.cols(), backend.activation(act_op, gate.data()));
        let ffn = activated.hadamard(&up).matmul(&layer.w_down);
        rms_norm(&hidden.add(&ffn))
    }

    /// Runs every layer of every sequence in `tokens` under `backend` and
    /// asserts that `layer` returns the copied-heads oracle's bits.
    fn assert_layers_match_copied_heads<'t, B: NonlinearBackend>(
        model: &ReferenceModel,
        tokens: impl Iterator<Item = &'t [usize]>,
        backend: &B,
    ) {
        for (s, tokens) in tokens.enumerate() {
            let mut hidden = model.embed(tokens);
            for j in 0..model.config.layers {
                let got = model.layer(j, &hidden, backend);
                let want = layer_with_copied_heads(model, j, &hidden, backend);
                for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{} sequence {s} layer {j} element {i}: {x} vs {y}",
                        backend.label()
                    );
                }
                hidden = got;
            }
        }
    }

    fn vlp(strategy: WindowStrategy) -> impl NonlinearBackend {
        let config = |op| VlpApproxConfig { strategy, ..VlpApproxConfig::recommended_for(op) };
        let sm = VlpNonlinear::new(NonlinearOp::Softmax, config(NonlinearOp::Softmax));
        let silu = VlpNonlinear::new(NonlinearOp::Silu, config(NonlinearOp::Silu));
        let gelu = VlpNonlinear::new(NonlinearOp::Gelu, config(NonlinearOp::Gelu));
        HookedBackend::new(
            format!("VLP {strategy:?}"),
            move |op, xs: &[f32]| match op {
                NonlinearOp::Silu => silu.apply(xs).0,
                NonlinearOp::Gelu => gelu.apply(xs).0,
                _ => xs.iter().map(|&x| op.eval(x)).collect(),
            },
            move |data, cols| sm.softmax_rows(data, cols).0,
        )
    }

    /// A backend built from `mugi-approx` approximators, as Figure 6 plugs
    /// in PWL and Taylor.
    fn approximators<A: Approximator>(
        name: &str,
        softmax: A,
        silu: A,
        gelu: A,
    ) -> impl NonlinearBackend {
        HookedBackend::new(
            name,
            move |op, xs: &[f32]| match op {
                NonlinearOp::Silu => silu.eval_slice(xs),
                NonlinearOp::Gelu => gelu.eval_slice(xs),
                _ => xs.iter().map(|&x| op.eval(x)).collect(),
            },
            move |data, cols| data.chunks(cols).flat_map(|row| softmax.softmax(row)).collect(),
        )
    }

    fn pwl(segment_range: f32) -> impl NonlinearBackend {
        let pwl = |op| PiecewiseLinear::new(op, PwlConfig { segments: 22, segment_range });
        approximators(
            &format!("PWL range {segment_range}"),
            pwl(NonlinearOp::Softmax),
            pwl(NonlinearOp::Silu),
            pwl(NonlinearOp::Gelu),
        )
    }

    fn taylor(degree: usize, center: f32) -> impl NonlinearBackend {
        let at = |op, center| TaylorSeries::new(op, TaylorConfig { degree, center });
        approximators(
            &format!("Taylor degree {degree} center {center}"),
            at(NonlinearOp::Exp, center),
            at(NonlinearOp::Silu, 0.0),
            at(NonlinearOp::Gelu, 0.0),
        )
    }

    #[test]
    fn copy_free_attention_matches_copied_heads_bit_for_bit() {
        // Leaves weight on the masked positions, so P·V must visit them.
        let leaky = HookedBackend::new(
            "leaky",
            |op, xs: &[f32]| xs.iter().map(|&x| op.eval(x)).collect(),
            |data, cols| {
                mugi_numerics::nonlinear::softmax_rows(data, cols)
                    .iter()
                    .map(|&p| (p + 0.01) / 1.2)
                    .collect()
            },
        );
        for seed in [1, 2, 3] {
            for config in [
                ReferenceConfig::small(seed),
                ReferenceConfig::scaled_from(ModelId::Llama2_7b, seed),
            ] {
                let mut model = ReferenceModel::new(config);
                if seed == 3 {
                    // A zero query column: every score skips `q == 0` there.
                    for layer in &mut model.layers {
                        for r in 0..config.hidden_dim {
                            layer.wq[(r, 5)] = 0.0;
                        }
                    }
                }
                let tokens = [model.synthetic_sequence(seed)];
                let tokens = || tokens.iter().map(Vec::as_slice);
                assert_layers_match_copied_heads(&model, tokens(), &ExactBackend);
                assert_layers_match_copied_heads(&model, tokens(), &vlp(WindowStrategy::AnchorMax));
                assert_layers_match_copied_heads(&model, tokens(), &vlp(WindowStrategy::Fixed(-3)));
                assert_layers_match_copied_heads(&model, tokens(), &pwl(8.0));
                assert_layers_match_copied_heads(&model, tokens(), &taylor(9, -1.0));
                assert_layers_match_copied_heads(&model, tokens(), &leaky);
            }
        }
    }

    /// Every Figure 6 full-preset point on Figure 6's model (Llama 2 7B
    /// scaled, seed 17) and its full-preset sequences (4). Run it in release
    /// mode:
    /// `cargo test --release -p mugi-workloads --lib -- --ignored full_shape_copy_free`.
    #[test]
    #[ignore = "every Figure 6 full-preset point at its full shape; run in release mode"]
    fn full_shape_copy_free_attention_matches_copied_heads() {
        let model = ReferenceModel::new(ReferenceConfig::scaled_from(ModelId::Llama2_7b, 17));
        let targets = model.proxy_targets(4);
        assert_layers_match_copied_heads(&model, targets.tokens(), &ExactBackend);
        assert_layers_match_copied_heads(&model, targets.tokens(), &vlp(WindowStrategy::AnchorMax));
        for anchor in -6..=0 {
            let backend = vlp(WindowStrategy::Fixed(anchor));
            assert_layers_match_copied_heads(&model, targets.tokens(), &backend);
        }
        for segment_range in [4.0, 8.0, 12.0, 16.0, 20.0, 24.0] {
            assert_layers_match_copied_heads(&model, targets.tokens(), &pwl(segment_range));
        }
        for (degree, center) in [(5, -1.0), (7, -1.0), (9, -1.0), (9, -3.0), (9, -5.0)] {
            assert_layers_match_copied_heads(&model, targets.tokens(), &taylor(degree, center));
        }
    }

    #[test]
    #[should_panic(expected = "proxy targets belong to another model")]
    fn targets_of_another_model_rejected() {
        let targets = ReferenceModel::new(ReferenceConfig::small(1)).proxy_targets(1);
        ReferenceModel::new(ReferenceConfig::small(2)).proxy_cross_entropy(&ExactBackend, &targets);
    }

    #[test]
    fn sequences_are_deterministic() {
        let model = ReferenceModel::new(ReferenceConfig::small(5));
        assert_eq!(model.synthetic_sequence(3), model.synthetic_sequence(3));
        assert_ne!(model.synthetic_sequence(3), model.synthetic_sequence(4));
        assert!(model.synthetic_sequence(0).iter().all(|&t| t < model.config().vocab));
    }

    #[test]
    fn scaled_config_tracks_family_activation() {
        let llama = ReferenceConfig::scaled_from(ModelId::Llama2_7b, 1);
        assert!(llama.activation_is_silu);
        let whisper = ReferenceConfig::scaled_from(ModelId::WhisperTiny, 1);
        assert!(!whisper.activation_is_silu);
        assert!(whisper.layers <= 4);
    }

    #[test]
    #[should_panic(expected = "hidden_dim must be divisible by heads")]
    fn bad_head_count_rejected() {
        ReferenceModel::new(ReferenceConfig { heads: 5, ..ReferenceConfig::small(1) });
    }
}
