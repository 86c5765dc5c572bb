//! Reference transformer forward pass (the CPU implementation of
//! llama2.c's `forward()`), used both as the correctness oracle for the
//! simulated accelerator and as the CPU baseline in examples.

use speedllm_telemetry as tel;

use crate::config::ModelConfig;
use crate::kv_cache::{KvBatch, KvCache, KvStore};
use crate::ops;
use crate::quant::{QuantKind, QuantMatrix, QuantMode, QuantWeights};
use crate::weights::TransformerWeights;

/// How dense matvecs are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatVecStrategy {
    /// Single-threaded kernels — bit-deterministic, the correctness oracle.
    Serial,
    /// Row-partitioned scoped threads ([`crate::parallel::par_matvec`]).
    Parallel {
        /// Worker count; clamped to at least 1.
        threads: usize,
    },
}

/// Which logits rows [`Transformer::forward_runs_with_kv`] classifies and
/// returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Logits {
    /// Each run's last token only (prefill and decode: intermediate
    /// prefill logits are never observed), one vector per sequence.
    LastRow,
    /// Every token row (speculative verification), row-major.
    AllRows,
}

/// Scratch buffers reused across forward calls (llama2.c's `RunState`).
#[derive(Debug, Clone)]
struct RunState {
    /// Residual stream, `[dim]`.
    x: Vec<f32>,
    /// Normed input / attention output scratch, `[dim]`.
    xb: Vec<f32>,
    /// Second `[dim]` scratch (projection results).
    xb2: Vec<f32>,
    /// FFN gate activations, `[hidden_dim]`.
    hb: Vec<f32>,
    /// FFN up activations, `[hidden_dim]`.
    hb2: Vec<f32>,
    /// Query vector, `[dim]`.
    q: Vec<f32>,
    /// Key scratch for the current position, `[kv_dim]`.
    k: Vec<f32>,
    /// Value scratch for the current position, `[kv_dim]`.
    v: Vec<f32>,
    /// Attention scores for one head, `[seq_len]`.
    att: Vec<f32>,
    /// Output logits, `[vocab_size]`.
    logits: Vec<f32>,
}

impl RunState {
    fn new(c: &ModelConfig) -> Self {
        Self {
            x: vec![0.0; c.dim],
            xb: vec![0.0; c.dim],
            xb2: vec![0.0; c.dim],
            hb: vec![0.0; c.hidden_dim],
            hb2: vec![0.0; c.hidden_dim],
            q: vec![0.0; c.dim],
            k: vec![0.0; c.kv_dim()],
            v: vec![0.0; c.kv_dim()],
            att: vec![0.0; c.seq_len],
            logits: vec![0.0; c.vocab_size],
        }
    }
}

/// Scratch buffers for the batched pass, token-row-major: row `r` of an
/// `[rows * width]` buffer is `[r * width..(r + 1) * width]`, the same
/// per-token layout as [`RunState`], so every per-token kernel (rmsnorm,
/// RoPE, attention, swiglu) runs on exactly the operands it would see in
/// the sequential path. A *row* is one token of one sequence: a decode
/// step contributes one row, a prefill chunk contributes one row per
/// chunk token, and rows of the same sequence are contiguous and
/// position-ordered. Only the GEMM staging buffer is row-major in the
/// [`ops::matmul`] output sense (`[out_rows][batch]`); its contents are
/// scattered back to token-row-major immediately after each matmul.
#[derive(Debug, Clone)]
struct BatchState {
    /// Allocated row capacity; buffers are sized for this many token rows.
    capacity: usize,
    /// Residual streams, `[capacity * dim]`.
    x: Vec<f32>,
    /// Normed input / attention output scratch, `[capacity * dim]`.
    xb: Vec<f32>,
    /// Projection results, `[capacity * dim]`.
    xb2: Vec<f32>,
    /// FFN gate activations, `[capacity * hidden_dim]`.
    hb: Vec<f32>,
    /// FFN up activations, `[capacity * hidden_dim]`.
    hb2: Vec<f32>,
    /// Query vectors, `[capacity * dim]`.
    q: Vec<f32>,
    /// Key scratch, `[capacity * kv_dim]`.
    k: Vec<f32>,
    /// Value scratch, `[capacity * kv_dim]`.
    v: Vec<f32>,
    /// Attention scores for one head of one row, `[seq_len]`.
    att: Vec<f32>,
    /// Output logits, `[capacity * vocab_size]`: one vector per
    /// classified row (see [`Logits`]).
    logits: Vec<f32>,
    /// Row-major GEMM staging, `[max(dim, hidden_dim, vocab) * capacity]`.
    gemm: Vec<f32>,
}

impl BatchState {
    fn new(c: &ModelConfig, capacity: usize) -> Self {
        let widest = c.dim.max(c.hidden_dim).max(c.vocab_size);
        Self {
            capacity,
            x: vec![0.0; capacity * c.dim],
            xb: vec![0.0; capacity * c.dim],
            xb2: vec![0.0; capacity * c.dim],
            hb: vec![0.0; capacity * c.hidden_dim],
            hb2: vec![0.0; capacity * c.hidden_dim],
            q: vec![0.0; capacity * c.dim],
            k: vec![0.0; capacity * c.kv_dim()],
            v: vec![0.0; capacity * c.kv_dim()],
            att: vec![0.0; c.seq_len],
            logits: vec![0.0; capacity * c.vocab_size],
            gemm: vec![0.0; capacity * widest],
        }
    }
}

/// Scatters a row-major GEMM result (`src[r * batch + b]`, the
/// [`ops::matmul`] output layout) into sequence-major scratch
/// (`dst[b * rows + r]`). Pure data movement — `O(rows × batch)` against
/// the `O(rows × cols)` weight stream it unlocks — and therefore neutral
/// to bit-identity.
fn scatter_to_seq(dst: &mut [f32], src: &[f32], rows: usize, batch: usize) {
    debug_assert_eq!(dst.len(), rows * batch);
    debug_assert_eq!(src.len(), rows * batch);
    for (b, seq) in dst.chunks_exact_mut(rows).enumerate() {
        for (r, o) in seq.iter_mut().enumerate() {
            *o = src[r * batch + b];
        }
    }
}

/// The weight stream the dense projections read: the original f32 tensors,
/// or a group-quantized compressed copy built once by
/// [`Transformer::set_quant_mode`]. Everything that is *not* a GEMM operand
/// (norm weights, the embedding gather, RoPE, attention over the KV cache)
/// always stays f32 — quantization only changes what streams through the
/// matmul kernels.
pub enum WeightStore {
    /// Stream the original f32 weights.
    F32,
    /// Stream a [`QuantWeights`] compressed copy through the fused
    /// dequant-GEMM kernels in [`crate::qgemm`].
    Quant(QuantWeights),
}

impl WeightStore {
    /// Builds the store for `mode` (quantizing every GEMM operand of
    /// `weights` when the mode is a quantized kind).
    #[must_use]
    pub fn for_mode(weights: &TransformerWeights, mode: QuantMode) -> Self {
        match mode.kind() {
            None => Self::F32,
            Some(kind) => Self::Quant(QuantWeights::quantize(weights, kind)),
        }
    }

    /// The mode this store realizes.
    #[must_use]
    pub fn mode(&self) -> QuantMode {
        match self {
            Self::F32 => QuantMode::F32,
            Self::Quant(q) => match q.kind() {
                QuantKind::Int8 => QuantMode::Int8,
                QuantKind::Int4 => QuantMode::Int4,
            },
        }
    }

    /// Bytes one GEMM tick streams when every projection is read once —
    /// the compressed stream for quantized stores, the f32 stream
    /// otherwise. This is what the `gemm_weight_bytes` telemetry counts.
    #[must_use]
    pub fn gemm_weight_bytes(&self, c: &ModelConfig) -> usize {
        match self {
            Self::F32 => c.gemm_weight_bytes(),
            Self::Quant(q) => q.gemm_weight_bytes(),
        }
    }

    fn layer(&self, layer: usize) -> Option<&crate::quant::QuantLayer> {
        match self {
            Self::F32 => None,
            Self::Quant(q) => Some(&q.layers[layer]),
        }
    }

    fn classifier(&self) -> Option<&QuantMatrix> {
        match self {
            Self::F32 => None,
            Self::Quant(q) => Some(&q.classifier),
        }
    }
}

/// One resolved GEMM operand: an f32 slice or a quantized matrix.
#[derive(Clone, Copy)]
enum MatW<'a> {
    F32(&'a [f32]),
    Quant(&'a QuantMatrix),
}

#[inline]
fn matw<'a>(q: Option<&'a QuantMatrix>, f: &'a [f32]) -> MatW<'a> {
    match q {
        Some(qm) => MatW::Quant(qm),
        None => MatW::F32(f),
    }
}

/// Dispatches a dense matvec according to the chosen strategy.
fn run_matvec(
    strategy: MatVecStrategy,
    out: &mut [f32],
    w: MatW<'_>,
    x: &[f32],
    rows: usize,
    cols: usize,
) {
    match w {
        MatW::F32(w) => match strategy {
            MatVecStrategy::Serial => ops::matvec(out, w, x, rows, cols),
            MatVecStrategy::Parallel { threads } => {
                crate::parallel::par_matvec(out, w, x, rows, cols, threads.max(1));
            }
        },
        MatW::Quant(qm) => {
            debug_assert_eq!((qm.rows(), qm.cols()), (rows, cols));
            match strategy {
                MatVecStrategy::Serial => crate::qgemm::qmatvec(out, qm, x),
                MatVecStrategy::Parallel { threads } => {
                    crate::parallel::par_qmatvec(out, qm, x, threads.max(1));
                }
            }
        }
    }
}

/// Dispatches a batched dense matmul according to the chosen strategy.
/// Serial and parallel kernels compute every element with the same
/// accumulation order (f32 [`ops::dot`], or its fused-dequant twin in
/// [`crate::qgemm`]), so the choice affects wall-clock only, never values.
fn run_matmul(
    strategy: MatVecStrategy,
    out: &mut [f32],
    w: MatW<'_>,
    xs: &[f32],
    rows: usize,
    cols: usize,
    batch: usize,
) {
    match w {
        MatW::F32(w) => match strategy {
            MatVecStrategy::Serial => ops::matmul(out, w, xs, rows, cols, batch),
            MatVecStrategy::Parallel { threads } => {
                crate::parallel::par_matmul(out, w, xs, rows, cols, batch, threads.max(1));
            }
        },
        MatW::Quant(qm) => {
            debug_assert_eq!((qm.rows(), qm.cols()), (rows, cols));
            match strategy {
                MatVecStrategy::Serial => crate::qgemm::qmatmul(out, qm, xs, batch),
                MatVecStrategy::Parallel { threads } => {
                    crate::parallel::par_qmatmul(out, qm, xs, batch, threads.max(1));
                }
            }
        }
    }
}

/// A transformer with its weights, KV cache, and scratch state: everything
/// needed to decode token-by-token.
pub struct Transformer {
    weights: TransformerWeights,
    /// Which weight stream the dense projections read; f32 until
    /// [`Transformer::set_quant_mode`] selects a quantized kind.
    store: WeightStore,
    state: RunState,
    /// Batched-decode scratch, allocated on first batched call and grown
    /// to the largest batch width seen since.
    batch: Option<BatchState>,
    kv: KvCache,
    strategy: MatVecStrategy,
}

impl Transformer {
    /// Wraps loaded or synthetic weights.
    #[must_use]
    pub fn new(weights: TransformerWeights) -> Self {
        let state = RunState::new(&weights.config);
        let kv = KvCache::new(&weights.config);
        Self {
            weights,
            store: WeightStore::F32,
            state,
            batch: None,
            kv,
            strategy: MatVecStrategy::Serial,
        }
    }

    /// Selects the matvec execution strategy.
    pub fn set_strategy(&mut self, strategy: MatVecStrategy) {
        self.strategy = strategy;
    }

    /// Selects the weight precision for every dense projection. A
    /// quantized mode builds the compressed [`WeightStore`] once
    /// (deterministically — same weights, same payload) and all forward
    /// entry points, sequential and batched alike, then stream it through
    /// the fused dequant-GEMM kernels. `QuantMode::F32` restores the
    /// original tensors.
    pub fn set_quant_mode(&mut self, mode: QuantMode) {
        if self.store.mode() != mode {
            self.store = WeightStore::for_mode(&self.weights, mode);
        }
    }

    /// The active weight precision.
    #[must_use]
    pub fn quant_mode(&self) -> QuantMode {
        self.store.mode()
    }

    /// Bytes one GEMM tick streams under the active weight precision —
    /// what the `cpu.gemm_weight_bytes` telemetry adds per forward call.
    #[must_use]
    pub fn gemm_weight_bytes(&self) -> usize {
        self.store.gemm_weight_bytes(&self.weights.config)
    }

    /// The architecture config.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.weights.config
    }

    /// Borrow of the underlying weights.
    #[must_use]
    pub fn weights(&self) -> &TransformerWeights {
        &self.weights
    }

    /// Current context length (positions already decoded).
    #[must_use]
    pub fn context_len(&self) -> usize {
        self.kv.len()
    }

    /// Clears the KV cache to start a fresh sequence.
    pub fn reset(&mut self) {
        self.kv.reset();
    }

    /// Rolls the internal KV cache back to `len` positions (no-op if it is
    /// already at or below `len`). Speculative decoding uses this to
    /// discard a draft model's rejected continuations.
    pub fn truncate_kv(&mut self, len: usize) {
        self.kv.truncate(len);
    }

    /// Runs one decode step: processes `token` at position `pos` and
    /// returns the logits over the vocabulary.
    ///
    /// # Panics
    /// Panics if `pos` is outside the model's context window or `token` is
    /// out of vocabulary.
    pub fn forward(&mut self, token: u32, pos: usize) -> &[f32] {
        Self::forward_into(
            &self.weights,
            &self.store,
            &mut self.state,
            &mut self.kv,
            self.strategy,
            token,
            pos,
        );
        &self.state.logits
    }

    /// Runs one decode step against an **external** KV cache instead of the
    /// transformer's own — over any [`KvStore`] implementation, in
    /// particular a paged block-table view, where the logical position →
    /// physical row mapping goes through a per-sequence block table
    /// instead of assuming contiguity. The internal cache is untouched, so
    /// single-tenant callers are unaffected.
    ///
    /// Bit-identical to [`Transformer::forward`]: both run the same serial
    /// kernels in the same order, so paged and contiguous caches produce
    /// bit-identical logits. This per-token pass is the reference that
    /// [`Transformer::forward_runs_with_kv`] is tested against.
    ///
    /// # Panics
    /// Panics if `pos` is outside the context window, `token` is out of
    /// vocabulary, or `kv` was not sized for this model's config.
    pub fn forward_with_kv<K: KvStore + ?Sized>(
        &mut self,
        kv: &mut K,
        token: u32,
        pos: usize,
    ) -> &[f32] {
        assert_eq!(
            kv.kv_capacity(),
            self.weights.config.seq_len,
            "kv cache sized for a different context window"
        );
        Self::forward_into(
            &self.weights,
            &self.store,
            &mut self.state,
            kv,
            self.strategy,
            token,
            pos,
        );
        &self.state.logits
    }

    /// The run-based forward pass: one walk over the layers carries a
    /// variable number of tokens per sequence, so a single
    /// weight-streaming GEMM tick serves N decode tokens, M prefill-chunk
    /// tokens and speculative verify rows at once (Sarathi-style unified
    /// batching, DESIGN.md §14). Every dense projection runs as one
    /// [`ops::matmul`] over all token rows, so each weight matrix is
    /// streamed once per call instead of once per token.
    ///
    /// Sequence `i` (whose context lives at index `i` of `kv`) contributes
    /// the *run* of `counts[i]` consecutive tokens starting at `starts[i]`
    /// (its rows are the corresponding slice of `tokens`, which
    /// concatenates all runs in sequence order). A decode step is a run of
    /// length 1; a prefill chunk is a run of its chunk length. `logits`
    /// picks what comes back:
    ///
    /// * [`Logits::LastRow`] — the logits of each sequence's **last** run
    ///   token, sequence-major: `out[i * vocab..(i + 1) * vocab]`.
    /// * [`Logits::AllRows`] — the logits of **every** token row,
    ///   row-major: `out[r * vocab..(r + 1) * vocab]` is the distribution
    ///   after row `r` of `tokens`. This is the speculative verification
    ///   primitive: one pass scores a pending token plus K drafts.
    ///
    /// **Bit-identical** to prefilling/decoding each run token-by-token
    /// through [`Transformer::forward_with_kv`]: every dense projection
    /// computes each element with the same `dot` over the same operands,
    /// the per-row kernels run on row slices identical to the sequential
    /// scratch, and attention is causally exact within a run — all K/V
    /// rows of a layer are stored before any row attends, and a row at
    /// position `p` reads keys `0..=p` only, which by the run's
    /// contiguity are exactly the rows the sequential pass would have
    /// cached. Layer-major chunk order cannot change any value because a
    /// token's QKV inputs depend on earlier tokens only through attention
    /// in *previous* layers.
    ///
    /// # Panics
    /// Panics on an empty batch, an empty run, mismatched
    /// `tokens`/`counts`/`starts`/batch lengths, a position outside the
    /// context window, an out-of-vocab token, or a store sized for a
    /// different context window.
    pub fn forward_runs_with_kv<B: KvBatch + ?Sized>(
        &mut self,
        kv: &mut B,
        tokens: &[u32],
        counts: &[usize],
        starts: &[usize],
        logits: Logits,
    ) -> &[f32] {
        let c = self.weights.config;
        let n_seqs = counts.len();
        let rows = tokens.len();
        assert!(n_seqs >= 1, "empty batch");
        assert_eq!(n_seqs, starts.len(), "one start position per sequence");
        assert_eq!(n_seqs, kv.batch_len(), "one KV store per sequence");
        assert_eq!(
            rows,
            counts.iter().sum::<usize>(),
            "token rows must match run counts"
        );
        for (i, &count) in counts.iter().enumerate() {
            assert!(count >= 1, "empty run for sequence {i}");
            assert_eq!(
                kv.kv_capacity(i),
                c.seq_len,
                "kv store {i} sized for a different context window"
            );
        }
        if self.batch.as_ref().is_none_or(|b| b.capacity < rows) {
            self.batch = Some(BatchState::new(&c, rows));
        }
        let bs = self.batch.as_mut().expect("batch state just ensured");
        let out_rows = Self::forward_runs_into(
            &self.weights,
            &self.store,
            bs,
            kv,
            self.strategy,
            tokens,
            counts,
            starts,
            logits,
        );
        &bs.logits[..out_rows * c.vocab_size]
    }

    /// The run-based forward pass over explicit parts (the batched twin
    /// of [`Transformer::forward_into`]): same layer walk, but each dense
    /// projection is one GEMM over every token row of every run, and
    /// everything per-token runs on that row's slice of the row-major
    /// scratch. Only the rows `logits` selects are normed and classified
    /// — the sequential pass computes (and discards) logits for
    /// intermediate prefill tokens, so skipping them cannot change any
    /// value that is ever observed. Returns the number of logits rows
    /// written to `bs.logits`.
    #[allow(clippy::too_many_arguments)]
    fn forward_runs_into<B: KvBatch + ?Sized>(
        weights: &TransformerWeights,
        store: &WeightStore,
        bs: &mut BatchState,
        kv: &mut B,
        strategy: MatVecStrategy,
        tokens: &[u32],
        counts: &[usize],
        starts: &[usize],
        logits: Logits,
    ) -> usize {
        let c = weights.config;
        let rows = tokens.len();
        let n_seqs = counts.len();
        let dim = c.dim;
        let kv_dim = c.kv_dim();
        let head_dim = c.head_dim();
        let gqa = c.gqa_group();
        let hid = c.hidden_dim;

        // Row maps: which sequence each token row extends, at which
        // position. Rows of one run are contiguous and position-ordered,
        // which is what makes in-run attention causally exact.
        let mut row_seq = Vec::with_capacity(rows);
        let mut row_pos = Vec::with_capacity(rows);
        for (i, (&cnt, &start)) in counts.iter().zip(starts).enumerate() {
            for off in 0..cnt {
                row_seq.push(i);
                row_pos.push(start + off);
            }
        }
        for (&tok, &pos) in tokens.iter().zip(&row_pos) {
            assert!(
                pos < c.seq_len,
                "pos {pos} outside context window {}",
                c.seq_len
            );
            assert!((tok as usize) < c.vocab_size, "token {tok} out of vocab");
        }

        let _fwd = tel::span("cpu", "forward_batch")
            .arg("batch", n_seqs as i64)
            .arg("rows", rows as i64);
        if tel::enabled() {
            // One mixed tick streams the GEMM weights once for all `rows`
            // tokens (decode + prefill alike); `gemm_weight_bytes /
            // gemm_tokens` is bytes-per-token. Quantized stores report the
            // compressed stream.
            tel::metrics::counter_add("cpu.gemm_weight_bytes", store.gemm_weight_bytes(&c) as u64);
            tel::metrics::counter_add("cpu.gemm_tokens", rows as u64);
            tel::metrics::gauge_set("cpu.gemm_batch_width", rows as f64);
        }

        // Gather: token embeddings -> per-row residual streams.
        for (r, &tok) in tokens.iter().enumerate() {
            bs.x[r * dim..(r + 1) * dim].copy_from_slice(weights.embedding_row(tok as usize));
        }

        for layer in 0..c.n_layers {
            let lw = &weights.layers[layer];
            let qlw = store.layer(layer);

            // ---- Attention block ----
            {
                let _att = tel::span("cpu", "attention_batch").arg("layer", layer as i64);
                for r in 0..rows {
                    ops::rmsnorm(
                        &mut bs.xb[r * dim..(r + 1) * dim],
                        &bs.x[r * dim..(r + 1) * dim],
                        &lw.rms_att,
                    );
                }
                {
                    let _qkv = tel::span("cpu", "qkv_batch").arg("layer", layer as i64);
                    run_matmul(
                        strategy,
                        &mut bs.gemm[..dim * rows],
                        matw(qlw.map(|q| &q.wq), &lw.wq),
                        &bs.xb[..rows * dim],
                        dim,
                        dim,
                        rows,
                    );
                    scatter_to_seq(&mut bs.q[..rows * dim], &bs.gemm[..dim * rows], dim, rows);
                    run_matmul(
                        strategy,
                        &mut bs.gemm[..kv_dim * rows],
                        matw(qlw.map(|q| &q.wk), &lw.wk),
                        &bs.xb[..rows * dim],
                        kv_dim,
                        dim,
                        rows,
                    );
                    scatter_to_seq(
                        &mut bs.k[..rows * kv_dim],
                        &bs.gemm[..kv_dim * rows],
                        kv_dim,
                        rows,
                    );
                    run_matmul(
                        strategy,
                        &mut bs.gemm[..kv_dim * rows],
                        matw(qlw.map(|q| &q.wv), &lw.wv),
                        &bs.xb[..rows * dim],
                        kv_dim,
                        dim,
                        rows,
                    );
                    scatter_to_seq(
                        &mut bs.v[..rows * kv_dim],
                        &bs.gemm[..kv_dim * rows],
                        kv_dim,
                        rows,
                    );
                }

                // RoPE + KV store for every row **before** any row
                // attends: a prefill row at position p then finds all
                // same-run keys `<= p` already cached, exactly as the
                // token-sequential pass would have left them.
                for r in 0..rows {
                    let pos = row_pos[r];
                    ops::rope_inplace(
                        &mut bs.q[r * dim..(r + 1) * dim],
                        pos,
                        head_dim,
                        ops::ROPE_THETA,
                    );
                    ops::rope_inplace(
                        &mut bs.k[r * kv_dim..(r + 1) * kv_dim],
                        pos,
                        head_dim,
                        ops::ROPE_THETA,
                    );
                    kv.store(
                        row_seq[r],
                        layer,
                        pos,
                        &bs.k[r * kv_dim..(r + 1) * kv_dim],
                        &bs.v[r * kv_dim..(r + 1) * kv_dim],
                    );
                }

                {
                    let _mha = tel::span("cpu", "mha_batch").arg("layer", layer as i64);
                    for r in 0..rows {
                        let pos = row_pos[r];
                        let b = row_seq[r];
                        for h in 0..c.n_heads {
                            let kv_head = h / gqa;
                            let q = &bs.q[r * dim + h * head_dim..r * dim + (h + 1) * head_dim];
                            // Causal mask inside a mixed tick: row `r`
                            // scores positions `0..=pos` of its own
                            // sequence only — later run rows are invisible
                            // by construction.
                            let att = &mut bs.att[..pos + 1];
                            ops::attention_scores(
                                att,
                                q,
                                |t| kv.key_head(b, layer, t, kv_head),
                                pos,
                            );
                            ops::softmax(att);
                            let out =
                                &mut bs.xb[r * dim + h * head_dim..r * dim + (h + 1) * head_dim];
                            ops::attention_mix(
                                out,
                                att,
                                |t| kv.value_head(b, layer, t, kv_head),
                                pos,
                            );
                        }
                    }
                }

                run_matmul(
                    strategy,
                    &mut bs.gemm[..dim * rows],
                    matw(qlw.map(|q| &q.wo), &lw.wo),
                    &bs.xb[..rows * dim],
                    dim,
                    dim,
                    rows,
                );
                scatter_to_seq(&mut bs.xb2[..rows * dim], &bs.gemm[..dim * rows], dim, rows);
                for r in 0..rows {
                    ops::add_inplace(
                        &mut bs.x[r * dim..(r + 1) * dim],
                        &bs.xb2[r * dim..(r + 1) * dim],
                    );
                }
            }

            // ---- FFN block (SwiGLU) ----
            {
                let _ffn = tel::span("cpu", "ffn_batch").arg("layer", layer as i64);
                for r in 0..rows {
                    ops::rmsnorm(
                        &mut bs.xb[r * dim..(r + 1) * dim],
                        &bs.x[r * dim..(r + 1) * dim],
                        &lw.rms_ffn,
                    );
                }
                run_matmul(
                    strategy,
                    &mut bs.gemm[..hid * rows],
                    matw(qlw.map(|q| &q.w1), &lw.w1),
                    &bs.xb[..rows * dim],
                    hid,
                    dim,
                    rows,
                );
                scatter_to_seq(&mut bs.hb[..rows * hid], &bs.gemm[..hid * rows], hid, rows);
                run_matmul(
                    strategy,
                    &mut bs.gemm[..hid * rows],
                    matw(qlw.map(|q| &q.w3), &lw.w3),
                    &bs.xb[..rows * dim],
                    hid,
                    dim,
                    rows,
                );
                scatter_to_seq(&mut bs.hb2[..rows * hid], &bs.gemm[..hid * rows], hid, rows);
                for r in 0..rows {
                    ops::swiglu(
                        &mut bs.hb[r * hid..(r + 1) * hid],
                        &bs.hb2[r * hid..(r + 1) * hid],
                    );
                }
                run_matmul(
                    strategy,
                    &mut bs.gemm[..dim * rows],
                    matw(qlw.map(|q| &q.w2), &lw.w2),
                    &bs.hb[..rows * hid],
                    dim,
                    hid,
                    rows,
                );
                scatter_to_seq(&mut bs.xb2[..rows * dim], &bs.gemm[..dim * rows], dim, rows);
                for r in 0..rows {
                    ops::add_inplace(
                        &mut bs.x[r * dim..(r + 1) * dim],
                        &bs.xb2[r * dim..(r + 1) * dim],
                    );
                }
            }
        }

        // Final norm + classifier over the selected rows only. They are
        // compacted into `xb` so the classifier runs as one GEMM streaming
        // the weight matrix once; each row's values match the sequential
        // classifier bit-for-bit because rmsnorm and the GEMM column for
        // that row see exactly the sequential operands.
        let cls_rows: Vec<usize> = match logits {
            Logits::AllRows => (0..rows).collect(),
            Logits::LastRow => counts
                .iter()
                .scan(0usize, |end, &cnt| {
                    *end += cnt;
                    Some(*end - 1)
                })
                .collect(),
        };
        let n = cls_rows.len();
        let _cls = tel::span("cpu", "classifier_batch").arg("batch", n as i64);
        for (i, &r) in cls_rows.iter().enumerate() {
            let BatchState { x, xb, .. } = bs;
            // In place, as the sequential pass does: `rmsnorm` rounds
            // differently.
            ops::rmsnorm_inplace(&mut x[r * dim..(r + 1) * dim], &weights.rms_final);
            xb[i * dim..(i + 1) * dim].copy_from_slice(&x[r * dim..(r + 1) * dim]);
        }
        run_matmul(
            strategy,
            &mut bs.gemm[..c.vocab_size * n],
            matw(store.classifier(), weights.classifier()),
            &bs.xb[..n * dim],
            c.vocab_size,
            dim,
            n,
        );
        scatter_to_seq(
            &mut bs.logits[..n * c.vocab_size],
            &bs.gemm[..c.vocab_size * n],
            c.vocab_size,
            n,
        );
        n
    }

    /// The forward pass over explicit parts, so callers can substitute the
    /// KV cache while reusing the shared scratch state.
    fn forward_into<K: KvStore + ?Sized>(
        weights: &TransformerWeights,
        store: &WeightStore,
        state: &mut RunState,
        kv: &mut K,
        strategy: MatVecStrategy,
        token: u32,
        pos: usize,
    ) {
        let c = weights.config;
        assert!(
            pos < c.seq_len,
            "pos {pos} outside context window {}",
            c.seq_len
        );
        assert!(
            (token as usize) < c.vocab_size,
            "token {token} out of vocab"
        );
        let dim = c.dim;
        let kv_dim = c.kv_dim();
        let head_dim = c.head_dim();
        let gqa = c.gqa_group();

        let _fwd = tel::span("cpu", "forward").arg("pos", pos as i64);
        if tel::enabled() {
            // The sequential path streams the GEMM weights once per token —
            // the baseline the batched counters are compared against.
            // Quantized stores report the compressed stream.
            tel::metrics::counter_add("cpu.gemm_weight_bytes", store.gemm_weight_bytes(&c) as u64);
            tel::metrics::counter_add("cpu.gemm_tokens", 1);
            tel::metrics::gauge_set("cpu.gemm_batch_width", 1.0);
        }

        // Token embedding -> residual stream.
        state
            .x
            .copy_from_slice(weights.embedding_row(token as usize));

        for layer in 0..c.n_layers {
            let st = &mut *state;
            let lw = &weights.layers[layer];
            let qlw = store.layer(layer);

            // ---- Attention block ----
            {
                let _att = tel::span("cpu", "attention").arg("layer", layer as i64);
                ops::rmsnorm(&mut st.xb, &st.x, &lw.rms_att);
                {
                    let _qkv = tel::span("cpu", "qkv").arg("layer", layer as i64);
                    run_matvec(
                        strategy,
                        &mut st.q,
                        matw(qlw.map(|q| &q.wq), &lw.wq),
                        &st.xb,
                        dim,
                        dim,
                    );
                    run_matvec(
                        strategy,
                        &mut st.k,
                        matw(qlw.map(|q| &q.wk), &lw.wk),
                        &st.xb,
                        kv_dim,
                        dim,
                    );
                    run_matvec(
                        strategy,
                        &mut st.v,
                        matw(qlw.map(|q| &q.wv), &lw.wv),
                        &st.xb,
                        kv_dim,
                        dim,
                    );
                }

                // Rotary embeddings on q (all heads) and k (kv heads).
                ops::rope_inplace(&mut st.q, pos, head_dim, ops::ROPE_THETA);
                ops::rope_inplace(&mut st.k, pos, head_dim, ops::ROPE_THETA);
                // Cache this position's K/V.
                kv.store(layer, pos, &st.k, &st.v);

                // Multi-head attention with grouped-query sharing.
                {
                    let _mha = tel::span("cpu", "mha").arg("layer", layer as i64);
                    for h in 0..c.n_heads {
                        let kv_head = h / gqa;
                        let q = &st.q[h * head_dim..(h + 1) * head_dim];
                        let att = &mut st.att[..pos + 1];
                        ops::attention_scores(att, q, |t| kv.key_head(layer, t, kv_head), pos);
                        ops::softmax(att);
                        let out = &mut st.xb[h * head_dim..(h + 1) * head_dim];
                        ops::attention_mix(out, att, |t| kv.value_head(layer, t, kv_head), pos);
                    }
                }

                // Output projection + residual.
                run_matvec(
                    strategy,
                    &mut st.xb2,
                    matw(qlw.map(|q| &q.wo), &lw.wo),
                    &st.xb,
                    dim,
                    dim,
                );
                ops::add_inplace(&mut st.x, &st.xb2);
            }

            // ---- FFN block (SwiGLU) ----
            {
                let _ffn = tel::span("cpu", "ffn").arg("layer", layer as i64);
                ops::rmsnorm(&mut st.xb, &st.x, &lw.rms_ffn);
                run_matvec(
                    strategy,
                    &mut st.hb,
                    matw(qlw.map(|q| &q.w1), &lw.w1),
                    &st.xb,
                    c.hidden_dim,
                    dim,
                );
                run_matvec(
                    strategy,
                    &mut st.hb2,
                    matw(qlw.map(|q| &q.w3), &lw.w3),
                    &st.xb,
                    c.hidden_dim,
                    dim,
                );
                ops::swiglu(&mut st.hb, &st.hb2);
                run_matvec(
                    strategy,
                    &mut st.xb2,
                    matw(qlw.map(|q| &q.w2), &lw.w2),
                    &st.hb,
                    dim,
                    c.hidden_dim,
                );
                ops::add_inplace(&mut st.x, &st.xb2);
            }
        }

        // Final norm + classifier.
        let _cls = tel::span("cpu", "classifier").arg("pos", pos as i64);
        ops::rmsnorm_inplace(&mut state.x, &weights.rms_final);
        run_matvec(
            strategy,
            &mut state.logits,
            matw(store.classifier(), weights.classifier()),
            &state.x,
            c.vocab_size,
            dim,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::TransformerWeights;

    fn model() -> Transformer {
        Transformer::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42))
    }

    #[test]
    fn forward_produces_finite_logits() {
        let mut t = model();
        let logits = t.forward(5, 0);
        assert_eq!(logits.len(), 64);
        assert!(logits.iter().all(|x| x.is_finite()));
        assert!(logits.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn forward_is_deterministic() {
        let mut a = model();
        let mut b = model();
        for pos in 0..4 {
            let la = a.forward(pos as u32 + 1, pos).to_vec();
            let lb = b.forward(pos as u32 + 1, pos).to_vec();
            assert_eq!(la, lb);
        }
    }

    #[test]
    fn logits_depend_on_history() {
        // Same token at pos 1 after different pos-0 tokens must differ.
        let mut a = model();
        let mut b = model();
        a.forward(1, 0);
        b.forward(2, 0);
        let la = a.forward(3, 1).to_vec();
        let lb = b.forward(3, 1).to_vec();
        assert_ne!(la, lb);
    }

    #[test]
    fn reset_restores_initial_behavior() {
        let mut t = model();
        let first = t.forward(7, 0).to_vec();
        t.forward(9, 1);
        t.reset();
        let again = t.forward(7, 0).to_vec();
        assert_eq!(first, again);
    }

    #[test]
    fn parallel_strategy_matches_serial() {
        let weights = TransformerWeights::synthetic(ModelConfig::stories260k(), 3);
        let mut serial = Transformer::new(weights.clone());
        let mut par = Transformer::new(weights);
        par.set_strategy(MatVecStrategy::Parallel { threads: 4 });
        for pos in 0..3 {
            let a = serial.forward(10 + pos as u32, pos).to_vec();
            let b = par.forward(10 + pos as u32, pos).to_vec();
            let max_diff = a
                .iter()
                .zip(&b)
                .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()));
            assert!(max_diff < 1e-4, "parallel diverged: {max_diff}");
        }
    }

    #[test]
    fn batched_forward_is_bit_identical_to_sequential() {
        use crate::kv_cache::KvCache;
        let cfg = ModelConfig::test_tiny();
        for strategy in [
            MatVecStrategy::Serial,
            MatVecStrategy::Parallel { threads: 3 },
        ] {
            for n in [1usize, 2, 5] {
                let weights = TransformerWeights::synthetic(cfg, 7);
                let mut batched = Transformer::new(weights.clone());
                batched.set_strategy(strategy);
                let mut oracle = Transformer::new(weights);
                oracle.set_strategy(strategy);

                let mut kvs_b: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
                let mut kvs_s: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
                // Stagger contexts so the batch composition is heterogeneous.
                for (i, kv) in kvs_s.iter_mut().enumerate() {
                    for p in 0..i {
                        oracle.forward_with_kv(kv, (i + p) as u32 % 64, p);
                    }
                }
                for (i, kv) in kvs_b.iter_mut().enumerate() {
                    for p in 0..i {
                        oracle.forward_with_kv(kv, (i + p) as u32 % 64, p);
                    }
                }

                for step in 0..3 {
                    let tokens: Vec<u32> = (0..n).map(|i| ((7 * i + step) % 64) as u32).collect();
                    let positions: Vec<usize> = kvs_b.iter().map(KvCache::len).collect();
                    let mut refs: Vec<&mut KvCache> = kvs_b.iter_mut().collect();
                    let got = batched
                        .forward_runs_with_kv(
                            refs.as_mut_slice(),
                            &tokens,
                            &vec![1; n],
                            &positions,
                            Logits::LastRow,
                        )
                        .to_vec();
                    for (i, kv) in kvs_s.iter_mut().enumerate() {
                        let want = oracle.forward_with_kv(kv, tokens[i], positions[i]);
                        assert_eq!(
                            &got[i * cfg.vocab_size..(i + 1) * cfg.vocab_size],
                            want,
                            "batch {n} seq {i} step {step} diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quantized_batched_forward_is_bit_identical_to_sequential() {
        use crate::kv_cache::KvCache;
        let cfg = ModelConfig::test_tiny();
        for mode in [QuantMode::Int8, QuantMode::Int4] {
            for strategy in [
                MatVecStrategy::Serial,
                MatVecStrategy::Parallel { threads: 3 },
            ] {
                for n in [1usize, 3, 5] {
                    let weights = TransformerWeights::synthetic(cfg, 7);
                    let mut batched = Transformer::new(weights.clone());
                    batched.set_strategy(strategy);
                    batched.set_quant_mode(mode);
                    let mut oracle = Transformer::new(weights);
                    oracle.set_strategy(strategy);
                    oracle.set_quant_mode(mode);
                    assert_eq!(oracle.quant_mode(), mode);

                    let mut kvs_b: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
                    let mut kvs_s: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
                    for step in 0..3 {
                        let tokens: Vec<u32> =
                            (0..n).map(|i| ((7 * i + step) % 64) as u32).collect();
                        let positions: Vec<usize> = kvs_b.iter().map(KvCache::len).collect();
                        let mut refs: Vec<&mut KvCache> = kvs_b.iter_mut().collect();
                        let got = batched
                            .forward_runs_with_kv(
                                refs.as_mut_slice(),
                                &tokens,
                                &vec![1; n],
                                &positions,
                                Logits::LastRow,
                            )
                            .to_vec();
                        for (i, kv) in kvs_s.iter_mut().enumerate() {
                            let want = oracle.forward_with_kv(kv, tokens[i], positions[i]);
                            assert_eq!(
                                &got[i * cfg.vocab_size..(i + 1) * cfg.vocab_size],
                                want,
                                "{mode:?} batch {n} seq {i} step {step} diverged ({strategy:?})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn quantized_logits_stay_close_to_f32() {
        let cfg = ModelConfig::test_tiny();
        let weights = TransformerWeights::synthetic(cfg, 11);
        let mut exact = Transformer::new(weights.clone());
        let mut quant = Transformer::new(weights);
        quant.set_quant_mode(QuantMode::Int8);
        for pos in 0..4 {
            let want = exact.forward((pos as u32 * 3) % 64, pos).to_vec();
            let got = quant.forward((pos as u32 * 3) % 64, pos).to_vec();
            let max_err = want
                .iter()
                .zip(&got)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_err < 0.5, "int8 logits drifted {max_err} at pos {pos}");
            assert_ne!(want, got, "quantization must actually perturb values");
        }
        // Switching back restores the exact f32 stream.
        quant.set_quant_mode(QuantMode::F32);
        quant.reset();
        exact.reset();
        assert_eq!(
            exact.forward(5, 0).to_vec(),
            quant.forward(5, 0).to_vec(),
            "f32 mode must restore the original weights"
        );
    }

    #[test]
    fn mixed_runs_are_bit_identical_to_sequential() {
        use crate::kv_cache::KvCache;
        let cfg = ModelConfig::test_tiny();
        let vocab = cfg.vocab_size;
        // Every quantized CPU prefill takes this path, so the quantized
        // stores are covered with multi-token runs too.
        for mode in [QuantMode::F32, QuantMode::Int8, QuantMode::Int4] {
            for strategy in [
                MatVecStrategy::Serial,
                MatVecStrategy::Parallel { threads: 3 },
            ] {
                // Each case: per-sequence (context already cached, run length).
                // Mixes decode rows (count 1) with prefill chunks (count > 1),
                // including a chunk continuing a non-empty context.
                for case in [
                    vec![(0usize, 4usize)],       // pure prefill, one seq
                    vec![(3, 1), (0, 4)],         // decode + cold prefill
                    vec![(2, 1), (1, 3), (4, 1)], // decode, chunk, decode
                    vec![(0, 2), (2, 2)],         // two chunks, one warm
                    vec![(1, 1), (2, 1), (3, 1)], // pure decode (regression)
                ] {
                    let weights = TransformerWeights::synthetic(cfg, 7);
                    let mut mixed = Transformer::new(weights.clone());
                    mixed.set_strategy(strategy);
                    mixed.set_quant_mode(mode);
                    let mut oracle = Transformer::new(weights);
                    oracle.set_strategy(strategy);
                    oracle.set_quant_mode(mode);

                    let n = case.len();
                    let new_kvs = || (0..n).map(|_| KvCache::new(&cfg)).collect::<Vec<_>>();
                    // Last-row pass, all-rows pass, sequential oracle.
                    let (mut kvs_m, mut kvs_a, mut kvs_s) = (new_kvs(), new_kvs(), new_kvs());
                    for (i, &(ctx, _)) in case.iter().enumerate() {
                        for p in 0..ctx {
                            let tok = ((5 * i + p) % 64) as u32;
                            oracle.forward_with_kv(&mut kvs_s[i], tok, p);
                            oracle.forward_with_kv(&mut kvs_m[i], tok, p);
                            oracle.forward_with_kv(&mut kvs_a[i], tok, p);
                        }
                    }

                    let mut tokens = Vec::new();
                    let mut counts = Vec::new();
                    let mut starts = Vec::new();
                    for (i, &(ctx, run)) in case.iter().enumerate() {
                        counts.push(run);
                        starts.push(ctx);
                        for off in 0..run {
                            tokens.push(((11 * i + 3 * off + 1) % 64) as u32);
                        }
                    }

                    let mut refs: Vec<&mut KvCache> = kvs_m.iter_mut().collect();
                    let got = mixed
                        .forward_runs_with_kv(
                            refs.as_mut_slice(),
                            &tokens,
                            &counts,
                            &starts,
                            Logits::LastRow,
                        )
                        .to_vec();
                    assert_eq!(got.len(), n * vocab);
                    let mut refs: Vec<&mut KvCache> = kvs_a.iter_mut().collect();
                    let all = mixed
                        .forward_runs_with_kv(
                            refs.as_mut_slice(),
                            &tokens,
                            &counts,
                            &starts,
                            Logits::AllRows,
                        )
                        .to_vec();
                    assert_eq!(all.len(), tokens.len() * vocab);

                    // Oracle: feed each sequence's run token-by-token. Every
                    // row must match the all-rows pass; the run's last row
                    // must match the last-row pass.
                    let mut row = 0usize;
                    for (i, &(ctx, run)) in case.iter().enumerate() {
                        let mut want = Vec::new();
                        for off in 0..run {
                            want = oracle
                                .forward_with_kv(&mut kvs_s[i], tokens[row], ctx + off)
                                .to_vec();
                            assert_eq!(
                                &all[row * vocab..(row + 1) * vocab],
                                &want[..],
                                "{mode:?} case {case:?} seq {i} row {off} diverged ({strategy:?})"
                            );
                            row += 1;
                        }
                        assert_eq!(
                            &got[i * vocab..(i + 1) * vocab],
                            &want[..],
                            "{mode:?} case {case:?} seq {i} diverged ({strategy:?})"
                        );
                        // KV contents must match too: decode again and compare.
                        let probe = ((i + 9) % 64) as u32;
                        let pos = ctx + run;
                        let m = mixed.forward_with_kv(&mut kvs_m[i], probe, pos).to_vec();
                        let a = mixed.forward_with_kv(&mut kvs_a[i], probe, pos).to_vec();
                        let s = oracle.forward_with_kv(&mut kvs_s[i], probe, pos);
                        assert_eq!(&m[..], s, "{mode:?} case {case:?} seq {i} KV diverged");
                        assert_eq!(&a[..], s, "{mode:?} case {case:?} seq {i} KV diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn all_logits_rows_match_sequential_decode() {
        use crate::kv_cache::KvCache;
        let cfg = ModelConfig::test_tiny();
        for strategy in [
            MatVecStrategy::Serial,
            MatVecStrategy::Parallel { threads: 3 },
        ] {
            for case in [
                vec![(0usize, 4usize)],
                vec![(3, 1), (0, 4)],
                vec![(2, 2), (1, 3)],
            ] {
                let weights = TransformerWeights::synthetic(cfg, 7);
                let mut mixed = Transformer::new(weights.clone());
                mixed.set_strategy(strategy);
                let mut oracle = Transformer::new(weights);
                oracle.set_strategy(strategy);

                let n = case.len();
                let mut kvs_m: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
                let mut kvs_s: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
                for (i, &(ctx, _)) in case.iter().enumerate() {
                    for p in 0..ctx {
                        let tok = ((5 * i + p) % 64) as u32;
                        oracle.forward_with_kv(&mut kvs_s[i], tok, p);
                        oracle.forward_with_kv(&mut kvs_m[i], tok, p);
                    }
                }

                let mut tokens = Vec::new();
                let mut counts = Vec::new();
                let mut starts = Vec::new();
                for (i, &(ctx, run)) in case.iter().enumerate() {
                    counts.push(run);
                    starts.push(ctx);
                    for off in 0..run {
                        tokens.push(((11 * i + 3 * off + 1) % 64) as u32);
                    }
                }

                let mut refs: Vec<&mut KvCache> = kvs_m.iter_mut().collect();
                let got = mixed
                    .forward_runs_with_kv(
                        refs.as_mut_slice(),
                        &tokens,
                        &counts,
                        &starts,
                        Logits::AllRows,
                    )
                    .to_vec();
                assert_eq!(got.len(), tokens.len() * cfg.vocab_size);

                // Every row's logits must match the sequential decode of
                // that prefix — this is what makes speculative
                // verification exact rather than approximate.
                let mut row = 0usize;
                for (i, &(ctx, run)) in case.iter().enumerate() {
                    for off in 0..run {
                        let want = oracle.forward_with_kv(&mut kvs_s[i], tokens[row], ctx + off);
                        assert_eq!(
                            &got[row * cfg.vocab_size..(row + 1) * cfg.vocab_size],
                            want,
                            "case {case:?} seq {i} row {off} diverged ({strategy:?})"
                        );
                        row += 1;
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "token rows must match run counts")]
    fn mismatched_run_counts_panic() {
        use crate::kv_cache::KvCache;
        let cfg = ModelConfig::test_tiny();
        let mut t = model();
        let mut kv = KvCache::new(&cfg);
        let mut refs = [&mut kv];
        t.forward_runs_with_kv(refs.as_mut_slice(), &[1, 2, 3], &[2], &[0], Logits::LastRow);
    }

    #[test]
    fn batch_scratch_grows_and_shrinks_transparently() {
        use crate::kv_cache::KvCache;
        let cfg = ModelConfig::test_tiny();
        let mut t = model();
        let mut oracle = model();
        // Wide batch first, then a narrower one reusing the larger scratch.
        for n in [4usize, 2, 6, 1] {
            let mut kvs: Vec<KvCache> = (0..n).map(|_| KvCache::new(&cfg)).collect();
            let tokens: Vec<u32> = (0..n as u32).map(|i| 3 + i).collect();
            let positions = vec![0usize; n];
            let mut refs: Vec<&mut KvCache> = kvs.iter_mut().collect();
            let got = t
                .forward_runs_with_kv(
                    refs.as_mut_slice(),
                    &tokens,
                    &vec![1; n],
                    &positions,
                    Logits::LastRow,
                )
                .to_vec();
            for (i, &tok) in tokens.iter().enumerate() {
                let mut kv = KvCache::new(&cfg);
                let want = oracle.forward_with_kv(&mut kv, tok, 0);
                assert_eq!(&got[i * cfg.vocab_size..(i + 1) * cfg.vocab_size], want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        use crate::kv_cache::KvCache;
        let mut t = model();
        let mut refs: Vec<&mut KvCache> = Vec::new();
        t.forward_runs_with_kv(refs.as_mut_slice(), &[], &[], &[], Logits::LastRow);
    }

    #[test]
    #[should_panic(expected = "outside context window")]
    fn pos_overflow_panics() {
        let mut t = model();
        t.forward(0, 32);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn bad_token_panics() {
        let mut t = model();
        t.forward(64, 0);
    }

    #[test]
    fn context_len_advances() {
        let mut t = model();
        assert_eq!(t.context_len(), 0);
        t.forward(1, 0);
        assert_eq!(t.context_len(), 1);
        t.forward(2, 1);
        assert_eq!(t.context_len(), 2);
    }
}
