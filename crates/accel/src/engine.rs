//! The accelerator engine: executes the decode graph on the device model.
//!
//! Each [`Engine::decode_step`] does two things in lock-step, kernel by
//! kernel:
//!
//! * **Functional execution** — the same scalar kernels as the CPU
//!   reference run over an SSA value store, so the engine produces real
//!   logits. Fusion, placement, and pipelining only change *timing*;
//!   integration tests assert the logits match the reference.
//! * **Timing execution** — every kernel is decomposed into read/compute/
//!   write tiles (weight streaming per MPE row-wave, KV paging for
//!   attention, activation round-trips for HBM-placed values) and scheduled
//!   on the shared resource timeline by [`crate::pipeline::schedule_kernel`]
//!   under the active [`OptConfig`] discipline. Device counters (HBM bytes,
//!   MACs, SFU elements, DMA busy, launches, allocation stalls) accumulate
//!   into a per-step [`SimStats`] for the power model.

use std::collections::HashMap;
use std::sync::Arc;

use speedllm_telemetry as tel;

use speedllm_fpga_sim::cycles::Cycles;
use speedllm_fpga_sim::dma::{Direction, DmaConfig, DmaEngine};
use speedllm_fpga_sim::event::Timeline;
use speedllm_fpga_sim::hbm::{Hbm, HbmConfig};
use speedllm_fpga_sim::mpe::{Mpe, MpeConfig, Precision};
use speedllm_fpga_sim::power::PowerModel;
use speedllm_fpga_sim::resources::{
    check_fit, estimate_buffers, estimate_dma, estimate_mpe, estimate_sfu, OverBudget, Resources,
};
use speedllm_fpga_sim::sfu::{Sfu, SfuKind};
use speedllm_fpga_sim::stats::SimStats;
use speedllm_fpga_sim::trace::TraceBuffer;
use speedllm_llama::forward::Logits;
use speedllm_llama::kv_cache::KvCache;
use speedllm_llama::ops;
use speedllm_llama::quant::{QuantKind, QuantMatrix};
use speedllm_llama::weights::TransformerWeights;
use speedllm_pagedkv::{BlockConfig, BlockId, BlockTable, PagedKvArena};

use crate::fusion::{fuse_with_limit, Schedule};
use crate::ir::{build_decode_graph, Graph, OpKind, ValueId, WeightRef};
use crate::memplan::{plan, MemoryPlan, Placement};
use crate::opt::OptConfig;
use crate::pipeline::{schedule_kernel, PipelineConfig, TileCost, Unit, N_RESOURCES};

/// Device/design parameters of an accelerator instance. Derived from an
/// [`OptConfig`] by [`AccelConfig::for_opt`]; individually overridable for
/// ablation studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Matrix engine design point.
    pub mpe: MpeConfig,
    /// HBM stack parameters.
    pub hbm: HbmConfig,
    /// Read-side DMA engine.
    pub read_dma: DmaConfig,
    /// Write-side DMA engine.
    pub write_dma: DmaConfig,
    /// Host kernel-launch overhead (sequential dispatch).
    pub launch_overhead: Cycles,
    /// Exposed launch overhead with pipelined enqueue (streamed).
    pub streamed_launch_overhead: Cycles,
    /// Stall per fresh HBM buffer allocation (naive memory management).
    pub alloc_stall: Cycles,
    /// Tile double-buffer depth in streamed mode.
    pub double_buffer_depth: usize,
    /// URAM bytes dedicated to the activation-recycling pool.
    pub activation_pool_bytes: u64,
    /// KV pages of this many positions per attention read tile.
    pub kv_page_positions: usize,
    /// Storage precision of the HBM-resident KV cache (extension beyond
    /// the paper). Int8 stores Q8_0 rows — 4x less attention traffic at a
    /// small, perplexity-tested accuracy cost; values are dequantized on
    /// read, exactly as the hardware would.
    pub kv_precision: Precision,
    /// Composite-kernel depth limit handed to the fusion pass.
    pub fusion_max_ops: usize,
    /// Prompt tokens processed per device pass during prefill (chunked
    /// prefill, an extension beyond the paper). 1 = paper-faithful
    /// token-at-a-time prefill; larger values amortize weight streaming
    /// across the chunk. Capped at 64 by the on-chip staging limit.
    pub prefill_chunk: usize,
    /// Run the *functional* matmul math through the real three-stage
    /// thread pipeline ([`crate::pipeline::dataflow`]) instead of the
    /// serial kernel. Numerically identical (disjoint row tiles); it
    /// demonstrates on the host CPU the same read–compute–write overlap
    /// the timing model charges for.
    pub functional_dataflow: bool,
    /// Energy model.
    pub power: PowerModel,
}

impl AccelConfig {
    /// The shipped design point for an optimization selection.
    ///
    /// The data-stream co-design also widens the DMA striping: a streamed
    /// design instantiates separate wide read/write engines (24 + 8
    /// pseudo-channels), while the naive baseline is a single-port-style
    /// design on 6 channels — the footprint a first-pass HLS implementation
    /// actually has.
    #[must_use]
    pub fn for_opt(opt: &OptConfig) -> Self {
        let mpe = match opt.precision {
            Precision::Fp32 => MpeConfig::u280_fp32(),
            Precision::Int8 => MpeConfig::u280_int8(),
            Precision::Int4 => MpeConfig::u280_int4(),
        };
        let mut hbm = HbmConfig::u280();
        if opt.precision != Precision::Fp32 {
            // Quantized weight streams move in group-sized transfers (32 B
            // Q8_0 / 16 B Q4_0 payloads), so the design point narrows the
            // burst to halve padding waste on those small reads.
            hbm.burst_bytes = 32;
        }
        let (rd_ch, wr_ch) = if opt.stream_parallel { (24, 8) } else { (8, 8) };
        let pipelined = opt.stream_parallel;
        Self {
            mpe,
            hbm,
            read_dma: DmaConfig {
                channels: rd_ch,
                setup_cycles: 16,
                pipelined,
            },
            write_dma: DmaConfig {
                channels: wr_ch,
                setup_cycles: 16,
                pipelined,
            },
            launch_overhead: Cycles(240),
            streamed_launch_overhead: Cycles(40),
            alloc_stall: Cycles(320),
            double_buffer_depth: 2,
            activation_pool_bytes: 2 << 20,
            kv_page_positions: 32,
            kv_precision: Precision::Fp32,
            fusion_max_ops: crate::fusion::MAX_OPS_PER_KERNEL,
            prefill_chunk: 1,
            functional_dataflow: false,
            power: PowerModel::u280(),
        }
    }

    /// Fabric cost estimate of this design point.
    #[must_use]
    pub fn resource_usage(&self) -> Resources {
        let mut total = estimate_mpe(&self.mpe)
            .plus(estimate_dma(self.read_dma.channels))
            .plus(estimate_dma(self.write_dma.channels));
        for kind in SfuKind::ALL {
            total = total.plus(estimate_sfu(kind));
        }
        // Tile double buffers in BRAM + activation pool in URAM.
        let tile_buf_bytes = (self.double_buffer_depth as u64 + 1) * 256 * 1024;
        total.plus(estimate_buffers(tile_buf_bytes, self.activation_pool_bytes))
    }

    /// Checks the design fits the U280.
    pub fn validate(&self) -> Result<(), OverBudget> {
        check_fit(&self.resource_usage(), &Resources::u280_budget())
    }
}

/// Computes a matvec through the three-stage dataflow pipeline: the READ
/// stage slices a row-wave of the weight matrix, COMPUTE runs the dot
/// products, WRITE commits the rows — the software twin of the device's
/// streamed iteration. Row tiles are disjoint, so the result is bit-equal
/// to the serial kernel.
fn dataflow_matvec(out: &mut [f32], w: &[f32], x: &[f32], rows: usize, cols: usize, wave: usize) {
    let wave = wave.max(1);
    let n_tiles = rows.div_ceil(wave);
    crate::pipeline::dataflow::run(
        n_tiles,
        2,
        |i| {
            let r0 = i * wave;
            let r1 = (r0 + wave).min(rows);
            (r0, &w[r0 * cols..r1 * cols])
        },
        |_, (r0, wslice)| {
            let n = wslice.len() / cols;
            let mut part = vec![0.0f32; n];
            speedllm_llama::ops::matvec(&mut part, wslice, x, n, cols);
            (r0, part)
        },
        |_, (r0, part)| {
            out[r0..r0 + part.len()].copy_from_slice(&part);
        },
    );
}

/// Where one sequence's K/V rows live: a private contiguous cache, or a
/// per-sequence block table over the engine's shared [`PagedKvArena`].
/// The indirection is functional-only — the timing model already charges
/// page-granular KV traffic either way, so paged and flat sequences cost
/// the same cycles and produce bit-identical logits.
pub enum SeqKv {
    /// Contiguous per-sequence cache (single-tenant and slot-pool serving).
    Flat(KvCache),
    /// Logical position → physical block mapping into the engine's arena
    /// (paged serving with prefix sharing).
    Paged(BlockTable),
}

/// Per-sequence functional state: the KV storage and the SSA value store.
/// One [`Engine`] owns a default sequence (used by [`Engine::decode_step`]);
/// additional sequences can be created for batched serving via
/// [`Engine::new_sequence`] + [`Engine::forward_runs`].
pub struct SequenceState {
    kv: SeqKv,
    values: Vec<Option<Vec<f32>>>,
}

impl SequenceState {
    fn new(config: &speedllm_llama::config::ModelConfig, n_values: usize) -> Self {
        Self {
            kv: SeqKv::Flat(KvCache::new(config)),
            values: vec![None; n_values],
        }
    }

    fn new_paged(block_size: usize, n_values: usize) -> Self {
        Self {
            kv: SeqKv::Paged(BlockTable::new(block_size)),
            values: vec![None; n_values],
        }
    }

    /// Number of positions already decoded into this sequence.
    #[must_use]
    pub fn context_len(&self) -> usize {
        match &self.kv {
            SeqKv::Flat(kv) => kv.len(),
            SeqKv::Paged(table) => table.len(),
        }
    }

    /// Clears the sequence for reuse. A paged sequence must have had its
    /// block chain stripped (released back to the allocator) first.
    pub fn reset(&mut self) {
        match &mut self.kv {
            SeqKv::Flat(kv) => kv.reset(),
            SeqKv::Paged(table) => table.reset(),
        }
    }

    /// Rolls the sequence back to `len` positions (no-op past the current
    /// context). Flat storage truncates in place; paged storage pops the
    /// whole blocks past the keep point and returns them for the owner to
    /// release — the allocator decides whether a popped block actually
    /// frees (it may still be CoW-shared with another sequence).
    /// Speculative decoding uses this to discard rejected draft rows.
    pub fn truncate(&mut self, len: usize) -> Vec<BlockId> {
        match &mut self.kv {
            SeqKv::Flat(kv) => {
                kv.truncate(len);
                Vec::new()
            }
            SeqKv::Paged(table) => table.rollback(len),
        }
    }

    /// The block table of a paged sequence (`None` for flat sequences).
    #[must_use]
    pub fn block_table(&self) -> Option<&BlockTable> {
        match &self.kv {
            SeqKv::Flat(_) => None,
            SeqKv::Paged(table) => Some(table),
        }
    }

    /// Mutable block table of a paged sequence.
    pub fn block_table_mut(&mut self) -> Option<&mut BlockTable> {
        match &mut self.kv {
            SeqKv::Flat(_) => None,
            SeqKv::Paged(table) => Some(table),
        }
    }

    fn value(&self, v: ValueId) -> &[f32] {
        self.values[v.0]
            .as_deref()
            .unwrap_or_else(|| panic!("value {v:?} not yet computed"))
    }
}

impl speedllm_llama::kv_cache::PoolSlot for SequenceState {
    fn reset_slot(&mut self) {
        self.reset();
        // Drop cached SSA values too: a recycled slot must not leak the
        // previous tenant's activations to a stale-value read.
        for v in &mut self.values {
            *v = None;
        }
    }

    fn slot_len(&self) -> usize {
        self.context_len()
    }

    fn poison_slot(&mut self) {
        // Paged storage is poisoned block-by-block as blocks are freed
        // (the arena owns the rows, and shared blocks may still be live).
        if let SeqKv::Flat(kv) = &mut self.kv {
            kv.poison();
        }
    }
}

/// Read view over either KV storage for the attention kernels.
enum KvCtx<'a> {
    Flat(&'a KvCache),
    Paged(&'a PagedKvArena, &'a BlockTable),
}

impl KvCtx<'_> {
    #[inline]
    fn key_head(&self, layer: usize, t: usize, kv_head: usize) -> &[f32] {
        match self {
            KvCtx::Flat(kv) => kv.key_head(layer, t, kv_head),
            KvCtx::Paged(arena, table) => {
                let (b, s) = table.locate(t);
                arena.key_head_at(layer, b, s, kv_head)
            }
        }
    }

    #[inline]
    fn value_head(&self, layer: usize, t: usize, kv_head: usize) -> &[f32] {
        match self {
            KvCtx::Flat(kv) => kv.value_head(layer, t, kv_head),
            KvCtx::Paged(arena, table) => {
                let (b, s) = table.locate(t);
                arena.value_head_at(layer, b, s, kv_head)
            }
        }
    }
}

/// Result of one decode step.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Logits over the vocabulary.
    pub logits: Vec<f32>,
    /// Makespan of the step.
    pub cycles: Cycles,
    /// Device activity of the step.
    pub stats: SimStats,
}

/// Construction errors.
#[derive(Debug)]
pub enum EngineError {
    /// The design point does not fit the device.
    OverBudget(OverBudget),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::OverBudget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The simulated SpeedLLM accelerator bound to one model.
pub struct Engine {
    weights: Arc<TransformerWeights>,
    opt: OptConfig,
    cfg: AccelConfig,
    graph: Graph,
    schedule: Schedule,
    plan: MemoryPlan,
    // Device component models (counters accumulate across steps).
    hbm: Hbm,
    mpe: Mpe,
    sfu: Sfu,
    dma_rd: DmaEngine,
    dma_wr: DmaEngine,
    launches: u64,
    stalls: u64,
    // Functional state of the default (single-session) sequence.
    seq: SequenceState,
    /// Shared physical KV store for paged sequences; `None` until
    /// [`Engine::enable_paged_kv`]. The default sequence stays flat.
    paged: Option<PagedKvArena>,
    quant: HashMap<WeightRef, QuantMatrix>,
    // Optional capture of the next step's timeline.
    trace: Option<TraceBuffer>,
}

impl Engine {
    /// Builds an engine for `weights` under `opt`, using the shipped
    /// design point.
    pub fn new(weights: Arc<TransformerWeights>, opt: OptConfig) -> Result<Self, EngineError> {
        Self::with_config(weights, opt, AccelConfig::for_opt(&opt))
    }

    /// Builds an engine with an explicit design point (ablations).
    pub fn with_config(
        weights: Arc<TransformerWeights>,
        opt: OptConfig,
        cfg: AccelConfig,
    ) -> Result<Self, EngineError> {
        cfg.validate().map_err(EngineError::OverBudget)?;
        let graph = build_decode_graph(&weights.config);
        let schedule = fuse_with_limit(&graph, opt.operator_fusion, cfg.fusion_max_ops);
        let plan = plan(
            &graph,
            &schedule,
            opt.memory_reuse,
            cfg.activation_pool_bytes,
        );
        if tel::enabled() {
            let rep = schedule.report(&graph);
            tel::metrics::gauge_set("accel.schedule_kernels", rep.kernels as f64);
            tel::metrics::gauge_set("accel.fused_values", rep.internal_values as f64);
            tel::metrics::gauge_set("accel.memplan_ocm_values", plan.ocm_values() as f64);
            tel::metrics::gauge_set("accel.memplan_hbm_values", plan.hbm_values() as f64);
        }
        let seq = SequenceState::new(&weights.config, graph.values.len());
        Ok(Self {
            weights,
            opt,
            cfg,
            graph,
            schedule,
            plan,
            hbm: Hbm::new(cfg.hbm),
            mpe: Mpe::new(cfg.mpe),
            sfu: Sfu::new(),
            dma_rd: DmaEngine::new(cfg.read_dma, Direction::Read),
            dma_wr: DmaEngine::new(cfg.write_dma, Direction::Write),
            launches: 0,
            stalls: 0,
            seq,
            paged: None,
            quant: HashMap::new(),
            trace: None,
        })
    }

    /// The active optimization selection.
    #[must_use]
    pub fn opt(&self) -> &OptConfig {
        &self.opt
    }

    /// The design point.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// The decode graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The fused schedule.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The memory plan.
    #[must_use]
    pub fn memory_plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// The power model in use.
    #[must_use]
    pub fn power_model(&self) -> &PowerModel {
        &self.cfg.power
    }

    /// Starts capturing the next decode step's timeline into a trace
    /// buffer of `capacity` events.
    pub fn capture_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceBuffer::new(capacity));
    }

    /// Takes the captured trace, if any.
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.trace.take()
    }

    /// Clears the default sequence's KV cache.
    pub fn reset(&mut self) {
        self.seq.reset();
    }

    /// Context length of the default sequence.
    #[must_use]
    pub fn context_len(&self) -> usize {
        self.seq.context_len()
    }

    /// Creates an empty sequence for batched serving: paged when
    /// [`Engine::enable_paged_kv`] has been called, flat otherwise.
    #[must_use]
    pub fn new_sequence(&self) -> SequenceState {
        match &self.paged {
            Some(arena) => SequenceState::new_paged(arena.block_size(), self.graph.values.len()),
            None => SequenceState::new(&self.graph.config, self.graph.values.len()),
        }
    }

    /// Switches serving sequences to paged KV storage: allocates the
    /// shared physical arena and makes every subsequent
    /// [`Engine::new_sequence`] a block-table sequence. The scheduler owns
    /// the block allocator and installs chains into each table; the engine
    /// only resolves the indirection. The default (single-tenant) sequence
    /// stays flat.
    pub fn enable_paged_kv(&mut self, blocks: BlockConfig) {
        self.paged = Some(PagedKvArena::new(&self.graph.config, blocks));
    }

    /// Geometry of the paged arena, when enabled.
    #[must_use]
    pub fn paged_block_config(&self) -> Option<BlockConfig> {
        self.paged.as_ref().map(PagedKvArena::block_config)
    }

    /// NaN-poisons freed blocks' arena rows (debug reuse hygiene; no-op
    /// without a paged arena).
    pub fn poison_blocks(&mut self, blocks: &[BlockId]) {
        if let Some(arena) = &mut self.paged {
            arena.poison_blocks(blocks);
        }
    }

    /// Weight bytes streamed per element in the active precision
    /// (including group-scale overhead for the quantized kinds).
    fn matrix_bytes(&self, rows: usize, cols: usize) -> u64 {
        match self.opt.precision {
            Precision::Fp32 => (rows * cols * 4) as u64,
            // int8 payload + one f32 scale per 32-wide group per row.
            Precision::Int8 => (rows * cols + rows * cols.div_ceil(32) * 4) as u64,
            // two int4 elements per byte + the same per-group scales.
            Precision::Int4 => (rows * cols.div_ceil(2) + rows * cols.div_ceil(32) * 4) as u64,
        }
    }

    /// Bytes one device pass streams for the dense GEMM operands under the
    /// active weight precision — the compressed counterpart of
    /// `ModelConfig::gemm_weight_bytes`, and what the
    /// `accel.gemm_weight_bytes` telemetry adds per batched tick.
    fn gemm_stream_bytes(&self) -> u64 {
        let c = &self.graph.config;
        let (d, kv, h) = (c.dim, c.kv_dim(), c.hidden_dim);
        let per_layer = self.matrix_bytes(d, d) * 2 // wq, wo
            + self.matrix_bytes(kv, d) * 2 // wk, wv
            + self.matrix_bytes(h, d) * 2 // w1, w3
            + self.matrix_bytes(d, h); // w2
        per_layer * c.n_layers as u64 + self.matrix_bytes(c.vocab_size, d)
    }

    /// Bytes one K or V row of `kv_dim` elements occupies in HBM under the
    /// configured KV precision (quantized payload + group scales).
    fn kv_row_bytes(&self) -> u64 {
        let kv_dim = self.graph.config.kv_dim();
        match self.cfg.kv_precision {
            Precision::Fp32 => (kv_dim * 4) as u64,
            Precision::Int8 => (kv_dim + kv_dim.div_ceil(32) * 4) as u64,
            Precision::Int4 => (kv_dim.div_ceil(2) + kv_dim.div_ceil(32) * 4) as u64,
        }
    }

    fn resolve_matrix(w: &TransformerWeights, r: WeightRef) -> (&[f32], usize, usize) {
        let c = &w.config;
        let d = c.dim;
        let kv = c.kv_dim();
        let h = c.hidden_dim;
        match r {
            WeightRef::Wq(l) => (&w.layers[l].wq, d, d),
            WeightRef::Wk(l) => (&w.layers[l].wk, kv, d),
            WeightRef::Wv(l) => (&w.layers[l].wv, kv, d),
            WeightRef::Wo(l) => (&w.layers[l].wo, d, d),
            WeightRef::W1(l) => (&w.layers[l].w1, h, d),
            WeightRef::W2(l) => (&w.layers[l].w2, d, h),
            WeightRef::W3(l) => (&w.layers[l].w3, h, d),
            WeightRef::Classifier => (w.classifier(), c.vocab_size, d),
            _ => panic!("{r:?} is not a matrix weight"),
        }
    }

    fn resolve_gain(w: &TransformerWeights, r: WeightRef) -> &[f32] {
        match r {
            WeightRef::RmsAtt(l) => &w.layers[l].rms_att,
            WeightRef::RmsFfn(l) => &w.layers[l].rms_ffn,
            WeightRef::RmsFinal => &w.rms_final,
            _ => panic!("{r:?} is not a norm gain"),
        }
    }

    /// Functionally executes one op into a sequence's value store.
    /// `arena` is the shared paged store; required iff `seq` is paged.
    #[allow(clippy::too_many_arguments)]
    fn exec_op(
        graph: &Graph,
        weights: &TransformerWeights,
        quant: &mut HashMap<WeightRef, QuantMatrix>,
        cfg: &AccelConfig,
        opt: &OptConfig,
        seq: &mut SequenceState,
        arena: Option<&mut PagedKvArena>,
        op_idx: usize,
        token: u32,
        pos: usize,
    ) {
        let op = graph.ops[op_idx].clone();
        match op.kind {
            OpKind::Embed => {
                let row = weights.embedding_row(token as usize).to_vec();
                seq.values[op.output().0] = Some(row);
            }
            OpKind::RmsNorm => {
                let gain = Self::resolve_gain(weights, op.weight.expect("norm weight"));
                let x = seq.value(op.inputs[0]);
                let mut out = vec![0.0f32; x.len()];
                ops::rmsnorm(&mut out, x, gain);
                seq.values[op.output().0] = Some(out);
            }
            OpKind::MatMul { rows, cols } => {
                let wref = op.weight.expect("matmul weight");
                let x = seq.value(op.inputs[0]).to_vec();
                let mut out = vec![0.0f32; rows];
                match opt.precision {
                    Precision::Fp32 => {
                        let (w, r, c) = Self::resolve_matrix(weights, wref);
                        debug_assert_eq!((r, c), (rows, cols));
                        if cfg.functional_dataflow && rows >= 4 * cfg.mpe.lanes {
                            dataflow_matvec(&mut out, w, &x, rows, cols, cfg.mpe.lanes);
                        } else {
                            ops::matvec(&mut out, w, &x, rows, cols);
                        }
                    }
                    Precision::Int8 | Precision::Int4 => {
                        let kind = if opt.precision == Precision::Int8 {
                            QuantKind::Int8
                        } else {
                            QuantKind::Int4
                        };
                        let qm = quant.entry(wref).or_insert_with(|| {
                            let (w, r, c) = Self::resolve_matrix(weights, wref);
                            QuantMatrix::quantize_with(w, r, c, kind)
                        });
                        qm.matvec(&mut out, &x);
                    }
                }
                seq.values[op.output().0] = Some(out);
            }
            OpKind::Rope { head_dim } => {
                let mut v = seq.value(op.inputs[0]).to_vec();
                ops::rope_inplace(&mut v, pos, head_dim, ops::ROPE_THETA);
                seq.values[op.output().0] = Some(v);
            }
            OpKind::KvAppend { layer } => {
                let mut k = seq.value(op.inputs[0]).to_vec();
                let mut v = seq.value(op.inputs[1]).to_vec();
                if cfg.kv_precision == Precision::Int8 {
                    // The device stores Q8_0 rows and dequantizes on read;
                    // the functional mirror applies the same round-trip so
                    // the accuracy effect is faithful.
                    k = speedllm_llama::quant::QuantTensor::quantize(&k).dequantize();
                    v = speedllm_llama::quant::QuantTensor::quantize(&v).dequantize();
                }
                match &mut seq.kv {
                    SeqKv::Flat(kv) => kv.store(layer, pos, &k, &v),
                    SeqKv::Paged(table) => {
                        let arena = arena.expect("paged sequence without a paged arena");
                        let (b, s) = table.locate(pos);
                        arena.store_at(layer, b, s, &k, &v);
                        if layer == graph.config.n_layers - 1 {
                            table.note_stored(pos);
                        }
                    }
                }
            }
            OpKind::Attention {
                layer,
                n_heads,
                n_kv_heads,
                head_dim,
            } => {
                let q = seq.value(op.inputs[0]).to_vec();
                let gqa = n_heads / n_kv_heads;
                let mut out = vec![0.0f32; n_heads * head_dim];
                let mut scores = vec![0.0f32; pos + 1];
                let ctx = match (&seq.kv, arena.as_deref()) {
                    (SeqKv::Flat(kv), _) => KvCtx::Flat(kv),
                    (SeqKv::Paged(table), Some(arena)) => KvCtx::Paged(arena, table),
                    (SeqKv::Paged(_), None) => {
                        panic!("paged sequence without a paged arena")
                    }
                };
                for h in 0..n_heads {
                    let kv_head = h / gqa;
                    let qh = &q[h * head_dim..(h + 1) * head_dim];
                    ops::attention_scores(
                        &mut scores,
                        qh,
                        |t| ctx.key_head(layer, t, kv_head),
                        pos,
                    );
                    ops::softmax(&mut scores[..pos + 1]);
                    ops::attention_mix(
                        &mut out[h * head_dim..(h + 1) * head_dim],
                        &scores,
                        |t| ctx.value_head(layer, t, kv_head),
                        pos,
                    );
                }
                drop(ctx);
                seq.values[op.output().0] = Some(out);
            }
            OpKind::Silu => {
                let mut v = seq.value(op.inputs[0]).to_vec();
                for x in &mut v {
                    *x = ops::silu(*x);
                }
                seq.values[op.output().0] = Some(v);
            }
            OpKind::ElemMul => {
                let mut a = seq.value(op.inputs[0]).to_vec();
                let b = seq.value(op.inputs[1]);
                for (x, &y) in a.iter_mut().zip(b) {
                    *x *= y;
                }
                seq.values[op.output().0] = Some(a);
            }
            OpKind::Add => {
                let mut a = seq.value(op.inputs[0]).to_vec();
                let b = seq.value(op.inputs[1]);
                ops::add_inplace(&mut a, b);
                seq.values[op.output().0] = Some(a);
            }
        }
    }

    /// Builds the timing tiles of one op for a chunk of `positions`
    /// processed back-to-back.
    ///
    /// Batching is where chunked prefill wins: matrix weights are streamed
    /// from HBM **once** per tile and applied to every position in the
    /// chunk, so the read cost is amortized while compute scales with the
    /// chunk length. Per-position work (SFU ops, KV paging) scales
    /// linearly.
    fn op_tiles(&mut self, op_idx: usize, positions: &[usize], tiles: &mut Vec<TileCost>) {
        let op = &self.graph.ops[op_idx];
        let batch = positions.len().max(1);
        // Sums SFU cost over the chunk (counters accumulate per call).
        let sfu_batched = |sfu: &mut Sfu, kind: SfuKind, n: usize| -> Cycles {
            let mut total = Cycles::ZERO;
            for _ in 0..batch {
                total += sfu.run(kind, n);
            }
            total
        };
        match op.kind {
            OpKind::Embed => {
                let bytes = (batch * self.graph.config.dim * 4) as u64;
                let read = self.dma_rd.transfer(&mut self.hbm, bytes);
                tiles.push(TileCost {
                    read,
                    compute: Cycles::ZERO,
                    write: Cycles::ZERO,
                    unit: Unit::Sfu,
                });
            }
            OpKind::RmsNorm => {
                // Gain vector is tiny; stream it once with the op.
                let n = self.graph.elems(op.inputs[0]);
                let read = self.dma_rd.transfer(&mut self.hbm, (n * 4) as u64);
                let compute = sfu_batched(&mut self.sfu, SfuKind::RmsNorm, n);
                tiles.push(TileCost {
                    read,
                    compute,
                    write: Cycles::ZERO,
                    unit: Unit::Sfu,
                });
            }
            OpKind::MatMul { rows, cols } => {
                // Stream weights one row-wave at a time; each wave is
                // applied to every position in the chunk.
                let wave = self.cfg.mpe.lanes;
                let mut r = 0usize;
                while r < rows {
                    let take = wave.min(rows - r);
                    let bytes = self.matrix_bytes(take, cols);
                    let read = self.dma_rd.transfer(&mut self.hbm, bytes);
                    let mut compute = Cycles::ZERO;
                    for _ in 0..batch {
                        compute += self.mpe.run_tile(take, cols);
                    }
                    tiles.push(TileCost {
                        read,
                        compute,
                        write: Cycles::ZERO,
                        unit: Unit::Mpe,
                    });
                    r += take;
                }
            }
            OpKind::Rope { .. } => {
                let n = self.graph.elems(op.inputs[0]);
                let compute = sfu_batched(&mut self.sfu, SfuKind::Rope, n);
                tiles.push(TileCost {
                    read: Cycles::ZERO,
                    compute,
                    write: Cycles::ZERO,
                    unit: Unit::Sfu,
                });
            }
            OpKind::KvAppend { .. } => {
                let bytes = batch as u64 * 2 * self.kv_row_bytes();
                let write = self.dma_wr.transfer(&mut self.hbm, bytes);
                tiles.push(TileCost {
                    read: Cycles::ZERO,
                    compute: Cycles::ZERO,
                    write,
                    unit: Unit::Sfu,
                });
            }
            OpKind::Attention {
                n_heads, head_dim, ..
            } => {
                // Page the cached context in from HBM; compute scores+mix
                // per page on the MPE, softmax on the SFU at the end. Each
                // chunk position attends to its own (causal) context; pages
                // already resident for earlier positions are re-read —
                // a deliberate simplification that under-states the chunk
                // benefit rather than overstating it.
                let page = self.cfg.kv_page_positions.max(1);
                let mut softmax_elems = 0usize;
                for &pos in positions {
                    let ctx = pos + 1;
                    let mut t = 0usize;
                    while t < ctx {
                        let take = page.min(ctx - t);
                        let bytes = 2 * take as u64 * self.kv_row_bytes();
                        let read = self.dma_rd.transfer(&mut self.hbm, bytes);
                        // Scores (q·k) and mix (p·v) for every query head
                        // over this page: 2 dot-product sets.
                        let compute = self.mpe.run_tile(2 * n_heads * take, head_dim);
                        tiles.push(TileCost {
                            read,
                            compute,
                            write: Cycles::ZERO,
                            unit: Unit::Mpe,
                        });
                        t += take;
                    }
                    softmax_elems += n_heads * ctx;
                }
                let softmax = self.sfu.run(SfuKind::Softmax, softmax_elems);
                tiles.push(TileCost {
                    read: Cycles::ZERO,
                    compute: softmax,
                    write: Cycles::ZERO,
                    unit: Unit::Sfu,
                });
            }
            OpKind::Silu => {
                let n = self.graph.elems(op.inputs[0]);
                let compute = sfu_batched(&mut self.sfu, SfuKind::Silu, n);
                tiles.push(TileCost {
                    read: Cycles::ZERO,
                    compute,
                    write: Cycles::ZERO,
                    unit: Unit::Sfu,
                });
            }
            OpKind::ElemMul => {
                let n = self.graph.elems(op.inputs[0]);
                let compute = sfu_batched(&mut self.sfu, SfuKind::Mul, n);
                tiles.push(TileCost {
                    read: Cycles::ZERO,
                    compute,
                    write: Cycles::ZERO,
                    unit: Unit::Sfu,
                });
            }
            OpKind::Add => {
                let n = self.graph.elems(op.inputs[0]);
                let compute = sfu_batched(&mut self.sfu, SfuKind::Add, n);
                tiles.push(TileCost {
                    read: Cycles::ZERO,
                    compute,
                    write: Cycles::ZERO,
                    unit: Unit::Sfu,
                });
            }
        }
    }

    /// Snapshot of the device counters, for per-step deltas.
    fn counters_snapshot(&self) -> SimStats {
        SimStats {
            total_cycles: Cycles::ZERO,
            hbm: *self.hbm.counters(),
            ocm_read_bytes: 0,
            ocm_write_bytes: 0,
            mpe: *self.mpe.counters(),
            sfu: *self.sfu.counters(),
            dma_busy_cycles: self.dma_rd.counters().busy_cycles * self.cfg.read_dma.channels as u64
                + self.dma_wr.counters().busy_cycles * self.cfg.write_dma.channels as u64,
            kernel_launches: self.launches,
            alloc_stalls: self.stalls,
        }
    }

    /// Runs one decode step for `token` at `pos` on the engine's default
    /// sequence.
    pub fn decode_step(&mut self, token: u32, pos: usize) -> StepResult {
        self.pass(None, &[&[token]], &[pos], Logits::LastRow).1
    }

    /// Processes a chunk of consecutive prompt tokens starting at
    /// `start_pos` on the engine's default sequence, in one device pass
    /// (chunked prefill — an extension beyond the paper; see DESIGN.md).
    /// Weight streams are amortized over the chunk, so prefill cost grows
    /// sub-linearly in chunk length. Returns the logits after the **last**
    /// token of the chunk.
    pub fn prefill_chunk(&mut self, tokens: &[u32], start_pos: usize) -> StepResult {
        self.pass(None, &[tokens], &[start_pos], Logits::LastRow).1
    }

    /// Schedules every kernel for a pass over `positions` (a contiguous
    /// prefill chunk or one position per batched sequence) and returns the
    /// makespan plus on-chip read/write byte counts.
    fn timing_pass(&mut self, positions: &[usize]) -> (Cycles, u64, u64) {
        let _g = tel::span("engine", "timing_pass").arg("batch", positions.len() as i64);
        let batch = positions.len() as u64;
        let mut ocm_read = 0u64;
        let mut ocm_write = 0u64;
        // Batched locally so the registry lock is taken once per pass.
        let mut fusion_hits = 0u64;
        let mut ocm_hits = 0u64;
        let mut tl = Timeline::new(N_RESOURCES);
        let pipe = PipelineConfig {
            streamed: self.opt.stream_parallel,
            depth: self.cfg.double_buffer_depth,
            launch: self.cfg.launch_overhead,
            streamed_launch: self.cfg.streamed_launch_overhead,
        };
        // When each materialized value becomes available.
        let mut avail: Vec<Cycles> = vec![Cycles::ZERO; self.graph.values.len()];
        // In the naive host loop every kernel strictly follows its
        // predecessor; the streaming runtime enqueues ahead.
        let mut prev_kernel_end = Cycles::ZERO;

        let kernels = self.schedule.kernels.clone();
        for kernel in &kernels {
            self.launches += 1;
            if kernel.ops.len() > 1 {
                fusion_hits += 1;
            }
            // External activation inputs: availability + load cost (one
            // activation instance per chunk position).
            let mut compute_ready = Cycles::ZERO;
            let mut extra_read = Cycles::ZERO; // HBM activation loads
            let mut read_ready = Cycles::ZERO;
            let produced_here: std::collections::HashSet<ValueId> = kernel
                .ops
                .iter()
                .flat_map(|&oi| self.graph.ops[oi].outputs.iter().copied())
                .collect();
            let mut external_inputs: Vec<ValueId> = Vec::new();
            for &oi in &kernel.ops {
                for &inp in &self.graph.ops[oi].inputs {
                    if !produced_here.contains(&inp) && !external_inputs.contains(&inp) {
                        external_inputs.push(inp);
                    }
                }
            }
            for &inp in &external_inputs {
                compute_ready = compute_ready.max(avail[inp.0]);
                let bytes = self.graph.values[inp.0].bytes() * batch;
                match self.plan.placement(inp) {
                    Placement::Hbm => {
                        extra_read += self.dma_rd.transfer(&mut self.hbm, bytes);
                        read_ready = read_ready.max(avail[inp.0]);
                    }
                    Placement::Ocm(_) => {
                        ocm_read += bytes;
                        ocm_hits += 1;
                    }
                    Placement::Internal => {}
                }
            }

            // Tiles for the member ops.
            let mut tiles: Vec<TileCost> = Vec::new();
            if extra_read > Cycles::ZERO {
                tiles.push(TileCost {
                    read: extra_read,
                    compute: Cycles::ZERO,
                    write: Cycles::ZERO,
                    unit: Unit::Sfu,
                });
            }
            for &oi in &kernel.ops {
                self.op_tiles(oi, positions, &mut tiles);
            }

            // Materialized outputs: placement costs.
            let mut out_write = Cycles::ZERO;
            for &oi in &kernel.ops {
                for &out in &self.graph.ops[oi].outputs {
                    let bytes = self.graph.values[out.0].bytes() * batch;
                    match self.plan.placement(out) {
                        Placement::Hbm => {
                            out_write += self.dma_wr.transfer(&mut self.hbm, bytes);
                            if !self.opt.memory_reuse {
                                self.stalls += 1;
                                // Allocation bookkeeping stalls the host
                                // before the transfer can be enqueued.
                                out_write += self.cfg.alloc_stall;
                            }
                        }
                        Placement::Ocm(_) => {
                            ocm_write += bytes;
                        }
                        Placement::Internal => {}
                    }
                }
            }
            if out_write > Cycles::ZERO {
                tiles.push(TileCost {
                    read: Cycles::ZERO,
                    compute: Cycles::ZERO,
                    write: out_write,
                    unit: Unit::Sfu,
                });
            }

            let host_ready = if self.opt.stream_parallel {
                Cycles::ZERO
            } else {
                prev_kernel_end
            };
            let timing = schedule_kernel(
                &mut tl,
                self.trace.as_mut(),
                &pipe,
                host_ready,
                read_ready,
                compute_ready,
                &tiles,
                &kernel.label,
            );
            prev_kernel_end = timing.outputs_ready;
            for &oi in &kernel.ops {
                for &out in &self.graph.ops[oi].outputs {
                    avail[out.0] = timing.outputs_ready;
                }
            }
        }
        tel::metrics::counter_add("accel.fusion_kernel_hits", fusion_hits);
        tel::metrics::counter_add("accel.memplan_ocm_hits", ocm_hits);
        (tl.makespan(), ocm_read, ocm_write)
    }

    /// Builds the per-step [`SimStats`] from a counter snapshot taken
    /// before the step.
    fn step_stats(
        &self,
        before: &SimStats,
        cycles: Cycles,
        ocm_read: u64,
        ocm_write: u64,
    ) -> SimStats {
        let after = self.counters_snapshot();
        SimStats {
            total_cycles: cycles,
            hbm: speedllm_fpga_sim::hbm::HbmCounters {
                read_bytes: after.hbm.read_bytes - before.hbm.read_bytes,
                write_bytes: after.hbm.write_bytes - before.hbm.write_bytes,
                read_transfers: after.hbm.read_transfers - before.hbm.read_transfers,
                write_transfers: after.hbm.write_transfers - before.hbm.write_transfers,
            },
            ocm_read_bytes: ocm_read,
            ocm_write_bytes: ocm_write,
            mpe: speedllm_fpga_sim::mpe::MpeCounters {
                macs: after.mpe.macs - before.mpe.macs,
                busy_cycles: after.mpe.busy_cycles - before.mpe.busy_cycles,
                tiles: after.mpe.tiles - before.mpe.tiles,
            },
            sfu: speedllm_fpga_sim::sfu::SfuCounters {
                elements: after.sfu.elements - before.sfu.elements,
                busy_cycles: after.sfu.busy_cycles - before.sfu.busy_cycles,
                ops: after.sfu.ops - before.sfu.ops,
            },
            dma_busy_cycles: after.dma_busy_cycles - before.dma_busy_cycles,
            kernel_launches: after.kernel_launches - before.kernel_launches,
            alloc_stalls: after.alloc_stalls - before.alloc_stalls,
        }
    }

    /// One run-based device pass over several independent sequences,
    /// each contributing a *run* of one or more consecutive tokens at its
    /// current context length: a decode step is a run of length 1, a
    /// prefill chunk a run of its chunk length, a speculative verify a
    /// pending token plus K drafts (Sarathi-style unified batching — see
    /// DESIGN.md §14). One `timing_pass` covers every row of
    /// every run, so the dense weights are streamed once for the whole
    /// pass. The functional pass stays token-sequential per sequence, so
    /// each row's logits are bit-identical to decoding that prefix one
    /// token at a time.
    ///
    /// Entry `i` of the returned logits is `runs[i]`'s last-row vector
    /// under [`Logits::LastRow`], or row-major `[runs[i].len() * vocab]`
    /// under [`Logits::AllRows`]. [`StepResult::logits`] holds the last
    /// row of the last run.
    ///
    /// # Panics
    /// Panics on an empty batch, mismatched lengths, an empty run, total
    /// rows above the staging limit (64), positions outside the context
    /// window, or tokens out of vocabulary.
    pub fn forward_runs(
        &mut self,
        seqs: &mut [&mut SequenceState],
        runs: &[&[u32]],
        logits: Logits,
    ) -> (Vec<Vec<f32>>, StepResult) {
        assert_eq!(seqs.len(), runs.len(), "one token run per sequence");
        let starts: Vec<usize> = seqs.iter().map(|s| s.context_len()).collect();
        self.pass(Some(seqs), runs, &starts, logits)
    }

    /// The one device pass behind every entry point: validate → functional
    /// pass → one [`Engine::timing_pass`] over every row → per-pass stats.
    /// `seqs = None` runs the single run on the engine's default sequence
    /// at the caller's explicit start position.
    fn pass(
        &mut self,
        seqs: Option<&mut [&mut SequenceState]>,
        runs: &[&[u32]],
        starts: &[usize],
        logits: Logits,
    ) -> (Vec<Vec<f32>>, StepResult) {
        let c = self.graph.config;
        assert!(!runs.is_empty(), "empty batch");
        let rows: usize = runs.iter().map(|r| r.len()).sum();
        assert!(
            rows <= 64,
            "pass of {rows} rows exceeds the on-chip staging limit (64)"
        );
        let mut positions = Vec::with_capacity(rows);
        for (i, (run, &start)) in runs.iter().zip(starts).enumerate() {
            assert!(!run.is_empty(), "empty chunk in run {i}");
            let last = start + run.len() - 1;
            assert!(
                last < c.seq_len,
                "pos {last} outside context window {}",
                c.seq_len
            );
            for &t in *run {
                assert!((t as usize) < c.vocab_size, "token {t} out of vocab");
            }
            positions.extend(start..=last);
        }
        let before = self.counters_snapshot();

        let mut exec = |seq: &mut SequenceState, run: &[u32], start: usize| {
            Self::exec_run(
                &self.graph,
                &self.weights,
                &mut self.quant,
                &self.cfg,
                &self.opt,
                seq,
                self.paged.as_mut(),
                run,
                start,
                logits,
            )
        };
        let all_logits: Vec<Vec<f32>> = match seqs {
            Some(seqs) => seqs
                .iter_mut()
                .zip(runs)
                .zip(starts)
                .map(|((seq, run), &start)| exec(seq, run, start))
                .collect(),
            None => vec![exec(&mut self.seq, runs[0], starts[0])],
        };

        let (cycles, ocm_read, ocm_write) = self.timing_pass(&positions);
        let stats = self.step_stats(&before, cycles, ocm_read, ocm_write);
        if tel::enabled() {
            // Same batched-GEMM accounting as the CPU path (`cpu.gemm_*`):
            // one device pass streams the dense weights once for every
            // row, so bytes-per-token falls with the rows carried.
            tel::metrics::counter_add("accel.gemm_weight_bytes", self.gemm_stream_bytes());
            tel::metrics::counter_add("accel.gemm_tokens", rows as u64);
            tel::metrics::gauge_set("accel.gemm_batch_width", rows as f64);
        }
        let last = all_logits.last().expect("non-empty batch");
        let logits = last[last.len() - c.vocab_size..].to_vec();
        (
            all_logits,
            StepResult {
                logits,
                cycles,
                stats,
            },
        )
    }

    /// Functional pass over one run: token-sequential, op order (causally
    /// exact; within a run later tokens attend to earlier ones through
    /// the KV cache, which KvAppend updates in program order). Returns the
    /// last row's logits, or every row's under [`Logits::AllRows`].
    #[allow(clippy::too_many_arguments)]
    fn exec_run(
        graph: &Graph,
        weights: &TransformerWeights,
        quant: &mut HashMap<WeightRef, QuantMatrix>,
        cfg: &AccelConfig,
        opt: &OptConfig,
        seq: &mut SequenceState,
        mut arena: Option<&mut PagedKvArena>,
        tokens: &[u32],
        start_pos: usize,
        logits: Logits,
    ) -> Vec<f32> {
        let mut out = Vec::new();
        for (i, &tok) in tokens.iter().enumerate() {
            for v in &mut seq.values {
                *v = None;
            }
            for oi in 0..graph.ops.len() {
                Self::exec_op(
                    graph,
                    weights,
                    quant,
                    cfg,
                    opt,
                    seq,
                    arena.as_deref_mut(),
                    oi,
                    tok,
                    start_pos + i,
                );
            }
            if logits == Logits::AllRows || i + 1 == tokens.len() {
                out.extend_from_slice(seq.value(graph.output()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedllm_llama::config::ModelConfig;
    use speedllm_llama::forward::Transformer;

    fn engine(opt: OptConfig) -> Engine {
        let w = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        Engine::new(w, opt).expect("engine must build")
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()))
    }

    #[test]
    fn all_paper_variants_fit_the_device() {
        for (_, opt) in OptConfig::paper_variants() {
            AccelConfig::for_opt(&opt)
                .validate()
                .expect("must fit U280");
        }
    }

    #[test]
    fn logits_match_reference_for_every_variant() {
        let weights = TransformerWeights::synthetic(ModelConfig::test_tiny(), 42);
        let mut reference = Transformer::new(weights.clone());
        let mut engines: Vec<Engine> = OptConfig::paper_variants()
            .into_iter()
            .map(|(_, opt)| Engine::new(Arc::new(weights.clone()), opt).unwrap())
            .collect();
        for pos in 0..5 {
            let token = (pos * 7 + 3) as u32;
            let expected = reference.forward(token, pos).to_vec();
            for e in &mut engines {
                let got = e.decode_step(token, pos);
                assert!(
                    max_diff(&expected, &got.logits) < 1e-4,
                    "{} diverged at pos {pos}",
                    e.opt().short_name()
                );
            }
        }
    }

    #[test]
    fn int8_logits_are_close_to_reference() {
        let weights = TransformerWeights::synthetic(ModelConfig::test_tiny(), 42);
        let mut reference = Transformer::new(weights.clone());
        let mut e = Engine::new(Arc::new(weights), OptConfig::full_int8()).unwrap();
        let expected = reference.forward(3, 0).to_vec();
        let got = e.decode_step(3, 0);
        // Quantized arithmetic: looser tolerance, but same ballpark.
        assert!(max_diff(&expected, &got.logits) < 0.15);
    }

    #[test]
    fn int4_logits_are_close_to_reference_and_cpu_int4() {
        let weights = TransformerWeights::synthetic(ModelConfig::test_tiny(), 42);
        let mut reference = Transformer::new(weights.clone());
        let mut e = Engine::new(Arc::new(weights.clone()), OptConfig::full_int4()).unwrap();
        let expected = reference.forward(3, 0).to_vec();
        let got = e.decode_step(3, 0);
        // 4-bit weights: looser still, but same ballpark.
        assert!(max_diff(&expected, &got.logits) < 0.6);
        // And bit-identical to the CPU fused dequant path — both stream the
        // same Q4_0 payload through the same accumulation order.
        let mut cpu = Transformer::new(weights);
        cpu.set_quant_mode(speedllm_llama::quant::QuantMode::Int4);
        assert_eq!(cpu.forward(3, 0).to_vec(), got.logits);
    }

    #[test]
    fn quantized_weight_traffic_is_compressed() {
        let mut f32e = engine(OptConfig::full());
        let mut i8e = engine(OptConfig::full_int8());
        let mut i4e = engine(OptConfig::full_int4());
        let rf = f32e.decode_step(0, 0).stats.hbm.read_bytes;
        let r8 = i8e.decode_step(0, 0).stats.hbm.read_bytes;
        let r4 = i4e.decode_step(0, 0).stats.hbm.read_bytes;
        // Weight reads dominate a decode step; int8 should cut the stream
        // to well under ⅓ of f32, and int4 below int8.
        assert!(r8 * 3 < rf, "int8 {r8} vs f32 {rf}");
        assert!(r4 < r8, "int4 {r4} vs int8 {r8}");
    }

    #[test]
    fn full_is_substantially_faster_than_unoptimized() {
        let mut full = engine(OptConfig::full());
        let mut unopt = engine(OptConfig::unoptimized());
        let cf = full.decode_step(1, 0).cycles;
        let cu = unopt.decode_step(1, 0).cycles;
        assert!(
            cu.0 > 2 * cf.0,
            "expected a large speedup, got full={cf} unopt={cu}"
        );
    }

    #[test]
    fn weight_traffic_matches_model_size() {
        let cfg = ModelConfig::test_tiny();
        let mut e = engine(OptConfig::full());
        let r = e.decode_step(0, 0);
        // Every matmul weight is streamed once per token; embeddings and
        // norms are small. HBM reads should be within 30% of param bytes
        // (the vocab-sized classifier dominates tiny configs).
        let weight_bytes = cfg.weight_bytes(4) as f64;
        let read = r.stats.hbm.read_bytes as f64;
        assert!(
            read > 0.6 * weight_bytes && read < 1.6 * weight_bytes,
            "read {read} vs weights {weight_bytes}"
        );
    }

    #[test]
    fn alloc_stalls_only_without_reuse() {
        let mut with = engine(OptConfig::full());
        let mut without = engine(OptConfig::no_reuse());
        assert_eq!(with.decode_step(0, 0).stats.alloc_stalls, 0);
        assert!(without.decode_step(0, 0).stats.alloc_stalls > 0);
    }

    #[test]
    fn launches_shrink_with_fusion() {
        let mut fused = engine(OptConfig::full());
        let mut unfused = engine(OptConfig::no_fuse());
        let lf = fused.decode_step(0, 0).stats.kernel_launches;
        let lu = unfused.decode_step(0, 0).stats.kernel_launches;
        assert!(lf * 2 < lu, "fused {lf} vs unfused {lu}");
    }

    #[test]
    fn attention_cost_grows_with_position() {
        let mut e = engine(OptConfig::full());
        let c0 = e.decode_step(1, 0).cycles;
        for pos in 1..8 {
            e.decode_step(1, pos);
        }
        let c8 = e.decode_step(1, 8).cycles;
        assert!(c8 >= c0, "KV paging must not shrink: {c0} -> {c8}");
        // And HBM read traffic grows with context.
        let mut e2 = engine(OptConfig::full());
        let r0 = e2.decode_step(1, 0).stats.hbm.read_bytes;
        let r1 = e2.decode_step(1, 1).stats.hbm.read_bytes;
        assert!(r1 > r0);
    }

    #[test]
    fn hbm_activation_traffic_only_without_reuse() {
        let mut with = engine(OptConfig::full());
        let mut without = engine(OptConfig::no_reuse());
        let sw = with.decode_step(0, 0).stats;
        let so = without.decode_step(0, 0).stats;
        // Without reuse, extra HBM writes appear (activations round-trip).
        assert!(so.hbm.write_bytes > sw.hbm.write_bytes);
        // With reuse, on-chip traffic appears instead.
        assert!(sw.ocm_read_bytes > 0 && sw.ocm_write_bytes > 0);
    }

    #[test]
    fn energy_is_positive_and_unopt_less_efficient() {
        let mut full = engine(OptConfig::full());
        let mut unopt = engine(OptConfig::unoptimized());
        let rf = full.decode_step(1, 0);
        let ru = unopt.decode_step(1, 0);
        let ef = full.power_model().energy(&rf.stats).total_j();
        let eu = unopt.power_model().energy(&ru.stats).total_j();
        assert!(ef > 0.0 && eu > ef, "full {ef} J vs unopt {eu} J");
    }

    #[test]
    fn trace_capture_roundtrip() {
        let mut e = engine(OptConfig::full());
        e.capture_trace(256);
        e.decode_step(0, 0);
        let trace = e.take_trace().expect("trace captured");
        assert!(!trace.events().is_empty());
        assert!(e.take_trace().is_none());
    }

    #[test]
    fn reset_allows_replay() {
        let mut e = engine(OptConfig::full());
        let a = e.decode_step(5, 0);
        e.reset();
        let b = e.decode_step(5, 0);
        assert_eq!(a.logits, b.logits);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    #[should_panic(expected = "outside context window")]
    fn pos_overflow_panics() {
        let mut e = engine(OptConfig::full());
        e.decode_step(0, 1000);
    }

    #[test]
    fn chunked_prefill_matches_token_at_a_time_logits() {
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        let tokens: Vec<u32> = vec![3, 9, 14, 27, 5, 61, 2, 40];
        let mut one = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
        let mut last = Vec::new();
        for (pos, &t) in tokens.iter().enumerate() {
            last = one.decode_step(t, pos).logits;
        }
        let mut chunked = Engine::new(weights, OptConfig::full()).unwrap();
        let r = chunked.prefill_chunk(&tokens, 0);
        let d = last
            .iter()
            .zip(&r.logits)
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
        assert!(d < 1e-5, "chunked prefill diverged by {d}");
        // And the KV cache is equally advanced.
        assert_eq!(chunked.context_len(), tokens.len());
    }

    #[test]
    fn chunked_prefill_is_faster_and_reads_less() {
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::stories260k(), 7));
        let tokens: Vec<u32> = (0..16).map(|i| 10 + i).collect();
        let mut one = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
        let mut cycles_one = 0u64;
        let mut read_one = 0u64;
        for (pos, &t) in tokens.iter().enumerate() {
            let r = one.decode_step(t, pos);
            cycles_one += r.cycles.0;
            read_one += r.stats.hbm.read_bytes;
        }
        let mut chunked = Engine::new(weights, OptConfig::full()).unwrap();
        let r = chunked.prefill_chunk(&tokens, 0);
        // stories260K is compute-bound, so the wall-clock win is modest —
        // the weight-stream amortization is the strong claim (reads drop
        // nearly 16x for a 16-token chunk; only KV paging still scales).
        assert!(
            (r.cycles.0 as f64) < 0.8 * cycles_one as f64,
            "chunked {} vs token-at-a-time {}",
            r.cycles.0,
            cycles_one
        );
        assert!(
            r.stats.hbm.read_bytes * 5 < read_one,
            "weight stream must be amortized: {} vs {}",
            r.stats.hbm.read_bytes,
            read_one
        );
    }

    #[test]
    #[should_panic(expected = "empty chunk")]
    fn empty_chunk_panics() {
        let mut e = engine(OptConfig::full());
        e.prefill_chunk(&[], 0);
    }

    #[test]
    fn functional_dataflow_is_bit_identical() {
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::stories260k(), 3));
        let mut serial = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
        let mut cfg = AccelConfig::for_opt(&OptConfig::full());
        cfg.functional_dataflow = true;
        let mut threaded = Engine::with_config(weights, OptConfig::full(), cfg).unwrap();
        for pos in 0..3 {
            let a = serial.decode_step(11, pos);
            let b = threaded.decode_step(11, pos);
            assert_eq!(a.logits, b.logits, "dataflow must be bit-identical");
            assert_eq!(a.cycles, b.cycles, "timing model is unaffected");
        }
    }

    #[test]
    fn batched_decode_matches_independent_sequences() {
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        // Reference: three independent engines decoding different histories.
        let mut refs: Vec<Engine> = (0..3)
            .map(|_| Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap())
            .collect();
        let histories: [&[u32]; 3] = [&[1, 5], &[9], &[3, 7, 11]];
        let mut expected = Vec::new();
        for (e, h) in refs.iter_mut().zip(histories) {
            let mut last = Vec::new();
            for (pos, &t) in h.iter().enumerate() {
                last = e.decode_step(t, pos).logits;
            }
            expected.push(last);
        }

        // Batched: one engine, three sequences, advanced in lock-step where
        // possible (ragged histories decoded up-front).
        let mut batch_engine = Engine::new(weights, OptConfig::full()).unwrap();
        let mut s0 = batch_engine.new_sequence();
        let mut s1 = batch_engine.new_sequence();
        let mut s2 = batch_engine.new_sequence();
        // Bring each sequence to one-before-the-end of its history.
        {
            let mut seqs: Vec<(&mut SequenceState, &[u32])> = vec![
                (&mut s0, histories[0]),
                (&mut s1, histories[1]),
                (&mut s2, histories[2]),
            ];
            for (seq, h) in seqs.iter_mut() {
                for (pos, &t) in h[..h.len() - 1].iter().enumerate() {
                    let mut solo = [&mut **seq];
                    batch_engine.forward_runs(&mut solo, &[&[t]], Logits::LastRow);
                    let _ = pos;
                }
            }
        }
        // Final tokens together, as one batch.
        let finals = [histories[0][1], histories[1][0], histories[2][2]];
        let mut seqs = [&mut s0, &mut s1, &mut s2];
        let runs: Vec<&[u32]> = finals.iter().map(std::slice::from_ref).collect();
        let (logits, step) = batch_engine.forward_runs(&mut seqs, &runs, Logits::LastRow);
        assert_eq!(logits.len(), 3);
        for (want, got) in expected.iter().zip(&logits) {
            let d = want
                .iter()
                .zip(got)
                .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
            assert!(d < 1e-5, "batched sequence diverged by {d}");
        }
        assert!(step.cycles > Cycles::ZERO);
    }

    #[test]
    fn batched_decode_amortizes_weight_reads() {
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::stories260k(), 7));
        let mut e = Engine::new(weights, OptConfig::full()).unwrap();
        // Eight fresh sequences, one decode each — batched.
        let mut seqs: Vec<SequenceState> = (0..8).map(|_| e.new_sequence()).collect();
        let mut refs: Vec<&mut SequenceState> = seqs.iter_mut().collect();
        let tokens = [1u32, 2, 3, 4, 5, 6, 7, 8];
        let runs: Vec<&[u32]> = tokens.iter().map(std::slice::from_ref).collect();
        let (_, batched) = e.forward_runs(&mut refs, &runs, Logits::LastRow);

        // Same eight decodes, one at a time.
        let mut single_cycles = 0u64;
        let mut single_reads = 0u64;
        for &t in &tokens {
            let mut seq = e.new_sequence();
            let mut solo = [&mut seq];
            let (_, r) = e.forward_runs(&mut solo, &[&[t]], Logits::LastRow);
            single_cycles += r.cycles.0;
            single_reads += r.stats.hbm.read_bytes;
        }
        assert!(
            batched.cycles.0 < single_cycles,
            "batching must win wall-clock"
        );
        assert!(
            batched.stats.hbm.read_bytes * 4 < single_reads,
            "weight stream must be shared: {} vs {}",
            batched.stats.hbm.read_bytes,
            single_reads
        );
    }

    #[test]
    fn int8_kv_cache_reduces_traffic_and_tracks_reference() {
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        let mut f32kv = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
        let mut cfg = AccelConfig::for_opt(&OptConfig::full());
        cfg.kv_precision = Precision::Int8;
        let mut i8kv = Engine::with_config(weights, OptConfig::full(), cfg).unwrap();
        let mut read_f32 = 0u64;
        let mut read_i8 = 0u64;
        for pos in 0..8 {
            let a = f32kv.decode_step(5, pos);
            let b = i8kv.decode_step(5, pos);
            read_f32 += a.stats.hbm.read_bytes;
            read_i8 += b.stats.hbm.read_bytes;
            let d = a
                .logits
                .iter()
                .zip(&b.logits)
                .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()));
            assert!(d < 0.05, "int8 KV diverged by {d} at pos {pos}");
        }
        assert!(
            read_i8 < read_f32,
            "int8 KV must read less: {read_i8} vs {read_f32}"
        );
    }

    #[test]
    fn int8_kv_write_traffic_is_quarter() {
        // test_tiny's 8-wide KV rows vanish inside one 64 B burst; use the
        // 32-wide stories260K rows so the precision difference survives
        // padding.
        let weights = Arc::new(TransformerWeights::synthetic(
            ModelConfig::stories260k(),
            42,
        ));
        let mut cfg = AccelConfig::for_opt(&OptConfig::full());
        cfg.kv_precision = Precision::Int8;
        let mut i8kv = Engine::with_config(Arc::clone(&weights), OptConfig::full(), cfg).unwrap();
        let mut f32kv = Engine::new(weights, OptConfig::full()).unwrap();
        let wa = f32kv.decode_step(1, 0).stats.hbm.write_bytes;
        let wb = i8kv.decode_step(1, 0).stats.hbm.write_bytes;
        // KV rows dominate writes under full reuse; Q8_0 is ~0.28x the f32
        // bytes before burst padding, so expect a clear reduction.
        assert!(wb < wa, "int8 KV writes {wb} !< f32 {wa}");
    }

    #[test]
    fn external_sequence_prefill_matches_default_sequence() {
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        let tokens: Vec<u32> = vec![3, 9, 14, 27, 5];
        let mut a = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
        let ra = a.prefill_chunk(&tokens, 0);
        let mut b = Engine::new(weights, OptConfig::full()).unwrap();
        let mut seq = b.new_sequence();
        let rb = b
            .forward_runs(&mut [&mut seq], &[&tokens], Logits::LastRow)
            .1;
        assert_eq!(ra.logits, rb.logits, "external-sequence prefill diverged");
        assert_eq!(
            ra.cycles, rb.cycles,
            "timing model must not care whose KV it is"
        );
        assert_eq!(seq.context_len(), tokens.len());
        // And the engine's own default sequence was not disturbed.
        assert_eq!(b.context_len(), 0);
    }

    #[test]
    fn sequence_state_works_as_pool_slot() {
        use speedllm_llama::kv_cache::{KvCachePool, PoolSlot};
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        let mut e = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
        let mut pool = KvCachePool::new(2, || e.new_sequence());
        let mut slot = pool.acquire().expect("slot free");
        e.forward_runs(&mut [slot.state_mut()], &[&[3, 9]], Logits::LastRow);
        assert_eq!(slot.state().slot_len(), 2);
        pool.release(slot);
        // Reused slot must behave exactly like a fresh sequence.
        let mut again = pool.acquire().expect("slot free");
        assert_eq!(again.state().slot_len(), 0);
        let (r, _) = e.forward_runs(&mut [again.state_mut()], &[&[3, 9]], Logits::LastRow);
        let mut fresh_seq = e.new_sequence();
        let (fresh, _) = e.forward_runs(&mut [&mut fresh_seq], &[&[3, 9]], Logits::LastRow);
        assert_eq!(r, fresh, "recycled slot leaked state");
        pool.release(again);
        assert!(pool.all_free());
        assert_eq!(pool.reuse_count(), 1);
    }

    #[test]
    fn paged_sequences_match_flat_bit_for_bit() {
        use speedllm_pagedkv::BlockAllocator;
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 42));
        let prompt: Vec<u32> = vec![3, 9, 14, 27, 5, 61];
        let decode: Vec<u32> = vec![8, 12, 19];

        // Flat reference.
        let mut flat = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
        let mut fseq = flat.new_sequence();
        let mut flat_logits = vec![
            flat.forward_runs(&mut [&mut fseq], &[&prompt], Logits::LastRow)
                .1
                .logits,
        ];
        for &t in &decode {
            let (l, _) = flat.forward_runs(&mut [&mut fseq], &[&[t]], Logits::LastRow);
            flat_logits.push(l.into_iter().next().unwrap());
        }

        // Paged twin: same weights, block-table indirection.
        let bc = BlockConfig {
            block_size: 4,
            n_blocks: 8,
        };
        let mut paged = Engine::new(weights, OptConfig::full()).unwrap();
        paged.enable_paged_kv(bc);
        assert_eq!(paged.paged_block_config(), Some(bc));
        let mut alloc = BlockAllocator::new(bc);
        let mut pseq = paged.new_sequence();
        {
            let table = pseq.block_table_mut().expect("paged sequence");
            let need = (prompt.len() + decode.len()).div_ceil(bc.block_size);
            for _ in 0..need {
                table.push_block(alloc.alloc().unwrap());
            }
        }
        let mut paged_logits = vec![
            paged
                .forward_runs(&mut [&mut pseq], &[&prompt], Logits::LastRow)
                .1
                .logits,
        ];
        for &t in &decode {
            let (l, _) = paged.forward_runs(&mut [&mut pseq], &[&[t]], Logits::LastRow);
            paged_logits.push(l.into_iter().next().unwrap());
        }
        assert_eq!(paged_logits, flat_logits, "block indirection changed math");
        assert_eq!(pseq.context_len(), prompt.len() + decode.len());

        // A second sequence sharing the first full prompt block resumes at
        // the divergence point and still matches a from-scratch flat run.
        let shared_tokens = bc.block_size; // one full block
        let tail: Vec<u32> = vec![40, 22];
        let mut full2: Vec<u32> = prompt[..shared_tokens].to_vec();
        full2.extend(&tail);
        let mut f2 = flat.new_sequence();
        let flat2 = flat
            .forward_runs(&mut [&mut f2], &[&full2], Logits::LastRow)
            .1
            .logits;

        let mut p2 = paged.new_sequence();
        {
            let shared_block = pseq.block_table().unwrap().blocks()[0];
            alloc.retain(shared_block);
            let table = p2.block_table_mut().unwrap();
            table.push_block(shared_block);
            table.push_block(alloc.alloc().unwrap());
            table.set_len(shared_tokens); // prefix-hit credit
        }
        assert_eq!(p2.context_len(), shared_tokens);
        let paged2 = paged
            .forward_runs(&mut [&mut p2], &[&full2[shared_tokens..]], Logits::LastRow)
            .1
            .logits;
        assert_eq!(paged2, flat2, "prefix sharing changed math");
    }

    #[test]
    #[should_panic(expected = "one token run per sequence")]
    fn forward_runs_length_mismatch_panics() {
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::test_tiny(), 1));
        let mut e = Engine::new(weights, OptConfig::full()).unwrap();
        let mut s0 = e.new_sequence();
        let mut seqs = [&mut s0];
        e.forward_runs(&mut seqs, &[&[1], &[2]], Logits::LastRow);
    }

    #[test]
    #[should_panic(expected = "staging limit")]
    fn oversized_chunk_panics() {
        let weights = Arc::new(TransformerWeights::synthetic(ModelConfig::stories260k(), 7));
        let mut e = Engine::new(weights, OptConfig::full()).unwrap();
        let tokens = vec![1u32; 65];
        e.prefill_chunk(&tokens, 0);
    }
}
