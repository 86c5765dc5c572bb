//! Speculative-decoding verification on the simulated accelerator: an
//! [`AccelVerifier`] adapts [`Engine::forward_runs`] with
//! [`Logits::AllRows`] to the [`VerifyTarget`] trait, so the same
//! `llama::speculative::SpecSession` that drives the CPU reference drives
//! the device sim — and the equivalence suite can assert both backends
//! emit the identical stream.
//!
//! Timing: each `verify_into` issues **one** mixed device pass over the
//! pending token plus the K draft rows, streaming the dense weights once
//! where sequential decode would stream them K+1 times. The verifier
//! accumulates those [`StepResult`] cycles so callers can convert
//! accepted tokens per cycle into the speculative speedup.

use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::Logits;
use speedllm_llama::speculative::VerifyTarget;
use speedllm_pagedkv::BlockAllocator;

use crate::engine::{Engine, SequenceState};
use crate::StepResult;

/// [`VerifyTarget`] over the accelerator sim: one engine, one sequence,
/// and (for paged sequences) the block allocator that owns the arena's
/// free list — rollback releases popped blocks through it, honoring
/// copy-on-write sharing, and NaN-poisons rows that actually freed.
pub struct AccelVerifier<'a> {
    engine: &'a mut Engine,
    seq: &'a mut SequenceState,
    alloc: Option<&'a mut BlockAllocator>,
    /// Device cycles spent in verify passes so far.
    cycles: u64,
    /// Verify passes issued.
    passes: u64,
}

impl<'a> AccelVerifier<'a> {
    /// Verifier for a flat (contiguous-KV) sequence.
    pub fn new(engine: &'a mut Engine, seq: &'a mut SequenceState) -> Self {
        Self {
            engine,
            seq,
            alloc: None,
            cycles: 0,
            passes: 0,
        }
    }

    /// Verifier for a paged sequence: `alloc` receives the blocks a
    /// rollback pops so the free list stays conserved.
    pub fn new_paged(
        engine: &'a mut Engine,
        seq: &'a mut SequenceState,
        alloc: &'a mut BlockAllocator,
    ) -> Self {
        Self {
            engine,
            seq,
            alloc: Some(alloc),
            cycles: 0,
            passes: 0,
        }
    }

    /// Device cycles accumulated across all verify passes.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of verify passes issued.
    #[must_use]
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Records a pass result from outside the trait path (e.g. a prefill
    /// the caller ran through the engine directly).
    pub fn charge(&mut self, step: &StepResult) {
        self.cycles += step.cycles.0;
    }
}

impl VerifyTarget for AccelVerifier<'_> {
    fn config(&self) -> ModelConfig {
        self.engine.graph().config
    }

    fn context_len(&self) -> usize {
        self.seq.context_len()
    }

    fn verify_into(&mut self, tokens: &[u32], start: usize, out: &mut Vec<f32>) {
        debug_assert_eq!(self.seq.context_len(), start, "run must extend context");
        let mut seqs = [&mut *self.seq];
        let (mut all, step) = self
            .engine
            .forward_runs(&mut seqs, &[tokens], Logits::AllRows);
        self.cycles += step.cycles.0;
        self.passes += 1;
        out.clear();
        *out = all.pop().expect("one sequence in, one logits run out");
    }

    fn truncate(&mut self, len: usize) {
        let popped = self.seq.truncate(len);
        if let Some(alloc) = &mut self.alloc {
            let freed: Vec<_> = popped.into_iter().filter(|&b| alloc.release(b)).collect();
            self.engine.poison_blocks(&freed);
        } else {
            debug_assert!(popped.is_empty(), "flat rollback returns no blocks");
        }
    }
}
