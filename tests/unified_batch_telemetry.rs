//! ISSUE 6 acceptance telemetry: during prefill/decode overlap, a mixed
//! tick's GEMM batch width must exceed the active decode count — the
//! prefill rows ride the same weight stream — and a prefill chunk streams
//! the weights once, not once per token. This lives in its own test
//! binary, with its tests serialized on one lock, because telemetry state
//! is process-global and last-write-wins gauges cannot be asserted
//! exactly under a multi-threaded test runner.

use std::sync::{Arc, Mutex};

use speedllm::accel::engine::Engine;
use speedllm::accel::opt::OptConfig;
use speedllm::llama::config::ModelConfig;
use speedllm::llama::forward::Transformer;
use speedllm::llama::weights::TransformerWeights;
use speedllm::pagedkv::{BlockAllocator, BlockConfig};
use speedllm::serve::{AccelBackend, Backend, CpuBackend};
use speedllm::telemetry as tel;

/// Telemetry state is process-global; serialize the tests that toggle it.
static LOCK: Mutex<()> = Mutex::new(());

fn weights() -> TransformerWeights {
    TransformerWeights::synthetic(ModelConfig::test_tiny(), 42)
}

fn gauge(snap: &tel::metrics::MetricsSnapshot, name: &str) -> f64 {
    snap.gauges
        .iter()
        .find(|(k, _)| *k == name)
        .unwrap_or_else(|| panic!("gauge {name} was not recorded"))
        .1
}

fn counter(snap: &tel::metrics::MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(k, _)| *k == name)
        .unwrap_or_else(|| panic!("counter {name} was not recorded"))
        .1
}

#[test]
fn mixed_tick_gemm_width_exceeds_decode_count_on_both_backends() {
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            tel::set_enabled(false);
            tel::reset();
        }
    }
    let _restore = Restore;

    // CPU backend: warm one slot (2 context tokens), leave one cold, then
    // run a mixed tick of 1 decode row + a 3-row prefill chunk.
    let mut cpu = CpuBackend::new(Transformer::new(weights()));
    let mut warm = cpu.new_slot();
    let mut cold = cpu.new_slot();
    cpu.prefill(&mut warm, &[1, 5], 0);
    tel::set_enabled(true);
    tel::reset();
    let decode: &[u32] = &[7];
    let chunk: &[u32] = &[1, 9, 3];
    cpu.forward_mixed(&mut [&mut warm, &mut cold], &[decode, chunk]);
    let snap = tel::metrics::snapshot();
    tel::set_enabled(false);
    tel::reset();
    let width = gauge(&snap, "cpu.gemm_batch_width");
    assert_eq!(width, 4.0, "1 decode + 3 prefill rows in one GEMM pass");
    assert!(
        width > 1.0,
        "width must exceed the active decode count of 1"
    );
    assert_eq!(counter(&snap, "cpu.gemm_tokens"), 4);
    assert!(counter(&snap, "cpu.gemm_weight_bytes") > 0);

    // Accelerator simulation: same shape, device-side telemetry.
    let engine = Engine::new(Arc::new(weights()), OptConfig::full()).unwrap();
    let mut accel = AccelBackend::new(engine);
    let mut warm = accel.new_slot();
    let mut cold = accel.new_slot();
    accel.prefill(&mut warm, &[1, 5], 0);
    tel::set_enabled(true);
    tel::reset();
    accel.forward_mixed(&mut [&mut warm, &mut cold], &[decode, chunk]);
    let snap = tel::metrics::snapshot();
    tel::set_enabled(false);
    tel::reset();
    let width = gauge(&snap, "accel.gemm_batch_width");
    assert_eq!(width, 4.0, "device tick carries all 4 rows at once");
    assert_eq!(counter(&snap, "accel.gemm_tokens"), 4);
    assert!(counter(&snap, "accel.gemm_weight_bytes") > 0);
}

/// Runs one 16-token `Backend::prefill` on a fresh slot with telemetry on
/// and returns the metrics it recorded.
fn prefill_metrics<B: Backend>(
    backend: &mut B,
    slot: &mut B::Slot,
) -> tel::metrics::MetricsSnapshot {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            tel::set_enabled(false);
            tel::reset();
        }
    }
    let _restore = Restore;
    let chunk: Vec<u32> = (0..16).map(|i| (3 * i + 1) % 64).collect();
    tel::set_enabled(true);
    tel::reset();
    backend.prefill(slot, &chunk, 0);
    tel::metrics::snapshot()
}

#[test]
fn sixteen_token_prefill_streams_weights_once() {
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // CPU, flat slots: 16 GEMM rows, one weight stream.
    let mut cpu = CpuBackend::new(Transformer::new(weights()));
    let once = cpu.model().gemm_weight_bytes() as u64;
    let mut slot = cpu.new_slot();
    let snap = prefill_metrics(&mut cpu, &mut slot);
    assert_eq!(counter(&snap, "cpu.gemm_tokens"), 16);
    assert_eq!(
        counter(&snap, "cpu.gemm_weight_bytes"),
        once,
        "flat prefill"
    );

    // CPU, paged slots: the block indirection changes nothing.
    let bc = BlockConfig {
        block_size: 4,
        n_blocks: 8,
    };
    let mut paged = CpuBackend::new_paged(Transformer::new(weights()), bc);
    let mut alloc = BlockAllocator::new(bc);
    let mut slot = paged.new_slot();
    let table = CpuBackend::slot_table_mut(&mut slot).expect("paged slot");
    for _ in 0..4 {
        table.push_block(alloc.alloc().expect("free block"));
    }
    let snap = prefill_metrics(&mut paged, &mut slot);
    assert_eq!(counter(&snap, "cpu.gemm_tokens"), 16);
    assert_eq!(
        counter(&snap, "cpu.gemm_weight_bytes"),
        once,
        "paged prefill"
    );

    // Accelerator simulation: the prefill chunk is one device pass.
    let engine = Engine::new(Arc::new(weights()), OptConfig::full()).unwrap();
    let mut accel = AccelBackend::new(engine);
    let mut slot = accel.new_slot();
    let snap = prefill_metrics(&mut accel, &mut slot);
    assert_eq!(counter(&snap, "accel.gemm_tokens"), 16);
    assert_eq!(gauge(&snap, "accel.gemm_batch_width"), 16.0);
}
