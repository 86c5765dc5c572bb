//! Ablation bench for the **quantized serve hot path** (DESIGN.md §18):
//! decodes the same batched workload with f32, int8 (Q8_0) and int4
//! (Q4_0) weights at batch widths 1/4/8 on both serve backends, and
//! prints wall-clock tok/s plus the telemetry-derived weight bytes
//! streamed per token. Decode is weight-bandwidth-bound, so the fused
//! dequant-GEMM kernels trade a little per-group rescale arithmetic for
//! a 4x (int8) / 7x (int4) smaller weight stream — the `gemm_weight_bytes`
//! column is the compressed stream the paper's mixed-precision MPE
//! feeds on. The timed targets stamp `quant` and `batch_width` onto
//! their JSONL rows.

use speedllm_bench::harness::{is_smoke, Runner};
use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::{Logits, Transformer};
use speedllm_llama::kv_cache::KvCache;
use speedllm_llama::weights::TransformerWeights;
use speedllm_llama::QuantMode;
use speedllm_serve::{AccelBackend, Backend, CpuBackend};
use speedllm_telemetry as tel;
use std::hint::black_box;
use std::time::Instant;

const MODES: [QuantMode; 3] = [QuantMode::F32, QuantMode::Int8, QuantMode::Int4];
const WIDTHS: [usize; 3] = [1, 4, 8];

/// Prefills `width` staggered sequences on any serve backend.
fn make_slots<B: Backend>(backend: &mut B, width: usize, prompt: &[u32]) -> Vec<B::Slot> {
    (0..width)
        .map(|i| {
            let mut slot = backend.new_slot();
            let tokens: Vec<u32> = prompt.iter().map(|&t| t + i as u32).collect();
            backend.prefill(&mut slot, &tokens, 0);
            slot
        })
        .collect()
}

/// Runs `steps` batched decode steps and returns (tokens, seconds).
fn decode_run<B: Backend>(backend: &mut B, slots: &mut [B::Slot], steps: usize) -> (usize, f64) {
    let width = slots.len();
    let start = Instant::now();
    for step in 0..steps {
        let tokens: Vec<u32> = (0..width).map(|b| (5 + b + step) as u32).collect();
        let mut refs: Vec<&mut B::Slot> = slots.iter_mut().collect();
        black_box(backend.decode(&mut refs, &tokens));
    }
    (width * steps, start.elapsed().as_secs_f64())
}

/// Short instrumented run: decode-only weight bytes streamed per token as
/// counted by the backend's `*.gemm_*` telemetry counters.
fn probe_bytes_per_token<B: Backend>(
    backend: &mut B,
    width: usize,
    prompt: &[u32],
    counter_prefix: &str,
) -> f64 {
    let mut slots = make_slots(backend, width, prompt);
    let was_enabled = tel::enabled();
    tel::set_enabled(true);
    tel::metrics::reset();
    decode_run(backend, &mut slots, 4);
    let snap = tel::metrics::snapshot();
    tel::set_enabled(was_enabled);
    let get = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    let bytes = get(&format!("{counter_prefix}.gemm_weight_bytes")) as f64;
    let tokens = get(&format!("{counter_prefix}.gemm_tokens")) as f64;
    bytes / tokens.max(1.0)
}

fn cpu_backend(weights: &TransformerWeights, mode: QuantMode) -> CpuBackend {
    let mut model = Transformer::new(weights.clone());
    model.set_quant_mode(mode);
    CpuBackend::new(model)
}

fn accel_backend(weights: &std::sync::Arc<TransformerWeights>, mode: QuantMode) -> AccelBackend {
    let opt = match mode {
        QuantMode::F32 => speedllm_accel::opt::OptConfig::full(),
        QuantMode::Int8 => speedllm_accel::opt::OptConfig::full_int8(),
        QuantMode::Int4 => speedllm_accel::opt::OptConfig::full_int4(),
    };
    let engine =
        speedllm_accel::engine::Engine::new(weights.clone(), opt).expect("accel design fits");
    AccelBackend::new(engine)
}

fn print_backend_ablation<B: Backend>(
    label: &str,
    steps: usize,
    prompt: &[u32],
    counter_prefix: &str,
    mut fresh: impl FnMut(QuantMode) -> B,
) {
    println!("--- quantized serve hot path: {label} ---");
    let mut base = 0.0f64;
    for mode in MODES {
        for width in WIDTHS {
            let mut backend = fresh(mode);
            let mut slots = make_slots(&mut backend, width, prompt);
            let (tokens, secs) = decode_run(&mut backend, &mut slots, steps);
            let tok_s = tokens as f64 / secs.max(f64::MIN_POSITIVE);
            if mode == QuantMode::F32 && width == 1 {
                base = tok_s;
            }
            let mut probe = fresh(mode);
            let bpt = probe_bytes_per_token(&mut probe, width, prompt, counter_prefix);
            println!(
                "{:>4} batch {width}: {tok_s:>10.1} tok/s ({:.2}x), {:>8.3} MB weights streamed/token",
                mode.name(),
                tok_s / base.max(f64::MIN_POSITIVE),
                bpt / 1e6,
            );
        }
    }
    println!("-------------------------------------------------------------------------");
}

fn print_ablation() {
    // Non-smoke uses stories15M on the CPU (~58 MB of f32 weights, far
    // past cache, so decode really is weight-bandwidth-bound) and
    // stories260K on the simulated accelerator (the cycle model makes
    // the weight-traffic ratio exact at any size). Smoke keeps tiny.
    let (cpu_cfg, accel_cfg, steps) = if is_smoke() {
        (ModelConfig::test_tiny(), ModelConfig::test_tiny(), 8)
    } else {
        (ModelConfig::stories15m(), ModelConfig::stories260k(), 48)
    };
    let prompt = [1u32, 7];

    let cpu_weights = TransformerWeights::synthetic(cpu_cfg, 42);
    print_backend_ablation(
        &format!("CpuBackend ({cpu_cfg}, {steps} decode steps)"),
        steps,
        &prompt,
        "cpu",
        |mode| cpu_backend(&cpu_weights, mode),
    );

    let accel_weights = std::sync::Arc::new(TransformerWeights::synthetic(accel_cfg, 42));
    print_backend_ablation(
        &format!("AccelBackend ({accel_cfg}, {steps} decode steps)"),
        steps,
        &prompt,
        "accel",
        |mode| accel_backend(&accel_weights, mode),
    );
}

fn bench_quant_ablation(c: &mut Runner) {
    print_ablation();
    // Timed targets on the tiny config: one batched decode step per
    // iteration at a pinned position, so the KV cache never overflows no
    // matter how many samples the harness takes.
    let cfg = ModelConfig::test_tiny();
    let weights = TransformerWeights::synthetic(cfg, 42);
    for mode in MODES {
        for width in WIDTHS {
            let mut model = Transformer::new(weights.clone());
            model.set_quant_mode(mode);
            let mut kvs: Vec<KvCache> = (0..width).map(|_| KvCache::new(&cfg)).collect();
            let tokens: Vec<u32> = (0..width as u32).map(|i| 3 + i).collect();
            let positions = vec![0usize; width];
            let counts = vec![1usize; width];
            c.set_meta("quant", mode.name());
            c.set_meta("batch_width", &width.to_string());
            c.bench_function(&format!("ablation/quant_{}_w{width}", mode.name()), |b| {
                b.iter(|| {
                    let mut refs: Vec<&mut KvCache> = kvs.iter_mut().collect();
                    black_box(
                        model
                            .forward_runs_with_kv(
                                refs.as_mut_slice(),
                                &tokens,
                                &counts,
                                &positions,
                                Logits::LastRow,
                            )
                            .len(),
                    )
                })
            });
        }
    }
}

fn main() {
    let mut c = Runner::from_env().sample_size(10);
    bench_quant_ablation(&mut c);
    c.finish();
}
