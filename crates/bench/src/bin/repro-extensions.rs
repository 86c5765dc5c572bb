//! Prints the beyond-the-paper extension studies as one artifact:
//! chunked prefill, batched serving, KV-cache precision, and the int8 MPE
//! design point. Complements `repro-all` (which covers only the paper's
//! own figures).
//!
//! Run: `cargo run --release -p speedllm-bench --bin repro-extensions`

use std::sync::Arc;

use speedllm_accel::engine::{AccelConfig, Engine};
use speedllm_accel::opt::OptConfig;
use speedllm_bench::Table;
use speedllm_fpga_sim::cycles::{ClockDomain, Cycles};
use speedllm_fpga_sim::mpe::Precision;
use speedllm_llama::forward::Logits;
use speedllm_llama::weights::TransformerWeights;

fn main() {
    let clock = ClockDomain::U280_KERNEL;
    // stories15M normally; stories260K under SPEEDLLM_TINY=1 (smoke runs).
    let cfg = speedllm_bench::headline_preset().config;
    let weights = Arc::new(TransformerWeights::synthetic(cfg, 42));
    println!("=== extension studies on {cfg} ===\n");

    // --- Chunked prefill ---
    println!("chunked prefill (32-token prompt):\n");
    let tokens: Vec<u32> = (0..32).map(|i| 100 + i as u32).collect();
    let mut table = Table::new(&["chunk", "prefill cycles", "speedup", "HBM read"]);
    let mut base = 0u64;
    for chunk in [1usize, 4, 8, 16, 32] {
        let mut engine = Engine::new(Arc::clone(&weights), OptConfig::full()).unwrap();
        let mut cycles = 0u64;
        let mut read = 0u64;
        let mut pos = 0usize;
        while pos < tokens.len() {
            let end = (pos + chunk).min(tokens.len());
            let r = engine.prefill_chunk(&tokens[pos..end], pos);
            cycles += r.cycles.0;
            read += r.stats.hbm.read_bytes;
            pos = end;
        }
        if chunk == 1 {
            base = cycles;
        }
        table.row(vec![
            chunk.to_string(),
            cycles.to_string(),
            format!("{:.2}x", base as f64 / cycles as f64),
            format!("{:.1} MiB", read as f64 / (1 << 20) as f64),
        ]);
    }
    println!("{}", table.render());

    // --- Batched serving ---
    println!("batched decode (aggregate throughput):\n");
    let mut table = Table::new(&["precision", "batch", "tok/s aggregate", "latency/token"]);
    for (name, opt) in [
        ("fp32", OptConfig::full()),
        ("int8", OptConfig::full_int8()),
    ] {
        let mut engine = Engine::new(Arc::clone(&weights), opt).unwrap();
        for batch in [1usize, 4, 16] {
            let mut seqs: Vec<_> = (0..batch).map(|_| engine.new_sequence()).collect();
            let toks: Vec<u32> = (0..batch as u32).map(|i| i + 1).collect();
            let runs: Vec<&[u32]> = toks.iter().map(std::slice::from_ref).collect();
            let mut refs: Vec<&mut _> = seqs.iter_mut().collect();
            let (_, r) = engine.forward_runs(&mut refs, &runs, Logits::LastRow);
            let secs = clock.to_seconds(r.cycles);
            table.row(vec![
                name.into(),
                batch.to_string(),
                format!("{:.0}", batch as f64 / secs),
                format!("{:.0} us", clock.to_micros(r.cycles)),
            ]);
        }
    }
    println!("{}", table.render());

    // --- KV precision ---
    println!("KV-cache precision at long context (pos 255):\n");
    let mut table = Table::new(&["kv", "cycles/token", "HBM read/token", "KV write bytes"]);
    for (name, kv) in [("f32", Precision::Fp32), ("int8", Precision::Int8)] {
        let mut acfg = AccelConfig::for_opt(&OptConfig::full());
        acfg.kv_precision = kv;
        let mut engine =
            Engine::with_config(Arc::clone(&weights), OptConfig::full(), acfg).unwrap();
        let mut last = None;
        for pos in 0..=255 {
            last = Some(engine.decode_step(1 + (pos % 99) as u32, pos));
        }
        let r = last.unwrap();
        table.row(vec![
            name.into(),
            r.cycles.0.to_string(),
            format!(
                "{:.2} MiB",
                r.stats.hbm.read_bytes as f64 / (1 << 20) as f64
            ),
            r.stats.hbm.write_bytes.to_string(),
        ]);
    }
    println!("{}", table.render());

    // --- int8 MPE end-to-end ---
    println!("MPE precision end-to-end (one decode token at pos 0):\n");
    let mut table = Table::new(&["mpe", "cycles", "tok/s", "HBM read", "DSP used"]);
    for (name, opt) in [
        ("fp32", OptConfig::full()),
        ("int8", OptConfig::full_int8()),
    ] {
        let mut engine = Engine::new(Arc::clone(&weights), opt).unwrap();
        let r = engine.decode_step(1, 0);
        table.row(vec![
            name.into(),
            r.cycles.0.to_string(),
            format!("{:.0}", 1.0 / clock.to_seconds(r.cycles)),
            format!(
                "{:.1} MiB",
                r.stats.hbm.read_bytes as f64 / (1 << 20) as f64
            ),
            engine.config().mpe.dsp_count().to_string(),
        ]);
    }
    println!("{}", table.render());
    let _ = Cycles::ZERO;
}
