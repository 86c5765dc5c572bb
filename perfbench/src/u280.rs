//! `u280_generate`: the paper's Fig-2 path on the simulated U280 — a
//! fixed sequence of `Session::generate(text, n)` calls on stories15M
//! with `OptConfig::full()`, repeated until the run's time is used.

use std::time::{Duration, Instant};

use speedllm_accel::opt::OptConfig;
use speedllm_accel::runtime::{AcceleratedLlm, InferenceReport};
use speedllm_fpga_sim::stats::SimStats;
use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::Transformer;
use speedllm_llama::generate::{DecodeSession, GenerateOptions};
use speedllm_llama::sampler::{Sampler, SamplerKind};

use crate::probe::Probe;
use crate::util::{mean, ms, percentile, ratio, Rng};
use crate::RunOutcome;

const WEIGHTS_SEED: u64 = 42;
const SETUP_REPEATS: usize = 3;
/// Calls per pass and their generation budgets (one of each, in seeded
/// order).
pub const NEW_TOKENS: [usize; 5] = [16, 24, 32, 48, 64];
/// Prompt length in tokens (BOS included); the words vary with the seed.
pub const PROMPT_TOKENS: usize = 12;
/// Calls per pass whose greedy tokens are checked against the CPU
/// reference.
const ORACLE_SAMPLE: usize = 2;

const WORDS: [&str; 24] = [
    "once", "upon", "a", "time", "there", "was", "little", "girl", "who", "loved", "the", "sun",
    "and", "her", "dog", "ran", "to", "park", "every", "day", "with", "big", "red", "ball",
];

/// One call of the pass and what it returned.
struct Call {
    prompt: String,
    n: usize,
    host: Duration,
    report: InferenceReport,
}

/// The simulated totals of one pass, compared exactly across passes.
#[derive(PartialEq)]
struct SimTotals {
    tokens: usize,
    prefill_cycles: u64,
    decode_cycles: u64,
    latency_s: Vec<f64>,
    energy_j: f64,
    stats: SimStats,
}

fn totals(calls: &[Call]) -> SimTotals {
    let mut stats = SimStats::default();
    for c in calls {
        stats.accumulate(&c.report.stats);
    }
    SimTotals {
        tokens: calls
            .iter()
            .map(|c| c.report.output.generated_tokens.len())
            .sum(),
        prefill_cycles: calls.iter().map(|c| c.report.prefill_cycles.0).sum(),
        decode_cycles: calls.iter().map(|c| c.report.decode_cycles.0).sum(),
        latency_s: calls.iter().map(|c| c.report.total_latency_s()).collect(),
        energy_j: calls.iter().map(|c| c.report.energy.total_j()).sum(),
        stats,
    }
}

/// Seeded words that tokenize to exactly [`PROMPT_TOKENS`] tokens, so
/// every seed prefills the same amount.
fn prompt_text(sys: &AcceleratedLlm, rng: &mut Rng) -> String {
    loop {
        let mut text = String::new();
        loop {
            let word = WORDS[rng.range(0, WORDS.len() as u64) as usize];
            let next = if text.is_empty() {
                word.to_string()
            } else {
                format!("{text} {word}")
            };
            let n = sys.tokenizer().encode(&next, true, false).len();
            if n > PROMPT_TOKENS {
                break;
            }
            text = next;
            if n == PROMPT_TOKENS {
                return text;
            }
        }
    }
}

pub fn u280_generate(seed: u64, seconds: f64, trace: bool) -> RunOutcome {
    let probe = Probe::new(trace, 0);
    let mut out = RunOutcome::new("u280_generate", probe.clone());
    let mut setups = Vec::new();
    let mut sys = None;
    for _ in 0..SETUP_REPEATS {
        drop(sys.take());
        let t = Instant::now();
        let s =
            AcceleratedLlm::synthetic(ModelConfig::stories15m(), WEIGHTS_SEED, OptConfig::full())
                .expect("the full design fits the U280");
        let session = s.session(SamplerKind::Argmax, seed);
        setups.push(t.elapsed().as_secs_f64());
        sys = Some((s, session));
    }
    let (sys, mut session) = sys.expect("set up at least once");

    let mut rng = Rng::new(seed, 5);
    let ns = rng.ladder(&NEW_TOKENS, NEW_TOKENS.len());
    let prompts: Vec<(String, usize)> = ns
        .iter()
        .map(|&n| (prompt_text(&sys, &mut rng), n))
        .collect();

    crate::program_telemetry(trace);
    let t0 = Instant::now();
    probe.borrow_mut().origin = t0;
    let mut passes: Vec<Vec<Call>> = Vec::new();
    let mut last = Duration::ZERO;
    // Start another pass only while it is expected to end in time.
    while passes.is_empty() || (t0.elapsed() + last).as_secs_f64() <= seconds {
        let pass_start = Instant::now();
        let mut calls = Vec::new();
        for (prompt, n) in &prompts {
            let start = Instant::now();
            let report = session
                .generate(prompt, *n)
                .expect("prompts fit the context window");
            let host = start.elapsed();
            probe.borrow_mut().call("accel.generate", start, None);
            calls.push(Call {
                prompt: prompt.clone(),
                n: *n,
                host,
                report,
            });
        }
        passes.push(calls);
        last = pass_start.elapsed();
    }
    let serving = t0.elapsed();
    speedllm_telemetry::set_enabled(false);
    out.metrics.rss();

    let first = totals(&passes[0]);
    if passes.iter().any(|p| totals(p) != first) {
        out.fail("simulated metrics differ between passes of identical calls".into());
    }
    let all: Vec<&Call> = passes.iter().flatten().collect();
    out.attempted = all.len() as u64;
    let tokens: usize = all
        .iter()
        .map(|c| c.report.output.generated_tokens.len())
        .sum();
    // `generate` returns its tokens together, so the first token reaches
    // the caller when the call returns; the per-token gap is the call's
    // host time spread over its tokens.
    let ttft: Vec<f64> = all.iter().map(|c| ms(c.host)).collect();
    let itl: Vec<f64> = all
        .iter()
        .map(|c| ratio(ms(c.host), c.report.output.generated_tokens.len() as f64))
        .collect();
    let slo = crate::slo("u280_generate");
    let met = ttft
        .iter()
        .zip(&itl)
        .filter(|(t, i)| **t <= slo.ttft_ms && **i <= slo.mean_itl_ms)
        .count();
    let m = &mut out.metrics;
    m.e2e("setup_s", percentile(&setups, 50.0), "s");
    m.e2e(
        "throughput_tok_s",
        ratio(tokens as f64, serving.as_secs_f64()),
        "tok/s",
    );
    m.e2e("ttft_p50_ms", percentile(&ttft, 50.0), "ms");
    m.e2e("itl_p50_ms", percentile(&itl, 50.0), "ms");
    m.tails(&ttft, &itl);
    m.e2e(
        "slo_attainment",
        ratio(met as f64, all.len() as f64),
        "fraction",
    );

    // Simulated device metrics of one pass (identical in every pass).
    let clock = passes[0][0].report.clock;
    let decode_s = clock.to_seconds(speedllm_fpga_sim::cycles::Cycles(first.decode_cycles));
    let prompt_tokens: usize = passes[0]
        .iter()
        .map(|c| c.report.output.prompt_tokens.len())
        .sum();
    m.layer("sim_latency_ms", mean(&first.latency_s) * 1e3, "ms");
    m.layer(
        "sim_decode_tok_s",
        ratio(first.tokens as f64, decode_s),
        "tok/s",
    );
    m.layer(
        "sim_tok_per_j",
        ratio(first.tokens as f64, first.energy_j),
        "tok/J",
    );
    if trace {
        let host: Duration = passes[0].iter().map(|c| c.host).sum();
        let per_tok = (first.tokens + prompt_tokens) as f64;
        m.layer("accel.host_ms_per_token", ratio(ms(host), per_tok), "ms");
        m.layer(
            "accel.sim_prefill_cycles_per_token",
            ratio(first.prefill_cycles as f64, prompt_tokens as f64),
            "cycles",
        );
        m.layer(
            "accel.sim_decode_cycles_per_token",
            ratio(first.decode_cycles as f64, first.tokens as f64),
            "cycles",
        );
        m.layer(
            "fpga.hbm_read_bytes_per_token",
            ratio(first.stats.hbm.read_bytes as f64, per_tok),
            "bytes",
        );
        m.layer(
            "fpga.kernel_launches_per_token",
            ratio(first.stats.kernel_launches as f64, per_tok),
            "count",
        );
        m.layer(
            "fpga.alloc_stalls",
            first.stats.alloc_stalls as f64,
            "count",
        );
        m.layer(
            "fpga.mpe_busy_frac",
            ratio(
                first.stats.mpe.busy_cycles as f64,
                first.stats.total_cycles.0 as f64,
            ),
            "fraction",
        );
        m.layer(
            "fpga.energy_j_per_token",
            ratio(first.energy_j, first.tokens as f64),
            "J",
        );
    }
    out.busy = probe.borrow().busy;
    out.tokens = tokens as u64;

    // Greedy tokens must equal the CPU reference over the same weights.
    let mut reference = Transformer::new((**sys.weights()).clone());
    let mut pick = Rng::new(seed, 6);
    for _ in 0..ORACLE_SAMPLE {
        let c = &passes[0][pick.range(0, passes[0].len() as u64) as usize];
        let mut s = DecodeSession::begin(
            &mut reference,
            &c.report.output.prompt_tokens,
            GenerateOptions {
                max_new_tokens: c.n,
                stop_at_eos: true,
            },
        );
        let mut sampler = Sampler::new(SamplerKind::Argmax, 0);
        let mut expect = Vec::new();
        while let Some(t) = s.step(&mut sampler) {
            expect.push(t);
        }
        if expect != c.report.output.generated_tokens {
            out.fail(format!(
                "generate({:?}, {}) diverged from the CPU reference",
                c.prompt, c.n
            ));
        }
    }
    out
}
