//! The three serving workloads: `chat_open` and `batch_offline` drive one
//! `ServeEngine` through `submit`/`step`; `prefix_cluster` drives two
//! replicas through `router::Cluster::run` with a wall-clock
//! `TrafficSource`.

use std::time::{Duration, Instant};

use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::Transformer;
use speedllm_llama::generate::{DecodeSession, GenerateOptions};
use speedllm_llama::quant::QuantMode;
use speedllm_llama::sampler::{Sampler, SamplerKind};
use speedllm_llama::weights::TransformerWeights;
use speedllm_pagedkv::BlockConfig;
use speedllm_router::{Cluster, ClusterConfig};
use speedllm_serve::{CpuBackend, Request, ServeConfig, ServeEngine, ServeStats, TrafficSource};

use crate::probe::{Probe, SharedProbe, TimedBackend};
use crate::util::{mean, ms, open_loop_schedule, percentile, ratio, Rng};
use crate::{Metrics, RunOutcome, SloLimits};

/// Seed of the synthetic stories15M weights (fixed: the seed argument
/// varies the traffic, not the model).
const WEIGHTS_SEED: u64 = 42;
const BLOCK_SIZE: usize = 16;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Requests per run whose token streams are checked against the
/// sequential oracle.
const ORACLE_SAMPLE: usize = 2;

const SAMPLER: SamplerKind = SamplerKind::TopP {
    temperature: 0.8,
    p: 0.9,
};

/// Deployment capacity of one engine; scheduling stays
/// `ServeConfig::default()`.
struct Capacity {
    slots: usize,
    kv_blocks: usize,
    queue_cap: usize,
}

fn model(quant: QuantMode) -> Transformer {
    let mut m = Transformer::new(TransformerWeights::synthetic(
        ModelConfig::stories15m(),
        WEIGHTS_SEED,
    ));
    m.set_quant_mode(quant);
    m
}

type Engine = ServeEngine<TimedBackend<CpuBackend>>;

fn engine(quant: QuantMode, cap: &Capacity, probe: &SharedProbe, replica: usize) -> Engine {
    let backend = CpuBackend::new_paged(
        model(quant),
        BlockConfig {
            block_size: BLOCK_SIZE,
            n_blocks: cap.kv_blocks,
        },
    );
    let cfg = ServeConfig {
        slots: cap.slots,
        queue_cap: cap.queue_cap,
        ..ServeConfig::default()
    };
    ServeEngine::new(TimedBackend::new(backend, probe.clone(), replica), cfg)
}

/// Builds `n` engines `SETUP_REPEATS` times and returns the last set with
/// the median set-up time.
fn timed_setup(
    quant: QuantMode,
    cap: &Capacity,
    probe: &SharedProbe,
    n: usize,
) -> (Vec<Engine>, f64) {
    let mut times = Vec::new();
    let mut engines = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut engines));
        let t = Instant::now();
        engines = (0..n).map(|r| engine(quant, cap, probe, r)).collect();
        times.push(t.elapsed().as_secs_f64());
    }
    (engines, percentile(&times, 50.0))
}

/// One request of the plan, with its due time from the start of the
/// schedule.
struct Planned {
    req: Request,
    due: Duration,
}

fn request(id: u64, prompt: Vec<u32>, max_new_tokens: usize, rng: &mut Rng) -> Request {
    Request {
        id,
        prompt,
        max_new_tokens,
        stop_at_eos: true,
        sampler: SAMPLER,
        seed: rng.next_u64(),
        arrival: 0,
    }
}

/// A finished request on the wall clock.
struct Served {
    id: u64,
    due: Instant,
    admitted: Option<Instant>,
    /// Wall time each token became visible to the caller.
    visible: Vec<Instant>,
    tokens: Vec<u32>,
}

/// Maps a completion's virtual-tick stamps to wall time.
fn served(
    p: &Probe,
    replica: usize,
    c: &speedllm_serve::Completion,
    due: Instant,
) -> Option<Served> {
    let visible = c
        .token_ticks
        .iter()
        .map(|&t| p.visible_at(replica, t))
        .collect::<Option<Vec<_>>>()?;
    Some(Served {
        id: c.id,
        due,
        admitted: p.started_after(replica, c.admitted_at),
        visible,
        tokens: c.tokens.clone(),
    })
}

/// End-to-end metrics shared by the serving workloads.
fn serve_metrics(
    done: &[Served],
    attempted: usize,
    serving: Duration,
    setup_s: f64,
    slo: SloLimits,
    m: &mut Metrics,
) {
    let mut ttft = Vec::new();
    let mut itl = Vec::new();
    let mut met = 0usize;
    let mut tokens = 0usize;
    for s in done {
        tokens += s.tokens.len();
        let Some(first) = s.visible.first() else {
            continue;
        };
        let t = ms(first.saturating_duration_since(s.due));
        ttft.push(t);
        let gaps: Vec<f64> = s
            .visible
            .windows(2)
            .map(|w| ms(w[1].saturating_duration_since(w[0])))
            .collect();
        if t <= slo.ttft_ms && mean(&gaps) <= slo.mean_itl_ms {
            met += 1;
        }
        itl.extend(gaps);
    }
    m.e2e("setup_s", setup_s, "s");
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
        ratio(met as f64, attempted as f64),
        "fraction",
    );
}

/// Per-layer metrics of the `serve`, `llama` and `pagedkv` layers.
fn layer_metrics(
    p: &Probe,
    done: &[Served],
    stats: &ServeStats,
    prompt_tokens: u64,
    serving: Duration,
    blocks_in_use: &[f64],
    m: &mut Metrics,
) {
    let epochs: Vec<f64> = p
        .epoch_start
        .iter()
        .zip(&p.epoch_end)
        .map(|(s, e)| ms(*e - *s))
        .collect();
    let step_total: f64 = epochs.iter().sum();
    let backend = p.backend_time();
    let kind = |k: &str| p.kinds.get(k).copied().unwrap_or_default();
    let (pre, dec, mix, ver) = (
        kind("llama.prefill"),
        kind("llama.decode"),
        kind("llama.mixed"),
        kind("llama.verify"),
    );
    let passes = pre.calls + dec.calls + mix.calls + ver.calls;
    let generated: usize = done.iter().map(|s| s.tokens.len()).sum();
    let waits: Vec<f64> = done
        .iter()
        .filter_map(|s| s.admitted.map(|a| ms(a.saturating_duration_since(s.due))))
        .collect();
    m.layer("serve.step_ms_p50", percentile(&epochs, 50.0), "ms");
    m.layer("serve.step_ms_p99", percentile(&epochs, 99.0), "ms");
    m.layer(
        "serve.sched_self_ms_per_step",
        ratio(step_total - ms(backend), epochs.len() as f64),
        "ms",
    );
    m.layer("serve.queue_wait_ms_p50", percentile(&waits, 50.0), "ms");
    m.layer(
        "serve.rows_per_pass_mean",
        ratio(
            (pre.rows + dec.rows + mix.rows + ver.rows) as f64,
            passes as f64,
        ),
        "rows",
    );
    m.layer("serve.preemptions", stats.preemptions as f64, "count");
    m.layer("serve.rejected", stats.rejected as f64, "count");
    m.layer(
        "llama.prefill_ms_per_token",
        ratio(ms(pre.time), pre.rows as f64),
        "ms",
    );
    m.layer(
        "llama.decode_ms_per_row",
        ratio(ms(dec.time), dec.rows as f64),
        "ms",
    );
    m.layer(
        "llama.mixed_ms_per_row",
        ratio(ms(mix.time), mix.rows as f64),
        "ms",
    );
    let mixed_prefill = ms(mix.time) * ratio(p.prefill_rows_in_mixed as f64, mix.rows as f64);
    m.layer(
        "llama.prefill_share",
        ratio(ms(pre.time) + mixed_prefill, ms(backend)),
        "fraction",
    );
    m.layer(
        "llama.busy_frac",
        ratio(backend.as_secs_f64(), serving.as_secs_f64()),
        "fraction",
    );
    m.layer(
        "llama.weight_mb_per_token",
        ratio(
            crate::program_counter("cpu.gemm_weight_bytes") / 1e6,
            generated as f64,
        ),
        "MB",
    );
    m.layer(
        "pagedkv.prefix_hit_frac",
        ratio(stats.prefix_hit_tokens as f64, prompt_tokens as f64),
        "fraction",
    );
    m.layer("pagedkv.blocks_in_use_mean", mean(blocks_in_use), "blocks");
    m.layer(
        "pagedkv.peak_blocks_in_use",
        stats.peak_blocks_in_use as f64,
        "blocks",
    );
    m.layer(
        "pagedkv.cache_evicted_blocks",
        stats.cache_evicted_blocks as f64,
        "blocks",
    );
}

/// Checks a seeded sample of completions against the sequential oracle:
/// `DecodeSession` over a fresh `Transformer` with the same quant mode,
/// sampler and seed.
fn oracle_check(
    quant: QuantMode,
    plan: &[&Request],
    done: &[Served],
    seed: u64,
    out: &mut RunOutcome,
) {
    let mut rng = Rng::new(seed, 0x0_4ac1e);
    let mut reference = model(quant);
    for _ in 0..ORACLE_SAMPLE.min(done.len()) {
        let s = &done[rng.range(0, done.len() as u64) as usize];
        let req = plan
            .iter()
            .find(|r| r.id == s.id)
            .expect("completion of a planned request");
        let mut session = DecodeSession::begin(
            &mut reference,
            &req.prompt,
            GenerateOptions {
                max_new_tokens: req.max_new_tokens,
                stop_at_eos: req.stop_at_eos,
            },
        );
        let mut sampler = Sampler::new(req.sampler, req.seed);
        let mut expect = Vec::new();
        while let Some(t) = session.step(&mut sampler) {
            expect.push(t);
        }
        if expect != s.tokens {
            out.fail(format!(
                "request {} diverged from the sequential oracle",
                s.id
            ));
        }
    }
}

/// Every planned request must complete exactly once.
fn completeness(plan_ids: &[u64], done: &[Served], out: &mut RunOutcome) {
    let mut ids: Vec<u64> = done.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    let dup = ids.windows(2).filter(|w| w[0] == w[1]).count();
    ids.dedup();
    let missing = plan_ids
        .iter()
        .filter(|i| ids.binary_search(i).is_err())
        .count();
    out.attempted = plan_ids.len() as u64;
    out.failed = missing as u64;
    if missing > 0 || dup > 0 {
        out.fail(format!("{missing} requests missing, {dup} completed twice"));
    }
}

fn check_open_loop(lags: &[f64], backlog: usize, backlog_max: usize, out: &mut RunOutcome) {
    let lag_p99 = percentile(lags, 99.0);
    out.metrics
        .layer("loadgen.submit_lag_ms_p99", lag_p99, "ms");
    if backlog > backlog_max {
        out.fail(format!(
            "backlog of {backlog} requests at the end of the schedule exceeds {backlog_max}"
        ));
    }
    if lag_p99 > crate::SUBMIT_LAG_MAX_MS {
        out.fail(format!(
            "submit lag p99 {lag_p99:.1} ms exceeds {} ms",
            crate::SUBMIT_LAG_MAX_MS
        ));
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Drives one engine over `plan`: submit each request when due, step
/// while there is work, sleep while idle. Returns the served requests,
/// the submit lags, the outstanding count when the last request was
/// submitted, and the blocks in use after each step.
fn drive_engine(
    eng: &mut Engine,
    plan: Vec<Planned>,
    t0: Instant,
    probe: &SharedProbe,
) -> (Vec<Served>, Vec<f64>, usize, Vec<f64>) {
    let mut dues = std::collections::HashMap::new();
    let mut lags = Vec::new();
    let mut done = Vec::new();
    let mut blocks = Vec::new();
    let mut backlog = 0;
    let mut pending = plan.into_iter().peekable();
    let mut finished = Vec::new();
    loop {
        let start = Instant::now();
        while let Some(next) = pending.next_if(|p| t0 + p.due <= start) {
            let due = t0 + next.due;
            let id = next.req.id;
            let s = Instant::now();
            lags.push(ms(s.saturating_duration_since(due)));
            eng.submit(next.req).expect("queue depth covers the plan");
            probe.borrow_mut().call("serve.submit", s, Some(id));
            dues.insert(id, due);
            if pending.peek().is_none() {
                backlog = eng.outstanding();
            }
        }
        if eng.is_idle() {
            match pending.peek() {
                Some(next) => {
                    sleep_until(t0 + next.due);
                    continue;
                }
                None => break,
            }
        }
        probe.borrow_mut().begin_epoch("serve.step");
        let out = eng.step();
        probe.borrow_mut().end_epoch();
        blocks.push(eng.blocks_in_use() as f64);
        finished.extend(out);
    }
    let p = probe.borrow();
    for c in &finished {
        if let Some(s) = served(&p, 0, c, dues[&c.id]) {
            done.push(s);
        }
    }
    (done, lags, backlog, blocks)
}

/// `chat_open`: interactive single-node traffic with unshared prompts.
pub mod chat {
    pub const RATE: f64 = 0.5;
    pub const PROMPT_LENS: [usize; 10] = [16, 24, 40, 44, 46, 48, 50, 52, 112, 128];
    pub const OUTPUT_LENS: [usize; 5] = [16, 24, 32, 40, 48];
    pub const BACKLOG_MAX: usize = 8;
}

pub fn chat_open(seed: u64, seconds: f64, trace: bool) -> RunOutcome {
    let cap = Capacity {
        slots: 16,
        kv_blocks: 96,
        queue_cap: 256,
    };
    let probe = Probe::new(trace, 1);
    let (mut engines, setup_s) = timed_setup(QuantMode::F32, &cap, &probe, 1);
    let vocab = ModelConfig::stories15m().vocab_size;
    let mut rng = Rng::new(seed, 1);
    let dues = open_loop_schedule(chat::RATE, seconds);
    let plens = rng.ladder(&chat::PROMPT_LENS, dues.len());
    let olens = rng.ladder(&chat::OUTPUT_LENS, dues.len());
    let plan: Vec<Planned> = dues
        .iter()
        .enumerate()
        .map(|(i, &due)| Planned {
            req: request(i as u64, rng.prompt(plens[i], vocab), olens[i], &mut rng),
            due,
        })
        .collect();
    let mut out = RunOutcome::new("chat_open", probe.clone());
    let reqs: Vec<Request> = plan.iter().map(|p| p.req.clone()).collect();
    let eng = &mut engines[0];
    crate::program_telemetry(trace);
    let t0 = Instant::now();
    probe.borrow_mut().origin = t0;
    let (done, lags, backlog, blocks) = drive_engine(eng, plan, t0, &probe);
    speedllm_telemetry::set_enabled(false);
    let serving = probe
        .borrow()
        .epoch_end
        .last()
        .map_or(Duration::ZERO, |e| e.saturating_duration_since(t0));
    out.metrics.rss();
    check_open_loop(&lags, backlog, chat::BACKLOG_MAX, &mut out);
    let run = ServeRun {
        reqs,
        done,
        serving,
        setup_s,
        stats: eng.stats(),
        blocks,
    };
    score(&run, QuantMode::F32, seed, &mut out);
    out
}

/// What a serving run produced, ready to be scored.
struct ServeRun {
    reqs: Vec<Request>,
    done: Vec<Served>,
    /// From the start of the schedule to the end of the last step.
    serving: Duration,
    setup_s: f64,
    /// Scheduler counters over the timed window.
    stats: ServeStats,
    /// Blocks in use after each step (single engine only).
    blocks: Vec<f64>,
}

/// Checks a serving run and computes its metrics: completeness, the
/// end-to-end metrics, the per-layer metrics and request spans of a
/// traced run, and the sequential oracle (outside the timed window).
fn score(run: &ServeRun, quant: QuantMode, seed: u64, out: &mut RunOutcome) {
    let ids: Vec<u64> = run.reqs.iter().map(|r| r.id).collect();
    completeness(&ids, &run.done, out);
    serve_metrics(
        &run.done,
        run.reqs.len(),
        run.serving,
        run.setup_s,
        crate::slo(out.workload),
        &mut out.metrics,
    );
    let probe = out.probe.clone();
    if probe.borrow().trace {
        let prompt_tokens: u64 = run.reqs.iter().map(|r| r.prompt.len() as u64).sum();
        layer_metrics(
            &probe.borrow(),
            &run.done,
            &run.stats,
            prompt_tokens,
            run.serving,
            &run.blocks,
            &mut out.metrics,
        );
        request_spans(&probe, &run.done);
    }
    out.busy = probe.borrow().busy;
    out.tokens = run.done.iter().map(|s| s.tokens.len() as u64).sum();
    let refs: Vec<&Request> = run.reqs.iter().collect();
    oracle_check(quant, &refs, &run.done, seed, out);
}

/// Adds per-request spans (due → admitted → first token → last token),
/// derived from the wall-mapped virtual-tick stamps.
fn request_spans(probe: &SharedProbe, done: &[Served]) {
    let mut p = probe.borrow_mut();
    for s in done {
        let (Some(first), Some(last)) = (s.visible.first(), s.visible.last()) else {
            continue;
        };
        let root = p.push_span("request", s.due, *last, None, Some(s.id), 0);
        let admitted = s.admitted.unwrap_or(s.due).max(s.due);
        p.push_span("request.queue", s.due, admitted, Some(root), Some(s.id), 0);
        p.push_span(
            "request.to_first_token",
            admitted,
            *first,
            Some(root),
            Some(s.id),
            0,
        );
        p.push_span("request.decode", *first, *last, Some(root), Some(s.id), 0);
    }
}

/// `batch_offline`: int8 batches queued whole at t=0, repeated until the
/// run's time is used.
pub mod batch {
    pub const BATCH: usize = 4;
    pub const PROMPT_LENS: [usize; 4] = [4, 6, 8, 12];
    pub const OUTPUT_LENS: [usize; 4] = [48, 64, 80, 96];
}

pub fn batch_offline(seed: u64, seconds: f64, trace: bool) -> RunOutcome {
    let cap = Capacity {
        slots: batch::BATCH,
        kv_blocks: 128,
        queue_cap: 256,
    };
    let probe = Probe::new(trace, 1);
    let (mut engines, setup_s) = timed_setup(QuantMode::Int8, &cap, &probe, 1);
    let eng = &mut engines[0];
    let mut out = RunOutcome::new("batch_offline", probe.clone());
    let vocab = ModelConfig::stories15m().vocab_size;
    let mut rng = Rng::new(seed, 2);
    crate::program_telemetry(trace);
    let t0 = Instant::now();
    probe.borrow_mut().origin = t0;
    let mut done = Vec::new();
    let mut reqs = Vec::new();
    let mut blocks = Vec::new();
    let mut next_id = 0u64;
    let mut last = Duration::ZERO;
    // Start another batch only while it is expected to end in time.
    while next_id == 0 || (t0.elapsed() + last).as_secs_f64() <= seconds {
        let batch_start = Instant::now();
        let plens = rng.ladder(&batch::PROMPT_LENS, batch::BATCH);
        let olens = rng.ladder(&batch::OUTPUT_LENS, batch::BATCH);
        let start = t0.elapsed();
        let plan: Vec<Planned> = (0..batch::BATCH)
            .map(|i| {
                let id = next_id + i as u64;
                Planned {
                    req: request(id, rng.prompt(plens[i], vocab), olens[i], &mut rng),
                    due: start,
                }
            })
            .collect();
        next_id += batch::BATCH as u64;
        reqs.extend(plan.iter().map(|p| p.req.clone()));
        let (d, _, _, b) = drive_engine(eng, plan, t0, &probe);
        done.extend(d);
        blocks.extend(b);
        last = batch_start.elapsed();
    }
    let serving = t0.elapsed();
    speedllm_telemetry::set_enabled(false);
    out.metrics.rss();
    out.metrics.layer("loadgen.submit_lag_ms_p99", 0.0, "ms");
    let run = ServeRun {
        reqs,
        done,
        serving,
        setup_s,
        stats: eng.stats(),
        blocks,
    };
    score(&run, QuantMode::Int8, seed, &mut out);
    out
}

/// `prefix_cluster`: two replicas behind the prefix-aware router; every
/// prompt is a shared system prompt plus a short unique tail.
pub mod cluster {
    pub const REPLICAS: usize = 2;
    pub const RATE: f64 = 1.2;
    pub const SYSTEM_PROMPTS: usize = 3;
    pub const SYSTEM_LEN: usize = 128;
    pub const TAIL_LENS: [usize; 6] = [2, 3, 4, 5, 40, 48];
    pub const OUTPUT_LENS: [usize; 4] = [4, 8, 12, 16];
    pub const BACKLOG_MAX: usize = 12;
}

/// A `TrafficSource` on the wall clock: hands out requests once due,
/// sleeps while the cluster has nothing to do, and marks each poll as an
/// epoch boundary.
struct WallSource {
    plan: std::collections::VecDeque<Planned>,
    t0: Instant,
    probe: SharedProbe,
    dues: std::collections::HashMap<u64, Instant>,
    lags: Vec<f64>,
    backlog: usize,
}

impl TrafficSource for WallSource {
    fn poll(&mut self, _now: u64, outstanding: usize, room: usize) -> Vec<Request> {
        self.probe.borrow_mut().end_epoch();
        if outstanding == 0 {
            if let Some(next) = self.plan.front() {
                sleep_until(self.t0 + next.due);
            }
        }
        let start = Instant::now();
        let mut out = Vec::new();
        while out.len() < room && self.plan.front().is_some_and(|p| self.t0 + p.due <= start) {
            let p = self.plan.pop_front().expect("front checked");
            let due = self.t0 + p.due;
            self.lags.push(ms(start.saturating_duration_since(due)));
            self.dues.insert(p.req.id, due);
            out.push(p.req);
        }
        if !out.is_empty() && self.plan.is_empty() {
            self.backlog = outstanding + out.len();
        }
        let mut p = self.probe.borrow_mut();
        p.call("loadgen.poll", start, None);
        p.begin_epoch("router.tick");
        out
    }

    fn next_arrival(&self, _outstanding: usize) -> Option<u64> {
        // Arrivals are on the wall clock; 0 asks the cluster to tick on.
        (!self.plan.is_empty()).then_some(0)
    }

    fn is_exhausted(&self) -> bool {
        self.plan.is_empty()
    }
}

fn cluster_plan(seed: u64, seconds: f64, vocab: usize) -> (Vec<Vec<u32>>, Vec<Planned>) {
    let mut rng = Rng::new(seed, 3);
    let systems: Vec<Vec<u32>> = (0..cluster::SYSTEM_PROMPTS)
        .map(|_| rng.prompt(cluster::SYSTEM_LEN, vocab))
        .collect();
    let dues = open_loop_schedule(cluster::RATE, seconds);
    let which: Vec<usize> = (0..cluster::SYSTEM_PROMPTS).collect();
    let which = rng.ladder(&which, dues.len());
    let tails = rng.ladder(&cluster::TAIL_LENS, dues.len());
    let olens = rng.ladder(&cluster::OUTPUT_LENS, dues.len());
    let plan = dues
        .iter()
        .enumerate()
        .map(|(i, &due)| {
            let mut prompt = systems[which[i]].clone();
            let tail = rng.prompt(tails[i] + 1, vocab);
            prompt.extend(&tail[1..]);
            Planned {
                req: request(i as u64 + 1_000, prompt, olens[i], &mut rng),
                due,
            }
        })
        .collect();
    (systems, plan)
}

pub fn prefix_cluster(seed: u64, seconds: f64, trace: bool) -> RunOutcome {
    let cap = Capacity {
        slots: 16,
        kv_blocks: 96,
        queue_cap: 256,
    };
    let probe = Probe::new(trace, cluster::REPLICAS);
    let (engines, setup_s) = timed_setup(QuantMode::F32, &cap, &probe, cluster::REPLICAS);
    let mut cl = Cluster::new(engines, ClusterConfig::default());
    let mut out = RunOutcome::new("prefix_cluster", probe.clone());
    let vocab = ModelConfig::stories15m().vocab_size;
    let (systems, plan) = cluster_plan(seed, seconds, vocab);

    // Warm the radix caches: one request per system prompt, served
    // before the timed window and left out of every metric.
    let mut warm_rng = Rng::new(seed, 4);
    let warm: Vec<Planned> = systems
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut prompt = s.clone();
            prompt.push(3);
            Planned {
                req: request(i as u64, prompt, 1, &mut warm_rng),
                due: Duration::ZERO,
            }
        })
        .collect();
    let warm_probe = Probe::new(false, cluster::REPLICAS);
    let mut src = WallSource {
        plan: warm.into(),
        t0: Instant::now(),
        probe: warm_probe,
        dues: Default::default(),
        lags: Vec::new(),
        backlog: 0,
    };
    // The warm-up's backend calls land in the clock log ahead of the timed
    // part; their ticks precede every timed stamp, so the mapping holds.
    cl.run(&mut src);
    let warm_done = cl.completions().len();
    let warm_stats: Vec<ServeStats> = cl.report().per_replica.iter().map(|r| r.stats).collect();
    let warm_router = *cl.router_stats();

    let reqs: Vec<Request> = plan.iter().map(|p| p.req.clone()).collect();
    crate::program_telemetry(trace);
    let t0 = Instant::now();
    {
        let mut p = probe.borrow_mut();
        p.origin = t0;
        p.busy = Duration::ZERO;
        p.kinds.clear();
        p.spans.clear();
        p.prefill_rows_in_mixed = 0;
    }
    let mut src = WallSource {
        plan: plan.into(),
        t0,
        probe: probe.clone(),
        dues: Default::default(),
        lags: Vec::new(),
        backlog: 0,
    };
    cl.run(&mut src);
    probe.borrow_mut().end_epoch();
    let serving = t0.elapsed();
    speedllm_telemetry::set_enabled(false);
    out.metrics.rss();

    let done: Vec<Served> = {
        let p = probe.borrow();
        cl.completions()[warm_done..]
            .iter()
            .filter_map(|c| {
                served(
                    &p,
                    usize::from(c.replica),
                    &c.completion,
                    src.dues[&c.completion.id],
                )
            })
            .collect()
    };
    check_open_loop(&src.lags, src.backlog, cluster::BACKLOG_MAX, &mut out);
    if trace {
        let rs = cl.router_stats();
        let placed =
            (rs.prompt_tokens_at_placement - warm_router.prompt_tokens_at_placement) as f64;
        let hit =
            (rs.prefix_hit_tokens_at_placement - warm_router.prefix_hit_tokens_at_placement) as f64;
        out.metrics
            .layer("router.prefix_hit_rate", ratio(hit, placed), "fraction");
        let samples = rs.imbalance_samples - warm_router.imbalance_samples;
        out.metrics.layer(
            "router.mean_imbalance",
            ratio(rs.imbalance_sum - warm_router.imbalance_sum, samples as f64),
            "ratio",
        );
    }
    // Replica counters summed, minus the warm-up's share; peaks include it.
    let mut stats = ServeStats::default();
    for (r, w) in cl.report().per_replica.iter().zip(&warm_stats) {
        stats.preemptions += r.stats.preemptions - w.preemptions;
        stats.rejected += r.stats.rejected - w.rejected;
        stats.prefix_hit_tokens += r.stats.prefix_hit_tokens - w.prefix_hit_tokens;
        stats.cache_evicted_blocks += r.stats.cache_evicted_blocks - w.cache_evicted_blocks;
        stats.peak_blocks_in_use += r.stats.peak_blocks_in_use;
    }
    let run = ServeRun {
        reqs,
        done,
        serving,
        setup_s,
        stats,
        blocks: Vec::new(),
    };
    score(&run, QuantMode::F32, seed, &mut out);
    out
}
