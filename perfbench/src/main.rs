//! The SpeedLLM benchmark: one workload per invocation, inputs made from
//! `--seed`, outputs checked, and one JSON result as the last line of
//! standard output.
//!
//! ```text
//! perfbench --workload <chat_open|prefix_cluster|batch_offline|u280_generate>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run.
//! `--trace 1` makes an untraced run and then a traced run of the same
//! inputs, reports the per-layer metrics of the traced run plus the
//! tracing overhead, and writes `<out>/<workload>-seed<n>.trace.json`
//! (Chrome trace events) and `.rollup.json` (per-span-name totals).
//! See `perfbench/README.md` for every metric's definition.

mod probe;
mod serve_wl;
mod u280;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use speedllm_telemetry as tel;

use crate::probe::SharedProbe;
use crate::util::{json_num, json_str};

/// End-to-end metrics and their units (every workload reports all).
const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_tok_s", "tok/s"),
    ("ttft_p50_ms", "ms"),
    ("itl_p50_ms", "ms"),
    ("slo_attainment", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units. A layer a workload does not run
/// reports 0.
const LAYER: [(&str, &str); 36] = [
    ("serve.step_ms_p50", "ms"),
    ("serve.step_ms_p99", "ms"),
    ("serve.sched_self_ms_per_step", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.rows_per_pass_mean", "rows"),
    ("serve.preemptions", "count"),
    ("serve.rejected", "count"),
    ("llama.prefill_ms_per_token", "ms"),
    ("llama.decode_ms_per_row", "ms"),
    ("llama.mixed_ms_per_row", "ms"),
    ("llama.prefill_share", "fraction"),
    ("llama.busy_frac", "fraction"),
    ("llama.weight_mb_per_token", "MB"),
    ("pagedkv.prefix_hit_frac", "fraction"),
    ("pagedkv.blocks_in_use_mean", "blocks"),
    ("pagedkv.peak_blocks_in_use", "blocks"),
    ("pagedkv.cache_evicted_blocks", "blocks"),
    ("router.prefix_hit_rate", "fraction"),
    ("router.mean_imbalance", "ratio"),
    ("accel.host_ms_per_token", "ms"),
    ("accel.sim_prefill_cycles_per_token", "cycles"),
    ("accel.sim_decode_cycles_per_token", "cycles"),
    ("fpga.hbm_read_bytes_per_token", "bytes"),
    ("fpga.kernel_launches_per_token", "count"),
    ("fpga.alloc_stalls", "count"),
    ("fpga.mpe_busy_frac", "fraction"),
    ("fpga.energy_j_per_token", "J"),
    ("sim_latency_ms", "ms"),
    ("sim_decode_tok_s", "tok/s"),
    ("sim_tok_per_j", "tok/J"),
    ("telemetry.overhead_frac", "fraction"),
    ("loadgen.submit_lag_ms_p99", "ms"),
    ("tail.ttft_p90_ms", "ms"),
    ("tail.itl_p99_ms", "ms"),
    ("tail.ttft_samples", "count"),
    ("tail.itl_samples", "count"),
];

/// A run fails when requests were submitted this much later than due
/// (p99): the generator, not the server, would then set the arrival
/// times.
pub const SUBMIT_LAG_MAX_MS: f64 = 1500.0;

/// Latency limits of the SLO: a request meets it when its TTFT and its
/// mean inter-token gap are both within these.
#[derive(Clone, Copy)]
pub struct SloLimits {
    pub ttft_ms: f64,
    pub mean_itl_ms: f64,
}

pub fn slo(workload: &str) -> SloLimits {
    let (ttft_ms, mean_itl_ms) = match workload {
        "chat_open" => (1200.0, 120.0),
        "prefix_cluster" => (450.0, 120.0),
        "batch_offline" => (6000.0, 200.0),
        _ => (3000.0, 60.0),
    };
    SloLimits {
        ttft_ms,
        mean_itl_ms,
    }
}

/// Metric values of one run, with their units.
#[derive(Default)]
pub struct Metrics {
    e2e: BTreeMap<&'static str, (f64, &'static str)>,
    layer: BTreeMap<&'static str, (f64, &'static str)>,
    ttft_samples: usize,
    itl_samples: usize,
}

impl Metrics {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.insert(name, (value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layer.insert(name, (value, unit));
    }

    /// Records the process's peak RSS; call right after the timed window.
    pub fn rss(&mut self) {
        self.e2e("peak_rss_mb", util::peak_rss_mb(), "MB");
    }

    /// Tail latencies, with their sample counts. A run holds too few
    /// requests for these to be steady, so they are reported with the
    /// per-layer metrics and carry no bound.
    pub fn tails(&mut self, ttft: &[f64], itl: &[f64]) {
        self.ttft_samples = ttft.len();
        self.itl_samples = itl.len();
        self.layer("tail.ttft_p90_ms", util::percentile(ttft, 90.0), "ms");
        self.layer("tail.itl_p99_ms", util::percentile(itl, 99.0), "ms");
        self.layer("tail.ttft_samples", ttft.len() as f64, "count");
        self.layer("tail.itl_samples", itl.len() as f64, "count");
    }
}

/// The result of one workload run.
pub struct RunOutcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Time spent inside the program's calls (idle waits excluded) and
    /// tokens generated: the base of `telemetry.overhead_frac`.
    pub busy: Duration,
    pub tokens: u64,
    pub probe: SharedProbe,
}

impl RunOutcome {
    pub fn new(workload: &'static str, probe: SharedProbe) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Metrics::default(),
            busy: Duration::ZERO,
            tokens: 0,
            probe,
        }
    }

    pub fn fail(&mut self, why: String) {
        self.problems.push(why);
    }
}

/// Switches the program's own telemetry (spans and counters) on for a
/// traced run's timed window, from a clean registry.
pub fn program_telemetry(on: bool) {
    tel::set_enabled(false);
    tel::reset();
    tel::set_enabled(on);
}

/// A counter the program recorded during the timed window.
pub fn program_counter(name: &str) -> f64 {
    tel::metrics::snapshot()
        .counters
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: "perfbench/out".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
            }
            "--trace" => a.trace = v == "1",
            "--out" => a.out = v.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunOutcome, String> {
    Ok(match workload {
        "chat_open" => serve_wl::chat_open(seed, seconds, trace),
        "prefix_cluster" => serve_wl::prefix_cluster(seed, seconds, trace),
        "batch_offline" => serve_wl::batch_offline(seed, seconds, trace),
        "u280_generate" => u280::u280_generate(seed, seconds, trace),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// The metrics object of the result line: every name of `table`, with
/// 0 for a name the run did not produce. A unit that disagrees with the
/// table is a benchmark bug and fails the run.
fn metrics_json(
    table: &[(&'static str, &'static str)],
    got: &BTreeMap<&'static str, (f64, &'static str)>,
    problems: &mut Vec<String>,
) -> String {
    let mut s = String::from("{");
    for (i, (name, unit)) in table.iter().enumerate() {
        let (v, u) = got.get(name).copied().unwrap_or((0.0, unit));
        if u != *unit {
            problems.push(format!("{name} reported in {u}, declared in {unit}"));
        }
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(v),
            json_str(unit)
        );
    }
    s.push('}');
    s
}

/// Writes the traced run's spans (Chrome trace JSON) and the roll-up of
/// the benchmark's spans and the program's own spans by name.
fn export_trace(out: &RunOutcome, dir: &str, seed: u64, layer: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let base = format!("{dir}/{}-seed{seed}", out.workload);
    let p = out.probe.borrow();
    std::fs::write(format!("{base}.trace.json"), p.chrome_json())?;
    let mut r = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"per_layer\": {layer},\n \"spans\": {{",
        json_str(out.workload)
    );
    for (i, (name, (n, total, own))) in p.rollup().iter().enumerate() {
        let sep = if i > 0 { ",\n  " } else { "\n  " };
        let _ = write!(
            r,
            "{sep}{}: {{\"count\": {n}, \"total_ms\": {}, \"self_ms\": {}}}",
            json_str(name),
            json_num(*total),
            json_num(*own)
        );
    }
    let mut program: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for sp in tel::drain_spans() {
        let e = program
            .entry(format!("{}.{}", sp.track, sp.name))
            .or_default();
        e.0 += 1;
        e.1 += sp.dur_us / 1e3;
    }
    r.push_str("},\n \"program_spans\": {");
    for (i, (name, (n, total))) in program.iter().enumerate() {
        let sep = if i > 0 { ",\n  " } else { "\n  " };
        let _ = write!(
            r,
            "{sep}{}: {{\"count\": {n}, \"total_ms\": {}}}",
            json_str(name),
            json_num(*total)
        );
    }
    let _ = write!(
        r,
        "}},\n \"program_spans_dropped\": {}}}\n",
        tel::dropped_spans()
    );
    std::fs::write(format!("{base}.rollup.json"), r)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"host\": {{\"nproc\": {threads}, \"git_rev\": {}}}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        json_str(&std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into())),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let untraced = match run(&args.workload, args.seed, args.seconds, false) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let (out, metrics) = if args.trace {
        let mut traced =
            run(&args.workload, args.seed, args.seconds, true).expect("workload ran untraced");
        tel::set_enabled(false);
        // Busy time per generated token: closed workloads fit as many
        // batches or passes as time allows, so the two runs' work differs.
        let per_token = |o: &RunOutcome| util::ratio(o.busy.as_secs_f64(), o.tokens as f64);
        let overhead = util::ratio(per_token(&traced), per_token(&untraced)) - 1.0;
        traced
            .metrics
            .layer("telemetry.overhead_frac", overhead, "fraction");
        traced.problems.extend(untraced.problems);
        let mut problems = std::mem::take(&mut traced.problems);
        let json = metrics_json(&LAYER, &traced.metrics.layer, &mut problems);
        if let Err(e) = export_trace(&traced, &args.out, args.seed, &json) {
            problems.push(format!("writing the trace to {}: {e}", args.out));
        }
        traced.problems = problems;
        (traced, json)
    } else {
        let mut o = untraced;
        let mut problems = std::mem::take(&mut o.problems);
        let json = metrics_json(&E2E, &o.metrics.e2e, &mut problems);
        o.problems = problems;
        (o, json)
    };
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    eprintln!(
        "{}: {} requests, {} failed, {} TTFT samples, {} ITL samples",
        out.workload, out.attempted, out.failed, out.metrics.ttft_samples, out.metrics.itl_samples
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed
    );
}
