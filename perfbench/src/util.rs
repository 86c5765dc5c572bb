//! Small helpers: seeded input generation, order statistics, JSON
//! output and process memory.

use std::fmt::Write as _;
use std::time::Duration;

use speedllm_llama::rng::SplitMix64;

/// Seeded generator for the workloads' inputs.
pub struct Rng(SplitMix64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(SplitMix64::new(
            seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// `n` values drawn from `ladder` so that every consecutive block of
    /// `ladder.len()` values holds each rung once, in seeded order. The
    /// mix of lengths is then the same in every run and only its order
    /// depends on the seed, which keeps runs of different seeds
    /// comparable.
    pub fn ladder(&mut self, ladder: &[usize], n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut block = ladder.to_vec();
            for i in (1..block.len()).rev() {
                let j = self.range(0, i as u64 + 1) as usize;
                block.swap(i, j);
            }
            out.extend(block);
        }
        out.truncate(n);
        out
    }

    /// A prompt: BOS then `len - 1` ordinary token ids (never BOS/EOS).
    pub fn prompt(&mut self, len: usize, vocab: usize) -> Vec<u32> {
        let mut p = Vec::with_capacity(len);
        p.push(speedllm_llama::tokenizer::TOKEN_BOS);
        while p.len() < len {
            p.push(self.range(3, vocab as u64) as u32);
        }
        p
    }
}

/// Due times of an open loop at a fixed `rate` (requests per second)
/// over `seconds`: one request every `1/rate`, the first half a period
/// in.
pub fn open_loop_schedule(rate: f64, seconds: f64) -> Vec<Duration> {
    let n = (rate * seconds).round() as usize;
    (0..n)
        .map(|i| Duration::from_secs_f64((i as f64 + 0.5) / rate))
        .collect()
}

/// Percentile (`q` in 0..=100) of unsorted values, interpolated linearly
/// between the two nearest ranks; 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Minimal JSON string escaping (names here are ASCII identifiers).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
