//! Outside-in instrumentation: everything here wraps the program's public
//! calls and adds no tracing inside the program.
//!
//! * [`Probe`] keeps the **epochs** of a run. An epoch is one
//!   `ServeEngine::step` (single engine) or one cluster tick (from one
//!   `TrafficSource::poll` to the next); outputs produced inside an epoch
//!   become visible to the caller when it ends. Every backend call logs
//!   the replica's cumulative virtual-tick cost and the epoch it ran in,
//!   which is how the engine's virtual-tick stamps (`Completion::
//!   token_ticks`, `admitted_at`) are mapped to wall time.
//! * [`TimedBackend`] delegates to any [`Backend`] and, in a traced run,
//!   records one span per compute call and the time spent per call kind.
//! * Spans are kept in memory and exported at the end as Chrome trace
//!   JSON plus a per-name roll-up with self time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use speedllm_llama::config::ModelConfig;
use speedllm_pagedkv::{BlockConfig, BlockId, BlockTable};
use speedllm_serve::Backend;

use crate::util::{json_num, json_str};

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the enclosing span in [`Probe::spans`].
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub req: Option<u64>,
    /// Token rows carried (backend calls only).
    pub rows: u64,
}

/// Backend time and work by call kind.
#[derive(Default, Clone, Copy)]
pub struct KindTotals {
    pub calls: u64,
    pub rows: u64,
    pub time: Duration,
}

/// Shared run state the benchmark loop, the traffic source and every
/// [`TimedBackend`] write into.
pub struct Probe {
    pub trace: bool,
    pub origin: Instant,
    /// Start and end of each epoch.
    pub epoch_start: Vec<Instant>,
    pub epoch_end: Vec<Instant>,
    /// Per replica: `(cumulative cost after the call, epoch)` of every
    /// backend compute call, in call order.
    pub clock_log: Vec<Vec<(u64, usize)>>,
    pub spans: Vec<Span>,
    /// The open epoch span, parent of backend spans.
    pub open: Option<usize>,
    /// Backend totals keyed by call kind (`prefill`, `decode`, `mixed`,
    /// `verify`); `prefill_rows_in_mixed` splits mixed rows.
    pub kinds: BTreeMap<&'static str, KindTotals>,
    pub prefill_rows_in_mixed: u64,
    /// Time spent inside the program's calls (epochs, submits, polls),
    /// idle waits excluded.
    pub busy: Duration,
}

pub type SharedProbe = Rc<RefCell<Probe>>;

impl Probe {
    pub fn new(trace: bool, replicas: usize) -> SharedProbe {
        let now = Instant::now();
        Rc::new(RefCell::new(Self {
            trace,
            origin: now,
            epoch_start: Vec::new(),
            epoch_end: Vec::new(),
            clock_log: vec![Vec::new(); replicas],
            spans: Vec::new(),
            open: None,
            kinds: BTreeMap::new(),
            prefill_rows_in_mixed: 0,
            busy: Duration::ZERO,
        }))
    }

    /// Opens an epoch (and its span in a traced run).
    pub fn begin_epoch(&mut self, name: &'static str) {
        let now = Instant::now();
        self.epoch_start.push(now);
        if self.trace {
            self.open = Some(self.push_span(name, now, now, None, None, 0));
        }
    }

    /// Closes the open epoch, if any.
    pub fn end_epoch(&mut self) {
        if self.epoch_end.len() < self.epoch_start.len() {
            let now = Instant::now();
            self.busy += now - self.epoch_start[self.epoch_end.len()];
            self.epoch_end.push(now);
            if let Some(i) = self.open.take() {
                self.spans[i].end = now;
            }
        }
    }

    pub fn push_span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: Option<u64>,
        rows: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
            rows,
        });
        self.spans.len() - 1
    }

    /// Records a top-level call of the benchmark loop (submit, poll) that took
    /// `start..now`.
    pub fn call(&mut self, name: &'static str, start: Instant, req: Option<u64>) {
        let now = Instant::now();
        self.busy += now - start;
        if self.trace {
            self.push_span(name, start, now, None, req, 0);
        }
    }

    fn current_epoch(&self) -> usize {
        self.epoch_start.len().saturating_sub(1)
    }

    /// Wall time at which outputs stamped with virtual tick `tick` on
    /// `replica` became visible: the end of the epoch of the backend call
    /// that advanced the replica's clock to `tick`.
    pub fn visible_at(&self, replica: usize, tick: u64) -> Option<Instant> {
        let log = &self.clock_log[replica];
        let i = log.partition_point(|&(cum, _)| cum < tick);
        log.get(i)
            .and_then(|&(_, e)| self.epoch_end.get(e).copied())
    }

    /// Wall time of the start of the epoch in which the first backend
    /// call after virtual tick `tick` ran — when a request admitted at
    /// `tick` left the queue.
    pub fn started_after(&self, replica: usize, tick: u64) -> Option<Instant> {
        let log = &self.clock_log[replica];
        let i = log.partition_point(|&(cum, _)| cum <= tick);
        log.get(i)
            .and_then(|&(_, e)| self.epoch_start.get(e).copied())
    }

    pub fn backend_time(&self) -> Duration {
        self.kinds.values().map(|k| k.time).sum()
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Chrome trace-event JSON of every span: loop and backend spans on
    /// pid 1, per-request spans on pid 2 with one track per request.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let (pid, tid) = match sp.req {
                Some(r) if sp.name.starts_with("request") => (2, r + 1),
                _ if sp.parent.is_some() => (1, 2),
                _ => (1, 1),
            };
            let _ = write!(
                s,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{i}",
                json_str(sp.name),
                json_num(self.us(sp.start)),
                json_num(sp.end.saturating_duration_since(sp.start).as_secs_f64() * 1e6),
            );
            if let Some(p) = sp.parent {
                let _ = write!(s, ",\"parent\":{p}");
            }
            if let Some(r) = sp.req {
                let _ = write!(s, ",\"req\":{r}");
            }
            if sp.rows > 0 {
                let _ = write!(s, ",\"rows\":{}", sp.rows);
            }
            s.push_str("}}");
        }
        s.push_str("]}");
        s
    }

    /// Per-name roll-up: count, total and self time (duration minus the
    /// part covered by child spans) in ms.
    pub fn rollup(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for sp in &self.spans {
            if let Some(p) = sp.parent {
                child[p] += sp.end.saturating_duration_since(sp.start);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (sp, c) in self.spans.iter().zip(child) {
            let dur = sp.end.saturating_duration_since(sp.start);
            let e = out.entry(sp.name).or_default();
            e.0 += 1;
            e.1 += dur.as_secs_f64() * 1e3;
            e.2 += dur.saturating_sub(c).as_secs_f64() * 1e3;
        }
        out
    }
}

/// A [`Backend`] that delegates to `B` and reports each compute call to
/// the [`Probe`].
pub struct TimedBackend<B: Backend> {
    inner: B,
    probe: SharedProbe,
    replica: usize,
    cum: u64,
}

impl<B: Backend> TimedBackend<B> {
    pub fn new(inner: B, probe: SharedProbe, replica: usize) -> Self {
        Self {
            inner,
            probe,
            replica,
            cum: 0,
        }
    }

    fn timed<R>(
        &mut self,
        kind: &'static str,
        rows: u64,
        prefill_rows: u64,
        f: impl FnOnce(&mut B) -> (R, u64),
    ) -> (R, u64) {
        let start = Instant::now();
        let (out, cost) = f(&mut self.inner);
        let end = Instant::now();
        self.cum += cost;
        let mut p = self.probe.borrow_mut();
        let epoch = p.current_epoch();
        p.clock_log[self.replica].push((self.cum, epoch));
        if p.trace {
            let k = p.kinds.entry(kind).or_default();
            k.calls += 1;
            k.rows += rows;
            k.time += end - start;
            p.prefill_rows_in_mixed += prefill_rows;
            let parent = p.open;
            p.push_span(kind, start, end, parent, None, rows);
        }
        (out, cost)
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    type Slot = B::Slot;

    fn config(&self) -> ModelConfig {
        self.inner.config()
    }

    fn new_slot(&self) -> Self::Slot {
        self.inner.new_slot()
    }

    fn prefill(
        &mut self,
        slot: &mut Self::Slot,
        tokens: &[u32],
        start_pos: usize,
    ) -> (Vec<f32>, u64) {
        let n = tokens.len() as u64;
        self.timed("llama.prefill", n, 0, |b| {
            b.prefill(slot, tokens, start_pos)
        })
    }

    fn decode(&mut self, slots: &mut [&mut Self::Slot], tokens: &[u32]) -> (Vec<Vec<f32>>, u64) {
        let n = tokens.len() as u64;
        self.timed("llama.decode", n, 0, |b| b.decode(slots, tokens))
    }

    fn forward_mixed(
        &mut self,
        slots: &mut [&mut Self::Slot],
        runs: &[&[u32]],
    ) -> (Vec<Vec<f32>>, u64) {
        let rows: u64 = runs.iter().map(|r| r.len() as u64).sum();
        // A run longer than one token is a prefill chunk; single-token
        // runs are counted as decode rows.
        let prefill: u64 = runs
            .iter()
            .filter(|r| r.len() > 1)
            .map(|r| r.len() as u64)
            .sum();
        self.timed("llama.mixed", rows, prefill, |b| {
            b.forward_mixed(slots, runs)
        })
    }

    fn verify(&mut self, slots: &mut [&mut Self::Slot], runs: &[&[u32]]) -> (Vec<Vec<f32>>, u64) {
        let rows: u64 = runs.iter().map(|r| r.len() as u64).sum();
        self.timed("llama.verify", rows, 0, |b| b.verify(slots, runs))
    }

    fn truncate_slot(slot: &mut Self::Slot, len: usize) -> Vec<BlockId> {
        B::truncate_slot(slot, len)
    }

    fn block_config(&self) -> Option<BlockConfig> {
        self.inner.block_config()
    }

    fn slot_table_mut(slot: &mut Self::Slot) -> Option<&mut BlockTable> {
        B::slot_table_mut(slot)
    }

    fn on_blocks_freed(&mut self, blocks: &[BlockId]) {
        self.inner.on_blocks_freed(blocks);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
