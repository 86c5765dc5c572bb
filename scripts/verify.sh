#!/usr/bin/env bash
# Full verification gate: tier-1 (build + tests) plus a bench smoke pass.
#
# Everything here runs offline — the workspace has no registry
# dependencies, so a clean checkout verifies with no network at all.
#
# Usage: scripts/verify.sh [--tier1-only]

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: formatting =="
cargo fmt --check

echo "== tier 1: release build =="
# --workspace so the release `speedllm` binary used by the telemetry smoke
# below is rebuilt too (the root package alone excludes the CLI crate).
cargo build --release --workspace

# --workspace is a superset of the tier-1 `cargo test -q` (root package):
# it adds every member crate's unit tests, the testkit self-tests, and
# the repro-binary smoke tests in crates/bench/tests.
echo "== tier 1+ : workspace test suite =="
cargo test -q --workspace

if [[ "${1:-}" == "--tier1-only" ]]; then
    echo "verify OK (tier 1 only)"
    exit 0
fi

# All bench targets live in speedllm-bench (harness = false), so scope the
# run there — default libtest harnesses elsewhere would reject --smoke.
echo "== bench smoke (tiny configs, 3 samples per bench) =="
cargo bench -p speedllm-bench -- --smoke

echo "== serve smoke (continuous batching, byte-identical reports) =="
# The serve layer keeps all timing in virtual ticks, so the same seed must
# render the same bytes, run to run and backend-config to backend-config.
serve_a="$(./target/release/speedllm serve-bench --smoke)"
serve_b="$(./target/release/speedllm serve-bench --smoke)"
if [[ "$serve_a" != "$serve_b" ]]; then
    echo "serve-bench --smoke is not deterministic:" >&2
    diff <(printf '%s\n' "$serve_a") <(printf '%s\n' "$serve_b") >&2 || true
    exit 1
fi
grep -q "requests completed   8" <<<"$serve_a"
serve_cpu="$(./target/release/speedllm serve-bench --smoke --backend cpu)"
grep -q "serve-bench report (cpu backend)" <<<"$serve_cpu"
echo "serve smoke OK: accel + cpu backends deterministic"

echo "== paged-serve smoke (block pool + radix prefix cache, both backends) =="
# Same determinism bar for the paged KV path: the block allocator, radix
# sharing, and preemptive eviction all run in virtual time, so reports
# must be byte-identical run to run.
paged_a="$(./target/release/speedllm serve-bench --smoke --kv paged)"
paged_b="$(./target/release/speedllm serve-bench --smoke --kv paged)"
if [[ "$paged_a" != "$paged_b" ]]; then
    echo "serve-bench --smoke --kv paged is not deterministic:" >&2
    diff <(printf '%s\n' "$paged_a") <(printf '%s\n' "$paged_b") >&2 || true
    exit 1
fi
grep -q "requests completed   8" <<<"$paged_a"
grep -q "peak blocks in use" <<<"$paged_a"
paged_cpu="$(./target/release/speedllm serve-bench --smoke --backend cpu --kv paged --block-size 4 --shared-prefix 8)"
grep -q "requests completed   8" <<<"$paged_cpu"
# With a 2-block shared prefix the radix cache must actually hit.
grep -q "prefix-hit tokens" <<<"$paged_cpu"
if grep -Eq "prefix-hit tokens +0$" <<<"$paged_cpu"; then
    echo "paged cpu smoke: shared prefix never hit the radix cache" >&2
    exit 1
fi
# Recycled-block hygiene + equal-memory ablation, in the release profile
# (debug poisoning off — reuse must be clean on its own merits).
cargo test --release -q -p speedllm --test paged_reuse
echo "paged serve smoke OK: deterministic on accel + cpu, prefix cache hits"

echo "== batched-decode GEMM identity gate (release) =="
# The batched serve hot path must stay bit-identical to the sequential
# per-sequence loop in the profile the benches and serve runs actually
# use (debug asserts off): flat + paged slots, serial + parallel kernels,
# permuted batch order, on both backends.
cargo test --release -q -p speedllm --test batched_decode_props

echo "== unified-batch smoke (mixed prefill+decode ticks, byte-identical reports) =="
# The unified scheduler shares the virtual clock discipline: the same
# seeded bursty workload through mixed token-budget ticks must render
# the same bytes, run to run, on both backends.
uni_a="$(./target/release/speedllm serve-bench --smoke --mode bursty --burst-size 4 --burst-gap 16 --token-budget 8 --prefill-ratio 50)"
uni_b="$(./target/release/speedllm serve-bench --smoke --mode bursty --burst-size 4 --burst-gap 16 --token-budget 8 --prefill-ratio 50)"
if [[ "$uni_a" != "$uni_b" ]]; then
    echo "unified serve-bench smoke is not deterministic:" >&2
    diff <(printf '%s\n' "$uni_a") <(printf '%s\n' "$uni_b") >&2 || true
    exit 1
fi
grep -q "requests completed   8" <<<"$uni_a"
grep -q "token budget 8, prefill ratio 50%" <<<"$uni_a"
uni_cpu="$(./target/release/speedllm serve-bench --smoke --backend cpu --kv paged --prefill-ratio 25)"
grep -q "requests completed   8" <<<"$uni_cpu"
echo "unified-batch smoke OK: deterministic mixed ticks on accel + cpu"

echo "== unified-batch identity gate (release) =="
# The mixed prefill+decode tick must stay bit-identical to the
# sequential prefill-then-decode engine in the release profile (debug
# asserts off): budget × ratio × chunk × flat/paged × serial/parallel
# grids on both backends, plus the mid-tick-finish / exact-fit /
# forced-split / preempt-half-prefilled edges and the pure-decode
# report-byte regression.
cargo test --release -q -p speedllm --test unified_batch_props
cargo test --release -q -p speedllm --test unified_batch_telemetry

echo "== batched GEMM ablation smoke (tok/s + weight bytes/token vs width) =="
gemm_out="$(cargo bench -q -p speedllm-bench --bench ablation_batched_gemm -- --smoke)"
grep -q "batch 8:" <<<"$gemm_out"
# JSONL rows must carry the batch_width meta the repro tooling keys on.
grep -q '"batch_width":"8"' <<<"$gemm_out"
echo "batched GEMM smoke OK: ablation table + batch_width-stamped JSONL rows"

echo "== speculative smoke (draft K ahead, one-pass verify, byte-identical) =="
# Speculation must keep the virtual-clock discipline: same seed, same
# bytes, run to run — including the lifecycle event log, which now
# carries draft_tick/verify_tick lines. Greedy sampling with the `auto`
# draft (a stories260K-shaped trunk at an offset seed) must show nonzero
# acceptance or speculation is not actually engaging.
spec_dir="$(mktemp -d /tmp/speedllm_verify_spec.XXXXXX)"
trap 'rm -rf "$spec_dir"' EXIT
# Report determinism (no export path in the output), then event-log
# determinism as a file-level byte compare.
spec_a="$(./target/release/speedllm serve-bench --smoke --spec-k 4 --sampler argmax)"
spec_b="$(./target/release/speedllm serve-bench --smoke --spec-k 4 --sampler argmax)"
./target/release/speedllm serve-bench --smoke --spec-k 4 --sampler argmax \
    --events-out "$spec_dir/ev_a.jsonl" >/dev/null
./target/release/speedllm serve-bench --smoke --spec-k 4 --sampler argmax \
    --events-out "$spec_dir/ev_b.jsonl" >/dev/null
if [[ "$spec_a" != "$spec_b" ]]; then
    echo "serve-bench --smoke --spec-k 4 is not deterministic:" >&2
    diff <(printf '%s\n' "$spec_a") <(printf '%s\n' "$spec_b") >&2 || true
    exit 1
fi
cmp "$spec_dir/ev_a.jsonl" "$spec_dir/ev_b.jsonl"
grep -q "requests completed   8" <<<"$spec_a"
grep -q "spec rounds" <<<"$spec_a"
if grep -Eq "spec acceptance      0/" <<<"$spec_a"; then
    echo "speculative smoke: greedy acceptance is zero" >&2
    exit 1
fi
grep -q '"ev":"draft_tick"' "$spec_dir/ev_a.jsonl"
grep -q '"ev":"verify_tick"' "$spec_dir/ev_a.jsonl"
# Paged KV + speculation: rollback pops blocks, preemption drops draft
# state; the composition must stay deterministic too.
spec_paged_a="$(./target/release/speedllm serve-bench --smoke --backend cpu --kv paged --spec-k 3 --sampler argmax)"
spec_paged_b="$(./target/release/speedllm serve-bench --smoke --backend cpu --kv paged --spec-k 3 --sampler argmax)"
if [[ "$spec_paged_a" != "$spec_paged_b" ]]; then
    echo "paged speculative smoke is not deterministic" >&2
    exit 1
fi
grep -q "spec rounds" <<<"$spec_paged_a"
# The speculative identity gate in the profile serve runs actually use
# (debug asserts off): stream bit-identity + rollback oracles across
# K x flat/paged x cpu/accel x serial/parallel x greedy/seeded.
cargo test --release -q -p speedllm --test speculative_props
echo "speculative smoke OK: deterministic, nonzero acceptance, events carry draft/verify ticks"

echo "== observability smoke (lifecycle events + tick metrics + analyze) =="
obs_dir="$(mktemp -d /tmp/speedllm_verify_obs.XXXXXX)"
trap 'rm -rf "$spec_dir" "$obs_dir"' EXIT
# Exports must be byte-reproducible: same seed, same bytes, run to run.
./target/release/speedllm serve-bench --smoke \
    --events-out "$obs_dir/ev_a.jsonl" --metrics-out "$obs_dir/ticks_a.csv" >/dev/null
./target/release/speedllm serve-bench --smoke \
    --events-out "$obs_dir/ev_b.jsonl" --metrics-out "$obs_dir/ticks_b.csv" >/dev/null
cmp "$obs_dir/ev_a.jsonl" "$obs_dir/ev_b.jsonl"
cmp "$obs_dir/ticks_a.csv" "$obs_dir/ticks_b.csv"
# The analyzer must ingest the event log back and produce a non-empty
# phase breakdown that accounts for every smoke request.
analyze_out="$(./target/release/speedllm analyze --events "$obs_dir/ev_a.jsonl")"
grep -q "phase breakdown" <<<"$analyze_out"
grep -q "8 requests (8 completed" <<<"$analyze_out"
grep -q "top 5 slowest requests" <<<"$analyze_out"
n_events="$(wc -l < "$obs_dir/ev_a.jsonl")"
n_ticks="$(tail -n +2 "$obs_dir/ticks_a.csv" | wc -l)"
if (( n_events < 8 * 4 )); then
    echo "observability smoke: suspiciously few lifecycle events ($n_events)" >&2
    exit 1
fi
if (( n_ticks < 1 )); then
    echo "observability smoke: tick series is empty" >&2
    exit 1
fi
echo "observability smoke OK: $n_events events + $n_ticks tick samples, byte-stable, analyze reconciles"

echo "== telemetry smoke (instrumented tiny generate -> Chrome trace) =="
trace_file="$(mktemp /tmp/speedllm_verify_trace.XXXXXX.json)"
trap 'rm -rf "$spec_dir" "$obs_dir" "$trace_file"' EXIT
# Capture first, then grep: grep -q closing a live pipe would SIGPIPE the
# binary and trip pipefail.
smoke_out="$(./target/release/speedllm run --preset tiny --steps 8 --trace-out "$trace_file")"
grep -q "telemetry summary" <<<"$smoke_out"
python3 - "$trace_file" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "trace has no complete events"
# One span from each instrumented layer: host per-token work, the engine
# timing pass, and the simulator's cycle timeline (pid 2).
host = {e["name"] for e in spans if e["pid"] == 1}
assert {"prefill_chunk", "decode_token"} <= host, f"host spans missing: {host}"
assert "timing_pass" in host, f"engine spans missing: {host}"
assert any(e["pid"] == 2 for e in spans), "no simulator spans"
print(f"telemetry smoke OK: {len(spans)} spans")
EOF

echo "== cluster smoke (router + replicas, byte-identical, fault-tolerant) =="
cl_dir="$(mktemp -d /tmp/speedllm_verify_cluster.XXXXXX)"
trap 'rm -rf "$spec_dir" "$obs_dir" "$trace_file" "$cl_dir"' EXIT
# Every routing policy must be byte-reproducible: the full stdout
# (cluster report + per-replica reports) AND the merged replica-stamped
# event export must match between double runs. The trailing "wrote ...
# to PATH" line is dropped: it names the (different) output files.
for policy in prefix least-loaded round-robin; do
    a="$(./target/release/speedllm cluster-bench --smoke --replicas 3 --policy "$policy" \
        --events-out "$cl_dir/ev_a.jsonl" | grep -v '^wrote ')"
    b="$(./target/release/speedllm cluster-bench --smoke --replicas 3 --policy "$policy" \
        --events-out "$cl_dir/ev_b.jsonl" | grep -v '^wrote ')"
    if [[ "$a" != "$b" ]]; then
        echo "cluster-bench --policy $policy is not deterministic" >&2
        exit 1
    fi
    cmp "$cl_dir/ev_a.jsonl" "$cl_dir/ev_b.jsonl"
    grep -q '"replica":' "$cl_dir/ev_a.jsonl"
    echo "$a" > "$cl_dir/report_$policy.txt"
done
# Placement policy must never change what gets generated — per-request
# seeded samplers make token streams routing-independent.
rr_digest="$(grep 'token stream digest' "$cl_dir/report_round-robin.txt")"
px_digest="$(grep 'token stream digest' "$cl_dir/report_prefix.txt")"
if [[ "$rr_digest" != "$px_digest" ]]; then
    echo "routing policy changed the token streams: $px_digest vs $rr_digest" >&2
    exit 1
fi
# Fault injection: kill replica 0 mid-run; the router must fail its work
# over and still complete every request with the no-fault digest.
fault_out="$(./target/release/speedllm cluster-bench --smoke --replicas 3 --fault-at 20:0)"
grep -q "requests completed   12" <<<"$fault_out"
failed_over="$(grep -m1 'failed over' <<<"$fault_out" | awk '{print $3}')"
if (( failed_over < 1 )); then
    echo "fault at tick 20 drained nothing (failed over $failed_over)" >&2
    exit 1
fi
fault_digest="$(grep 'token stream digest' <<<"$fault_out")"
if [[ "$fault_digest" != "$px_digest" ]]; then
    echo "failover changed the token streams: $fault_digest vs $px_digest" >&2
    exit 1
fi
# The prefix policy must actually land warm placements on the smoke
# shared-prefix workload.
grep -E 'prefix hit at placement +[1-9]' "$cl_dir/report_prefix.txt" >/dev/null
cargo test --release -q -p speedllm --test router_props
echo "cluster smoke OK: 3 policies deterministic, streams policy- and fault-invariant ($failed_over failed over)"

echo "== quantized serve smoke (fused dequant-GEMM, byte-identical, compressed stream) =="
# The quantized hot path (DESIGN.md §18) must keep the virtual-clock
# discipline: int8 and int4 double runs render the same bytes on both
# backends and both KV layouts.
for quant in int8 int4; do
    for backend in cpu accel; do
        for kvopt in pool paged; do
            q_a="$(./target/release/speedllm serve-bench --smoke --backend "$backend" --kv "$kvopt" --quant "$quant")"
            q_b="$(./target/release/speedllm serve-bench --smoke --backend "$backend" --kv "$kvopt" --quant "$quant")"
            if [[ "$q_a" != "$q_b" ]]; then
                echo "serve-bench --quant $quant ($backend/$kvopt) is not deterministic:" >&2
                diff <(printf '%s\n' "$q_a") <(printf '%s\n' "$q_b") >&2 || true
                exit 1
            fi
            grep -q "quant:    $quant weights" <<<"$q_a"
            grep -q "requests completed   8" <<<"$q_a"
        done
    done
done
# The gemm_weight_bytes telemetry must report the compressed stream:
# int8 strictly under 1/3 of the f32 weight bytes per token, int4
# strictly under int8.
quant_dir="$(mktemp -d /tmp/speedllm_verify_quant.XXXXXX)"
trap 'rm -rf "$spec_dir" "$obs_dir" "$trace_file" "$cl_dir" "$quant_dir"' EXIT
for quant in f32 int8 int4; do
    ./target/release/speedllm serve-bench --smoke --backend cpu --quant "$quant" \
        --trace-out "$quant_dir/trace_$quant.json" > "$quant_dir/out_$quant.txt"
done
python3 - "$quant_dir" <<'EOF'
import json, sys
def bytes_per_token(path):
    bytes_ = tokens = None
    for line in open(path):
        cols = line.split()
        if cols[:1] == ["cpu.gemm_weight_bytes"]:
            bytes_ = int(cols[1])
        if cols[:1] == ["cpu.gemm_tokens"]:
            tokens = int(cols[1])
    assert bytes_ and tokens, f"{path}: missing cpu.gemm_* counters"
    return bytes_ / tokens
d = sys.argv[1]
f32 = bytes_per_token(f"{d}/out_f32.txt")
i8 = bytes_per_token(f"{d}/out_int8.txt")
i4 = bytes_per_token(f"{d}/out_int4.txt")
assert i8 * 3 < f32, f"int8 stream not under 1/3 of f32: {i8} vs {f32}"
assert i4 < i8, f"int4 stream not under int8: {i4} vs {i8}"
# A prefill chunk is one run-based pass: no per-token `forward` span, and
# no classifier row for a non-final prefill token (ROADMAP item 2).
per_token = [e["name"] for e in json.load(open(f"{d}/trace_f32.json"))
             if e.get("ph") == "X" and e.get("name") in ("forward", "classifier")]
assert not per_token, f"trace_f32.json: {len(per_token)} per-token forward/classifier spans"
print(f"weight stream/token OK: f32 {f32:.0f} B, int8 {i8:.0f} B ({f32/i8:.2f}x), int4 {i4:.0f} B ({f32/i4:.2f}x)")
EOF
# Perplexity-delta gate on stories15M: quantized CPU engines must track
# the fp32 reference (eval exits nonzero past the bound).
./target/release/speedllm eval --preset stories15m --tokens 24 --engines cpu \
    --gate-int8 0.02 --gate-int4 0.10 | tail -2
# The quantized identity gates in the profile serve runs actually use
# (debug asserts off): kernel bit-identity, round-trip bounds, pack/unpack
# exactness, and the serve-bench double-run corners.
cargo test --release -q -p speedllm --test quant_props
cargo test --release -q -p speedllm-cli --test serve_bench quant
echo "== quant ablation smoke (tok/s + weight MB/token, quant-stamped JSONL) =="
quant_bench="$(cargo bench -q -p speedllm-bench --bench ablation_quant -- --smoke)"
grep -q "int4 batch 8:" <<<"$quant_bench"
grep -q '"quant":"int8"' <<<"$quant_bench"
echo "quantized serve smoke OK: int8/int4 deterministic on both backends, stream compressed, ppl gated"

echo "verify OK"
