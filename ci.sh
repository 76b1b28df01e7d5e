#!/usr/bin/env bash
# CI gate: formatting, lints, and the full test suite under both the
# serial and the 8-thread parallel runtime. The parallel runtime is
# deterministic by construction (see DESIGN.md "Parallelism &
# determinism"), so every exact-value assertion in the suite must pass
# identically at any thread count.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Documentation is part of the contract: every public item documented
# (deny(missing_docs) in the crates) and every intra-doc link resolving.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Hard gate: the determinism & concurrency static-analysis pass must be
# clean before the test matrix runs (rule catalog in DESIGN.md
# "Determinism lint"; exits nonzero on any finding). The pass also has
# a perf budget — a full workspace scan must finish inside 5 seconds —
# and its machine-readable report (target/lint.json, schema
# chatlens-lint/v1) must validate and be byte-stable across runs.
echo "==> chatlens-lint (repro lint)"
cargo test -q -p chatlens-lint
cargo build -q --bin repro
LINT_T0=$(date +%s%N)
cargo run -q --bin repro -- lint --out target/lint.json
LINT_T1=$(date +%s%N)
LINT_MS=$(( (LINT_T1 - LINT_T0) / 1000000 ))
echo "    lint pass: ${LINT_MS}ms"
if [ "$LINT_MS" -gt 5000 ]; then
    echo "FAIL: lint pass took ${LINT_MS}ms (budget 5000ms)" >&2
    exit 1
fi
cargo run -q --bin repro -- lint --validate target/lint.json
cargo run -q --bin repro -- lint --out target/lint2.json
cmp target/lint.json target/lint2.json \
    || { echo "FAIL: lint.json not byte-stable across runs" >&2; exit 1; }
rm -f target/lint2.json

# Resilience smoke: a whole campaign under the bursty (Gilbert–Elliott)
# fault profile must complete and report its totals — the storm may cost
# coverage (recorded in the gap ledger), never the run.
echo "==> bursty fault-profile smoke (repro run)"
cargo run -q --bin repro -- --scale 0.005 --fault-profile bursty run

# Byzantine smoke: a campaign under hostile wire corruption (20% of
# bodies mutated in flight) must complete with every rejected body in
# the quarantine ledger, its checkpoints must carry snapshot format v6
# (canonical varints + fold ledger + budget accountant state), and the
# dataset invariant auditor must find nothing to report.
echo "==> hostile corruption smoke (repro run + audit)"
CKPT_DIR="$(mktemp -d)"
trap 'rm -rf "$CKPT_DIR"' EXIT
cargo run -q --bin repro -- --scale 0.005 --corruption hostile \
    --checkpoint-dir "$CKPT_DIR" run
LAST_CKPT="$(ls "$CKPT_DIR"/day*.ckpt | sort | tail -1)"
cargo run -q --bin repro -- checkpoint inspect "$LAST_CKPT" \
    | grep -q '"format_version":6'
cargo run -q --bin repro -- audit "$LAST_CKPT"

# Incremental-parity smoke: the folded analysis pipeline must complete a
# checkpointed campaign, its snapshots must carry all 8 fold ledgers,
# and resuming from a mid-campaign snapshot must reproduce the same
# fragment digests as the uninterrupted run (the full byte-level parity
# matrix lives in tests/fold_parity.rs).
echo "==> incremental analysis smoke (repro run --analysis incremental)"
INC_DIR="$(mktemp -d)"
trap 'rm -rf "$CKPT_DIR" "$INC_DIR"' EXIT
cargo run -q --bin repro -- --scale 0.005 --analysis incremental \
    --checkpoint-dir "$INC_DIR" run | tee "$INC_DIR/first.out"
MID_CKPT="$INC_DIR/day020.ckpt"
cargo run -q --bin repro -- checkpoint inspect "$MID_CKPT" \
    | grep -q '"folds":8'
cargo run -q --bin repro -- --analysis incremental --resume "$MID_CKPT" run \
    | tee "$INC_DIR/resumed.out"
fold_digests() {
    # Fold-summary rows: "<name>  <state>  <fold µs>  <finish µs>  <digest>".
    # Timing columns are wall-clock; only name + digest must reproduce.
    grep -E '^(discovery|content|membership|lifecycle|messages|pii|topics|stats) ' "$1" \
        | awk '{print $1, $NF}'
}
diff <(fold_digests "$INC_DIR/first.out") <(fold_digests "$INC_DIR/resumed.out") \
    || { echo "FAIL: resumed fold fragment digests diverge" >&2; exit 1; }

# Torn-write crash-storm smoke: run a checkpointed campaign under the
# torn disk-fault profile (25% of saves silently lose their rename, 10%
# land truncated, reads see bit-rot), kill it mid-campaign, verify the
# damaged chain, then resume — chain recovery must walk back past the
# damage and the final report must be byte-identical to the fault-free
# golden run (the full every-boundary matrix lives in
# tests/crash_storm.rs).
echo "==> torn-write crash-storm smoke (repro run --disk-fault torn)"
TORN_DIR="$(mktemp -d)"
trap 'rm -rf "$CKPT_DIR" "$INC_DIR" "$TORN_DIR"' EXIT
cargo run -q --bin repro -- --scale 0.005 run > "$TORN_DIR/golden.out"
cargo run -q --bin repro -- --scale 0.005 --disk-fault torn \
    --checkpoint-dir "$TORN_DIR/chain" --halt-after-day 20 run
cargo run -q --bin repro -- checkpoint verify --all "$TORN_DIR/chain"
cargo run -q --bin repro -- --scale 0.005 --disk-fault torn \
    --resume "$TORN_DIR/chain" run > "$TORN_DIR/resumed.out"
cmp "$TORN_DIR/golden.out" "$TORN_DIR/resumed.out" \
    || { echo "FAIL: torn-profile resume diverges from the fault-free run" >&2; exit 1; }

# Memory-budget smoke: a campaign under a hard byte ceiling (Min mode —
# everything cold spills) must complete without aborting, and its report
# must be byte-identical to the unbudgeted run's. The full composition
# matrix (budget × torn spills × kill/resume × threads) lives in
# tests/budget.rs.
echo "==> memory-budget smoke (repro run --mem-budget min)"
MEM_DIR="$(mktemp -d)"
trap 'rm -rf "$CKPT_DIR" "$INC_DIR" "$TORN_DIR" "$MEM_DIR"' EXIT
cargo run -q --bin repro -- --scale 0.005 run \
    --report-out "$MEM_DIR/unbounded.report"
cargo run -q --bin repro -- --scale 0.005 --mem-budget min \
    --spill-dir "$MEM_DIR/spill" run --report-out "$MEM_DIR/budgeted.report"
cmp "$MEM_DIR/unbounded.report" "$MEM_DIR/budgeted.report" \
    || { echo "FAIL: budgeted report diverges from the unbounded run" >&2; exit 1; }

echo "==> cargo test (threads=1)"
CHATLENS_THREADS=1 cargo test -q --workspace

echo "==> cargo test (threads=8)"
CHATLENS_THREADS=8 cargo test -q --workspace

# The benchmark (BENCHMARK.json) is a package of its own outside the
# workspace, so the workspace runs above never build its unit tests
# (metric-name grammar, record round-trip, seed tables, spans).
echo "==> benchmark unit tests"
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> bench timing record (BENCH_par.json)"
cargo bench -p chatlens-bench --bench par

# Hot-path regression gate: re-measure the campaign's per-stage
# wall-clock and fail on any stage >25% slower than the committed
# BENCH_hotpath.json baseline. After an intentional perf change (or on
# a machine with a different clock base), refresh with
#   BENCH_HOTPATH_UPDATE=1 cargo run --release -p chatlens-bench
# and commit the rewritten baseline.
echo "==> hot-path regression gate (BENCH_hotpath.json)"
cargo run --release -p chatlens-bench

# Fold regression gate: report-stage latency (batch render vs folded
# finish), per-day fold cost, and peak encoded fold-state bytes against
# the committed BENCH_fold.json baseline. Refresh intentional changes
# with BENCH_FOLD_UPDATE=1 (same contract as the hotpath knob).
echo "==> fold regression gate (BENCH_fold.json)"
cargo run --release -p chatlens-bench --bin fold

# Memory-accounting regression gate: peak accounted resident bytes and
# spill/fault counts at the paper and 10x stand-in scales against the
# committed BENCH_mem.json baseline. Every entry is deterministic (byte
# and partition counts, not wall-clock); >25% growth fails. Refresh
# intentional changes with BENCH_MEM_UPDATE=1 (same contract as the
# hotpath knob).
echo "==> memory-budget regression gate (BENCH_mem.json)"
cargo run --release -p chatlens-bench --bin mem

echo "CI green."
