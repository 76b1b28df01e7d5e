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

# Clippy also enforces four rules of the determinism contract (DESIGN.md
# "Determinism lint"): the root clippy.toml bans the wall clock and
# scheduler identity (D1), ambient entropy (D3) and std::fs outside the
# checkpoint Vfs (D13), and the crate roots of chatlens-core, the root
# package and repro deny discarding a transport result (D7). Every
# exemption is an `#[expect(.., reason = ..)]`: -D warnings fails one
# that suppresses nothing, and allow_attributes_without_reason one
# without a reason.
echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings \
    -D clippy::allow_attributes_without_reason

# Documentation is part of the contract: every public item documented
# (deny(missing_docs) in the crates) and every intra-doc link resolving.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Hard gate: the determinism & concurrency static-analysis pass (rules
# D2, D4, D5, D8, D10 and D14; D9, D11 and D12 are types the build above
# already checked) must be clean before the test matrix runs (rule
# catalog in DESIGN.md "Determinism lint"; exits nonzero on any finding). The pass also has
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
# the quarantine ledger, its checkpoints must carry snapshot format v7
# (canonical varints + fold ledger + budget accountant state + exact
# transport counters), and the dataset invariant auditor must find
# nothing to report.
echo "==> hostile corruption smoke (repro run + audit)"
CKPT_DIR="$(mktemp -d)"
trap 'rm -rf "$CKPT_DIR"' EXIT
cargo run -q --bin repro -- --scale 0.005 --corruption hostile \
    --checkpoint-dir "$CKPT_DIR" run
LAST_CKPT="$(ls "$CKPT_DIR"/day*.ckpt | sort | tail -1)"
cargo run -q --bin repro -- checkpoint inspect "$LAST_CKPT" \
    | grep -q '"format_version":7'
cargo run -q --bin repro -- audit "$LAST_CKPT"

# Fold-ledger smoke: every repro run folds its analyses day by day, so
# a checkpointed campaign's snapshots must carry all 8 fold ledgers, and
# resuming from a mid-campaign snapshot must reproduce the same fragment
# digests as the uninterrupted run (the full byte-level parity matrix
# lives in tests/fold_parity.rs).
echo "==> fold ledger smoke (repro run + resume)"
INC_DIR="$(mktemp -d)"
trap 'rm -rf "$CKPT_DIR" "$INC_DIR"' EXIT
cargo run -q --bin repro -- --scale 0.005 \
    --checkpoint-dir "$INC_DIR" run | tee "$INC_DIR/first.out"
MID_CKPT="$INC_DIR/day020.ckpt"
cargo run -q --bin repro -- checkpoint inspect "$MID_CKPT" \
    | grep -q '"folds":8'
cargo run -q --bin repro -- --resume "$MID_CKPT" run \
    | tee "$INC_DIR/resumed.out"
fold_digests() {
    # Fold-summary rows: "<name>  <state>  <digest>"; the digest is the
    # last column.
    grep -E '^(discovery|content|membership|lifecycle|messages|pii|topics|stats) ' "$1" \
        | awk '{print $1, $NF}'
}
diff <(fold_digests "$INC_DIR/first.out") <(fold_digests "$INC_DIR/resumed.out") \
    || { echo "FAIL: resumed fold fragment digests diverge" >&2; exit 1; }

# Budget x fold smoke: a budgeted, checkpointed campaign halted at the
# day-20 boundary and resumed with the same flags must land on the fold
# digests of an uninterrupted unbudgeted run and on its report bytes,
# every one of its 38 snapshots (nonzero spilled bases included) must
# verify and decode,
# and every artifact rendered from the resumed chain (`all`) must print
# the unbudgeted stdout byte for byte (the full matrix lives in
# tests/budget.rs).
#
# The unbudgeted, fault-free reference run is made once: this smoke, the
# torn-write smoke and the memory-budget smoke all compare against its
# stdout and report (`--report-out` writes only to the file and stderr,
# so the stdout is a plain run's).
echo "==> budget x fold smoke (repro run|all --mem-budget min)"
REF_DIR="$(mktemp -d)"
COMBO_DIR="$(mktemp -d)"
trap 'rm -rf "$CKPT_DIR" "$INC_DIR" "$REF_DIR" "$COMBO_DIR"' EXIT
cargo run -q --bin repro -- --scale 0.005 run \
    --report-out "$REF_DIR/unbudgeted.report" > "$REF_DIR/uninterrupted.out"
cargo run -q --bin repro -- --scale 0.005 --mem-budget min \
    --checkpoint-dir "$COMBO_DIR/chain" --halt-after-day 20 run
cargo run -q --bin repro -- --scale 0.005 --mem-budget min \
    --checkpoint-dir "$COMBO_DIR/chain" --resume "$COMBO_DIR/chain" run \
    --report-out "$COMBO_DIR/budgeted.report" > "$COMBO_DIR/resumed.out"
cargo run -q --bin repro -- checkpoint verify --all "$COMBO_DIR/chain"
diff <(fold_digests "$REF_DIR/uninterrupted.out") <(fold_digests "$COMBO_DIR/resumed.out") \
    || { echo "FAIL: budgeted resumed fold digests diverge" >&2; exit 1; }
cmp "$REF_DIR/unbudgeted.report" "$COMBO_DIR/budgeted.report" \
    || { echo "FAIL: budgeted folded report diverges from the unbudgeted run" >&2; exit 1; }
cargo run -q --bin repro -- --scale 0.005 all > "$COMBO_DIR/unbudgeted.all"
cargo run -q --bin repro -- --scale 0.005 --mem-budget min \
    --checkpoint-dir "$COMBO_DIR/chain" --resume "$COMBO_DIR/chain" all > "$COMBO_DIR/budgeted.all"
cmp "$COMBO_DIR/unbudgeted.all" "$COMBO_DIR/budgeted.all" \
    || { echo "FAIL: budgeted resumed \`all\` diverges from the unbudgeted run" >&2; exit 1; }

# Torn-write crash-storm smoke: run a checkpointed campaign under the
# torn disk-fault profile (25% of saves silently lose their rename, 10%
# land truncated, reads see bit-rot), kill it mid-campaign, verify the
# damaged chain, then resume — chain recovery must walk back past the
# damage and the final report must be byte-identical to the fault-free
# golden run (the full every-boundary matrix lives in
# tests/crash_storm.rs).
echo "==> torn-write crash-storm smoke (repro run --disk-fault torn)"
TORN_DIR="$(mktemp -d)"
trap 'rm -rf "$CKPT_DIR" "$INC_DIR" "$REF_DIR" "$COMBO_DIR" "$TORN_DIR"' EXIT
cargo run -q --bin repro -- --scale 0.005 --disk-fault torn \
    --checkpoint-dir "$TORN_DIR/chain" --halt-after-day 20 run
cargo run -q --bin repro -- checkpoint verify --all "$TORN_DIR/chain"
cargo run -q --bin repro -- --scale 0.005 --disk-fault torn \
    --resume "$TORN_DIR/chain" run > "$TORN_DIR/resumed.out"
cmp "$REF_DIR/uninterrupted.out" "$TORN_DIR/resumed.out" \
    || { echo "FAIL: torn-profile resume diverges from the fault-free run" >&2; exit 1; }

# Memory-budget smoke: a campaign under a hard byte ceiling (Min mode —
# everything cold spills) must complete without aborting, and its report
# must be byte-identical to the unbudgeted run's. The full composition
# matrix (budget × torn spills × kill/resume × threads) lives in
# tests/budget.rs.
echo "==> memory-budget smoke (repro run --mem-budget min)"
MEM_DIR="$(mktemp -d)"
trap 'rm -rf "$CKPT_DIR" "$INC_DIR" "$REF_DIR" "$COMBO_DIR" "$TORN_DIR" "$MEM_DIR"' EXIT
cargo run -q --bin repro -- --scale 0.005 --mem-budget min \
    --spill-dir "$MEM_DIR/spill" run --report-out "$MEM_DIR/budgeted.report"
cmp "$REF_DIR/unbudgeted.report" "$MEM_DIR/budgeted.report" \
    || { echo "FAIL: budgeted report diverges from the unbounded run" >&2; exit 1; }

echo "==> cargo test (threads=1)"
CHATLENS_THREADS=1 cargo test -q --workspace

echo "==> cargo test (threads=8)"
CHATLENS_THREADS=8 cargo test -q --workspace

# tests/allocs.rs pins its allocator counts for the test profile and for
# `--release`; the two runs above build only the test profile.
echo "==> allocation pins (--release)"
cargo test -q --release --test allocs

# The message-page kernels (the digit writer and sizing, the day-offset
# counting sort, the canonical page scanner) run with overflow checks off
# in release, and the scanner relies on 19 digits never overflowing a
# `u64`; their property tests run in that profile too, and so do the
# scanner's one-way contract tests beside the general decode in
# `core::joiner`.
echo "==> message-page kernel tests (--release)"
cargo test -q --release -p chatlens-platforms -p chatlens-simnet
cargo test -q --release -p chatlens-core --lib joiner::

# The benchmark (BENCHMARK.json) is a package of its own outside the
# workspace, so the workspace runs above never build its unit tests
# (metric-name grammar, record round-trip, seed tables, spans). `--locked`
# fails the run if a workspace change would rewrite the benchmark's own
# Cargo.lock instead of letting cargo edit it silently.
echo "==> benchmark unit tests"
cargo test --offline --locked --manifest-path benchmark/Cargo.toml

echo "CI green."
