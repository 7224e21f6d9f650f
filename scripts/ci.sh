#!/usr/bin/env bash
# Offline CI for the fairhms workspace. Mirrors .github/workflows/ci.yml so
# the same gate runs locally and in any runner with a Rust toolchain — the
# workspace has no network dependencies (rand/criterion/proptest are
# vendored under vendor/).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

# Repo-invariant static analysis (rules R1–R6: total_cmp comparators,
# documented/confined unsafe, justified atomic orderings, acyclic
# lock-order graph + poison-recovering locks, clock-free hot paths,
# newline-safe wire literals — see docs/ARCHITECTURE.md, "Static
# analysis & enforced invariants"). Runs before the test matrix: a
# contract violation fails fast, without waiting on the test passes.
# The waiver baseline is pinned; adding a `fairhms-lint: allow(..)`
# waiver requires bumping it here with a justification in the diff.
FAIRHMS_LINT_WAIVER_BASELINE=11
echo "==> fairhms-lint --deny-all (waiver baseline: $FAIRHMS_LINT_WAIVER_BASELINE)"
cargo run -q -p fairhms-lint -- --deny-all --max-waivers "$FAIRHMS_LINT_WAIVER_BASELINE"

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

# The workspace run covers the default configuration: single-shard
# catalog, text codec, warm-start on, telemetry on. Each pass below
# re-runs the service suite with one of those flipped, so every pass
# runs a configuration no other pass does.
echo "==> cargo test -q"
cargo test -q

# One core: TruncatedMhrObjective::gains splits large sweeps across
# every core it may run on, so pin the solver's bit-identity suites to a
# single CPU once to check the unsplit path against the same goldens.
if command -v taskset >/dev/null; then
    echo "==> solver tests on one core (taskset -c 0)"
    taskset -c 0 cargo test -q -p fairhms-core
    taskset -c 0 cargo test -q --test bigreedy_golden
else
    echo "==> taskset not found: skipping the one-core solver pass"
fi

# Sharded preparation: every engine/cache/server test must pass over the
# sharded (4-way) catalog too — answers are contractually bit-identical
# (see docs/ARCHITECTURE.md, "Sharded preparation & merge").
echo "==> service tests, sharded catalog (FAIRHMS_TEST_SHARDS=4)"
FAIRHMS_TEST_SHARDS=4 cargo test -p fairhms-service -q

# Binary codec: FAIRHMS_TEST_CODEC routes every TCP test's client through
# the v2 binary framing (WireClient::connect_env) — answers are
# contractually bit-identical to the text lines (see docs/PROTOCOL.md,
# "Protocol v2"). This includes the overload and mutation-churn suites.
echo "==> service tests, binary codec (FAIRHMS_TEST_CODEC=binary)"
FAIRHMS_TEST_CODEC=binary cargo test -p fairhms-service -q

# …and once with the warm-start tier disabled: every engine test must
# pass over the fully cold solve path too — answers are contractually
# bit-identical with the tier on or off (see
# crates/service/tests/warmstart_equivalence.rs).
echo "==> service tests, warm-start disabled (FAIRHMS_TEST_WARMSTART=0)"
FAIRHMS_TEST_WARMSTART=0 cargo test -p fairhms-service -q

# …and once with telemetry disabled: spans and stage accounting must be
# provably inert — answers are contractually bit-identical with
# telemetry on or off (see crates/service/tests/telemetry_equivalence.rs).
echo "==> service tests, telemetry disabled (FAIRHMS_TEST_TELEMETRY=0)"
FAIRHMS_TEST_TELEMETRY=0 cargo test -p fairhms-service -q

echo "==> bench smoke (service engine + shard prep + wire codecs + warm-start, tiny sizes)"
FAIRHMS_BENCH_MS="${FAIRHMS_BENCH_MS:-25}" cargo bench -p fairhms-bench --bench service
FAIRHMS_BENCH_MS="${FAIRHMS_BENCH_MS:-25}" cargo bench -p fairhms-bench --bench shard
FAIRHMS_BENCH_MS="${FAIRHMS_BENCH_MS:-25}" cargo bench -p fairhms-bench --bench protocol
FAIRHMS_BENCH_MS="${FAIRHMS_BENCH_MS:-25}" cargo bench -p fairhms-bench --bench warmstart

# The solver benches are the only runners of BiGreedy's eager greedy
# (`use_lazy: false`) and the paper's linear τ sweep outside the test
# suite; smoke them at the same cap so neither path can stop running.
echo "==> bench smoke (BiGreedy lazy/eager + τ-search ablation, tiny sizes)"
FAIRHMS_BENCH_MS="${FAIRHMS_BENCH_MS:-25}" cargo bench -p fairhms-bench --bench bigreedy
FAIRHMS_BENCH_MS="${FAIRHMS_BENCH_MS:-25}" cargo bench -p fairhms-bench --bench ablation

# Telemetry bench: asserts the warm-hit overhead budget (<1 µs), measures
# the event loop's idle-connection fan-out (500 idle conns must cost
# only the loop + worker threads), and writes the machine-readable
# service profile.
echo "==> telemetry bench smoke (overhead budget + idle fan-out + BENCH_service.json)"
FAIRHMS_BENCH_JSON="$PWD/BENCH_service.json" cargo bench -p fairhms-bench --bench telemetry
python3 -c "import json; d = json.load(open('BENCH_service.json')); \
assert d['warm_hit_overhead_ns'] < 1000 and d['queries_per_sec'] > 0 \
and d['metrics']['histograms'], 'BENCH_service.json failed sanity checks'; \
f = d['idle_fanout']; \
assert f['connections'] >= 500 and f['threads_grown'] <= 16 \
and f['ping_us_under_fanout'] > 0, 'idle fan-out failed sanity checks'; \
s = d['solver']; \
assert s['dataset_points'] > 0 and s['net_size'] > 0 \
and s['points_per_sec'] > 0 and s['db_max_ms'] > 0 \
and s['bigreedy_cold_ms'] > 0, \
'solver kernel section failed sanity checks'; \
m = d['mutation']; \
assert m['append_us'] > 0 and m['delete_us'] > 0 and m['full_reprep_ms'] > 0 \
and m['dropped_by_dominated_append'] < m['cached_entries_before'] \
and m['dropped_by_skyline_append'] == m['cached_entries_before'], \
'mutation section failed sanity checks (delta invalidation must spare \
untouched entries on a dominated append)'" \
  || { echo "BENCH_service.json missing or malformed"; exit 1; }

echo "CI OK"
