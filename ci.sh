#!/usr/bin/env bash
# Local CI gate: build, test, lint, and format-check the workspace.
# Usage: ./ci.sh  (run from the repository root)
#
# Clippy and rustfmt steps are skipped with a warning when the
# components are not installed (minimal toolchains), so the
# build+test core always runs.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }
cores="$(nproc 2>/dev/null || echo 1)"

step "cargo build --release"
cargo build --release

step "cargo test -q"
cargo test -q

step "flowdiff-bench watch smoke test (online mode)"
demo_dir="$(mktemp -d)"
trap 'rm -rf "$demo_dir"' EXIT
cargo run --release -q -p flowdiff-bench --bin flowdiff_cli -- demo "$demo_dir" >/dev/null
watch_out="$(cargo run --release -q -p flowdiff-bench --bin flowdiff-bench -- \
    watch "$demo_dir/baseline.fcap" "$demo_dir/current.fcap")"
printf '%s\n' "$watch_out" | tail -n 3
epochs="$(printf '%s\n' "$watch_out" | grep -c '^epoch ' || true)"
if [ "$epochs" -lt 1 ]; then
    echo "FAIL: watch emitted no epoch snapshots" >&2
    exit 1
fi
echo "watch emitted $epochs epoch snapshots"
if ! printf '%s\n' "$watch_out" | grep -q '^stats: .* interned'; then
    echo "FAIL: watch emitted no stats line" >&2
    exit 1
fi
printf '%s\n' "$watch_out" | grep '^stats: '

step "flowdiff-bench chaos smoke test (ingestion fault drill)"
chaos_out="$(cargo run --release -q -p flowdiff-bench --bin flowdiff-bench -- \
    chaos --seed 1 --corruption 0.01)"
printf '%s\n' "$chaos_out"
if ! printf '%s\n' "$chaos_out" | grep -q '^fidelity: '; then
    echo "FAIL: chaos drill emitted no fidelity line" >&2
    exit 1
fi

step "flowdiff-bench serve/publish smoke test (live TCP ingest, epoch lines identical to watch)"
# The prebuilt binary is used directly: serve runs in the background
# while publish runs in the foreground, and two concurrent `cargo run`s
# would fight over the build lock.
bench_bin="target/release/flowdiff-bench"
serve_out="$demo_dir/serve.out"
"$bench_bin" serve "$demo_dir/baseline.fcap" --listen 127.0.0.1:0 --publishers 2 \
    > "$serve_out" 2>"$demo_dir/serve.err" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on \([^ ]*\) .*/\1/p' "$serve_out" 2>/dev/null)"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "FAIL: serve never printed its listening line" >&2
    cat "$demo_dir/serve.err" >&2 || true
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
"$bench_bin" publish "$demo_dir/current.fcap" --connect "$addr" --connections 2
wait "$serve_pid"
grep '^stats: conn ' "$serve_out"
grep '^stats: ingest ' "$serve_out"
if ! diff <(printf '%s\n' "$watch_out" | grep '^epoch ') \
          <(grep '^epoch ' "$serve_out"); then
    echo "FAIL: served epoch lines differ from file-based watch" >&2
    exit 1
fi
echo "served epoch lines byte-identical to file-based watch"

step "flowdiff-bench chaos --wire (loopback publisher fidelity drill)"
wire_out="$("$bench_bin" chaos --seed 1 --corruption 0.01 --wire --connections 2)"
printf '%s\n' "$wire_out"
if ! printf '%s\n' "$wire_out" | grep -q '^fidelity: '; then
    echo "FAIL: wire chaos drill emitted no fidelity line" >&2
    exit 1
fi

step "flowdiff-bench flapdrill (connection-fault drill, fidelity gated)"
# Session publishers behind seeded flaps/stalls/trickle against a strict
# merge: resume is lossless and FIFO, so recovery must be exact. The
# gate is tight on purpose — recall under 99.9% means the session layer
# dropped events; precision under 99.9% means it reported changes the
# clean run did not.
flap_out="$("$bench_bin" flapdrill --seed 1 --flaps 2 --stalls 1 --trickles 1 --connections 2)"
printf '%s\n' "$flap_out"
if ! printf '%s\n' "$flap_out" | grep -q ' resume(s)'; then
    echo "FAIL: flapdrill conn lines report no resume counters" >&2
    exit 1
fi
if ! printf '%s\n' "$flap_out" | \
        awk '/^fidelity: / {
                 found = 1
                 for (i = 1; i < NF; i++) {
                     if ($i == "recall") recall = $(i + 1)
                     if ($i == "precision") precision = $(i + 1)
                 }
                 exit !(recall + 0 >= 99.9 && precision + 0 >= 99.9)
             }
             END { if (!found) exit 1 }'; then
    echo "FAIL: flapdrill recall or precision below 99.9% (or missing)" >&2
    exit 1
fi

step "flowdiff-bench serve with a permanently stalled publisher (stall budget liveness)"
# Conn 0 wedges for 3s mid-stream against a 200ms stall budget and a
# 200ms heartbeat: the merge must waive it, epochs must keep flowing
# with its diffs suppressed, and the reaper must kill the dead socket —
# the run completes while the publisher is still asleep.
stall_out="$demo_dir/serve_stall.out"
"$bench_bin" serve "$demo_dir/baseline.fcap" --listen 127.0.0.1:0 --publishers 2 \
    --stall-ms 200 --heartbeat-ms 200 \
    > "$stall_out" 2>"$demo_dir/serve_stall.err" &
stall_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on \([^ ]*\) .*/\1/p' "$stall_out" 2>/dev/null)"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "FAIL: stalled-publisher serve never printed its listening line" >&2
    cat "$demo_dir/serve_stall.err" >&2 || true
    kill "$stall_pid" 2>/dev/null || true
    exit 1
fi
# The stalled conn's write fails once the reaper cuts it, so publish
# exits nonzero by design.
"$bench_bin" publish "$demo_dir/current.fcap" --connect "$addr" --connections 2 \
    --stall-after 20000 --stall-ms 3000 || true
wait "$stall_pid"
grep '^stats: conn ' "$stall_out"
grep '^stats: ingest ' "$stall_out"
stall_epochs="$(grep -c '^epoch ' "$stall_out" || true)"
if [ "$stall_epochs" -lt 1 ]; then
    echo "FAIL: stalled publisher blocked all epoch emission" >&2
    exit 1
fi
if ! grep '^stats: ingest ' "$stall_out" | grep -q ' conn stalls'; then
    echo "FAIL: ingest health never counted the connection stall" >&2
    exit 1
fi
if ! grep -q 'ingest degraded' "$stall_out"; then
    echo "FAIL: no epoch was gated on the degraded ingest" >&2
    exit 1
fi
echo "merge released $stall_epochs epochs past the wedged publisher"

step "flowdiff-bench crashdrill smoke test (kill + checkpoint recovery)"
drill_out="$(cargo run --release -q -p flowdiff-bench --bin flowdiff-bench -- \
    crashdrill --seed 1 --kills 3)"
printf '%s\n' "$drill_out"
if ! printf '%s\n' "$drill_out" | grep -q '^recovery: 100.0% fidelity'; then
    echo "FAIL: crashdrill did not report full recovery fidelity" >&2
    exit 1
fi

step "flowdiff-bench hotpathbench (perf trajectory + no-regression gate)"
hotpath_out="$(cargo run --release -q -p flowdiff-bench --bin flowdiff-bench -- \
    hotpathbench)"
printf '%s\n' "$hotpath_out" | tail -n 6
if [ ! -s BENCH_hotpath.json ]; then
    echo "FAIL: hotpathbench did not write BENCH_hotpath.json" >&2
    exit 1
fi
entries="$(grep -c '"schema"' BENCH_hotpath.json || true)"
if [ "$entries" -lt 1 ]; then
    echo "FAIL: BENCH_hotpath.json holds no trajectory entries" >&2
    exit 1
fi
if [ "$cores" -ge 2 ] && [ "$entries" -ge 2 ]; then
    # The fresh entry must hold at least 80% of the previous recording's
    # events/s. Single-core runners time-share the benchmark with
    # everything else and are too noisy to gate on; the trajectory is
    # still recorded there.
    if ! awk -F'"events_per_sec": ' '/"events_per_sec"/ { sub(/,.*/, "", $2); v[n++] = $2 } \
            END { exit !(n >= 2 && v[n-1] >= 0.8 * v[n-2]) }' BENCH_hotpath.json; then
        echo "FAIL: hotpathbench events/s regressed >20% vs the previous entry" >&2
        exit 1
    fi
    echo "hotpath throughput within tolerance of the previous entry ($entries entries)"
else
    echo "INFO: ${cores} core(s), ${entries} entries; skipping hotpath regression gate"
fi

step "perfbench harness tests (the benchmark builds against the library API)"
CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path perfbench/harness/Cargo.toml

step "cargo bench --no-run (benches must compile)"
cargo bench --no-run -q

step "cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

if cargo clippy --version >/dev/null 2>&1; then
    step "cargo clippy --all-targets -- -D warnings"
    cargo clippy --all-targets -- -D warnings
else
    echo "WARN: clippy not installed; skipping lint step" >&2
fi

if cargo fmt --version >/dev/null 2>&1; then
    step "cargo fmt --check"
    cargo fmt --check
else
    echo "WARN: rustfmt not installed; skipping format step" >&2
fi

step "CI passed"
