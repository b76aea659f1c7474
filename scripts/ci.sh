#!/usr/bin/env bash
# The tier-1 gate: release build, every test of every workspace crate
# (the root `cargo test -q` the roadmap names reaches only the umbrella
# crate's suites; the crates' unit tests — the Flow proptests, the
# threaded SPSC/mailbox tests — need `--workspace`), clippy clean
# across every target, and the benchmark's correctness gate. Run before
# every merge; everything is deterministic (seeded virtual time), so a
# green run here is a green run anywhere.
#
#   ci.sh            — build + test + clippy + smokes + pinned smoke digests (seeds 42 and 7)
#
# PROPTEST_CASES can be exported to shrink or grow the property-test
# budget (default 64 cases per property).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test --workspace =="
cargo test --workspace -q

echo "== tier-1: cargo clippy --workspace --all-targets =="
cargo clippy --workspace --all-targets -- -D warnings

# Observability smoke: the recorder bench must keep the modeled run
# identical (asserted inside the bin) and both exports must be valid
# JSON — the timeline in particular must stay loadable by Chrome
# tracing / Perfetto, which json.tool approximates structurally.
echo "== tier-1: bench_obs smoke + export validation =="
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
cargo run --release -q -p snap-bench --bin bench_obs \
    "$obs_tmp/BENCH_pr10.json" "$obs_tmp/TIMELINE_pr10.json"
python3 -m json.tool "$obs_tmp/BENCH_pr10.json" > /dev/null
python3 -m json.tool "$obs_tmp/TIMELINE_pr10.json" > /dev/null
echo "bench_obs exports parse as JSON"

# Benchmark smoke: all five workloads at 5 % of their windows, on the
# working seed and the verification seed, with the correctness gate on
# (model digest equal across reps and attachments, exactly-once, packet
# conservation, no failed op). Times nothing.
echo "== tier-1: benchmark smoke =="
python3 benchmark/run.py --smoke --seed 42 --seed 7 --out "$obs_tmp/bench-smoke"

# Model drift is a red build: the smoke runs' digests are pinned.
echo "== tier-1: smoke model digests =="
grep -v '^#' scripts/smoke_digests.txt | while read -r workload seed want; do
    got="$(awk '$1 == "model_digest" { print $2 }' "$obs_tmp/bench-smoke/$workload.seed$seed.run1.txt")"
    if [ "$got" != "$want" ]; then
        echo "model drift: $workload seed $seed smoke digest $got, pinned $want" \
             "(re-pin scripts/smoke_digests.txt only if you meant to change the model)"
        exit 1
    fi
done
echo "smoke model digests match"

echo "tier-1 gate: OK"
