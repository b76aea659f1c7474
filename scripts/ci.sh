#!/usr/bin/env bash
# The tier-1 gate: release build, every test of every workspace crate
# (the root `cargo test -q` the roadmap names reaches only the umbrella
# crate's suites; the crates' unit tests — the Flow proptests, the
# threaded SPSC/mailbox tests — need `--workspace`), clippy clean
# across every target, and the benchmark's correctness gate. Run before
# every merge; everything is deterministic (seeded virtual time), so a
# green run here is a green run anywhere.
#
#   ci.sh            — lock files current (root and benchmark)
#                      + build + test + release budgets + clippy + rustdoc links
#                      + timeline export
#                      + pinned sim-clock tables + the golden-per-bench and
#                        bench-name guards + EXPERIMENTS.md against its goldens
#                      + benchmark smoke + pinned smoke digests (seeds 42 and 7)
#                      + the size table (printed, not gated)
#
# PROPTEST_CASES can be exported to shrink or grow the property-test
# budget (default 64 cases per property).
set -euo pipefail

cd "$(dirname "$0")/.."

# A manifest edit that would make cargo rewrite a lock file is a red
# build, above all the benchmark's own: `benchmark/Cargo.lock` records
# every crate's dependency list and is re-locked only on purpose.
echo "== tier-1: lock files match the manifests =="
cargo metadata --locked --offline --format-version 1 > /dev/null
cargo metadata --locked --offline --format-version 1 --manifest-path benchmark/Cargo.toml > /dev/null
echo "lock files are current"

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test --workspace =="
cargo test --workspace -q

# The allocation budgets have a release figure and a looser debug one
# (`cfg!(debug_assertions)`); the workspace run above is a debug build,
# so only this run holds the code to the figures the benchmark sees. The
# §5.1 pair's window-doubling test simulates 1.4 GB of transfer: minutes
# in a debug build, where it is ignored, seconds here. The event budget
# (simulator events per delivered packet) does not depend on the build;
# it runs here because its figures are the benchmark's.
echo "== tier-1: release budgets =="
cargo test --release -q --test datapath_budget --test sockets_budget --test event_budget --test pair

echo "== tier-1: cargo clippy --workspace --all-targets =="
cargo clippy --workspace --all-targets -- -D warnings

# Docs name items by intra-doc link; a link to something renamed or
# deleted is a rustdoc warning, denied here.
echo "== tier-1: cargo doc, broken links denied =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Timeline export: the fault-injection example asserts its own
# invariants and writes a Chrome-trace file, which must stay loadable
# by Chrome tracing / Perfetto; parsing it approximates that
# structurally (json.load, not json.tool: pretty-printing 13 MB costs
# seven times the parse).
echo "== tier-1: fault_injection example + timeline export validation =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
repo="$PWD"
(cd "$tmp" && cargo run --release -q --manifest-path "$repo/Cargo.toml" --example fault_injection > /dev/null)
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$tmp/TIMELINE_fault_injection.json"
echo "timeline export parses as JSON"

# Sim-clock benches: the scenarios assert their own invariants
# (same-seed rerun equality, hedged p99 < unhedged p99, incast drops at
# the victim ToR); Fig 9 is the one run of the upgrade orchestrator at
# scale (160 engines); Fig 6(b,c), 6(d), 7(a), 7(b) and the ablations'
# SLO sweep run the §5.2 rack driver (`src/rack.rs`, 8 s together);
# Table 1, Fig 6(a) and the ablations' batch sweep the §5.1 pair driver
# (`src/pair.rs`, 2 s); Fig 8 and §5.4 their own loops (7 s). Each
# prints virtual-time tables that are pinned as golden text: a golden is
# the list entry, so a bench is gated by having one.
echo "== tier-1: pinned sim-clock tables =="
for golden in tests/golden/scenarios/*.txt tests/golden/experiments/*.txt; do
    bench="$(basename "$golden" .txt)"
    cargo bench -q -p snap-bench --bench "$bench" > "$tmp/$bench.txt"
    if ! diff -u "$golden" "$tmp/$bench.txt"; then
        echo "model drift: bench $bench no longer prints its pinned table" \
             "(re-pin $golden only if you meant to change the model)"
        exit 1
    fi
done
echo "pinned tables match"

# The marker proof (RFC-0006): every `[[bench]]` but `micro` (Criterion,
# host clock) has a golden, so a bench dropped from the loop above, or
# added without a pin, is a red build, not a silently skipped table.
echo "== tier-1: every sim-clock bench has a golden =="
sed -n 's/^name = "\(.*\)"$/\1/p' crates/bench/Cargo.toml | grep -vx -e snap-bench -e micro \
    | while read -r bench; do
    if ! ls tests/golden/*/"$bench.txt" > /dev/null 2>&1; then
        echo "unpinned bench: [[bench]] $bench has no tests/golden/{scenarios,experiments}/$bench.txt"
        exit 1
    fi
done
echo "every sim-clock bench has a golden"

# EXPERIMENTS.md carries each golden verbatim between markers; a number
# cannot change under the prose that quotes it.
echo "== tier-1: EXPERIMENTS.md against its goldens =="
scripts/experiments.sh --check

# Every `--bench <name>` the documents quote is a bench that exists: a
# renamed or merged bench may not leave its old name behind in prose.
echo "== tier-1: quoted bench names exist =="
grep -ohE -e '--bench [a-z0-9_]+' DESIGN.md EXPERIMENTS.md README.md crates/bench/src/lib.rs \
    | sort -u | while read -r _ bench; do
    if ! grep -qx "name = \"$bench\"" crates/bench/Cargo.toml; then
        echo "stale bench name: '--bench $bench' is quoted in the docs but is no [[bench]]" \
             "in crates/bench/Cargo.toml"
        exit 1
    fi
done
echo "quoted bench names exist"

# Benchmark smoke: all five workloads at 5 % of their windows, on the
# working seed and the verification seed, with the correctness gate on
# (model digest equal across reps and attachments, exactly-once, packet
# conservation, no failed op). Times nothing.
echo "== tier-1: benchmark smoke =="
python3 benchmark/run.py --smoke --seed 42 --seed 7 --out "$tmp/bench-smoke"

# Model drift is a red build: the smoke runs' digests are pinned.
echo "== tier-1: smoke model digests =="
grep -v '^#' scripts/smoke_digests.txt | while read -r workload seed want; do
    got="$(awk '$1 == "model_digest" { print $2 }' "$tmp/bench-smoke/$workload.seed$seed.run1.txt")"
    if [ "$got" != "$want" ]; then
        echo "model drift: $workload seed $seed smoke digest $got, pinned $want" \
             "(re-pin scripts/smoke_digests.txt only if you meant to change the model)"
        exit 1
    fi
done
echo "smoke model digests match"

# Size of what ships, for ROADMAP item 6; informational.
echo "== size: non-test code lines and pub items =="
scripts/loc.sh

echo "tier-1 gate: OK"
