#!/usr/bin/env bash
# EXPERIMENTS.md types no measured number of its own: every table a
# sim-clock bench prints is pinned as golden text under
# tests/golden/{scenarios,experiments}/<bench>.txt (`ci.sh` diffs the
# benches against them), and the document carries each golden verbatim,
# fenced, between
#
#   <!-- pinned: tests/golden/experiments/<bench>.txt -->
#   <!-- /pinned -->
#
#   experiments.sh          — rewrite every block from its golden
#   experiments.sh --check  — change nothing; fail if a block differs
#                             from its golden, or a golden has no block
#
# After a re-pin (`cargo bench -q -p snap-bench --bench <name> >
# tests/golden/<dir>/<name>.txt`), run this and read the prose around the
# block that moved.
set -euo pipefail

cd "$(dirname "$0")/.."

doc=EXPERIMENTS.md
spliced="$(mktemp)"
trap 'rm -f "$spliced"' EXIT

awk '
    /^<!-- pinned: [^ ]+ -->$/ {
        print
        golden = $3
        print "```text"
        while ((status = getline line < golden) > 0) print line
        if (status < 0) { print "experiments.sh: no such golden: " golden > "/dev/stderr"; exit 2 }
        close(golden)
        print "```"
        skipping = 1
        next
    }
    /^<!-- \/pinned -->$/ { skipping = 0 }
    !skipping { print }
' "$doc" > "$spliced"

for golden in tests/golden/scenarios/*.txt tests/golden/experiments/*.txt; do
    if ! grep -qxF "<!-- pinned: $golden -->" "$doc"; then
        echo "experiments.sh: $golden has no '<!-- pinned: $golden -->' block in $doc" >&2
        exit 1
    fi
done

if [ "${1:-}" = "--check" ]; then
    if ! diff -u "$doc" "$spliced"; then
        echo "experiments.sh: $doc quotes a table its golden no longer holds;" \
             "run scripts/experiments.sh and re-read the prose around it" >&2
        exit 1
    fi
    echo "$doc matches its goldens"
else
    cp "$spliced" "$doc"
fi
