#!/usr/bin/env bash
# Size of the code that ships: per crate and for the umbrella `src/`,
# non-test code lines and public items. ROADMAP item 6's acceptance
# ("fewer lines, public API surface listed and smaller") reads off this
# table; `ci.sh` prints it, nothing gates on it.
#
#   code lines — each `src/**/*.rs` up to its first `#[cfg(test)]`,
#                blank lines and `//` comment lines skipped (benches and
#                `tests/` are not under `src/`, so they are excluded)
#   pub items  — lines matching `^\s*pub (fn|struct|enum|trait|type|const) `
#                in that same span
#
#   loc.sh [FILE...]   — with files, one row per file instead of per crate
#
# Under the per-crate table: the five largest files by code lines, so
# the next god-file is visible before it is 2 000 lines long.
set -euo pipefail

cd "$(dirname "$0")/.."

total_code=0
total_pubs=0

# count FILE... — prints "code pubs" over the files.
count() {
    awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { code++ }
        /^[[:space:]]*pub (fn|struct|enum|trait|type|const) / { pubs++ }
        END { printf "%d %d\n", code, pubs }
    ' "$@"
}

# tally LABEL FILE... — prints one row and adds it to the totals.
tally() {
    local label="$1" code pubs
    shift
    read -r code pubs < <(count "$@")
    printf '%-32s %8d %8d\n' "$label" "$code" "$pubs"
    total_code=$((total_code + code))
    total_pubs=$((total_pubs + pubs))
}

printf '%-32s %8s %8s\n' "" "code" "pub"
if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        tally "$file" "$file"
    done
else
    for dir in crates/*/src src; do
        mapfile -t files < <(find "$dir" -name '*.rs' | sort)
        tally "${dir%/src}" "${files[@]}"
    done
fi
printf '%-32s %8d %8d\n' "total" "$total_code" "$total_pubs"

if [ "$#" -eq 0 ]; then
    echo
    echo "largest files:"
    find crates/*/src src -name '*.rs' | sort | while read -r file; do
        read -r code pubs < <(count "$file")
        printf '%-32s %8d %8d\n' "$file" "$code" "$pubs"
    done | sort -k2,2nr | head -5
fi
