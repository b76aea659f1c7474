#!/usr/bin/env bash
# Size of the code that ships: per crate and for the umbrella `src/`,
# non-test code lines and public items. ROADMAP item 5's acceptance
# ("fewer lines, public API surface listed and smaller") reads off this
# table; `ci.sh` prints it, nothing gates on it.
#
#   code lines — each `src/**/*.rs` up to its first `#[cfg(test)]`,
#                blank lines and `//` comment lines skipped (benches and
#                `tests/` are not under `src/`, so they are excluded; so
#                is a file named `tests.rs`, the body of a
#                `#[cfg(test)] mod tests;`)
#   pub items  — lines matching `^\s*pub (fn|struct|enum|trait|type|const) `
#                in that same span
#
#   loc.sh [--against REV] [FILE...]
#
# With files, one row per file instead of per crate. With `--against
# REV`, two column pairs — REV | the working tree — the table a
# CHANGES.md entry carries; REV's files are read with `git show`, and a
# row that does not exist on one side prints `-` there.
#
# Under the plain per-crate table: the five largest files by code
# lines, so the next god-file is visible before it is 2 000 lines long.
set -euo pipefail

cd "$(dirname "$0")/.."

against=""
if [ "${1:-}" = "--against" ]; then
    against="${2:?--against needs a revision}"
    git rev-parse --verify --quiet "$against^{commit}" > /dev/null \
        || { echo "loc.sh: no such revision: $against" >&2; exit 2; }
    shift 2
fi

# sources REV PATH... — the counted files at REV (empty: the working
# tree) under each PATH: the `.rs` files below a directory, or PATH
# itself when it names a `.rs` file that exists there.
sources() {
    local rev="$1"
    shift
    if [ -n "$rev" ]; then
        git ls-tree -r --name-only "$rev" -- "$@"
    else
        find "$@" -type f 2> /dev/null || true
    fi | grep '\.rs$' | grep -v '/tests\.rs$' | sort
}

# count REV FILE... — prints "code pubs" over the files (`- -` for none).
count() {
    local rev="$1" file
    shift
    [ "$#" -gt 0 ] || { echo "- -"; return; }
    for file in "$@"; do
        printf '\036\n'
        if [ -n "$rev" ]; then git show "$rev:$file"; else cat "$file"; fi
    done | awk '
        /^\036$/ { in_tests = 0; next }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { code++ }
        /^[[:space:]]*pub (fn|struct|enum|trait|type|const) / { pubs++ }
        END { printf "%d %d\n", code, pubs }
    '
}

# Totals per side: 0 is the working tree, 1 is REV.
total_code=(0 0)
total_pubs=(0 0)

# cell SIDE REV FILE... — prints one "code pub" column pair and adds it
# to that side's totals.
cell() {
    local side="$1" code pubs
    shift
    read -r code pubs < <(count "$@")
    printf ' %8s %8s' "$code" "$pubs"
    [ "$code" = "-" ] && return
    total_code[side]=$((total_code[side] + code))
    total_pubs[side]=$((total_pubs[side] + pubs))
}

# row LABEL PATH — PATH is a source directory or one file.
row() {
    local files
    printf '%-32s' "$1"
    if [ -n "$against" ]; then
        mapfile -t files < <(sources "$against" "$2")
        cell 1 "$against" "${files[@]}"
        printf ' |'
    fi
    mapfile -t files < <(sources "" "$2")
    cell 0 "" "${files[@]}"
    printf '\n'
}

if [ -n "$against" ]; then
    printf '%-32s %17s | %17s\n' "" "$against" "this tree"
    printf '%-32s %8s %8s | %8s %8s\n' "" "code" "pub" "code" "pub"
else
    printf '%-32s %8s %8s\n' "" "code" "pub"
fi
if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        row "$file" "$file"
    done
else
    # Every crate either side has, then the umbrella crate.
    mapfile -t dirs < <({
        ls -d crates/*/src
        if [ -n "$against" ]; then
            git ls-tree -d --name-only "$against" crates/ | sed 's,$,/src,'
        fi
    } | sort -u)
    for dir in "${dirs[@]}" src; do
        row "${dir%/src}" "$dir"
    done
fi
printf '%-32s' "total"
if [ -n "$against" ]; then
    printf ' %8d %8d |' "${total_code[1]}" "${total_pubs[1]}"
fi
printf ' %8d %8d\n' "${total_code[0]}" "${total_pubs[0]}"

if [ "$#" -eq 0 ] && [ -z "$against" ]; then
    echo
    echo "largest files:"
    sources "" crates/*/src src | while read -r file; do
        read -r code pubs < <(count "" "$file")
        printf '%-32s %8d %8d\n' "$file" "$code" "$pubs"
    done | sort -k2,2nr | head -5
fi
