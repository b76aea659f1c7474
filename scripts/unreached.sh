#!/usr/bin/env bash
# Public items that nothing else names: each `pub fn|struct|enum|trait|
# type|const` under `crates/*/src` and `src/` (the span `loc.sh` counts:
# up to a file's first `#[cfg(test)]`, `tests.rs` files skipped) whose
# name appears as a word in no other file under `crates/ src/ tests/
# examples/ benchmark/` (build output under any `target/` skipped).
#
#   unreached.sh     — one `file:line kind name` row per such item, then
#                      the count
#
# A candidate list for deletion, not a verdict: a method is reached
# through its type, so a name that a caller spells only as `.name(` in
# another file counts as reached, and one shared with any other word
# there (`new`, `len`) is never listed. A trait method or a `Default`
# constructor reached through its trait can be listed and still live.
# `ci.sh` prints it after the size table; nothing gates on it.
set -euo pipefail

cd "$(dirname "$0")/.."

find crates src tests examples benchmark -type d -name target -prune -o -type f -print \
    | sort | tr '\n' '\0' | xargs -0 awk -F '[^A-Za-z0-9_]+' '
    FNR == 1 { in_tests = 0 }
    {
        for (i = 1; i <= NF; i++) {
            if ($i != "" && !(($i, FILENAME) in seen)) {
                seen[$i, FILENAME] = 1
                files[$i]++
            }
        }
    }
    FILENAME !~ /^(crates\/[^\/]+\/)?src\// || FILENAME ~ /\/tests\.rs$/ || FILENAME !~ /\.rs$/ { next }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    match($0, /^[[:space:]]*pub ((const|unsafe|async) )*(fn|struct|enum|trait|type|const) [A-Za-z_][A-Za-z0-9_]*/) {
        k = split(substr($0, RSTART, RLENGTH), word, " ")
        n++
        def_file[n] = FILENAME
        def_line[n] = FNR
        def_kind[n] = word[k - 1]
        def_name[n] = word[k]
    }
    END {
        for (i = 1; i <= n; i++) {
            if (files[def_name[i]] == 1) {
                printf "%s:%d %s %s\n", def_file[i], def_line[i], def_kind[i], def_name[i]
                count++
            }
        }
        printf "%d of %d pub items are named in no other file\n", count, n
    }
'
