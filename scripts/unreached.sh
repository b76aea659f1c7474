#!/usr/bin/env bash
# Public items that nothing else names: each `pub fn|struct|enum|trait|
# type|const` under `crates/*/src` and `src/` (the span `loc.sh` counts:
# up to a file's first `#[cfg(test)]`, `tests.rs` files skipped) whose
# name appears as a word in no other file under `crates/ src/ tests/
# examples/ benchmark/` (build output under any `target/` skipped).
#
#   unreached.sh     — one `file:line kind name` row per such item, then
#                      the count; then the same rows and count for the
#                      `pub` items that other files name only in test
#                      code (files under a `tests/` directory, `tests.rs`
#                      files, and whatever follows a file's first
#                      `#[cfg(test)]`)
#
# A candidate list for deletion, not a verdict: a method is reached
# through its type, so a name that a caller spells only as `.name(` in
# another file counts as reached, and one shared with any other word
# there (`new`, `len`) is never listed. A trait method or a `Default`
# constructor reached through its trait can be listed and still live.
# An item of the second list is kept alive by its tests alone.
# `ci.sh` prints both lists after the size table; nothing gates on them.
set -euo pipefail

cd "$(dirname "$0")/.."

find crates src tests examples benchmark -type d -name target -prune -o -type f -print \
    | sort | tr '\n' '\0' | xargs -0 awk -F '[^A-Za-z0-9_]+' '
    FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests(\/|\.rs$)/ }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    {
        for (i = 1; i <= NF; i++) {
            if ($i != "" && !(($i, FILENAME) in seen)) {
                seen[$i, FILENAME] = 1
                files[$i]++
            }
            if ($i != "" && !in_tests && !(($i, FILENAME) in seen_live)) {
                seen_live[$i, FILENAME] = 1
                live_files[$i]++
            }
        }
    }
    FILENAME !~ /^(crates\/[^\/]+\/)?src\// || FILENAME !~ /\.rs$/ || in_tests { next }
    match($0, /^[[:space:]]*pub ((const|unsafe|async) )*(fn|struct|enum|trait|type|const) [A-Za-z_][A-Za-z0-9_]*/) {
        k = split(substr($0, RSTART, RLENGTH), word, " ")
        n++
        def_file[n] = FILENAME
        def_line[n] = FNR
        def_kind[n] = word[k - 1]
        def_name[n] = word[k]
    }
    function report(test_only, what,    i, name, count) {
        for (i = 1; i <= n; i++) {
            name = def_name[i]
            if (test_only ? files[name] > 1 && live_files[name] == 1 : files[name] == 1) {
                printf "%s:%d %s %s\n", def_file[i], def_line[i], def_kind[i], name
                count++
            }
        }
        printf "%d of %d pub items are named %s\n", count, n, what
    }
    END {
        report(0, "in no other file")
        report(1, "in other files only by test code")
    }
'
