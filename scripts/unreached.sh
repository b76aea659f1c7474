#!/usr/bin/env bash
# Public items that no code reaches: each `pub fn|struct|enum|trait|
# type|const` under `crates/*/src` and `src/` (the span `loc.sh` counts:
# up to a file's first `#[cfg(test)]`, `tests.rs` files skipped) whose
# name appears as a word in the code of no file under `crates/ src/
# tests/ examples/ benchmark/` (build output under any `target/`
# skipped) but its definition. Comments (from `//` to the end of a line)
# name nothing, and an item's own file reaches it when its code names it
# a second time: a type used only as an in-file field or return type is
# reached.
#
#   unreached.sh     — one `file:line kind name` row per item that no
#                      code names, then the count; then the same rows
#                      and count for the items that only test code names
#                      (files under a `tests/` directory, `tests.rs`
#                      files, and whatever follows a file's first
#                      `#[cfg(test)]`, the item's own file included)
#
# A candidate list for deletion, not a verdict: a method is reached
# through its type, so a name that a caller spells only as `.name(`
# counts as reached, and one shared with any other word (`new`, `len`)
# is never listed. A trait method or a `Default` constructor reached
# through its trait can be listed and still live. An item of the second
# list is kept alive by its tests alone.
# `ci.sh` prints both lists after the size table; nothing gates on them.
set -euo pipefail

cd "$(dirname "$0")/.."

find crates src tests examples benchmark -type d -name target -prune -o -type f -print \
    | sort | tr '\n' '\0' | xargs -0 awk '
    FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests(\/|\.rs$)/ }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    {
        code = $0
        sub(/\/\/.*/, "", code)
        words = split(code, word, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= words; i++) {
            if (word[i] == "") {
                continue
            }
            if (in_tests) {
                tested[word[i]] = 1
            } else {
                live[word[i], FILENAME]++
                if (live[word[i], FILENAME] == 1) {
                    live_files[word[i]]++
                }
            }
        }
    }
    FILENAME !~ /^(crates\/[^\/]+\/)?src\// || FILENAME !~ /\.rs$/ || in_tests { next }
    match($0, /^[[:space:]]*pub ((const|unsafe|async) )*(fn|struct|enum|trait|type|const) [A-Za-z_][A-Za-z0-9_]*/) {
        k = split(substr($0, RSTART, RLENGTH), def, " ")
        n++
        def_file[n] = FILENAME
        def_line[n] = FNR
        def_kind[n] = def[k - 1]
        def_name[n] = def[k]
    }
    # Named by code beyond its definition: twice in its own file, or
    # once in any other.
    function reached(i,    own) {
        own = live[def_name[i], def_file[i]]
        return own > 1 || live_files[def_name[i]] > (own > 0)
    }
    function report(test_only, what,    i, count) {
        for (i = 1; i <= n; i++) {
            if (!reached(i) && (def_name[i] in tested) == test_only) {
                printf "%s:%d %s %s\n", def_file[i], def_line[i], def_kind[i], def_name[i]
                count++
            }
        }
        printf "%d of %d pub items are named %s\n", count, n, what
    }
    END {
        report(0, "by no code but their definition")
        report(1, "by test code only")
    }
'
