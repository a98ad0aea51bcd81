#!/usr/bin/env bash
# Non-test lines per crate, and their total: the one way size criteria are
# measured. A file's non-test lines are its lines before the first line that
# starts with `#[cfg(test)]` (all of them when there is none), over every
# `crates/<crate>/src/**/*.rs`. The second count keeps only the non-test
# lines that are code: blank lines and lines whose first non-blank
# characters are `//` (comments, `///` and `//!` docs) are skipped, so a
# size claim can be told apart from trimmed documentation.
#
#   scripts/loc.sh [<checkout>]
#
# Prints one `<crate> <lines> <code lines>` line per crate, then
# `total <lines> <code lines>`.
set -euo pipefail
root="$(cd "${1:-$(dirname "$0")/..}" && pwd)"
total=0
total_code=0
for dir in "$root"/crates/*/; do
    crate="$(basename "$dir")"
    [ -d "$dir/src" ] || continue
    lines=0
    code=0
    while IFS= read -r -d '' file; do
        read -r n c < <(awk '
            /^#\[cfg\(test\)\]/ { exit }
            { n++ }
            !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { c++ }
            END { print n + 0, c + 0 }' "$file")
        lines=$((lines + n))
        code=$((code + c))
    done < <(find "$dir/src" -name '*.rs' -print0)
    echo "$crate $lines $code"
    total=$((total + lines))
    total_code=$((total_code + code))
done
echo "total $total $total_code"
