#!/bin/sh
# Prints the non-test line count of the workspace crates: every
# crates/*/src/**/*.rs file, counted up to its first `#[cfg(test)]`.
# Run from anywhere: `scripts/src_lines.sh`.
set -eu
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { counting = 1 }
    /#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }' {} + | awk '{ total += $1 } END { print total }'
