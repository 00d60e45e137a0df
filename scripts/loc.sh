#!/usr/bin/env bash
# Non-test Rust line count: every line of the `.rs` files under
# crates/*/src and src/, up to each file's first top-level `#[cfg(test)]`
# (its in-file test module). Integration tests, benches and examples are
# not counted. Prints one number.
#
# Usage: scripts/loc.sh [CHECKOUT]   (default: this checkout)
# Compare two trees, e.g. a parent commit exported with `git archive`:
#   scripts/loc.sh /path/to/parent; scripts/loc.sh
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
find crates/*/src src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; |
  awk '{ total += $1 } END { print total + 0 }'
