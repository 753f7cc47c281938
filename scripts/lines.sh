#!/usr/bin/env bash
# Non-test line counts, the measure every change reports its net lines
# by: for each crate, the lines of its `src/**/*.rs` files before each
# file's first `#[cfg(test)]` (unit tests sit at the bottom of a file
# behind that marker; `tests/`, `benches/` and `examples/` are not
# counted). This is the same cut `scripts/ci.sh`'s panic-path budget
# counts over.
#
# Prints one row per crate (crates/*, compat/*, and the root `acorn`
# facade), the workspace total, and the events + soak total that the
# ROADMAP's line-count target is stated in.
#
# Usage: scripts/lines.sh [repo-root]   (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { # $1: a crate's src directory
    local total=0 f n
    while IFS= read -r f; do
        n=$(awk '/#\[cfg\(test\)\]/{exit} {n++} END {print n + 0}' "$f")
        total=$((total + n))
    done < <(find "$1" -name '*.rs' | sort)
    echo "$total"
}

all=0
for dir in crates/*/src compat/*/src src; do
    [ -d "$dir" ] || continue
    n=$(count "$dir")
    all=$((all + n))
    case "$dir" in
        crates/events/src) events=$n ;;
        crates/soak/src) soak=$n ;;
    esac
    printf '%-28s %6d\n' "${dir%/src}" "$n"
done
printf '%-28s %6d\n' "total" "$all"
printf '%-28s %6d\n' "events + soak" "$((${events:-0} + ${soak:-0}))"
